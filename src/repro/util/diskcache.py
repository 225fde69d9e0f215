"""Size bound and atomic writes for the on-disk caches under ``~/.cache/repro``.

Both disk layers — the trace cache (``traces/``) and the result cache
(``results/``) — grow without limit as sweeps vary their parameters, so
each directory has a byte budget: ``REPRO_CACHE_MAX_MB`` megabytes per
directory (default 512); ``0`` or a negative value disables eviction.
When a directory exceeds it, the least recently *used* entries (oldest
mtime; reads bump it) are deleted until it fits.

Both layers write through :func:`atomic_store` (temp file +
``os.replace``, then the budget check).  To keep a store O(1), each
process tracks every directory's byte total together with the
directory mtime it last left behind: a store adds its file's size and
subtracts the size of the entry it replaced.  The total is trusted only
while the directory mtime is unchanged since this process's last store;
a write or eviction by any other process (or a deletion by this one)
changes it and forces one full scan, as does every
:data:`RESCAN_EVERY`-th store, which bounds drift on filesystems with
coarse mtimes.  Eviction itself is the exact full-scan mtime-LRU of
:func:`evict_lru`, run only when the tracked total is over budget.

``python -m repro cache --stats/--clear`` reports and empties the same
directories.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import BinaryIO, Callable, Dict, List, NamedTuple, Optional, Tuple

#: per-directory budget in megabytes when ``REPRO_CACHE_MAX_MB`` is unset
DEFAULT_MAX_MB = 512

_ENV_VAR = "REPRO_CACHE_MAX_MB"

#: a store rescans its directory at least this often, even when the
#: directory mtime says nobody else wrote to it
RESCAN_EVERY = 256


def cache_root() -> str:
    """The shared parent of every on-disk cache layer."""
    return os.path.join(os.path.expanduser("~"), ".cache", "repro")


def max_cache_bytes() -> Optional[int]:
    """Per-directory byte budget; ``None`` when eviction is disabled.

    A malformed ``REPRO_CACHE_MAX_MB`` raises :exc:`ValueError` naming
    the variable — silently falling back to the default would let a
    typo (``512MB``, ``1,024``) defeat the budget the user asked for.
    """
    raw = os.environ.get(_ENV_VAR, "").strip()
    if not raw:
        return DEFAULT_MAX_MB * 1024 * 1024
    try:
        megabytes = float(raw)
    except ValueError:
        raise ValueError(
            f"{_ENV_VAR} must be a number of megabytes "
            f"(0 or negative disables eviction), got {raw!r}") from None
    if megabytes != megabytes:  # NaN
        raise ValueError(f"{_ENV_VAR} must be a number of megabytes, "
                         f"got {raw!r}")
    if megabytes <= 0:
        return None
    return int(megabytes * 1024 * 1024)


def _scan(directory: str) -> List[Tuple[float, int, str]]:
    """``(mtime, size, path)`` per regular file, oldest first."""
    entries: List[Tuple[float, int, str]] = []
    try:
        with os.scandir(directory) as it:
            for entry in it:
                try:
                    if not entry.is_file(follow_symlinks=False):
                        continue
                    stat = entry.stat(follow_symlinks=False)
                except OSError:
                    continue
                entries.append((stat.st_mtime, stat.st_size, entry.path))
    except OSError:
        return []
    entries.sort()
    return entries


def dir_stats(directory: Optional[str]) -> Dict[str, int]:
    """``{"files": n, "bytes": total}`` for one cache directory."""
    if not directory:
        return {"files": 0, "bytes": 0}
    entries = _scan(directory)
    return {"files": len(entries),
            "bytes": sum(size for _, size, _ in entries)}


def _evict(directory: str, max_bytes: int) -> Tuple[int, int]:
    """``(files removed, bytes left)`` after an mtime-LRU eviction."""
    entries = _scan(directory)
    total = sum(size for _, size, _ in entries)
    removed = 0
    for _mtime, size, path in entries:
        if total <= max_bytes:
            break
        try:
            os.unlink(path)
        except OSError:
            continue
        total -= size
        removed += 1
    return removed, total


def evict_lru(directory: str, max_bytes: int) -> int:
    """Delete oldest-mtime files until the directory fits; returns the
    number of files removed."""
    return _evict(directory, max_bytes)[0]


def maybe_evict(directory: Optional[str]) -> int:
    """Apply the environment-configured budget to one cache directory."""
    if not directory:
        return 0
    budget = max_cache_bytes()
    if budget is None:
        return 0
    return evict_lru(directory, budget)


#: per directory: ``(byte total, directory st_mtime_ns this process
#: last left behind, stores since the last full scan)``
_TRACKED: Dict[str, Tuple[int, int, int]] = {}
_TRACKED_LOCK = threading.Lock()


class StoreOutcome(NamedTuple):
    """What one :func:`atomic_store` did beyond the write itself."""

    #: the tracked total was distrusted and the directory fully scanned
    rescanned: bool = False
    #: entries the budget check deleted
    evicted: int = 0


def _file_size(path: str) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def atomic_store(directory: str, path: str,
                 write: Callable[[BinaryIO], None]) -> StoreOutcome:
    """Write ``path`` inside ``directory`` atomically, then apply the
    budget.

    ``write(fh)`` fills a temp file in the same directory, which
    ``os.replace`` then moves onto ``path``, so readers and concurrent
    writers never see a truncated entry.  If ``write`` (or the replace)
    raises, the temp file is removed, the tracked total is left as it
    was and the exception propagates.  The budget check costs O(1)
    while the tracked total is trusted (see the module docstring).
    """
    os.makedirs(directory, exist_ok=True)
    budget = max_cache_bytes()
    with _TRACKED_LOCK:
        total, mtime_ns, stores = _TRACKED.get(directory, (0, None, 0))
        trusted = (budget is not None and stores < RESCAN_EVERY
                   and mtime_ns == os.stat(directory).st_mtime_ns)
        replaced = _file_size(path) if trusted else 0
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
                written = fh.tell()
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if budget is None:
            return StoreOutcome()
        if trusted:
            total += written - replaced
            stores += 1
        else:
            total = dir_stats(directory)["bytes"]
            stores = 1
        evicted = 0
        if total > budget:
            evicted, total = _evict(directory, budget)
        _TRACKED[directory] = (total, os.stat(directory).st_mtime_ns, stores)
    return StoreOutcome(not trusted, evicted)


def clear_dir(directory: Optional[str]) -> Dict[str, int]:
    """Delete every file in one cache directory (non-recursive)."""
    if not directory:
        return {"files": 0, "bytes": 0}
    entries = _scan(directory)
    removed = 0
    freed = 0
    for _mtime, size, path in entries:
        try:
            os.unlink(path)
        except OSError:
            continue
        removed += 1
        freed += size
    return {"files": removed, "bytes": freed}
