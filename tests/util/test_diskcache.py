"""Tests for the mtime-LRU size bound on the on-disk caches."""

import math
import os
import pickle
import random
import sys
import threading
import time

import pytest

from repro.util import diskcache
from repro.util.diskcache import (
    DEFAULT_MAX_MB,
    RESCAN_EVERY,
    atomic_store,
    cache_root,
    clear_dir,
    dir_stats,
    evict_lru,
    max_cache_bytes,
    maybe_evict,
)


def make_entry(directory, name, size, mtime):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(b"x" * size)
    os.utime(path, (mtime, mtime))
    return path


class TestBudget:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
        assert max_cache_bytes() == DEFAULT_MAX_MB * 1024 * 1024

    def test_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "2")
        assert max_cache_bytes() == 2 * 1024 * 1024

    def test_fractional(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.5")
        assert max_cache_bytes() == 512 * 1024

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_disables(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", value)
        assert max_cache_bytes() is None

    @pytest.mark.parametrize("value", ["lots", "512MB", "1,024", "nan"])
    def test_garbage_rejected_naming_variable(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", value)
        with pytest.raises(ValueError, match="REPRO_CACHE_MAX_MB"):
            max_cache_bytes()

    def test_cache_root_is_shared_parent(self):
        assert cache_root().endswith(os.path.join(".cache", "repro"))


class TestDirStats:
    def test_counts_files_and_bytes(self, tmp_path):
        make_entry(str(tmp_path), "a", 10, 100)
        make_entry(str(tmp_path), "b", 30, 200)
        assert dir_stats(str(tmp_path)) == {"files": 2, "bytes": 40}

    def test_missing_dir(self, tmp_path):
        assert dir_stats(str(tmp_path / "nope")) == {"files": 0, "bytes": 0}

    def test_none_dir(self):
        assert dir_stats(None) == {"files": 0, "bytes": 0}


class TestEvictLru:
    def test_oldest_mtime_evicted_first(self, tmp_path):
        directory = str(tmp_path)
        old = make_entry(directory, "old", 40, 100)
        mid = make_entry(directory, "mid", 40, 200)
        new = make_entry(directory, "new", 40, 300)
        removed = evict_lru(directory, max_bytes=90)
        assert removed == 1
        assert not os.path.exists(old)
        assert os.path.exists(mid) and os.path.exists(new)

    def test_evicts_until_within_budget(self, tmp_path):
        directory = str(tmp_path)
        for i in range(5):
            make_entry(directory, f"f{i}", 100, 100 + i)
        assert evict_lru(directory, max_bytes=250) == 3
        assert dir_stats(directory)["bytes"] == 200

    def test_noop_when_under_budget(self, tmp_path):
        make_entry(str(tmp_path), "a", 10, 100)
        assert evict_lru(str(tmp_path), max_bytes=1000) == 0

    def test_read_keeps_entry_young(self, tmp_path):
        """A utime bump (what cache loads do) protects an entry."""
        directory = str(tmp_path)
        a = make_entry(directory, "a", 50, 100)
        b = make_entry(directory, "b", 50, 200)
        os.utime(a)  # "read" the older entry now
        evict_lru(directory, max_bytes=60)
        assert os.path.exists(a)
        assert not os.path.exists(b)


class TestMaybeEvict:
    def test_honours_env_budget(self, tmp_path, monkeypatch):
        directory = str(tmp_path)
        for i in range(4):
            make_entry(directory, f"f{i}", 512 * 1024, 100 + i)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
        assert maybe_evict(directory) == 2
        assert dir_stats(directory)["bytes"] <= 1024 * 1024

    def test_disabled_budget_never_evicts(self, tmp_path, monkeypatch):
        make_entry(str(tmp_path), "a", 1024, 100)
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
        assert maybe_evict(str(tmp_path)) == 0

    def test_none_dir(self):
        assert maybe_evict(None) == 0


class TestClearDir:
    def test_removes_everything(self, tmp_path):
        make_entry(str(tmp_path), "a", 10, 100)
        make_entry(str(tmp_path), "b", 20, 200)
        assert clear_dir(str(tmp_path)) == {"files": 2, "bytes": 30}
        assert dir_stats(str(tmp_path)) == {"files": 0, "bytes": 0}

    def test_none_dir(self):
        assert clear_dir(None) == {"files": 0, "bytes": 0}


def store_bytes(directory, name, size):
    return atomic_store(directory, os.path.join(directory, name),
                        lambda fh: fh.write(b"x" * size))


def tracked_total(directory):
    return diskcache._TRACKED[directory][0]


class TestAtomicStore:
    @pytest.fixture(autouse=True)
    def fresh_tracking(self, monkeypatch):
        monkeypatch.setattr(diskcache, "_TRACKED", {})

    def test_writes_entry_and_no_temp_file(self, tmp_path):
        directory = str(tmp_path / "cache")
        store_bytes(directory, "a", 10)
        assert os.listdir(directory) == ["a"]
        assert dir_stats(directory) == {"files": 1, "bytes": 10}

    @pytest.mark.parametrize("seed", range(3))
    def test_budget_holds_and_evicts_oldest_mtime(self, tmp_path,
                                                  monkeypatch, seed):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.01")
        budget = max_cache_bytes()
        directory = str(tmp_path)
        rng = random.Random(seed)
        base = time.time() - 10_000
        model = []  # (name, size), oldest mtime first
        for step in range(200):
            if model and rng.random() < 0.2:
                # A cache read: bumps the entry's mtime to the newest.
                name, size = model.pop(rng.randrange(len(model)))
                os.utime(os.path.join(directory, name),
                         (base + step, base + step))
                model.append((name, size))
                continue
            name, size = f"e{rng.randrange(60)}", rng.randrange(100, 3000)
            store_bytes(directory, name, size)
            os.utime(os.path.join(directory, name), (base + step, base + step))
            model = [entry for entry in model if entry[0] != name]
            model.append((name, size))
            while sum(size for _, size in model) > budget:
                model.pop(0)
            stats = dir_stats(directory)
            assert stats["bytes"] <= budget
            assert sorted(os.listdir(directory)) == sorted(n for n, _ in model)
            assert tracked_total(directory) == stats["bytes"]

    def test_overwrite_counts_only_size_change(self, tmp_path):
        directory = str(tmp_path)
        store_bytes(directory, "a", 100)
        store_bytes(directory, "b", 50)
        assert tracked_total(directory) == 150
        outcome = store_bytes(directory, "a", 30)
        assert not outcome.rescanned
        assert tracked_total(directory) == 80
        assert dir_stats(directory)["bytes"] == 80

    def test_foreign_write_triggers_rescan(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.005")  # 5242 bytes
        directory = str(tmp_path)
        assert store_bytes(directory, "a", 1000).rescanned  # first sight
        make_entry(directory, "foreign", 4000, 100)
        recorded = diskcache._TRACKED[directory][1]
        if os.stat(directory).st_mtime_ns == recorded:
            # The directory clock did not tick between the two writes;
            # give the foreign write the distinct mtime it normally has.
            os.utime(directory, ns=(recorded + 1, recorded + 1))
        outcome = store_bytes(directory, "b", 1000)
        # The tracked total alone (2000 bytes) would not be over budget.
        assert outcome.rescanned
        assert outcome.evicted == 1
        assert not os.path.exists(os.path.join(directory, "foreign"))
        assert dir_stats(directory)["bytes"] <= max_cache_bytes()
        assert tracked_total(directory) == 2000

    def test_under_budget_stores_rarely_scan(self, tmp_path, monkeypatch):
        scans = []
        real_scan = diskcache._scan

        def counting_scan(directory):
            scans.append(directory)
            return real_scan(directory)

        monkeypatch.setattr(diskcache, "_scan", counting_scan)
        directory = str(tmp_path)
        rescans = sum(store_bytes(directory, f"k{i}", 64).rescanned
                      for i in range(1000))
        assert len(scans) == rescans
        assert len(scans) <= math.ceil(1000 / RESCAN_EVERY) + 1
        assert tracked_total(directory) == 1000 * 64

    def test_disabled_budget_never_scans(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
        monkeypatch.setattr(diskcache, "_scan", lambda directory: 1 / 0)
        assert store_bytes(str(tmp_path), "a", 10) == (False, 0)

    def test_failed_write_leaves_no_temp_and_keeps_total(self, tmp_path):
        directory = str(tmp_path)
        store_bytes(directory, "a", 100)
        with pytest.raises((pickle.PicklingError, AttributeError, TypeError)):
            atomic_store(directory, os.path.join(directory, "b"),
                         lambda fh: pickle.dump(lambda: None, fh))
        assert os.listdir(directory) == ["a"]
        assert tracked_total(directory) == 100
        store_bytes(directory, "c", 10)
        assert tracked_total(directory) == dir_stats(directory)["bytes"] == 110

    def test_concurrent_stores_keep_total_exact(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.02")
        directory = str(tmp_path)
        errors = []

        def writer(worker):
            rng = random.Random(worker)
            try:
                for i in range(60):
                    store_bytes(directory, f"w{worker}-{rng.randrange(20)}",
                                rng.randrange(50, 1500))
            except Exception as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        stats = dir_stats(directory)
        assert stats["bytes"] <= max_cache_bytes()
        assert tracked_total(directory) == stats["bytes"]
