"""Tests for the versioned LRU result cache."""

import threading

from repro.service import ResultCache


class TestLru:
    def test_get_put_roundtrip(self):
        cache = ResultCache(capacity=4)
        key = ("mine", "d", 1, ("fp",))
        assert cache.get(key) == (False, None)
        cache.put(key, "value")
        assert cache.get(key) == (True, "value")

    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("a") == (True, 1)
        assert cache.get("b") == (False, None)
        assert cache.get("c") == (True, 3)
        assert cache.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = ResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") == (False, None)

    def test_overwrite_replaces_value(self):
        cache = ResultCache(capacity=2)
        cache.put("a", 1)
        cache.put("a", 2)
        assert cache.get("a") == (True, 2)
        assert len(cache) == 1


class TestInvalidation:
    def test_invalidate_dataset_drops_matching_keys(self):
        cache = ResultCache(capacity=8)
        cache.put(("mine", "flights", 1, ("fp",)), "m1")
        cache.put(("mine", "flights", 2, ("fp",)), "m2")
        cache.put(("mine", "taxis", 1, ("fp",)), "m3")
        removed = cache.invalidate_dataset("flights")
        assert removed == 2
        assert cache.get(("mine", "taxis", 1, ("fp",)))[0] is True
        assert cache.get(("mine", "flights", 1, ("fp",)))[0] is False

    def test_versioned_keys_do_not_collide(self):
        cache = ResultCache(capacity=8)
        cache.put(("mine", "d", 1, ("fp",)), "old")
        cache.put(("mine", "d", 2, ("fp",)), "new")
        assert cache.get(("mine", "d", 1, ("fp",))) == (True, "old")
        assert cache.get(("mine", "d", 2, ("fp",))) == (True, "new")


class TestStats:
    def test_info_counts(self):
        cache = ResultCache(capacity=2)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        info = cache.info
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["size"] == 1
        assert info["max_size"] == 2
        assert info["evictions"] == 0


class TestThreadSafety:
    def test_concurrent_puts_and_gets_stay_consistent(self, deadline):
        cache = ResultCache(capacity=64)
        errors = []

        def hammer(worker):
            try:
                for i in range(300):
                    key = ("k", i % 40)
                    cache.put(key, (key, worker))
                    hit, value = cache.get(key)
                    if hit:
                        # Values must always be a (key, writer) pair for
                        # the same key — never torn or misfiled.
                        assert value[0] == key
            except BaseException as exc:
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,), daemon=True)
            for w in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(deadline.remaining())
        assert not errors
        assert len(cache) <= 64


class TestStructuralInvalidation:
    def test_dataset_named_sql_does_not_wipe_sql_results(self):
        cache = ResultCache(capacity=8)
        cache.put(("sql", 3, "SELECT 1"), "query-result")
        cache.put(("mine", "sql", 2, ("fp",)), "mine-on-sql-dataset")
        removed = cache.invalidate_dataset("sql")
        assert removed == 1
        assert cache.get(("sql", 3, "SELECT 1")) == (True, "query-result")
        assert cache.get(("mine", "sql", 2, ("fp",)))[0] is False

    def test_dataset_named_mine_only_matches_dataset_position(self):
        cache = ResultCache(capacity=8)
        cache.put(("mine", "flights", 1, ("fp",)), "keep")
        cache.put(("mine", "mine", 1, ("fp",)), "drop")
        assert cache.invalidate_dataset("mine") == 1
        assert cache.get(("mine", "flights", 1, ("fp",)))[0] is True

    def test_invalidate_where_predicate(self):
        cache = ResultCache(capacity=8)
        cache.put(("sql", 1, "q"), "old")
        cache.put(("sql", 2, "q"), "new")
        removed = cache.invalidate_where(
            lambda key: key[0] == "sql" and key[1] < 2
        )
        assert removed == 1
        assert cache.get(("sql", 2, "q"))[0] is True
