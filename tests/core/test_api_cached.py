"""The cache-aware construction entry point (``construct_tree_cached``)."""

from repro.core.api import construct_tree, construct_tree_cached
from repro.matrix.generators import random_metric_matrix
from repro.obs import Recorder
from repro.service.cache import ResultCache, cache_key
from repro.service.scheduler import solve_payload
from repro.tree.newick import to_newick


class TestConstructTreeCached:
    def test_miss_then_hit(self, square5):
        cache = ResultCache()
        rec = Recorder()
        first = construct_tree_cached(
            square5, "compact", cache=cache, recorder=rec
        )
        second = construct_tree_cached(
            square5, "compact", cache=cache, recorder=rec
        )
        assert to_newick(first.tree) == to_newick(second.tree)
        assert first.cost == second.cost
        assert rec.counter_total("cache.miss") == 1
        assert rec.counter_total("cache.hit") == 1
        # The hit's details is the cached payload, not an engine result.
        assert second.details["newick"] == to_newick(first.tree, precision=12)

    def test_matches_uncached_result(self, square5):
        plain = construct_tree(square5, "upgmm")
        cached = construct_tree_cached(square5, "upgmm", cache=ResultCache())
        assert cached.cost == plain.cost
        assert to_newick(cached.tree) == to_newick(plain.tree)

    def test_hit_survives_cache_restart_via_disk(self, square5, tmp_path):
        first = construct_tree_cached(
            square5, "upgmm", cache=ResultCache(directory=tmp_path)
        )
        rec = Recorder()
        second = construct_tree_cached(
            square5, "upgmm",
            cache=ResultCache(directory=tmp_path), recorder=rec,
        )
        assert rec.counter_total("cache.hit") == 1
        assert to_newick(second.tree) == to_newick(first.tree)

    def test_nj_bypasses_cache(self, square5):
        cache = ResultCache()
        rec = Recorder()
        result = construct_tree_cached(
            square5, "nj", cache=cache, recorder=rec
        )
        assert result.method == "nj"
        assert len(cache) == 0
        assert rec.counter_total("cache.miss") == 0

    def test_options_partition_the_cache(self, square5):
        cache = ResultCache()
        construct_tree_cached(
            square5, "compact", cache=cache, reduction="maximum"
        )
        construct_tree_cached(
            square5, "compact", cache=cache, reduction="minimum"
        )
        assert len(cache) == 2

    def test_metrics_counters_track_hits_and_misses(self, square5):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache()
        construct_tree_cached(
            square5, "compact", cache=cache, metrics=registry
        )
        construct_tree_cached(
            square5, "compact", cache=cache, metrics=registry
        )
        assert registry.counter("cache.miss").value() == 1
        assert registry.counter("cache.hit").value() == 1
        # The miss also timed the underlying solve.
        hist = registry.histogram("solve.seconds", labelnames=("method",))
        assert hist.count(method="compact") == 1


class TestCachedPrecision:
    """Cache entries keep 12 decimals, so a hit passes the oracles."""

    def test_hit_is_oracle_clean(self):
        # At 6 decimals the reparsed hit broke d_T >= M and drifted the
        # cost by 2.8e-6 (174.94282 reparsed vs 174.9428172 reported).
        matrix = random_metric_matrix(12, seed=3, integer=False)
        cache = ResultCache()
        rec = Recorder()
        for _ in range(2):
            result = construct_tree_cached(
                matrix, "bnb", cache=cache, recorder=rec, verify=True
            )
            assert result.verification == []
        assert rec.counter_total("cache.hit") == 1

    def test_one_payload_shape_for_both_writers(self):
        matrix = random_metric_matrix(12, seed=3, integer=False)
        cache = ResultCache()
        construct_tree_cached(matrix, "bnb", cache=cache)
        assert cache.get(cache_key(matrix, "bnb", {})) == solve_payload(
            matrix, "bnb"
        )
