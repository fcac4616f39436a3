"""Tests for similarity math, the two-tier cache, and crash recovery."""

import gc
import math
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from oracles import TwoDictCache

from medserve.cache import (
    CacheEntry,
    QueryFeatures,
    SimilarityConfig,
    TwoLevelCache,
    cosine,
    decode_records,
    embed,
    encode_record,
    jaccard,
    similarity,
)

token_sets = st.sets(st.sampled_from(["a", "b", "c", "d", "e", "f"]))


class TestJaccard:
    def test_identical(self):
        assert jaccard({"a", "b"}, {"a", "b"}) == 1.0

    def test_disjoint(self):
        assert jaccard({"a"}, {"b"}) == 0.0

    def test_half_overlap(self):
        assert jaccard({"a", "b", "c"}, {"b", "c", "d"}) == 0.5

    def test_both_empty_convention(self):
        assert jaccard(set(), set()) == 1.0

    @given(token_sets, token_sets)
    def test_symmetric_and_bounded(self, s1, s2):
        v = jaccard(s1, s2)
        assert v == jaccard(s2, s1)
        assert 0.0 <= v <= 1.0


class TestEmbed:
    def test_deterministic(self):
        assert np.array_equal(embed("chest pain"), embed("chest pain"))

    def test_unit_norm(self):
        v = embed("what is the dose of ibuprofen")
        assert np.linalg.norm(v.astype(np.float64)) == pytest.approx(1.0, abs=1e-6)

    def test_empty_is_zero_vector(self):
        assert np.all(embed("") == 0.0)

    def test_token_order_irrelevant(self):
        assert np.array_equal(embed("dose of ibuprofen"), embed("ibuprofen of dose"))

    def test_cosine_zero_vector_is_zero(self):
        assert cosine(embed(""), embed("anything")) == 0.0


class TestSimilarity:
    def test_equal_texts(self):
        cfg = SimilarityConfig()
        assert similarity("chest pain", "chest pain", cfg) == pytest.approx(1.0, abs=1e-9)

    def test_alpha_one_reduces_to_jaccard(self):
        cfg = SimilarityConfig(alpha=1.0, tau=0.5)
        a, b = "one two three", "two three four"
        assert similarity(a, b, cfg) == pytest.approx(jaccard({"one", "two", "three"},
                                                              {"two", "three", "four"}))

    def test_blend_arithmetic(self):
        # alpha=0.3, jaccard=0.5, cosine=0.8 -> 0.71
        assert 0.3 * 0.5 + 0.7 * 0.8 == pytest.approx(0.71)
        cfg = SimilarityConfig(alpha=0.3, tau=0.9)
        j = jaccard({"a", "b", "c"}, {"b", "c", "d"})
        got = cfg.alpha * j + (1 - cfg.alpha) * 0.8
        assert got == pytest.approx(0.3 * 0.5 + 0.7 * 0.8)

    @given(st.text(alphabet="abcdef ", max_size=30), st.text(alphabet="abcdef ", max_size=30))
    def test_symmetric(self, q1, q2):
        cfg = SimilarityConfig()
        assert similarity(q1, q2, cfg) == pytest.approx(similarity(q2, q1, cfg), abs=1e-12)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SimilarityConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SimilarityConfig(tau=0.0)


SEMANTIC_PAIRS = [  # (probe, cached query), each a semantic near-match
    ("what is the usual dose of ibuprofen for children",
     "what is the usual dose of ibuprofen for adults"),
    ("symptoms of type 2 diabetes in adults", "early symptoms of type 2 diabetes"),
    ("how is strep throat treated", "how is strep throat diagnosed"),
]


class TestServedSimilarity:
    """A semantic hit reports similarity(probe, cached query) to the bit."""

    cfg = SimilarityConfig(alpha=0.3, tau=0.5)

    @pytest.mark.parametrize("probe, cached", SEMANTIC_PAIRS)
    def test_memory_hit(self, tmp_path, probe, cached):
        with TwoLevelCache(capacity=4, disk_dir=tmp_path, config=self.cfg) as cache:
            cache.insert(cached, "r", "medication")
            hit = cache.lookup(probe)
        assert hit.tier == "memory"
        assert self.cfg.tau <= hit.similarity < 1.0
        assert hit.similarity == similarity(probe, cached, self.cfg)

    @pytest.mark.parametrize("probe, cached", SEMANTIC_PAIRS)
    def test_disk_hit_after_reopen(self, tmp_path, probe, cached):
        # the reopened entry's embedding is the one decoded from the log
        with TwoLevelCache(capacity=4, disk_dir=tmp_path, config=self.cfg) as cache:
            cache.insert(cached, "r", "medication")
        with TwoLevelCache(capacity=4, disk_dir=tmp_path, config=self.cfg) as cache:
            hit = cache.lookup(probe)
        assert hit.tier == "disk"
        assert self.cfg.tau <= hit.similarity < 1.0
        assert hit.similarity == similarity(probe, cached, self.cfg)


class TestTwoLevelCache:
    def test_exact_hit_after_insert(self, tmp_path):
        with TwoLevelCache(capacity=4, disk_dir=tmp_path) as cache:
            cache.insert("what is aspirin", "answer", "medication")
            hit = cache.lookup("what is aspirin")
            assert hit is not None
            assert hit.tier == "memory"
            assert hit.similarity == 1.0
            assert hit.response == "answer"

    def test_miss_on_empty(self, tmp_path):
        with TwoLevelCache(capacity=4, disk_dir=tmp_path) as cache:
            assert cache.lookup("anything") is None
            assert cache.stats.misses == 1

    def test_permuted_query_semantic_hit(self, tmp_path):
        cfg = SimilarityConfig(alpha=0.3, tau=0.9)
        with TwoLevelCache(capacity=4, disk_dir=tmp_path, config=cfg) as cache:
            cache.insert("what is the dose of ibuprofen", "200mg", "medication")
            hit = cache.lookup("ibuprofen of dose what is the")
            assert hit is not None
            assert hit.similarity == pytest.approx(1.0, abs=1e-9)
            assert hit.response == "200mg"

    def test_lru_eviction_recoverable_from_disk(self, tmp_path):
        with TwoLevelCache(capacity=2, disk_dir=tmp_path) as cache:
            cache.insert("first query", "r1", "diagnosis")
            cache.insert("second query", "r2", "diagnosis")
            cache.insert("third query", "r3", "diagnosis")
            hit = cache.lookup("first query")
            assert hit is not None
            assert hit.tier == "disk"
            # promotion pulls it back into memory
            again = cache.lookup("first query")
            assert again is not None and again.tier == "memory"

    def test_memory_never_exceeds_capacity(self, tmp_path):
        with TwoLevelCache(capacity=3, disk_dir=tmp_path) as cache:
            for i in range(10):
                cache.insert(f"query number {i}", f"r{i}", "treatment")
                assert len(cache._lru) <= 3

    def test_idempotent_reinsert(self, tmp_path):
        with TwoLevelCache(capacity=4, disk_dir=tmp_path) as cache:
            cache.insert("query", "resp", "prevention")
            cache.lookup("query")
            cache.insert("query", "resp", "prevention")
            entry = cache._entries["query"]
            assert entry.hits == 1
            cache.flush()
            size_before = (tmp_path / "cache.log").stat().st_size
            cache.insert("query", "resp", "prevention")
            cache.flush()
            assert (tmp_path / "cache.log").stat().st_size == size_before

    def test_restart_persistence(self, tmp_path):
        cache = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        cache.insert("persistent question", "saved answer", "diagnosis")
        cache.close()

        reopened = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        try:
            hit = reopened.lookup("persistent question")
            assert hit is not None
            assert hit.response == "saved answer"
            assert hit.tier == "disk"
        finally:
            reopened.close()

    def test_updated_response_wins_after_restart(self, tmp_path):
        cache = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        cache.insert("q", "old", "diagnosis")
        cache.insert("q", "new", "diagnosis")
        cache.close()
        reopened = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        try:
            assert reopened.lookup("q").response == "new"
        finally:
            reopened.close()

    def test_hit_monotonicity(self, tmp_path):
        with TwoLevelCache(capacity=8, disk_dir=tmp_path) as cache:
            cache.insert("stable query", "resp", "diagnosis")
            assert cache.lookup("stable query") is not None
            for i in range(20):
                cache.insert(f"new query {i}", f"r{i}", "diagnosis")
            assert cache.lookup("stable query") is not None

    def test_memory_only_mode(self):
        cache = TwoLevelCache(capacity=2, disk_dir=None)
        assert cache.degraded
        cache.insert("q", "r", "diagnosis")
        assert cache.lookup("q").response == "r"
        cache.close()

    def test_unusable_disk_path_degrades_not_fails(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file occupying the directory name")
        cache = TwoLevelCache(capacity=2, disk_dir=blocker)
        assert cache.degraded
        cache.insert("q", "r", "diagnosis")
        assert cache.lookup("q").response == "r"
        cache.close()

    def test_degraded_reinsert_does_not_resurface_old_response(self, tmp_path):
        with TwoLevelCache(capacity=1, disk_dir=tmp_path) as cache:
            cache.insert("q", "old", "diagnosis")
            cache.degraded = True
            cache.insert("q", "new", "diagnosis")
            assert cache.lookup("q").response == "new"
            cache.insert("other", "r", "diagnosis")  # evicts the unlogged "new"
            assert cache.lookup("q") is None

    def test_reopen_holds_one_entry_per_query(self, tmp_path):
        def live_entries():
            gc.collect()
            return sum(isinstance(o, CacheEntry) for o in gc.get_objects())

        with TwoLevelCache(capacity=4, disk_dir=tmp_path) as cache:
            for i in range(50):
                cache.insert("q", f"response {i}", "diagnosis")
        del cache
        before = live_entries()
        reopened = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        try:
            assert live_entries() - before == 1
            assert reopened.lookup("q").response == "response 49"
        finally:
            reopened.close()

    def test_memory_only_evicted_entry_misses(self):
        cache = TwoLevelCache(capacity=1, disk_dir=None)
        cache.insert("first query", "r1", "diagnosis")
        cache.insert("second query", "r2", "diagnosis")
        assert cache.stats.evictions == 1
        assert cache.lookup("first query") is None
        assert len(cache._entries) == 1
        cache.close()

    def test_concurrent_inserts_and_lookups(self, tmp_path):
        cache = TwoLevelCache(capacity=32, disk_dir=tmp_path)
        errors = []

        def worker(base):
            try:
                for i in range(50):
                    cache.insert(f"query {base} {i}", f"resp{base}-{i}", "diagnosis")
                    cache.lookup(f"query {base} {i}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cache.close()
        assert not errors
        assert cache.stats.inserts == 200


# A 7-token vocabulary makes repeated queries and tied similarities common;
# lookup is listed twice to draw it twice as often.
_queries = st.lists(
    st.sampled_from(["chest", "pain", "dose", "fever", "rash", "cough", "sleep"]),
    max_size=4,
).map(" ".join)
_ops = st.lists(st.one_of(
    st.tuples(st.just("insert"), _queries, st.sampled_from(["r0", "r1", "r2"]),
              st.sampled_from(["diagnosis", "treatment"])),
    st.tuples(st.just("lookup"), _queries),
    st.tuples(st.just("lookup"), _queries),
    st.just(("degrade",)),
    st.just(("reopen",)),
), min_size=20, max_size=60)


class TestMatchesTwoDictOracle:
    """The one-store cache against the two-dict logic it replaced."""

    @staticmethod
    def _state(cache, oracle):
        held = {**oracle._disk_index, **oracle._memory}
        return (
            (cache.stats, list(cache._lru),
             {q: (e.response, e.category, e.hits) for q, e in cache._entries.items()}),
            (oracle.stats, list(oracle._memory),
             {q: (e.response, e.category, e.hits) for q, e in held.items()}),
        )

    @settings(deadline=None, max_examples=200)
    @given(
        capacity=st.integers(1, 4),
        alpha=st.sampled_from([0.0, 0.3, 0.5, 1.0]),
        tau=st.sampled_from([0.3, 0.5, 0.7, 0.92, 1.0]),
        with_disk=st.booleans(),
        ops=_ops,
    )
    def test_lockstep(self, capacity, alpha, tau, with_disk, ops):
        cfg = SimilarityConfig(alpha=alpha, tau=tau)
        with tempfile.TemporaryDirectory() as tmp:
            dirs = (Path(tmp, "store"), Path(tmp, "oracle")) if with_disk else (None, None)

            def open_both():
                return (TwoLevelCache(capacity, dirs[0], cfg),
                        TwoDictCache(capacity, dirs[1], cfg))

            cache, oracle = open_both()
            try:
                for op in ops:
                    if op[0] == "insert":
                        cache.insert(*op[1:])
                        oracle.insert(*op[1:])
                    elif op[0] == "lookup":
                        assert cache.lookup(op[1]) == oracle.lookup(op[1]), op
                    elif op[0] == "degrade":
                        cache.degraded = oracle.degraded = True
                    else:
                        cache.close()
                        oracle.close()
                        cache, oracle = open_both()
                    got, want = self._state(cache, oracle)
                    assert got == want, op
            finally:
                cache.close()
                oracle.close()


def assert_rows_follow_store(cache):
    """Matrix row i holds the embedding of row entry i, the live row entries
    are the store in log order, and at most half the used rows are dead."""
    rows = cache._row_entries
    live = [entry for entry in rows if entry is not None]
    assert [e.query for e in live] == list(cache._entries)
    assert all(a is b for a, b in zip(live, cache._entries.values()))
    assert cache._row_of == {e.query: r for r, e in enumerate(rows) if e is not None}
    for row, entry in enumerate(rows):
        assert entry is None or np.array_equal(cache._matrix[row], entry.embedding), row
    assert len(rows) <= 2 * len(live)


class TestEmbeddingRows:
    """One matrix row per stored entry, in log order."""

    @settings(deadline=None, max_examples=100)
    @given(capacity=st.integers(1, 3), with_disk=st.booleans(), ops=_ops)
    def test_rows_follow_store(self, capacity, with_disk, ops):
        with tempfile.TemporaryDirectory() as tmp:
            directory = tmp if with_disk else None
            cache = TwoLevelCache(capacity, directory)
            try:
                for op in ops:
                    if op[0] == "insert":
                        cache.insert(*op[1:])
                    elif op[0] == "lookup":
                        cache.lookup(op[1])
                    elif op[0] == "degrade":
                        cache.degraded = True
                    else:
                        cache.close()
                        cache = TwoLevelCache(capacity, directory)
                    assert_rows_follow_store(cache)
            finally:
                cache.close()

    def test_reopen_rebuilds_rows_from_log(self, tmp_path):
        queries = [f"fever and rash day {i}" for i in range(5)]
        with TwoLevelCache(capacity=2, disk_dir=tmp_path) as cache:
            for q in queries:
                cache.insert(q, "r1")
            cache.insert(queries[0], "r2")  # a second record for one query
        with TwoLevelCache(capacity=2, disk_dir=tmp_path) as cache:
            assert_rows_follow_store(cache)
            assert [e.query for e in cache._row_entries] == queries
            hit = cache.lookup("day 3 rash and fever")
            assert (hit.tier, hit.response) == ("disk", "r1")
            assert cache.lookup("rash and fever day 0").response == "r2"

    def test_evicted_unlogged_entry_drops_its_row(self):
        with TwoLevelCache(capacity=2) as cache:
            for q in ("chest pain at night", "dose of ibuprofen", "fever in children"):
                cache.insert(q, "r")
            assert "chest pain at night" not in cache._row_of
            assert_rows_follow_store(cache)
            assert cache.lookup("night pain at chest") is None
            for i in range(20):  # compacts every few inserts
                cache.insert(f"query {i}", "r")
                assert_rows_follow_store(cache)
            assert len(cache._row_entries) <= 4

    def test_reinsert_adds_no_row(self, tmp_path):
        with TwoLevelCache(capacity=4, disk_dir=tmp_path) as cache:
            cache.insert("chest pain", "r1")
            cache.insert("chest pain", "r1")
            cache.insert("chest pain", "r2")
            assert len(cache._row_entries) == 1
            assert_rows_follow_store(cache)

    def test_matrix_grows_past_its_initial_rows(self, tmp_path):
        with TwoLevelCache(capacity=2, disk_dir=tmp_path) as cache:
            initial = len(cache._matrix)
            for i in range(initial + 1):
                cache.insert(f"query number {i}", "r")
            assert len(cache._matrix) == 2 * initial
            assert len(cache._cosines) == len(cache._passing) == 2 * initial
            assert_rows_follow_store(cache)
            assert cache.lookup(f"{initial - 5} number query").tier == "disk"


_WORDS = ["chest", "pain", "dose", "fever", "rash", "cough", "sleep"]


class TestCosinePrune:
    """The cut keeps every entry whose blend can reach tau.

    A cached query with the probe's token set but other multiplicities has
    Jaccard 1, so its blend is alpha + (1 - alpha) * cosine: it sits exactly
    on the bound the prune relies on. With tau set to that blend the entry's
    cosine is the cut itself (a hit); one ulp higher, it is just below (a
    miss).
    """

    @settings(deadline=None, max_examples=150)
    @given(words=st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4, unique=True),
           repeats=st.lists(st.integers(0, 2), min_size=4, max_size=4),
           alpha=st.sampled_from([0.0, 0.3, 0.5, 0.9]))
    # float32 scores this pair's cosine below its float64 value: the margin's case
    @example(words=["rash", "cough", "sleep"], repeats=[2, 1, 2, 0], alpha=0.3)
    @example(words=["chest", "pain"], repeats=[1, 0, 0, 0], alpha=0.0)
    def test_entry_on_the_cut(self, words, repeats, alpha):
        probe = " ".join(words)
        cached = " ".join(w for w, k in zip(words, repeats) for _ in range(1 + k))
        assume(probe != cached)
        sim = similarity(probe, cached, SimilarityConfig(alpha=alpha))
        assume(alpha < sim)
        with TwoLevelCache(4, config=SimilarityConfig(alpha=alpha, tau=sim)) as cache:
            cache.insert("unrelated words here", "other")
            cache.insert(cached, "r")
            hit = cache.lookup(probe)
        assert hit is not None and hit.response == "r" and hit.similarity == sim
        above = math.nextafter(sim, 2.0)
        if above <= 1.0:
            with TwoLevelCache(4, config=SimilarityConfig(alpha=alpha, tau=above)) as cache:
                cache.insert(cached, "r")
                assert cache.lookup(probe) is None

    @pytest.mark.parametrize("alpha, tau, hits", [
        (0.3, 0.92, False),  # cut 0.886: a zero embedding is pruned, rightly
        (0.5, 0.5, True),    # tau <= alpha: no cut; Jaccard 1 alone reaches tau
        (1.0, 0.9, True),    # alpha 1: cosine has no weight, no cut
    ])
    def test_empty_tokenization(self, alpha, tau, hits):
        cfg = SimilarityConfig(alpha=alpha, tau=tau)
        oracle = TwoDictCache(4, config=cfg)  # memory-only: nothing to close
        with TwoLevelCache(4, config=cfg) as cache:
            for c in (cache, oracle):
                c.insert("???", "r", "diagnosis")
            got = cache.lookup("!!!")
            assert got == oracle.lookup("!!!")
            assert (got is not None) == hits
            if hits:
                assert got.similarity == similarity("!!!", "???", cfg)
            assert cache.lookup("???").similarity == 1.0

    def test_ties_go_to_the_first_in_scan_order(self, tmp_path):
        # "fever rash" and "rash fever" score alike against any probe: the
        # memory tier must pick the least recently used, the disk tier the
        # first logged, as a full scan does
        cfg = SimilarityConfig(alpha=0.3, tau=0.5)
        probe = "fever rash cough"
        with TwoLevelCache(2, tmp_path / "store", cfg) as cache:
            oracle = TwoDictCache(2, tmp_path / "oracle", cfg)
            try:
                for c in (cache, oracle):
                    c.insert("fever rash", "first logged")
                    c.insert("rash fever", "second logged")
                    c.lookup("fever rash")  # LRU order is now the reverse
                hit = cache.lookup(probe)
                assert hit == oracle.lookup(probe)
                assert (hit.tier, hit.response) == ("memory", "second logged")
                for c in (cache, oracle):
                    c.insert("dose of aspirin", "r")
                    c.insert("sleep apnea", "r")  # both ties now on disk
                hit = cache.lookup(probe)
                assert hit == oracle.lookup(probe)
                assert (hit.tier, hit.response) == ("disk", "first logged")
            finally:
                oracle.close()

    def test_features_reused_for_insert(self):
        features = QueryFeatures("Chest pain, chest!", ("chest", "pain", "chest"))
        with TwoLevelCache(4) as cache:
            assert cache.lookup("Chest pain, chest!", features) is None
            cache.insert("Chest pain, chest!", "r", "emergency", features)
            entry = cache._entries["Chest pain, chest!"]
        assert entry.tokens is features.token_set
        assert entry.embedding is features.embedding
        assert np.array_equal(entry.embedding, embed("Chest pain, chest!"))


class TestCrashRecovery:
    def _records(self, n):
        return [
            CacheEntry.build(f"query number {i}", f"response {i}", "diagnosis",
                             timestamp=float(i))
            for i in range(n)
        ]

    def test_truncation_yields_prefix(self, tmp_path):
        entries = self._records(8)
        blob = b"".join(encode_record(e) for e in entries)
        boundaries = []
        total = 0
        for e in entries:
            total += len(encode_record(e))
            boundaries.append(total)

        rng = np.random.default_rng(20)
        for trial in range(50):
            cut = int(rng.integers(0, len(blob) + 1))
            decoded, valid = decode_records(blob[:cut])
            # expected: all records fully contained in the first `cut` bytes
            expected = sum(1 for b in boundaries if b <= cut)
            assert len(decoded) == expected, (trial, cut)
            assert valid == (boundaries[expected - 1] if expected else 0)
            assert [e.query for e in decoded] == [e.query for e in entries[:expected]]

    def test_cache_opens_on_truncated_log(self, tmp_path):
        cache = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        for i in range(5):
            cache.insert(f"crash test {i}", f"r{i}", "emergency")
        cache.close()

        log_path = tmp_path / "cache.log"
        blob = log_path.read_bytes()
        log_path.write_bytes(blob[: len(blob) - 7])  # clip mid-record

        reopened = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        try:
            assert reopened.lookup("crash test 0") is not None
            assert reopened.lookup("crash test 4") is None
            # appends continue cleanly after recovery truncation
            reopened.insert("after recovery", "ok", "diagnosis")
            reopened.flush()
        finally:
            reopened.close()
        final = TwoLevelCache(capacity=4, disk_dir=tmp_path)
        try:
            assert final.lookup("after recovery").response == "ok"
        finally:
            final.close()

    def test_record_round_trip(self):
        entry = CacheEntry.build("round trip query", "resp", "treatment", timestamp=12.5)
        decoded, valid = decode_records(encode_record(entry))
        assert valid == len(encode_record(entry))
        got = decoded[0]
        assert got.query == entry.query
        assert got.response == entry.response
        assert got.category == entry.category
        assert got.timestamp == 12.5
        assert np.array_equal(got.embedding, entry.embedding)
        assert got.tokens == entry.tokens