import hashlib

import numpy as np
import pytest
from scipy import stats

from activetest import rng
from activetest.errors import DomainError
from activetest.rng import (
    DEFAULT_SEED,
    MC_BRANCH,
    MC_SAMPLE,
    QUERY_DRAW,
    SUBSET_DRAW,
    keys_for_ids,
    uniforms,
)


class TestDeterminism:
    def test_same_tuple_same_output(self):
        a = uniforms(DEFAULT_SEED, 3, np.arange(100, dtype=np.uint64), QUERY_DRAW)
        b = uniforms(DEFAULT_SEED, 3, np.arange(100, dtype=np.uint64), QUERY_DRAW)
        np.testing.assert_array_equal(a, b)

    def test_scalar_matches_vector(self):
        vec = uniforms(7, 0, np.arange(16, dtype=np.uint64), QUERY_DRAW)
        for i in range(16):
            assert uniforms(7, 0, i, QUERY_DRAW) == vec[i]

    @pytest.mark.parametrize("field", ["seed", "rep", "index", "purpose", "draw"])
    def test_any_field_change_changes_output(self, field):
        base = dict(seed=11, rep=2, index=5, purpose=QUERY_DRAW, draw=0)
        bumped = dict(base)
        bumped[field] += 1
        u0 = uniforms(base["seed"], base["rep"], base["index"], base["purpose"], base["draw"])
        u1 = uniforms(bumped["seed"], bumped["rep"], bumped["index"], bumped["purpose"], bumped["draw"])
        assert u0 != u1

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_purpose_column_matches_per_purpose_draws(self, dtype):
        # one call with a column of purposes draws each purpose's own stream
        idx = np.arange(50, dtype=dtype)
        purposes = np.array([MC_BRANCH, QUERY_DRAW, SUBSET_DRAW, MC_SAMPLE], dtype=np.uint64)
        table = uniforms(9, 4, idx, purposes[:, None])
        assert table.shape == (4, 50)
        for j, purpose in enumerate(purposes):
            assert table[j].tobytes() == uniforms(9, 4, idx, purpose).tobytes()

    @pytest.mark.parametrize("field", ["seed", "rep", "index", "purpose", "draw"])
    @pytest.mark.parametrize("bad", [1.7, 0.2, np.array([0.2, 0.9, 1.0]), float("nan"),
                                     float("inf"), "3"],
                             ids=["1.7", "0.2", "array", "nan", "inf", "text"])
    def test_words_that_are_not_whole_numbers_refused(self, field, bad):
        words = {**dict(seed=1, rep=0, index=3, purpose=QUERY_DRAW, draw=0), field: bad}
        with pytest.raises(DomainError, match="must be whole numbers"):
            uniforms(**words)

    def test_whole_words_draw_as_their_integers(self):
        idx = np.array([0, 5, 2**40])
        want = uniforms(3, 1, idx, QUERY_DRAW)
        np.testing.assert_array_equal(uniforms(3.0, 1.0, idx.astype(float), QUERY_DRAW), want)
        np.testing.assert_array_equal(uniforms(np.int32(3), True, idx.astype(object),
                                               QUERY_DRAW), want)
        # Python ints of any size wrap onto 64 bits, as integer arrays do
        assert uniforms(2**64 + 3, 1 - 2**64, 5, QUERY_DRAW) == want[1]
        assert uniforms(-1, 0, 0, 0) == uniforms(2**64 - 1, 0, 0, 0)
        np.testing.assert_array_equal(uniforms(3, 1, idx.astype(np.uint64), QUERY_DRAW), want)


class TestRange:
    def test_open_unit_interval(self):
        u = uniforms(DEFAULT_SEED, 0, np.arange(200_000, dtype=np.uint64), MC_SAMPLE)
        assert u.min() > 0.0
        assert u.max() < 1.0

    @pytest.mark.parametrize("state", [np.full(3, 2**64 - 1, dtype=np.uint64),
                                       np.uint64(2**64 - 1)], ids=["array", "scalar"])
    def test_top_state_stays_below_one(self, monkeypatch, state):
        # (2^53 - 1) + 1/2 rounds half to even up to 2^53, a draw of exactly 1.0
        assert np.all(state >> np.uint64(11) == 2**53 - 1)
        monkeypatch.setattr(rng, "_state", lambda *words: state)
        u = uniforms(DEFAULT_SEED, 0, 0, QUERY_DRAW)
        assert np.shape(u) == np.shape(state)
        assert np.all(u < 1.0)
        assert np.all(u == np.nextafter(1.0, 0.0))


class TestUniformity:
    def test_chi_square_16_bins(self):
        u = uniforms(DEFAULT_SEED, 0, np.arange(100_000, dtype=np.uint64), MC_BRANCH)
        counts = np.bincount((u * 16).astype(int), minlength=16)
        _, p = stats.chisquare(counts)
        assert p > 0.001

    def test_purpose_streams_uncorrelated(self):
        idx = np.arange(50_000, dtype=np.uint64)
        a = uniforms(DEFAULT_SEED, 0, idx, QUERY_DRAW)
        b = uniforms(DEFAULT_SEED, 0, idx, SUBSET_DRAW)
        assert not np.array_equal(a, b)
        r = np.corrcoef(a, b)[0, 1]
        assert abs(r) < 0.02

    def test_lag_one_autocorrelation_small(self):
        u = uniforms(DEFAULT_SEED, 0, np.arange(100_000, dtype=np.uint64), MC_SAMPLE)
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.02


def blake2b_key(hypothesis_id):
    """The stream key of one id, computed directly from hashlib."""
    digest = hashlib.blake2b(hypothesis_id.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class TestIdKeys:
    def test_key_is_stable(self):
        assert keys_for_ids(["rs12345"]).tolist() == keys_for_ids(["rs12345"]).tolist()

    def test_distinct_ids_distinct_keys(self):
        ids = [f"snp_{i}" for i in range(10_000)]
        keys = keys_for_ids(ids)
        assert len(set(keys.tolist())) == 10_000

    @pytest.mark.parametrize("hid", [
        "", "rs12345", "naïve-β", "日本語", "a,b", "x" * 129, "é" * 100,
    ], ids=["empty", "ascii", "latin", "cjk", "comma", "two-blocks", "two-blocks-utf8"])
    def test_key_is_blake2b_of_utf8(self, hid):
        # repeats catch a hasher state that leaks from one id into the next
        ids = [hid, hid + "!", hid]
        assert keys_for_ids(ids).tolist() == list(map(blake2b_key, ids))

    @pytest.mark.parametrize("ids", [
        [],
        ["rs1"],
        ["β-catenin", "日本語", "naïve", "emoji-\U0001F9EC", "a,b", ""],
        [f"snp_{i}" for i in range(2_000)],
    ], ids=["empty", "single", "non-ascii", "many"])
    def test_bulk_keys_equal_scalar_keys(self, ids):
        keys = keys_for_ids(ids)
        assert keys.dtype == np.uint64
        assert keys.shape == (len(ids),)
        assert keys.tolist() == [blake2b_key(i) for i in ids]

    def test_bulk_keys_keep_the_top_and_bottom_bytes(self):
        ids = [f"rs{i}" for i in range(2_000)]
        scalar = [blake2b_key(i) for i in ids]
        # a wrap to negative int64 or a dropped zero byte would show here
        assert any(k >= 1 << 63 for k in scalar)
        assert any(k >> 56 == 0 for k in scalar) and any(k & 0xFF == 0 for k in scalar)
        assert keys_for_ids(ids).tolist() == scalar
