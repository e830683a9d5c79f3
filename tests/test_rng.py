import hashlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from activetest import rng
from activetest.errors import DomainError
from activetest.rng import (
    DEFAULT_SEED,
    QUERY_DRAW,
    SUBSET_DRAW,
    keys_for_ids,
    uniforms,
)

from conftest import MC_BRANCH, MC_SAMPLE


class TestDeterminism:
    def test_same_tuple_same_output(self):
        a = uniforms(DEFAULT_SEED, 3, np.arange(100, dtype=np.uint64), QUERY_DRAW)
        b = uniforms(DEFAULT_SEED, 3, np.arange(100, dtype=np.uint64), QUERY_DRAW)
        np.testing.assert_array_equal(a, b)

    def test_scalar_matches_vector(self):
        vec = uniforms(7, 0, np.arange(16, dtype=np.uint64), QUERY_DRAW)
        for i in range(16):
            assert uniforms(7, 0, i, QUERY_DRAW) == vec[i]

    @pytest.mark.parametrize("field", ["seed", "rep", "index", "purpose"])
    def test_any_field_change_changes_output(self, field):
        base = dict(seed=11, rep=2, index=5, purpose=QUERY_DRAW)
        bumped = dict(base)
        bumped[field] += 1
        assert uniforms(**base) != uniforms(**bumped)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int64])
    def test_purpose_column_matches_per_purpose_draws(self, dtype):
        # one call with a column of purposes draws each purpose's own stream
        idx = np.arange(50, dtype=dtype)
        purposes = np.array([MC_BRANCH, QUERY_DRAW, SUBSET_DRAW, MC_SAMPLE], dtype=np.uint64)
        table = uniforms(9, 4, idx, purposes[:, None])
        assert table.shape == (4, 50)
        for j, purpose in enumerate(purposes):
            assert table[j].tobytes() == uniforms(9, 4, idx, purpose).tobytes()

    def test_purpose_tags_are_distinct(self):
        # a tag shared by two purposes would give them one stream
        tags = {name: value for name, value in vars(rng).items()
                if name.endswith(("_DRAW", "_NOISE")) and type(value) is int}
        assert {"QUERY_DRAW", "SUBSET_DRAW", "PRIMARY_NOISE", "BETA_DRAW"} <= tags.keys()
        tags.update(MC_BRANCH=MC_BRANCH, MC_SAMPLE=MC_SAMPLE)
        assert len(set(tags.values())) == len(tags), tags

    @pytest.mark.parametrize("field", ["seed", "rep", "index", "purpose"])
    @pytest.mark.parametrize("bad", [1.7, 0.2, np.array([0.2, 0.9, 1.0]), float("nan"),
                                     float("inf"), "3", True, np.True_, np.array([True, False]),
                                     Decimal(3)],
                             ids=["1.7", "0.2", "array", "nan", "inf", "text", "bool",
                                  "numpy bool", "bool array", "Decimal"])
    def test_words_that_are_not_whole_numbers_refused(self, field, bad):
        words = {**dict(seed=1, rep=0, index=3, purpose=QUERY_DRAW), field: bad}
        with pytest.raises(DomainError, match="^seed, rep, index and purpose must be whole "
                                              "numbers, got "):
            uniforms(**words)

    def test_whole_words_draw_as_their_integers(self):
        idx = np.array([0, 5, 2**40])
        want = uniforms(3, 1, idx, QUERY_DRAW)
        np.testing.assert_array_equal(uniforms(3.0, 1.0, idx.astype(float), QUERY_DRAW), want)
        np.testing.assert_array_equal(uniforms(np.int32(3), np.uint8(1), idx.astype(object),
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


# A frozen copy of the word hashing and float tail that the in-place kernel
# replaced: a fresh array per operation, every word absorbed as a numpy
# uint64 (scalars included).  The kernel must give the same bits.
_REF_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_REF_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_REF_MULT2 = np.uint64(0x94D049BB133111EB)


def _ref_mix(z):
    z = (z ^ (z >> np.uint64(30))) * _REF_MULT1
    z = (z ^ (z >> np.uint64(27))) * _REF_MULT2
    return z ^ (z >> np.uint64(31))


def _ref_word(v):
    if not int(v) == v:
        raise DomainError("not whole")
    return int(v) & ((1 << 64) - 1)


def _ref_words(x):
    arr = np.asarray(x)
    if arr.dtype == np.uint64:
        return arr
    if arr.dtype.kind in "iu":
        return arr.astype(np.uint64)
    return np.asarray([_ref_word(v) for v in arr.ravel().tolist()],
                      dtype=np.uint64).reshape(arr.shape)


def _ref_state(seed, rep, index, purpose, draw):
    with np.errstate(over="ignore"):
        s = _ref_mix(_ref_words(seed) + _REF_GAMMA)
        for word in (rep, index, purpose, draw):
            s = _ref_mix(s ^ (_ref_words(word) + _REF_GAMMA))
    return s


def _ref_uniforms(*words):
    s = _ref_state(*words, 0)
    u = ((s >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    if u.ndim:
        return np.minimum(u, np.nextafter(1.0, 0.0), out=u)
    return min(u, np.nextafter(1.0, 0.0))


_BIG = st.integers(-(2**70), 2**70)
_SCALAR_WORDS = st.one_of(
    _BIG,
    st.integers(2**64, 2**80),
    st.integers(-(2**53), 2**53).map(float),
    st.integers(-128, 127).map(np.int8),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(-(2**53), 2**53).map(np.float64),
    _BIG.map(lambda v: np.array(v, dtype=object)),
    st.integers(-(2**63), 2**63 - 1).map(np.array),
)
_ARRAY_KINDS = {
    "int64": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint64": (st.integers(0, 2**64 - 1), np.uint64),
    "object": (_BIG, object),
    "int8": (st.integers(-128, 127), np.int8),
    "float": (st.integers(-(2**53), 2**53).map(float), np.float64),
    "float32": (st.integers(-(2**24), 2**24).map(float), np.float32),
}


@st.composite
def _word_tuples(draw):
    """Four words, each a scalar of some kind or an array whose shape
    broadcasts against the others, such as (B, 1, 1) x (n,) x (3, 1)."""
    full = draw(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(0, 6)))
    words = []
    for _ in range(4):
        if draw(st.booleans()):
            words.append(draw(_SCALAR_WORDS))
            continue
        ndim = draw(st.integers(1, 3))
        shape = tuple(size if draw(st.booleans()) else 1 for size in full[3 - ndim:])
        values, dtype = _ARRAY_KINDS[draw(st.sampled_from(sorted(_ARRAY_KINDS)))]
        flat = draw(st.lists(values, min_size=int(np.prod(shape)),
                             max_size=int(np.prod(shape))))
        arr = np.array(flat, dtype=dtype).reshape(shape)
        if draw(st.booleans()):
            arr.flags.writeable = False
        words.append(arr)
    return words


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_word_tuples())
def test_kernel_equals_the_frozen_per_operation_version(words):
    before = [w.copy() for w in words if isinstance(w, np.ndarray) and w.ndim]
    # the kernel absorbs the constant word 0 last, where a draw word once was
    got_state, want_state = rng._state(*words), _ref_state(*words, 0)
    assert type(got_state) is type(want_state)
    assert np.shape(got_state) == np.shape(want_state)
    assert np.asarray(got_state).tobytes() == np.asarray(want_state).tobytes()
    got, want = uniforms(*words), _ref_uniforms(*words)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    after = [w for w in words if isinstance(w, np.ndarray) and w.ndim]
    for old, new in zip(before, after):
        assert old.dtype == new.dtype and old.tobytes() == new.tobytes()


def test_large_keyed_draw_matches_the_reference():
    # the float tail shifts the state array in place: the key column stays as it was
    keys = keys_for_ids([f"rs{i}" for i in range(100_000)])
    before = keys.tobytes()
    got = uniforms(DEFAULT_SEED, 3, keys, QUERY_DRAW)
    want = _ref_uniforms(DEFAULT_SEED, 3, keys, QUERY_DRAW)
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert keys.tobytes() == before


def test_block_of_reps_draws_each_reps_own_stream():
    idx = np.arange(7, dtype=np.uint64)
    purposes = np.array([[3], [4], [5]], dtype=np.uint64)
    block = uniforms(11, np.arange(5).reshape(5, 1, 1), idx, purposes)
    assert block.shape == (5, 3, 7)
    for rep in range(5):
        assert block[rep].tobytes() == uniforms(11, rep, idx, purposes).tobytes()
