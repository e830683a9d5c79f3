import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activetest.errors import DomainError
from activetest.procedures import RejectionSet, bh, by, ebh, harmonic_number

from conftest import oracle_bh, oracle_by, oracle_ebh


def rset(res: RejectionSet) -> set:
    return set(res.rejected.tolist())


class TestBh:
    def test_worked_example(self):
        res = bh([0.01, 0.02, 0.5], alpha=0.1)
        assert res.k_hat == 2
        assert rset(res) == {0, 1}
        assert res.threshold == 2 * 0.1 / 3

    def test_all_ones_rejects_nothing(self):
        res = bh([1.0, 1.0, 1.0], alpha=0.1)
        assert res.k_hat == 0
        assert rset(res) == set()

    def test_boundary_rejects_all(self):
        n = 7
        alpha = 0.1
        res = bh([alpha / n] * n, alpha=alpha)
        assert res.k_hat == n
        assert rset(res) == set(range(n))

    def test_size_matches_k_hat(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(size=rng.integers(1, 30)) ** 2
            res = bh(p, alpha=0.2)
            assert res.rejected.size == res.k_hat

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            bh([0.5, 1.2], alpha=0.1)
        with pytest.raises(DomainError):
            bh([0.5, -0.1], alpha=0.1)
        with pytest.raises(DomainError):
            bh([0.5, np.nan], alpha=0.1)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            bh([0.5], alpha=0.0)
        with pytest.raises(DomainError):
            bh([0.5], alpha=1.0)
        # one rule for every procedure: a level that is not a real number is refused
        for procedure, alpha in ((bh, None), (bh, "0.1"), (ebh, None), (by, [0.1])):
            with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
                procedure([0.5], alpha=alpha)


class TestBy:
    def test_worked_example(self):
        res = by([0.01, 0.02, 0.5], alpha=0.1)
        assert res.k_hat == 2
        assert rset(res) == {0, 1}
        assert res.threshold == 2 * (0.1 / harmonic_number(3)) / 3

    def test_single_hypothesis_equals_bh(self):
        for p in (0.01, 0.09, 0.11, 0.5):
            assert rset(by([p], alpha=0.1)) == rset(bh([p], alpha=0.1))

    def test_all_ones(self):
        assert rset(by([1.0] * 5, alpha=0.1)) == set()

    def test_more_conservative_than_bh(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            p = rng.uniform(size=20) ** 3
            assert rset(by(p, alpha=0.1)) <= rset(bh(p, alpha=0.1))

    def test_harmonic_number(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(3) == pytest.approx(11.0 / 6.0, rel=1e-15)
        assert harmonic_number(10_000) == pytest.approx(
            sum(1.0 / i for i in range(1, 10_001)), rel=1e-12
        )

    def test_harmonic_number_computed_once_per_n(self):
        # the memo returns the same smallest-first sum, so BY's thresholds
        # do not change
        harmonic_number.cache_clear()
        fresh = float(np.sum(1.0 / np.arange(100_000, 0, -1, dtype=np.float64)))
        assert harmonic_number(100_000) == fresh
        assert harmonic_number(100_000) == fresh
        assert harmonic_number.cache_info()[:2] == (1, 1)  # hits, misses
        for n in (0, 2.5, "3"):
            with pytest.raises(DomainError, match="n must be a whole number >= 1"):
                harmonic_number(n)


class TestEbh:
    def test_worked_example(self):
        res = ebh([40.0, 30.0, 1.0], alpha=0.1)
        assert res.k_hat == 2
        assert rset(res) == {0, 1}
        assert res.threshold == 3 / (0.1 * 2)

    def test_all_zero(self):
        assert rset(ebh([0.0, 0.0, 0.0], alpha=0.1)) == set()

    def test_single_boundary_equality(self):
        res = ebh([1.0 / 0.1], alpha=0.1)
        assert rset(res) == {0}
        assert res.k_hat == 1

    def test_infinite_e_allowed(self):
        res = ebh([np.inf, 0.0], alpha=0.1)
        assert 0 in rset(res)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            ebh([1.0, -2.0], alpha=0.1)
        with pytest.raises(DomainError):
            ebh([np.nan], alpha=0.1)


GRID_P = (0.005, 0.02, 0.1, 0.5, 1.0)
GRID_E = (0.0, 0.8, 5.0, 12.0, 40.0)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bh_by_full_product(self, n):
        for p in itertools.product(GRID_P, repeat=n):
            got = bh(p, alpha=0.1)
            want, want_k = oracle_bh(p, 0.1)
            assert rset(got) == want and got.k_hat == want_k, p
            got = by(p, alpha=0.1)
            want, want_k = oracle_by(p, 0.1)
            assert rset(got) == want and got.k_hat == want_k, p

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_ebh_full_product(self, n):
        for e in itertools.product(GRID_E, repeat=n):
            got = ebh(e, alpha=0.1)
            want, want_k = oracle_ebh(e, 0.1)
            assert rset(got) == want and got.k_hat == want_k, e

    def test_random_instances_various_alpha(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            alpha = float(rng.choice([0.05, 0.1, 0.25]))
            p = np.round(rng.uniform(size=n), 3)
            e = np.round(rng.exponential(scale=8.0, size=n), 2)
            assert rset(bh(p, alpha)) == oracle_bh(p, alpha)[0]
            assert rset(by(p, alpha)) == oracle_by(p, alpha)[0]
            assert rset(ebh(e, alpha)) == oracle_ebh(e, alpha)[0]


class TestStructure:
    def test_bh_monotone_in_p(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            p = rng.uniform(size=10)
            base = rset(bh(p, alpha=0.2))
            j = int(rng.integers(0, 10))
            p2 = p.copy()
            p2[j] *= rng.uniform()
            shrunk = rset(bh(p2, alpha=0.2))
            assert shrunk >= base - {j}
            assert len(shrunk) >= len(base)

    def test_ebh_monotone_in_e(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            e = rng.exponential(scale=5.0, size=10)
            base = rset(ebh(e, alpha=0.2))
            j = int(rng.integers(0, 10))
            e2 = e.copy()
            e2[j] *= 1.0 + rng.uniform()
            grown = rset(ebh(e2, alpha=0.2))
            assert grown >= base - {j}
            assert len(grown) >= len(base)

    def test_tie_stability(self):
        res = rset(bh([0.02, 0.02, 0.02, 0.9], alpha=0.1))
        assert res in (set(), {0, 1, 2})
        res = rset(ebh([12.0, 12.0, 1.0], alpha=0.1))
        assert res in (set(), {0, 1})

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(17)
        p = rng.uniform(size=12) ** 2
        base = rset(bh(p, alpha=0.15))
        perm = rng.permutation(12)
        permuted = rset(bh(p[perm], alpha=0.15))
        assert permuted == {int(np.nonzero(perm == i)[0][0]) for i in base}

    def test_threshold_field_consistent(self):
        res = bh([0.01, 0.02, 0.5], alpha=0.1)
        assert rset(res) == {i for i, v in enumerate([0.01, 0.02, 0.5]) if v <= res.threshold}
        res = ebh([40.0, 30.0, 1.0], alpha=0.1)
        assert rset(res) == {i for i, v in enumerate([40.0, 30.0, 1.0]) if v >= res.threshold}

    def test_empty_input_rejected(self):
        with pytest.raises(DomainError):
            bh([], alpha=0.1)
        with pytest.raises(DomainError):
            ebh([], alpha=0.1)

    def test_rejected_indices_sorted_unique(self):
        res = bh([0.01, 0.5, 0.01, 0.02], alpha=0.2)
        assert np.all(np.diff(res.rejected) > 0)

    def test_rejection_set_type(self):
        res = by([0.001], alpha=0.1)
        assert isinstance(res, RejectionSet)
        assert res.k_hat == 1


# Full-sort step-up kernels: the reference the candidate-only sort in
# procedures.bh and procedures.ebh must match bit for bit.
def full_sort_bh(arr, alpha):
    n = arr.size
    passing = np.nonzero(np.sort(arr) <= alpha * np.arange(1, n + 1) / n)[0]
    if passing.size == 0:
        return 0, 0.0, np.empty(0, dtype=np.intp)
    k_hat = int(passing[-1]) + 1
    threshold = k_hat * alpha / n
    return k_hat, threshold, np.nonzero(arr <= threshold)[0]


def full_sort_ebh(arr, alpha):
    n = arr.size
    passing = np.nonzero(np.sort(arr)[::-1] >= n / (alpha * np.arange(1, n + 1)))[0]
    if passing.size == 0:
        return 0, np.inf, np.empty(0, dtype=np.intp)
    k_hat = int(passing[-1]) + 1
    threshold = n / (alpha * k_hat)
    return k_hat, threshold, np.nonzero(arr >= threshold)[0]


STEPUP = settings(max_examples=100, deadline=None, derandomize=True, database=None)
alphas = st.sampled_from([0.01, 0.05, 0.1, 0.2, 0.5, 0.99])


@st.composite
def p_values(draw):
    """alpha and p-values, many of them sitting exactly on a BH threshold."""
    alpha = draw(alphas)
    n = draw(st.integers(1, 40))
    on_threshold = st.integers(1, n).map(lambda k: alpha * k / n)
    value = st.one_of(st.floats(0.0, 1.0), on_threshold, st.sampled_from([0.0, 1.0]))
    return alpha, np.array(draw(st.lists(value, min_size=n, max_size=n)))


@st.composite
def e_values(draw):
    """alpha and e-values, many of them sitting exactly on an e-BH threshold."""
    alpha = draw(alphas)
    n = draw(st.integers(1, 40))
    on_threshold = st.integers(1, n).map(lambda k: n / (alpha * k))
    value = st.one_of(st.floats(0.0, 1e6), on_threshold, st.sampled_from([0.0, 1.0, np.inf]))
    return alpha, np.array(draw(st.lists(value, min_size=n, max_size=n)))


def assert_same_outcome(got: RejectionSet, want) -> None:
    k_hat, threshold, rejected = want
    assert got.k_hat == k_hat
    assert got.threshold == threshold
    assert got.rejected.dtype == rejected.dtype
    np.testing.assert_array_equal(got.rejected, rejected)


@STEPUP
@given(p_values())
@example((0.1, np.array([0.05])))
@example((0.1, np.array([0.5])))
@example((0.1, np.zeros(5)))
@example((0.1, np.ones(5)))
@example((0.1, np.array([0.02, 0.04, 0.06, 0.08, 0.1])))
@example((0.1, np.array([0.1])))
@example((0.2, np.array([0.04, 0.04, 0.04, 0.3, 0.04, 0.3])))
@example((0.2, np.array([0.4, 0.4, 0.2, 0.2, 0.2])))
def test_bh_and_by_match_full_sort(case):
    alpha, p = case
    assert_same_outcome(bh(p, alpha), full_sort_bh(p, alpha))
    assert_same_outcome(by(p, alpha), full_sort_bh(p, alpha / harmonic_number(p.size)))


@STEPUP
@given(e_values())
@example((0.1, np.array([10.0])))
@example((0.1, np.array([9.0])))
@example((0.1, np.full(5, np.inf)))
@example((0.1, np.zeros(5)))
@example((0.5, np.array([np.inf, 10.0, 0.0, 5.0, 2.0])))
@example((0.2, np.array([5.0, 5.0, 25.0, 5.0, 25.0])))
@example((0.2, np.array([10.0, 10.0, 10.0, 1.0])))
def test_ebh_matches_full_sort(case):
    alpha, e = case
    assert_same_outcome(ebh(e, alpha), full_sort_ebh(e, alpha))


@STEPUP
@given(p_values(), st.data())
def test_lowering_a_p_value_never_unrejects(case, data):
    alpha, p = case
    j = data.draw(st.integers(0, p.size - 1))
    lowered = p.copy()
    lowered[j] = data.draw(st.floats(0.0, p[j]))
    for procedure in (bh, by):
        assert rset(procedure(lowered, alpha)) >= rset(procedure(p, alpha))


@STEPUP
@given(e_values(), st.data())
def test_raising_an_e_value_never_unrejects(case, data):
    alpha, e = case
    j = data.draw(st.integers(0, e.size - 1))
    raised = e.copy()
    raised[j] = data.draw(st.one_of(st.floats(e[j], np.inf), st.just(np.inf)))
    assert rset(ebh(raised, alpha)) >= rset(ebh(e, alpha))


@pytest.mark.parametrize("procedure", [bh, by, ebh])
@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, np.nan])
def test_bad_alpha_message(procedure, alpha):
    with pytest.raises(DomainError, match=r"^alpha must lie in \(0, 1\), got "):
        procedure([0.5, 0.2], alpha)


@pytest.mark.parametrize("procedure", [bh, by])
@pytest.mark.parametrize("p, index", [([0.5, 1.5, -1.0], 1), ([0.2, 0.3, np.nan], 2),
                                      ([-0.0, -1e-300], 1)])
def test_bad_p_value_message(procedure, p, index):
    with pytest.raises(DomainError) as info:
        procedure(p, 0.1)
    assert str(info.value) == f"p-values must lie in [0, 1], got {p[index]!r} at index {index}"
    assert info.value.index == index


@pytest.mark.parametrize("procedure, kind", [(bh, "p"), (by, "p"), (ebh, "e")])
@pytest.mark.parametrize("bad", [[], [[0.1, 0.2]]])
def test_bad_shape_message(procedure, kind, bad):
    with pytest.raises(DomainError, match=rf"^{kind}-values must form a nonempty vector$"):
        procedure(bad, 0.1)


@pytest.mark.parametrize("e, index", [([1.0, -2.0], 1), ([np.nan, 1.0], 0)])
def test_bad_e_value_message(e, index):
    with pytest.raises(DomainError) as info:
        ebh(e, 0.1)
    assert str(info.value) == f"e-values must be >= 0, got {e[index]!r} at index {index}"
    assert info.value.index == index
