import math
import re
import warnings

import numpy as np
import pytest

from activetest.allocation import (
    DIRECTIONS,
    EPS,
    AllocationResult,
    allocate_utilities,
    eval_utility,
)
from activetest.errors import DegenerateUtilitiesError, DomainError


class TestUtilitySpec:
    """A utility is its family name."""

    def test_identity_example(self):
        assert eval_utility("identity", 3.0) == 3.0

    def test_log_inverse_at_zero(self):
        # ln(1 + 1/(0 + 1e-8)) = ln(1 + 1e8)
        got = eval_utility("log_inverse", 0.0)
        assert got == pytest.approx(math.log(1.0 + 1e8), rel=1e-15)
        assert got == pytest.approx(18.4207, abs=5e-5)

    def test_log1p_at_zero(self):
        assert eval_utility("log1p", 0.0) == 0.0

    def test_inverse_formula(self):
        assert EPS == 1e-8
        assert eval_utility("inverse", 0.23) == 1.0 / (0.23 + 1e-8)

    def test_directions(self):
        assert DIRECTIONS == {"identity": "direct", "log1p": "direct",
                              "inverse": "inverse", "log_inverse": "inverse"}

    @pytest.mark.parametrize("family", ["cubic", "custom", "log-inverse", "Identity", ""])
    def test_unknown_family_refused(self, family):
        message = (f"utility family must be one of ('identity', 'log1p', 'inverse', "
                   f"'log_inverse'), got {family!r}")
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            eval_utility(family, 0.5)

    def test_negative_aux_rejected_for_direct(self):
        with pytest.raises(DomainError):
            eval_utility("identity", -1.0)
        with pytest.raises(DomainError):
            eval_utility("log1p", np.array([0.5, -0.5]))


class TestAllocate:
    def test_worked_example(self):
        res = allocate_utilities([1.0, 2.0, 3.0], 3.0)
        np.testing.assert_allclose(res.h, [0.5, 1.0, 1.5])
        assert res.expected_queries == pytest.approx(2.5)
        assert res.clamp_count == 1
        assert np.sum(res.h) == pytest.approx(3.0)

    def test_symmetric_example(self):
        res = allocate_utilities([1.0, 1.0, 1.0, 1.0], 2.0)
        np.testing.assert_allclose(res.h, [0.5, 0.5, 0.5, 0.5])
        assert res.expected_queries == pytest.approx(2.0)
        assert res.clamp_count == 0

    def test_point_mass_example(self):
        res = allocate_utilities([5.0, 0.0, 0.0, 0.0], 1.0)
        np.testing.assert_allclose(res.h, [1.0, 0.0, 0.0, 0.0])
        assert res.expected_queries == pytest.approx(1.0)

    def test_degenerate_utilities_error_mentions_remedy(self):
        with pytest.raises(DegenerateUtilitiesError, match="positive utility"):
            allocate_utilities([0.0, 0.0], 1.0)

    def test_overflowing_sum_refused(self):
        with pytest.raises(DomainError, match="utilities overflow"):
            allocate_utilities([1e308, 1e308, 1.0], 2.0)
        # a sum just inside the largest float still allocates
        res = allocate_utilities([1e308, 7e307, 1.0], 2.0)
        assert abs(np.sum(res.h) - 2.0) <= 1e-15

    def test_budget_identity_large_scale(self):
        rng = np.random.default_rng(31)
        u = rng.exponential(size=200_000) * np.exp(rng.normal(0, 4, size=200_000))
        res = allocate_utilities(u, 5_000.0)
        assert abs(np.sum(res.h) - 5_000.0) <= 1e-9 * 5_000.0

    def test_expected_queries_never_exceed_budget(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            n = int(rng.integers(2, 400))
            n_b = float(rng.uniform(0.5, n))
            u = rng.exponential(size=n) ** rng.integers(1, 4)
            if u.sum() == 0.0:
                continue
            res = allocate_utilities(u, n_b)
            assert res.expected_queries <= n_b + 1e-9 * n_b

    def test_clamping_implies_budget_shortfall(self):
        res = allocate_utilities([100.0, 1.0, 1.0, 1.0], 3.0)
        assert res.clamp_count == 1
        assert res.expected_queries < 3.0

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        u = rng.exponential(size=1000)
        base = allocate_utilities(u, 50.0)
        for c in (1e-7, 0.5, 3.0, 1e9):
            scaled = allocate_utilities(c * u, 50.0)
            np.testing.assert_allclose(scaled.h, base.h, rtol=1e-12)

    def test_monotone_allocation_direct_and_inverse(self):
        aux = np.array([0.1, 0.5, 2.0, 9.0])
        direct = allocate_utilities(eval_utility("log1p", aux), 2.0)
        assert np.all(np.diff(direct.h) >= 0.0)
        inverse = allocate_utilities(eval_utility("log_inverse", aux / 10.0), 2.0)
        assert np.all(np.diff(inverse.h) <= 0.0)

    def test_compression_effectiveness_heavy_tail(self):
        aux = np.ones(1000)
        aux[0] = 1e6
        compressed = allocate_utilities(eval_utility("log1p", aux), 100.0)
        raw = allocate_utilities(eval_utility("identity", aux), 100.0)
        assert compressed.expected_queries >= 0.95 * 100.0
        assert raw.expected_queries < 0.15 * 100.0

    def test_query_prob_property(self):
        res = allocate_utilities([1.0, 2.0, 3.0], 3.0)
        np.testing.assert_allclose(np.minimum(1.0, res.h), [0.5, 1.0, 1.0])

    def test_utilities_validated(self):
        with pytest.raises(DomainError):
            allocate_utilities([1.0, np.nan], 1.0)
        with pytest.raises(DomainError):
            allocate_utilities([1.0, -1.0], 1.0)
        with pytest.raises(DomainError, match="nonempty vector"):
            allocate_utilities([], 1.0)
        with pytest.raises(DomainError, match="nonempty vector"):
            allocate_utilities([[1.0, 2.0]], 1.0)


class TestBudget:
    def test_rejects_nonpositive_budget(self):
        # all-zero utilities: the budget is checked first
        for n_b in (0.0, -5.0, float("nan"), float("inf"), "10", None):
            with pytest.raises(DomainError,
                               match=f"^{re.escape(f'budget must lie in (0, inf), got {n_b!r}')}$"):
                allocate_utilities([0.0, 0.0], n_b)

    def test_fractional_budget_allowed(self):
        assert np.sum(allocate_utilities(np.ones(10), 2.5).h) == pytest.approx(2.5)
        # a numpy scalar is a real number
        assert np.sum(allocate_utilities(np.ones(10), np.float32(2.5)).h) == pytest.approx(2.5)

    # an int beyond the float range is a finite budget above n too
    @pytest.mark.parametrize("n_b", [10.5, 20.0, 10**400], ids=["n+0.5", "2n", "10**400"])
    def test_budget_above_n_refused(self, n_b):
        with pytest.raises(DomainError,
                           match=f"^{re.escape(f'budget must lie in [0, 10], got {n_b!r}')}$"):
            allocate_utilities(np.ones(10), n_b)

    def test_exact_budget_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = allocate_utilities(np.ones(10), 10.0)
        np.testing.assert_array_equal(res.h, np.ones(10))


def test_allocation_result_is_plain_accounting():
    res = AllocationResult(np.array([0.5]), 0.5, 0)
    np.testing.assert_allclose(np.minimum(1.0, res.h), [0.5])
