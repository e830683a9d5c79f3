import hashlib
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from activetest import simulate
from activetest.engine import METHOD_NAMES
from activetest.errors import DomainError
from activetest.simulate import (
    DESK_BUDGET,
    DESK_N,
    DESK_REPS,
    DgpSpec,
    SignalDraw,
    default_construction,
    gen_signal,
    make_statistics,
    run_experiment,
    utility_defaults,
)


class TestDgpSpec:
    def test_derived_parameters(self):
        spec = DgpSpec("signal", n=2000, pi=0.1)
        assert spec.tau_sq == 2.0 * math.log(2000)
        assert spec.lam == math.sqrt(math.log(2000 / 0.1))
        assert spec.alpha == 0.1

    def test_desk_scale_constants(self):
        assert (DESK_N, DESK_BUDGET, DESK_REPS) == (2000, 100, 100)

    def test_kind_validation(self):
        with pytest.raises(DomainError):
            DgpSpec("triangular", n=100, pi=0.1)

    def test_sigma_only_for_noisy(self):
        DgpSpec("noisy", n=100, pi=0.1, sigma=2.0)
        with pytest.raises(DomainError):
            DgpSpec("noisy", n=100, pi=0.1)
        with pytest.raises(DomainError):
            DgpSpec("signal", n=100, pi=0.1, sigma=2.0)
        with pytest.raises(DomainError):
            DgpSpec("noisy", n=100, pi=0.1, sigma=0.0)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0])
    def test_noisy_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(DomainError, match="finite sigma > 0"):
            DgpSpec("noisy", n=100, pi=0.1, sigma=sigma)

    def test_rho_only_for_correlated(self):
        DgpSpec("correlated", n=100, pi=0.1, rho=0.5)
        with pytest.raises(DomainError):
            DgpSpec("correlated", n=100, pi=0.1)
        with pytest.raises(DomainError):
            DgpSpec("signal", n=100, pi=0.1, rho=0.5)
        with pytest.raises(DomainError):
            DgpSpec("correlated", n=100, pi=0.1, rho=1.0)

    def test_pi_domain(self):
        with pytest.raises(DomainError):
            DgpSpec("signal", n=100, pi=-0.1)
        with pytest.raises(DomainError):
            DgpSpec("signal", n=100, pi=1.1)


class TestGenSignal:
    def test_pi_zero_all_null(self):
        spec = DgpSpec("signal", n=500, pi=0.0)
        draw = gen_signal(spec, rep=0, seed=1)
        assert not draw.truth.any()
        assert np.all(draw.mu == 0.0)

    def test_pi_one_all_signal(self):
        spec = DgpSpec("signal", n=500, pi=1.0)
        draw = gen_signal(spec, rep=0, seed=1)
        assert draw.truth.all()
        assert np.all(draw.mu > 0.0)

    def test_binomial_signal_count(self):
        n, pi = 10_000, 0.1
        spec = DgpSpec("signal", n=n, pi=pi)
        draw = gen_signal(spec, rep=0, seed=2)
        count = int(draw.truth.sum())
        assert abs(count - n * pi) <= 4.0 * math.sqrt(n * pi * (1 - pi))

    def test_null_z_is_standard_normal(self):
        spec = DgpSpec("signal", n=100_000, pi=0.0)
        draw = gen_signal(spec, rep=0, seed=3)
        assert abs(draw.z.mean()) < 4.0 / math.sqrt(draw.z.size)
        assert abs(draw.z.std(ddof=1) - 1.0) < 0.02

    def test_mu_scale_matches_tau(self):
        # |N(0, tau^2)| has mean tau * sqrt(2/pi)
        spec = DgpSpec("signal", n=200_000, pi=1.0)
        draw = gen_signal(spec, rep=0, seed=4)
        tau = math.sqrt(spec.tau_sq)
        want = tau * math.sqrt(2.0 / math.pi)
        se = draw.mu.std(ddof=1) / math.sqrt(draw.mu.size)
        assert abs(draw.mu.mean() - want) <= 4.0 * se

    def test_deterministic_per_rep(self):
        spec = DgpSpec("signal", n=100, pi=0.3)
        a = gen_signal(spec, rep=5, seed=9)
        b = gen_signal(spec, rep=5, seed=9)
        np.testing.assert_array_equal(a.z, b.z)
        c = gen_signal(spec, rep=6, seed=9)
        assert not np.array_equal(a.z, c.z)


class TestMakeStatistics:
    def test_exact_statistic_formulas(self):
        spec = DgpSpec("signal", n=2, pi=0.1)
        lam = spec.lam
        forced = SignalDraw(
            mu=np.zeros(2), z=np.array([lam, 0.0]), truth=np.zeros(2, dtype=bool)
        )
        draw = make_statistics(spec, forced, rep=0, seed=1)
        assert draw.e[0] == pytest.approx(math.exp(0.5 * lam * lam), rel=1e-14)
        assert draw.p[1] == 0.5

    def test_desk_poisson_draws_confirmed_by_recurrence(self):
        # on desk draws every count comes from the pmf recurrence, none from
        # scipy's formula, and each equals scipy.stats.poisson.ppf
        spec = DgpSpec("signal", n=DESK_N, pi=0.2)
        for rep in range(10):
            signal = gen_signal(spec, rep, seed=42)
            with mock.patch.object(simulate, "_scipy_poisson_ppf",
                                   side_effect=AssertionError("fallback taken")):
                draw = make_statistics(spec, signal, rep, seed=42)
            u = simulate.uniforms(42, rep, np.arange(DESK_N, dtype=np.uint64),
                                  simulate.POISSON_DRAW)
            want = stats.poisson.ppf(u, 1.0 + signal.mu)
            assert draw.e_aux.tobytes() == want.tobytes()

    def test_normal_cdf_against_high_precision(self):
        mpmath.mp.dps = 40
        zs = np.linspace(-8.0, 8.0, 321)
        ours = ndtr(-zs)
        for z, got in zip(zs, ours):
            want = float(mpmath.ncdf(-mpmath.mpf(float(z))))
            assert abs(got - want) <= 1e-12

    def test_null_beta_aux_is_uniform(self):
        spec = DgpSpec("signal", n=100_000, pi=0.0)
        signal = gen_signal(spec, rep=0, seed=5)
        draw = make_statistics(spec, signal, rep=0, seed=5)
        se = draw.p_aux.std(ddof=1) / math.sqrt(spec.n)
        assert abs(draw.p_aux.mean() - 0.5) <= 3.0 * se
        assert abs(np.var(draw.p_aux, ddof=1) - 1.0 / 12.0) <= 4.0 * math.sqrt(1.0 / 180.0 / spec.n)

    def test_null_poisson_aux_moments(self):
        spec = DgpSpec("signal", n=1_000_000, pi=0.0)
        signal = gen_signal(spec, rep=0, seed=6)
        draw = make_statistics(spec, signal, rep=0, seed=6)
        n = spec.n
        mean = draw.e_aux.mean()
        assert abs(mean - 1.0) <= 4.0 / math.sqrt(n)
        var = draw.e_aux.var(ddof=1)
        # Var(s^2) ~ (mu4 - sigma^4)/n with Poisson(1): mu4 = lam + 3 lam^2 = 4
        assert abs(var - 1.0) <= 4.0 * math.sqrt(3.0 / n)

    def test_poisson_aux_moments_at_larger_mean(self):
        spec = DgpSpec("signal", n=1_000_000, pi=0.0)
        mu = np.full(spec.n, 5.0)
        signal = SignalDraw(mu=mu, z=np.zeros(spec.n), truth=np.ones(spec.n, dtype=bool))
        draw = make_statistics(spec, signal, rep=0, seed=7)
        lam = 6.0
        n = spec.n
        assert abs(draw.e_aux.mean() - lam) <= 4.0 * math.sqrt(lam / n)
        mu4 = lam + 3.0 * lam * lam
        assert abs(draw.e_aux.var(ddof=1) - lam) <= 4.0 * math.sqrt((mu4 - lam * lam) / n)

    def test_noisy_proxy_recovers_declared_noise_level(self):
        sigma = 3.0
        spec = DgpSpec("noisy", n=100_000, pi=0.0, sigma=sigma)
        signal = gen_signal(spec, rep=0, seed=8)
        draw = make_statistics(spec, signal, rep=0, seed=8)
        y = np.log(draw.e_aux) / spec.lam + 0.5 * spec.lam
        resid = y - signal.z
        n = spec.n
        assert abs(resid.mean()) <= 4.0 * sigma / math.sqrt(n)
        assert abs(resid.std(ddof=1) - sigma) <= 0.05
        assert abs(np.corrcoef(resid, signal.z)[0, 1]) < 0.02

    def test_correlated_proxy_has_declared_correlation(self):
        rho = 0.7
        spec = DgpSpec("correlated", n=100_000, pi=0.0, rho=rho)
        signal = gen_signal(spec, rep=0, seed=9)
        draw = make_statistics(spec, signal, rep=0, seed=9)
        y = np.log(draw.e_aux) / spec.lam + 0.5 * spec.lam
        assert abs(np.corrcoef(y, signal.z)[0, 1] - rho) < 0.02
        assert abs(y.std(ddof=1) - 1.0) < 0.02

    def test_p_aux_consistency_between_channels(self):
        # both auxiliary channels are driven by the same latent y
        rho = 0.5
        spec = DgpSpec("correlated", n=1_000, pi=0.0, rho=rho)
        signal = gen_signal(spec, rep=0, seed=10)
        draw = make_statistics(spec, signal, rep=0, seed=10)
        y = np.log(draw.e_aux) / spec.lam + 0.5 * spec.lam
        np.testing.assert_allclose(draw.p_aux, ndtr(-y), atol=1e-12)


class TestUtilityDefaults:
    @pytest.mark.parametrize(
        "kind,mode,family",
        [
            ("signal", "e", "identity"),
            ("noisy", "e", "log1p"),
            ("correlated", "e", "log1p"),
            ("signal", "p", "log_inverse"),
            ("noisy", "p", "log_inverse"),
            ("correlated", "p", "log_inverse"),
        ],
    )
    def test_mapping(self, kind, mode, family):
        assert utility_defaults(kind, mode).family == family

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            utility_defaults("spiky", "e")
        with pytest.raises(DomainError):
            utility_defaults("signal", "q")

    @pytest.mark.parametrize(
        "kind,mode,expected",
        [
            ("signal", "e", "e"),
            ("signal", "p", "p_independent"),
            ("noisy", "p", "p_general"),
            ("correlated", "p", "p_general"),
        ],
    )
    def test_construction_mapping(self, kind, mode, expected):
        assert default_construction(kind, mode).kind == expected


class TestRunExperiment:
    def test_all_method_queries_everything(self):
        spec = DgpSpec("signal", n=300, pi=0.2)
        result = run_experiment(spec, ["all"], n_b=30, reps=3, seed=11)
        for row in result.rows:
            assert row.queries == 300

    def test_pi_zero_rejected(self):
        spec = DgpSpec("signal", n=300, pi=0.0)
        with pytest.raises(DomainError, match="pi"):
            run_experiment(spec, ["all"], n_b=30, reps=1, seed=11)

    def test_metric_identities(self):
        spec = DgpSpec("signal", n=400, pi=0.2)
        result = run_experiment(
            spec, ["active", "active-xu", "xu", "random", "all"], n_b=40, reps=5, seed=13
        )
        n_signals = None
        for row in result.rows:
            denom = max(row.n_rejected, 1)
            assert row.fdp == (row.n_rejected - row.n_true_discoveries) / denom
            assert 0.0 <= row.fdp <= 1.0 and 0.0 <= row.tpp <= 1.0
            if row.queries > 0:
                assert row.efficiency == row.n_true_discoveries / row.queries
            else:
                assert row.efficiency == 0.0

    def test_expected_queries_only_for_allocated_methods(self):
        spec = DgpSpec("signal", n=300, pi=0.2)
        result = run_experiment(
            spec, ["active", "active-xu", "xu", "random", "all"], n_b=30, reps=2, seed=17
        )
        for row in result.rows:
            if row.method in ("active", "active-xu"):
                assert row.expected_queries is not None
                assert row.expected_queries <= 30 + 1e-9
            else:
                assert row.expected_queries is None

    def test_seed_determinism_and_thread_invariance(self):
        spec = DgpSpec("noisy", n=250, pi=0.2, sigma=2.0)
        kw = dict(n_b=25, reps=8, seed=19, mode="p")
        base = run_experiment(spec, ["active", "random"], **kw)
        again = run_experiment(spec, ["active", "random"], **kw)
        threaded = run_experiment(spec, ["active", "random"], threads=4, **kw)
        assert base.per_rep_csv() == again.per_rep_csv()
        assert base.per_rep_csv() == threaded.per_rep_csv()
        assert base.aggregate_csv() == threaded.aggregate_csv()

    def test_method_spec_beta_preserved(self):
        spec = DgpSpec("signal", n=300, pi=0.2)
        half = run_experiment(spec, ["xu"], n_b=30, beta=0.5, reps=3, seed=23)
        tight = run_experiment(spec, ["xu"], n_b=30, beta=0.9, reps=3, seed=23)
        q_half = np.mean([r.queries for r in half.rows])
        q_tight = np.mean([r.queries for r in tight.rows])
        # higher beta means fewer Xu queries
        assert q_tight < q_half

    def test_csv_headers(self):
        spec = DgpSpec("signal", n=200, pi=0.2)
        result = run_experiment(spec, ["random"], n_b=20, reps=2, seed=29)
        per_rep = result.per_rep_csv().splitlines()
        assert per_rep[0] == "method,rep,fdp,tpp,queries,efficiency"
        assert len(per_rep) == 3
        agg = result.aggregate_csv().splitlines()
        assert agg[0] == "method,fdr,fdr_se,tpr,tpr_se,queries_mean,efficiency_mean,efficiency_se"
        assert len(agg) == 2
        assert agg[1].startswith("random,")

    def test_unknown_method_rejected(self):
        spec = DgpSpec("signal", n=200, pi=0.2)
        with pytest.raises(DomainError):
            run_experiment(spec, ["grid-search"], n_b=20, reps=1, seed=1)

    # sha256 of (per_rep_csv, aggregate_csv): n=300, n_b=30, 6 reps, seed 7, all five methods
    GOLDEN = {
        "signal-e": ("ceae903de4da78ec7cfb4df642068be27d4f7415e2a76a1280714c3dece7629a",
                     "ba822c6c858a245491d079880ec8fbe300680643b579609aa452a8163250a474"),
        "noisy-p": ("768f8504abb07157d534ba3a4afd4a018986c8bab39bb6d4adbba0d3734c4d9e",
                    "0f9a61f10384b0f9840a435cb0d5cc3c204d85e6fb1648c387cf92fc02b0d309"),
        "correlated-e": ("2b567e19fb30bd57da2d894b93d0dd026cce7fe23cd7b6c76c3a0668c45cff87",
                         "df38f223744db8d8972cecfbd89f1aac1019997a78efff2ebb3a34f954520c66"),
    }
    CELLS = {
        "signal-e": (DgpSpec("signal", n=300, pi=0.2), "e"),
        "noisy-p": (DgpSpec("noisy", n=300, pi=0.1, sigma=3.0), "p"),
        "correlated-e": (DgpSpec("correlated", n=300, pi=0.1, rho=0.5), "e"),
    }

    @pytest.mark.parametrize("cell", sorted(GOLDEN))
    def test_golden_outputs(self, cell):
        spec, mode = self.CELLS[cell]
        result = run_experiment(spec, METHOD_NAMES, n_b=30, reps=6, seed=7, mode=mode)
        digests = tuple(hashlib.sha256(text.encode()).hexdigest()
                        for text in (result.per_rep_csv(), result.aggregate_csv()))
        assert digests == self.GOLDEN[cell]

    def test_reps_and_threads_validated(self):
        spec = DgpSpec("signal", n=200, pi=0.2)
        with pytest.raises(DomainError):
            run_experiment(spec, ["all"], n_b=20, reps=0, seed=1)
        with pytest.raises(DomainError):
            run_experiment(spec, ["all"], n_b=20, reps=1, seed=1, threads=0)
