import hashlib
import math
import re
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
    _cell_defaults,
    gen_signal,
    make_statistics,
    run_experiment,
)


class TestDgpSpec:
    def test_derived_parameters(self):
        spec = DgpSpec("signal", n=2000, pi=0.1)
        assert spec.tau_sq == 2.0 * math.log(2000)
        assert spec.lam == math.sqrt(math.log(2000 / 0.1))
        assert spec.alpha == 0.1

    def test_desk_scale_constants(self):
        assert (DESK_N, DESK_BUDGET, DESK_REPS) == (2000, 100, 100)

    @pytest.mark.parametrize("n", [2.5, float("nan"), float("inf"), "200", 1])
    def test_n_must_be_a_whole_number(self, n):
        with pytest.raises(DomainError, match="n must be a whole number >= 2"):
            DgpSpec("signal", n=n, pi=0.1)

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

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -1.0, "3"])
    def test_noisy_sigma_must_be_finite_and_positive(self, sigma):
        with pytest.raises(DomainError,
                           match=re.escape(f"sigma must lie in (0, inf), got {sigma!r}")):
            DgpSpec("noisy", n=100, pi=0.1, sigma=sigma)

    def test_rho_only_for_correlated(self):
        DgpSpec("correlated", n=100, pi=0.1, rho=0.5)
        with pytest.raises(DomainError):
            DgpSpec("correlated", n=100, pi=0.1)
        with pytest.raises(DomainError):
            DgpSpec("signal", n=100, pi=0.1, rho=0.5)
        with pytest.raises(DomainError):
            DgpSpec("correlated", n=100, pi=0.1, rho=1.0)

    @pytest.mark.parametrize("rho", [None, 1.5, -1.0, float("nan"), "0.5"])
    def test_correlated_rho_message_echoes_the_value(self, rho):
        with pytest.raises(DomainError,
                           match=re.escape(f"rho must lie in (-1, 1), got {rho!r}") + "$"):
            DgpSpec("correlated", n=100, pi=0.1, rho=rho)

    def test_pi_domain(self):
        with pytest.raises(DomainError):
            DgpSpec("signal", n=100, pi=-0.1)
        with pytest.raises(DomainError):
            DgpSpec("signal", n=100, pi=1.1)
        with pytest.raises(DomainError, match=r"pi must lie in \[0, 1\], got '0.1'"):
            DgpSpec("signal", n=100, pi="0.1")
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\), got '0.1'"):
            DgpSpec("signal", n=100, pi=0.1, alpha="0.1")


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


def per_purpose_draws(spec, rep, seed):
    """gen_signal and make_statistics written with one draw call per purpose."""
    from scipy.special import ndtri

    idx = np.arange(spec.n, dtype=np.uint64)
    draw = lambda purpose: simulate.uniforms(seed, rep, idx, purpose)
    truth = draw(simulate.MIXTURE_DRAW) < spec.pi
    magnitude = np.abs(ndtri(draw(simulate.SIGNAL_DRAW))) * math.sqrt(spec.tau_sq)
    mu = np.where(truth, magnitude, 0.0)
    z = mu + ndtri(draw(simulate.PRIMARY_NOISE))
    lam = spec.lam
    if spec.kind == "signal":
        e_aux = stats.poisson.ppf(draw(simulate.POISSON_DRAW), 1.0 + mu)
        p_aux = 1.0 - draw(simulate.BETA_DRAW) ** (1.0 / (1.0 + mu))
    else:
        noise = ndtri(draw(simulate.PROXY_NOISE))
        y = z + spec.sigma * noise if spec.kind == "noisy" else \
            spec.rho * z + math.sqrt(1.0 - spec.rho**2) * noise
        e_aux, p_aux = np.exp(lam * y - 0.5 * lam * lam), ndtr(-y)
    return mu, z, truth, e_aux, p_aux


@pytest.mark.parametrize("kind,extra", [("signal", {}), ("noisy", {"sigma": 2.0}),
                                        ("correlated", {"rho": -0.4})])
def test_one_draw_call_per_stage_equals_per_purpose_draws(kind, extra):
    spec = DgpSpec(kind, n=3000, pi=0.2, **extra)
    for rep in range(3):
        signal = gen_signal(spec, rep, seed=13)
        e_aux, _ = make_statistics(spec, signal, rep, 13, True)
        p_aux, _ = make_statistics(spec, signal, rep, 13, False)
        got = (signal.mu, signal.z, signal.truth, e_aux, p_aux)
        for a, b in zip(got, per_purpose_draws(spec, rep, seed=13)):
            assert a.tobytes() == b.tobytes()


# n at which a run_experiment block holds 4 reps, and one at which it holds 1
BLOCK_CASES = [(simulate._BLOCK_ELEMENTS // 4 - 1, 4), (simulate._BLOCK_ELEMENTS + 1, 1)]
DGP_CELLS = [("signal", {}), ("noisy", {"sigma": 2.0}), ("correlated", {"rho": -0.4})]


@pytest.mark.parametrize("n,block", BLOCK_CASES)
@pytest.mark.parametrize("mode", ["e", "p"])
@pytest.mark.parametrize("kind,extra", DGP_CELLS)
def test_block_draws_equal_per_rep_draws(monkeypatch, kind, extra, mode, n, block):
    # every block run_experiment draws equals its reps drawn one at a time
    assert max(1, simulate._BLOCK_ELEMENTS // n) == block
    spec = DgpSpec(kind, n=n, pi=0.2, **extra)
    is_e = mode == "e"
    drawn = []
    gen, stats_of = simulate.gen_signal, simulate.make_statistics

    def spy(spec, signal, rep, seed, is_e):
        out = stats_of(spec, signal, rep, seed, is_e)
        drawn.append((rep, signal, out))
        return out

    monkeypatch.setattr(simulate, "make_statistics", spy)
    for reps in sorted({1, block - 1, block, block + 1, 2 * block + 3} - {0}):
        drawn.clear()
        run_experiment(spec, ["all"], n_b=10, reps=reps, seed=31, mode=mode)
        assert [r.tolist() for r, _, _ in drawn] == [
            list(range(start, min(start + block, reps))) for start in range(0, reps, block)]
        for rep_block, signal, (aux, exact) in drawn:
            for b, rep in enumerate(rep_block.tolist()):
                one = gen(spec, rep, seed=31)
                one_aux, one_exact = stats_of(spec, one, rep, 31, is_e)
                got = (signal.mu[b], signal.z[b], signal.truth[b], aux[b], exact[b])
                want = (one.mu, one.z, one.truth, one_aux, one_exact)
                for a, w in zip(got, want):
                    assert a.dtype == w.dtype and a.tobytes() == w.tobytes()


@pytest.mark.parametrize("mode", ["e", "p"])
def test_csv_lead_is_the_text_before_the_table(mode):
    spec = DgpSpec("signal", n=300, pi=0.1)
    result = run_experiment(spec, METHOD_NAMES, n_b=20, reps=3, seed=41, mode=mode)
    lead = "# activetest\n# methods = active,random\n"
    assert result.per_rep_csv(lead) == lead + result.per_rep_csv()
    assert result.aggregate_csv(lead) == lead + result.aggregate_csv()


@pytest.mark.parametrize("kind,extra", DGP_CELLS)
def test_block_runs_equal_one_rep_runs(monkeypatch, kind, extra):
    # the same experiment with a block of one rep per call gives the same bytes
    spec = DgpSpec(kind, n=simulate._BLOCK_ELEMENTS // 4 - 1, pi=0.1, **extra)
    kw = dict(n_b=20, reps=11, seed=37, mode="p" if kind == "noisy" else "e")
    blocked = run_experiment(spec, METHOD_NAMES, **kw)
    monkeypatch.setattr(simulate, "_BLOCK_ELEMENTS", 1)
    one_by_one = run_experiment(spec, METHOD_NAMES, **kw)
    assert blocked.per_rep_csv() == one_by_one.per_rep_csv()
    assert blocked.aggregate_csv() == one_by_one.aggregate_csv()


def test_poisson_inverse_on_rows_equals_row_by_row():
    rng = np.random.default_rng(3)
    means = np.concatenate([rng.uniform(0.0, 40.0, (4, 29)), np.full((4, 2), 750.0)], axis=1)
    u = rng.uniform(1e-12, 1.0, means.shape)
    # right on a CDF step, where scipy's formula decides
    u[0, :3] = stats.poisson.cdf([0, 2, 5], means[0, :3])
    got = simulate._poisson_inverse(u, means)
    assert got.shape == u.shape
    want = np.stack([simulate._poisson_inverse(u[i], means[i]) for i in range(len(u))])
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() == stats.poisson.ppf(u, means).tobytes()


class TestMakeStatistics:
    def test_exact_statistic_formulas(self):
        spec = DgpSpec("signal", n=2, pi=0.1)
        lam = spec.lam
        forced = SignalDraw(
            mu=np.zeros(2), z=np.array([lam, 0.0]), truth=np.zeros(2, dtype=bool)
        )
        _, e = make_statistics(spec, forced, 0, 1, True)
        _, p = make_statistics(spec, forced, 0, 1, False)
        assert e[0] == pytest.approx(math.exp(0.5 * lam * lam), rel=1e-14)
        assert p[1] == 0.5

    def test_desk_poisson_draws_confirmed_by_recurrence(self):
        # on desk draws every count comes from the pmf recurrence, none from
        # scipy's formula, and each equals scipy.stats.poisson.ppf
        spec = DgpSpec("signal", n=DESK_N, pi=0.2)
        for rep in range(10):
            signal = gen_signal(spec, rep, seed=42)
            with mock.patch.object(simulate, "_scipy_poisson_ppf",
                                   side_effect=AssertionError("fallback taken")):
                e_aux, _ = make_statistics(spec, signal, rep, 42, True)
            u = simulate.uniforms(42, rep, np.arange(DESK_N, dtype=np.uint64),
                                  simulate.POISSON_DRAW)
            want = stats.poisson.ppf(u, 1.0 + signal.mu)
            assert e_aux.tobytes() == want.tobytes()

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
        p_aux, _ = make_statistics(spec, signal, 0, 5, False)
        se = p_aux.std(ddof=1) / math.sqrt(spec.n)
        assert abs(p_aux.mean() - 0.5) <= 3.0 * se
        assert abs(np.var(p_aux, ddof=1) - 1.0 / 12.0) <= 4.0 * math.sqrt(1.0 / 180.0 / spec.n)

    def test_null_poisson_aux_moments(self):
        spec = DgpSpec("signal", n=1_000_000, pi=0.0)
        signal = gen_signal(spec, rep=0, seed=6)
        e_aux, _ = make_statistics(spec, signal, 0, 6, True)
        n = spec.n
        mean = e_aux.mean()
        assert abs(mean - 1.0) <= 4.0 / math.sqrt(n)
        var = e_aux.var(ddof=1)
        # Var(s^2) ~ (mu4 - sigma^4)/n with Poisson(1): mu4 = lam + 3 lam^2 = 4
        assert abs(var - 1.0) <= 4.0 * math.sqrt(3.0 / n)

    def test_poisson_aux_moments_at_larger_mean(self):
        spec = DgpSpec("signal", n=1_000_000, pi=0.0)
        mu = np.full(spec.n, 5.0)
        signal = SignalDraw(mu=mu, z=np.zeros(spec.n), truth=np.ones(spec.n, dtype=bool))
        e_aux, _ = make_statistics(spec, signal, 0, 7, True)
        lam = 6.0
        n = spec.n
        assert abs(e_aux.mean() - lam) <= 4.0 * math.sqrt(lam / n)
        mu4 = lam + 3.0 * lam * lam
        assert abs(e_aux.var(ddof=1) - lam) <= 4.0 * math.sqrt((mu4 - lam * lam) / n)

    def test_noisy_proxy_recovers_declared_noise_level(self):
        sigma = 3.0
        spec = DgpSpec("noisy", n=100_000, pi=0.0, sigma=sigma)
        signal = gen_signal(spec, rep=0, seed=8)
        e_aux, _ = make_statistics(spec, signal, 0, 8, True)
        y = np.log(e_aux) / spec.lam + 0.5 * spec.lam
        resid = y - signal.z
        n = spec.n
        assert abs(resid.mean()) <= 4.0 * sigma / math.sqrt(n)
        assert abs(resid.std(ddof=1) - sigma) <= 0.05
        assert abs(np.corrcoef(resid, signal.z)[0, 1]) < 0.02

    def test_correlated_proxy_has_declared_correlation(self):
        rho = 0.7
        spec = DgpSpec("correlated", n=100_000, pi=0.0, rho=rho)
        signal = gen_signal(spec, rep=0, seed=9)
        e_aux, _ = make_statistics(spec, signal, 0, 9, True)
        y = np.log(e_aux) / spec.lam + 0.5 * spec.lam
        assert abs(np.corrcoef(y, signal.z)[0, 1] - rho) < 0.02
        assert abs(y.std(ddof=1) - 1.0) < 0.02

    def test_p_aux_consistency_between_channels(self):
        # both auxiliary channels are driven by the same latent y
        rho = 0.5
        spec = DgpSpec("correlated", n=1_000, pi=0.0, rho=rho)
        signal = gen_signal(spec, rep=0, seed=10)
        e_aux, _ = make_statistics(spec, signal, 0, 10, True)
        p_aux, _ = make_statistics(spec, signal, 0, 10, False)
        y = np.log(e_aux) / spec.lam + 0.5 * spec.lam
        np.testing.assert_allclose(p_aux, ndtr(-y), atol=1e-12)


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
        assert _cell_defaults(kind, mode)[0] == family

    def test_unknown_kind(self):
        # DgpSpec refuses the kind before any default is looked up
        with pytest.raises(DomainError, match=re.escape(
                "kind must be one of ('signal', 'noisy', 'correlated'), got 'spiky'")):
            DgpSpec("spiky", n=50, pi=0.2)
        with pytest.raises(DomainError, match=re.escape("mode must be one of ('e', 'p'), got 'q'")):
            _cell_defaults("signal", "q")
        with pytest.raises(DomainError, match=re.escape("mode must be one of ('e', 'p'), got 'q'")):
            run_experiment(DgpSpec("signal", n=50, pi=0.2), ["all"], n_b=5, reps=1, mode="q")

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
        assert _cell_defaults(kind, mode)[1].kind == expected


class TestRunExperiment:
    def test_all_method_queries_everything(self):
        spec = DgpSpec("signal", n=300, pi=0.2)
        result = run_experiment(spec, ["all"], n_b=30, reps=3, seed=11)
        assert np.all(result.column("all", "queries") == 300)

    def test_pi_zero_runs_the_global_null(self):
        # no signal to recover: TPR reads 0 under the zero-denominator rule
        spec = DgpSpec("signal", n=300, pi=0.0)
        result = run_experiment(spec, ["all", "active"], n_b=30, reps=2, seed=11)
        for method in result.methods:
            assert np.all(result.column(method, "n_signals") == 0)
            assert np.all(result.column(method, "tpp") == 0.0)
        assert [agg.tpr for agg in result.aggregate()] == [0.0, 0.0]

    def test_metric_identities(self):
        spec = DgpSpec("signal", n=400, pi=0.2)
        result = run_experiment(
            spec, ["active", "active-xu", "xu", "random", "all"], n_b=40, reps=5, seed=13
        )
        for method in result.methods:
            rejected, true, queries, fdp, tpp, efficiency = (
                result.column(method, name).tolist()
                for name in ("n_rejected", "n_true_discoveries", "queries", "fdp", "tpp",
                             "efficiency"))
            for rep in range(5):
                assert fdp[rep] == (rejected[rep] - true[rep]) / max(rejected[rep], 1)
                assert 0.0 <= fdp[rep] <= 1.0 and 0.0 <= tpp[rep] <= 1.0
                if queries[rep] > 0:
                    assert efficiency[rep] == true[rep] / queries[rep]
                else:
                    assert efficiency[rep] == 0.0

    def test_expected_queries_only_for_allocated_methods(self):
        spec = DgpSpec("signal", n=300, pi=0.2)
        result = run_experiment(
            spec, ["active", "active-xu", "xu", "random", "all"], n_b=30, reps=2, seed=17
        )
        for method in result.methods:
            expected = result.column(method, "expected_queries")
            assert expected.shape == (2,)
            if method in ("active", "active-xu"):
                assert not np.isnan(expected).any()
                assert np.all(expected <= 30 + 1e-9)
            else:
                assert np.isnan(expected).all()

    def test_seed_determinism_and_thread_invariance(self, monkeypatch):
        import concurrent.futures
        import os
        import threading

        # 8 reps in blocks of 4: threads=4 starts a pool of 2 on any machine
        spec = DgpSpec("noisy", n=simulate._BLOCK_ELEMENTS // 4, pi=0.2, sigma=2.0)
        kw = dict(n_b=25, reps=8, seed=19, mode="p")
        base = run_experiment(spec, ["active", "random"], **kw)
        again = run_experiment(spec, ["active", "random"], **kw)
        started, block_threads = [], set()
        run_block = simulate._run_block

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers=max_workers)

        def recording_block(*args):
            block_threads.add(threading.current_thread())
            return run_block(*args)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(simulate, "_run_block", recording_block)
        threaded = run_experiment(spec, ["active", "random"], threads=4, **kw)
        assert started == [2]
        assert block_threads and threading.current_thread() not in block_threads
        assert base.per_rep_csv() == again.per_rep_csv()
        assert base.per_rep_csv() == threaded.per_rep_csv()
        assert base.aggregate_csv() == threaded.aggregate_csv()

    @pytest.mark.parametrize("threads,reps,cpus,workers", [
        (8, 9, 3, 3),     # capped by the CPUs
        (2, 9, 3, 2),     # by the threads asked for
        (8, 5, 16, 2),    # by the blocks: 5 reps in blocks of 4
        (4, 3, 16, None),  # one block runs on the calling thread
        (4, 9, None, None),  # an unknown CPU count counts as one
    ])
    def test_pool_starts_at_most_one_worker_per_block_and_cpu(self, monkeypatch, threads, reps,
                                                              cpus, workers):
        import concurrent.futures
        import os

        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        spec = DgpSpec("signal", n=simulate._BLOCK_ELEMENTS // 4, pi=0.2)
        result = run_experiment(spec, ["all"], n_b=10, reps=reps, seed=3, threads=threads)
        assert started == ([] if workers is None else [workers])
        per_rep = [line.split(",")[:2] for line in result.per_rep_csv().splitlines()[1:]]
        assert per_rep == [["all", str(rep)] for rep in range(reps)]

    def test_threads_give_the_same_outputs_on_a_partial_block(self):
        spec = DgpSpec("correlated", n=simulate._BLOCK_ELEMENTS // 4, pi=0.2, rho=0.3)
        kw = dict(n_b=15, reps=10, seed=41, mode="e")
        base = run_experiment(spec, METHOD_NAMES, threads=1, **kw)
        for threads in (2, 4):
            threaded = run_experiment(spec, METHOD_NAMES, threads=threads, **kw)
            assert threaded.per_rep_csv() == base.per_rep_csv()
            assert threaded.aggregate_csv() == base.aggregate_csv()

    def test_method_spec_beta_preserved(self):
        spec = DgpSpec("signal", n=300, pi=0.2)
        half = run_experiment(spec, ["xu"], n_b=30, beta=0.5, reps=3, seed=23)
        tight = run_experiment(spec, ["xu"], n_b=30, beta=0.9, reps=3, seed=23)
        q_half = np.mean(half.column("xu", "queries"))
        q_tight = np.mean(tight.column("xu", "queries"))
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
        with pytest.raises(DomainError, match="^at least one method is required$"):
            run_experiment(spec, [], n_b=20, reps=1, seed=1)

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

    @pytest.mark.parametrize("methods", [["active", "active"], ["xu", "all", "xu"]])
    def test_repeated_method_refused(self, methods):
        spec = DgpSpec("signal", n=200, pi=0.2)
        with pytest.raises(DomainError, match="methods must be distinct"):
            run_experiment(spec, methods, n_b=20, reps=1, seed=1)

    def test_reps_and_threads_validated(self):
        spec = DgpSpec("signal", n=200, pi=0.2)
        with pytest.raises(DomainError):
            run_experiment(spec, ["all"], n_b=20, reps=0, seed=1)
        with pytest.raises(DomainError):
            run_experiment(spec, ["all"], n_b=20, reps=1, seed=1, threads=0)
        for threads in ("2", 2.5, None):
            with pytest.raises(DomainError, match="threads must be a whole number >= 1"):
                run_experiment(spec, ["all"], n_b=20, reps=1, seed=1, threads=threads)

    @pytest.mark.parametrize("method", ["active", "random"])
    def test_budget_and_beta_must_be_real_numbers(self, method):
        spec = DgpSpec("signal", n=200, pi=0.2)
        with pytest.raises(DomainError, match="budget"):
            run_experiment(spec, [method], n_b="10", reps=1)
        with pytest.raises(DomainError, match=r"^beta must lie in \(0, 1\), got '0\.5'"):
            run_experiment(spec, [method], n_b=10, beta="0.5", reps=1)

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_budget_above_n_refused_before_any_rep_is_drawn(self, monkeypatch, method):
        spec = DgpSpec("signal", n=50, pi=0.1)
        run_experiment(spec, [method], n_b=50, reps=1)
        drawn = []
        monkeypatch.setattr(simulate, "gen_signal", lambda *args: drawn.append(args))
        n_b = 51 if method == "random" else 50.5  # random's budget is a whole number
        with pytest.raises(DomainError,
                           match=f"^{re.escape(f'budget must lie in [0, 50], got {n_b!r}')}$"):
            run_experiment(spec, [method], n_b=n_b, reps=1)
        assert drawn == []

    @pytest.mark.parametrize("reps", [2.5, float("nan"), "3", None])
    def test_reps_must_be_a_whole_number(self, reps):
        spec = DgpSpec("signal", n=200, pi=0.2)
        with pytest.raises(DomainError, match="reps must be a whole number >= 1"):
            run_experiment(spec, ["all"], n_b=20, reps=reps, seed=1)

    def test_whole_float_n_and_reps_run_as_their_integers(self):
        kw = dict(n_b=20, seed=5, mode="e")
        want = run_experiment(DgpSpec("signal", n=2000, pi=0.1), ["active", "random"], reps=5,
                              **kw)
        spec = DgpSpec("signal", n=2000.0, pi=0.1)
        assert type(spec.n) is int
        got = run_experiment(spec, ["active", "random"], reps=5.0, **kw)
        assert got.per_rep_csv() == want.per_rep_csv()
        assert got.aggregate_csv() == want.aggregate_csv()
