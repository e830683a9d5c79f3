import re

import numpy as np
import pytest

from activetest import pipeline
from activetest.allocation import DEFAULT_FAMILY
from activetest.core import P_GENERAL, P_INDEPENDENT
from activetest.engine import METHOD_NAMES, HypothesisSet, MethodSpec, UniqueIds, run_method
from activetest.errors import DataError, DomainError
from activetest.pipeline import (
    AlignedPair,
    SummaryTable,
    align,
    conformal_p,
    oracle_recovery,
    read_score_rows,
    read_summary_table,
)
from activetest.procedures import by


def table(keys, stats, source="test"):
    return SummaryTable(keys=tuple(keys), stats=np.asarray(stats, dtype=float), source=source)


class TestSummaryTable:
    def test_roundtrip_fields(self):
        t = table(["a", "b"], [0.1, 0.9])
        assert len(t) == 2
        assert t.keys == ("a", "b")
        assert SummaryTable(keys=(k for k in "ab"), stats=[0.1, 0.9]).keys == ("a", "b")

    def test_duplicate_keys_listed(self):
        with pytest.raises(DataError, match="rs77"):
            table(["rs77", "rs12", "rs77"], [0.1, 0.2, 0.3])

    def test_stats_range_checked(self):
        with pytest.raises(DataError):
            table(["a"], [1.5])
        with pytest.raises(DataError):
            table(["a"], [-0.1])
        with pytest.raises(DataError, match=r"^test: summary statistics must lie in \[0, 1\], "
                                            r"got nan at index 0$"):
            table(["a"], [np.nan])
        with pytest.raises(DomainError, match="^summary statistics must be numbers: "):
            SummaryTable(keys=["a"], stats=["x"])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            table([], [])
        # one value per key, not a column of rows
        with pytest.raises(DataError, match="keys and stats must align"):
            table(["a", "b"], [[0.1], [0.2]])
        # keys from a generator: the count is checked before repeats
        with pytest.raises(DataError, match="keys and stats must align"):
            SummaryTable(keys=iter(["a", "a", "b"]), stats=[0.1, 0.2])


class TestReadSummaryTable:
    def test_comma_file(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("rsid,pval,chr\nrs1,0.5,1\nrs2,0.001,2\n")
        t = read_summary_table(str(f), "rsid", "pval")
        assert t.keys == ("rs1", "rs2")
        np.testing.assert_allclose(t.stats, [0.5, 0.001])

    def test_tab_file(self, tmp_path):
        f = tmp_path / "t.tsv"
        f.write_text("rsid\tpval\nrs1\t0.25\n")
        t = read_summary_table(str(f), "rsid", "pval")
        np.testing.assert_allclose(t.stats, [0.25])

    def test_missing_column(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("rsid,pval\nrs1,0.5\n")
        with pytest.raises(DataError, match="missing column"):
            read_summary_table(str(f), "rsid", "p_value")

    def test_malformed_numeric_reports_line(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("rsid,pval\nrs1,0.5\nrs2,oops\n")
        with pytest.raises(DataError, match="line 3"):
            read_summary_table(str(f), "rsid", "pval")

    def test_out_of_range_reports_line(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("rsid,pval\nrs1,2.5\n")
        with pytest.raises(DataError, match="line 2"):
            read_summary_table(str(f), "rsid", "pval")

    def test_empty_file(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_summary_table(str(f), "rsid", "pval")

    def test_quoted_fields_unquoted(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text('rsid,pval\n"rs1",0.5\nrs2,0.25\n')
        t = read_summary_table(str(f), "rsid", "pval")
        assert t.keys == ("rs1", "rs2")
        np.testing.assert_array_equal(t.stats, [0.5, 0.25])

    def test_blank_lines_and_line_ends(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_bytes(b"rsid,pval\r\n\r\nrs1,0.5\rrs2,0.25\n\nrs3,1")
        t = read_summary_table(str(f), "rsid", "pval")
        assert t.keys == ("rs1", "rs2", "rs3")
        np.testing.assert_array_equal(t.stats, [0.5, 0.25, 1.0])

    def test_zero_pvalues_pass_through(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("rsid,pval\nrs1,0\n")
        t = read_summary_table(str(f), "rsid", "pval")
        assert t.stats[0] == 0.0


class TestAlign:
    def test_worked_example(self):
        target = table(["a", "b", "c"], [0.1, 0.2, 0.3])
        aux = table(["b", "c", "d"], [0.5, 0.6, 0.7])
        joined = align(target, aux)
        assert joined.keys == ("b", "c")
        np.testing.assert_allclose(joined.target_stats, [0.2, 0.3])
        np.testing.assert_allclose(joined.aux_stats, [0.5, 0.6])

    def test_target_order_preserved(self):
        target = table(["z", "m", "a"], [0.1, 0.2, 0.3])
        aux = table(["a", "m", "z"], [0.4, 0.5, 0.6])
        joined = align(target, aux)
        assert joined.keys == ("z", "m", "a")
        np.testing.assert_allclose(joined.aux_stats, [0.6, 0.5, 0.4])

    def test_ten_row_fixture_matches_set_oracle(self):
        rng = np.random.default_rng(3)
        t_keys = [f"rs{i}" for i in rng.permutation(10)]
        a_keys = [f"rs{i}" for i in rng.permutation(14)[:10]]
        target = table(t_keys, rng.uniform(size=10))
        aux = table(a_keys, rng.uniform(size=10))
        joined = align(target, aux)
        want = [k for k in t_keys if k in set(a_keys)]
        assert list(joined.keys) == want
        for k, tv, av in zip(joined.keys, joined.target_stats, joined.aux_stats):
            assert tv == target.stats[t_keys.index(k)]
            assert av == aux.stats[a_keys.index(k)]

    def test_empty_intersection(self):
        with pytest.raises(DataError, match="common"):
            align(table(["a"], [0.1]), table(["b"], [0.2]))

    def test_idempotent(self):
        target = table([f"k{i}" for i in range(20)], np.linspace(0.01, 0.99, 20))
        aux = table([f"k{i}" for i in range(5, 25)], np.linspace(0.99, 0.01, 20))
        once = align(target, aux)
        twice = align(SummaryTable(keys=once.keys, stats=once.target_stats), aux)
        assert twice.keys == once.keys
        np.testing.assert_array_equal(twice.target_stats, once.target_stats)
        np.testing.assert_array_equal(twice.aux_stats, once.aux_stats)

    def test_read_keys_flow_through_unchecked_and_uncopied(self, tmp_path, monkeypatch):
        t = tmp_path / "t.csv"
        a = tmp_path / "a.csv"
        t.write_text("rsid,pval\nrs3,0.1\nrs1,0.2\nrs9,0.3\nrs2,0.4\n")
        a.write_text("rsid,pval\nrs1,0.5\nrs2,0.6\nrs3,0.7\nrs4,0.8\n")
        target = read_summary_table(str(t), "rsid", "pval")
        aux = read_summary_table(str(a), "rsid", "pval")
        assert type(target.keys) is type(aux.keys) is UniqueIds
        full = align(target, target)
        assert full.keys is target.keys
        partial = align(target, aux)
        assert type(partial.keys) is UniqueIds and partial.keys == ("rs3", "rs1", "rs2")
        assert partial.to_hypotheses().ids is partial.keys
        # the value columns too: read-only from the reader on, and held, not copied
        assert not (target.stats.flags.writeable or aux.stats.flags.writeable)
        built = []
        monkeypatch.setattr(pipeline, "AlignedPair",
                            lambda **columns: built.append(columns) or AlignedPair(**columns))
        for pair, columns in zip((align(target, target), align(target, aux)), built):
            assert np.shares_memory(pair.aux_stats, columns["aux_stats"])
            assert np.shares_memory(pair.target_stats, columns["target_stats"])
            hs = pair.to_hypotheses()
            assert hs.aux is pair.aux_stats and hs._exact is pair.target_stats
        assert built[0]["target_stats"] is target.stats

    def test_plain_keys_still_checked_as_ids(self):
        # str() makes 1 and "1" one id, so the table refuses them
        with pytest.raises(DataError, match="test: ids must be unique: '1' at indices 0 and 1"):
            table([1, "1", "b"], [0.1, 0.2, 0.3])

    def test_aligned_pair_holds_plain_keys_as_unique_ids(self):
        pair = AlignedPair(keys=["a", 2], aux_stats=[0.1, 0.2], target_stats=[0.3, 0.4])
        assert type(pair.keys) is UniqueIds and pair.keys == ("a", "2")
        assert pair.to_hypotheses().ids is pair.keys
        with pytest.raises(DomainError, match="ids must be unique: 'a' at indices 0 and 1"):
            AlignedPair(keys=["a", "a"], aux_stats=[0.1, 0.2], target_stats=[0.3, 0.4])
        for column in ("aux_stats", "target_stats"):
            columns = {"aux_stats": [0.1, 0.2], "target_stats": [0.3, 0.4], column: [0.5, "x"]}
            with pytest.raises(DomainError, match=f"^{column} must be numbers: "):
                AlignedPair(keys=["a", "b"], **columns)

    @pytest.mark.parametrize("keys, aux, target, message", [
        (["a", "b", "c"], [0.1, 0.2], [0.3, 0.4, 0.5], "ids must align with aux"),
        (["a", "b"], [0.1, 0.2], [0.3], "exact values must align with aux"),
        (["a"], [0.1, 0.2], [0.3, 0.4], "ids must align with aux"),
    ], ids=["aux", "target", "keys"])
    def test_aligned_pair_columns_must_have_one_length(self, keys, aux, target, message):
        # the set's own check, as for any HypothesisSet
        with pytest.raises(DomainError, match=f"^{message}$"):
            AlignedPair(keys=keys, aux_stats=aux, target_stats=target)

    def test_aligned_pair_refuses_missing_keys(self):
        # a set takes None as "no ids", and the pair would key its draws by position
        with pytest.raises(DomainError, match="^an aligned pair needs its keys, got None$"):
            AlignedPair(keys=None, aux_stats=[0.1], target_stats=[0.2])

    def test_aligned_pair_length_refused_before_repeat(self):
        # HypothesisSet and SummaryTable check the length first too
        with pytest.raises(DomainError, match="^ids must align with aux$"):
            AlignedPair(keys=["a", "a", "b"], aux_stats=[0.1, 0.2], target_stats=[0.3, 0.4])

    def test_aligned_pair_is_its_hypothesis_set(self):
        pair = align(table(["a", "b", "c"], [0.1, 0.2, 0.3]), table(["c", "a"], [0.4, 0.5]))
        assert isinstance(pair, HypothesisSet)
        assert pair.to_hypotheses() is pair
        assert pair.ids is pair.keys and pair.aux is pair.aux_stats
        np.testing.assert_array_equal(pair.exact_at(np.arange(2)), pair.target_stats)
        assert "hypotheses" not in pair._memo


class TestConformal:
    def test_worked_example(self):
        got = conformal_p([0.1, 0.2, 0.3, 0.4], [0.25])
        assert got[0] == pytest.approx(0.6)

    def test_below_all(self):
        got = conformal_p([0.1, 0.2, 0.3, 0.4], [0.05])
        assert got[0] == pytest.approx(1.0 / 5.0)

    def test_above_all(self):
        got = conformal_p([0.1, 0.2, 0.3, 0.4], [0.9])
        assert got[0] == 1.0

    def test_tie_counts_as_leq(self):
        got = conformal_p([0.1, 0.2, 0.3, 0.4], [0.2])
        assert got[0] == pytest.approx(0.6)

    def test_vectorized(self):
        got = conformal_p([0.1, 0.2, 0.3, 0.4], [0.05, 0.25, 0.9])
        np.testing.assert_allclose(got, [0.2, 0.6, 1.0])

    def test_range_bounds(self):
        rng = np.random.default_rng(7)
        cal = rng.normal(size=50)
        test = rng.normal(size=200)
        p = conformal_p(cal, test)
        assert np.all(p >= 1.0 / 51.0)
        assert np.all(p <= 1.0)

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            conformal_p([0.1, np.nan], [0.5])
        with pytest.raises(DomainError):
            conformal_p([0.1], [np.nan])

    def test_empty_calibration_rejected(self):
        with pytest.raises(DomainError):
            conformal_p([], [0.5])

    def test_exchangeable_null_superuniform(self):
        # the guarantee is marginal over the joint (calibration, test) draw,
        # so each Monte Carlo sample gets its own calibration set
        rng = np.random.default_rng(11)
        m, n_cal = 20_000, 99
        cal = rng.normal(size=(m, n_cal))
        test = rng.normal(size=m)
        counts = (cal <= test[:, None]).sum(axis=1)
        p = (1.0 + counts) / (n_cal + 1.0)
        single = conformal_p(cal[0], [test[0]])
        assert single[0] == p[0]
        for s in (0.01, 0.05, 0.1, 0.25, 0.5):
            ecdf = float(np.mean(p <= s))
            se = np.sqrt(max(ecdf * (1 - ecdf), 1e-12) / m)
            assert ecdf <= s + 3.0 * se + 1e-12


def synthetic_pair(n=1000, n_signal=50, seed=0):
    rng = np.random.default_rng(seed)
    target = rng.uniform(size=n)
    target[:n_signal] = 10.0 ** rng.uniform(-9.0, -6.0, size=n_signal)
    jitter = 10.0 ** rng.normal(0.0, 0.4, size=n)
    aux = np.clip(target * jitter, 0.0, 1.0)
    order = rng.permutation(n)
    keys = [f"rs{i:05d}" for i in range(n)]
    tgt_tbl = table([keys[i] for i in order], target[order], "target")
    aux_tbl = table(keys, aux, "aux")
    return align(tgt_tbl, aux_tbl)


class TestOracleRecovery:
    def test_all_method_recovers_oracle_exactly(self):
        joined = synthetic_pair()
        res = oracle_recovery(joined, n_b=100, beta=0.5, method="all", alpha=0.1)
        np.testing.assert_array_equal(res.recovered, res.oracle)
        assert res.n_queries == len(joined)

    def test_zero_budget_rejected(self):
        joined = synthetic_pair()
        with pytest.raises(DomainError, match="budget"):
            oracle_recovery(joined, n_b=0, beta=0.5, method="active", alpha=0.1)

    def test_oracle_is_by_on_full_target(self):
        joined = synthetic_pair()
        res = oracle_recovery(joined, n_b=100, beta=0.5, method="random", alpha=0.1)
        np.testing.assert_array_equal(res.oracle, by(joined.target_stats, 0.1).rejected)

    def test_efficiency_formula(self):
        joined = synthetic_pair()
        res = oracle_recovery(joined, n_b=100, beta=0.5, method="active", alpha=0.1, seed=5)
        overlap = np.intersect1d(res.recovered, res.oracle).size
        assert res.efficiency == overlap / res.n_queries
        assert res.n_queries == int(np.count_nonzero(res.run.queried))

    def test_unqueried_target_entries_never_read(self):
        # rewriting the target statistic at every unqueried row must not
        # change a rerun with the same seed: those rows were never fetched
        joined = synthetic_pair(seed=3)
        res = oracle_recovery(joined, n_b=80, beta=0.5, method="active", alpha=0.1, seed=9)
        mutated_stats = joined.target_stats.copy()
        unqueried = ~res.run.queried
        mutated_stats[unqueried] = 0.999
        mutated = AlignedPair(
            keys=joined.keys, aux_stats=joined.aux_stats, target_stats=mutated_stats
        )
        res2 = oracle_recovery(mutated, n_b=80, beta=0.5, method="active", alpha=0.1, seed=9)
        np.testing.assert_array_equal(res.run.queried, res2.run.queried)
        np.testing.assert_array_equal(res.run.values, res2.run.values)
        assert res.n_queries == res2.n_queries

    def test_active_beats_random_on_fixture(self):
        joined = synthetic_pair()
        active_eff, random_eff = [], []
        for seed in range(20):
            a = oracle_recovery(joined, n_b=100, beta=0.5, method="active", alpha=0.1, seed=seed)
            r = oracle_recovery(joined, n_b=100, beta=0.5, method="random", alpha=0.1, seed=seed)
            active_eff.append(a.efficiency)
            random_eff.append(r.efficiency)
        assert np.mean(active_eff) >= np.mean(random_eff)

    def test_pipeline_utility_default(self, monkeypatch):
        # the p-type auxiliaries are weighed by the inverse default family
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["utility"])
            return run_method(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_method", spy)
        oracle_recovery(synthetic_pair(), n_b=20, beta=0.5, method="active", alpha=0.1)
        assert seen == [DEFAULT_FAMILY["inverse"]] == ["log_inverse"]

    @pytest.mark.parametrize("kwargs,message", [
        ({"n_b": float("nan")}, "budget must lie in (0, inf), got nan"),
        ({"n_b": 2.5, "method": "random"}, "budget must be a whole number >= 0, got 2.5"),
        ({"n_b": 1e9, "method": "random"}, "budget must lie in"),
        *[({"n_b": 1000.5, "method": m}, "budget must lie in [0, 1000], got 1000.5")
          for m in ("active", "active-xu", "xu", "all")],
        ({"n_b": 1001, "method": "random"}, "budget must lie in [0, 1000], got 1001"),
        ({"beta": 1.5}, "beta must lie"),
        ({"method": "bogus"},
         "method must be one of ('active', 'active-xu', 'xu', 'random', 'all'), got 'bogus'"),
        ({"n_b": "20"}, "budget must lie in (0, inf), got '20'"),
        ({"n_b": "20", "method": "random"}, "budget must be a whole number >= 0, got '20'"),
        ({"beta": "0.5"}, "beta must lie"),
        ({"alpha": None}, "alpha must lie"),
        ({"alpha": "0.1"}, "alpha must lie"),
    ], ids=["nan-budget", "random-fraction", "random-above-n", "active-above-n",
            "active-xu-above-n", "xu-above-n", "all-above-n", "random-n+1", "beta", "method",
            "text-budget", "random-text-budget", "text-beta", "no-alpha", "text-alpha"])
    def test_settings_refused_before_oracle(self, monkeypatch, kwargs, message):
        # a refused setting costs no BY pass over the target p-values
        calls = []

        def counting(*args, **kw):
            calls.append(1)
            return by(*args, **kw)

        monkeypatch.setattr(pipeline, "by", counting)
        settings = {"n_b": 20, "beta": 0.5, "method": "active", "alpha": 0.1, **kwargs}
        with pytest.raises(DomainError, match=re.escape(message)):
            oracle_recovery(synthetic_pair(), **settings)
        assert calls == []

    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_budget_of_n_runs(self, method):
        result = oracle_recovery(synthetic_pair(), n_b=1000, beta=0.5, method=method, alpha=0.1)
        assert result.n_queries <= 1000


class TestAlignedPairMemo:
    METHODS = ("active", "active-xu", "xu", "random", "all")

    def test_to_hypotheses_is_memoized(self):
        joined = synthetic_pair()
        assert joined.to_hypotheses() is joined.to_hypotheses()

    @pytest.mark.parametrize("mode", [P_INDEPENDENT, P_GENERAL], ids=lambda m: m.kind)
    @pytest.mark.parametrize("method", METHODS)
    def test_run_on_the_pair_matches_a_plain_set(self, method, mode):
        joined = synthetic_pair(seed=2)
        plain = HypothesisSet(np.array(joined.aux_stats), np.array(joined.target_stats),
                              ids=list(joined.keys))
        runs = [run_method(hs, MethodSpec(method), mode=mode, n_b=60, seed=4,
                           utility=DEFAULT_FAMILY["inverse"]) for hs in (joined, plain)]
        assert runs[0].to_csv() == runs[1].to_csv()

    def test_runs_on_one_pair_keep_separate_ledgers(self):
        joined = synthetic_pair()
        first = oracle_recovery(joined, n_b=100, beta=0.5, method="active", alpha=0.1, seed=1)
        second = oracle_recovery(joined, n_b=100, beta=0.5, method="active", alpha=0.1, seed=2)
        fresh = oracle_recovery(synthetic_pair(), n_b=100, beta=0.5, method="active",
                                alpha=0.1, seed=2)
        assert first.n_queries > 0
        assert second.n_queries == fresh.n_queries
        assert second.n_queries == int(np.count_nonzero(second.run.queried))

    def test_reused_pair_matches_fresh_pair(self):
        reused = synthetic_pair(seed=4)
        for alpha in (0.05, 0.1, 0.2):
            for seed in (0, 1, 7):
                for method in self.METHODS:
                    got = oracle_recovery(reused, n_b=60, beta=0.5, method=method,
                                          alpha=alpha, seed=seed)
                    want = oracle_recovery(synthetic_pair(seed=4), n_b=60, beta=0.5,
                                           method=method, alpha=alpha, seed=seed)
                    np.testing.assert_array_equal(got.oracle, want.oracle)
                    np.testing.assert_array_equal(got.recovered, want.recovered)
                    np.testing.assert_array_equal(got.run.values, want.run.values)
                    np.testing.assert_array_equal(got.run.queried, want.run.queried)
                    assert got.efficiency == want.efficiency
                    assert got.n_queries == want.n_queries
                    assert got.run.ids == want.run.ids == list(reused.keys)

    def test_ids_hashed_once_per_pair(self, monkeypatch):
        import activetest.engine

        hashed = []
        original = activetest.engine.keys_for_ids

        def counting(ids):
            hashed.append(len(ids))
            return original(ids)

        monkeypatch.setattr(activetest.engine, "keys_for_ids", counting)
        joined = synthetic_pair()
        for seed in range(3):
            for method in ("active", "active-xu", "xu"):
                oracle_recovery(joined, n_b=50, beta=0.5, method=method, alpha=0.1, seed=seed)
        assert hashed == [len(joined)]

    def test_ids_hashed_once_over_run_method_and_oracle_recovery(self, monkeypatch):
        import activetest.engine

        hashed = []
        original = activetest.engine.keys_for_ids
        monkeypatch.setattr(activetest.engine, "keys_for_ids",
                            lambda ids: hashed.append(len(ids)) or original(ids))
        joined = synthetic_pair()
        for seed in range(2):
            run_method(joined, MethodSpec("xu"), mode=P_GENERAL, n_b=50, seed=seed)
            oracle_recovery(joined, n_b=50, beta=0.5, method="active", alpha=0.1, seed=seed)
        assert hashed == [len(joined)]

    def test_oracle_memoized_per_alpha(self):
        joined = synthetic_pair()
        a = oracle_recovery(joined, n_b=50, beta=0.5, method="active", alpha=0.1)
        b = oracle_recovery(joined, n_b=50, beta=0.5, method="random", alpha=0.1)
        c = oracle_recovery(joined, n_b=50, beta=0.5, method="random", alpha=0.2)
        assert a.oracle is b.oracle
        np.testing.assert_array_equal(c.oracle, by(joined.target_stats, 0.2).rejected)

    def test_writes_through_the_pair_raise(self):
        joined = synthetic_pair()
        res = oracle_recovery(joined, n_b=50, beta=0.5, method="active", alpha=0.1)
        assert res.oracle.size > 0
        with pytest.raises(ValueError):
            joined.target_stats[0] = 0.5
        with pytest.raises(ValueError):
            joined.aux_stats[0] = 0.5
        with pytest.raises(ValueError):
            res.oracle[0] = 0
        with pytest.raises(ValueError):
            joined.to_hypotheses().stream_keys()[0] = 0

    @pytest.mark.parametrize("method", METHODS)
    def test_each_run_owns_its_ids(self, method):
        joined = synthetic_pair()
        first = oracle_recovery(joined, n_b=50, beta=0.5, method=method, alpha=0.1, seed=3)
        first.run.ids[0] = "zzz"
        again = oracle_recovery(joined, n_b=50, beta=0.5, method=method, alpha=0.1, seed=3)
        fresh = oracle_recovery(synthetic_pair(), n_b=50, beta=0.5, method=method, alpha=0.1,
                                seed=3)
        assert again.run.ids == list(joined.keys)
        assert joined.to_hypotheses().ids == joined.keys
        np.testing.assert_array_equal(again.run.values, fresh.run.values)
        np.testing.assert_array_equal(again.run.queried, fresh.run.queried)

    def test_pair_copies_caller_arrays(self):
        target = np.array([0.01, 0.5, 0.9])
        pair = AlignedPair(keys=("a", "b", "c"), aux_stats=np.array([0.1, 0.2, 0.3]),
                           target_stats=target)
        target[0] = 0.99
        assert pair.target_stats[0] == 0.01


class TestReadScoreColumn:
    def test_plain_column(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("0.5\n0.25\n0.125\n")
        np.testing.assert_allclose(read_score_rows(str(f))[0], [0.5, 0.25, 0.125])

    def test_header_and_comments_tolerated(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("score\n# calibration fold 1\n0.5\n0.25\n")
        np.testing.assert_allclose(read_score_rows(str(f))[0], [0.5, 0.25])

    def test_malformed_mid_file(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("0.5\nxyz\n")
        with pytest.raises(DataError, match="line 2"):
            read_score_rows(str(f))[0]

    def test_byte_order_mark_keeps_the_first_value(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_bytes(b"\xef\xbb\xbf0.5\n0.25\n")
        values, lines = read_score_rows(str(f))
        np.testing.assert_array_equal(values, [0.5, 0.25])
        assert lines == [1, 2]

    def test_no_rows(self, tmp_path):
        f = tmp_path / "s.csv"
        f.write_text("header_only\n")
        with pytest.raises(DataError, match="no numeric rows"):
            read_score_rows(str(f))[0]

    @pytest.mark.parametrize("first", ["0.o1", "-x", ",0.5", "+", ".e"],
                             ids=["typo", "sign", "empty-field", "plus", "dot"])
    def test_line_one_that_starts_a_number_is_refused(self, tmp_path, first):
        f = tmp_path / "s.csv"
        f.write_text(f"{first}\n0.2\n0.03\n")
        field = first.split(",")[0]
        with pytest.raises(DataError, match=re.escape(
                f"{f}: line 1: malformed numeric value {field!r}")):
            read_score_rows(str(f))

    @pytest.mark.parametrize("header", ["score", "p_value", "header_only,x"])
    def test_line_one_header_skipped(self, tmp_path, header):
        f = tmp_path / "s.csv"
        f.write_text(f"{header}\n0.2\n0.03\n")
        values, lines = read_score_rows(str(f))
        np.testing.assert_array_equal(values, [0.2, 0.03])
        assert lines == [2, 3]
