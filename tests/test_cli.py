import math
import subprocess
import sys

import numpy as np
import pytest

from activetest.cli import main, parse_config_header
from activetest.pipeline import conformal_p

from conftest import oracle_bh, oracle_ebh


def write(path, text):
    path.write_text(text)
    return str(path)


class TestMt:
    def test_bh_fixture_matches_oracle(self, tmp_path, capsys):
        p = [0.01, 0.02, 0.5]
        inp = write(tmp_path / "p.csv", "".join(f"{v}\n" for v in p))
        assert main(["mt", "--procedure", "bh", "--alpha", "0.1", "--input", inp]) == 0
        out = capsys.readouterr().out
        ids = [int(line) for line in out.splitlines() if not line.startswith("#")]
        assert set(ids) == oracle_bh(p, 0.1)[0]
        header = parse_config_header(out)
        assert header["k_hat"] == "2"
        assert header["procedure"] == "bh"

    def test_ebh_fixture(self, tmp_path, capsys):
        e = [40.0, 30.0, 1.0]
        inp = write(tmp_path / "e.csv", "".join(f"{v}\n" for v in e))
        assert main(["mt", "--procedure", "ebh", "--input", inp]) == 0
        out = capsys.readouterr().out
        ids = [int(line) for line in out.splitlines() if not line.startswith("#")]
        assert set(ids) == oracle_ebh(e, 0.1)[0] == {0, 1}

    def test_out_file(self, tmp_path):
        inp = write(tmp_path / "p.csv", "0.001\n0.9\n")
        out = tmp_path / "rej.txt"
        assert main(["mt", "--procedure", "by", "--input", inp, "--out", str(out)]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body == ["0"]

    def test_missing_required_flag_exits_1(self, tmp_path, capsys):
        assert main(["mt", "--procedure", "bh"]) == 1
        err = capsys.readouterr().err
        assert "--input" in err or "usage" in err.lower()

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.csv")
        assert main(["mt", "--procedure", "bh", "--input", missing]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_statistic_exits_2(self, tmp_path, capsys):
        inp = write(tmp_path / "p.csv", "0.5\nbroken\n")
        assert main(["mt", "--procedure", "bh", "--input", inp]) == 2
        assert "line 2" in capsys.readouterr().err


class TestUsage:
    def test_unknown_flag_listed(self, capsys):
        assert main(["mt", "--procedure", "bh", "--input", "x", "--frobnicate"]) == 1
        assert "--frobnicate" in capsys.readouterr().err

    def test_no_subcommand_exits_1(self, capsys):
        assert main([]) == 1

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_version_exits_0(self, capsys):
        assert main(["--version"]) == 0
        assert "activetest" in capsys.readouterr().out

    def test_console_script_installed(self):
        proc = subprocess.run(
            [sys.executable, "-m", "activetest", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "activetest" in proc.stdout


class TestSimulate:
    ARGS = [
        "simulate", "--dgp", "signal", "--mode", "e", "--n", "200", "--pi", "0.1",
        "--budget", "20", "--reps", "5", "--seed", "7",
    ]

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--out", str(out1)]) == 0
        assert main(self.ARGS + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        agg1 = tmp_path / "a_agg.csv"
        agg2 = tmp_path / "b_agg.csv"
        assert agg1.read_bytes() == agg2.read_bytes()

    def test_thread_invariance(self, tmp_path):
        out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
        assert main(self.ARGS + ["--out", str(out1), "--threads", "1"]) == 0
        assert main(self.ARGS + ["--out", str(out8), "--threads", "8"]) == 0
        body1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
        body8 = [l for l in out8.read_text().splitlines() if not l.startswith("#")]
        assert body1 == body8

    def test_config_header_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        text = out.read_text()
        config = parse_config_header(text)
        assert config["dgp"] == "signal"
        assert config["mode"] == "e"
        assert config["n"] == "200"
        assert config["seed"] == "7"
        assert float(config["tau_sq"]) == 2.0 * math.log(200)
        assert float(config["lambda"]) == math.sqrt(math.log(200 / 0.1))
        assert config["methods"] == "active,active-xu,xu,random,all"

    def test_per_rep_and_aggregate_bodies(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(self.ARGS + ["--out", str(out), "--methods", "random,all"]) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert body[0] == "method,rep,fdp,tpp,queries,efficiency"
        assert len(body) == 1 + 2 * 5
        agg = [l for l in (tmp_path / "sim_agg.csv").read_text().splitlines()
               if not l.startswith("#")]
        assert agg[0].startswith("method,fdr,fdr_se")
        assert len(agg) == 3

    def test_agg_out_flag(self, tmp_path):
        out, agg = tmp_path / "x.csv", tmp_path / "custom_agg.csv"
        assert main(self.ARGS + ["--out", str(out), "--agg-out", str(agg)]) == 0
        assert agg.exists()

    def test_domain_error_exits_2(self, tmp_path, capsys):
        args = ["simulate", "--dgp", "noisy", "--mode", "e", "--n", "100", "--pi", "0.1",
                "--budget", "10", "--reps", "1", "--out", str(tmp_path / "x.csv")]
        assert main(args) == 2  # noisy requires sigma
        assert "sigma" in capsys.readouterr().err

    def test_failed_run_leaves_no_output(self, tmp_path):
        out = tmp_path / "x.csv"
        args = ["simulate", "--dgp", "noisy", "--mode", "e", "--n", "100", "--pi", "0.1",
                "--budget", "10", "--reps", "1", "--out", str(out)]
        assert main(args) == 2
        assert not out.exists()
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def make_input(self, tmp_path):
        rows = ["id,aux,exact\n"]
        rng = np.random.default_rng(3)
        for i in range(40):
            rows.append(f"hyp{i},{rng.exponential():.6f},{rng.exponential():.6f}\n")
        return write(tmp_path / "hyps.csv", "".join(rows))

    def test_active_run(self, tmp_path):
        inp = self.make_input(tmp_path)
        out = tmp_path / "out.csv"
        args = ["run", "--input", inp, "--mode", "e", "--method", "active",
                "--budget", "10", "--utility", "log1p", "--out", str(out)]
        assert main(args) == 0
        text = out.read_text()
        config = parse_config_header(text)
        assert config["method"] == "active"
        assert "n_queries" in config
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "id,value,queried,branch,h"
        assert len(body) == 41
        n_true = sum(1 for l in body[1:] if ",true,query," in l)
        assert n_true == int(config["n_queries"])

    def test_budget_required_for_budgeted_methods(self, tmp_path, capsys):
        inp = self.make_input(tmp_path)
        args = ["run", "--input", inp, "--mode", "e", "--method", "active",
                "--out", str(tmp_path / "o.csv")]
        assert main(args) == 1
        assert "--budget" in capsys.readouterr().err

    def test_all_needs_no_budget(self, tmp_path):
        inp = self.make_input(tmp_path)
        out = tmp_path / "o.csv"
        args = ["run", "--input", inp, "--mode", "e", "--method", "all", "--out", str(out)]
        assert main(args) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert all(",true,query," in l for l in body[1:])

    def test_all_writes_input_ids_in_input_order(self, tmp_path):
        rows = ["id,aux,exact\n"] + [f"snp{i},0.5,{(i + 1) / 40}\n" for i in (7, 3, 11, 0)]
        inp = write(tmp_path / "ids.csv", "".join(rows))
        out = tmp_path / "o.csv"
        args = ["run", "--input", inp, "--mode", "p-independent", "--method", "all",
                "--out", str(out)]
        assert main(args) == 0
        body = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert [l.split(",")[0] for l in body[1:]] == ["snp7", "snp3", "snp11", "snp0"]

    @pytest.mark.parametrize("method", ["random", "all"])
    def test_out_of_domain_exact_exits_2(self, tmp_path, capsys, method):
        inp = write(tmp_path / "p.csv", "id,aux,exact\na,0.5,0.2\nb,0.5,1.5\n")
        out = tmp_path / "o.csv"
        args = ["run", "--input", inp, "--mode", "p-independent", "--method", method,
                "--budget", "2", "--out", str(out)]
        assert main(args) == 2
        assert "p-value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode,family", [
        ("e", "log1p"), ("p-independent", "log_inverse"), ("p-general", "log_inverse"),
    ])
    def test_utility_default_fits_mode(self, tmp_path, capsys, mode, family):
        rows = ["id,aux,exact\n"] + [f"h{i},{(i + 1) / 50},{(i + 1) / 45}\n" for i in range(40)]
        inp = write(tmp_path / "p.csv", "".join(rows))
        out = tmp_path / "o.csv"
        args = ["run", "--input", inp, "--mode", mode, "--method", "active",
                "--budget", "8", "--out", str(out)]
        assert main(args) == 0
        assert parse_config_header(out.read_text())["utility"] == family
        assert "warning" not in capsys.readouterr().err

    def test_e_default_matches_explicit_log1p(self, tmp_path):
        inp = self.make_input(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--input", inp, "--mode", "e", "--method", "active", "--budget", "10"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--utility", "log1p", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("mode,family", [("e", "log_inverse"), ("p-independent", "identity")])
    def test_utility_against_mode_warns(self, tmp_path, capsys, mode, family):
        rows = ["id,aux,exact\n"] + [f"h{i},{(i + 1) / 50},{(i + 1) / 45}\n" for i in range(40)]
        inp = write(tmp_path / "p.csv", "".join(rows))
        out = tmp_path / "o.csv"
        args = ["run", "--input", inp, "--mode", mode, "--method", "active",
                "--budget", "8", "--utility", family, "--out", str(out)]
        assert main(args) == 0
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1 and "warning" in err_lines[0] and family in err_lines[0]
        assert parse_config_header(out.read_text())["utility"] == family

    def test_bad_header_exits_2(self, tmp_path, capsys):
        inp = write(tmp_path / "bad.csv", "key,aux,exact\nk,1,1\n")
        args = ["run", "--input", inp, "--mode", "e", "--method", "all",
                "--out", str(tmp_path / "o.csv")]
        assert main(args) == 2
        assert "id,aux,exact" in capsys.readouterr().err

    def test_deterministic(self, tmp_path):
        inp = self.make_input(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--input", inp, "--mode", "p-general", "--method", "active",
                "--budget", "8", "--seed", "11"]
        # p-mode needs aux in [0,1]
        rows = ["id,aux,exact\n"] + [f"h{i},{(i + 1) / 50},{(i + 1) / 45}\n" for i in range(40)]
        inp = write(tmp_path / "p.csv", "".join(rows))
        args = ["run", "--input", inp, "--mode", "p-general", "--method", "active",
                "--budget", "8", "--seed", "11"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGwas:
    def make_tables(self, tmp_path, n=60, overlap=50):
        rng = np.random.default_rng(13)
        t_rows = ["rsid,pval\n"]
        a_rows = ["rsid,pval\n"]
        for i in range(n):
            t_rows.append(f"rs{i},{rng.uniform():.8f}\n")
        for i in range(n - overlap, 2 * n - overlap):
            a_rows.append(f"rs{i},{rng.uniform():.8f}\n")
        return (
            write(tmp_path / "target.csv", "".join(t_rows)),
            write(tmp_path / "aux.csv", "".join(a_rows)),
        )

    def test_all_method_summary(self, tmp_path):
        target, aux = self.make_tables(tmp_path)
        out = tmp_path / "g.csv"
        args = ["gwas", "--target", target, "--aux", aux, "--budget", "20",
                "--method", "all", "--out", str(out)]
        assert main(args) == 0
        text = out.read_text()
        config = parse_config_header(text)
        assert config["oracle_size"] == config["recovered_size"]
        assert int(config["n_queries"]) == 50
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "key,active_p,queried"
        assert len(body) == 51

    def test_active_method_respects_budget(self, tmp_path):
        target, aux = self.make_tables(tmp_path)
        out = tmp_path / "g.csv"
        args = ["gwas", "--target", target, "--aux", aux, "--budget", "10",
                "--method", "active", "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        text = out.read_text()
        config = parse_config_header(text)
        body = [l for l in text.splitlines() if not l.startswith("#")]
        flags = [l.split(",")[2] for l in body[1:]]
        assert flags.count("true") == int(config["n_queries"])
        assert int(config["n_queries"]) <= 10 + 4 * math.sqrt(10)

    def test_no_overlap_exits_2(self, tmp_path, capsys):
        t = write(tmp_path / "t.csv", "rsid,pval\nrsA,0.5\n")
        a = write(tmp_path / "a.csv", "rsid,pval\nrsB,0.5\n")
        args = ["gwas", "--target", t, "--aux", a, "--budget", "1",
                "--out", str(tmp_path / "o.csv")]
        assert main(args) == 2
        assert "common" in capsys.readouterr().err

    def test_custom_columns(self, tmp_path):
        t = write(tmp_path / "t.tsv", "snp\tp\nrs1\t0.5\nrs2\t0.01\n")
        a = write(tmp_path / "a.tsv", "snp\tp\nrs1\t0.4\nrs2\t0.02\n")
        out = tmp_path / "o.csv"
        args = ["gwas", "--target", t, "--aux", a, "--key-col", "snp", "--p-col", "p",
                "--budget", "1", "--method", "random", "--out", str(out)]
        assert main(args) == 0


class TestConformal:
    def test_worked_examples(self, tmp_path):
        cal = write(tmp_path / "cal.csv", "0.1\n0.2\n0.3\n0.4\n")
        test = write(tmp_path / "test.csv", "0.25\n0.05\n0.9\n")
        out = tmp_path / "p.csv"
        assert main(["conformal", "--cal", cal, "--test", test, "--out", str(out)]) == 0
        text = out.read_text()
        body = [l for l in text.splitlines() if not l.startswith("#")]
        assert body[0] == "index,p_value"
        got = [float(l.split(",")[1]) for l in body[1:]]
        np.testing.assert_allclose(got, [0.6, 0.2, 1.0])
        want = conformal_p([0.1, 0.2, 0.3, 0.4], [0.25, 0.05, 0.9])
        np.testing.assert_allclose(got, want)

    def test_header_counts(self, tmp_path):
        cal = write(tmp_path / "cal.csv", "1.0\n2.0\n")
        test = write(tmp_path / "test.csv", "1.5\n")
        out = tmp_path / "p.csv"
        assert main(["conformal", "--cal", cal, "--test", test, "--out", str(out)]) == 0
        config = parse_config_header(out.read_text())
        assert config["n_calibration"] == "2"
        assert config["n_test"] == "1"


class TestAtomicity:
    def test_prior_output_preserved_on_failure(self, tmp_path):
        out = tmp_path / "keep.csv"
        out.write_text("precious\n")
        bad = write(tmp_path / "bad.csv", "0.5\nnope\n")
        assert main(["mt", "--procedure", "bh", "--input", bad, "--out", str(out)]) == 2
        assert out.read_text() == "precious\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []
