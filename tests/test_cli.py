import csv
import hashlib
import io
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from activetest import __version__
from activetest.cli import build_parser, main, parse_config_header
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

    # in a subprocess, since conftest imports scipy into this one
    def test_import_leaves_scipy_stats_out(self):
        # scipy.special is the slowest import and only simulate needs it;
        # the version lookup and the thread pool are not needed at all
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, activetest.cli; print(sorted(m for m in "
             "('scipy', 'importlib.metadata', 'concurrent.futures') if m in sys.modules))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_only_simulate_loads_scipy(self, tmp_path):
        def inp(name, text):
            return write(tmp_path / name, text)

        commands = [
            ["run", "--input", inp("run.csv", "id,aux,exact\na,2.0,3.0\nb,0.5,1.0\nc,1.0,0.2\n"),
             "--mode", "e", "--method", "active", "--budget", "1"],
            ["gwas", "--target", inp("target.csv", "rsid,pval\nrs1,0.01\nrs2,0.5\nrs3,0.2\n"),
             "--aux", inp("aux.csv", "rsid,pval\nrs1,0.02\nrs2,0.4\nrs3,0.3\n"), "--budget", "1"],
            ["mt", "--procedure", "bh", "--input", inp("p.csv", "0.01\n0.5\n")],
            ["conformal", "--cal", inp("cal.csv", "0.1\n0.2\n"),
             "--test", inp("test.csv", "0.15\n")],
            ["simulate", "--dgp", "signal", "--mode", "e", "--n", "50", "--pi", "0.1",
             "--budget", "5", "--reps", "1"],
        ]
        script = (
            "import sys\n"
            "from activetest.cli import main\n"
            f"for argv in {commands!r}:\n"
            f"    rc = main(argv + ['--out', {str(tmp_path)!r} + '/' + argv[0] + '.out'])\n"
            "    print(argv[0], rc, 'scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            "run 0 False", "gwas 0 False", "mt 0 False", "conformal 0 False",
            "simulate 0 True",
        ], proc.stderr

    def test_one_version_string(self, tmp_path, capsys):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == __version__
        assert main(["--version"]) == 0
        assert capsys.readouterr().out == f"activetest {__version__}\n"
        out = tmp_path / "rej.txt"
        assert main(["mt", "--procedure", "bh", "--input", write(tmp_path / "p.csv", "0.5\n"),
                     "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == f"# activetest {__version__}"


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

    @pytest.mark.parametrize("content", ["id,aux,exact\n", None], ids=["header-only", "missing"])
    def test_budget_checked_before_input_is_read(self, tmp_path, capsys, content):
        inp = tmp_path / "hyps.csv"
        if content is not None:
            inp.write_text(content)
        args = ["run", "--input", str(inp), "--mode", "e", "--method", "active",
                "--out", str(tmp_path / "o.csv")]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert "--budget is required for method 'active'" in err
        assert "no data rows" not in err and "No such file" not in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("method", ["xu", "all", "active", "active-xu"])
    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
    def test_bad_budget_refused_before_input_is_read(self, tmp_path, capsys, method, budget):
        args = ["run", "--input", str(tmp_path / "missing.csv"), "--mode", "e",
                "--method", method, "--budget", budget, "--out", str(tmp_path / "o.csv")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert f"budget must be positive, got {float(budget)!r}" in err
        assert "No such file" not in err

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

    def test_unknown_utility_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        args = ["run", "--input", self.make_input(tmp_path), "--mode", "e", "--budget", "5",
                "--utility", "cubic", "--out", str(out)]
        assert main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: activetest run")
        assert "invalid choice: 'cubic'" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--eps", "1e-8"], ["--sup-h", "1"]])
    def test_removed_knobs_are_unknown(self, tmp_path, capsys, flag):
        out = tmp_path / "o.csv"
        args = ["run", "--input", self.make_input(tmp_path), "--mode", "p-general",
                "--budget", "5", "--out", str(out)]
        assert main(args + flag) == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_clamp_warning_is_one_line(self, tmp_path, capsys):
        inp = write(tmp_path / "p.csv", "id,aux,exact\na,0.5,0.2\nb,0.3,0.1\n")
        args = ["run", "--input", inp, "--mode", "p-independent", "--budget", "5",
                "--out", str(tmp_path / "o.csv")]
        filters, show = list(warnings.filters), warnings.showwarning
        assert main(args) == 0
        assert capsys.readouterr().err == (
            "activetest: warning: budget 5.0 exceeds the 2 hypotheses; clamping\n")
        assert warnings.filters == filters and warnings.showwarning is show

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


class TestHeaderEcho:
    """Every option a subcommand parses is echoed as a '# key = value' line,
    except the paths its outputs go to, so no run leaves a setting unrecorded."""

    UNECHOED = ("command", "out", "agg_out")

    @staticmethod
    def argv(command, tmp_path):
        def inp(name, text):
            return write(tmp_path / name, text)

        return {
            "simulate": ["simulate", "--dgp", "correlated", "--rho", "0.5", "--mode", "p",
                         "--n", "60", "--pi", "0.2", "--budget", "6", "--reps", "2",
                         "--threads", "2", "--methods", "active,xu"],
            "run": ["run", "--input", inp("h.csv", "id,aux,exact\na,0.5,0.2\nb,0.1,0.3\n"),
                    "--mode", "p-general", "--method", "active", "--budget", "1",
                    "--beta", "0.25", "--utility", "inverse", "--seed", "4"],
            "gwas": ["gwas", "--target", inp("t.tsv", "snp\tp\nrs1\t0.5\nrs2\t0.01\n"),
                     "--aux", inp("a.tsv", "snp\tp\nrs1\t0.4\nrs2\t0.02\n"),
                     "--key-col", "snp", "--p-col", "p", "--budget", "1", "--beta", "0.3",
                     "--alpha", "0.2", "--method", "active-xu", "--seed", "8"],
            "conformal": ["conformal", "--cal", inp("cal.txt", "0.1\n0.2\n"),
                          "--test", inp("test.txt", "0.15\n")],
            "mt": ["mt", "--procedure", "by", "--alpha", "0.05",
                   "--input", inp("p.txt", "0.01\n0.5\n")],
        }[command]

    @pytest.mark.parametrize("command", ["simulate", "run", "gwas", "conformal", "mt"])
    def test_every_parsed_option_is_echoed(self, tmp_path, command):
        out = tmp_path / "o.csv"
        argv = self.argv(command, tmp_path) + ["--out", str(out)]
        options = {key: value for key, value in vars(build_parser().parse_args(argv)).items()
                   if key not in self.UNECHOED}
        assert main(argv) == 0
        header = parse_config_header(out.read_text())
        assert sorted(set(options) - set(header)) == []
        assert {key: header[key] for key in options} == {key: str(value)
                                                         for key, value in options.items()}


class TestAtomicity:
    def test_prior_output_preserved_on_failure(self, tmp_path):
        out = tmp_path / "keep.csv"
        out.write_text("precious\n")
        bad = write(tmp_path / "bad.csv", "0.5\nnope\n")
        assert main(["mt", "--procedure", "bh", "--input", bad, "--out", str(out)]) == 2
        assert out.read_text() == "precious\n"
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]
        assert leftovers == []


class TestNonFiniteArguments:
    """A nan or infinite number on the command line exits 2 with a message."""

    @pytest.mark.parametrize("budget", ["nan", "inf", "1e400"])
    def test_run_random_budget(self, tmp_path, capsys, budget):
        inp = write(tmp_path / "h.csv", "id,aux,exact\na,0.5,0.2\nb,0.5,0.3\n")
        out = tmp_path / "o.csv"
        assert main(["run", "--input", inp, "--mode", "p-independent", "--method", "random",
                     "--budget", budget, "--out", str(out)]) == 2
        assert "random baseline needs an integer budget" in capsys.readouterr().err
        assert not out.exists()

    def test_gwas_random_budget(self, tmp_path, capsys):
        t = write(tmp_path / "t.csv", "rsid,pval\nrs1,0.5\nrs2,0.01\n")
        a = write(tmp_path / "a.csv", "rsid,pval\nrs1,0.4\nrs2,0.02\n")
        assert main(["gwas", "--target", t, "--aux", a, "--budget", "nan", "--method", "random",
                     "--out", str(tmp_path / "o.csv")]) == 2
        assert "random baseline needs an integer budget" in capsys.readouterr().err

    def test_simulate_random_budget(self, tmp_path, capsys):
        assert main(["simulate", "--dgp", "signal", "--n", "50", "--reps", "1", "--budget", "nan",
                     "--methods", "random", "--out", str(tmp_path / "s.csv")]) == 2
        assert "random baseline needs an integer budget" in capsys.readouterr().err

    def test_simulate_noisy_sigma(self, tmp_path, capsys):
        assert main(["simulate", "--dgp", "noisy", "--sigma", "nan", "--n", "50", "--reps", "1",
                     "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert "finite sigma > 0, got nan" in err and "aux" not in err

    @pytest.mark.parametrize("budget", ["nan", "inf", "0", "-1"])
    @pytest.mark.parametrize("method", ["xu", "all"])
    @pytest.mark.parametrize("command", ["run", "gwas"])
    def test_budget_checked_for_methods_that_spend_none(self, tmp_path, capsys, command, method,
                                                        budget):
        if command == "run":
            argv = ["run", "--input", write(tmp_path / "h.csv", "id,aux,exact\na,0.5,0.2\n"),
                    "--mode", "p-independent"]
        else:
            argv = ["gwas", "--target", write(tmp_path / "t.csv", "rsid,pval\nrs1,0.5\n"),
                    "--aux", write(tmp_path / "a.csv", "rsid,pval\nrs1,0.4\n")]
        out = tmp_path / "o.csv"
        assert main(argv + ["--method", method, "--budget", budget, "--out", str(out)]) == 2
        assert "budget must be positive, got" in capsys.readouterr().err
        assert not out.exists()
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".tmp")]


def _late_fault(header, row, bad, n=30_000):
    """A table whose one fault sits on line n + 2, far past the first read block."""
    return (header + "".join(row(i) for i in range(n)) + bad).encode()


RUN_HEADER = "id,aux,exact\n"
GWAS_HEADER = "rsid,pval\n"

# (case, input bytes, line the message must name)
RUN_MALFORMED = [
    ("empty file", b"", 1),
    ("header only", RUN_HEADER.encode(), 1),
    ("BOM header", b"\xef\xbb\xbf" + RUN_HEADER.encode() + b"a,0.5,0.5\n", 1),
    ("ragged row", (RUN_HEADER + "a,0.5,0.5\nb,0.5\n").encode(), 3),
    ("ragged rows that balance", (RUN_HEADER + "1,0.1,0.2,9\n2,0.3\n").encode(), 3),
    ("bad number", (RUN_HEADER + "a,0.5,0.5\nb,0.5,x\n").encode(), 3),
    ("non-UTF-8", RUN_HEADER.encode() + b"a,0.5,0.5\nb\xff,0.5,0.5\n", 3),
    ("duplicate id", (RUN_HEADER + "a,0.5,0.5\nb,0.5,0.5\na,0.5,0.5\n").encode(), 4),
    ("field over csv limit",
     (RUN_HEADER + "a,0.5,0.5\n" + "b" * 200_000 + ",0.5,0.5\n").encode(), 3),
    ("late bad number", _late_fault(RUN_HEADER, lambda i: f"h{i},0.5,0.25\n", "z,0.5,oops\n"),
     30_002),
    ("late duplicate id", _late_fault(RUN_HEADER, lambda i: f"h{i},0.5,0.25\n", "h7,0.5,0.5\n"),
     30_002),
]
GWAS_MALFORMED = [
    ("empty file", b"", 1),
    ("header only", GWAS_HEADER.encode(), 1),
    ("BOM header", b"\xef\xbb\xbf" + GWAS_HEADER.encode() + b"rs1,0.5\n", 1),
    ("ragged row", b"rsid,pval\nrs1,0.5\nrs2\n", 3),
    ("ragged rows that balance", b"rsid,pval\nrs1,0.5,0.25\n0.5\n", 3),
    ("bad number", b"rsid,pval\nrs1,0.5\nrs2,x\n", 3),
    ("NaN", b"rsid,pval\nrs1,nan\n", 2),
    ("out of range", b"rsid,pval\nrs1,0.5\nrs2,1.5\n", 3),
    ("non-UTF-8", b"rsid,pval\nrs1,0.5\nrs\xff,0.5\n", 3),
    ("duplicate id", b"rsid,pval\nrs1,0.5\nrs2,0.5\nrs1,0.5\n", 4),
    ("late out of range", _late_fault(GWAS_HEADER, lambda i: f"rs{i},0.25\n", "rsz,-0.5\n"),
     30_002),
]


class TestMalformedInput:
    """Every bad input exits 2 with a line-numbered message and no traceback."""

    @staticmethod
    def check(capsys, rc, line):
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "Traceback" not in err
        assert f"line {line}" in err, err
        return err

    @pytest.mark.parametrize("case,data,line", RUN_MALFORMED, ids=[c[0] for c in RUN_MALFORMED])
    def test_run(self, tmp_path, capsys, case, data, line):
        inp = tmp_path / "in.csv"
        inp.write_bytes(data)
        out = tmp_path / "o.csv"
        rc = main(["run", "--input", str(inp), "--mode", "p-independent", "--method", "all",
                   "--out", str(out)])
        self.check(capsys, rc, line)
        assert not out.exists()

    @pytest.mark.parametrize("case,data,line", GWAS_MALFORMED,
                             ids=[c[0] for c in GWAS_MALFORMED])
    def test_gwas(self, tmp_path, capsys, case, data, line):
        target = tmp_path / "t.csv"
        target.write_bytes(data)
        aux = write(tmp_path / "a.csv", "rsid,pval\nrs1,0.5\nrs2,0.5\n")
        out = tmp_path / "o.csv"
        rc = main(["gwas", "--target", str(target), "--aux", aux, "--budget", "1",
                   "--out", str(out)])
        self.check(capsys, rc, line)
        assert not out.exists()

    def test_duplicate_id_names_id_and_both_lines(self, tmp_path, capsys):
        inp = tmp_path / "in.csv"
        inp.write_bytes(dict((c[0], c[1]) for c in RUN_MALFORMED)["duplicate id"])
        rc = main(["run", "--input", str(inp), "--mode", "e", "--method", "all",
                   "--out", str(tmp_path / "o.csv")])
        err = self.check(capsys, rc, 4)
        assert "duplicate id 'a', first on line 2" in err

    @pytest.mark.parametrize("command", ["mt", "conformal"])
    def test_score_files_not_utf8(self, tmp_path, capsys, command):
        bad = tmp_path / "s.txt"
        bad.write_bytes(b"0.5\n0.25\n\xfe0.1\n")
        good = write(tmp_path / "g.txt", "0.5\n")
        if command == "mt":
            argv = ["mt", "--procedure", "bh", "--input", str(bad)]
        else:
            argv = ["conformal", "--cal", good, "--test", str(bad),
                    "--out", str(tmp_path / "o.csv")]
        self.check(capsys, main(argv), 3)

    # (command, data of the scored file, message): each value is out of the
    # domain of the procedure that reads it
    OUT_OF_DOMAIN = [
        ("bh", "0.5\n1.5\n", "p-values must lie in [0, 1]"),
        ("by", "0.5\nnan\n", "p-values must lie in [0, 1]"),
        ("ebh", "2.0\n-1\n", "e-values must be >= 0"),
        ("conformal", "0.5\nnan\n", "scores must not contain NaN"),
    ]

    @pytest.mark.parametrize("command,data,message", OUT_OF_DOMAIN,
                             ids=[c[0] for c in OUT_OF_DOMAIN])
    def test_out_of_domain_score_names_file_and_line(self, tmp_path, capsys, command, data,
                                                     message):
        bad = write(tmp_path / "s.txt", data)
        if command == "conformal":
            good = write(tmp_path / "g.txt", "0.5\n0.25\n")
            argv = ["conformal", "--cal", good, "--test", bad, "--out", str(tmp_path / "o.csv")]
        else:
            argv = ["mt", "--procedure", command, "--input", bad]
        err = self.check(capsys, main(argv), 2)
        assert err == f"activetest: error: {bad}: line 2: {message}\n"


def _body_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        body = fh.read()
    while body.startswith("#"):
        body = body[body.index("\n") + 1:]
    return list(csv.reader(io.StringIO(body, newline="")))


class TestQuotedIds:
    IDS = ["a,1", 'say "hi"', "two\nlines", "cr\rhere", "plain"]

    @staticmethod
    def quoted(field):
        return '"' + field.replace('"', '""') + '"'

    def test_run_output_reads_back(self, tmp_path):
        rows = "".join(f"{self.quoted(hid)},0.{i + 1},0.{i + 2}\n"
                       for i, hid in enumerate(self.IDS))
        inp = write(tmp_path / "in.csv", "id,aux,exact\n" + rows)
        out = tmp_path / "o.csv"
        assert main(["run", "--input", inp, "--mode", "p-independent", "--method", "all",
                     "--out", str(out)]) == 0
        body = _body_rows(out)
        assert body[0] == ["id", "value", "queried", "branch", "h"]
        assert all(len(row) == 5 for row in body)
        assert [row[0] for row in body[1:]] == self.IDS

    def test_gwas_output_reads_back(self, tmp_path):
        keys = ["rs1,2", 'q"x', "plain", "tab\tkey"]
        rows = "".join(f"{self.quoted(k)}\t0.{i + 1}\n" for i, k in enumerate(keys))
        target = write(tmp_path / "t.tsv", "rsid\tpval\n" + rows)
        aux = write(tmp_path / "a.tsv", "rsid\tpval\n" + rows)
        out = tmp_path / "o.csv"
        assert main(["gwas", "--target", target, "--aux", aux, "--budget", "2",
                     "--method", "all", "--out", str(out)]) == 0
        body = _body_rows(out)
        assert body[0] == ["key", "active_p", "queried"]
        assert all(len(row) == 3 for row in body)
        assert [row[0] for row in body[1:]] == keys


def _body_digest(path):
    """sha256 of the output lines that are not '#' header lines."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    return hashlib.sha256("".join(l for l in lines if not l.startswith("#")).encode()).hexdigest()


def _field(key):
    return '"' + key.replace('"', '""') + '"' if ("," in key or '"' in key) else key


class TestIdKeyedGoldens:
    """Output bodies pinned to their bytes before the id path was reworked.

    run and gwas key their draws by the blake2b hash of each id, so these
    catch any change to the hash, the duplicate checks or the join that
    moves an output byte.
    """

    RUN_IDS = [f"rs{i}" for i in range(30)] + ["", "snp,7", 'q"1', "g\u00e8ne-\u03b4", "x" * 200]
    RUN = {
        "active": "65143e009458fde4aa63590771ef3f2c0e64127690ce4be222e96e223c8762a6",
        "active-xu": "d32aedac08bae97d57470969ef3c1dd2f475e36a7338f5a40d1c539994ec6894",
        "xu": "19b7d591a5d4aee9c09465b0efeba4617a5017037ba487f3171b3db6ad3da930",
        "random": "7f0a20ef725ee7027cd5cdff52f18bac6aec78a7d7c3e3c0699248d24471e667",
        "all": "096dfd8dcc8da62f69d9262b5782dd204c5c2e6ba1f97b1f3d98d80ee20880fc",
    }
    GWAS = {
        False: "a396939a565e1f9e2860f7374a9b86b1ce53ef6fe98868a6649215c92dcaffc3",
        True: "c2d2e10998ac32c597b2518f6e89940920163c53aea5555569283b9d723664c7",
    }

    @pytest.mark.parametrize("method", list(RUN))
    def test_run_body(self, tmp_path, method):
        n = len(self.RUN_IDS)
        rows = ["id,aux,exact\n"]
        for j, hid in enumerate(self.RUN_IDS):
            i = (j * 17) % n
            rows.append(f"{_field(hid)},{((i * 37) % 101 + 0.5) / 101!r},"
                        f"{((i * 53) % 97 + 0.25) / 97!r}\n")
        inp = tmp_path / "hyps.csv"
        inp.write_text("".join(rows), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["run", "--input", str(inp), "--mode", "p-independent", "--method", method,
                     "--budget", "8", "--seed", "5", "--out", str(out)]) == 0
        assert _body_digest(out) == self.RUN[method]

    @pytest.mark.parametrize("quoted", [False, True], ids=["bulk", "quoted"])
    def test_gwas_body_partial_overlap(self, tmp_path, quoted):
        keys = [f"rs{i}" for i in range(60)] + ["g\u00e8ne-\u03b4"]
        if quoted:
            keys.append("rs,60")
        n = len(keys)
        target = [(i + 1) * 1e-6 if i < 8 else ((i * 37) % n + 0.5) / n for i in range(n)]
        # target rows in a shuffled order; the aux table skips every fifth key
        # and adds keys the target lacks
        t_rows = [f"{_field(keys[(r * 23) % n])},{target[(r * 23) % n]!r}\n" for r in range(n)]
        a_rows = [f"{_field(keys[i])},{min(1.0, target[i] * 1.5)!r}\n"
                  for i in range(n) if i % 5 != 4]
        a_rows += [f"aux{i},{(i + 0.5) / 10!r}\n" for i in range(10)]
        t = tmp_path / "t.csv"
        a = tmp_path / "a.csv"
        t.write_text("rsid,pval\n" + "".join(t_rows), encoding="utf-8")
        a.write_text("rsid,pval\n" + "".join(a_rows), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["gwas", "--target", str(t), "--aux", str(a), "--budget", "10",
                     "--method", "active", "--seed", "3", "--out", str(out)]) == 0
        assert _body_digest(out) == self.GWAS[quoted]
