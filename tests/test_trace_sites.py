"""Every patch site of the benchmark tracer resolves, so a refactor that
renames or drops a traced call cannot silently zero a per-layer metric."""

from pathlib import Path

import pytest

from activetest.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_trace_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    undo, missing = tracer.Tracer("t").install()
    try:
        assert missing == []
        assert len(undo) == len(tracer.SITES)
    finally:
        tracer.Tracer.uninstall(undo)
    assert all(getattr(owner, attr) is original for owner, attr, original in undo)


def test_a_traced_simulate_opens_every_harness_span(monkeypatch, tmp_path):
    # a site that resolves but is never called would still read 0
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    traced = tracer.Tracer("t")
    undo, _missing = traced.install()
    try:
        assert main(["simulate", "--dgp", "signal", "--n", "200", "--budget", "10",
                     "--reps", "2", "--methods", "active,random",
                     "--out", str(tmp_path / "sim.csv")]) == 0
    finally:
        tracer.Tracer.uninstall(undo)
    names = {span[2] for span in traced.spans}
    assert {"simulate.make_statistics", "simulate.gen_signal", "engine.run_method",
            "procedures.stepup", "rng.uniforms", "core.active_values",
            "allocation.allocate"} <= names


@pytest.mark.parametrize("command", ["run", "gwas"])
def test_traced_bytes_written_match_the_file(monkeypatch, tmp_path, command):
    # the tracer counts the encoded text handed to atomic_write_text; a non-ASCII
    # key makes that differ from its length in characters
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    out = tmp_path / "out.csv"
    rows = [f"rs\u00e9{i},{(i + 1) / 40}" for i in range(30)]
    if command == "run":
        table = tmp_path / "in.csv"
        table.write_text("id,aux,exact\n" + "".join(f"{r},0.5\n" for r in rows),
                         encoding="utf-8")
        argv = ["run", "--input", str(table), "--mode", "p-independent", "--budget", "5"]
    else:
        for name in ("target", "aux"):
            (tmp_path / f"{name}.csv").write_text("rsid,pval\n" + "".join(
                f"{r}\n" for r in rows), encoding="utf-8")
        argv = ["gwas", "--target", str(tmp_path / "target.csv"),
                "--aux", str(tmp_path / "aux.csv"), "--budget", "5"]
    traced = tracer.Tracer("t")
    undo, _missing = traced.install()
    try:
        assert main(argv + ["--out", str(out)]) == 0
    finally:
        tracer.Tracer.uninstall(undo)
    assert traced.counts["cli.bytes_written"] == out.stat().st_size
    assert out.stat().st_size > len(out.read_text(encoding="utf-8"))
