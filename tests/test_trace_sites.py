"""Every patch site of the benchmark tracer resolves, so a refactor that
renames or drops a traced call cannot silently zero a per-layer metric."""

from pathlib import Path

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
