"""Every patch site of the benchmark tracer resolves, so a refactor that
renames or drops a traced call cannot silently zero a per-layer metric."""

from pathlib import Path

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
