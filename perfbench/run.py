"""Outside-in benchmark of the activetest user paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: desk, gwas-100k, gwas-1m, run-csv, recovery-sweep (see
workloads.py for why each exists); ``all`` runs each in its own process.  One client, closed loop:
each op starts when the previous one has returned, on one thread.

A run sets up SETUP_REPEATS times; each set-up is a fresh interpreter
importing activetest, writing the seeded inputs, and one warm-up body on
small inputs.  It then runs bodies, each a fixed list of ops: at least two,
and more until starting another would end more than half a body past
``--seconds``.  Every op's output is checked.  The last stdout line is one
JSON object:

    --trace 0  end-to-end metrics, tracing off:
               wall_s       median body time (program calls only)
               setup_s      median set-up time
               peak_rss_mb  peak resident memory of this process
               efficiency   oracle (or true) rejections per exact fetch,
                            method active; fixed for a given seed
    --trace 1  per-layer metrics from alternating untraced and traced
               bodies: busy (self) seconds and counts per traced body,
               trace.uncovered_s (traced body time no top-level span
               covers) and trace.overhead_s (median traced minus untraced
               body, in nominal seconds).

Both times are in nominal seconds: measured seconds times
REFERENCE_NOMINAL_S over the time of a fixed pure-Python reference loop
timed next to them (before each op and after the last; before and after
each set-up).  The shared 2-vCPU host this was built on drifts in speed by
+-20% over tens of seconds and by 40% between runs minutes apart, which
longer runs do not average out; the reference loop never calls activetest
and drifts with the machine, so the ratio cancels most of it.  Raw seconds
are printed and recorded beside the nominal ones.

Each run also appends a full record (environment, every sample, failures,
output digest) to .perfbench_out/results.jsonl, which compare.py reads; a
traced run writes its spans to .perfbench_out/trace-<workload>-<seed>.jsonl.
The exit code is 0 when every check passed or failed only as a known defect.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from tracer import COUNT_METRICS, TIME_METRICS, Tracer
from workloads import KNOWN_DEFECTS, WORKLOADS, Outcome, mean_efficiency

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
REFERENCE_LOOP = 300_000  # iterations of the speed reference
REFERENCE_SAMPLES = 6  # reference timings per body, at least
REFERENCE_NOMINAL_S = 0.020  # reference loop time that defines a nominal second
WORKLOAD_NAMES = ("desk", "gwas-100k", "gwas-1m", "run-csv", "recovery-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=OUT / "results.jsonl",
                        help="JSON-lines file that receives this run's full record")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def import_program() -> None:
    """Import activetest from this checkout's sources, nowhere else."""
    if not (SRC / "activetest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no activetest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import activetest.cli

    if not Path(activetest.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: imported activetest from {activetest.cli.__file__}, not {SRC}")


def fresh_import() -> None:
    """Interpreter start plus ``import activetest.cli``, as a user pays it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import activetest.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)


def reference_s() -> float:
    """Time of a fixed pure-Python loop: this machine's speed at the moment."""
    start = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return perf_counter() - start


def run_ops(ops, tracer=None, refs=None) -> list:
    """Run ops in order; return (label, seconds, Outcome) per op.

    Only the call into activetest is timed.  A call or check that raises is
    recorded as a failed op and the body goes on.  When ``refs`` is a list,
    the reference loop is timed into it before each op and after the last,
    at least REFERENCE_SAMPLES times in all.
    """
    per_gap = -(-REFERENCE_SAMPLES // (len(ops) + 1))

    def sample():
        if refs is not None:
            refs.extend(reference_s() for _ in range(per_gap))

    results = []
    for op in ops:
        sample()
        call = op.call
        if tracer is not None:
            tracer.begin_op()
            call = tracer.wrap(op.span, call)
        start = perf_counter()
        try:
            result = call()
        except Exception as exc:
            seconds = perf_counter() - start
            results.append((op.label, seconds, Outcome([("exception", repr(exc))])))
            continue
        seconds = perf_counter() - start
        try:
            outcome = op.check(result)
        except Exception as exc:
            outcome = Outcome([("check-raised", repr(exc))])
        results.append((op.label, seconds, outcome))
    sample()
    return results


class Body:
    def __init__(self, results: list, refs: list, tracer=None):
        self.results = results
        self.tracer = tracer
        self.raw_s = sum(seconds for _label, seconds, _outcome in results)
        self.ref_s = statistics.median(refs)
        self.wall_s = self.raw_s * REFERENCE_NOMINAL_S / self.ref_s
        digest = hashlib.sha256()
        for label, _seconds, outcome in results:
            digest.update(label.encode() + b"\0" + outcome.digest)
        self.digest = digest.hexdigest()


def with_tracer(tracer, fn):
    """Run ``fn`` with the tracer's wrappers installed, if there is a tracer."""
    if tracer is None:
        return fn(), []
    undo, missing = tracer.install()
    try:
        return fn(), missing
    finally:
        tracer.uninstall(undo)


def set_up(wl, tracer) -> tuple[float, float, list]:
    """One set-up; returns its raw and nominal time and the warm-up results."""
    def call(span, fn):
        return fn() if tracer is None else tracer.wrap(span, fn)()

    refs = [reference_s() for _ in range(REFERENCE_SAMPLES // 2)]
    start = perf_counter()
    fresh_import()
    wl.prepare(call)
    prepared_s = perf_counter() - start
    warm, _ = with_tracer(tracer, lambda: run_ops(wl.warm_up_ops(), tracer))
    raw_s = prepared_s + sum(seconds for _l, seconds, _o in warm)
    refs += [reference_s() for _ in range(REFERENCE_SAMPLES // 2)]
    return raw_s, raw_s * REFERENCE_NOMINAL_S / statistics.median(refs), warm


def measure(wl, seconds: float, trace: bool) -> tuple[list, list]:
    bodies, missing = [], []
    start = perf_counter()
    while True:
        tracer = Tracer("body") if trace and len(bodies) % 2 == 1 else None
        refs = []
        results, found = with_tracer(tracer, lambda: run_ops(wl.ops(), tracer, refs))
        missing = found or missing
        bodies.append(Body(results, refs, tracer))
        typical = statistics.median(b.raw_s for b in bodies)
        if len(bodies) >= 2 and perf_counter() - start + 0.5 * typical > seconds:
            return bodies, missing


def tail(samples: list):
    """Highest percentile with at least ten samples beyond it: (pct, value)."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def tally(workload: str, results: list) -> tuple[int, Counter, Counter, Counter]:
    """Failed op count, unexpected failures, known-defect hits and known-defect
    opportunities (ops that could show each known defect)."""
    failed, failures, known, chances = 0, Counter(), Counter(), Counter()
    for label, _seconds, outcome in results:
        for (wl_name, op_label, _check), defect in KNOWN_DEFECTS.items():
            if (wl_name, op_label) == (workload, label):
                chances[defect] += 1
        unexpected = False
        for check, detail in outcome.failures:
            defect = KNOWN_DEFECTS.get((workload, label, check))
            if defect:
                known[defect] += 1
            else:
                unexpected = True
                failures[f"{label}: {check}: {detail}"] += 1
        failed += unexpected
    return failed, failures, known, chances


def run_workload(args) -> int:
    import_program()
    env = environment()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        setups, raw_setups, warm, setup_tracer = [], [], [], None
        for k in range(SETUP_REPEATS):
            if args.trace and k == SETUP_REPEATS - 1:
                setup_tracer = Tracer("setup")
            raw_s, setup_s, results = set_up(wl, setup_tracer)
            raw_setups.append(raw_s)
            setups.append(setup_s)
            warm += results
        bodies, missing = measure(wl, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_results = warm + [r for b in bodies for r in b.results]
    failed, failures, known, chances = tally(args.workload, all_results)
    digests = {b.digest for b in bodies}
    if len(digests) > 1:
        failures["output-digest-unstable: bodies of one run differ"] += 1
    efficiency = mean_efficiency([o for _l, _s, o in bodies[0].results])
    attempted = len(all_results)
    correct = not failures
    walls = [b.wall_s for b in bodies if b.tracer is None]
    raw_walls = [b.raw_s for b in bodies if b.tracer is None]

    if args.trace:
        traced_bodies = [b for b in bodies if b.tracer is not None]
        per_body = [b.tracer.layer_metrics() for b in traced_bodies]
        metrics = {name: {"value": statistics.fmean(m[name] for m in per_body),
                          "unit": "s" if name in TIME_METRICS else "count"}
                   for name in (*TIME_METRICS, *COUNT_METRICS)}
        metrics["engine.fetch_budget_ratio"] = {
            "value": statistics.fmean(m["engine.fetch_budget_ratio"] for m in per_body),
            "unit": "ratio"}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(b.wall_s for b in traced_bodies) - statistics.median(walls),
            "unit": "s"}
        metrics["trace.uncovered_s"] = {
            "value": statistics.fmean(b.raw_s - b.tracer.top_level_s() for b in traced_bodies),
            "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "efficiency": {"value": efficiency, "unit": "ratio"},
        }

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(bodies)} bodies, {attempted} ops attempted, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':28s} {failed / attempted:.6g} ratio ({failed} failed / {attempted} attempted)")
    found = tail(walls)
    print(f"  wall_s over n={len(walls)} bodies: median {statistics.median(walls):.6g} s, tail "
          + (f"p{found[0]:.0f} {found[1]:.6g} s" if found else "needs >= 11 samples (compare.py pools runs)")
          + f"; raw median {statistics.median(raw_walls):.6g} s")
    print(f"  setup_s samples: {', '.join(f'{s:.4g}' for s in setups)} s; raw "
          f"{', '.join(f'{s:.4g}' for s in raw_setups)} s")
    print(f"  output_digest {bodies[0].digest}")
    for defect in chances:
        print(f"  known defect {defect}: failed on {known[defect]} of {chances[defect]} ops"
              + (" (no longer reproduces)" if not known[defect] else ""))
    for failure, count in failures.items():
        print(f"  FAILED {failure} (x{count})")
    if missing:
        print(f"  trace sites not found: {', '.join(missing)}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "setup_s": setups, "setup_raw_s": raw_setups,
        "bodies": [{"wall_s": b.wall_s, "raw_s": b.raw_s, "ref_s": b.ref_s,
                    "traced": b.tracer is not None,
                    "ops": [[label, seconds] for label, seconds, _o in b.results]}
                   for b in bodies],
        "correct": correct, "wall_raw_s": statistics.median(raw_walls),
        "attempted": attempted, "failed": failed, "failures": dict(failures),
        "known_defects": {d: [known[d], chances[d]] for d in chances},
        "output_digest": bodies[0].digest, "efficiency": efficiency,
        "metrics": metrics,
    }
    if setup_tracer is not None:
        record["setup_layers"] = {k: v for k, v in setup_tracer.layer_metrics().items() if v}
        print("  set-up layers (last set-up): " + ", ".join(
            f"{k}={v:.4g}" for k, v in record["setup_layers"].items()))
        with open(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            setup_tracer.dump(fh, body=-1)
            for i, b in enumerate(bodies):
                if b.tracer is not None:
                    b.tracer.dump(fh, body=i)
    args.results.parent.mkdir(parents=True, exist_ok=True)
    with open(args.results, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process, then tabulate their records."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--results", str(args.results)])
        status = status or proc.returncode
    records = []
    if args.results.is_file():
        with open(args.results, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    print(f"\n{'workload':15s} {'correct':8s} {'metric':28s} value")
    for name in WORKLOAD_NAMES:
        record = next((r for r in reversed(records) if r["workload"] == name), None)
        if record is None:
            print(f"{name:15s} no result")
            continue
        rows = [(metric, m["value"], m["unit"]) for metric, m in record["metrics"].items()]
        if not args.trace:
            rows += [("wall_raw_s", record["wall_raw_s"], "s"),
                     ("error_rate", record["failed"] / record["attempted"], "ratio")]
        for metric, value, unit in rows:
            print(f"{name:15s} {str(record['correct']):8s} {metric:28s} {value:.6g} {unit}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
