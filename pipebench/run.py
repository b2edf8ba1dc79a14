#!/usr/bin/env python3
"""Pipeline benchmark for polytoep: checked verdicts per second.

Run from the repository root:

    python3 pipebench/run.py --workload certify-heavy --seed 1 --seconds 20 --trace 0

The workload's tuples are built from the seed (``workloads.py``) and handed
to ``polytoep.report.run_index`` as tuple JSON, one after another from one
process: a closed loop with one client.  Passes over the workload repeat
until ``--seconds`` have elapsed, and there are always at least two, so every
report body is produced twice.  Each verdict is checked against the ground
truth the tuple was built with.  Set-up (import plus one warm-up call on a
tuple in no workload) is measured in this process and in two fresh child
processes, and stays outside the timed passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (``tracing.py``).
The last line of standard output is one JSON object; the detail (machine
facts, per-tuple verdicts and body hashes, spans) goes to
``pipebench/out/``.  See ``NOTES.md`` for what each metric should respond to.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CHILDREN = 2
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120


def setup() -> float:
    """Seconds to import the pipeline and run one warm-up tuple."""
    t0 = time.perf_counter()
    from polytoep.report import JobConfig, run_index
    run_index(JobConfig(input=workloads.WARMUP))
    return time.perf_counter() - t0


def setup_in_child() -> float:
    proc = subprocess.run([sys.executable, str(Path(__file__)), "--setup-sample"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(proc.stdout.split()[-1])


def body_hash(body: dict) -> str:
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_pass(tuples, tracer=None):
    """One pass in order; returns (seconds, [(seconds, report or error)])."""
    from polytoep.report import JobConfig, run_index
    calls = []
    t_pass = time.perf_counter()
    for i, (_, obj, _) in enumerate(tuples):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                rep = run_index(JobConfig(input=obj))
            else:
                tracer.tuple_id = i
                rep = tracer.span("run_index", run_index, JobConfig(input=obj))
        except Exception as exc:  # noqa: BLE001 - a raising tuple is a failure
            rep = f"{type(exc).__name__}: {exc}"
        calls.append((time.perf_counter() - t0, rep))
    return time.perf_counter() - t_pass, calls


def check(tuples, passes):
    """Per-tuple outcome over all passes, plus (failed calls, wrong claims).

    A call fails when it raises, when its verdict kind or index differs from
    the ground truth, or when its tuple's report body differs between
    passes.  A wrong claim is a definite verdict (agree or not_fredholm)
    that contradicts the ground truth, or a body that is not reproducible.
    """
    results, failed, wrong = [], 0, 0
    for i, (name, _, want) in enumerate(tuples):
        reps = [calls[i][1] for _, calls in passes]
        hashes = sorted({body_hash(r["body"]) for r in reps if isinstance(r, dict)})
        problems, bad = set(), 0
        for rep in reps:
            if not isinstance(rep, dict):
                problems.add(rep)
                bad += 1
                continue
            v = rep["body"]["verdict"]
            got = (v["kind"], v.get("index"))
            if got != want:
                problems.add(f"verdict {got[0]} {got[1]}, expected {want[0]} {want[1]}")
                bad += 1
                wrong += got[0] in ("agree", "not_fredholm")
        if len(hashes) > 1:
            problems.add("report body differs between passes")
            bad = len(reps)
            wrong += 1
        failed += bad
        results.append({"name": name, "expected": list(want), "failed_calls": bad,
                        "problems": sorted(problems), "body_sha256": hashes,
                        "cache_key": sorted({r["cache"]["key"] for r in reps
                                             if isinstance(r, dict)}),
                        "seconds": [calls[i][0] for _, calls in passes]})
        if problems:
            print(f"FAIL {name}: {'; '.join(sorted(problems))}", file=sys.stderr)
    return results, failed, wrong


def openblas_facts() -> dict:
    import ctypes
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {"blas": blas.get("name"), "blas_version": blas.get("version"),
             "blas_threads": None}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                facts["blas_threads"] = int(fn())
                return facts
    return facts


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy
    import polytoep.kernels as kernels
    facts = {"nproc": os.cpu_count(), "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "kernel_backend": getattr(kernels, "active_backend", lambda: "unknown")(),
             "git_commit": git_commit(), "workload_seed": seed,
             "development_seeds": list(workloads.DEVELOPMENT_SEEDS),
             "held_out_seed": workloads.HELD_OUT_SEED}
    facts.update(openblas_facts())
    return facts


def kernel_microbench(repeats: int = 5) -> dict:
    """Σ|fᵢ|² throughput of ``polytoep.kernels.sumsq_block`` (numpy backend)
    on the fixed degree-3 pair and 2M points of ``benchmarks/bench_kernels.py``,
    with its operation count and bytes computed from the array sizes."""
    import numpy as np
    from polytoep.kernels import pack_tuple, sumsq_block
    from polytoep.poly import tuple_from_json
    st = tuple_from_json(workloads.KERNEL_TUPLE)
    pk = pack_tuple(st)
    npts = 2_000_000
    rng = np.random.default_rng(0)
    pts = (rng.uniform(-1, 1, (npts, 2)) + 1j * rng.uniform(-1, 1, (npts, 2)))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        sumsq_block(pk, pts)
        times.append(time.perf_counter() - t0)
    flops, nbytes = workloads.sumsq_cost(workloads.KERNEL_TUPLE, npts)
    return {"kernels.sumsq_mpts_per_s": (npts / statistics.median(times) / 1e6, "Mpts/s"),
            "kernels.sumsq_flop_computed": (flops, "flop"),
            "kernels.sumsq_bytes_computed": (nbytes, "B")}


def timed_run(tuples, seconds):
    passes = []
    t_start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - t_start < seconds:
        passes.append(run_pass(tuples))
    calls = [c[0] for _, cs in passes for c in cs]
    metrics = {
        "tuples_per_s": (statistics.median(len(tuples) / t for t, _ in passes), "1/s"),
        "verdict_s.p50": (statistics.median(calls), "s"),
    }
    notes = {"passes": len(passes), "pass_seconds": [t for t, _ in passes],
             "verdict_s.samples": len(calls)}
    return passes, metrics, notes, None


def traced_run(tuples, seconds):
    plain, traced, per_pass, spans = [], [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < seconds:
        plain.append(run_pass(tuples))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced.append(run_pass(tuples, tracer))
        finally:
            tracer.uninstall()
        bodies = [r["body"] for _, r in traced[-1][1] if isinstance(r, dict)]
        per_pass.append(tracing.layer_metrics(tracer.spans, bodies))
        spans = tracer.spans
    # counters repeat exactly from pass to pass; times take the median
    metrics = {name: ((statistics.median_low if unit in ("count", "flop")
                       else statistics.median)([p[name][0] for p in per_pass]), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_frac"] = (
        statistics.median(t for t, _ in traced) / statistics.median(t for t, _ in plain) - 1,
        "frac")
    metrics.update(kernel_microbench())
    notes = {"passes": len(plain) + len(traced),
             "untraced_pass_seconds": [t for t, _ in plain],
             "traced_pass_seconds": [t for t, _ in traced]}
    return plain + traced, metrics, notes, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-sample", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "polytoep" / "__init__.py").is_file():
        print(f"error: polytoep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_sample:
        print(setup())
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    tuples = workloads.build(args.workload, args.seed)
    setups = [setup()] + [setup_in_child() for _ in range(SETUP_CHILDREN)]
    run = traced_run if args.trace else timed_run
    passes, metrics, notes, spans = run(tuples, args.seconds)
    results, failed, wrong = check(tuples, passes)
    attempted = len(tuples) * len(passes)
    if args.trace:
        metrics["failed_frac"] = (failed / attempted, "frac")
    else:
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    facts = machine_facts(args.seed)
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "machine": facts, "setup_samples_s": setups, "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "tuples": results,
        "spans": [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                   "tuple": s[4], "size": s[5]} for s in spans or ()],
    }, indent=1))

    print(f"pipebench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(tuples)} tuples x {len(passes)} passes, {failed} failed calls, "
          f"{wrong} wrong claims")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print("notes: " + json.dumps(notes))
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(f"detail: {detail.relative_to(ROOT)}")
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
