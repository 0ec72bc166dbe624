"""Benchmark of gpdecomp: one seeded workload per process, in a closed loop.

    python3 bench/run.py --workload verify-ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``src/gpdecomp`` from
there and nothing else.  One caller runs the workload's job list in passes,
each job starting after the previous one ends, until ``--seconds`` have
passed; the pass in flight is finished and, untraced, passes go on until the
tail percentile has ten samples beyond it.  Every output is checked; a failed
check or an exception counts against its layer and the run goes on.  Times
are normalised to a reference speed (see ``recorder``).

With ``--trace 0`` every pass is untraced and the end-to-end metrics of
BENCHMARK.json are printed.  With ``--trace 1`` untraced and span-recording
passes alternate, then one pass runs under tracemalloc, and the per-layer
metrics are printed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Spans and a full result
record (with nproc and the Python version) are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

import jobs as workloads
from recorder import ALLOC, OFF, REF_S, SPANS, Pass, Recorder, reference_loop, self_times

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples a tail percentile must have beyond it
LAYERS = ("constructions", "blocks", "verifier", "exact", "bounds", "fileio", "cli")
# Counts that must repeat exactly from pass to pass (and run to run, per seed).
COUNTS = (
    "constructions.pieces", "fileio.bytes", "verifier.edges", "blocks.pairs",
    "bounds.reports", "exact.nodes", "exact.proof_nodes", "exact.budget_hits",
    "exact.proved", "exact.gap", "cli.calls", "cli.bad_exit",
)


def fresh_import():
    """Import gpdecomp from src/ anew, so each set-up pays the import."""
    for name in [m for m in sys.modules if m == "gpdecomp" or m.startswith("gpdecomp.")]:
        del sys.modules[name]
    gp = importlib.import_module("gpdecomp")
    importlib.import_module("gpdecomp.cli")
    if Path(gp.__file__).resolve().parent != ROOT / "src" / "gpdecomp":
        raise ImportError(f"gpdecomp imported from {gp.__file__}, not from src/")
    return gp


def beyond(n: int, pct: float) -> int:
    """Samples above the nearest-rank pct-th percentile of n samples."""
    return n - math.ceil(n * pct / 100.0)


def job_medians(passes: List[Pass]) -> Dict[str, float]:
    by_name: Dict[str, List[float]] = {}
    for p in passes:
        if p.mode == OFF:
            for rec in p.jobs:
                by_name.setdefault(rec.name, []).append(rec.s)
    return {name: statistics.median(xs) for name, xs in sorted(by_name.items())}


def ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def end_to_end(passes: List[Pass], setup: List[float], pct: float) -> Tuple[Dict[str, float], Dict]:
    records = [rec for p in passes for rec in p.jobs]
    times = [rec.s for rec in records]
    verdicts = [v for rec in records for v in rec.verdicts]
    with_edges = [rec for rec in records if rec.edges]
    with_pieces = [rec for rec in records if rec.pieces]
    tail_s = sorted(times)[math.ceil(len(times) * pct / 100.0) - 1]
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "reject_s_p50": statistics.median(verdicts) if verdicts else 0.0,
        "edges_per_s": ratio(sum(r.edges for r in with_edges), sum(r.s for r in with_edges)),
        "pieces_per_s": ratio(sum(r.pieces for r in with_pieces), sum(r.s for r in with_pieces)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, {"job_s_tail_percentile": pct, "job_samples": len(times)}


def per_layer(passes: List[Pass], rec: Recorder) -> Dict[str, float]:
    plain = [p for p in passes if p.mode == OFF]
    traced = [p for p in passes if p.mode == SPANS]
    alloc = [p for p in passes if p.mode == ALLOC]
    counts = traced[0].counts

    def med(fn) -> float:
        return statistics.median(fn(*self_times(p)) for p in traced)

    def busy(layer):
        return med(lambda by_layer, by_name: by_layer.get(layer, 0.0))

    def named(*names):
        return med(lambda by_layer, by_name: sum(by_name.get(n, 0.0) for n in names))

    m: Dict[str, float] = {}
    total_busy = med(lambda by_layer, by_name: sum(by_layer.get(l, 0.0) for l in LAYERS))
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = busy(layer)
        m[f"{layer}.share"] = ratio(m[f"{layer}.busy_s"], total_busy)
        m[f"{layer}.failed"] = rec.failed.get(layer, 0)
    for name in COUNTS:
        m[name] = counts.get(name, 0)

    m["verifier.accept_s"] = named("verifier.verify_decomposition:accept")
    m["verifier.reject_s"] = named("verifier.verify_decomposition:reject")
    m["verifier.histogram_s"] = named("verifier.coverage_histogram")
    m["verifier.edges_per_s"] = ratio(m["verifier.edges"], m["verifier.accept_s"])
    peak = max((p.peak_alloc.get("verifier", 0) for p in alloc), default=0)
    m["verifier.peak_alloc_mb"] = peak / 2**20
    m["fileio.parse_s"] = named("fileio.parse_decomposition", "fileio.parse_blocks")
    m["fileio.serialize_s"] = named("fileio.serialize_decomposition", "fileio.serialize_blocks")
    m["fileio.parse_mb_per_s"] = ratio(m["fileio.bytes"] / 1e6, m["fileio.parse_s"])
    m["constructions.pieces_per_s"] = ratio(m["constructions.pieces"], m["constructions.busy_s"])
    m["blocks.verify_s"] = named("blocks.verify_blocks")
    m["blocks.pairs_per_s"] = ratio(m["blocks.pairs"], m["blocks.verify_s"])
    m["exact.solve_s"] = named("exact.solve_exact")
    m["exact.nodes_per_s"] = ratio(m["exact.nodes"], m["exact.solve_s"])
    m["bench.self_s"] = busy("bench")
    m["trace.overhead_s"] = (statistics.median(p.wall_s for p in traced)
                             - statistics.median(p.wall_s for p in plain))
    m["trace.spans"] = statistics.median(len(p.spans) for p in traced)
    return m


def run(args: argparse.Namespace, scratch: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Each set-up is scaled by the reference loops just before and after it,
    # as jobs are in Recorder.run_pass.
    setup: List[float] = []
    before = reference_loop()
    for _ in range(SETUP_REPEATS):
        gp = job_list = None
        gc.collect()
        t0 = time.perf_counter()
        gp = fresh_import()
        job_list = workloads.WORKLOADS[args.workload](gp, random.Random(args.seed), scratch)
        raw = time.perf_counter() - t0
        after = reference_loop()
        setup.append(raw * REF_S / ((before + after) / 2))
        before = after

    rec = Recorder()
    modes = (OFF, SPANS) if args.trace else (OFF,)
    passes: List[Pass] = []
    pct = workloads.TAIL_PERCENTILE[args.workload]
    deadline = time.perf_counter() + args.seconds
    while (len(passes) < len(modes) or time.perf_counter() < deadline
           or (not args.trace and beyond(sum(len(p.jobs) for p in passes), pct) < TAIL_BEYOND)):
        passes.append(rec.run_pass(job_list, modes[len(passes) % len(modes)]))
    if args.trace:
        passes.append(rec.run_pass(job_list, ALLOC))

    for p in passes[1:]:
        for name in COUNTS:
            if p.counts.get(name, 0) != passes[0].counts.get(name, 0):
                rec.failed[name.partition(".")[0]] += 1
                rec.messages.append(f"{name} changed between passes: "
                                    f"{passes[0].counts.get(name, 0)} -> {p.counts.get(name, 0)}")

    attempted = sum(len(p.jobs) for p in passes)
    failed = sum(1 for p in passes for job in p.jobs if job.failed)
    failed_checks = sum(rec.failed.values())
    if args.trace:
        values = per_layer(passes, rec)
        extra = {f"{layer}.share": round(values[f"{layer}.share"], 4) for layer in LAYERS}
    else:
        values, extra = end_to_end(passes, setup, pct)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    env = {"nproc": os.cpu_count(), "python": platform.python_version()}
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={env['nproc']} python={env['python']} passes={len(passes)} jobs={attempted}")
    for key, value in extra.items():
        print(f"# {key} = {value}")
    print(f"# error_rate = {ratio(failed, attempted):.4g} "
          f"({failed} failed jobs, {failed_checks} failed checks, {attempted} jobs)")
    for msg in rec.messages:
        print(f"# FAILED {msg}")
    for m in wanted:
        better = f" ({m['better']} is better)" if "better" in m else ""
        print(f"# {m['name']} = {values[m['name']]:.6g} {m['unit']}{better}")

    out_dir = ROOT / ".bench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, **extra, "setup_s": setup,
              "pass_wall_s": [[p.mode, p.wall_s] for p in passes],
              "job_s_by_name": job_medians(passes),
              "raw": [{"refs": p.refs, "job_s": [[j.name, j.raw_s] for j in p.jobs]}
                      for p in passes],
              "failed_checks": dict(rec.failed), "messages": rec.messages, "metrics": values}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        spans = [span for p in passes for span in p.spans]
        (out_dir / f"spans-{stem}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "job", "outcome"],
                        "spans": spans}), encoding="utf-8")

    print(json.dumps({"correct": failed_checks == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpdecomp" / "__init__.py").is_file():
        print(f"error: no gpdecomp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        return run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
