"""Steadiness report: run one workload under several seeds and print, for each
metric, the median, the quartiles and the quartile spread as a share of the
median, next to the metric's bound from BENCHMARK.json.

    python3 bench/spread.py --workload exact-search
    python3 bench/spread.py --workload exact-search \\
        --compare .bench_out/spread-exact-search-trace0.json

It runs seeds 1-10, one process at a time, each for BENCHMARK.json's
``run_seconds``.  ``--compare`` checks that each median is not worse than the
one in an earlier summary by more than the bound.  The summary is written to
``.bench_out/spread-<workload>-trace<t>.json``, replacing any earlier one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().split("\n")[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", type=Path, default=None)
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    earlier = json.loads(args.compare.read_text()) if args.compare else None
    runs = []
    for seed in SEEDS:
        out = run_once(args.workload, seed, spec["run_seconds"], args.trace)
        runs.append(out)
        print(f"seed {seed}: correct={out['correct']} attempted={out['attempted']} "
              f"failed={out['failed']}", flush=True)

    summary = {"workload": args.workload, "trace": args.trace, "seeds": list(SEEDS),
               "all_correct": all(r["correct"] and r["failed"] == 0 for r in runs),
               "metrics": {}}
    ok = summary["all_correct"]
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}  verdict")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO WIDE"
                ok = False
            if earlier is not None:
                before = earlier["metrics"][m["name"]]["median"]
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                verdict += f"; vs earlier {worse:+.3f}"
                if worse > bound:
                    verdict += " WORSE"
                    ok = False
        summary["metrics"][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                         "values": values}
        print(f"{m['name']:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>7.3f} "
              f"{bound if bound is not None else '':>6}  {verdict}")
    out = ROOT / ".bench_out" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1), encoding="utf-8")
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
