"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

* planted defects: a decomposition with a duplicated piece, fed in as a
  valid job, must fail its checks, and a job whose construction raises must
  count as failed without stopping the pass;
* smoke: every workload at the minimum run length, untraced and traced,
  must print every metric of BENCHMARK.json with its unit and pass its checks;
* repeatability: two traced runs with one seed must give identical counts;
* a directory holding only BENCHMARK.json and bench/ must make the benchmark
  exit non-zero without printing a result.

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import jobs
import run
from recorder import OFF, Recorder

ROOT = run.ROOT
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REPEATABLE = ("constructions.pieces", "fileio.bytes", "verifier.edges",
              "exact.nodes", "exact.proved", "exact.gap")


def planted_defects() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    gp = run.fresh_import()

    def duplicated_piece(n, r):
        d = gp.construct_baseline(n, r)
        return gp.Decomposition(d.ground, d.pieces + d.pieces[:1])

    def raises(n, r):
        raise RuntimeError("planted")

    # Attribute both to the construction layer, as if the library had done it.
    duplicated_piece.__module__ = raises.__module__ = "gpdecomp.constructions"

    job_list = [
        jobs.valid_job(gp, "duplicated", duplicated_piece, (9, 4), 9, 4),
        jobs.valid_job(gp, "raises", raises, (9, 4), 9, 4),
        jobs.valid_job(gp, "baseline", gp.construct_baseline, (9, 4), 9, 4),
    ]
    rec = Recorder()
    p = rec.run_pass(job_list, OFF)
    assert [j.failed for j in p.jobs] == [True, True, False], p.jobs
    # duplicated: census (constructions) and verdict (verifier); raises: one.
    assert rec.failed == {"constructions": 2, "verifier": 1}, rec.failed
    assert run.ratio(sum(j.failed for j in p.jobs), len(p.jobs)) > 0
    print("planted defects: caught")


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def smoke_and_repeat() -> None:
    for workload in jobs.WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            proc = bench(workload, 7, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().split("\n")
            out = json.loads(lines[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, lines
            wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
            assert set(out["metrics"]) == {m["name"] for m in wanted}
            for m in wanted:
                assert out["metrics"][m["name"]]["unit"] == m["unit"], m
                assert any(line.startswith(f"# {m['name']} = ") and f" {m['unit']}" in line
                           for line in lines), m["name"]
            if trace:
                counts.append({k: out["metrics"][k]["value"] for k in REPEATABLE})
        assert counts[0] == counts[1], (workload, counts)
        print(f"smoke {workload}: every metric printed; counts repeat {counts[0]}")


def bare_directory() -> None:
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "bench", bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("exact-search", 1, 0, cwd=bare)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc
    finally:
        shutil.rmtree(bare)
    print(f"bare directory: exit {proc.returncode}, no result")


if __name__ == "__main__":
    planted_defects()
    bare_directory()
    smoke_and_repeat()
    print("selftest passed")
