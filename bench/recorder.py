"""Spans, counters and checks recorded around the benchmark's calls into
gpdecomp.

Every call into the library goes through :meth:`Recorder.call`.  The layer of
a call is the last component of the module that defines the called function
(``gpdecomp.verifier.verify_decomposition`` belongs to ``verifier``), so the
attribution follows the source tree and cannot drift from it.

A pass runs the whole job list once in one of three modes:

* ``off``: no spans; end-to-end metrics come from these passes;
* ``spans``: one span per job and per library call, kept in memory;
* ``alloc``: tracemalloc runs around each verifier call to find its peak
  (only there: under tracemalloc the solver runs some ten times slower).

Counters and checks are recorded in every mode, so a traced and an untraced
pass can be compared count for count.

Times are normalised to a reference speed.  A shared host can change speed
by up to half from one stretch of seconds to the next (other tenants on the
same cores), which no number of repeats averages out within a run.  So a
fixed reference loop, written here and independent of gpdecomp, is timed
between jobs, and each job's time is scaled by ``REF_S / reference time``,
taking the mean of the loops just before and after the job.  A time then
reads as the seconds the job would take on a host running the reference loop
in ``REF_S``; a change to gpdecomp moves it, the host's speed does not.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
import traceback
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, Dict, List, Optional, Tuple

OFF, SPANS, ALLOC = "off", "spans", "alloc"
ALLOC_LAYERS = ("verifier",)
REF_S = 0.010  # nominal time of one reference loop
_REF_PARTS = ((0, 1, 2, 3), (4, 5, 6), (7, 8, 9, 10), (11, 12))
_REF_LINE = " | ".join(",".join(str(v) for v in range(i, i + 3)) for i in range(0, 15, 3))


def reference_loop() -> float:
    """Time one run of a fixed mix of the kinds of work gpdecomp does:
    covering edges of a product into a dict, scanning combinations against
    it, splitting text into int tuples, and big-integer bit operations."""
    t0 = time.perf_counter()
    cover: Dict[tuple, list] = {}
    for _ in range(30):
        for e in product(*_REF_PARTS):
            cover.setdefault(tuple(sorted(e)), []).append(0)
    hits = 0
    for e in combinations(range(13), 4):
        hits += len(cover.get(e, ()))
    for _ in range(900):
        tuple(tuple(int(v) for v in part.split(",")) for part in _REF_LINE.split(" | "))
    x = 0
    for i in range(4500):
        x |= 1 << (i % 200)
        if i % 7 == 0:
            x &= x - 1
        bin(x).count("1")
    return time.perf_counter() - t0


# name, start, end, parent span index (None for a job span), job id, outcome
Span = List


@dataclass
class Job:
    name: str
    fn: Callable[["Recorder"], None]


@dataclass
class JobRecord:
    name: str
    s: float = 0.0  # normalised, as every time below
    scale: float = 1.0  # REF_S / reference-loop time around the job
    raw_s: float = 0.0  # the job's wall time as measured
    verdicts: List[float] = field(default_factory=list)  # parse + check of each bad file
    edges: int = 0  # C(n,r) of decompositions that passed every check
    pieces: int = 0  # pieces constructed or solved, then round-tripped
    failed: bool = False


@dataclass
class Pass:
    mode: str
    wall_s: float  # sum of the jobs' normalised times
    jobs: List[JobRecord]
    counts: Counter
    spans: List[Span] = field(default_factory=list)
    peak_alloc: Dict[str, int] = field(default_factory=dict)
    refs: List[float] = field(default_factory=list)  # reference loops between the jobs


class Recorder:
    def __init__(self) -> None:
        self.mode = OFF
        self.failed: Counter = Counter()  # layer -> failed checks
        self.messages: List[str] = []
        self._counts: Counter = Counter()
        self._spans: List[Span] = []
        self._peak: Dict[str, int] = {}
        self._job: Optional[JobRecord] = None
        self._job_span: Optional[int] = None
        self._job_id = 0
        self._layer: Optional[str] = None  # layer of the call in flight

    # -- calls used by jobs -------------------------------------------------

    def call(self, fn: Callable, *args):
        layer = fn.__module__.rpartition(".")[2]
        self._layer = layer
        if self.mode == SPANS:
            t0 = time.perf_counter()
            out = fn(*args)
            t1 = time.perf_counter()
            valid = getattr(out, "valid", None)
            outcome = None if valid is None else ("accept" if valid else "reject")
            self._spans.append(
                [f"{layer}.{fn.__name__}", t0, t1, self._job_span, self._job_id, outcome]
            )
        elif self.mode == ALLOC and layer in ALLOC_LAYERS:
            tracemalloc.start()
            try:
                out = fn(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self._peak[layer] = max(self._peak.get(layer, 0), peak)
        else:
            out = fn(*args)
        self._layer = None
        return out

    def check(self, ok: bool, layer: str, what: str) -> None:
        if not ok:
            self.failed[layer] += 1
            self._job.failed = True
            if len(self.messages) < 20:
                self.messages.append(f"{layer}: {what}")

    def count(self, name: str, value: int = 1) -> None:
        self._counts[name] += value

    def verdict(self, seconds: float) -> None:
        self._job.verdicts.append(seconds)

    def accepted(self, edges: int) -> None:
        self._job.edges += edges

    def round_tripped(self, pieces: int) -> None:
        self._job.pieces += pieces

    # -- passes ---------------------------------------------------------------

    def run_pass(self, jobs: List[Job], mode: str) -> Pass:
        self.mode = mode
        self._counts, self._spans, self._peak = Counter(), [], {}
        records: List[JobRecord] = []
        # Each job starts from a collected heap, so that a collection paid for
        # one job's garbage does not land in the next one, whichever the seed
        # puts next.
        gc.collect()
        refs = [reference_loop()]
        for job in jobs:
            records.append(self._run_job(job))
            gc.collect()
            refs.append(reference_loop())
        for i, rec in enumerate(records):
            rec.raw_s = rec.s
            rec.scale = REF_S / ((refs[i] + refs[i + 1]) / 2)
            rec.s *= rec.scale
            rec.verdicts = [v * rec.scale for v in rec.verdicts]
        self.mode = OFF
        return Pass(mode, sum(r.s for r in records), records, self._counts, self._spans,
                    self._peak, refs)

    def _run_job(self, job: Job) -> JobRecord:
        self._job_id += 1
        rec = JobRecord(job.name)
        self._job, self._layer = rec, None
        if self.mode == SPANS:
            self._job_span = len(self._spans)
            self._spans.append([f"job.{job.name}", 0.0, 0.0, None, self._job_id, None])
        t0 = time.perf_counter()
        try:
            job.fn(self)
        except Exception as exc:  # a raising call is a failed check, not a crashed run
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self.check(False, self._layer or "bench",
                       f"{job.name} raised {exc!r} at {where.filename}:{where.lineno}")
        t1 = time.perf_counter()
        rec.s = t1 - t0
        if self.mode == SPANS:
            self._spans[self._job_span][1:3] = [t0, t1]
        self._job = None
        return rec


def self_times(p: Pass) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Normalised self time per layer (span duration minus the time its child
    spans cover) and total time per span name, with ``:accept``/``:reject``
    variants for calls that returned a verdict.  Job spans count as the
    benchmark's own layer, ``bench``."""
    first_id = p.spans[0][4] if p.spans else 0
    scale = [rec.scale for rec in p.jobs]
    child: Dict[int, float] = Counter()
    for _, t0, t1, parent, _, _ in p.spans:
        if parent is not None:
            child[parent] += t1 - t0
    by_layer: Dict[str, float] = Counter()
    by_name: Dict[str, float] = Counter()
    for i, (name, t0, t1, _, job, outcome) in enumerate(p.spans):
        k = scale[job - first_id]
        layer = name.partition(".")[0]
        by_layer["bench" if layer == "job" else layer] += ((t1 - t0) - child[i]) * k
        by_name[name] += (t1 - t0) * k
        if outcome is not None:
            by_name[f"{name}:{outcome}"] += (t1 - t0) * k
    return by_layer, by_name
