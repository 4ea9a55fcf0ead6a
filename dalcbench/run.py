"""dalc benchmark: one workload per run, checked outputs, metrics as JSON.

    python3 dalcbench/run.py --workload rank_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the reasoner is imported from ``src/`` and
the corpus read from ``kbs/``.  Scratch files go to ``dalcbench/_work/``
and are removed at exit; traced runs leave their spans in
``dalcbench/_out/``.

``--trace 0`` sets the workload up several times, then runs its cycles
untraced until ``--seconds`` have passed (always at least one whole cycle)
and reports the end-to-end metrics.  ``--trace 1`` runs one cycle untraced
and the same cycle again with every layer wrapped in spans, checks that
both passes observed the same outputs and counters, and reports the
per-layer metrics.  Inputs known to fail run once per run, outside the
timing.  Timings of operations are in reference seconds (see calib.py).

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when an
output is wrong and 2 when the checkout has no reasoner to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calib
import workloads as wl
from layers import LAYER_UNITS, OpMeta, instrument, layer_metrics, pct, report_missing, self_time_gap
from spans import Tracer

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "cycle_s": "s",
    "peak_rss_mb": "MB",
}
UNITS = {**END_TO_END_UNITS, **LAYER_UNITS}


@dataclass
class Record:
    op: wl.Op
    cycle: int  # -1 for the one-off ranking
    start: float
    wall: float
    obs: dict
    problems: list[str]
    ref: float = 0.0  # wall time in reference seconds


@dataclass
class Run:
    clock: calib.Clock
    records: list[Record] = field(default_factory=list)

    @property
    def problems(self) -> list[str]:
        return [p for r in self.records for p in r.problems]

    def op(self, op: wl.Op, cycle: int, tracer: Tracer | None = None) -> None:
        self.clock.tick()
        op_id = len(self.records)
        if tracer is None:
            start = time.perf_counter()
            obs, problems = op.observe()
            wall = time.perf_counter() - start
        else:
            with tracer.root(op_id, op.name) as span:
                obs, problems = op.observe()
            start, wall = span.start, span.duration
        self.records.append(Record(op, cycle, start, wall, obs, problems))

    def close(self) -> "Run":
        self.clock.sample()
        for r in self.records:
            r.ref = self.clock.reference(r.start, r.wall)
        return self


def setup(args, root: Path, work_root: Path) -> tuple[wl.Workload, list[float]]:
    """Import, input generation and warm-up, repeated; the last one stays.
    Returns the workload and each repetition in reference seconds."""
    times = []
    for k in range(SETUP_REPEATS):
        work = work_root / f"setup{k}"
        work.mkdir(parents=True)
        clock = calib.Clock(wl.WORKLOADS[args.workload].calibration)
        clock.sample()
        start = time.perf_counter()
        d = wl.Dalc(root / "src")
        w = wl.make(args.workload, d, args.seed, root, work)
        with w.capture:
            _, problems = w.warmup().observe()
        wall = time.perf_counter() - start
        clock.sample()
        times.append(clock.reference(start, wall))
        if problems:
            raise SystemExit(f"warm-up failed: {problems}")
        if k + 1 < SETUP_REPEATS:
            shutil.rmtree(work)
    return w, times


def timed_pass(w: wl.Workload, seconds: float = 0.0, cycles: int | None = None) -> Run:
    """The one-off ops, then whole cycles: exactly ``cycles`` of them, or
    as many as start within ``seconds`` (at least one)."""
    run = Run(calib.Clock(w.calibration))
    with w.capture:
        for op in w.oneoff():
            run.op(op, -1)
        start = time.perf_counter()
        c = 0
        while c != cycles and (c == 0 or cycles is not None or time.perf_counter() - start < seconds):
            for op in w.cycle(c):
                run.op(op, c)
            c += 1
    return run.close()


def traced_pass(w: wl.Workload, untraced: Run) -> tuple[Run, Tracer]:
    """Replay the untraced pass's operations with every layer wrapped."""
    tracer = Tracer()
    report_missing(instrument(tracer, w.d))
    run = Run(calib.Clock(w.calibration))
    try:
        with w.capture:
            for rec in untraced.records:
                run.op(rec.op, rec.cycle, tracer)
    finally:
        tracer.unpatch()
    return run.close(), tracer


def run_probes(w: wl.Workload) -> tuple[int, list[str]]:
    """Known failing inputs: (how many failed, wrong outputs).  A probe that
    stops failing must give the right answer."""
    run = Run(calib.Clock(w.calibration))
    with w.capture:
        for op in w.probes():
            run.op(op, -1)
    failed = [r for r in run.records if wl.Op.failed(r.obs)]
    return len(failed), [p for r in run.records if r not in failed for p in r.problems]


def end_to_end(run: Run, setup_times: list[float]) -> dict[str, float]:
    cycles: dict[int, float] = {}
    for r in run.records:
        if r.cycle >= 0:
            cycles[r.cycle] = cycles.get(r.cycle, 0.0) + r.ref
    return {
        "setup_s": statistics.median(setup_times),
        "cycle_s": statistics.median(cycles.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def named_metrics(w: wl.Workload, run: Run, probes_failed: int) -> dict[str, float]:
    """The issue-level numbers of the untraced pass, in reference seconds:
    zero where the workload does not exercise them."""
    cyc = [r for r in run.records if r.cycle >= 0]
    oneoff = [r for r in run.records if r.cycle < 0]
    queries = [r for r in cyc if r.op.name.startswith("query:")]
    oracle = [r for r in cyc if r.op.name.startswith("oracle:")]
    ranks = oneoff or [r for r in cyc if r.op.name.startswith(("rank:", "check:"))]
    q_time = sum(r.ref for r in queries)
    attempted = len(run.records) + len(w.probes())
    failed = sum(1 for r in run.records if wl.Op.failed(r.obs)) + probes_failed
    return {
        "rank_s": sum(r.ref for r in ranks),
        "rank_checks": sum(r.obs.get("checks", 0) for r in ranks),
        "query_p50_ms": pct([r.ref * 1e3 for r in queries], 0.5),
        "query_p90_ms": pct([r.ref * 1e3 for r in queries], 0.9),
        "queries_per_s": len(queries) / q_time if q_time else 0.0,
        "query_checks": sum(r.obs["checks"] for r in queries),
        "oracle_s": sum(r.ref for r in oracle),
        "oracle_rows": sum(r.obs.get("rows", 0) for r in oracle),
        "failed_share": failed / attempted,
        "host.calib_ms": statistics.median(run.clock.samples) * 1e3,
    }


def per_layer(w: wl.Workload, untraced: Run, traced: Run, tracer: Tracer, probes_failed: int) -> tuple[dict, list[str]]:
    problems = [
        f"{a.op.name}: traced pass observed {b.obs}, untraced {a.obs}"
        for a, b in zip(untraced.records, traced.records)
        if a.obs != b.obs
    ]
    meta = {
        op_id: OpMeta(r.cycle >= 0, r.op.rank_bound, r.op.query_bound)
        for op_id, r in enumerate(untraced.records)
    }
    m = layer_metrics(tracer.spans, meta)
    captured = sum(r.obs.get("nodes", 0) for r in traced.records if r.cycle >= 0)
    if m["tableau.nodes"] != captured:
        problems.append(f"spans saw {m['tableau.nodes']} tableau nodes, the stats objects {captured}")
    traced_wall = sum(r.wall for r in traced.records)
    gap = self_time_gap(tracer.spans)
    if abs(gap) > 1e-6 * max(1.0, traced_wall):
        problems.append(f"self times miss the traced wall time by {gap} s")
    m["trace.overhead_ratio"] = sum(r.ref for r in traced.records) / sum(r.ref for r in untraced.records)
    m["trace.attributed_share"] = 1.0 - m["harness.self_s"] / sum(
        s.duration for s in tracer.spans if s.parent is None and meta[s.op].cycle
    )
    m["trace.spans"] = len(tracer.spans)
    m.update(named_metrics(w, untraced, probes_failed))
    return m, problems


def write_spans(tracer: Tracer, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    index = {id(s): k for k, s in enumerate(tracer.spans)}
    with path.open("w", encoding="utf-8") as f:
        for k, s in enumerate(tracer.spans):
            row = {
                "id": k,
                "name": s.name,
                "layer": s.layer,
                "op": s.op,
                "parent": None if s.parent is None else index[id(s.parent)],
                "start": s.start,
                "end": s.end,
            }
            if s.error:
                row["error"] = s.error
            f.write(json.dumps(row) + "\n")


def measure(args, root: Path, work_root: Path) -> dict:
    calib.sample(wl.WORKLOADS[args.workload].calibration)  # first-call costs
    w, setup_times = setup(args, root, work_root)
    if args.trace:
        untraced = timed_pass(w, cycles=1)
        traced, tracer = traced_pass(w, untraced)
        probes_failed, problems = run_probes(w)
        metrics, trace_problems = per_layer(w, untraced, traced, tracer, probes_failed)
        write_spans(tracer, root / "dalcbench" / "_out" / f"{args.workload}-seed{args.seed}.spans.jsonl")
        runs = [untraced, traced]
        problems += trace_problems
    else:
        run = timed_pass(w, args.seconds)
        probes_failed, problems = run_probes(w)
        metrics = end_to_end(run, setup_times)
        runs = [run]
    for r in runs:
        problems += r.problems
    for p in problems[:20]:
        print(f"wrong: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(len(r.records) for r in runs),
        "failed": sum(1 for r in runs for rec in r.records if rec.problems),
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "dalc" / "__init__.py").is_file() or not (root / "kbs").is_dir():
        print(f"error: no dalc sources (src/dalc, kbs/) under {root}", file=sys.stderr)
        return 2
    work_root = root / "dalcbench" / "_work" / str(os.getpid())
    try:
        result = measure(args, root, work_root)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
