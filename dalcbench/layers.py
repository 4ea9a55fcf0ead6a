"""Per-layer metrics: the patch points of the traced pass and the numbers
read off its spans.

Layers are the modules of ``src/dalc``: ``cli``, ``parser``, ``closure``,
``tableau``, ``concepts`` and ``semantics``, plus ``harness`` for the
benchmark's own share of each operation (output capture, JSON decoding).
The run is single-threaded, so no layer ever waits on another; there are no
wait times to report, only busy and self time.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from spans import Span, Tracer, concept_size, stats_injector


# unit of every per-layer metric, in report order
LAYER_UNITS = {
    "tableau.checks": "count",
    "tableau.busy_s": "s",
    "tableau.self_s": "s",
    "tableau.nodes": "count",
    "tableau.nodes_per_check": "count",
    "tableau.us_per_node": "us",
    "tableau.check_p50_ms": "ms",
    "tableau.check_p90_ms": "ms",
    "tableau.entailed_share": "share",
    "tableau.limit_hits": "count",
    "concepts.nnf.calls": "count",
    "concepts.nnf.busy_s": "s",
    "concepts.self_s": "s",
    "concepts.mat_nodes": "count",
    "closure.rank.self_s": "s",
    "closure.rank.passes": "count",
    "closure.rank.checks": "count",
    "closure.rank.bound_ratio": "ratio",
    "closure.query.self_s": "s",
    "closure.query.levels_scanned": "count",
    "closure.query.bound_ratio": "ratio",
    "closure.diag.checks": "count",
    "closure.self_s": "s",
    "parser.busy_s": "s",
    "parser.axioms": "count",
    "cli.self_s": "s",
    "semantics.searches": "count",
    "semantics.busy_s": "s",
    "semantics.rows": "count",
    "semantics.rows_per_s": "1/s",
    "semantics.found_share": "share",
    "harness.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.attributed_share": "share",
    "trace.spans": "count",
    "rank_s": "s",
    "rank_checks": "count",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "queries_per_s": "1/s",
    "query_checks": "count",
    "oracle_s": "s",
    "oracle_rows": "count",
    "failed_share": "share",
    "host.calib_ms": "ms",
}


def _entails_info(result, args, kwargs, state):
    if state is None:
        return (result, 0)
    stats, before = state
    return (result, stats.nodes_expanded - before)


def _parse_kb_info(result, args, kwargs, state):
    return 0 if result is None else len(result.kb.axioms)


def _search_info(result, args, kwargs, state):
    return None if result is None else (result.enumerated, result.interpretation is not None)


def _keep_result(result, args, kwargs, state):
    return result


def instrument(tracer: Tracer, d) -> list[str]:
    """Wrap the public functions of each module as bound at their call
    sites.  Returns the patch points that do not exist in this version."""
    stats_cls = d.tableau.EntailmentStats
    points = [
        (d.cli, "main", "cli.main", "cli", None),
        (d.cli, "parse_kb", "parser.parse_kb", "parser", _parse_kb_info),
        (d.cli, "parse_query", "parser.parse_query", "parser", None),
        (d.parser, "parse_kb", "parser.parse_kb", "parser", _parse_kb_info),
        (d.parser, "parse_query", "parser.parse_query", "parser", None),
        (d.cli, "compute_ranking", "closure.compute_ranking", "closure", None),
        (d.closure, "compute_ranking", "closure.compute_ranking", "closure", None),
        (d.closure, "exceptional", "closure.exceptional", "closure", None),
        (d.cli, "tstar_inconsistent", "closure.tstar_inconsistent", "closure", None),
        (d.closure, "tstar_inconsistent", "closure.tstar_inconsistent", "closure", None),
        (d.cli, "rationally_deducible", "closure.rationally_deducible", "closure", None),
        (d.closure, "rationally_deducible", "closure.rationally_deducible", "closure", None),
        (d.cli, "entails", "tableau.entails", "tableau", _entails_info),
        (d.closure, "entails", "tableau.entails", "tableau", _entails_info),
        (d.tableau, "nnf", "concepts.nnf", "concepts", None),
        (d.closure, "materialise", "concepts.materialise", "concepts", None),
        (d.closure, "conjoin", "concepts.conjoin", "concepts", _keep_result),
        (d.cli, "search_model", "semantics.search_model", "semantics", _search_info),
        (d.cli, "search_countermodel", "semantics.search_countermodel", "semantics", _search_info),
    ]
    missing = []
    for owner, attr, name, layer, info in points:
        if not hasattr(owner, attr):
            missing.append(f"{owner.__name__}.{attr}")
            continue
        before = None
        if name == "tableau.entails":
            before = stats_injector(getattr(owner, attr), stats_cls)
        tracer.patch(owner, attr, name, layer, info, before)
    return missing


def pct(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured; 0 for none."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


@dataclass
class OpMeta:
    """What the aggregation needs to know about a traced operation."""

    cycle: bool  # a timed cycle op, as opposed to the one-off ranking
    rank_bound: int = 0  # |D|^3 + 2|D| for ranking ops
    query_bound: int = 0  # n + 2 for query ops


def layer_metrics(spans: list[Span], meta: dict[int, OpMeta]) -> dict[str, float]:
    """Per-layer numbers of one traced cycle.  Ranking and diagnostic
    numbers include the one-off ranking of ``query_stream``; everything else
    covers the cycle's operations only."""
    cyc = [s for s in spans if meta[s.op].cycle]

    def named(group, name):
        return [s for s in group if s.name == name]

    def self_of(group, layer):
        return sum(s.self_s for s in group if s.layer == layer)

    checks = named(cyc, "tableau.entails")
    nodes = sum(s.info[1] for s in checks)
    busy = sum(s.duration for s in checks)
    nnf = named(cyc, "concepts.nnf")
    m = {
        "tableau.checks": len(checks),
        "tableau.busy_s": busy,
        "tableau.self_s": self_of(cyc, "tableau"),
        "tableau.nodes": nodes,
        "tableau.nodes_per_check": _ratio(nodes, len(checks)),
        "tableau.us_per_node": _ratio(busy * 1e6, nodes),
        "tableau.check_p50_ms": pct([s.duration * 1e3 for s in checks], 0.5),
        "tableau.check_p90_ms": pct([s.duration * 1e3 for s in checks], 0.9),
        "tableau.entailed_share": _ratio(sum(1 for s in checks if s.info[0]), len(checks)),
        "tableau.limit_hits": sum(1 for s in checks if s.error == "ResourceLimitError"),
        "concepts.nnf.calls": len(nnf),
        "concepts.nnf.busy_s": sum(s.duration for s in nnf),
        "concepts.self_s": self_of(cyc, "concepts"),
        "concepts.mat_nodes": sum(
            concept_size(s.info) for s in named(cyc, "concepts.conjoin") if s.info is not None
        ),
    }

    # closure: ranking (with its exceptionality passes), queries, diagnostics
    in_rank = [s for s in spans if s.layer == "closure" and s.within("closure.compute_ranking")]
    rank_checks: dict[int, int] = {}
    for s in named(spans, "tableau.entails"):
        if s.within("closure.exceptional"):
            rank_checks[s.op] = rank_checks.get(s.op, 0) + 1
    m["closure.rank.self_s"] = sum(s.self_s for s in in_rank)
    m["closure.rank.passes"] = len(named(spans, "closure.exceptional"))
    m["closure.rank.checks"] = sum(rank_checks.values())
    m["closure.rank.bound_ratio"] = max(
        (_ratio(c, meta[op].rank_bound) for op, c in rank_checks.items()), default=0.0
    )
    queries = named(cyc, "closure.rationally_deducible")
    per_query: dict[int, int] = {id(q): 0 for q in queries}
    for s in checks:
        p = s.parent
        while p is not None and p.name != "closure.rationally_deducible":
            if p.name == "closure.tstar_inconsistent":
                break
            p = p.parent
        if p is not None and p.name == "closure.rationally_deducible":
            per_query[id(p)] += 1
    m["closure.query.self_s"] = sum(
        s.self_s for s in cyc if s.layer == "closure" and s.within("closure.rationally_deducible")
    )
    m["closure.query.levels_scanned"] = sum(max(k - 1, 0) for k in per_query.values())
    m["closure.query.bound_ratio"] = max(
        (_ratio(per_query[id(q)], meta[q.op].query_bound) for q in queries), default=0.0
    )
    m["closure.diag.checks"] = sum(
        1
        for s in named(spans, "tableau.entails")
        if s.within("closure.tstar_inconsistent") or (s.parent is not None and s.parent.name == "cli.main")
    )
    m["closure.self_s"] = self_of(cyc, "closure")

    parse = [s for s in cyc if s.layer == "parser"]
    m["parser.busy_s"] = sum(s.duration for s in parse)
    m["parser.axioms"] = sum(s.info or 0 for s in named(parse, "parser.parse_kb")) + len(
        named(parse, "parser.parse_query")
    )
    m["cli.self_s"] = self_of(cyc, "cli")

    searches = [s for s in cyc if s.layer == "semantics"]
    rows = sum(s.info[0] for s in searches if s.info is not None)
    sem_busy = sum(s.duration for s in searches)
    m["semantics.searches"] = len(searches)
    m["semantics.busy_s"] = sem_busy
    m["semantics.rows"] = rows
    m["semantics.rows_per_s"] = _ratio(rows, sem_busy)
    m["semantics.found_share"] = _ratio(
        sum(1 for s in searches if s.info is not None and s.info[1]), len(searches)
    )
    m["harness.self_s"] = self_of(cyc, "harness")
    return m


def self_time_gap(spans: list[Span]) -> float:
    """Sum of all self times minus the sum of root durations: zero, up to
    rounding, when every span closed inside its parent."""
    total_self = sum(s.self_s for s in spans)
    roots = sum(s.duration for s in spans if s.parent is None)
    return total_self - roots


def report_missing(missing: list[str]) -> None:
    if missing:
        print("trace: no such patch point: " + ", ".join(missing), file=sys.stderr)
