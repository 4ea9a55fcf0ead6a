"""Command-line front end.

    dalc rank KB.dkb            compute and display the ranking
    dalc query KB.dkb -q AXIOM  answer a rational-closure query
    dalc check KB.dkb           consistency report
    dalc oracle KB.dkb [-q AXIOM] [--max-domain N] [--max-rows N]
                                bounded model / countermodel search

Every command is one function ``(ns, kb, q) -> Output`` in one table,
``COMMANDS``, beside its help text (a string, which ``python -OO`` keeps):
``main`` loads the KB, parses the query and calls it, and it runs only the
work it prints and turns the result into JSON or text lines.  rank, query
and check rank the KB once, in one session of classical checks: one
``EntailmentStats`` counts them and carries the per-check tableau budget
(``--max-nodes``, which also bounds how deep a check's successors nest).
The ⊤ ⊑ ⊥ check runs only where T* has not yet been shown consistent: in
``check`` when the ranking has no level, and in ``query`` when, besides, the
verdict is true at infinity; that verdict holds either way, so if the check
hits a resource limit ``query`` prints it with T*'s consistency unknown
(``kb_inconsistent: null``).  The argument parser is built once per process.

Verdicts go to stdout as data; the exit status only reports errors
(1 = usage error, parse error, bad flag value or unreadable path, 2 = resource
limit: an exhausted tableau budget, an oracle scan over its row budget or
over too wide a vocabulary, or nesting too deep to recurse through,
3 = internal error, 0 otherwise, as for a ``query`` answered before its
⊤ ⊑ ⊥ check ran out).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from .closure import Ranking, compute_ranking, rationally_deducible, tstar_inconsistent
from .concepts import MAX_ROWS, Atom, Axiom, BOTTOM, GCI, KnowledgeBase, subconcepts
from .parser import ParseError, axiom_to_json, parse_kb, parse_query, render_axiom
from .tableau import EntailmentStats, ResourceLimitError, entails

Output = dict | list[str]  # a JSON document, or lines of text


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, as other bad input does; 2 means a resource limit.
    Subparsers are built from this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ranked(ns: argparse.Namespace, kb: KnowledgeBase) -> tuple[Ranking, EntailmentStats]:
    """The ranking of ``kb``, and the session its checks ran in, which the
    command's further checks share: its counters and the per-check budget."""
    stats = EntailmentStats(max_nodes=ns.max_nodes)
    return compute_ranking(kb, stats), stats


def _rank(ns: argparse.Namespace, kb: KnowledgeBase, q: Optional[Axiom]) -> Output:
    ranking, stats = _ranked(ns, kb)
    if ns.json_out:
        return {
            "tstar": [axiom_to_json(a) for a in ranking.tstar],
            "promoted": [axiom_to_json(d) for d in ranking.moved_to_tbox],
            "partition": [
                [axiom_to_json(d) for d in part] for part in ranking.partition
            ],
            "stats": {"entailment_checks": stats.checks, "tableau_nodes": stats.nodes_expanded},
        }
    lines = ["T* (normalized TBox):"]
    if not ranking.tstar:
        lines.append("  (empty)")
    for i, a in enumerate(ranking.tstar):  # the promoted GCIs follow the TBox
        marker = "   [promoted from DTBox]" if i >= len(kb.tbox) else ""
        lines.append(f"  {render_axiom(a)}{marker}")
    lines.append("Partition of D*:")
    if not ranking.partition:
        lines.append("  (empty)")
    for i, part in enumerate(ranking.partition):
        lines.append(f"  D{i} (rank {i}):")
        lines.extend(f"    {render_axiom(d)}" for d in part)
    lines.append(
        "Entailment checks: ranking=%d; tableau nodes: ranking=%d"
        % (stats.checks, stats.nodes_expanded)
    )
    return lines


def _query(ns: argparse.Namespace, kb: KnowledgeBase, q: Optional[Axiom]) -> Output:
    ranking, stats = _ranked(ns, kb)
    result = rationally_deducible(ranking, q, stats)
    rank = result.decided_at
    # a compatible level, or a refuted subsumption, has shown T* consistent;
    # an inconsistent T* entails every query, so a true verdict stands even
    # when the ⊤ ⊑ ⊥ check runs out of budget (None: consistency unknown)
    inconsistent: Optional[bool] = False
    if result.verdict and rank.is_infinite:
        try:
            inconsistent = tstar_inconsistent(ranking, stats)
        except ResourceLimitError:
            inconsistent = None
    if ns.json_out:
        return {
            "verdict": result.verdict,
            "decided_at": "infinity" if rank.is_infinite else rank.value,
            "checks": result.checks_spent,
            "kb_inconsistent": inconsistent,
        }
    lines = ["IN rational closure" if result.verdict else "NOT IN rational closure"]
    fallback = " (TBox fallback)" if rank.is_infinite else ""
    lines.append(f"decided at rank: {rank}{fallback}")
    lines.append(f"checks spent: {result.checks_spent}")
    if inconsistent:
        lines.append("normalized TBox inconsistent: every query is trivially true")
    elif inconsistent is None:
        lines.append("normalized TBox consistency unknown: the top [= bot check hit a resource limit")
    return lines


def _check(ns: argparse.Namespace, kb: KnowledgeBase, q: Optional[Axiom]) -> Output:
    ranking, stats = _ranked(ns, kb)
    inconsistent = tstar_inconsistent(ranking, stats)
    # the names alone: ``vocabulary`` also sorts the quantified subconcepts
    # by repr, which recurses through their nesting
    atoms = sorted({c.name for c in subconcepts(kb.axioms) if isinstance(c, Atom)})
    unsat = [a for a in atoms if entails(ranking.tstar, GCI(Atom(a), BOTTOM), stats)]
    infinite = ranking.moved_to_tbox
    if ns.json_out:
        return {
            "consistent": not inconsistent,
            "infinite_rank": [axiom_to_json(d) for d in infinite],
            "unsatisfiable_atoms": unsat,
        }
    lines = ["normalized TBox consistent: %s" % ("no" if inconsistent else "yes")]
    lines.append("DCIs of infinite rank:")
    lines.extend([f"  {render_axiom(d)}" for d in infinite] or ["  (none)"])
    lines.append("unsatisfiable concept names:")
    lines.extend([f"  {a}" for a in unsat] or ["  (none)"])
    return lines


# Only ``oracle`` uses the model search, so its NumPy loads on the first call.
def search_model(*args, **kwargs):
    from . import search

    return search.search_model(*args, **kwargs)


def search_countermodel(*args, **kwargs):
    from . import search

    return search.search_countermodel(*args, **kwargs)


def _oracle(ns: argparse.Namespace, kb: KnowledgeBase, q: Optional[Axiom]) -> Output:
    if q is not None:
        result = search_countermodel(kb, q, ns.max_domain, ns.max_rows)
        kind = "countermodel"
    else:
        result = search_model(kb, ns.max_domain, ns.max_rows)
        kind = "model"
    interp = result.interpretation.to_json_dict() if result.found else None
    if ns.json_out:
        return {
            "found": result.found,
            "kind": kind,
            "interpretation": interp,
            "enumerated": result.enumerated,
            "one_sided": True,
        }
    if result.found:
        lines = [
            f"{kind} found within domain bound {ns.max_domain}:",
            json.dumps(interp),
        ]
    else:
        lines = [
            f"no {kind} within domain bound {ns.max_domain} "
            "(one-sided: larger models may exist)"
        ]
    lines.append(f"configurations examined: {result.enumerated}")
    return lines


COMMANDS = {
    "rank": ("compute and display the DCI ranking", _rank),
    "query": ("answer a rational-closure query", _query),
    "check": ("consistency report for the knowledge base", _check),
    "oracle": ("bounded ranked-model search (one-sided)", _oracle),
}


def build_arg_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="dalc", description="Defeasible ALC reasoner (rational closure)."
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="knowledge base file (.dkb)")
        if name in ("query", "oracle"):
            p.add_argument("-q", "--query", default=None, help="axiom to query")
        p.add_argument("--json", action="store_true", dest="json_out")
        if name == "oracle":
            p.add_argument("--max-domain", type=int, default=4)
            p.add_argument("--max-rows", type=int, default=MAX_ROWS)
        else:
            p.add_argument("--max-nodes", type=int, default=EntailmentStats.max_nodes)
    return ap


ARG_PARSER = build_arg_parser()  # built once: ``main`` may run many times per process


def _bad_flag(ns: argparse.Namespace) -> Optional[str]:
    if ns.command == "query" and ns.query is None:
        return "query command requires -q"
    for flag in ("max_nodes", "max_domain", "max_rows"):
        value = getattr(ns, flag, 1)
        if value < 1:
            return f"--{flag.replace('_', '-')} must be positive, got {value}"
    return None


def _fail(message: str, code: int = 1) -> int:
    print(message, file=sys.stderr)
    return code


def main(argv: Optional[list[str]] = None) -> int:
    ns = ARG_PARSER.parse_args(argv)
    bad = _bad_flag(ns)
    if bad is not None:
        return _fail(f"error: {bad}")
    try:
        text = Path(ns.path).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as e:
        return _fail(f"error: {e}")
    try:
        kb = parse_kb(text, ns.path).kb
        q = parse_query(ns.query) if getattr(ns, "query", None) is not None else None
        out = COMMANDS[ns.command][1](ns, kb, q)
    except ParseError as e:
        return _fail(f"parse error: {e}")
    except ResourceLimitError as e:
        return _fail(f"resource limit: {e}", 2)
    except RecursionError:
        # The parser and the commands recurse once per nesting level; the
        # tableau reports its own nesting limit as a ResourceLimitError.
        limit = sys.getrecursionlimit()
        return _fail(f"resource limit: nesting too deep (recursion limit {limit})", 2)
    except Exception as e:
        return _fail(f"internal error: {type(e).__name__}: {e}", 3)
    print(json.dumps(out) if ns.json_out else "\n".join(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
