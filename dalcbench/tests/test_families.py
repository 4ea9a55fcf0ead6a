"""The benchmark's own tests: deterministic inputs, expected answers that
agree with the bounded oracle and the reasoner, spans that add up, and a
BENCHMARK.json that names what the command prints.

    python3 -m pytest dalcbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import families as fam
import workloads as wl
from layers import LAYER_UNITS
from run import END_TO_END_UNITS
from spans import Tracer, concept_size

from dalc import EntailmentStats, compute_ranking, parse_kb, parse_query, rationally_deducible
from dalc.parser import render_axiom
from dalc.semantics import search_countermodel

ROOT = Path(__file__).resolve().parents[2]


def _inputs(name: str, seed: int, work: Path) -> tuple[list[str], dict[str, bytes]]:
    work.mkdir()
    w = wl.make(name, wl.Dalc(ROOT / "src"), seed, ROOT, work)
    ops = [op.name for op in w.oneoff() + w.cycle(0) + w.cycle(1) + w.probes()]
    files = {p.name: p.read_bytes() for p in sorted(work.iterdir())}
    return ops, files


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert first != _inputs(name, 8, tmp_path / "c")


def test_query_blocks_never_repeat_a_query():
    texts = [q.text for b in range(3) for q in fam.chain_query_block(10, 1, b)]
    assert len(texts) == len(set(texts)) >= 300
    levels = {q.level for q in fam.chain_query_block(10, 1, 0)}
    assert levels == set(range(10)) | {None}
    checks = [sum(q.checks for q in fam.chain_query_block(10, s, 0)) for s in range(3)]
    assert len(set(checks)) == 1


def _chain_queries(n: int) -> list[fam.QueryCase]:
    out = []
    for i in range(n):
        for rhs in ["B", "!B"] + [f"A{j}" for j in range(n)]:
            out.append(fam.chain_query(n, i, f"A{i}", rhs, False))
    return out


ORACLE_FAMILIES = [
    (fam.chain(2), _chain_queries(2), 4, 3),
    (fam.chain(3), _chain_queries(3), 4, 4),
    (fam.flat(2), fam.flat_queries(2), 3, 5),
]


@pytest.mark.parametrize("case,queries,domain,bits", ORACLE_FAMILIES, ids=lambda x: getattr(x, "name", None))
def test_expected_verdicts_agree_with_bounded_oracle(case, queries, domain, bits):
    """One-sided agreement.  A NOT-IN verdict has a small ranked
    countermodel.  Every IN verdict of these families is a default of the KB
    or a strict consequence, so it holds in every ranked model and the
    search scans every configuration without finding one."""
    kb = parse_kb(case.text).kb
    for q in queries:
        res = search_countermodel(kb, parse_query(q.text), domain)
        assert res.found != q.verdict, q.text
        if not res.found:
            assert res.enumerated == fam.full_scan_rows(bits, domain), q.text


SMALL_CASES = [fam.chain(4), fam.flat(2), fam.flat(3), fam.roles(2), fam.roles(3)]


@pytest.mark.parametrize("case", SMALL_CASES, ids=lambda c: c.name)
def test_construction_matches_reasoner(case):
    stats = EntailmentStats()
    r = compute_ranking(parse_kb(case.text).kb, stats=stats)
    assert [[render_axiom(d) for d in p] for p in r.partition] == [list(p) for p in case.partition]
    assert [render_axiom(d) for d in r.moved_to_tbox] == list(case.promoted)
    assert stats.checks == case.checks <= case.check_bound


def test_query_answers_match_reasoner():
    for case, queries in ((fam.chain(4), fam.chain_query_block(4, 3, 0)), (fam.flat(2), fam.flat_queries(2))):
        r = compute_ranking(parse_kb(case.text).kb)
        for q in queries:
            res = rationally_deducible(r, parse_query(q.text))
            assert (res.verdict, res.decided_at.value, res.checks_spent) == (q.verdict, q.level, q.checks), q.text


def test_random_kbs_are_seeded_and_parse():
    assert fam.random_kb(3, 0) == fam.random_kb(3, 0)
    assert fam.random_kb(3, 0) != fam.random_kb(4, 0)
    for seed in range(20):
        kb = parse_kb(fam.random_kb(seed, 1).text).kb
        assert len(kb.dtbox) == 5 and len(kb.tbox) == 2


def test_full_scan_rows_matches_corpus_probe():
    # student KB: four atoms and one quantified subconcept per element
    assert fam.full_scan_rows(5) == 79_072_288


class _Node:
    def __init__(self, left=None, right=None):
        self.left, self.right = left, right


def test_self_times_add_up_and_patches_are_undone():
    import types

    mod = types.SimpleNamespace()
    mod.leaf = lambda x: sum(range(x))
    mod.mid = lambda x: mod.leaf(x) + mod.leaf(x)
    original_leaf = mod.leaf
    tracer = Tracer()
    tracer.patch(mod, "leaf", "t.leaf", "tableau")
    tracer.patch(mod, "mid", "t.mid", "closure")
    with tracer.root(0, "op"):
        mod.mid(20000)
    with pytest.raises(ZeroDivisionError):
        with tracer.root(1, "op"):
            mod.mid(0) / 0
    tracer.unpatch()
    assert mod.leaf is original_leaf
    roots = [s for s in tracer.spans if s.parent is None]
    assert len(roots) == 2 and len(tracer.spans) == 8
    total_self = sum(s.self_s for s in tracer.spans)
    assert total_self == pytest.approx(sum(s.duration for s in roots), abs=1e-9)
    assert all(s.within("op") for s in tracer.spans)
    assert concept_size(_Node(_Node(), _Node(_Node()))) == 4


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS)


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_the_declared_metrics(trace, kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, *spec["command"][1:], "--workload", "query_stream", "--seed", "5", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec[kind]}
