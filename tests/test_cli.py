import json
import subprocess
import sys
import time
import types

import pytest

from dalc.cli import main
from dalc.closure import compute_ranking
from dalc.parser import axiom_from_json
from dalc.concepts import DCI, GCI, Atom, Exists
from dalc.tableau import EntailmentStats

import corpus

KB = str(corpus.KB_DIR)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rank_running_example(capsys):
    code, out, _ = run(capsys, "rank", f"{KB}/student.dkb")
    assert code == 0
    assert "D0 (rank 0):" in out and "D1 (rank 1):" in out and "D2 (rank 2):" in out
    assert "Student ~[= !exists pays.Tax" in out
    assert "EmpStud [= Student" in out
    # the ranking's checks and nodes, as the library counts them; nothing else runs
    stats = EntailmentStats()
    compute_ranking(corpus.student_kb(), stats=stats)
    assert out.splitlines()[-1] == (
        f"Entailment checks: ranking={stats.checks}; tableau nodes: ranking={stats.nodes_expanded}"
    )


def test_rank_empty_file(capsys):
    code, out, _ = run(capsys, "rank", f"{KB}/empty.dkb")
    assert code == 0
    assert "(empty)" in out


def test_rank_json_schema(capsys):
    code, out, _ = run(capsys, "rank", f"{KB}/student.dkb", "--json")
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"tstar", "promoted", "partition", "stats"}
    assert doc["promoted"] == []
    assert len(doc["partition"]) == 3
    assert all(len(part) == 1 for part in doc["partition"])
    # the ranking's checks and nodes, as the library counts them
    stats = EntailmentStats()
    compute_ranking(corpus.student_kb(), stats=stats)
    assert doc["stats"] == {"entailment_checks": stats.checks, "tableau_nodes": stats.nodes_expanded}
    assert stats.checks >= 1 and stats.nodes_expanded >= stats.checks
    # axioms round-trip through the parser's JSON schema
    assert axiom_from_json(doc["tstar"][0]) == GCI(Atom("EmpStud"), Atom("Student"))
    assert axiom_from_json(doc["partition"][1][0]) == DCI(
        Atom("EmpStud"), Exists("pays", Atom("Tax"))
    )


def test_rank_promoted_axioms_shown(capsys):
    code, out, _ = run(capsys, "rank", f"{KB}/contradictory.dkb")
    assert code == 0
    assert out.count("[promoted from DTBox]") == 2


def test_rank_marks_the_promoted_gcis_only(capsys, tmp_path):
    # the TBox's own A [= B equals the promoted one, but is not marked
    kb = tmp_path / "dup.dkb"
    kb.write_text("A [= B\nA ~[= B\nA ~[= !B\n")
    code, out, _ = run(capsys, "rank", str(kb))
    assert code == 0
    assert out.splitlines()[1:4] == [
        "  A [= B",
        "  A [= B   [promoted from DTBox]",
        "  A [= !B   [promoted from DTBox]",
    ]


def test_query_in(capsys):
    code, out, _ = run(
        capsys, "query", f"{KB}/student.dkb", "-q", "EmpStud & Parent ~[= !exists pays.Tax"
    )
    assert code == 0
    assert "IN rational closure" in out and "NOT IN" not in out
    assert "decided at rank: 2" in out


def test_query_not_in(capsys):
    code, out, _ = run(
        capsys, "query", f"{KB}/boss.dkb", "-q", "Worker ~[= exists hasSuperior.Responsible"
    )
    assert code == 0  # verdict is payload, not exit status
    assert "NOT IN rational closure" in out


def test_query_trivial_reflexivity(capsys):
    code, out, _ = run(capsys, "query", f"{KB}/penguin.dkb", "-q", "top ~[= top")
    assert code == 0
    assert "IN rational closure" in out


def test_query_json_schema(capsys):
    code, out, _ = run(
        capsys, "query", f"{KB}/penguin.dkb", "-q", "Penguin ~[= Wings", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"verdict", "decided_at", "checks", "kb_inconsistent"}
    assert doc["verdict"] is False
    assert doc["decided_at"] == 1
    assert doc["kb_inconsistent"] is False
    assert doc["checks"] >= 1


def test_query_gci_fallback_decided_at_infinity(capsys):
    code, out, _ = run(
        capsys, "query", f"{KB}/student.dkb", "-q", "EmpStud [= Student", "--json"
    )
    assert code == 0
    # student's levels have shown T* consistent, so no ⊤ ⊑ ⊥ check runs
    assert json.loads(out) == {
        "verdict": True, "decided_at": "infinity", "checks": 1, "kb_inconsistent": False
    }
    code, out, _ = run(capsys, "query", f"{KB}/student.dkb", "-q", "EmpStud [= Student")
    assert code == 0
    assert out.splitlines() == [
        "IN rational closure", "decided at rank: infinity (TBox fallback)", "checks spent: 1",
    ]


def test_query_requires_q(capsys):
    code, _, err = run(capsys, "query", f"{KB}/student.dkb")
    assert code == 1
    assert "requires -q" in err


def test_check_consistent(capsys):
    code, out, _ = run(capsys, "check", f"{KB}/student.dkb")
    assert code == 0
    assert "normalized TBox consistent: yes" in out
    assert "(none)" in out


def test_check_reports_unsatisfiable_class(capsys):
    code, out, _ = run(capsys, "check", f"{KB}/classical.dkb")
    assert code == 0
    assert "normalized TBox consistent: yes" in out
    assert "EmpStud" in out.split("unsatisfiable concept names:")[1]


def test_check_infinite_rank_dcis(capsys):
    code, out, _ = run(capsys, "check", f"{KB}/contradictory.dkb", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["consistent"] is True
    assert len(doc["infinite_rank"]) == 2
    assert doc["unsatisfiable_atoms"] == ["A"]


def test_inconsistent_tstar_within_the_default_budget(capsys, tmp_path):
    # The ⊤ ⊑ ⊥ check of both KBs exhausts the default node budget unless nnf
    # simplifies their ⊤/⊥ disjuncts, and seed 209's unless the tableau
    # backjumps over the disjunctions that its clashes do not rest on.
    seed12, seed209 = tmp_path / "seed12.dkb", tmp_path / "seed209.dkb"
    seed12.write_text(corpus.SEED12)
    seed209.write_text(corpus.SEED209)
    for kb in (seed12, seed209):
        assert run(capsys, "rank", str(kb), "--json")[0] == 0
    code, out, _ = run(capsys, "check", str(seed12))
    assert code == 0
    assert "normalized TBox consistent: no" in out
    code, out, _ = run(capsys, "query", str(seed12), "-q", "A ~[= forall r.D")
    assert code == 0
    assert out.splitlines()[0] == "IN rational closure"
    assert out.splitlines()[-1] == "normalized TBox inconsistent: every query is trivially true"
    # seed 12 has no level, so the query runs the ⊤ ⊑ ⊥ check itself
    code, out, _ = run(capsys, "query", str(seed12), "-q", "A ~[= forall r.D", "--json")
    assert code == 0
    assert json.loads(out) == {
        "verdict": True, "decided_at": "infinity", "checks": 1, "kb_inconsistent": True
    }


# Seed 209's T* is inconsistent (type elimination), so every atom is
# unsatisfiable and every query is true at infinity.


def test_seed209_check_answers_within_the_default_budget(capsys, tmp_path):
    kb = tmp_path / "seed209.dkb"
    kb.write_text(corpus.SEED209)
    code, out, err = run(capsys, "check", str(kb), "--json")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["consistent"] is False
    assert doc["unsatisfiable_atoms"] == ["A", "B", "C", "D"]


def test_seed209_query_answers_within_the_default_budget(capsys, tmp_path):
    kb = tmp_path / "seed209.dkb"
    kb.write_text(corpus.SEED209)
    code, out, err = run(capsys, "query", str(kb), "-q", "A ~[= forall r.D", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "verdict": True, "decided_at": "infinity", "checks": 1, "kb_inconsistent": True
    }


def test_a_known_verdict_survives_an_unfinished_consistency_check(capsys, tmp_path):
    # Seed 209 has no level.  Its ranking takes at most 43 nodes a check and
    # ``C ⊑ C`` 1, but its ⊤ ⊑ ⊥ check 154, so at 100 ``C ⊑ C`` is true at
    # infinity after 1 check: it is true whether or not T* is consistent, so
    # the query answers and leaves T*'s consistency unknown.  A query whose
    # own check passes the budget still exits 2.
    kb = tmp_path / "seed209.dkb"
    kb.write_text(corpus.SEED209)
    budget = ("--max-nodes", "100")
    code, out, err = run(capsys, "query", str(kb), "-q", "C [= C", "--json", *budget)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "verdict": True, "decided_at": "infinity", "checks": 1, "kb_inconsistent": None
    }
    code, out, err = run(capsys, "query", str(kb), "-q", "C [= C", *budget)
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        "IN rational closure",
        "decided at rank: infinity (TBox fallback)",
        "checks spent: 1",
        "normalized TBox consistency unknown: the top [= bot check hit a resource limit",
    ]
    code, out, err = run(capsys, "query", str(kb), "-q", "A ~[= forall r.D", "--json", *budget)
    assert (code, out) == (2, "")
    assert err == "resource limit: more than 100 tableau nodes\n"


def test_check_empty_kb(capsys):
    code, out, _ = run(capsys, "check", f"{KB}/empty.dkb")
    assert code == 0
    assert "normalized TBox consistent: yes" in out


def test_oracle_model_found(capsys):
    code, out, _ = run(capsys, "oracle", f"{KB}/student.dkb", "--max-domain", "3")
    assert code == 0
    assert "model found within domain bound 3" in out
    assert "configurations examined:" in out


def test_oracle_none_within_bound(capsys, tmp_path):
    bad = tmp_path / "inconsistent.dkb"
    bad.write_text("top [= bot\n")
    code, out, _ = run(capsys, "oracle", str(bad))
    assert code == 0
    assert "no model within domain bound 4" in out
    assert "one-sided" in out


def test_oracle_countermodel_json(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        f"{KB}/penguin.dkb",
        "-q",
        "Penguin ~[= Wings",
        "--json",
        "--max-domain",
        "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"found", "kind", "interpretation", "enumerated", "one_sided"}
    assert doc["found"] is True and doc["kind"] == "countermodel"
    interp = doc["interpretation"]
    assert set(interp) == {"domain", "atoms", "roles", "heights"}


def test_oracle_no_countermodel_for_entailed_query(capsys):
    code, out, _ = run(
        capsys,
        "oracle",
        f"{KB}/student.dkb",
        "-q",
        "Student ~[= !exists pays.Tax",
        "--max-domain",
        "3",
    )
    assert code == 0
    assert "no countermodel within domain bound 3" in out


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.dkb"
    bad.write_text("A [= [=\n")
    code, _, err = run(capsys, "rank", str(bad))
    assert code == 1
    assert "parse error" in err and "1:6" in err


def test_unknown_directive_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.dkb"
    bad.write_text("@include other.dkb\n")
    code, _, err = run(capsys, "rank", str(bad))
    assert code == 1
    assert "directive" in err


def test_resource_limit_exit_code(capsys):
    code, _, err = run(
        capsys, "query", f"{KB}/student.dkb", "-q", "EmpStud ~[= exists pays.Tax",
        "--max-nodes", "1",
    )
    assert code == 2
    assert "resource limit" in err


def test_oracle_over_row_budget_is_a_resource_limit(capsys, tmp_path):
    # Six flat defaults over twelve atoms need 2^36 * 13 configurations at
    # domain 3 alone; the empty KB at domain 30 needs F(30) height vectors.
    # With few bit patterns the tables are charged: `top [= bot` at domain 12
    # and one atom at domain 8 would spend minutes building them.  Thirty
    # atoms at domain 1 are within the budget, but filtering their 2^30
    # element types would take gigabytes.  All are refused before any search.
    flat = tmp_path / "flat6.dkb"
    flat.write_text("".join(f"A{i} ~[= B{i}\n" for i in range(6)))
    inconsistent = tmp_path / "topbot.dkb"
    inconsistent.write_text("top [= bot\n")
    wide = tmp_path / "wide30.dkb"
    wide.write_text("A0 [= A1\n" + "".join(f"A{i} ~[= A{i + 1}\n" for i in range(29)))
    for argv in (
        ("oracle", str(wide), "--max-domain", "1"),
        ("oracle", str(flat), "-q", "A0 ~[= B1", "--max-domain", "3"),
        ("oracle", f"{KB}/empty.dkb", "--max-domain", "30"),
        ("oracle", str(inconsistent), "--max-domain", "12"),
        ("oracle", f"{KB}/empty.dkb", "-q", "A ~[= A", "--max-domain", "8"),
        ("oracle", f"{KB}/student.dkb", "--max-domain", "2", "--max-rows", "100"),
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1, argv
        assert code == 2, argv
        assert out == ""
        assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_a_query_s_own_names_reach_the_witness(capsys):
    # likes and Pizza occur only in the query; the search works them out
    code, out, _ = run(
        capsys, "oracle", f"{KB}/student.dkb", "-q", "Student ~[= exists likes.Pizza", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    interp = doc["interpretation"]
    assert doc["found"] and interp["domain"] == 1
    assert "Pizza" in interp["atoms"]
    assert set(interp["roles"]) == {"likes", "pays"}
    assert doc["enumerated"] == 17


def test_the_benchmark_finds_its_call_sites(monkeypatch):
    """The benchmark wraps the CLI's functions at the names it calls them
    by, and counts checks through the ``EntailmentStats`` objects the CLI
    builds: one per ranking command, none for the oracle."""
    import dalc.cli
    import dalc.closure
    import dalc.parser
    import dalc.tableau

    monkeypatch.syspath_prepend(str(corpus.KB_DIR.parent / "dalcbench"))
    from layers import instrument
    from spans import Tracer

    built = []

    class Counted(EntailmentStats):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(dalc.cli, "EntailmentStats", Counted)
    live = types.SimpleNamespace(
        cli=dalc.cli, closure=dalc.closure, parser=dalc.parser, tableau=dalc.tableau
    )
    unpatched = dict(vars(dalc.cli))
    tracer = Tracer()
    try:
        assert instrument(tracer, live) == []
        at_cli = {a for a, f in vars(dalc.cli).items() if unpatched.get(a) is not f} - {"main"}
        kb = f"{KB}/student.dkb"
        for argv, stats in (
            (["rank", kb], 1),
            (["check", kb], 1),
            (["query", kb, "-q", "Student ~[= !exists pays.Tax"], 1),
            (["oracle", kb, "--max-domain", "2"], 0),
            (["oracle", kb, "-q", "Student ~[= exists likes.Pizza"], 0),
        ):
            built.clear()
            assert dalc.cli.main(argv) == 0, argv
            assert len(built) == stats, argv
    finally:
        tracer.unpatch()
    # each name patched in dalc.cli is what the CLI calls: it opens a span
    # right inside main's
    called = {s.name for s in tracer.spans if s.parent is not None and s.parent.name == "cli.main"}
    assert len(called) == len(at_cli)


def test_missing_file(capsys):
    code, _, err = run(capsys, "rank", f"{KB}/does-not-exist.dkb")
    assert code == 1


def test_non_positive_limits_rejected(capsys):
    for argv in (
        ("rank", f"{KB}/student.dkb", "--max-nodes", "0"),
        ("check", f"{KB}/student.dkb", "--max-nodes", "-1"),
        ("oracle", f"{KB}/student.dkb", "--max-domain", "0"),
        ("oracle", f"{KB}/student.dkb", "-q", "Student ~[= B", "--max-domain", "-1"),
        ("oracle", f"{KB}/student.dkb", "--max-rows", "0"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: --max-") and "must be positive" in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_unreadable_path(capsys, tmp_path):
    binary = tmp_path / "binary.dkb"
    binary.write_bytes(b"\xff\xfe\n")
    for path in (KB, str(binary)):
        code, out, err = run(capsys, "rank", path)
        assert code == 1, path
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_byte_order_mark_is_accepted(capsys, tmp_path):
    # editors that save UTF-8 with a BOM put an invisible U+FEFF first
    marked = tmp_path / "student.dkb"
    marked.write_bytes(b"\xef\xbb\xbf" + (corpus.KB_DIR / "student.dkb").read_bytes())
    expected = run(capsys, "rank", f"{KB}/student.dkb", "--json")
    assert expected[0] == 0
    assert run(capsys, "rank", str(marked), "--json") == expected


def test_flags_a_command_does_not_read_are_rejected(capsys):
    path = f"{KB}/student.dkb"
    for argv in (
        ("rank", path, "--seed", "0"),
        ("rank", path, "-q", "Student ~[= Parent"),
        ("check", path, "--max-domain", "3"),
        ("query", path, "-q", "Student ~[= Parent", "--max-domain", "3"),
        ("oracle", path, "--max-nodes", "5"),
        ("oracle", path, "--max-depth", "5"),
        ("rank", path, "--max-depth", "5"),
        ("rank", path, "--max-rows", "5"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1, argv
        assert "unrecognized arguments" in capsys.readouterr().err


def test_usage_errors_exit_1_with_usage_text(capsys):
    # exit 2 is kept for resource limits
    path = f"{KB}/student.dkb"
    for argv, message in (
        ((), "required: command"),
        (("rank",), "required: path"),
        (("rank", path, "--max-nodes", "many"), "invalid int value: 'many'"),
        (("oracle", path, "--max-domain", "2.5"), "invalid int value: '2.5'"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: dalc") and message in err, argv


def test_internal_error_is_one_line_with_exit_3(capsys, monkeypatch):
    import dalc.cli

    def broken(*args, **kwargs):
        raise KeyError("level")

    monkeypatch.setattr(dalc.cli, "compute_ranking", broken)
    code, out, err = run(capsys, "rank", f"{KB}/student.dkb")
    assert code == 3
    assert out == ""
    assert err == "internal error: KeyError: 'level'\n"


def test_console_script_entry_point():
    out = subprocess.run(
        [sys.executable, "-m", "dalc.cli", "query", f"{KB}/student.dkb", "-q",
         "Student ~[= !exists pays.Tax", "--json"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdict"] is True


def test_subcommand_help_survives_stripped_docstrings():
    # ``python -OO`` drops docstrings; the help texts are plain strings
    out = subprocess.run(
        [sys.executable, "-OO", "-m", "dalc.cli", "--help"], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    for name, text in (
        ("rank", "compute and display the DCI ranking"),
        ("query", "answer a rational-closure query"),
        ("check", "consistency report for the knowledge base"),
        ("oracle", "bounded ranked-model search (one-sided)"),
    ):
        assert any(line.split() == [name, *text.split()] for line in out.stdout.splitlines()), name


def test_rank_query_and_check_do_not_import_numpy():
    # Only the oracle's model search uses NumPy; it loads on the oracle's
    # first call, and the other commands start without it.
    # The package resolves the oracle's names on their first use, each from
    # the module that defines it, and only those.
    kb = f"{KB}/student.dkb"
    script = f"""
import sys
import dalc
assert "numpy" not in sys.modules
from dalc.cli import main
# the value classes record their fields without dataclasses (and so inspect)
assert "dataclasses" not in sys.modules and "inspect" not in sys.modules
from dalc.closure import compute_ranking
for argv in (["rank", {kb!r}], ["query", {kb!r}, "-q", "A ~[= B"], ["check", {kb!r}]):
    assert main(argv) == 0
assert "numpy" not in sys.modules
assert main(["oracle", {kb!r}, "--max-domain", "1"]) == 0
assert "numpy" in sys.modules
"""
    # The model theory is pure Python; only ``dalc.search`` imports NumPy,
    # and ``dalc.semantics`` does not import it.
    theory = """
import sys
import dalc.semantics
from dalc.concepts import DCI, GCI, Atom, Not
assert "numpy" not in sys.modules
A, B = Atom("A"), Atom("B")
base = dalc.semantics.FiniteInterpretation(2, {"A": {0, 1}, "B": {0}}, {})
model = dalc.semantics.RankedInterpretation(base, (0, 1))
assert dalc.satisfies(model, DCI(A, B)) and not dalc.satisfies(model, GCI(A, B))
assert "numpy" not in sys.modules
assert dalc.semantics.check_postulates(model, [A, B, Not(B)]) == []
assert "numpy" not in sys.modules and "dalc.search" not in sys.modules
import dalc.search
assert "numpy" in sys.modules
"""
    lazy = """
import sys
import dalc
for name in dalc.__all__:
    if name not in ("search_countermodel", "search_model"):
        value = getattr(dalc, name)
        home = dalc if name in vars(dalc) else sys.modules["dalc.semantics"]
        assert value is vars(home)[name], name
assert "numpy" not in sys.modules
assert dalc.search_model is dalc.search.search_model
assert "numpy" in sys.modules
try:
    dalc.nope
except AttributeError as e:
    assert "'dalc'" in str(e), e
else:
    raise AssertionError("dalc.nope resolved")
"""
    for code in (script, theory, lazy):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


def test_nesting_too_deep_is_a_resource_limit(capsys, tmp_path):
    # 400 nested parentheses exceed Python's recursion limit in the parser;
    # the CLI reports that as a resource limit, not a traceback.
    kb = tmp_path / "nested400.dkb"
    kb.write_text("A [= " + "(" * 400 + "B" + ")" * 400 + "\n")
    code, out, err = run(capsys, "check", str(kb))
    assert code == 2
    assert out == ""
    assert err.startswith("resource limit: ") and err.count("\n") == 1


def test_documented_nesting_parses_at_the_default_recursion_limit():
    # The README promises about 330 parentheses or 990 `!` under Python's
    # default recursion limit: the grammar recurses three frames deep per
    # parenthesis and one per `!` or quantifier.
    code = """
import sys
from dalc.parser import parse_concept, parse_kb
assert sys.getrecursionlimit() == 1000
for nested in ("(" * 300 + "B" + ")" * 300, "!" * 950 + "B", "exists r." * 950 + "B"):
    parse_kb("A [= " + nested)
    parse_concept(nested)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_check_answers_on_quantifiers_nested_500_deep(capsys, tmp_path):
    # check reads only the concept names: sorting the quantified subconcepts
    # by repr, as the oracle does, recurses through their nesting and passes
    # Python's default recursion limit here
    kb = tmp_path / "exists500.dkb"
    kb.write_text("B ~[= " + "exists r." * 500 + "A\nA [= C\n")
    code, out, err = run(capsys, "check", str(kb), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"consistent": True, "infinite_rank": [], "unsatisfiable_atoms": []}


def test_role_chain_answers(capsys, tmp_path):
    # Each of the 45 nested successors carries 45 internalised disjunctions;
    # the tableau takes one Python frame per successor, not per disjunction.
    kb = tmp_path / "role_chain45.dkb"
    kb.write_text("".join(f"A{i} [= exists r.A{i + 1}\n" for i in range(45)))
    code, out, err = run(capsys, "check", str(kb), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"consistent": True, "infinite_rank": [], "unsatisfiable_atoms": []}
