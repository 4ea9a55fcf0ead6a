"""The three workloads: their inputs, operations and output checks.

Every operation runs in this process and thread, one after another (a
closed loop with one client and no think time).  An operation returns an
observation (a plain dict) and is checked against the answer its
construction implies; a mismatch, a non-zero exit code or an exception is a
failed operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import families as fam

CHAIN_QUERY_N = 10


class Dalc:
    """The modules under test, freshly imported from the checkout."""

    def __init__(self, src: Path):
        for name in [m for m in sys.modules if m == "dalc" or m.startswith("dalc.")]:
            del sys.modules[name]
        sys.path.insert(0, str(src))
        try:
            import dalc
            import dalc.cli
            import dalc.closure
            import dalc.concepts
            import dalc.parser
            import dalc.semantics
            import dalc.tableau
        finally:
            sys.path.remove(str(src))
        if Path(dalc.__file__).resolve().parent != (src / "dalc").resolve():
            raise ImportError(f"dalc was imported from {dalc.__file__}, not {src}")
        self.cli = dalc.cli
        self.closure = dalc.closure
        self.concepts = dalc.concepts
        self.parser = dalc.parser
        self.semantics = dalc.semantics
        self.tableau = dalc.tableau


@dataclass
class Op:
    """One operation.  ``run`` returns the observation; ``check`` lists
    what is wrong with an observation of a run that did not fail.
    ``failed`` tells a failed run (error exit, exception) apart from a
    wrong answer."""

    name: str
    run: Callable[[], dict]
    check: Callable[[dict], list[str]]
    rank_bound: int = 0  # |D|^3 + 2|D| for a ranking
    query_bound: int = 0  # n + 2 for a query

    @staticmethod
    def failed(obs: dict) -> bool:
        return obs.get("code") not in (0, None) or "error" in obs

    def observe(self) -> tuple[dict, list[str]]:
        """Run, then check; an exception is a failed run, not a crash of
        the benchmark."""
        try:
            obs = self.run()
        except Exception as e:
            obs = {"error": type(e).__name__}
        if Op.failed(obs):
            return obs, [f"{self.name}: failed {obs.get('error') or obs.get('stderr')}"]
        return obs, self.check(obs)


class StatsCapture:
    """Collects every ``EntailmentStats`` the CLI creates, by replacing the
    class at its call site in ``dalc.cli`` with a recording subclass.  One
    object per command, so this costs nothing per check."""

    def __init__(self, d: Dalc):
        self.d = d
        self.created: list = []
        created = self.created
        base = d.tableau.EntailmentStats

        class Recorded(base):  # type: ignore[misc, valid-type]
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        self.base = base
        self.recorded = Recorded

    def __enter__(self) -> "StatsCapture":
        self.d.cli.EntailmentStats = self.recorded
        return self

    def __exit__(self, *exc) -> None:
        self.d.cli.EntailmentStats = self.base

    def take(self) -> tuple[int, int]:
        """(checks, nodes) of the objects created since the last take."""
        checks = sum(s.checks for s in self.created)
        nodes = sum(s.nodes_expanded for s in self.created)
        self.created.clear()
        return checks, nodes


def run_cli(d: Dalc, argv: list[str], capture: StatsCapture) -> dict:
    """``dalc.cli.main(argv)`` in-process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    obs: dict[str, Any] = {}
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            obs["code"] = d.cli.main(argv)
    except Exception as e:  # a crash is an outcome to record, not to stop on
        obs["error"] = type(e).__name__
    obs["checks_total"], obs["nodes"] = capture.take()
    if obs.get("code") == 0:
        obs["json"] = json.loads(out.getvalue())
    elif "code" in obs:
        obs["stderr"] = err.getvalue().strip()[:200]
    return obs


def _axiom_text(a: dict) -> str:
    op = "[=" if a["kind"] == "gci" else "~[="
    return f"{a['lhs']} {op} {a['rhs']}"


# ---------------------------------------------------------------------------
# Operations


def rank_op(d: Dalc, case: fam.RankCase, path: Path, capture: StatsCapture) -> Op:
    def run() -> dict:
        obs = run_cli(d, ["rank", str(path), "--json"], capture)
        out = obs.pop("json", None)
        if out is not None:
            obs["partition"] = [[_axiom_text(a) for a in part] for part in out["partition"]]
            obs["promoted"] = [_axiom_text(a) for a in out["promoted"]]
            obs["checks"] = out["stats"]["entailment_checks"]
        return obs

    def check(obs: dict) -> list[str]:
        problems = []
        if obs["checks"] > case.check_bound:
            problems.append(f"{case.name}: {obs['checks']} checks > |D|^3+2|D| = {case.check_bound}")
        if case.partition is None:
            placed = sum(len(p) for p in obs["partition"]) + len(obs["promoted"])
            if placed != case.dcis or not all(obs["partition"]):
                problems.append(f"{case.name}: partition does not hold each default once")
            return problems
        if [list(p) for p in case.partition] != obs["partition"]:
            problems.append(f"{case.name}: partition {obs['partition']}")
        if list(case.promoted) != obs["promoted"]:
            problems.append(f"{case.name}: promoted {obs['promoted']}")
        if case.checks != obs["checks"]:
            problems.append(f"{case.name}: {obs['checks']} checks, expected {case.checks}")
        return problems

    return Op(f"rank:{case.name}", run, check, rank_bound=case.check_bound)


def check_op(d: Dalc, case: fam.CheckCase, path: Path, capture: StatsCapture) -> Op:
    def run() -> dict:
        obs = run_cli(d, ["check", str(path), "--json"], capture)
        out = obs.pop("json", None)
        if out is not None:
            obs["report"] = out
        return obs

    def check(obs: dict) -> list[str]:
        want = {"consistent": True, "infinite_rank": [], "unsatisfiable_atoms": []}
        problems = [] if obs["report"] == want else [f"{case.name}: {obs['report']}"]
        # one consistency check plus one satisfiability check per atom
        if obs["checks_total"] != case.atoms + 1:
            problems.append(f"{case.name}: {obs['checks_total']} checks, expected {case.atoms + 1}")
        return problems

    return Op(f"check:{case.name}", run, check)


def oracle_op(d: Dalc, case: fam.OracleCase, path: Path, capture: StatsCapture) -> Op:
    argv = ["oracle", str(path), "--json", "--max-domain", str(fam.ORACLE_DOMAIN)]
    if case.query is not None:
        argv += ["-q", case.query]

    def run() -> dict:
        obs = run_cli(d, argv, capture)
        out = obs.pop("json", None)
        if out is not None:
            obs["found"] = out["found"]
            obs["kind"] = out["kind"]
            obs["rows"] = out["enumerated"]
        return obs

    def check(obs: dict) -> list[str]:
        problems = []
        kind = "model" if case.query is None else "countermodel"
        if obs["found"] != case.found or obs["kind"] != kind:
            problems.append(f"{case.name}: found={obs['found']} kind={obs['kind']}")
        if case.rows is not None and obs["rows"] != case.rows:
            problems.append(f"{case.name}: {obs['rows']} rows, expected {case.rows}")
        if case.rows is None and obs["rows"] < 1:
            problems.append(f"{case.name}: no rows examined")
        if obs["checks_total"] != 0:
            problems.append(f"{case.name}: the oracle ran {obs['checks_total']} tableau checks")
        return problems

    return Op(f"oracle:{case.name}", run, check)


class QueryState:
    """What the one-off ranking hands to the query operations of a pass."""

    ranking: Any = None


def ranking_op(d: Dalc, case: fam.RankCase, state: QueryState) -> Op:
    """The library route of ``dalc query``: parse, rank, and the cached
    consistency diagnostic, so that no query pays for it."""

    def run() -> dict:
        stats = d.tableau.EntailmentStats()
        kb = d.parser.parse_kb(case.text, case.name).kb
        ranking = d.closure.compute_ranking(kb, stats=stats)
        checks = stats.checks
        d.closure.tstar_inconsistent(ranking, stats=stats)
        state.ranking = ranking
        render = d.parser.render_axiom
        return {
            "partition": [[render(a) for a in part] for part in ranking.partition],
            "promoted": [render(a) for a in ranking.moved_to_tbox],
            "checks": checks,
            "checks_total": stats.checks,
            "nodes": stats.nodes_expanded,
        }

    def check(obs: dict) -> list[str]:
        problems = []
        if obs["partition"] != [list(p) for p in case.partition]:
            problems.append(f"{case.name}: partition {obs['partition']}")
        if obs["promoted"] != list(case.promoted):
            problems.append(f"{case.name}: promoted {obs['promoted']}")
        if obs["checks"] != case.checks:
            problems.append(f"{case.name}: {obs['checks']} checks, expected {case.checks}")
        return problems

    return Op(f"rank:{case.name}", run, check, rank_bound=case.check_bound)


def query_op(d: Dalc, case: fam.QueryCase, levels: int, state: QueryState) -> Op:
    n_plus_2 = levels + 1  # levels E0..En, so n + 2 = levels + 1

    def run() -> dict:
        stats = d.tableau.EntailmentStats()
        q = d.parser.parse_query(case.text)
        res = d.closure.rationally_deducible(state.ranking, q, stats=stats)
        return {
            "verdict": res.verdict,
            "level": res.decided_at.value,
            "checks": res.checks_spent,
            "checks_total": stats.checks,
            "nodes": stats.nodes_expanded,
        }

    def check(obs: dict) -> list[str]:
        problems = []
        got = (obs["verdict"], obs["level"], obs["checks"])
        want = (case.verdict, case.level, case.checks)
        if got != want:
            problems.append(f"{case.text}: (verdict, level, checks) {got}, expected {want}")
        if obs["checks"] > n_plus_2:
            problems.append(f"{case.text}: {obs['checks']} checks > n+2 = {n_plus_2}")
        if obs["checks_total"] != obs["checks"]:
            problems.append(f"{case.text}: {obs['checks_total']} checks made, {obs['checks']} reported")
        return problems

    return Op(f"query:{case.text}", run, check, query_bound=n_plus_2)


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs for one seed.  ``oneoff`` runs once per pass before the
    cycles; ``cycle(c)`` is the c-th round of timed operations; ``probes``
    are inputs known to fail, run once per run and kept out of the timing;
    ``warmup`` is one small operation run during set-up."""

    name = ""
    calibration: tuple[str, ...] = ("python",)

    def __init__(self, d: Dalc, seed: int, root: Path, work: Path):
        self.d = d
        self.seed = seed
        self.root = root
        self.work = work
        self.capture = StatsCapture(d)

    def write(self, name: str, text: str) -> Path:
        path = self.work / f"{name}.dkb"
        path.write_text(text, encoding="utf-8")
        return path

    def corpus_path(self, name: str) -> Path:
        return self.root / "kbs" / f"{name}.dkb"

    def oneoff(self) -> list[Op]:
        return []

    def cycle(self, c: int) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        return []

    def warmup(self) -> Op:
        raise NotImplementedError


class RankMix(Workload):
    name = "rank_mix"
    RANDOM_KBS = 2

    def __init__(self, d: Dalc, seed: int, root: Path, work: Path):
        super().__init__(d, seed, root, work)
        cases = [fam.chain(n) for n in (8, 10, 12)]
        cases += [fam.flat(n) for n in (8, 12)]
        cases += [fam.roles(n) for n in (3, 4, 5)]
        cases += [fam.random_kb(seed, k) for k in range(self.RANDOM_KBS)]
        ops = [rank_op(d, c, self.write(c.name, c.text), self.capture) for c in cases]
        for name in fam.CORPUS_NAMES:
            text = self.corpus_path(name).read_text(encoding="utf-8")
            ops.append(rank_op(d, fam.corpus_case(name, text), self.corpus_path(name), self.capture))
        deep = fam.role_chain(30)
        ops.append(check_op(d, deep, self.write(deep.name, deep.text), self.capture))
        random.Random(f"dalcbench:order:{seed}").shuffle(ops)
        self.ops = ops
        roles6, deeper = fam.roles(6), fam.role_chain(45)
        self.probe_ops = [
            rank_op(d, roles6, self.write(roles6.name, roles6.text), self.capture),
            check_op(d, deeper, self.write(deeper.name, deeper.text), self.capture),
        ]
        student = self.corpus_path("student")
        self.warm = rank_op(d, fam.corpus_case("student", student.read_text(encoding="utf-8")), student, self.capture)

    def cycle(self, c: int) -> list[Op]:
        return self.ops

    def probes(self) -> list[Op]:
        return self.probe_ops

    def warmup(self) -> Op:
        return self.warm


class QueryStream(Workload):
    name = "query_stream"

    def __init__(self, d: Dalc, seed: int, root: Path, work: Path):
        super().__init__(d, seed, root, work)
        self.state = QueryState()
        self.chain = fam.chain(CHAIN_QUERY_N)
        warm_state = QueryState()
        ranking = ranking_op(d, fam.chain(2), warm_state)
        query = query_op(d, fam.chain_query(2, 1, "A1", "!B", False), 2, warm_state)
        self.warm = Op(
            "warmup",
            lambda: {"ranking": ranking.run(), "query": query.run()},
            lambda obs: ranking.check(obs["ranking"]) + query.check(obs["query"]),
        )

    def oneoff(self) -> list[Op]:
        return [ranking_op(self.d, self.chain, self.state)]

    def cycle(self, c: int) -> list[Op]:
        block = fam.chain_query_block(CHAIN_QUERY_N, self.seed, c)
        return [query_op(self.d, q, CHAIN_QUERY_N, self.state) for q in block]

    def warmup(self) -> Op:
        return self.warm


class OracleSearch(Workload):
    name = "oracle_search"
    calibration = ("python", "numpy")

    def __init__(self, d: Dalc, seed: int, root: Path, work: Path):
        super().__init__(d, seed, root, work)
        paths = {name: self.corpus_path(name) for name in fam.CORPUS_NAMES}
        cases = fam.corpus_oracle_questions()
        for n in (2, 3):
            kb = fam.chain(n)
            paths[kb.name] = self.write(kb.name, kb.text)
            cases += fam.chain_oracle_questions(n, seed)
        ops = [oracle_op(d, c, paths[c.kb], self.capture) for c in cases]
        random.Random(f"dalcbench:order:{seed}").shuffle(ops)
        self.ops = ops
        warm = fam.OracleCase("warmup", "chain2", "A0 ~[= B", False, fam.full_scan_rows(3))
        self.warm = oracle_op(d, warm, paths["chain2"], self.capture)

    def cycle(self, c: int) -> list[Op]:
        return self.ops

    def warmup(self) -> Op:
        return self.warm


WORKLOADS = {w.name: w for w in (RankMix, QueryStream, OracleSearch)}


def make(name: str, d: Dalc, seed: int, root: Path, work: Path) -> Workload:
    return WORKLOADS[name](d, seed, root, work)
