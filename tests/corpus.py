"""Shared test corpus: the knowledge bases under kbs/ plus query sets with
their expected rational-closure verdicts."""

from __future__ import annotations

from pathlib import Path

from dalc.concepts import KnowledgeBase
from dalc.parser import parse_kb, parse_query

KB_DIR = Path(__file__).resolve().parent.parent / "kbs"


def load(name: str) -> KnowledgeBase:
    path = KB_DIR / name
    return parse_kb(path.read_text(encoding="utf-8"), str(path)).kb


def student_kb() -> KnowledgeBase:
    return load("student.dkb")


def penguin_kb() -> KnowledgeBase:
    return load("penguin.dkb")


def boss_kb() -> KnowledgeBase:
    return load("boss.dkb")


def classical_kb() -> KnowledgeBase:
    return load("classical.dkb")


def contradictory_kb() -> KnowledgeBase:
    return load("contradictory.dkb")


def empty_kb() -> KnowledgeBase:
    return load("empty.dkb")


CORPUS = {
    "student": student_kb,
    "penguin": penguin_kb,
    "boss": boss_kb,
    "classical": classical_kb,
    "contradictory": contradictory_kb,
    "empty": empty_kb,
}

# (kb name, query text, expected verdict) for the headline queries.
VERDICTS = [
    ("student", "Student ~[= !exists pays.Tax", True),
    ("student", "EmpStud ~[= exists pays.Tax", True),
    ("student", "EmpStud & Parent ~[= !exists pays.Tax", True),
    ("penguin", "Robin ~[= Wings", True),
    ("penguin", "Penguin ~[= Wings", False),
    ("penguin", "Penguin ~[= !Flies", True),
    ("boss", "Worker ~[= exists hasSuperior.Responsible", False),
]


def query(text: str):
    return parse_query(text)


# Two one-role KBs drawn with ``generators.random_concept`` from
# ``random.Random(seed)`` (2 GCIs of depth 1, then 6 DCIs of depth 2, atoms
# A-D, role r).  The ⊤ ⊑ ⊥ check of each passes the default node budget
# unless nnf simplifies their ⊤/⊥ disjuncts; seed 209's passes it even then.
SEED12 = """\
C | bot [= exists r.B
A | C [= C | bot
forall r.top | bot ~[= exists r.(C | B)
!A & exists r.A ~[= exists r.forall r.A
A ~[= forall r.D
bot | B | top ~[= exists r.bot & top
!exists r.D ~[= exists r.forall r.D
exists r.exists r.bot ~[= forall r.!bot
"""

SEED209 = """\
exists r.B [= exists r.A
forall r.A [= B & bot
!(C | B) ~[= !(A & D)
A & A | !B ~[= exists r.forall r.bot
bot ~[= forall r.!top
forall r.(A & bot) ~[= !forall r.B
forall r.exists r.bot ~[= D | exists r.C
forall r.(bot & C) ~[= !C & exists r.B
"""
