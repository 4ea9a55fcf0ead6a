import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dalc.closure  # noqa: E402
from dalc.concepts import And, Not, ResourceLimitError  # noqa: E402
from dalc.tableau import entails  # noqa: E402

from generators import te_satisfiable  # noqa: E402


@pytest.fixture
def checks(monkeypatch):
    """Every classical check of ``dalc.closure`` from here on, as ``(gci,
    tableau, type elimination)``: the two engines' answers to whether T*
    entails the GCI, the tableau's None if it gave up.  A check they answer
    differently fails at once; one the tableau gives up on is answered by
    type elimination, so the checks after it are compared too."""
    log = []

    def both(tbox, g, *args):
        want = not te_satisfiable(And(g.lhs, Not(g.rhs)), tbox)
        try:
            got = entails(tbox, g, *args)
        except ResourceLimitError:
            got = None
        assert got in (want, None), (tuple(tbox), g)
        log.append((g, got, want))
        return want

    monkeypatch.setattr(dalc.closure, "entails", both)
    return log
