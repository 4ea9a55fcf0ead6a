"""Defeasible ALC reasoning: rational closure over a classical tableau, with
a finite ranked-model oracle for cross-validation."""

import importlib

from .concepts import (
    And,
    Atom,
    Axiom,
    BOTTOM,
    Bottom,
    Concept,
    DCI,
    Exists,
    Forall,
    GCI,
    KnowledgeBase,
    Not,
    Or,
    TOP,
    Top,
    conjoin,
    materialise,
    nnf,
    subconcept_closure,
)
from .closure import (
    QueryResult,
    Ranking,
    axiom_rank,
    compute_ranking,
    concept_rank,
    exceptional,
    rationally_deducible,
    tstar_inconsistent,
)
from .parser import (
    ParsedDocument,
    ParseError,
    SourceSpan,
    parse_kb,
    parse_query,
    render_axiom,
    render_concept,
)
from .ranks import Rank
from .tableau import (
    EntailmentStats,
    ResourceLimitError,
    entails,
    is_satisfiable,
)

# The oracle's names load on their first use (PEP 562), each from the module
# that defines it: the model theory from ``dalc.semantics`` (pure Python), the
# search from ``dalc.search``, the one module that imports NumPy.
_ORACLE = dict.fromkeys((
    "FiniteInterpretation", "PreferentialInterpretation", "RankedInterpretation",
    "check_postulates", "disjoint_union", "extension", "height_of_concept",
    "heights_from_order", "min_elements", "ranked_union", "satisfies",
), "semantics") | {"search_countermodel": "search", "search_model": "search"}

__all__ = [
    "And", "Atom", "Axiom", "BOTTOM", "Bottom", "Concept", "DCI", "Exists",
    "Forall", "GCI", "KnowledgeBase", "Not", "Or", "TOP", "Top",
    "conjoin", "materialise", "nnf", "subconcept_closure",
    "QueryResult", "Ranking", "axiom_rank", "compute_ranking", "concept_rank",
    "exceptional", "rationally_deducible", "tstar_inconsistent",
    "ParsedDocument", "ParseError", "SourceSpan", "parse_kb", "parse_query",
    "render_axiom", "render_concept",
    "Rank",
    *_ORACLE,
    "EntailmentStats", "ResourceLimitError", "entails", "is_satisfiable",
]


def __getattr__(name: str):
    if name in _ORACLE:
        return getattr(importlib.import_module("." + _ORACLE[name], __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
