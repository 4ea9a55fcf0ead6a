"""Defeasible ALC reasoning: rational closure over a classical tableau, with
a finite ranked-model oracle for cross-validation."""

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
    TableauConfig,
    entails,
    is_satisfiable,
)

# The oracle's names are imported from ``dalc.semantics`` on the first use of
# one of them (PEP 562), so rank, query and check never load it; that module
# is pure Python, and NumPy loads only when a search name reaches ``dalc.search``.
_SEMANTICS = (
    "FiniteInterpretation", "PreferentialInterpretation", "RankedInterpretation",
    "check_postulates", "disjoint_union", "extension", "height_of_concept",
    "heights_from_order", "min_elements", "ranked_union", "satisfies",
    "search_countermodel", "search_model",
)

__all__ = [
    "And", "Atom", "Axiom", "BOTTOM", "Bottom", "Concept", "DCI", "Exists",
    "Forall", "GCI", "KnowledgeBase", "Not", "Or", "TOP", "Top",
    "conjoin", "materialise", "nnf", "subconcept_closure",
    "QueryResult", "Ranking", "axiom_rank", "compute_ranking", "concept_rank",
    "exceptional", "rationally_deducible", "tstar_inconsistent",
    "ParsedDocument", "ParseError", "SourceSpan", "parse_kb", "parse_query",
    "render_axiom", "render_concept",
    "Rank",
    *_SEMANTICS,
    "EntailmentStats", "ResourceLimitError", "TableauConfig", "entails",
    "is_satisfiable",
]


def __getattr__(name: str):
    if name in _SEMANTICS:
        from . import semantics

        return getattr(semantics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
