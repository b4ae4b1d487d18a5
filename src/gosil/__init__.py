"""Guarded order-sorted intensional logic toolkit.

Theories combine a subtyped vocabulary with axioms; sentences are parsed,
type-checked into derivation trees, implicit guards are elaborated into
explicit type-predicate prefixes, intensional constructs are grounded away,
and sentences are evaluated against finite structures.
"""

from .ast import (
    Formula,
    Term,
    Theory,
    format_formula,
    format_term,
    format_theory,
    free_variables,
)
from .elaboration import guard_targets
from .errors import GosilError
from .grounding import build_intensional_interp, elaborate, ground, grounded_size
from .models import find_models
from .parser import parse_formula, parse_term, parse_theory
from .semantics import (
    evaluate,
    format_structure,
    parse_structure,
    satisfies,
    validate_structure,
)
from .typecheck import (
    check_sentence,
    initial_context,
    principal_type,
    render_derivation,
    typecheck,
)
from .vocabulary import (
    Vocabulary,
    base_vocabulary,
    concept_universe,
    declare_symbol,
    declare_type,
    is_subtype,
    validate,
)

__all__ = [
    "Formula",
    "GosilError",
    "Term",
    "Theory",
    "Vocabulary",
    "base_vocabulary",
    "build_intensional_interp",
    "check_sentence",
    "concept_universe",
    "declare_symbol",
    "declare_type",
    "elaborate",
    "evaluate",
    "find_models",
    "format_formula",
    "format_structure",
    "format_term",
    "format_theory",
    "free_variables",
    "ground",
    "grounded_size",
    "guard_targets",
    "initial_context",
    "is_subtype",
    "parse_formula",
    "parse_structure",
    "parse_term",
    "parse_theory",
    "principal_type",
    "render_derivation",
    "satisfies",
    "typecheck",
    "validate",
    "validate_structure",
]
