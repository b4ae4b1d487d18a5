"""Error and diagnostic types shared across the package.

Every user-facing failure is a subclass of GosilError so the CLI can catch
one base class and render a uniform diagnostic. Parse-time errors carry a
source Location; later stages carry the offending expression instead (the
expression remembers its own location when it came from source text).
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, field, fields


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """`cls` as a `dataclass(frozen=True, slots=True)` whose `__init__`
    stores each field through its slot's descriptor, not through
    `object.__setattr__`. The generated `__init__` takes the dataclass's
    parameters, defaults included; equality, hashing, `repr`,
    `dataclasses.replace` and `__match_args__` are the dataclass's own.
    Assigning or deleting any name raises `FrozenInstanceError`: the
    dataclass's own refusal tests the class it replaced when it added the
    slots, and raises `TypeError` for a name that is not a field. Every
    field is an `__init__` parameter, with no default factory and no
    `__post_init__`."""
    cls = dataclass(frozen=True, slots=True)(cls)
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: a record has no __post_init__")
    namespace: dict = {}
    params, body = [], []
    for f in fields(cls):
        if not f.init or f.default_factory is not MISSING:
            raise TypeError(f"{cls.__name__}.{f.name}: a record field is a plain parameter")
        namespace[f"_set_{f.name}"] = cls.__dict__[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            namespace[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body.append(f"    _set_{f.name}(self, {f.name})\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(body)}", namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    cls.__init__ = init
    cls.__setattr__ = _refuse_assignment
    cls.__delattr__ = _refuse_deletion
    return cls


@record
class Location:
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class GosilError(Exception):
    """Base class for all diagnostics raised by this package."""

    def __init__(self, message: str, loc: Location | None = None):
        super().__init__(message)
        self.message = message
        self.loc = loc

    @property
    def kind(self) -> str:
        return type(self).__name__

    def __str__(self) -> str:
        if self.loc is not None:
            return f"{self.loc}: {self.kind}: {self.message}"
        return f"{self.kind}: {self.message}"


# --- vocabulary construction -------------------------------------------------

class VocabularyError(GosilError):
    pass


class DuplicateType(VocabularyError):
    pass


class DuplicateSymbol(VocabularyError):
    pass


class UnknownType(VocabularyError):
    pass


class UnknownSupertype(VocabularyError):
    pass


class CyclicSubtyping(VocabularyError):
    pass


class ExtensionOnNonConceptType(VocabularyError):
    pass


class UnknownExtensionMember(VocabularyError):
    pass


# --- parsing ------------------------------------------------------------------

class ParseError(GosilError):
    """Malformed surface syntax; `loc` points at the offending token."""


class ArityError(ParseError):
    pass


class UnknownIdentifier(ParseError):
    pass


class UnboundVariable(ParseError):
    pass


# --- typing -------------------------------------------------------------------

TYPING_ERROR_KINDS = (
    "ArgumentTypeMismatch",
    "UnknownSymbol",
    "UnboundVariable",
    "NonBooleanSubformula",
    "IntensionalNotGrounded",
)


class TypingError(GosilError):
    """A typing verdict of "ill-typed", with the reason pinned down.

    `expected`/`found` are type names, populated for mismatch kinds;
    `expr` is the offending sub-expression, which gives the error its
    location.
    """

    def __init__(
        self,
        error_kind: str,
        message: str,
        expr=None,
        expected: str | None = None,
        found: str | None = None,
    ):
        assert error_kind in TYPING_ERROR_KINDS, error_kind
        super().__init__(message, loc=getattr(expr, "loc", None))
        self.error_kind = error_kind
        self.expr = expr
        self.expected = expected
        self.found = found

    @property
    def kind(self) -> str:
        return self.error_kind


# --- elaboration ----------------------------------------------------------------

class ElaborationError(GosilError):
    pass


class IncomparableTypes(ElaborationError):
    """Argument type neither above nor below the expected type; the guard
    construction has no reading for this and the checker would reject anyway."""


# --- grounding ------------------------------------------------------------------

class GroundingError(GosilError):
    pass


class NonTotalConceptFunction(GroundingError):
    pass


class NonFunctionalFacts(GroundingError):
    pass


class UnknownConceptMember(GroundingError):
    pass


class UnresolvableDeref(GroundingError):
    pass


class MissingExtension(GroundingError):
    pass


class GroundArityError(GroundingError):
    pass


# --- evaluation / model search ---------------------------------------------------

class EvaluationError(GosilError):
    pass


class RuntimeDerefMismatch(EvaluationError):
    pass


class UnboundedNatQuantifier(EvaluationError):
    pass


class UnassignedVariable(EvaluationError):
    pass


class IllTypedSentence(EvaluationError):
    pass


class StructureError(GosilError):
    """Invalid structure file or structure/vocabulary mismatch."""


class BoundMissing(GosilError):
    pass


class ExplosionGuard(GosilError):
    """Model search would enumerate more candidates than the configured cap."""


# --- validation reports ------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    message: str
    where: str = ""

    def __str__(self) -> str:
        prefix = f"{self.where}: " if self.where else ""
        return f"{prefix}{self.kind}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, message: str, where: str = "") -> None:
        self.violations.append(Violation(kind, message, where))

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)
