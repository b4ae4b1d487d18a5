"""Vocabularies: type symbols, the subtype DAG, signatures, and concepts.

A vocabulary declares a set of types ordered by subtyping, plus function and
predicate symbols with typed signatures. Four types are built in: Universe
(the top), Bool, Nat, and Concept. Every type automatically owns a unary
type predicate over Universe (written with the type's own name in predicate
position), an equality symbol over itself, and Nat carries the arithmetic
functions. Subtypes of Concept may declare a fixed extension, a list of
names whose concepts populate the type.

Vocabulary values are immutable; the declare_* operations return extended
copies, so previously issued queries keep their answers.

Every name lookup goes through one index per vocabulary value: dicts from
names to types, signatures and extensions, and from each type to its direct
supertypes in declaration order. Where a malformed vocabulary repeats a
name, the first declaration wins, as a scan would find it. The index is
built on first use; declare_* hands the copy it returns its input's index
extended by the new declaration instead of rebuilding it. The equality
family is not indexed: `resolve` recognises `=_T` from the type set on
demand. The index, the ancestor sets and the evaluator's cache are
excluded from equality and hashing and are never constructor arguments, so
`dataclasses.replace` starts a copy with empty caches.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import (
    CyclicSubtyping,
    DuplicateSymbol,
    DuplicateType,
    ExtensionOnNonConceptType,
    UnknownExtensionMember,
    UnknownSupertype,
    UnknownType,
    ValidationReport,
)

UNIVERSE = "Universe"
BOOL = "Bool"
NAT = "Nat"
CONCEPT = "Concept"

BUILTIN_TYPES = (UNIVERSE, BOOL, NAT, CONCEPT)

# surface marker distinguishing the concept of a type's predicate from the
# concept of the type itself (~Cat^ vs ~Cat)
TYPE_PREDICATE_MARK = "^"

EQUALITY = "="
ARITHMETIC = ("+", "-", "*")


@dataclass(frozen=True)
class TypeSymbol:
    name: str
    builtin: bool = False


@dataclass(frozen=True)
class Signature:
    name: str
    argument_types: tuple[str, ...]
    result_type: str
    builtin: bool = False

    @property
    def is_predicate(self) -> bool:
        return self.result_type == BOOL

    @property
    def arity(self) -> int:
        return len(self.argument_types)

    def __str__(self) -> str:
        args = " * ".join(self.argument_types) if self.argument_types else "()"
        return f"{self.name} : {args} -> {self.result_type}"


@dataclass(frozen=True)
class ConceptExtension:
    """Fixed extension of a concept type: an ordered list of member names,
    each denoting the concept of a declared symbol or type."""

    type_name: str
    members: tuple[str, ...]


@dataclass(frozen=True)
class ConceptObject:
    """The atomic domain object ~name standing for a symbol's or type's
    concept. Type predicates get the distinct name "T^"."""

    name: str
    is_type: bool = False

    def __str__(self) -> str:
        return f"~{self.name}"


@dataclass(frozen=True)
class _Index:
    """Dict lookups over a vocabulary's fields. `sizes` counts the entries
    of each field indexed, so an index of a prefix can be extended."""

    types: dict[str, TypeSymbol]
    signatures: dict[str, Signature]
    extensions: dict[str, ConceptExtension]
    supertypes: dict[str, tuple[str, ...]]
    sizes: tuple[int, int, int, int]


_EMPTY_INDEX = _Index({}, {}, {}, {}, (0, 0, 0, 0))


@dataclass(frozen=True)
class Vocabulary:
    types: tuple[TypeSymbol, ...]
    direct_edges: tuple[tuple[str, str], ...]
    signatures: tuple[Signature, ...]
    extensions: tuple[ConceptExtension, ...]
    _index: _Index | None = field(default=None, init=False, compare=False, repr=False)
    _ancestors: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    # gosil.semantics: compiled code by (expression id, variable types), and
    # structure interpretations interned by content
    _eval_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    # -- lookup helpers ------------------------------------------------------

    def has_type(self, name: str) -> bool:
        return name in _index_of(self).types

    def type_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.types)

    def signature(self, name: str) -> Signature | None:
        """Resolve a symbol name: declared symbols first, then the type
        predicate that shares a type's surface name."""
        return _declared_or_predicate(_index_of(self), name)

    def resolve(self, name: str) -> Signature | None:
        """Every applicable name: `=_T` is the equality of type T, then
        declared symbols, then type predicates."""
        index = _index_of(self)
        if name.startswith(EQUALITY + "_") and name[2:] in index.types:
            return equality_signature(name[2:])
        return _declared_or_predicate(index, name)

    def extension_of(self, type_name: str) -> ConceptExtension | None:
        return _index_of(self).extensions.get(type_name)

    def direct_supertypes(self, name: str) -> tuple[str, ...]:
        """The declared supertypes of a type, in declaration order."""
        return _index_of(self).supertypes.get(name, ())

    @property
    def equality_signatures(self) -> tuple[Signature, ...]:
        return tuple(equality_signature(t.name) for t in self.types)


def _index_of(vocab: Vocabulary) -> _Index:
    if vocab._index is None:
        object.__setattr__(vocab, "_index", _extend_index(_EMPTY_INDEX, vocab))
    return vocab._index


def _declared_or_predicate(index: _Index, name: str) -> Signature | None:
    sig = index.signatures.get(name)
    if sig is None and name in index.types:
        return type_predicate_signature(name)
    return sig


def _extend_index(base: _Index, vocab: Vocabulary) -> _Index:
    """Index `vocab`, whose fields extend those `base` indexes."""
    types, signatures = dict(base.types), dict(base.signatures)
    extensions, supertypes = dict(base.extensions), dict(base.supertypes)
    n_types, n_edges, n_sigs, n_exts = base.sizes
    for t in vocab.types[n_types:]:
        types.setdefault(t.name, t)
    for sub, sup in vocab.direct_edges[n_edges:]:
        supertypes[sub] = supertypes.get(sub, ()) + (sup,)
    for sig in vocab.signatures[n_sigs:]:
        signatures.setdefault(sig.name, sig)
    for ext in vocab.extensions[n_exts:]:
        extensions.setdefault(ext.type_name, ext)
    sizes = (len(vocab.types), len(vocab.direct_edges), len(vocab.signatures), len(vocab.extensions))
    return _Index(types, signatures, extensions, supertypes, sizes)


def _declared(vocab: Vocabulary, **fields) -> Vocabulary:
    """A copy of `vocab` with the given fields extended, indexed by
    extending `vocab`'s index."""
    extended = replace(vocab, **fields)
    object.__setattr__(extended, "_index", _extend_index(_index_of(vocab), extended))
    return extended


def type_predicate_signature(type_name: str) -> Signature:
    return Signature(type_name, (UNIVERSE,), BOOL, builtin=True)


def equality_signature(type_name: str) -> Signature:
    return Signature(f"{EQUALITY}_{type_name}", (type_name, type_name), BOOL, builtin=True)


def base_vocabulary() -> Vocabulary:
    """The vocabulary containing only the built-in types and symbols."""
    types = tuple(TypeSymbol(n, builtin=True) for n in BUILTIN_TYPES)
    edges = tuple((n, UNIVERSE) for n in (BOOL, NAT, CONCEPT))
    arith = tuple(Signature(op, (NAT, NAT), NAT, builtin=True) for op in ARITHMETIC)
    return Vocabulary(types=types, direct_edges=edges, signatures=arith, extensions=())


# -- declaration operations -----------------------------------------------------


def declare_type(
    vocab: Vocabulary,
    name: str,
    supertypes: list[str] | tuple[str, ...] = (),
    extension: ConceptExtension | None = None,
) -> Vocabulary:
    """Add a type. Without supertypes the type sits directly below Universe.
    A name `resolve` already answers, `=_T` included, is taken.

    An extension is only legal when every declared supertype lies below
    Concept; its members must already be declared.
    """
    if vocab.has_type(name):
        raise DuplicateType(f"type {name!r} is already declared")
    if vocab.resolve(name) is not None:
        raise DuplicateType(f"{name!r} is already a symbol name")
    equality = f"{EQUALITY}_{name}"
    if vocab.signature(equality) is not None:
        raise DuplicateType(f"type {name!r} would shadow symbol {equality!r}")
    if name in supertypes:
        raise CyclicSubtyping(f"type {name!r} cannot be its own supertype")
    for sup in supertypes:
        if not vocab.has_type(sup):
            raise UnknownSupertype(f"unknown supertype {sup!r} for type {name!r}")
    if extension is not None:
        if not supertypes:
            raise ExtensionOnNonConceptType(
                f"type {name!r} declares an extension but is not below {CONCEPT}"
            )
        for sup in supertypes:
            if not is_subtype(vocab, sup, CONCEPT):
                raise ExtensionOnNonConceptType(
                    f"type {name!r} declares an extension but supertype {sup!r} "
                    f"is not below {CONCEPT}"
                )
        for member in extension.members:
            if not vocab.has_type(member) and vocab.signature(member) is None:
                raise UnknownExtensionMember(
                    f"extension of {name!r} names undeclared {member!r}"
                )
        extension = replace(extension, type_name=name)

    new_edges = tuple((name, sup) for sup in supertypes) or ((name, UNIVERSE),)
    return _declared(
        vocab,
        types=vocab.types + (TypeSymbol(name),),
        direct_edges=vocab.direct_edges + new_edges,
        extensions=vocab.extensions + ((extension,) if extension else ()),
    )


def declare_symbol(
    vocab: Vocabulary,
    name: str,
    argument_types: list[str] | tuple[str, ...],
    result_type: str,
) -> Vocabulary:
    """Add a function or predicate symbol (predicate iff result is Bool).
    A name `resolve` already answers is taken, the `=_T` equality of a
    declared type T included."""
    if vocab.resolve(name) is not None:
        raise DuplicateSymbol(f"symbol {name!r} is already declared")
    for t in tuple(argument_types) + (result_type,):
        if not vocab.has_type(t):
            raise UnknownType(f"unknown type {t!r} in signature of {name!r}")
    sig = Signature(name, tuple(argument_types), result_type)
    return _declared(vocab, signatures=vocab.signatures + (sig,))


# -- subtyping queries -------------------------------------------------------------


def _ancestor_set(vocab: Vocabulary, name: str) -> frozenset[str]:
    """`name` and every type above it. The set is cached only when `name`
    and all its ancestors are declared, so a cached set answers `is_subtype`
    without a `has_type` test."""
    cached = vocab._ancestors.get(name)
    if cached is not None:
        return cached
    index = _index_of(vocab)
    seen = {name}
    frontier = [name]
    while frontier:
        for sup in index.supertypes.get(frontier.pop(), ()):
            if sup not in seen:
                seen.add(sup)
                frontier.append(sup)
    result = frozenset(seen)
    if result <= index.types.keys():
        vocab._ancestors[name] = result
    return result


def is_subtype(vocab: Vocabulary, sub: str, super_: str) -> bool:
    """Reflexive-transitive subtyping: sub = super or a directed path of
    declared edges leads from sub to super. An unknown `sub` raises
    UnknownType before an unknown `super_` does."""
    ancestors = vocab._ancestors.get(sub)
    if ancestors is None:
        if not vocab.has_type(sub):
            raise UnknownType(f"unknown type {sub!r}")
        ancestors = _ancestor_set(vocab, sub)
    elif super_ in ancestors:
        return True
    if not vocab.has_type(super_):
        raise UnknownType(f"unknown type {super_!r}")
    return super_ in ancestors


def is_strict_subtype(vocab: Vocabulary, sub: str, super_: str) -> bool:
    return sub != super_ and is_subtype(vocab, sub, super_)


def least_common_supertype(vocab: Vocabulary, a: str, b: str) -> str:
    """A deterministic minimal common supertype of a and b.

    Universe is always a candidate, so this never fails; among minimal
    candidates the lexicographically smallest name wins.
    """
    common = _ancestor_set(vocab, a) & _ancestor_set(vocab, b)
    minimal = [
        t for t in common
        if not any(other != t and is_subtype(vocab, other, t) for other in common)
    ]
    return sorted(minimal)[0]


# -- concepts -----------------------------------------------------------------------


def concept_universe(vocab: Vocabulary) -> tuple[ConceptObject, ...]:
    """All concepts of the vocabulary: one ~T per type, one ~T^ per type
    predicate, one ~s per symbol (built-ins and equality included)."""
    objs: list[ConceptObject] = []
    for t in vocab.types:
        objs.append(ConceptObject(t.name, is_type=True))
    for t in vocab.types:
        objs.append(ConceptObject(t.name + TYPE_PREDICATE_MARK))
    for sig in vocab.signatures:
        objs.append(ConceptObject(sig.name))
    for t in vocab.types:
        objs.append(ConceptObject(equality_signature(t.name).name))
    return tuple(objs)


def resolve_concept(vocab: Vocabulary, name: str) -> ConceptObject | None:
    """Resolve a surface name to its concept: a type name denotes the type's
    own concept, a symbol name the symbol's; "T^" names a type predicate."""
    if vocab.has_type(name):
        return ConceptObject(name, is_type=True)
    if name.endswith(TYPE_PREDICATE_MARK) and vocab.has_type(name[:-1]):
        return ConceptObject(name)
    if vocab.signature(name) is not None:
        return ConceptObject(name)
    return None


def deref_signature(vocab: Vocabulary, obj: ConceptObject) -> Signature | None:
    """The signature applied when a concept is dereferenced: symbols apply
    themselves, types and type predicates apply the type predicate."""
    if obj.is_type:
        return type_predicate_signature(obj.name)
    if obj.name.endswith(TYPE_PREDICATE_MARK) and vocab.has_type(obj.name[:-1]):
        return type_predicate_signature(obj.name[:-1])
    return vocab.resolve(obj.name)


# -- validation -----------------------------------------------------------------------


def validate(vocab: Vocabulary) -> ValidationReport:
    """Re-check every vocabulary invariant, reporting violations instead of
    raising. Vocabularies built through declare_* always pass."""
    report = ValidationReport()
    names = [t.name for t in vocab.types]
    for n in names:
        if names.count(n) > 1:
            report.add("DuplicateType", f"type {n!r} declared more than once", n)
        if n.startswith(EQUALITY + "_") and n[2:] in names:
            report.add("DuplicateType", f"type {n!r} collides with the equality of {n[2:]!r}", n)
    for builtin in BUILTIN_TYPES:
        if builtin not in names:
            report.add("MissingBuiltin", f"built-in type {builtin!r} missing")

    for sub, sup in vocab.direct_edges:
        for end in (sub, sup):
            if end not in names:
                report.add("UnknownType", f"edge endpoint {end!r} undeclared", f"{sub} <: {sup}")
    if any(sub == UNIVERSE for sub, _ in vocab.direct_edges):
        report.add("UniverseSupertype", f"{UNIVERSE} must not have a supertype")

    # acyclicity via depth-first search over declared edges
    colors: dict[str, int] = {}

    def visit(node: str) -> bool:
        colors[node] = 1
        for sup in _index_of(vocab).supertypes.get(node, ()):
            state = colors.get(sup, 0)
            if state == 1:
                return False
            if state == 0 and not visit(sup):
                return False
        colors[node] = 2
        return True

    for n in names:
        if colors.get(n, 0) == 0 and not visit(n):
            report.add("CyclicSubtyping", "subtype graph has a cycle", n)
            break

    if report.violations:
        return report  # subtype queries below assume a sane graph

    for n in names:
        if n != UNIVERSE and not is_subtype(vocab, n, UNIVERSE):
            report.add("NotBelowUniverse", f"type {n!r} does not reach {UNIVERSE}", n)
        pred = vocab.signature(n)
        if pred is None or pred.argument_types != (UNIVERSE,) or pred.result_type != BOOL:
            report.add("MissingTypePredicate", f"type predicate for {n!r} malformed", n)

    seen_symbols: set[str] = set()
    for sig in vocab.signatures:
        if sig.name in seen_symbols:
            report.add("DuplicateSymbol", f"symbol {sig.name!r} declared more than once", sig.name)
        seen_symbols.add(sig.name)
        if sig.name in names:
            report.add("DuplicateSymbol", f"symbol {sig.name!r} collides with a type", sig.name)
        if not sig.builtin and sig.name.startswith(EQUALITY + "_") and sig.name[2:] in names:
            report.add(
                "DuplicateSymbol",
                f"symbol {sig.name!r} collides with the equality of type {sig.name[2:]!r}",
                sig.name,
            )
        for t in sig.argument_types + (sig.result_type,):
            if t not in names:
                report.add("UnknownType", f"signature of {sig.name!r} uses unknown type {t!r}", sig.name)

    for op in ARITHMETIC:
        if vocab.signature(op) != Signature(op, (NAT, NAT), NAT, builtin=True):
            report.add("MissingBuiltin", f"arithmetic symbol {op!r} missing or malformed")

    for ext in vocab.extensions:
        if ext.type_name not in names:
            report.add("UnknownType", f"extension on undeclared type {ext.type_name!r}", ext.type_name)
            continue
        if not is_strict_subtype(vocab, ext.type_name, CONCEPT):
            report.add(
                "ExtensionOnNonConceptType",
                f"type {ext.type_name!r} has an extension but is not below {CONCEPT}",
                ext.type_name,
            )
        for member in ext.members:
            if resolve_concept(vocab, member) is None:
                report.add(
                    "UnknownExtensionMember",
                    f"extension of {ext.type_name!r} names undeclared {member!r}",
                    ext.type_name,
                )
    return report
