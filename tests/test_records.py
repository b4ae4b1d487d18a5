"""The contract of `errors.record` classes, the slotted frozen dataclasses
of the syntax, the checker and the elaborator: they refuse assignment,
carry no `__dict__`, compare and hash by their fields but `loc`, and work
with `dataclasses.replace` and positional class patterns."""

from dataclasses import FrozenInstanceError, field, fields, replace

import pytest

from gosil import ast
from gosil.elaboration import GuardTarget
from gosil.errors import Location, record
from gosil.parser import Token, tokenize
from gosil.typecheck import TermEntry, TypingContext, TypingDerivation, VarEntry
from gosil.vocabulary import ConceptObject, base_vocabulary, declare_type

X = ast.Variable("x")
P = ast.Atom("p", (X,))
Q = ast.Atom("q", ())
LOC = Location(3, 4)

SAMPLES = [
    X,
    ast.Apply("f", (X,)),
    ast.NatLiteral(3),
    ast.ConceptRef(ConceptObject("p")),
    ast.Deref(X, (X,)),
    ast.Truth(True),
    P,
    ast.DerefAtom(X, (X,)),
    ast.Not(P),
    ast.And(P, Q),
    ast.Or(P, Q),
    ast.Implies(P, Q),
    ast.Iff(P, Q),
    ast.Exists("x", "A", P),
    ast.Forall("x", "A", P),
    ast.GuardC(P),
    ast.GuardI(P),
    ast.Axiom("a", P),
    ast.ConceptFact("f", (ConceptObject("A", is_type=True),), ConceptObject("p")),
    LOC,
    VarEntry("x", "A"),
    TermEntry(X, "A"),
    TypingContext(declare_type(base_vocabulary(), "A"), (VarEntry("x", "A"),)),
    TypingDerivation("T-tr", ast.Truth(True), "Bool"),
    GuardTarget(X, "Cat", "Animal"),
]


def _id(sample) -> str:
    return type(sample).__name__


def test_every_node_class_is_sampled():
    nodes = {
        value for value in vars(ast).values()
        if isinstance(value, type) and issubclass(value, (ast.Term, ast.Formula))
    }
    assert nodes - {ast.Term, ast.Formula} <= {type(s) for s in SAMPLES}


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_records_refuse_assignment_and_deletion(sample):
    assert type(sample).__dataclass_params__.frozen
    for f in fields(sample):
        with pytest.raises(FrozenInstanceError):
            setattr(sample, f.name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(sample, f.name)
    # any other name is refused too
    with pytest.raises(FrozenInstanceError):
        sample.undeclared = None
    with pytest.raises(FrozenInstanceError):
        del sample.undeclared
    assert not hasattr(sample, "undeclared")


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_records_have_no_instance_dict(sample):
    assert not hasattr(sample, "__dict__")


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_records_compare_and_hash_by_their_fields_but_loc(sample):
    copy = replace(sample)
    assert copy is not sample and copy == sample and hash(copy) == hash(sample)
    if "loc" in {f.name for f in fields(sample)}:
        moved = replace(sample, loc=LOC)
        assert moved.loc == LOC and moved == sample and hash(moved) == hash(sample)
    assert repr(sample).startswith(f"{type(sample).__name__}(")


def test_records_of_different_classes_differ():
    assert ast.And(P, Q) != ast.Or(P, Q)
    assert ast.Exists("x", "A", P) != ast.Forall("x", "A", P)
    assert ast.GuardC(P) != ast.GuardI(P)
    assert len({ast.And(P, Q), ast.Or(P, Q), ast.And(P, Q, loc=LOC)}) == 2


@pytest.mark.parametrize("sample", SAMPLES, ids=_id)
def test_records_replace_and_match_by_position(sample):
    names = [f.name for f in fields(sample)]
    assert type(sample).__match_args__ == tuple(names)
    first = names[0]
    changed = replace(sample, **{first: "other"})
    assert type(changed) is type(sample) and getattr(changed, first) == "other"
    assert all(getattr(changed, n) == getattr(sample, n) for n in names[1:])


def test_class_patterns_with_positional_fields():
    match ast.And(P, ast.Not(Q), loc=LOC):
        case ast.And(ast.Atom("p", (ast.Variable(name),)), ast.Not(body)):
            assert (name, body) == ("x", Q)
        case _:
            pytest.fail("no match")
    match TypingDerivation("T-sub", X, "A", (TypingDerivation("T-var", X, "B"),)):
        case TypingDerivation(rule, _, type_name, (TypingDerivation("T-var", _, below),)):
            assert (rule, type_name, below) == ("T-sub", "A", "B")
        case _:
            pytest.fail("no match")


def test_record_keeps_defaults_and_refuses_other_fields():
    assert ast.Apply("c") == ast.Apply("c", ()) and ast.Apply("c").loc is None
    assert TypingDerivation("T-tr", ast.Truth(True), "Bool").note is None
    with pytest.raises(TypeError):
        ast.Not()
    with pytest.raises(TypeError):
        @record
        class Cached:
            memo: dict = field(default_factory=dict)


def test_tokens_read_as_kind_text_and_location():
    first = tokenize("axiom a: p\n")[0]
    assert isinstance(first, Token)
    kind, text, loc = first
    assert (kind, text, loc) == ("kw", "axiom", Location(1, 1))
    assert (first.kind, first.text, first.loc) == (kind, text, loc)
    assert first == Token("kw", "axiom", Location(1, 1))
