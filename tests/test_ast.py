import random

import pytest

from generators import FUZZ_FREE_VARS, fuzz_vocabulary, random_formula
from gosil import ast
from gosil.parser import parse_formula

LEAVES = (ast.Variable, ast.NatLiteral, ast.ConceptRef, ast.Truth)


def reachable(root):
    todo = [root]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(ast.children(node))


def test_children_rebuild_round_trip():
    vocab = fuzz_vocabulary()
    rng = random.Random(20_261_018)
    for _ in range(1000):
        generated = random_formula(rng, vocab, list(FUZZ_FREE_VARS), depth=4)
        # parsed back, every node carries a source location
        f = parse_formula(ast.format_formula(generated), vocab, FUZZ_FREE_VARS)
        nodes = list(reachable(f))
        assert len(list(ast.walk(f))) == len(nodes)
        for node in nodes:
            rebuilt = ast.rebuild(node, ast.children(node))
            assert rebuilt == node and type(rebuilt) is type(node)
            if isinstance(node, LEAVES):
                assert rebuilt is node
            else:
                assert node.loc is not None and rebuilt.loc is None


@pytest.mark.parametrize("value", [42, "p", None, ast.Axiom("a", ast.Truth(True))])
def test_non_nodes_raise_type_error(value):
    with pytest.raises(TypeError):
        ast.children(value)
    with pytest.raises(TypeError):
        ast.rebuild(value, ())
    for walker in (ast.free_variables, ast.atom_count):
        with pytest.raises(TypeError):
            walker(value)
