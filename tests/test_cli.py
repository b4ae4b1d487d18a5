import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gosil.cli import main
from gosil.parser import parse_theory
from gosil.typecheck import check_sentence, derivation_to_dict

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_check_reports_per_axiom_verdicts(running_example_path):
    code, output = run("check", str(running_example_path))
    assert code == 1  # the corpus contains deliberately ill-typed axioms
    assert "cat_meowing: well-typed" in output
    assert "tom_barks: ill-typed" in output
    assert "expected Dog, found Cat" in output
    assert "any_sound: ill-typed" in output
    assert "sound_by_kind: well-typed" in output


def test_check_derivation_output(running_example_path):
    code, output = run("check", str(running_example_path), "--derivation")
    assert "T-ex ⊢ ?a[Animal]: Cat(a) & meow(a) : Bool  [1 premise]" in output
    assert "  G-c ⊢ Cat(a) & meow(a) : Bool  [2 premises]" in output


def test_check_trace_shows_grounding_chain(running_example_path):
    code, output = run("check", str(running_example_path), "--trace")
    assert (
        "any_sound: grounded concept quantifiers: "
        "!a[Animal]: makingSound(a) <=> $(`meow)(a) | $(`bark)(a)" in output
    )
    assert (
        "any_sound: eliminated intensional terms: "
        "!a[Animal]: makingSound(a) <=> meow(a) | bark(a)" in output
    )


def test_check_json(running_example_path):
    code, output = run("check", str(running_example_path), "--json")
    payload = json.loads(output.splitlines()[-1])
    verdicts = {a["label"]: a["verdict"] for a in payload["axioms"]}
    assert verdicts["cat_meowing"] == "well-typed"
    assert verdicts["tom_barks"] == "ill-typed"
    errors = {a["label"]: a["error"] for a in payload["axioms"]}
    assert errors["tom_barks"]["kind"] == "ArgumentTypeMismatch"
    assert errors["tom_barks"]["expected"] == "Dog"
    assert errors["tom_barks"]["line"] is not None


def test_elaborate_command(running_example_path):
    code, output = run("elaborate", str(running_example_path))
    assert code == 0
    assert "implicit_meow: ?a[Animal]: Cat(a) & meow(a)" in output
    assert (
        "each_its_sound: !a[Animal]: (Cat(a) => meow(a)) & (Dog(a) => bark(a))"
        in output
    )


def test_ground_command(running_example_path):
    code, output = run("ground", str(running_example_path))
    assert code == 0
    assert "any_sound: !a[Animal]: makingSound(a) <=> meow(a) | bark(a)" in output
    assert (
        "sound_by_kind: !a[Animal]: makingSound(a) <=> Cat(a) & meow(a) | Dog(a) & bark(a)"
        in output
    )


def test_eval_all_true(sounds_path, s0_path):
    code, output = run("eval", str(sounds_path), "--structure", str(s0_path))
    assert code == 0
    lines = [l for l in output.splitlines() if l]
    assert all(line.endswith(": true") for line in lines)


def test_eval_reports_ill_typed(running_example_path, s0_path):
    code, output = run("eval", str(running_example_path), "--structure", str(s0_path))
    assert code == 1
    assert "tom_barks: error" in output
    assert "cat_meowing: true" in output


def test_kinded_wrapper_agrees_across_commands(tmp_path):
    # a concept quantifier inside a guard wrapper: check grounds it whole,
    # and eval and models must ground each wrapper instance the same way
    theory = tmp_path / "kinded.gos"
    theory.write_text(
        "type Animal\ntype Cat <: Animal\ntype Dog <: Animal\n"
        "type Kind <: Concept := { Cat, Dog }\npred meow : Cat\npred bark : Dog\n"
        "axiom kinded: !a[Animal]: <<c: ?k[Kind]: $(k)(a)>>\n"
    )
    structure = tmp_path / "kinded.str"
    structure.write_text(
        "type Animal = { t, d }\ntype Cat = { t }\ntype Dog = { d }\n"
        "interp meow = { t }\ninterp bark = { d }\n"
    )
    code, output = run("check", str(theory))
    assert code == 0
    assert output.startswith("kinded: well-typed\n")
    assert run("eval", str(theory), "--structure", str(structure)) == (0, "kinded: true\n")
    code, output = run("models", str(theory), "--bound", "Animal=1")
    assert code == 0
    assert output.endswith("// 4 model(s)\n")


def test_models_command(tmp_path):
    theory = tmp_path / "t.gos"
    theory.write_text("type T\npred p : T\naxiom some: ?x[T]: p(x)\n")
    code, output = run("models", str(theory), "--bound", "T=1")
    assert code == 0
    assert "// model 1" in output
    assert "type T = { t0 }" in output
    assert "interp p = { (t0) }" in output
    assert output.strip().endswith("model(s)")


def test_models_unsat_exit_code(tmp_path):
    theory = tmp_path / "t.gos"
    theory.write_text("type T\naxiom no: false\n")
    code, output = run("models", str(theory), "--bound", "T=1")
    assert code == 1
    assert "// 0 model(s)" in output


def test_models_bound_errors_exit_one(sounds_path):
    code, output = run("models", str(sounds_path))
    assert code == 1
    assert "error: BoundMissing: no domain bound for maximal type 'Animal'" in output
    code, output = run(
        "models", str(sounds_path), "--bound", "Animal=2", "--nat-bound", "3", "--cap", "10"
    )
    assert code == 1
    assert "error: ExplosionGuard: search space of" in output


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.gos"
    bad.write_text("type Cat\npred meow : Cat\nconst tom : Cat\naxiom b: meow(tom,\n")
    code, output = run("check", str(bad))
    assert code == 2
    assert "error:" in output
    assert "bad.gos" in output


def test_missing_file_exit_code(tmp_path):
    code, output = run("check", str(tmp_path / "nope.gos"))
    assert code == 2


def test_byte_identical_reruns(running_example_path, sounds_path, s0_path):
    for argv in (
        ("check", str(running_example_path), "--derivation", "--trace"),
        ("ground", str(running_example_path), "--trace"),
        ("elaborate", str(running_example_path)),
        ("eval", str(sounds_path), "--structure", str(s0_path), "--json"),
    ):
        assert run(*argv) == run(*argv)


def test_check_json_with_derivation(running_example_path):
    code, output = run("check", str(running_example_path), "--derivation", "--json")
    payload = json.loads(output.splitlines()[-1])
    by_label = {a["label"]: a for a in payload["axioms"]}
    tree = by_label["cat_meowing"]["derivation"]
    assert tree["rule"] == "T-ex"
    assert tree["children"][0]["rule"] == "G-c"


_JSON_RUNS = [
    *(("check", f"{name}.gos", "--json", "--derivation")
      for name in ("running_example", "sounds", "mixed_locations")),
    *(("eval", f"{name}.gos", "--structure", "s0.str", "--json") for name in ("running_example", "sounds")),
]


@pytest.mark.parametrize("argv", _JSON_RUNS, ids=" ".join)
def test_json_payloads_are_the_text_of_json_dumps(argv):
    # the payload is written from an explicit stack, in the very bytes
    # json.dumps(..., sort_keys=True) would write
    command, theory, *options = argv
    options = [str(FIXTURES / option) if option.endswith(".str") else option for option in options]
    line = run(command, str(FIXTURES / theory), *options)[1].splitlines()[-1]
    assert line == json.dumps(json.loads(line), sort_keys=True)


def test_json_payloads_escape_as_json_dumps_does(tmp_path):
    # names outside ASCII reach the labels, expressions and messages
    theory = tmp_path / "umlaut.gos"
    theory.write_text(
        "type Kätze\nconst tōm : Kätze\npred miau : Kätze\n"
        "axiom größe: miau(tōm)\naxiom schlecht: miau(3)\n", encoding="utf-8")
    code, output = run("check", str(theory), "--json", "--derivation")
    line = output.splitlines()[-1]
    assert code == 1 and "\\u00f6" in line
    assert line == json.dumps(json.loads(line), sort_keys=True)


def test_check_json_derivation_of_a_deep_theory(tmp_path):
    # 3000 nested negations nest their derivation records 3000 deep, beyond
    # what json.dumps can write under the default recursion limit
    theory = tmp_path / "deep.gos"
    theory.write_text("axiom deep: " + "~" * 3000 + "true\n")
    code, output = run("check", str(theory), "--json", "--derivation")
    assert code == 0
    # the expected text, spelled one record at a time down the chain
    parsed = parse_theory(theory.read_text())
    node = derivation_to_dict(check_sentence(parsed, parsed.axioms[0].formula))
    hole = "\0"
    record = {"derivation": hole, "error": None, "label": "deep", "verdict": "well-typed"}
    prefix, suffix = json.dumps({"command": "check", "axioms": [record]}, sort_keys=True).split(
        json.dumps(hole))
    prefixes, suffixes = [prefix], [suffix]
    while node is not None:
        (child,) = node["children"] or (None,)
        before, after = json.dumps({**node, "children": [hole] if child else []},
                                   sort_keys=True).partition(json.dumps(hole))[::2]
        prefixes.append(before)
        suffixes.append(after)
        node = child
    assert output.splitlines()[-1] == "".join(prefixes) + "".join(reversed(suffixes))


def test_eval_with_nat_bound(tmp_path):
    theory = tmp_path / "t.gos"
    theory.write_text(
        "type A\nconst c : A\nfunc size : A -> Nat\naxiom some: ?n[Nat]: size(c) = n\n"
    )
    structure = tmp_path / "t.str"
    structure.write_text("type A = { x }\ninterp c = { () -> x }\ninterp size = { (x) -> 2 }\n")
    code, output = run("eval", str(theory), "--structure", str(structure), "--nat-bound", "3")
    assert code == 0
    assert "some: true" in output
    code, output = run("eval", str(theory), "--structure", str(structure))
    assert code == 1
    assert "UnboundedNatQuantifier" in output


def middle_theory(tmp_path, middle: str) -> Path:
    """A theory of three axioms whose middle one, on line 7, is `middle`."""
    theory = tmp_path / "middle.gos"
    theory.write_text(
        "type A\nconst a : A\ntype Cat <: A\ntype Dog <: A\npred meow : Cat\n"
        "axiom first: true\n"
        f"axiom middle: {middle}\n"
        "axiom last: ?x[A]: x = a\n"
    )
    return theory


UNGROUNDABLE = "?c[Concept]: $(c)(a, a)"
UNELABORABLE = "!d[Dog]: <<i: meow(d)>>"


@pytest.mark.parametrize(
    "middle, kind",
    [(UNGROUNDABLE, "GroundArityError"), (UNELABORABLE, "IncomparableTypes")],
    ids=["grounding", "elaboration"],
)
def test_check_reports_grounding_and_elaboration_errors_per_axiom(tmp_path, middle, kind):
    # the middle axiom fails to ground or to elaborate: the checker still
    # reaches the last one and prints the JSON payload
    theory = middle_theory(tmp_path, middle)
    code, output = run("check", str(theory), "--json")
    assert code == 1
    lines = output.splitlines()
    assert lines[:2] == ["first: well-typed", "middle: ill-typed"]
    assert lines[2].startswith(f"{theory}:7:1: error: {kind}: ")
    assert lines[3] == "last: well-typed"
    payload = json.loads(lines[-1])
    verdicts = [(a["label"], a["verdict"]) for a in payload["axioms"]]
    assert verdicts == [("first", "well-typed"), ("middle", "ill-typed"), ("last", "well-typed")]
    error = payload["axioms"][1]["error"]
    assert (error["kind"], error["line"], error["column"]) == (kind, 7, 1)
    assert (error["expected"], error["found"]) == (None, None)


@pytest.mark.parametrize(
    "argv, middle, kind",
    [
        (["elaborate"], UNELABORABLE, "IncomparableTypes"),
        (["ground"], UNGROUNDABLE, "GroundArityError"),
        (["ground", "--trace"], UNELABORABLE, "IncomparableTypes"),
    ],
    ids=["elaborate", "ground", "ground-trace"],
)
def test_elaborate_and_ground_report_a_failing_axiom_and_go_on(tmp_path, argv, middle, kind):
    # the middle axiom ends in its located diagnostic, and the last one is
    # still printed
    theory = middle_theory(tmp_path, middle)
    code, output = run(*argv, str(theory))
    assert code == 1
    step = "original: " if "--trace" in argv else ""
    first, error, last = output.splitlines()
    assert (first, last) == (f"first: {step}true", f"last: {step}?x[A]: x = a")
    assert error.startswith(f"{theory}:7:1: error: {kind}: ")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_eval_reports_a_false_axiom_with_exit_one(tmp_path, as_json):
    theory = tmp_path / "t.gos"
    theory.write_text(
        "type A\nconst a : A\npred p : A\n"
        "axiom some: ?x[A]: x = a\naxiom none: p(a)\naxiom last: true\n"
    )
    structure = tmp_path / "t.str"
    structure.write_text("type A = { x }\ninterp a = { () -> x }\ninterp p = { }\n")
    argv = ["eval", str(theory), "--structure", str(structure)] + ["--json"] * as_json
    code, output = run(*argv)
    assert code == 1
    lines = output.splitlines()
    assert lines[:3] == ["some: true", "none: false", "last: true"]
    if as_json:
        payload = json.loads(lines[3])
        verdicts = [(a["label"], a["verdict"], a["error"]) for a in payload["axioms"]]
        assert verdicts == [("some", "true", None), ("none", "false", None), ("last", "true", None)]
    assert len(lines) == 3 + as_json


def test_internal_error_is_one_line_with_exit_three(monkeypatch, running_example_path):
    from gosil import cli

    def broken(args, out):
        raise RuntimeError("the walker broke\nin two lines")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, output = run("check", str(running_example_path))
    assert code == 3
    message = "the walker broke in two lines"
    assert output == f"{running_example_path}: internal error: RuntimeError: {message}\n"


def test_deep_input_ends_without_a_traceback(tmp_path):
    # the parser reads the `~` run in a loop and the type checker folds it
    # on an explicit stack: it checks
    theory = tmp_path / "deep.gos"
    theory.write_text("axiom deep: " + "~" * 3000 + "true\n")
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-m", "gosil.cli", "check", str(theory)],
        capture_output=True, text=True, env=env,
    )
    assert done.returncode == 0
    assert "Traceback" not in done.stderr
    assert done.stdout == "deep: well-typed\n"


_NUMERAL_THEORY = "type A\nconst a : A\npred p : Nat\nfunc f : A -> Nat\naxiom x: p({})\n"
_NUMERAL_STRUCTURE = "type A = {{ x }}\ninterp a = {{ () -> x }}\ninterp f = {{ (x) -> {} }}\n"


@pytest.mark.parametrize(
    "value, message",
    [("²", "unexpected character '²'"), ("7" * 5000, "numeral of 5000 digits is too long")],
    ids=["superscript", "5000-digits"],
)
def test_malformed_numerals_are_parse_errors(tmp_path, value, message):
    theory = tmp_path / "t.gos"
    theory.write_text(_NUMERAL_THEORY.format(value))
    code, output = run("check", str(theory))
    assert (code, output) == (2, f"{theory}:5:12: error: ParseError: {message}\n")

    theory.write_text(_NUMERAL_THEORY.format(3))
    structure = tmp_path / "s.str"
    structure.write_text(_NUMERAL_STRUCTURE.format(value))
    code, output = run("eval", str(theory), "--structure", str(structure))
    assert (code, output) == (2, f"{structure}:3:21: error: ParseError: {message}\n")

    code, output = run("models", str(theory), "--bound", f"A={value}")
    if value == "²":
        message = "bad --bound 'A=²'; expected TYPE=N"
    assert (code, output) == (2, f"--bound: error: ParseError: {message}\n")


def test_decimal_digits_of_any_script_read_as_numbers(tmp_path):
    theory = tmp_path / "t.gos"
    structure = tmp_path / "s.str"
    for axiom_value, row_value in (("٣", "3"), ("3", "٣")):
        theory.write_text(_NUMERAL_THEORY.format(axiom_value) + "axiom y: f(a) = ٣\n")
        structure.write_text(_NUMERAL_STRUCTURE.format(row_value) + "interp p = { 3 }\n")
        code, output = run("eval", str(theory), "--structure", str(structure))
        assert (code, output) == (0, "x: true\ny: true\n")
    theory.write_text("type A\npred q : A\naxiom some: ?y[A]: q(y)\n")
    code, output = run("models", str(theory), "--bound", "A=٣")
    assert (code, output) == run("models", str(theory), "--bound", "A=3")
    assert output.endswith("// 7 model(s)\n")


def test_structure_file_errors_name_the_structure_file(running_example_path, tmp_path):
    structure = tmp_path / "bad.str"
    for text, where, diagnostic in (
        ("type Animal = { t }\ninterp age = { (t) 3 }\n", ":2:20", "ParseError: function rows need '-> result'"),
        ("interp nosuch = { }\n", ":1:8", "StructureError: unknown symbol 'nosuch'"),
        ("type Animal = { }\n", "", "StructureError: invalid structure: "),
    ):
        structure.write_text(text)
        code, output = run("eval", str(running_example_path), "--structure", str(structure))
        assert code == 2
        assert output.startswith(f"{structure}{where}: error: {diagnostic}"), output
        assert output.count("\n") == 1


def test_models_limit_zero_prints_no_model(sounds_path):
    argv = ("models", str(sounds_path), "--bound", "Animal=1", "--nat-bound", "3")
    assert run(*argv, "--limit", "0") == (1, "// 0 model(s)\n")
    code, output = run(*argv, "--limit", "1")
    assert code == 0 and output.endswith("// 1 model(s)\n")


def test_find_models_with_limit_zero_still_checks_the_search_space(sounds_path):
    from gosil.errors import ExplosionGuard
    from gosil.models import find_models
    from gosil.parser import parse_theory

    theory = parse_theory(sounds_path.read_text())
    assert find_models(theory, {"Animal": 1}, limit=0, nat_bound=3) == []
    with pytest.raises(ExplosionGuard):
        find_models(theory, {"Animal": 2}, limit=0, nat_bound=3, explosion_cap=10)


@pytest.mark.parametrize("option", ["--nat-bound", "--limit", "--cap"])
@pytest.mark.parametrize("value", ["-1", "3_0", "+3", " 3", "", "²", "7" * 5000])
def test_models_numeric_options_are_counts(sounds_path, capsys, option, value):
    with pytest.raises(SystemExit) as exited:
        run("models", str(sounds_path), "--bound", "Animal=1", option, value)
    assert exited.value.code == 2
    assert f"error: argument {option}: " in capsys.readouterr().err


def test_eval_nat_bound_is_a_count(running_example_path, s0_path, capsys):
    with pytest.raises(SystemExit) as exited:
        run("eval", str(running_example_path), "--structure", str(s0_path), "--nat-bound", "-2")
    assert exited.value.code == 2
    assert "error: argument --nat-bound: expected a count of decimal digits, found '-2'" in (
        capsys.readouterr().err
    )


def test_numeric_options_read_decimal_digits_of_any_script(sounds_path):
    argv = ("models", str(sounds_path), "--bound", "Animal=1")
    assert run(*argv, "--nat-bound", "٣", "--limit", "٢") == run(*argv, "--nat-bound", "3", "--limit", "2")


@pytest.mark.parametrize("command", ["ground", "elaborate"])
@pytest.mark.parametrize(
    "body", ["<<c: " + " & ".join(["p(a)"] * 5000) + ">>", "<<c: " + "~" * 3000 + "p(a)>>"],
    ids=["wrapped_and", "wrapped_not"],
)
def test_ground_and_elaborate_print_deep_wrapped_chains(tmp_path, command, body):
    theory = tmp_path / "deep.gos"
    theory.write_text(f"type A\nconst a : A\npred p : A\naxiom g: {body}\n")
    code, output = run(command, str(theory))
    assert code == 0
    assert output == f"g: {body[len('<<c: '):-len('>>')]}\n"


def test_check_names_the_dereference_head_that_does_not_reduce(tmp_path):
    # favourite(c) reduces only through a structure's graph: the diagnostic
    # names that head, located at the variable c that stops its reduction
    theory = tmp_path / "favourite.gos"
    theory.write_text(
        "type Animal\ntype Cat <: Animal\npred meow : Cat\n"
        "type Sound <: Concept := { meow }\nfunc favourite : Cat -> Sound\n"
        "axiom fav: !c[Cat]: $(favourite(c))(c)\n"
    )
    code, output = run("check", str(theory))
    assert code == 1
    assert output.splitlines() == [
        "fav: ill-typed",
        f"{theory}:6:33: error: UnresolvableDeref: "
        "dereference head favourite(c) does not reduce to a concept",
    ]
