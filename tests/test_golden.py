"""Golden CLI transcripts: each command's exact output over the fixtures.

Diagnostics carry file:line:column, so these pin which source locations
survive grounding and guard elaboration as well as the printed formulas.
Run this file as a script from anywhere to rewrite the transcripts after
an intended change of output.
"""

import io
import os
from pathlib import Path

import pytest

from gosil.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

THEORIES = ("running_example", "sounds", "mixed_locations")

# transcript name -> (argv, relative to the repository root; exit code)
CASES = {}
for _name in THEORIES:
    _path = f"fixtures/{_name}.gos"
    CASES[f"{_name}.check"] = (("check", _path, "--trace", "--json"), 0 if _name == "sounds" else 1)
    CASES[f"{_name}.ground"] = (("ground", _path, "--trace"), 0)
    CASES[f"{_name}.elaborate"] = (("elaborate", _path), 0)
for _name in ("running_example", "sounds"):
    CASES[f"{_name}.eval"] = (
        ("eval", f"fixtures/{_name}.gos", "--structure", "fixtures/s0.str", "--json"),
        0 if _name == "sounds" else 1,
    )
_SOUNDS_MODELS = ("models", "fixtures/sounds.gos", "--bound", "Animal=2", "--nat-bound", "3")
CASES["sounds.models"] = (_SOUNDS_MODELS, 0)
CASES["sounds.models_limit"] = ((*_SOUNDS_MODELS, "--limit", "5"), 0)
CASES["running_example.models"] = (
    ("models", "fixtures/running_example.gos", "--bound", "Animal=1", "--nat-bound", "1"),
    1,
)


def transcript(argv) -> tuple[int, str]:
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # diagnostics print the path as given
    try:
        code = main(list(argv), out=out)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_transcript(name):
    argv, expected_code = CASES[name]
    code, output = transcript(argv)
    assert code == expected_code
    assert output == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__":
    for name, (argv, _) in sorted(CASES.items()):
        (GOLDEN / f"{name}.out").write_text(transcript(argv)[1], encoding="utf-8")
