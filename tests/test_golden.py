"""Golden corpus: the canonical JSON output and the text output of every CLI
subcommand, byte for byte.

The expected files under ``tests/golden/expected`` are checked in; these tests
only compare against them and never rewrite them.  A refactor that keeps
the mathematics must keep every one of these outputs identical.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from jetsym.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"


def _in(name: str) -> str:
    return str(INPUTS / name)


CASES = {
    "involutive-flat": ["involutive", "--system", _in("flat_n2.json")],
    "involutive-failure": ["involutive", "--system", _in("noninvolutive.json")],
    "symmetry-check-true": ["symmetry-check", "--system", _in("flat.json"), "--field", _in("projective.json")],
    "symmetry-check-false": [
        "symmetry-check", "--system", _in("linearizable.json"), "--field", _in("nonsymmetry.json"),
    ],
    "determining-flat": ["determining", "--system", _in("flat.json"), "--order", "3"],
    "determining-linearizable": ["determining", "--system", _in("linearizable.json"), "--order", "3"],
    "taylor-flat": ["taylor", "--system", _in("flat.json"), "--initial-data", _in("omega.json"), "--order", "4"],
    "taylor-linearizable": [
        "taylor", "--system", _in("linearizable.json"), "--initial-data", _in("omega.json"), "--order", "4",
    ],
    "taylor-linearizable-point": [
        "taylor", "--system", _in("linearizable.json"), "--initial-data", _in("omega.json"),
        "--point", "1,-1/2",
    ],
    "symmetry-algebra-flat": ["symmetry-algebra", "--system", _in("flat_n2.json")],
    "symmetry-algebra-linearizable": ["symmetry-algebra", "--system", _in("linearizable.json"), "--order", "4"],
    "flat-algebra-2-1": ["flat-algebra", "--n", "2", "--m", "1"],
    "bracket": ["bracket", "--field", _in("translation.json"), "--field2", _in("projective.json")],
    "closure-flat-2-2": ["closure", "--n", "2", "--m", "2"],
    "closure-basis-sl2": ["closure", "--basis", _in("sl2_basis.json")],
    "segre-derive-plain": ["segre-derive", "--signature", "+-"],
    "segre-derive-perturbed": [
        "segre-derive", "--signature", "+-", "--perturbation", "x1^2*s1^2 + x2*u1*s3", "--order", "6",
    ],
    # A product of two unknowns (s1*s2) with a non-constant kept part and
    # deep layers: pins the series solve's multi-unknown patterns.
    "segre-derive-deep": [
        "segre-derive", "--signature", "+-", "--perturbation", "x1^2*s1^2 + x2*u1*s3 + x1*s1*s2", "--order", "12",
    ],
    "cr-aut-+": ["cr-aut", "--signature", "+"],
    "cr-aut-+-": ["cr-aut", "--signature", "+-"],
    "cr-aut-++-": ["cr-aut", "--signature", "++-"],
    "totally-real-+": ["totally-real", "--signature", "+"],
    "totally-real-+-": ["totally-real", "--signature", "+-"],
    "totally-real-++-": ["totally-real", "--signature", "++-"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    rc = main(CASES[name] + ["--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    expected = (GOLDEN / "expected" / f"{name}.json").read_text(encoding="utf-8")
    assert out == expected


TEXT_CASES = {
    **CASES,
    "determining-flat-n2": ["determining", "--system", _in("flat_n2.json"), "--order", "3"],
}


@pytest.mark.parametrize("name", sorted(TEXT_CASES))
def test_golden_text_output(capsys, name):
    rc = main(TEXT_CASES[name] + ["--format", "text"])
    out = capsys.readouterr().out
    assert rc == 0
    expected = (GOLDEN / "expected" / f"{name}.txt").read_text(encoding="utf-8")
    assert out == expected
