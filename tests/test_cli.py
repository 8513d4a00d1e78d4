import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from jetsym.cli import build_parser, load_system, main
from jetsym.poly import poly_to_str

from helpers import budget, first_difference


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def flat_system_file(tmp_path):
    return write_json(tmp_path / "flat.json", {"n": 1, "m": 1, "entries": []})


@pytest.fixture
def up_system_file(tmp_path):
    # u'' = u' as a jet equation
    return write_json(
        tmp_path / "up.json",
        {"n": 1, "m": 1, "entries": [{"k": 1, "i": 1, "j": 1, "F": "p1_1"}]},
    )


def test_flat_algebra_json(capsys):
    rc, out, _ = run_cli(capsys, ["flat-algebra", "--n", "1", "--m", "1", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["dimension"] == 8
    assert doc["basis"][0]["name"] == "U1"


def test_involutive_flat(capsys, flat_system_file):
    rc, out, _ = run_cli(capsys, ["involutive", "--system", flat_system_file, "--format", "json"])
    assert rc == 0
    assert json.loads(out)["involutive"] is True


def test_involutive_failure_listed(capsys, tmp_path):
    path = write_json(
        tmp_path / "bad.json",
        {"n": 2, "m": 1, "entries": [{"k": 1, "i": 1, "j": 1, "F": "x2"}]},
    )
    rc, out, _ = run_cli(capsys, ["involutive", "--system", path, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["involutive"] is False
    assert doc["failures"][0] == {"k": 1, "i": 1, "j": 1, "l": 2, "difference": "1"}


def test_involutive_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(
        "sys.stdin", io.StringIO(json.dumps({"n": 1, "m": 1, "entries": []}))
    )
    rc, out, _ = run_cli(capsys, ["involutive", "--system", "-"])
    assert rc == 0
    assert "involutive: true" in out


def test_symmetry_check(capsys, up_system_file, tmp_path):
    good = write_json(tmp_path / "good.json", {"n": 1, "m": 1, "theta": ["1"], "eta": ["0"]})
    rc, out, _ = run_cli(capsys, ["symmetry-check", "--system", up_system_file, "--field", good, "--format", "json"])
    assert rc == 0
    assert json.loads(out)["symmetry"] is True

    bad = write_json(tmp_path / "bad.json", {"n": 1, "m": 1, "theta": ["0"], "eta": ["x1^2"]})
    rc, out, _ = run_cli(capsys, ["symmetry-check", "--system", up_system_file, "--field", bad, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["symmetry"] is False
    assert doc["nonzero_residuals"]


@pytest.mark.parametrize("where", ["system", "field"])
def test_symmetry_check_oversized_exponent_exits_one(capsys, tmp_path, where):
    big = "x1^99999999"
    system = write_json(
        tmp_path / "sys.json",
        {"n": 1, "m": 1, "entries": [{"k": 1, "i": 1, "j": 1, "F": big if where == "system" else "p1_1"}]},
    )
    field = write_json(
        tmp_path / "field.json", {"n": 1, "m": 1, "theta": ["1"], "eta": [big if where == "field" else "0"]}
    )
    rc, out, err = run_cli(capsys, ["symmetry-check", "--system", system, "--field", field])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: exponent 99999999 exceeds the limit 32 at offset 3")


@pytest.mark.parametrize("exponent, rc", [(16, 1), (8, 0)])
def test_oversized_expansion_exits_one_quickly(capsys, tmp_path, exponent, rc):
    F = f"(x1+x2+u1+u2+p1_1+p2_2)^{exponent}"
    system = write_json(tmp_path / "sys.json", {"n": 2, "m": 2, "entries": [{"k": 1, "i": 1, "j": 1, "F": F}]})
    field = write_json(tmp_path / "field.json", {"n": 2, "m": 2, "theta": ["1", "0"], "eta": ["0", "0"]})
    start = time.perf_counter()
    got, out, err = run_cli(capsys, ["symmetry-check", "--system", system, "--field", field])
    assert got == rc
    if rc:
        assert time.perf_counter() - start < 1.0
        assert out == ""
        assert err.startswith("error: power may have 20349 terms, over the limit")
    else:
        assert out.startswith("symmetry: ")


@pytest.mark.parametrize(
    "argv, what",
    [
        (["flat-algebra", "--n", "1000", "--m", "1"], "flat generator list"),
        (["flat-algebra", "--n", "1", "--m", "1000"], "flat generator list"),
        (["symmetry-algebra", "--system", "FLAT33", "--order", "40"], "symmetry ansatz"),
        (["cr-aut", "--signature=" + "+" * 200], "CR ansatz"),
        (["involutive", "--system", "HUGE"], "jet table"),
    ],
)
def test_oversized_job_exits_one_quickly(capsys, tmp_path, argv, what):
    files = {
        "FLAT33": write_json(tmp_path / "flat33.json", {"n": 3, "m": 3, "entries": []}),
        "HUGE": write_json(tmp_path / "huge.json", {"n": 10**6, "m": 1}),
    }
    start = time.perf_counter()
    rc, out, err = run_cli(capsys, [files.get(a, a) for a in argv])
    assert time.perf_counter() - start < 1.0
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {what} needs at least ")
    assert err.rstrip().endswith("over the size cap of 10000")


def test_determining_flat(capsys, flat_system_file):
    rc, out, _ = run_cli(capsys, ["determining", "--system", flat_system_file, "--order", "2", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["unknown_count"] == 12
    assert doc["row_count"] == 4


def test_taylor_round_trip(capsys, flat_system_file, tmp_path):
    dim = (1 + 1 + 2) * (1 + 1)
    omega = ["0"] * dim
    omega[4] = "2"  # gamma_1 = d2 theta / dx1 dx1
    data = write_json(tmp_path / "omega.json", omega)
    rc, out, _ = run_cli(capsys, ["taylor", "--system", flat_system_file, "--initial-data", data, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["field"]["theta"] == ["x1^2"]
    assert doc["field"]["eta"] == ["x1*u1"]


def test_taylor_rejects_bad_length(capsys, flat_system_file, tmp_path):
    data = write_json(tmp_path / "omega.json", ["0"] * 5)
    rc, _, err = run_cli(capsys, ["taylor", "--system", flat_system_file, "--initial-data", data])
    assert rc == 1
    assert "length" in err


def test_symmetry_algebra_dimension(capsys, flat_system_file):
    rc, out, _ = run_cli(capsys, ["symmetry-algebra", "--system", flat_system_file, "--format", "json"])
    assert rc == 0
    assert json.loads(out)["dimension"] == 8


def test_symmetry_algebra_at_point(capsys, flat_system_file):
    rc, out, _ = run_cli(
        capsys,
        ["symmetry-algebra", "--system", flat_system_file, "--point", "1,-1/2", "--format", "json"],
    )
    assert rc == 0
    assert json.loads(out)["dimension"] == 8


def test_bracket(capsys, tmp_path):
    f1 = write_json(tmp_path / "f1.json", {"n": 1, "m": 1, "theta": ["1"], "eta": ["0"]})
    f2 = write_json(tmp_path / "f2.json", {"n": 1, "m": 1, "theta": ["x1^2"], "eta": ["x1*u1"]})
    rc, out, _ = run_cli(capsys, ["bracket", "--field", f1, "--field2", f2, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["field"]["theta"] == ["2*x1"]
    assert doc["field"]["eta"] == ["u1"]


def test_closure_flat(capsys):
    rc, out, _ = run_cli(capsys, ["closure", "--n", "1", "--m", "1", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["closes"] is True
    assert doc["dimension"] == 8


def test_closure_failure(capsys, tmp_path):
    basis = write_json(
        tmp_path / "basis.json",
        [
            {"n": 1, "m": 1, "theta": ["1"], "eta": ["0"]},
            {"n": 1, "m": 1, "theta": ["x1^2"], "eta": ["0"]},
        ],
    )
    rc, out, _ = run_cli(capsys, ["closure", "--basis", basis, "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["closes"] is False
    assert doc["failure"]["pair"] == ["X1", "X2"]


@pytest.mark.parametrize(
    "docs",
    [
        [{"n": 1, "theta": ["1"], "eta": ["0"]}],
        [{"n": 1, "m": 1, "theta": "x1", "eta": ["0"]}],
        [{"n": 1, "m": 1, "theta": [1], "eta": ["0"]}],
        [5],
        [
            {"n": 1, "m": 1, "theta": ["1"], "eta": ["0"]},
            {"n": 2, "m": 1, "theta": ["1", "0"], "eta": ["0"]},
        ],
    ],
    ids=["missing-m", "theta-not-array", "theta-not-strings", "not-an-object", "shape-differs"],
)
def test_closure_malformed_basis_exits_one(capsys, tmp_path, docs):
    basis = write_json(tmp_path / "basis.json", docs)
    rc, out, err = run_cli(capsys, ["closure", "--basis", basis])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "doc",
    [
        {"n": 1, "m": 1, "entries": [{"k": 1, "i": 1, "j": 1, "F": 5}]},
        {"n": 1, "m": 1, "entries": 5},
        {
            "n": 1,
            "m": 1,
            "entries": [{"k": 1, "i": 1, "j": 1, "F": "p1_1"}, {"k": 1, "i": 1, "j": 1, "F": "2*p1_1"}],
        },
        {"n": 1, "m": 1, "entries": [{"k": 1, "i": 1, "j": 1, "F": "(" * 300 + "p1_1" + ")" * 300}]},
        {"command": "segre-derive", "n": 1, "m": 1, "order": None, "entries": []},
    ],
    ids=["F-not-string", "entries-not-array", "repeated-entry", "parens-too-deep", "segre-order-null"],
)
def test_involutive_malformed_system_exits_one(capsys, tmp_path, doc):
    system = write_json(tmp_path / "system.json", doc)
    rc, out, err = run_cli(capsys, ["involutive", "--system", system])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"n": float("inf"), "m": 1}, "system file needs integer fields 'n' and 'm'"),
        ({"command": "segre-derive", "n": 1, "m": 1, "order": float("inf")}, "segre-derive output needs an integer"),
        ({"n": 1, "m": 1, "entries": [{"k": float("inf"), "i": 1, "j": 1, "F": "0"}]}, "system entry needs integer"),
    ],
    ids=["n", "order", "k"],
)
def test_infinite_integer_field_is_named(capsys, tmp_path, doc, message):
    # JSON "Infinity" reads as a float that int() refuses with OverflowError.
    rc, out, err = run_cli(capsys, ["involutive", "--system", write_json(tmp_path / "system.json", doc)])
    assert (rc, out, err.startswith(f"error: {message}")) == (1, "", True)


def test_segre_derive_read_back(capsys, tmp_path):
    # F^1_11 has over a thousand terms: one flat sum of products
    argv = ["segre-derive", "--signature", "+-", "--perturbation", "x1^2*s1^2 + x2*u1*s3 + x1*s1*s2"]
    rc, out, _ = run_cli(capsys, argv + ["--order", "16", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    sys_ = load_system(write_json(tmp_path / "system.json", doc))
    entries = {(e["k"], e["i"], e["j"]): e["F"] for e in doc["entries"]}
    assert max(len(f.terms) for f in sys_.entries.values()) > 1000
    assert {key: poly_to_str(f) for key, f in sys_.entries.items()} == entries


SEGRE_DEEP = ["segre-derive", "--signature", "+-", "--perturbation", "x1^2*s1^2 + x2*u1*s3 + x1*s1*s2"]


def test_segre_derive_output_reads_back_truncated(capsys, monkeypatch):
    # Read as exact, the order-8 series fails involutivity at terms of
    # degree 8 and above, where the differentiated series is not valid.
    rc, out, _ = run_cli(capsys, SEGRE_DEEP + ["--order", "8", "--format", "json"])
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    assert run_cli(capsys, ["involutive", "--system", "-"]) == (0, "involutive: true\n", "")


def test_symmetry_algebra_on_too_low_segre_order_exits_one(capsys, tmp_path):
    rc, out, _ = run_cli(
        capsys, ["segre-derive", "--signature", "+", "--perturbation", "x1^2*s1^2", "--order", "3", "--format", "json"]
    )
    assert rc == 0
    path = tmp_path / "system.json"
    path.write_text(out, encoding="utf-8")
    rc, out, err = run_cli(capsys, ["symmetry-algebra", "--system", str(path), "--order", "3"])
    assert rc == 1 and out == ""
    assert err.startswith("error: residual for ") and err.endswith("the degree-3 ansatz needs 4\n")


@pytest.mark.parametrize("point, rc", [("1,0", 1), ("0,1/2", 1), ("0,0", 0)])
@pytest.mark.parametrize("command", ["symmetry-algebra", "taylor"])
def test_point_on_truncated_system(capsys, tmp_path, command, point, rc):
    # A segre-derive file is a truncated series: it is known only near the
    # origin, so it cannot be moved to any other base point.
    _, out, _ = run_cli(
        capsys, ["segre-derive", "--signature", "+", "--perturbation", "x1^2*s1^2", "--order", "8", "--format", "json"]
    )
    argv = [command, "--system", write_json(tmp_path / "system.json", json.loads(out)), "--point", point]
    if command == "taylor":
        argv += ["--initial-data", write_json(tmp_path / "omega.json", ["0"] * 8)]
    got_rc, out, err = run_cli(capsys, argv)
    assert got_rc == rc
    if rc:
        assert (out, err) == ("", "error: a truncated system cannot be recentred at a nonzero base point\n")


def test_segre_derive(capsys):
    rc, out, _ = run_cli(capsys, ["segre-derive", "--signature", "+", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["involutive"] is True
    assert doc["entries"] == [{"k": 1, "i": 1, "j": 1, "F": "0"}]

    rc, out, _ = run_cli(
        capsys,
        ["segre-derive", "--signature", "+", "--perturbation", "x1^2*s1^2", "--order", "6", "--format", "json"],
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["involutive"] is True
    assert doc["entries"][0]["F"].startswith("-2*p1_1^2")


def test_repeated_equal_entry_accepted(capsys, tmp_path):
    entry = {"k": 1, "i": 1, "j": 1, "F": "p1_1^2"}
    doc = {"n": 1, "m": 1, "entries": [entry, dict(entry, F="p1_1*p1_1")]}
    rc, out, _ = run_cli(capsys, ["involutive", "--system", write_json(tmp_path / "system.json", doc)])
    assert rc == 0
    assert out.startswith("involutive: ")


def test_segre_derive_negative_order_exits_one(capsys):
    rc, out, err = run_cli(capsys, ["segre-derive", "--signature", "+", "--order", "-3"])
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv, what",
    [
        # The order passes the size cap before anything runs.
        (["--signature", "+", "--order", "1000000"], "series layer list"),
        # About 20 000 series terms at order 20: the solve stops before the
        # first sweep that starts past the cap.
        (["--signature", "++-", "--perturbation", "x1^2*s1^2 + x2*u1*s3 + x3*s2*s4", "--order", "20"], "series solution"),
    ],
)
def test_segre_derive_past_the_size_cap_exits_one(capsys, argv, what):
    rc, out, err = run_cli(capsys, ["segre-derive", *argv])
    assert rc == 1
    assert out == ""
    assert err.startswith(f"error: {what} needs at least ")
    assert err.rstrip().endswith("over the size cap of 10000")


def test_cr_aut_dimensions(capsys):
    rc, out, _ = run_cli(capsys, ["cr-aut", "--signature", "++", "--format", "json"])
    assert rc == 0
    assert json.loads(out)["real_dimension"] == 15

    rc, out, _ = run_cli(capsys, ["cr-aut", "--signature", "+", "--format", "json"])
    assert json.loads(out)["real_dimension"] == 8


def test_totally_real(capsys):
    rc, out, _ = run_cli(capsys, ["totally-real", "--signature", "+-", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["totally_real"] is True
    assert doc["real_dimension"] == 15


def test_json_output_is_byte_stable(capsys):
    rc1, out1, _ = run_cli(capsys, ["cr-aut", "--signature", "+", "--format", "json"])
    rc2, out2, _ = run_cli(capsys, ["cr-aut", "--signature", "+", "--format", "json"])
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_domain_error_exits_one(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    rc, _, err = run_cli(capsys, ["involutive", "--system", missing])
    assert rc == 1
    assert "error:" in err


def test_parse_error_exits_one(capsys, tmp_path):
    path = write_json(
        tmp_path / "sys.json",
        {"n": 1, "m": 1, "entries": [{"k": 1, "i": 1, "j": 1, "F": "x1 + "}]},
    )
    rc, _, err = run_cli(capsys, ["involutive", "--system", path])
    assert rc == 1
    assert "offset 5" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["flat-algebra", "--n", "1"])  # missing --m
    assert exc.value.code == 2


def redirected_run(argv):
    """(exit code, stdout, stderr) of one ``main`` call, usage errors included."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def test_one_parser_serves_every_call(flat_system_file):
    # One process alternates subcommands, formats and a usage error on the
    # cached parser; each call must match a run on a freshly built parser.
    calls = [
        ["flat-algebra", "--n", "1", "--m", "1", "--format", "json"],
        ["involutive", "--system", flat_system_file],
        ["flat-algebra", "--n", "2", "--m", "1"],
        ["segre-derive", "--signature", "+", "--order", "3", "--format", "json"],
        ["flat-algebra", "--n", "1"],  # usage error: missing --m
        ["cr-aut", "--signature", "+-"],
        ["involutive", "--system", flat_system_file, "--format", "json"],
        ["segre-derive", "--signature", "+", "--order", "-1"],
        ["no-such-command"],
        ["flat-algebra", "--n", "1", "--m", "1"],
    ]
    assert build_parser() is build_parser()
    cached = [redirected_run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(redirected_run(argv))
    assert [rc for rc, _, _ in cached] == [0, 0, 0, 0, 2, 0, 0, 1, 2, 0]
    assert first_difference(cached, fresh) is None


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "jetsym.cli", "flat-algebra", "--n", "2", "--m", "1", "--format", "json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 15


def test_closed_stdout_exits_one_without_traceback(tmp_path):
    # The report (about 340 kB) is larger than a pipe holds, so the process
    # is still writing when its reader goes away after one line.
    system = write_json(tmp_path / "flat.json", {"n": 3, "m": 3, "entries": []})
    proc = subprocess.Popen(
        [sys.executable, "-m", "jetsym.cli", "determining", "--system", system, "--order", "3"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    rc = proc.wait(timeout=60)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert (first, rc, "Traceback" in err, "Exception ignored" in err) == (b"unknowns: 504\n", 1, False, False)


BAD_EXPRESSIONS = ["x1 +", "(x1", "x1)", "y1", "p1_1_1", "u9", "x1^-1", "x1^99999", "1/0", "", "x1 ** 2", "2..3"]
WRONG_VALUES = [None, [], {}, "x", "1", 1.5, True, -1, 0, 10**30, float("inf"), float("nan")]


def malformed_system_document(rng: Random) -> dict:
    """A well-formed system document (n, m <= 2) with one field broken."""
    n, m = rng.randint(1, 2), rng.randint(1, 2)
    names = [f"x{i}" for i in range(1, n + 1)] + [f"u{mu}" for mu in range(1, m + 1)]
    names += [f"p{mu}_{i}" for mu in range(1, m + 1) for i in range(1, n + 1)]
    keys = [(k, i, j) for k in range(1, m + 1) for i in range(1, n + 1) for j in range(i, n + 1)]
    entries = [
        {"k": k, "i": i, "j": j, "F": rng.choice(["0", "1", f"{rng.choice(names)}*{rng.choice(names)}", rng.choice(names)])}
        for k, i, j in rng.sample(keys, rng.randint(1, len(keys)))
    ]
    doc = {"n": n, "m": m, "entries": entries}
    entry = rng.choice(entries)
    kind = rng.choice(["type", "missing", "range", "i>j", "duplicate", "expression", "segre-order"])
    if kind == "type":
        target = rng.choice([doc, entry])
        target[rng.choice(list(target))] = rng.choice(WRONG_VALUES)
    elif kind == "missing":
        target = rng.choice([doc, entry])
        del target[rng.choice(list(target))]
    elif kind == "range":
        key = rng.choice(["n", "m", "k", "i", "j"])
        top = {"n": 10**6, "m": 10**6, "k": m + 1, "i": n + 1, "j": n + 1}[key]
        (doc if key in ("n", "m") else entry)[key] = rng.choice([0, -1, top])
    elif kind == "i>j":
        entry["i"], entry["j"] = 2, 1
    elif kind == "duplicate":
        entries.append({**entry, "F": entry["F"] + " + 1"})
    elif kind == "expression":
        entry["F"] = rng.choice(BAD_EXPRESSIONS)
    else:
        doc["command"] = "segre-derive"
        if rng.random() < 0.8:
            doc["order"] = rng.choice(WRONG_VALUES)
    return doc


@settings(max_examples=budget(40), deadline=None)
@given(st.integers(0, 2**32))
def test_malformed_system_documents_exit_cleanly(tmp_path_factory, seed):
    # Every subcommand that reads a system ends in exit code 0, 1 or 2 on a
    # document with one broken field; no exception escapes main.
    doc = malformed_system_document(Random(seed))
    system = write_json(tmp_path_factory.mktemp("doc") / "system.json", doc)
    outcomes = []
    for argv in (["involutive"], ["determining", "--order", "2"], ["symmetry-algebra", "--order", "2"]):
        try:
            outcomes.append(redirected_run(argv + ["--system", system])[0])
        except Exception as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    assert [rc for rc in outcomes if rc not in (0, 1, 2)] == []
