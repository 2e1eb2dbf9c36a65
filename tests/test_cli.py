import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import linkwitt
from linkwitt.cli import emit, main, load_input, SchemaError
from linkwitt.devissage import SimplicityUndecided
from linkwitt.endofield import EndomorphismError

DATA = os.path.join(os.path.dirname(__file__), "data")


def _path(name: str) -> str:
    return os.path.join(DATA, name)


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_worked_example_invariants(capsys):
    code, out, err = _run(capsys, "invariants", _path("worked_example.json"),
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "nontrivial"
    assert len(doc["pieces"]) == 1
    piece = doc["pieces"][0]
    assert piece["signatures"] == [["rational place", 1]]
    assert piece["end_minpoly"] == "1 + -1 x + x^2"
    assert piece["discriminant"]["trivial"] is True


def test_schema_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"mu\": 0}", encoding="utf-8")
    code, out, err = _run(capsys, "invariants", str(bad))
    assert code == 2
    assert "schema" in err


def test_invalid_projections_exit_code(capsys):
    code, out, err = _run(capsys, "invariants",
                          _path("corrupt_projections.json"))
    assert code == 3
    assert "orthogonality" in err


def test_metabolic_file_is_witt_trivial(capsys, tmp_path):
    with open(_path("worked_example.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    # assemble f (+) -f as a block-diagonal 12-dimensional input
    n = doc["dim"]
    zero = ["0"] * n

    def block(a, b):
        out = []
        for i in range(n):
            out.append(list(a[i]) + zero)
        for i in range(n):
            out.append(zero + list(b[i]))
        return out

    neg_phi = [[str(-int(x)) for x in row] for row in doc["form"]["phi"]]
    double = {
        "mu": 2, "ring": "Z", "dim": 2 * n,
        "s": block(doc["s"], doc["s"]),
        "projections": {"type": "matrices", "pi": [
            _block_proj(doc, 0, n), _block_proj(doc, 1, n)]},
        "form": {"zeta": -1, "phi": block(doc["form"]["phi"], neg_phi)},
    }
    path = tmp_path / "double.json"
    path.write_text(json.dumps(double), encoding="utf-8")
    code, out, err = _run(capsys, "invariants", str(path),
                          "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "witt-trivial"


def _block_proj(doc, which, n):
    sizes = doc["projections"]["sizes"]
    start = sum(sizes[:which])
    end = start + sizes[which]
    out = []
    for i in range(2 * n):
        row = []
        for j in range(2 * n):
            base_i, base_j = i % n, j % n
            same_copy = (i < n) == (j < n)
            inside = start <= base_i < end
            row.append("1" if (same_copy and i == j and inside) else "0")
        out.append(row)
    return out


def test_cobordant_with_itself(capsys):
    code, out, err = _run(capsys, "cobordant", _path("worked_example.json"),
                          _path("worked_example.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "cobordant-by-these-invariants"


def test_cobordant_against_different_class(capsys):
    code, out, err = _run(capsys, "cobordant", _path("worked_example.json"),
                          _path("worked_example_simple.json"),
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    # the worked example equals its own reduction in the Witt group
    assert doc["verdict"] == "cobordant-by-these-invariants"


def test_cobordant_zeta_mismatch(capsys, tmp_path):
    with open(_path("worked_example_simple.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["form"]["zeta"] = 1
    doc["form"]["phi"] = [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                          ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    other = tmp_path / "other.json"
    other.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, "cobordant", _path("worked_example.json"),
                          str(other))
    assert code == 3


def test_cover_s1_line(capsys):
    code, out, err = _run(capsys, "cover", _path("s1_dim1.json"),
                          "--format", "json", "--degree", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["sigma"] == [[[["z1", "1"]]]]
    inv = doc["sigma_inverse_truncated"][0][0]
    assert inv[0] == ["1", "1"] and inv[1] == ["x1", "-1"]


def test_cover_degree_zero(capsys):
    code, out, err = _run(capsys, "cover", _path("worked_example.json"),
                          "--format", "json", "--degree", "0")
    assert code == 0
    doc = json.loads(out)
    for row in doc["sigma_inverse_truncated"]:
        for entry in row:
            assert all(name == "1" for name, _ in entry)


def test_cover_worked_example_witness(capsys):
    code, out, err = _run(capsys, "cover", _path("worked_example.json"),
                          "--format", "json", "--degree", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["symmetry_witness"] == "found"


def test_primitive_fixtures(capsys):
    code, out, err = _run(capsys, "primitive", _path("s0_dim2.json"),
                          "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["primitive"] is True
    assert len(doc["filtration"]) == 1

    code, out, err = _run(capsys, "primitive", _path("extension.json"),
                          "--format", "json")
    doc = json.loads(out)
    assert doc["primitive"] is True

    code, out, err = _run(capsys, "primitive",
                          _path("worked_example_simple.json"),
                          "--format", "json")
    doc = json.loads(out)
    assert doc["primitive"] is False
    assert doc["max_primitive_dim"] == 0


def test_byte_identical_reruns(capsys):
    results = []
    for _ in range(2):
        code, out, err = _run(capsys, "invariants",
                              _path("worked_example.json"),
                              "--format", "json", "--seed", "7")
        assert code == 0
        results.append(out)
    assert results[0] == results[1]


def test_seed_equality_of_reports(capsys):
    docs = []
    for seed in ("0", "1"):
        code, out, err = _run(capsys, "invariants",
                              _path("worked_example.json"),
                              "--format", "json", "--seed", seed)
        doc = json.loads(out)
        doc.pop("seed")
        doc["log"] = doc["log"][1:]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_json_roundtrip(capsys):
    code, out, err = _run(capsys, "invariants", _path("worked_example.json"),
                          "--format", "json")
    doc = json.loads(out)
    assert json.loads(json.dumps(doc)) == doc


def test_load_input_rejects_bad_zeta(tmp_path):
    with open(_path("worked_example_simple.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["form"]["zeta"] = 2
    path = tmp_path / "badzeta.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(SchemaError):
        load_input(str(path))


def test_text_format_is_rendered_from_json(capsys):
    code, out, err = _run(capsys, "invariants", _path("worked_example.json"),
                          "--format", "text")
    assert code == 0
    assert "verdict" in out and "nontrivial" in out


def test_quaternionic_exit_code_with_partial_report(capsys):
    code, out, err = _run(capsys, "invariants", _path("quaternionic.json"),
                          "--format", "json")
    assert code == 4
    doc = json.loads(out)
    assert doc["verdict"] == "undetermined (quaternionic)"
    assert doc["pieces"][0]["status"].startswith("unsupported")


def test_cobordant_worked_example_vs_zero_form(capsys):
    code, out, err = _run(capsys, "cobordant", _path("worked_example.json"),
                          _path("zero_form.json"), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "not-cobordant"


_LINE = {"mu": 1, "ring": "Q", "dim": 1, "s": [["1/2"]],
         "projections": {"type": "blocks", "sizes": [1]},
         "form": {"zeta": 1, "phi": [["1"]]}}


@pytest.mark.parametrize("command,field,value", [
    ("primitive", "s", [["1/0"]]),
    ("primitive", "s", [[True]]),
    ("primitive", "mu", True),
    ("primitive", "dim", True),
    ("primitive", "projections", {"type": "blocks", "sizes": [True]}),
    ("invariants", "form", {"zeta": True, "phi": [["1"]]}),
    ("invariants", "form", {"zeta": 1.0, "phi": [["1"]]}),
    ("invariants", "form", {"zeta": 1, "phi": [[False]]}),
])
def test_schema_errors_at_the_cli_boundary(capsys, tmp_path, command, field,
                                           value):
    doc = dict(_LINE, **{field: value})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = _run(capsys, command, str(path))
    assert code == 2
    assert "schema error" in err and out == ""


@pytest.mark.parametrize("entry", ["0.5", "1e3", "1E5", "1e3000000", "+1",
                                   "1_000"])
def test_only_integer_and_fraction_strings_are_rationals(capsys, tmp_path,
                                                         entry):
    # a decimal exponent is refused before any integer is built from it
    doc = dict(_LINE, form={"zeta": 1, "phi": [[entry]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    start = time.perf_counter()
    code, out, err = _run(capsys, "invariants", str(path))
    assert time.perf_counter() - start < 0.1
    assert code == 2 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1, err


@pytest.mark.parametrize("error", [SimplicityUndecided("no certificate"),
                                   EndomorphismError("no field")])
@pytest.mark.parametrize("command,files", [
    ("invariants", ["worked_example.json"]),
    ("cobordant", ["worked_example.json", "zero_form.json"]),
])
def test_undecided_reduction_exit_code(capsys, monkeypatch, error, command,
                                       files):
    def undecided(form, seed=0):
        raise error

    monkeypatch.setattr("linkwitt.cli.analyze_form", undecided)
    code, out, err = _run(capsys, command, *[_path(f) for f in files])
    assert code == 5
    assert out == ""
    assert err == f"undecided: {error}\n"


@pytest.mark.parametrize("fmt,expected", [
    ("text", "knot_genus4.invariants.txt"),
    ("json", "knot_genus4.invariants.json"),
])
def test_genus4_knot_report_bytes(capsys, fmt, expected):
    # a scrambled genus-4 knot form: the 8-dimensional simple piece has a
    # 64-entry hom-space basis whose order the printed report depends on
    code, out, err = _run(capsys, "invariants", _path("knot_genus4.json"),
                          "--format", fmt)
    with open(os.path.join(DATA, "expected", expected), encoding="utf-8",
              newline="") as fh:
        assert out == fh.read()
    assert code == 0 and err == ""


@pytest.mark.parametrize("name", ["extension", "worked_example"])
def test_primitive_report_bytes(capsys, name):
    # the filtration strings and both bases as the socle-quotient loop
    # printed them
    code, out, err = _run(capsys, "primitive", _path(f"{name}.json"),
                          "--format", "json")
    with open(os.path.join(DATA, "expected", f"{name}.primitive.json"),
              encoding="utf-8", newline="") as fh:
        assert out == fh.read()
    assert code == 0 and err == ""


@pytest.mark.parametrize("command,files", [
    ("invariants", ["worked_example.json"]),
    ("cobordant", ["worked_example.json", "zero_form.json"]),
])
def test_internal_error_exit_code(capsys, monkeypatch, command, files):
    # a failed internal check (the Hilbert product formula, a degenerate
    # trace form) ends in one stderr line and exit 6, not a traceback
    def broken(form, seed=0):
        raise AssertionError("Hilbert product formula violated")

    monkeypatch.setattr("linkwitt.cli.analyze_form", broken)
    code, out, err = _run(capsys, command, *[_path(f) for f in files])
    assert code == 6
    assert out == ""
    assert err == "internal error: Hilbert product formula violated\n"


def test_consecutive_calls_read_as_fresh_ones(capsys, tmp_path):
    # the parser is built once, at import: no flag of one call may carry
    # over to the next, so each in-process call gives the exit code and
    # stdout of the same command run in a new process
    bad = tmp_path / "bad.json"
    bad.write_text("{\"mu\": 0}", encoding="utf-8")
    f = _path("worked_example.json")
    calls = [["cover", f, "--degree", "3"],
             ["cover", f],
             ["invariants", f, "--format", "json"],
             ["invariants", f],
             ["cobordant", f, f],
             ["invariants", str(bad)]]
    results = [_run(capsys, *argv)[:2] for argv in calls]
    assert [code for code, _ in results] == [0, 0, 0, 0, 0, 2]
    assert results[0][1].startswith("degree: 3\n")
    assert results[1][1].startswith("degree: 8\n")
    json.loads(results[2][1])
    assert not results[3][1].startswith("{")
    src = os.path.dirname(os.path.dirname(linkwitt.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8")
    for argv, result in zip(calls, results):
        fresh = subprocess.run([sys.executable, "-m", "linkwitt.cli", *argv],
                               capture_output=True, env=env, check=False)
        assert (fresh.returncode, fresh.stdout.decode("utf-8")) == result


# JSON documents of the types a report holds: str keys; None, bools, ints
# (big ones too), any text (non-ASCII, quotes, control characters), empty
# and nested lists and dicts, and mixed [str, int] lists like hasse rows
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(min_value=-10 ** 60, max_value=10 ** 60),
    st.text(), st.text(alphabet="\"\\/\n\t\x00\x1f\x7f\u00e9\u2028\U0001d54f"),
    st.tuples(st.text(), st.integers()).map(list))
_JSON_DOCS = st.dictionaries(st.text(), st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30))


@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.too_slow])
@given(_JSON_DOCS)
def test_json_writer_matches_json_dumps(doc):
    assert emit(doc, "json") == json.dumps(doc, sort_keys=True, indent=2) \
        + "\n"


@pytest.mark.parametrize("doc", [
    {"a": 1.5},
    {"a": [1, 2.0]},
    {"a": {"b": ["x", 0.25]}},
    {"a": object()},
    {"a": {1, 2}},
])
def test_json_writer_rejects_types_no_report_holds(doc):
    with pytest.raises(TypeError):
        emit(doc, "json")


# lists of string lists, the shape of a serialized series: strings that
# need escaping, empty inner lists, and inner lists mixed with non-strings
_ESCAPED_TEXT = st.text(alphabet="\"\\/\n\t\x00\x1f\x7fé \U0001d54f x1")
_STRING_LISTS = st.lists(st.lists(_ESCAPED_TEXT, min_size=1, max_size=3),
                         max_size=4)
_MIXED_LISTS = st.lists(st.lists(st.one_of(
    _ESCAPED_TEXT, st.integers(), st.none(), st.booleans(),
    st.lists(_ESCAPED_TEXT, max_size=2)), max_size=3), max_size=4)
_STRING_LIST_DOCS = st.dictionaries(st.text(max_size=3), st.one_of(
    _STRING_LISTS, _MIXED_LISTS, st.lists(_STRING_LISTS, max_size=3)),
    max_size=3)


@settings(derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(_STRING_LIST_DOCS)
def test_json_writer_matches_json_dumps_on_string_lists(doc):
    assert emit(doc, "json") == json.dumps(doc, sort_keys=True, indent=2) \
        + "\n"
