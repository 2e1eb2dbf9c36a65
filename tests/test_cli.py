import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

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


# a JSON-level oracle for `cover`: every coefficient of the report against
# Fraction products computed here from the input document alone
def _fraction_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def _fraction_product(A, B):
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def _input_matrices(path):
    # s and the projections e_i of the input file, and phi (or None)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["dim"]
    proj = doc["projections"]
    if proj["type"] == "blocks":
        starts = [sum(proj["sizes"][:i]) for i in range(doc["mu"])]
        projections = [[[Fraction(int(r == c and a <= r < a + size))
                         for c in range(n)] for r in range(n)]
                       for a, size in zip(starts, proj["sizes"])]
    else:
        projections = [_fraction_matrix(m) for m in proj["pi"]]
    form = doc.get("form")
    return (_fraction_matrix(doc["s"]), projections,
            _fraction_matrix(form["phi"]) if form else None)


def _words_and_products(start, steps, degree):
    # {word: start (-s e_{i1}) ... (-s e_{ik})} over the words of length
    # <= degree whose product is not zero: a zero product stays zero
    out = {}
    level = [((), start)] if degree >= 0 else []
    for length in range(degree + 1):
        level = [(w, m) for w, m in level if any(map(any, m))]
        out.update(level)
        if length < degree:
            level = [(w + (i,), _fraction_product(m, t)) for w, m in level
                     for i, t in enumerate(steps, start=1)]
    return out


def _expected_series(products, p, q):
    # the serialized entry (p, q): [name, coefficient] in (length, word)
    # order
    return [[" ".join(f"x{i}" for i in w) or "1", str(m[p][q])]
            for w, m in sorted(products.items(),
                               key=lambda item: (len(item[0]), item[0]))
            if m[p][q]]


def _cover_oracle_mismatches(path, degree):
    # the keys of the report of `cover path --degree degree` whose
    # coefficients differ from the Fraction products
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["cover", path, "--degree", str(degree),
                     "--format", "json"]) == 0
    doc = json.loads(out.getvalue())
    s, projections, phi = _input_matrices(path)
    n = len(s)
    steps = [[[-x for x in row] for row in _fraction_product(s, e)]
             for e in projections]
    ident = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    inverse = _words_and_products(ident, steps, degree)
    bad = []
    if doc["sigma_inverse_truncated"] != [
            [_expected_series(inverse, p, q) for q in range(n)]
            for p in range(n)]:
        bad.append("sigma_inverse_truncated")
    if phi is not None:
        # the coefficient of x_i w is phi^T (-e_i) times that of w in
        # sigma^-1
        phiT = [list(col) for col in zip(*phi)]
        pairing = {}
        for i, e in enumerate(projections, start=1):
            start = _fraction_product(phiT, [[-x for x in row] for row in e])
            for w, m in _words_and_products(start, steps,
                                            degree - 1).items():
                pairing[(i,) + w] = m
        if doc["pairing"] != [[_expected_series(pairing, p, q)
                               for q in range(n)] for p in range(n)]:
            bad.append("pairing")
    return bad


def _cover_oracle_cases(tmp_path, monkeypatch):
    # the seed-11 cover_series ops that carry a form at their degrees, and
    # every fixture that cover accepts at degree 6
    import importlib
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(DATA), "..",
                                             "bench"))
    gen = importlib.import_module("gen")
    ops = [op for op in gen.make_ops("cover_series", 11, 240)
           if op["kind"] == "pairing"]
    gen.write_ops(ops, str(tmp_path))
    cases = [(op["argv"][1], int(op["argv"][3])) for op in ops]
    return cases + [(_path(name), 6) for name in sorted(os.listdir(DATA))
                    if name.endswith(".json")
                    and name != "corrupt_projections.json"]


def test_cover_reports_match_fraction_products(tmp_path, monkeypatch):
    cases = _cover_oracle_cases(tmp_path, monkeypatch)
    assert len(cases) == 88
    found = [(path, _cover_oracle_mismatches(path, degree))
             for path, degree in cases]
    assert [(path, bad) for path, bad in found if bad] == []


def test_the_cover_oracle_sees_a_negated_pairing(tmp_path, monkeypatch):
    import linkwitt.cli as cli
    pairing = cli.blanchfield_pairing
    monkeypatch.setattr(cli, "blanchfield_pairing",
                        lambda f, degree: pairing(f.negate(), degree))
    cases = _cover_oracle_cases(tmp_path, monkeypatch)[:12] + [
        (_path("worked_example.json"), 6)]
    for path, degree in cases:
        assert _cover_oracle_mismatches(path, degree) == ["pairing"]
