"""Metamorphic properties of the invariant pipeline, and a schema fuzzer for
the command line.  Hypothesis runs derandomized, so every run draws the
same cases."""

import contextlib
import io
import json
import os
import random
import tempfile
import time
from fractions import Fraction

from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from linkwitt import cli
from linkwitt.rational import QMatrix, squarefree_part
from linkwitt.seifert import SeifertForm, SeifertModule
from linkwitt.wittinv import analyze_form

from support import conjugate_form, knot_form, random_form


def cases(n):
    return settings(derandomize=True, deadline=None, max_examples=n,
                    suppress_health_check=[HealthCheck.too_slow])


seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def form_and_scramble(draw):
    """f = random_form with mu 1-3, dim 1-4, zeta +-1, and g a random base
    change of f: isometric to f, so cobordant with it."""
    rng = random.Random(draw(seeds))
    f = random_form(rng, draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                    draw(st.sampled_from([1, -1])))
    return f, conjugate_form(rng, f)


def decided(verdict: str) -> bool:
    return not verdict.startswith("undetermined")


@cases(30)
@given(form_and_scramble())
def test_form_minus_its_scramble_is_never_nontrivial(pair):
    f, g = pair
    assert analyze_form(f.direct_sum(g.negate())).verdict != "nontrivial"


@cases(30)
@given(form_and_scramble())
def test_scrambling_keeps_every_decided_verdict(pair):
    f, g = pair
    vf, vg = analyze_form(f).verdict, analyze_form(g).verdict
    if decided(vf) and decided(vg):
        assert vf == vg


def scaled(f: SeifertForm, c: int) -> SeifertForm:
    # c * I is an isometry from c^2 f to f
    return SeifertForm(f.module, f.zeta, f.phi.scale(c * c))


@cases(15)
@given(form_and_scramble(), st.sampled_from([2, 3]))
def test_form_minus_a_square_multiple_is_never_nontrivial(pair, c):
    f, _ = pair
    difference = f.direct_sum(scaled(f, c).negate())
    assert analyze_form(difference).verdict != "nontrivial"


@cases(8)
@given(seeds, st.sampled_from([2, 3]))
def test_knot_minus_a_square_multiple_is_never_nontrivial(seed, c):
    f = knot_form(random.Random(seed), 2)
    difference = f.direct_sum(scaled(f, c).negate())
    assert analyze_form(difference).verdict != "nontrivial"


nonzero = st.integers(-6, 6).filter(bool)


@cases(60)
@given(nonzero, nonzero, st.integers(-3, 3), st.integers(-3, 3))
def test_isometric_diagonal_pairs_are_cobordant(a, b, x, y):
    # <a, b> represents c = a x^2 + b y^2, so it is isometric to
    # <c, abc>: on s = I/2 with mu = 1 their difference is Witt-trivial
    c = a * x * x + b * y * y
    assume(c != 0)
    diagonal = [a, b, -c, -a * b * c]
    V = SeifertModule.from_blocks(1, QMatrix.identity(4).scale(
        Fraction(1, 2)), [4])
    phi = QMatrix(4, 4, [[diagonal[i] if i == j else 0 for j in range(4)]
                         for i in range(4)])
    assert analyze_form(SeifertForm(V, 1, phi)).verdict == "witt-trivial"


def half_identity_form(phi):
    n = len(phi)
    V = SeifertModule.from_blocks(1, QMatrix.identity(n).scale(
        Fraction(1, 2)), [n])
    return SeifertForm(V, 1, QMatrix(n, n, phi))


@st.composite
def symmetric_forms(draw):
    """A nonsingular symmetric form on s = I/2 with mu = 1, of dimension
    1-3: every submodule is a line sum, End = Q, and each piece is
    decided."""
    n = draw(st.integers(1, 3))
    phi = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            phi[i][j] = phi[j][i] = draw(st.integers(-4, 4))
    assume(QMatrix(n, n, phi).det() != 0)
    return half_identity_form(phi)


def absolute_invariants(f):
    """(signature, signed discriminant as a squarefree integer, rank) of the
    Witt class of a form from `symmetric_forms`.  Its one piece reports
    them for the hermitian form h relative to the 1 x 1 matrix b = chosen_b,
    and the class is that of b h."""
    report = analyze_form(f)
    assert decided(report.verdict)
    if not report.pieces:
        return 0, 1, 0
    [piece] = report.pieces
    assert piece.status == "complete"
    b = Fraction(piece.chosen_b[0][0])
    m = piece.multiplicity
    [(_place, signature)] = piece.signatures
    representative = Fraction(piece.discriminant["representative"])
    return ((1 if b > 0 else -1) * signature,
            squarefree_part(b ** m * representative), m)


@cases(40)
@given(symmetric_forms(), symmetric_forms())
def test_signatures_add_and_discriminants_multiply_under_sums(f, g):
    # the signed discriminant (-1)^(m(m-1)/2) det of a sum of ranks m and
    # n is the product of the two times (-1)^(mn)
    sf, df, mf = absolute_invariants(f)
    sg, dg, mg = absolute_invariants(g)
    s, d, m = absolute_invariants(f.direct_sum(g))
    assert s == sf + sg
    assert d == squarefree_part((-1) ** (mf * mg) * df * dg)
    assert (m - mf - mg) % 2 == 0


# ---------------------------------------------------------------------------
# command-line schema fuzzer
# ---------------------------------------------------------------------------

DATA = os.path.join(os.path.dirname(__file__), "data")
with open(os.path.join(DATA, "worked_example.json"), encoding="utf-8") as fh:
    WORKED = json.load(fh)

PATHS = [("mu",), ("ring",), ("dim",), ("s",), ("projections",),
         ("projections", "type"), ("projections", "sizes"), ("form",),
         ("form", "zeta"), ("form", "phi")]
MATRICES = [("s",), ("form", "phi")]
JUNK = st.sampled_from([None, True, False, 0, -1, 7, 2.5, "", "Q", "x", [],
                        {}, [[]], [1, 2], {"type": "blocks"}])
BAD_RATIONALS = st.sampled_from(["", " ", "x", "1/0", "1//2", "--1", "1/",
                                 "/2", "nan", "inf", "1.5.2", "0x10", True,
                                 False, None, [], {}, 1.5])
VALUES = st.sampled_from(["0", "1", "-1", "1/2", "-3/4", 2, -2])


def at(doc, path):
    for key in path:
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def parent_of(doc, path):
    parent = at(doc, path[:-1])
    return parent if isinstance(parent, dict) else None


@st.composite
def mutation(draw, doc):
    kind = draw(st.sampled_from(["type", "missing", "rational", "value",
                                 "size"]))
    if kind in ("type", "missing"):
        path = draw(st.sampled_from(PATHS))
        parent = parent_of(doc, path)
        if parent is None:
            return
        if kind == "type":
            parent[path[-1]] = draw(JUNK)
        else:
            parent.pop(path[-1], None)
        return
    m = at(doc, draw(st.sampled_from(MATRICES)))
    if (not isinstance(m, list) or not m
            or not all(isinstance(r, list) and r for r in m)):
        return
    i = draw(st.integers(0, len(m) - 1))
    j = draw(st.integers(0, len(m[i]) - 1))
    if kind in ("rational", "value"):
        m[i][j] = draw(BAD_RATIONALS if kind == "rational" else VALUES)
        return
    change = draw(st.sampled_from(["drop row", "drop entry", "extra row",
                                   "extra entry", "dim", "sizes"]))
    if change == "drop row":
        del m[i]
    elif change == "drop entry":
        del m[i][j]
    elif change == "extra row":
        m.append(list(m[i]))
    elif change == "extra entry":
        m[i].append("0")
    elif change == "dim":
        doc["dim"] = draw(st.sampled_from([0, 1, 5, 7]))
    else:
        doc["projections"] = {"type": "blocks",
                              "sizes": draw(st.sampled_from(
                                  [[6], [3, 3], [4, 2, 0], [5, 2], [7, -1]]))}


@st.composite
def mutated_documents(draw):
    doc = json.loads(json.dumps(WORKED))
    for _ in range(draw(st.integers(0, 2))):
        draw(mutation(doc))
    return doc


COMMANDS = [["invariants", "{f}"], ["cobordant", "{f}", "{f}"],
            ["cobordant", "{w}", "{f}"], ["cover", "{f}", "--degree", "3"],
            ["primitive", "{f}"]]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@cases(80)
@given(mutated_documents(), st.sampled_from(COMMANDS))
def test_mutated_inputs_end_in_a_documented_exit_code(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        worked = os.path.join(DATA, "worked_example.json")
        code, err = run_cli([a.format(f=path, w=worked) for a in command])
    assert code in (0, 2, 3, 4, 5), (code, err)
    if code in (2, 3, 5):
        assert err.endswith("\n") and err.count("\n") == 1, err


@st.composite
def exponent_and_decimal_strings(draw):
    """Strings Python's float() or Fraction() would take but a rational
    entry must not: a decimal point, an exponent, or both."""
    digits = st.text("0123456789", min_size=1, max_size=7)
    mantissa = draw(st.sampled_from(["", "-"])) + draw(digits)
    if draw(st.booleans()):
        mantissa += "." + draw(digits)
    if draw(st.booleans()) or "." not in mantissa:
        mantissa += (draw(st.sampled_from(["e", "E", "e-", "E-", "e+"]))
                     + draw(digits))
    return mantissa


@cases(80)
@given(exponent_and_decimal_strings(), st.sampled_from(MATRICES),
       st.integers(0, 5), st.integers(0, 5))
@example("1e5", ("s",), 0, 0)
@example("0.5", ("form", "phi"), 1, 2)
@example("-2E-3", ("form", "phi"), 5, 5)
@example("1e3000000", ("s",), 3, 4)
def test_exponent_and_decimal_entries_are_schema_errors(text, matrix, i, j):
    doc = json.loads(json.dumps(WORKED))
    at(doc, matrix)[i][j] = text
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        start = time.perf_counter()
        code, err = run_cli(["invariants", path])
        elapsed = time.perf_counter() - start
    assert code == 2, (text, err)
    assert err.endswith("\n") and err.count("\n") == 1, err
    assert elapsed < 0.1, (text, elapsed)
