"""Seeded inputs for the benchmark workloads, with answers known by
construction.

Everything here is plain `fractions.Fraction` arithmetic on lists of rows, so
the answer key never depends on the program under test.  An op is a dict:

    {"id": int, "kind": str, "argv": [...], "files": {name: document},
     "expect": {...}}

`argv` names files relative to the op's input directory; `write_ops` writes
them as canonical JSON and rewrites the argv to real paths.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# exact matrices on lists of rows
# ---------------------------------------------------------------------------


def zeros(r, c):
    return [[Fraction(0)] * c for _ in range(r)]


def identity(n):
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = Fraction(1)
    return m


def mul(a, b):
    bt = list(zip(*b))
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0))
             for col in bt] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def scale(a, c):
    return [[x * c for x in row] for row in a]


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = zeros(n, n)
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at:at + len(row)] = row
        at += len(b)
    return out


def inverse(a):
    """Inverse by Gauss-Jordan elimination, or None when singular."""
    n = len(a)
    m = [list(row) + e for row, e in zip(a, identity(n))]
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return None
        m[c], m[pr] = m[pr], m[c]
        pv = m[c][c]
        m[c] = [x / pv for x in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n:] for row in m]


def rank(a):
    """Row rank of a (possibly non-square) matrix."""
    m = [list(r) for r in a]
    rk = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pr = next((i for i in range(rk, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rk], m[pr] = m[pr], m[rk]
        for i in range(rk + 1, len(m)):
            if m[i][c]:
                f = m[i][c] / m[rk][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk


def charpoly(a):
    """Coefficients c_0..c_n of det(t I - a) by Faddeev-LeVerrier."""
    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = zeros(n, n)
    for k in range(1, n + 1):
        m = mul(a, m)
        for i in range(n):
            m[i][i] += coeffs[n - k + 1]
        am = mul(a, m)
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
    return coeffs


# ---------------------------------------------------------------------------
# irreducibility certificate: irreducible modulo a prime implies irreducible
# over Q when the prime divides neither the leading coefficient nor any
# denominator
# ---------------------------------------------------------------------------

def _pmod(a, f, p):
    a = [x % p for x in a]
    inv_lc = pow(f[-1], p - 2, p)
    while len(a) >= len(f):
        c = a[-1] * inv_lc % p
        shift = len(a) - len(f)
        for i, y in enumerate(f):
            a[shift + i] = (a[shift + i] - c * y) % p
        while a and a[-1] == 0:
            a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, f, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _pmod(out, f, p)


def _pgcd(a, b, p):
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def irreducible_mod(coeffs, p):
    """Ben-Or test of an integer polynomial modulo p (degree must not drop)."""
    f = [c % p for c in coeffs]
    n = len(f) - 1
    if f[-1] == 0 or n < 1:
        return False
    power = [0, 1]                      # x
    for _ in range(n // 2):
        # power <- power^p mod f
        acc, base, e = [1], power, p
        while e:
            if e & 1:
                acc = _pmulmod(acc, base, f, p)
            base = _pmulmod(base, base, f, p)
            e >>= 1
        power = acc
        diff = list(power) + [0] * max(0, 2 - len(power))
        diff[1] = (diff[1] - 1) % p
        while diff and diff[-1] == 0:
            diff.pop()
        if len(_pgcd(list(f), diff, p)) > 1:
            return False
    return True


def certified_irreducible(coeffs) -> bool:
    """True only when irreducibility over Q is proved modulo a small prime."""
    if any(c.denominator != 1 for c in coeffs):
        return False
    ints = [int(c) for c in coeffs]
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        if ints[-1] % p and irreducible_mod(ints, p):
            return True
    return False


# ---------------------------------------------------------------------------
# Seifert modules and forms: (mu, s, projections, zeta, phi)
# ---------------------------------------------------------------------------

def block_projections(sizes):
    n = sum(sizes)
    out, at = [], 0
    for size in sizes:
        e = zeros(n, n)
        for i in range(at, at + size):
            e[i][i] = Fraction(1)
        out.append(e)
        at += size
    return out


def one_block(mu, comp, size):
    sizes = [0] * mu
    sizes[comp] = size
    return sizes


def module_sum(m1, m2):
    mu, s1, p1 = m1
    _, s2, p2 = m2
    return (mu, block_diag([s1, s2]),
            [block_diag([a, b]) for a, b in zip(p1, p2)])


def form_sum(f1, f2):
    mod = module_sum(f1[:3], f2[:3])
    return mod + (f1[3], block_diag([f1[4], f2[4]]))


def random_unimodular(rng, n):
    """Product of 2n random elementary matrices with entries +-1, +-2, and
    its inverse: integral both ways, so scrambles do not blow up the
    entries."""
    p = identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            e = identity(n)
            e[i][j] = Fraction(rng.choice([-2, -1, 1, 2]))
            p = mul(p, e)
    return p, inverse(p)


def base_change(rng, form=None, module=None):
    """Transport along a random unimodular base change P: s -> P^-1 s P,
    e -> P^-1 e P, phi -> P^T phi P.  Returns (new object, P)."""
    mu, s, projs = (form or module)[:3]
    p, p_inv = random_unimodular(rng, len(s))
    new_mod = (mu, mul(mul(p_inv, s), p),
               [mul(mul(p_inv, e), p) for e in projs])
    if form is None:
        return new_mod, p
    return new_mod + (form[3], mul(mul(transpose(p), form[4]), p)), p


def _atom_1(rng, mu):
    proj = block_projections(one_block(mu, rng.randrange(mu), 1))
    c = Fraction(rng.choice([1, -1]) * rng.randint(1, 5))
    return (mu, [[Fraction(1, 2)]], proj, 1, [[c]])


def _atom_2(rng, mu, zeta):
    proj = block_projections(one_block(mu, rng.randrange(mu), 2))
    if zeta == -1:
        a, b, c = (Fraction(rng.randint(-2, 2)) for _ in range(3))
        return (mu, [[a, b], [c, 1 - a]], proj, -1,
                [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]])
    p = Fraction(rng.choice([1, -1]) * rng.randint(1, 4))
    q = Fraction(rng.choice([1, -1]) * rng.randint(1, 4))
    b = Fraction(rng.randint(-2, 2))
    s = [[Fraction(1, 2), b], [-p * b / q, Fraction(1, 2)]]
    return (mu, s, proj, 1, [[p, Fraction(0)], [Fraction(0), q]])


def random_block_module(rng, mu, dim):
    cuts = sorted(rng.randint(0, dim) for _ in range(mu - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
    s = [[Fraction(rng.randint(-2, 2)) for _ in range(dim)]
         for _ in range(dim)]
    return (mu, s, block_projections(sizes))


def _hyperbolic(module, zeta):
    """The standard nonsingular form on W + W*."""
    mu, s, projs = module
    n = len(s)
    dual = (mu, sub(identity(n), transpose(s)), [transpose(e) for e in projs])
    zero, ident = zeros(n, n), identity(n)
    phi = ([z + i for z, i in zip(zero, ident)]
           + [[zeta * x for x in i] + z for i, z in zip(ident, zero)])
    return module_sum(module, dual) + (zeta, phi)


def random_form(rng, mu, dim, zeta):
    """Nonsingular form of dimension <= dim assembled from anisotropic atoms
    and hyperbolic blocks (callers scramble it by a base change)."""
    parts = []
    budget = max(dim, 2 if zeta == -1 else 1)
    while budget > 0:
        roll = rng.random()
        if zeta == 1 and roll < 0.3:
            parts.append(_atom_1(rng, mu))
            budget -= 1
        elif budget >= 2 and roll < 0.65:
            parts.append(_atom_2(rng, mu, zeta))
            budget -= 2
        elif budget >= 2:
            w = random_block_module(rng, mu, rng.randint(1, budget // 2))
            parts.append(_hyperbolic(w, zeta))
            budget -= 2 * len(w[1])
        else:
            break
    if not parts:
        parts.append(_atom_2(rng, mu, zeta))
    form = parts[0]
    for p in parts[1:]:
        form = form_sum(form, p)
    return form


def diagonal_form(rng, k):
    """<a_1..a_k> on s = 1/2, mu = 1, zeta = +1."""
    a = [Fraction(rng.choice([1, -1]) * rng.randint(1, 5)) for _ in range(k)]
    phi = zeros(k, k)
    for i, x in enumerate(a):
        phi[i][i] = x
    return (1, scale(identity(k), Fraction(1, 2)), [identity(k)], 1, phi)


def knot_form(rng, genus):
    """Levine knot form: Seifert matrix A = S + N with S symmetric and
    A - A^T = J, the standard symplectic matrix; phi = J, s = J^-1 A."""
    n = 2 * genus
    sym = zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = Fraction(rng.randint(-2, 2))
    upper = zeros(n, n)
    for i in range(genus):
        upper[i][genus + i] = Fraction(1)
    a = [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(sym, upper)]
    j = sub(upper, transpose(upper))
    s = mul(inverse(j), a)
    return (1, s, [identity(n)], -1, j)


def triangular_module(rng, mu, dim, diagonal):
    """Upper-triangular s over coordinate-block projections: every
    coordinate flag is a submodule, so the composition factors are the
    one-dimensional layers with s = diagonal[i]."""
    s = zeros(dim, dim)
    for i in range(dim):
        s[i][i] = Fraction(diagonal[i])
        for j in range(i + 1, dim):
            s[i][j] = Fraction(rng.randint(-2, 2))
    cuts = sorted(rng.randint(0, dim) for _ in range(mu - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [dim])]
    return (mu, s, block_projections(sizes))


# ---------------------------------------------------------------------------
# input documents
# ---------------------------------------------------------------------------

def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else \
        f"{x.numerator}/{x.denominator}"


def mat_doc(m):
    return [[rat_str(x) for x in row] for row in m]


def input_doc(obj):
    mu, s, projs = obj[:3]
    doc = {"mu": mu, "ring": "Q", "dim": len(s), "s": mat_doc(s),
           "projections": {"type": "matrices",
                           "pi": [mat_doc(e) for e in projs]}}
    if len(obj) > 3:
        doc["form"] = {"zeta": obj[3], "phi": mat_doc(obj[4])}
    return doc


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
#
# Every workload cycles through a fixed schedule of instance shapes.  The
# underlying forms and modules come from a corpus drawn once from a constant
# seed; --seed draws the unimodular base changes that scramble every input
# file.  So runs with different seeds feed the program different bytes for
# the same mix of problems, and a run that times a prefix of the op list
# sees the same mix of shapes whatever the seed.

METABOLIC_SCHEDULE = [
    # ("random", mu, dim, zeta): the random_form construction against a
    # scramble.  Skew forms only: a zeta = +1 pair can reach the Hasse-Witt
    # check, which calls some metabolic forms nontrivial (ROADMAP item 1);
    # those pairs are in HASSE_SCHEDULE.  Three cheap shapes against nine
    # dear ones of similar cost, so that the median op is one of many alike
    # and does not jump between two clusters from seed to seed.
    ("random", 1, 2, -1), ("random", 1, 4, -1), ("random", 2, 4, -1),
    ("random", 2, 2, -1), ("random", 3, 4, -1), ("random", 2, 4, -1),
    ("random", 3, 2, -1), ("random", 1, 4, -1), ("random", 3, 4, -1),
    ("random", 2, 4, -1), ("random", 1, 4, -1), ("random", 3, 4, -1),
]

HASSE_SCHEDULE = [
    # ("random", mu, dim, zeta) as above, and ("diagonal", k): <a_1..a_k>
    # on s = 1/2 against a scramble.  Symmetric forms, where the Hasse-Witt
    # defect of ROADMAP item 1 shows: at this commit about a fifth of these
    # ops come back not-cobordant.
    ("random", 1, 2, 1), ("random", 1, 4, 1), ("diagonal", 3),
    ("random", 2, 3, 1), ("random", 2, 4, 1), ("diagonal", 4),
    ("random", 3, 4, 1), ("random", 1, 4, 1), ("diagonal", 2),
    ("random", 2, 4, 1), ("random", 3, 4, 1), ("diagonal", 3),
]

KNOT_SCHEDULE = [2]

COVER_SCHEDULE = [
    # ("pairing", mu, dim, degree): cover with a form
    # ("series", mu, dim, degree): cover without a form
    # ("primitive", mu, primitive dim, other dim)
    ("pairing", 2, 2, 8), ("series", 2, 3, 9), ("primitive", 2, 2, 2),
    ("pairing", 3, 2, 6), ("series", 3, 2, 7), ("primitive", 3, 1, 3),
    ("pairing", 2, 3, 8), ("series", 2, 2, 10), ("primitive", 2, 3, 1),
    ("pairing", 3, 3, 6), ("series", 3, 3, 6), ("primitive", 3, 2, 2),
]

NON_PRIMITIVE_EIGENVALUES = [Fraction(2), Fraction(-1), Fraction(3),
                             Fraction(1, 2), Fraction(-2)]


def _metabolic_op(corpus, scramble, shape):
    if shape[0] == "random":
        _, mu, dim, zeta = shape
        a = random_form(corpus, mu, dim, zeta)
    else:
        a = diagonal_form(corpus, shape[1])
    return {"kind": shape[0], "argv": ["cobordant", "a.json", "b.json"],
            "files": {"a.json": input_doc(base_change(scramble, form=a)[0]),
                      "b.json": input_doc(base_change(scramble, form=a)[0])},
            "expect": {"verdict": "cobordant-by-these-invariants"}}


def _knot_ops(corpus, scramble, genus):
    k = knot_form(corpus, genus)
    irreducible = certified_irreducible(charpoly(k[1]))
    first = {"kind": "knot", "argv": ["invariants", "k.json"],
             "files": {"k.json": input_doc(base_change(scramble, form=k)[0])},
             "expect": {"irreducible": irreducible}}
    second = {"kind": "knot-scrambled", "argv": ["invariants", "k.json"],
              "files": {"k.json": input_doc(base_change(scramble, form=k)[0])},
              "expect": {"irreducible": irreducible, "same_as_previous": True}}
    return [first, second]


def _cover_op(corpus, scramble, shape):
    kind, mu = shape[0], shape[1]
    if kind in ("pairing", "series"):
        _, _, dim, degree = shape
        if kind == "pairing":
            v = base_change(scramble, form=random_form(
                corpus, mu, dim, corpus.choice([1, -1])))[0]
        else:
            v = base_change(scramble,
                            module=random_block_module(corpus, mu, dim))[0]
        return {"kind": kind,
                "argv": ["cover", "v.json", "--degree", str(degree)],
                "files": {"v.json": input_doc(v)},
                "expect": {"degree": degree}}
    _, _, pdim, odim = shape
    prim = triangular_module(corpus, mu, pdim,
                             [corpus.choice([0, 1]) for _ in range(pdim)])
    other = triangular_module(corpus, mu, odim,
                              [corpus.choice(NON_PRIMITIVE_EIGENVALUES)
                               for _ in range(odim)])
    v, p = base_change(scramble, module=module_sum(prim, other))
    # the columns of P^-1 span the two summands in the new basis
    p_inv = inverse(p)
    return {"kind": kind, "argv": ["primitive", "v.json"],
            "files": {"v.json": input_doc(v)},
            "expect": {"max_primitive": mat_doc([r[:pdim] for r in p_inv]),
                       "min_coprimitive": mat_doc([r[pdim:] for r in p_inv]),
                       "primitive": odim == 0}}


def make_ops(workload: str, seed: int, count: int) -> list:
    """The first `count` ops of a workload's op list for this seed."""
    corpus = random.Random(f"{workload}:corpus")
    scramble = random.Random(f"{workload}:{seed}")
    ops = []
    i = 0
    while len(ops) < count:
        if workload in ("metabolic_pairs", "hasse_defect"):
            schedule = (METABOLIC_SCHEDULE if workload == "metabolic_pairs"
                        else HASSE_SCHEDULE)
            shape = schedule[i % len(schedule)]
            ops.append(_metabolic_op(corpus, scramble, shape))
        elif workload == "knot_invariants":
            genus = KNOT_SCHEDULE[i % len(KNOT_SCHEDULE)]
            ops.extend(_knot_ops(corpus, scramble, genus))
        elif workload == "cover_series":
            shape = COVER_SCHEDULE[i % len(COVER_SCHEDULE)]
            ops.append(_cover_op(corpus, scramble, shape))
        else:
            raise ValueError(f"unknown workload {workload!r}")
        i += 1
    ops = ops[:count]
    for op_id, op in enumerate(ops):
        op["id"] = op_id
    return ops


def write_ops(ops: list, root: str) -> None:
    """Write every op's input files under root/<id>/ and point its argv at
    them; the documents are canonical JSON, so one seed gives one byte
    string."""
    for op in ops:
        d = os.path.join(root, f"{op['id']:05d}")
        os.makedirs(d, exist_ok=True)
        paths = {}
        for name, doc in op["files"].items():
            path = os.path.join(d, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
            paths[name] = path
        op["argv"] = [paths.get(a, a) for a in op["argv"]] + ["--format",
                                                              "json"]
