"""Shared fixtures and seeded generators for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

from linkwitt.rational import QMatrix, solve_or_kernel
from linkwitt.seifert import SeifertForm, SeifertModule
from linkwitt.covering import FlkPresentation, GroupRingElem


def worked_example_module() -> SeifertModule:
    s = QMatrix(6, 6, [
        [1, 0, 1, 0, 0, 0],
        [0, 1, -1, -1, -1, 0],
        [0, 1, 0, 0, 0, -1],
        [0, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 1, -1],
        [0, 0, 1, 0, 1, 0]])
    return SeifertModule.from_blocks(2, s, [4, 2], ring="Z")


def worked_example_form() -> SeifertForm:
    phi = QMatrix(6, 6, [
        [0, 0, 0, 1, 0, 0],
        [0, 0, -1, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [-1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, -1],
        [0, 0, 0, 0, 1, 0]])
    return SeifertForm(worked_example_module(), -1, phi)


def worked_example_simple() -> SeifertModule:
    s = QMatrix(4, 4, [
        [1, -1, -1, 0],
        [1, 0, 0, -1],
        [1, 0, 1, -1],
        [0, 1, 1, 0]])
    return SeifertModule.from_blocks(2, s, [2, 2])


def worked_example_simple_form() -> SeifertForm:
    phi = QMatrix(4, 4, [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0]])
    return SeifertForm(worked_example_simple(), -1, phi)


def knot_form(rng: random.Random, genus: int) -> SeifertForm:
    """Levine knot form: Seifert matrix A = S + N with S symmetric and
    A - A^T = J, phi = J, s = J^-1 A = -J A."""
    n = 2 * genus
    sym = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = rng.randint(-2, 2)
    upper = QMatrix(n, n, [[int(j == i + genus) for j in range(n)]
                           for i in range(n)])
    J = upper - upper.transpose()
    V = SeifertModule.from_blocks(1, -(J * (QMatrix(n, n, sym) + upper)),
                                  [n])
    return SeifertForm(V, -1, J)


def random_block_sizes(rng: random.Random, mu: int, dim: int) -> list:
    cuts = sorted(rng.randint(0, dim) for _ in range(mu - 1))
    sizes = []
    prev = 0
    for c in cuts + [dim]:
        sizes.append(c - prev)
        prev = c
    return sizes


def random_module(rng: random.Random, mu: int, dim: int,
                  integral: bool = False) -> SeifertModule:
    """Random Seifert module with coordinate-block projections."""
    s = QMatrix(dim, dim, [[rng.randint(-2, 2) for _ in range(dim)]
                           for _ in range(dim)])
    sizes = random_block_sizes(rng, mu, dim)
    return SeifertModule.from_blocks(mu, s, sizes,
                                     ring="Z" if integral else "Q")


def hyperbolic_form(W: SeifertModule, zeta: int) -> SeifertForm:
    """The standard nonsingular form on W + W*."""
    n = W.dim
    module = W.direct_sum(W.dual())
    ident = QMatrix.identity(n)
    zero = QMatrix.zeros(n, n)
    top = zero.hstack(ident)
    bottom = ident.scale(zeta).hstack(zero)
    phi = top.vstack(bottom)
    form = SeifertForm(module, zeta, phi)
    assert form.validate() is None
    return form


def _solve_form_space(V: SeifertModule, zeta: int) -> list:
    """Basis of matrices phi with phi^T = zeta phi, phi e_i = e_i^T phi and
    phi s = (1 - s^T) phi."""
    n = V.dim
    rows = []
    ident = QMatrix.identity(n)

    def add_equation(coeff_rows):
        rows.extend(coeff_rows)

    # unknowns: phi entries row-major
    def mat_eq(left_mul, right_mul, sign):
        # left_mul * phi * right_mul contributes with the given sign
        out = []
        for i in range(n):
            for j in range(n):
                row = [Fraction(0)] * (n * n)
                for a in range(n):
                    for b in range(n):
                        c = left_mul.data[i][a] * right_mul.data[b][j]
                        if c:
                            row[a * n + b] += sign * c
                out.append(row)
        return out

    def combine(eqs):
        return [[x + y for x, y in zip(r1, r2)] for r1, r2 in zip(*eqs)]

    # phi^T - zeta phi = 0
    sym = []
    for i in range(n):
        for j in range(n):
            row = [Fraction(0)] * (n * n)
            row[j * n + i] += 1
            row[i * n + j] -= zeta
            sym.append(row)
    add_equation(sym)
    for e in V.projections:
        add_equation(combine([mat_eq(ident, e, 1),
                              mat_eq(e.transpose(), ident, -1)]))
    add_equation(combine([mat_eq(ident, V.s, 1),
                          mat_eq(ident - V.s.transpose(), ident, -1)]))
    res = solve_or_kernel(QMatrix.from_rows(rows))
    return [QMatrix(n, n, [vec[i * n:(i + 1) * n] for i in range(n)])
            for vec in res.kernel]


def conjugate_form(rng: random.Random, f: SeifertForm) -> SeifertForm:
    """Transport along a random rational base change; scrambles any block
    structure without affecting validity or the Witt class data."""
    n = f.module.dim
    for _ in range(40):
        P = QMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
                           for _ in range(n)])
        if n == 0 or P.det() != 0:
            break
    else:
        P = QMatrix.identity(n)
    P_inv = P.inverse() if n else P
    V = f.module
    module = SeifertModule(V.mu, P_inv * V.s * P,
                           [P_inv * e * P for e in V.projections])
    out = SeifertForm(module, f.zeta, P.transpose() * f.phi * P)
    assert out.validate() is None
    return out


def _atom_symmetric_1dim(rng: random.Random, mu: int) -> SeifertForm:
    comp = rng.randint(0, mu - 1)
    sizes = [0] * mu
    sizes[comp] = 1
    V = SeifertModule.from_blocks(mu, QMatrix(1, 1, [[Fraction(1, 2)]]),
                                  sizes)
    c = Fraction(rng.choice([1, -1]) * rng.randint(1, 5))
    return SeifertForm(V, 1, QMatrix(1, 1, [[c]]))


def _atom_2dim(rng: random.Random, mu: int, zeta: int) -> SeifertForm:
    comp = rng.randint(0, mu - 1)
    sizes = [0] * mu
    sizes[comp] = 2
    if zeta == -1:
        # s = [[a, b], [c, 1-a]] pairs with the standard symplectic form
        a = Fraction(rng.randint(-2, 2))
        b = Fraction(rng.randint(-2, 2))
        c = Fraction(rng.randint(-2, 2))
        V = SeifertModule.from_blocks(
            mu, QMatrix(2, 2, [[a, b], [c, 1 - a]]), sizes)
        return SeifertForm(V, -1, QMatrix(2, 2, [[0, 1], [-1, 0]]))
    # symmetric: diag(p, q) pairs with s = [[1/2, b], [-p b / q, 1/2]]
    p = Fraction(rng.choice([1, -1]) * rng.randint(1, 4))
    q = Fraction(rng.choice([1, -1]) * rng.randint(1, 4))
    b = Fraction(rng.randint(-2, 2))
    V = SeifertModule.from_blocks(
        mu, QMatrix(2, 2, [[Fraction(1, 2), b],
                           [-p * b / q, Fraction(1, 2)]]), sizes)
    return SeifertForm(V, 1, QMatrix(2, 2, [[p, 0], [0, q]]))


def random_form(rng: random.Random, mu: int, dim: int, zeta: int) -> SeifertForm:
    """Random nonsingular form of dimension <= max(dim, 2), assembled from
    anisotropic atoms and hyperbolic blocks and scrambled by a random base
    change."""
    parts = []
    budget = max(dim, 2 if zeta == -1 else 1)
    while budget > 0:
        roll = rng.random()
        if zeta == 1 and budget >= 1 and roll < 0.3:
            parts.append(_atom_symmetric_1dim(rng, mu))
            budget -= 1
        elif budget >= 2 and roll < 0.65:
            parts.append(_atom_2dim(rng, mu, zeta))
            budget -= 2
        elif budget >= 2:
            W = random_module(rng, mu, rng.randint(1, max(1, budget // 2)))
            parts.append(hyperbolic_form(W, zeta))
            budget -= parts[-1].module.dim
        else:
            break
    if not parts:
        parts.append(_atom_2dim(rng, mu, zeta))
    form = parts[0]
    for p in parts[1:]:
        form = form.direct_sum(p)
    return conjugate_form(rng, form)


def random_solved_form(rng: random.Random, mu: int, dim: int,
                       zeta: int) -> SeifertForm | None:
    """Random nonsingular form found by solving the compatibility system on
    a random module; None when the module carries none.  Slower than
    random_form but not restricted to block-built examples."""
    V = random_module(rng, mu, max(1, dim))
    basis = _solve_form_space(V, zeta)
    if not basis:
        return None
    for _try in range(25):
        phi = QMatrix.zeros(V.dim, V.dim)
        for b in basis:
            phi = phi + b.scale(rng.randint(-3, 3))
        if phi.det() != 0:
            f = SeifertForm(V, zeta, phi)
            if f.validate() is None:
                return f
    return None


def _unimodular(rng: random.Random, n: int) -> QMatrix:
    P = QMatrix.identity(n)
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        E = QMatrix.identity(n).data
        E[i][j] = Fraction(rng.randint(-2, 2))
        P = P * QMatrix(n, n, E)
    return P


def random_integral_form(rng: random.Random, mu: int, dim: int,
                         zeta: int) -> SeifertForm:
    """Nonsingular form with integer entries: hyperbolic blocks and integral
    two-dimensional atoms, scrambled by a unimodular base change."""
    parts = []
    budget = max(dim, 2)
    while budget >= 2:
        if zeta == -1 and rng.random() < 0.5:
            comp = rng.randint(0, mu - 1)
            sizes = [0] * mu
            sizes[comp] = 2
            V = SeifertModule.from_blocks(
                mu, QMatrix(2, 2, [[rng.randint(-2, 2), rng.randint(-2, 2)],
                                   [rng.randint(-2, 2), 0]]), sizes, "Z")
            s = V.s.data
            V = SeifertModule.from_blocks(
                mu, QMatrix(2, 2, [[s[0][0], s[0][1]],
                                   [s[1][0], 1 - s[0][0]]]), sizes, "Z")
            parts.append(SeifertForm(V, -1, QMatrix(2, 2, [[0, 1], [-1, 0]])))
            budget -= 2
        else:
            W = random_module(rng, mu, rng.randint(1, max(1, budget // 2)),
                              integral=True)
            parts.append(hyperbolic_form(W, zeta))
            budget -= parts[-1].module.dim
    form = parts[0]
    for p in parts[1:]:
        form = form.direct_sum(p)
    n = form.module.dim
    P = _unimodular(rng, n)
    P_inv = P.inverse()
    V = form.module
    module = SeifertModule(V.mu, P_inv * V.s * P,
                           [P_inv * e * P for e in V.projections], "Z")
    out = SeifertForm(module, form.zeta,
                      P.transpose() * form.phi * P)
    assert out.validate() is None
    return out


def random_linear_presentation(rng: random.Random, mu: int, n: int,
                               primitive_bias: bool = False
                               ) -> FlkPresentation:
    """Random linear presentation with identity augmentation."""
    while True:
        sigmas = []
        for _i in range(mu):
            if primitive_bias and rng.random() < 0.5:
                # nilpotent upper-triangular coefficient
                m = QMatrix(n, n, [[rng.randint(-1, 1) if c > r else 0
                                    for c in range(n)] for r in range(n)])
            else:
                m = QMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
                                   for _ in range(n)])
            sigmas.append(m)
        entries = []
        for r in range(n):
            row = []
            for c in range(n):
                terms = {}
                const = (Fraction(1) if r == c else Fraction(0)) \
                    - sum((s.data[r][c] for s in sigmas), Fraction(0))
                if const:
                    terms[()] = const
                for i, s in enumerate(sigmas, start=1):
                    if s.data[r][c]:
                        terms[((i, 1),)] = s.data[r][c]
                row.append(GroupRingElem(terms))
            entries.append(row)
        try:
            return FlkPresentation(mu, entries)
        except Exception:
            continue
