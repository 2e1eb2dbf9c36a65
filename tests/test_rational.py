import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from linkwitt.rational import (QMatrix, QPoly, RowSpace, _is_probable_prime,
                               coordinates, count_real_roots, factor_int,
                               factor_rational_poly, integer_matrix,
                               is_irreducible, kernel_columns, lincomb,
                               minimal_polynomial,
                               rat, rat_str, real_root_data, sign_at_root,
                               solve_or_kernel, spin, squarefree_part)

from support import worked_example_module


def test_rat_parsing_and_serialization():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-2") == -2
    assert rat_str(Fraction(-7, 3)) == "-7/3"
    assert rat_str(Fraction(10, 5)) == "2"


def test_solve_rank_one_symmetric():
    M = QMatrix(2, 2, [[1, 1], [1, 1]])
    res = solve_or_kernel(M)
    assert res.rank == 1
    assert len(res.kernel) == 1
    v = res.kernel[0]
    assert v[0] == -v[1] != 0


def test_solve_identity_system():
    M = QMatrix.identity(3)
    res = solve_or_kernel(M, QMatrix.column([1, 2, 3]))
    assert res.particular == [1, 2, 3]
    assert res.kernel == []
    assert res.inverse == QMatrix.identity(3)


def _independent_rank(matrix):
    # plain forward elimination, written separately from QMatrix.rref
    rows = [list(map(Fraction, r)) for r in matrix.data]
    rank = 0
    for c in range(matrix.cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / pr[c]
                rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


def test_worked_example_endomorphism_rank():
    V = worked_example_module()
    assert solve_or_kernel(V.s).rank == 5
    assert _independent_rank(V.s) == 5


def test_inconsistent_system():
    M = QMatrix(2, 2, [[1, 1], [1, 1]])
    res = solve_or_kernel(M, QMatrix.column([0, 1]))
    assert res.particular == "inconsistent"


def test_minimal_polynomial_paper_matrix():
    M = QMatrix(2, 2, [[1, -1], [1, 0]])
    assert minimal_polynomial(M) == QPoly([1, -1, 1])


def test_minimal_polynomial_zero_matrix():
    assert minimal_polynomial(QMatrix.zeros(3, 3)) == QPoly([0, 1])


def test_minimal_polynomial_diagonal():
    M = QMatrix(3, 3, [[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    p = minimal_polynomial(M)
    assert p == QPoly([6, -5, 1])        # (x-2)(x-3)
    assert p.eval_matrix(M).is_zero()
    # no degree-1 annihilator
    for c in (2, 3):
        if not (M - QMatrix.identity(3).scale(c)).is_zero():
            pass
    assert p.degree() == 2


def test_factor_quartic():
    content, factors = factor_rational_poly(QPoly([1, 0, 1, 0, 1]))
    assert content == 1
    polys = sorted((f.coeffs for f, m in factors))
    assert polys == [[1, -1, 1], [1, 1, 1]]
    prod = QPoly([content])
    for f, m in factors:
        for _ in range(m):
            prod = prod * f
    assert prod == QPoly([1, 0, 1, 0, 1])


def test_factor_irreducible_quadratic():
    _, factors = factor_rational_poly(QPoly([1, -1, 1]))
    assert len(factors) == 1 and factors[0][1] == 1
    assert is_irreducible(QPoly([1, -1, 1]))


def test_factor_difference_of_squares():
    _, factors = factor_rational_poly(QPoly([-1, 0, 1]))
    assert sorted(f.coeffs for f, _ in factors) == [[-1, 1], [1, 1]]


def test_factor_zero_poly_rejected():
    with pytest.raises(ValueError):
        factor_rational_poly(QPoly.zero())


def test_factor_with_multiplicity_and_content():
    # 3 (x-1)^2 (x^2+1)
    p = QPoly([3]) * QPoly([-1, 1]) * QPoly([-1, 1]) * QPoly([1, 0, 1])
    content, factors = factor_rational_poly(p)
    assert content == 3
    assert sorted((f.coeffs, m) for f, m in factors) \
        == [([-1, 1], 2), ([1, 0, 1], 1)]


def test_real_roots_examples():
    assert real_root_data(QPoly([1, -1, 1]))[0] == 0
    count, intervals = real_root_data(QPoly([-2, 0, 1]))
    assert count == 2
    for lo, hi in intervals:
        p = QPoly([-2, 0, 1])
        assert p.eval(lo) * p.eval(hi) < 0
    assert real_root_data(QPoly([0, -1, 0, 1]))[0] == 3   # x^3 - x


def test_real_roots_with_interval():
    count, _ = real_root_data(QPoly([-2, 0, 1]), interval=(0, 2))
    assert count == 1


def test_sign_at_root():
    h = QPoly([-2, 0, 1])
    count, intervals = real_root_data(h)
    signs = sorted(sign_at_root(QPoly([0, 1]), h, iv) for iv in intervals)
    assert signs == [-1, 1]


def test_minimal_polynomial_annihilates_random():
    rng = random.Random(11)
    for _ in range(12):
        n = rng.randint(1, 6)
        M = QMatrix(n, n, [[rng.randint(-3, 3) for _ in range(n)]
                           for _ in range(n)])
        p = minimal_polynomial(M)
        assert p.eval_matrix(M).is_zero()
        assert p.lc() == 1


def test_factorization_roundtrip_random():
    rng = random.Random(12)
    for _ in range(15):
        deg = rng.randint(1, 8)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 4)]
        p = QPoly(coeffs)
        content, factors = factor_rational_poly(p)
        prod = QPoly([content])
        for f, m in factors:
            assert f.lc() == 1
            for _ in range(m):
                prod = prod * f
        assert prod == p
        for f, _ in factors:
            # irreducibility re-check: no rational root, no further split
            _, sub = factor_rational_poly(f)
            assert len(sub) == 1 and sub[0][1] == 1


def _bisection_root_count(p: QPoly, lo, hi, depth=11):
    """Independent oracle: sign changes of the squarefree part on a fine
    dyadic grid (exact arithmetic).  Valid when no two roots share a cell."""
    q = p.squarefree_part()
    step = (hi - lo) / (2 ** depth)
    count = 0
    prev = None
    x = lo
    for k in range(2 ** depth + 1):
        v = q.eval(x)
        if v != 0:
            s = 1 if v > 0 else -1
            if prev is not None and s != prev:
                count += 1
            prev = s
        else:
            count += 1    # grid hit an exact root
            prev = None
        x += step
    return count


def test_sturm_count_against_bisection_oracle():
    rng = random.Random(13)
    for _ in range(20):
        deg = rng.randint(1, 6)
        p = QPoly([rng.randint(-4, 4) for _ in range(deg)]
                  + [rng.choice([1, 2, -1])])
        a, b = Fraction(-8), Fraction(8)
        if p.eval(a) == 0 or p.eval(b) == 0:
            continue
        assert count_real_roots(p, a, b) == _bisection_root_count(p, a, b)


def test_squarefree_part_of_integers():
    assert squarefree_part(4) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(Fraction(-8, 18)) == -1
    assert squarefree_part(Fraction(2, 3)) == 6


@given(st.one_of(
    st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                 max_denominator=10 ** 4),
    st.fractions(min_value=-1000, max_value=1000,
                 max_denominator=100).map(lambda x: x * x)).filter(bool))
@settings(derandomize=True, deadline=None, max_examples=300)
def test_is_rational_square_agrees_with_squarefree_part(x):
    from linkwitt.rational import is_rational_square
    assert is_rational_square(x) == (squarefree_part(x) == 1)


def test_matrix_inverse_roundtrip():
    rng = random.Random(14)
    for _ in range(8):
        n = rng.randint(1, 5)
        while True:
            M = QMatrix(n, n, [[rng.randint(-4, 4) for _ in range(n)]
                               for _ in range(n)])
            if M.det() != 0:
                break
        assert M * M.inverse() == QMatrix.identity(n)


def _random_of_rank(rng, rows, cols, rank):
    left = QMatrix(rows, rank, [[rng.randint(-3, 3) for _ in range(rank)]
                                for _ in range(rows)])
    right = QMatrix(rank, cols, [[rng.randint(-3, 3) for _ in range(cols)]
                                 for _ in range(rank)])
    return left * right


def test_coordinates_agree_with_solve_or_kernel():
    rng = random.Random(41)
    deficient = 0
    for _ in range(40):
        rows, cols, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        B = _random_of_rank(rng, rows, cols, rng.randint(0, min(rows, cols)))
        if B.rank() < cols:
            deficient += 1
        M = B * QMatrix(cols, k, [[Fraction(rng.randint(-5, 5),
                                             rng.randint(1, 4))
                                    for _ in range(k)] for _ in range(cols)])
        X = coordinates(B, M)
        assert X is not None and (X.rows, X.cols) == (cols, k)
        assert B * X == M
        for j in range(k):
            res = solve_or_kernel(B, QMatrix.column(M.col(j)))
            assert X.col(j) == res.particular
    assert 0 < deficient < 40


def test_coordinates_inconsistent_is_none():
    B = QMatrix(2, 2, [[1, 1], [1, 1]])
    assert coordinates(B, QMatrix.column([0, 1])) is None
    assert coordinates(B, QMatrix(2, 2, [[2, 0], [2, 1]])) is None
    assert coordinates(B, QMatrix(2, 2, [[2, 0], [2, 0]])) is not None


def test_spin_without_matrices_is_the_span():
    rng = random.Random(42)
    for _ in range(20):
        width = rng.randint(1, 5)
        vecs = _random_of_rank(rng, rng.randint(1, 5), width,
                               rng.randint(0, width)).data
        vecs = [[Fraction(x) for x in v] for v in vecs]
        space = spin([], vecs, width)
        R, pivots = QMatrix.from_rows(vecs).rref()
        assert space.dim() == len(pivots)
        assert space.basis_matrix() == QMatrix(len(pivots), width,
                                               R.data[:len(pivots)])


def test_lincomb_equals_scale_and_add_fold():
    rng = random.Random(43)
    for _ in range(20):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        mats = [QMatrix(r, c, [[rng.randint(-4, 4) for _ in range(c)]
                               for _ in range(r)])
                for _ in range(rng.randint(1, 5))]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  for _ in mats]
        fold = QMatrix.zeros(r, c)
        for a, m in zip(coeffs, mats):
            fold = fold + m.scale(a)
        assert lincomb(coeffs, mats) == fold


def test_kernel_columns_shapes():
    assert kernel_columns(QMatrix.identity(3)) == QMatrix.zeros(3, 0)
    tall = QMatrix(3, 2, [[1, 0], [0, 1], [1, 1]])
    assert (kernel_columns(tall).rows, kernel_columns(tall).cols) == (2, 0)
    M = QMatrix(2, 3, [[1, 2, 3], [2, 4, 6]])
    K = kernel_columns(M)
    assert (K.rows, K.cols) == (3, 2)
    assert (M * K).is_zero() and K.rank() == 2


def test_one_printer_for_repr_and_both_report_formats():
    # a zero, a unit, a negative and a fractional coefficient
    p = QPoly([Fraction(-3, 2), 1, 0, -2, Fraction(2, 5), 1])
    assert repr(p) == "QPoly(-3/2 + 1*x + -2*x^3 + 2/5*x^4 + 1*x^5)"
    # discriminant representatives: coefficient always shown
    assert p.format("a", " ") == "-3/2 + 1 a + -2 a^3 + 2/5 a^4 + 1 a^5"
    # endomorphism minimal polynomials: unit coefficient left out
    assert (p.format("x", " ", show_unit=False)
            == "-3/2 + x + -2 x^3 + 2/5 x^4 + x^5")
    assert repr(QPoly.zero()) == "QPoly(0)"


def test_product_keeps_empty_shapes_and_fraction_entries():
    assert QMatrix.zeros(3, 0) * QMatrix.zeros(0, 4) == QMatrix.zeros(3, 4)
    P = QMatrix.zeros(0, 2) * QMatrix(2, 3, [[1, 2, 3], [4, 5, 6]])
    assert (P.rows, P.cols, P.data) == (0, 3, [])
    rng = random.Random(42)
    for _ in range(20):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        A = QMatrix(r, k, [[Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                            for _ in range(k)] for _ in range(r)])
        B = QMatrix(k, c, [[rng.randint(-2, 2) for _ in range(c)]
                           for _ in range(k)])
        AB = A * B
        assert all(type(x) is Fraction for x in AB.flat())
        assert AB.data == [[sum((A.data[i][t] * B.data[t][j]
                                 for t in range(k)), Fraction(0))
                            for j in range(c)] for i in range(r)]


def test_factor_int_splits_strong_pseudoprimes_to_bases_2_to_37():
    assert factor_int(318665857834031151167461) \
        == {399165290221: 1, 798330580441: 1}
    assert factor_int(3317044064679887385961981) \
        == {1287836182261: 1, 2575672364521: 1}


def test_primality_of_mersenne_and_carmichael_numbers():
    assert _is_probable_prime(2 ** 89 - 1)
    assert _is_probable_prime(2 ** 127 - 1)
    assert not _is_probable_prime(561)
    assert not _is_probable_prime(41041)


def test_primality_agrees_with_trial_division():
    # below 20000 this includes the strong Lucas pseudoprimes 5459, 5777,
    # 10877, 16109 and 18971
    for n in range(20000):
        by_division = n > 1 and all(n % p for p in range(2, math.isqrt(n) + 1))
        assert _is_probable_prime(n) == by_division


def test_refined_interval_keeps_its_sign_change_when_midpoints_are_roots():
    # the first midpoint 0 is a root of p, and so is its first shift -1/2
    from linkwitt.rational import refine_isolating_interval
    x = QPoly([0, 1])
    p = -(x * (x + QPoly([Fraction(1, 2)])) * (x - QPoly([Fraction(7, 10)])))
    a, b = refine_isolating_interval(p, (Fraction(-1), Fraction(1)),
                                     Fraction(1, 100))
    assert b - a <= Fraction(1, 100)
    assert p.eval(a) * p.eval(b) < 0


def _minpoly_by_linear_dependence(M):
    # the least k with I, M, ..., M^k linearly dependent, by elimination on
    # the flattened powers with plain Fractions
    n = M.rows
    flat = [[Fraction(x) for row in QMatrix.identity(n).data for x in row]]
    power = QMatrix.identity(n)
    while True:
        power = power * M
        target = [Fraction(x) for row in power.data for x in row]
        k = len(flat)
        # solve sum_j c_j flat[j] = target
        rows = [[flat[j][i] for j in range(k)] + [target[i]]
                for i in range(n * n)]
        piv_cols, r = [], 0
        for c in range(k):
            p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            rows[r] = [x / rows[r][c] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    rows[i] = [x - rows[i][c] * y
                               for x, y in zip(rows[i], rows[r])]
            piv_cols.append(c)
            r += 1
        if all(not row[-1] for row in rows[r:]):
            coeffs = [Fraction(0)] * k
            for i, c in enumerate(piv_cols):
                coeffs[c] = rows[i][-1]
            return QPoly([-c for c in coeffs] + [1])
        flat.append(target)


def _block_diagonal(blocks):
    n = sum(b.rows for b in blocks)
    data = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i in range(b.rows):
            for j in range(b.cols):
                data[at + i][at + j] = b.data[i][j]
        at += b.rows
    return QMatrix(n, n, data)


def _jordan(lam, k):
    return QMatrix(k, k, [[lam if i == j else 1 if j == i + 1 else 0
                           for j in range(k)] for i in range(k)])


def test_minimal_polynomial_of_non_cyclic_matrices():
    # the lcm stops at the start vectors the running lcm annihilates; on
    # matrices whose minimal polynomial has degree < n it must still be
    # the whole minimal polynomial
    rng = random.Random(1913)
    cases = [QMatrix.identity(n).scale(Fraction(c, 3))
             for n in (1, 2, 4) for c in (-2, 0, 5)]
    for _ in range(6):
        k = rng.randint(1, 3)
        B = QMatrix(k, k, [[rng.randint(-3, 3) for _ in range(k)]
                           for _ in range(k)])
        C = QMatrix(1, 1, [[rng.randint(-3, 3)]])
        cases.append(_block_diagonal([B, B]))
        cases.append(_block_diagonal([B, C, B]))
    cases += [_block_diagonal([_jordan(2, 3), _jordan(2, 1)]),
              _block_diagonal([_jordan(-1, 2), _jordan(-1, 2)]),
              _block_diagonal([_jordan(0, 2), _jordan(0, 1), _jordan(3, 1)]),
              _block_diagonal([_jordan(Fraction(1, 2), 1),
                               _jordan(Fraction(1, 2), 2),
                               _jordan(Fraction(1, 2), 1)])]
    # multiplication by elements of Q(sqrt2), Q(sqrt3) and Q(sqrt6) on
    # Q(sqrt2, sqrt3) with the basis 1, sqrt2, sqrt3, sqrt6
    r2 = QMatrix(4, 4, [[0, 2, 0, 0], [1, 0, 0, 0],
                        [0, 0, 0, 2], [0, 0, 1, 0]])
    r3 = QMatrix(4, 4, [[0, 0, 3, 0], [0, 0, 0, 3],
                        [1, 0, 0, 0], [0, 1, 0, 0]])
    one = QMatrix.identity(4)
    cases += [r2, r3, r2 * r3, one.scale(2) + r2.scale(3),
              one - (r2 * r3).scale(Fraction(1, 2))]
    # the same, scrambled by a base change
    scrambled = []
    for M in cases:
        n = M.rows
        while True:
            P = QMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(n)])
            if P.det() != 0:
                break
        scrambled.append(P.inverse() * M * P)
    for M in cases + scrambled:
        expected = _minpoly_by_linear_dependence(M)
        assert expected.degree() < M.rows or M.rows == 1
        assert minimal_polynomial(M) == expected


# ---------------------------------------------------------------------------
# the integer-row kernel against Gauss-Jordan over Q
# ---------------------------------------------------------------------------

BIG = 10 ** 30
ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=4),
    st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))


def integer_kernel_cases(n):
    return settings(derandomize=True, deadline=None, max_examples=n,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def rational_rows(draw, rows, cols):
    """Rows of rational entries, some of them zero or combinations of two
    earlier rows, so that ranks fall short."""
    data = []
    for _ in range(rows):
        kind = draw(st.sampled_from(["free", "free", "zero", "combination"]))
        if kind == "zero" or (kind == "combination" and not data):
            data.append([Fraction(0)] * cols)
        elif kind == "combination":
            a, b = draw(ENTRIES), draw(ENTRIES)
            u, w = draw(st.sampled_from(data)), draw(st.sampled_from(data))
            data.append([a * x + b * y for x, y in zip(u, w)])
        else:
            data.append([draw(ENTRIES) for _ in range(cols)])
    return data


@st.composite
def rational_matrices(draw, square=False, min_size=0, max_size=5):
    rows = draw(st.integers(min_size, max_size))
    cols = rows if square else draw(st.integers(0, max_size))
    return QMatrix(rows, cols, draw(rational_rows(rows, cols)))


def _gauss_jordan(rows, cols):
    # the nonzero rows of the reduced row echelon form and the pivots, by
    # Gauss-Jordan with Fractions: scale the pivot row to 1, clear the column
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        p = next((i for i in range(r, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _gauss_jordan_kernel(rows, cols):
    R, pivots = _gauss_jordan(rows, cols)
    kernel = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(int(c == fc)) for c in range(cols)]
        for row, pc in zip(R, pivots):
            v[pc] = -row[fc]
        kernel.append(v)
    return kernel


@integer_kernel_cases(150)
@given(rational_matrices())
def test_rref_equals_gauss_jordan(M):
    R, pivots = M.rref()
    expected, expected_pivots = _gauss_jordan(M.data, M.cols)
    assert pivots == expected_pivots
    assert (R.rows, R.cols) == (M.rows, M.cols)
    assert R.data == expected + [[0] * M.cols] * (M.rows - len(pivots))
    assert all(type(x) is Fraction for x in R.flat())


@integer_kernel_cases(150)
@given(st.integers(0, 5).flatmap(
    lambda cols: st.tuples(st.just(cols), rational_rows(6, cols),
                           rational_rows(3, cols))))
def test_row_space_equals_gauss_jordan(case):
    cols, inserted, probes = case
    space = RowSpace(cols)
    for k, v in enumerate(inserted):
        before = len(_gauss_jordan(inserted[:k], cols)[1])
        after = len(_gauss_jordan(inserted[:k + 1], cols)[1])
        assert space.add(v) == (after > before)
        assert space.dim() == after
    rank = space.dim()
    for v in probes + inserted:
        assert space.contains(v) \
            == (len(_gauss_jordan(inserted + [v], cols)[1]) == rank)
    R, _ = _gauss_jordan(inserted, cols)
    assert space.basis_matrix() == QMatrix(rank, cols, R)


@st.composite
def spin_cases(draw):
    """(n, matrices, vectors): random ones, or P^-1 T P for upper triangular
    T and vectors P^-1 v with v zero past coordinate k, so that the spin is
    a proper subspace that is not spanned by coordinate vectors."""
    n = draw(st.integers(0, 4))
    triangular = n > 1 and draw(st.booleans())
    mats = [QMatrix(n, n, m) for m in draw(st.lists(
        rational_rows(n, n), min_size=int(triangular), max_size=2))]
    vectors = draw(rational_rows(2, n))
    if not triangular:
        return n, mats, vectors
    P = QMatrix(n, n, [[draw(ENTRIES) for _ in range(n)] for _ in range(n)])
    assume(P.det() != 0)
    P_inv = P.inverse()
    mats = [P_inv * QMatrix(n, n, [[x if j >= i else 0
                                    for j, x in enumerate(row)]
                                   for i, row in enumerate(m.data)]) * P
            for m in mats]
    k = draw(st.integers(1, n - 1))
    return n, mats, [P_inv.apply(v[:k] + [0] * (n - k)) for v in vectors]


_T = QMatrix(3, 3, [[1, 2, 3], [0, Fraction(1, 2), 1], [0, 0, Fraction(1, 3)]])
_P = QMatrix(3, 3, [[1, Fraction(1, 2), 0], [0, 1, Fraction(2, 3)], [1, 0, 1]])


@integer_kernel_cases(150)
@given(spin_cases())
@example((3, [_P.inverse() * _T * _P], [_P.inverse().col(0)]))
def test_spin_equals_the_closure_by_gauss_jordan(case):
    n, mats, vectors = case
    basis = _gauss_jordan(vectors, n)[0]
    while True:
        grown = _gauss_jordan(basis + [m.apply(v) for m in mats
                                       for v in basis], n)[0]
        if len(grown) == len(basis):
            break
        basis = grown
    assert spin(mats, vectors, n).basis_matrix() == QMatrix(len(basis), n,
                                                            basis)


@integer_kernel_cases(150)
@given(rational_matrices())
def test_kernel_columns_equal_gauss_jordan(M):
    expected = _gauss_jordan_kernel(M.data, M.cols)
    K = kernel_columns(M)
    assert (K.rows, K.cols) == (M.cols, len(expected))
    assert [K.col(j) for j in range(K.cols)] == expected


@integer_kernel_cases(150)
@given(rational_matrices(square=True))
def test_inverse_equals_gauss_jordan(M):
    n = M.rows
    augmented = [row + [Fraction(int(i == j)) for j in range(n)]
                 for i, row in enumerate(M.data)]
    R, pivots = _gauss_jordan(augmented, 2 * n)
    inverse = solve_or_kernel(M).inverse
    if pivots[:n] == list(range(n)) and len(pivots) == n:
        assert inverse == QMatrix(n, n, [row[n:] for row in R])
    else:
        assert inverse is None


@integer_kernel_cases(100)
@given(rational_matrices(square=True, min_size=1, max_size=4))
@example(QMatrix.identity(3).scale(Fraction(1, 3)))
@example(QMatrix(3, 3, [[0, Fraction(1, 2), Fraction(1, 2)],
                        [0, 0, Fraction(1, 2)], [0, 0, 0]]))
@example(QMatrix.zeros(3, 3))
@example(QMatrix(1, 1, [[Fraction(-7, 3)]]))
@example(QMatrix(1, 1, [[Fraction(BIG + 1, BIG - 1)]]))
def test_minimal_polynomial_equals_the_least_dependence(M):
    p = minimal_polynomial(M)
    assert p.coeffs[-1] == 1
    assert p.eval_matrix(M).is_zero()
    assert p == _minpoly_by_linear_dependence(M)


# ---------------------------------------------------------------------------
# integer products, Horner and Bareiss against Fraction references
# ---------------------------------------------------------------------------

def _fraction_product(a, b, cols):
    # the textbook sum of products, term by term in Fractions
    return [[sum((row[t] * b[t][j] for t in range(len(b))), Fraction(0))
             for j in range(cols)] for row in a]


def _laplace_det(rows):
    # cofactor expansion along the first row
    if not rows:
        return Fraction(1)
    return sum(((-1) ** j * rows[0][j]
                * _laplace_det([r[:j] + r[j + 1:] for r in rows[1:]])
                for j in range(len(rows)) if rows[0][j]), Fraction(0))


COPRIME = [[Fraction(1, 2), Fraction(3, 5)], [Fraction(-2, 7), Fraction(5, 3)]]
COPRIME_TOO = [[Fraction(4, 11), Fraction(1, 13)],
               [Fraction(-1, 17), Fraction(7, 19)]]
HUGE = [[Fraction(BIG + 1, BIG - 7), Fraction(-BIG, 3)],
        [Fraction(1, BIG), Fraction(BIG - 1, BIG + 3)]]


@st.composite
def product_cases(draw):
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    return (QMatrix(r, k, draw(rational_rows(r, k))),
            QMatrix(k, c, draw(rational_rows(k, c))))


@integer_kernel_cases(150)
@given(product_cases())
@example((QMatrix.zeros(0, 3), QMatrix.zeros(3, 0)))
@example((QMatrix.zeros(3, 0), QMatrix.zeros(0, 2)))
@example((QMatrix(1, 1, [[Fraction(-7, 3)]]),
          QMatrix(1, 1, [[Fraction(9, 14)]])))
@example((QMatrix.zeros(3, 2), QMatrix(2, 2, COPRIME)))
@example((QMatrix.identity(2), QMatrix(2, 2, HUGE)))
@example((QMatrix(2, 2, COPRIME), QMatrix(2, 2, COPRIME_TOO)))
@example((QMatrix(2, 2, HUGE), QMatrix(2, 2, HUGE)))
def test_product_equals_the_fraction_product(case):
    A, B = case
    AB = A * B
    assert (AB.rows, AB.cols) == (A.rows, B.cols)
    assert AB.data == _fraction_product(A.data, B.data, B.cols)
    assert all(type(x) is Fraction for x in AB.flat())
    for c in (3, Fraction(2, 7)):
        for M in (A * c, c * A):
            assert M.data == [[x * c for x in row] for row in A.data]
            assert all(type(x) is Fraction for x in M.flat())


def test_product_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        QMatrix.zeros(2, 3) * QMatrix.zeros(2, 3)
    with pytest.raises(ValueError):
        QMatrix.zeros(0, 1) * QMatrix.zeros(0, 1)


POLY_COEFFS = st.lists(ENTRIES, max_size=5)


@integer_kernel_cases(150)
@given(POLY_COEFFS, rational_matrices(square=True, max_size=4))
@example([Fraction(1, 2), Fraction(-3, 5), Fraction(2, 7)],
         QMatrix(2, 2, COPRIME))
@example([Fraction(BIG, 3), 0, Fraction(1, BIG)], QMatrix(2, 2, HUGE))
@example([Fraction(5, 3)], QMatrix.zeros(0, 0))
@example([1, 2, 3], QMatrix.identity(3))
@example([0, 0, Fraction(4, 9)], QMatrix.zeros(2, 2))
def test_eval_matrix_equals_the_fraction_sum_of_powers(coeffs, M):
    n = M.rows
    before = [list(row) for row in M.data]
    P = QPoly(coeffs).eval_matrix(M)
    expected = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in coeffs:
        expected = [[e + rat(c) * x for e, x in zip(erow, prow)]
                    for erow, prow in zip(expected, power)]
        power = _fraction_product(power, M.data, n)
    assert (P.rows, P.cols) == (n, n)
    assert P.data == expected
    assert all(type(x) is Fraction for x in P.flat())
    assert M.data == before
    assert not any(r is s for r in P.data for s in M.data)


def test_eval_matrix_rejects_non_square_matrices():
    for coeffs in ([], [1], [1, 2], [0, 0, 3]):
        for M in (QMatrix.zeros(2, 3), QMatrix.zeros(3, 2),
                  QMatrix.zeros(0, 1)):
            with pytest.raises(ValueError):
                QPoly(coeffs).eval_matrix(M)


@integer_kernel_cases(150)
@given(rational_matrices(square=True, max_size=4))
@example(QMatrix.zeros(0, 0))
@example(QMatrix(2, 2, [[0, 1], [1, 0]]))
@example(QMatrix(3, 3, [[0, 0, Fraction(1, 2)], [0, Fraction(2, 3), 0],
                        [Fraction(3, 5), 0, 0]]))
@example(QMatrix(3, 3, [[1, 2, 3], [2, 4, 7], [5, 1, 1]]))
@example(QMatrix(3, 3, [[Fraction(1, 2), 1, 0], [1, 2, 0], [0, 0, 3]]))
@example(QMatrix(3, 3, [[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
@example(QMatrix(2, 2, COPRIME))
@example(QMatrix(2, 2, HUGE))
@example(QMatrix.identity(4))
def test_det_equals_the_cofactor_expansion(M):
    det = M.det()
    assert type(det) is Fraction
    assert det == _laplace_det(M.data)


def test_det_rejects_non_square_matrices():
    for M in (QMatrix.zeros(2, 3), QMatrix.zeros(0, 1)):
        with pytest.raises(ValueError):
            M.det()


@st.composite
def linear_products(draw):
    """(p, roots, lo, hi): p a product of distinct rational linear factors
    and lo < hi rationals, often roots of p themselves."""
    values = st.fractions(min_value=-3, max_value=3, max_denominator=10)
    roots = draw(st.lists(values, min_size=1, max_size=5, unique=True))
    ends = st.one_of(st.sampled_from(roots), values)
    lo, hi = draw(ends), draw(ends)
    assume(lo != hi)
    p = QPoly.one()
    for r in roots:
        p = p * QPoly([-r, 1])
    return p, roots, min(lo, hi), max(lo, hi)


@integer_kernel_cases(300)
@given(linear_products())
@example((QPoly([0, Fraction(3, 10), 1]), [Fraction(0), Fraction(-3, 10)],
          Fraction(0), Fraction(1)))
@example((QPoly([0, Fraction(-3, 10), 1]), [Fraction(0), Fraction(3, 10)],
          Fraction(-1), Fraction(0)))
def test_real_roots_in_a_closed_interval(case):
    # an endpoint that is a root counts, and moving it off that root must
    # not pass another one
    p, roots, lo, hi = case
    count, intervals = real_root_data(p, interval=(lo, hi))
    assert count == sum(1 for r in roots if lo <= r <= hi)
    for a, b in intervals:
        assert p.eval(a) * p.eval(b) < 0


def test_sign_at_root_raises_when_g_vanishes_at_the_root():
    # g = x - 1 vanishes at the root 1 of x^2 - 1 in (0, 2): the Tarski
    # query counts 0
    with pytest.raises(ValueError, match="vanishes"):
        sign_at_root(QPoly([-1, 1]), QPoly([-1, 0, 1]), (0, 2))


def _sign(x) -> int:
    return (x > 0) - (x < 0)


@integer_kernel_cases(300)
@given(linear_products(),
       st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=10),
                min_size=1, max_size=6),
       st.integers(min_value=-1, max_value=4))
def test_sign_at_root_is_the_sign_at_a_rational_root(case, coeffs, through):
    # h has the known roots; g passes through one of them when through
    # names one
    h, roots, _, _ = case
    g = QPoly(coeffs)
    if 0 <= through < len(roots):
        g = g * QPoly([-roots[through], 1])
    assume(not g.is_zero())
    count, intervals = real_root_data(h)
    assert count == len(roots)
    for a, b in intervals:
        [r] = [r for r in roots if a < r < b]
        if g.eval(r) == 0:
            with pytest.raises(ValueError):
                sign_at_root(g, h, (a, b))
        else:
            assert sign_at_root(g, h, (a, b)) == _sign(g.eval(r))


@integer_kernel_cases(300)
@given(st.integers(min_value=2, max_value=200),
       st.fractions(min_value=-20, max_value=20, max_denominator=7),
       st.fractions(min_value=-20, max_value=20, max_denominator=7))
def test_sign_at_root_is_the_sign_at_a_square_root(m, u, v):
    # g = u + v x at the roots +-sqrt(m) of h = x^2 - m: the sign of
    # u + w sqrt(m) is exact from u^2 against w^2 m when u, w differ in sign
    assume(math.isqrt(m) ** 2 != m and (u, v) != (0, 0))
    h, g = QPoly([-m, 0, 1]), QPoly([u, v])
    count, intervals = real_root_data(h)
    assert count == 2
    for a, b in intervals:
        # (a, b) isolates sqrt(m) exactly when b > sqrt(m)
        w = v if b > 0 and b * b > m else -v
        if _sign(u) * _sign(w) < 0:
            expected = _sign(u) if u * u > w * w * m else _sign(w)
        else:
            expected = _sign(u) or _sign(w)
        assert sign_at_root(g, h, (a, b)) == expected


# ---------------------------------------------------------------------------
# the integer form of a matrix, computed once; the trusted constructor
# ---------------------------------------------------------------------------

def test_integer_matrix_is_kept_on_the_matrix():
    for g in worked_example_module().generators():
        assert integer_matrix(g) is integer_matrix(g)
        fresh = QMatrix(g.rows, g.cols, g.data)
        assert integer_matrix(fresh) == integer_matrix(g)


def test_spinning_converts_each_generator_once(monkeypatch):
    # the walk spins under the same generator objects again and again;
    # each of them is converted to integers by its first spin only
    V = worked_example_module()
    gens = V.generators()
    assert all(g._ints is None for g in gens)
    conversions = []
    lcm = math.lcm

    def counted(*args):
        if sys._getframe(1).f_code is integer_matrix.__code__:
            conversions.append(len(args))
        return lcm(*args)

    monkeypatch.setattr(math, "lcm", counted)
    for i in range(3 * V.dim):
        e = [Fraction(int(j == i % V.dim)) for j in range(V.dim)]
        spin(V.generators(), [e], V.dim)
    assert conversions == [V.dim * V.dim] * len(gens)


@st.composite
def builder_operands(draw):
    """A, B of one shape, C with A's rows, D with A's columns, S square
    with A's rows, and a scalar: entries with up to 30 digits, shapes
    0 x n and n x 0 included."""
    r, c, k = (draw(st.integers(0, 4)) for _ in range(3))
    A, B, C, D, S = (QMatrix(rows, cols, draw(rational_rows(rows, cols)))
                     for rows, cols in ((r, c), (r, c), (r, k), (k, c),
                                        (r, r)))
    return A, B, C, D, S, draw(ENTRIES)


def _built_by_trusted_constructor(A, B, C, D, S, x):
    space = RowSpace(A.cols)
    for row in A.data:
        space.add(row)
    return [QMatrix.zeros(A.rows, A.cols), QMatrix.identity(A.rows),
            QMatrix.diag([A, S, C]), QMatrix.diag([]), A.transpose(),
            A + B, A - B, -A, A.scale(x), A.hstack(C), A.vstack(D),
            A.rref()[0], S.rref()[0], solve_or_kernel(S).inverse,
            coordinates(A, A), coordinates(S, C), lincomb([x, 1], [A, B]),
            lincomb([0], [A]), space.basis_matrix(), A * A.transpose(),
            QPoly([x, 1, x]).eval_matrix(S)]


@integer_kernel_cases(150)
@given(builder_operands())
@example((QMatrix.zeros(0, 3), QMatrix.zeros(0, 3), QMatrix.zeros(0, 2),
          QMatrix.zeros(2, 3), QMatrix.zeros(0, 0), Fraction(BIG, 7)))
@example((QMatrix.zeros(3, 0), QMatrix.zeros(3, 0), QMatrix(3, 2, HUGE + [
    [Fraction(1, 3), 0]]), QMatrix.zeros(1, 0), QMatrix.identity(3),
    Fraction(0)))
@example((QMatrix(2, 2, HUGE), QMatrix(2, 2, COPRIME), QMatrix(2, 2, HUGE),
          QMatrix(2, 2, COPRIME_TOO), QMatrix(2, 2, HUGE), Fraction(-1, BIG)))
def test_builders_hand_the_trusted_constructor_fresh_fraction_rows(case):
    # every builder that skips the parsing constructor must give what the
    # parsing constructor gives, with Fraction entries only, in row lists
    # of its own, and an integer form equal to a fresh conversion
    operands = case[:5]
    for M in operands:
        integer_matrix(M)
    taken = {id(row) for M in operands for row in M.data}
    for M in _built_by_trusted_constructor(*case):
        if M is None:
            continue
        assert M == QMatrix(M.rows, M.cols, M.data)
        assert all(type(x) is Fraction for row in M.data for x in row)
        own = {id(row) for row in M.data}
        assert len(own) == M.rows and not own & taken
        taken |= own
        assert integer_matrix(M) == integer_matrix(
            QMatrix(M.rows, M.cols, [list(row) for row in M.data]))


# ---------------------------------------------------------------------------
# minimal polynomials in integers, and the squarefree certificate
# ---------------------------------------------------------------------------

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def structured_matrices(draw):
    """Scalar, nilpotent and block-diagonal matrices, with repeated blocks
    or blocks of coprime minimal polynomials, some of them scrambled by a
    base change."""
    kind = draw(st.sampled_from(["scalar", "nilpotent", "repeated",
                                 "coprime"]))
    if kind == "scalar":
        M = QMatrix.identity(draw(st.integers(1, 5))).scale(draw(SMALL))
    elif kind == "nilpotent":
        n = draw(st.integers(1, 5))
        M = QMatrix(n, n, [[draw(SMALL) if j > i else 0 for j in range(n)]
                           for i in range(n)])
    else:
        k = draw(st.integers(1, 3))
        B = QMatrix(k, k, [[draw(SMALL) for _ in range(k)]
                           for _ in range(k)])
        if kind == "repeated":
            M = _block_diagonal([B] * draw(st.integers(2, 3)))
        else:
            c = draw(SMALL)
            assume((B - QMatrix.identity(k).scale(c)).det() != 0)
            M = _block_diagonal([B, QMatrix.identity(
                draw(st.integers(1, 2))).scale(c), B])
    if draw(st.booleans()):
        n = M.rows
        P = QMatrix(n, n, [[draw(st.integers(-2, 2)) for _ in range(n)]
                           for _ in range(n)])
        assume(P.det() != 0)
        M = P.inverse() * M * P
    return M


@integer_kernel_cases(150)
@given(structured_matrices())
def test_minimal_polynomial_annihilates_and_is_least(M):
    # p(M) = 0, and no p / f does for an irreducible factor f of p
    p = minimal_polynomial(M)
    assert p.coeffs[-1] == 1
    assert p.eval_matrix(M).is_zero()
    _, factors = factor_rational_poly(p)
    for f, _mult in factors:
        assert not (p // f).eval_matrix(M).is_zero()


def _factor_by_yun(p):
    # factor_rational_poly with no certificate prime: always Yun's path
    import linkwitt.rational as r
    saved = r._CERTIFICATE_PRIMES
    r._CERTIFICATE_PRIMES = ()
    try:
        return factor_rational_poly(p)
    finally:
        r._CERTIFICATE_PRIMES = saved


def _rebuilt(content, factors):
    out = QPoly.constant(content)
    for f, mult in factors:
        for _ in range(mult):
            out = out * f
    return out


POLYS = st.lists(SMALL, min_size=2, max_size=4).map(QPoly).filter(
    lambda p: p.degree() >= 1)


@integer_kernel_cases(150)
@given(POLYS, POLYS, SMALL.filter(bool))
def test_factoring_a_square_times_a_polynomial_matches_yun(p, q, c):
    # p^2 q is not squarefree, so no prime certifies it: Yun's path runs
    from linkwitt.rational import _CERTIFICATE_PRIMES, _good_prime, \
        _integer_model
    f = p * p * q * c
    assert _good_prime(_integer_model(f.monic()), _CERTIFICATE_PRIMES) \
        is None
    content, factors = factor_rational_poly(f)
    assert (content, factors) == _factor_by_yun(f)
    assert _rebuilt(content, factors) == f
    assert max(mult for _f, mult in factors) >= 2


@integer_kernel_cases(150)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=5),
       SMALL.filter(bool))
def test_a_leading_coefficient_divisible_by_every_certificate_prime(
        numerators, c):
    # a constant term 1/(3 * 5 * 7 * 11 * 13): the integer model's leading
    # coefficient is divisible by every certificate prime, so the
    # certificate cannot hold and Yun's path runs; the factors agree
    from linkwitt.rational import _CERTIFICATE_PRIMES, _good_prime, \
        _integer_model
    den = math.prod(_CERTIFICATE_PRIMES)
    monic = QPoly([Fraction(1, den)] + [Fraction(a, den) for a in numerators]
                  + [1])
    assert _integer_model(monic)[-1] == den
    assert _good_prime(_integer_model(monic), _CERTIFICATE_PRIMES) is None
    f = monic * c
    content, factors = factor_rational_poly(f)
    assert (content, factors) == _factor_by_yun(f)
    assert _rebuilt(content, factors) == f


@integer_kernel_cases(150)
@given(POLYS)
def test_a_certified_squarefree_polynomial_factors_as_by_yun(p):
    content, factors = factor_rational_poly(p)
    assert (content, factors) == _factor_by_yun(p)
    assert _rebuilt(content, factors) == p


@pytest.mark.parametrize("coeffs, degrees", [
    ([-2, 0, 0, 1], [3]),                  # x^3 - 2: bad at 3, good at 5
    ([1, 0, -10, 0, 1], [4]),              # sqrt 2 + sqrt 3: bad at 3
    ([6, 0, -5, 0, 1], [2, 2]),            # (x^2 - 2)(x^2 - 3)
    ([-6, 11, -6, 1], [1, 1, 1]),          # (x - 1)(x - 2)(x - 3)
    ([1, 0, 1], [2]),                      # x^2 + 1: good at 3
])
def test_a_monic_squarefree_polynomial_searches_one_good_prime(
        monkeypatch, coeffs, degrees):
    # the certificate's prime is the Zassenhaus prime of a monic integer
    # model: _good_prime runs once per factorization
    import linkwitt.rational as r
    calls = []
    good_prime = r._good_prime

    def counted(F, primes):
        calls.append(tuple(F))
        return good_prime(F, primes)

    monkeypatch.setattr(r, "_good_prime", counted)
    p = QPoly([Fraction(c) for c in coeffs])
    content, factors = factor_rational_poly(p)
    assert calls == [tuple(coeffs)]
    assert content == 1
    assert sorted(f.degree() for f, _mult in factors) == degrees
    assert all(mult == 1 for _f, mult in factors)
    assert _rebuilt(content, factors) == p
    monkeypatch.undo()
    assert (content, factors) == _factor_by_yun(p)


# polynomial arithmetic on integer models against schoolbook Fractions

def _school_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def _school_divmod(a: list, d: list):
    r, n = list(a), len(d) - 1
    q = [Fraction(0)] * max(0, len(r) - n)
    for i in range(len(r) - 1, n - 1, -1):
        f = r[i] / d[-1]
        q[i - n] = f
        for j, c in enumerate(d):
            r[i - n + j] -= f * c
    return _trimmed(q), _trimmed(r)


def _trimmed(cs: list) -> list:
    while cs and not cs[-1]:
        cs.pop()
    return cs


def _well_formed(p: QPoly) -> bool:
    # Fractions in lowest terms with a positive denominator, and no
    # trailing zero
    return (all(type(c) is Fraction and c.denominator > 0
                and math.gcd(c.numerator, c.denominator) == 1
                for c in p.coeffs)
            and (not p.coeffs or p.coeffs[-1] != 0))


DIVISORS = st.lists(ENTRIES, min_size=1, max_size=4).filter(
    lambda cs: any(cs))
ARGUMENTS = st.one_of(ENTRIES, st.integers(-BIG, BIG))


@integer_kernel_cases(400)
@given(POLY_COEFFS, POLY_COEFFS, DIVISORS, ARGUMENTS)
@example([], [Fraction(3)], [Fraction(-2, 3)], Fraction(0))
@example([Fraction(1, 2), Fraction(5)], [Fraction(7, 3)],
         [Fraction(1), Fraction(2), Fraction(-3, BIG)], Fraction(-1, 2))
@example([Fraction(BIG, 7), Fraction(0), Fraction(-1, BIG)],
         [Fraction(-BIG, 11), Fraction(3, 5)],
         [Fraction(2, 9), Fraction(-BIG + 1, 4)], Fraction(BIG, 3))
@example([Fraction(4), Fraction(-6), Fraction(2)], [Fraction(1)],
         [Fraction(5, 2)], 7)
def test_polynomial_arithmetic_matches_schoolbook_fractions(a, b, d, x):
    # d is non-monic, negative-lead, constant or of higher degree than a
    # among the draws; every result is the Fraction computation's
    from types import SimpleNamespace
    from linkwitt.endofield import field_mul
    p, q, m = QPoly(a), QPoly(b), QPoly(d)
    ref_prod = _school_mul(p.coeffs, q.coeffs)
    ref_q, ref_r = _school_divmod(p.coeffs, m.coeffs)
    prod = p * q
    quo, rem = p.divmod(m)
    reduced = field_mul(SimpleNamespace(minpoly=m), p, q)
    assert prod.coeffs == ref_prod
    assert (quo.coeffs, rem.coeffs) == (ref_q, ref_r)
    assert (p // m).coeffs == ref_q and (p % m).coeffs == ref_r
    assert reduced.coeffs == _school_divmod(ref_prod, m.coeffs)[1]
    value = Fraction(0)
    for c in reversed(p.coeffs):
        value = value * x + c
    assert p.eval(x) == value and type(p.eval(x)) is Fraction
    assert all(map(_well_formed, (prod, quo, rem, reduced, p.monic())))


def test_division_by_the_zero_polynomial_raises():
    p = QPoly([1, 2])
    for op in (lambda: p.divmod(QPoly.zero()), lambda: p % QPoly.zero(),
               lambda: p.mulmod(p, QPoly.zero())):
        with pytest.raises(ZeroDivisionError):
            op()


def test_integer_poly_is_kept_on_the_polynomial(monkeypatch):
    # the model of a polynomial is computed by its first use only, however
    # many products, remainders and evaluations read it
    from linkwitt.rational import integer_poly
    p = QPoly([Fraction(1, 6), Fraction(-3, 4), Fraction(5, 9)])
    h = QPoly([-2, 0, 1])
    conversions = []
    lcm = math.lcm

    def counted(*args):
        if sys._getframe(1).f_code is integer_poly.__code__:
            conversions.append(args)
        return lcm(*args)

    monkeypatch.setattr(math, "lcm", counted)
    assert p._ints is None
    for _ in range(3):
        p * p, p % h, p.mulmod(p, h), p.eval(Fraction(2, 3)), p.monic()
    assert integer_poly(p) is integer_poly(p)
    assert integer_poly(p) == (36, [6, -27, 20])
    assert conversions.count((6, 4, 9)) == 1
    assert conversions.count((1, 1, 1)) == 1     # h


@integer_kernel_cases(200)
@given(st.lists(SMALL, min_size=2, max_size=5),
       st.lists(SMALL, min_size=1, max_size=5),
       st.lists(SMALL, min_size=2, max_size=2))
def test_the_tarski_query_of_h_prime_g_mod_h_counts_the_same(hc, gc, ends):
    # the Cauchy index of h'g/h is that of (h'g mod h)/h: on isolating
    # intervals and on any interval whose endpoints are no roots of h, the
    # two signed remainder sequences count the same
    from linkwitt.rational import _sign_variations, sturm_chain
    h = QPoly(hc).squarefree_part()
    g = QPoly(gc)
    assume(h.degree() >= 1 and not g.is_zero())
    full = sturm_chain(h, h.derivative() * g)
    reduced = sturm_chain(h, (h.derivative() * g) % h)
    intervals = list(real_root_data(h)[1])
    lo, hi = sorted(ends)
    if lo < hi and h.eval(lo) and h.eval(hi):
        intervals.append((lo, hi))
    for a, b in intervals:
        count = _sign_variations(full, a) - _sign_variations(full, b)
        assert _sign_variations(reduced, a) - _sign_variations(reduced, b) \
            == count
        if count:
            assert sign_at_root(g, h, (a, b)) == count


# ---------------------------------------------------------------------------
# the integer model against schoolbook Fraction arithmetic
# ---------------------------------------------------------------------------

def _school_product(a, b, inner, cols):
    return [[sum((row[k] * b[k][j] for k in range(inner)), Fraction(0))
             for j in range(cols)] for row in a]


def _school_rref(rows, cols):
    # Gauss-Jordan over Q: (nonzero rows of the reduced form, pivots)
    m = [list(r) for r in rows]
    pivots = []
    for c in range(cols):
        r = next((i for i in range(len(pivots), len(m)) if m[i][c]), None)
        if r is None:
            continue
        k = len(pivots)
        m[k], m[r] = m[r], m[k]
        m[k] = [x / m[k][c] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
        pivots.append(c)
    return m[:len(pivots)], pivots


def _school_kernel(rows, cols):
    # one column per free column of the reduced form, as rows of the
    # cols x k matrix
    R, pivots = _school_rref(rows, cols)
    free = [c for c in range(cols) if c not in pivots]
    vectors = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        vectors.append(v)
    return [[v[i] for v in vectors] for i in range(cols)]


def _school_solve(b, bcols, m, mcols):
    # X with B X = M, free variables 0, or None
    R, pivots = _school_rref([x + y for x, y in zip(b, m)], bcols + mcols)
    if pivots and pivots[-1] >= bcols:
        return None
    X = [[Fraction(0)] * mcols for _ in range(bcols)]
    for r, pc in enumerate(pivots):
        X[pc] = R[r][bcols:]
    return X


def _model_results(A, B, C, D, S, x):
    """(name, result, schoolbook rows) of every operation on the model."""
    r, c, k = A.rows, A.cols, C.cols
    a, b, cc, d, s = A.data, B.data, C.data, D.data, S.data
    zero = Fraction(0)
    R, pivots = _school_rref(a, c)
    space = RowSpace(c)
    for row in a:
        space.add(row)
    ident = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
    horner = [[zero] * r for _ in range(r)]
    for coeff in (x, 1, x):
        horner = _school_product(horner, s, r, r)
        horner = [[y + coeff * int(i == j) for j, y in enumerate(row)]
                  for i, row in enumerate(horner)]
    out = [
        ("product", S * A, _school_product(s, a, r, c)),
        ("sum", A + B, [[p + q for p, q in zip(u, w)] for u, w in zip(a, b)]),
        ("difference", A - B,
         [[p - q for p, q in zip(u, w)] for u, w in zip(a, b)]),
        ("negation", -A, [[-p for p in u] for u in a]),
        ("scale", A.scale(x), [[x * p for p in u] for u in a]),
        ("transpose", A.transpose(), [list(col) for col in zip(*a)]
         if r else [[] for _ in range(c)]),
        ("hstack", A.hstack(C), [u + w for u, w in zip(a, cc)]),
        ("vstack", A.vstack(D), [list(u) for u in a + d]),
        ("block", A.block(r // 2, r, c // 2, c),
         [u[c // 2:] for u in a[r // 2:]]),
        ("diag", QMatrix.diag([A, S]),
         [list(u) + [zero] * r for u in a]
         + [[zero] * c + list(u) for u in s]),
        ("lincomb", lincomb([x, 2], [A, B]),
         [[x * p + 2 * q for p, q in zip(u, w)] for u, w in zip(a, b)]),
        ("rref", A.rref()[0], R + [[zero] * c for _ in range(r - len(R))]),
        ("basis_matrix", space.basis_matrix(), R),
        ("kernel_columns", kernel_columns(A), _school_kernel(a, c)),
        ("eval_matrix", QPoly([x, 1, x]).eval_matrix(S), horner),
        ("coordinates", coordinates(A, C), _school_solve(a, c, cc, k)),
        ("inverse", solve_or_kernel(S).inverse,
         _school_solve(s, r, ident, r)),
    ]
    assert A.rref()[1] == pivots
    return out


@integer_kernel_cases(120)
@given(builder_operands())
@example((QMatrix.zeros(0, 3), QMatrix.zeros(0, 3), QMatrix.zeros(0, 2),
          QMatrix.zeros(3, 3), QMatrix.zeros(0, 0), Fraction(BIG, 7)))
@example((QMatrix.zeros(3, 0), QMatrix.zeros(3, 0), QMatrix(3, 2, HUGE + [
    [Fraction(1, 3), 0]]), QMatrix.zeros(0, 0), QMatrix.identity(3),
    Fraction(0)))
@example((QMatrix(2, 2, HUGE), QMatrix(2, 2, COPRIME), QMatrix(2, 2, HUGE),
          QMatrix(2, 2, COPRIME_TOO), QMatrix(2, 2, HUGE), Fraction(-1, BIG)))
def test_the_model_algebra_is_schoolbook_fraction_arithmetic(case):
    # every operation on integer models gives the matrix that Fraction
    # arithmetic gives; its Fraction view is in lowest terms, in row lists
    # of its own, read once; its model is a fresh conversion of the view
    taken = set()
    for name, M, expected in _model_results(*case):
        if expected is None:
            assert M is None, name
            continue
        assert M._data is None, name           # no Fraction made yet
        data = M.data
        assert M.data is data, name            # the view is built once
        assert data == expected, name
        assert len(data) == M.rows, name
        assert all(len(row) == M.cols for row in data), name
        assert all(type(q) is Fraction and math.gcd(q.numerator,
                                                    q.denominator) == 1
                   for row in data for q in row), name
        own = {id(row) for row in data}
        assert len(own) == M.rows and not own & taken, name
        taken |= own
        fresh = QMatrix(M.rows, M.cols, [list(row) for row in data])
        assert integer_matrix(M) == integer_matrix(fresh), name
        assert M == QMatrix(M.rows, M.cols, M.data), name
        assert hash(M) == hash(fresh), name
        assert M.is_zero() == all(not q for row in data for q in row), name
        assert (M == fresh.scale(2)) == (M.is_zero()), name
