"""Exact arithmetic over the rationals.

Matrices, univariate polynomials, polynomial factorization, real root
isolation, integer factorization, square classes, and the places of Q with
their Hilbert symbols.  No floating point is used anywhere.

A `QMatrix` is its integer model (D, N), D the least common denominator
and N = D times the matrix as sparse integer rows (`integer_matrix`).
Products, sums, stacks, transposes, `eval_matrix`, `det`, `spin`,
`minimal_polynomial` and the eliminations behind `rref`, `coordinates`,
`kernel_columns` and `solve_or_kernel` read and build models, so a chain
of them makes no Fraction.  `.data`, the Fraction entries, is a view built
on the first read and kept; nothing may write to it, since the operations
read the model.  The eliminations run on primitive integer multiples of
their rows; a reduced row echelon form depends only on the row space, so
each result is the one Gauss-Jordan over Q gives.  Polynomial products,
remainders (one pseudo-division loop), field multiplication
(`QPoly.mulmod`) and evaluation work likewise on the integer model Lp of
`integer_poly`, L the common denominator, kept on each polynomial, and
read out once (`QPoly._of` skips the parser).  Every sign of a real
algebraic number is a Tarski query, sign variations of one signed
remainder sequence (`sturm_chain`), the sequence that also counts and
isolates the real roots.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
import re
from fractions import Fraction

Q0 = Fraction(0)
Q1 = Fraction(1)


# at most Python's default int-string limit of digits per integer
_RAT_PATTERN = re.compile(r"-?[0-9]{1,4300}(?:/[0-9]{1,4300})?")


def rat(x) -> Fraction:
    """Parse a rational from an int, Fraction or a string '-?p' or '-?p/q'
    (ASCII digits, at most 4300 of them in p and in q)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        text = x.strip()
        if _RAT_PATTERN.fullmatch(text) is None:
            raise ValueError(f"not a rational of the form p or p/q: "
                             f"{text[:40]!r}")
        p, _, q = text.partition("/")
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    raise TypeError(f"cannot interpret {x!r} as a rational")


def rat_str(x: Fraction) -> str:
    """Serialize a rational (a Fraction or an int) as 'p/q', or 'p' when the
    denominator is 1."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class QMatrix:
    """Rational matrix, held as its integer model (D, N): D > 0 the least
    common denominator of the entries, N = D times the matrix as sparse
    integer rows of (column, entry) pairs, ascending, with no zero entry.
    The model is canonical, and each operation reads the models of its
    operands and builds that of its result (`QMatrix._model`), with no
    Fraction in between.  `data` is a view, the entries as rows of
    Fractions, built by `_over` on the first read and kept.  `QMatrix(...)`
    (parsing with `rat`, checking the shape) and `QMatrix._of` take
    Fraction rows; `integer_matrix` computes their model on first use.

    Immutable: nothing writes to `data`, its rows or its entries outside
    the constructors (`tests/test_immutable_matrices.py` checks this): a
    write would change the view and leave the model, which every
    operation reads, stale."""

    __slots__ = ("rows", "cols", "_data", "_ints")

    def __init__(self, rows: int, cols: int, data):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        data = [[rat(x) for x in row] for row in data]
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("shape mismatch")
        self.rows = rows
        self.cols = cols
        self._data = data
        self._ints = None

    @staticmethod
    def _of(rows: int, cols: int, data: list) -> "QMatrix":
        """The trusted constructor: `data` is `rows` new lists of `cols`
        `Fraction`s each, owned by the result from now on."""
        M = object.__new__(QMatrix)
        M.rows, M.cols, M._data, M._ints = rows, cols, data, None
        return M

    @staticmethod
    def _model(rows: int, cols: int, D: int, N: list) -> "QMatrix":
        """The trusted constructor from a model: `rows` new sparse integer
        rows N over D > 0, owned by the result from now on; one gcd pass
        reduces D to the least common denominator."""
        g = math.gcd(D, *[x for row in N for _, x in row]) if D > 1 else 1
        if g > 1:
            D //= g
            N = [[(j, x // g) for j, x in row] for row in N]
        M = object.__new__(QMatrix)
        M.rows, M.cols, M._data, M._ints = rows, cols, None, (D, N)
        return M

    @property
    def data(self) -> list:
        """The entries as rows of Fractions in lowest terms, a view of the
        model built on the first read and kept: read it, never change it."""
        data = self._data
        if data is None:
            D, N = self._ints
            data = self._data = [_over(D, _dense(row, self.cols)) for row in N]
        return data

    @staticmethod
    def zeros(rows: int, cols: int) -> "QMatrix":
        return QMatrix._model(rows, cols, 1, [[] for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix._model(n, n, 1, [[(i, 1)] for i in range(n)])

    @staticmethod
    def from_rows(rows) -> "QMatrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        return QMatrix(len(rows), ncols, rows)

    @staticmethod
    def column(entries) -> "QMatrix":
        return QMatrix(len(entries), 1, [[x] for x in entries])

    @staticmethod
    def diag(blocks) -> "QMatrix":
        """Block-diagonal assembly."""
        models = [integer_matrix(b) for b in blocks]
        D = math.lcm(*[d for d, _ in models])
        out, j0 = [], 0
        for b, (d, N) in zip(blocks, models):
            out += [[(j0 + j, D // d * x) for j, x in row] for row in N]
            j0 += b.cols
        return QMatrix._model(len(out), j0, D, out)

    def entry(self, i: int, j: int) -> Fraction:
        return self.data[i][j]

    def row(self, i: int) -> list:
        return list(self.data[i])

    def col(self, j: int) -> list:
        return [row[j] for row in self.data]

    def flat(self) -> list:
        """Entries in row-major order."""
        return [x for row in self.data for x in row]

    def transpose(self) -> "QMatrix":
        D, N = integer_matrix(self)
        out = [[] for _ in range(self.cols)]
        for i, row in enumerate(N):
            for j, x in row:
                out[j].append((i, x))
        return QMatrix._model(self.cols, self.rows, D, out)

    def block(self, i0: int, i1: int, j0: int, j1: int) -> "QMatrix":
        """The submatrix of rows i0..i1-1 and columns j0..j1-1."""
        D, N = integer_matrix(self)
        return QMatrix._model(i1 - i0, j1 - j0, D,
                              [[(j - j0, x) for j, x in row if j0 <= j < j1]
                               for row in N[i0:i1]])

    def is_zero(self) -> bool:
        return not any(integer_matrix(self)[1])

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols
                and integer_matrix(self) == integer_matrix(other))

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(r) for r in self.data)))

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return lincomb((Q1, Q1), (self, other))

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return lincomb((Q1, -Q1), (self, other))

    def __neg__(self) -> "QMatrix":
        return lincomb((-Q1,), (self,))

    def scale(self, c) -> "QMatrix":
        return lincomb((c,), (self,))

    def __mul__(self, other):
        """Scalar multiple, or the matrix product: the product of the
        models, over d1*d2."""
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        d1, A = integer_matrix(self)
        d2, B = integer_matrix(other)
        return QMatrix._model(self.rows, other.cols, d1 * d2,
                              _sparse(_integer_product(A, B, other.cols)))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def apply(self, vec: list) -> list:
        """Matrix times a plain list vector."""
        if len(vec) != self.cols:
            raise ValueError("dimension mismatch")
        return [sum((a * x for a, x in zip(row, vec) if a and x), Q0)
                for row in self.data]

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise ValueError("dimension mismatch")
        d1, A = integer_matrix(self)
        d2, B = integer_matrix(other)
        D = math.lcm(d1, d2)
        s1, s2, c = D // d1, D // d2, self.cols
        return QMatrix._model(self.rows, c + other.cols, D,
                              [[(j, s1 * x) for j, x in ra]
                               + [(c + j, s2 * x) for j, x in rb]
                               for ra, rb in zip(A, B)])

    def vstack(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.cols:
            raise ValueError("dimension mismatch")
        return self.transpose().hstack(other.transpose()).transpose()

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot column list).  The
        elimination is `RowSpace`'s, fraction-free on the primitive integer
        multiples of the rows of the model; R has the same row space, so it
        is the reduced form over Q, followed by zero rows."""
        space = RowSpace(self.cols)
        for entries in integer_matrix(self)[1]:
            if space.dim() == self.cols:
                break
            if entries:
                _insert(space.rows, space.pivots,
                        _primitive(_dense(entries, self.cols)))
        D, N = _over_pivots(space.rows, space.pivots)
        return (QMatrix._model(self.rows, self.cols, D,
                               N + [[] for _ in range(self.rows - len(N))]),
                space.pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self) -> Fraction:
        """Bareiss's fraction-free elimination on N = dM, d the common
        denominator: each step divides exactly by the previous pivot, the
        last pivot is det N up to the sign of the row swaps, and
        det M = det N / d^n."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        d, sparse = integer_matrix(self)
        m = [_dense(row, n) for row in sparse]
        sign, prev = 1, 1
        for c in range(n):
            p = next((i for i in range(c, n) if m[i][c]), None)
            if p is None:
                return Q0
            if p != c:
                m[c], m[p] = m[p], m[c]
                sign = -sign
            pivot_row = m[c]
            pivot = pivot_row[c]
            for i in range(c + 1, n):
                f = m[i][c]
                m[i] = [(pivot * x - f * y) // prev
                        for x, y in zip(m[i], pivot_row)]
            prev = pivot
        return Fraction(sign * prev, d ** n)

    def inverse(self) -> "QMatrix":
        res = solve_or_kernel(self)
        if res.inverse is None:
            raise ValueError("matrix is singular")
        return res.inverse

    def __repr__(self):
        body = "; ".join(" ".join(rat_str(x) for x in row)
                         for row in self.data)
        return f"QMatrix({self.rows}x{self.cols}: {body})"


def _over_pivots(rows: list, pivots: list):
    """(D, sparse rows): the integer echelon rows of a `RowSpace`, each
    divided by its pivot entry, over D the lcm of the pivot entries, the
    least common denominator (the rows are primitive)."""
    D = math.lcm(*[row[p] for row, p in zip(rows, pivots)])
    return D, [[(j, x * (D // row[p])) for j, x in enumerate(row) if x]
               for row, p in zip(rows, pivots)]


class SolveResult:
    """Outcome of solve_or_kernel: rank, kernel basis, particular solution,
    inverse (square full-rank case only)."""

    def __init__(self, rank, kernel, particular, inverse):
        self.rank = rank
        self.kernel = kernel          # list of column vectors (plain lists)
        self.particular = particular  # list | None | "inconsistent"
        self.inverse = inverse        # QMatrix | None


def solve_or_kernel(M: QMatrix, b: QMatrix | None = None) -> SolveResult:
    """Rank, null-space basis and, when M is square and regular, the
    inverse, from one rref of M (of [M | 1] when square); and a particular
    solution of M x = b (or "inconsistent") from `coordinates`."""
    n, m = M.rows, M.cols
    if b is not None and b.rows != n:
        raise ValueError("dimension mismatch")
    if b is not None and b.cols != 1:
        raise ValueError("right-hand side must be a single column")
    R, pivots = (M.hstack(QMatrix.identity(n)) if M.is_square()
                 else M).rref()
    rank = bisect.bisect(pivots, m - 1)
    K = _kernel(R, pivots[:rank], m)
    X = None if b is None else coordinates(M, b)
    particular = (None if b is None else "inconsistent" if X is None
                  else X.col(0))
    inverse = R.block(0, n, m, m + n) if rank == n == m else None
    return SolveResult(rank, [K.col(j) for j in range(K.cols)], particular,
                       inverse)


def _kernel(R: QMatrix, pivots: list, m: int) -> QMatrix:
    """Null-space basis of the first m columns of a reduced row echelon
    form R whose pivots among them are `pivots`, as the columns of an
    m x k matrix: for each free column fc, 1 at fc and -R[r][fc] at the
    pivot of each row r."""
    D, N = integer_matrix(R)
    free = sorted(set(range(m)) - set(pivots))
    index = {fc: t for t, fc in enumerate(free)}
    out = [[] for _ in range(m)]
    for t, fc in enumerate(free):
        out[fc] = [(t, D)]
    for p, row in zip(pivots, N):
        out[p] = [(index[j], -x) for j, x in row if j in index]
    return QMatrix._model(m, len(free), D, out)


def coordinates(B: QMatrix, M: QMatrix) -> QMatrix | None:
    """X with B X = M, from one rref of [B | M], free variables set to 0:
    the row of X at the pivot of a row of the rref is that row's M-part.
    None when a column of M lies outside the column span of B."""
    R, pivots = B.hstack(M).rref()
    if pivots and pivots[-1] >= B.cols:
        return None
    D, N = integer_matrix(R)
    out = [[] for _ in range(B.cols)]
    for p, row in zip(pivots, N):
        out[p] = [(j - B.cols, x) for j, x in row if j >= B.cols]
    return QMatrix._model(B.cols, M.cols, D, out)


def span_coordinates(basis: list, mats: list) -> QMatrix | None:
    """Coordinates of each matrix in `mats` in the span of the matrices
    `basis`, as the columns of a len(basis) x len(mats) matrix; None when
    one of them lies outside the span."""
    return coordinates(QMatrix.from_rows([b.flat() for b in basis]).transpose(),
                       QMatrix.from_rows([m.flat() for m in mats]).transpose())


def kernel_columns(M: QMatrix) -> QMatrix:
    """Null-space basis of M as the columns of a (cols x k) matrix; the
    shape is (cols, 0) when the kernel is trivial."""
    R, pivots = M.rref()
    return _kernel(R, pivots, M.cols)


def lincomb(coeffs, mats: list) -> QMatrix:
    """The sum of c * B over paired coefficients and (equally shaped)
    matrices, on their models over the lcm of the denominators of the
    c * B; zero coefficients are skipped.  Sums, differences, negations and
    scalar multiples are such combinations."""
    rows, cols = mats[0].rows, mats[0].cols
    if any((B.rows, B.cols) != (rows, cols) for B in mats):
        raise ValueError("dimension mismatch")
    terms = [(c, integer_matrix(B)) for c, B in
             zip(map(rat, coeffs), mats) if c]
    D = math.lcm(*[c.denominator * d for c, (d, _) in terms])
    acc = [[0] * cols for _ in range(rows)]
    for c, (d, N) in terms:
        s = c.numerator * (D // (c.denominator * d))
        for arow, entries in zip(acc, N):
            for j, x in entries:
                arow[j] += s * x
    return QMatrix._model(rows, cols, D, _sparse(acc))


def integer_matrix(M: QMatrix):
    """(d, N), the model of M: d the least common denominator of the
    entries of M and N = dM as sparse integer rows, a list of (column,
    entry) pairs per row.  A matrix given by Fraction rows has it
    computed on the first call and kept on it (`QMatrix._ints`), so every
    later call returns the same object: read it, never change it."""
    ints = M._ints
    if ints is None:
        d = math.lcm(*[x.denominator for row in M._data for x in row])
        ints = M._ints = (d, [[(j, x.numerator * (d // x.denominator))
                               for j, x in enumerate(row) if x]
                              for row in M._data])
    return ints


def apply_integer(N: list, vec: list) -> list:
    """The sparse integer rows N of `integer_matrix` times an integer
    vector."""
    return [sum(a * vec[j] for j, a in row) for row in N]


def _integer_product(A: list, B: list, cols: int) -> list:
    """Dense integer rows of the product of the sparse integer rows A and
    B of `integer_matrix`, B with `cols` columns."""
    out = []
    for entries in A:
        row = [0] * cols
        for k, a in entries:
            for j, b in B[k]:
                row[j] += a * b
        out.append(row)
    return out


def _sparse(rows: list) -> list:
    """The sparse form of dense integer rows."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in rows]


def _dense(entries: list, cols: int) -> list:
    """The dense integer row, `cols` wide, of a sparse one."""
    row = [0] * cols
    for j, x in entries:
        row[j] = x
    return row


def _over(D: int, xs) -> list:
    """The Fractions x / D for the integers xs and D > 0, each in lowest
    terms from one gcd, with no parsing and no second normalization."""
    out = []
    for x in xs:
        if x:
            g = math.gcd(x, D)
            q = object.__new__(Fraction)
            q._numerator, q._denominator = x // g, D // g
            out.append(q)
        else:
            out.append(Q0)
    return out


def _primitive(v: list) -> list:
    """An integer vector divided by the gcd of its entries."""
    g = math.gcd(*v)
    return v if g in (0, 1) else [x // g for x in v]


def integer_row(vec) -> list:
    """The primitive integer multiple of a rational vector."""
    d = math.lcm(*[x.denominator for x in vec])
    return _primitive([x.numerator * (d // x.denominator) for x in vec])


def _reduce(rows: list, pivots: list, v: list) -> list:
    """An integer multiple of v minus a combination of `rows`, zero at
    every pivot."""
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            a = row[p]
            g = math.gcd(a, c)
            a, c = a // g, c // g
            v = [a * x - c * y for x, y in zip(v, row)]
    return v


def _insert(rows: list, pivots: list, v: list) -> bool:
    """Insert the integer vector v into primitive integer echelon rows,
    each zero at the other rows' pivots, pivots ascending; True when it
    enlarged their span."""
    v = _reduce(rows, pivots, v)
    p = next((i for i, x in enumerate(v) if x), None)
    if p is None:
        return False
    v = _primitive(v)
    pv = v[p]
    for i, row in enumerate(rows):
        c = row[p]
        if c:
            g = math.gcd(pv, c)
            a, c = pv // g, c // g
            rows[i] = _primitive([a * x - c * y for x, y in zip(row, v)])
    k = bisect.bisect(pivots, p)
    rows.insert(k, v)
    pivots.insert(k, p)
    return True


class RowSpace:
    """Incremental row space; backbone of spinning and Krylov iterations.
    Rows are kept as primitive integer vectors, zero at the other rows'
    pivots, and `basis_matrix` divides each by its pivot entry: that is the
    reduced row echelon form over Q, whatever multiples were inserted."""

    def __init__(self, width: int):
        self.width = width
        self.rows = []      # primitive integer rows
        self.pivots = []    # pivot column of each row, ascending

    def add(self, vec) -> bool:
        """Insert a rational vector; returns True if it enlarged the
        space."""
        return _insert(self.rows, self.pivots, integer_row(vec))

    def contains(self, vec) -> bool:
        return not any(_reduce(self.rows, self.pivots, integer_row(vec)))

    def dim(self) -> int:
        return len(self.rows)

    def basis_matrix(self) -> QMatrix:
        return QMatrix._model(len(self.rows), self.width,
                              *_over_pivots(self.rows, self.pivots))


def spin(mats: list, vectors, width: int) -> RowSpace:
    """Smallest subspace of Q^width containing `vectors` and invariant under
    every matrix in `mats`.  It applies the integer multiple dm of each
    matrix m to primitive integer vectors: dm and m have the same invariant
    subspaces.  The dm are `integer_matrix`'s, kept on each m, so a caller
    that spins again under the same matrices converts none of them twice.
    Each vector is a primitive integer row already, so it goes straight to
    `_insert`, with no second normalization (`RowSpace.add`'s)."""
    space = RowSpace(width)
    ints = [integer_matrix(m)[1] for m in mats]
    queue = []
    for v in map(integer_row, vectors):
        if _insert(space.rows, space.pivots, v):
            queue.append(v)
    while queue:
        v = queue.pop()
        for m in ints:
            w = _primitive(apply_integer(m, v))
            if _insert(space.rows, space.pivots, w):
                queue.append(w)
    return space


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class QPoly:
    """Univariate rational polynomial, coefficients lowest degree first.

    Immutable: nothing writes to `coeffs` outside the two constructors
    (`tests/test_immutable_polys.py` checks this), because `integer_poly`
    keeps the integer model of each polynomial in `_ints` and a write would
    leave that stale."""

    __slots__ = ("coeffs", "_ints")

    def __init__(self, coeffs):
        cs = [rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs
        self._ints = None

    @staticmethod
    def _of(coeffs: list) -> "QPoly":
        """The trusted constructor: `coeffs` is a new list of `Fraction`s,
        owned by the result from now on, and is not parsed."""
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        p = object.__new__(QPoly)
        p.coeffs, p._ints = coeffs, None
        return p

    @staticmethod
    def zero() -> "QPoly":
        return QPoly._of([])

    @staticmethod
    def one() -> "QPoly":
        return QPoly._of([Q1])

    @staticmethod
    def x() -> "QPoly":
        return QPoly._of([Q0, Q1])

    @staticmethod
    def constant(c) -> "QPoly":
        return QPoly([c])

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Q0

    def monic(self) -> "QPoly":
        if not self.coeffs or self.coeffs[-1] == 1:
            return self
        A = integer_poly(self)[1]
        sign = 1 if A[-1] > 0 else -1
        return QPoly._of(_over(sign * A[-1], [sign * a for a in A]))

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly._of([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return QPoly._of([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "QPoly":
        return QPoly._of([-c for c in self.coeffs])

    def __mul__(self, other):
        """Scalar multiple, or the product: the integer models of
        `integer_poly` are convolved and divided once, at the read-out."""
        if isinstance(other, (int, Fraction)):
            return QPoly._of([rat(other) * c for c in self.coeffs])
        L1, A = integer_poly(self)
        L2, B = integer_poly(other)
        return QPoly._of(_over(L1 * L2, _int_poly_mul(A, B)))

    __rmul__ = __mul__

    def mulmod(self, other: "QPoly", modulus: "QPoly") -> "QPoly":
        """(self * other) % modulus, with no Fraction in between: the
        convolution of the integer models is pseudo-divided by the
        modulus's and read out once."""
        L1, A = integer_poly(self)
        L2, B = integer_poly(other)
        e, _, R = _pseudo_divmod(_int_poly_mul(A, B), integer_poly(modulus)[1])
        return QPoly._of(_over(L1 * L2 * e, R))

    def divmod(self, other: "QPoly"):
        """(q, r) with self = q other + r, deg r < deg other: for the
        integer models A = L_a self and B = L_b other and e A = Q B + R
        (`_pseudo_divmod`), q = Q L_b / (L_a e) and r = R / (L_a e)."""
        if self.degree() < other.degree():
            return QPoly.zero(), self
        La, A = integer_poly(self)
        Lb, B = integer_poly(other)
        e, Q, R = _pseudo_divmod(A, B)
        return (QPoly._of(_over(La * e, [Lb * x for x in Q])),
                QPoly._of(_over(La * e, R)))

    def __mod__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[1]

    def __floordiv__(self, other: "QPoly") -> "QPoly":
        return self.divmod(other)[0]

    def gcd(self, other: "QPoly") -> "QPoly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "QPoly":
        return QPoly._of([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: Fraction) -> Fraction:
        """p(u/v): Horner on the integer model A = L p gives the sum of
        A_i u^i v^(k+1-i), k the degree, divided by L v^(k+1) once."""
        L, A = integer_poly(self)
        u, v = x.numerator, x.denominator
        acc, vk = 0, 1
        for a in reversed(A):
            acc, vk = acc * u + a * vk, vk * v
        return _over(L * vk, [acc * v])[0]

    def eval_matrix(self, M: QMatrix) -> QMatrix:
        """p(M), by Horner from the leading coefficient on the integer
        matrix N = dM of `integer_matrix`: with L the common denominator of
        the coefficients c_i and k the degree, L*d^k*p(M) is the integer
        polynomial with coefficients L*c_i*d^(k-i) at N, and it is the
        model of p(M) over L*d^k.  Each step adds the next coefficient on
        the diagonal only."""
        if not M.is_square():
            raise ValueError("dimension mismatch")
        n = M.rows
        if not self.coeffs:
            return QMatrix.zeros(n, n)
        d, N = integer_matrix(M)
        k = self.degree()
        L, A = integer_poly(self)
        ints = [a * d ** (k - i) for i, a in enumerate(A)]
        acc = [[ints[k] if i == j else 0 for j in range(n)]
               for i in range(n)]
        for c in reversed(ints[:-1]):
            acc = _integer_product(_sparse(acc), N, n)
            if c:
                for i, row in enumerate(acc):
                    row[i] += c
        return QMatrix._model(n, n, L * d ** k, _sparse(acc))

    def compose(self, inner: "QPoly") -> "QPoly":
        acc = QPoly.zero()
        for c in reversed(self.coeffs):
            acc = acc * inner + QPoly.constant(c)
        return acc

    def squarefree_part(self) -> "QPoly":
        if self.degree() <= 0:
            return self.monic()
        g = self.gcd(self.derivative())
        if g.degree() <= 0:
            return self.monic()
        return (self // g).monic()

    def format(self, var: str = "x", times: str = "*",
               show_unit: bool = True) -> str:
        """Nonzero terms lowest degree first, "c", "c{times}{var}" and
        "c{times}{var}^i", joined by " + "; "0" for the zero polynomial.
        Without show_unit a coefficient 1 is left out of the nonconstant
        terms."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                terms.append(rat_str(c))
                continue
            mono = var if i == 1 else f"{var}^{i}"
            terms.append(mono if c == 1 and not show_unit
                         else f"{rat_str(c)}{times}{mono}")
        return " + ".join(terms) or "0"

    def __repr__(self):
        return f"QPoly({self.format()})"


def integer_poly(p: QPoly):
    """(L, A): L the least common denominator of the coefficients of p and
    A = L p as integers.  It is computed once per polynomial and kept on it
    (`QPoly._ints`): read it, never change it."""
    ints = p._ints
    if ints is None:
        L = math.lcm(*[c.denominator for c in p.coeffs])
        ints = p._ints = (L, [c.numerator * (L // c.denominator)
                              for c in p.coeffs])
    return ints


def _int_poly_mul(a: list, b: list) -> list:
    """The product of two integer polynomials, lowest degree first."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _pseudo_divmod(A: list, B: list):
    """(e, Q, R) with e A = Q B + R, e > 0 and len(R) < len(B), for integer
    polynomials A and B != 0 (pseudo-division, Cohen, GTM 138, §3.1).  A
    nonzero top coefficient t scales the running remainder by |b| / gcd(b,
    t), b = B[-1], and e is the product of those scalings (1 if B is monic)."""
    if not B:
        raise ZeroDivisionError("polynomial division by zero")
    R = list(A)
    db = len(B) - 1
    b = B[-1]
    Q = [0] * max(0, len(R) - db)
    e = 1
    for i in range(len(R) - 1, db - 1, -1):
        t = R[i]
        if t:
            g = math.gcd(t, b)
            s, f = abs(b) // g, (t if b > 0 else -t) // g
            k = i - db
            if s != 1:
                e *= s
                R[:k] = [s * x for x in R[:k]]
                Q[k + 1:] = [s * x for x in Q[k + 1:]]
            R[k:i] = [s * x - f * y for x, y in zip(R[k:i], B)]
            Q[k] = f
    return e, Q, R[:db]


def minimal_polynomial(M: QMatrix) -> QPoly:
    """Monic minimal polynomial: the lcm of the annihilators of the Krylov
    chains from the basis vectors, skipping each basis vector that the
    running lcm already annihilates (a Horner check with matrix-vector
    products) and stopping once the lcm has degree n.  The chains run on
    the integer matrix N = dM, d the common denominator; N's minimal
    polynomial q, of degree k, has integer coefficients (Gauss's lemma),
    and that of M is q(dx)/d^k.  Everything stays in integers: for the
    running lcm r and v = r(N) e != 0, the annihilator of v is that of e
    divided by its gcd with r, so the new lcm is r times the annihilator
    of v (`_krylov_annihilator`), and no gcd is taken.  The first is the
    annihilator of e itself."""
    if not M.is_square():
        raise ValueError("minimal polynomial of non-square matrix")
    n = M.rows
    d, N = integer_matrix(M)
    result = [1]
    for start in range(n):
        if len(result) == n + 1:
            break
        # result(N) e, by Horner (result is monic with integer coefficients)
        vec = [int(i == start) for i in range(n)]
        for c in reversed(result[:-1]):
            vec = apply_integer(N, vec)
            vec[start] += c
        if any(vec):
            result = _int_poly_mul(result,
                                   _krylov_annihilator(N, _primitive(vec)))
    k = len(result) - 1
    return QPoly._of([Fraction(c, d ** (k - i)) for i, c in enumerate(result)])


def _krylov_annihilator(N: list, e: list) -> list:
    """Integer coefficients, lowest degree first, of the monic polynomial
    q of least degree with q(N) e = 0, for the sparse integer rows N of
    `integer_matrix` and an integer vector e.  The powers N^i e go through
    one fraction-free elimination (`_reduce`, `_insert`), each tagged with
    its index i in extra columns: the first power that reduces to zero
    carries t with sum t_j N^j e = 0 in its tags, and q = t / t_k, k its
    index.  The division is exact: q divides the minimal polynomial of N,
    which is monic with integer coefficients (Gauss's lemma)."""
    n = len(e)
    rows, pivots = [], []
    vec = e
    for k in itertools.count():
        w = _reduce(rows, pivots, vec + [0] * k + [1] + [0] * (n - k))
        if not any(w[:n]):
            lead = w[n + k]
            return [t // lead for t in w[n:n + k + 1]]
        _insert(rows, pivots, w)
        vec = apply_integer(N, vec)


# ---------------------------------------------------------------------------
# factorization over Q (Zassenhaus)
# ---------------------------------------------------------------------------

_CZ_RNG = random.Random(0x5EEDED)


def _pm_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_mul(a, b, p):
    return _pm_trim([x % p for x in _int_poly_mul(a, b)])


def _pm_divmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        if a[i]:
            f = a[i] * inv % p
            q[i - db] = f
            for j, c in enumerate(b):
                a[i - db + j] = (a[i - db + j] - f * c) % p
    return _pm_trim(q), _pm_trim(a)


def _pm_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        a, b = b, _pm_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [x * inv % p for x in a]
    return a


def _pm_powmod(a, e, mod, p):
    result = [1]
    base = _pm_divmod(a, mod, p)[1]
    while e:
        if e & 1:
            result = _pm_divmod(_pm_mul(result, base, p), mod, p)[1]
        base = _pm_divmod(_pm_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _factor_mod_p(f, p):
    """Factor a squarefree monic polynomial mod p into monic irreducibles."""
    # distinct degree
    factors = []
    h = [0, 1]
    v = list(f)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = _pm_powmod(h, p, v, p)
        g = _pm_gcd([(x - y) % p for x, y in
                     itertools.zip_longest(h, [0, 1], fillvalue=0)], v, p)
        if len(g) > 1:
            factors.extend(_equal_degree_split(g, d, p))
            v = _pm_divmod(v, g, p)[0]
            h = _pm_divmod(h, v, p)[1]
    if len(v) > 1:
        factors.append(v)
    return factors


def _equal_degree_split(g, d, p):
    """Cantor-Zassenhaus on a product g of irreducibles of degree d."""
    n = len(g) - 1
    if n == d:
        return [g]
    while True:
        r = [_CZ_RNG.randrange(p) for _ in range(n)] + [1]
        r = _pm_trim(r)
        t = _pm_powmod(r, (p ** d - 1) // 2, g, p)
        t = list(t)
        if t:
            t[0] = (t[0] - 1) % p
        t = _pm_trim(t)
        h = _pm_gcd(t, g, p)
        if 0 < len(h) - 1 < n:
            return (_equal_degree_split(h, d, p)
                    + _equal_degree_split(_pm_divmod(g, h, p)[0], d, p))


def _hensel_lift_factors(F, mods, p, target):
    """Lift a mod-p factorization of a monic integer polynomial F (F = prod
    mods mod p) to a factorization mod p**k >= target.  Linear lifting with
    precomputed CRT idempotents."""
    r = len(mods)
    if r == 1:
        return [list(F)]
    # Bezout data mod p: t_i * prod_{l != i} g_l == 1 (mod g_i, p)
    ts = []
    for i in range(r):
        u = [1]
        for l in range(r):
            if l != i:
                u = _pm_mul(u, mods[l], p)
        u = _pm_divmod(u, mods[i], p)[1]
        # invert u mod g_i via extended euclid in GF(p)[x]
        t = _pm_invmod(u, mods[i], p)
        ts.append(t)
    q = p
    gs = [list(g) for g in mods]
    while q < target:
        # error term e = (F - prod gs)/q mod p
        prod = [1]
        for g in gs:
            prod = _int_poly_mul(prod, g)
        e = [(a - b) for a, b in
             itertools.zip_longest(F, prod, fillvalue=0)]
        assert all(x % q == 0 for x in e)
        e = [(x // q) % p for x in e]
        e = _pm_trim(e)
        for i in range(r):
            delta = _pm_divmod(_pm_mul(e, ts[i], p), mods[i], p)[1]
            gi = gs[i]
            for j, c in enumerate(delta):
                if c:
                    if j < len(gi):
                        gi[j] += q * c
                    else:
                        raise AssertionError("degree escape in lifting")
        q *= p
    return gs


def _pm_invmod(a, m, p):
    """Inverse of a mod (m, p) in GF(p)[x]."""
    r0, r1 = list(m), _pm_divmod(a, m, p)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = _pm_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pm_trim([(x - y) % p for x, y in
                               itertools.zip_longest(
                                   s0, _pm_mul(q, s1, p), fillvalue=0)])
    if len(r0) != 1:
        raise ValueError("element not invertible")
    inv = pow(r0[0], p - 2, p)
    return [x * inv % p for x in s0]


def _symmetric(x, q):
    x %= q
    return x - q if 2 * x > q else x


def _factor_squarefree_monic_int(F, p=None):
    """Factor a squarefree monic polynomial in Z[x] into monic irreducibles
    (Zassenhaus: factor mod p, Hensel lift past the Mignotte bound, subset
    recombination).  p is the first odd prime of good reduction for F
    (`_good_prime`), searched for when not given."""
    n = len(F) - 1
    if n == 1:
        return [list(F)]
    if p is None:
        p = _good_prime(F, _odd_primes())
    modfactors = _factor_mod_p([c % p for c in F], p)
    if len(modfactors) == 1:
        return [list(F)]
    # Mignotte-style bound on coefficients of any monic factor
    height = max(abs(c) for c in F)
    bound = 2 ** n * int(math.isqrt(n + 1) + 1) * height
    target = 2 * bound + 1
    lifted = _hensel_lift_factors(F, modfactors, p, target)
    q = p
    while q < target:
        q *= p
    lifted = [[_symmetric(c, q) for c in g] for g in lifted]

    # recombination
    result = []
    remaining = list(range(len(lifted)))
    current = list(F)
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for subset in itertools.combinations(remaining, size):
            cand = [1]
            for i in subset:
                cand = _int_poly_mul(cand, lifted[i])
            cand = [_symmetric(c % q, q) for c in cand]
            while cand and cand[-1] == 0:
                cand.pop()
            if not cand or cand[-1] != 1:
                continue
            if any(abs(c) > bound for c in cand):
                continue
            _, quo, rem = _pseudo_divmod(current, cand)
            if not any(rem):
                result.append(cand)
                current = quo
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            size += 1
    if len(current) > 1:
        result.append(current)
    return result


def _odd_primes():
    """3, 5, 7, 11, ...: every odd prime, by trial division."""
    candidate = 3
    while True:
        if all(candidate % d for d in range(3, math.isqrt(candidate) + 1, 2)):
            yield candidate
        candidate += 2


# the primes `factor_rational_poly` tries for its squarefree certificate
_CERTIFICATE_PRIMES = (3, 5, 7, 11, 13)


def _good_prime(F: list, primes):
    """The first of `primes` of good reduction for the integer polynomial F
    (coefficients lowest degree first): one that does not divide its
    leading coefficient and modulo which gcd(F, F') = 1 in F_p[x].  None
    when there is none among them.  Such a prime does not divide the
    discriminant of F, so F is squarefree over Q."""
    for p in primes:
        if F[-1] % p:
            fp = [c % p for c in F]
            dfp = _pm_trim([i * c % p for i, c in enumerate(fp)][1:])
            if dfp and len(_pm_gcd(fp, dfp, p)) == 1:
                return p
    return None


def _squarefree_decomposition(p: QPoly):
    """Yun's algorithm (characteristic zero): monic p -> [(part, multiplicity)]."""
    parts = []
    d = p.derivative()
    g = p.gcd(d)
    if g.degree() == 0:
        return [(p.monic(), 1)]
    w = p // g
    y = d // g
    z = y - w.derivative()
    k = 1
    while not w.is_zero() and w.degree() > 0:
        f = w.gcd(z)
        if f.degree() > 0:
            parts.append((f.monic(), k))
        w2 = w // f
        y2 = z // f
        z = y2 - w2.derivative()
        w = w2
        k += 1
    return parts


def factor_rational_poly(p: QPoly):
    """Factor into monic irreducibles over Q.

    Returns (content, [(factor, multiplicity), ...]) with content a rational
    scalar such that content * prod(factor^mult) == p, the factors in the
    order of `factor_order`.  When a prime of `_CERTIFICATE_PRIMES` is of
    good reduction for the integer model of p (`_good_prime`), p is
    squarefree and Yun's gcds over Q are skipped: the one squarefree part is
    p made monic, as Yun's algorithm gives.  When that integer model is
    monic, the prime is also the one the Zassenhaus step factors modulo, so
    it is not searched for again.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    content = p.lc()
    monic = p.monic()
    if monic.degree() == 0:
        return content, []
    # the certificate's primes are the first odd primes, in order
    prime = _good_prime(_integer_model(monic), _CERTIFICATE_PRIMES)
    if prime is None:
        parts = _squarefree_decomposition(monic)
    else:
        parts = [(monic, 1)]
    out = []
    for part, mult in parts:
        if part.degree() == 0:
            continue
        ints = _integer_model(part)
        a = ints[-1]
        if a != 1:
            # monicize: G(x) = a^(n-1) * P(x/a) is monic with integer coeffs
            n = len(ints) - 1
            G = [ints[i] * a ** (n - 1 - i) for i in range(n)] + [1]
        else:
            G = ints
        for gi in _factor_squarefree_monic_int(G, prime if a == 1 else None):
            if a != 1:
                # map back: factor of P is gi(a x) made monic
                d = len(gi) - 1
                coeffs = [Fraction(gi[i] * a ** i) for i in range(d + 1)]
                fact = QPoly._of(coeffs).monic()
            else:
                fact = QPoly._of([Fraction(c) for c in gi])
            out.append((fact, mult))
    out.sort(key=lambda fm: factor_order(fm[0]))
    return content, out


def factor_order(p: QPoly):
    """The sort key of `factor_rational_poly`'s factors: degree, then the
    printed coefficients."""
    return p.degree(), [str(c) for c in p.coeffs]


def _integer_model(p: QPoly) -> list:
    """The primitive integer multiple of a monic rational polynomial, whose
    leading coefficient is the common denominator of p's coefficients."""
    return integer_poly(p)[1]


def is_irreducible(p: QPoly) -> bool:
    if p.degree() <= 0:
        return False
    _, factors = factor_rational_poly(p)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# Sturm sequences and real root isolation
# ---------------------------------------------------------------------------

def sturm_chain(p: QPoly, q: QPoly):
    """The signed remainder sequence p, q, -rem(p, q), ...: with q = p' a
    Sturm sequence, with q = p'g the sequence of a Tarski query."""
    chain = [p, q]
    while not chain[-1].is_zero() and chain[-1].degree() > 0:
        rem = chain[-2] % chain[-1]
        if rem.is_zero():
            break
        chain.append(-rem)
    return [q for q in chain if not q.is_zero()]


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q.eval(x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound(p: QPoly) -> Fraction:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.lc())
    return 1 + max((abs(c) for c in p.coeffs[:-1]), default=Q0) / lead


def count_real_roots(p: QPoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots in (lo, hi]; p need not be squarefree."""
    sf = p.squarefree_part()
    chain = sturm_chain(sf, sf.derivative())
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


def real_root_data(p: QPoly, interval=None):
    """Distinct real roots of p: (count, list of isolating open intervals).

    Each interval (a, b) has rational endpoints, contains exactly one root,
    and the intervals are pairwise disjoint.  The squarefree part is taken
    internally.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    sf = p.squarefree_part()
    if sf.degree() <= 0:
        return 0, []
    chain = sturm_chain(sf, sf.derivative())

    def var(x):
        return _sign_variations(chain, x)

    if interval is None:
        B = root_bound(sf)
        lo, hi = -B, B
    else:
        # closed interval: an endpoint that is a root moves outward, but
        # only as far as no other root lies between it and its new place
        lo, hi = rat(interval[0]), rat(interval[1])
        lo = _nudge_off_root(sf, var, lo, down=True)
        hi = _nudge_off_root(sf, var, hi, down=False)

    intervals = []

    def isolate(a, b, va, vb):
        k = va - vb
        if k == 0:
            return
        if k == 1:
            intervals.append((a, b))
            return
        mid = (a + b) / 2
        while sf.eval(mid) == 0:
            mid = (a + mid) / 2
        vm = var(mid)
        isolate(a, mid, va, vm)
        isolate(mid, b, vm, vb)

    isolate(lo, hi, var(lo), var(hi))
    intervals.sort()
    return len(intervals), intervals


def _nudge_off_root(p: QPoly, var, x: Fraction, down: bool) -> Fraction:
    """x, or for a root x of the squarefree p the first of x -+ 1/2, 1/4, ..
    (minus when `down`) that is no root and has no root between it and x;
    var(a) - var(b) counts the roots of p in (a, b]."""
    if p.eval(x) != 0:
        return x
    step = Fraction(1, 2)
    while True:
        y = x - step if down else x + step
        # (y, x] must hold x alone, (x, y] no root
        lo, hi = (y, x) if down else (x, y)
        if p.eval(y) != 0 and var(lo) - var(hi) == int(down):
            return y
        step /= 2


def refine_isolating_interval(p: QPoly, interval, max_width: Fraction):
    """Bisect an isolating interval of a squarefree p until narrower than
    max_width.  Keeps the sign-change invariant p(a) p(b) < 0."""
    a, b = interval
    fa = p.eval(a)
    if fa == 0:
        raise ValueError("endpoint is a root")
    while b - a > max_width:
        m = (a + b) / 2
        fm = p.eval(m)
        while fm == 0:
            # shift m towards a until it is off every root
            m = (a + m) / 2
            fm = p.eval(m)
        if (fa > 0) != (fm > 0):
            b = m
        else:
            a, fa = m, fm
    return a, b


def sign_at_root(g: QPoly, h: QPoly, interval) -> int:
    """Sign of g(r) where r is the unique root of squarefree h inside the
    isolating interval (a, b), by a Tarski query: for h(a) h(b) != 0,
    Var(a) - Var(b) of the signed remainder sequence of h and h'g is the
    sum of the signs of g at the roots of h in (a, b) (Basu-Pollack-Roy,
    Algorithms in Real Algebraic Geometry, Thm 2.58).  It is the Cauchy
    index of h'g/h, which h'g mod h has too, as the two differ by a
    polynomial; the sequence starts from that remainder.  Raises
    ValueError when g(r) = 0, which cannot happen when h is irreducible
    and g is nonzero of lower degree."""
    a, b = interval
    if h.eval(a) == 0 or h.eval(b) == 0:
        raise ValueError("interval endpoints must not be roots")
    chain = sturm_chain(h, h.derivative().mulmod(g, h))
    sign = _sign_variations(chain, a) - _sign_variations(chain, b)
    if sign == 0:
        raise ValueError("g vanishes at the root")
    return sign


# ---------------------------------------------------------------------------
# integers: factorization, square classes, places and Hilbert symbols
# ---------------------------------------------------------------------------

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


def _is_probable_prime(n: int) -> bool:
    """Baillie-PSW: strong Fermat tests to the bases 2..37 and a strong
    Lucas test with Selfridge parameters.  The bases alone are proven only
    below 318665857834031151167461 (about 3.2e23), the least strong
    pseudoprime to all of them; 3.3e24 is the bound for the bases 2..41.
    No composite is known to pass both tests, and none below 2^64 does."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return _is_strong_lucas_prp(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd positive n."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _is_strong_lucas_prp(n: int) -> bool:
    """Strong Lucas probable-prime test for odd n > 37 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1,
    Q = (1 - D)/4."""
    if math.isqrt(n) ** 2 == n:
        return False    # no D with (D/n) = -1 exists for a square
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # n + 1 = d 2^s with d odd; U_k, V_k, Q^k by the binary ladder
    d = n + 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V = U * V % n, (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if bit == "1":
            U, V = (U + V) * half % n, (D * U + V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        Qk = Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factor_int(n: int) -> dict:
    """Prime factorization of a positive integer as {prime: exponent}."""
    if n <= 0:
        raise ValueError("positive integer expected")
    out: dict = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 7
    while d * d <= n and d < 100000:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 2
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if m == 1:
                continue
            if _is_probable_prime(m):
                out[m] = out.get(m, 0) + 1
            else:
                f = _pollard_rho(m)
                stack.extend([f, m // f])
    return out


def is_rational_square(x) -> bool:
    """Whether a rational is a square: `math.isqrt` on the numerator and
    the denominator of its lowest terms, with no factoring."""
    x = rat(x)
    return x >= 0 and all(math.isqrt(k) ** 2 == k
                          for k in (x.numerator, x.denominator))


def squarefree_part(x) -> int:
    """Squarefree integer representing the square class of a nonzero
    rational."""
    x = rat(x)
    if x == 0:
        raise ValueError("zero has no square class")
    n = x.numerator * x.denominator
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    for p, e in factor_int(n).items():
        if e % 2:
            out *= p
    return sign * out


def _valuation(x: Fraction, p: int):
    """(v, u) with x = p^v * u and u a p-unit."""
    num, den = x.numerator, x.denominator
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _legendre(u: Fraction, p: int) -> int:
    """Legendre symbol of a p-unit rational."""
    a = u.numerator * pow(u.denominator, -1, p) % p
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def _unit_mod(u: Fraction, p_power: int) -> int:
    return u.numerator * pow(u.denominator, -1, p_power) % p_power


def hilbert_symbol(a, b, place) -> int:
    """(a, b)_v in {+1, -1}: +1 iff z^2 = a x^2 + b y^2 has a nontrivial
    solution over the completion at the place (a prime or "inf")."""
    a, b = rat(a), rat(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol of zero")
    if place == "inf":
        return -1 if (a < 0 and b < 0) else 1
    p = place
    if not isinstance(p, int) or p < 2:
        raise ValueError(f"bad place {place!r}")
    alpha, u = _valuation(a, p)
    beta, v = _valuation(b, p)
    if p == 2:
        eps_u = (_unit_mod(u, 4) - 1) // 2
        eps_v = (_unit_mod(v, 4) - 1) // 2
        om_u = 1 if _unit_mod(u, 8) in (3, 5) else 0
        om_v = 1 if _unit_mod(v, 8) in (3, 5) else 0
        exp = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if exp % 2 else 1
    sign = 1
    if (alpha * beta) % 2 and (p - 1) // 2 % 2:
        sign = -sign
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


def relevant_places(values) -> list:
    """2 and the primes of the nonzero rationals `values`, ascending, then
    "inf": the places where their Hilbert symbols can be -1."""
    places = {2}
    for x in values:
        x = rat(x)
        for n in (abs(x.numerator), x.denominator):
            if n > 1:
                places.update(factor_int(n))
    out = sorted(places)
    out.append("inf")
    return out


def norm_class_test_quadratic(d, m: int) -> bool:
    """Is d a norm from Q(sqrt(m))?  m a squarefree integer, not a square.

    Finitely many symbol checks suffice by bimultiplicativity and the
    product formula: d is a norm iff (d, m)_v = +1 at 2, infinity and every
    odd prime dividing d or m.
    """
    d = rat(d)
    if d == 0:
        raise ValueError("zero is not a unit")
    if m == 1 or m == 0:
        raise ValueError("m must define a quadratic extension")
    places = relevant_places([d, Fraction(m)])
    return all(hilbert_symbol(d, m, v) == 1 for v in places)
