"""The covering construction and its power-series shadow.

A Seifert module V yields a presentation sigma = 1 - s(1 - sum z_i e_i) of a
module over the free-group ring; its augmentation is exactly the identity.
Under the Magnus embedding z_i -> 1 + x_i the inverse of sigma is an exact
rational power series whose word coefficients are signed products of the
matrices s e_i, and the linking pairing on the presented module is computed
from that series, by one sweep over the words that keeps each product as
integer rows over a denominator until it is read out (`_word_products`).
The pairing's (-zeta)-hermitian symmetry is checked at truncation level:
the residuals P_ij + zeta bar(P_ji) for i <= j are computed first, and zero
residuals are themselves the certificate (the witness is zero).  Only a
nonzero residual is solved for a bounded-support group-ring witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .rational import (Q0, Q1, QMatrix, _integer_product, _over, _sparse,
                       integer_matrix, rat, rat_str)
from .seifert import SeifertError, SeifertForm, SeifertModule


# ---------------------------------------------------------------------------
# free words and the group ring
# ---------------------------------------------------------------------------

def word_reduce(letters) -> tuple:
    """Free reduction of a sequence of (generator, +-1) letters."""
    out = []
    for g, e in letters:
        if e not in (1, -1) or g < 1:
            raise ValueError(f"bad letter ({g}, {e})")
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def word_mul(w1: tuple, w2: tuple) -> tuple:
    return word_reduce(list(w1) + list(w2))


def word_inv(w: tuple) -> tuple:
    return tuple((g, -e) for g, e in reversed(w))


def word_str(w: tuple) -> str:
    if not w:
        return "1"
    return " ".join(f"z{g}" if e == 1 else f"z{g}^-1" for g, e in w)


class GroupRingElem:
    """Finite rational combination of reduced free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for w, c in terms.items():
                c = rat(c)
                if c:
                    w = word_reduce(w)
                    self.terms[w] = self.terms.get(w, Q0) + c
            self.terms = {w: c for w, c in self.terms.items() if c}

    @staticmethod
    def zero() -> "GroupRingElem":
        return GroupRingElem()

    @staticmethod
    def constant(c) -> "GroupRingElem":
        return GroupRingElem({(): rat(c)})

    @staticmethod
    def generator(i: int, exponent: int = 1) -> "GroupRingElem":
        return GroupRingElem({((i, 1 if exponent > 0 else -1),): Q1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GroupRingElem) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, Q0) + c
        return GroupRingElem({w: c for w, c in out.items() if c})

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupRingElem({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return GroupRingElem({w: c * x for w, x in self.terms.items()})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = word_mul(w1, w2)
                out[w] = out.get(w, Q0) + c1 * c2
        return GroupRingElem({w: c for w, c in out.items() if c})

    __rmul__ = __mul__

    def involution(self) -> "GroupRingElem":
        """The bar map g -> g^{-1}, linearly extended."""
        return GroupRingElem({word_inv(w): c for w, c in self.terms.items()})

    def augment(self) -> Fraction:
        return sum(self.terms.values(), Q0)

    def coeff(self, w: tuple) -> Fraction:
        return self.terms.get(word_reduce(w), Q0)

    def serialize(self) -> list:
        """Sorted [word, coefficient] string pairs."""
        return sorted([word_str(w), rat_str(c)] for w, c in self.terms.items())

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        # (length, word) order: a stable sort by length of the
        # lexicographic order
        for w in sorted(sorted(self.terms), key=len):
            bits.append(f"{rat_str(self.terms[w])}*{word_str(w)}")
        return " + ".join(bits)


class FlkPresentation:
    """Square matrix over the free-group ring with invertible augmentation."""

    def __init__(self, mu: int, entries, ring: str = "Q"):
        self.mu = mu
        self.size = len(entries)
        for row in entries:
            if len(row) != self.size:
                raise SeifertError("presentation matrix must be square")
        self.entries = [[e for e in row] for row in entries]
        self.ring = ring
        aug = self.augmentation()
        if self.size and aug.det() == 0:
            raise SeifertError("augmentation is singular")

    def augmentation(self) -> QMatrix:
        return QMatrix(self.size, self.size,
                       [[e.augment() for e in row] for row in self.entries])

    def support(self) -> set:
        out = set()
        for row in self.entries:
            for e in row:
                out.update(e.terms.keys())
        return out

    def is_linear(self) -> bool:
        return all(len(w) <= 1 and all(e == 1 for _, e in w)
                   for w in self.support())

    def promote(self) -> "FlkPresentation":
        return FlkPresentation(self.mu, self.entries, "Q")

    def __eq__(self, other):
        return (isinstance(other, FlkPresentation) and self.mu == other.mu
                and self.entries == other.entries)

    def __repr__(self):
        return f"FlkPresentation(mu={self.mu}, size={self.size})"


def cover_presentation(V: SeifertModule) -> FlkPresentation:
    """sigma = 1 - s (1 - sum_i z_i e_i); its augmentation is exactly 1."""
    err = V.validate()
    if err is not None:
        raise SeifertError(err)
    n = V.dim
    ident = QMatrix.identity(n)
    const = ident - V.s
    coeffs = [V.s * e for e in V.projections]
    entries = []
    for r in range(n):
        row = []
        for c in range(n):
            terms = {}
            if const.data[r][c]:
                terms[()] = const.data[r][c]
            for i, m in enumerate(coeffs, start=1):
                if m.data[r][c]:
                    terms[((i, 1),)] = m.data[r][c]
            row.append(GroupRingElem(terms))
        entries.append(row)
    pres = FlkPresentation(V.mu, entries, V.ring)
    assert pres.augmentation() == ident
    return pres


# ---------------------------------------------------------------------------
# truncated series in noncommuting variables
# ---------------------------------------------------------------------------

class TruncatedSeries:
    """Polynomial in noncommuting x_1..x_mu modulo words of length > degree.

    Keys are tuples of generator indices (a word in the positive letters)."""

    __slots__ = ("degree", "terms")

    def __init__(self, degree: int, terms=None):
        self.degree = degree
        self.terms = {}
        if terms:
            for w, c in terms.items():
                if len(w) <= degree:
                    c = rat(c)
                    if c:
                        self.terms[tuple(w)] = c

    @staticmethod
    def constant(c, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(degree, {(): rat(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, w) -> Fraction:
        return self.terms.get(tuple(w), Q0)

    def __eq__(self, other):
        return (isinstance(other, TruncatedSeries)
                and self.degree == other.degree and self.terms == other.terms)

    def __add__(self, other):
        d = min(self.degree, other.degree)
        out = {w: c for w, c in self.terms.items() if len(w) <= d}
        for w, c in other.terms.items():
            if len(w) <= d:
                out[w] = out.get(w, Q0) + c
        return TruncatedSeries(d, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TruncatedSeries(self.degree,
                               {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return TruncatedSeries(self.degree,
                                   {w: c * x for w, x in self.terms.items()})
        d = min(self.degree, other.degree)
        out = {}
        for w1, c1 in self.terms.items():
            if len(w1) > d:
                continue
            for w2, c2 in other.terms.items():
                if len(w1) + len(w2) > d:
                    continue
                w = w1 + w2
                out[w] = out.get(w, Q0) + c1 * c2
        return TruncatedSeries(d, out)

    __rmul__ = __mul__

    def truncate(self, degree: int) -> "TruncatedSeries":
        return TruncatedSeries(degree, {w: c for w, c in self.terms.items()
                                        if len(w) <= degree})

    def serialize(self, names: dict | None = None) -> list:
        """[word, coefficient] string pairs in (length, word) order (a
        stable sort by length of the lexicographic order), the word
        written "x1 x2" ("1" when empty).  `names` maps words to their
        names; the entries of one matrix share it, so each word's name is
        built once for the matrix."""
        if names is None:
            names = {}
        terms = self.terms
        out = []
        for w in sorted(sorted(terms), key=len):
            name = names.get(w)
            if name is None:
                name = names[w] = " ".join([f"x{i}" for i in w]) or "1"
            out.append([name, rat_str(terms[w])])
        return out

    def __repr__(self):
        return " + ".join(f"{c}*{name}" for name, c in self.serialize()) \
            or "0"


def magnus_letter(i: int, exponent: int, degree: int) -> TruncatedSeries:
    if exponent == 1:
        return TruncatedSeries(degree, {(): Q1, (i,): Q1})
    # (1 + x)^{-1} = 1 - x + x^2 - ...
    terms = {(): Q1}
    for k in range(1, degree + 1):
        terms[(i,) * k] = Q1 if k % 2 == 0 else -Q1
    return TruncatedSeries(degree, terms)


def magnus_expand(g: GroupRingElem, degree: int) -> TruncatedSeries:
    """Ring homomorphism z_i -> 1 + x_i truncated at the given degree."""
    if degree < 0:
        raise ValueError("negative degree")
    total = TruncatedSeries(degree)
    for w, c in g.terms.items():
        acc = TruncatedSeries.constant(1, degree)
        for gi, e in w:
            acc = acc * magnus_letter(gi, e, degree)
        total = total + acc * c
    return total


def series_involution(t: TruncatedSeries, degree: int | None = None
                      ) -> TruncatedSeries:
    """Anti-automorphism induced by g -> g^{-1}: word reversal composed with
    x_i -> (1 + x_i)^{-1} - 1 = sum_{L >= 1} (-1)^L x_i^L.

    In closed form: in the reversed word, a maximal run of k copies of x_i
    becomes x_i^L for each L >= k, with coefficient (-1)^L C(L-1, k-1) (the
    compositions of L into k parts), within the degree."""
    d = t.degree if degree is None else degree
    # integer numerators over one common denominator until the end
    den = math.lcm(*(c.denominator for c in t.terms.values()))
    out = {}
    for w, c in t.terms.items():
        slack = d - len(w)
        if slack < 0:
            continue
        runs = []
        for i in reversed(w):
            if runs and runs[-1][0] == i:
                runs[-1][1] += 1
            else:
                runs.append([i, 1])
        # (word so far, numerator, degree left to spread over the runs)
        partial = [((), c.numerator * (den // c.denominator), slack)]
        for i, k in runs:
            pieces = [(i,) * (k + e) for e in range(slack + 1)]
            weights = [(-1) ** (k + e) * math.comb(k + e - 1, k - 1)
                       for e in range(slack + 1)]
            partial = [(v + pieces[e], a * weights[e], room - e)
                       for v, a, room in partial for e in range(room + 1)]
        for v, a, _ in partial:
            out[v] = out.get(v, 0) + a
    return TruncatedSeries(d, {v: Fraction(a, den) for v, a in out.items()})


# ---------------------------------------------------------------------------
# exact rational series: linear representations
# ---------------------------------------------------------------------------

def _word_products(start: QMatrix, transitions: list, degree: int):
    """(word, state) pairs for the words in the letters 1..len(transitions)
    of length <= degree (none when degree < 0), breadth-first, a level at a
    time.  The state of w is start T_{i1} ... T_{ik} as (D, N): N is D times
    it in `integer_matrix`'s sparse integer rows, D the product of the
    denominators; one integer product per word, and no Fraction.  The empty
    word always comes, a longer word only when some row of N is not empty:
    every extension of a zero product is zero and all consumers drop zero
    coefficients.  Zero transitions are never tried."""
    frontier = [((), integer_matrix(start))] if degree >= 0 else []
    yield from frontier
    letters = [(i, integer_matrix(t), t.cols)
               for i, t in enumerate(transitions, start=1) if not t.is_zero()]
    for _ in range(degree):
        grown = []
        for w, (D, rows) in frontier:
            for i, (d, N), cols in letters:
                product = _sparse(_integer_product(rows, N, cols))
                if any(product):
                    grown.append((w + (i,), (D * d, product)))
        yield from grown
        frontier = grown


def _series_matrix(states, n: int, degree: int) -> list:
    """n x n matrix of truncated series: entry (p, q) has, at each word w of
    the (w, (D, N)) pairs of `_word_products`, the coefficient N[p][q] / D in
    lowest terms from one gcd; only the nonzero entries are visited."""
    out = [[TruncatedSeries(degree) for _ in range(n)] for _ in range(n)]
    terms = [[t.terms for t in row] for row in out]
    for w, (D, rows) in states:
        values = iter(_over(D, [x for row in rows for _, x in row]))
        for cells, row in zip(terms, rows):
            for q, _ in row:
                cells[q][w] = next(values)
    return out


def _sigma_transitions(V: SeifertModule) -> list:
    """The matrices -s e_i: the coefficient of x_{i1}..x_{ik} in sigma^{-1}
    is their product in word order."""
    return [(V.s * e).scale(-1) for e in V.projections]


@dataclass
class NCRationalSeries:
    """Series recognized by (row, transitions, col): the coefficient of the
    word x_{i1}..x_{ik} is row * T_{i1} ... T_{ik} * col."""

    dim: int
    row: QMatrix          # 1 x dim
    transitions: list     # mu matrices, dim x dim
    col: QMatrix          # dim x 1

    def coeff(self, word) -> Fraction:
        v = self.row
        for i in word:
            v = v * self.transitions[i - 1]
        return (v * self.col).data[0][0]

    def truncate(self, degree: int) -> TruncatedSeries:
        dc, C = integer_matrix(self.col)
        states = _word_products(self.row, self.transitions, degree)
        return _series_matrix(
            ((w, (D * dc, _sparse(_integer_product(rows, C, 1))))
             for w, (D, rows) in states),
            1, degree)[0][0]


@dataclass
class PairingValue:
    exact: NCRationalSeries
    truncated: TruncatedSeries
    degree: int


def sigma_inverse_series(V: SeifertModule):
    """Matrix of exact rational series for sigma^{-1}: the coefficient of
    x_{i1}..x_{ik} in entry (p, q) is the (p, q) entry of
    (-1)^k (s e_{i1}) (s e_{i2}) ... (s e_{ik})."""
    err = V.validate()
    if err is not None:
        raise SeifertError(err)
    n = V.dim
    transitions = _sigma_transitions(V)
    out = []
    for p in range(n):
        row_mat = QMatrix(1, n, [[Q1 if j == p else Q0 for j in range(n)]])
        row = []
        for q in range(n):
            col_mat = QMatrix(n, 1, [[Q1 if i == q else Q0] for i in range(n)])
            row.append(NCRationalSeries(n, row_mat, transitions, col_mat))
        out.append(row)
    return out


def sigma_inverse_truncated(V: SeifertModule, degree: int):
    """n x n matrix of truncated series for sigma^{-1}, computed from the
    exact linear representation in one breadth-first sweep."""
    states = _word_products(QMatrix.identity(V.dim), _sigma_transitions(V),
                            degree)
    return _series_matrix(states, V.dim, degree)


def magnus_matrix(pres: FlkPresentation, degree: int):
    return [[magnus_expand(e, degree) for e in row] for row in pres.entries]


def series_matrix_mul(A, B, degree: int):
    n = len(A)
    m = len(B[0]) if B else 0
    k = len(B)
    out = [[TruncatedSeries(degree) for _ in range(m)] for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = TruncatedSeries(degree)
            for t in range(k):
                acc = acc + A[i][t] * B[t][j]
            out[i][j] = acc
    return out


def truncated_inverse(pres: FlkPresentation, degree: int):
    """Neumann-series inverse of the Magnus image, an independent check of
    the closed-form representation."""
    n = pres.size
    aug_inv = [[TruncatedSeries.constant(c, degree) for c in row]
               for row in pres.augmentation().inverse().data]
    ident = [[TruncatedSeries.constant(int(i == j), degree)
              for j in range(n)] for i in range(n)]
    # normalize: c^{-1} sigma = 1 + tau with tau of positive valuation
    norm = series_matrix_mul(aug_inv, magnus_matrix(pres, degree), degree)
    tau = [[norm[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    acc = power = ident
    for k in range(degree):
        power = series_matrix_mul(power, tau, degree)
        sign = -1 if k % 2 == 0 else 1
        acc = [[acc[i][j] + power[i][j] * sign for j in range(n)]
               for i in range(n)]
        if all(p.is_zero() for row in power for p in row):
            break
    # (1 + tau)^{-1} c^{-1}
    return series_matrix_mul(acc, aug_inv, degree)


# ---------------------------------------------------------------------------
# the linking pairing
# ---------------------------------------------------------------------------

def blanchfield_pairing(f: SeifertForm, degree: int):
    """Pairing values on the standard generators of the presented module.

    Entry (p, q) is the series of phi~(e_p)((1-z) sigma^{-1} e_q): the
    coefficient of x_{i1}..x_{ik} is
    (-1)^k (phi e_p)^T e_{i1} s e_{i2} s ... s e_{ik} e_q.
    Returned both exactly (linear representation of dimension 2n) and
    truncated to the requested degree.
    """
    err = f.validate()
    if err is not None:
        raise SeifertError(f"invalid form: {err}")
    V = f.module
    n = V.dim
    phiT = f.phi.transpose()
    # read off sigma^{-1}: the coefficient of x_i w is phi^T (-e_i) times
    # that of w in sigma^{-1}; the pairing has no constant term
    steps = _sigma_transitions(V)
    trunc = _series_matrix((((i,) + w, state)
                            for i, e in enumerate(V.projections, start=1)
                            for w, state in _word_products(
                                phiT * e.scale(-1), steps, degree - 1)),
                           n, degree)
    # exact linear representation of dimension 2n; the transition grouping
    # is (e_{i1} s)(e_{i2} s)...(e_{i_{k-1}} s) e_{ik}, so the top-left
    # block carries e s and the top-right block the bare projection
    zero_n = QMatrix.zeros(n, n)
    transitions = []
    for e in V.projections:
        top = (e * V.s).scale(-1).hstack(e.scale(-1))
        bottom = zero_n.hstack(zero_n)
        transitions.append(top.vstack(bottom))
    out = []
    for p in range(n):
        row_mat = QMatrix(1, 2 * n, [[phiT.data[p][j] for j in range(n)]
                                     + [Q0] * n])
        row = []
        for q in range(n):
            col_mat = QMatrix(2 * n, 1,
                              [[Q0]] * n
                              + [[Q1 if i == q else Q0] for i in range(n)])
            exact = NCRationalSeries(2 * n, row_mat, transitions, col_mat)
            row.append(PairingValue(exact, trunc[p][q], degree))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# sparse exact solver (shared by witness search and the cokernel oracle)
# ---------------------------------------------------------------------------

class SparseSolver:
    """Incremental sparse Gaussian elimination over Q with solution
    recovery.  Rows are identified by sortable keys; each pivot column is
    normalized so its minimal row key has entry 1."""

    def __init__(self):
        self.pivots = {}    # rowkey -> (coldict, combo over original tags)

    def _reduce(self, col: dict, combo: dict):
        while col:
            r = min(col)
            if r not in self.pivots:
                return col, combo, r
            pcol, pcombo = self.pivots[r]
            f = col[r]
            for k, v in pcol.items():
                col[k] = col.get(k, Q0) - f * v
                if not col[k]:
                    del col[k]
            for k, v in pcombo.items():
                combo[k] = combo.get(k, Q0) - f * v
                if not combo[k]:
                    del combo[k]
        return col, combo, None

    def add_column(self, col: dict, tag):
        col = {k: rat(v) for k, v in col.items() if v}
        combo = {tag: Q1}
        col, combo, r = self._reduce(col, combo)
        if r is None:
            return False
        lead = col[r]
        col = {k: v / lead for k, v in col.items()}
        combo = {k: v / lead for k, v in combo.items()}
        self.pivots[r] = (col, combo)
        return True

    def solve(self, rhs: dict):
        """Coefficients over the added tags with sum tag*column == rhs, or
        None when inconsistent."""
        col = {k: rat(v) for k, v in rhs.items() if v}
        combo: dict = {}
        col, combo, r = self._reduce(col, combo)
        if r is not None:
            return None
        return {k: -v for k, v in combo.items()}


def reduced_words(mu: int, max_len: int):
    """All reduced free-group words of length <= max_len, in breadth-first
    deterministic order."""
    letters = [(i, e) for i in range(1, mu + 1) for e in (1, -1)]
    out = [()]
    frontier = [()]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g, e in letters:
                if w and w[-1] == (g, -e):
                    continue
                nxt.append(w + ((g, e),))
        out.extend(nxt)
        frontier = nxt
    return out


def symmetry_witness(pairing, zeta: int, degree: int):
    """Group-ring witness g with magnus(g_ij) = P_ij - (-zeta) bar(P_ji) to
    the given degree, support of word length <= degree // 2.

    The residuals P_ij + zeta bar(P_ji) for i <= j come first; the others
    are residual_ji = zeta bar(residual_ij).  When every residual vanishes,
    that is the certificate and the witness is zero; only when some residual
    is nonzero are the residuals solved for over the Magnus expansions of
    the reduced words of length <= degree // 2.

    Returns the witness matrix, or None when some entry admits no witness at
    this truncation (the caller may retry at a larger degree).
    """
    n = len(pairing)
    upper = {(i, j): _trunc_of(pairing[i][j])
             + series_involution(_trunc_of(pairing[j][i])) * zeta
             for i in range(n) for j in range(i, n)}
    if all(r.is_zero() for r in upper.values()):
        return [[GroupRingElem() for _ in range(n)] for _ in range(n)]
    words = reduced_words(_pairing_mu(pairing), degree // 2)
    solver = SparseSolver()
    for idx, w in enumerate(words):
        expansion = magnus_expand(GroupRingElem({w: Q1}), degree)
        solver.add_column(dict(expansion.terms), idx)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            # bar is an involution and zeta^2 = 1
            residual = (upper[i, j] if i <= j
                        else series_involution(upper[j, i]) * zeta)
            sol = solver.solve(dict(residual.terms))
            if sol is None:
                return None
            out[i][j] = GroupRingElem({words[k]: c for k, c in sol.items()})
    return out


def _trunc_of(x) -> TruncatedSeries:
    return x.truncated if isinstance(x, PairingValue) else x


def _pairing_mu(pairing) -> int:
    mu = 1
    for row in pairing:
        for x in row:
            t = _trunc_of(x)
            for w in t.terms:
                for i in w:
                    mu = max(mu, i)
    return mu


# ---------------------------------------------------------------------------
# linearization and the inverse construction
# ---------------------------------------------------------------------------

def linearize_presentation(pres: FlkPresentation):
    """Equivalent presentation with support in {1, z_1..z_mu} and
    augmentation exactly 1, by cokernel-preserving moves only.

    Returns (presentation, move log).  Size may grow.
    """
    mu = pres.mu
    log = []

    def max_len(es):
        return max((len(w) for row in es for e in row for w in e.terms),
                   default=0)

    def strip_last_letters(es):
        # repeatedly split off the last letter of maximal-length words
        while max_len(es) > 1:
            L = max_len(es)
            last_letters = sorted({w[-1] for row in es for e in row
                                   for w in e.terms if len(w) == L})
            letter = last_letters[0]
            n = len(es)
            b = [[GroupRingElem() for _ in range(n)] for _ in range(n)]
            a = [[GroupRingElem() for _ in range(n)] for _ in range(n)]
            for r in range(n):
                for c in range(n):
                    for w, coeff in es[r][c].terms.items():
                        if len(w) == L and w[-1] == letter:
                            b[r][c] = b[r][c] + GroupRingElem(
                                {w[:-1]: coeff})
                        else:
                            a[r][c] = a[r][c] + GroupRingElem({w: coeff})
            ell = GroupRingElem({(letter,): Q1})
            zero = GroupRingElem()
            one = GroupRingElem.constant(1)
            new = []
            for r in range(n):
                new.append(a[r] + [-b[r][c] for c in range(n)])
            for r in range(n):
                row = [zero] * (2 * n)
                row[r] = ell
                row[n + r] = one
                new.append(row)
            es = new
            log.append(f"stabilize and strip letter {word_str((letter,))} "
                       f"(size {n} -> {2 * n})")
        return es

    entries = strip_last_letters(pres.entries)
    # kill inverse generators one at a time
    for i in range(1, mu + 1):
        has_inverse = any((i, -1) in w for row in entries for e in row
                          for w in e.terms)
        if not has_inverse:
            continue
        zi = GroupRingElem.generator(i)
        entries = [[e * zi for e in row] for row in entries]
        log.append(f"right-multiply by the unit z{i}")
        entries = strip_last_letters(entries)
    # left-normalize the augmentation to the identity
    n = len(entries)
    aug = QMatrix(n, n, [[e.augment() for e in row] for row in entries])
    if aug.det() == 0:
        raise SeifertError("augmentation became singular (invalid input)")
    if aug != QMatrix.identity(n):
        inv = aug.inverse()
        new = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = GroupRingElem()
                for t in range(n):
                    if inv.data[r][t]:
                        acc = acc + entries[t][c] * inv.data[r][t]
                row.append(acc)
            new.append(row)
        entries = new
        log.append("left-multiply by the inverse augmentation")
    out = FlkPresentation(mu, entries, pres.ring)
    assert out.is_linear()
    assert out.augmentation() == QMatrix.identity(out.size)
    return out, log


def seifert_from_flk(pres: FlkPresentation) -> SeifertModule:
    """Seifert module V with cover_presentation(V) presenting the same
    module as a linear presentation with identity augmentation.

    Writing sigma = 1 - sum_i sigma_i (1 - z_i), the module is V = Q^{mu n}
    with e_i the block projections and s the block matrix with identical
    block rows (sigma_1 ... sigma_mu).
    """
    if not pres.is_linear():
        raise SeifertError("input presentation is not linear")
    n = pres.size
    mu = pres.mu
    if pres.augmentation() != QMatrix.identity(n):
        raise SeifertError("augmentation must be the identity")
    sigma = []
    for i in range(1, mu + 1):
        m = QMatrix(n, n, [[pres.entries[r][c].coeff(((i, 1),))
                            for c in range(n)] for r in range(n)])
        sigma.append(m)
    s_block = QMatrix(mu * n, mu * n,
                      [[sigma[bj].data[r][c] for bj in range(mu)
                        for c in range(n)]
                       for _bi in range(mu) for r in range(n)])
    V = SeifertModule.from_blocks(mu, s_block, [n] * mu, pres.ring)
    assert V.is_valid()
    return V


def change_coefficients(x, target: str):
    """Coefficient promotion Z -> Q (entrywise identity)."""
    if target != "Q":
        raise SeifertError("only promotion to Q is supported")
    if isinstance(x, (SeifertModule, FlkPresentation, SeifertForm)):
        return x.promote()
    raise TypeError(f"cannot change coefficients of {type(x).__name__}")


# ---------------------------------------------------------------------------
# truncated cokernel data (test oracle)
# ---------------------------------------------------------------------------

def presentation_defect(pres: FlkPresentation, degree: int) -> int:
    """Number of standard basis columns e_j for which sigma u = e_j has no
    group-ring solution with reduced-word support of length <= degree.

    Vanishes iff sigma is invertible over the group ring at this support
    bound; nonzero for every bound when the presented module is nonzero.
    """
    n = pres.size
    words = reduced_words(pres.mu, degree)
    solver = SparseSolver()
    for w in words:
        for k in range(n):
            col = {}
            for r in range(n):
                for v, c in pres.entries[r][k].terms.items():
                    key = (word_mul(v, w), r)
                    col[key] = col.get(key, Q0) + c
            solver.add_column(col, (w, k))
    defect = 0
    for j in range(n):
        rhs = {((), j): Q1}
        if solver.solve(rhs) is None:
            defect += 1
    return defect


def truncated_cokernel_data(pres: FlkPresentation, degrees) -> list:
    return [presentation_defect(pres, d) for d in degrees]
