"""Numerical invariants of hermitian forms over number fields with
involution: rank mod 2, signatures at the relevant real places, discriminant
class, and the Hasse-Witt invariant over Q.

Signs of real algebraic numbers are determined exactly: Sturm sequences
isolate the real roots and a Tarski query gives each sign; the diagonal
entries and the relative discriminant are written in one primitive element
of the fixed field by one solve.  Discriminant classes are decided by
`endofield.norm_class`: square classes over Q by squarefree normalization,
norm classes of quadratic extensions of Q by a finite Hilbert-symbol
criterion.  Hilbert symbols and their places live in `rational`;
`hilbert_symbol` and `norm_class_test_quadratic` are re-exported here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .rational import (Q0, Q1, QMatrix, QPoly, coordinates, hilbert_symbol,
                       minimal_polynomial, norm_class_test_quadratic, rat,
                       rat_str, real_root_data, relevant_places, sign_at_root,
                       squarefree_part)
from .seifert import SeifertForm
from . import endofield
from .devissage import witt_reduce
from .endofield import (EndomorphismError, HermitianFormOverE,
                        NoncommutativeEndomorphism, field_conj, field_inv,
                        field_mul, field_reduce)


# ---------------------------------------------------------------------------
# Hasse-Witt invariant over Q
# ---------------------------------------------------------------------------

def hasse_witt_over_q(diag) -> list:
    """Hasse-Witt invariant of a diagonal form over Q with the trivial
    involution: c_v = prod_{i<j} (a_i, a_j)_v.  Only the places with
    c_v = -1 are listed; the product formula is verified internally."""
    entries = [rat(x) for x in diag]
    if any(x == 0 for x in entries):
        raise ValueError("singular diagonal entry")
    places = relevant_places(entries)
    nontrivial = []
    product = 1
    for v in places:
        c = 1
        for x, y in itertools.combinations(entries, 2):
            c *= hilbert_symbol(x, y, v)
        product *= c
        if c == -1:
            nontrivial.append((v, -1))
    assert product == 1, "Hilbert product formula violated"
    return nontrivial


# ---------------------------------------------------------------------------
# diagonalization over (E, involution)
# ---------------------------------------------------------------------------

def diagonalize(h: HermitianFormOverE):
    """Congruent diagonal form of a nonsingular hermitian matrix over a
    field with involution: (diagonal entries, congruence witness P) with
    conj(P)^T G P diagonal.  Entries land in the fixed field."""
    nf = h.field
    k = h.rank
    G = [[field_reduce(nf, x) for x in row] for row in h.gram]
    P = [[QPoly.one() if i == j else QPoly.zero() for j in range(k)]
         for i in range(k)]

    def col_op(dst, src, c):
        # v_dst += v_src * c
        for r in range(k):
            G[r][dst] = field_reduce(nf, G[r][dst] + field_mul(nf, G[r][src], c))
        cc = field_conj(nf, c)
        for r in range(k):
            G[dst][r] = field_reduce(nf, G[dst][r] + field_mul(nf, cc, G[src][r]))
        for r in range(k):
            P[r][dst] = field_reduce(nf, P[r][dst] + field_mul(nf, P[r][src], c))

    def swap(i, j):
        for r in range(k):
            G[r][i], G[r][j] = G[r][j], G[r][i]
        for r in range(k):
            G[i][r], G[j][r] = G[j][r], G[i][r]
        for r in range(k):
            P[r][i], P[r][j] = P[r][j], P[r][i]

    for i in range(k):
        if G[i][i].is_zero():
            pivot = next((j for j in range(i + 1, k)
                          if not G[j][j].is_zero()), None)
            if pivot is not None:
                swap(i, pivot)
            else:
                # all remaining diagonal entries vanish: repair from an
                # off-diagonal entry via a trace-nonzero multiplier
                found = None
                for r in range(i, k):
                    for c in range(i, k):
                        if r != c and not G[r][c].is_zero():
                            found = (r, c)
                            break
                    if found:
                        break
                if found is None:
                    raise ValueError("singular hermitian form")
                r, c = found
                lam = _trace_nonzero_multiplier(nf, G[r][c])
                col_op(r, c, lam)
                if r != i:
                    swap(i, r)
        pivot_inv = field_inv(nf, G[i][i])
        for j in range(i + 1, k):
            if not G[i][j].is_zero():
                col_op(j, i, field_reduce(
                    nf, -field_mul(nf, pivot_inv, G[i][j])))
    diag = [G[i][i] for i in range(k)]
    for d in diag:
        if d.is_zero():
            raise ValueError("singular hermitian form")
        if field_conj(nf, d) != d:
            raise AssertionError("diagonal entry not fixed by the involution")
    return diag, P


def _trace_nonzero_multiplier(nf, g: QPoly) -> QPoly:
    """lambda with g*lambda + conj(g*lambda) != 0; exists by separability."""
    d = max(nf.degree, 1)
    for kpow in range(d):
        lam = QPoly([Q0] * kpow + [Q1])
        t = field_mul(nf, g, lam)
        if not (t + field_conj(nf, t)).is_zero():
            return lam
    raise AssertionError("degenerate trace form")


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------

def _element_minpoly(nf, beta: QPoly) -> QPoly:
    """Minimal polynomial of a field element given as a polynomial in the
    generator: that of multiplication by it on the field."""
    d = nf.degree
    images = [field_mul(nf, beta, QPoly([Q0] * j + [Q1])) for j in range(d)]
    return minimal_polynomial(
        QMatrix.from_rows([[b.coeff(i) for i in range(d)] for b in images])
        .transpose())


def _in_powers_of(nf, beta: QPoly, f: int, xis: list) -> list:
    """Write each xi as a polynomial of degree < f in beta: one solve."""
    d = nf.degree
    vecs = []
    current = QPoly.one()
    for _ in range(f):
        vecs.append([current.coeff(i) for i in range(d)])
        current = field_mul(nf, current, beta)
    A = QMatrix.from_rows(vecs).transpose()
    sol = coordinates(A, QMatrix.from_rows(
        [[xi.coeff(i) for i in range(d)] for xi in xis]).transpose())
    if sol is None:
        raise EndomorphismError("element outside the fixed field")
    return [QPoly(sol.col(j)) for j in range(len(xis))]


def _fixed_field_primitive(nf) -> tuple:
    """(beta, its minimal polynomial) for the fixed field of the involution;
    a rational constant (minimal polynomial of degree 1) wins only if f = 1."""
    f = nf.fixed_field_degree
    basis = endofield.fixed_field_basis(nf)
    for coeffs in endofield.primitive_candidates(f):
        beta = field_reduce(nf, sum((c * b for c, b in zip(coeffs, basis)),
                                    QPoly.zero()))
        if f > 1 and beta.degree() < 1:
            continue
        mp = _element_minpoly(nf, beta)
        if mp.degree() == f:
            return beta, mp


def signatures(h: HermitianFormOverE, diag=None) -> list:
    """Signatures with isolating-interval labels, by one loop over the real
    places of the fixed field: for the trivial involution the fixed field
    is the field itself and every real root of its minimal polynomial
    counts; otherwise a place counts where the relative discriminant delta
    is negative, so that the quadratic extension becomes complex there.
    """
    nf = h.field
    if diag is None:
        diag, _ = diagonalize(h)
    delta = None
    if nf.involution_is_trivial():
        k_poly, vals = nf.minpoly, diag
    elif nf.fixed_field_degree == 1:
        delta = endofield.relative_discriminant(nf)
        if delta.degree() != 0:
            raise AssertionError("relative discriminant outside Q")
        if delta.coeff(0) > 0:
            return []
        vals = []
        for d in diag:
            if d.degree() != 0:
                raise AssertionError("diagonal entry outside Q")
            vals.append(1 if d.coeff(0) > 0 else -1)
        return [("rational place", sum(vals))]
    else:
        beta, k_poly = _fixed_field_primitive(nf)
        delta, *vals = _in_powers_of(
            nf, beta, nf.fixed_field_degree,
            [endofield.relative_discriminant(nf)] + list(diag))
    _, intervals = real_root_data(k_poly)
    out = []
    for iv in intervals:
        if delta is not None and sign_at_root(delta, k_poly, iv) > 0:
            continue    # the extension stays real: no signature here
        sig = sum(sign_at_root(d, k_poly, iv) for d in vals)
        label = f"({rat_str(iv[0])},{rat_str(iv[1])})"
        out.append((label, sig))
    return out


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

def discriminant_class(h: HermitianFormOverE, diag=None) -> dict:
    """Representative (-1)^{m(m-1)/2} prod d_i and its class, decided by
    `endofield.norm_class` where a finite procedure exists (Q, Fix = Q)."""
    nf = h.field
    if diag is None:
        diag, _ = diagonalize(h)
    m = len(diag)
    rep = QPoly.one()
    for d in diag:
        rep = field_mul(nf, rep, d)
    if (m * (m - 1) // 2) % 2:
        rep = -rep
    square = nf.involution_is_trivial()
    group = "square-class" if square else "norm-class"
    trivial = endofield.norm_class(nf, rep)
    if trivial is None:
        return {"representative": rep.format("a", " "), "group": group,
                "decidable": False, "trivial": None}
    val = squarefree_part(rep.coeff(0)) if square else rep.coeff(0)
    return {"representative": rat_str(val), "group": group,
            "decidable": True, "trivial": trivial}


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class PieceReport:
    module_dim: int
    multiplicity: int
    algebra_kind: str
    end_minpoly: str | None
    chosen_b: list | None
    rank_mod2: int | None
    signatures: list | None
    discriminant: dict | None
    hasse: list | None
    status: str

    def defined_nontrivial(self) -> bool:
        if self.status.startswith("unsupported"):
            return False
        if self.rank_mod2:
            return True
        if self.signatures and any(s for _, s in self.signatures):
            return True
        if self.discriminant and self.discriminant.get("trivial") is False:
            return True
        # even rank 2m, zero signatures and trivial discriminant: Witt-trivial
        # exactly when c_v is that of m hyperbolic planes, (-1,-1)_v^(m(m-1)/2)
        m = self.multiplicity // 2
        hyperbolic = [(2, -1), ("inf", -1)] if m * (m - 1) // 2 % 2 else []
        return self.hasse is not None and self.hasse != hyperbolic


@dataclass
class InvariantReport:
    pieces: list
    verdict: str
    log: list = field(default_factory=list)


def invariant_report(decomposition) -> InvariantReport:
    """One report per isotypic piece plus the global verdict."""
    pieces = [_piece_report(group) for group in decomposition.groups]
    nontrivial = any(p.defined_nontrivial() for p in pieces)
    unsupported = any(p.status.startswith("unsupported") for p in pieces)
    partial = any(p.status.startswith("partial") for p in pieces)
    if nontrivial:
        verdict = "nontrivial"
    elif unsupported:
        verdict = "undetermined (quaternionic)"
    elif partial:
        verdict = "undetermined (partial invariants)"
    else:
        verdict = "witt-trivial"
    return InvariantReport(pieces, verdict, list(decomposition.log))


def _piece_report(group) -> PieceReport:
    M = group.module
    forms = group.forms
    b = forms[0].zeta_scaled()
    b_matrix = [[rat_str(x) for x in row] for row in b.phi.data]
    _ring, nf = group.endomorphism_field()
    if isinstance(nf, NoncommutativeEndomorphism):
        label = endofield.classify_noncommutative(nf, b)
        return PieceReport(M.dim, len(forms), label, None, b_matrix,
                           None, None, None, None,
                           "unsupported: quaternionic endomorphism ring")
    # diagonal and checked hermitian: `diagonalize` would return its diagonal
    h = endofield.morita_transport(nf, forms, b)
    diag = [row[i] for i, row in enumerate(h.gram)]
    sigs = signatures(h, diag)
    disc = discriminant_class(h, diag)
    rank = h.rank
    for _, s in sigs:
        assert abs(s) <= rank and (s - rank) % 2 == 0
    hasse = None
    status = "complete"
    trivial_involution = nf.involution_is_trivial()
    if trivial_involution and nf.degree == 1:
        hasse = hasse_witt_over_q([d.coeff(0) for d in diag])
    elif trivial_involution:
        status = ("partial: Hasse-Witt and square-class equality undecided "
                  "over a field larger than Q")
    elif not disc["decidable"]:
        status = "partial: class equality undecided"
    label = endofield.classify_involution(nf)
    return PieceReport(M.dim, rank, label,
                       nf.minpoly.format("x", " ", show_unit=False), b_matrix,
                       rank % 2, sigs, disc, hasse, status)


def analyze_form(f: SeifertForm, seed: int = 0) -> InvariantReport:
    """Full pipeline: reduction to simple pieces, Morita transport, table
    invariants, global verdict."""
    decomposition = witt_reduce(f, seed)
    return invariant_report(decomposition)
