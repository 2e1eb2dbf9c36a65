"""Endomorphism rings of simple Seifert modules, hermitian Morita
transport and norm classes.

The endomorphism ring of a simple module over Q is a division algebra of
finite rational dimension, read off the Norton element when that is cyclic
and off `hom_space` otherwise, in one basis, with the identity first.
Commutative rings are presented as number fields by a primitive element,
whose degree dim End(M) proves commutativity (and, on a ring marked simple,
irreducibility).  Each field holds its involution: the trivial one, or
f -> b^{-1} f^T b for a nonsingular form b, as a polynomial in the primitive
element; its fixed field has index 2 unless it is trivial.  Transporting an
isotypic family of forms along Hom(M, -) yields a hermitian matrix over the
endomorphism field, on which the classical Witt invariants are computed.
`norm_class` is the one decision whether a field element is a norm (a
square for the trivial involution): proven yes, proven no, or undecided.

Noncommutative endomorphism rings are detected and classified for reporting;
transport refuses them with a distinguished error so that no wrong numbers
are ever produced.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import (Q0, Q1, QMatrix, QPoly, RowSpace, coordinates,
                       factor_rational_poly, is_irreducible,
                       is_rational_square, kernel_columns, lincomb,
                       minimal_polynomial, norm_class_test_quadratic,
                       solve_or_kernel, span_coordinates, squarefree_part)
from .seifert import SeifertForm, SeifertModule, hom_space, reduced_map_basis


class EndomorphismError(ValueError):
    pass


@dataclass
class EndomorphismRing:
    """End(M) by a basis; `_simple` marks a certificate that M is simple."""
    module: SeifertModule
    basis: list                     # QMatrix basis, basis[0] = identity
    # structure constants are never computed (nothing reads them); the
    # field stays for callers that pass it positionally
    structure: list | None = None
    _simple: bool = field(default=False, init=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_commutative(self) -> bool:
        return all((a * b - b * a).is_zero()
                   for a, b in itertools.combinations(self.basis, 2))


def endomorphism_ring(M: SeifertModule, assume_simple: bool = False,
                       certificate=None) -> EndomorphismRing:
    """Basis of End(M) for a simple module M, the identity first.

    The basis is `hom_space(M, M)`'s, read off the Norton element when it
    is cyclic (`_cyclic_endomorphisms`).  Hom(M, M) is closed under
    composition, so no structure constants are formed.  Rejects inputs
    whose endomorphism ring visibly contains zero divisors (e.g. M + M);
    full simplicity certification is the caller's business.
    """
    if M.dim == 0:
        raise EndomorphismError("zero module")
    basis = _cyclic_endomorphisms(M, certificate) or hom_space(M, M)
    if not basis:
        raise EndomorphismError("empty endomorphism ring")
    # normalize: identity first; the basis is independent, so the identity
    # lies in its span exactly when the reordered list is no longer
    ident = QMatrix.identity(M.dim)
    reordered = _basis_with_identity_first(basis, ident)
    if len(reordered) != len(basis):
        raise EndomorphismError("identity not in the endomorphism ring")
    if not assume_simple:
        for b in reordered[1:]:
            _, factors = factor_rational_poly(minimal_polynomial(b))
            if len(factors) > 1 or factors[0][1] > 1:
                raise EndomorphismError("not simple: endomorphism with "
                                        "reducible minimal polynomial")
    ring = EndomorphismRing(M, reordered)
    ring._simple = assume_simple
    return ring


def _cyclic_endomorphisms(M: SeifertModule, certificate):
    """End(M) for a Norton certificate (a, p) with deg p = dim M = n, else
    None.  Then p(a) = 0 with p irreducible: a is cyclic, End(M) lies in
    its centralizer Q[a] and is the r(a), deg r < n, with sum r_i [a^i, g]
    = 0 for each generator g that a does not commute with (none if mu = 1)."""
    if certificate is None or certificate.kind != "norton":
        return None
    a, n = certificate.detail["element"], M.dim
    if certificate.detail["factor"].degree() != n:
        return None
    powers = [QMatrix.identity(n)]
    for _ in range(n - 1):
        powers.append(powers[-1] * a)
    rows = []
    for g in M.generators():
        if not (a * g - g * a).is_zero():
            rows += zip(*[(m * g - g * m).flat() for m in powers])
    if rows:
        K = kernel_columns(QMatrix.from_rows(rows))
        powers = [lincomb(K.col(j), powers) for j in range(K.cols)]
    return reduced_map_basis(powers)


def _basis_with_identity_first(basis: list, ident: QMatrix) -> list:
    out = [ident]
    n = ident.rows
    space = RowSpace(n * n)
    space.add(ident.flat())
    for b in basis:
        if space.add(b.flat()):
            out.append(b)
    return out


# ---------------------------------------------------------------------------
# number field presentation
# ---------------------------------------------------------------------------

@dataclass
class NumberFieldWithInvolution:
    """Q[x]/(minpoly) with its involution, the image of x: unless given, the
    trivial x mod minpoly, and Artin's fixed-field degree, d or d/2."""
    minpoly: QPoly                       # irreducible monic, the field is Q[x]/(minpoly)
    embedding: QMatrix                   # matrix of the primitive element in End(M)
    module: SeifertModule
    involution_image: QPoly | None = None   # image of the generator
    fixed_field_degree: int | None = None

    def __post_init__(self):
        self.involution_image = self.involution_image or \
            QPoly.x() % self.minpoly
        if self.fixed_field_degree is None:
            trivial = self.involution_is_trivial()
            self.fixed_field_degree = self.degree // (1 if trivial else 2)

    @property
    def degree(self) -> int:
        return self.minpoly.degree()

    def involution_is_trivial(self) -> bool:
        return self.involution_image == QPoly.x() % self.minpoly


@dataclass
class NoncommutativeEndomorphism:
    ring: EndomorphismRing
    center_dim: int
    is_quaternion: bool


def primitive_candidates(k: int):
    """Coefficient vectors, in a basis b_1..b_k, of candidate primitive
    elements of a k-dimensional commutative algebra: the basis itself, then
    the moment-curve points (1, c, ..., c^(k-1)) for c = 1 .. k(k-1)^2/2 + 1.

    In a product of number fields x is primitive exactly when
    D(x) = det(1, x, ..., x^(k-1)) (coordinates in the basis) is nonzero.
    The zeros of D are the union of the proper subalgebras, finitely many
    proper subspaces.  No proper subspace contains the moment curve (any k
    of its points are a Vandermonde basis), so D on the curve is a nonzero
    polynomial in c of degree at most (k-1) * k(k-1)/2, with fewer roots
    than there are listed points: one of them is primitive."""
    for i in range(k):
        yield [1 if j == i else 0 for j in range(k)]
    for c in range(1, k * (k - 1) ** 2 // 2 + 2):
        yield [c ** j for j in range(k)]


def as_number_field(ring: EndomorphismRing):
    """A commutative ring as a number field with the trivial involution, by
    a primitive element theta, else a NoncommutativeEndomorphism marker.
    deg theta = dim End(M) proves End(M) = Q[theta] commutative; a ring
    marked `_simple` is a division ring, whose minpolys are irreducible."""
    d = ring.dim
    for coeffs in primitive_candidates(d):
        theta = lincomb(coeffs, ring.basis)
        mp = minimal_polynomial(theta)
        if mp.degree() == d:
            if not ring._simple and not is_irreducible(mp):
                raise EndomorphismError("endomorphism ring is not a field "
                                        "(reducible minimal polynomial)")
            return NumberFieldWithInvolution(mp, theta, ring.module)
    if not ring.is_commutative():
        center = len(algebra_center(ring.basis))
        quaternion = (ring.dim == 4 * center)
        return NoncommutativeEndomorphism(ring, center, quaternion)
    raise EndomorphismError("endomorphism ring is not a field "
                            "(no primitive element)")


def algebra_center(basis: list) -> list:
    """Basis of the center of the algebra spanned by `basis` (assumed
    multiplicatively closed up to span)."""
    n = basis[0].rows
    comms = [[c * b - b * c for c in basis] for b in basis]
    rows = [[comm.data[i][j] for comm in row]
            for row in comms for i in range(n) for j in range(n)]
    return [lincomb(coeffs, basis)
            for coeffs in solve_or_kernel(QMatrix.from_rows(rows)).kernel]


# field elements are QPoly of degree < nf.degree, arithmetic mod minpoly

def field_reduce(nf: NumberFieldWithInvolution, p: QPoly) -> QPoly:
    return p % nf.minpoly


def field_mul(nf, a: QPoly, b: QPoly) -> QPoly:
    """a b mod the minimal polynomial, whose integer model is kept."""
    return a.mulmod(b, nf.minpoly)


def field_inv(nf, a: QPoly) -> QPoly:
    """Inverse modulo the (irreducible) minimal polynomial."""
    a = a % nf.minpoly
    if a.is_zero():
        raise ZeroDivisionError("inverting zero field element")
    r0, r1 = nf.minpoly, a
    s0, s1 = QPoly.zero(), QPoly.one()
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree() != 0:
        raise EndomorphismError("minimal polynomial not irreducible")
    return (s0 * (Q1 / r0.coeffs[0])) % nf.minpoly


def field_conj(nf, a: QPoly) -> QPoly:
    """a(conj(x)), by Horner from the leading coefficient of a with every
    partial result reduced mod the minimal polynomial."""
    acc = QPoly.zero()
    for c in reversed(a.coeffs):
        acc = field_mul(nf, acc, nf.involution_image) + QPoly.constant(c)
    return acc


def matrix_to_element(nf, m: QMatrix) -> QPoly:
    """The r of degree < d with r(theta) = m, for m in End(M) = F =
    Q[theta] of degree d, read off m e_1 (m itself when m is a column) by
    one solve of [e_1, theta e_1, .., theta^(d-1) e_1] c = m e_1.  F is a
    field acting faithfully on M, so s(theta) e_1 = 0 for s(theta) in F
    means s(theta) is not invertible, hence zero."""
    col = QMatrix.column([Q1] + [Q0] * (m.rows - 1))
    krylov = col
    for _ in range(nf.degree - 1):
        col = nf.embedding * col
        krylov = krylov.hstack(col)
    coeffs = coordinates(krylov, m.block(0, m.rows, 0, 1))
    if coeffs is None:
        raise EndomorphismError("endomorphism outside the generated field")
    return QPoly(coeffs.col(0))


def involution_from_form(nf: NumberFieldWithInvolution,
                         b: SeifertForm) -> NumberFieldWithInvolution:
    """Involution f -> b^{-1} f^T b induced by a nonsingular zeta-form b on
    the same simple module, recorded as the image of the primitive element.
    b is checked, at once when marked valid, as the dévissage's forms are."""
    err = b.validate()
    if err is not None:
        raise EndomorphismError(f"invalid form for involution: {err}")
    if b.module != nf.module:
        raise EndomorphismError("form lives on a different module")
    # the image b^{-1} theta^T b of theta is read off its first column y,
    # the solution of B y = theta^T B e_1 (B is nonsingular)
    B = b.phi
    y = coordinates(B, nf.embedding.transpose() * B.block(0, B.rows, 0, 1))
    image = matrix_to_element(nf, y)
    out = NumberFieldWithInvolution(nf.minpoly, nf.embedding, nf.module,
                                    image)
    if field_conj(out, image) != QPoly.x() % nf.minpoly:
        raise EndomorphismError("induced map is not an involution")
    return out


def fixed_field_basis(nf: NumberFieldWithInvolution) -> list:
    """Basis of Fix(involution) as polynomials in the generator: the kernel
    of conj - 1 on 1, x, .., x^(d-1), with conj(x^k) = conj(x)^k."""
    d = nf.degree
    rows = []
    conj_xk = QPoly.one()
    for k in range(d):
        diff = conj_xk - QPoly([Q0] * k + [Q1])
        rows.append([diff.coeff(i) for i in range(d)])
        conj_xk = field_mul(nf, conj_xk, nf.involution_image)
    K = kernel_columns(QMatrix.from_rows(rows).transpose())
    return [QPoly(K.col(j)) for j in range(K.cols)]


# ---------------------------------------------------------------------------
# Morita transport
# ---------------------------------------------------------------------------

@dataclass
class HermitianFormOverE:
    field: NumberFieldWithInvolution
    gram: list                      # k x k of QPoly entries

    @property
    def rank(self) -> int:
        return len(self.gram)

    def validate(self) -> str | None:
        nf = self.field
        k = len(self.gram)
        for row in self.gram:
            if len(row) != k:
                return "gram matrix not square"
        for i in range(k):
            for j in range(k):
                if self.gram[i][j] != field_conj(nf, self.gram[j][i]):
                    return "gram matrix not hermitian"
        return None


def transported_scalar(nf: NumberFieldWithInvolution, b: SeifertForm,
                       phi: SeifertForm) -> QPoly:
    """The endomorphism zeta * b^{-1} phi as a field element; this is the
    Morita image of a form phi on the representative module itself."""
    # b^{-1} phi e_1 is the solution y of b y = phi e_1 (b is nonsingular)
    y = coordinates(b.phi, phi.phi.block(0, phi.phi.rows, 0, 1))
    return field_reduce(nf, matrix_to_element(nf, y) * Fraction(phi.zeta))


def morita_transport(nf: NumberFieldWithInvolution, forms: list,
                     b: SeifertForm) -> HermitianFormOverE:
    """Gram matrix over (E, involution) of an isotypic family of forms, all
    living on the representative module, against the chosen form b.

    With the standard inclusions of the summands as a Hom-basis the Gram
    matrix is diagonal with entries zeta * b^{-1} phi_i: 1 for a form with
    zeta phi = b, with no solve.
    """
    if not forms:
        return HermitianFormOverE(nf, [])
    zeta = forms[0].zeta
    if any(f.zeta != zeta for f in forms) or b.zeta != zeta:
        raise EndomorphismError("zeta mismatch in transport")
    k = len(forms)
    gram = [[QPoly.zero() for _ in range(k)] for _ in range(k)]
    for i, f in enumerate(forms):
        gram[i][i] = (QPoly.one() if f.zeta_scaled().phi == b.phi
                      else transported_scalar(nf, b, f))
    out = HermitianFormOverE(nf, gram)
    err = out.validate()
    if err is not None:
        raise EndomorphismError(f"transport produced a bad form: {err}")
    return out


def classify_involution(nf: NumberFieldWithInvolution) -> str:
    """Table-row label for a commutative endomorphism field."""
    if nf.involution_is_trivial():
        return "number field, trivial involution (first kind)"
    return "number field, nontrivial involution (second kind)"


def classify_noncommutative(nc: NoncommutativeEndomorphism,
                            b: SeifertForm) -> str:
    """Table-row label for a noncommutative endomorphism ring with the
    involution f -> b^{-1} f^T b of a form b on its module: first/second
    kind and, for quaternions of the first kind, standard vs non-standard,
    read off from the dimension of the fixed set of the involution."""
    B = b.phi
    B_inv = B.inverse()
    basis = nc.ring.basis
    conj = span_coordinates(basis, [B_inv * m.transpose() * B for m in basis])
    if conj is None:
        return "noncommutative (involution leaves the ring?)"
    fixed_dim = kernel_columns(conj - QMatrix.identity(len(basis))).cols
    if not nc.is_quaternion:
        return "noncommutative, non-quaternion"
    if fixed_dim == nc.center_dim:
        return "quaternion, involution of the first kind, standard"
    if fixed_dim == 3 * nc.center_dim:
        return "quaternion, involution of the first kind, non-standard"
    return "quaternion, involution of the second kind"


# ---------------------------------------------------------------------------
# norm classes (the discriminant and the hyperbolic-pair cancellation)
# ---------------------------------------------------------------------------

def relative_discriminant(nf: NumberFieldWithInvolution) -> QPoly:
    """delta = gamma^2 for gamma = alpha - conj(alpha); E = Fix(sqrt(delta))
    when the involution is nontrivial."""
    gamma = (QPoly.x() - nf.involution_image) % nf.minpoly
    return field_mul(nf, gamma, gamma)


def norm_class(nf: NumberFieldWithInvolution, d: QPoly) -> bool | None:
    """Is d a norm c * conj(c): a square for the trivial involution?  True
    or False when proven, None when undecided (square classes of a field
    larger than Q, norm classes over a fixed field larger than Q)."""
    d = field_reduce(nf, d)
    if d.is_zero():
        raise EndomorphismError("zero discriminant")
    if nf.involution_is_trivial():
        if nf.degree == 1:
            return is_rational_square(d.coeff(0))
        return None
    if field_conj(nf, d) != d:
        return False    # norms are fixed by the involution
    if nf.fixed_field_degree != 1:
        return None
    # Fix = Q: d and delta are rational, E = Q(sqrt(delta)) with delta not
    # a square
    m = squarefree_part(relative_discriminant(nf).coeff(0))
    return norm_class_test_quadratic(d.coeff(0), m)
