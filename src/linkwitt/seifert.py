"""Seifert modules over Q and their hermitian forms.

A Seifert module is a finite-dimensional rational vector space with an
endomorphism s and a system of orthogonal idempotents e_1..e_mu summing to
the identity.  Forms pair against the dual structure s* = 1 - s^T,
e_i* = e_i^T.  All matrices are exact rational; integer input is promoted to
the rationals on construction.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .rational import (Q0, Q1, QMatrix, RowSpace, coordinates,
                       kernel_columns, lincomb, rat, spin)


class SeifertError(ValueError):
    """Contract violation in Seifert-module data."""


class SeifertModule:
    """Representation given by an endomorphism s and idempotents e_1..e_mu.
    `_walk_facts` keeps what its walk decided (`devissage._factor_kernels`),
    `_up` the module a subquotient is induced from (`_subquotient`)."""

    def __init__(self, mu: int, s: QMatrix, projections, ring: str = "Q"):
        if mu < 1:
            raise SeifertError("component count must be at least 1")
        if not s.is_square():
            raise SeifertError("s must be square")
        if len(projections) != mu:
            raise SeifertError("expected one projection per component")
        for e in projections:
            if e.rows != s.rows or e.cols != s.cols:
                raise SeifertError("projection dimension mismatch")
        if ring not in ("Z", "Q"):
            raise SeifertError("ring must be 'Z' or 'Q'")
        self.mu = mu
        self.dim = s.rows
        self.s = s
        self.projections = list(projections)
        self.ring = ring
        self._walk_facts = self._up = None

    @staticmethod
    def from_blocks(mu: int, s: QMatrix, sizes, ring: str = "Q"):
        """Projections given by consecutive coordinate blocks."""
        if len(sizes) != mu or sum(sizes) != s.rows:
            raise SeifertError("block sizes must sum to the dimension")
        n = s.rows
        projections = []
        start = 0
        for size in sizes:
            block = range(start, start + size)
            projections.append(QMatrix._of(n, n, [
                [Q1 if i == j and i in block else Q0 for j in range(n)]
                for i in range(n)]))
            start += size
        return SeifertModule(mu, s, projections, ring)

    @staticmethod
    def zero(mu: int) -> "SeifertModule":
        z = QMatrix.zeros(0, 0)
        return SeifertModule(mu, z, [z] * mu)

    def generators(self) -> list:
        return [self.s] + self.projections

    def validate(self) -> str | None:
        """First violated invariant as a string, or None when valid."""
        n = self.dim
        ident = QMatrix.identity(n)
        for i, e in enumerate(self.projections):
            if e * e != e:
                return f"idempotence: e_{i + 1}^2 != e_{i + 1}"
        for i, j in itertools.combinations(range(self.mu), 2):
            ei, ej = self.projections[i], self.projections[j]
            if not (ei * ej).is_zero() or not (ej * ei).is_zero():
                return f"orthogonality: e_{i + 1} e_{j + 1} != 0"
        total = QMatrix.zeros(n, n)
        for e in self.projections:
            total = total + e
        if total != ident:
            return "partition of unity: sum of projections != identity"
        if self.ring == "Z":
            for m in self.generators():
                for row in m.data:
                    if any(x.denominator != 1 for x in row):
                        return "integrality: matrix entry not an integer"
        return None

    def is_valid(self) -> bool:
        return self.validate() is None

    def dual(self) -> "SeifertModule":
        n = self.dim
        s_star = QMatrix.identity(n) - self.s.transpose()
        return SeifertModule(self.mu, s_star,
                             [e.transpose() for e in self.projections],
                             self.ring)

    def direct_sum(self, other: "SeifertModule") -> "SeifertModule":
        if self.mu != other.mu:
            raise SeifertError("component count mismatch")
        s = QMatrix.diag([self.s, other.s])
        projections = [QMatrix.diag([a, b]) for a, b in
                       zip(self.projections, other.projections)]
        ring = "Z" if self.ring == other.ring == "Z" else "Q"
        return SeifertModule(self.mu, s, projections, ring)

    def promote(self) -> "SeifertModule":
        """Coefficient change Z -> Q (entrywise identity)."""
        return SeifertModule(self.mu, self.s, self.projections, "Q")

    def __eq__(self, other):
        return (isinstance(other, SeifertModule) and self.mu == other.mu
                and self.s == other.s and self.projections == other.projections)

    def __repr__(self):
        return f"SeifertModule(mu={self.mu}, dim={self.dim})"


def validate_module(V: SeifertModule) -> str | None:
    return V.validate()


def dual_module(V: SeifertModule) -> SeifertModule:
    return V.dual()


def direct_sum(V: SeifertModule, W: SeifertModule) -> SeifertModule:
    return V.direct_sum(W)


class SeifertMorphism:
    """Module map; matrix shape is target.dim x source.dim."""

    def __init__(self, source: SeifertModule, target: SeifertModule,
                 matrix: QMatrix, check: bool = True):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise SeifertError("morphism matrix shape mismatch")
        self.source = source
        self.target = target
        self.matrix = matrix
        if check and not self.intertwines():
            raise SeifertError("matrix does not intertwine the structure maps")

    @staticmethod
    def identity(V: SeifertModule) -> "SeifertMorphism":
        """V as a submodule of itself, over Q like every submodule."""
        source = V if V.ring == "Q" else V.promote()
        return SeifertMorphism(source, V, QMatrix.identity(V.dim), check=False)

    def intertwines(self) -> bool:
        f = self.matrix
        if f * self.source.s != self.target.s * f:
            return False
        return all(f * es == et * f for es, et in
                   zip(self.source.projections, self.target.projections))

    def is_isomorphism(self) -> bool:
        return (self.source.dim == self.target.dim
                and self.matrix.det() != 0)

    def compose(self, inner: "SeifertMorphism") -> "SeifertMorphism":
        if inner.target is not self.source and inner.target != self.source:
            raise SeifertError("composition mismatch")
        return SeifertMorphism(inner.source, self.target,
                               self.matrix * inner.matrix, check=False)

    def __repr__(self):
        return (f"SeifertMorphism({self.source.dim}->{self.target.dim})")


class SeifertForm:
    """zeta-hermitian pairing phi on a Seifert module.

    Conventions: phi is the matrix of the map V -> V*, and the scalar pairing
    is pair(x, y) = (phi x)^T y.  The compatibility conditions are
    phi^T = zeta phi, phi e_i = e_i^T phi and phi s = (1 - s^T) phi.

    Immutable: nothing assigns `phi`, `module` or `zeta` (nor the module's
    `s` or `projections`) outside the constructors
    (`tests/test_immutable_matrices.py` checks this), and the matrices are
    immutable too.  That is what makes the validated mark sound: a form
    that passed `validate()` once stays valid, so `validate()` returns None
    at once on it.  `negate`, `promote`, `transport`, `zeta_scaled` and
    `direct_sum` (of marked summands) give valid forms and carry the mark.
    """

    def __init__(self, module: SeifertModule, zeta: int, phi: QMatrix):
        if zeta not in (1, -1):
            raise SeifertError("zeta must be +1 or -1")
        if phi.rows != module.dim or phi.cols != module.dim:
            raise SeifertError("form matrix shape mismatch")
        self.module = module
        self.zeta = zeta
        self.phi = phi
        self._validated = False

    def validate(self) -> str | None:
        """First violated condition as a string, or None when valid; a
        form marked valid is not checked again."""
        if self._validated:
            return None
        err = self.module.validate()
        if err is not None:
            return f"module: {err}"
        phi = self.phi
        if phi.transpose() != phi.scale(self.zeta):
            return "symmetry: phi^T != zeta * phi"
        for i, e in enumerate(self.module.projections):
            if phi * e != e.transpose() * phi:
                return f"projection compatibility: phi e_{i + 1} != e_{i + 1}^T phi"
        n = self.module.dim
        if phi * self.module.s != (QMatrix.identity(n)
                                   - self.module.s.transpose()) * phi:
            return "endomorphism compatibility: phi s != (1 - s^T) phi"
        if phi.det() == 0 and n > 0:
            return "nonsingular: det(phi) == 0"
        if self.module.ring == "Z":
            for row in phi.data:
                if any(x.denominator != 1 for x in row):
                    return "integrality: form entry not an integer"
        self._validated = True
        return None

    def is_valid(self) -> bool:
        return self.validate() is None

    def pair(self, x: list, y: list) -> Fraction:
        return sum((a * b for a, b in zip(self.phi.apply(x), y)), Q0)

    def _derived(self, module: SeifertModule, phi: QMatrix) -> "SeifertForm":
        """A form that is valid when this one is, with this one's mark."""
        out = SeifertForm(module, self.zeta, phi)
        out._validated = self._validated
        return out

    def negate(self) -> "SeifertForm":
        return self._derived(self.module, -self.phi)

    def direct_sum(self, other: "SeifertForm") -> "SeifertForm":
        if self.zeta != other.zeta:
            raise SeifertError("zeta mismatch in orthogonal sum")
        out = SeifertForm(self.module.direct_sum(other.module), self.zeta,
                          QMatrix.diag([self.phi, other.phi]))
        out._validated = self._validated and other._validated
        return out

    def promote(self) -> "SeifertForm":
        return self._derived(self.module.promote(), self.phi)

    def transport(self, iso: SeifertMorphism) -> "SeifertForm":
        """Push the form forward along an isomorphism g: module -> target,
        so that pair_new(g x, g y) = pair(x, y)."""
        g_inv = iso.matrix.inverse()
        return self._derived(iso.target, g_inv.transpose() * self.phi * g_inv)

    def zeta_scaled(self) -> "SeifertForm":
        """zeta * phi: the b against which the Morita transport reads."""
        return self if self.zeta == 1 else self.negate()

    def __repr__(self):
        return f"SeifertForm(zeta={self.zeta}, dim={self.module.dim})"


def validate_form(f: SeifertForm) -> str | None:
    return f.validate()


# ---------------------------------------------------------------------------
# submodules and quotients
# ---------------------------------------------------------------------------

def spin_submodule(V: SeifertModule, vectors):
    """Smallest submodule containing the given vectors.

    Returns (W, inclusion) where the inclusion columns are an echelonized
    basis of the invariant subspace.
    """
    space = spin(V.generators(), [[rat(x) for x in v] for v in vectors],
                 V.dim)
    basis = space.basis_matrix().transpose()   # dim x k columns
    return submodule_from_basis(V, basis)


def _subquotient(V: SeifertModule, L: QMatrix, A: QMatrix) -> SeifertModule:
    """The module (L + span A) / L in the basis given by the columns of A,
    over Q: induced maps in a rational basis need not be integral.

    [L | A] must have full column rank.  Each structure map m is read off
    one solve of m [L | A] in the basis [L | A]: the A-rows of the L-columns
    must vanish (L invariant) and the solve must succeed (L + span A
    invariant); the A-block of the A-columns is the induced map."""
    k = L.cols
    full = L.hstack(A)
    maps = []
    for m in V.generators():
        X = coordinates(full, m * full)
        if X is None or not X.block(k, X.rows, 0, k).is_zero():
            raise SeifertError("subspace is not invariant")
        maps.append(X.block(k, X.rows, k, X.cols))
    W = SeifertModule(V.mu, maps[0], maps[1:])
    W._up = V
    return W


def submodule_from_basis(V: SeifertModule, basis: QMatrix):
    """Structure induced on an invariant subspace with the given basis
    columns.  Raises when the subspace is not invariant."""
    W = _subquotient(V, QMatrix.zeros(V.dim, 0), basis)
    return W, SeifertMorphism(W, V, basis)


def _complement_coordinates(W: QMatrix) -> list:
    """The coordinates that are not pivots of the column span of W; raises
    when W is not of full column rank."""
    _, pivots = W.transpose().rref()
    pivset = set(pivots)
    cols = [j for j in range(W.rows) if j not in pivset]
    if len(cols) != W.rows - W.cols:
        raise SeifertError("inclusion matrix is not of full column rank")
    return cols


def quotient_module(V: SeifertModule, incl: SeifertMorphism):
    """Quotient by a submodule given via its inclusion.

    Returns (Q, projection, section) where the section columns are the
    standard basis vectors at the non-pivot coordinates of the submodule
    basis, giving a reproducible splitting of the projection.
    """
    if incl.target != V:
        raise SeifertError("inclusion does not land in the ambient module")
    W = incl.matrix  # dim x k
    section_cols = _complement_coordinates(W)
    n, k = V.dim, W.cols
    section = QMatrix(n, n - k,
                      [[Q1 if j == c else Q0 for c in section_cols]
                       for j in range(n)])
    # [W | C] is invertible; quotient coordinates are the last n-k rows of
    # its inverse.
    inv = W.hstack(section).inverse()
    proj = inv.block(k, n, 0, n)
    Qmod = _subquotient(V, W, section)
    proj_mor = SeifertMorphism(V, Qmod, proj)
    return Qmod, proj_mor, section


def perp_basis(f: SeifertForm, incl: SeifertMorphism) -> QMatrix:
    """Basis (columns) of L-perp = {x : pair(l, x) = 0 for all l in L}."""
    return kernel_columns(incl.matrix.transpose() * f.phi)


def induced_form_on_subquotient(f: SeifertForm, incl: SeifertMorphism):
    """Form induced on L-perp / L for an isotropic submodule L.

    Returns (form on the subquotient, basis columns of the chosen section
    inside the ambient module): the L-perp basis columns at the non-pivot
    coordinates of L inside L-perp.  f must be valid (in the Witt reduction
    it is the checked input or comes from one by a step that keeps forms
    valid); the isotropy of L is checked.  The output carries f's mark
    (`_derived`), so its one `validate()` returns at once for a marked f
    and checks in full otherwise: it is valid when f is.  Let S be the
    section, P = L-perp = L + span S and m S = S m_bar + L X for each
    generator m (L and P invariant: `_subquotient` checks it).  phi(L, P)
    = 0 gives S^T phi L = 0 = L^T phi S, so phi_bar m_bar = S^T phi m S
    and m_bar^T phi_bar = S^T m^T phi S: phi^T = zeta phi, phi s = (1 -
    s^T) phi and phi e = e^T phi pass to phi_bar.  The radical of phi on P
    is P meet P-perp = L-perp meet L = L (phi nonsingular, L isotropic),
    so phi_bar is nonsingular."""
    L = incl.matrix
    iso = L.transpose() * f.phi * L
    if not iso.is_zero():
        raise SeifertError("submodule is not isotropic")
    perp = perp_basis(f, incl)
    # locate L inside L-perp
    L_in_perp = coordinates(perp, L)
    if L_in_perp is None:
        raise SeifertError("submodule does not lie in its perpendicular")
    cols = _complement_coordinates(L_in_perp)
    section = QMatrix(perp.rows, len(cols),
                      [[row[c] for c in cols] for row in perp.data])
    phi_bar = section.transpose() * f.phi * section
    induced = f._derived(_subquotient(f.module, L, section), phi_bar)
    err = induced.validate()
    if err is not None:
        raise SeifertError(f"induced form invalid: {err}")
    return induced, section


def restrict_form(f: SeifertForm, incl: SeifertMorphism) -> SeifertForm:
    B = incl.matrix
    return SeifertForm(incl.source, f.zeta,
                       B.transpose() * f.phi * B)


# ---------------------------------------------------------------------------
# hom spaces and isomorphism search
# ---------------------------------------------------------------------------

def hom_space(V: SeifertModule, W: SeifertModule) -> list:
    """Basis of the space of module maps V -> W, as matrices.

    MeatAxe standard basis (Parker 1984): V is spun breadth-first from the
    seeds e_1, e_2, ... in order, a seed already in the span being skipped,
    and each new basis vector b_k is recorded as a seed or as a generator g
    applied to an earlier b_j.  A map F is fixed by the images of the r
    seeds that start a spin, so there are r * dim W unknowns; replaying the
    recipes with the generators of W gives F(b_k) as a linear map of them.
    The equations are W_g F(b_k) = sum_j C_g[j][k] F(b_j) with
    C_g = B^-1 V_g B, B = [b_1 ... b_n]; an equation that restates a recipe
    holds by construction and is skipped.

    The basis returned is the reduced one in the entries of F, row-major:
    the identity on the free coordinates of the linear system F V_g = W_g F,
    in ascending order.  By matroid duality those are the lexicographically
    last coordinates on which Hom projects isomorphically, so the reduced
    echelon form with the columns read from the right yields that basis."""
    if V.mu != W.mu:
        raise SeifertError("component count mismatch")
    nV, nW = V.dim, W.dim
    if nV == 0 or nW == 0:
        return []
    gens_v, gens_w = V.generators(), W.generators()
    space, vectors, recipes = RowSpace(nV), [], []
    for t in range(nV):
        j = len(vectors)
        seed = [Q1 if i == t else Q0 for i in range(nV)]
        if space.add(seed):
            vectors.append(seed)
            recipes.append(None)
        while j < len(vectors):
            for g, m in enumerate(gens_v):
                v = m.apply(vectors[j])
                if space.add(v):
                    vectors.append(v)
                    recipes.append((g, j))
            j += 1
    made = set(recipes)
    # F(b_k) as nW x u matrices in the seed images w_1..w_r, stacked
    u = nW * recipes.count(None)
    images, off = [], 0
    for recipe in recipes:
        if recipe is None:
            images.append(QMatrix(nW, u, [[Q1 if c == off + a else Q0
                                           for c in range(u)]
                                          for a in range(nW)]))
            off += nW
        else:
            g, j = recipe
            images.append(gens_w[g] * images[j])
    B_inv = QMatrix.from_rows(vectors).transpose().inverse()
    rows = []
    for g, (a, b) in enumerate(zip(gens_v, gens_w)):
        for k in range(nV):
            if (g, k) in made:
                continue
            lhs = b * images[k]
            # column k of C_g
            for c, im in zip(B_inv.apply(a.apply(vectors[k])), images):
                if c:
                    lhs = lhs - im.scale(c)
            rows.extend(r for r in lhs.data if any(r))
    kernel = kernel_columns(QMatrix(len(rows), u, rows))
    if kernel.cols == 0:
        return []
    # F = [F(b_1) ... F(b_n)] B^-1 for each kernel vector
    return reduced_map_basis([
        QMatrix(nV, nW, [im.apply(kernel.col(x)) for im in images])
        .transpose() * B_inv for x in range(kernel.cols)])


def reduced_map_basis(maps: list) -> list:
    """`hom_space`'s basis of the span of the independent matrices `maps`:
    the rref of their reversed row-major entries, read back in reverse.  A
    reduced echelon form depends only on the row space, not on `maps`."""
    rows, cols = maps[0].rows, maps[0].cols
    R, _pivots = QMatrix.from_rows([m.flat()[::-1] for m in maps]).rref()
    return [QMatrix(rows, cols, [row[::-1][i * cols:(i + 1) * cols]
                                 for i in range(rows)])
            for row in reversed(R.data)]


_ISO_RNG_SEED = 0x15031991


def find_isomorphism(V: SeifertModule, W: SeifertModule):
    """An isomorphism V -> W, or None.

    Between simple modules (every piece of the Witt reduction) the first
    hom-basis element is the isomorphism, or the hom space is empty: by
    Schur's lemma every nonzero hom is invertible.  In general the search
    order is: hom-basis elements, then deterministic pseudo-random
    rational combinations, finally an exact vanishing test of the determinant
    of a generic combination on an integer grid (a polynomial of total degree
    dim vanishing on {0..dim}^k vanishes identically).  Modules whose hom
    dimensions rule out an isomorphism are rejected before the grid.  Up to
    200000 grid points the None is certified; beyond that the grid is
    sampled, and so is the None.
    """
    if V.dim != W.dim:
        return None
    if V.dim == 0:
        return SeifertMorphism(V, W, QMatrix.zeros(0, 0), check=False)
    basis = hom_space(V, W)
    if not basis:
        return None
    for F in basis:
        if F.det() != 0:
            return SeifertMorphism(V, W, F)
    rng = random.Random(_ISO_RNG_SEED)
    denominators = [1, 2, 3, 5, 7, 10]
    for _ in range(200):
        combo = lincomb([Fraction(rng.randint(-9, 9), rng.choice(denominators))
                         for _F in basis], basis)
        if combo.det() != 0:
            return SeifertMorphism(V, W, combo)
    # isomorphic modules have equal hom dimensions
    k = len(basis)
    if k != len(hom_space(V, V)) or k != len(hom_space(W, W)):
        return None
    # det of a generic combination is a polynomial of total degree <= dim in
    # the coefficients
    n = V.dim
    if (n + 1) ** k <= 200000:
        grid = itertools.product(range(n + 1), repeat=k)
    else:
        grid = ([rng.randint(0, n) for _ in range(k)] for _ in range(200000))
    for point in grid:
        combo = lincomb(point, basis)
        if combo.det() != 0:
            return SeifertMorphism(V, W, combo)
    return None
