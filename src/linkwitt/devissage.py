"""Reduction of a Seifert form to an orthogonal sum of forms on simple
modules, grouped into isotypic pieces.

The reduction loop takes any simple submodule L of the underlying module; if
the form vanishes on L it passes to the subquotient L-perp/L, otherwise it
splits off L as an orthogonal summand.  The dichotomy is forced: the radical
of the restricted form is a submodule of the simple L.  Composition length
strictly decreases, so the loop terminates.

Simplicity is certified.  One MeatAxe walk (`_walk`) spins vectors of
ker p(a) for the irreducible factors p of the minimal polynomials of
algebra elements a taken from a fixed list of words in the generators (no
random words: `_element_stream`), and Norton's criterion decides when
ker p(a) is a line over Q[a]/(p).  An element a = alpha b + beta I of an
earlier element b takes b's factors, mapped, and b's kernels; a subquotient
takes the factors found up its chain: each fact is decided once a module.
`is_simple` takes its first finding, and the isotropic search its smallest
isotropic spin or its certificate, which the reduction loop takes as is.  A
spin from ker p(a) contains Q[a]v and so has dimension at least deg p: once
the search holds a candidate of dimension <= deg p it spins no further
vector of a kernel of p that is not a line (a line is still spun once, for
Norton's test).  Nor does the search spin a vector v on which phi(v, v) or
phi(v, m v), m a generator, is nonzero: its spin contains v and m v, so it
is not isotropic.  The complete fallback computes the Jacobson radical of
the acting algebra through the trace form (valid in characteristic zero)
and then hunts for zero divisors or idempotents in the endomorphism ring;
quaternion endomorphism algebras over Q are decided exactly by Hilbert
symbols on the norm form.  Each submodule is built once, from its basis:
the search's candidate, the witnesses of `is_simple` and the perp; a
simple inside one is included by composing (the maps X with m B = B X are
unique for B of full column rank).  Each isotypic group builds its
endomorphism field at most once, for its pair cancellation and its report.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .rational import (Q0, Q1, QMatrix, QPoly, RowSpace, _dense,
                       apply_integer, factor_order, factor_rational_poly,
                       hilbert_symbol, integer_matrix, integer_row,
                       kernel_columns, lincomb, minimal_polynomial,
                       relevant_places, solve_or_kernel, span_coordinates,
                       spin)
from .seifert import (SeifertError, SeifertForm, SeifertModule,
                      SeifertMorphism, find_isomorphism, hom_space,
                      induced_form_on_subquotient, perp_basis, quotient_module,
                      restrict_form, submodule_from_basis)
from . import endofield


class SimplicityUndecided(RuntimeError):
    """Raised when simplicity cannot be certified with the implemented
    decision procedures (endomorphism division algebras beyond quaternions
    over Q)."""


@dataclass
class SimpleCertificate:
    kind: str           # "dimension-1" | "norton" | "schur-field" | "quaternion-division"
    detail: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# acting algebra
# ---------------------------------------------------------------------------

def algebra_basis(V: SeifertModule) -> list:
    """Basis of the unital subalgebra of End(Q^n) generated by s, e_1..e_mu."""
    n = V.dim
    if n == 0:
        return []
    space = RowSpace(n * n)
    basis = []
    queue = []
    for m in [QMatrix.identity(n)] + V.generators():
        if space.add(m.flat()):
            basis.append(m)
            queue.append(m)
    gens = V.generators()
    while queue:
        m = queue.pop()
        for g in gens:
            prod = m * g
            if space.add(prod.flat()):
                basis.append(prod)
                queue.append(prod)
    return basis


def algebra_radical(basis: list) -> list:
    """Jacobson radical of the algebra spanned by `basis` acting faithfully
    on Q^n: kernel of the trace form (x, y) -> Tr(x y)."""
    k = len(basis)
    if k == 0:
        return []
    gram = QMatrix(k, k, [[_trace(basis[i] * basis[j]) for j in range(k)]
                          for i in range(k)])
    out = []
    for coeffs in solve_or_kernel(gram).kernel:
        m = lincomb(coeffs, basis)
        if not m.is_zero():
            out.append(m)
    return out


def _trace(m: QMatrix) -> Fraction:
    return sum((m.data[i][i] for i in range(m.rows)), Q0)


# ---------------------------------------------------------------------------
# simplicity
# ---------------------------------------------------------------------------

def _element_stream(V: SeifertModule):
    """The algebra elements of the MeatAxe walk: s, s e + e s, s e for each
    projection e, a b + b for each pair of generators (eight or more when
    mu >= 2; s, 2s, s, s + I when mu = 1, then 0, whose one kernel is V)."""
    gens = V.generators()
    s = V.s
    yield s
    for e in V.projections:
        yield s * e + e * s
    for e in V.projections:
        yield s * e
    for a, b in itertools.combinations(gens, 2):
        yield a * b + b
    if V.mu == 1:
        yield QMatrix.zeros(V.dim, V.dim)


def _factor_kernels(V: SeifertModule):
    """(count, a, kernels) for the first eight elements a of
    `_element_stream` (its five when mu = 1), kernels lazily yielding
    (p, columns of ker p(a)) for each irreducible factor p of the minimal
    polynomial of a, in `factor_rational_poly`'s order.

    An element a = alpha b + beta I (alpha != 0) of an earlier element b is
    an affine repeat of b (`_affine_repeat`; with mu = 1 the stream yields
    s, 2s, s, s + I and 0).  It is not factored: its factors are the monic
    p((x - beta)/alpha) of b's factors p, sorted the same way (the monic
    irreducible factors are unique), and ker of the image of p at a is
    ker p(b).  `kernel_columns` gives the canonical basis of a kernel, so
    the columns are the ones a's own factorization gives.  V keeps them
    all (`_walk_facts`) for its later walks.  On a module induced from U
    (`_up`), an element that a walk of U or above reached is not factored:
    its minimal polynomial divides the one there, so its factors are the
    p of that list with ker p(a) != 0."""
    if V._walk_facts is None:
        V._walk_facts = [], {}, itertools.islice(_element_stream(V), 8)
    steps, seen, stream = V._walk_facts
    for count in itertools.count():
        if count == len(steps):
            a = next(stream, None)
            if a is None:
                return
            form = _affine_form(a)
            if form[0] not in seen:
                seen[form[0]] = form, a, _factors(V._up, count, a), {}
            b_form, b, factors, memo = seen[form[0]]
            order = [(p, i) for i, p in enumerate(factors)]
            alpha, beta = _affine_repeat(form, b_form)
            if (alpha, beta) != (1, 0):
                shift = QPoly([-beta / alpha, 1 / alpha])
                order = sorted(((p.compose(shift).monic(), i)
                                for p, i in order),
                               key=lambda pi: factor_order(pi[0]))
            steps.append((a, b, factors, order, memo))
        a, b, factors, order, memo = steps[count]
        yield count, a, _kernels(b, factors, order, memo)


def _factors(U, count: int, a: QMatrix) -> list:
    """The factor list of a, element `count` of a module induced from U
    (or None): that of the nearest of U and the modules up from it whose
    walk reached that element, less the factors of zero kernel there (it
    may hold p with p(a) invertible), else a's own factorization."""
    while U is not None:
        if U._walk_facts is not None and count < len(U._walk_facts[0]):
            _a, _b, _factors, order, memo = U._walk_facts[0][count]
            return [q for q, i in order if memo.get(i) != []]
        U = U._up
    return [p for p, _mult in factor_rational_poly(minimal_polynomial(a))[1]]


def _kernels(b: QMatrix, factors: list, order: list, memo: dict):
    """(q, columns of ker p_i(b)) for each (q, i) of `order` with a nonzero
    kernel, p_i the i-th of `factors`, each computed once into `memo`."""
    for q, i in order:
        if i not in memo:
            m = kernel_columns(factors[i].eval_matrix(b))
            memo[i] = [m.col(j) for j in range(m.cols)]
        if memo[i]:
            yield q, memo[i]


def _affine_form(a: QMatrix):
    """(key, scale, corner) with a = corner I + scale P, P the integer
    matrix whose row-major entries are `key`: those of a - corner I made
    primitive, the first nonzero one positive (all zero and scale 0 for a
    scalar a).  Elements of one key are affine in each other.  It reads
    the integer form of a (`integer_matrix`), which the minimal polynomial
    reads anyway."""
    d, N = integer_matrix(a)
    n = a.rows
    flat = [x for row in N for x in _dense(row, n)]
    corner = flat[0]
    for i in range(0, n * n, n + 1):
        flat[i] -= corner
    g = math.gcd(*flat)
    if g:
        if next(x for x in flat if x) < 0:
            g = -g
        flat = [x // g for x in flat]
    return tuple(flat), Fraction(g, d), Fraction(corner, d)


def _affine_repeat(form: tuple, b_form: tuple):
    """(alpha, beta) with a = alpha b + beta I and alpha != 0, for the
    `_affine_form`s of a and b; None when a is no such repeat of b.  A
    scalar repeats a scalar, with alpha = 1."""
    key, scale, corner = form
    b_key, b_scale, b_corner = b_form
    if key != b_key:
        return None
    alpha = scale / b_scale if b_scale else Q1
    return alpha, corner - alpha * b_corner


def _walk(V: SeifertModule, held=None, phi=None):
    """The one MeatAxe walk, over `_factor_kernels`: (count, found) per
    sampled element, `found` lazily yielding ("spin", space) for a kernel
    vector that spins to the proper submodule `space` (a `RowSpace`), ("dual",
    columns) for the proper annihilator of a failed Norton test, and
    ("simple", certificate).  A line over Q[a]/(p) (nullity p(a) = deg p)
    has its first vector spun once: all its nonzero vectors spin to one
    submodule.  When that is V, Norton (Holt-Rees 1994) decides: V is simple
    exactly when a vector of ker p(a^T) spins to Q^n under the transposed
    generators.  Other kernels have each basis vector spun.

    The isotropic search passes `held`, a callable giving the dimension of
    its held candidate, and `phi`, the sparse integer rows of its form
    (`integer_matrix`).  Then a kernel that is not a line also offers the
    sums and differences of its first 24 pairs of basis vectors, and for
    such a kernel it
    - stops before a vector once the held dimension is <= deg p (a spin of
      v in ker p(a) contains Q[a]v, of dimension deg p);
    - yields nothing for a vector v that `_visibly_anisotropic` rejects,
      without spinning it: the form does not vanish on its spin, so that
      spin is no candidate.
    Line kernels are spun as without the search: Norton's test reads them.
    A kernel list that an affine repeat hands back again is dropped: its
    spins and Norton test were made when it was first offered, so they can
    neither beat the held candidate nor give a first finding."""
    if V.dim == 1:
        yield 0, [("simple", SimpleCertificate("dimension-1"))]
        return
    offered = set()     # ids of the kernel lists handed out in this walk
    for count, a, kernels in _factor_kernels(V):
        fresh = ((p, ker) for p, ker in kernels
                 if id(ker) not in offered and not offered.add(id(ker)))
        yield count, _kernel_findings(V, a, fresh, held, phi)


def _kernel_findings(V: SeifertModule, a: QMatrix, kernels, held, phi):
    n = V.dim
    gens = V.generators()
    ints = None if phi is None else [integer_matrix(g)[1] for g in gens]
    for p, ker in kernels:
        if len(ker) == p.degree():
            spun = spin(gens, ker[:1], n)
            if spun.dim() == n:
                w = kernel_columns(p.eval_matrix(a.transpose())).col(0)
                spun = spin([g.transpose() for g in gens], [w], n)
                if spun.dim() == n:
                    yield "simple", SimpleCertificate(
                        "norton", {"element": a, "factor": p})
                    return
                yield "dual", kernel_columns(spun.basis_matrix())
            else:
                yield "spin", spun
            continue
        # the pair sums lazily: most are never reached
        pairs = itertools.islice(itertools.combinations(ker, 2),
                                 0 if held is None else 24)
        vectors = itertools.chain(ker, itertools.chain.from_iterable(
            ([x + y for x, y in zip(u, w)], [x - y for x, y in zip(u, w)])
            for u, w in pairs))
        for v in vectors:
            if held is not None and held() <= p.degree():
                break
            v = integer_row(v)
            if phi is not None and _visibly_anisotropic(phi, ints, v):
                continue
            spun = spin(gens, [v], n)
            if 0 < spun.dim() < n:
                yield "spin", spun


def _visibly_anisotropic(phi: list, gens: list, v: list) -> bool:
    """Whether the form with sparse integer rows `phi` is seen not to
    vanish on the spin of the integer vector v under the generators with
    sparse integer rows `gens`: phi(v, v) or phi(v, m v) is nonzero for a
    generator m.  The spin contains v and every m v.  A few dot products
    decide it, against a spin's products and eliminations."""
    pv = apply_integer(phi, v)
    return any(sum(x * y for x, y in zip(w, pv)) for w in itertools.chain(
        [v], (apply_integer(m, v) for m in gens)))


def is_simple(V: SeifertModule):
    """(True, certificate) or (False, witness inclusion of a proper nonzero
    submodule): the first finding of the walk, else the complete fallback."""
    n = V.dim
    if n == 0:
        raise SeifertError("zero module")
    for _count, found in _walk(V):
        for kind, payload in found:
            if kind == "simple":
                return True, payload
            if kind == "spin":
                payload = payload.basis_matrix().transpose()
            return False, submodule_from_basis(V, payload)[1]

    # complete fallback: algebra radical, then the endomorphism ring
    rad = algebra_radical(algebra_basis(V))
    if rad:
        spun = spin(V.generators(), [m.col(j) for m in rad for j in range(n)],
                    n)
        assert 0 < spun.dim() < n
        return False, submodule_from_basis(
            V, spun.basis_matrix().transpose())[1]

    return _semisimple_witness(V)


def _semisimple_witness(V: SeifertModule):
    """Simplicity decision for a module whose acting algebra is semisimple:
    find zero divisors / nilpotents in End(V), or certify it is a division
    algebra."""
    n = V.dim
    ends = hom_space(V, V)
    k = len(ends)
    if k == 1:
        return True, SimpleCertificate("schur-field", {"end_dim": 1})

    def witness_from(mat: QMatrix):
        return False, submodule_from_basis(V, kernel_columns(mat))[1]

    # a commutative End(V) is a product of number fields here (the acting
    # algebra is semisimple), so the candidates hold a primitive element:
    # its minimal polynomial is reducible or certifies a field (its powers
    # span End(V), which is then commutative)
    for coeffs in endofield.primitive_candidates(k):
        b = lincomb(coeffs, ends)
        q = minimal_polynomial(b)
        _, factors = factor_rational_poly(q)
        if len(factors) > 1 or factors[0][1] > 1:
            p1 = factors[0][0]
            return witness_from(p1.eval_matrix(b))
        if q.degree() == k:
            # primitive element with irreducible minimal polynomial:
            # End(V) is a number field, V is simple
            return True, SimpleCertificate(
                "schur-field", {"end_dim": k, "minpoly": q})

    # noncommutative endomorphism ring: quaternion over Q is decidable
    center = endofield.algebra_center(ends)
    if len(center) == 1 and k == 4:
        quac = _quaternion_data(ends)
        if quac is None:
            raise SimplicityUndecided("4-dimensional endomorphism ring "
                                      "without quaternion presentation")
        a, b, i_mat, j_mat = quac
        if _quaternion_is_division(a, b):
            return True, SimpleCertificate(
                "quaternion-division", {"a": a, "b": b})
        sol = _solve_conic(a, b)
        if sol is None:
            raise SimplicityUndecided("split quaternion algebra: no small "
                                      "conic point found")
        z, x, y = sol
        u = lincomb([z, x, y], [QMatrix.identity(n), i_mat, j_mat])
        assert not u.is_zero() and u.det() == 0
        return witness_from(u)
    raise SimplicityUndecided(
        f"cannot certify simplicity: endomorphism ring of dimension {k} "
        f"with center of dimension {len(center)}")


def _quaternion_data(ends: list):
    """Standard generators of a 4-dimensional algebra with center Q: returns
    (a, b, i, j) with i^2 = a, j^2 = b, ij = -ji, or None."""
    n = ends[0].rows
    try:
        traces = [_regular_trace(ends, b) for b in ends]
    except SeifertError:
        return None
    system = QMatrix.from_rows([traces])
    zero_trace = [lincomb(coeffs, ends)
                  for coeffs in solve_or_kernel(system).kernel]
    if len(zero_trace) != 3:
        return None
    i_mat = zero_trace[0]
    a = _scalar_of(i_mat * i_mat)
    if a in (None, 0):
        return None
    # anticommutant of i inside the trace-zero part
    for cand in zero_trace[1:] + [zero_trace[1] + zero_trace[2],
                                  zero_trace[1] - zero_trace[2]]:
        anti = i_mat * cand + cand * i_mat
        if anti.is_zero():
            b_val = _scalar_of(cand * cand)
            if b_val not in (None, 0):
                return a, b_val, i_mat, cand
    # solve the linear anticommutation system
    antis = [i_mat * z + z * i_mat for z in zero_trace]
    rows = [[anti.data[idx // n][idx % n] for anti in antis]
            for idx in range(n * n)]
    for coeffs in solve_or_kernel(QMatrix.from_rows(rows)).kernel:
        j_mat = lincomb(coeffs, zero_trace)
        if j_mat.is_zero():
            continue
        b_val = _scalar_of(j_mat * j_mat)
        if b_val not in (None, 0):
            return a, b_val, i_mat, j_mat
    return None


def _regular_trace(basis: list, x: QMatrix) -> Fraction:
    """Trace of left multiplication by x on the span of basis."""
    coeffs = span_coordinates(basis, [x * b for b in basis])
    if coeffs is None:
        raise SeifertError("span is not multiplicatively closed")
    return sum((coeffs.data[i][i] for i in range(len(basis))), Q0)


def _scalar_of(m: QMatrix):
    """c such that m == c * identity, else None."""
    n = m.rows
    c = m.data[0][0]
    ident = QMatrix.identity(n).scale(c)
    return c if m == ident else None


def _quaternion_is_division(a: Fraction, b: Fraction) -> bool:
    return any(hilbert_symbol(a, b, p) == -1
               for p in relevant_places([a, b]))


def _solve_conic(a: Fraction, b: Fraction):
    """Nontrivial rational solution of z^2 = a x^2 + b y^2, by bounded
    search over integers after clearing denominators.  Returns (z, x, y) or
    None."""
    da = a.denominator
    db = b.denominator
    A = int(a * da * da * db * db)   # a -> A with x scaled
    B = int(b * db * db * da * da)
    # search z^2 = A x^2 + B y^2 over small integers
    for x in range(0, 40):
        for y in range(0, 40):
            if x == 0 and y == 0:
                continue
            val = A * x * x + B * y * y
            if val < 0:
                continue
            z = math.isqrt(val)
            if z * z == val:
                return (Fraction(z), Fraction(x * da * db),
                        Fraction(y * da * db))
    return None


# ---------------------------------------------------------------------------
# composition series
# ---------------------------------------------------------------------------

def find_simple_submodule(V: SeifertModule):
    """A certified simple submodule: (module, inclusion into V, certificate).
    The identity of V is composed with each witness of `is_simple` until
    the witness's module is certified; nothing is built again."""
    incl = SeifertMorphism.identity(V)
    while True:
        simple, payload = is_simple(incl.source)
        if simple:
            return incl.source, incl, payload
        incl = incl.compose(payload)


def composition_series(V: SeifertModule):
    """Chain 0 = V_0 < ... < V_s = V with simple quotients.

    Returns a list of (inclusion morphism of V_i into V, simple quotient
    V_i / V_{i-1}).
    """
    err = V.validate()
    if err is not None:
        raise SeifertError(err)
    steps = []
    _sub, incl = submodule_from_basis(V, QMatrix.zeros(V.dim, 0))
    while incl.matrix.cols < V.dim:
        quot, _proj, section = quotient_module(V, incl)
        simple, s_incl, _cert = find_simple_submodule(quot)
        basis = incl.matrix.hstack(section * s_incl.matrix)
        _sub, incl = submodule_from_basis(V, basis)
        steps.append((incl, simple))
    return steps


# ---------------------------------------------------------------------------
# Witt reduction
# ---------------------------------------------------------------------------

@dataclass
class IsotypicGroup:
    module: SeifertModule                 # representative simple module
    forms: list                           # SeifertForm objects on module
    witnesses: list                       # isomorphisms piece -> representative
    certificate: SimpleCertificate | None = None
    _end: tuple | None = field(default=None, init=False, repr=False,
                               compare=False)

    def endomorphism_field(self):
        """(End(module), its field), built once, on first use: the number
        field with the involution x -> b^{-1} x^T b of b = zeta f for a form
        f of the group (the same for all: b' = b u with u in the commutative
        End(module)), or a NoncommutativeEndomorphism."""
        if self._end is None:
            ring = endofield.endomorphism_ring(self.module, assume_simple=True,
                                               certificate=self.certificate)
            nf = endofield.as_number_field(ring)
            if not isinstance(nf, endofield.NoncommutativeEndomorphism):
                nf = endofield.involution_from_form(
                    nf, self.forms[0].zeta_scaled())
            self._end = ring, nf
        return self._end


@dataclass
class AnisotropicDecomposition:
    groups: list
    log: list


def _isotropic_candidate(f: SeifertForm):
    """The submodule `_isotropic_search` finds, or None."""
    return _isotropic_search(f)[0]


def _isotropic_search(f: SeifertForm):
    """(inclusion, None) for a proper nonzero submodule on which the form
    vanishes, (None, certificate) when the walk certifies V simple (the
    certificate of `is_simple(V)`, the same walk), else (None, None).
    Isotropic submodules make metabolic inputs collapse completely.  The
    candidates are the walk's spins, with pairs (these catch diagonal
    lagrangians of orthogonal sums): the smallest wins, the first among
    equals, and once one is held no element past the third is started.
    Two tests skip spins that cannot win, in a kernel that is not a line
    (`_walk`): once the held candidate has dimension <= deg p, none of the
    kernel's spins (each of dimension >= deg p) could replace it; and a
    vector v with phi(v, v) or phi(v, m v) nonzero for a generator m is
    not spun, because its spin is not isotropic.  So the winner is the one
    that spinning every vector gives.  A line kernel is still spun once,
    for its Norton test.  A spin is isotropic when the integer multiple of
    phi vanishes on its integer rows."""
    V = f.module
    phi = integer_matrix(f.phi)[1]
    best = None

    def held():
        # V.dim never stops a kernel that is not a line: there deg p < n
        return V.dim if best is None else best.dim()

    for count, found in _walk(V, held, phi):
        for kind, payload in found:
            if kind == "simple":
                return None, payload
            if kind == "spin" and payload.dim() < held() \
                    and _vanishes(phi, payload.rows):
                best = payload
        if best is not None and count >= 2:
            break
    if best is None:
        return None, None
    return submodule_from_basis(V, best.basis_matrix().transpose())[1], None


def _vanishes(phi: list, rows: list) -> bool:
    """Whether the form with sparse integer rows `phi` vanishes on the span
    of the integer vectors `rows`."""
    images = [apply_integer(phi, w) for w in rows]
    return not any(sum(x * y for x, y in zip(u, im))
                   for im in images for u in rows)


def witt_reduce(f: SeifertForm, seed: int = 0) -> AnisotropicDecomposition:
    """Witt-class-preserving reduction to forms on simple modules.

    At each step an isotropic simple submodule is reduced away when one is
    found, otherwise a simple summand is split off.  Pieces are grouped
    isotypically; hyperbolic pairs inside a group are cancelled when the
    class computation is decidable (always when the two forms are exact
    negatives).  The seed is only written into the log.
    """
    err = f.validate()
    if err is not None:
        raise SeifertError(f"invalid input form: {err}")
    log = [f"seed {seed}"]
    pieces = []
    work = [f.promote() if f.module.ring == "Z" else f]
    while work:
        g = work.pop()
        if g.module.dim == 0:
            continue
        iso_incl, cert = _isotropic_search(g)
        if cert is not None:
            # certified simple by the walk itself
            incl = SeifertMorphism.identity(g.module)
            simple = incl.source
        else:
            # a simple inside the isotropic candidate (isotropic too), or g
            within = g.module if iso_incl is None else iso_incl.source
            simple, incl, cert = find_simple_submodule(within)
            if iso_incl is not None:
                incl = iso_incl.compose(incl)
        restriction = restrict_form(g, incl)
        if restriction.phi.is_zero():
            reduced, _section = induced_form_on_subquotient(g, incl)
            log.append(f"isotropic simple of dim {simple.dim}: "
                       f"pass to subquotient of dim {reduced.module.dim}")
            work.append(reduced)
        else:
            # nonsingular: its radical is a submodule of the simple L
            restriction._validated = True
            pieces.append((simple, restriction, cert))
            perp = perp_basis(g, incl)
            perp_mod, perp_incl = submodule_from_basis(g.module, perp)
            log.append(f"split off simple of dim {simple.dim}; "
                       f"remainder dim {perp_mod.dim}")
            work.append(restrict_form(g, perp_incl))
    groups = isotypic_group(pieces, log)
    groups = [_cancel_hyperbolic_pairs(gr, log) for gr in groups]
    groups = [gr for gr in groups if gr.forms]
    groups.sort(key=_group_sort_key)
    return AnisotropicDecomposition(groups, log)


def isotypic_group(pieces, log=None) -> list:
    """Group (module, form) pieces by isomorphism class; transport all forms
    onto the first-found representative of each class."""
    groups: list[IsotypicGroup] = []
    for item in pieces:
        module, form = item[0], item[1]
        cert = item[2] if len(item) > 2 else None
        for gr in groups:
            iso = find_isomorphism(module, gr.module)
            if iso is not None:
                gr.forms.append(form.transport(iso))
                gr.witnesses.append(iso)
                break
        else:
            groups.append(IsotypicGroup(module, [form],
                                        [SeifertMorphism.identity(module)],
                                        cert))
    if log is not None:
        log.append(f"isotypic grouping: {len(groups)} class(es), sizes "
                   f"{[len(g.forms) for g in groups]}")
    return groups


def _group_sort_key(gr: IsotypicGroup):
    return (gr.module.dim, len(gr.forms),
            tuple(tuple(str(x) for x in row) for row in gr.module.s.data))


def _cancel_hyperbolic_pairs(gr: IsotypicGroup, log) -> IsotypicGroup:
    """Remove, in place, pairs of forms whose orthogonal sum is metabolic.
    Exact negatives always cancel; otherwise the decision goes through the
    group's endomorphism field when its class group is decidable.  A
    cancelled form leaves together with its witness."""
    pairs = list(zip(gr.forms, gr.witnesses))   # each form with its witness
    changed = True
    while changed:
        changed = False
        for i, j in itertools.combinations(range(len(pairs)), 2):
            if _pair_cancels(gr, pairs[i][0], pairs[j][0]):
                log.append(f"cancel hyperbolic pair on dim-{gr.module.dim} "
                           f"simple (indices {i}, {j})")
                del pairs[j], pairs[i]
                changed = True
                break
    gr.forms = [f for f, _ in pairs]
    gr.witnesses = [w for _, w in pairs]
    return gr


def _pair_cancels(gr: IsotypicGroup, f1: SeifertForm,
                  f2: SeifertForm) -> bool:
    if f2.phi == -f1.phi:
        return True
    ring, nf = gr.endomorphism_field()
    if isinstance(nf, endofield.NoncommutativeEndomorphism):
        return False
    # against b = zeta f1, f1 transports to 1: the pair cancels when -g2 is
    # a norm
    g2 = endofield.transported_scalar(nf, f1.zeta_scaled(), f2)
    norm = endofield.norm_class(nf, -g2)
    if norm is not None:
        return norm
    # undecided: bounded search for an explicit isometry u with
    # u^T f2 u = -f1 (which would make -g2 a norm); a hit exhibits the
    # diagonal-type lagrangian
    target = -f1.phi
    basis = ring.basis
    rng = random.Random(0xCA4CE1)
    candidates = list(basis)
    candidates += [a + b2 for a, b2 in itertools.combinations(basis, 2)]
    candidates += [a - b2 for a, b2 in itertools.combinations(basis, 2)]
    for _ in range(60):
        candidates.append(lincomb([rng.randint(-2, 2) for _m in basis],
                                  basis))
    for u in candidates:
        if u.is_zero():
            continue
        if u.transpose() * f2.phi * u == target:
            return True
    return False
