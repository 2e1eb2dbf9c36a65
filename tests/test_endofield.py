import random
from fractions import Fraction

import pytest

from linkwitt.rational import QMatrix, QPoly
from linkwitt.seifert import SeifertForm, SeifertModule
from linkwitt.endofield import (EndomorphismError, EndomorphismRing,
                                NoncommutativeEndomorphism,
                                as_number_field, classify_noncommutative,
                                endomorphism_ring, field_conj, field_mul,
                                involution_from_form, morita_transport,
                                transported_scalar)
from linkwitt.wittinv import diagonalize, signatures, discriminant_class

from support import (random_form, worked_example_simple,
                     worked_example_simple_form)


def test_endomorphism_ring_of_worked_simple():
    ring = endomorphism_ring(worked_example_simple())
    assert ring.dim == 2
    assert ring.is_commutative()


def test_endomorphism_ring_of_line():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    ring = endomorphism_ring(V)
    assert ring.dim == 1


def test_isotypic_double_rejected():
    Vp = worked_example_simple()
    with pytest.raises(EndomorphismError):
        endomorphism_ring(Vp.direct_sum(Vp))


def test_as_number_field_worked_example():
    ring = endomorphism_ring(worked_example_simple())
    nf = as_number_field(ring)
    assert nf.minpoly == QPoly([1, -1, 1])
    assert nf.degree == 2


def test_as_number_field_line():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    nf = as_number_field(endomorphism_ring(V))
    assert nf.degree == 1


def _quaternion_regular_ring() -> EndomorphismRing:
    """Left regular representation of the quaternions with i^2 = j^2 = -1,
    wrapped as a synthetic endomorphism ring on a 4-dimensional module."""
    one = QMatrix.identity(4)
    i = QMatrix(4, 4, [[0, -1, 0, 0], [1, 0, 0, 0],
                       [0, 0, 0, -1], [0, 0, 1, 0]])
    j = QMatrix(4, 4, [[0, 0, -1, 0], [0, 0, 0, 1],
                       [1, 0, 0, 0], [0, -1, 0, 0]])
    k = i * j
    assert i * j == -(j * i)
    assert (i * i) == -one and (j * j) == -one
    carrier = SeifertModule.from_blocks(1, QMatrix.zeros(4, 4), [4])
    basis = [one, i, j, k]
    structure = []
    for a in basis:
        row = []
        for b in basis:
            # products land in the span; coefficients read off directly
            prod = a * b
            coeffs = []
            for c in basis:
                # quaternion basis is orthogonal for the entrywise pairing
                num = sum(prod.data[r][s] * c.data[r][s]
                          for r in range(4) for s in range(4))
                den = sum(c.data[r][s] ** 2 for r in range(4)
                          for s in range(4))
                coeffs.append(Fraction(num, den))
            row.append(coeffs)
        structure.append(row)
    return EndomorphismRing(carrier, basis, structure)


def test_quaternion_fixture_detected_noncommutative():
    ring = _quaternion_regular_ring()
    out = as_number_field(ring)
    assert isinstance(out, NoncommutativeEndomorphism)
    assert out.is_quaternion
    assert out.center_dim == 1


def test_quaternion_classification_with_form():
    ring = _quaternion_regular_ring()
    nc = as_number_field(ring)
    # the identity form on the carrier induces transposition; its fixed set
    # in the quaternions is the centre, hence a standard involution
    b = SeifertForm(ring.module, 1, QMatrix.identity(4))
    label = classify_noncommutative(nc, b)
    assert "quaternion" in label


def test_involution_from_worked_example_is_conjugation():
    Vp = worked_example_simple()
    f = worked_example_simple_form()
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, f.phi.scale(-1))    # b = -phi'
    nf = involution_from_form(nf, b)
    assert not nf.involution_is_trivial()
    assert nf.fixed_field_degree == 1
    # applying twice is the identity
    twice = nf.involution_image.compose(nf.involution_image) % nf.minpoly
    assert twice == QPoly.x() % nf.minpoly


def test_involution_on_line_is_trivial():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    nf = as_number_field(endomorphism_ring(V))
    b = SeifertForm(V, 1, QMatrix(1, 1, [[3]]))
    nf = involution_from_form(nf, b)
    assert nf.involution_is_trivial()


def test_involution_involutive_on_random_simples():
    rng = random.Random(41)
    count = 0
    from linkwitt.devissage import witt_reduce
    while count < 10:
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 4),
                        rng.choice([1, -1]))
        dec = witt_reduce(f)
        for group in dec.groups:
            ring = endomorphism_ring(group.module, assume_simple=True)
            nf = as_number_field(ring)
            if isinstance(nf, NoncommutativeEndomorphism):
                continue
            zeta = group.forms[0].zeta
            b = SeifertForm(group.module, zeta,
                            group.forms[0].phi.scale(zeta))
            nf = involution_from_form(nf, b)
            twice = nf.involution_image.compose(nf.involution_image) \
                % nf.minpoly
            assert twice == QPoly.x() % nf.minpoly
            count += 1


def test_morita_transport_worked_example_is_unit():
    Vp = worked_example_simple()
    phi = worked_example_simple_form()
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, phi.phi.scale(-1))
    nf = involution_from_form(nf, b)
    h = morita_transport(nf, [phi], b)
    assert h.rank == 1
    assert h.gram[0][0] == QPoly.one()


def test_transport_of_b_against_itself_is_unit():
    rng = random.Random(42)
    from linkwitt.devissage import witt_reduce
    done = 0
    while done < 5:
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 4),
                        rng.choice([1, -1]))
        dec = witt_reduce(f)
        for group in dec.groups:
            nf = as_number_field(
                endomorphism_ring(group.module, assume_simple=True))
            if isinstance(nf, NoncommutativeEndomorphism):
                continue
            zeta = group.forms[0].zeta
            b = SeifertForm(group.module, zeta,
                            group.forms[0].phi.scale(zeta))
            nf = involution_from_form(nf, b)
            h = morita_transport(nf, [b], b)
            assert h.gram[0][0] == QPoly.one()
            done += 1


def test_transport_pair_gives_diagonal():
    Vp = worked_example_simple()
    phi = worked_example_simple_form()
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, phi.phi.scale(-1))
    nf = involution_from_form(nf, b)
    h = morita_transport(nf, [phi, phi], b)
    assert h.rank == 2
    g = transported_scalar(nf, b, phi)
    assert h.gram[0][0] == g and h.gram[1][1] == g
    assert h.gram[0][1].is_zero() and h.gram[1][0].is_zero()


def test_transport_respects_orthogonal_sums():
    # transport of f1 perp f2 within an isotypic group is the diagonal sum
    Vp = worked_example_simple()
    phi = worked_example_simple_form()
    phi2 = SeifertForm(Vp, -1, phi.phi.scale(2))
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, phi.phi.scale(-1))
    nf = involution_from_form(nf, b)
    h12 = morita_transport(nf, [phi, phi2], b)
    h1 = morita_transport(nf, [phi], b)
    h2 = morita_transport(nf, [phi2], b)
    assert h12.gram[0][0] == h1.gram[0][0]
    assert h12.gram[1][1] == h2.gram[0][0]


def test_transport_of_metabolic_pair_is_hyperbolic():
    Vp = worked_example_simple()
    phi = worked_example_simple_form()
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, phi.phi.scale(-1))
    nf = involution_from_form(nf, b)
    h = morita_transport(nf, [phi, phi.negate()], b)
    diag, _ = diagonalize(h)
    sigs = signatures(h, diag)
    disc = discriminant_class(h, diag)
    assert all(s == 0 for _, s in sigs)
    assert disc["trivial"] is True


def test_scaling_b_keeps_triviality_verdict():
    # the all-invariants-trivial verdict does not depend on the choice of b
    rng = random.Random(43)
    from linkwitt.devissage import witt_reduce
    checked = 0
    while checked < 10:
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 4),
                        rng.choice([1, -1]))
        dec = witt_reduce(f.direct_sum(f))
        for group in dec.groups:
            ring = endomorphism_ring(group.module, assume_simple=True)
            nf0 = as_number_field(ring)
            if isinstance(nf0, NoncommutativeEndomorphism):
                continue
            zeta = group.forms[0].zeta
            b1 = SeifertForm(group.module, zeta,
                             group.forms[0].phi.scale(zeta))
            b2 = SeifertForm(group.module, zeta, b1.phi.scale(3))
            verdicts = []
            for b in (b1, b2):
                nf = involution_from_form(nf0, b)
                h = morita_transport(nf, group.forms, b)
                diag, _ = diagonalize(h)
                sigs = signatures(h, diag)
                disc = discriminant_class(h, diag)
                trivial = (h.rank % 2 == 0
                           and all(s == 0 for _, s in sigs)
                           and disc["trivial"] is not False)
                verdicts.append(trivial)
            assert verdicts[0] == verdicts[1]
            checked += 1


def test_conjugation_fixed_field():
    Vp = worked_example_simple()
    phi = worked_example_simple_form()
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, phi.phi.scale(-1))
    nf = involution_from_form(nf, b)
    # conj fixes exactly the rationals: gamma = 2 alpha - 1 is negated
    gamma = (QPoly([0, 2]) - QPoly.one()) % nf.minpoly
    assert field_conj(nf, gamma) == -gamma
    delta = field_mul(nf, gamma, gamma)
    assert delta == QPoly([-3])


def test_conic_solver_finds_isotropic_vectors():
    from linkwitt.devissage import _solve_conic
    from linkwitt.wittinv import hilbert_symbol
    from linkwitt.rational import factor_int
    cases = [(1, 1), (2, 7), (3, 1), (5, -1), (Fraction(1, 2), 2)]
    for a, b in cases:
        a, b = Fraction(a), Fraction(b)
        places = {2, "inf"}
        for v in (a, b):
            for n in (abs(v.numerator), v.denominator):
                if n > 1:
                    places.update(factor_int(n))
        isotropic = all(hilbert_symbol(a, b, p) == 1 for p in places)
        sol = _solve_conic(a, b)
        if isotropic:
            assert sol is not None
            z, x, y = sol
            assert z * z == a * x * x + b * y * y
            assert (x, y, z) != (0, 0, 0)


def test_primitive_candidates_basis_then_moment_curve():
    from linkwitt.endofield import primitive_candidates
    for k in range(1, 7):
        cands = list(primitive_candidates(k))
        assert len(cands) == k + k * (k - 1) ** 2 // 2 + 1
        assert cands[:k] == [[int(i == j) for j in range(k)]
                             for i in range(k)]
        assert cands[k:] == [[c ** j for j in range(k)]
                             for c in range(1, len(cands) - k + 1)]


def _regular_ring(basis_products, dim):
    # EndomorphismRing on the regular representation: basis_products(i, j)
    # = (coefficient, index) of basis_i * basis_j, basis_0 the unit
    def coords(i, j):
        c, t = basis_products(i, j)
        return [c if r == t else 0 for r in range(dim)]
    basis = [QMatrix(dim, dim, [[coords(i, j)[r] for j in range(dim)]
                                for r in range(dim)]) for i in range(dim)]
    structure = [[QMatrix.column(coords(i, j)) for j in range(dim)]
                 for i in range(dim)]
    V = SeifertModule.from_blocks(1, QMatrix.zeros(dim, dim), [dim])
    return EndomorphismRing(V, basis, structure)


def test_as_number_field_reaches_the_moment_curve(monkeypatch):
    # Q(sqrt2, sqrt3, sqrt5) on the basis sqrt(d), d | 30: every basis
    # element has degree <= 2, the sum of the basis (c = 1) has degree 8
    import math
    import linkwitt.endofield as ef
    from linkwitt.rational import lincomb
    ds = [1, 2, 3, 5, 6, 10, 15, 30]

    def product(i, j):
        g = math.gcd(ds[i], ds[j])
        return g, ds.index(ds[i] * ds[j] // (g * g))

    ring = _regular_ring(product, 8)
    assert ring.is_commutative()
    calls = []
    minimal_polynomial = ef.minimal_polynomial

    def counted(m):
        calls.append(m)
        return minimal_polynomial(m)

    monkeypatch.setattr(ef, "minimal_polynomial", counted)
    nf = as_number_field(ring)
    monkeypatch.undo()
    assert nf.degree == 8 and len(calls) == 9
    assert nf.embedding == lincomb([1] * 8, ring.basis)


def test_as_number_field_without_primitive_element():
    # Q[x, y]/(x, y)^2 is commutative and every element has degree <= 2:
    # exhausting the candidates proves that the ring is not a field
    def product(i, j):
        if i == 0 or j == 0:
            return 1, i + j
        return 0, 0

    with pytest.raises(EndomorphismError, match="not a field"):
        as_number_field(_regular_ring(product, 3))


def _knot_piece_field(seed):
    # the endomorphism field with involution of the simple piece of a
    # genus-2 knot form, built as the invariant report builds it
    from linkwitt.devissage import witt_reduce
    from support import knot_form
    group = witt_reduce(knot_form(random.Random(seed), 2)).groups[0]
    zeta = group.forms[0].zeta
    b = SeifertForm(group.module, zeta, group.forms[0].phi.scale(zeta))
    nf = as_number_field(endomorphism_ring(group.module, assume_simple=True))
    return involution_from_form(nf, b)


def test_endomorphism_ring_solves_for_no_structure_constants(monkeypatch):
    # Hom(M, M) is closed under composition, so no basis products are
    # formed and no coordinates are solved for
    import linkwitt.endofield as ef
    from linkwitt.devissage import witt_reduce
    from support import knot_form
    calls = []

    def counted(*args):
        calls.append(args)
        raise AssertionError("span_coordinates called")

    modules = [worked_example_simple()]
    modules += [witt_reduce(knot_form(random.Random(seed), 2)).groups[0].module
                for seed in (0, 1)]
    monkeypatch.setattr(ef, "span_coordinates", counted)
    for M in modules:
        ring = ef.endomorphism_ring(M, assume_simple=True)
        assert ring.structure is None
        assert ring.basis[0] == QMatrix.identity(M.dim)
    assert calls == []


def _former_norm_decisions(nf, d):
    """The two decisions norm_class replaces, rebuilt: the boolean of the
    pair cancellation (False also when undecided) and the discriminant's
    (None when undecided; d fixed by the involution)."""
    from linkwitt.rational import squarefree_part
    from linkwitt.endofield import relative_discriminant
    from linkwitt.wittinv import norm_class_test_quadratic
    d = d % nf.minpoly
    trivial = nf.involution_image is None or nf.involution_is_trivial()
    if trivial:
        found = (squarefree_part(d.coeff(0)) == 1 if nf.degree == 1
                 else None)
        return bool(found), found
    delta = relative_discriminant(nf)
    if field_conj(nf, d) != d:
        return False, "not fixed"
    if nf.fixed_field_degree == 1:
        if d.degree() != 0 or delta.degree() != 0:
            return False, "not rational"
        m = squarefree_part(delta.coeff(0))
        found = norm_class_test_quadratic(d.coeff(0), m)
        return found, found
    return False, None


def test_norm_class_agrees_with_both_former_decisions():
    from linkwitt.endofield import norm_class
    from linkwitt.rational import QPoly
    rng = random.Random(2024)

    def rational():
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 60),
                        rng.randint(1, 12))

    line = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    fields = [_rational_field_on(line)]
    # Q(sqrt m) with conj(x) = -x: Fix = Q
    for m in (-1, -2, -3, -5, -7, 2, 3, 5, 6, -6, 10, -15):
        fields.append(_quadratic_field(m, QPoly([0, -1]), 1))
    # Q(sqrt m) with the trivial involution: square classes undecided
    for m in (-1, 2, -3):
        fields.append(_quadratic_field(m, QPoly([0, 1]), 2))
    # the worked-example simple: Q(zeta_6) with its form's involution
    f = worked_example_simple_form()
    fields.append(involution_from_form(
        as_number_field(endomorphism_ring(f.module)),
        SeifertForm(f.module, f.zeta, f.phi.scale(f.zeta))))
    decided = 0
    for nf in fields:
        for _ in range(25):
            d = QPoly([rational()])
            found = norm_class(nf, d)
            as_bool, as_disc = _former_norm_decisions(nf, d)
            assert found == as_disc
            assert (found is True) == as_bool
            decided += found is not None
            if nf.degree == 2:
                # an element the involution moves is proven not a norm
                moved = QPoly([rational(), rational()])
                found = norm_class(nf, moved)
                as_bool, as_disc = _former_norm_decisions(nf, moved)
                assert as_bool is False
                if as_disc == "not fixed":
                    assert found is False
                else:
                    assert found == as_disc
    assert decided > 300


def _rational_field_on(V):
    from linkwitt.endofield import NumberFieldWithInvolution
    from linkwitt.rational import QPoly
    return NumberFieldWithInvolution(QPoly([-1, 1]), QMatrix.identity(1), V,
                                     QPoly([1]), 1)


def _quadratic_field(m, image, fixed_degree):
    from linkwitt.endofield import NumberFieldWithInvolution
    from linkwitt.rational import QPoly
    alpha = QMatrix(2, 2, [[0, m], [1, 0]])
    V = SeifertModule.from_blocks(1, alpha, [2])
    return NumberFieldWithInvolution(QPoly([-m, 0, 1]), alpha, V, image,
                                     fixed_degree)


def test_norm_class_undecided_over_a_degree_four_knot_field():
    from linkwitt.endofield import fixed_field_basis, norm_class
    from linkwitt.rational import QPoly
    for seed in (0, 1):
        nf = _knot_piece_field(seed)
        assert (nf.degree, nf.fixed_field_degree) == (4, 2)
        for d in fixed_field_basis(nf) + [QPoly.one()]:
            assert norm_class(nf, d) is None
        # an element the involution moves is proven not a norm
        assert norm_class(nf, QPoly.x()) is False


def _sqrt_2_3_5_ring():
    # Q(sqrt2, sqrt3, sqrt5) on the basis sqrt(d), d | 30
    import math
    ds = [1, 2, 3, 5, 6, 10, 15, 30]

    def product(i, j):
        g = math.gcd(ds[i], ds[j])
        return g, ds.index(ds[i] * ds[j] // (g * g))

    return _regular_ring(product, 8)


def _knot_groups(count):
    # the isotypic groups of genus-2 and genus-3 knot forms, in turn
    from linkwitt.devissage import witt_reduce
    from support import knot_form
    groups = []
    seed = 0
    while len(groups) < count:
        genus = 2 + seed % 2
        groups += witt_reduce(knot_form(random.Random(seed), genus)).groups
        seed += 1
    return groups[:count]


def test_as_number_field_decides_fields_without_testing_commutativity(
        monkeypatch):
    # a primitive element of degree dim End(M) proves End(M) = Q[theta]
    # commutative: no pairwise product of the basis is formed
    rings = [endomorphism_ring(worked_example_simple()), _sqrt_2_3_5_ring()]
    rings += [endomorphism_ring(group.module, assume_simple=True)
              for group in _knot_groups(10)]

    def refused(self):
        raise AssertionError("is_commutative called")

    monkeypatch.setattr(EndomorphismRing, "is_commutative", refused)
    for ring in rings:
        assert as_number_field(ring).degree == ring.dim
    monkeypatch.undo()
    # without a primitive element commutativity still decides
    nc = as_number_field(_quaternion_regular_ring())
    assert isinstance(nc, NoncommutativeEndomorphism)
    assert nc.is_quaternion and nc.center_dim == 1

    def nilpotent(i, j):
        if i == 0 or j == 0:
            return 1, i + j
        return 0, 0

    with pytest.raises(EndomorphismError, match="not a field"):
        as_number_field(_regular_ring(nilpotent, 3))


def test_fixed_field_degree_is_artins_without_a_kernel(monkeypatch):
    # a field automorphism of order 2 fixes a subfield of index 2, so the
    # involution is set up without the fixed field's kernel
    import linkwitt.endofield as ef
    from linkwitt.devissage import witt_reduce
    from support import conjugate_form, knot_form
    rng = random.Random(14)
    forms = []
    for seed in range(8):
        k = knot_form(random.Random(seed), 2 + seed % 4 // 3)
        forms += [k, conjugate_form(rng, k)]
    forms += [random_form(rng, mu, rng.randint(2, 4), zeta)
              for mu in (1, 2, 3) for zeta in (1, -1) for _ in range(2)]
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    kinds = []
    for f in forms:
        for group in witt_reduce(f).groups:
            nf = as_number_field(endomorphism_ring(group.module,
                                                   assume_simple=True))
            if isinstance(nf, NoncommutativeEndomorphism):
                continue
            zeta = group.forms[0].zeta
            b = SeifertForm(group.module, zeta,
                            group.forms[0].phi.scale(zeta))
            with monkeypatch.context() as m:
                for name in ("fixed_field_basis", "kernel_columns"):
                    m.setattr(ef, name, counted(name, getattr(ef, name)))
                nf = involution_from_form(nf, b)
            assert calls == []
            assert nf.fixed_field_degree == len(ef.fixed_field_basis(nf))
            kinds.append((nf.degree, nf.fixed_field_degree))
    # metabolic random forms leave no group
    assert len(forms) == 28 and len(kinds) >= 15
    assert {(1, 1), (2, 1), (4, 2), (6, 3)} <= set(kinds)


def test_field_conj_reduces_as_it_composes():
    # the Horner conjugation against the composition reduced at the end,
    # on reduced and unreduced elements of the knot groups' fields
    rng = random.Random(19)
    fields = [group.endomorphism_field()[1] for group in _knot_groups(8)]
    assert {nf.degree for nf in fields} == {4, 6}

    def element(nf):
        return QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(rng.randint(0, 2 * nf.degree + 1))])

    for nf in fields:
        for _ in range(6):
            a, b = element(nf), element(nf)
            conj_a = field_conj(nf, a)
            assert conj_a == a.compose(nf.involution_image) % nf.minpoly
            assert field_conj(nf, conj_a) == a % nf.minpoly
            assert field_conj(nf, field_mul(nf, a, b)) == \
                field_mul(nf, conj_a, field_conj(nf, b))


def _certified_simples():
    """(module, certificate) for the knot groups of `_knot_groups` and for
    the first simple submodule of random forms (mu = 1, 2, 3) and random
    modules (mu = 2, 3), whose Norton elements need not commute with the
    projections."""
    from linkwitt.devissage import find_simple_submodule
    from support import random_module
    out = [(g.module, g.certificate) for g in _knot_groups(10)]
    # W (x) Q(sqrt 2) for the simple W = <[[1, 2], [3, 4]], blocks 1 + 1>:
    # End = Q(sqrt 2), and s commutes with neither projection
    s = QMatrix(4, 4, [[1, 2, 2, 0], [1, 1, 0, 2], [3, 0, 4, 2],
                       [0, 3, 1, 4]])
    out.append(find_simple_submodule(
        SeifertModule.from_blocks(2, s, [2, 2]))[::2])
    for mu in (1, 2, 3):
        for seed in range(6):
            f = random_form(random.Random(seed), mu, 6, -1)
            out.append(find_simple_submodule(f.module)[::2])
    for mu in (2, 3):
        for dim in (2, 3, 4):
            for seed in range(4):
                V = random_module(random.Random(seed), mu, dim)
                out.append(find_simple_submodule(V)[::2])
    return out


def _is_cyclic_norton(M, cert):
    return cert.kind == "norton" and cert.detail["factor"].degree() == M.dim


def test_norton_endomorphisms_are_the_hom_space_basis():
    # End(M) read off the powers of a cyclic Norton element is hom_space's
    # reduced basis itself, also where the commutators [a^i, g] cut Q[a]
    from linkwitt.endofield import _cyclic_endomorphisms
    from linkwitt.seifert import hom_space
    seen = []
    for M, cert in _certified_simples():
        if not _is_cyclic_norton(M, cert):
            assert _cyclic_endomorphisms(M, cert) is None
            continue
        a = cert.detail["element"]
        commuting = all((a * g - g * a).is_zero() for g in M.generators())
        basis = hom_space(M, M)
        assert _cyclic_endomorphisms(M, cert) == basis
        seen.append((M.mu, M.dim, commuting, len(basis)))
    assert {key[0] for key in seen} == {1, 2, 3}
    assert (1, 4, True, 4) in seen and (1, 6, True, 6) in seen
    assert sum(1 for key in seen if not key[2]) >= 5
    assert (2, 4, False, 2) in seen


def test_endomorphism_ring_keeps_hom_space_off_the_cyclic_case(
        monkeypatch):
    # a Norton element of degree below dim M, a schur-field certificate and
    # no certificate at all each take one hom_space solve, to the same ring
    import linkwitt.endofield as ef
    from linkwitt.devissage import _semisimple_witness
    cases = [(M, cert) for M, cert in _certified_simples()
             if cert.kind == "norton" and not _is_cyclic_norton(M, cert)]
    assert len(cases) >= 3
    schur = worked_example_simple()
    cases += [(schur, _semisimple_witness(schur)[1]), (schur, None)]
    assert cases[-2][1].kind == "schur-field"
    expected = [endomorphism_ring(M).basis for M, _cert in cases]
    calls = []
    hom_space = ef.hom_space

    def counted(V, W):
        calls.append(V)
        return hom_space(V, W)

    monkeypatch.setattr(ef, "hom_space", counted)
    for (M, cert), basis in zip(cases, expected):
        before = len(calls)
        assert endomorphism_ring(M, certificate=cert).basis == basis
        assert len(calls) == before + 1


def test_cyclic_groups_build_their_fields_without_hom_space(monkeypatch):
    # every genus-2 and genus-3 knot group is certified by a cyclic Norton
    # element, so its field and the whole report take no hom_space solve
    # in the field layer (find_isomorphism in the grouping still takes one)
    import linkwitt.endofield as ef
    from linkwitt.devissage import witt_reduce
    from linkwitt.wittinv import analyze_form
    from support import conjugate_form, knot_form

    def refuse(V, W):
        raise AssertionError("hom_space called")

    monkeypatch.setattr(ef, "hom_space", refuse)
    for seed in range(4):
        rng = random.Random(seed)
        f = knot_form(rng, 2 + seed % 2)
        for g in (f, conjugate_form(rng, f)):
            for group in witt_reduce(g).groups:
                assert _is_cyclic_norton(group.module, group.certificate)
                ring, nf = group.endomorphism_field()
                assert ring.basis[0] == QMatrix.identity(group.module.dim)
                assert nf.degree == ring.dim
            analyze_form(g)


def test_norm_class_decides_rational_squares_without_factoring(
        monkeypatch):
    # <N, 3> with N a 40-digit semiprime: the pair cancellation asks
    # whether -3/N is a square, which isqrt answers with no factoring
    import linkwitt.rational as r
    from linkwitt.endofield import norm_class
    N = (10 ** 19 + 51) * (10 ** 19 + 87)
    nf = _rational_field_on(
        SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1]))

    def refuse(n):
        raise AssertionError(f"factor_int({n}) called")

    monkeypatch.setattr(r, "factor_int", refuse)
    assert norm_class(nf, QPoly([Fraction(-3, N)])) is False
    assert norm_class(nf, QPoly([Fraction(3, N)])) is False
    assert norm_class(nf, QPoly([Fraction(9 * N, N ** 3)])) is True


def test_a_field_built_without_an_image_holds_the_trivial_involution():
    # Q, Q(sqrt 2) and a genus-2 knot field, each built without an image,
    # against the same field built with the image x mod minpoly
    from linkwitt.devissage import witt_reduce
    from linkwitt.endofield import (HermitianFormOverE,
                                    NumberFieldWithInvolution,
                                    classify_involution, norm_class)
    from support import knot_form
    rng = random.Random(24)
    line = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    alpha = QMatrix(2, 2, [[0, 2], [1, 0]])
    knot = witt_reduce(knot_form(random.Random(0), 2)).groups[0].module
    fields = [as_number_field(endomorphism_ring(line)),
              NumberFieldWithInvolution(
                  QPoly([-2, 0, 1]), alpha,
                  SeifertModule.from_blocks(1, alpha, [2])),
              as_number_field(endomorphism_ring(knot, assume_simple=True))]
    assert [nf.degree for nf in fields] == [1, 2, 4]
    for nf in fields:
        x = QPoly.x() % nf.minpoly
        imaged = NumberFieldWithInvolution(nf.minpoly, nf.embedding,
                                           nf.module, x)
        assert nf.involution_image == x and nf.involution_is_trivial()
        assert nf.fixed_field_degree == imaged.fixed_field_degree \
            == nf.degree
        assert classify_involution(nf) == classify_involution(imaged)
        for _ in range(8):
            a = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                       for _ in range(rng.randint(1, 2 * nf.degree))])
            assert field_conj(nf, a) == a % nf.minpoly
            if not (a % nf.minpoly).is_zero():
                assert norm_class(nf, a) == norm_class(imaged, a)
        # x is nonzero at every real root: the minimal polynomial is
        # irreducible of degree > 1, or x - 1
        entries = [QPoly([rng.choice([-1, 1]) * rng.randint(1, 9)])
                   for _ in range(3)] + [x]
        gram = [[d if i == j else QPoly.zero() for j in range(len(entries))]
                for i, d in enumerate(entries)]
        h, h_imaged = (HermitianFormOverE(nf, gram),
                       HermitianFormOverE(imaged, gram))
        assert signatures(h) == signatures(h_imaged)
        assert discriminant_class(h) == discriminant_class(h_imaged)


def test_as_number_field_refuses_an_unmarked_product_of_fields():
    # Q x Q on its regular representation, with basis (1, 1), (1, 0): no
    # certificate marks the ring simple, so the minimal polynomial x^2 - x
    # of its primitive element (1, 0) is tested, and found reducible
    ring = _regular_ring(lambda i, j: (1, max(i, j)), 2)
    assert ring.basis[1] == QMatrix(2, 2, [[0, 0], [1, 1]])
    with pytest.raises(EndomorphismError,
                       match=r"not a field \(reducible minimal polynomial\)"):
        as_number_field(ring)
