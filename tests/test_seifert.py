import random

import pytest

from linkwitt.rational import QMatrix
from linkwitt.seifert import (SeifertError, SeifertForm, SeifertModule,
                              SeifertMorphism, direct_sum, dual_module,
                              find_isomorphism, hom_space,
                              induced_form_on_subquotient, quotient_module,
                              restrict_form, spin_submodule,
                              submodule_from_basis, validate_form,
                              validate_module)

from support import (hyperbolic_form, random_form, random_module,
                     worked_example_form, worked_example_module,
                     worked_example_simple, worked_example_simple_form)


S_PRIME = [[1, -1, -1, 0], [1, 0, 0, -1], [1, 0, 1, -1], [0, 1, 1, 0]]
PHI_PRIME = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]


def test_worked_example_module_valid():
    assert validate_module(worked_example_module()) is None


def test_idempotence_violation_reported():
    e1 = QMatrix(2, 2, [[1, 1], [0, 1]])
    e2 = QMatrix.identity(2) - e1
    V = SeifertModule(2, QMatrix.zeros(2, 2), [e1, e2])
    err = validate_module(V)
    assert err is not None and "idempotence" in err


def test_partition_of_unity_violation():
    ident = QMatrix.identity(2)
    V = SeifertModule(2, QMatrix.zeros(2, 2), [ident, ident])
    err = validate_module(V)
    assert err is not None


def test_dual_of_one_dimensional():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    assert dual_module(V).s == QMatrix(1, 1, [[1]])


def test_dual_involutive_random():
    rng = random.Random(21)
    for _ in range(20):
        V = random_module(rng, rng.choice([1, 2, 3]), rng.randint(0, 5))
        assert dual_module(dual_module(V)) == V


def test_dual_of_direct_sum():
    rng = random.Random(22)
    for _ in range(5):
        V = random_module(rng, 2, rng.randint(1, 3))
        W = random_module(rng, 2, rng.randint(1, 3))
        assert dual_module(direct_sum(V, W)) \
            == direct_sum(dual_module(V), dual_module(W))


def test_direct_sum_dimensions():
    rng = random.Random(23)
    V = random_module(rng, 2, 2)
    W = random_module(rng, 2, 3)
    assert direct_sum(V, W).dim == 5
    with pytest.raises(SeifertError):
        direct_sum(V, random_module(rng, 3, 2))


def test_form_direct_sum_and_negation():
    f = worked_example_simple_form()
    g = f.direct_sum(f.negate())
    assert g.zeta == f.zeta
    assert validate_form(g) is None


def test_worked_example_form_valid():
    assert validate_form(worked_example_form()) is None


def test_symmetry_violation_detected():
    f = worked_example_form()
    bad = SeifertForm(f.module, -1, f.phi + QMatrix.identity(6))
    err = validate_form(bad)
    assert err is not None and "symmetry" in err


def test_singular_form_detected():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    bad = SeifertForm(V, 1, QMatrix(1, 1, [[0]]))
    err = validate_form(bad)
    assert err is not None and "nonsingular" in err


def test_spin_of_first_basis_vector():
    V = worked_example_module()
    W, incl = spin_submodule(V, [[1, 0, 0, 0, 0, 0]])
    assert W.dim == 1
    assert incl.matrix.col(0) == [1, 0, 0, 0, 0, 0]
    assert W.s == QMatrix(1, 1, [[1]])


def test_spin_empty_and_full():
    V = worked_example_module()
    W, _ = spin_submodule(V, [])
    assert W.dim == 0
    full, _ = spin_submodule(V, [[1 if i == j else 0 for j in range(6)]
                                 for i in range(6)])
    assert full.dim == 6


def test_quotient_extremes():
    V = worked_example_module().promote()
    zero, z_incl = spin_submodule(V, [])
    Q, proj, _ = quotient_module(V, z_incl)
    assert Q.dim == V.dim and Q.s == V.s
    full, f_incl = submodule_from_basis(V, QMatrix.identity(6))
    Q2, _, _ = quotient_module(V, f_incl)
    assert Q2.dim == 0


def test_worked_example_reduction_matches_printed_matrices():
    f = worked_example_form()
    _, incl = spin_submodule(f.module, [[1, 0, 0, 0, 0, 0]])
    induced, _ = induced_form_on_subquotient(f, incl)
    assert induced.module.s == QMatrix(4, 4, S_PRIME)
    assert induced.phi == QMatrix(4, 4, PHI_PRIME)
    assert validate_form(induced) is None


def test_induced_form_trivial_submodule():
    f = worked_example_simple_form()
    _, incl = spin_submodule(f.module, [])
    induced, _ = induced_form_on_subquotient(f, incl)
    assert induced.phi == f.phi


def test_induced_form_hyperbolic_collapse():
    # s=0 and s=1 lines paired hyperbolically; one lagrangian kills it
    V = SeifertModule.from_blocks(1, QMatrix(2, 2, [[0, 0], [0, 1]]), [2])
    f = SeifertForm(V, 1, QMatrix(2, 2, [[0, 1], [1, 0]]))
    assert validate_form(f) is None
    _, incl = spin_submodule(V, [[1, 0]])
    induced, _ = induced_form_on_subquotient(f, incl)
    assert induced.module.dim == 0


def test_induced_form_requires_isotropic():
    f = worked_example_simple_form()
    _, incl = spin_submodule(f.module, [[1, 0, 0, 0]])
    with pytest.raises(SeifertError):
        induced_form_on_subquotient(f, incl)


def test_hom_space_worked_example_end():
    Vp = worked_example_simple()
    ends = hom_space(Vp, Vp)
    assert len(ends) == 2


def test_hom_space_no_maps_between_socle_types():
    V0 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    V1 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[1]]), [1])
    assert hom_space(V0, V1) == []


def test_hom_space_additivity():
    Vp = worked_example_simple()
    assert len(hom_space(Vp, Vp.direct_sum(Vp))) == 2 * len(hom_space(Vp, Vp))


def test_find_isomorphism_identity_and_mismatch():
    Vp = worked_example_simple()
    iso = find_isomorphism(Vp, Vp)
    assert iso is not None and iso.matrix.det() != 0
    V1 = SeifertModule.from_blocks(2, QMatrix(1, 1, [[0]]), [1, 0])
    assert find_isomorphism(Vp, V1) is None


def test_worked_example_simple_is_self_dual():
    Vp = worked_example_simple()
    iso = find_isomorphism(Vp, dual_module(Vp))
    assert iso is not None
    # -phi' is such an isomorphism
    minus_phi = QMatrix(4, 4, PHI_PRIME).scale(-1)
    mor = SeifertMorphism(Vp, dual_module(Vp), minus_phi)
    assert mor.is_isomorphism()


def test_nonisomorphic_socle_lines():
    V0 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    V1 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[1]]), [1])
    assert find_isomorphism(V0, V1) is None


def test_find_isomorphism_rejects_by_hom_dimensions():
    # dim Hom(V, W) = 8 puts the grid at 5^8 points, past the exhaustive
    # bound; dim Hom(V, V) = 8 and dim Hom(W, W) = 10 rule out an isomorphism
    def diagonal(*entries):
        n = len(entries)
        s = QMatrix(n, n, [[x if i == j else 0 for j in range(n)]
                           for i, x in enumerate(entries)])
        return SeifertModule.from_blocks(1, s, [n])

    V, W = diagonal(0, 0, 1, 1), diagonal(0, 0, 0, 1)
    assert [len(hom_space(V, W)), len(hom_space(V, V)),
            len(hom_space(W, W))] == [8, 8, 10]
    assert find_isomorphism(V, W) is None


def test_form_is_morphism_to_dual_random():
    rng = random.Random(24)
    for _ in range(10):
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 5),
                        rng.choice([1, -1]))
        mor = SeifertMorphism(f.module, dual_module(f.module), f.phi)
        assert mor.intertwines()


def test_operations_preserve_validity_random():
    rng = random.Random(25)
    for _ in range(8):
        f = random_form(rng, rng.choice([1, 2, 3]), rng.randint(1, 5),
                        rng.choice([1, -1]))
        assert validate_form(f) is None
        assert validate_module(dual_module(f.module)) is None
        g = f.direct_sum(f)
        assert validate_form(g) is None


def test_hyperbolic_form_valid_any_module():
    rng = random.Random(26)
    for _ in range(6):
        W = random_module(rng, rng.choice([1, 2, 3]), rng.randint(1, 3))
        h = hyperbolic_form(W, rng.choice([1, -1]))
        assert validate_form(h) is None
        assert h.module.dim == 2 * W.dim


def _hom_space_entrywise(V, W):
    """Hom(V, W) from the n_V n_W entries of F, row-major, as unknowns: the
    system F a - b F = 0 for every pair of generators, kernel basis from
    solve_or_kernel (one vector per free entry, ascending)."""
    from fractions import Fraction
    from linkwitt.rational import solve_or_kernel
    nV, nW = V.dim, W.dim
    rows = []
    for a, b in zip(V.generators(), W.generators()):
        for i in range(nW):
            for j in range(nV):
                row = [Fraction(0)] * (nW * nV)
                for k in range(nV):
                    row[i * nV + k] += a.data[k][j]
                for k in range(nW):
                    row[k * nV + j] -= b.data[i][k]
                if any(row):
                    rows.append(row)
    if rows:
        kernel = solve_or_kernel(QMatrix.from_rows(rows)).kernel
    else:
        kernel = [[Fraction(int(t == idx)) for t in range(nW * nV)]
                  for idx in range(nW * nV)]
    return [QMatrix(nW, nV, [vec[i * nV:(i + 1) * nV] for i in range(nW)])
            for vec in kernel]


def _sparse_module(rng, mu, sizes):
    # mostly-zero s, so that hom spaces are often large
    n = sum(sizes)
    s = QMatrix(n, n, [[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(n)]
                       for _ in range(n)])
    return SeifertModule.from_blocks(mu, s, sizes)


def test_hom_space_matches_the_entrywise_system():
    # same basis, in the same order, as the n_V n_W-unknown system
    from support import random_block_sizes
    rng = random.Random(66)
    large = zero_blocks = 0
    for trial in range(36):
        mu = 1 + trial % 3
        A, B = (_sparse_module(rng, mu, random_block_sizes(
            rng, mu, rng.randint(1, 3))) for _ in range(2))
        zero_blocks += any(e.is_zero() for e in A.projections)
        AA = A.direct_sum(A)
        for V, W in [(A, A), (A, B), (AA, A), (A, AA), (AA, AA),
                     (A, A.dual()), (A.direct_sum(B), B.direct_sum(A))]:
            got = hom_space(V, W)
            assert got == _hom_space_entrywise(V, W)
            large += len(got) >= 3
    assert large >= 20 and zero_blocks >= 5


def _reference_subquotient(f, L):
    """Form on L-perp / L through intermediate modules: the structure on
    L-perp, then on the quotient by L inside it (section at the non-pivot
    coordinates of L in L-perp, projection from [L | C]^-1)."""
    from linkwitt.rational import coordinates, kernel_columns
    perp = kernel_columns(L.transpose() * f.phi)
    on_perp = [coordinates(perp, m * perp) for m in f.module.generators()]
    L_in_perp = coordinates(perp, L)
    _, pivots = L_in_perp.transpose().rref()
    p, k = perp.cols, L.cols
    cols = [j for j in range(p) if j not in pivots]
    C = QMatrix(p, p - k, [[1 if j == c else 0 for c in cols]
                           for j in range(p)])
    proj = QMatrix(p - k, p, L_in_perp.hstack(C).inverse().data[k:])
    maps = [proj * m * C for m in on_perp]
    section = perp * C
    return maps, section.transpose() * f.phi * section, section


def test_induced_form_matches_the_module_chain():
    # the subquotient read off in ambient coordinates equals the one built
    # through the L-perp module and its quotient by L
    from linkwitt.devissage import _isotropic_candidate, find_simple_submodule
    rng = random.Random(67)
    checked = 0
    for _ in range(10):
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 4),
                        rng.choice([1, -1]))
        g = f.direct_sum(f.negate())
        incl = _isotropic_candidate(g)
        if incl is None:
            continue
        _, inner, _ = find_simple_submodule(incl.source)
        for L in (incl.matrix, incl.matrix * inner.matrix):
            _, sub_incl = submodule_from_basis(g.module, L)
            induced, section = induced_form_on_subquotient(g, sub_incl)
            maps, phi, ref_section = _reference_subquotient(g, L)
            assert [induced.module.s] + induced.module.projections == maps
            assert induced.phi == phi and section == ref_section
            checked += 1
    assert checked >= 10


def test_subquotient_requires_invariant_subspaces():
    from linkwitt.seifert import _subquotient
    V = worked_example_simple()     # simple: no proper invariant subspace
    ident = QMatrix.identity(4)
    e1 = QMatrix(4, 1, [[1], [0], [0], [0]])
    rest = QMatrix(4, 3, [row[1:] for row in ident.data])
    with pytest.raises(SeifertError, match="not invariant"):
        _subquotient(V, e1, rest)         # L + span A = V, L not invariant
    with pytest.raises(SeifertError, match="not invariant"):
        _subquotient(V, QMatrix.zeros(4, 0), e1)
    assert _subquotient(V, QMatrix.zeros(4, 0), ident) == V


def test_endomorphism_basis_is_closed_under_composition():
    # End(M) = Hom(M, M) is an algebra: every product of two basis elements
    # lies in the span, which is why endomorphism_ring forms no products
    import os
    from linkwitt.cli import load_input
    from linkwitt.rational import span_coordinates
    from support import knot_form
    path = os.path.join(os.path.dirname(__file__), "data",
                        "quaternionic.json")
    modules = [worked_example_simple(), load_input(path)[0]]
    rng = random.Random(4711)
    modules += [knot_form(rng, 2).module for _ in range(10)]
    for M in modules:
        basis = hom_space(M, M)
        assert basis
        products = [a * b for a in basis for b in basis]
        assert span_coordinates(basis, products) is not None


def test_the_subquotient_checks_its_output_form_only(monkeypatch):
    # the input of each subquotient step is a checked form, so only the
    # induced form is validated; the Witt reduction still refuses an
    # invalid input at its boundary
    from linkwitt.devissage import witt_reduce
    f = worked_example_form()
    _, incl = spin_submodule(f.module, [[1, 0, 0, 0, 0, 0]])
    calls = []
    validate = SeifertForm.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SeifertForm, "validate", counted)
    induced, _ = induced_form_on_subquotient(f, incl)
    assert calls == [induced]
    monkeypatch.undo()
    singular = SeifertForm(f.module, -1, QMatrix.zeros(6, 6))
    with pytest.raises(SeifertError):
        witt_reduce(singular)


def test_a_form_is_checked_until_it_passes(monkeypatch):
    # validate() marks a form only on success: an invalid form gives its
    # error at every call, and the Witt reduction still refuses a form
    # that was never checked
    from linkwitt.devissage import witt_reduce
    f = worked_example_form()
    bad = SeifertForm(f.module, -1, f.phi + QMatrix.identity(6))
    err = bad.validate()
    assert err is not None and "symmetry" in err
    assert bad.validate() == err
    with pytest.raises(SeifertError):
        witt_reduce(SeifertForm(f.module, -1, f.phi + QMatrix.identity(6)))
    # a marked form and its negation, promotion and sums with marked forms
    # are not checked again; a sum with an unmarked invalid form is
    calls = []
    validate = SeifertModule.validate

    def counted(self):
        calls.append(self)
        return validate(self)

    monkeypatch.setattr(SeifertModule, "validate", counted)
    assert f.validate() is None and len(calls) == 1
    for h in (f, f.negate(), f.promote(), f.negate().direct_sum(f)):
        assert h.validate() is None
    assert len(calls) == 1
    mixed = f.direct_sum(bad)
    assert mixed.validate() == err
    assert len(calls) == 2 and calls[-1] is mixed.module
