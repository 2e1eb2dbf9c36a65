import random

from linkwitt.rational import QMatrix
from linkwitt.seifert import SeifertModule, dual_module, quotient_module, \
    submodule_from_basis
from linkwitt.covering import cover_presentation, presentation_defect
from linkwitt.primitives import (analyze_primitives, hom_in_quotient,
                                 is_primitive, max_primitive_submodule,
                                 min_coprimitive, trivial_socle)

from support import random_module, worked_example_simple


def _extension_module() -> SeifertModule:
    return SeifertModule.from_blocks(1, QMatrix(2, 2, [[0, 1], [0, 1]]), [2])


def test_socle_of_zero_endomorphism():
    V = SeifertModule.from_blocks(2, QMatrix(2, 2, [[0, 0], [0, 0]]), [1, 1])
    (w0, _), (w1, _) = trivial_socle(V)
    assert w0.dim == 2 and w1.dim == 0


def test_socle_of_simple_is_zero():
    (w0, _), (w1, _) = trivial_socle(worked_example_simple())
    assert w0.dim == 0 and w1.dim == 0


def test_socle_of_extension():
    (w0, w0_incl), (w1, _) = trivial_socle(_extension_module())
    assert w0.dim == 1
    assert w0_incl.matrix.col(0) == [1, 0]


def test_max_primitive_trivially_primitive():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [[1]]), [1])
    incl, filtration = max_primitive_submodule(V)
    assert incl.matrix.cols == 1
    assert filtration


def test_max_primitive_extension_full():
    incl, filtration = max_primitive_submodule(_extension_module())
    assert incl.matrix.cols == 2
    assert filtration


def test_max_primitive_simple_zero():
    incl, filtration = max_primitive_submodule(worked_example_simple())
    assert incl.matrix.cols == 0
    assert filtration == []


def test_min_coprimitive_cases():
    # primitive module: W = 0
    assert min_coprimitive(_extension_module()).matrix.cols == 0
    # simple non-primitive: W = V
    Vp = worked_example_simple()
    assert min_coprimitive(Vp).matrix.cols == 4
    # mixed sum: the primitive line dies
    line = SeifertModule.from_blocks(2, QMatrix(1, 1, [[0]]), [1, 0])
    mixed = Vp.direct_sum(line)
    w = min_coprimitive(mixed)
    assert w.matrix.cols == 4
    quot, _, _ = quotient_module(mixed, w)
    assert is_primitive(quot)


def test_is_primitive_fixtures():
    assert is_primitive(
        SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1]))
    assert is_primitive(
        SeifertModule.from_blocks(1, QMatrix(1, 1, [[1]]), [1]))
    assert is_primitive(_extension_module())
    assert not is_primitive(worked_example_simple())


def test_hom_in_quotient_examples():
    Vp = worked_example_simple()
    ext = _extension_module()
    ext2 = SeifertModule.from_blocks(2, QMatrix(2, 2, [[0, 1], [0, 1]]),
                                     [2, 0])
    assert hom_in_quotient(ext2, Vp) == []
    assert len(hom_in_quotient(Vp, Vp)) == 2
    line = SeifertModule.from_blocks(2, QMatrix(1, 1, [[0]]), [1, 0])
    assert len(hom_in_quotient(Vp.direct_sum(line), Vp)) == 2


def test_primitive_duality():
    rng = random.Random(71)
    for _ in range(10):
        V = random_module(rng, rng.choice([1, 2]), rng.randint(1, 4))
        assert is_primitive(V) == is_primitive(dual_module(V))


def test_serre_property_on_fixtures():
    ext = _extension_module()
    (w0, w0_incl), _ = trivial_socle(ext)
    quot, _, _ = quotient_module(ext, w0_incl)
    assert is_primitive(ext) == (is_primitive(w0_incl.source)
                                 and is_primitive(quot))
    # non-primitive ambient: a primitive submodule with non-primitive quotient
    Vp = worked_example_simple()
    line = SeifertModule.from_blocks(2, QMatrix(1, 1, [[1]]), [0, 1])
    mixed = line.direct_sum(Vp)
    basis = QMatrix(5, 1, [[1], [0], [0], [0], [0]])
    sub, incl = submodule_from_basis(mixed, basis)
    quot, _, _ = quotient_module(mixed, incl)
    assert is_primitive(sub)
    assert not is_primitive(quot)
    assert not is_primitive(mixed)


def test_analysis_bundle():
    analysis = analyze_primitives(_extension_module())
    assert analysis.is_primitive
    assert analysis.min_coprimitive.matrix.cols == 0
    assert analysis.filtration


def _random_primitive_module(rng, mu, dim) -> SeifertModule:
    # upper triangular s with 0/1 diagonal: filtered by trivially
    # primitive one-dimensional layers
    data = [[rng.randint(-2, 2) if c > r else 0 for c in range(dim)]
            for r in range(dim)]
    for r in range(dim):
        data[r][r] = rng.choice([0, 1])
    from support import random_block_sizes
    sizes = random_block_sizes(rng, mu, dim)
    return SeifertModule.from_blocks(mu, QMatrix(dim, dim, data), sizes)


def test_oracle_agreement_random():
    # covering-side oracle: the cokernel data of the presentation vanishes
    # exactly on primitives (degree 6 for mu <= 2, degree 3 for mu = 3)
    # the support bound must dominate the filtration length, so dimensions
    # are capped by the oracle degree
    rng = random.Random(72)
    primitive_hits = 0
    for k in range(30):
        mu = rng.choice([1, 1, 2, 2, 2, 3])
        degree = 6 if mu <= 2 else 3
        dim = rng.randint(1, min(5, degree))
        if k % 2:
            V = _random_primitive_module(rng, mu, dim)
        else:
            V = random_module(rng, mu, dim)
        defect = presentation_defect(cover_presentation(V), degree)
        primitive = is_primitive(V)
        assert primitive == (defect == 0)
        primitive_hits += primitive
    assert primitive_hits >= 10


def test_oracle_agreement_fixtures():
    ext = _extension_module()
    assert presentation_defect(cover_presentation(ext), 6) == 0
    Vp = worked_example_simple()
    assert presentation_defect(cover_presentation(Vp), 6) > 0
    V0 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    assert presentation_defect(cover_presentation(V0), 6) == 0


def _reference_max_primitive(V: SeifertModule):
    """The socle loop through explicit quotients: build V / U with the
    section at the non-pivot coordinates of U, take the joint kernels of
    s e_i and (1 - s) e_i there, lift them and echelonize."""
    from linkwitt.rational import kernel_columns, spin
    n = V.dim
    U = QMatrix.zeros(n, 0)
    filtration = []
    while U.cols < n:
        _, pivots = U.transpose().rref()
        cols = [j for j in range(n) if j not in pivots]
        C = QMatrix(n, len(cols), [[1 if j == c else 0 for c in cols]
                                   for j in range(n)])
        proj = QMatrix(len(cols), n, U.hstack(C).inverse().data[U.cols:])
        s_q = proj * V.s * C
        e_q = [proj * e * C for e in V.projections]
        lifted, layer = U, []
        for t, m in enumerate((s_q, QMatrix.identity(len(cols)) - s_q)):
            stacked = m * e_q[0]
            for e in e_q[1:]:
                stacked = stacked.vstack(m * e)
            W = kernel_columns(stacked)
            if W.cols:
                lifted = lifted.hstack(C * W)
                layer.append(f"s={t} layer of dim {W.cols}")
        if not layer:
            break
        U = spin([], [lifted.col(j) for j in range(lifted.cols)],
                 n).basis_matrix().transpose()
        filtration.append(" + ".join(layer))
    return U, filtration


def _scrambled(rng, V: SeifertModule) -> SeifertModule:
    n = V.dim
    while True:
        P = QMatrix(n, n, [[rng.randint(-2, 2) for _ in range(n)]
                           for _ in range(n)])
        if P.det() != 0:
            break
    P_inv = P.inverse()
    return SeifertModule(V.mu, P * V.s * P_inv,
                         [P * e * P_inv for e in V.projections])


def test_filtration_matches_quotient_loop():
    # the annihilator preimages give the bases and layer strings of the
    # loop through quotient modules, and so does the dual annihilator
    from linkwitt.rational import kernel_columns
    from support import random_block_sizes
    rng = random.Random(73)
    modules = [_extension_module(), worked_example_simple()]
    for k in range(40):
        mu = rng.randint(1, 3)
        kind = k % 4
        if kind == 0:
            V = random_module(rng, mu, rng.randint(1, 4))
        elif kind == 1:
            V = _random_primitive_module(rng, mu, rng.randint(1, 4))
        else:
            # a direct sum of s = 0 and s = 1 lines
            dim = rng.randint(1, 4)
            V = SeifertModule.from_blocks(
                mu, QMatrix.diag([QMatrix(1, 1, [[rng.choice([0, 1])]])
                                  for _ in range(dim)]),
                random_block_sizes(rng, mu, dim))
            if kind == 3:
                # a Jordan block gives a second layer, a random summand
                # a part that is not primitive
                t = rng.choice([0, 1])
                jordan = QMatrix(2, 2, [[t, 1], [0, t]])
                V = V.direct_sum(SeifertModule.from_blocks(
                    mu, jordan, random_block_sizes(rng, mu, 2)))
                V = V.direct_sum(random_module(rng, mu, rng.randint(0, 2)))
        modules.append(_scrambled(rng, V) if rng.random() < 0.5 else V)
    layered = 0
    for V in modules:
        U, filtration = _reference_max_primitive(V)
        incl, got = max_primitive_submodule(V)
        assert incl.matrix == U and got == filtration
        D, _ = _reference_max_primitive(dual_module(V))
        expected = kernel_columns(D.transpose())
        assert min_coprimitive(V).matrix == expected
        layered += len(filtration) > 1
    assert layered >= 5


def test_integral_module_with_fractional_layer():
    # the s = 0 layer is spanned by (1, -1/4, -1/4): a quotient by it has
    # no integral matrices in the standard section, yet the module is valid
    s = QMatrix(3, 3, [[0, -1, 1], [1, 2, 2], [0, 1, -1]])
    V = SeifertModule.from_blocks(1, s, [3], ring="Z")
    incl, filtration = max_primitive_submodule(V)
    assert filtration == ["s=0 layer of dim 1"]
    assert incl.matrix == QMatrix(3, 1, [[1], ["-1/4"], ["-1/4"]])
    assert min_coprimitive(V).matrix == min_coprimitive(V.promote()).matrix


def test_integral_module_composition_series_and_hom_in_quotient():
    # the quotients of this ring "Z" module have no integral matrices in
    # the standard section; they are built over Q, as for V.promote()
    from linkwitt.devissage import composition_series
    s = QMatrix(3, 3, [[0, -1, 1], [1, 2, 2], [0, 1, -1]])
    V = SeifertModule.from_blocks(1, s, [3], ring="Z")
    VQ = V.promote()
    series = [(incl.matrix, simple) for incl, simple in composition_series(V)]
    assert series == [(incl.matrix, simple)
                      for incl, simple in composition_series(VQ)]
    assert len(series) == 2
    assert hom_in_quotient(V, V) == hom_in_quotient(VQ, VQ)


def _forms_on_primitive_modules(rng, tries):
    """Nonsingular forms on primitive modules, from two sources: the form
    space (`_solve_form_space`) of modules with s upper triangular, with as
    many eigenvalues 0 as 1, and coordinate-block projections (the
    coordinate flag exhibits them as extensions of layers with s = 0 or 1),
    and the form induced on P/R for the maximal primitive submodule P of a
    `random_form` draw and R = P meet P-perp, the radical of the form on
    P."""
    from linkwitt.rational import kernel_columns
    from linkwitt.seifert import SeifertForm, restrict_form
    from support import _solve_form_space, random_block_sizes, random_form
    out = []
    for _ in range(tries):
        mu, k, zeta = rng.randint(1, 3), rng.randint(1, 2), rng.choice([1, -1])
        diag = [0] * k + [1] * k
        rng.shuffle(diag)
        s = QMatrix(2 * k, 2 * k, [[diag[i] if i == j else
                                    rng.randint(-1, 1) * (j > i)
                                    for j in range(2 * k)]
                                   for i in range(2 * k)])
        V = SeifertModule.from_blocks(mu, s, random_block_sizes(rng, mu,
                                                                2 * k))
        basis = _solve_form_space(V, zeta)
        for _attempt in range(5 if basis else 0):
            phi = QMatrix.zeros(2 * k, 2 * k)
            for b in basis:
                phi = phi + b.scale(rng.randint(-3, 3))
            if phi.det() != 0:
                out.append(SeifertForm(V, zeta, phi))
                break
    for _ in range(tries):
        zeta = rng.choice([1, -1])
        f = random_form(rng, rng.randint(1, 3), rng.choice([4, 6]), zeta)
        incl, _ = max_primitive_submodule(f.module)
        on_p = restrict_form(f, incl)
        radical = kernel_columns(on_p.phi)
        if radical.cols == on_p.module.dim:
            continue
        quot, _proj, section = quotient_module(
            on_p.module, submodule_from_basis(on_p.module, radical)[1])
        out.append(SeifertForm(quot, zeta,
                               section.transpose() * on_p.phi * section))
    return out


def test_forms_on_primitive_modules_are_witt_trivial():
    # the localization theorem: B sends exactly the primitive modules to
    # zero and induces an isomorphism of Witt groups, so a nonsingular form
    # on a primitive module is Witt-trivial and adding one moves no class;
    # no piece of the devissage is a primitive simple (s = 0 or 1 on a
    # line, where every form vanishes)
    from support import knot_form, random_form
    from linkwitt.devissage import witt_reduce
    from linkwitt.wittinv import analyze_form
    rng = random.Random(17)
    hs = _forms_on_primitive_modules(rng, 40)
    assert len(hs) >= 30
    verdicts = []
    for h in hs:
        assert h.validate() is None and is_primitive(h.module)
        assert analyze_form(h).verdict == "witt-trivial"
        if (h.module.mu, h.zeta) == (1, -1):
            f = knot_form(rng, 2)
        else:
            f = random_form(rng, h.module.mu, 4, h.zeta)
        verdict = analyze_form(f).verdict
        verdicts.append(verdict)
        for g in (f.direct_sum(h), h.direct_sum(f)):
            assert analyze_form(g).verdict == verdict
            assert not any(is_primitive(gr.module)
                           for gr in witt_reduce(g).groups)
    assert {"nontrivial", "witt-trivial"} <= set(verdicts)
