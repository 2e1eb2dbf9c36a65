import random

import pytest
from hypothesis import given, settings, strategies as st

from linkwitt.rational import QMatrix
from linkwitt.seifert import (SeifertError, SeifertForm, SeifertModule,
                              find_isomorphism, validate_form)
from linkwitt.devissage import (composition_series, find_simple_submodule,
                                is_simple, isotypic_group, witt_reduce)
from linkwitt.wittinv import analyze_form

from support import (random_form, worked_example_form,
                     worked_example_module, worked_example_simple,
                     worked_example_simple_form)


S_PRIME = QMatrix(4, 4, [[1, -1, -1, 0], [1, 0, 0, -1],
                         [1, 0, 1, -1], [0, 1, 1, 0]])
PHI_PRIME = QMatrix(4, 4, [[0, -1, 0, 0], [1, 0, 0, 0],
                           [0, 0, 0, -1], [0, 0, 1, 0]])


def test_find_simple_in_worked_example():
    V = worked_example_module().promote()
    simple, incl, cert = find_simple_submodule(V)
    assert 0 < simple.dim < 6
    ok, _ = is_simple(simple)
    assert ok


def test_simple_of_simple_is_itself():
    Vp = worked_example_simple()
    simple, incl, cert = find_simple_submodule(Vp)
    assert simple.dim == 4
    assert incl.matrix.rank() == 4


def test_dimension_one_is_simple():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    ok, cert = is_simple(V)
    assert ok and cert.kind == "dimension-1"


def test_worked_example_six_dim_not_simple():
    V = worked_example_module().promote()
    ok, witness = is_simple(V)
    assert not ok
    assert 0 < witness.matrix.cols < 6
    assert witness.intertwines()


def test_sum_of_lines_not_simple():
    a = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    b = SeifertModule.from_blocks(1, QMatrix(1, 1, [[1]]), [1])
    ok, witness = is_simple(a.direct_sum(b))
    assert not ok


def test_isotypic_sum_not_simple():
    Vp = worked_example_simple()
    ok, witness = is_simple(Vp.direct_sum(Vp))
    assert not ok
    assert witness.matrix.cols in (4,)


def test_zero_module_rejected():
    with pytest.raises(SeifertError):
        is_simple(SeifertModule.zero(2))


def test_composition_series_line():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    steps = composition_series(V)
    assert len(steps) == 1


def test_composition_series_worked_example():
    V = worked_example_module().promote()
    steps = composition_series(V)
    dims = []
    prev = 0
    for incl, simple in steps:
        dims.append(incl.matrix.cols - prev)
        prev = incl.matrix.cols
        ok, _ = is_simple(simple)
        assert ok
    assert sum(dims) == 6
    assert 4 in dims


def test_composition_series_extension():
    V = SeifertModule.from_blocks(1, QMatrix(2, 2, [[0, 1], [0, 1]]), [2])
    steps = composition_series(V)
    assert len(steps) == 2
    first_incl, first_simple = steps[0]
    assert first_simple.dim == 1
    # the submodule layer is the s=0 line, the quotient the s=1 line
    values = sorted([steps[0][1].s.data[0][0], steps[1][1].s.data[0][0]])
    assert values == [0, 1]


def test_witt_reduce_worked_example_printed_piece():
    dec = witt_reduce(worked_example_form())
    assert len(dec.groups) == 1
    group = dec.groups[0]
    assert len(group.forms) == 1
    assert group.module.s == S_PRIME
    assert group.forms[0].phi == PHI_PRIME


def test_witt_reduce_metabolic_empty():
    rng = random.Random(31)
    for _ in range(20):
        f = random_form(rng, rng.choice([1, 2, 3]), rng.randint(1, 5),
                        rng.choice([1, -1]))
        dec = witt_reduce(f.direct_sum(f.negate()))
        assert dec.groups == []


def test_witt_reduce_hyperbolic_socle_lines():
    V = SeifertModule.from_blocks(1, QMatrix(2, 2, [[0, 0], [0, 1]]), [2])
    f = SeifertForm(V, 1, QMatrix(2, 2, [[0, 1], [1, 0]]))
    dec = witt_reduce(f)
    assert dec.groups == []


def test_witt_reduce_rejects_singular():
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    bad = SeifertForm(V, 1, QMatrix(1, 1, [[0]]))
    with pytest.raises(SeifertError):
        witt_reduce(bad)


def test_pieces_are_simple_with_valid_forms():
    rng = random.Random(32)
    for _ in range(6):
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 5),
                        rng.choice([1, -1]))
        dec = witt_reduce(f)
        for group in dec.groups:
            ok, _ = is_simple(group.module)
            assert ok
            for g in group.forms:
                assert validate_form(g) is None


def test_isotypic_grouping_single_and_double():
    f = worked_example_simple_form()
    M = f.module
    groups = isotypic_group([(M, f), (M, f)])
    assert len(groups) == 1
    assert len(groups[0].forms) == 2
    line0 = SeifertModule.from_blocks(2, QMatrix(1, 1, [["1/2"]]), [1, 0])
    g0 = SeifertForm(line0, 1, QMatrix(1, 1, [[1]]))
    line1 = SeifertModule.from_blocks(2, QMatrix(1, 1, [["1/2"]]), [0, 1])
    g1 = SeifertForm(line1, 1, QMatrix(1, 1, [[1]]))
    groups = isotypic_group([(line0, g0), (line1, g1)])
    assert len(groups) == 2


def test_grouping_transports_onto_representative():
    f = worked_example_simple_form()
    M = f.module
    dec = witt_reduce(f.direct_sum(f))
    assert len(dec.groups) == 1
    group = dec.groups[0]
    assert len(group.forms) == 2
    for g in group.forms:
        assert g.module == group.module
        assert validate_form(g) is None
    assert find_isomorphism(group.module, M) is not None


def test_seed_does_not_change_invariants():
    rng = random.Random(33)
    for _ in range(5):
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 4),
                        rng.choice([1, -1]))
        r0 = analyze_form(f, seed=0)
        r1 = analyze_form(f, seed=1)
        assert r0.verdict == r1.verdict
        assert [(p.module_dim, p.multiplicity, p.signatures, p.discriminant,
                 p.hasse, p.status) for p in r0.pieces] \
            == [(p.module_dim, p.multiplicity, p.signatures, p.discriminant,
                 p.hasse, p.status) for p in r1.pieces]


def test_reduction_step_preserves_report():
    # peeling an isotropic simple off a metabolic sum leaves the report of
    # the full pipeline unchanged
    from linkwitt.devissage import _isotropic_candidate, find_simple_submodule
    from linkwitt.seifert import induced_form_on_subquotient, \
        submodule_from_basis
    rng = random.Random(34)
    checked = 0
    for _ in range(10):
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 4),
                        rng.choice([1, -1]))
        g = f.direct_sum(f.negate())
        incl = _isotropic_candidate(g)
        if incl is None:
            continue
        inner, inner_incl, _ = find_simple_submodule(incl.source)
        sub, sub_incl = submodule_from_basis(
            g.module, incl.matrix * inner_incl.matrix)
        reduced, _ = induced_form_on_subquotient(g, sub_incl)
        before = analyze_form(g)
        if reduced.module.dim:
            after = analyze_form(reduced)
            assert before.verdict == after.verdict
        else:
            assert before.verdict == "witt-trivial"
        checked += 1
    assert checked >= 5


def _quaternionic_module():
    import os
    import json
    from linkwitt.cli import load_input
    path = os.path.join(os.path.dirname(__file__), "data",
                        "quaternionic.json")
    module, form = load_input(path)
    return module, form


def test_quaternionic_simple_certified_by_norm_form():
    V, _ = _quaternionic_module()
    ok, cert = is_simple(V)
    assert ok
    assert cert.kind == "quaternion-division"
    assert (cert.detail["a"], cert.detail["b"]) == (-1, -1)


def test_quaternionic_piece_refused_honestly():
    _, f = _quaternionic_module()
    rep = analyze_form(f)
    assert rep.verdict == "undetermined (quaternionic)"
    assert len(rep.pieces) == 1
    piece = rep.pieces[0]
    assert piece.status.startswith("unsupported")
    assert "quaternion" in piece.algebra_kind
    assert piece.signatures is None and piece.hasse is None


def test_isotropic_search_stops_at_the_norton_certificate(monkeypatch):
    # the first sampled element already certifies the module simple, so no
    # proper submodule exists and the other seven are never factored
    import linkwitt.devissage as dv
    from linkwitt.rational import minimal_polynomial
    calls = []

    def counted(m):
        calls.append(m)
        return minimal_polynomial(m)

    monkeypatch.setattr(dv, "minimal_polynomial", counted)
    assert dv._isotropic_candidate(worked_example_simple_form()) is None
    assert len(calls) == 1


def _knot_form(rng, genus):
    # Levine knot form: Seifert matrix A = S + N with S symmetric and
    # A - A^T = J, phi = J, s = J^-1 A = -J A
    n = 2 * genus
    sym = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            sym[i][j] = sym[j][i] = rng.randint(-2, 2)
    upper = [[int(j == i + genus) for j in range(n)] for i in range(n)]
    a = QMatrix(n, n, [[x + y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(sym, upper)])
    J = QMatrix(n, n, upper) - QMatrix(n, n, upper).transpose()
    V = SeifertModule.from_blocks(1, -(J * a), [n])
    return SeifertForm(V, -1, J)


def test_isotropic_search_certificate_is_that_of_is_simple(monkeypatch):
    # witt_reduce takes the simplicity certificate from the isotropic
    # search instead of certifying the same module again
    from fractions import Fraction
    import linkwitt.devissage as dv
    searched = []
    search = dv._isotropic_search

    def recorded(g):
        out = search(g)
        searched.append((g, out))
        return out

    monkeypatch.setattr(dv, "_isotropic_search", recorded)
    line = SeifertForm(SeifertModule.from_blocks(
        1, QMatrix(1, 1, [[Fraction(1, 2)]]), [1]), 1, QMatrix(1, 1, [[3]]))
    rng = random.Random(77)
    forms = [worked_example_form(), line]
    forms += [_knot_form(rng, 2) for _ in range(10)]
    for f in forms:
        witt_reduce(f)
    kinds = []
    for g, (incl, cert) in searched:
        assert incl is None or cert is None
        if cert is not None:
            assert cert == is_simple(g.module)[1]
            kinds.append(cert.kind)
    assert "dimension-1" in kinds
    assert kinds.count("norton") >= 10


def test_semisimple_witness_on_a_split_commutative_ring():
    # End(V) is the diagonal algebra Q^3, commutative but not a field: the
    # first candidate with a reducible minimal polynomial exhibits a proper
    # submodule
    from fractions import Fraction
    from linkwitt.devissage import _semisimple_witness
    s = QMatrix(3, 3, [[Fraction(1, 2), 0, 0], [0, Fraction(1, 3), 0],
                       [0, 0, Fraction(1, 5)]])
    V = SeifertModule.from_blocks(1, s, [3])
    ok, incl = _semisimple_witness(V)
    assert ok is False
    assert incl.target == V and 0 < incl.matrix.cols < 3
    assert incl.intertwines()


def test_semisimple_witness_certifies_a_field():
    from linkwitt.devissage import _semisimple_witness
    ok, cert = _semisimple_witness(worked_example_simple())
    assert ok is True and cert.kind == "schur-field"
    assert cert.detail["end_dim"] == 2
    assert cert.detail["minpoly"].degree() == 2


def test_cancelled_forms_take_their_witnesses_along():
    from linkwitt.devissage import IsotypicGroup, _cancel_hyperbolic_pairs
    from linkwitt.seifert import SeifertMorphism
    f = worked_example_simple_form()
    M = f.module
    witnesses = [SeifertMorphism(M, M, QMatrix.identity(M.dim).scale(c),
                                 check=False) for c in (1, 2, 3)]
    group = IsotypicGroup(M, [f, f.negate(), f], witnesses)
    log = []
    out = _cancel_hyperbolic_pairs(group, log)
    assert log == ["cancel hyperbolic pair on dim-4 simple (indices 0, 1)"]
    assert out.forms == [f]
    assert out.witnesses == [witnesses[2]]


def test_witt_reduce_never_reaches_the_isomorphism_search(monkeypatch):
    # between simple modules the first hom-space basis element is an
    # isomorphism or there is none (Schur), so find_isomorphism never
    # combines basis elements: neither its random nor its grid phase runs
    from support import conjugate_form, knot_form

    def unreachable(*args):
        raise AssertionError("find_isomorphism searched combinations")

    import linkwitt.devissage as dv
    calls = []

    def counted(V, W):
        calls.append((V, W))
        return find_isomorphism(V, W)

    monkeypatch.setattr("linkwitt.seifert.lincomb", unreachable)
    monkeypatch.setattr(dv, "find_isomorphism", counted)
    rng = random.Random(1129)
    cases = [worked_example_form().direct_sum(worked_example_form())]
    for _ in range(8):
        mu, zeta = rng.randint(1, 3), rng.choice([1, -1])
        f = random_form(rng, mu, rng.randint(2, 4), zeta)
        cases.append(f.direct_sum(conjugate_form(rng, f).negate()))
        cases.append(f.direct_sum(conjugate_form(rng, f)))
    for _ in range(2):
        g = knot_form(rng, 2)
        cases.append(g.direct_sum(conjugate_form(rng, g)))
    for f in cases:
        witt_reduce(f)
    assert len(calls) >= 15


def _line_spins(monkeypatch, f):
    # spins under the module's own generators, counted per kernel ker p(a)
    # of the walk, for the kernels that are lines of degree 2 or more
    import linkwitt.devissage as dv
    from linkwitt.rational import spin
    V = f.module
    gens = V.generators()
    factor_kernels = dv._factor_kernels
    current = {}
    spins = {}

    def tagged(W):
        for count, a, kernels in factor_kernels(W):
            def tag(kernels=kernels, count=count):
                for p, ker in kernels:
                    current["kernel"] = (count, p.degree(), len(ker))
                    yield p, ker
            yield count, a, tag()

    def counted(g, vectors, n):
        if g == gens:
            key = current["kernel"]
            spins[key] = spins.get(key, 0) + 1
        return spin(g, vectors, n)

    monkeypatch.setattr(dv, "_factor_kernels", tagged)
    monkeypatch.setattr(dv, "spin", counted)
    dv._isotropic_search(f)
    monkeypatch.undo()
    return [n for (_c, deg, nullity), n in spins.items()
            if nullity == deg > 1]


def test_the_isotropic_search_spins_a_line_kernel_once(monkeypatch):
    # every nonzero vector of a line over Q[a]/(p) spins to one submodule,
    # so one spin per line decides it (the 4-dimensional simple of the
    # worked example is such a line for the first three elements)
    assert _line_spins(monkeypatch, worked_example_form().promote()) \
        == [1, 1, 1]
    rng = random.Random(5)
    for _ in range(4):
        assert _line_spins(monkeypatch, _knot_form(rng, 2)) == [1]


def _unpruned_isotropic_search(f, spins):
    # the isotropic search spinning every kernel vector the walk offers:
    # the first vector of a line (with Norton's test when it spins to V),
    # else every basis vector and the sums and differences of 24 pairs;
    # the smallest isotropic spin wins, the first among equals
    import itertools
    from linkwitt.devissage import _factor_kernels
    from linkwitt.rational import kernel_columns, spin
    from linkwitt.seifert import submodule_from_basis
    V = f.module
    n = V.dim
    if n == 1:
        return None, "dimension-1"
    gens = V.generators()
    best = None
    for count, a, kernels in _factor_kernels(V):
        for p, ker in kernels:
            line = len(ker) == p.degree()
            vectors = ker[:1] if line else list(ker)
            for u, w in itertools.islice(itertools.combinations(ker, 2),
                                         0 if line else 24):
                vectors.append([x + y for x, y in zip(u, w)])
                vectors.append([x - y for x, y in zip(u, w)])
            for v in vectors:
                spins.append((p.degree(), len(ker)))
                spun = spin(gens, [v], n)
                if line and spun.dim() == n:
                    w = kernel_columns(p.eval_matrix(a.transpose())).col(0)
                    dual = spin([g.transpose() for g in gens], [w], n)
                    if dual.dim() == n:
                        return None, "norton"
                if 0 < spun.dim() < n:
                    b = spun.basis_matrix().transpose()
                    if ((best is None or b.cols < best.cols)
                            and (b.transpose() * f.phi * b).is_zero()):
                        best = b
        if best is not None and count >= 2:
            break
    if best is None:
        return None, None
    return submodule_from_basis(V, best)[1].matrix, None


def _oracle_forms():
    from support import conjugate_form
    rng = random.Random(2024)
    forms = [random_form(rng, rng.randint(1, 3), rng.randint(2, 8),
                         rng.choice([1, -1])) for _ in range(32)]
    for d in (4, 4, 4, 4, 4, 6, 6, 6):
        f = random_form(rng, rng.randint(1, 3), d, rng.choice([1, -1]))
        forms.append(f.direct_sum(conjugate_form(rng, f).negate()))
    return forms


def test_the_pruned_isotropic_search_matches_the_unpruned_one(monkeypatch):
    # a spin from ker p(a) contains Q[a]v, of dimension deg p, so it cannot
    # beat a held candidate of dimension <= deg p: skipping it changes no
    # answer, and no kernel that is not a line is spun past that point
    import linkwitt.devissage as dv
    from linkwitt.rational import spin
    factor_kernels = dv._factor_kernels
    pruned = unpruned = 0
    for f in _oracle_forms():
        reference = []
        incl, kind = _unpruned_isotropic_search(f, reference)
        unpruned += sum(nullity > deg for deg, nullity in reference)
        V = f.module
        gens = V.generators()
        current = {}
        held = [None]
        late = []

        def tagged(W):
            for count, a, kernels in factor_kernels(W):
                def tag(kernels=kernels):
                    for p, ker in kernels:
                        current["kernel"] = (p.degree(), len(ker))
                        yield p, ker
                yield count, a, tag()

        def counted(g, vectors, n):
            spun = spin(g, vectors, n)
            if g == gens:
                deg, nullity = current["kernel"]
                if nullity > deg:
                    late.append(held[0] is not None and held[0] <= deg)
                b = spun.basis_matrix().transpose()
                if 0 < b.cols < n and (b.transpose() * f.phi * b).is_zero():
                    held[0] = min(held[0] or n, b.cols)
            return spun

        monkeypatch.setattr(dv, "_factor_kernels", tagged)
        monkeypatch.setattr(dv, "spin", counted)
        found, cert = dv._isotropic_search(f)
        monkeypatch.undo()
        assert (found and found.matrix) == incl
        assert (cert and cert.kind) == kind
        assert not any(late)
        pruned += len(late)
    assert pruned < unpruned


def test_one_endomorphism_field_per_isotypic_group(monkeypatch):
    # pair cancellation and the piece report share the group's field; a
    # group of exact negatives builds none
    from fractions import Fraction
    import linkwitt.endofield as ef
    from linkwitt.devissage import IsotypicGroup, _cancel_hyperbolic_pairs
    from linkwitt.seifert import SeifertMorphism
    from linkwitt.wittinv import _piece_report
    calls = []
    endomorphism_ring = ef.endomorphism_ring

    def counted(M, *args, **kwargs):
        calls.append(M)
        return endomorphism_ring(M, *args, **kwargs)

    monkeypatch.setattr(ef, "endomorphism_ring", counted)
    line = SeifertModule.from_blocks(1, QMatrix(1, 1, [[Fraction(1, 2)]]),
                                     [1])
    f = SeifertForm(line, 1, QMatrix(1, 1, [[1]]))
    for c in (2, 3):
        f = f.direct_sum(SeifertForm(line, 1, QMatrix(1, 1, [[c]])))
    report = analyze_form(f)
    assert [p.multiplicity for p in report.pieces] == [3]
    assert len(calls) == 1

    g = worked_example_simple_form()
    M = g.module
    ident = SeifertMorphism(M, M, QMatrix.identity(M.dim), check=False)
    forms = [SeifertForm(M, -1, g.phi.scale(c)) for c in (1, 2, 3)]
    calls.clear()
    group = _cancel_hyperbolic_pairs(
        IsotypicGroup(M, forms, [ident] * 3), [])
    assert len(group.forms) == 3
    piece = _piece_report(group)
    assert piece.multiplicity == 3 and piece.end_minpoly == "1 + -1 x + x^2"
    assert len(calls) == 1

    calls.clear()
    group = _cancel_hyperbolic_pairs(
        IsotypicGroup(M, [g, g.negate()], [ident] * 2), [])
    assert group.forms == [] and calls == []


def test_the_involution_is_that_of_any_form_of_the_group():
    # End(M) is commutative, so every form of an isotypic group induces the
    # same involution on its endomorphism field
    from support import conjugate_form
    from linkwitt.endofield import (as_number_field, endomorphism_ring,
                                    involution_from_form)
    rng = random.Random(404)
    inputs = [worked_example_simple_form().direct_sum(
        SeifertForm(worked_example_simple(), -1,
                    worked_example_simple_form().phi.scale(5)))]
    for _ in range(6):
        k = _knot_form(rng, 2)
        inputs.append(k.direct_sum(conjugate_form(rng, k)))
    checked = 0
    for f in inputs:
        for gr in witt_reduce(f).groups:
            if len(gr.forms) < 2:
                continue
            nf = as_number_field(endomorphism_ring(gr.module,
                                                   assume_simple=True))
            images = [involution_from_form(nf, SeifertForm(
                gr.module, h.zeta, h.phi.scale(h.zeta))).involution_image
                for h in gr.forms]
            assert all(image == images[0] for image in images)
            checked += 1
    assert checked >= 3


NONZERO_RATIONALS = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                                 max_denominator=10 ** 4).filter(bool)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(NONZERO_RATIONALS, NONZERO_RATIONALS)
def test_quaternion_division_over_the_former_place_set(a, b):
    # the places were {2, inf} and the primes of |num * den| of a and b
    import linkwitt.devissage as dv
    from linkwitt.rational import factor_int, hilbert_symbol
    places = {2, "inf"}
    for v in (a, b):
        n = abs(v.numerator * v.denominator)
        if n > 1:
            places.update(factor_int(n))
    assert dv._quaternion_is_division(a, b) == any(
        hilbert_symbol(a, b, p) == -1 for p in places)


def test_the_precheck_rejects_only_vectors_whose_spin_is_no_candidate(
        monkeypatch):
    # a vector v with phi(v, v) or phi(v, m v) nonzero is not spun: its
    # spin, which holds v and m v, is V or a space on which phi does not
    # vanish
    import linkwitt.devissage as dv
    from linkwitt.rational import spin
    visibly_anisotropic = dv._visibly_anisotropic
    rejected = 0
    for f in _oracle_forms():
        V = f.module
        seen = []

        def recorded(phi, gens, v):
            out = visibly_anisotropic(phi, gens, v)
            if out:
                seen.append(v)
            return out

        monkeypatch.setattr(dv, "_visibly_anisotropic", recorded)
        dv._isotropic_search(f)
        monkeypatch.undo()
        for v in seen:
            b = spin(V.generators(), [v], V.dim).basis_matrix().transpose()
            assert b.cols == V.dim or not (b.transpose() * f.phi * b).is_zero()
        rejected += len(seen)
    assert rejected > 0


def test_the_precheck_keeps_the_result_with_fewer_spins(monkeypatch):
    # the search with and without the pre-check finds what spinning every
    # kernel vector finds; the pre-check spins strictly less
    import linkwitt.devissage as dv
    from linkwitt.rational import spin
    totals = {"precheck": 0, "degree bound only": 0}
    unpruned = 0
    for f in _oracle_forms():
        reference = []
        incl, kind = _unpruned_isotropic_search(f, reference)
        unpruned += len(reference)
        gens = f.module.generators()
        for name in totals:
            spins = []

            def counted(g, vectors, n):
                if g == gens:
                    spins.append(n)
                return spin(g, vectors, n)

            monkeypatch.setattr(dv, "spin", counted)
            if name == "degree bound only":
                monkeypatch.setattr(dv, "_visibly_anisotropic",
                                    lambda phi, ints, v: False)
            found, cert = dv._isotropic_search(f)
            monkeypatch.undo()
            assert (found and found.matrix) == incl
            assert (cert and cert.kind) == kind
            totals[name] += len(spins)
    assert totals["precheck"] < totals["degree bound only"]
    assert totals["precheck"] < unpruned


def test_the_bench_ops_spin_and_check_less(monkeypatch, tmp_path):
    # the first 120 metabolic_pairs ops of seed 11 made 6,791 spins and 697
    # form checks before the search's pre-check and the validated mark
    import contextlib
    import importlib
    import io
    import pathlib
    import linkwitt.devissage as dv
    from linkwitt import cli
    from linkwitt.rational import spin
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    ops = gen.make_ops("metabolic_pairs", 11, 120)
    gen.write_ops(ops, str(tmp_path))
    spins, checks = [], []
    validate = SeifertForm.validate

    def counted(*args):
        spins.append(args[2])
        return spin(*args)

    def checked(self):
        if not self._validated:
            checks.append(self)
        return validate(self)

    monkeypatch.setattr(dv, "spin", counted)
    monkeypatch.setattr(SeifertForm, "validate", checked)
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
    assert len(spins) <= 1300
    assert len(checks) <= 577


def _factor_kernels_oracle(V):
    # each sampled element factored and its kernels computed on its own
    import itertools
    from linkwitt.devissage import _element_stream
    from linkwitt.rational import (factor_rational_poly, kernel_columns,
                                   minimal_polynomial)
    for a in itertools.islice(_element_stream(V), 8):
        _, factors = factor_rational_poly(minimal_polynomial(a))
        kernels = []
        for p, _mult in factors:
            m = kernel_columns(p.eval_matrix(a))
            kernels.append((p, [m.col(j) for j in range(m.cols)]))
        yield a, kernels


def test_affine_repeats_share_the_factor_kernels_of_their_element():
    # a = alpha b + beta I takes b's factors, mapped and sorted, and b's
    # kernels: the same lists, in the same order, as factoring a itself
    from support import knot_form
    from linkwitt.devissage import _affine_form, _factor_kernels
    rng = random.Random(17)
    forms = _oracle_forms() + [knot_form(rng, 2) for _ in range(6)]
    mapped = 0
    for f in forms:
        V = f.module
        if V.dim == 1:
            continue
        got = [(count, a, list(kernels))
               for count, a, kernels in _factor_kernels(V)]
        expected = list(_factor_kernels_oracle(V))
        assert [count for count, _a, _k in got] == list(range(len(expected)))
        for (_count, a, kernels), (b, reference) in zip(got, expected):
            assert a == b
            assert kernels == reference
        # repeats that are not the element itself: their factors are mapped
        forms_seen = {}
        for _count, a, _kernels in got:
            key, scale, corner = _affine_form(a)
            if key in forms_seen and forms_seen[key] != (scale, corner):
                mapped += 1
            forms_seen.setdefault(key, (scale, corner))
    assert mapped >= 20


def test_the_affine_repeat_test():
    from fractions import Fraction
    from linkwitt.devissage import _affine_form, _affine_repeat

    def repeat(a, b):
        return _affine_repeat(_affine_form(a), _affine_form(b))

    s = worked_example_module().promote().s
    one = QMatrix.identity(s.rows)
    assert repeat(s, s) == (1, 0)
    assert repeat(s.scale(2), s) == (2, 0)
    assert repeat(s + one, s) == (1, 1)
    assert repeat(s.scale(Fraction(-1, 3)) + one.scale(5), s.scale(2)) \
        == (Fraction(-1, 6), 5)
    assert repeat(s, s.scale(Fraction(3, 2)) - one) \
        == (Fraction(2, 3), Fraction(2, 3))
    # a scalar repeats a scalar
    assert repeat(one.scale(3), one.scale(Fraction(1, 2))) == (1, Fraction(5, 2))
    assert repeat(QMatrix.zeros(2, 2), QMatrix.identity(2)) == (1, -1)
    # alpha = 0, and elements that are not affine in b
    assert repeat(one.scale(3), s) is None
    assert repeat(s, one) is None
    assert repeat(s * s, s) is None
    e = QMatrix.diag([QMatrix.identity(2), QMatrix.zeros(s.rows - 2,
                                                         s.rows - 2)])
    assert repeat(s * e, s) is None
    assert repeat(e, one) is None
    assert repeat(s.transpose(), s) is None


def test_the_bench_ops_factor_fewer_elements(monkeypatch, tmp_path):
    # the first 120 metabolic_pairs ops of seed 11 made 1,329 calls of
    # each before affine repeats shared their factor kernels
    import contextlib
    import importlib
    import io
    import pathlib
    import linkwitt.devissage as dv
    from linkwitt import cli
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    ops = gen.make_ops("metabolic_pairs", 11, 120)
    gen.write_ops(ops, str(tmp_path))
    calls = {"minimal_polynomial": 0, "factor_rational_poly": 0}
    for name in calls:
        def counted(*args, name=name, wrapped=getattr(dv, name)):
            calls[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(dv, name, counted)
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
    assert calls["minimal_polynomial"] <= 820
    assert calls["factor_rational_poly"] <= 820


def test_the_composed_inclusion_is_the_rebuilt_one(monkeypatch):
    # the maps X with m B = B X are unique for a basis B of full column
    # rank, so composing the witnesses of is_simple gives the module that
    # submodule_from_basis builds from the composed basis
    import linkwitt.devissage as dv
    from linkwitt.seifert import submodule_from_basis
    Vp = worked_example_simple()
    modules = [f.module for f in _oracle_forms()]
    modules += [worked_example_module(), Vp.direct_sum(Vp),
                SeifertModule.from_blocks(2, S_PRIME, [2, 2], ring="Z")]
    tested = []
    decide = dv.is_simple

    def counted(V):
        tested.append(V)
        return decide(V)

    monkeypatch.setattr(dv, "is_simple", counted)
    depths = []
    for V in modules:
        tested.clear()
        simple, incl, cert = find_simple_submodule(V)
        depths.append(len(tested) - 1)
        assert incl.source is simple and incl.target is V
        assert incl.intertwines()
        rebuilt = submodule_from_basis(V, incl.matrix)[0]
        assert simple.s == rebuilt.s
        assert simple.projections == rebuilt.projections
        assert simple.ring == rebuilt.ring == "Q"
        assert cert is not None
    assert depths[-1] == 0 and max(depths) >= 2


def test_the_bench_ops_build_fewer_subquotients(monkeypatch, tmp_path):
    # the first 120 metabolic_pairs ops of seed 11 built 1,354 subquotients
    # when each inclusion of a simple was built again from its basis
    import contextlib
    import importlib
    import io
    import pathlib
    import linkwitt.seifert as sf
    from linkwitt import cli
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    ops = gen.make_ops("metabolic_pairs", 11, 120)
    gen.write_ops(ops, str(tmp_path))
    calls = []
    subquotient = sf._subquotient

    def counted(*args):
        calls.append(args)
        return subquotient(*args)

    monkeypatch.setattr(sf, "_subquotient", counted)
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
    assert len(calls) <= 720


def test_the_mu_one_stream_ends_with_the_zero_element():
    # with e_1 = I the structural words are s, 2s, s and s + I; the zero
    # element's one kernel is V
    from support import random_module
    from linkwitt.devissage import _element_stream
    for n in range(1, 6):
        V = random_module(random.Random(n), 1, n)
        s = V.s
        assert list(_element_stream(V)) == [
            s, s.scale(2), s, s + QMatrix.identity(n), QMatrix.zeros(n, n)]


def test_the_seed11_op187_difference_passes_to_subquotients(monkeypatch,
                                                             tmp_path):
    # the seed-11 metabolic_pairs op 187 compares two mu = 1 forms; spins
    # from the zero element's kernel, all of V, find isotropic simples of
    # their 8-dimensional difference.  Without the zero element the
    # reduction split off four simples of dimension 2 and cancelled two
    # hyperbolic pairs.
    import importlib
    import pathlib
    from linkwitt import cli
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    op = gen.make_ops("metabolic_pairs", 11, 188)[187]
    gen.write_ops([op], str(tmp_path))
    (_ma, fa), (_mb, fb) = (cli.load_input(p) for p in op["argv"][1:3])
    difference = fa.promote().direct_sum(fb.promote().negate())
    assert difference.module.mu == 1 and difference.module.dim == 8
    assert witt_reduce(difference).log == [
        "seed 0",
        "isotropic simple of dim 2: pass to subquotient of dim 4",
        "isotropic simple of dim 2: pass to subquotient of dim 0",
        "isotypic grouping: 0 class(es), sizes []"]


def test_the_report_path_keeps_what_the_devissage_proved(monkeypatch,
                                                          tmp_path):
    # the 160 seed-11 knot_invariants ops made 142 irreducibility tests,
    # 142 diagonalizations and 350 checks of unmarked forms before the
    # simplicity certificate and the validated mark were carried to the
    # field layer
    import contextlib
    import importlib
    import io
    import pathlib
    import linkwitt.endofield as ef
    import linkwitt.wittinv as wi
    from linkwitt import cli
    from support import knot_form
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    ops = gen.make_ops("knot_invariants", 11, 160)
    gen.write_ops(ops, str(tmp_path))
    calls = []
    validate = SeifertForm.validate

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def checked(self):
        if not self._validated:
            calls.append("validate")
        return validate(self)

    monkeypatch.setattr(ef, "is_irreducible",
                        counted("is_irreducible", ef.is_irreducible))
    monkeypatch.setattr(wi, "diagonalize",
                        counted("diagonalize", wi.diagonalize))
    monkeypatch.setattr(SeifertForm, "validate", checked)
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
    monkeypatch.undo()
    assert calls.count("is_irreducible") == 0
    assert calls.count("diagonalize") == 0
    assert 160 <= calls.count("validate") <= 210
    # the marks are sound: every group form is marked, and its unmarked
    # copy validates
    rng = random.Random(24)
    forms = _oracle_forms() + [knot_form(rng, 2) for _ in range(12)]
    checked_forms = 0
    for f in forms:
        for gr in witt_reduce(f).groups:
            for h in gr.forms:
                assert h._validated
                assert SeifertForm(h.module, h.zeta, h.phi).validate() is None
                checked_forms += 1
    assert checked_forms >= 30


def _bench_op_calls(monkeypatch, tmp_path, workload, count, targets):
    # calls of each (module, name) of `targets` over the first `count` ops
    # of the workload at seed 11, in-process
    import contextlib
    import importlib
    import io
    import pathlib
    from linkwitt import cli
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    ops = gen.make_ops(workload, 11, count)
    gen.write_ops(ops, str(tmp_path))
    calls = {name: 0 for _module, name in targets}
    for module, name in targets:
        def counted(*args, name=name, wrapped=getattr(module, name)):
            calls[name] += 1
            return wrapped(*args)
        monkeypatch.setattr(module, name, counted)
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
    monkeypatch.undo()
    return calls


def test_the_transport_of_the_reference_form_is_one_without_a_solve():
    # b = zeta f_1 transports f_1 to zeta b^{-1} zeta f_1 = 1; the other
    # forms of a group go through transported_scalar as before
    import linkwitt.endofield as ef
    from support import knot_form
    from linkwitt.rational import QPoly
    rng = random.Random(0x3E7)
    forms = [knot_form(rng, 2) for _ in range(12)]
    forms += [f.direct_sum(f) for f in _oracle_forms()]
    multi = 0
    for f in forms:
        for group in witt_reduce(f).groups:
            _ring, nf = group.endomorphism_field()
            if isinstance(nf, ef.NoncommutativeEndomorphism):
                continue
            b = group.forms[0].zeta_scaled()
            h = ef.morita_transport(nf, group.forms, b)
            k = len(group.forms)
            assert h.gram == [[ef.transported_scalar(nf, b, g)
                               if i == j else QPoly.zero()
                               for j in range(k)]
                              for i, g in enumerate(group.forms)]
            assert h.gram[0][0] == QPoly.one()
            multi += k > 1
    assert multi > 0


def test_the_bench_ops_transport_without_solves(monkeypatch, tmp_path):
    # the 160 knot_invariants ops of seed 11 made 142 transported_scalar
    # calls, 284 matrix_to_element calls and 715 spins when the reference
    # form was solved for and affine repeats spun their kernels again
    import linkwitt.devissage as dv
    import linkwitt.endofield as ef
    calls = _bench_op_calls(
        monkeypatch, tmp_path, "knot_invariants", 160,
        [(ef, "transported_scalar"), (ef, "matrix_to_element"),
         (dv, "spin")])
    assert calls["transported_scalar"] == 0
    assert calls["matrix_to_element"] <= 142
    assert calls["spin"] <= 450


def test_a_walk_spins_each_kernel_list_in_one_offering(monkeypatch):
    # an affine repeat hands back an earlier element's kernel list: its
    # spins were made when the list was first offered
    import linkwitt.devissage as dv
    from linkwitt.rational import spin
    factor_kernels = dv._factor_kernels
    spun_lists = 0
    for f in _oracle_forms():
        V = f.module
        gens = V.generators()
        for search in (lambda: dv._isotropic_search(f), lambda: is_simple(V)):
            current = {}
            offerings = {}

            def tagged(W):
                for count, a, kernels in factor_kernels(W):
                    def tag(kernels=kernels, count=count):
                        for index, (p, ker) in enumerate(kernels):
                            current["kernel"] = (id(ker), count, index)
                            yield p, ker
                    yield count, a, tag()

            def counted(g, vectors, n):
                if g == gens:
                    key, count, index = current["kernel"]
                    offerings.setdefault(key, set()).add((count, index))
                return spin(g, vectors, n)

            monkeypatch.setattr(dv, "_factor_kernels", tagged)
            monkeypatch.setattr(dv, "spin", counted)
            search()
            monkeypatch.undo()
            assert all(len(o) == 1 for o in offerings.values())
            spun_lists += len(offerings)
    assert spun_lists > 0


def test_the_bench_ops_offer_each_kernel_once(monkeypatch, tmp_path):
    # the first 120 metabolic_pairs ops of seed 11 made 1,237 spins when
    # affine repeats offered their kernels again, and 805 factorizations
    import linkwitt.devissage as dv
    calls = _bench_op_calls(
        monkeypatch, tmp_path, "metabolic_pairs", 120,
        [(dv, "spin"), (dv, "factor_rational_poly")])
    assert calls["spin"] <= 950
    assert calls["factor_rational_poly"] <= 805


def test_the_bench_ops_decide_each_walk_fact_once(monkeypatch, tmp_path):
    # the first 120 metabolic_pairs ops of seed 11 made 805 factorizations
    # and minimal polynomials in the devissage and 546 full form checks
    # while each walk factored its elements again and each induced form
    # was checked in full; the walk itself makes the same 942 spins
    import linkwitt.devissage as dv
    checks = []
    validate = SeifertForm.validate

    def checked(self):
        if not self._validated:
            checks.append(self)
        return validate(self)

    monkeypatch.setattr(SeifertForm, "validate", checked)
    calls = _bench_op_calls(
        monkeypatch, tmp_path, "metabolic_pairs", 120,
        [(dv, "spin"), (dv, "factor_rational_poly"),
         (dv, "minimal_polynomial")])
    assert calls["spin"] == 942
    assert calls["factor_rational_poly"] <= 248
    assert calls["minimal_polynomial"] <= 248
    assert len(checks) == 240       # the two input forms of each op


def test_the_fixed_field_primitive_passes_over_rational_constants(
        monkeypatch, tmp_path):
    # the 160 knot_invariants ops of seed 11 took 232 minimal polynomials
    # of fixed-field candidates, 116 of them of rational constants, which
    # cannot generate a fixed field of degree > 1
    import linkwitt.wittinv as wi
    calls = _bench_op_calls(monkeypatch, tmp_path, "knot_invariants", 160,
                            [(wi, "_element_minpoly")])
    assert calls["_element_minpoly"] <= 116


def test_inherited_factor_lists_give_the_pairs_of_each_own_factorization(
        monkeypatch):
    # a module induced from U starts from U's factor list of each element
    # and keeps the factors with a nonzero kernel: the (p, kernel) pairs
    # are the ones factoring each element itself gives
    import linkwitt.devissage as dv
    from support import knot_form
    factor_kernels, factors = dv._factor_kernels, dv._factors
    walked, inherited = [], []

    def tagged(W):
        walked.append(W)
        return factor_kernels(W)

    def counted(U, count, a):
        own = dv.factor_rational_poly
        calls = []
        monkeypatch.setattr(dv, "factor_rational_poly",
                            lambda p: calls.append(p) or own(p))
        out = factors(U, count, a)
        monkeypatch.setattr(dv, "factor_rational_poly", own)
        if not calls:
            inherited.append(out)
        return out

    rng = random.Random(0x13B)
    forms = _oracle_forms() + [knot_form(rng, 2) for _ in range(8)]
    monkeypatch.setattr(dv, "_factor_kernels", tagged)
    monkeypatch.setattr(dv, "_factors", counted)
    for f in forms:
        witt_reduce(f)
    monkeypatch.undo()
    compared = 0
    for W in walked:
        if W._up is None or W.dim == 1:
            continue
        got = [(a, list(kernels)) for _count, a, kernels in factor_kernels(W)]
        assert got == list(_factor_kernels_oracle(W))
        compared += 1
    assert compared >= 90
    assert len(inherited) >= 100


def test_is_simple_after_the_search_decides_no_walk_fact_again(monkeypatch):
    # after a search that found nothing, is_simple walks the same module:
    # it factors no element and reads the kernels the search computed
    import linkwitt.devissage as dv
    factor_kernels = dv._factor_kernels
    walked = 0
    for f in _oracle_forms():
        V = f.module
        if dv._isotropic_search(f) != (None, None):
            continue
        kept = {id(ker) for _form, _b, _factors, memo in
                V._walk_facts[1].values() for ker in memo.values()}
        offered, factored = set(), []

        def tagged(W):
            for count, a, kernels in factor_kernels(W):
                yield count, a, ((p, offered.add(id(ker)) or ker)
                                 for p, ker in kernels)

        monkeypatch.setattr(dv, "_factor_kernels", tagged)
        monkeypatch.setattr(dv, "_factors", lambda *args: factored.append(1))
        is_simple(V)
        monkeypatch.undo()
        assert not factored
        assert offered <= kept
        walked += 1
    assert walked > 0


def test_each_induced_form_passes_the_full_check(monkeypatch, tmp_path):
    # the reduction's induced forms carry the mark of the checked input;
    # rebuilt unmarked from the same module and phi, each passes the full
    # check (the bench ops and orthogonal sums f + (-conj f))
    import linkwitt.devissage as dv
    from support import conjugate_form
    induced_form = dv.induced_form_on_subquotient
    induced = []

    def kept(f, incl):
        out = induced_form(f, incl)
        induced.append(out[0])
        return out

    monkeypatch.setattr(dv, "induced_form_on_subquotient", kept)
    calls = _bench_op_calls(monkeypatch, tmp_path, "metabolic_pairs", 120,
                            [(dv, "induced_form_on_subquotient")])
    assert calls["induced_form_on_subquotient"] == len(induced) >= 300
    rng = random.Random(0x13F)
    monkeypatch.setattr(dv, "induced_form_on_subquotient", kept)
    for _ in range(24):
        f = random_form(rng, rng.randint(1, 3), rng.randint(2, 4),
                        rng.choice([1, -1]))
        witt_reduce(f.direct_sum(conjugate_form(rng, f).negate()))
    monkeypatch.undo()
    assert len(induced) >= 330
    for g in induced:
        assert g._validated
        assert SeifertForm(g.module, g.zeta, g.phi).validate() is None


def _element_by_powers(nf, m):
    # the coordinates of m in the basis 1, theta, .., theta^(d-1) of the
    # field, from the n^2 x d system of the powers of theta
    from linkwitt.rational import QPoly, span_coordinates
    powers = [QMatrix.identity(m.rows)]
    for _ in range(nf.degree - 1):
        powers.append(powers[-1] * nf.embedding)
    coeffs = span_coordinates(powers, [m])
    return None if coeffs is None else QPoly(coeffs.col(0))


def test_an_endomorphism_is_read_off_one_vector():
    # F = Q[theta] acts faithfully on M and is a field, so r(theta) e_1
    # determines r: the one-vector solve gives the element the powers of
    # theta give, for the involution image, the transported scalars and
    # field elements of every field the reductions build
    import glob
    import os
    import linkwitt.endofield as ef
    from linkwitt.cli import load_input
    from linkwitt.rational import QPoly
    rng = random.Random(0x9B)
    forms = list(_oracle_forms())
    forms += [_knot_form(rng, 2) for _ in range(12)]
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                              "data", "*.json"))):
        try:
            _module, form = load_input(path)
        except Exception:
            continue
        if form is not None and form.module.dim and form.is_valid():
            forms.append(form)
    fields = 0
    for f in forms:
        for group in witt_reduce(f).groups:
            _ring, nf = group.endomorphism_field()
            if isinstance(nf, ef.NoncommutativeEndomorphism):
                continue
            b = group.forms[0].zeta_scaled()
            B = b.phi
            image = B.inverse() * nf.embedding.transpose() * B
            assert nf.involution_image == _element_by_powers(nf, image)
            elements = [image] + [B.inverse() * g.phi for g in group.forms]
            elements.append(QPoly([rng.randint(-5, 5)
                                   for _ in range(nf.degree)])
                            .eval_matrix(nf.embedding))
            for m in elements:
                assert (ef.matrix_to_element(nf, m)
                        == _element_by_powers(nf, m))
            for g in group.forms:
                assert ef.transported_scalar(nf, b, g) == ef.field_reduce(
                    nf, _element_by_powers(nf, B.inverse() * g.phi)
                    * g.zeta)
            fields += 1
    assert fields >= 40


def test_the_bench_ops_keep_their_matrices_as_integer_models(
        monkeypatch, tmp_path):
    # the first 120 metabolic_pairs ops of seed 11 made 10,795 fresh
    # integer_matrix conversions, 25,790 integer_row calls and 69,812
    # read-outs (_over), 106,397 in all, while every matrix operation read
    # its operands out to Fractions and converted its result back; on the
    # models, only the matrices read as Fractions are read out
    import contextlib
    import importlib
    import io
    import pathlib
    import linkwitt
    import linkwitt.devissage as dv
    from linkwitt import cli, rational
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    ops = gen.make_ops("metabolic_pairs", 11, 120)
    gen.write_ops(ops, str(tmp_path))
    calls = {"fresh": 0, "integer_row": 0, "_over": 0, "spin": 0,
             "factor_rational_poly": 0}

    def counted(name, wrapped):
        def call(*args):
            calls[name] += 1
            return wrapped(*args)
        return call

    def integer_matrix(M, wrapped=rational.integer_matrix):
        calls["fresh"] += M._ints is None
        return wrapped(M)

    patches = {"integer_matrix": integer_matrix,
               "integer_row": counted("integer_row", rational.integer_row),
               "_over": counted("_over", rational._over)}
    for path in pathlib.Path(linkwitt.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"linkwitt.{path.stem}")
        for name, patch in patches.items():
            if hasattr(module, name):
                monkeypatch.setattr(module, name, patch)
    for name in ("spin", "factor_rational_poly"):
        monkeypatch.setattr(dv, name, counted(name, getattr(dv, name)))
    for op in ops:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
    monkeypatch.undo()
    assert calls["spin"] == 942
    assert calls["factor_rational_poly"] == 248
    conversions = calls["fresh"] + calls["integer_row"] + calls["_over"]
    assert conversions == 18525, calls     # 1,620 + 3,690 + 13,215
