import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from linkwitt.rational import QMatrix, rat_str
from linkwitt.seifert import SeifertError, SeifertForm, SeifertModule
from linkwitt.covering import (FlkPresentation, GroupRingElem,
                               TruncatedSeries, blanchfield_pairing,
                               change_coefficients, cover_presentation,
                               linearize_presentation, magnus_expand,
                               magnus_letter, magnus_matrix,
                               presentation_defect,
                               reduced_words, seifert_from_flk,
                               series_involution, series_matrix_mul,
                               sigma_inverse_series, sigma_inverse_truncated,
                               symmetry_witness, truncated_cokernel_data,
                               truncated_inverse, word_mul, word_reduce,
                               word_str)
from linkwitt.covering import NCRationalSeries
from linkwitt.wittinv import analyze_form

from support import (random_form, random_linear_presentation, random_module,
                     worked_example_form, worked_example_module)
from support import hyperbolic_form


def _unit_series(n, degree):
    return [[TruncatedSeries.constant(1, degree) if i == j
             else TruncatedSeries(degree) for j in range(n)]
            for i in range(n)]


def test_word_reduction():
    assert word_reduce([(1, 1), (1, -1)]) == ()
    assert word_mul(((1, 1),), ((1, -1), (2, 1))) == ((2, 1),)


def test_group_ring_involution_antihomomorphism():
    g = GroupRingElem({((1, 1), (2, 1)): 2, ((1, -1),): 3})
    h = GroupRingElem({((2, 1),): 1, ((1, 1),): -1})
    assert (g * h).involution() == h.involution() * g.involution()


def test_cover_examples():
    V1 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[1]]), [1])
    assert cover_presentation(V1).entries[0][0] \
        == GroupRingElem.generator(1)
    V0 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    assert cover_presentation(V0).entries[0][0] \
        == GroupRingElem.constant(1)


def test_cover_worked_example_support():
    pres = cover_presentation(worked_example_module())
    support = pres.support()
    assert support <= {(), ((1, 1),), ((2, 1),)}
    assert pres.augmentation() == QMatrix.identity(6)


def test_cover_augmentation_identity_random():
    rng = random.Random(61)
    for _ in range(10):
        V = random_module(rng, rng.choice([1, 2, 3]), rng.randint(1, 4))
        pres = cover_presentation(V)
        assert pres.augmentation() == QMatrix.identity(V.dim)


def test_cover_additivity():
    rng = random.Random(62)
    for _ in range(5):
        mu = rng.choice([1, 2])
        V = random_module(rng, mu, rng.randint(1, 3))
        W = random_module(rng, mu, rng.randint(1, 3))
        pres = cover_presentation(V.direct_sum(W))
        pv = cover_presentation(V)
        pw = cover_presentation(W)
        n, m = V.dim, W.dim
        for i in range(n + m):
            for j in range(n + m):
                if i < n and j < n:
                    assert pres.entries[i][j] == pv.entries[i][j]
                elif i >= n and j >= n:
                    assert pres.entries[i][j] == pw.entries[i - n][j - n]
                else:
                    assert pres.entries[i][j].is_zero()


def test_adjunction_unit_identity():
    # x - s(1-z)x equals sigma x for every standard generator column x
    rng = random.Random(63)
    for _ in range(5):
        V = random_module(rng, rng.choice([1, 2]), rng.randint(1, 3))
        pres = cover_presentation(V)
        zero = GroupRingElem()
        for j in range(V.dim):
            x = [GroupRingElem.constant(1) if i == j else zero
                 for i in range(V.dim)]
            # sigma * x = column j of sigma
            sigma_x = [pres.entries[i][j] for i in range(V.dim)]
            # x - s(1-z)x computed directly from the module data
            direct = []
            for i in range(V.dim):
                acc = GroupRingElem.constant(1 if i == j else 0)
                for idx, e in enumerate(V.projections, start=1):
                    c = (V.s * e).data[i][j]
                    if c:
                        acc = acc - GroupRingElem(
                            {(): c, ((idx, 1),): -c})
                direct.append(acc)
            assert direct == sigma_x


def test_magnus_examples():
    g = GroupRingElem.generator(1, -1)
    assert magnus_expand(g, 3) == TruncatedSeries(
        3, {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1})
    gg = GroupRingElem({((1, 1), (1, -1)): 1})
    assert magnus_expand(gg, 5) == TruncatedSeries.constant(1, 5)
    one_minus = GroupRingElem.constant(1) - GroupRingElem.generator(1)
    assert magnus_expand(one_minus, 2) == TruncatedSeries(2, {(1,): -1})


def test_magnus_multiplicative():
    rng = random.Random(64)
    words = reduced_words(2, 3)
    for _ in range(10):
        g = GroupRingElem({rng.choice(words): rng.randint(-3, 3)})
        h = GroupRingElem({rng.choice(words): rng.randint(-3, 3)})
        D = 5
        assert magnus_expand(g * h, D) \
            == magnus_expand(g, D) * magnus_expand(h, D)


def test_sigma_inverse_trivial_and_geometric():
    V0 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[0]]), [1])
    inv = sigma_inverse_truncated(V0, 4)
    assert inv[0][0] == TruncatedSeries.constant(1, 4)
    V1 = SeifertModule.from_blocks(1, QMatrix(1, 1, [[1]]), [1])
    inv1 = sigma_inverse_truncated(V1, 6)
    assert inv1[0][0] == magnus_expand(GroupRingElem.generator(1, -1), 6)


def test_sigma_inverse_exact_representation_coeff():
    V = worked_example_module().promote()
    series = sigma_inverse_series(V)
    trunc = sigma_inverse_truncated(V, 4)
    for p in (0, 3, 5):
        for q in (0, 2):
            for w in [(), (1,), (2, 1), (1, 1, 2)]:
                assert series[p][q].coeff(w) == trunc[p][q].coeff(w)


def test_sigma_product_identities_worked_example():
    V = worked_example_module().promote()
    D = 8
    pres = cover_presentation(V)
    hat = magnus_matrix(pres, D)
    inv = sigma_inverse_truncated(V, D)
    assert series_matrix_mul(hat, inv, D) == _unit_series(6, D)
    assert series_matrix_mul(inv, hat, D) == _unit_series(6, D)


def test_sigma_inverse_matches_neumann_oracle():
    rng = random.Random(65)
    for _ in range(5):
        V = random_module(rng, rng.choice([1, 2]), rng.randint(1, 3))
        D = 5
        assert sigma_inverse_truncated(V, D) \
            == truncated_inverse(cover_presentation(V), D)


def test_series_involution_examples():
    x1 = TruncatedSeries(4, {(1,): 1})
    assert series_involution(x1) == TruncatedSeries(
        4, {(1,): -1, (1, 1): 1, (1, 1, 1): -1, (1, 1, 1, 1): 1})
    one = TruncatedSeries.constant(1, 4)
    assert series_involution(one) == one
    x12 = TruncatedSeries(3, {(1, 2): 1})
    expected = series_involution(TruncatedSeries(3, {(2,): 1})) \
        * series_involution(TruncatedSeries(3, {(1,): 1}))
    assert series_involution(x12) == expected


def test_series_involution_is_magnus_of_inverse():
    rng = random.Random(66)
    for w in reduced_words(2, 3):
        g = GroupRingElem({w: 1})
        D = 5
        left = series_involution(magnus_expand(g, D))
        right = magnus_expand(g.involution(), D)
        assert left == right
    _ = rng


def test_series_involution_involutive():
    t = TruncatedSeries(5, {(1,): 2, (2, 1): Fraction(1, 3), (): 1})
    assert series_involution(series_involution(t)) == t


def test_primitive_pairing_lies_in_group_ring():
    # primitive module (s = 0 and s = 1 lines paired hyperbolically): the
    # presented module vanishes, so every pairing value has coset zero
    V0 = SeifertModule.from_blocks(1, QMatrix(2, 2, [[0, 0], [0, 1]]), [2])
    f = SeifertForm(V0, 1, QMatrix(2, 2, [[0, 1], [1, 0]]))
    pairing = blanchfield_pairing(f, 6)
    # every value must be the expansion of a group-ring element: witnessed
    # by the symmetry solver run against the zero residual target
    from linkwitt.covering import SparseSolver
    words = reduced_words(1, 3)
    solver = SparseSolver()
    for idx, w in enumerate(words):
        solver.add_column(dict(magnus_expand(GroupRingElem({w: 1}),
                                             6).terms), idx)
    for row in pairing:
        for val in row:
            assert solver.solve(dict(val.truncated.terms)) is not None


def test_pairing_against_hand_expansion():
    # independent oracle: phi^T (1 - z) sigma^{-1} computed with truncated
    # series arithmetic only
    s = QMatrix(2, 2, [[0, 0], [1, 1]])
    V = SeifertModule.from_blocks(1, s, [2])
    f = SeifertForm(V, -1, QMatrix(2, 2, [[0, 1], [-1, 0]]))
    assert f.validate() is None
    D = 4
    pairing = blanchfield_pairing(f, D)
    inv = truncated_inverse(cover_presentation(V), D)
    # (1 - z) acts by -x prepending within the single component
    one_minus_z = [[TruncatedSeries(D, {(1,): -1}) if i == j
                    else TruncatedSeries(D) for j in range(2)]
                   for i in range(2)]
    prod = series_matrix_mul(one_minus_z, inv, D)
    phiT = f.phi.transpose()
    for p in range(2):
        for q in range(2):
            acc = TruncatedSeries(D)
            for r in range(2):
                if phiT.data[p][r]:
                    acc = acc + prod[r][q] * phiT.data[p][r]
            assert acc == pairing[p][q].truncated


def test_pairing_truncation_coherence():
    f = worked_example_form()
    p6 = blanchfield_pairing(f, 6)
    p10 = blanchfield_pairing(f, 10)
    for i in (0, 2, 5):
        for j in (1, 4):
            assert p6[i][j].truncated == p10[i][j].truncated.truncate(6)


def test_symmetry_witness_worked_example():
    f = worked_example_form()
    pairing = blanchfield_pairing(f, 8)
    witness = symmetry_witness(pairing, -1, 8)
    assert witness is not None


def test_symmetry_witness_zero_on_symmetric_diagonal():
    V0 = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    f = SeifertForm(V0, 1, QMatrix(1, 1, [[1]]))
    pairing = blanchfield_pairing(f, 6)
    witness = symmetry_witness(pairing, 1, 6)
    assert witness is not None


def test_symmetry_witness_fails_on_corruption():
    f = worked_example_form()
    pairing = [[v.truncated for v in row]
               for row in blanchfield_pairing(f, 8)]
    pairing[0][1] = pairing[0][1] + TruncatedSeries(8, {(1, 2, 1, 1, 2): 1})
    assert symmetry_witness(pairing, -1, 8) is None


def test_linearize_already_linear():
    p = FlkPresentation(1, [[GroupRingElem.generator(1)]])
    lin, log = linearize_presentation(p)
    assert lin.entries == p.entries
    assert log == []


def test_linearize_length_two_word():
    g12 = GroupRingElem({((1, 1), (2, 1)): 1})
    p = FlkPresentation(2, [[g12]])
    lin, log = linearize_presentation(p)
    assert lin.size == 2
    assert lin.is_linear()
    assert lin.augmentation() == QMatrix.identity(2)
    din = truncated_cokernel_data(p, range(5))
    dout = truncated_cokernel_data(lin, range(5))
    assert [d > 0 for d in din] == [d > 0 for d in dout]


def test_linearize_with_inverse_letters():
    g = GroupRingElem({((1, -1),): 1, ((2, 1),): Fraction(1, 2)})
    p = FlkPresentation(2, [[g]])
    lin, log = linearize_presentation(p)
    assert lin.is_linear()
    din = truncated_cokernel_data(p, range(5))
    dout = truncated_cokernel_data(lin, range(5))
    assert [d > 0 for d in din] == [d > 0 for d in dout]


def test_linearize_rejects_singular_augmentation():
    with pytest.raises(SeifertError):
        FlkPresentation(1, [[GroupRingElem.constant(1)
                             - GroupRingElem.generator(1)]])


def test_seifert_from_flk_examples():
    pone = FlkPresentation(1, [[GroupRingElem.constant(1)]])
    V = seifert_from_flk(pone)
    assert V.dim == 1 and V.s == QMatrix(1, 1, [[0]])
    pz = FlkPresentation(1, [[GroupRingElem.generator(1)]])
    Vz = seifert_from_flk(pz)
    assert Vz.dim == 1 and Vz.s == QMatrix(1, 1, [[1]])


def test_seifert_from_flk_block_structure():
    rng = random.Random(67)
    p = random_linear_presentation(rng, 2, 2)
    V = seifert_from_flk(p)
    assert V.dim == 4
    # both block rows of s agree
    top = [row[:] for row in V.s.data[:2]]
    bottom = [row[:] for row in V.s.data[2:]]
    assert top == bottom


def test_roundtrip_cokernel_pattern():
    rng = random.Random(68)
    for k in range(10):
        mu = rng.choice([1, 2])
        n = rng.choice([1, 2])
        p = random_linear_presentation(rng, mu, n,
                                       primitive_bias=(k % 2 == 0))
        V = seifert_from_flk(p)
        cov = cover_presentation(V)
        din = truncated_cokernel_data(p, range(5))
        dout = truncated_cokernel_data(cov, range(5))
        assert [d > 0 for d in din] == [d > 0 for d in dout]


def test_trivially_primitive_inverse_over_ring():
    # s = 0 gives sigma = 1; s = 1 gives sigma = z: explicit units, so the
    # cokernel data vanishes at every degree >= 1
    V0 = SeifertModule.from_blocks(2, QMatrix(2, 2, [[0, 0], [0, 0]]), [1, 1])
    assert presentation_defect(cover_presentation(V0), 0) == 0
    V1 = SeifertModule.from_blocks(2, QMatrix(2, 2, [[1, 0], [0, 1]]), [1, 1])
    assert presentation_defect(cover_presentation(V1), 1) == 0
    assert presentation_defect(cover_presentation(V1), 0) == 2


def test_change_coefficients_promotion():
    V = worked_example_module()
    assert V.ring == "Z"
    VQ = change_coefficients(V, "Q")
    assert VQ.ring == "Q" and VQ.s == V.s
    with pytest.raises(SeifertError):
        change_coefficients(VQ, "Z")


def test_cover_commutes_with_promotion():
    rng = random.Random(69)
    for _ in range(10):
        V = random_module(rng, rng.choice([1, 2]), rng.randint(1, 3),
                          integral=True)
        a = cover_presentation(change_coefficients(V, "Q"))
        b = change_coefficients(cover_presentation(V), "Q")
        assert a.entries == b.entries


def test_invariants_commute_with_promotion():
    from support import random_integral_form
    rng = random.Random(70)
    f = random_integral_form(rng, 2, 4, -1)
    rep_z = analyze_form(f)
    rep_q = analyze_form(change_coefficients(f, "Q"))
    assert rep_z.verdict == rep_q.verdict
    assert [(p.module_dim, p.signatures, p.discriminant, p.hasse)
            for p in rep_z.pieces] \
        == [(p.module_dim, p.signatures, p.discriminant, p.hasse)
            for p in rep_q.pieces]


def test_pairing_exact_matches_truncated():
    f = worked_example_form()
    pairing = blanchfield_pairing(f, 5)
    for i in (0, 3):
        for j in (1, 5):
            val = pairing[i][j]
            assert val.exact.truncate(5) == val.truncated


def test_pairing_is_phi_times_one_minus_z_times_sigma_inverse():
    # reference built with truncated-series arithmetic only:
    # phi^T (1 - z) sigma^{-1}, where 1 - z has Magnus image -sum_i x_i e_i
    rng = random.Random(67)
    for _ in range(10):
        mu = rng.randint(1, 3)
        f = random_form(rng, mu, rng.randint(1, 3), rng.choice([1, -1]))
        V = f.module
        n = V.dim
        for D in (0, 1, 5):
            one_minus_z = [[TruncatedSeries(D, {(i,): -e.data[r][c]
                                                for i, e in enumerate(
                                                    V.projections, start=1)})
                            for c in range(n)] for r in range(n)]
            phiT = [[TruncatedSeries.constant(x, D) for x in row]
                    for row in f.phi.transpose().data]
            reference = series_matrix_mul(
                series_matrix_mul(phiT, one_minus_z, D),
                sigma_inverse_truncated(V, D), D)
            pairing = blanchfield_pairing(f, D)
            assert [[v.truncated for v in row] for row in pairing] \
                == reference


def test_sigma_inverse_series_truncates_to_the_sweep():
    rng = random.Random(68)
    for _ in range(6):
        V = random_module(rng, rng.randint(1, 3), rng.randint(1, 4))
        exact = sigma_inverse_series(V)
        for D in range(5):
            trunc = sigma_inverse_truncated(V, D)
            assert [[x.truncate(D) for x in row] for row in exact] == trunc


def test_group_ring_serialize():
    g = GroupRingElem({((1, 1),): 2, (): Fraction(-1, 3),
                       ((2, -1), (1, 1)): 1, ((1, -1),): Fraction(5, 2)})
    assert g.serialize() == [["1", "-1/3"], ["z1", "2"], ["z1^-1", "5/2"],
                             ["z2^-1 z1", "1"]]
    assert GroupRingElem().serialize() == []


def test_truncated_series_serialize_order_and_names():
    # terms filled out of (length, word) order; (10,) sorts after (1,) as
    # a word although "x10" sorts before "x2" as a name
    t = TruncatedSeries(3, {(2, 1): Fraction(3, 4), (1, 1, 2): 5,
                            (10,): 1, (1, 2): Fraction(-1, 2), (2,): 0,
                            (): -1, (1,): 2})
    assert list(t.terms) != sorted(t.terms, key=lambda w: (len(w), w))
    assert t.serialize() == [["1", "-1"], ["x1", "2"], ["x10", "1"],
                             ["x1 x2", "-1/2"], ["x2 x1", "3/4"],
                             ["x1 x1 x2", "5"]]
    a = TruncatedSeries(3, {(2,): 1, (): 1})
    b = TruncatedSeries(3, {(1,): Fraction(1, 2), (2, 2): -3})
    p = a * b + TruncatedSeries.constant(2, 3)
    assert list(p.terms) != sorted(p.terms, key=lambda w: (len(w), w))
    assert p.serialize() == [["1", "2"], ["x1", "1/2"], ["x2 x1", "1/2"],
                             ["x2 x2", "-3"], ["x2 x2 x2", "-3"]]
    assert TruncatedSeries(3).serialize() == []


def test_series_matrix_serializes_the_same_with_shared_names():
    for V in (worked_example_module(),
              random_module(random.Random(62), 3, 4)):
        inverse = sigma_inverse_truncated(V, 4)
        alone = [[e.serialize() for e in row] for row in inverse]
        names = {}
        shared = [[e.serialize(names) for e in row] for row in inverse]
        assert shared == alone
        assert set(names) == {w for row in inverse for e in row
                              for w in e.terms}


def _series_involution_by_products(t, degree=None):
    # the product form of bar: in the reversed word every x_i becomes the
    # dense truncated series (1 + x_i)^{-1} - 1
    d = t.degree if degree is None else degree
    one = TruncatedSeries.constant(1, d)
    total = TruncatedSeries(d)
    for w, c in t.terms.items():
        acc = one
        for i in reversed(w):
            acc = acc * (magnus_letter(i, -1, d) - one)
        total = total + acc * c
    return total


def test_series_involution_matches_product_form():
    rng = random.Random(69)
    for _ in range(300):
        mu, D = rng.randint(1, 3), rng.randint(0, 7)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            w = tuple(rng.randint(1, mu) for _ in range(rng.randint(0, D)))
            terms[w] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        t = TruncatedSeries(D, terms)
        for degree in (None, D - rng.randint(1, 2), D + rng.randint(1, 3)):
            assert series_involution(t, degree) \
                == _series_involution_by_products(t, degree)


def test_symmetry_witness_solves_a_nonzero_residual():
    # adding magnus(g) to P_01 makes the residuals magnus(g) at (0, 1) and
    # zeta bar(magnus(g)) at (1, 0): only the solver can witness them
    f = worked_example_form()
    D = 8
    pairing = [[v.truncated for v in row]
               for row in blanchfield_pairing(f, D)]
    g = GroupRingElem({((1, 1),): 2, ((2, -1), (1, 1)): -1})
    pairing[0][1] = pairing[0][1] + magnus_expand(g, D)
    witness = symmetry_witness(pairing, f.zeta, D)
    assert witness is not None
    for i in range(6):
        for j in range(6):
            residual = pairing[i][j] \
                + series_involution(pairing[j][i]) * f.zeta
            assert magnus_expand(witness[i][j], D) == residual
    assert witness[0][1] == g
    assert witness[1][0] == g.involution() * f.zeta


def test_symmetry_witness_is_zero_on_random_forms():
    rng = random.Random(70)
    for zeta in (1, -1):
        for _ in range(10):
            f = random_form(rng, rng.randint(1, 3), rng.randint(1, 3), zeta)
            witness = symmetry_witness(blanchfield_pairing(f, 8), zeta, 8)
            assert witness is not None
            assert all(w.is_zero() for row in witness for w in row)


def test_symmetry_witness_fails_on_lower_triangle_corruption():
    # residual_10 is read off residual_01, which must still see P_10
    f = worked_example_form()
    pairing = [[v.truncated for v in row]
               for row in blanchfield_pairing(f, 8)]
    pairing[1][0] = pairing[1][0] + TruncatedSeries(8, {(1, 2, 1, 1, 2): 1})
    assert symmetry_witness(pairing, -1, 8) is None


def test_sigma_inverse_truncated_matches_the_full_word_expansion():
    # e_2 = 0 makes every word with the letter 2 zero, and a nilpotent s
    # every long word; the last module has a zero row in every product.
    # The series must match the expansion over all words, zero products
    # included
    import itertools
    degree = 5
    for rows, sizes in (([[0, 1, 2], [0, 0, 1], [0, 0, 0]], [3, 0]),
                        ([[1, -1, 0], [2, 0, 1], [0, 1, -1]], [3, 0]),
                        ([[0, 0, 0], [1, 1, 0], [2, -1, 1]], [2, 1])):
        V = SeifertModule.from_blocks(2, QMatrix(3, 3, rows), sizes)
        steps = [(V.s * e).scale(-1) for e in V.projections]
        expected = [[{} for _ in range(3)] for _ in range(3)]
        for length in range(degree + 1):
            for w in itertools.product((1, 2), repeat=length):
                m = QMatrix.identity(3)
                for i in w:
                    m = m * steps[i - 1]
                for p in range(3):
                    for q in range(3):
                        if m.data[p][q]:
                            expected[p][q][w] = m.data[p][q]
        got = sigma_inverse_truncated(V, degree)
        assert [[x.terms for x in row] for row in got] == expected


def _fraction_product(A, B):
    # plain Fraction rows, independent of QMatrix's integer products
    return [[sum((a * b for a, b in zip(row, col)), Fraction(0))
             for col in zip(*B)] for row in A]


def _expansion(start, steps, degree):
    # {word: start T_w} over every word of length <= degree, zero products
    # included, one Fraction product per word
    out = {(): start}
    level = [((), start)]
    for _ in range(degree):
        level = [(w + (i,), _fraction_product(m, t)) for w, m in level
                 for i, t in enumerate(steps, start=1)]
        out.update(level)
    return out


def _nonzero_entries(products, p, q, prefix=()):
    return {prefix + w: m[p][q] for w, m in products.items() if m[p][q]}


def _rational_module(rng, mu, dim, zero_letter):
    # s with denominators up to 999; with zero_letter, s e_z = 0 for the
    # letter z, so that transition is zero while e_z is not
    # no empty block: every projection is nonzero
    sizes = [1] * mu
    sizes[rng.randrange(mu)] += dim - mu
    rows = [[Fraction(rng.randint(-999, 999), rng.randint(1, 999))
             for _ in range(dim)] for _ in range(dim)]
    if zero_letter:
        z = rng.randrange(mu)
        start = sum(sizes[:z])
        for row in rows:
            row[start:start + sizes[z]] = [0] * sizes[z]
    return SeifertModule.from_blocks(mu, QMatrix(dim, dim, rows), sizes)


_RATIONAL_CASES = [(mu, degree, zero_letter)
                   for mu, degrees in ((1, (0, 4, 9)), (2, (1, 6, 9)),
                                       (3, (2, 5, 6)))
                   for degree in degrees for zero_letter in (False, True)]


@pytest.mark.parametrize("mu, degree, zero_letter", _RATIONAL_CASES)
def test_series_on_non_integral_modules_match_fraction_products(
        mu, degree, zero_letter):
    rng = random.Random(7100 + 10 * mu + degree + 100 * zero_letter)
    dim = rng.randint(mu, 3)
    V = _rational_module(rng, mu, dim, zero_letter)
    steps = [[[-x for x in row] for row in (V.s * e).data]
             for e in V.projections]
    assert any(not any(map(any, t)) for t in steps) == zero_letter
    products = _expansion(QMatrix.identity(dim).data, steps, degree)
    got = sigma_inverse_truncated(V, degree)
    exact = sigma_inverse_series(V)
    for p in range(dim):
        for q in range(dim):
            expected = _nonzero_entries(products, p, q)
            assert got[p][q].terms == expected
            truncated = exact[p][q].truncate(degree)
            assert truncated.terms == expected
            assert truncated.terms == {
                w: exact[p][q].coeff(w) for w in products
                if exact[p][q].coeff(w)}
    # a row and a column with denominators too
    row, col = ([[Fraction(rng.randint(-99, 99), rng.randint(1, 999))
                  for _ in range(dim)]] for _ in range(2))
    series = NCRationalSeries(dim, QMatrix(1, dim, row),
                              [QMatrix(dim, dim, t) for t in steps],
                              QMatrix(dim, 1, list(zip(*col))))
    assert series.truncate(degree).terms == {
        w: series.coeff(w) for w in products if series.coeff(w)}


@pytest.mark.parametrize("mu, degree", [(1, 9), (2, 0), (2, 7), (3, 5)])
def test_pairing_on_non_integral_forms_matches_fraction_products(mu, degree):
    # the hyperbolic form on W + W* keeps the denominators of W's s; for
    # mu > 1 the empty blocks of W give zero projections, hence zero
    # transitions
    rng = random.Random(7200 + 10 * mu + degree)
    W = SeifertModule.from_blocks(mu, _rational_module(rng, 1, 2, False).s,
                                  [2] + [0] * (mu - 1))
    f = hyperbolic_form(W, rng.choice([1, -1]))
    V, n = f.module, f.module.dim
    assert max(x.denominator for x in V.s.flat()) > 1
    phiT = f.phi.transpose().data
    steps = [[[-x for x in row] for row in (V.s * e).data]
             for e in V.projections]
    # the coefficient of x_i w is phi^T (-e_i) times that of w in sigma^-1
    tails = [(i, _expansion(_fraction_product(
        phiT, [[-x for x in row] for row in e.data]), steps, degree - 1))
        for i, e in enumerate(V.projections, start=1)] if degree else []
    pairing = blanchfield_pairing(f, degree)
    for p in range(n):
        for q in range(n):
            expected = {}
            for i, products in tails:
                expected.update(_nonzero_entries(products, p, q, (i,)))
            assert pairing[p][q].truncated.terms == expected
            assert pairing[p][q].exact.truncate(degree).terms == expected


WORDS = st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
                 max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.lists(WORDS, max_size=12), st.integers(0, 4))
def test_series_words_come_in_length_then_word_order(words, degree):
    # two key-free sorts give the (length, word) order of both series
    # types: a stable sort by length of the lexicographic order
    def by_key(ws):
        return sorted(ws, key=lambda w: (len(w), w))

    positive = {tuple(g for g, _ in w): Fraction(k + 1, 3)
                for k, w in enumerate(words)}
    series = TruncatedSeries(degree, positive)
    assert [name for name, _ in series.serialize()] == [
        " ".join(f"x{i}" for i in w) or "1" for w in by_key(series.terms)]
    elem = GroupRingElem({w: Fraction(k + 1, 3) for k, w in enumerate(words)})
    assert repr(elem) == (" + ".join(
        f"{rat_str(elem.terms[w])}*{word_str(w)}" for w in by_key(elem.terms))
        or "0")


# the series models against schoolbook Fraction dicts: every operation on
# (D, numerators) gives the coefficients, in the order, that the
# coefficientwise Fraction code gives
_SERIES_WORDS = st.lists(st.integers(1, 3), max_size=4).map(tuple)
_COEFFICIENTS = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
              st.integers(1, 10 ** 30)))
_SERIES_DICTS = st.dictionaries(_SERIES_WORDS, _COEFFICIENTS, max_size=6)
_DEGREES = st.integers(-1, 4)


def _school_series(degree, terms):
    return {w: Fraction(c) for w, c in terms.items()
            if len(w) <= degree and c}


def _school_add(d1, a, d2, b, sign=1):
    d = min(d1, d2)
    out = {w: c for w, c in a.items() if len(w) <= d}
    for w, c in b.items():
        if len(w) <= d:
            out[w] = out.get(w, Fraction(0)) + sign * c
    return d, {w: c for w, c in out.items() if c}


def _school_mul(d1, a, d2, b):
    d = min(d1, d2)
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            if len(w1) + len(w2) <= d:
                out[w1 + w2] = out.get(w1 + w2, Fraction(0)) + c1 * c2
    return d, {w: c for w, c in out.items() if c}


def _school_involution(d, a):
    # bar x_i = sum_{L >= 1} (-1)^L x_i^L in the reversed word, one letter
    # at a time
    out = {}
    for w, c in a.items():
        if len(w) > d:
            continue
        partial = [((), c)]
        for i in reversed(w):
            partial = [(v + (i,) * L, x * (-1) ** L) for v, x in partial
                       for L in range(1, d - len(v) + 1)]
        for v, x in partial:
            out[v] = out.get(v, Fraction(0)) + x
    return {w: c for w, c in out.items() if c}


def _check_model(t, degree, expected):
    # lowest terms, the least denominator, the view built once and in the
    # model's order, and == as on the schoolbook result
    assert t.degree == degree
    assert t.terms == expected and list(t.terms) == list(expected)
    assert t.terms is t.terms
    assert list(t.terms) == list(t._nums)
    for c in t.terms.values():
        assert c and c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1
    D = math.lcm(*[c.denominator for c in expected.values()])
    assert t._den == D
    assert t._nums == {w: int(c * D) for w, c in expected.items()}
    assert t == TruncatedSeries(degree, expected)
    assert t.serialize() == [
        [" ".join(f"x{i}" for i in w) or "1", str(c)]
        for w, c in sorted(expected.items(), key=lambda x: (len(x[0]), x[0]))]


@settings(max_examples=200, deadline=None)
@given(_DEGREES, _SERIES_DICTS, _DEGREES, _SERIES_DICTS, _COEFFICIENTS,
       st.integers(1, 3), st.sampled_from([1, -1]))
def test_series_models_match_schoolbook_fraction_dicts(d1, t1, d2, t2, c, i,
                                                       exponent):
    a, b = _school_series(d1, t1), _school_series(d2, t2)
    A, B = TruncatedSeries(d1, t1), TruncatedSeries(d2, t2)
    _check_model(A, d1, a)
    _check_model(A + B, *_school_add(d1, a, d2, b))
    _check_model(A - B, *_school_add(d1, a, d2, b, -1))
    _check_model(-A, d1, {w: -x for w, x in a.items()})
    _check_model(A * B, *_school_mul(d1, a, d2, b))
    _check_model(A * c, d1, {w: x * c for w, x in a.items() if x * c})
    _check_model(c * A, d1, {w: x * c for w, x in a.items() if x * c})
    _check_model(A.truncate(d2), d2,
                 {w: x for w, x in a.items() if len(w) <= d2})
    _check_model(TruncatedSeries.constant(c, d1), d1,
                 _school_series(d1, {(): c}))
    letter = ({(): 1, (i,): 1} if exponent == 1
              else {(i,) * k: (-1) ** k for k in range(d1 + 1)})
    _check_model(magnus_letter(i, exponent, d1), d1,
                 _school_series(d1, letter))
    _check_model(series_involution(A), d1, _school_involution(d1, a))
    _check_model(series_involution(A, d2), d2, _school_involution(d2, a))
    # a 2 x 2 matrix product over the entries A, B, c A, A - B
    left, right = [[A, B], [A * c, A - B]], [[B, A], [B - A, A]]
    for p, row in enumerate(series_matrix_mul(left, right, d1)):
        for q, entry in enumerate(row):
            d, acc = d1, {}
            for k in range(2):
                x, y = left[p][k], right[k][q]
                d, acc = _school_add(d, acc, *_school_mul(
                    x.degree, x.terms, y.degree, y.terms))
            _check_model(entry, d, acc)


def test_the_cover_ops_build_their_series_without_fractions(monkeypatch,
                                                           tmp_path):
    # Fractions built (by Fraction.__new__, by the _from_coprime_ints of
    # Python >= 3.12 and by _over) over the 80 seed-11 cover_series ops
    # without a form and the 80 with one: 102,940 and 15,016 while every
    # series coefficient was a Fraction; on the integer models only the
    # input, the presentation and the matrices read as Fractions build them
    import contextlib
    import importlib
    import io
    import pathlib
    import linkwitt
    from linkwitt import cli, rational
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).resolve().parents[1] / "bench"))
    gen = importlib.import_module("gen")
    ops = [op for op in gen.make_ops("cover_series", 11, 240)
           if op["kind"] in ("series", "pairing")]
    gen.write_ops(ops, str(tmp_path))
    built = [0]

    def over(D, xs, wrapped=rational._over):
        out = wrapped(D, xs)
        built[0] += sum(x is not rational.Q0 for x in out)
        return out

    def new(cls, *args, wrapped=Fraction.__new__, **kwargs):
        built[0] += 1
        return wrapped(cls, *args, **kwargs)

    for path in pathlib.Path(linkwitt.__file__).parent.glob("*.py"):
        module = importlib.import_module(f"linkwitt.{path.stem}")
        if hasattr(module, "_over"):
            monkeypatch.setattr(module, "_over", over)
    coprime = Fraction.__dict__.get("_from_coprime_ints")
    if coprime is not None:
        def from_coprime_ints(cls, n, d):
            built[0] += 1
            return coprime.__func__(cls, n, d)
        monkeypatch.setattr(Fraction, "_from_coprime_ints",
                            classmethod(from_coprime_ints))
    monkeypatch.setattr(Fraction, "__new__", staticmethod(new))
    counts = {"series": 0, "pairing": 0}
    for op in ops:
        before = built[0]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(op["argv"]) == 0
        counts[op["kind"]] += built[0] - before
    monkeypatch.undo()
    assert sum(op["kind"] == "series" for op in ops) == 80
    assert counts == {"series": 6676, "pairing": 5864}
