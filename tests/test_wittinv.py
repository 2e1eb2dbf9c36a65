import itertools
import random
from fractions import Fraction

import pytest

from linkwitt.rational import QMatrix, QPoly, rat
from linkwitt.seifert import SeifertModule, SeifertForm
from linkwitt.endofield import (HermitianFormOverE, NumberFieldWithInvolution,
                                as_number_field, endomorphism_ring,
                                involution_from_form)
from linkwitt.wittinv import (analyze_form, diagonalize, discriminant_class,
                              hasse_witt_over_q, hilbert_symbol,
                              invariant_report, norm_class_test_quadratic,
                              signatures)

from support import worked_example_form, worked_example_simple, \
    worked_example_simple_form


def _rational_field(trivial: bool = True) -> NumberFieldWithInvolution:
    V = SeifertModule.from_blocks(1, QMatrix(1, 1, [["1/2"]]), [1])
    return NumberFieldWithInvolution(QPoly([-1, 1]), QMatrix.identity(1), V,
                                     QPoly([1]), 1)


def _form_over_q(entries) -> HermitianFormOverE:
    nf = _rational_field()
    k = len(entries)
    gram = [[QPoly([entries[i]]) if i == j else QPoly.zero()
             for j in range(k)] for i in range(k)]
    return HermitianFormOverE(nf, gram)


def _sqrt2_field_trivial() -> NumberFieldWithInvolution:
    V = SeifertModule.from_blocks(1, QMatrix(2, 2, [[0, 2], [1, 0]]), [2])
    return NumberFieldWithInvolution(QPoly([-2, 0, 1]),
                                     QMatrix(2, 2, [[0, 2], [1, 0]]), V,
                                     QPoly([0, 1]), 2)


# ---------------------------------------------------------------------------
# Hilbert symbols
# ---------------------------------------------------------------------------

def test_hilbert_symbol_archimedean():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, 2, "inf") == 1


def test_hilbert_symbol_paper_value():
    assert hilbert_symbol(2, -3, 3) == -1


def test_hilbert_symbol_one_always_positive():
    rng = random.Random(51)
    for _ in range(20):
        b = 0
        while b == 0:
            b = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        p = rng.choice([2, 3, 5, 7, "inf"])
        assert hilbert_symbol(1, b, p) == 1


def test_hilbert_symbol_zero_rejected():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 3)


def test_hilbert_symbol_bimultiplicative():
    rng = random.Random(52)
    for _ in range(100):
        def nz():
            x = 0
            while x == 0:
                x = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
            return x
        a, a2, b = nz(), nz(), nz()
        p = rng.choice([2, 3, 5, 7, 11, "inf"])
        assert hilbert_symbol(a * a2, b, p) \
            == hilbert_symbol(a, b, p) * hilbert_symbol(a2, b, p)
        assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)


def _all_places(*values):
    from linkwitt.rational import factor_int
    places = {2}
    for v in values:
        v = rat(v)
        for n in (abs(v.numerator), v.denominator):
            if n > 1:
                places.update(factor_int(n))
    return sorted(places) + ["inf"]


def test_hilbert_product_formula():
    rng = random.Random(53)
    for _ in range(100):
        def nz():
            x = 0
            while x == 0:
                x = Fraction(rng.randint(-20, 20), rng.randint(1, 8))
            return x
        a, b = nz(), nz()
        prod = 1
        for p in _all_places(a, b):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


def _oracle_solvable_mod_p4(a: Fraction, b: Fraction, p: int) -> bool:
    """Exhaustive congruence oracle: primitive solution of z^2 = a x^2 + b y^2
    modulo p^4, with the unit coordinate normalized to 1."""
    q = p ** 4
    # clear squares so a, b become integers with valuation 0 or 1
    def normalize(x: Fraction) -> int:
        num, den = x.numerator, x.denominator
        v = 0
        while num % p == 0:
            num //= p
            v += 1
        while den % p == 0:
            den //= p
            v -= 1
        unit = num * pow(den, -1, q) % q
        return unit * pow(p, v % 2, q) % q
    A, B = normalize(a), normalize(b)
    squares = {z * z % q for z in range(q)}
    for y in range(q):
        if (A + B * y * y) % q in squares:    # x = 1
            return True
        if (B + A * y * y) % q in squares:    # y = 1
            return True
    bset = {B * y * y % q for y in range(q)}
    for x in range(q):
        if (1 - A * x * x) % q in bset:       # z = 1
            return True
    return False


def test_hilbert_symbol_against_congruence_oracle():
    rng = random.Random(54)
    for _ in range(40):
        def nz():
            x = 0
            while x == 0:
                x = Fraction(rng.randint(-15, 15), rng.randint(1, 6))
            return x
        a, b = nz(), nz()
        for p in (3, 5):
            assert (hilbert_symbol(a, b, p) == 1) \
                == _oracle_solvable_mod_p4(a, b, p)


# ---------------------------------------------------------------------------
# Hasse-Witt and norm classes
# ---------------------------------------------------------------------------

def test_hasse_all_ones():
    assert hasse_witt_over_q([1, 1]) == []
    assert hasse_witt_over_q([1, 1, 1, 1, 1]) == []


def test_hasse_negative_definite_plane():
    nontrivial = hasse_witt_over_q([-1, -1])
    assert sorted(str(v) for v, _ in nontrivial) == ["2", "inf"]


def test_hasse_composition_law():
    rng = random.Random(55)
    for _ in range(20):
        def nz():
            x = 0
            while x == 0:
                x = rng.randint(-9, 9)
            return Fraction(x)
        f1 = [nz() for _ in range(rng.randint(1, 3))]
        f2 = [nz() for _ in range(rng.randint(1, 3))]
        det1 = Fraction(1)
        for x in f1:
            det1 *= x
        det2 = Fraction(1)
        for x in f2:
            det2 *= x
        places = _all_places(det1, det2, *(f1 + f2))
        for p in places:
            def c_of(diag):
                c = 1
                for x, y in itertools.combinations(diag, 2):
                    c *= hilbert_symbol(x, y, p)
                return c
            assert c_of(f1 + f2) \
                == c_of(f1) * c_of(f2) * hilbert_symbol(det1, det2, p)


def test_norm_class_basics():
    assert norm_class_test_quadratic(1, -3) is True
    assert norm_class_test_quadratic(2, -3) is False
    assert norm_class_test_quadratic(4, -3) is True
    assert norm_class_test_quadratic(4, 5) is True


def test_norm_class_rejects_square_m():
    with pytest.raises(ValueError):
        norm_class_test_quadratic(2, 1)


def test_norm_times_norm_stays_norm():
    # 7 = 4 + 3 = N(2 + sqrt(-3)); multiplying a norm by it keeps the class
    assert norm_class_test_quadratic(7, -3) is True
    assert norm_class_test_quadratic(Fraction(7, 4), -3) is True
    assert norm_class_test_quadratic(2 * 7, -3) is False


# ---------------------------------------------------------------------------
# diagonalization and signatures
# ---------------------------------------------------------------------------

def test_diagonalize_identity():
    h = _form_over_q([1])
    diag, _ = diagonalize(h)
    assert diag == [QPoly.one()]


def test_diagonalize_hyperbolic_plane():
    nf = _rational_field()
    gram = [[QPoly.zero(), QPoly.one()], [QPoly.one(), QPoly.zero()]]
    h = HermitianFormOverE(nf, gram)
    diag, _ = diagonalize(h)
    vals = [d.coeff(0) for d in diag]
    assert vals[0] * vals[1] < 0    # congruent to <a, -a>


def test_diagonalize_singular_rejected():
    nf = _rational_field()
    gram = [[QPoly.zero(), QPoly.zero()], [QPoly.zero(), QPoly.one()]]
    with pytest.raises(ValueError):
        diagonalize(HermitianFormOverE(nf, gram))


def test_signatures_over_q():
    assert [s for _, s in signatures(_form_over_q([1, -1]))] == [0]
    assert [s for _, s in signatures(_form_over_q([1, 1, 1]))] == [3]


def test_signatures_real_quadratic_both_places():
    nf = _sqrt2_field_trivial()
    gram = [[QPoly.one(), QPoly.zero()], [QPoly.zero(), QPoly.one()]]
    h = HermitianFormOverE(nf, gram)
    sigs = signatures(h)
    assert [s for _, s in sigs] == [2, 2]
    # sqrt(2) itself is positive at one embedding and negative at the other
    gram2 = [[QPoly([0, 1]), QPoly.zero()], [QPoly.zero(), QPoly.one()]]
    sigs2 = signatures(HermitianFormOverE(nf, gram2))
    assert sorted(s for _, s in sigs2) == [0, 2]


def test_signature_of_worked_example_transport():
    Vp = worked_example_simple()
    phi = worked_example_simple_form()
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, phi.phi.scale(-1))
    nf = involution_from_form(nf, b)
    from linkwitt.endofield import morita_transport
    h = morita_transport(nf, [phi], b)
    sigs = signatures(h)
    assert [s for _, s in sigs] == [1]


def test_real_quadratic_nontrivial_involution_no_places():
    # Q(sqrt(2)) with the conjugation involution: the extension stays real,
    # so there are no signature places
    V = SeifertModule.from_blocks(1, QMatrix(2, 2, [[0, 2], [1, 0]]), [2])
    nf = NumberFieldWithInvolution(QPoly([-2, 0, 1]),
                                   QMatrix(2, 2, [[0, 2], [1, 0]]), V,
                                   QPoly([0, -1]), 1)
    gram = [[QPoly.one()]]
    assert signatures(HermitianFormOverE(nf, gram)) == []


# ---------------------------------------------------------------------------
# discriminants
# ---------------------------------------------------------------------------

def test_discriminant_worked_example_trivial():
    Vp = worked_example_simple()
    phi = worked_example_simple_form()
    nf = as_number_field(endomorphism_ring(Vp))
    b = SeifertForm(Vp, -1, phi.phi.scale(-1))
    nf = involution_from_form(nf, b)
    from linkwitt.endofield import morita_transport
    h = morita_transport(nf, [phi], b)
    disc = discriminant_class(h)
    assert disc["group"] == "norm-class"
    assert disc["trivial"] is True


def test_discriminant_two_twos_over_q():
    disc = discriminant_class(_form_over_q([2, 2]))
    assert disc["representative"] == "-1"
    assert disc["trivial"] is False


def test_discriminant_norm_scaling():
    nf_data = []
    for d in (5, 5 * 7):    # 7 is a norm from Q(sqrt(-3))
        V = worked_example_simple()
        phi = worked_example_simple_form()
        nf = as_number_field(endomorphism_ring(V))
        b = SeifertForm(V, -1, phi.phi.scale(-1))
        nf = involution_from_form(nf, b)
        gram = [[QPoly([d])]]
        disc = discriminant_class(HermitianFormOverE(nf, gram))
        nf_data.append(disc["trivial"])
    assert nf_data[0] == nf_data[1]


# ---------------------------------------------------------------------------
# full reports
# ---------------------------------------------------------------------------

def test_report_worked_example():
    rep = analyze_form(worked_example_form())
    assert rep.verdict == "nontrivial"
    assert len(rep.pieces) == 1
    p = rep.pieces[0]
    assert p.rank_mod2 == 1
    assert [s for _, s in p.signatures] == [1]
    assert p.discriminant["trivial"] is True
    assert p.status == "complete"


def test_report_metabolic_empty():
    f = worked_example_form()
    rep = analyze_form(f.direct_sum(f.negate()))
    assert rep.pieces == []
    assert rep.verdict == "witt-trivial"


def test_report_double_has_signature_two():
    f = worked_example_form()
    rep = analyze_form(f.direct_sum(f))
    assert len(rep.pieces) == 1
    assert [s for _, s in rep.pieces[0].signatures] == [2]
    assert rep.pieces[0].rank_mod2 == 0
    assert rep.verdict == "nontrivial"


def test_signature_parity_invariant():
    rng = random.Random(56)
    from support import random_form
    for _ in range(6):
        f = random_form(rng, rng.choice([1, 2]), rng.randint(1, 5),
                        rng.choice([1, -1]))
        rep = analyze_form(f)
        for p in rep.pieces:
            if p.signatures is None:
                continue
            for _, s in p.signatures:
                assert abs(s) <= p.multiplicity
                assert (s - p.multiplicity) % 2 == 0


def test_signatures_quartic_fixed_field():
    # E = Q[x]/(x^4 - 2) with the involution x -> -x: the fixed field is
    # Q(sqrt(2)); the extension complexifies at exactly one of its two real
    # places, so there is exactly one signature
    comp = QMatrix(4, 4, [[0, 0, 0, 2], [1, 0, 0, 0],
                          [0, 1, 0, 0], [0, 0, 1, 0]])
    V = SeifertModule.from_blocks(1, QMatrix.zeros(4, 4), [4])
    nf = NumberFieldWithInvolution(QPoly([-2, 0, 0, 0, 1]), comp, V,
                                   QPoly([0, -1]), 2)
    h = HermitianFormOverE(nf, [[QPoly.one()]])
    sigs = signatures(h)
    assert [s for _, s in sigs] == [1]
    disc = discriminant_class(h)
    assert disc["decidable"] is False


def test_discriminant_additivity_sign_convention():
    rng = random.Random(57)
    from linkwitt.rational import squarefree_part
    for _ in range(20):
        def nz():
            x = 0
            while x == 0:
                x = rng.randint(-9, 9)
            return Fraction(x)
        d1 = [nz() for _ in range(rng.randint(1, 3))]
        d2 = [nz() for _ in range(rng.randint(1, 3))]
        m1, m2 = len(d1), len(d2)

        def disc_of(diag):
            rep = Fraction(1)
            for x in diag:
                rep *= x
            if (len(diag) * (len(diag) - 1) // 2) % 2:
                rep = -rep
            return squarefree_part(rep)

        lhs = disc_of(d1 + d2)
        sign = Fraction(-1) ** (m1 * m2)
        rhs = squarefree_part(disc_of(d1) * disc_of(d2) * sign)
        assert lhs == rhs


def test_signatures_add_on_orthogonal_sums():
    f = worked_example_form()
    r1 = analyze_form(f)
    r3 = analyze_form(f.direct_sum(f).direct_sum(f))
    s1 = [s for _, s in r1.pieces[0].signatures]
    s3 = [s for _, s in r3.pieces[0].signatures]
    assert [3 * x for x in s1] == s3


def _diagonal_form_at_one_half(entries) -> SeifertForm:
    # s = 1/2 I with mu = 1: every symmetric form is compatible, End = Q
    n = len(entries)
    V = SeifertModule.from_blocks(1, QMatrix.identity(n).scale(Fraction(1, 2)),
                                  [n])
    return SeifertForm(V, 1, QMatrix(n, n, [[entries[i] if i == j else 0
                                             for j in range(n)]
                                            for i in range(n)]))


def test_hasse_of_two_hyperbolic_planes_is_witt_trivial():
    # <1,1,-2,-2> = 2H: c_2 = c_inf = -1, the value of two hyperbolic planes
    rep = analyze_form(_diagonal_form_at_one_half([1, 1, -2, -2]))
    assert [p.hasse for p in rep.pieces] == [[(2, -1), ("inf", -1)]]
    assert rep.verdict == "witt-trivial"


def test_hasse_of_anisotropic_form_is_nontrivial():
    # <1,1,-3,-3> has rank 4, signature 0 and square discriminant, but is
    # anisotropic: c_v = -1 at {3, inf} differs from 2H's {2, inf}
    rep = analyze_form(_diagonal_form_at_one_half([1, 1, -3, -3]))
    assert [p.hasse for p in rep.pieces] == [[(3, -1), ("inf", -1)]]
    assert rep.verdict == "nontrivial"


def _powers_minpoly(nf, beta):
    # reference: the first linear dependence among 1, beta, beta^2, ...
    from linkwitt.rational import coordinates
    from linkwitt.endofield import field_mul
    d = nf.degree
    vecs = [[rat(1)] + [rat(0)] * (d - 1)]
    current = QPoly.one()
    for _k in range(1, d + 1):
        current = field_mul(nf, current, beta)
        vecs.append([current.coeff(i) for i in range(d)])
        sol = coordinates(QMatrix.from_rows(vecs[:-1]).transpose(),
                          QMatrix.column(vecs[-1]))
        if sol is not None:
            return QPoly([-c for c in sol.col(0)] + [1])


def test_element_minpoly_against_powers():
    from linkwitt.rational import is_irreducible
    from linkwitt.wittinv import _element_minpoly
    rng = random.Random(0xE1E)
    V = SeifertModule.from_blocks(1, QMatrix.zeros(1, 1), [1])
    checked = 0
    while checked < 300:
        d = rng.randint(1, 6)
        minpoly = QPoly([rng.randint(-3, 3) for _ in range(d)] + [1])
        if not is_irreducible(minpoly):
            continue
        nf = NumberFieldWithInvolution(minpoly, QMatrix.identity(1), V)
        for _ in range(5):
            beta = QPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(d)])
            assert _element_minpoly(nf, beta) == _powers_minpoly(nf, beta)
            checked += 1


def test_fixed_field_primitive_keeps_the_former_choice():
    # the former search: the basis, pairwise sums, then a + w b, w = 2..5
    from linkwitt.endofield import field_reduce, fixed_field_basis
    from linkwitt.devissage import witt_reduce
    from linkwitt.wittinv import _fixed_field_primitive
    from support import knot_form

    def former(nf):
        basis = fixed_field_basis(nf)
        pairs = list(itertools.combinations(basis, 2))
        candidates = basis + [a + b for a, b in pairs]
        for w in range(2, 6):
            candidates += [a + b * w for a, b in pairs]
        for beta in candidates:
            beta = field_reduce(nf, beta)
            mp = _powers_minpoly(nf, beta)
            if mp.degree() == nf.fixed_field_degree:
                return beta, mp

    rng = random.Random(0xF1F)
    compared = 0
    for _ in range(20):
        for group in witt_reduce(knot_form(rng, 2)).groups:
            f = group.forms[0]
            b = SeifertForm(group.module, f.zeta, f.phi.scale(f.zeta))
            nf = as_number_field(endomorphism_ring(group.module,
                                                   assume_simple=True))
            nf = involution_from_form(nf, b)
            if nf.fixed_field_degree > 1:
                assert _fixed_field_primitive(nf) == former(nf)
                compared += 1
    assert compared >= 10


def test_signatures_of_the_trivial_involution_at_every_real_root():
    # the fixed field of the trivial involution is the field: one
    # signature per real root of the minimal polynomial, the sum of the
    # signs of the diagonal there, labelled by its isolating interval
    from linkwitt.rational import (is_irreducible, rat_str, real_root_data,
                                   sign_at_root)
    rng = random.Random(0x516)
    V = SeifertModule.from_blocks(1, QMatrix.zeros(1, 1), [1])
    degrees = []
    while len(degrees) < 60:
        d = 1 + len(degrees) % 4
        minpoly = QPoly([rng.randint(-4, 4) for _ in range(d)] + [1])
        if not is_irreducible(minpoly):
            continue
        nf = NumberFieldWithInvolution(minpoly, QMatrix.identity(1), V)
        diag = []
        while len(diag) < rng.randint(1, 4):
            d_i = QPoly([Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                         for _ in range(d)])
            if not d_i.is_zero():
                diag.append(d_i)
        k = len(diag)
        h = HermitianFormOverE(nf, [[diag[i] if i == j else QPoly.zero()
                                     for j in range(k)] for i in range(k)])
        _, intervals = real_root_data(minpoly)
        expected = [(f"({rat_str(a)},{rat_str(b)})",
                     sum(sign_at_root(x, minpoly, (a, b)) for x in diag))
                    for a, b in intervals]
        assert signatures(h) == expected
        assert signatures(h, diag) == expected
        degrees.append(d)
    assert sorted(set(degrees)) == [1, 2, 3, 4]
