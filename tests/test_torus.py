import random
from fractions import Fraction

import pytest

from qtdelta.lattice import Sublattice, saturate
from qtdelta.torus import (
    AlternatingFormZ,
    CocycleForm,
    QTorusElement,
    center_lattice,
    chi_min,
    cocycle_image,
    commutator_form,
    is_commutative,
    monomial_inverse,
    multiply,
    verify_theorem42,
)

from oracles import random_cocycle, random_relator, restrict_double_sum

J2 = AlternatingFormZ(2, (((0, 1), (-1, 0)),))


def shift_qexp(element, shift):
    terms = {}
    for exp in element.support:
        coeff = element.coefficient(exp)
        terms[exp] = {tuple(q + t for q, t in zip(qe, shift)): v
                      for qe, v in coeff.items()}
    return QTorusElement(element.rank, element.s, terms)


class TestMultiply:
    def test_identity(self):
        rng = random.Random(1)
        for _ in range(20):
            n, s = rng.randint(1, 3), rng.randint(1, 2)
            c = random_cocycle(rng, n, s)
            alpha = random_relator(rng, n, s, max_support=4)
            one = QTorusElement.one(n, s)
            assert multiply(alpha, one, c) == alpha
            assert multiply(one, alpha, c) == alpha

    def test_basic_twist(self):
        c = CocycleForm(2, (((0, 1), (0, 0)),))
        x = QTorusElement.monomial(2, 1, (1, 0))
        y = QTorusElement.monomial(2, 1, (0, 1))
        assert multiply(x, y, c) == QTorusElement.monomial(2, 1, (1, 1),
                                                           qexp=(1,))
        assert multiply(y, x, c) == QTorusElement.monomial(2, 1, (1, 1))

    def test_rank_mismatch(self):
        c = CocycleForm(2, (((0, 0), (0, 0)),))
        with pytest.raises(ValueError):
            multiply(QTorusElement.one(3, 1), QTorusElement.one(3, 1), c)

    @pytest.mark.parametrize("seed", range(10))
    def test_associative_distributive(self, seed):
        rng = random.Random(40 + seed)
        n, s = rng.randint(1, 3), rng.randint(1, 2)
        c = random_cocycle(rng, n, s)
        a = random_relator(rng, n, s, max_support=4)
        b = random_relator(rng, n, s, max_support=4)
        d = random_relator(rng, n, s, max_support=4)
        assert multiply(multiply(a, b, c), d, c) \
            == multiply(a, multiply(b, d, c), c)
        assert multiply(a, b + d, c) \
            == multiply(a, b, c) + multiply(a, d, c)

    def test_monomial_inverse_two_sided(self):
        rng = random.Random(9)
        for _ in range(20):
            n, s = rng.randint(1, 3), rng.randint(1, 2)
            c = random_cocycle(rng, n, s)
            exp = tuple(rng.randint(-3, 3) for _ in range(n))
            x = QTorusElement.monomial(n, s, exp)
            inv = monomial_inverse(exp, s, c)
            one = QTorusElement.one(n, s)
            assert multiply(inv, x, c) == one
            assert multiply(x, inv, c) == one


class TestCommutatorForm:
    def test_symmetric_gives_zero(self):
        c = CocycleForm(2, (((1, 2), (2, 3)),))
        assert commutator_form(c).forms == (((0, 0), (0, 0)),)

    def test_upper_triangular(self):
        c = CocycleForm(2, (((0, 1), (0, 0)),))
        assert commutator_form(c).forms == (((0, 1), (-1, 0)),)

    @pytest.mark.parametrize("seed", range(10))
    def test_monomial_commutator_identity(self, seed):
        rng = random.Random(60 + seed)
        n, s = rng.randint(1, 4), rng.randint(1, 3)
        c = random_cocycle(rng, n, s)
        phi = commutator_form(c)
        a = tuple(rng.randint(-3, 3) for _ in range(n))
        b = tuple(rng.randint(-3, 3) for _ in range(n))
        xa = QTorusElement.monomial(n, s, a)
        xb = QTorusElement.monomial(n, s, b)
        ab = multiply(xa, xb, c)
        ba = multiply(xb, xa, c)
        assert ab == shift_qexp(ba, phi.pairing(a, b))


class TestChiMin:
    def test_single_monomial(self):
        x = QTorusElement.monomial(2, 1, (2, -1))
        assert chi_min(x, (Fraction(1), Fraction(3))) == -1

    def test_two_terms(self):
        alpha = QTorusElement.one(2, 1) + QTorusElement.monomial(2, 1, (1, 0))
        assert chi_min(alpha, (2, 0)) == 0

    def test_three_terms(self):
        alpha = (QTorusElement.one(2, 1)
                 + QTorusElement.monomial(2, 1, (1, 0))
                 + QTorusElement.monomial(2, 1, (0, 1)))
        assert chi_min(alpha, (-1, 3)) == -1

    def test_zero_error(self):
        with pytest.raises(ValueError):
            chi_min(QTorusElement.zero(2, 1), (1, 0))


class TestCenter:
    def test_nondegenerate(self):
        assert center_lattice(J2).rank == 0

    def test_zero_form(self):
        z = AlternatingFormZ(2, (((0, 0), (0, 0)),))
        assert center_lattice(z) == Sublattice.full(2)

    def test_block_kernel(self):
        m = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
        assert center_lattice(AlternatingFormZ(3, (m,))).basis == ((0, 0, 1),)

    @pytest.mark.parametrize("seed", range(8))
    def test_largest_commuting_sublattice(self, seed):
        # brute force: every small vector pairing to zero with everything
        # lies in the centre, and centre vectors pair to zero with all
        rng = random.Random(80 + seed)
        n, s = rng.randint(2, 3), rng.randint(1, 2)
        c = random_cocycle(rng, n, s)
        phi = commutator_form(c)
        centre = center_lattice(phi)
        basis_vectors = [tuple(1 if i == j else 0 for j in range(n))
                         for i in range(n)]

        def px(v):
            return any(any(phi.pairing(v, e)) for e in basis_vectors)

        def walk(prefix):
            if len(prefix) == n:
                v = tuple(prefix)
                assert centre.contains_vector(v) == (not px(v))
                return
            for x in range(-2, 3):
                walk(prefix + [x])

        walk([])


class TestImages:
    def test_full_symplectic(self):
        assert cocycle_image(J2, Sublattice.full(2)).basis == ((1,),)

    def test_rank_one_sublattice_abelian(self):
        lat = Sublattice.from_rows(2, [(1, 0)])
        assert is_commutative(J2, lat)
        assert cocycle_image(J2, lat).rank == 0

    def test_full_not_abelian(self):
        assert not is_commutative(J2, Sublattice.full(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_commutative_iff_rank_zero(self, seed):
        rng = random.Random(110 + seed)
        n, s = rng.randint(2, 4), rng.randint(1, 2)
        phi = commutator_form(random_cocycle(rng, n, s))
        rows = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        lat = Sublattice.from_rows(n, rows)
        assert is_commutative(phi, lat) \
            == (cocycle_image(phi, lat).rank == 0)


def two_block_form():
    m1 = [[0] * 4 for _ in range(4)]
    m2 = [[0] * 4 for _ in range(4)]
    m1[0][1], m1[1][0] = 1, -1
    m2[2][3], m2[3][2] = 1, -1
    return AlternatingFormZ(4, (tuple(map(tuple, m1)), tuple(map(tuple, m2))))


def twisted_same_line_form():
    m1 = [[0] * 4 for _ in range(4)]
    m1[0][1], m1[1][0] = 1, -1
    m1[2][3], m1[3][2] = 1, -1
    m2 = [[0] * 4 for _ in range(4)]
    return AlternatingFormZ(4, (tuple(map(tuple, m1)), tuple(map(tuple, m2))))


BLOCK1 = Sublattice.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
BLOCK2 = Sublattice.from_rows(4, [(0, 0, 1, 0), (0, 0, 0, 1)])


class TestTheorem42:
    def test_two_distinct_blocks_pass(self):
        report = verify_theorem42(two_block_form(), [BLOCK1, BLOCK2])
        assert report.passed
        assert report.image_lines == (((1, 0),), ((0, 1),))

    def test_same_line_fails_condition_four_only(self):
        report = verify_theorem42(twisted_same_line_form(), [BLOCK1, BLOCK2])
        assert report.pairwise_commute
        assert report.trivial_centres
        assert report.rank_one_images
        assert not report.distinct_image_lines
        assert not report.passed

    def test_single_block(self):
        phi = AlternatingFormZ(2, (((0, 1), (-1, 0)),))
        report = verify_theorem42(phi, [Sublattice.full(2)])
        assert report.passed

    def test_dependent_parts_rejected(self):
        with pytest.raises(ValueError):
            verify_theorem42(two_block_form(),
                             [BLOCK1, Sublattice.from_rows(4, [(1, 0, 0, 0)])])

    def test_saturation_used_for_lines(self):
        # images (2,0) and (3,0) are commensurable, hence not distinct
        m1 = [[0] * 4 for _ in range(4)]
        m1[0][1], m1[1][0] = 2, -2
        m1[2][3], m1[3][2] = 3, -3
        m2 = [[0] * 4 for _ in range(4)]
        phi = AlternatingFormZ(4, (tuple(map(tuple, m1)),
                                   tuple(map(tuple, m2))))
        report = verify_theorem42(phi, [BLOCK1, BLOCK2])
        assert report.rank_one_images
        assert not report.distinct_image_lines


def test_antisymmetry_validated():
    with pytest.raises(ValueError):
        AlternatingFormZ(2, (((0, 1), (1, 0)),))


def test_saturate_image_line():
    lat = cocycle_image(AlternatingFormZ(2, (((0, 2), (-2, 0)),)),
                        Sublattice.full(2))
    assert saturate(lat).basis == ((1,),)


def test_multiply_pads_smaller_parameter_fields():
    c = CocycleForm(2, (((0, 1), (0, 0)), ((0, 0), (0, 0))))  # s = 2
    a = QTorusElement.monomial(2, 1, (1, 0), qexp=(3,))       # s = 1
    b = QTorusElement.monomial(2, 2, (0, 1))
    out = multiply(a, b, c)
    assert out.s == 2
    assert out == QTorusElement.monomial(2, 2, (1, 1), qexp=(4, 0))


def test_element_accessors_return_copies():
    el = QTorusElement.monomial(2, 1, (1, 0), coeff=Fraction(1, 2))
    terms = el.terms
    terms[(1, 0)][(0,)] = Fraction(99)
    assert el.coefficient((1, 0)) == {(0,): Fraction(1, 2)}
    coeff = el.coefficient((1, 0))
    coeff[(5,)] = Fraction(1)
    assert el.coefficient((1, 0)) == {(0,): Fraction(1, 2)}


def test_restrict_matches_double_sum():
    rng = random.Random(7)
    for _ in range(10):
        n, s = rng.randint(1, 4), rng.randint(1, 2)
        cocycle = random_cocycle(rng, n, s)
        rows = [tuple(2 * rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        lattice = Sublattice.from_rows(n, rows)
        restricted = cocycle.restrict(lattice)
        assert restricted.forms == tuple(
            restrict_double_sum(m, lattice.basis) for m in cocycle.forms)
        alt = commutator_form(cocycle).restrict(lattice)
        assert alt.forms == tuple(
            restrict_double_sum(m, lattice.basis)
            for m in commutator_form(cocycle).forms)
