import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtdelta.lattice import (Sublattice, Subspace, saturate,
                             vec_primitive_signed)
from qtdelta.symplectic import (AlternatingMapQ, SymplecticBase, center,
                                is_abelian, verify_symplectic_base)
from qtdelta.torus import (
    CocycleForm,
    QTorusElement,
    Theorem42Report,
    center_lattice,
    cocycle_image,
    commutator_form,
    monomial_inverse,
    multiply,
    verify_theorem42,
)

from oracles import (assert_canonical_element, block_conditions_oracle,
                     pairing_double_sum, random_cocycle, random_relator,
                     random_unimodular, restrict_double_sum, rref_fraction)
from records import assert_record, one_changed

J2 = AlternatingMapQ(2, 1, (((0, 1), (-1, 0)),))


def shift_qexp(element, shift):
    terms = {}
    for exp in element.support:
        coeff = element.coefficient(exp)
        terms[exp] = {tuple(q + t for q, t in zip(qe, shift)): v
                      for qe, v in coeff.items()}
    return QTorusElement(element.rank, element.s, terms)


def coefficient_types(element):
    return {type(v) for exp in element.support
            for v in element.coefficient(exp).values()}


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
        # integral coefficients stay ints; a Fraction only where one was
        # given
        assert coefficient_types(multiply(x + x, y, c)) == {int}
        half = QTorusElement.monomial(2, 1, (0, 1), coeff=Fraction(1, 2))
        assert coefficient_types(multiply(x + x, half, c)) == {Fraction}

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
            assert coefficient_types(inv) \
                == coefficient_types(multiply(inv, x, c)) == {int}


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


class TestCenter:
    def test_nondegenerate(self):
        assert center_lattice(J2).rank == 0

    def test_zero_form(self):
        z = AlternatingMapQ(2, 1, (((0, 0), (0, 0)),))
        assert center_lattice(z) == Sublattice.full(2)

    def test_block_kernel(self):
        m = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
        assert center_lattice(AlternatingMapQ(3, 1, (m,))).basis \
            == ((0, 0, 1),)

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
        assert is_abelian(J2, Subspace.from_rows(2, lat.basis))
        assert cocycle_image(J2, lat).rank == 0

    def test_full_not_abelian(self):
        assert not is_abelian(J2, Subspace.full(2))

    @pytest.mark.parametrize("seed", range(10))
    def test_commutative_iff_rank_zero(self, seed):
        rng = random.Random(110 + seed)
        n, s = rng.randint(2, 4), rng.randint(1, 2)
        phi = commutator_form(random_cocycle(rng, n, s))
        rows = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        lat = Sublattice.from_rows(n, rows)
        assert is_abelian(phi, Subspace.from_rows(n, lat.basis)) \
            == (cocycle_image(phi, lat).rank == 0)


def two_block_form():
    m1 = [[0] * 4 for _ in range(4)]
    m2 = [[0] * 4 for _ in range(4)]
    m1[0][1], m1[1][0] = 1, -1
    m2[2][3], m2[3][2] = 1, -1
    return AlternatingMapQ(4, 2, (tuple(map(tuple, m1)),
                                  tuple(map(tuple, m2))))


def twisted_same_line_form():
    m1 = [[0] * 4 for _ in range(4)]
    m1[0][1], m1[1][0] = 1, -1
    m1[2][3], m1[3][2] = 1, -1
    m2 = [[0] * 4 for _ in range(4)]
    return AlternatingMapQ(4, 2, (tuple(map(tuple, m1)),
                                  tuple(map(tuple, m2))))


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
        phi = AlternatingMapQ(2, 1, (((0, 1), (-1, 0)),))
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
        phi = AlternatingMapQ(4, 2, (tuple(map(tuple, m1)),
                                     tuple(map(tuple, m2))))
        report = verify_theorem42(phi, [BLOCK1, BLOCK2])
        assert report.rank_one_images
        assert not report.distinct_image_lines


def wedge_z(n, s, *pairs):
    """Integral form on Z^n with phi(e_i, e_j) = w in Z^s for each
    (i, j, w)."""
    mats = [[[0] * n for _ in range(n)] for _ in range(s)]
    for i, j, w in pairs:
        for m, x in zip(mats, w):
            m[i][j] += x
            m[j][i] -= x
    return AlternatingMapQ(n, s, tuple(tuple(map(tuple, m)) for m in mats))


def units(n, *cols):
    return Sublattice.from_rows(n, [tuple(int(i == c) for i in range(n))
                                    for c in cols])


class TestBlockConditionsOracle:
    """Both block verifiers against ``oracles.block_conditions_oracle``,
    on one planted failure of each condition and on seeded families."""

    @staticmethod
    def check(form, parts):
        commute, oracle = block_conditions_oracle(form,
                                                  [p.basis for p in parts])
        images = [img for _, img in oracle]
        report = verify_theorem42(form, parts)
        assert report.pairwise_commute == commute
        assert report.trivial_centres == all(ok for ok, _ in oracle)
        assert report.rank_one_images == all(len(img) == 1 for img in images)
        assert report.distinct_image_lines \
            == (len(set(images)) == len(images))
        assert [rref_fraction(line)[0] for line in report.image_lines] \
            == images
        lines = [img[0] for img in images if len(img) == 1]
        blocks = [Subspace.from_rows(form.n, p.basis) for p in parts]
        stored = [vec_primitive_signed(img[0]) if len(img) == 1
                  else (0,) * form.s for img in images]
        base = verify_symplectic_base(
            form, SymplecticBase(center(form), blocks, stored))
        assert base.blocks_orthogonal == commute
        assert base.blocks_nondegenerate == all(ok and len(img) == 1
                                                for ok, img in oracle)
        assert base.lines_distinct == (len(set(lines)) == len(lines))
        assert base.lines_consistent == (len(lines) == len(parts))
        return report, base

    def test_nonzero_cross_pairing(self):
        # the first and the last of three blocks fail to commute
        form = wedge_z(6, 3, (0, 1, (1, 0, 0)), (2, 3, (0, 1, 0)),
                       (4, 5, (0, 0, 1)), (0, 5, (1, 1, 0)))
        report, base = self.check(form, [units(6, 0, 1), units(6, 2, 3),
                                         units(6, 4, 5)])
        assert not report.pairwise_commute and not base.blocks_orthogonal
        assert report.trivial_centres and report.rank_one_images
        assert report.distinct_image_lines and base.blocks_nondegenerate

    def test_degenerate_block_with_rank_one_image(self):
        form = wedge_z(5, 2, (0, 1, (1, 0)), (3, 4, (0, 1)))
        report, base = self.check(form, [units(5, 0, 1, 2), units(5, 3, 4)])
        assert not report.trivial_centres and not base.blocks_nondegenerate
        assert report.pairwise_commute and report.rank_one_images
        assert report.distinct_image_lines and report.finite_index

    def test_rank_two_image(self):
        report, base = self.check(two_block_form(), [Sublattice.full(4)])
        assert report.image_lines == (((1, 0), (0, 1)),)
        assert not report.rank_one_images and not base.blocks_nondegenerate
        assert report.trivial_centres and not base.lines_consistent

    def test_empty_part(self):
        report, base = self.check(J2, [Sublattice.full(2),
                                       Sublattice.zero(2)])
        assert report.image_lines == (((1,),), ())
        assert report.trivial_centres and not report.rank_one_images
        assert report.pairwise_commute and base.blocks_orthogonal
        assert not base.blocks_nondegenerate

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_families(self, seed):
        # sparse forms on Z^n, split along a seeded unimodular basis
        rng = random.Random(600 + seed)
        n, s = rng.randint(2, 5), rng.randint(1, 2)
        pairs = [(i, j, tuple(rng.choice((-1, 0, 0, 1)) for _ in range(s)))
                 for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.5]
        form = wedge_z(n, s, *pairs)
        rows = random_unimodular(rng, n, ops=rng.randint(0, 4))
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n - 1)))
        self.check(form, [Sublattice.from_rows(n, rows[a:b])
                          for a, b in zip([0] + cuts, cuts + [n])])


def test_antisymmetry_validated():
    with pytest.raises(ValueError):
        AlternatingMapQ(2, 1, (((0, 1), (1, 0)),))
    with pytest.raises(ValueError):
        AlternatingMapQ(2, 1, (((0, 1.0), (-1.0, 0)),))
    # entries must be integral rationals; none is truncated to an int
    for bad in (Fraction(1, 2), Fraction(3, 2), 1.0):
        with pytest.raises(ValueError):
            CocycleForm(2, (((0, bad), (0, 0)),))
        with pytest.raises(ValueError):
            QTorusElement(1, 1, {(bad,): {(1,): 1}})
        with pytest.raises(ValueError):
            QTorusElement(1, 1, {(1,): {(bad,): 1}})
        with pytest.raises(ValueError):
            monomial_inverse((bad, 1), 1, CocycleForm(2, (((0, 1), (0, 0)),)))
    two = Fraction(4, 2)
    forms = commutator_form(CocycleForm(2, (((0, two), (0, 0)),))).forms
    assert forms == (((0, 2), (-2, 0)),)
    assert all(type(x) is int for m in forms for row in m for x in row)
    assert QTorusElement(1, 1, {(two,): {(two,): 1}}) \
        == QTorusElement.monomial(1, 1, (2,), qexp=(2,))


def test_element_rejects_float_coefficients():
    # a float is not read as its binary expansion
    for bad in (0.1, 0.5, 1.0):
        with pytest.raises(ValueError):
            QTorusElement(1, 1, {(0,): {(0,): bad}})
        with pytest.raises(ValueError):
            QTorusElement.monomial(1, 1, (0,), coeff=bad)
    assert QTorusElement.monomial(1, 1, (1,), coeff=Fraction(1, 2)) \
        .coefficient((1,)) == {(0,): Fraction(1, 2)}


def test_commutator_form_is_an_integral_map():
    """The commutator form is an AlternatingMapQ with int matrices whose
    pairing matches the double sum."""
    rng = random.Random(31)
    for _ in range(10):
        n, s = rng.randint(2, 4), rng.randint(1, 2)
        form = commutator_form(random_cocycle(rng, n, s))
        assert type(form) is AlternatingMapQ and (form.n, form.s) == (n, s)
        assert all(type(x) is int for m in form.forms for row in m
                   for x in row)
        for _ in range(5):
            a, b = ([rng.randint(-3, 3) for _ in range(n)] for _ in "ab")
            assert form.pairing(a, b) == pairing_double_sum(form, a, b)


def test_saturate_image_line():
    lat = cocycle_image(AlternatingMapQ(2, 1, (((0, 2), (-2, 0)),)),
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


@st.composite
def _element_terms(draw):
    rank, s = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * rank)
    qexps = st.tuples(*[st.integers(-2, 2)] * s)
    coeffs = st.dictionaries(qexps, st.integers(-5, 5).filter(bool),
                             min_size=1, max_size=3)
    return rank, s, draw(st.dictionaries(exps, coeffs, max_size=4))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(drawn=_element_terms(), data=st.data())
def test_element_equality_ignores_representation(drawn, data):
    rank, s, terms = drawn
    el = QTorusElement(rank, s, terms)
    # the same terms shuffled, as Fractions, with zero coefficients added
    variant = {}
    for exp, coeff in data.draw(st.permutations(list(terms.items()))):
        items = data.draw(st.permutations(list(coeff.items())))
        variant[exp] = {q: Fraction(c, 1) for q, c in items}
        variant[exp].setdefault((3,) * s, 0)
    variant[(3,) * rank] = {(0,) * s: 0}
    same = QTorusElement(rank, s, variant)
    assert el == same and hash(el) == hash(same)
    # one coefficient changed
    changed = {exp: dict(c) for exp, c in terms.items()}
    exp = data.draw(st.sampled_from(sorted(changed) + [(3,) * rank]))
    coeff = changed.setdefault(exp, {(0,) * s: 0})
    q = data.draw(st.sampled_from(sorted(coeff)))
    coeff[q] += data.draw(st.integers(-5, 5).filter(bool))
    assert el != QTorusElement(rank, s, changed)


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
        alt = commutator_form(cocycle).restrict(lattice.basis)
        assert alt.forms == tuple(
            restrict_double_sum(m, lattice.basis)
            for m in commutator_form(cocycle).forms)


# Internal producers build their results through the trusted constructors
# ``QTorusElement._trusted`` and, for ``CocycleForm.restrict``,
# ``Record._trusted``, which check nothing; each must hand them exactly
# what the validating constructor would keep.

@st.composite
def _producer_inputs(draw):
    rank, s = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    exps = st.tuples(*[st.integers(-2, 2)] * rank)
    values = st.one_of(st.integers(-3, 3).filter(bool),
                       st.builds(Fraction, st.integers(-3, 3).filter(bool),
                                 st.integers(2, 3)))

    def element(width):
        qexps = st.tuples(*[st.integers(-1, 1)] * width)
        coeffs = st.dictionaries(qexps, values, min_size=1, max_size=3)
        return QTorusElement(rank, width, draw(
            st.dictionaries(exps, coeffs, max_size=4)))

    entries = st.integers(-2, 2)
    cocycle = CocycleForm(rank, tuple(
        tuple(tuple(draw(entries) for _ in range(rank)) for _ in range(rank))
        for _ in range(draw(st.integers(0, s)))))
    return (element(s), element(s), element(draw(st.integers(0, s))),
            cocycle)


PRODUCERS = settings(max_examples=150, derandomize=True, database=None,
                     deadline=None)


@PRODUCERS
@given(drawn=_producer_inputs())
def test_producers_hand_canonical_terms(drawn):
    # gamma may have fewer parameters than alpha and the cocycle
    alpha, beta, gamma, cocycle = drawn
    outputs = [multiply(alpha, beta, cocycle), multiply(gamma, alpha, cocycle),
               multiply(alpha, gamma, cocycle), alpha + beta, alpha - alpha,
               -alpha, alpha - beta]
    for exp in alpha.support[:2] + gamma.support[:1]:
        unit = QTorusElement.monomial(alpha.rank, gamma.s, exp)
        inverse = monomial_inverse(exp, gamma.s, cocycle)
        assert_canonical_element(inverse)
        outputs.append(multiply(inverse, unit, cocycle))
        assert outputs[-1] == QTorusElement.one(alpha.rank, inverse.s)
    for out in outputs:
        assert_canonical_element(out)
    assert (alpha - alpha)._terms == {}


def test_multiply_drops_cancelled_terms_and_coefficients():
    c = CocycleForm(1, (((0,),),))
    one = QTorusElement.one(1, 1)
    x = QTorusElement.monomial(1, 1, (1,))
    qx = QTorusElement.monomial(1, 1, (1,), qexp=(1,))
    # (1 + x)(1 - x) = 1 - x^2: the x term cancels entirely
    out = multiply(one + x, one - x, c)
    assert out._terms == {(0,): {(0,): 1}, (2,): {(0,): -1}}
    assert_canonical_element(out)
    # (1 + x + qx)(1 - x): the q^0 x coefficient cancels, q^1 x stays
    out = multiply(one + x + qx, one - x, c)
    assert out._terms[(1,)] == {(1,): 1}
    assert_canonical_element(out)
    half = QTorusElement.monomial(1, 1, (1,), coeff=Fraction(1, 2))
    assert multiply(half, x + x, c) - multiply(x, x, c) \
        == QTorusElement.zero(1, 1)


@PRODUCERS
@given(drawn=_producer_inputs(), data=st.data())
def test_restrict_hands_canonical_forms(drawn, data):
    cocycle = drawn[-1]
    n = cocycle.rank
    rows = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                              min_size=1, max_size=n))
    lattice = Sublattice.from_rows(n, rows)
    out = cocycle.restrict(lattice)
    assert out == CocycleForm(lattice.rank, out.forms)
    assert out.rank == lattice.rank and out.s == cocycle.s
    for m in out.forms:
        assert len(m) == out.rank
        assert all(len(row) == out.rank for row in m)
        assert all(type(x) is int for row in m for x in row)


@pytest.mark.parametrize("build,message", [
    (lambda: QTorusElement(1, 1, {(0,): {(0, 0): 1}}),
     "parameter exponent of wrong length"),
], ids=["qexp"])
def test_lengths_checked(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_monomial_inverse_checks_its_exponent():
    c = CocycleForm(2, ())
    with pytest.raises(ValueError):
        monomial_inverse((1, 0, 0), 1, c)
    with pytest.raises(ValueError):
        monomial_inverse((Fraction(1, 2), 0), 1, c)


def _square_forms(n, s):
    return st.lists(st.tuples(*[st.tuples(*[st.integers(-3, 3)] * n)] * n),
                    min_size=s, max_size=s).map(tuple)


class TestRecords:
    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 2))
    def test_cocycle_form(self, data, n, s):
        forms = data.draw(_square_forms(n, s))
        bumped = (((forms[0][0][0] + 1,) + forms[0][0][1:],)
                  + forms[0][1:],) + forms[1:]
        zero = tuple((0,) * n for _ in range(n))
        assert_record(CocycleForm, (n, forms),
                      [(n, bumped), (n, forms + (zero,))])

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.tuples(*[st.booleans()] * 5,
                     st.lists(st.tuples(st.integers(-2, 2)),
                              max_size=2).map(tuple)))
    def test_theorem42_report(self, args):
        assert_record(Theorem42Report, args, one_changed(args))


# ---------------------------------------------------------------------------
# boundary checks: each case is a call on bad input and its ValueError

BAD_INPUTS = {
    "add-rank": (lambda: QTorusElement.one(2, 1) + QTorusElement.one(3, 1),
                 "rank mismatch"),
    "add-parameters": (lambda: QTorusElement.one(2, 1)
                       + QTorusElement.one(2, 2), "rank mismatch"),
    "cocycle-image": (lambda: cocycle_image(J2, Sublattice.full(3)),
                      "ambient rank mismatch"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_boundary_raises(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
