import hashlib
import itertools
import json
import os
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from qtdelta import delta, jsonio, polyhedral, torus
from qtdelta.delta import (
    Character,
    DimReport,
    InitialFormResult,
    LocalConeReport,
    OneRelatorModule,
    check_dim_identity,
    check_induced,
    check_lemma31,
    delta_set,
    generic_for,
    initial_form,
    sample_delta_point,
    tc_delta,
)
from qtdelta.lattice import (Sublattice, Subspace, dot, matrix_rank,
                             null_space_int, row_times, rref, saturate)
from qtdelta.polyhedral import Cone, Fan, fan_dim, fan_equal

from oracles import (
    affine_sublattice_points,
    assert_canonical_element,
    delta_member_bruteforce,
    delta_set_pairwise,
    edge_graph_oracle,
    edge_rows_oracle,
    exposed_faces_bruteforce,
    extreme_rays_bruteforce,
    local_cone_eps_oracle,
    random_character,
    random_cocycle,
    random_relator,
    random_saturated_sublattice,
    random_unimodular,
)
from records import (assert_distinct_classes, assert_record, field_values,
                     one_changed)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.append(os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (the benchmark's seeded op streams)


def trivial_cocycle(n, s=1):
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    return torus.CocycleForm(n, (zero,) * s)


def tropical_line_module():
    r = (torus.QTorusElement.one(2, 1)
         + torus.QTorusElement.monomial(2, 1, (1, 0))
         + torus.QTorusElement.monomial(2, 1, (0, 1)))
    return OneRelatorModule(r, trivial_cocycle(2))


def module_from_support(support, n, s=1, cocycle=None):
    terms = {tuple(a): {(0,) * s: Fraction(1)} for a in support}
    return OneRelatorModule(torus.QTorusElement(n, s, terms),
                            cocycle or trivial_cocycle(n, s))


def random_module(rng, n=None, s=None, max_support=8):
    n = n or rng.choice([2, 3, 4])
    s = s or rng.choice([1, 2])
    return OneRelatorModule(random_relator(rng, n, s, max_support),
                            random_cocycle(rng, n, s))


GOLDEN_TROPICAL = Fan(2, [
    Cone.from_constraints(2, [(1, 0)], [(0, 1)]),
    Cone.from_constraints(2, [(0, 1)], [(1, 0)]),
    Cone.from_constraints(2, [(1, -1)], [(-1, 0)]),
])


class TestDeltaSet:
    def test_single_term_empty(self):
        m = module_from_support([(0, 0)], 2)
        assert delta_set(m).is_empty

    def test_two_terms_hyperplane(self):
        m = module_from_support([(0, 0), (1, 0)], 2)
        expected = Fan(2, [Cone.from_constraints(2, [(1, 0)])])
        assert fan_equal(delta_set(m), expected)

    def test_tropical_line_golden(self):
        fan = delta_set(tropical_line_module())
        assert fan == GOLDEN_TROPICAL
        assert fan_equal(fan, GOLDEN_TROPICAL)

    @pytest.mark.parametrize("seed", range(12))
    def test_membership_matches_min_predicate(self, seed):
        rng = random.Random(2000 + seed)
        m = random_module(rng)
        fan = delta_set(m)
        support = m.relator.support
        for _ in range(60):
            chi = random_character(rng, m.rank)
            assert fan.member(chi) == delta_member_bruteforce(support, chi)

    @pytest.mark.parametrize("seed", range(6))
    def test_translation_invariance(self, seed):
        rng = random.Random(2100 + seed)
        m = random_module(rng)
        shift = tuple(rng.randint(-2, 2) for _ in range(m.rank))
        mono = torus.QTorusElement.monomial(m.rank, m.relator.s, shift)
        translated = OneRelatorModule(
            torus.multiply(mono, m.relator, m.cocycle), m.cocycle)
        assert fan_equal(delta_set(m), delta_set(translated))

    @pytest.mark.parametrize("seed", range(6))
    def test_unimodular_equivariance(self, seed):
        rng = random.Random(2200 + seed)
        m = random_module(rng, n=3)
        U = random_unimodular(rng, 3, ops=6)
        mapped_terms = {}
        for a in m.relator.support:
            image = tuple(sum(a[i] * U[i][j] for i in range(3))
                          for j in range(3))
            mapped_terms[image] = m.relator.coefficient(a)
        relator = torus.QTorusElement(3, m.relator.s, mapped_terms)
        mapped = OneRelatorModule(relator, trivial_cocycle(3, m.relator.s))
        base = OneRelatorModule(m.relator, trivial_cocycle(3, m.relator.s))
        # delta of the mapped module is the preimage of delta under U
        assert fan_equal(delta_set(mapped),
                         polyhedral.preimage(delta_set(base), U, 3))

    def test_dimension_with_affine_span(self):
        rng = random.Random(33)
        for _ in range(10):
            m = random_module(rng, n=3)
            support = m.relator.support
            diffs = [tuple(a - b for a, b in zip(p, support[0]))
                     for p in support[1:]]
            from qtdelta.lattice import matrix_rank
            if matrix_rank(diffs) == 3:
                assert fan_dim(delta_set(m)) == 2


class TestInitialForm:
    def test_zero_character_translates(self):
        m = tropical_line_module()
        init = initial_form(m, Character.zero(2))
        assert init.kernel == Sublattice.full(2)
        assert init.relator.support == ((0, 0), (0, 1), (1, 0))

    def test_tie_pair(self):
        m = tropical_line_module()
        init = initial_form(m, Character((0, 1)))
        assert init.kernel.basis == ((1, 0),)
        assert init.relator.support == ((0,), (1,))

    def test_unique_minimum(self):
        m = tropical_line_module()
        init = initial_form(m, Character((1, 1)))
        assert init.kernel.basis == ((1, -1),)
        assert init.relator.support == ((0,),)

    def test_min_set_characterization(self):
        rng = random.Random(44)
        for _ in range(25):
            m = random_module(rng)
            chi = Character(random_character(rng, m.rank))
            init = initial_form(m, chi)
            in_delta = delta_set(m).member(chi.coords)
            assert (len(init.relator.support) >= 2) == in_delta
            assert tc_delta(m, chi).is_empty != in_delta
            # all support points of the initial form pair to zero under the
            # restricted character (chi vanishes on the kernel lattice)
            for y in init.relator.support:
                ambient = tuple(
                    sum(y[i] * init.kernel.basis[i][j]
                        for i in range(init.kernel.rank))
                    for j in range(m.rank))
                assert dot(chi.coords, ambient) == 0


class TestTcDelta:
    def test_tropical_cases(self):
        m = tropical_line_module()
        tc = tc_delta(m, Character((0, 1)))
        assert fan_equal(tc, Fan(1, [Cone.from_constraints(1, [(1,)])]))
        assert tc_delta(m, Character((1, 1))).is_empty
        tc0 = tc_delta(m, Character.zero(2))
        assert fan_equal(tc0, delta_set(m))


class TestLemma31:
    def test_tropical_vertex(self):
        m = tropical_line_module()
        rep = check_lemma31(m, Character((0, 1)))
        assert rep.equal
        assert fan_equal(rep.lhs,
                         Fan(2, [Cone.from_constraints(2, [(1, 0)])]))

    def test_outside_delta(self):
        m = tropical_line_module()
        rep = check_lemma31(m, Character((1, 1)))
        assert rep.equal and rep.lhs.is_empty and rep.rhs.is_empty

    def test_zero_character(self):
        m = tropical_line_module()
        rep = check_lemma31(m, Character.zero(2))
        assert rep.equal
        assert fan_equal(rep.lhs, delta_set(m))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances(self, seed):
        rng = random.Random(3000 + seed)
        m = random_module(rng)
        fan = delta_set(m)
        characters = [Character(random_character(rng, m.rank))
                      for _ in range(2)]
        for idx in range(min(2, len(fan.cones))):
            characters.append(sample_delta_point(m, idx, seed))
        for chi in characters:
            assert check_lemma31(m, chi).equal


class TestDimIdentity:
    def test_tropical_cases(self):
        m = tropical_line_module()
        rep = check_dim_identity(m, Character((0, 1)))
        assert (rep.chi_rank, rep.tc_dim, rep.delta_dim) == (1, 0, 1)
        assert rep.holds
        rep0 = check_dim_identity(m, Character.zero(2))
        assert (rep0.chi_rank, rep0.tc_dim, rep0.delta_dim) == (0, 1, 1)
        assert rep0.holds

    def test_outside_regular_part_rejected(self):
        m = tropical_line_module()
        with pytest.raises(ValueError):
            check_dim_identity(m, Character((1, 1)))

    @pytest.mark.parametrize("seed", range(15))
    def test_random_regular_samples(self, seed):
        rng = random.Random(3100 + seed)
        m = random_module(rng)
        fan = delta_set(m)
        if fan.is_empty:
            return
        top = fan_dim(fan)
        for idx, cone in enumerate(fan.cones):
            if cone.dim == top:
                chi = sample_delta_point(m, idx, seed)
                assert check_dim_identity(m, chi).holds


@pytest.mark.parametrize("check,message", [
    (lambda m: check_induced(m, Sublattice.full(3), Character((0, 1))),
     "sublattice ambient rank mismatch"),
    (lambda m: generic_for(m, Character((0, 1)), Subspace.full(3)),
     "subspace of wrong dimension"),
], ids=["induced", "generic"])
def test_ambient_dimension_checked(check, message):
    with pytest.raises(ValueError, match=message):
        check(tropical_line_module())


class TestInduced:
    def test_axis_example(self):
        m = module_from_support([(0, 0), (1, 0)], 2)
        lat = Sublattice.from_rows(2, [(1, 0)])
        rep = check_induced(m, lat, Character((0, 1)))
        assert rep.equal

    def test_restriction_outside_inner_delta(self):
        m = module_from_support([(0, 0), (1, 0)], 2)
        lat = Sublattice.from_rows(2, [(1, 0)])
        rep = check_induced(m, lat, Character((1, 5)))
        assert rep.equal and rep.lhs.is_empty and rep.rhs.is_empty

    def test_identity_embedding(self):
        rng = random.Random(55)
        m = random_module(rng, n=3)
        rep = check_induced(m, Sublattice.full(3), Character((1, 0, -1)))
        assert rep.equal

    def test_support_outside_rejected(self):
        m = module_from_support([(0, 0), (0, 1)], 2)
        with pytest.raises(ValueError):
            check_induced(m, Sublattice.from_rows(2, [(1, 0)]),
                          Character((0, 1)))

    def test_unsaturated_rejected(self):
        m = module_from_support([(0, 0), (2, 0)], 2)
        with pytest.raises(ValueError):
            check_induced(m, Sublattice.from_rows(2, [(2, 0)]),
                          Character((0, 1)))

    def test_equal_modules_equal_reports(self):
        support = [(0, 0, 0), (1, 0, 1), (0, 1, 0)]
        lat = Sublattice.from_rows(3, [(1, 0, 1), (0, 1, 0)])
        m, twin = (module_from_support(support, 3) for _ in range(2))
        assert m == twin and m is not twin
        chis = [Character((1, 0, 0)), Character((0, 1, -1))]
        reports = [check_induced(m, lat, chi) for chi in chis]
        twin_reports = [check_induced(twin, lat, chi) for chi in chis]
        assert reports == twin_reports

    def test_rejected_sublattice_raises_on_every_call(self):
        outside = module_from_support([(0, 0), (0, 1)], 2)
        unsaturated = module_from_support([(0, 0), (2, 0)], 2)
        for m, rows in ((outside, [(1, 0)]), (unsaturated, [(2, 0)])):
            lat = Sublattice.from_rows(2, rows)
            for chi in (Character((0, 1)), Character((0, 1)),
                        Character((1, 2))):
                with pytest.raises(ValueError):
                    check_induced(m, lat, chi)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_embeddings(self, seed):
        rng = random.Random(3200 + seed)
        n = rng.choice([2, 3, 4])
        rank = rng.randint(1, min(3, n))
        lat = random_saturated_sublattice(rng, n, rank)
        support = set()
        while len(support) < rng.randint(2, 5):
            coeffs = [rng.randint(-2, 2) for _ in range(rank)]
            support.add(tuple(sum(coeffs[i] * lat.basis[i][j]
                                  for i in range(rank)) for j in range(n)))
        s = rng.choice([1, 2])
        m = module_from_support(sorted(support), n, s,
                                random_cocycle(rng, n, s))
        for _ in range(2):
            chi = Character(random_character(rng, n))
            assert check_induced(m, lat, chi).equal


class TestSelfChecks:
    def test_initial_form_support_check(self, monkeypatch):
        monkeypatch.setattr(delta, "_in_coordinates", lambda *args: None)
        with pytest.raises(AssertionError,
                           match="initial form support escaped the kernel "
                                 "lattice"):
            initial_form(tropical_line_module(), Character((0, 1)))

    def test_kernel_intersection_check(self, monkeypatch):
        # the outer initial form is cached by a first call, and A1 is read
        # on every call, so only coordinates in the kernel lattice B of chi
        # are refused
        m = module_from_support([(0, 0), (1, 0)], 2)
        lat, chi = Sublattice.from_rows(2, [(1, 0)]), Character((0, 1))
        assert check_induced(m, lat, chi).equal
        kernel = initial_form(m, chi).kernel
        coordinates = Sublattice.coordinates
        monkeypatch.setattr(Sublattice, "coordinates", lambda self, v: (
            None if self is kernel else coordinates(self, v)))
        with pytest.raises(AssertionError,
                           match="kernel intersection escaped the kernel"):
            check_induced(m, lat, chi)


class TestGenericFor:
    def test_line_generic(self):
        m = tropical_line_module()
        space = Subspace.from_rows(2, [(0, 1)])
        assert generic_for(m, Character((0, 1)), space)

    def test_origin_full_space(self):
        m = tropical_line_module()
        assert generic_for(m, Character.zero(2), Subspace.full(2))

    def test_origin_line_not_generic(self):
        m = tropical_line_module()
        assert not generic_for(m, Character.zero(2),
                               Subspace.from_rows(2, [(1, 0)]))

    def test_character_outside_rejected(self):
        m = tropical_line_module()
        with pytest.raises(ValueError):
            generic_for(m, Character((0, 1)),
                        Subspace.from_rows(2, [(1, 0)]))


class TestSamplePoint:
    def test_ray_sample(self):
        m = tropical_line_module()
        fan = delta_set(m)
        for idx in range(len(fan.cones)):
            chi = sample_delta_point(m, idx, seed=0)
            cone = fan.cones[idx]
            assert cone.member(chi.coords)
            # strict on every non-vanishing facet
            for a in cone.canonical_hrep()[1]:
                value = sum(x * y for x, y in zip(a, chi.coords))
                vanishes = all(
                    sum(x * y for x, y in zip(a, g)) == 0
                    for g in list(cone.rays) + list(cone.lineality))
                assert value > 0 or vanishes

    def test_line_sample_nonzero(self):
        m = module_from_support([(0, 0), (1, 0)], 2)
        for seed in range(5):
            chi = sample_delta_point(m, 0, seed)
            assert any(chi.coords)

    def test_out_of_range(self):
        m = tropical_line_module()
        with pytest.raises(IndexError):
            sample_delta_point(m, 99, seed=0)

    def test_points_pinned(self):
        # digest of the points the pairwise Delta builder gave
        m = module_from_support([(0, 0, 0), (2, 0, 1), (0, 2, 0), (1, 1, 2),
                                 (0, 0, 3), (1, 0, 0)], 3)
        fan = delta_set(m)
        points = [[str(x) for x in sample_delta_point(m, i, 7 + i).coords]
                  for i in range(len(fan.cones))]
        assert len(points) == 11
        assert hashlib.sha256(json.dumps(points).encode()).hexdigest() == (
            "2991b91547b87b5f4cb523cefbd7312643ea679d7e58f3c71947eae3a902002a")

    def test_deterministic(self):
        m = tropical_line_module()
        a = sample_delta_point(m, 2, seed=11)
        b = sample_delta_point(m, 2, seed=11)
        assert a == b


def test_character_rejects_non_rationals():
    # a float is not read as its binary expansion
    for bad in (0.1, 0.5, 1.0, "1", "1/2", None):
        with pytest.raises(ValueError):
            Character((0, bad))
    # an exact coordinate keeps its type: integral characters stay ints
    for coords, types in [((1, Fraction(1, 2)), [int, Fraction]),
                          ((1, -2), [int, int])]:
        chi = Character(coords)
        assert chi.coords == coords
        assert [type(x) for x in chi.coords] == types


def test_character_rank():
    assert Character.zero(3).rank == 0
    assert Character((0, Fraction(1, 2), 0)).rank == 1
    assert Character((1, 1, 1)).rank == 1


def test_zero_relator_rejected():
    with pytest.raises(ValueError):
        OneRelatorModule(torus.QTorusElement.zero(2, 1), trivial_cocycle(2))


class TestEdgeCases:
    def test_rank_one_ambient(self):
        m = module_from_support([(0,), (1,), (3,)], 1)
        fan = delta_set(m)
        assert fan_equal(fan, Fan(1, [Cone.from_constraints(1, [(1,)])]))
        assert check_lemma31(m, Character((0,))).equal
        assert check_lemma31(m, Character((Fraction(2, 3),))).equal
        assert check_lemma31(m, Character((-1,))).equal

    def test_collinear_support_in_three_dims(self):
        # support on a line: every Delta cone carries a 2-dim lineality
        m = module_from_support([(0, 0, 0), (1, 1, 0), (2, 2, 0)], 3)
        fan = delta_set(m)
        assert fan_dim(fan) == 2
        for cone in fan.cones:
            assert len(cone.lineality) == 2
        for chiv in [(1, -1, 0), (0, 0, 1), (1, -1, 5),
                     (Fraction(1, 2), Fraction(-1, 2), Fraction(7, 3))]:
            assert check_lemma31(m, Character(chiv)).equal

    def test_large_denominator_characters(self):
        rng = random.Random(4500)
        m = random_module(rng, n=3)
        for _ in range(10):
            chi = Character(tuple(Fraction(rng.randint(-40, 40),
                                           rng.randint(7, 23))
                                  for _ in range(3)))
            assert check_lemma31(m, chi).equal

    def test_desk_scale_support(self):
        rng = random.Random(4600)
        support = set()
        while len(support) < 16:
            support.add(tuple(rng.randint(-4, 4) for _ in range(3)))
        m = module_from_support(sorted(support), 3)
        fan = delta_set(m)
        assert fan_dim(fan) == 2
        for _ in range(25):
            chi = random_character(rng, 3)
            assert fan.member(chi) == delta_member_bruteforce(
                sorted(support), chi)
        for idx in (0, len(fan.cones) // 2, len(fan.cones) - 1):
            chi = sample_delta_point(m, idx, seed=1)
            assert check_lemma31(m, chi).equal


class TestInitialFormTwist:
    def test_lift_times_base_monomial_recovers_minimal_part(self):
        # x^(a0) * (lifted initial form) must equal the chi-minimal part of
        # the relator, coefficient twists included
        rng = random.Random(4700)
        for _ in range(25):
            m = random_module(rng)
            chi = Character(random_character(rng, m.rank))
            init = initial_form(m, chi)
            minimum = min(dot(chi.coords, a) for a in m.relator.support)
            minimal_terms = {
                a: m.relator.coefficient(a)
                for a in m.relator.support if dot(chi.coords, a) == minimum}
            trimmed = torus.QTorusElement(m.rank, m.relator.s, minimal_terms)
            base = min(sorted(minimal_terms))
            lifted_terms = {}
            for y in init.relator.support:
                ambient = tuple(
                    sum(y[i] * init.kernel.basis[i][j]
                        for i in range(init.kernel.rank))
                    for j in range(m.rank))
                lifted_terms[ambient] = init.relator.coefficient(y)
            lifted = torus.QTorusElement(m.rank, m.relator.s, lifted_terms)
            mono = torus.QTorusElement.monomial(m.rank, m.relator.s, base)
            assert torus.multiply(mono, lifted, m.cocycle) == trimmed

    def test_restricted_cocycle_matches_ambient_products(self):
        rng = random.Random(4800)
        for _ in range(15):
            m = random_module(rng, n=3)
            chi = Character(random_character(rng, 3))
            init = initial_form(m, chi)
            B = init.kernel
            if B.rank < 2:
                continue
            y1 = tuple(rng.randint(-2, 2) for _ in range(B.rank))
            y2 = tuple(rng.randint(-2, 2) for _ in range(B.rank))
            a1 = tuple(sum(y1[i] * B.basis[i][j] for i in range(B.rank))
                       for j in range(3))
            a2 = tuple(sum(y2[i] * B.basis[i][j] for i in range(B.rank))
                       for j in range(3))
            assert init.cocycle.twist(y1, y2) == m.cocycle.twist(a1, a2)

    def test_relator_with_fewer_parameters_than_cocycle(self):
        # a relator over Q(q_1), or over Q, under a two-parameter twist is
        # the relator with its parameter exponents padded by zeros
        def padded(el, s):
            return torus.QTorusElement(el.rank, s, {
                a: {q + (0,) * (s - el.s): c
                    for q, c in el.coefficient(a).items()}
                for a in el.support})

        rng = random.Random(4900)
        for k in range(12):
            if k % 2:
                narrow = random_relator(rng, 2, 1)
            else:
                narrow = torus.QTorusElement(2, 0, {
                    a: {(): Fraction(rng.randint(1, 5), rng.randint(1, 3))}
                    for a in random_relator(rng, 2, 1).support})
            cocycle = random_cocycle(rng, 2, 2)
            m = OneRelatorModule(narrow, cocycle)
            wide = OneRelatorModule(padded(narrow, 2), cocycle)
            for chi in (Character((0, 1)), Character.zero(2),
                        Character(random_character(rng, 2))):
                init = initial_form(m, chi)
                assert init.relator.s == 2
                assert init == initial_form(wide, chi)
                report = check_lemma31(m, chi)
                assert report.equal and report == check_lemma31(wide, chi)


# Property tests of the three checkers on drawn instances: rank <= 3, at
# most six support points, drawn cocycles, coefficients and characters.  A
# failing identity shrinks to a minimal module and character.
PROPERTY = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)
GRID = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


def _vectors(n):
    return st.tuples(*[st.integers(-2, 2)] * n)


def _distinct_vectors(draw, n, min_size=1):
    """Between ``min_size`` and six distinct vectors of [-2, 2]^n."""
    k = min(draw(st.integers(min_size, 6)), 5 ** n)
    return draw(st.lists(_vectors(n), min_size=k, max_size=k, unique=True))


@st.composite
def _modules(draw, n, points):
    """A module of rank ``n`` whose support is the drawn ``points``, with
    drawn Laurent-monomial coefficients and a drawn cocycle."""
    s = draw(st.integers(1, 2))
    terms = {a: {draw(_vectors(s)): draw(GRID.filter(bool))}
             for a in points}
    forms = tuple(tuple(draw(_vectors(n)) for _ in range(n))
                  for _ in range(s))
    return OneRelatorModule(torus.QTorusElement(n, s, terms),
                            torus.CocycleForm(n, forms))


@st.composite
def _free_modules(draw, min_points=1):
    n = draw(st.integers(1, 3))
    return draw(_modules(n, _distinct_vectors(draw, n, min_points)))


def _characters(draw, module, cones=None):
    """The zero character, where the initial form is the whole relator, a
    grid point and, when there are cones to sample, a seeded
    relative-interior point of one of the indexed Delta cones (all of them
    by default)."""
    fan = delta_set(module)
    cones = range(len(fan.cones)) if cones is None else cones
    chis = [Character.zero(module.rank),
            Character(tuple(draw(GRID) for _ in range(module.rank)))]
    if cones:
        chis.append(sample_delta_point(module, draw(st.sampled_from(cones)),
                                       draw(st.integers(0, 1000))))
    return chis


class TestCheckerProperties:
    @PROPERTY
    @given(module=_free_modules(), data=st.data())
    def test_lemma31(self, module, data):
        for chi in _characters(data.draw, module):
            assert check_lemma31(module, chi).equal

    @PROPERTY
    @given(module=_free_modules(min_points=2), data=st.data())
    def test_dim_identity(self, module, data):
        fan = delta_set(module)
        top = [i for i, c in enumerate(fan.cones) if c.dim == fan_dim(fan)]
        star = polyhedral.delta_star(fan)
        for chi in _characters(data.draw, module, top):
            if star.member(chi.coords):
                assert check_dim_identity(module, chi).holds
            else:
                # only points of the regular part are accepted
                with pytest.raises(ValueError):
                    check_dim_identity(module, chi)

    @PROPERTY
    @given(data=st.data())
    def test_induced(self, data):
        n = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(_vectors(n), min_size=1, max_size=n))
        lattice = saturate(Sublattice.from_rows(n, rows))
        r = lattice.rank
        points = [tuple(sum(y[i] * lattice.basis[i][j] for i in range(r))
                        for j in range(n))
                  for y in _distinct_vectors(data.draw, r)]
        module = data.draw(_modules(n, points))
        for chi in _characters(data.draw, module):
            assert check_induced(module, lattice, chi).equal


POSITIVE = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6))


def _pullback_reference(module, chi):
    """The local-cone report built the long way, on a fresh module: the
    pullback of the initial form's Delta set, whatever chi is."""
    fresh = OneRelatorModule(module.relator, module.cocycle)
    init = initial_form(fresh, chi)
    lhs = polyhedral.local_cone(delta_set(fresh), chi.ray)
    rhs = polyhedral.preimage(delta_set(init), init.kernel.basis,
                              domain_dim=module.rank)
    return LocalConeReport(chi, lhs, rhs, fan_equal(lhs, rhs))


class TestOnePointFace:
    """At a character whose minimum over the support is attained once, the
    pullback side of Lemma 3.1 is the empty fan, read off the count of
    minimal support points with no initial form built."""

    @PROPERTY
    @given(module=_free_modules(), data=st.data())
    def test_against_the_initial_form(self, module, data):
        n = module.rank
        # signed powers of 5 separate the points of [-2, 2]^n, so this
        # character is minimal at one support point only
        powers = data.draw(st.permutations(range(n)))
        signs = data.draw(st.tuples(*[st.sampled_from((1, -1))] * n))
        generic = Character(tuple(data.draw(POSITIVE) * e * 5 ** k
                                  for e, k in zip(signs, powers)))
        values = [dot(generic.ray, a) for a in module.relator.support]
        assert values.count(min(values)) == 1
        fan = delta_set(module)
        directions = list(itertools.product(range(-1, 2), repeat=n))
        for chi in [generic] + _characters(data.draw, module):
            report = check_lemma31(module, chi)
            assert report == _pullback_reference(module, chi)
            assert report.equal
            for y in directions:
                expected = local_cone_eps_oracle(fan, chi.ray, y)
                assert report.lhs.member(y) == expected
                assert report.rhs.member(y) == expected

    @pytest.mark.parametrize("support,chi", [
        ([(2, -1)], (0, 0)),
        ([(2, -1)], (1, -3)),
        ([(0, 0), (1, 0), (0, 1)], (1, 1)),
        ([(0, 0), (1, 0), (0, 1)], (-1, 2)),
        ([(0, 0), (1, 0), (0, 1)], (Fraction(1, 2), Fraction(-3, 2))),
    ], ids=["monomial-zero", "monomial", "line-vertex-0", "line-vertex-x",
            "line-rational"])
    def test_off_delta_builds_no_initial_form(self, monkeypatch, support,
                                              chi):
        calls = []
        for owner, name in ((delta, "initial_form"), (delta, "kernel_lattice"),
                            (torus, "multiply")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)
            monkeypatch.setattr(owner, name, counted)
        m = module_from_support(support, 2)
        report = check_lemma31(m, Character(chi))
        assert report.equal and report.lhs.is_empty and report.rhs.is_empty
        assert report.rhs == Fan(2)
        assert calls == []
        assert m._initial_forms == {}
        # on the Delta set the initial form is built, so the count is live
        if len(support) > 1:
            assert check_lemma31(m, Character((0, 1))).equal
            assert "multiply" in calls and "kernel_lattice" in calls


class TestCharacterRay:
    """The Delta layer reads a character through its positive ray only."""

    @PROPERTY
    @given(module=_free_modules(), data=st.data())
    def test_scaling_invariance(self, module, data):
        lam = data.draw(POSITIVE)
        star = polyhedral.delta_star(delta_set(module))
        for chi in _characters(data.draw, module):
            scaled = Character(tuple(lam * x for x in chi.coords))
            # the scaled side runs on a fresh, equal module, so that it is
            # computed again rather than read from the first one's cache
            fresh = OneRelatorModule(module.relator, module.cocycle)
            a, b = initial_form(module, chi), initial_form(fresh, scaled)
            assert a is not b
            assert (a.relator, a.cocycle, a.kernel) == (b.relator, b.cocycle,
                                                        b.kernel)
            assert delta_set(a) == delta_set(b)
            reports = [check_lemma31(module, chi),
                       check_lemma31(fresh, scaled)]
            assert reports[0].lhs == reports[1].lhs
            assert reports[0].rhs == reports[1].rhs
            if star.member(chi.coords):
                dims = [check_dim_identity(module, chi),
                        check_dim_identity(fresh, scaled)]
                assert dims[0].holds
                assert (dims[0].tc_dim, dims[0].delta_dim) == \
                    (dims[1].tc_dim, dims[1].delta_dim)
                reports += dims
            else:
                with pytest.raises(ValueError):
                    check_dim_identity(fresh, scaled)
            # reports print chi as it was passed in, not its ray
            for report, c in zip(reports, [chi, scaled] * 2):
                printed = jsonio.to_json(report)["chi"]
                assert [jsonio.rational_from_json(x) for x in printed] \
                    == list(c.coords)

    def test_delta_layer_reads_integer_rays(self, monkeypatch):
        points = []
        local_cone, member = polyhedral.local_cone, Cone.member

        def recorded_local_cone(fan, point):
            points.append(point)
            return local_cone(fan, point)

        def recorded_member(self, point):
            points.append(point)
            return member(self, point)
        monkeypatch.setattr(polyhedral, "local_cone", recorded_local_cone)
        monkeypatch.setattr(Cone, "member", recorded_member)
        rng = random.Random(5150)
        chars = 0
        for _ in range(8):
            module = random_module(rng)
            fan = delta_set(module)
            top = [i for i, c in enumerate(fan.cones)
                   if c.dim == fan_dim(fan)]
            samples = [sample_delta_point(module, i, 7) for i in top[:2]]
            off = Character(random_character(rng, module.rank))
            for chi in samples + [off]:
                chars += any(type(x) is Fraction for x in chi.coords)
                check_lemma31(module, chi)
            for chi in samples:
                check_dim_identity(module, chi)
        assert chars and points
        assert all(type(x) is int for p in points for x in p)


def _strata(module):
    """One relative-interior character per face of conv(S) of dimension at
    least one, with the face's support points.  A face is an intersection
    of facet tight sets (conv(S) itself the empty one), and the sum of the
    inner normals of the facets through it lies in the relative interior of
    its normal cone, where the local cone and the initial form are those of
    the face."""
    support = module.relator.support
    facets = Cone.from_constraints(module.rank + 1, [],
                                   [(1,) + a for a in support]).rays
    tight = [frozenset(a for a in support if dot(f, (1,) + a) == 0)
             for f in facets]
    faces = {frozenset(support)}
    for on in tight:
        faces |= {on & face for face in faces}
    for face in sorted(faces, key=sorted):
        if len(face) >= 2:
            normals = [f[1:] for f, on in zip(facets, tight) if face <= on]
            yield face, Character(polyhedral._ray_sum(module.rank, normals))


class TestStrata:
    """Every combinatorial case of the three checkers: one character per
    face of the Newton polytope, on drawn and on benchmark modules."""

    @pytest.mark.parametrize("n,support,count", [
        (1, [(2,)], 0),
        (2, [(0, 0), (3, 1)], 1),
        (2, [(x, y) for x in range(3) for y in range(3)], 5),
        (3, [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 1), (0, 0, 3)], 16),
        (3, [(0, 0, 0), (1, 1, 0), (2, 2, 0)], 1),
    ])
    def test_faces(self, n, support, count):
        m = module_from_support(support, n)
        strata = list(_strata(m))
        assert len(strata) == count
        assert {face for face, _ in strata} == exposed_faces_bruteforce(
            m.relator.support, 4)

    @PROPERTY
    @given(module=_free_modules(min_points=2))
    def test_characters_expose_their_faces(self, module):
        strata = list(_strata(module))
        support = module.relator.support
        for face, chi in strata:
            low = min(dot(chi.coords, a) for a in support)
            assert face == {a for a in support if dot(chi.coords, a) == low}
        assert exposed_faces_bruteforce(support, 3) <= {
            face for face, _ in strata}

    @PROPERTY
    @given(module=_free_modules(min_points=2))
    def test_lemma31_and_dim_identity(self, module):
        for _, chi in _strata(module):
            assert check_lemma31(module, chi).equal
            assert check_dim_identity(module, chi).holds

    @pytest.mark.parametrize("seed", [101, 102])
    def test_local_cone_stream(self, seed):
        # one module per (rank, size) stratum of the benchmark stream, ranks
        # 2-4, where about half the local cones have more than one cone
        w = workloads.WORKLOADS["local-cone"](ROOT)
        for i in range(len(w.strata)):
            m = workloads._module(w.make_op(seed, i))
            for _, chi in _strata(m):
                assert check_lemma31(m, chi).equal, i
                assert check_dim_identity(m, chi).holds, i

    @PROPERTY
    @given(data=st.data())
    def test_induced(self, data):
        n = data.draw(st.integers(1, 3))
        rows = data.draw(st.lists(_vectors(n), min_size=1, max_size=n))
        lattice = saturate(Sublattice.from_rows(n, rows))
        r = lattice.rank
        points = [tuple(sum(y[i] * lattice.basis[i][j] for i in range(r))
                        for j in range(n))
                  for y in _distinct_vectors(data.draw, r, 2)]
        module = data.draw(_modules(n, points))
        for _, chi in _strata(module):
            assert check_induced(module, lattice, chi).equal


# The Delta fan is built from the edges of the Newton polytope; the oracle
# builds it by definition, one tie cone per support pair.
def _keys(fan):
    return [c.key for c in fan.cones]


@st.composite
def _flat_supports(draw):
    """Rank 1-5 and 1-30 distinct points of an affine flat of dimension
    1..rank: points of [-3, 3]^d mapped by x -> p + M x (dependent columns
    of M give a smaller flat; d = 1 gives collinear points)."""
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, n))
    size = min(draw(st.integers(1, 30)), 7 ** d)
    local = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d),
                          min_size=size, max_size=size, unique=True))
    if d == n:
        return n, sorted(local)
    base = draw(st.tuples(*[st.integers(-3, 3)] * n))
    cols = [draw(st.tuples(*[st.integers(-2, 2)] * n)) for _ in range(d)]
    return n, sorted({tuple(base[i] + sum(x[j] * cols[j][i] for j in range(d))
                            for i in range(n)) for x in local})


@st.composite
def _sublattice_supports(draw):
    """Rank 2-5 and 2-10 points of a translate of a rank-d sublattice,
    d < rank, that is not a coordinate subspace: points of [-2, 2]^d padded
    by zeros, mapped by a random unimodular matrix and translated.  Draws
    whose columns off the pivots of their lineality's RREF are the leading
    columns are dropped, so the hull is built in a complement that the
    leading coordinates do not give."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(1, n - 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    support = affine_sublattice_points(rng, n, d, draw(st.integers(2, 10)))
    diffs = [tuple(a - b for a, b in zip(p, support[0])) for p in support]
    pivots = rref(null_space_int(diffs, n))[1]
    free = [j for j in range(n) if j not in pivots]
    assume(free != list(range(len(free))))
    return n, support


class TestEdgeConstruction:
    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(drawn=_flat_supports())
    def test_matches_pairwise_oracle(self, drawn):
        n, support = drawn
        m = module_from_support(support, n)
        assert _keys(delta_set(m)) == _keys(delta_set_pairwise(m))

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(drawn=_sublattice_supports())
    def test_supports_in_a_sublattice(self, drawn):
        # the fan equals the pairwise one, and each edge cone at its first
        # vertex u carries the rows w - u of u's neighbours w and the row
        # of its edge, as TestEdgeConesOnTheGraph checks on wide supports
        n, support = drawn
        m = module_from_support(support, n)
        fan = delta_set(m)
        assert fan == delta_set_pairwise(m)
        oracle, neighbours = edge_graph_oracle(n, support)
        assert sorted(c.key for c in fan.cones) == sorted(oracle)
        for cone in fan.cones:
            i, edge = oracle[cone.key]
            rows = polyhedral._norm_constraints(
                [tuple(a - b for a, b in zip(support[w], support[i]))
                 for w in neighbours[i]], n)
            assert sorted(cone._raw_ineq) == sorted(rows)
            assert cone._raw_eq == edge._raw_eq

    @pytest.mark.parametrize("n,support", [
        (1, [(2,)]),
        (3, [(0, 1, 2)]),
        (2, [(0, 0), (3, 1)]),
        (4, [(0, 0, 0, 0), (1, -1, 2, 0)]),
        (3, [(0, 0, 0), (1, 2, 3), (2, 4, 6), (-1, -2, -3)]),
        (4, [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 1),
             (2, 1, 0, 1)]),
    ])
    def test_degenerate_supports(self, n, support):
        m = module_from_support(support, n)
        assert _keys(delta_set(m)) == _keys(delta_set_pairwise(m))

    @pytest.mark.parametrize("workload", ["local-cone", "wide-support"])
    @pytest.mark.parametrize("seed", [101, 102])
    def test_benchmark_streams(self, workload, seed):
        w = workloads.WORKLOADS[workload](ROOT)
        for i in range(len(w.strata) * w.cycles):
            m = workloads._module(w.make_op(seed, i))
            assert _keys(delta_set(m)) == _keys(delta_set_pairwise(m)), i

    @pytest.mark.parametrize("workload", ["local-cone", "wide-support"])
    @pytest.mark.parametrize("seed", [101, 102])
    def test_benchmark_double_descriptions(self, monkeypatch, workload,
                                           seed):
        # every double description the stream's first op runs, replayed
        # against subset enumeration
        calls = []
        dd = polyhedral._dd_pointed

        def recorded(constraints, dim):
            calls.append((constraints, dim))
            return dd(constraints, dim)
        monkeypatch.setattr(polyhedral, "_dd_pointed", recorded)
        w = workloads.WORKLOADS[workload](ROOT)
        w.run(w.make_op(seed, 0))
        assert calls
        for constraints, dim in calls:
            assert dd(constraints, dim) == extreme_rays_bruteforce(
                constraints, dim)

    @pytest.mark.parametrize("workload", ["local-cone", "wide-support"])
    @pytest.mark.parametrize("seed", [101, 102])
    def test_benchmark_edge_fans(self, monkeypatch, workload, seed):
        # every edge fan the stream's first op builds, replayed against the
        # tie cones cut out by the rows over all support points
        calls = []
        edge_normal_fan = polyhedral.edge_normal_fan

        def recorded(dim, points):
            calls.append((dim, points))
            return edge_normal_fan(dim, points)
        monkeypatch.setattr(polyhedral, "edge_normal_fan", recorded)
        w = workloads.WORKLOADS[workload](ROOT)
        w.run(w.make_op(seed, 0))
        assert calls
        for dim, points in calls:
            fan = edge_normal_fan(dim, points)
            assert {c.key: (c._raw_eq, c._raw_ineq) for c in fan.cones} \
                == edge_rows_oracle(dim, points)

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(drawn=_flat_supports())
    def test_edge_cones_carry_their_dimension(self, drawn):
        # each tie cone of an edge has dimension n - 1, set when it is built,
        # so the top dimension and the regular part take no rank
        n, support = drawn
        fan = delta_set(module_from_support(support, n))
        with mock.patch.object(polyhedral, "matrix_rank",
                               side_effect=AssertionError("rank computed")):
            assert polyhedral.delta_star(fan) == fan
            assert fan_dim(fan) == (n - 1 if len(support) > 1 else -1)
        for cone in fan.cones:
            assert cone.dim == matrix_rank(cone.rays + cone.lineality)

    def test_facet_check(self, monkeypatch):
        dd = polyhedral._dd_pointed

        def negated(*args):
            return tuple(tuple(-x for x in f) for f in dd(*args))
        monkeypatch.setattr(polyhedral, "_dd_pointed", negated)
        with pytest.raises(AssertionError, match="cuts off a point"):
            delta_set(tropical_line_module())

    def test_no_containment_prune(self, monkeypatch):
        # cones of one dimension from a polyhedral fan need no prune, and
        # neither does a subset of a Fan's cones
        def refuse(self, other):
            raise AssertionError("containment prune ran")
        monkeypatch.setattr(Cone, "contains_cone", refuse)
        m = module_from_support([(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 1),
                                 (0, 0, 3)], 3)
        fan = delta_set(m)
        assert len(fan.cones) == 9
        assert polyhedral.delta_star(fan) == fan
        with pytest.raises(AssertionError, match="prune ran"):
            Fan(3, fan.cones)


class TestDeltaCache:
    def test_same_object(self):
        m = tropical_line_module()
        assert delta_set(m) is delta_set(m)

    def test_equal_modules_do_not_share(self):
        a, b = tropical_line_module(), tropical_line_module()
        assert a == b and a is not b
        assert delta_set(a) == delta_set(b)
        assert delta_set(a) is not delta_set(b)

    def test_initial_form_once_per_ray(self):
        m = tropical_line_module()
        chi = Character((1, -2))
        forms = [initial_form(m, Character(tuple(k * x for x in chi.coords)))
                 for k in (1, 2, Fraction(3, 7))]
        assert forms[0] is forms[1] is forms[2]
        assert initial_form(m, Character((1, 2))) is not forms[0]
        # the checkers at one character share it and its Delta fan
        assert tc_delta(m, chi) is delta_set(forms[0])
        sample = sample_delta_point(m, 0, 3)
        built = []
        fan = polyhedral.edge_normal_fan

        def counted(*args):
            built.append(args)
            return fan(*args)
        with mock.patch.object(polyhedral, "edge_normal_fan", counted):
            check_lemma31(m, sample)
            check_dim_identity(m, sample)
            tc_delta(m, Character(tuple(5 * x for x in sample.coords)))
            check_induced(m, Sublattice.full(2), sample)
        # the module's fan was built before; one fan for the shared initial
        # form, one for the induced law's inner module
        assert len(built) == 2

    def test_distinct_modules_sharing_a_ray(self):
        # equal rays, different relators: a cache keyed by the ray alone
        # would hand the second module the first one's initial form
        a = module_from_support([(0, 0), (1, 0), (0, 1)], 2)
        b = module_from_support([(0, 0), (1, 0), (0, 2)], 2)
        chi = Character((1, 0))
        init_a = initial_form(a, chi)
        init_b = initial_form(b, Character((2, 0)))
        assert init_a.relator.support == ((0,), (1,))
        assert init_b.relator.support == ((0,), (2,))
        for m, init in ((a, init_a), (b, init_b)):
            fresh = OneRelatorModule(m.relator, m.cocycle)
            assert initial_form(fresh, chi) == init

    def test_wrong_length_rejected_before_lookup(self):
        m = tropical_line_module()
        initial_form(m, Character((1, 1)))
        # even a planted entry under the wrong-length ray is never read
        m._initial_forms[(1, 1, 1)] = initial_form(m, Character((1, 1)))
        for chi in (Character((1, 1, 1)), Character((1,))):
            with pytest.raises(ValueError, match="wrong length"):
                initial_form(m, chi)

    def test_internal_elements_are_canonical(self):
        # the trimmed relator, the coordinates in a lattice basis, the
        # initial form and the module inside a sublattice are built through
        # the trusted constructors; each must equal its validated
        # construction
        rng = random.Random(4242)
        built = []
        multiply = torus.multiply

        def assert_validated(module):
            c = module.cocycle
            values = [module.relator, torus.CocycleForm(c.rank, c.forms)]
            rows = [row for m in c.forms for row in m]
            if isinstance(module, InitialFormResult):
                k = module.kernel
                values.append(Sublattice(k.ambient_rank, k.basis))
                rows += k.basis
            assert module == type(module)(*values)
            assert all(type(x) is int for row in rows for x in row)

        def recorded(alpha, beta, cocycle):
            built.extend((alpha, beta))
            return multiply(alpha, beta, cocycle)
        trusted = OneRelatorModule._trusted.__func__
        inner_modules = []

        def recorded_inner(cls, *values):
            # check_induced builds the module inside A1 through this
            module = trusted(cls, *values)
            if cls is OneRelatorModule:
                inner_modules.append(module)
            return module
        with mock.patch.object(torus, "multiply", recorded), \
                mock.patch.object(OneRelatorModule, "_trusted",
                                  classmethod(recorded_inner)):
            for _ in range(30):
                module = random_module(rng)
                n = module.rank
                for chi in (Character(random_character(rng, n)),
                            Character.zero(n)):
                    init = initial_form(module, chi)
                    assert_validated(init)
                    built.extend((init.relator, module.relator))
                lattice = random_saturated_sublattice(rng, n,
                                                      rng.randint(1, n))
                inside = {}
                for _ in range(4):
                    coeffs = [rng.randint(-2, 2) for _ in lattice.basis]
                    a = tuple(row_times(coeffs, lattice.basis))
                    inside[a] = {(0,): Fraction(1, 2)}
                element = torus.QTorusElement(n, 1, inside)
                coords = delta._in_coordinates(element, lattice)
                assert coords.support == tuple(sorted(
                    lattice.coordinates(a) for a in inside))
                built.append(coords)
                outer = OneRelatorModule(element, module.cocycle)
                inner_modules.clear()
                check_induced(outer, lattice,
                              Character(random_character(rng, n)))
                inner, = inner_modules
                assert inner.relator == coords
                assert_validated(inner)
        assert len(built) > 150
        for element in built:
            assert_canonical_element(element)

    def test_initial_form_caches_its_own_fan(self):
        m = tropical_line_module()
        init = initial_form(m, Character.zero(2))
        assert isinstance(init, OneRelatorModule)
        fan = delta_set(init)
        assert fan is delta_set(init)
        assert fan is not delta_set(m)
        assert fan == delta_set_pairwise(init)

    @pytest.mark.parametrize("n,support,edges", [
        (1, [(2,)], 0),
        (2, [(0, 0), (1, 0), (0, 1)], 3),
        (3, [(0, 0, 0), (1, 0, 0), (0, 2, 0), (1, 1, 1), (0, 0, 3)], 9),
        (2, [(x, y) for x in range(3) for y in range(3)], 4),
    ])
    def test_one_double_description(self, monkeypatch, n, support, edges):
        # the facets of conv(S) give every edge's tie cone its rays, and
        # every edge shares one lineality: one kernel per fan, whose
        # complement holds the double description; the rows of the edge
        # cones come from one primitive direction per edge and are never
        # normalised again.  A one-point support has no edge and runs none
        # of these.
        calls, kernels, norms = [], [], []
        dd, kernel = polyhedral._dd_pointed, polyhedral.null_space_int
        norm = polyhedral._norm_constraints

        def counted(*args):
            calls.append(args)
            return dd(*args)

        def counted_kernel(*args):
            kernels.append(args)
            return kernel(*args)

        def counted_norm(*args):
            norms.append(args)
            return norm(*args)
        monkeypatch.setattr(polyhedral, "_dd_pointed", counted)
        monkeypatch.setattr(polyhedral, "null_space_int", counted_kernel)
        monkeypatch.setattr(polyhedral, "_norm_constraints", counted_norm)
        fan = delta_set(module_from_support(support, n))
        assert len(fan.cones) == edges
        assert len(calls) == int(len(support) > 1)
        assert len(kernels) == int(len(support) > 1)
        assert norms == []


class TestRecords:
    @PROPERTY
    @given(st.lists(GRID, min_size=1, max_size=4))
    def test_character(self, coords):
        coords = tuple(coords)
        moved = (coords[0] + 1,) + coords[1:]
        assert_record(Character, (coords,), [(moved,)])

    @PROPERTY
    @given(st.data())
    def test_module_initial_form_and_reports(self, data):
        module = data.draw(_free_modules())
        relator, cocycle = module.relator, module.cocycle
        n = module.rank
        bumped = torus.CocycleForm(n, tuple(
            ((m[0][0] + 1,) + m[0][1:],) + m[1:] for m in cocycle.forms))
        assert_record(OneRelatorModule, (relator, cocycle),
                      [(relator + relator, cocycle), (relator, bumped)])

        chi = data.draw(st.sampled_from(_characters(data.draw, module)))
        init = initial_form(module, chi)
        args = field_values(init)
        other = (Sublattice.zero(n) if init.kernel.basis
                 else Sublattice.full(n))
        assert_record(InitialFormResult, args, [args[:2] + (other,)])
        assert_distinct_classes(init, OneRelatorModule(*args[:2]))

        report = check_lemma31(module, chi)
        assert type(report) is LocalConeReport
        args = field_values(report)
        assert_record(LocalConeReport, args, one_changed(args))

    @PROPERTY
    @given(st.lists(GRID, min_size=1, max_size=3),
           st.tuples(*[st.integers(-1, 4)] * 3))
    def test_dim_report(self, coords, dims):
        args = (Character(tuple(coords)),) + dims
        assert_record(DimReport, args, one_changed(args))
