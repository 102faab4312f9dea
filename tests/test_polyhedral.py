import itertools
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from qtdelta import polyhedral
from qtdelta.delta import OneRelatorModule, delta_set
from qtdelta.jsonio import cone_to_json, fan_from_json
from qtdelta.lattice import Subspace, dot, matrix_rank, vec_primitive
from qtdelta.polyhedral import (
    Cone,
    Fan,
    carrier_spaces,
    delta_star,
    fan_dim,
    fan_equal,
    local_cone,
    preimage,
)

from oracles import (
    canonical_hrep_oracle,
    dyadic_eps_agreement,
    edge_graph_oracle,
    edge_rows_oracle,
    extreme_rays_bruteforce,
    fans_distinguishable,
    local_cone_eps_oracle,
    random_cocycle,
    random_relator,
)


def halfplane():
    return Cone.from_constraints(2, inequalities=[(1, 0)])


def quadrant(sx=1, sy=1):
    return Cone.from_constraints(2, inequalities=[(sx, 0), (0, sy)])


def tropical_line():
    return Fan(2, [
        Cone.from_constraints(2, [(1, 0)], [(0, 1)]),
        Cone.from_constraints(2, [(0, 1)], [(1, 0)]),
        Cone.from_constraints(2, [(1, -1)], [(-1, 0)]),
    ])


def random_hrep(rng, n):
    """Drawn (equalities, inequalities) of a cone in Q^n."""
    eqs = [tuple(rng.randint(-2, 2) for _ in range(n))
           for _ in range(rng.randint(0, 1))]
    ineqs = [tuple(rng.randint(-2, 2) for _ in range(n))
             for _ in range(rng.randint(0, 3))]
    return eqs, ineqs


def random_cone(rng, n):
    return Cone.from_constraints(n, *random_hrep(rng, n))


def random_fan(rng, n, max_cones=3):
    return Fan(n, [random_cone(rng, n)
                   for _ in range(rng.randint(1, max_cones))])


class TestConeBasics:
    def test_full_space_dim(self):
        assert Cone.from_constraints(2).dim == 2

    def test_ray_dim(self):
        ray = Cone.from_constraints(2, [(0, 1)], [(1, 0)])
        assert ray.dim == 1
        assert ray.rays == ((1, 0),)

    def test_origin(self):
        o = Cone.from_constraints(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert o.dim == 0 and o.rays == () and o.lineality == ()

    def test_membership(self):
        q = quadrant()
        assert q.member((0, 0))
        assert q.member((Fraction(1, 2), 3))
        assert not q.member((-1, 2))

    def test_canonical_equality_across_representations(self):
        # {x = 0} given as an equality or as two opposite inequalities
        a = Cone.from_constraints(2, equalities=[(1, 0)])
        b = Cone.from_constraints(2, inequalities=[(1, 0), (-1, 0)])
        assert a == b and hash(a) == hash(b)
        assert a.canonical_hrep() == b.canonical_hrep()

    def test_redundant_constraints_removed(self):
        c = Cone.from_constraints(2, inequalities=[(1, 0), (2, 0), (1, 1),
                                                   (1, 2), (0, 1)])
        assert set(c.canonical_hrep()[1]) == {(1, 0), (0, 1)}

    def test_generator_roundtrip(self):
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(1, 4)
            c = Cone.from_constraints(
                n,
                [tuple(rng.randint(-2, 2) for _ in range(n))
                 for _ in range(rng.randint(0, 1))],
                [tuple(rng.randint(-2, 2) for _ in range(n))
                 for _ in range(rng.randint(0, 3))])
            back = Cone.from_constraints(n, *c.canonical_hrep())
            assert back == c
            assert fan_equal(Fan(n, [back]), Fan(n, [c]))

    def test_relint_point_strict(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.randint(1, 4)
            c = Cone.from_constraints(
                n, [], [tuple(rng.randint(-2, 2) for _ in range(n))
                        for _ in range(rng.randint(1, 4))])
            p = c.relint_point()
            assert c.member(p)
            for a in c.canonical_hrep()[1]:
                value = sum(x * y for x, y in zip(a, p))
                vanishes = all(
                    sum(x * y for x, y in zip(a, g)) == 0
                    for g in list(c.rays) + list(c.lineality))
                assert (value > 0) or vanishes


class TestFanBasics:
    def test_dims(self):
        assert fan_dim(Fan(2, [Cone.from_constraints(2)])) == 2
        ray = Cone.from_constraints(2, [(0, 1)], [(1, 0)])
        assert fan_dim(Fan(2, [ray])) == 1
        assert fan_dim(Fan(2)) == -1

    def test_mixed_dim_fan(self):
        line = Cone.from_constraints(2, [(1, 0)])
        ray = Cone.from_constraints(2, [(1, -1)], [(-1, 0)])
        f = Fan(2, [line, ray])
        assert fan_dim(f) == 1

    def test_containment_pruning(self):
        hp = halfplane()
        origin = Cone.from_constraints(2, [(1, 0), (0, 1)])
        f = Fan(2, [hp, quadrant(), origin])
        assert f.cones == (hp,)

    def test_deterministic_order(self):
        f1 = tropical_line()
        f2 = Fan(2, list(reversed(tropical_line().cones)))
        assert f1 == f2


class TestLocalCone:
    def test_apex_identity(self):
        rng = random.Random(7)
        for _ in range(15):
            f = random_fan(rng, rng.randint(1, 3))
            assert fan_equal(local_cone(f, (0,) * f.ambient_dim), f)

    def test_outside_empty(self):
        f = tropical_line()
        assert local_cone(f, (1, 2)).is_empty

    def test_tropical_vertex(self):
        f = tropical_line()
        lc = local_cone(f, (Fraction(0), Fraction(1)))
        assert fan_equal(lc, Fan(2, [Cone.from_constraints(2, [(1, 0)])]))

    def test_epsilon_oracle_bulk(self):
        # 10^4 (fan, x, y) triples in dims <= 4 against the exact oracle
        rng = random.Random(424242)
        triples = 0
        while triples < 10_000:
            n = rng.randint(1, 4)
            f = random_fan(rng, n)
            for _ in range(50):
                x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(n))
                if rng.random() < 0.6 and f.cones:
                    cone = rng.choice(f.cones)
                    x = cone.relint_point()
                y = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                          for _ in range(n))
                lc = local_cone(f, x)
                if f.member(x):
                    assert lc.member((0,) * n)
                assert lc.member(y) == local_cone_eps_oracle(f, x, y)
                triples += 1

    @pytest.mark.parametrize("seed", range(12))
    def test_epsilon_oracle_agreement(self, seed):
        rng = random.Random(900 + seed)
        n = rng.randint(1, 4)
        f = random_fan(rng, n)
        checks = 0
        while checks < 40:
            if f.cones and rng.random() < 0.7:
                cone = rng.choice(f.cones)
                x = [Fraction(0)] * n
                for g in cone.rays:
                    c = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                    x = [a + c * b for a, b in zip(x, g)]
                for g in cone.lineality:
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    x = [a + c * b for a, b in zip(x, g)]
                x = tuple(x)
            else:
                x = tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                          for _ in range(n))
            y = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                      for _ in range(n))
            claimed = local_cone(f, x).member(y)
            assert claimed == local_cone_eps_oracle(f, x, y)
            assert dyadic_eps_agreement(f, x, y, claimed)
            checks += 1


class TestPreimage:
    def test_origin_pullback(self):
        pre = preimage(Fan(1, [Cone.from_constraints(1, [(1,)])]), [(1, 0)], 2)
        assert fan_equal(pre, Fan(2, [Cone.from_constraints(2, [(1, 0)])]))

    def test_full_and_empty(self):
        full = Fan(1, [Cone.from_constraints(1)])
        assert fan_equal(preimage(full, [(1, 0)], 2),
                         Fan(2, [Cone.from_constraints(2)]))
        assert preimage(Fan(1), [(1, 0)], 2).is_empty

    def test_argument_check(self):
        fan = Fan(2, [quadrant()])
        with pytest.raises(ValueError):
            preimage(fan, [(1, 0, 0)], 3)
        with pytest.raises(ValueError):
            preimage(fan, [(1, 0, 0), (0, 1, 0, 0)], 3)

    def test_empty_matrix(self):
        full = preimage(Fan(0, [Cone.from_constraints(0)]), [], 3)
        assert full == Fan(3, [Cone.from_constraints(3)])
        assert preimage(Fan(0), [], 3) == Fan(3)

    def test_commutes_with_union(self):
        rng = random.Random(11)
        P = [(1, 0, 1), (0, 1, -1)]
        for _ in range(10):
            f1 = random_fan(rng, 2, 2)
            f2 = random_fan(rng, 2, 2)
            union = Fan(2, list(f1.cones) + list(f2.cones))
            lhs = preimage(union, P, 3)
            rhs = Fan(3, list(preimage(f1, P, 3).cones)
                      + list(preimage(f2, P, 3).cones))
            assert fan_equal(lhs, rhs)

    def test_respects_fan_equality(self):
        P = [(1, 1), (0, 2)]
        f1 = Fan(2, [halfplane()])
        f2 = Fan(2, [quadrant(), quadrant(1, -1)])
        assert fan_equal(f1, f2)
        assert fan_equal(preimage(f1, P, 2), preimage(f2, P, 2))


class TestFanEqual:
    def test_reordered_copy(self):
        f = tropical_line()
        g = Fan(2, list(reversed(f.cones)))
        assert fan_equal(f, g)

    def test_halfplane_split(self):
        assert fan_equal(Fan(2, [halfplane()]),
                         Fan(2, [quadrant(), quadrant(1, -1)]))

    def test_opposite_halfplanes(self):
        f = Fan(2, [halfplane()])
        g = Fan(2, [Cone.from_constraints(2, inequalities=[(-1, 0)])])
        assert not fan_equal(f, g)

    def test_empty_fans(self):
        assert fan_equal(Fan(3), Fan(3))
        origin = Cone.from_constraints(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert not fan_equal(Fan(3), Fan(3, [origin]))

    def test_split_by_interior_line(self):
        # full plane vs four quadrants
        quads = [quadrant(sx, sy) for sx in (1, -1) for sy in (1, -1)]
        assert fan_equal(Fan(2, [Cone.from_constraints(2)]), Fan(2, quads))

    def test_strict_subset_detected(self):
        assert not fan_equal(Fan(2, [halfplane()]), Fan(2, [quadrant()]))
        # subset sharing all generators of the smaller fan
        three = [quadrant(), quadrant(1, -1), quadrant(-1, 1)]
        assert not fan_equal(Fan(2, [Cone.from_constraints(2)]), Fan(2, three))

    @pytest.mark.parametrize("seed", range(15))
    def test_monte_carlo_agreement(self, seed):
        # 15 pairs x 700 fixed-seed points: >= 10^4 sampled points in all
        rng = random.Random(1300 + seed)
        n = rng.randint(1, 3)
        f1 = random_fan(rng, n)
        f2 = random_fan(rng, n)
        equal = fan_equal(f1, f2)
        distinguishable = fans_distinguishable(rng, f1, f2, samples=700)
        if equal:
            assert not distinguishable
        if distinguishable:
            assert not equal

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fan_equal(Fan(2), Fan(3))


class TestDeltaStarCarriers:
    def test_pure_fan_identity(self):
        f = tropical_line()
        assert delta_star(f) == f

    def test_stray_ray_dropped(self):
        big = quadrant()
        stray = Cone.from_constraints(2, [(1, 1)], [(1, 0)])
        f = Fan(2, [big, stray])
        assert delta_star(f) == Fan(2, [big])

    def test_empty(self):
        assert delta_star(Fan(2)).is_empty
        assert carrier_spaces(Fan(2)) == []

    def test_tropical_carriers(self):
        spans = carrier_spaces(tropical_line())
        expected = {Subspace.from_rows(2, [(0, 1)]).basis,
                    Subspace.from_rows(2, [(1, 0)]).basis,
                    Subspace.from_rows(2, [(1, 1)]).basis}
        assert {s.basis for s in spans} == expected

    def test_single_full_cone(self):
        spans = carrier_spaces(Fan(2, [Cone.from_constraints(2)]))
        assert spans == [Subspace.full(2)]

    def test_ordered_by_divided_basis(self):
        # span{(3, 1)} has the basis row (1, 1/3), below (1, 1/2) of
        # span{(2, 1)}, though its int row (3, 1) sorts after (2, 1)
        fan = Fan(2, [Cone.from_constraints(2, [(1, -k)], [(1, 0)])
                      for k in (2, 3)])
        assert [s.rows for s in carrier_spaces(fan)] == [((3, 1),), ((2, 1),)]


def _fans_of_every_origin(seed):
    """One fan from each of delta_set, local_cone, preimage and
    fan_from_json, all from the same seeded stream."""
    rng = random.Random(seed)
    n = rng.choice([2, 3, 4])
    s = rng.choice([1, 2])
    module = OneRelatorModule(random_relator(rng, n, s),
                              random_cocycle(rng, n, s))
    base = random_fan(rng, n, max_cones=4)
    point = base.cones[0].rays[0] if base.cones[0].rays else (0,) * n
    matrix = [tuple(rng.randint(-2, 2) for _ in range(n - 1))
              for _ in range(n)]
    raw = [random_cone(rng, n) for _ in range(4)]
    return [delta_set(module), local_cone(base, point),
            preimage(base, matrix, n - 1),
            fan_from_json({"dim": n, "cones": [cone_to_json(c)
                                               for c in raw]})]


class TestDeltaStarPrune:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_pruned_top_cones(self, seed):
        for f in _fans_of_every_origin(seed):
            star = delta_star(f)
            if f.is_empty:
                assert star.is_empty
                continue
            top = [c for c in f.cones if c.dim == fan_dim(f)]
            assert star == Fan(f.ambient_dim, top)
            assert all(c in f.cones for c in star.cones)


class TestDoubleDescriptionStress:
    def test_higher_dimensional_roundtrips(self):
        rng = random.Random(31337)
        for _ in range(40):
            n = rng.randint(4, 6)
            eqs = [tuple(rng.randint(-2, 2) for _ in range(n))
                   for _ in range(rng.randint(0, 2))]
            ineqs = [tuple(rng.randint(-2, 2) for _ in range(n))
                     for _ in range(rng.randint(2, 8))]
            c = Cone.from_constraints(n, eqs, ineqs)
            # V -> H -> V is the identity on canonical data: the canonical
            # H-rep, read off the generators, describes the same cone
            canon = Cone.from_constraints(n, *c.canonical_hrep())
            assert canon == c
            # nonnegative ray combinations plus lineality stay inside
            for _ in range(5):
                p = [Fraction(0)] * n
                for g in c.rays:
                    w = Fraction(rng.randint(0, 3), rng.randint(1, 2))
                    p = [a + w * b for a, b in zip(p, g)]
                for g in c.lineality:
                    w = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    p = [a + w * b for a, b in zip(p, g)]
                assert c.member(p)

    def test_constraint_order_independence(self):
        rng = random.Random(909)
        for _ in range(25):
            n = rng.randint(2, 5)
            ineqs = [tuple(rng.randint(-2, 2) for _ in range(n))
                     for _ in range(rng.randint(2, 7))]
            eqs = [tuple(rng.randint(-1, 1) for _ in range(n))
                   for _ in range(rng.randint(0, 1))]
            a = Cone.from_constraints(n, eqs, ineqs)
            shuffled = list(ineqs)
            rng.shuffle(shuffled)
            b = Cone.from_constraints(n, eqs, shuffled)
            assert a == b
            assert a.canonical_hrep() == b.canonical_hrep()

    def test_scaled_constraints_same_cone(self):
        c1 = Cone.from_constraints(3, [(1, -2, 0)], [(0, 2, 4), (3, 0, -6)])
        c2 = Cone.from_constraints(3, [(-2, 4, 0)], [(0, 1, 2), (1, 0, -2)])
        assert c1 == c2

    def test_edge_cones_give_the_double_description_key(self):
        # edge cones read their rays off the facets and share one lineality;
        # on flat supports too, each has the key and raw constraints that
        # the double description of its own constraints gives
        rng = random.Random(4242)
        flat = 0
        for _ in range(150):
            n = rng.randint(1, 5)
            cols = [[rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            points = sorted({tuple(sum(rng.randint(-2, 2) * c[i] for c in cols)
                                   for i in range(n))
                             for _ in range(rng.randint(1, 8))})
            fan = polyhedral.edge_normal_fan(n, points)
            for cone in fan.cones:
                dd = Cone.from_constraints(n, cone._raw_eq, cone._raw_ineq)
                assert dd.key == cone.key
                assert (dd._raw_eq, dd._raw_ineq) == (cone._raw_eq,
                                                      cone._raw_ineq)
                flat += len(cone.lineality) > 0
        assert flat > 100


def _random_constraints(rng, dim, count, box=2):
    return [tuple(rng.randint(-box, box) for _ in range(dim))
            for _ in range(count)]


class TestDoubleDescriptionOracle:
    """``_dd_pointed`` on pointed cones of dimension at most 5 against
    ``extreme_rays_bruteforce``, which enumerates constraint subsets."""

    @staticmethod
    def rays(constraints, dim):
        cons = polyhedral._norm_constraints(constraints, dim)
        assert matrix_rank(cons) == dim
        rays = polyhedral._dd_pointed(cons, dim)
        assert rays == extreme_rays_bruteforce(cons, dim)
        return rays

    def test_random_cones(self):
        rng = random.Random(5150)
        checked = 0
        while checked < 100:
            dim = rng.randint(1, 5)
            cons = _random_constraints(rng, dim, rng.randint(dim, dim + 5))
            if matrix_rank(cons) == dim:
                self.rays(cons, dim)
                checked += 1

    def test_many_constraints_through_one_ray(self):
        # r spans the kernel of many more than dim - 1 constraints
        rng = random.Random(77)
        for _ in range(25):
            dim = rng.randint(3, 5)
            r = (1,) + tuple(rng.randint(-2, 2) for _ in range(dim - 1))
            through = []
            for a in _random_constraints(rng, dim, dim + rng.randint(1, 3),
                                         box=3):
                through.append(tuple(dot(r, r) * x - dot(a, r) * y
                                     for x, y in zip(a, r)))
            if matrix_rank(through) != dim - 1:
                continue
            rays = self.rays(through + [r], dim)
            assert vec_primitive(r) in rays

    def test_scaled_and_repeated_constraints(self):
        rng = random.Random(808)
        for _ in range(30):
            dim = rng.randint(2, 5)
            base = _random_constraints(rng, dim, dim + rng.randint(0, 4))
            if matrix_rank(base) != dim:
                continue
            scales = [rng.randint(2, 4) for _ in base]
            noisy = base + [tuple(k * x for x in a)
                            for a, k in zip(base, scales)] + base[:2]
            rng.shuffle(noisy)
            rays = self.rays(base, dim)
            assert self.rays(noisy, dim) == rays
            # not deduplicated, a repeat only adds a redundant bit
            assert polyhedral._dd_pointed(
                [vec_primitive(a) for a in noisy], dim) == rays

    def test_equality_pairs(self):
        # each equality as the pair +-e, as _vrep passes it
        rng = random.Random(4711)
        checked = 0
        while checked < 40:
            dim = rng.randint(2, 5)
            eqs = _random_constraints(rng, dim, rng.randint(1, dim - 1))
            ineqs = _random_constraints(rng, dim, rng.randint(1, dim + 3))
            cons = eqs + [tuple(-x for x in e) for e in eqs] + ineqs
            if matrix_rank(cons) == dim:
                rays = self.rays(cons, dim)
                assert all(dot(e, g) == 0 for e in eqs for g in rays)
                checked += 1

    def test_hull_shaped_inputs(self):
        # the lifted (1, p) in Z^3, Z^4 and Z^5 of 12-16 points (12 in
        # Z^5, where the oracle is slowest), as edge_normal_fan passes
        # them; a planted coplanar subset on a supporting plane, and the
        # small boxes, give rays tight on many more than dim - 1 rows
        rng = random.Random(1996)
        shapes = set()
        for n in (2, 2, 3) * 6 + (4,) * 3:
            box = rng.choice({2: (2, 3), 3: (1, 3), 4: (1,)}[n])
            grid = list(itertools.product(range(-box, box + 1), repeat=n))
            size = rng.randint(12, 16 if n < 4 else 12)
            points = set()
            if rng.random() < 0.5:
                f = tuple(rng.randint(-2, 2) for _ in range(n))
                if any(f):
                    low = min(dot(f, p) for p in grid)
                    plane = [p for p in grid if dot(f, p) == low]
                    points.update(rng.sample(plane, min(len(plane), 6)))
            while len(points) < size:
                points.add(rng.choice(grid))
            lifted = [(1,) + p for p in sorted(points)]
            if matrix_rank(lifted) == n + 1:
                rays = self.rays(lifted, n + 1)
                shapes.add((n, max(sum(dot(a, r) == 0 for a in lifted)
                                   for r in rays) > n))
        assert shapes >= {(2, True), (3, True), (4, True)}
        # lifted supports in Z^4 of the wide-support op lists (seeds 101
        # and 102) on which the tight-set scan rejects 2, 5 and 2 pairs that
        # pass the popcount pre-test: no other input above reaches it
        for points in _SCAN_REJECTS:
            self.rays([(1,) + p for p in points], 5)


# (seed, op) 101/22, 102/37 and 102/33 of the wide-support stream
_SCAN_REJECTS = (
    [(-2, -3, -2, 1), (-1, -3, -1, -1), (1, -2, -2, 3), (1, -2, 1, 1),
     (2, -2, -3, 2), (2, -2, -2, 2), (2, -2, 1, 2), (2, -2, 2, 2),
     (3, -3, 1, -3), (3, -3, 1, 1), (3, -2, -3, 0), (3, -2, 1, -1),
     (3, -1, -1, 2), (3, 0, -3, 2), (3, 0, -2, 1)],
    [(-3, 0, -2, 2), (-3, 2, -1, 0), (-3, 2, 2, 3), (-3, 3, 1, 1),
     (-3, 3, 2, 0), (1, 0, 2, 2), (1, 2, 1, 2), (2, 0, -2, -1),
     (2, 0, 0, -2), (2, 0, 3, 2), (2, 2, 1, 1), (2, 3, -3, 1),
     (3, 0, -1, 0)],
    [(-3, -2, 3, 1), (-3, 2, 2, 3), (-2, -3, -2, 2), (-2, -2, 1, 1),
     (-2, -1, 0, 1), (-2, 3, 3, 3), (-1, -3, 2, 1), (-1, -2, 3, 0),
     (-1, -1, -2, 3), (-1, 1, 1, 3), (0, -1, -1, 3), (1, 0, 1, 3),
     (1, 0, 2, 1), (2, -1, 2, 3), (3, -1, 2, 3), (3, 0, 2, 2)],
)


class TestSelfChecks:
    def test_not_pointed(self):
        with pytest.raises(ValueError, match="not pointed"):
            polyhedral._dd_pointed(((1, 0), (2, 0)), 2)

    def test_corrupted_facet_normal(self, monkeypatch):
        into = polyhedral._into_complement

        def negated(*args):
            return tuple(-x for x in into(*args))
        monkeypatch.setattr(polyhedral, "_into_complement", negated)
        with pytest.raises(AssertionError, match="not minimal on its facet"):
            polyhedral.edge_normal_fan(2, [(0, 0), (1, 0), (0, 1)])

    def test_lineality_off_the_kernel(self, monkeypatch):
        # a vector not constant on the collinear points joins their shared
        # lineality; the kernel of the lifted points (n = 4) is left alone
        kernel = polyhedral.null_space_int

        def skewed(matrix, n):
            basis = kernel(matrix, n)
            return basis + ((1, 0, 0),) if n == 3 else basis
        monkeypatch.setattr(polyhedral, "null_space_int", skewed)
        with pytest.raises(AssertionError, match="violates a constraint"):
            polyhedral.edge_normal_fan(3, [(0, 0, 0), (1, 1, 0), (2, 2, 0)])

    def test_corrupted_double_description(self, monkeypatch):
        cone = quadrant()
        dd = polyhedral._dd_pointed

        def negated(constraints, dim):
            return tuple(tuple(-x for x in r) for r in dd(constraints, dim))
        monkeypatch.setattr(polyhedral, "_dd_pointed", negated)
        with pytest.raises(AssertionError, match="violates a constraint"):
            quadrant()
        # the canonical H-representation's facets, read off the raw rows
        # with no double description, are checked too
        into = polyhedral._into_complement
        monkeypatch.setattr(polyhedral, "_into_complement", lambda *args: (
            tuple(-x for x in into(*args))))
        with pytest.raises(AssertionError, match="violates a constraint"):
            cone.canonical_hrep()


def _fan(n, hreps):
    """The fan of the cones cut out by (equalities, inequalities) pairs."""
    return Fan(n, [Cone.from_constraints(n, eq, ineq) for eq, ineq in hreps])


def _satisfies(point, hrep):
    eq, ineq = hrep
    return (all(dot(e, point) == 0 for e in eq)
            and all(dot(a, point) >= 0 for a in ineq))


def _separator(n, fan, other):
    """``_uncovered`` on the fans of the constraint lists ``fan`` and
    ``other``.  A point it returns must satisfy one list of ``fan`` and
    violate a constraint of each list of ``other``, evaluated here by dot
    products and not by ``Cone.member``."""
    point = polyhedral._uncovered(_fan(n, fan), _fan(n, other))
    if point is not None:
        assert any(_satisfies(point, h) for h in fan)
        assert not any(_satisfies(point, h) for h in other)
    return point


def _covers(n, fan, other, covered):
    """The checked separator is None exactly when ``covered``."""
    assert (_separator(n, fan, other) is None) == covered


class TestFanEqualAdversarial:
    """Planted, differently subdivided fans, so that every equality below is
    decided by the covering test; each direction of it is checked too."""

    def test_quadrant_skew_split(self):
        q = ((), [(1, 0), (0, 1)])
        upper = ((), [(1, 0), (-1, 1)])
        lower = ((), [(0, 1), (1, -1)])
        assert fan_equal(_fan(2, [q]), _fan(2, [upper, lower]))
        _covers(2, [q], [upper, lower], True)
        _covers(2, [upper, lower], [q], True)

    def test_three_way_split_of_halfplane(self):
        # wedges [(1,0),(1,-1)], [(1,-1),(-1,-1)], [(-1,-1),(-1,0)]
        pieces = [((), [(0, -1), (1, 1)]),
                  ((), [(-1, -1), (1, -1)]),
                  ((), [(-1, 1), (0, -1)])]
        lower = ((), [(0, -1)])
        # the three pieces tile {y <= 0}
        assert fan_equal(_fan(2, [lower]), _fan(2, pieces))
        _covers(2, [lower], pieces, True)
        # dropping the middle wedge leaves a hole
        outer = [pieces[0], pieces[2]]
        assert not fan_equal(_fan(2, [lower]), _fan(2, outer))
        assert not fan_equal(_fan(2, outer), _fan(2, [lower]))
        _covers(2, [lower], outer, False)
        _covers(2, outer, [lower], True)

    def test_missing_sliver_detected(self):
        q = ((), [(1, 0), (0, 1)])
        narrow = ((), [(1, 0), (-1, 2)])
        wide_rest = ((), [(0, 1), (2, -1)])
        # narrow misses the open wedge between x/2 < y < 2x entirely
        assert not fan_equal(_fan(2, [q]), _fan(2, [narrow]))
        _covers(2, [q], [narrow], False)
        _covers(2, [narrow], [q], True)
        assert fan_equal(_fan(2, [q]), _fan(2, [narrow, wide_rest]))
        _covers(2, [narrow, wide_rest], [q], True)

    def test_line_vs_two_rays(self):
        line = ([(1, -1)], ())
        up = ([(1, -1)], [(1, 0)])
        down = ([(1, -1)], [(-1, 0)])
        assert fan_equal(_fan(2, [line]), _fan(2, [up, down]))
        _covers(2, [line], [up, down], True)
        # the line's lineality crosses x = 0, which splits it in two
        assert not fan_equal(_fan(2, [line]), _fan(2, [up]))
        _covers(2, [line], [up], False)
        _covers(2, [up], [line], True)

    def test_lower_dimensional_piece_difference(self):
        q = ((), [(1, 0), (0, 1)])
        extra_ray = ([(1, 1)], [(1, 0)])
        # the stray ray {y = -x <= 0} is not inside the quadrant
        assert not fan_equal(_fan(2, [q, extra_ray]), _fan(2, [q]))
        assert not fan_equal(_fan(2, [q]), _fan(2, [q, extra_ray]))
        _covers(2, [q, extra_ray], [q], False)
        _covers(2, [q], [q, extra_ray], True)

    def test_three_dim_split(self):
        octant = ((), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        a = ((), octant[1] + [(1, -1, 0)])
        b = ((), octant[1] + [(-1, 1, 0)])
        assert fan_equal(_fan(3, [octant]), _fan(3, [a, b]))
        _covers(3, [octant], [a, b], True)
        _covers(3, [a], [octant], True)
        _covers(3, [octant], [b], False)

    def test_full_space_missing_a_quadrant(self):
        # a cell with lineality: the full plane is cut by both axes
        three = [((), [(sx, 0), (0, sy)])
                 for sx, sy in ((1, 1), (1, -1), (-1, 1))]
        _covers(2, [((), ())], three, False)
        _covers(2, [((), ())], three + [((), [(-1, 0), (0, -1)])], True)

    @pytest.mark.parametrize("seed", range(8))
    def test_separator_against_sampling_oracle(self, seed):
        """On random fans and on random re-subdivisions of them, with a
        piece dropped now and then, every separator is checked by dot
        products, and a pair that sampling tells apart has one."""
        rng = random.Random(1700 + seed)
        for _ in range(12):
            n = rng.randint(1, 3)
            h1 = [random_hrep(rng, n) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                h2 = [random_hrep(rng, n) for _ in range(rng.randint(1, 3))]
            else:
                h = tuple(rng.randint(-2, 2) for _ in range(n))
                h2 = [(eq, list(ineq) + [tuple(sign * x for x in h)])
                      for eq, ineq in h1 for sign in (1, -1)]
                if rng.random() < 0.3:
                    h2.pop(rng.randrange(len(h2)))
            gaps = [_separator(n, h1, h2), _separator(n, h2, h1)]
            f1, f2 = _fan(n, h1), _fan(n, h2)
            assert fan_equal(f1, f2) == (gaps == [None, None])
            if fans_distinguishable(rng, f1, f2, samples=150):
                assert gaps != [None, None]


PROPERTY = settings(max_examples=60, derandomize=True, database=None,
                    deadline=None)


@st.composite
def _split_cone(draw):
    """A drawn cone C of dimension <= 3 as (equalities, inequalities), one
    or two drawn hyperplanes h_i, and the pieces C & {sign_i h_i >= 0}, one
    per sign pattern, as constraint lists."""
    n = draw(st.integers(1, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * n)
    cone = (draw(st.lists(vectors, max_size=1)),
            draw(st.lists(vectors, max_size=3)))
    hyperplanes = draw(st.lists(vectors, min_size=1, max_size=2))
    pieces = []
    for signs in itertools.product((1, -1), repeat=len(hyperplanes)):
        halves = [tuple(sign * x for x in h)
                  for sign, h in zip(signs, hyperplanes)]
        pieces.append((cone[0], cone[1] + halves))
    return n, cone, hyperplanes, pieces


class TestFanEqualProperties:
    """Drawn splits of one cone, which the covering test of ``fan_equal``
    decides whenever a hyperplane cuts the cone."""

    @PROPERTY
    @given(split=_split_cone())
    def test_pieces_tile_the_cone(self, split):
        n, cone, _, pieces = split
        assert fan_equal(_fan(n, [cone]), _fan(n, pieces))
        assert fan_equal(_fan(n, pieces), _fan(n, [cone]))
        _covers(n, [cone], pieces, True)
        _covers(n, pieces, [cone], True)

    @PROPERTY
    @given(split=_split_cone(), data=st.data())
    def test_dropped_piece(self, split, data):
        # A point of the dropped piece P lies in another piece iff some h_i
        # vanishes on it, so the rest still covers the cone iff P lies in
        # one of the hyperplanes (a cone inside a finite union of subspaces
        # lies inside one of them).
        n, cone, hyperplanes, pieces = split
        k = data.draw(st.integers(0, len(pieces) - 1))
        dropped = Cone.from_constraints(n, *pieces[k])
        gens = list(dropped.rays) + list(dropped.lineality)
        covered = any(all(dot(h, g) == 0 for g in gens) for h in hyperplanes)
        rest = pieces[:k] + pieces[k + 1:]
        assert fan_equal(_fan(n, [cone]), _fan(n, rest)) == covered
        _covers(n, [cone], rest, covered)
        _covers(n, rest, [cone], True)


@st.composite
def _delta_split(draw):
    """The raw rows, as (equalities, inequalities), of the cones of a drawn
    Delta-shaped fan and a drawn hyperplane h: the edge cones of 3 to 7
    points of [-2, 2]^n, n = 2 or 3, or the tangent cones of those at a ray
    of one of them (a local cone)."""
    n = draw(st.integers(2, 3))
    vectors = st.tuples(*[st.integers(-2, 2)] * n)
    points = sorted(draw(st.sets(vectors, min_size=3, max_size=7)))
    fan = polyhedral.edge_normal_fan(n, points)
    if draw(st.booleans()):
        cone = draw(st.sampled_from(fan.cones))
        fan = local_cone(fan, (cone.rays + cone.lineality)[0])
    return n, fan, draw(vectors)


class TestCoveringDeltaFans:
    """The covering test on the raw rows of Delta-shaped fans, which hold
    rows that are no facets: an edge cone at [u, v] keeps the row v - u,
    implied by its equality u - v = 0."""

    @PROPERTY
    @given(split=_delta_split())
    @example(split=(3, polyhedral.edge_normal_fan(
        3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]), (1, -1, 1)))
    def test_split_by_a_hyperplane(self, split):
        n, fan, h = split
        hreps = [(c._raw_eq, c._raw_ineq) for c in fan.cones]
        assert all(len(c._raw_ineq) > len(c.canonical_hrep()[1])
                   for c in fan.cones)
        pieces = [(eq, ineq + (tuple(sign * x for x in h),))
                  for eq, ineq in hreps for sign in (1, -1)]
        assert fan_equal(_fan(n, hreps), _fan(n, pieces))
        assert fan_equal(_fan(n, pieces), _fan(n, hreps))
        _covers(n, hreps, pieces, True)
        _covers(n, pieces, hreps, True)
        # A piece of a cone on which h takes both signs has the cone's
        # dimension, and the cones of the fan meet in lower-dimensional
        # faces only, so no other piece covers it once it is dropped.
        for k, cone in enumerate(fan.cones):
            values = [dot(h, g) for g in cone.rays]
            if (any(dot(h, g) for g in cone.lineality)
                    or max(values, default=0) > 0 > min(values, default=0)):
                rest = pieces[:2 * k] + pieces[2 * k + 1:]
                assert not fan_equal(_fan(n, hreps), _fan(n, rest))
                _covers(n, hreps, rest, False)
                _covers(n, rest, hreps, True)
                break

    def test_no_canonical_hrep_read(self, monkeypatch):
        # the covering test reads raw rows only
        calls = []
        canonical_hrep = Cone.canonical_hrep
        monkeypatch.setattr(Cone, "canonical_hrep", lambda self: (
            calls.append(self), canonical_hrep(self))[1])
        fan = polyhedral.edge_normal_fan(
            3, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)])
        hreps = [(c._raw_eq, c._raw_ineq) for c in fan.cones]
        pieces = [(eq, ineq + (half,)) for eq, ineq in hreps
                  for half in ((0, 0, 1), (0, 0, -1))]
        # h = (0, 0, 1) cuts the first cone only
        assert fan != _fan(3, pieces)
        assert fan_equal(fan, _fan(3, pieces))
        assert fan_equal(_fan(3, pieces), fan)
        assert not fan_equal(fan, _fan(3, pieces[1:]))
        assert calls == []


@st.composite
def _planted_cone(draw):
    """A drawn cone in Q^n, 2 <= n <= 4, as (equalities, inequalities): the
    cone spanned by drawn rays and maybe a drawn line, given by the
    lineality and the rays of its dual cone, cut by maybe a drawn
    hyperplane.  When asked, the equalities are planted as pairs of
    opposite inequalities, and a redundant row (the sum of two rows) is
    added."""
    n = draw(st.integers(2, 4))
    vectors = st.tuples(*[st.integers(-2, 2)] * n)
    line = draw(st.lists(vectors, max_size=1))
    dual = Cone.from_constraints(
        n, line, draw(st.lists(vectors, min_size=1, max_size=5)))
    eqs = list(dual.lineality) + draw(st.lists(vectors, max_size=1))
    ineqs = list(dual.rays)
    if draw(st.booleans()):
        ineqs += eqs + [tuple(-x for x in e) for e in eqs]
        eqs = []
    if len(ineqs) > 1 and draw(st.booleans()):
        ineqs.append(tuple(x + y for x, y in zip(ineqs[0], ineqs[-1])))
    return n, eqs, ineqs


class TestTangentCone:
    """``Cone.tangent_cone``, read off the cone's rays, against the double
    description of the raw equalities and the rows active at the point."""

    # The cone over the square with corners (+-1, 0), (0, +-1): at its ray
    # (1, 0, 1) the opposite ray (-1, 0, 1) is twice the apex direction
    # minus (1, 0, 1), so modulo the tangent cone's line it is the sum of
    # the two side rays, a candidate that is not extreme.
    @settings(PROPERTY, max_examples=200)
    @given(drawn=_planted_cone())
    @example(drawn=(3, [], [(-1, -1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, 1)]))
    def test_every_face_against_the_double_description(self, drawn):
        # one point per face: the ray sum of the rays on which a set of raw
        # rows vanishes, a relative-interior point of the face they cut out
        n, eqs, ineqs = drawn
        cone = Cone.from_constraints(n, eqs, ineqs)
        faces = {(0,) * n}
        for k in range(len(cone._raw_ineq) + 1):
            for rows in itertools.combinations(cone._raw_ineq, k):
                faces.add(polyhedral._ray_sum(n, [
                    r for r in cone.rays
                    if all(dot(a, r) == 0 for a in rows)]))
        for x in faces:
            tangent = cone.tangent_cone(x)
            active = [a for a in cone._raw_ineq if dot(a, x) == 0]
            dd = Cone.from_constraints(n, cone._raw_eq, active)
            assert tangent.key == dd.key
            assert ((tangent._raw_eq, tangent._raw_ineq)
                    == (dd._raw_eq, dd._raw_ineq))


@st.composite
def _written_cone(draw):
    """A drawn cone of a kind a written fan holds: a ``_planted_cone`` with
    a duplicate and a scaled row planted too, a subspace, an edge cone of
    drawn points, a segment's among them, a tangent cone of a planted cone
    at its apex, its ray sum or a ray, or the preimage of a planted cone."""
    kind = draw(st.sampled_from(
        ["rows", "subspace", "edge", "segment", "tangent", "preimage"]))
    if kind in ("edge", "segment", "subspace"):
        n = draw(st.integers(2 if kind == "edge" else 1, 4))
        vectors = st.tuples(*[st.integers(-2, 2)] * n)
        if kind == "subspace":
            pair = draw(vectors)
            return Cone.from_constraints(
                n, draw(st.lists(vectors, max_size=2)),
                [pair, tuple(-x for x in pair)])
        if kind == "edge":
            points = draw(st.sets(vectors, min_size=3, max_size=7))
        else:
            d = draw(vectors.filter(any))
            points = {tuple(t * x for x in d) for t in draw(
                st.sets(st.integers(-3, 3), min_size=2, max_size=4))}
        fan = polyhedral.edge_normal_fan(n, sorted(points))
        return draw(st.sampled_from(fan.cones))
    n, eqs, ineqs = draw(_planted_cone())
    if ineqs:
        a = draw(st.sampled_from(ineqs))
        ineqs += [a, tuple(draw(st.integers(2, 3)) * x for x in a)]
    cone = Cone.from_constraints(n, eqs, ineqs)
    if kind == "tangent":
        points = [(0,) * n, cone.relint_point()] + list(cone.rays)
        return cone.tangent_cone(draw(st.sampled_from(points)))
    if kind == "preimage":
        m = draw(st.integers(1, 4))
        matrix = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * m),
                               min_size=n, max_size=n))
        return preimage(Fan(n, [cone]), matrix, m).cones[0]
    return cone


def _no_double_description(*args):
    raise AssertionError("a double description on the write path")


class TestCanonicalHrep:
    """``Cone.canonical_hrep``, read off the raw rows, against the double
    dualization of ``canonical_hrep_oracle``, with ``_dd_pointed`` made to
    raise so the library path takes no double description."""

    @settings(PROPERTY, max_examples=300)
    @given(cone=_written_cone())
    # an implicit equality x = 0 as a pair, a redundant row and a segment
    @example(cone=Cone.from_constraints(
        3, (), [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 2, 1)]))
    @example(cone=polyhedral.edge_normal_fan(2, [(0, 0), (2, 1)]).cones[0])
    def test_against_the_double_dualization(self, cone):
        expected = canonical_hrep_oracle(cone)
        with mock.patch.object(polyhedral, "_dd_pointed",
                               _no_double_description):
            assert cone.canonical_hrep() == expected


def _wide_supports():
    """Seeded supports of 12 to 16 points in [-3, 3]^n, n = 2, 3, 4; those
    with a flat flag lie on the hyperplane x_n = x_1."""
    rng = random.Random(2727)
    out = []
    for n, flat in ((2, False), (3, False), (4, False), (3, True),
                    (4, True), (3, False)):
        size = rng.randint(12, 16)
        points = set()
        while len(points) < size:
            p = [rng.randint(-3, 3) for _ in range(n)]
            if flat:
                p[-1] = p[0]
            points.add(tuple(p))
        out.append((n, sorted(points)))
    return out


class TestEdgeConesOnTheGraph:
    """Edge cones of 12- to 16-point supports against the tie cones cut out
    by the rows w - u over every support point w."""

    @pytest.mark.parametrize("n,points", _wide_supports())
    def test_against_rows_over_all_points(self, n, points):
        oracle, neighbours = edge_graph_oracle(n, points)
        fan = polyhedral.edge_normal_fan(n, points)
        assert sorted(c.key for c in fan.cones) == sorted(oracle)
        for cone in fan.cones:
            i, _ = oracle[cone.key]
            rows = polyhedral._norm_constraints(
                [tuple(a - b for a, b in zip(points[w], points[i]))
                 for w in neighbours[i]], n)
            assert sorted(cone._raw_ineq) == sorted(rows)
        # the local cones of the fan at a ray and at the ray sum of sampled
        # cones against the epsilon oracle of the fan cut out by the rows
        # over all points
        all_rows = Fan(n, [cone for _, cone in oracle.values()])
        rng = random.Random(len(points) * 10 + n)
        answers = set()
        for cone in rng.sample(fan.cones, min(6, len(fan.cones))):
            shift = cone.lineality[0] if cone.lineality else (0,) * n
            for x in (polyhedral._ray_sum(n, cone.rays), cone.rays[0]):
                x = tuple(a + b for a, b in zip(x, shift))
                lc = local_cone(fan, x)
                for y in [tuple(rng.randint(-2, 2) for _ in range(n))
                          for _ in range(3)] + list(cone.rays[:2]):
                    claimed = lc.member(y)
                    assert claimed == local_cone_eps_oracle(all_rows, x, y)
                    answers.add(claimed)
        assert answers == {True, False}


@st.composite
def _collinear_support(draw):
    """2 to 6 distinct points base + t*d in Z^n, 1 <= n <= 5, d nonzero,
    sorted by t or shuffled."""
    n = draw(st.integers(1, 5))
    base = draw(st.tuples(*[st.integers(-3, 3)] * n))
    d = draw(st.tuples(*[st.integers(-2, 2)] * n).filter(any))
    ts = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=6,
                       unique=True))
    if not draw(st.booleans()):
        ts.sort()
    return n, [tuple(b + t * x for b, x in zip(base, d)) for t in ts]


class TestSegmentFans:
    """A support on a line has one edge, whose tie cone the segment path of
    ``edge_normal_fan`` builds with no double description; it must equal
    the tie cone cut out by the rows w - u over every support point."""

    @PROPERTY
    @given(drawn=_collinear_support())
    @example(drawn=(2, [(1, 1), (0, 0), (2, 2)]))
    # an interior point first and last: the ends are not points[0], [-1]
    @example(drawn=(2, [(1, 1), (3, 3), (0, 0), (2, 2)]))
    def test_against_rows_over_all_points(self, drawn):
        n, points = drawn
        oracle, neighbours = edge_graph_oracle(n, points)
        fan = polyhedral.edge_normal_fan(n, points)
        assert len(fan.cones) == 1 and list(oracle) == [fan.cones[0].key]
        cone = fan.cones[0]
        (i, _), = oracle.values()
        (j,) = neighbours[i]
        u, v = points[i], points[j]
        assert cone._raw_eq == (vec_primitive(
            [a - b for a, b in zip(u, v)]),)
        assert cone._raw_ineq == polyhedral._norm_constraints(
            [tuple(b - a for a, b in zip(u, v))], n)
        assert cone.dim == matrix_rank(cone.lineality) == n - 1
        assert fan_dim(fan) == n - 1
        # the local cone at the ray sum (the origin) and at a lineality
        # point, against the epsilon oracle of the oracle's cone
        all_rows = Fan(n, [c for _, c in oracle.values()])
        step = tuple(a - b for a, b in zip(v, u))
        directions = [step, tuple(-x for x in step)] + list(cone.lineality)
        for x in [polyhedral._ray_sum(n, cone.rays)] + list(
                cone.lineality[:1]):
            lc = local_cone(fan, x)
            for y in directions + [tuple(a + b for a, b in zip(step, w))
                                   for w in cone.lineality[:1]]:
                assert lc.member(y) == local_cone_eps_oracle(all_rows, x, y)


@st.composite
def _scaled_support(draw):
    """3 to 9 distinct points in Z^n, 2 <= n <= 5, in drawn order: the images
    q E of distinct points q of [-s, s]^d, 2 <= d <= n, for one scale s of 3,
    10^6 and 2^80, with E = [I_d | F] up to a drawn column order and F a
    drawn matrix with entries in [-1, 1].  E is injective, so the support
    has the affine dimension of the q, d or less."""
    n = draw(st.integers(2, 5))
    d = draw(st.integers(2, n))
    s = draw(st.sampled_from([3, 10 ** 6, 2 ** 80]))
    qs = draw(st.lists(st.tuples(*[st.integers(-s, s)] * d), min_size=3,
                       max_size=9, unique=True))
    F = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * (n - d)),
                      min_size=d, max_size=d))
    order = draw(st.permutations(range(n)))
    points = []
    for q in qs:
        p = q + tuple(sum(c * f[j] for c, f in zip(q, F))
                      for j in range(n - d))
        points.append(tuple(p[t] for t in order))
    return n, draw(st.permutations(points))


def _kite(m):
    """A quadrilateral on which the row (1, 1, 1) over (1, x, y) takes -1
    at (-1, -1) and 2m + 1 at (m, m), whose x + y is at its bound 2m."""
    return [(-1, -1), (m, m), (m, 0), (0, m)]


class TestPackedIncidence:
    """``edge_normal_fan`` evaluates each facet and each rebased normal on
    every point at once, the values packed into the slots of one int; its
    fans must be those of the tie cones over all support points, for
    coordinates small and huge and supports of every affine dimension."""

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(drawn=_scaled_support())
    @example(drawn=(2, _kite(2 ** 80)))
    @example(drawn=(2, _kite(3)[::-1]))
    # a square whose facet values reach 2K, K = 3: B = 3 would overflow
    @example(drawn=(2, [(3, 3), (-3, -3), (3, -3), (-3, 3), (0, 0)]))
    @example(drawn=(3, [(0, 0, 0), (2 ** 80, 0, 0), (0, 2 ** 80, 0),
                        (0, 0, 2 ** 80), (1, 1, 1)]))
    def test_against_the_edge_graph(self, drawn):
        n, points = drawn
        fan = polyhedral.edge_normal_fan(n, points)
        assert {c.key: (c._raw_eq, c._raw_ineq) for c in fan.cones} \
            == edge_rows_oracle(n, points)
        for cone in fan.cones:
            assert cone.dim == matrix_rank(cone.rays + cone.lineality) \
                == n - 1

    @pytest.mark.parametrize("m", [3, 2 ** 80])
    @pytest.mark.parametrize("order", [1, -1])
    def test_planted_facet_cuts_off_one_point(self, monkeypatch, m, order):
        # the row (1, 1, 1) is -1 in one slot and past K in the next, where
        # a borrow would land; without it the fan is built
        points = _kite(m)[::order]
        assert len(polyhedral.edge_normal_fan(2, points).cones) == 4
        dd = polyhedral._dd_pointed
        monkeypatch.setattr(polyhedral, "_dd_pointed",
                            lambda *args: dd(*args) + ((1, 1, 1),))
        with pytest.raises(AssertionError, match="cuts off a point"):
            polyhedral.edge_normal_fan(2, points)


# ---------------------------------------------------------------------------
# boundary checks: each case is a call on bad input and its ValueError

BAD_INPUTS = {
    "constraint": (lambda: Cone.from_constraints(2, inequalities=[(1, 0, 0)]),
                   "constraint of wrong dimension"),
    "member": (lambda: halfplane().member((1,)), "dimension mismatch"),
    "tangent-outside": (lambda: halfplane().tangent_cone((-1, 0)),
                        "point is not in the cone"),
    # on an empty fan, where no Cone.member call checks the point
    "local-cone": (lambda: local_cone(Fan(2), (0,)), "dimension mismatch"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_boundary_raises(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
