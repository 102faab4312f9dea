import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtdelta import lattice
from qtdelta.lattice import (
    Sublattice,
    Subspace,
    hnf,
    kernel_lattice,
    matrix_rank,
    null_space_int,
    rref,
    saturate,
    subspace_intersection,
    subspace_sum,
    subspace_to_lattice,
    vec_primitive,
)

from oracles import (
    det_fraction,
    inverse_fraction,
    is_row_hnf,
    mat_mul,
    rref_fraction,
    saturation_points_bruteforce,
    subspace_intersection_oracle,
)
from records import assert_record, one_changed


def inverse_times(U, H):
    return mat_mul(inverse_fraction(U), H)


def _random_int_matrix(rng):
    """An m x n integer matrix, 0 <= m <= 5, 1 <= n <= 5; about a third of
    its rows are integer combinations of the rows above them."""
    m, n = rng.randint(0, 5), rng.randint(1, 5)
    rows = []
    for _ in range(m):
        if rows and rng.random() < 0.35:
            coeffs = [rng.randint(-3, 3) for _ in rows]
            rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rows))
                              for j in range(n)))
        else:
            rows.append(tuple(rng.randint(-6, 6) for _ in range(n)))
    return tuple(rows)


@st.composite
def _int_matrices(draw):
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    entry = st.integers(-6, 6)
    rows = []
    for _ in range(m):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entry, min_size=len(rows),
                                   max_size=len(rows)))
            rows.append(tuple(sum(c * r[j] for c, r in zip(coeffs, rows))
                              for j in range(n)))
        else:
            rows.append(tuple(draw(st.lists(entry, min_size=n, max_size=n))))
    return tuple(rows)


@st.composite
def _subspace_pairs(draw):
    """Two subspaces of one Q^n: each the zero space, the full space or
    the span of fewer than n rational rows; the second is sometimes
    spanned by integer combinations of the first's basis, with at most one
    row from outside it."""
    n = draw(st.integers(1, 4))
    entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    row = st.lists(entry, min_size=n, max_size=n)

    def space():
        kind = draw(st.sampled_from(["zero", "full", "rows", "rows"]))
        if kind == "zero":
            return Subspace.zero(n)
        if kind == "full":
            return Subspace.full(n)
        return Subspace.from_rows(n, draw(st.lists(row, max_size=n - 1)))

    a = space()
    if not draw(st.booleans()):
        return a, space()
    coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=a.dim,
                                    max_size=a.dim), max_size=a.dim))
    rows = [[sum(c * r[j] for c, r in zip(cs, a.basis)) for j in range(n)]
            for cs in coeffs]
    return a, Subspace.from_rows(n, rows + draw(st.lists(row, max_size=1)))


@st.composite
def _planted_pairs(draw):
    """``(c, d, shared)``: two subspaces of Q^n, n = 1..6, that both
    contain ``shared`` (the span of up to two rational rows), each with up
    to three more rows of its own; with few rows the extras are often
    disjoint from each other."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-3, 3),
                                st.integers(1, 3)))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3)
    common = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           max_size=2))
    return (Subspace.from_rows(n, common + draw(rows)),
            Subspace.from_rows(n, draw(rows) + common),
            Subspace.from_rows(n, common))


@st.composite
def _spanning_sets(draw):
    """``(n, S, T, U, v)``: rational rows S in Q^n, n = 1..4; T, the rows
    of S rescaled by nonzero rationals, with zero rows and a duplicate
    added and then permuted, so it spans the same space; U, a few
    combinations of S, sometimes with a row from outside; and a vector v,
    a combination of S or drawn freely."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-3, 3),
                      st.builds(Fraction, st.integers(-4, 4),
                                st.integers(1, 4)))
    row = st.lists(entry, min_size=n, max_size=n)
    S = draw(st.lists(row, max_size=n + 1))
    scale = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                      st.integers(1, 5))
    T = [[c * x for x in r] for r, c in zip(S, (draw(scale) for _ in S))]
    T += [[0] * n] * draw(st.integers(0, 2))
    if S and draw(st.booleans()):
        T.append(list(draw(st.sampled_from(S))))
    T = draw(st.permutations(T))

    def combination():
        coeffs = [draw(st.integers(-2, 2)) for _ in S]
        return [sum(c * r[j] for c, r in zip(coeffs, S)) for j in range(n)]

    U = [combination() for _ in range(draw(st.integers(0, 2)))]
    U += draw(st.lists(row, max_size=1))
    v = combination() if draw(st.booleans()) else draw(row)
    return n, S, T, U, v


def _check_augmented_hnf(M):
    """[H | U] is the row HNF of [M | I].  That matrix has full row rank,
    so its HNF is unique and these checks pin (H, U) exactly; the rows of U
    beside the zero rows of H are then a basis of the left kernel of M."""
    H, U = hnf(M)
    assert is_row_hnf([h + u for h, u in zip(H, U)])
    assert mat_mul(U, M) == H
    assert abs(det_fraction(U)) == 1
    kernel = [u for h, u in zip(H, U) if not any(h)]
    assert len(kernel) == len(M) - len(rref_fraction(M)[1])
    for x in kernel:
        assert not any(mat_mul((x,), M)[0])


class TestHnf:
    def test_identity(self):
        eye = ((1, 0), (0, 1))
        assert hnf(eye) == (eye, eye)

    def test_zero(self):
        z = ((0, 0), (0, 0))
        H, U = hnf(z)
        assert H == z
        assert U == ((1, 0), (0, 1))

    def test_frozen_example(self):
        # oracle-computed: lattice spanned by (2,4),(1,3) has HNF
        # [[1,1],[0,2]] (pivots positive, entry above reduced, index 2)
        H, U = hnf(((2, 4), (1, 3)))
        assert H == ((1, 1), (0, 2))
        assert abs(det_fraction(U)) == 1
        assert mat_mul(U, ((2, 4), (1, 3))) == H

    @pytest.mark.parametrize("seed", range(25))
    def test_random_roundtrip(self, seed):
        rng = random.Random(seed)
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        M = tuple(tuple(rng.randint(-6, 6) for _ in range(n))
                  for _ in range(m))
        H, U = hnf(M)
        assert is_row_hnf(H)
        assert abs(det_fraction(U)) == 1
        assert mat_mul(U, M) == H
        # round trip: U^-1 H = M exactly
        assert inverse_times(U, H) == tuple(tuple(Fraction(x) for x in row)
                                            for row in M)

    def test_entries_are_integral_rationals(self):
        # the same entry check as the constructors: an integral Fraction is
        # read as its int, a float or a non-integral entry is bad input
        H, U = hnf(((Fraction(4, 2), 1),))
        assert H == ((2, 1),) and U == ((1,),)
        assert all(type(x) is int for x in H[0])
        for bad in (((1.5,),), ((Fraction(1, 2), 1),), ((1, 2), (3,))):
            with pytest.raises(ValueError):
                hnf(bad)

    def test_transform_is_canonical_seeded(self):
        rng = random.Random(1515)
        for _ in range(300):
            _check_augmented_hnf(_random_int_matrix(rng))

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(M=_int_matrices())
    def test_transform_is_canonical(self, M):
        _check_augmented_hnf(M)


class TestSublattice:
    def test_canonical_equality(self):
        a = Sublattice.from_rows(2, [(1, 3), (2, 4)])
        b = Sublattice.from_rows(2, [(2, 4), (1, 3), (3, 7)])
        assert a == b and hash(a) == hash(b)

    def test_membership(self):
        lat = Sublattice.from_rows(2, [(2, 0), (0, 3)])
        assert lat.contains_vector((4, 3))
        assert not lat.contains_vector((1, 0))
        assert not lat.contains_vector((Fraction(1, 2), 0))
        # a non-integral vector has no coordinates, it is not truncated
        full = Sublattice.full(2)
        assert full.coordinates((Fraction(3, 2), 1)) is None
        assert not full.contains_vector((Fraction(3, 2), 1))
        assert full.coordinates((Fraction(4, 2), 1)) == (2, 1)
        with pytest.raises(ValueError):
            full.coordinates((1, 2, 3))
        # a float is rejected, not read as the integer it happens to equal
        for bad in ((1.0, 2), (0.5, 2)):
            with pytest.raises(ValueError):
                full.coordinates(bad)
            with pytest.raises(ValueError):
                lat.contains_vector(bad)
        # generators must be integral: no entry is silently truncated
        assert Sublattice.from_rows(2, [(Fraction(4, 2), 1)]).basis \
            == ((2, 1),)
        for bad in (Fraction(1, 2), 1.0, 0.5):
            with pytest.raises(ValueError):
                Sublattice.from_rows(2, [(bad, 1)])
            with pytest.raises(ValueError):
                Sublattice(2, ((bad, 0),))

    @pytest.mark.parametrize("basis,message", [
        (((1, 0, 0),), "basis row of wrong length"),
        (((0, 0),), "zero row in sublattice basis"),
        (((0, 1), (1, 0)), "basis not in row HNF"),
        (((-1, 0),), "basis not in row HNF"),
    ], ids=["length", "zero-row", "pivot-order", "pivot-sign"])
    def test_basis_checked(self, basis, message):
        with pytest.raises(ValueError, match=message):
            Sublattice(2, basis)

    def test_saturate_index_two(self):
        lat = Sublattice.from_rows(2, [(2, 0)])
        assert saturate(lat).basis == ((1, 0),)

    def test_saturate_idempotent(self):
        lat = Sublattice.from_rows(3, [(2, 4, 6), (0, 0, 4)])
        once = saturate(lat)
        assert saturate(once) == once

    def test_saturate_full_rank_oracle(self):
        # (2,2),(0,4) has full rank in Z^2, so its saturation is all of Z^2;
        # frozen from the brute-force enumeration oracle.
        basis = ((2, 2), (0, 4))
        expected = saturation_points_bruteforce(basis, 2, box=2)
        sat = saturate(Sublattice.from_rows(2, basis))
        assert sat == Sublattice.full(2)
        for x in range(-2, 3):
            for y in range(-2, 3):
                assert sat.contains_vector((x, y)) == ((x, y) in expected)

    @pytest.mark.parametrize("seed", range(10))
    def test_saturate_matches_enumeration(self, seed):
        rng = random.Random(100 + seed)
        n = rng.randint(1, 3)
        rows = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, n))]
        lat = Sublattice.from_rows(n, rows)
        sat = saturate(lat)
        expected = saturation_points_bruteforce(lat.basis, n, box=2)
        for point in expected:
            assert sat.contains_vector(point)
        assert sat.rank == lat.rank

    def test_saturate_monotone(self):
        lat = Sublattice.from_rows(2, [(2, 4)])
        sat = saturate(lat)
        assert all(sat.contains_vector(row) for row in lat.basis)

    def test_saturate_runs_one_hnf(self, monkeypatch):
        # the integer points of the rational span: one kernel_lattice, which
        # reads its HNF basis off one HNF
        lattices = [Sublattice.zero(3), Sublattice.from_rows(2, [(2, 4)]),
                    Sublattice.from_rows(3, [(2, 4, 6), (0, 0, 4)]),
                    Sublattice.from_rows(2, [(2, 2), (0, 4)])]
        expected = [Sublattice.zero(3), Sublattice.from_rows(2, [(1, 2)]),
                    Sublattice.from_rows(3, [(1, 2, 0), (0, 0, 1)]),
                    Sublattice.full(2)]
        calls = []
        real = lattice.hnf

        def counted(matrix):
            calls.append(matrix)
            return real(matrix)
        monkeypatch.setattr(lattice, "hnf", counted)
        for lat, sat in zip(lattices, expected):
            calls.clear()
            assert saturate(lat) == sat
            assert len(calls) == 1


class TestCommensurable:
    # two sublattices are commensurable (their intersection has finite
    # index in both) exactly when their saturations are equal

    def test_trivial_scalings(self):
        lat = Sublattice.from_rows(2, [(1, 2), (0, 5)])
        tripled = Sublattice.from_rows(2, [(3, 6), (0, 15)])
        assert saturate(lat) == saturate(tripled) == Sublattice.full(2)

    def test_transverse_lines(self):
        a = Sublattice.from_rows(2, [(1, 0)])
        b = Sublattice.from_rows(2, [(0, 1)])
        assert saturate(a) != saturate(b)

    def test_parallel_lines(self):
        a = Sublattice.from_rows(2, [(2, 4)])
        b = Sublattice.from_rows(2, [(3, 6)])
        assert saturate(a) == saturate(b)
        assert saturate(a).basis == ((1, 2),)

    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_relation(self, seed):
        # equal saturations iff a, b and a + b all have one rank
        rng = random.Random(200 + seed)
        n = 3
        lats = [Sublattice.from_rows(
            n, [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rng.randint(1, 2))]) for _ in range(3)]
        lats = [l for l in lats if l.rank]
        for a in lats:
            assert saturate(saturate(a)) == saturate(a)
            for b in lats:
                same = a.rank == b.rank == matrix_rank(a.basis + b.basis)
                assert (saturate(a) == saturate(b)) == same


class TestKernels:
    def test_axis(self):
        assert kernel_lattice([(1, 0)], 2).basis == ((0, 1),)

    def test_diagonal(self):
        assert kernel_lattice([(1, -1)], 2).basis == ((1, 1),)

    def test_rational_row(self):
        assert kernel_lattice([(Fraction(1, 2), Fraction(1, 3))], 2).basis \
            == ((2, -3),)

    def test_zero_map(self):
        assert kernel_lattice([(0, 0, 0)], 3) == Sublattice.full(3)

    @pytest.mark.parametrize("M, n", [
        ([(1, 0)], 2), ([(Fraction(1, 2), Fraction(1, 3))], 2),
        ([(2, 4, 6), (1, 2, 3), (0, 1, -1)], 3), ([], 3), ([(0, 0, 0)], 3)])
    def test_one_hnf_of_the_transpose(self, monkeypatch, M, n):
        # the kernel is read off the transform of hnf(M^T): one n x m
        # matrix goes in, with no identity block beside it
        calls = []
        real = lattice.hnf

        def recorded(matrix):
            calls.append(matrix)
            return real(matrix)
        monkeypatch.setattr(lattice, "hnf", recorded)
        K = kernel_lattice(M, n)
        assert [[tuple(row) for row in c] for c in calls] == [
            [tuple(vec_primitive(r)[i] for r in M) for i in range(n)]]
        assert K.rank == n - matrix_rank(M)

    @settings(max_examples=200, derandomize=True, database=None,
              deadline=None)
    @given(M=_int_matrices(), half=st.booleans())
    def test_trusted_sublattices_equal_validated(self, M, half):
        # kernel_lattice and from_rows skip the validating constructor; the
        # rows they hand over must be the int row HNF it would keep
        n = len(M[0]) if M else 3
        if half:
            M = [[Fraction(x, 2) for x in row] for row in M]
        built = [kernel_lattice(M, n)]
        if not half:
            built.append(Sublattice.from_rows(n, M))
            built.append(Sublattice.from_rows(n, built[0].basis))
        for lat in built:
            assert lat == Sublattice(n, lat.basis)
            assert all(type(x) is int for row in lat.basis for x in row)

    @pytest.mark.parametrize("seed", range(10))
    def test_character_kernel_rank(self, seed):
        rng = random.Random(300 + seed)
        n = rng.randint(1, 4)
        chi = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    for _ in range(n))
        ker = kernel_lattice([chi], n)
        if any(chi):
            assert ker.rank == n - 1
        else:
            assert ker.rank == n
        for row in ker.basis:
            assert sum(c * x for c, x in zip(chi, row)) == 0
        assert saturate(ker) == ker

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_box_enumeration(self, seed):
        rng = random.Random(600 + seed)
        n = rng.randint(1, 4)
        M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              if rng.random() < 0.7 else 0 for _ in range(n)]
             for _ in range(rng.randint(0, 3))]
        if len(M) == 3:
            M[2] = [a - 2 * b for a, b in zip(M[0], M[1])]
        K = kernel_lattice(M, n)
        assert K.rank == n - matrix_rank(M)
        for x in itertools.product(range(-3, 4), repeat=n):
            in_kernel = all(sum(a * b for a, b in zip(row, x)) == 0
                            for row in M)
            assert K.contains_vector(x) == in_kernel

    @pytest.mark.parametrize("seed", range(12))
    def test_saturated_against_bruteforce(self, seed):
        # the box points with a multiple in K, the box points of K and the
        # box points of the kernel are one set: K is the whole kernel
        rng = random.Random(700 + seed)
        n = rng.randint(1, 3)
        M = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3))
              if rng.random() < 0.6 else 0 for _ in range(n)]
             for _ in range(rng.randint(1, 3))]
        if len(M) > 1 and rng.random() < 0.5:
            M[-1] = [Fraction(rng.randint(-2, 2), 3) * x for x in M[0]]
        K = kernel_lattice(M, n)
        kernel = {x for x in itertools.product(range(-3, 4), repeat=n)
                  if all(sum(a * b for a, b in zip(row, x)) == 0
                         for row in M)}
        assert saturation_points_bruteforce(K.basis, n) == kernel
        assert {x for x in kernel if K.contains_vector(x)} == kernel


class TestSubspaces:
    def test_rref_canonical(self):
        s1 = Subspace.from_rows(3, [(1, 2, 3), (2, 4, 6), (0, 0, 1)])
        s2 = Subspace.from_rows(3, [(1, 2, 0), (0, 0, 2)])
        assert s1 == s2 and s1.dim == 2
        # entries are rationals: a float is rejected, not read as 1/2
        with pytest.raises(ValueError):
            Subspace.from_rows(2, [(0.5, 1)])
        with pytest.raises(ValueError):
            s1.contains_vector((1.0, 2, 0))

    def test_sum_intersection(self):
        a = Subspace.from_rows(3, [(1, 0, 0), (0, 1, 0)])
        b = Subspace.from_rows(3, [(0, 1, 0), (0, 0, 1)])
        assert subspace_sum(a, b) == Subspace.full(3)
        assert subspace_intersection(a, b) == Subspace.from_rows(3, [(0, 1, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            subspace_sum(Subspace.full(2), Subspace.full(3))

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(pair=_subspace_pairs(), planted=_planted_pairs())
    def test_intersection_matches_three_kernels(self, pair, planted):
        # one elimination of [a | a], [b | 0] against the kernel of the
        # stacked kernels; zero, full, equal, nested and disjoint operands
        a, b = pair
        n = a.ambient_dim
        c, d, shared = planted
        cases = [(a, b), (b, a), (a, a), (a, Subspace.zero(n)),
                 (Subspace.full(n), a), (c, d), (d, c)]
        for s1, s2 in cases:
            meet = subspace_intersection(s1, s2)
            assert meet == subspace_intersection_oracle(s1, s2)
            assert all(type(x) is int for row in meet.rows for x in row)
        meet = subspace_intersection(c, d)
        assert meet.contains(shared)
        assert meet.dim == c.dim + d.dim - subspace_sum(c, d).dim

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(pair=_subspace_pairs())
    def test_contains_is_per_row_membership(self, pair):
        a, b = pair
        assert a.contains(b) == all(a.contains_vector(r) for r in b.basis)
        assert b.contains(a) == all(b.contains_vector(r) for r in a.basis)

    @settings(max_examples=300, derandomize=True, database=None,
              deadline=None)
    @given(drawn=_spanning_sets())
    def test_stored_rows_match_gauss_jordan(self, drawn):
        n, S, T, U, v = drawn
        space = Subspace.from_rows(n, S)
        frac_rows, _ = rref_fraction(S)
        assert space.rows == tuple(vec_primitive(row) for row in frac_rows)
        assert space.basis == frac_rows
        for row, divided in zip(space.rows, space.basis, strict=True):
            pivot = next(filter(None, row))
            assert pivot > 0
            # a Fraction only where a division happens
            kind = int if pivot == 1 else Fraction
            assert all(type(x) is kind for x in divided)
        # another spanning set of the same space gives an equal record
        other = Subspace.from_rows(n, T)
        assert other == space and hash(other) == hash(space)
        rank = len(frac_rows)
        assert space.contains_vector(v) \
            == (len(rref_fraction(S + [v])[1]) == rank)
        assert space.contains(Subspace.from_rows(n, U)) \
            == (len(rref_fraction(S + U)[1]) == rank)

    def test_subspace_to_lattice(self):
        s = Subspace.from_rows(2, [(Fraction(1, 2), Fraction(1, 3))])
        lat = subspace_to_lattice(s)
        assert lat.basis == ((3, 2),)
        assert saturate(lat) == lat


class TestSolveLeft:
    """Integer left solves ``x * A = b``, run through the coordinates of
    ``b`` in the sublattice that the rows of ``A`` generate."""

    @pytest.mark.parametrize("seed", range(10))
    def test_roundtrip(self, seed):
        rng = random.Random(500 + seed)
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        A = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                  for _ in range(m))
        x = tuple(rng.randint(-3, 3) for _ in range(m))
        b = tuple(sum(x[i] * A[i][j] for i in range(m)) for j in range(n))
        lat = Sublattice.from_rows(n, A)
        y = lat.coordinates(b)
        assert y is not None
        assert tuple(sum(c * row[j] for c, row in zip(y, lat.basis))
                     for j in range(n)) == b

    def test_unsolvable(self):
        assert Sublattice.from_rows(2, ((2, 0),)).coordinates((1, 0)) is None
        assert Sublattice.from_rows(2, ((1, 0),)).coordinates((0, 1)) is None


class TestCoordinates:
    # an echelon basis built directly, entries above the pivots unreduced
    ECHELON = Sublattice(3, ((1, 5, 7), (0, 2, 9), (0, 0, 4)))

    def test_unreduced_echelon_basis(self):
        assert self.ECHELON.coordinates((2, 12, 27)) == (2, 1, 1)
        assert self.ECHELON.coordinates((3, 17, 33)) is None
        assert Sublattice.zero(2).coordinates((0, 0)) == ()
        assert Sublattice.zero(2).coordinates((0, 1)) is None

    def test_calls_no_hnf(self, monkeypatch):
        def no_hnf(matrix):
            raise AssertionError("coordinates ran an HNF")

        monkeypatch.setattr(lattice, "hnf", no_hnf)
        assert self.ECHELON.coordinates((2, 12, 27)) == (2, 1, 1)
        assert self.ECHELON.coordinates((3, 17, 33)) is None


def test_vec_primitive():
    assert vec_primitive((Fraction(1, 2), Fraction(-1, 3))) == (3, -2)
    assert vec_primitive((0, 0)) == (0, 0)
    assert vec_primitive((4, -6)) == (2, -3)


def test_null_space_vs_rank():
    rng = random.Random(77)
    for _ in range(20):
        m, n = rng.randint(1, 3), rng.randint(1, 4)
        M = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        ns = null_space_int(M, n)
        assert len(ns) == n - matrix_rank(M)
        for v in ns:
            for row in M:
                assert sum(a * b for a, b in zip(row, v)) == 0


def _random_rational_matrix(rng):
    """A random rational matrix of any shape (wide, tall or empty) with
    zero rows, rank deficiency, negative pivots and non-primitive rows."""
    m, n = rng.randint(0, 6), rng.randint(1, 7)
    rows = []
    for _ in range(m):
        kind = rng.random()
        if kind < 0.15:
            row = [0] * n
        elif kind < 0.3:
            row = [rng.choice((-6, -4, 4, 6)) * rng.randint(-3, 3)
                   for _ in range(n)]
        else:
            row = [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                   if rng.random() < 0.7 else 0 for _ in range(n)]
        rows.append(row)
    if m >= 3 and rng.random() < 0.4:
        rows[-1] = [2 * a - Fraction(1, 3) * b
                    for a, b in zip(rows[0], rows[1])]
    return rows


class TestRref:
    def test_matches_fraction_gauss_jordan(self):
        # the int rows, each divided by its pivot, are the Gauss-Jordan rows
        rng = random.Random(4242)
        for _ in range(1500):
            M = _random_rational_matrix(rng)
            rows, pivots = rref(M)
            frac_rows, frac_pivots = rref_fraction(M)
            assert pivots == frac_pivots
            for row, c, frac_row in zip(rows, pivots, frac_rows, strict=True):
                assert all(type(x) is int for x in row) and row[c] > 0
                assert vec_primitive(row) == tuple(row)
                assert [Fraction(x, row[c]) for x in row] == list(frac_row)

    def test_negative_pivot_and_zero_rows(self):
        M = [(0, 0, 0), (0, -2, 4), (Fraction(-3, 2), 3, 0), (0, 0, 0)]
        rows, pivots = rref(M)
        assert (tuple(tuple(Fraction(x, row[c]) for x in row)
                      for row, c in zip(rows, pivots)), pivots) \
            == rref_fraction(M)
        assert (rows, pivots) == ([[1, 0, -4], [0, 1, -2]], (0, 1))

    def test_tall_matches_fraction_gauss_jordan(self):
        # the elimination stops once every column holds a pivot: the rows
        # after that point are dependent, Fraction or zero rows
        rng = random.Random(4343)
        ranks = set()
        for _ in range(600):
            M = _random_tall_matrix(rng)
            rows, pivots = rref(M)
            frac_rows, frac_pivots = rref_fraction(M)
            assert pivots == frac_pivots
            assert [[Fraction(x, row[c]) for x in row]
                    for row, c in zip(rows, pivots)] \
                == [list(row) for row in frac_rows]
            assert all(vec_primitive(row) == tuple(row) for row in rows)
            assert matrix_rank(M) == len(pivots)
            ranks.add((len(pivots) == len(M[0]), len(M) > 12))
        assert ranks == {(True, True), (True, False), (False, True),
                         (False, False)}

    @pytest.mark.parametrize("late", [0.5, 1.0, "1"])
    def test_entry_after_full_rank_is_validated(self, late):
        M = [(1, 0), (0, 1), (Fraction(1, 2), 3), (late, 1)]
        with pytest.raises(ValueError) as info:
            rref(M)
        assert str(info.value) == f"rational entry expected, got {late!r}"
        with pytest.raises(ValueError):
            matrix_rank(M)


def _random_tall_matrix(rng):
    """Up to 16 rows of length n <= 5 spanning a drawn rank r <= n: r
    random rows first or shuffled in, the others rational combinations of
    them (with zero rows), some cleared to ints and some with Fractions."""
    n = rng.randint(1, 5)
    r = n if rng.random() < 0.5 else rng.randint(1, n)
    m = rng.randint(r, 16)
    basis = [[rng.choice((0, rng.randint(-4, 4), Fraction(rng.randint(-5, 5),
                                                           rng.randint(1, 3))))
              for _ in range(n)] for _ in range(r)]
    rows = [list(b) for b in basis]
    for _ in range(m - r):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                  if rng.random() < 0.7 else 0 for _ in basis]
        row = [sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]
        if rng.random() < 0.3:
            row = list(vec_primitive(row))
        rows.append(row)
    if rng.random() < 0.5:
        rng.shuffle(rows)
    return rows


# a rank n and up to three integer rows of length n
_ROWS = st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(*[st.integers(-3, 3)] * n), max_size=3)))


class TestRecords:
    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(_ROWS)
    def test_sublattice(self, drawn):
        n, rows = drawn
        lat = Sublattice.from_rows(n, rows)
        other = Sublattice.zero(n) if lat.basis else Sublattice.full(n)
        changes = [(n, other.basis)]
        if not lat.basis:
            changes.append((n + 1, ()))
        assert_record(Sublattice, (n, lat.basis), changes)

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(_ROWS)
    def test_subspace(self, drawn):
        n, rows = drawn
        args = (n, Subspace.from_rows(n, rows).rows)
        assert_record(Subspace, args, one_changed(args))


# ---------------------------------------------------------------------------
# boundary checks: each case is a call on bad input and its ValueError

BAD_INPUTS = {
    "dot": (lambda: lattice.dot((1, 2), (1,)),
            "dimension mismatch in dot product"),
    "row-times": (lambda: lattice.row_times((1,), ((1, 2), (3, 4))),
                  "dimension mismatch in row_times"),
    "sublattice-generator": (lambda: Sublattice.from_rows(2, [(1, 2, 3)]),
                             "generator of wrong length"),
    "kernel-lattice": (lambda: kernel_lattice([(1, 2, 3)], 2),
                       "dimension mismatch"),
    "subspace-row": (lambda: Subspace.from_rows(2, [(1, 2, 3)]),
                     "row of wrong length"),
    "contains-vector": (lambda: Subspace.zero(2).contains_vector((1, 2, 3)),
                        "dimension mismatch"),
    "contains": (lambda: Subspace.zero(2).contains(Subspace.full(3)),
                 "dimension mismatch"),
    "intersection": (lambda: subspace_intersection(Subspace.full(2),
                                                   Subspace.zero(3)),
                     "dimension mismatch"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_boundary_raises(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
