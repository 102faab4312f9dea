import random
from fractions import Fraction

import pytest

from qtdelta.lattice import Subspace, congruence, subspace_sum
from qtdelta.symplectic import (
    AlternatingMapQ,
    NoBaseFound,
    SymplecticBase,
    center,
    centralizer,
    centralizer_codim,
    check_ample,
    compute_symplectic_base,
    decompose_abelian,
    image_space,
    is_abelian,
    random_abelian_subspace,
    vec_primitive_signed,
    verify_symplectic_base,
)
from qtdelta.symplectic import _charpoly, _restrict
from qtdelta.rng import derive

from oracles import (
    base_exists_oracle,
    block_form,
    conjugate_form,
    conjugated_block_instance,
    det_fraction,
    distinct_lines,
    pairing_double_sum,
    random_unimodular,
    restrict_double_sum,
    standard_j,
)


def J_map(n, s=1, coord=0):
    mats = []
    for k in range(s):
        if k == coord:
            mats.append(tuple(map(tuple, standard_j(n))))
        else:
            mats.append(tuple(tuple(0 for _ in range(n)) for _ in range(n)))
    return AlternatingMapQ(n, s, tuple(mats))


def two_block_form():
    return block_form([2, 2], [(1, 0), (0, 1)], 2)


def merged_line_form():
    return block_form([2, 2], [(1,), (1,)], 1)


def no_base_form():
    # (e1,e2) -> w1, (e3,e4) -> w1, (e1,e3) -> w2
    m1 = [[0] * 4 for _ in range(4)]
    m1[0][1], m1[1][0] = 1, -1
    m1[2][3], m1[3][2] = 1, -1
    m2 = [[0] * 4 for _ in range(4)]
    m2[0][2], m2[2][0] = 1, -1
    return AlternatingMapQ(4, 2, (tuple(map(tuple, m1)),
                                  tuple(map(tuple, m2))))


class TestCenterCentralizer:
    def test_zero_form(self):
        phi = AlternatingMapQ(3, 1, (tuple(tuple(0 for _ in range(3))
                                           for _ in range(3)),))
        assert center(phi) == Subspace.full(3)

    def test_nondegenerate(self):
        assert center(J_map(2)).dim == 0

    def test_block_plus_zero(self):
        m = ((0, 1, 0), (-1, 0, 0), (0, 0, 0))
        phi = AlternatingMapQ(3, 1, (m,))
        assert center(phi) == Subspace.from_rows(3, [(0, 0, 1)])

    def test_centralizer_of_zero_is_all(self):
        phi = J_map(2)
        assert centralizer(phi, Subspace.zero(2)) == Subspace.full(2)

    def test_abelian_line(self):
        phi = J_map(2)
        assert is_abelian(phi, Subspace.from_rows(2, [(1, 0)]))
        assert not is_abelian(phi, Subspace.full(2))

    def test_codim_values(self):
        assert centralizer_codim(two_block_form(), (1, 0, 0, 0)) == 1
        assert centralizer_codim(two_block_form(), (1, 0, 1, 0)) == 2
        assert centralizer_codim(two_block_form(), (0, 0, 0, 0)) == 0


class TestVerifyBase:
    def test_two_block_fixture(self):
        phi = two_block_form()
        base = SymplecticBase(
            Subspace.zero(4),
            (Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
             Subspace.from_rows(4, [(0, 0, 1, 0), (0, 0, 0, 1)])),
            ((1, 0), (0, 1)))
        assert verify_symplectic_base(phi, base).passed

    def test_swapped_lines_fail_distinctness(self):
        phi = block_form([2, 2], [(1, 0), (1, 0)], 2)
        base = SymplecticBase(
            Subspace.zero(4),
            (Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
             Subspace.from_rows(4, [(0, 0, 1, 0), (0, 0, 0, 1)])),
            ((1, 0), (1, 0)))
        report = verify_symplectic_base(phi, base)
        assert not report.lines_distinct and not report.passed
        assert report.blocks_orthogonal and report.blocks_nondegenerate

    def test_wrong_centre_fails(self):
        phi = block_form([2], [(1,)], 1, central=1)
        base = SymplecticBase(
            Subspace.zero(3),
            (Subspace.from_rows(3, [(1, 0, 0), (0, 1, 0)]),),
            ((1,),))
        report = verify_symplectic_base(phi, base)
        assert not report.centre_is_v0 and not report.passed

    def test_inconsistent_stored_line(self):
        phi = J_map(2, s=2, coord=0)
        base = SymplecticBase(Subspace.zero(2), (Subspace.full(2),),
                              ((0, 1),))
        report = verify_symplectic_base(phi, base)
        assert not report.lines_consistent and not report.passed


class TestComputeBase:
    def test_single_block(self):
        phi = J_map(2)
        base = compute_symplectic_base(phi, seed=0)
        assert isinstance(base, SymplecticBase)
        assert base.blocks == (Subspace.full(2),)
        assert base.lines == ((1,),)

    def test_merged_line(self):
        base = compute_symplectic_base(merged_line_form(), seed=0)
        assert isinstance(base, SymplecticBase)
        assert len(base.blocks) == 1
        assert base.blocks[0].dim == 4
        assert base.lines == ((1,),)
        assert verify_symplectic_base(merged_line_form(), base).passed

    def test_no_base_fixture(self):
        outcome = compute_symplectic_base(no_base_form(), seed=0, retries=8)
        assert isinstance(outcome, NoBaseFound)
        assert outcome.attempts == 8

    def test_no_base_fixture_oracle(self):
        assert base_exists_oracle(no_base_form()) is False
        assert base_exists_oracle(two_block_form()) is True

    def test_zero_form_all_centre(self):
        phi = AlternatingMapQ(2, 1, (((0, 0), (0, 0)),))
        base = compute_symplectic_base(phi, seed=0)
        assert isinstance(base, SymplecticBase)
        assert base.V0 == Subspace.full(2) and base.blocks == ()

    @pytest.mark.parametrize("seed", range(25))
    def test_conjugated_roundtrip(self, seed):
        rng = random.Random(4000 + seed)
        t = rng.randint(1, 3)
        dims = [rng.choice([2, 4]) for _ in range(t)]
        s = rng.randint(1, 3)
        try:
            lines = distinct_lines(rng, t, s)
        except RuntimeError:
            return
        central = rng.choice([0, 1, 2])
        phi, expected = conjugated_block_instance(rng, dims, lines, s,
                                                  central)
        base = compute_symplectic_base(phi, seed=seed)
        assert isinstance(base, SymplecticBase)
        assert verify_symplectic_base(phi, base).passed
        # uniqueness holds for V0 + V_i (blocks themselves only when the
        # centre is trivial)
        got = sorted(subspace_sum(base.V0, b).basis for b in base.blocks)
        want = sorted(subspace_sum(base.V0, b).basis for b in expected)
        assert got == want
        if central == 0:
            assert sorted(b.basis for b in base.blocks) \
                == sorted(b.basis for b in expected)

    def test_two_seeds_same_blocks(self):
        rng = random.Random(99)
        phi, _ = conjugated_block_instance(rng, [2, 4], [(1, 0), (0, 1)], 2)
        b1 = compute_symplectic_base(phi, seed=1)
        b2 = compute_symplectic_base(phi, seed=2)
        assert isinstance(b1, SymplecticBase) and isinstance(b2, SymplecticBase)
        assert sorted(b.basis for b in b1.blocks) \
            == sorted(b.basis for b in b2.blocks)

    def test_codim_characterizes_blocks(self):
        rng = random.Random(123)
        phi, expected = conjugated_block_instance(
            rng, [2, 2], [(1, 0), (0, 1)], 2)
        base = compute_symplectic_base(phi, seed=0)
        assert isinstance(base, SymplecticBase)
        for block in base.blocks:
            for row in block.basis:
                assert centralizer_codim(phi, row) == 1
        # cross-block sums have codimension two
        v = tuple(a + b for a, b in zip(base.blocks[0].basis[0],
                                        base.blocks[1].basis[0]))
        assert centralizer_codim(phi, v) == 2


class TestDecomposeAbelian:
    def test_coordinate_split(self):
        phi = two_block_form()
        base = compute_symplectic_base(phi, seed=0)
        U = Subspace.from_rows(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
        parts = decompose_abelian(phi, base, U)
        assert sorted(p.basis for p in parts) == sorted([
            Subspace.from_rows(4, [(1, 0, 0, 0)]).basis,
            Subspace.from_rows(4, [(0, 0, 1, 0)]).basis])

    def test_non_abelian_rejected(self):
        phi = two_block_form()
        base = compute_symplectic_base(phi, seed=0)
        bad = Subspace.from_rows(4, [(1, 0, 1, 0), (0, 1, 0, 0)])
        with pytest.raises(ValueError):
            decompose_abelian(phi, base, bad)

    def test_small_dimension_rejected(self):
        phi = two_block_form()
        base = compute_symplectic_base(phi, seed=0)
        with pytest.raises(ValueError):
            decompose_abelian(phi, base,
                              Subspace.from_rows(4, [(1, 0, 0, 0)]))

    def test_nontrivial_centre_rejected(self):
        phi = block_form([2], [(1,)], 1, central=1)
        base = compute_symplectic_base(phi, seed=0)
        U = Subspace.from_rows(3, [(1, 0, 0)])
        with pytest.raises(ValueError):
            decompose_abelian(phi, base, U)

    @pytest.mark.parametrize("seed", range(15))
    def test_random_lagrangian_split(self, seed):
        rng = random.Random(4200 + seed)
        t = rng.randint(1, 3)
        dims = [rng.choice([2, 4]) for _ in range(t)]
        s = rng.randint(1, 3)
        try:
            lines = distinct_lines(rng, t, s)
        except RuntimeError:
            return
        n = sum(dims)
        G = random_unimodular(rng, n, ops=8)
        phi = conjugate_form(block_form(dims, lines, s), G)
        from qtdelta.polyhedral import _fraction_inverse
        ginv = _fraction_inverse([list(r) for r in G])
        # abelian subspace: graph of a symmetric matrix inside each block
        rows = []
        off = 0
        for d in dims:
            half = d // 2
            S = [[rng.randint(-2, 2) for _ in range(half)]
                 for _ in range(half)]
            for i in range(half):
                for j in range(i):
                    S[i][j] = S[j][i]
            for i in range(half):
                vec = [Fraction(0)] * n
                vec[off + i] = Fraction(1)
                for j in range(half):
                    vec[off + half + j] = Fraction(S[i][j])
                rows.append(tuple(vec))
            off += d
        mapped = [tuple(sum(ginv[r][c] * row[c] for c in range(n))
                        for r in range(n)) for row in rows]
        U = Subspace.from_rows(n, mapped)
        base = compute_symplectic_base(phi, seed=seed)
        assert isinstance(base, SymplecticBase)
        parts = decompose_abelian(phi, base, U)
        assert sum(p.dim for p in parts) == U.dim == n // 2
        for p, b in zip(parts, base.blocks):
            assert 2 * p.dim == b.dim


class TestCheckAmple:
    def test_plane_with_two_lines(self):
        phi = J_map(2)
        omega = [Subspace.from_rows(2, [(1, 0)]),
                 Subspace.from_rows(2, [(0, 1)])]
        probes = omega + [Subspace.from_rows(2, [(1, 1)])]
        report = check_ample(phi, Subspace.full(2), omega, probes=probes)
        assert report.passed
        assert report.m == 1 and report.dim_ok and report.cond1 is None
        assert report.cond2

    def test_single_member_fails(self):
        phi = J_map(2)
        omega = [Subspace.from_rows(2, [(1, 0)])]
        report = check_ample(phi, Subspace.full(2), omega, probes=omega)
        assert not report.cond2 and not report.passed

    def test_degenerate_odd_total(self):
        phi = AlternatingMapQ(3, 1, (
            ((0, 1, 0), (-1, 0, 0), (0, 0, 0)),))
        # dim V + dim centre = 3 + 1 = 4, m = 2; X of wrong size
        report = check_ample(phi, Subspace.from_rows(3, [(1, 0, 0)]), [],
                             probes=[])
        assert not report.dim_ok and not report.passed

    def test_seeded_probes_recorded(self):
        phi = two_block_form()
        # every pair of coordinate Lagrangians sharing one axis: condition
        # (1) needs overlapping members, condition (2) a separating one
        omega = [Subspace.from_rows(4, [(1, 0, 0, 0), (0, 0, 1, 0)]),
                 Subspace.from_rows(4, [(1, 0, 0, 0), (0, 0, 0, 1)]),
                 Subspace.from_rows(4, [(0, 1, 0, 0), (0, 0, 1, 0)]),
                 Subspace.from_rows(4, [(0, 1, 0, 0), (0, 0, 0, 1)])]
        report = check_ample(phi, Subspace.full(4), omega, seed=3)
        assert report.probes
        assert report.passed
        assert report.dim_ok and report.cond1 is True and report.cond2

    def test_disjoint_pair_fails_cond1(self):
        phi = two_block_form()
        omega = [Subspace.from_rows(4, [(1, 0, 0, 0), (0, 0, 1, 0)]),
                 Subspace.from_rows(4, [(0, 1, 0, 0), (0, 0, 0, 1)])]
        report = check_ample(phi, Subspace.full(4), omega, probes=omega)
        assert report.cond1 is False and not report.passed

    def test_malformed_omega_rejected(self):
        phi = J_map(2)
        with pytest.raises(ValueError):
            check_ample(phi, Subspace.full(2),
                        [Subspace.from_rows(2, [(1, 0), (0, 1)])])


def test_random_abelian_subspace_is_abelian():
    rng = derive(0, "probe-test")
    phi = two_block_form()
    for _ in range(5):
        u = random_abelian_subspace(phi, Subspace.full(4), 2, rng)
        assert is_abelian(phi, u)


def test_image_space():
    phi = two_block_form()
    block = Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert image_space(phi, block) == Subspace.from_rows(2, [(1, 0)])


def test_vec_primitive_signed():
    assert vec_primitive_signed((-2, 4)) == (1, -2)
    assert vec_primitive_signed((0, -3)) == (0, 1)


# ---------------------------------------------------------------------------
# integer kernel against the Fraction double sums

def _rational(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 9]))


def _rational_antisymmetric(rng, n):
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = _rational(rng)
            m[j][i] = -m[i][j]
    return m


def _rational_basis(rng, r, n):
    """Rows with non-integer entries alternating with integer rows that are
    not primitive."""
    return [tuple(_rational(rng) for _ in range(n)) if i % 2 == 0
            else tuple(3 * rng.randint(-2, 2) for _ in range(n))
            for i in range(r)]


class TestIntegerKernel:
    @pytest.mark.parametrize("seed", range(8))
    def test_congruence_matches_double_sum(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        M = [[_rational(rng) for _ in range(n)] for _ in range(n)]
        basis = _rational_basis(rng, rng.randint(0, 4), n)
        expected = restrict_double_sum(M, basis)
        assert congruence(basis, M) == expected
        assert congruence(basis, M, 6) == tuple(
            tuple(x / 6 for x in row) for row in expected)

    def test_congruence_of_integers_stays_integral(self):
        M = ((1, -2, 0), (3, 0, 5), (0, 4, -1))
        basis = ((2, 0, 4), (0, 6, 3))
        out = congruence(basis, M)
        assert out == restrict_double_sum(M, basis)
        assert all(type(x) is int for row in out for x in row)

    def test_congruence_rejects_non_square(self):
        with pytest.raises(ValueError):
            congruence([(1, 0)], [(1, 2)])
        with pytest.raises(ValueError):
            congruence([(1, 0, 0)], [(0, 1), (-1, 0)])

    @pytest.mark.parametrize("seed", range(8))
    def test_restrict_pairing_left_rows_match_double_sum(self, seed):
        rng = random.Random(100 + seed)
        n, s = rng.randint(2, 6), rng.randint(1, 3)
        phi = AlternatingMapQ(n, s, tuple(_rational_antisymmetric(rng, n)
                                          for _ in range(s)))
        basis = _rational_basis(rng, rng.randint(1, 4), n)
        assert _restrict(phi, basis).forms == tuple(
            restrict_double_sum(m, basis) for m in phi.forms)
        units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
        for u in basis:
            for v in basis:
                assert phi.pairing(u, v) == pairing_double_sum(phi, u, v)
            rows = phi.left_rows(u)
            for j, e in enumerate(units):
                assert tuple(row[j] for row in rows) == \
                    pairing_double_sum(phi, u, e)

    @pytest.mark.parametrize("seed", range(8))
    def test_charpoly_matches_determinant(self, seed):
        rng = random.Random(200 + seed)
        d = rng.randint(0, 5)
        M = [[_rational(rng) for _ in range(d)] for _ in range(d)]
        coeffs = _charpoly(M)
        assert len(coeffs) == d + 1
        for lam in range(-3, 4):
            value = sum(c * lam ** (d - k) for k, c in enumerate(coeffs))
            shifted = [[(lam if i == j else 0) - M[i][j] for j in range(d)]
                       for i in range(d)]
            assert value == det_fraction(shifted)
