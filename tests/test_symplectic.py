import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtdelta.lattice import (
    Subspace,
    clear_matrix,
    complement_columns,
    congruence,
    matrix_rank,
    subspace_sum,
    vec_primitive,
    vec_primitive_signed,
)
from qtdelta import jsonio, symplectic
from qtdelta.symplectic import (
    AlternatingMapQ,
    AmpleReport,
    BaseReport,
    NoBaseFound,
    SymplecticBase,
    center,
    centralizer,
    check_ample,
    compute_symplectic_base,
    decompose_abelian,
    image_space,
    is_abelian,
    random_abelian_subspace,
    verify_symplectic_base,
)
from qtdelta.symplectic import (_block_pairings, _charpoly, _eigenspaces,
                                _integer_roots, _pencil_matrix, _square_root)
from qtdelta.rng import derive

from oracles import (
    base_exists_oracle,
    block_conditions_oracle,
    block_form,
    conjugate_form,
    conjugated_block_instance,
    det_fraction,
    distinct_lines,
    inverse_fraction,
    mat_mul,
    pairing_double_sum,
    random_unimodular,
    rational_roots_oracle,
    restrict_double_sum,
    rref_fraction,
    standard_j,
)
from records import assert_record, one_changed


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


def wedge_form(n, *forms):
    """Alternating map with one matrix per form, each given as terms
    (i, j, c) meaning c e_i ^ e_j."""
    mats = []
    for terms in forms:
        m = [[0] * n for _ in range(n)]
        for i, j, c in terms:
            m[i][j] += c
            m[j][i] -= c
        mats.append(tuple(map(tuple, m)))
    return AlternatingMapQ(n, len(mats), tuple(mats))


def no_base_form():
    # (e1,e2) -> w1, (e3,e4) -> w1, (e1,e3) -> w2
    return wedge_form(4, [(0, 1, 1), (2, 3, 1)], [(0, 2, 1)])


def test_map_validated():
    with pytest.raises(ValueError):
        AlternatingMapQ(2, 1, (((0, 1), (1, 0)),))
    with pytest.raises(ValueError):
        AlternatingMapQ(2, 1, (((0, 1, 0), (-1, 0, 0)),))
    # entries are ints or Fractions; a float is not read as its binary
    # expansion
    for bad in (0.5, 0.1, 1.0):
        with pytest.raises(ValueError):
            AlternatingMapQ(2, 1, (((0, bad), (-bad, 0)),))
    half = Fraction(1, 2)
    assert AlternatingMapQ(2, 1, (((0, half), (-half, 0)),)).forms \
        == (((0, half), (-half, 0)),)
    # an exact entry keeps its type: int rows stay int
    forms = AlternatingMapQ(2, 1, (((0, 1), (-1, 0)),)).forms
    assert forms == (((0, 1), (-1, 0)),)
    assert all(type(x) is int for m in forms for row in m for x in row)


def test_map_takes_one_matrix_per_target_coordinate():
    with pytest.raises(ValueError, match="one matrix per target coordinate"):
        AlternatingMapQ(2, 2, (((0, 1), (-1, 0)),))


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

    @pytest.mark.parametrize("seed", range(10))
    def test_radical_is_null_space_of_stacked_forms(self, seed):
        rng = random.Random(seed)
        s = rng.randint(1, 3)
        dims = [rng.choice([2, 4]) for _ in range(rng.randint(1, 2))]
        lines = [tuple(rng.randint(-2, 2) for _ in range(s)) for _ in dims]
        phi, _ = conjugated_block_instance(rng, dims, lines, s,
                                           central=rng.randint(0, 2))
        if seed % 2:
            half = Fraction(1, rng.randint(2, 5))
            phi = AlternatingMapQ(phi.n, s, tuple(
                tuple(tuple(half * x for x in row) for row in m)
                for m in phi.forms))
        n = phi.n
        R, pivots = rref_fraction([row for m in phi.forms for row in m])
        null = []
        for f in (j for j in range(n) if j not in pivots):
            v = [Fraction(int(j == f)) for j in range(n)]
            for row, p in zip(R, pivots):
                v[p] = -row[f]
            null.append(v)
        radical = center(phi)
        assert radical == Subspace.from_rows(n, null)
        # computed once per map object, never shared by an equal map
        assert center(phi) is radical
        again = AlternatingMapQ(n, s, phi.forms)
        assert again == phi and center(again) is not radical
        assert center(again) == radical
        # the base search and its verifier read the same radical
        base = compute_symplectic_base(phi, seed=seed)
        if isinstance(base, SymplecticBase):
            assert base.V0 is radical
            assert verify_symplectic_base(phi, base).centre_is_v0

    def test_codim_values(self):
        # the centralizer of v has codimension rank(v^T Phi_k)
        phi = two_block_form()
        assert matrix_rank(phi.left_rows((1, 0, 0, 0))) == 1
        assert matrix_rank(phi.left_rows((1, 0, 1, 0))) == 2
        assert matrix_rank(phi.left_rows((0, 0, 0, 0))) == 0


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


def coordinate_base():
    """Blocks span(e1, e2) and span(e3, e4) of Q^4, lines (1, 0), (0, 1)."""
    return SymplecticBase(
        Subspace.zero(4),
        (Subspace.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
         Subspace.from_rows(4, [(0, 0, 1, 0), (0, 0, 0, 1)])),
        ((1, 0), (0, 1)))


class TestReportCache:
    """The verifier's report is kept per map object and base value."""

    def test_equal_maps_do_not_share_reports(self):
        phi, twin = two_block_form(), two_block_form()
        assert phi == twin and phi is not twin
        base = compute_symplectic_base(phi, seed=0)
        assert verify_symplectic_base(phi, base).passed
        assert base in phi._reports
        assert twin._reports == {} and twin._reports is not phi._reports

    def test_same_base_value_judged_per_map(self):
        # the coordinate base passes for two_block_form; for the second map
        # both blocks have the line (1, 0), so its stored lines are wrong
        passing = two_block_form()
        failing = block_form([2, 2], [(1, 0), (1, 0)], 2)
        base = coordinate_base()
        for cand in (base, base, coordinate_base()):
            assert verify_symplectic_base(passing, cand).passed
            assert not verify_symplectic_base(failing, cand).passed

    def test_failing_candidate_fails_on_every_call(self):
        def phi():
            return wedge_form(4, [(1, 2, 1)], [(1, 3, 1)], [(0, 3, 1)])

        form = phi()
        first = compute_symplectic_base(form, seed=0, retries=8)
        assert isinstance(first, NoBaseFound) and not first.evidence.passed
        assert compute_symplectic_base(form, seed=0, retries=8) == first
        assert compute_symplectic_base(phi(), seed=0, retries=8) == first
        reports = [verify_symplectic_base(form, coordinate_base())
                   for _ in range(3)]
        assert not reports[0].passed and reports == [reports[0]] * 3

    def test_private_verifier_once_per_candidate(self, monkeypatch):
        phi, _ = conjugated_block_instance(
            random.Random(321), [2, 2, 2], [(1, 0), (0, 1), (1, 1)], 2)
        runs, calls = [], []
        verify, public = symplectic._verify, symplectic.verify_symplectic_base

        def counted_verify(form, cand):
            runs.append(cand)
            return verify(form, cand)

        def counted_public(form, cand):
            calls.append(cand)
            return public(form, cand)

        monkeypatch.setattr(symplectic, "_verify", counted_verify)
        monkeypatch.setattr(symplectic, "verify_symplectic_base",
                            counted_public)
        base = compute_symplectic_base(phi, seed=0)
        assert isinstance(base, SymplecticBase)
        assert symplectic.verify_symplectic_base(phi, base).passed
        for k in range(2):
            U = Subspace.from_rows(phi.n, [b.basis[k] for b in base.blocks])
            parts = decompose_abelian(phi, base, U)
            assert sum(p.dim for p in parts) == U.dim == phi.n // 2
        assert base in runs and len(runs) == len(set(runs))
        assert len(calls) == len(runs) + 3

    @pytest.mark.parametrize("seed", range(6))
    def test_cached_block_fields_match_oracle(self, seed):
        rng = random.Random(4300 + seed)
        phi, _ = conjugated_block_instance(
            rng, [2, rng.choice([2, 4])], [(1, 0), (0, 1)], 2)
        found = compute_symplectic_base(phi, seed=seed)
        assert isinstance(found, SymplecticBase)
        # crossed block k spans row k of each of the first two found
        # blocks: phi is zero on each crossed block, but not between them
        crossed = SymplecticBase(
            Subspace.zero(phi.n),
            (Subspace.from_rows(phi.n, [found.blocks[0].basis[0],
                                        found.blocks[1].basis[0]]),
             Subspace.from_rows(phi.n, [found.blocks[0].basis[1],
                                        found.blocks[1].basis[1]])),
            found.lines)
        for cand in (found, crossed, found, crossed, crossed):
            report = verify_symplectic_base(phi, cand)
            commute, parts = block_conditions_oracle(
                phi, [b.basis for b in cand.blocks])
            assert report.blocks_orthogonal == commute
            assert report.blocks_nondegenerate == all(
                nondegenerate and len(image) == 1
                for nondegenerate, image in parts)
        assert verify_symplectic_base(phi, found).passed
        assert not verify_symplectic_base(phi, crossed).blocks_orthogonal


class TestComputeBase:
    def test_single_block(self):
        phi = J_map(2)
        base = compute_symplectic_base(phi, seed=0)
        assert isinstance(base, SymplecticBase)
        assert base.blocks == (Subspace.full(2),)
        assert base.lines == ((1,),)

    @pytest.mark.parametrize("seed", range(3))
    def test_blocks_ordered_by_divided_basis(self, seed):
        # blocks span{(2, 1, 0, 0), e3} and span{(3, 1, 0, 0), e4}, with the
        # image lines e1 and e2: the second block's basis row (1, 1/3, 0, 0)
        # sorts first, though its int row (3, 1, 0, 0) sorts after
        phi = AlternatingMapQ(4, 2, (
            ((0, 0, -1, 0), (0, 0, 3, 0), (1, -3, 0, 0), (0, 0, 0, 0)),
            ((0, 0, 0, 1), (0, 0, 0, -2), (0, 0, 0, 0), (-1, 2, 0, 0))))
        base = compute_symplectic_base(phi, seed=seed)
        assert base.blocks == (
            Subspace.from_rows(4, [(3, 1, 0, 0), (0, 0, 0, 1)]),
            Subspace.from_rows(4, [(2, 1, 0, 0), (0, 0, 1, 0)]))
        assert base.lines == ((0, 1), (1, 0))

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

    def test_retries_below_one_rejected(self):
        for retries in (0, -1):
            with pytest.raises(ValueError, match="retries"):
                compute_symplectic_base(two_block_form(), retries=retries)

    def test_reason_no_invertible_pencil_member(self):
        # odd dimension with trivial radical: every pencil member is singular
        phi = wedge_form(3, [(0, 1, 1)], [(1, 2, 1)])
        assert center(phi).dim == 0
        outcome = compute_symplectic_base(phi, seed=0, retries=8)
        assert outcome == NoBaseFound(
            8, None, "could not draw an invertible pencil member")

    def test_reason_irrational_spectrum(self):
        # Pfaffian x^2 - 2y^2: the pencil eigenvalues are irrational
        phi = wedge_form(4, [(0, 1, 1), (2, 3, 1)], [(0, 2, 1), (1, 3, 2)])
        assert base_exists_oracle(phi) is False
        outcome = compute_symplectic_base(phi, seed=0, retries=8)
        assert outcome == NoBaseFound(
            8, None, "pencil spectrum not rational-diagonalizable")

    def test_reason_candidate_block_without_line(self):
        # lines (1, 0) and (0, 1) have the eigenvalues t'_1/t_1 and
        # t'_2/t_2; the first draw of seed 10 makes them equal, so the one
        # eigenspace is all of Q^4, with a two-dimensional image
        outcome = compute_symplectic_base(two_block_form(), seed=10,
                                          retries=1)
        assert outcome == NoBaseFound(
            1, None, "candidate block without a one-dimensional image line")
        base = compute_symplectic_base(two_block_form(), seed=10, retries=2)
        assert isinstance(base, SymplecticBase)
        assert verify_symplectic_base(two_block_form(), base).passed

    def test_reason_failed_verification(self):
        # e2^e3 -> w1, e2^e4 -> w2, e1^e4 -> w3: each eigenspace has one
        # image line, but the eigenspaces do not centralize each other
        phi = wedge_form(4, [(1, 2, 1)], [(1, 3, 1)], [(0, 3, 1)])
        outcome = compute_symplectic_base(phi, seed=0, retries=8)
        assert isinstance(outcome, NoBaseFound)
        assert (outcome.attempts, outcome.reason) \
            == (8, "candidate decomposition failed verification")
        assert jsonio.to_json(outcome.evidence) == {
            "direct_sum": True, "centre_is_v0": True,
            "blocks_orthogonal": False, "blocks_nondegenerate": True,
            "lines_distinct": True, "lines_consistent": True,
            "passed": False}

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
                assert matrix_rank(phi.left_rows(row)) == 1
        # cross-block sums have codimension two
        v = tuple(a + b for a, b in zip(base.blocks[0].basis[0],
                                        base.blocks[1].basis[0]))
        assert matrix_rank(phi.left_rows(v)) == 2


@st.composite
def repeated_line_instances(draw):
    """Conjugated block forms, s in {2, 3}, with three or four blocks whose
    lines come from a pool of at most two, so some line repeats."""
    s = draw(st.sampled_from([2, 3]))
    vectors = st.tuples(*[st.integers(-2, 2)] * s).filter(any)
    pool = draw(st.lists(vectors, min_size=1, max_size=2))
    t = draw(st.integers(3, 4))
    lines = [tuple(k * x for x in draw(st.sampled_from(pool)))
             for k in draw(st.lists(st.sampled_from([1, -1, 2]),
                                    min_size=t, max_size=t))]
    dims = [draw(st.sampled_from([2, 4]))] + [2] * (t - 1)
    central = draw(st.integers(0, 1))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    return conjugated_block_instance(rng, dims, lines, s, central) \
        + (lines, draw(st.integers(0, 1000)))


class TestRepeatedLines:
    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(instance=repeated_line_instances())
    def test_blocks_grouped_by_line(self, instance):
        # blocks sharing a line form one eigenspace of every pencil, so
        # the search returns their sums, one per line
        phi, expected, lines, seed = instance
        grouped = {}
        for block, w in zip(expected, lines):
            key = vec_primitive_signed(w)
            grouped[key] = subspace_sum(grouped.get(key, block), block)
        assert len(grouped) < len(expected)
        base = compute_symplectic_base(phi, seed=seed)
        assert isinstance(base, SymplecticBase)
        assert verify_symplectic_base(phi, base).passed
        assert sorted(base.lines) == sorted(grouped)
        # modulo the radical, as blocks are unique only up to it
        got = {w: subspace_sum(base.V0, b)
               for b, w in zip(base.blocks, base.lines)}
        assert got == {w: subspace_sum(base.V0, b)
                       for w, b in grouped.items()}


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

    def test_odd_dimension_rejected_by_the_earlier_checks(self):
        # a verified base with trivial centre has even blocks, so an odd
        # space fails one of the first two checks: the cross product on
        # Q^3 has trivial centre but no base, the forged one does not verify
        cross = wedge_form(3, [(1, 2, 1)], [(0, 2, -1)], [(0, 1, 1)])
        assert center(cross).dim == 0
        forged = SymplecticBase(Subspace.zero(3), [Subspace.full(3)],
                                [(1, 0, 0)])
        with pytest.raises(ValueError, match="^base does not verify$"):
            decompose_abelian(cross, forged, Subspace.zero(3))
        phi = block_form([2], [(1,)], 1, central=1)
        base = compute_symplectic_base(phi, seed=0)
        with pytest.raises(ValueError, match="^base has nontrivial centre"):
            decompose_abelian(phi, base,
                              Subspace.from_rows(3, [(1, 0, 0)]))

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
        ginv = inverse_fraction(G)
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


    def test_identity_check(self, monkeypatch):
        # each block taken whole as its component: they span Q^4, not U
        phi = two_block_form()
        base = compute_symplectic_base(phi, seed=0)
        U = Subspace.from_rows(4, [(1, 0, 0, 0), (0, 0, 1, 0)])
        monkeypatch.setattr(symplectic, "subspace_intersection",
                            lambda space, block: block)
        with pytest.raises(AssertionError,
                           match="abelian decomposition identity failed"):
            decompose_abelian(phi, base, U)

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
        grams = [restrict_double_sum(m, basis) for m in phi.forms]
        r = len(basis)
        # one part: its self pairings are every entry above the diagonal
        _, [(pairs, diagonal)] = _block_pairings(phi, [basis])
        assert pairs == [tuple(G[i][j] for G in grams)
                         for i in range(r) for j in range(i + 1, r)]
        assert matrix_rank(diagonal) == len(rref_fraction(
            [row for G in grams for row in G])[1])
        # two parts at a seeded cut: self pairings, rank of the diagonal
        # blocks and vanishing of the cross pairings, block by block
        cut = rng.randint(0, r)
        orth, blocks = _block_pairings(phi, [basis[:cut], basis[cut:]])
        assert orth == all(G[i][j] == 0 for G in grams
                           for i in range(cut) for j in range(cut, r))
        for own, (pairs, diagonal) in zip((range(cut), range(cut, r)),
                                          blocks):
            assert pairs == [tuple(G[i][j] for G in grams)
                             for i in own for j in own if i < j]
            assert diagonal == [tuple(G[i][j] for j in own)
                                for G in grams for i in own]
            assert matrix_rank(diagonal) == len(rref_fraction(diagonal)[1])
        # the restriction to the rows with one dependent row added, then
        # to their doubled primitive int rows on the numerators of phi,
        # where every entry stays an int
        rows = basis + [tuple(2 * x for x in basis[-1])]
        restricted = phi.restrict(rows)
        assert (restricted.n, restricted.s) == (r + 1, s)
        assert restricted.forms == tuple(restrict_double_sum(m, rows)
                                         for m in phi.forms)
        form = AlternatingMapQ(n, s, tuple(m for m, _ in phi._cleared))
        rows = [tuple(2 * x for x in vec_primitive(b)) for b in rows]
        restricted = form.restrict(rows)
        assert restricted.forms == tuple(restrict_double_sum(m, rows)
                                         for m in form.forms)
        assert all(type(x) is int for m in restricted.forms for row in m
                   for x in row)
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
        M = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(d)]
        coeffs = _charpoly(M)
        assert len(coeffs) == d + 1 and coeffs[0] == 1
        assert all(type(c) is int for c in coeffs)
        for lam in range(-3, 4):
            value = sum(c * lam ** (d - k) for k, c in enumerate(coeffs))
            shifted = [[(lam if i == j else 0) - M[i][j] for j in range(d)]
                       for i in range(d)]
            assert value == det_fraction(shifted)

    def test_charpoly_division_check(self, monkeypatch):
        # a product of integer matrices made to halve: the trace recursion's
        # division by k = 1 leaves a remainder
        times = symplectic.row_times
        monkeypatch.setattr(symplectic, "row_times", lambda row, N: [
            Fraction(x, 2) for x in times(row, N)])
        with pytest.raises(AssertionError,
                           match="inexact division in the trace recursion"):
            _charpoly([[1]])


# ---------------------------------------------------------------------------
# pencil spectrum against sympy's root finder over Q

IRREDUCIBLE = ((1, 0, -2), (1, 0, 1), (1, 0, 0, -2))  # x^2-2, x^2+1, x^3-2


def _poly_mul(p, q):
    """Product of two polynomials, coefficients leading first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _planted(roots, mults, irreducible):
    """Monic integer polynomial with the given integer roots, each of the
    given multiplicity, times the given irreducible factors."""
    coeffs = [1]
    for mu, k in zip(roots, mults):
        for _ in range(k):
            coeffs = _poly_mul(coeffs, [1, -mu])
    for f in irreducible:
        coeffs = _poly_mul(coeffs, list(f))
    return coeffs


def _similar(P, M):
    """P M P^-1 for an invertible P."""
    d = len(M)
    PM = [[sum(P[i][k] * M[k][j] for k in range(d)) for j in range(d)]
          for i in range(d)]
    Pi = inverse_fraction(P)
    return [[sum(PM[i][k] * Pi[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)]


def _check_roots(coeffs, roots):
    got = _integer_roots(coeffs)
    assert got == sorted(set(roots))
    assert all(type(mu) is int for mu in got)
    assert got == rational_roots_oracle(coeffs)


class TestPencilMatrix:
    def test_matches_oracle_inverse(self):
        # D A^-1 B, D the least common denominator of A^-1 B
        rng = random.Random(515)
        solved = 0
        while solved < 200:
            n = rng.randint(1, 5)
            A = [[Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                  for _ in range(n)] for _ in range(n)]
            if det_fraction(A) == 0:
                continue
            width = rng.randint(1, 4)
            B = tuple(tuple(rng.randint(-4, 4) for _ in range(width))
                      for _ in range(n))
            X = mat_mul(inverse_fraction(A), B)
            D = math.lcm(*(Fraction(x).denominator for row in X for x in row))
            got = _pencil_matrix(A, B)
            assert got == [[int(x * D) for x in row] for row in X]
            assert all(type(x) is int for row in got for x in row)
            solved += 1

    def test_oracle_inverse_rejects_singular(self):
        with pytest.raises(ValueError):
            inverse_fraction([(1, 2), (Fraction(1, 2), 1)])

    def test_empty(self):
        assert _pencil_matrix([], []) == []


class TestPencilSpectrum:
    def test_degrees_zero_and_one(self):
        _check_roots([1], [])
        _check_roots([1, 0], [0])
        _check_roots([1, -5], [5])
        _check_roots([1, 7], [-7])

    def test_irreducible_factors_have_no_integer_root(self):
        for f in IRREDUCIBLE:
            _check_roots(list(f), [])
        _check_roots(_planted([], [], IRREDUCIBLE), [])
        _check_roots(_planted([0, 3], [2, 1], IRREDUCIBLE[1:]), [0, 3])

    @pytest.mark.parametrize("seed", range(12))
    def test_planted_roots(self, seed):
        rng = random.Random(900 + seed)
        roots = rng.sample(range(-20, 21), rng.randint(0, 4))
        if seed % 3 == 0 and 0 not in roots:
            roots.append(0)
        mults = [rng.randint(1, 3) for _ in roots]
        irreducible = rng.sample(IRREDUCIBLE, rng.randint(0, 2))
        _check_roots(_planted(roots, mults, irreducible), roots)

    @pytest.mark.parametrize("roots", [[10 ** 12], [-10 ** 12 + 7, 10 ** 12],
                                       [0, 999999999989, -3]])
    def test_large_roots(self, roots):
        _check_roots(_planted(roots, [1, 2, 3][:len(roots)], IRREDUCIBLE[:1]),
                     roots)

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(planted=st.lists(st.tuples(st.integers(-10 ** 12, 10 ** 12),
                                      st.integers(1, 3)),
                            max_size=4, unique_by=lambda p: p[0]),
           irreducible=st.lists(st.sampled_from(IRREDUCIBLE), max_size=2))
    def test_planted_roots_drawn(self, planted, irreducible):
        roots = [mu for mu, _ in planted]
        _check_roots(_planted(roots, [k for _, k in planted], irreducible),
                     roots)

    @pytest.mark.parametrize("seed", range(10))
    def test_eigenspaces_are_the_planted_columns(self, seed):
        rng = random.Random(1300 + seed)
        d = rng.randint(1, 5)
        pool = [_rational(rng) for _ in range(rng.randint(1, d))]
        eigenvalues = [rng.choice(pool) for _ in range(d)]
        P = [[_rational(rng) for _ in range(d)] for _ in range(d)]
        while det_fraction(P) == 0:
            P = [[_rational(rng) for _ in range(d)] for _ in range(d)]
        diagonal = [[lam if i == j else 0 for j in range(d)]
                    for i, lam in enumerate(eigenvalues)]
        spaces = _eigenspaces(_similar(P, diagonal))
        # one eigenspace per distinct eigenvalue, ascending, spanned by
        # the columns of P it labels
        assert spaces is not None and len(spaces) == len(set(eigenvalues))
        for basis, lam in zip(spaces, sorted(set(eigenvalues))):
            columns = [tuple(row[k] for row in P)
                       for k in range(d) if eigenvalues[k] == lam]
            assert Subspace.from_rows(d, basis) == \
                Subspace.from_rows(d, columns)

    def test_empty_matrix(self):
        assert _eigenspaces([]) == []

    @pytest.mark.parametrize("M", [
        [[2, 1], [0, 2]],                                # Jordan block
        [[Fraction(1, 2), 1, 0], [0, Fraction(1, 2), 0], [0, 0, 3]],
        [[0, 2], [1, 0]],                                # x^2 - 2
        [[0, -1], [1, 0]],                               # x^2 + 1
        [[0, 0, 2], [1, 0, 0], [0, 1, 0]],               # x^3 - 2
        [[Fraction(1, 3), 0, 0], [0, 0, 2], [0, 1, 0]],  # (3x - 1)(x^2 - 2)
    ])
    def test_defective_or_irrational_spectrum(self, M):
        assert _eigenspaces(M) is None
        P = random_unimodular(random.Random(len(M)), len(M))
        assert _eigenspaces(_similar(P, M)) is None


class TestPencilSquare:
    """The pencil charpoly is a square, det(x Phi(t) - Phi(t')) being
    Pf(x Phi(t) - Phi(t'))^2, and ``_integer_roots`` reads the roots off
    its checked square root; every other polynomial takes the fallback."""

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(0, 10 ** 6),
           st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3),
           st.integers(0, 2))
    def test_pencil_charpolys_are_squares(self, seed, dims, central):
        # planted blocks conjugated by a unimodular matrix, and the pencil
        # the base search draws on a complement of the radical
        rng = random.Random(seed)
        s = rng.randint(1 if len(dims) == 1 else 2, 3)
        phi, _ = conjugated_block_instance(
            rng, dims, distinct_lines(rng, len(dims), s), s,
            central=central, ops=6)
        wcols = complement_columns(center(phi).rows, phi.n)
        m = len(wcols)

        def pencil():
            t = [rng.randint(-9, 9) for _ in range(s)]
            return [[sum(t[k] * phi.forms[k][i][j] for k in range(s))
                     for j in wcols] for i in wcols]

        phi_t = pencil()
        while matrix_rank(phi_t) != m:
            phi_t = pencil()
        A, _ = clear_matrix(_pencil_matrix(phi_t, pencil()))
        coeffs = _charpoly(A)
        root = _square_root(coeffs)
        assert root is not None and _poly_mul(root, root) == coeffs
        assert _integer_roots(coeffs) == rational_roots_oracle(coeffs)

    @pytest.mark.parametrize("seed", range(8))
    def test_even_multiplicities_take_the_square_path(self, seed,
                                                      monkeypatch):
        rng = random.Random(1700 + seed)
        roots = rng.sample(range(-30, 31), rng.randint(0, 4))
        halves = [rng.randint(1, 3) for _ in roots]
        irreducible = rng.sample(IRREDUCIBLE, rng.randint(0, 2))
        coeffs = _planted(roots, [2 * k for k in halves], irreducible * 2)
        root = _planted(roots, halves, irreducible)
        assert _square_root(coeffs) == root
        # sympy factors the root, at half the degree
        from sympy.polys import factortools
        factored = []

        def recording(f, K):
            factored.append([int(c) for c in f])
            return dup_factor_list(f, K)

        dup_factor_list = factortools.dup_factor_list
        monkeypatch.setattr(factortools, "dup_factor_list", recording)
        got = _integer_roots(coeffs)
        monkeypatch.undo()
        assert factored == [root]
        assert got == sorted(roots)
        _check_roots(coeffs, roots)

    @pytest.mark.parametrize("seed", range(8))
    def test_odd_multiplicity_or_irreducible_factor_falls_back(self, seed):
        rng = random.Random(1800 + seed)
        roots = rng.sample(range(-30, 31), rng.randint(1, 4))
        mults = [2 * rng.randint(1, 2) for _ in roots]
        irreducible = []
        if seed % 2:
            mults[rng.randrange(len(mults))] -= 1
        else:
            irreducible = [rng.choice(IRREDUCIBLE)]
        coeffs = _planted(roots, mults, irreducible)
        assert _square_root(coeffs) is None
        _check_roots(coeffs, roots)

    def test_square_root_rejects(self):
        assert _square_root([1]) == [1]
        assert _square_root([1, -6, 9]) == [1, -3]
        # odd degree
        assert _square_root([1, 0, 0, -8]) is None
        assert _square_root([1, 0]) is None
        # a top-half coefficient 2 does not divide, the middle one of
        # degree 2 and of degree 4
        assert _square_root([1, 3, 2]) is None
        assert _square_root([1, 2, 4, 0, 0]) is None
        # g * g + 1: the top half gives g, only the full product tells
        for g in ([1, 0], [1, -3], [1, 2, -7], [1, -10 ** 12, 5, 0]):
            square = _poly_mul(g, g)
            assert _square_root(square) == g
            square[-1] += 1
            assert _square_root(square) is None
            square[-1] -= 1
            square[len(g)] += 2
            assert _square_root(square) is None


@st.composite
def _antisymmetric_forms(draw, n, s):
    forms = []
    for _ in range(s):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                m[i][j] = draw(st.integers(-3, 3))
                m[j][i] = -m[i][j]
        forms.append(tuple(map(tuple, m)))
    return tuple(forms)


def _bumped(forms):
    """The forms with 1 added at (0, 1) and -1 at (1, 0) of the first."""
    m = [list(row) for row in forms[0]]
    m[0][1] += 1
    m[1][0] -= 1
    return (tuple(map(tuple, m)),) + forms[1:]


class TestRecords:
    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.data(), st.integers(2, 4), st.integers(1, 2))
    def test_alternating_map(self, data, n, s):
        forms = data.draw(_antisymmetric_forms(n, s))
        zero = tuple((0,) * n for _ in range(n))
        assert_record(AlternatingMapQ, (n, s, forms),
                      [(n, s, _bumped(forms)), (n, s + 1, forms + (zero,))])

    @settings(max_examples=20, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(0, 10 ** 6))
    def test_symplectic_base(self, seed):
        rng = random.Random(seed)
        phi, _ = conjugated_block_instance(rng, [2, 2], [(1, 0), (0, 1)], 2,
                                           central=1, ops=6)
        base = compute_symplectic_base(phi, seed=seed)
        args = (base.V0, base.blocks, base.lines)
        assert_record(SymplecticBase, args, [
            (object(),) + args[1:],
            (args[0], args[1][::-1], args[2]),
            args[:2] + (args[2][::-1],)])

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.tuples(*[st.booleans()] * 6))
    def test_base_report(self, args):
        assert_record(BaseReport, args, one_changed(args))

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(0, 8), st.none() | st.builds(BaseReport,
                                                     *[st.booleans()] * 6),
           st.text(max_size=8))
    def test_no_base_found(self, attempts, evidence, reason):
        args = (attempts, evidence, reason)
        assert_record(NoBaseFound, args, one_changed(args))

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.tuples(
        st.none() | st.integers(0, 4), st.booleans(),
        st.none() | st.booleans(), st.booleans(),
        st.lists(st.tuples(st.integers(-2, 2)), max_size=2).map(tuple),
        st.booleans()))
    def test_ample_report(self, args):
        assert_record(AmpleReport, args, one_changed(args))


# ---------------------------------------------------------------------------
# boundary checks: each case is a call on bad input and its ValueError

BAD_INPUTS = {
    "centralizer": (lambda: centralizer(J_map(2), Subspace.zero(3)),
                    "dimension mismatch"),
    "is-abelian": (lambda: is_abelian(J_map(2), Subspace.zero(3)),
                   "dimension mismatch"),
    "ample-subspace": (lambda: check_ample(J_map(2), Subspace.full(3), []),
                       "subspace of wrong dimension"),
    "ample-omega-dim": (lambda: check_ample(
        J_map(2), Subspace.full(2), [Subspace.from_rows(3, [(1, 0, 0)])]),
        "Omega member of wrong dimension"),
    "ample-omega-outside": (lambda: check_ample(
        J_map(2), Subspace.from_rows(2, [(1, 0)]),
        [Subspace.from_rows(2, [(0, 1)])]),
        "Omega member outside the subspace"),
}


@pytest.mark.parametrize("case", list(BAD_INPUTS))
def test_boundary_raises(case):
    call, message = BAD_INPUTS[case]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
