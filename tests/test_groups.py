import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtdelta import groups, torus
from qtdelta.groups import (
    Class2Presentation,
    HeisenbergBlock,
    StructureReport,
    add_cyclic,
    central_product,
    commutator_form,
    heisenberg,
    structure_report,
)
from qtdelta.lattice import Sublattice

from oracles import standard_j
from records import assert_record, one_changed


class TestPresentation:
    def test_heisenberg_rank_one(self):
        p = heisenberg(1)
        assert p.n == 2 and p.s == 1
        assert p.commutator(0, 1) == (1,)
        assert p.commutator(1, 0) == (-1,)

    def test_heisenberg_rank_two_table(self):
        p = heisenberg(2)
        assert p.n == 4
        want = tuple(map(tuple, standard_j(4)))
        assert commutator_form(p).forms == (want,)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            heisenberg(0)

    def test_zero_diagonal_entry_folded_away(self):
        p = Class2Presentation(("a", "b"), ("z",),
                               ((0, 0, (0,)), (1, 0, (2,)), (1, 1, (0,))))
        assert p.table == ((0, 1, (-2,)),)
        assert p == Class2Presentation(("a", "b"), ("z",), ((0, 1, (-2,)),))

    def test_commutator_with_itself_and_of_an_absent_pair(self):
        p = heisenberg(2)  # generators x1, x2, y1, y2; [x_i, y_i] = z
        assert [p.commutator(a, a) for a in range(4)] == [(0,)] * 4
        assert p.commutator(0, 1) == p.commutator(1, 0) == (0,)
        assert p.commutator(0, 3) == p.commutator(3, 0) == (0,)

    def test_direct_product_with_cyclic(self):
        p = add_cyclic(heisenberg(1))
        assert p.n == 3
        form = commutator_form(p)
        assert all(form.forms[0][2][j] == 0 for j in range(3))
        assert all(form.forms[0][i][2] == 0 for i in range(3))

    def test_antisymmetric_fold(self):
        p = Class2Presentation(("a", "b"), ("z",), (((1, 0, (-2,))),))
        assert p.commutator(0, 1) == (2,)

    def test_self_commutator_rejected(self):
        with pytest.raises(ValueError):
            Class2Presentation(("a",), ("z",), ((0, 0, (1,)),))

    def test_non_integral_entries_rejected(self):
        # no index or exponent is truncated to an int
        for a, b, exps in ((0, 1, (Fraction(3, 2),)), (0, 1, (1.0,)),
                           (Fraction(1, 2), 1, (1,)), (0, "1", (1,)),
                           (0, 1.0, (1,))):
            with pytest.raises(ValueError):
                Class2Presentation(("a", "b"), ("z",), ((a, b, exps),))
        p = Class2Presentation(("a", "b"), ("z",),
                               ((Fraction(2, 2), 0, (Fraction(4, 2),)),))
        assert p.table == ((0, 1, (-2,)),)

    @pytest.mark.parametrize("a,b", [(0, 2), (-1, 1), (2, 0)])
    def test_index_out_of_range_rejected(self, a, b):
        with pytest.raises(ValueError, match="generator index out of range"):
            Class2Presentation(("a", "b"), ("z",), ((a, b, (1,)),))

    def test_identified_centres_need_equal_ranks(self):
        with pytest.raises(ValueError, match="centres of different ranks"):
            central_product(heisenberg(1),
                            central_product(heisenberg(1), heisenberg(1)),
                            identify_centres=True)

    def test_conflicting_entries_rejected(self):
        with pytest.raises(ValueError):
            Class2Presentation(("a", "b"), ("z",),
                               ((0, 1, (1,)), (1, 0, (1,))))

    def test_central_product_distinct_centres(self):
        p = central_product(heisenberg(1), heisenberg(1))
        assert p.n == 4 and p.s == 2
        assert p.commutator(0, 1) == (1, 0)
        assert p.commutator(2, 3) == (0, 1)

    def test_central_product_identified_centres(self):
        p = central_product(heisenberg(1), heisenberg(1),
                            identify_centres=True)
        assert p.n == 4 and p.s == 1
        assert p.commutator(0, 1) == (1,)
        assert p.commutator(2, 3) == (1,)


class TestStructureReport:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_heisenberg_single_block(self, m):
        report = structure_report(heisenberg(m), seed=0)
        assert report.decomposed
        assert report.cyclic_rank == 0
        assert [b.rank for b in report.heisenberg_blocks] == [m]
        assert report.heisenberg_blocks[0].line == (1,)

    def test_heisenberg_times_cyclic(self):
        report = structure_report(add_cyclic(heisenberg(1)), seed=0)
        assert report.decomposed
        assert report.cyclic_rank == 1
        assert [b.rank for b in report.heisenberg_blocks] == [1]

    def test_abelian_presentation(self):
        p = Class2Presentation(("a", "b", "c"), ("z",), ())
        report = structure_report(p, seed=0)
        assert report.decomposed
        assert report.heisenberg_blocks == ()
        assert report.cyclic_rank == 3

    def test_rank_accounting_invariant(self):
        rng = random.Random(5)
        for _ in range(10):
            parts = [heisenberg(rng.randint(1, 2))
                     for _ in range(rng.randint(1, 3))]
            pres = parts[0]
            for extra in parts[1:]:
                pres = central_product(pres, extra)
            for _ in range(rng.randint(0, 2)):
                pres = add_cyclic(pres)
            report = structure_report(pres, seed=1)
            assert report.decomposed
            assert 2 * sum(b.rank for b in report.heisenberg_blocks) \
                + report.cyclic_rank == pres.n

    def test_central_product_recovers_factors(self):
        pres = central_product(central_product(heisenberg(1), heisenberg(2)),
                               heisenberg(1))
        report = structure_report(pres, seed=0)
        assert report.decomposed
        assert sorted(b.rank for b in report.heisenberg_blocks) == [1, 1, 2]
        lines = {b.line for b in report.heisenberg_blocks}
        assert lines == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
        audit = report.diagnostics["theorem42"]
        assert audit.passed

    def test_identified_centres_merge(self):
        pres = central_product(heisenberg(1), heisenberg(1),
                               identify_centres=True)
        report = structure_report(pres, seed=0)
        assert report.decomposed
        assert [b.rank for b in report.heisenberg_blocks] == [2]

    def test_twin_fixture_fails_condition_four(self):
        pres = central_product(heisenberg(1), heisenberg(1),
                               identify_centres=True)
        form = commutator_form(pres)
        a1 = Sublattice.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)])
        a2 = Sublattice.from_rows(4, [(0, 0, 1, 0), (0, 0, 0, 1)])
        audit = torus.verify_theorem42(form, [a1, a2])
        assert audit.pairwise_commute
        assert audit.trivial_centres
        assert audit.rank_one_images
        assert not audit.distinct_image_lines
        assert not audit.passed

    def test_lifted_bases_project_onto_blocks(self):
        pres = add_cyclic(central_product(heisenberg(1), heisenberg(1)))
        report = structure_report(pres, seed=0)
        assert report.decomposed
        proj = report.diagnostics["quotient_projection"]
        for block in report.heisenberg_blocks:
            for lifted, quotient_row in zip(block.lifted_basis, block.basis):
                image = tuple(sum(p[j] * lifted[j] for j in range(pres.n))
                              for p in proj)
                assert image == tuple(quotient_row)

    def test_projection_not_onto_raises(self, monkeypatch):
        # the saturated kernel always maps onto the quotient; an index-two
        # sublattice of it must trip the surjectivity self-check
        monkeypatch.setattr(groups, "kernel_lattice", lambda rows, n:
                            Sublattice.from_rows(n, [(2, 0, 0), (0, 1, 0)]))
        with pytest.raises(AssertionError, match="not surjective"):
            structure_report(add_cyclic(heisenberg(1)), seed=0)

    def test_block_ranks_check(self, monkeypatch):
        # a block that claims one rank more than its lattice has
        monkeypatch.setattr(groups, "HeisenbergBlock", lambda rank, *rest:
                            HeisenbergBlock(rank + 1, *rest))
        with pytest.raises(AssertionError,
                           match="block ranks inconsistent with the ambient "
                                 "rank"):
            structure_report(heisenberg(1), seed=0)

class TestRecords:
    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(1, 3), st.integers(0, 2), st.data())
    def test_presentation(self, m, extra, data):
        pres = central_product(heisenberg(m), add_cyclic(heisenberg(1)))
        for _ in range(extra):
            pres = add_cyclic(pres)
        args = (pres.generators, pres.central, pres.table)
        i = data.draw(st.integers(0, len(pres.table) - 1))
        a, b, exps = pres.table[i]
        doubled = (pres.table[:i] + ((a, b, tuple(2 * e for e in exps)),)
                   + pres.table[i + 1:])
        assert_record(Class2Presentation, args, [
            (args[0][::-1],) + args[1:],
            (args[0], args[1][::-1], args[2]),
            args[:2] + (doubled,)])

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(st.tuples(
        st.integers(1, 3),
        *[st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                   max_size=2).map(tuple)] * 2,
        st.tuples(st.integers(-2, 2))))
    def test_heisenberg_block(self, args):
        assert_record(HeisenbergBlock, args, one_changed(args))

    @settings(max_examples=30, derandomize=True, database=None,
              deadline=None)
    @given(st.integers(1, 2), st.integers(0, 1), st.integers(0, 100))
    def test_structure_report(self, m, cyclic, seed):
        pres = heisenberg(m)
        for _ in range(cyclic):
            pres = add_cyclic(pres)
        report = structure_report(pres, seed=seed)
        args = (report.heisenberg_blocks, report.cyclic_rank,
                report.decomposed, report.diagnostics)
        # diagnostics is a dict, so the report has no hash, like the tuple
        assert_record(StructureReport, args, one_changed(args))
