"""Class-2 nilpotent commutator data and its block structure report.

A presentation consists of generators g_1..g_n, central generators
z_1..z_s, and an antisymmetric table c with [g_a, g_b] = prod_k z_k^c_k(a,b).
The table is an alternating integer form on Z^n; tensoring with Q and
splitting off the radical, a symplectic base of the quotient form exhibits
the group (up to finite index) as a central product of Heisenberg factors,
one per block, and a free abelian part of rank equal to the radical rank.
"""

from __future__ import annotations

from . import symplectic, torus
from ._record import Record
from .lattice import (
    as_int,
    hnf,
    kernel_lattice,
    row_times,
    subspace_to_lattice,
)

__all__ = ["Class2Presentation", "add_cyclic", "central_product", "heisenberg",
           "structure_report"]


class Class2Presentation(Record):
    """Commutator table of a finitely generated class-2 nilpotent group."""

    generators: tuple
    central: tuple
    table: tuple  # ((a, b, exps), ...) with 0 <= a < b < n, exps in Z^s

    def _post_init(self):
        n = len(self.generators)
        s = len(self.central)
        folded = {}
        for a, b, exps in self.table:
            a, b, exps = as_int(a), as_int(b), tuple(as_int(e) for e in exps)
            if len(exps) != s:
                raise ValueError("commutator exponent vector of wrong length")
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError("generator index out of range")
            if a == b and any(exps):
                raise ValueError("a generator cannot fail to commute with itself")
            if a > b:
                a, b = b, a
                exps = tuple(-e for e in exps)
            prev = folded.get((a, b))
            if prev is not None and prev != exps:
                raise ValueError("conflicting commutator entries")
            folded[(a, b)] = exps
        cleaned = tuple((a, b, exps) for (a, b), exps in sorted(folded.items())
                        if any(exps))
        object.__setattr__(self, "table", cleaned)

    @property
    def n(self):
        return len(self.generators)

    @property
    def s(self):
        return len(self.central)

    def commutator(self, a, b):
        sign = 1
        if a > b:
            a, b = b, a
            sign = -1
        for x, y, exps in self.table:
            if (x, y) == (a, b):
                return tuple(sign * e for e in exps)
        return (0,) * self.s


def heisenberg(m: int) -> Class2Presentation:
    """Presentation on x_1..x_m, y_1..y_m with one central generator z and
    [x_i, y_i] = z, all other commutators trivial."""
    if m < 1:
        raise ValueError("Heisenberg rank must be at least 1")
    gens = tuple(f"x{i+1}" for i in range(m)) + tuple(f"y{i+1}" for i in range(m))
    table = tuple((i, m + i, (1,)) for i in range(m))
    return Class2Presentation(gens, ("z",), table)


def add_cyclic(pres: Class2Presentation, name=None) -> Class2Presentation:
    """Direct product with an infinite cyclic group (a commuting generator)."""
    label = name if name is not None else f"c{pres.n + 1}"
    return Class2Presentation(pres.generators + (label,), pres.central,
                              pres.table)


def _fresh(name, taken):
    while name in taken:
        name += "'"
    return name


def central_product(p1: Class2Presentation, p2: Class2Presentation,
                    identify_centres: bool = False) -> Class2Presentation:
    """Join two presentations on disjoint generators.

    With ``identify_centres`` the central generators are shared pairwise
    (the factors then write their commutators into the same centre);
    otherwise the central generator lists are concatenated.
    """
    gens = list(p1.generators)
    for g in p2.generators:
        gens.append(_fresh(g, set(gens)))
    if identify_centres:
        if p1.s != p2.s:
            raise ValueError("cannot identify centres of different ranks")
        central = p1.central
        table = list(p1.table)
        for a, b, exps in p2.table:
            table.append((p1.n + a, p1.n + b, exps))
    else:
        central = list(p1.central)
        for z in p2.central:
            central.append(_fresh(z, set(central)))
        table = [(a, b, exps + (0,) * p2.s) for a, b, exps in p1.table]
        for a, b, exps in p2.table:
            table.append((p1.n + a, p1.n + b, (0,) * p1.s + exps))
    return Class2Presentation(tuple(gens), tuple(central), tuple(table))


def commutator_form(pres: Class2Presentation) -> symplectic.AlternatingMapQ:
    """B - B^T for the table read as an upper triangular cocycle B."""
    upper = [[[0] * pres.n for _ in range(pres.n)] for _ in range(pres.s)]
    for a, b, exps in pres.table:
        for m, e in zip(upper, exps):
            m[a][b] = e
    return torus.commutator_form(torus.CocycleForm(pres.n, upper))


class HeisenbergBlock(Record):
    rank: int
    basis: tuple          # saturated lattice basis, quotient coordinates
    lifted_basis: tuple   # representatives in the original generator lattice
    line: tuple           # primitive image line in Z^s


class StructureReport(Record):
    heisenberg_blocks: tuple
    cyclic_rank: int
    decomposed: bool
    diagnostics: dict


def structure_report(pres: Class2Presentation, seed: int = 0,
                     retries: int = 8) -> StructureReport:
    """Decompose the commutator form into Heisenberg blocks plus a cyclic
    part.

    The form descends to the quotient of Z^n by the saturated radical
    lattice; the quotient form (now with trivial radical) is fed to the
    symplectic base search and every block of dimension 2m yields a
    Heisenberg factor of rank m.  The saturated block lattices are audited
    against the four block conditions.
    """
    n = pres.n
    form = commutator_form(pres)
    radical = torus.center_lattice(form)
    cyclic_rank = radical.rank
    projection = kernel_lattice(radical.basis, n)
    proj_rows = projection.basis
    m = len(proj_rows)
    # H = U P^T for the projection P; P maps Z^n onto Z^m exactly when the
    # HNF is the identity on top, and then row j of U is a lift of e_j.  U is
    # canonical, so each lift is reduced modulo the radical (the rows below).
    H, U = hnf([tuple(row[i] for row in proj_rows) for i in range(n)])
    if H[:m] != tuple(tuple(int(i == j) for j in range(m)) for i in range(m)):
        raise AssertionError("quotient projection is not surjective")
    lifts = U[:m]
    quotient_form = form.restrict(lifts)
    outcome = symplectic.compute_symplectic_base(quotient_form, seed=seed,
                                                 retries=retries)
    diagnostics = {
        "radical_basis": radical.basis,
        "quotient_projection": proj_rows,
    }
    if isinstance(outcome, symplectic.NoBaseFound):
        diagnostics["no_base"] = outcome
        return StructureReport((), cyclic_rank, False, diagnostics)
    blocks = []
    parts = []
    for block, line in zip(outcome.blocks, outcome.lines):
        lattice = subspace_to_lattice(block)
        parts.append(lattice)
        lifted = tuple(tuple(row_times(row, lifts)) for row in lattice.basis)
        blocks.append(HeisenbergBlock(block.dim // 2, lattice.basis, lifted,
                                      line))
    audit = torus.verify_theorem42(quotient_form, parts) if parts else None
    diagnostics["base_verified"] = True
    if audit is not None:
        diagnostics["theorem42"] = audit
    decomposed = audit is None or audit.passed
    report = StructureReport(tuple(blocks), cyclic_rank, decomposed,
                             diagnostics)
    if decomposed and 2 * sum(b.rank for b in report.heisenberg_blocks) \
            + cyclic_rank != n:
        raise AssertionError("block ranks inconsistent with the ambient rank")
    return report
