"""Alternating bilinear maps V x V -> W over Q and their block structure.

The central object is a decomposition V = V0 + V1 + ... + Vt (direct) where
V0 is the radical, the blocks pairwise centralize each other, each block is
nondegenerate with a one-dimensional image line in W, and the image lines
are pairwise distinct.  ``compute_symplectic_base`` searches for such a
decomposition with a seeded pencil-eigenspace method and certifies any
candidate through ``verify_symplectic_base``; a failure after the retry
budget is reported as a NoBaseFound value, not an error.  The pencil is
read as an integer matrix off one elimination (``_pencil_matrix``), its
spectrum is found over Z (``_eigenspaces``), and sympy is imported only
inside ``_integer_roots``.  The pencil's characteristic polynomial is a
square, by Cayley's identity det(x Phi(t) - Phi(t')) =
Pf(x Phi(t) - Phi(t'))^2, so its roots are read off the exactly checked
square root (``_square_root``) at half the degree, with sympy's dense
integer factorizer (``dup_factor_list``) on the coefficient list.

``AlternatingMapQ`` is the one alternating-form type, over Z too.  Both
block verifiers, here and in ``torus``, read every pairing they need off
one Gram matrix per form of the stacked block bases (``_block_pairings``).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from ._record import Record
from .lattice import (
    Subspace,
    as_rational,
    clear_denominators,
    clear_matrix,
    complement_columns,
    congruence,
    dot,
    lift_columns,
    matrix_rank,
    null_space_int,
    row_times,
    rref,
    subspace_intersection,
    subspace_sum,
    vec_primitive_signed,
)
from .rng import derive

__all__ = ["AlternatingMapQ", "NoBaseFound", "SymplecticBase", "check_ample",
           "compute_symplectic_base", "decompose_abelian",
           "verify_symplectic_base"]


def _check_antisymmetric(mat, n):
    """Rows of an n x n antisymmetric rational matrix, entries as given,
    with their integer numerators and common denominator."""
    rows = tuple(tuple(as_rational(x) for x in row) for row in mat)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix of wrong shape")
    ints, den = clear_matrix(rows)
    if any(ints[i][j] != -ints[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not antisymmetric")
    return rows, (ints, den)


class AlternatingMapQ(Record):
    """phi(u, v) = (u^T Phi_1 v, ..., u^T Phi_s v) with antisymmetric Phi_k."""

    n: int
    s: int
    forms: tuple

    def _post_init(self):
        if len(self.forms) != self.s:
            raise ValueError("expected one matrix per target coordinate")
        checked = [_check_antisymmetric(m, self.n) for m in self.forms]
        object.__setattr__(self, "forms", tuple(rows for rows, _ in checked))
        # Integer numerators and common denominator of each form.
        object.__setattr__(self, "_cleared", tuple(c for _, c in checked))

    def pairing(self, u, v):
        ui, du = clear_denominators(u)
        vi, dv = clear_denominators(v)
        return tuple(Fraction(dot(row_times(ui, m), vi), den * du * dv)
                     for m, den in self._cleared)

    def restrict(self, basis) -> "AlternatingMapQ":
        """The map on the span of the rows of ``basis``, in their
        coordinates; integral on integral forms and rows."""
        return AlternatingMapQ(len(basis), self.s, tuple(
            congruence(basis, m, den) for m, den in self._cleared))

    def left_rows(self, v):
        """Rows (v^T Phi_k), the matrix of w -> phi(v, w)."""
        vi, dv = clear_denominators(v)
        return [tuple(Fraction(x, den * dv) for x in row_times(vi, m))
                for m, den in self._cleared]

    @cached_property
    def _radical(self):
        # stored in the instance dict: computed once per object, never
        # shared by equal maps
        rows = [row for m, _ in self._cleared for row in m]
        return Subspace.from_rows(self.n, null_space_int(rows, self.n))

    @cached_property
    def _reports(self):
        # the verifier's BaseReport by candidate base, per object like
        # _radical: a report is a function of the (map, base) values
        return {}


def center(phi: AlternatingMapQ) -> Subspace:
    """Radical {v : phi(v, w) = 0 for all w}, computed once per map object:
    the base search, the verifier and ``check_ample`` share it."""
    return phi._radical


def centralizer(phi: AlternatingMapQ, space: Subspace) -> Subspace:
    if space.ambient_dim != phi.n:
        raise ValueError("dimension mismatch")
    rows = [row for b in space.rows for row in phi.left_rows(b)]
    return Subspace.from_rows(phi.n, null_space_int(rows, phi.n))


def is_abelian(phi: AlternatingMapQ, space: Subspace) -> bool:
    if space.ambient_dim != phi.n:
        raise ValueError("dimension mismatch")
    rows = space.rows
    return not any(any(phi.pairing(u, v))
                   for i, u in enumerate(rows) for v in rows[i + 1:])


def _block_pairings(phi: AlternatingMapQ, bases):
    """Every pairing question about a family of bases, read off one Gram
    matrix per form: ``G_k = congruence(stacked rows, Phi_k)``, entry (i, j)
    phi_k(b_i, b_j).

    Returns ``(orthogonal, blocks)``: whether all pairings between rows of
    two distinct bases vanish, and per basis ``(pairs, diagonal)``, its
    pairings (G_1[i][j], ..., G_s[i][j]) for i < j and the rows of its
    diagonal Gram blocks stacked, whose rank equals ``len(basis)`` exactly
    when phi restricted to its span has trivial radical.  The rank is left
    to the verifiers, the only callers that read it."""
    stacked = [row for basis in bases for row in basis]
    grams = [congruence(stacked, m, den) for m, den in phi._cleared]
    spans, end = [], 0
    for basis in bases:
        spans.append(range(end, end + len(basis)))
        end += len(basis)
    orthogonal = not any(G[i][j] for a, own in enumerate(spans)
                         for other in spans[a + 1:] for G in grams
                         for i in own for j in other)
    blocks = []
    for own in spans:
        pairs = [tuple(G[i][j] for G in grams)
                 for i in own for j in range(i + 1, own.stop)]
        diagonal = [G[i][own.start:own.stop] for G in grams for i in own]
        blocks.append((pairs, diagonal))
    return orthogonal, blocks


def image_space(phi: AlternatingMapQ, space: Subspace) -> Subspace:
    """Span of the pairings of basis pairs, a subspace of Q^s."""
    _, [(pairs, _)] = _block_pairings(phi, [space.rows])
    return Subspace.from_rows(phi.s, pairs)


def _line_key(space: Subspace):
    if space.dim != 1:
        return None
    return space.rows[0]  # primitive, its pivot positive: signed


class SymplecticBase(Record):
    """Candidate decomposition: radical, blocks and their image lines."""

    V0: Subspace
    blocks: tuple
    lines: tuple

    def _post_init(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "lines",
                           tuple(vec_primitive_signed(w) for w in self.lines))


class BaseReport(Record):
    direct_sum: bool
    centre_is_v0: bool        # (1)
    blocks_orthogonal: bool   # (2)
    blocks_nondegenerate: bool  # (3): image line 1-dim and trivial block centre
    lines_distinct: bool      # (4)
    lines_consistent: bool

    @property
    def passed(self):
        return (self.direct_sum and self.centre_is_v0
                and self.blocks_orthogonal and self.blocks_nondegenerate
                and self.lines_distinct and self.lines_consistent)


def verify_symplectic_base(phi: AlternatingMapQ,
                           cand: SymplecticBase) -> BaseReport:
    """Check the conditions of a symplectic base, each as one report field.

    The report is computed once per map object and base value: the search,
    its caller and ``decompose_abelian`` read it back from ``phi``, and a
    base that fails fails on every call."""
    report = phi._reports.get(cand)
    if report is None:
        report = phi._reports[cand] = _verify(phi, cand)
    return report


def _verify(phi: AlternatingMapQ, cand: SymplecticBase) -> BaseReport:
    n = phi.n
    pieces = [cand.V0] + list(cand.blocks)
    stacked = [row for p in pieces for row in p.rows]
    direct = (sum(p.dim for p in pieces) == n
              and matrix_rank(stacked) == n)
    centre_ok = cand.V0 == center(phi)
    orth, per_block = _block_pairings(phi, [b.rows for b in cand.blocks])
    nondeg = True
    lines = []
    for block, (pairs, diagonal) in zip(cand.blocks, per_block):
        img = Subspace.from_rows(phi.s, pairs)
        lines.append(_line_key(img))
        if img.dim != 1 or matrix_rank(diagonal) != block.dim:
            nondeg = False
    distinct = all(lines[i] is None or lines[i] != lines[j]
                   for i in range(len(lines)) for j in range(i + 1, len(lines)))
    consistent = (len(cand.lines) == len(cand.blocks)
                  and all(line is not None and line == stored
                          for line, stored in zip(lines, cand.lines)))
    return BaseReport(direct, centre_ok, orth, nondeg, distinct, consistent)


class NoBaseFound(Record):
    """Negative (Monte Carlo) outcome of the base search."""

    attempts: int
    evidence: BaseReport | None
    reason: str


def _charpoly(A):
    """Monic integer characteristic polynomial [1, c1, ..., cd] of an
    integer matrix A, by the trace recursion (Faddeev-LeVerrier) run
    fraction-free: A is integral, so each division by k is exact."""
    d = len(A)
    coeffs = [1]
    N = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        AN = [row_times(row, N) for row in A]
        ck, rem = divmod(-sum(AN[i][i] for i in range(d)), k)
        if rem:
            raise AssertionError("inexact division in the trace recursion")
        coeffs.append(ck)
        for i in range(d):
            AN[i][i] += ck
        N = AN
    return coeffs


def _square_root(coeffs):
    """The monic integer g with g * g equal to the monic integer polynomial
    ``coeffs`` (leading coefficient first), or None when there is none.
    g's coefficients come from the top half of ``coeffs``: the x^(2h-k)
    coefficient of g * g is 2 g_k plus products of earlier ones."""
    d = len(coeffs) - 1
    if d % 2:
        return None
    g = [1]
    for k in range(1, d // 2 + 1):
        twice = coeffs[k] - sum(g[i] * g[k - i] for i in range(1, k))
        if twice % 2:
            return None
        g.append(twice // 2)
    square = [0] * (d + 1)
    for i, a in enumerate(g):
        for j, b in enumerate(g):
            square[i + j] += a * b
    return g if square == coeffs else None


def _integer_roots(coeffs):
    """Integer roots, ascending, of a monic integer polynomial (leading
    coefficient first): all its rational roots, by the rational root
    theorem.  When the polynomial is a square g * g, which the check
    ``_square_root`` makes exact, the roots are g's, at half the degree.
    A pencil's charpoly is always one: by Cayley's identity
    det(x Phi(t) - Phi(t')) = Pf(x Phi(t) - Phi(t'))^2, and by Gauss's
    lemma the monic root of an integer square is integral.  The roots are
    read off the linear factors over Z, found by sympy's dense factorizer
    on the coefficient list."""
    import sympy

    coeffs = _square_root(coeffs) or coeffs
    _, factors = sympy.polys.factortools.dup_factor_list(
        [sympy.ZZ(c) for c in coeffs], sympy.ZZ)
    # each factor of a monic polynomial is monic: a linear one is x - mu
    return sorted(-int(f[1]) for f, _mult in factors if len(f) == 2)


def _eigenspaces(mat):
    """Eigenspace bases of a rational matrix M; None when they do not span
    (irrational or defective spectrum).  With A = D M integral, M's rational
    eigenvalues are mu / D for the integer roots mu of A's characteristic
    polynomial, and A - mu I has the row space, so the canonical null space
    basis, of M - (mu / D) I."""
    d = len(mat)
    if d == 0:
        return []
    A, _ = clear_matrix(mat)
    spaces = [null_space_int([[a - mu if i == j else a
                               for j, a in enumerate(row)]
                              for i, row in enumerate(A)], d)
              for mu in _integer_roots(_charpoly(A))]
    return spaces if sum(map(len, spaces)) == d else None


def _pencil_matrix(A, B):
    """``D A^-1 B`` for a nonsingular rational ``A``, D the least common
    denominator of ``A^-1 B``, read off one ``rref`` of ``[A | B]``:
    its row i is the primitive integer row ``p_i [e_i | (A^-1 B)_i]``, so
    p_i, its pivot, is the least common denominator of ``(A^-1 B)_i``."""
    n = len(A)
    rows, _ = rref([[*a, *b] for a, b in zip(A, B)])
    D = lcm(*(row[i] for i, row in enumerate(rows)))
    return [[x * (D // row[i]) for x in row[n:]] for i, row in enumerate(rows)]


def compute_symplectic_base(phi: AlternatingMapQ, seed: int = 0,
                            retries: int = 8):
    """Seeded pencil-eigenspace construction of a symplectic base.

    Two random target functionals t, t' contract phi to a pencil of forms on
    a complement of the radical; the eigenspaces of Phi(t)^-1 Phi(t') are
    the candidate blocks, and the verifier alone decides whether they form
    a base.  If a base exists, the map is the scalar <t',w>/<t,w> on each of
    its blocks, w the block's image line; so an eigenspace is the sum of the
    blocks of one line, and no two eigenspaces share a line.  Failed draws
    are retried up to ``retries`` times (at least one) before reporting
    NoBaseFound.
    """
    if retries < 1:
        raise ValueError(f"retries must be at least 1, got {retries}")
    n, s = phi.n, phi.s
    V0 = center(phi)
    wcols = complement_columns(V0.rows, n)
    m = len(wcols)
    # phi on the unit vectors of wcols: the principal wcols submatrices
    sub = [[[f[i][j] for j in wcols] for i in wcols] for f in phi.forms]

    def pencil(rng):
        t = [rng.randint(-9, 9) for _ in range(s)]
        return [[sum(t[k] * sub[k][i][j] for k in range(s))
                 for j in range(m)] for i in range(m)]

    last_report = None
    for attempt in range(retries):
        rng = derive(seed, "pencil", attempt)
        for _ in range(32):
            phi_t = pencil(rng)
            if matrix_rank(phi_t) == m:
                break
        else:
            reason = "could not draw an invertible pencil member"
            continue
        split = _eigenspaces(_pencil_matrix(phi_t, pencil(rng)))
        if split is None:
            reason = "pencil spectrum not rational-diagonalizable"
            continue
        blocks = sorted((Subspace.from_rows(n, [lift_columns(v, wcols, n)
                                                for v in basis])
                         for basis in split), key=lambda b: b.basis)
        lines = [_line_key(image_space(phi, block)) for block in blocks]
        if None in lines:
            reason = "candidate block without a one-dimensional image line"
            continue
        cand = SymplecticBase(V0, blocks, lines)
        report = verify_symplectic_base(phi, cand)
        if report.passed:
            return cand
        last_report = report
        reason = "candidate decomposition failed verification"
    return NoBaseFound(retries, last_report, reason)


def decompose_abelian(phi: AlternatingMapQ, base: SymplecticBase,
                      space: Subspace):
    """Split an abelian subspace of maximal dimension along the blocks of a
    verified base with trivial radical: U = sum of (U cap V_i), with each
    component of half the block dimension."""
    report = verify_symplectic_base(phi, base)
    if not report.passed:
        raise ValueError("base does not verify")
    if base.V0.dim != 0:
        raise ValueError("base has nontrivial centre; quotient it out first")
    m = phi.n // 2
    if not is_abelian(phi, space):
        raise ValueError("subspace is not abelian")
    if space.dim < m:
        raise ValueError("abelian subspace of dimension below half the space")
    components = [subspace_intersection(space, block)
                  for block in base.blocks]
    total = Subspace.from_rows(phi.n, [row for c in components
                                       for row in c.rows])
    if (total != space
            or sum(c.dim for c in components) != space.dim
            or any(2 * c.dim != b.dim
                   for c, b in zip(components, base.blocks))):
        raise AssertionError("abelian decomposition identity failed")
    return components


class AmpleReport(Record):
    m: int | None
    dim_ok: bool
    cond1: bool | None      # skipped (None) when dim(X / centre(X)) <= 2
    cond2: bool
    probes: tuple
    degenerate: bool

    @property
    def passed(self):
        return (not self.degenerate and self.dim_ok
                and self.cond1 is not False and self.cond2)

    def to_json(self):
        return {
            "m": self.m,
            "dim_ok": self.dim_ok,
            "cond1": self.cond1,
            "cond2": self.cond2,
            "probes": [[ [str(x) for x in row] for row in p] for p in self.probes],
            "degenerate": self.degenerate,
            "passed": self.passed,
        }


def random_abelian_subspace(phi: AlternatingMapQ, space: Subspace, dim: int,
                            rng) -> Subspace:
    """Greedy seeded abelian subspace of the given dimension inside
    ``space`` (may come out smaller when the draws run dry)."""
    chosen = Subspace.zero(phi.n)
    for _ in range(40 * max(1, dim)):
        if chosen.dim >= dim:
            break
        coeffs = [rng.randint(-2, 2) for _ in range(space.dim)]
        v = row_times(coeffs, space.basis)
        if not any(v) or chosen.contains_vector(v):
            continue
        if all(not any(phi.pairing(v, b)) for b in chosen.rows):
            chosen = subspace_sum(chosen, Subspace.from_rows(phi.n, [v]))
    return chosen


def check_ample(phi: AlternatingMapQ, space: Subspace, omega,
                probes=None, seed: int = 0) -> AmpleReport:
    """Check the ample-abelian-subspaces conditions for a subspace X with a
    supplied family Omega of maximal abelian subspaces.

    Universal quantification over all abelian subspaces is replaced by a
    finite probe family (the members of Omega plus seeded random abelian
    subspaces, or a caller-supplied list); the report records the probes.
    """
    if space.ambient_dim != phi.n:
        raise ValueError("subspace of wrong dimension")
    omega = list(omega)
    twice_m = phi.n + center(phi).dim
    if twice_m % 2 != 0:
        return AmpleReport(None, False, None, False, (), True)
    m = twice_m // 2
    for u in omega:
        if u.ambient_dim != phi.n:
            raise ValueError("Omega member of wrong dimension")
        if not space.contains(u):
            raise ValueError("Omega member outside the subspace")
        if u.dim != m or not is_abelian(phi, u):
            raise ValueError("Omega member is not an m-dimensional abelian subspace")
    zx = subspace_intersection(centralizer(phi, space), space)
    dim_ok = space.dim + zx.dim == 2 * m
    if probes is None:
        rng = derive(seed, "ample-probes")
        probes = list(omega)
        for _ in range(8):
            cand = random_abelian_subspace(phi, space, m, rng)
            if cand.dim > 0 and cand not in probes:
                probes.append(cand)
    else:
        probes = list(probes)
        for p in probes:
            if not space.contains(p) or not is_abelian(phi, p):
                raise ValueError("probe is not an abelian subspace of X")
    cond1 = None
    if space.dim - zx.dim > 2:
        cond1 = all(
            any(u2 != u1
                and (meet := subspace_intersection(u1, u2)).contains(zx)
                and meet.dim > zx.dim
                for u2 in omega)
            for u1 in omega)
    cond2 = all(
        any(zx.contains(subspace_intersection(u, u1)) for u1 in omega)
        for u in probes)
    return AmpleReport(m, dim_ok, cond1, cond2,
                       tuple(tuple(p.basis) for p in probes), False)
