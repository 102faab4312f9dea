"""Alternating bilinear maps V x V -> W over Q and their block structure.

The central object is a decomposition V = V0 + V1 + ... + Vt (direct) where
V0 is the radical, the blocks pairwise centralize each other, each block is
nondegenerate with a one-dimensional image line in W, and the image lines
are pairwise distinct.  ``compute_symplectic_base`` searches for such a
decomposition with a seeded pencil-eigenspace method and certifies any
candidate through ``verify_symplectic_base``; a failure after the retry
budget is reported as a NoBaseFound value, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (
    Subspace,
    clear_denominators,
    clear_matrix,
    congruence,
    dot,
    matrix_rank,
    null_space_int,
    row_times,
    rref,
    subspace_intersection,
    subspace_sum,
    vec_primitive,
)
from .rng import derive


def _check_antisymmetric(mat, n):
    """Fraction rows of an n x n antisymmetric matrix, with their integer
    numerators and common denominator."""
    rows = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row)
                 for row in mat)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix of wrong shape")
    ints, den = clear_matrix(rows)
    if any(ints[i][j] != -ints[j][i] for i in range(n) for j in range(i, n)):
        raise ValueError("matrix is not antisymmetric")
    return rows, (ints, den)


@dataclass(frozen=True)
class AlternatingMapQ:
    """phi(u, v) = (u^T Phi_1 v, ..., u^T Phi_s v) with antisymmetric Phi_k."""

    n: int
    s: int
    forms: tuple

    def __post_init__(self):
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

    def left_rows(self, v):
        """Rows (v^T Phi_k), the matrix of w -> phi(v, w)."""
        vi, dv = clear_denominators(v)
        return [tuple(Fraction(x, den * dv) for x in row_times(vi, m))
                for m, den in self._cleared]


def center(phi: AlternatingMapQ) -> Subspace:
    rows = [row for m, _ in phi._cleared for row in m]
    return Subspace.from_rows(phi.n, null_space_int(rows, phi.n))


def centralizer(phi: AlternatingMapQ, space: Subspace) -> Subspace:
    if space.ambient_dim != phi.n:
        raise ValueError("dimension mismatch")
    rows = [row for b in space.basis for row in phi.left_rows(b)]
    return Subspace.from_rows(phi.n, null_space_int(rows, phi.n))


def is_abelian(phi: AlternatingMapQ, space: Subspace) -> bool:
    if space.ambient_dim != phi.n:
        raise ValueError("dimension mismatch")
    basis = space.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if any(phi.pairing(basis[i], basis[j])):
                return False
    return True


def centralizer_codim(phi: AlternatingMapQ, v) -> int:
    """Codimension of the centralizer of a vector: the rank of the s x n
    matrix with rows v^T Phi_k."""
    if len(v) != phi.n:
        raise ValueError("dimension mismatch")
    return matrix_rank(phi.left_rows(v))


def image_space(phi: AlternatingMapQ, space: Subspace) -> Subspace:
    """Span of the pairings of basis pairs, a subspace of Q^s."""
    basis = space.basis
    vecs = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            vecs.append(phi.pairing(basis[i], basis[j]))
    return Subspace.from_rows(phi.s, vecs)


def _restrict(phi: AlternatingMapQ, basis):
    return AlternatingMapQ(len(basis), phi.s, tuple(
        congruence(basis, m, den) for m, den in phi._cleared))


def _line_key(space: Subspace):
    if space.dim != 1:
        return None
    return vec_primitive_signed(space.basis[0])


def vec_primitive_signed(v):
    p = vec_primitive(v)
    lead = next((x for x in p if x != 0), 0)
    return tuple(-x for x in p) if lead < 0 else p


@dataclass(frozen=True)
class SymplecticBase:
    """Candidate decomposition: radical, blocks and their image lines."""

    V0: Subspace
    blocks: tuple
    lines: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "lines",
                           tuple(vec_primitive_signed(w) for w in self.lines))


@dataclass(frozen=True)
class BaseReport:
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

    def to_json(self):
        return {
            "direct_sum": self.direct_sum,
            "centre_is_v0": self.centre_is_v0,
            "blocks_orthogonal": self.blocks_orthogonal,
            "blocks_nondegenerate": self.blocks_nondegenerate,
            "lines_distinct": self.lines_distinct,
            "lines_consistent": self.lines_consistent,
            "passed": self.passed,
        }


def verify_symplectic_base(phi: AlternatingMapQ,
                           cand: SymplecticBase) -> BaseReport:
    n = phi.n
    pieces = [cand.V0] + list(cand.blocks)
    stacked = [row for p in pieces for row in p.basis]
    direct = (sum(p.dim for p in pieces) == n
              and matrix_rank(stacked) == n)
    centre_ok = cand.V0 == center(phi)
    orth = True
    for i in range(len(cand.blocks)):
        for j in range(i + 1, len(cand.blocks)):
            for a in cand.blocks[i].basis:
                for b in cand.blocks[j].basis:
                    if any(phi.pairing(a, b)):
                        orth = False
    nondeg = True
    lines = []
    for block in cand.blocks:
        restricted = _restrict(phi, block.basis)
        img = image_space(phi, block)
        lines.append(_line_key(img))
        if img.dim != 1 or center(restricted).dim != 0:
            nondeg = False
    distinct = all(lines[i] is None or lines[i] != lines[j]
                   for i in range(len(lines)) for j in range(i + 1, len(lines)))
    consistent = (len(cand.lines) == len(cand.blocks)
                  and all(line is not None and line == stored
                          for line, stored in zip(lines, cand.lines))
                  if cand.blocks else len(cand.lines) == 0)
    return BaseReport(direct, centre_ok, orth, nondeg, distinct, consistent)


@dataclass(frozen=True)
class NoBaseFound:
    """Negative (Monte Carlo) outcome of the base search."""

    attempts: int
    evidence: BaseReport | None
    reason: str

    def to_json(self):
        return {
            "attempts": self.attempts,
            "evidence": self.evidence.to_json() if self.evidence else None,
            "reason": self.reason,
        }


def _complement_columns(space: Subspace):
    pivots = set(rref(space.basis)[1])
    return [j for j in range(space.ambient_dim) if j not in pivots]


def _charpoly(mat):
    """Characteristic polynomial coefficients [1, c1, ..., cd] of a rational
    matrix M, by the trace recursion (Faddeev-LeVerrier) run fraction-free.

    The recursion runs on the integer matrix A = D M, D the least common
    denominator of M's entries.  A's coefficients are integers, so each
    division by k is exact; c_k of M is c_k of A divided by D^k.
    """
    d = len(mat)
    A, D = clear_matrix(mat)
    coeffs = [Fraction(1)]
    N = [[int(i == j) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        AN = [row_times(row, N) for row in A]
        ck, rem = divmod(-sum(AN[i][i] for i in range(d)), k)
        assert rem == 0, "inexact division in the trace recursion"
        coeffs.append(Fraction(ck, D ** k))
        for i in range(d):
            AN[i][i] += ck
        N = AN
    return coeffs


def _rational_roots(coeffs):
    """Rational roots of a polynomial given by Fraction coefficients
    (leading first).  Exact; factorization is delegated to sympy."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in coeffs], x)
    out = []
    for root, _mult in sympy.roots(poly, filter="Q").items():
        out.append(Fraction(int(root.p), int(root.q)))
    return sorted(out)


def _eigen_split(mat):
    """Rational eigenvalue/eigenspace pairs of a rational matrix; None when
    the eigenspaces do not span (irrational or defective spectrum)."""
    d = len(mat)
    if d == 0:
        return []
    roots = _rational_roots(_charpoly(mat))
    pairs = []
    total = 0
    for lam in roots:
        shifted = [[mat[i][j] - (lam if i == j else 0) for j in range(d)]
                   for i in range(d)]
        basis = null_space_int(shifted, d)
        pairs.append((lam, basis))
        total += len(basis)
    if total != d:
        return None
    return pairs


def compute_symplectic_base(phi: AlternatingMapQ, seed: int = 0,
                            retries: int = 8):
    """Seeded pencil-eigenspace construction of a symplectic base.

    Two random target functionals t, t' contract phi to a pencil of forms on
    a complement of the radical; the eigenspaces of Phi(t)^-1 Phi(t') are
    the candidate blocks (on a block with image line w the map is the scalar
    <t',w>/<t,w>).  Candidates with equal image lines are merged and the
    result is certified by the verifier; failed draws are retried up to
    ``retries`` times before reporting NoBaseFound.
    """
    n, s = phi.n, phi.s
    V0 = center(phi)
    wcols = _complement_columns(V0)
    m = len(wcols)
    comp_basis = [tuple(Fraction(1 if j == c else 0) for j in range(n))
                  for c in wcols]
    restricted = _restrict(phi, comp_basis)
    if m == 0:
        base = SymplecticBase(V0, (), ())
        return base
    last_report = None
    reason = "no attempt produced a verified base"
    for attempt in range(max(1, retries)):
        rng = derive(seed, "pencil", attempt)
        phi_t = None
        for _ in range(32):
            t = [rng.randint(-9, 9) for _ in range(s)]
            cand = [[sum(t[k] * restricted.forms[k][i][j] for k in range(s))
                     for j in range(m)] for i in range(m)]
            if matrix_rank(cand) == m:
                phi_t = cand
                break
        if phi_t is None:
            reason = "could not draw an invertible pencil member"
            continue
        t2 = [rng.randint(-9, 9) for _ in range(s)]
        phi_t2 = [[sum(t2[k] * restricted.forms[k][i][j] for k in range(s))
                   for j in range(m)] for i in range(m)]
        M = _solve_matrix(phi_t, phi_t2)
        split = _eigen_split(M)
        if split is None:
            reason = "pencil spectrum not rational-diagonalizable"
            continue
        groups = {}
        degenerate = False
        for _lam, basis in split:
            vectors = [_lift(v, wcols, n) for v in basis]
            block = Subspace.from_rows(n, vectors)
            img = image_space(phi, block)
            key = _line_key(img)
            if key is None:
                degenerate = True
                break
            groups.setdefault(key, []).append(block)
        if degenerate:
            reason = "candidate block without a one-dimensional image line"
            continue
        blocks = []
        lines = []
        for key in sorted(groups):
            merged = groups[key][0]
            for extra in groups[key][1:]:
                merged = subspace_sum(merged, extra)
            img = image_space(phi, merged)
            key2 = _line_key(img)
            if key2 is None:
                degenerate = True
                break
            blocks.append(merged)
            lines.append(key2)
        if degenerate:
            reason = "merged block without a one-dimensional image line"
            continue
        order = sorted(range(len(blocks)), key=lambda i: blocks[i].basis)
        cand = SymplecticBase(V0, tuple(blocks[i] for i in order),
                              tuple(lines[i] for i in order))
        report = verify_symplectic_base(phi, cand)
        if report.passed:
            return cand
        last_report = report
        reason = "candidate decomposition failed verification"
    return NoBaseFound(max(1, retries), last_report, reason)


def _solve_matrix(A, B):
    """A^-1 B for square rational matrices."""
    from .polyhedral import _fraction_inverse
    inv = _fraction_inverse(A)
    d = len(A)
    return [[sum(inv[i][t] * Fraction(B[t][j]) for t in range(d))
             for j in range(d)] for i in range(d)]


def _lift(vec, wcols, n):
    out = [Fraction(0)] * n
    for value, j in zip(vec, wcols):
        out[j] = Fraction(value)
    return tuple(out)


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
    if phi.n % 2 != 0:
        raise ValueError("space dimension must be even")
    m = phi.n // 2
    if not is_abelian(phi, space):
        raise ValueError("subspace is not abelian")
    if space.dim < m:
        raise ValueError("abelian subspace of dimension below half the space")
    components = [subspace_intersection(space, block)
                  for block in base.blocks]
    total = Subspace.zero(phi.n)
    for comp in components:
        total = subspace_sum(total, comp)
    if (total != space
            or sum(c.dim for c in components) != space.dim
            or any(2 * c.dim != b.dim
                   for c, b in zip(components, base.blocks))):
        raise AssertionError("abelian decomposition identity failed")
    return components


@dataclass(frozen=True)
class AmpleReport:
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


def _centre_of(phi, space):
    return subspace_intersection(centralizer(phi, space), space)


def random_abelian_subspace(phi: AlternatingMapQ, space: Subspace, dim: int,
                            rng) -> Subspace:
    """Greedy seeded abelian subspace of the given dimension inside
    ``space`` (may come out smaller when the draws run dry)."""
    chosen = Subspace.zero(phi.n)
    for _ in range(40 * max(1, dim)):
        if chosen.dim >= dim:
            break
        coeffs = [rng.randint(-2, 2) for _ in range(space.dim)]
        v = tuple(sum(Fraction(c) * Fraction(row[j])
                      for c, row in zip(coeffs, space.basis))
                  for j in range(phi.n))
        if not any(v) or chosen.contains_vector(v):
            continue
        if all(not any(phi.pairing(v, b)) for b in chosen.basis):
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
        if u.ambient_dim != phi.n or not space.contains(u):
            raise ValueError("Omega member outside the subspace")
        if u.dim != m or not is_abelian(phi, u):
            raise ValueError("Omega member is not an m-dimensional abelian subspace")
    zx = _centre_of(phi, space)
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
                and subspace_intersection(u1, u2).contains(zx)
                and subspace_intersection(u1, u2).dim > zx.dim
                for u2 in omega)
            for u1 in omega)
    cond2 = all(
        any(zx.contains(subspace_intersection(u, u1)) for u1 in omega)
        for u in probes)
    return AmpleReport(m, dim_ok, cond1, cond2,
                       tuple(tuple(p.basis) for p in probes), False)
