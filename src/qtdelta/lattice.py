"""Exact integer and rational linear algebra.

Sublattices of Z^n are kept in row Hermite normal form and subspaces of Q^n
in reduced row echelon form, so that structural equality coincides with
mathematical equality.  All arithmetic is arbitrary-precision (python ints
and fractions.Fraction); there is deliberately no floating point and no
numpy in this package.  Matrices are tuples of row tuples and every public
value is immutable, hence safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def dot(a, b):
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum(x * y for x, y in zip(a, b))


def clear_denominators(v):
    """``(ints, den)`` with ``v == ints / den`` for a sequence ``v`` of
    rationals, ``den`` the least common denominator of its entries."""
    if all(type(x) is int for x in v):
        return list(v), 1
    fracs = [x if type(x) is Fraction else Fraction(x) for x in v]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def clear_matrix(matrix):
    """``(rows, den)`` with ``matrix == rows / den`` for one common ``den``."""
    cleared = [clear_denominators(row) for row in matrix]
    den = lcm(*(d for _, d in cleared))
    return [r if d == den else [x * (den // d) for x in r]
            for r, d in cleared], den


def vec_primitive(v):
    """Scale a rational vector to the primitive integer vector with the same
    direction (the zero vector stays zero)."""
    ints, _ = clear_denominators(v)
    g = gcd(*ints)
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)


def row_times(v, matrix):
    """Integer row vector ``v`` times an integer matrix, skipping the zero
    coordinates of ``v``."""
    if len(v) != len(matrix):
        raise ValueError("dimension mismatch in row_times")
    acc = [0] * len(matrix[0]) if matrix else []
    for x, row in zip(v, matrix):
        if x:
            acc = [a + x * b for a, b in zip(acc, row)]
    return acc


def congruence(basis, matrix, den=1):
    """Exact ``B M B^T / den`` for basis rows ``B`` (r x n) and a square
    rational matrix ``M`` (n x n): entry (i, j) is ``b_i . M . b_j / den``.

    The denominators of ``M`` and of each row of ``B`` are cleared once, so
    the rows of ``B M`` (O(r n^2)) and their pairings with ``B`` (O(r^2 n))
    accumulate in ints, skipping zero coordinates of ``B``.  Each entry is
    divided once at the end: an int where the divisor is 1, else a Fraction.
    """
    M, dm = clear_matrix(matrix)
    den *= dm
    n = len(M)
    if any(len(row) != n for row in M) or any(len(b) != n for b in basis):
        raise ValueError("dimension mismatch in congruence")
    rows = [clear_denominators(b) for b in basis]
    support = [[(k, x) for k, x in enumerate(b) if x] for b, _ in rows]
    out = []
    for b, db in rows:
        bm = row_times(b, M)
        line = []
        for nz, (_, dc) in zip(support, rows):
            num = sum(bm[k] * x for k, x in nz)
            scale = den * db * dc
            line.append(num if scale == 1 else Fraction(num, scale))
        out.append(tuple(line))
    return tuple(out)


def _check_int_matrix(matrix):
    rows = [tuple(row) for row in matrix]
    if rows:
        n = len(rows[0])
        for row in rows:
            if len(row) != n:
                raise ValueError("ragged matrix")
            for x in row:
                if not isinstance(x, int):
                    raise TypeError("integer matrix expected")
    return rows


def hnf(matrix):
    """Row Hermite normal form of an integer matrix.

    Returns ``(H, U)`` with ``U`` unimodular over Z and ``H = U * matrix``.
    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, rows are in echelon order and zero rows sit at the
    bottom.  ``H`` is the canonical representative of the row lattice.
    """
    rows = _check_int_matrix(matrix)
    m = len(rows)
    n = len(rows[0]) if m else 0
    H = [list(r) for r in rows]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def subtract(i, q, j):
        if q:
            H[i] = [a - q * b for a, b in zip(H[i], H[j])]
            U[i] = [a - q * b for a, b in zip(U[i], U[j])]

    r = 0
    for c in range(n):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if H[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: (abs(H[i][c]), i))
            if i0 != r:
                H[r], H[i0] = H[i0], H[r]
                U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, m):
                if H[i][c] != 0:
                    subtract(i, H[i][c] // H[r][c], r)
                    if H[i][c] != 0:
                        done = False
            if done:
                break
        if H[r][c] != 0:
            if H[r][c] < 0:
                H[r] = [-a for a in H[r]]
                U[r] = [-a for a in U[r]]
            for i in range(r):
                subtract(i, H[i][c] // H[r][c], r)
            r += 1
    return tuple(map(tuple, H)), tuple(map(tuple, U))


def rref(matrix):
    """Reduced row echelon form over Q.

    Returns ``(rows, pivots)`` where ``rows`` holds only the nonzero rows
    (entries are Fractions) and ``pivots`` the pivot column of each row.
    """
    M = [[Fraction(x) for x in row] for row in matrix]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = None
        for i in range(r, m):
            if M[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        M[r], M[pivot_row] = M[pivot_row], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(m):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return tuple(tuple(row) for row in M[:r]), tuple(pivots)


def matrix_rank(matrix):
    return len(rref(matrix)[0])


def null_space_int(matrix, n):
    """Canonical primitive integer basis of {x in Q^n : matrix . x = 0}.

    The basis is derived from the RREF of ``matrix`` so it depends only on
    the row space, one vector per free column, ordered by free column.
    """
    rows = [row for row in matrix if any(x != 0 for x in row)]
    R, piv = rref(rows)
    pivset = set(piv)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for r, c in enumerate(piv):
            v[c] = -R[r][f]
        basis.append(vec_primitive(v))
    return tuple(basis)


def solve_left(matrix, target):
    """Integer row vector ``x`` with ``x * matrix = target``, or None.

    ``matrix`` is a sequence of integer rows; ``target`` an integer vector.
    """
    rows = _check_int_matrix(matrix)
    m = len(rows)
    if m == 0:
        return () if all(t == 0 for t in target) else None
    n = len(rows[0])
    if len(target) != n:
        raise ValueError("dimension mismatch")
    H, U = hnf(rows)
    residual = list(target)
    y = [0] * m
    for r, row in enumerate(H):
        pivot_col = next((c for c, x in enumerate(row) if x != 0), None)
        if pivot_col is None:
            break
        if residual[pivot_col] % row[pivot_col] != 0:
            return None
        q = residual[pivot_col] // row[pivot_col]
        if q:
            y[r] = q
            residual = [a - q * b for a, b in zip(residual, row)]
    if any(residual):
        return None
    return tuple(sum(y[r] * U[r][i] for r in range(m)) for i in range(m))


@dataclass(frozen=True)
class Sublattice:
    """Sublattice of Z^n given by independent generator rows in row HNF."""

    ambient_rank: int
    basis: tuple

    def __post_init__(self):
        n = self.ambient_rank
        prev_pivot = -1
        for row in self.basis:
            if len(row) != n:
                raise ValueError("basis row of wrong length")
            pivot = next((c for c, x in enumerate(row) if x != 0), None)
            if pivot is None:
                raise ValueError("zero row in sublattice basis")
            if pivot <= prev_pivot or row[pivot] <= 0:
                raise ValueError("basis not in row HNF")
            prev_pivot = pivot

    @staticmethod
    def from_rows(ambient_rank, rows):
        for row in rows:
            if len(row) != ambient_rank:
                raise ValueError("generator of wrong length")
        H, _ = hnf(tuple(tuple(int(x) for x in row) for row in rows))
        nonzero = tuple(row for row in H if any(row))
        return Sublattice(ambient_rank, nonzero)

    @staticmethod
    def full(ambient_rank):
        eye = tuple(tuple(1 if i == j else 0 for j in range(ambient_rank))
                    for i in range(ambient_rank))
        return Sublattice(ambient_rank, eye)

    @staticmethod
    def zero(ambient_rank):
        return Sublattice(ambient_rank, ())

    @property
    def rank(self):
        return len(self.basis)

    def contains_vector(self, v):
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        ints = []
        for x in v:
            f = Fraction(x)
            if f.denominator != 1:
                return False
            ints.append(int(f))
        return solve_left(self.basis, tuple(ints)) is not None if self.basis \
            else all(x == 0 for x in ints)

    def coordinates(self, v):
        """Coefficients of the lattice vector ``v`` in this basis (or None)."""
        if not self.basis:
            return () if all(x == 0 for x in v) else None
        return solve_left(self.basis, tuple(int(x) for x in v))


def kernel_lattice(matrix, n):
    """Saturated sublattice {x in Z^n : matrix . x = 0}.

    Rational entries are allowed; each row is cleared to integers first.
    """
    cleared = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("dimension mismatch")
        prim = vec_primitive(row)
        if any(prim):
            cleared.append(prim)
    m = len(cleared)
    # Rows (column i of the matrix | e_i) span {(Mx, x) : x in Z^n}; the HNF
    # rows supported in the identity block are exactly the kernel.
    big = []
    for i in range(n):
        head = tuple(cleared[k][i] for k in range(m))
        tail = tuple(1 if j == i else 0 for j in range(n))
        big.append(head + tail)
    H, _ = hnf(big)
    rows = tuple(r[m:] for r in H if not any(r[:m]) and any(r[m:]))
    return Sublattice(n, rows)


def saturate(lattice):
    """Isolated closure {a in Z^n : k*a in L for some k >= 1}."""
    if lattice.rank == 0:
        return lattice
    perp = kernel_lattice(lattice.basis, lattice.ambient_rank)
    return kernel_lattice(perp.basis, lattice.ambient_rank)


def commensurable(l1, l2):
    """True iff the two sublattices have equal saturations (equivalently,
    their intersection has finite index in both)."""
    if l1.ambient_rank != l2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    return saturate(l1) == saturate(l2)


def lattice_intersection(l1, l2):
    if l1.ambient_rank != l2.ambient_rank:
        raise ValueError("ambient rank mismatch")
    n = l1.ambient_rank
    r1 = len(l1.basis)
    stacked = list(l1.basis) + [tuple(-x for x in row) for row in l2.basis]
    if not stacked:
        return Sublattice.zero(n)
    transposed = tuple(tuple(row[i] for row in stacked)
                       for i in range(n))
    K = kernel_lattice(transposed, len(stacked))
    gens = []
    for coeffs in K.basis:
        gens.append(tuple(sum(coeffs[i] * l1.basis[i][j] for i in range(r1))
                          for j in range(n)))
    return Sublattice.from_rows(n, gens)


@dataclass(frozen=True)
class Subspace:
    """Linear subspace of Q^n with canonical RREF basis rows."""

    ambient_dim: int
    basis: tuple

    @staticmethod
    def from_rows(ambient_dim, rows):
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("row of wrong length")
        R, _ = rref(rows)
        return Subspace(ambient_dim, R)

    @staticmethod
    def full(ambient_dim):
        return Subspace.from_rows(
            ambient_dim,
            [[1 if i == j else 0 for j in range(ambient_dim)]
             for i in range(ambient_dim)])

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, ())

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        residual = [Fraction(x) for x in v]
        for row in self.basis:
            pivot = next(c for c, x in enumerate(row) if x != 0)
            f = residual[pivot]
            if f:
                residual = [a - f * b for a, b in zip(residual, row)]
        return not any(residual)

    def contains(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return all(self.contains_vector(row) for row in other.basis)


def subspace_sum(s1, s2):
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("dimension mismatch")
    return Subspace.from_rows(s1.ambient_dim, list(s1.basis) + list(s2.basis))


def subspace_intersection(s1, s2):
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("dimension mismatch")
    n = s1.ambient_dim
    k1 = null_space_int(s1.basis, n)
    k2 = null_space_int(s2.basis, n)
    return Subspace.from_rows(n, null_space_int(list(k1) + list(k2), n))


def subspace_kernel(matrix, n):
    """Null space {x in Q^n : matrix . x = 0} as a Subspace."""
    return Subspace.from_rows(n, null_space_int(matrix, n))


def subspace_image(matrix):
    """Column space of ``matrix`` (the image of x -> matrix.x)."""
    m = len(matrix)
    if m == 0:
        raise ValueError("empty matrix has no codomain dimension")
    cols = tuple(tuple(row[i] for row in matrix) for i in range(len(matrix[0])))
    return Subspace.from_rows(m, cols)


def lattice_span(lattice):
    """Rational span of a sublattice."""
    return Subspace.from_rows(lattice.ambient_rank, lattice.basis)


def subspace_to_lattice(subspace):
    """Saturated lattice of integer points of a rational subspace."""
    n = subspace.ambient_dim
    perp = null_space_int(subspace.basis, n)
    return kernel_lattice(perp, n)
