"""Exact integer and rational linear algebra.

Sublattices of Z^n are kept in row Hermite normal form and subspaces of Q^n
in reduced row echelon form, so that structural equality coincides with
mathematical equality.  All arithmetic is arbitrary-precision (python ints
and fractions.Fraction); there is deliberately no floating point and no
numpy in this package.  An exact value keeps its type (``as_rational``): a
Fraction is made only where a division happens, so integral data stays
int.  Matrices are tuples of row tuples, and the value types derive from
``_record.Record``, so they are immutable and safe to share between
threads.  ``polyhedral.Cone`` is the one exception, frozen on its own
slots, since it compares by its point set rather than by its fields.

``rref`` is the one rational elimination, run fraction-free: it returns
primitive integer RREF rows, which a ``Subspace`` stores.  ``hnf`` is the
one integer (unimodular) elimination, one HNF of the augmented rows
``[M | I]``, so its transform U is canonical: a lattice kernel is read off
the U of one ``hnf(M^T)``, lifts off the rows of U, and coordinates in a
sublattice are found by back-substitution on the echelon basis, with no
further elimination.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from ._record import Record

__all__ = ["Sublattice", "Subspace", "hnf", "kernel_lattice", "saturate"]


def dot(a, b):
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum(map(mul, a, b))


def as_int(x):
    """``x`` as an int when it is an integral rational; ValueError for any
    other entry, floats included, so that no entry is silently truncated."""
    if isinstance(x, (int, Fraction)) and x.denominator == 1:
        return int(x)
    raise ValueError(f"integer entry expected, got {x!r}")


def as_rational(x):
    """``x`` unchanged, an int or a Fraction: an exact value keeps its type.
    ValueError for any other entry, floats included."""
    if isinstance(x, (int, Fraction)):
        return x
    raise ValueError(f"rational entry expected, got {x!r}")


def clear_denominators(v):
    """``(ints, den)`` with ``v == ints / den`` for a sequence ``v`` of
    rationals, ``den`` the least common denominator of its entries."""
    for x in v:
        if type(x) is not int:
            break
    else:
        return list(v), 1
    fracs = [as_rational(x) for x in v]
    den = lcm(*(f.denominator for f in fracs))
    return [f.numerator * (den // f.denominator) for f in fracs], den


def clear_matrix(matrix):
    """``(rows, den)`` with ``matrix == rows / den`` for one common ``den``."""
    cleared = [clear_denominators(row) for row in matrix]
    den = lcm(*(d for _, d in cleared))
    return [r if d == den else [x * (den // d) for x in r]
            for r, d in cleared], den


def _primitive(ints):
    """An integer list divided by the gcd of its entries."""
    g = gcd(*ints)
    return [x // g for x in ints] if g > 1 else ints


def vec_primitive(v):
    """Scale a rational vector to the primitive integer vector with the same
    direction (the zero vector stays zero); int vectors skip clearing."""
    for x in v:
        if type(x) is not int:
            return tuple(_primitive(clear_denominators(v)[0]))
    g = gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else tuple(v)


def vec_primitive_signed(v):
    """Primitive representative with canonical sign (first nonzero > 0)."""
    p = vec_primitive(v)
    lead = next((x for x in p if x != 0), 0)
    return tuple(-x for x in p) if lead < 0 else p


def row_times(v, matrix):
    """Row vector ``v`` times a matrix, skipping the zero coordinates of
    ``v``; exact on Fraction entries too (the public ``preimage`` uses it)."""
    if len(v) != len(matrix):
        raise ValueError("dimension mismatch in row_times")
    acc = [0] * len(matrix[0]) if matrix else []
    for x, row in zip(v, matrix):
        if x:
            acc = [a + x * b for a, b in zip(acc, row)]
    return acc


def congruence(basis, matrix, den=1):
    """Exact ``B M B^T / den`` for basis rows ``B`` (r x n) and a square
    int matrix ``M`` (n x n): entry (i, j) is ``b_i . M . b_j / den``.

    The callers pass forms their constructors have already cleared
    (``CocycleForm.forms``, ``AlternatingMapQ._cleared``).  The denominators
    of each row of ``B`` are cleared once, so the rows of ``B M``
    (O(r n^2)) and their pairings with ``B`` (O(r^2 n)) accumulate in ints,
    skipping zero coordinates of ``B``.  Each entry is divided once at the
    end: an int where the divisor is 1, else a Fraction.
    """
    n = len(matrix)
    if (any(len(row) != n for row in matrix)
            or any(len(b) != n for b in basis)):
        raise ValueError("dimension mismatch in congruence")
    rows = [clear_denominators(b) for b in basis]
    support = [[(k, x) for k, x in enumerate(b) if x] for b, _ in rows]
    out = []
    for b, db in rows:
        bm = row_times(b, matrix)
        line = []
        for nz, (_, dc) in zip(support, rows):
            num = sum(bm[k] * x for k, x in nz)
            scale = den * db * dc
            line.append(num if scale == 1 else Fraction(num, scale))
        out.append(tuple(line))
    return tuple(out)


def hnf(matrix):
    """Row Hermite normal form of an integer matrix ``M`` (m x n) and its
    transform, read off one HNF of the augmented rows ``[M | I]``, split
    after column n.

    Returns ``(H, U)`` with ``U`` unimodular over Z and ``H = U * M``.
    Pivots are positive, entries above a pivot are reduced into
    ``[0, pivot)``, rows are in echelon order and zero rows sit at the
    bottom, in ``H`` and in ``[H | U]`` alike.  ``[M | I]`` has full row
    rank, so its HNF is unique: ``H`` is the canonical basis of the row
    lattice of ``M``, ``U`` is a function of ``M`` alone, and the rows of
    ``U`` beside the zero rows of ``H`` are the HNF basis of the left
    kernel {x in Z^m : x M = 0}.
    """
    A = [[as_int(x) for x in row] for row in matrix]
    m = len(A)
    n = len(A[0]) if m else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    for i, row in enumerate(A):
        row[n:] = [0] * i + [1] + [0] * (m - 1 - i)

    r = 0
    for c in range(n + m):
        if r == m:
            break
        while True:
            # the smallest nonzero |entry| at or below row r, first on a tie
            i0, low = r, 0
            for i in range(r, m):
                x = A[i][c]
                if x and (not low or abs(x) < low):
                    i0, low = i, abs(x)
            if not low:
                break
            A[r], A[i0] = A[i0], A[r]
            prow, p = A[r], A[r][c]
            done = True
            for i in range(r + 1, m):
                q = A[i][c] // p
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], prow)]
                if A[i][c]:
                    done = False
            if done:
                break
        prow = A[r]
        if prow[c]:
            if prow[c] < 0:
                prow = A[r] = [-a for a in prow]
            for i in range(r):
                q = A[i][c] // prow[c]
                if q:
                    A[i] = [a - q * b for a, b in zip(A[i], prow)]
            r += 1
    return (tuple(tuple(row[:n]) for row in A),
            tuple(tuple(row[n:]) for row in A))


def rref(matrix):
    """Reduced row echelon form over Q, fraction-free: ``(rows, pivots)``
    with each nonzero RREF row scaled to a primitive integer list whose
    pivot entry is positive, and the pivot column of each row.

    Every row is cleared of denominators once.  Then each row is reduced
    by the pivot rows so far and, if nonzero, gives a new pivot that is
    cleared from them: pivot ``p`` clears entry ``a`` by ``row <- (p/g) row
    - (a/g) prow``, ``g = gcd(p, a)``, and the row is divided by the gcd of
    its entries (Bareiss, Math. Comp. 22, 1968).  The primitive RREF with
    positive pivots is unique, so the elimination stops once every column
    holds a pivot: about n^2 row operations on a tall full-rank matrix.
    """
    M = [_primitive(clear_denominators(row)[0]) for row in matrix]
    n = len(M[0]) if M else 0
    rows, pivots = [], []
    for row in M:
        if len(pivots) == n:
            break
        for prow, c in zip(rows, pivots):
            a = row[c]
            if a:
                g = gcd(prow[c], a)
                p, a = prow[c] // g, a // g
                row = _primitive([p * x - a * y for x, y in zip(row, prow)])
        for c, p in enumerate(row):
            if p:
                break
        else:
            continue
        if p < 0:
            row, p = [-x for x in row], -p
        for k, prow in enumerate(rows):
            a = prow[c]
            if a:
                g = gcd(p, a)
                rows[k] = _primitive([p // g * x - a // g * y
                                      for x, y in zip(prow, row)])
        k = bisect(pivots, c)
        rows.insert(k, row)
        pivots.insert(k, c)
    return rows, tuple(pivots)


def complement_columns(rows, n):
    """The non-pivot columns of ``rows`` among 0..n-1: their unit vectors
    span the canonical complement of the row space."""
    pivots = set(rref(rows)[1])
    return [j for j in range(n) if j not in pivots]


def lift_columns(vec, cols, n):
    """The vector of Q^n that is ``vec`` on the columns ``cols`` and 0
    elsewhere.  For ascending ``cols`` it keeps lexicographic order."""
    out = [0] * n
    for value, j in zip(vec, cols):
        out[j] = value
    return tuple(out)


def matrix_rank(matrix):
    return len(rref(matrix)[1])


def null_space_int(matrix, n):
    """Canonical primitive integer basis of {x in Q^n : matrix . x = 0}.

    The basis is derived from the RREF of ``matrix`` so it depends only on
    the row space, one vector per free column, ordered by free column.
    Free column f gets the value L, the lcm of the pivots of the rows that
    meet it, so every pivot coordinate -row[f] * L / row[c] is an int.
    """
    R, piv = rref(matrix)
    pivset = set(piv)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        meet = [(row, c) for row, c in zip(R, piv) if row[f]]
        L = lcm(*(row[c] for row, c in meet))
        v = [0] * n
        v[f] = L
        for row, c in meet:
            v[c] = -row[f] * (L // row[c])
        basis.append(tuple(_primitive(v)))
    return tuple(basis)


class Sublattice(Record):
    """Sublattice of Z^n given by independent generator rows in row HNF."""

    ambient_rank: int
    basis: tuple

    def _post_init(self):
        object.__setattr__(self, "basis", tuple(tuple(as_int(x) for x in row)
                                                for row in self.basis))
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
        H, _ = hnf(rows)
        return Sublattice._trusted(ambient_rank,
                                   tuple(row for row in H if any(row)))

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
        return self.coordinates(v) is not None

    def coordinates(self, v):
        """Coefficients of ``v`` in this basis, or None when ``v`` is not a
        lattice vector (a non-integral one included); ValueError for an
        entry that is not an int or a Fraction."""
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        v = [as_rational(x) for x in v]
        if any(x.denominator != 1 for x in v):
            return None
        # Row r is the only row nonzero at its pivot column among rows r..,
        # so the pivots, in order, fix the coefficients one by one.
        residual = [x.numerator for x in v]
        coords = []
        for row in self.basis:
            c = next(c for c, x in enumerate(row) if x)
            q, rem = divmod(residual[c], row[c])
            if rem:
                return None
            coords.append(q)
            if q:
                residual = [a - q * b for a, b in zip(residual, row)]
        return None if any(residual) else tuple(coords)


def kernel_lattice(matrix, n):
    """Saturated sublattice {x in Z^n : matrix . x = 0}, in row HNF.  It is
    the left kernel of ``matrix^T``, so its HNF basis is read off the
    transform U of one ``hnf(matrix^T)``: the rows beside the zero rows of H.

    Rational entries are allowed; each row is cleared to integers first.
    """
    cleared = []
    for row in matrix:
        if len(row) != n:
            raise ValueError("dimension mismatch")
        cleared.append(vec_primitive(row))
    H, U = hnf([tuple(row[i] for row in cleared) for i in range(n)])
    return Sublattice._trusted(n, tuple(u for h, u in zip(H, U) if not any(h)))


def saturate(lattice):
    """Isolated closure {a in Z^n : k*a in L for some k >= 1}: the integer
    points of the rational span of L, one HNF."""
    n = lattice.ambient_rank
    return kernel_lattice(null_space_int(lattice.basis, n), n)


class Subspace(Record):
    """Linear subspace of Q^n, stored as the rows of its ``rref``: primitive
    integer rows with positive pivots, unique to the subspace."""

    ambient_dim: int
    rows: tuple

    @staticmethod
    def from_rows(ambient_dim, rows):
        for row in rows:
            if len(row) != ambient_dim:
                raise ValueError("row of wrong length")
        R, _ = rref(rows)
        return Subspace(ambient_dim, tuple(map(tuple, R)))

    @staticmethod
    def full(ambient_dim):
        return Subspace(ambient_dim, Sublattice.full(ambient_dim).basis)

    @staticmethod
    def zero(ambient_dim):
        return Subspace(ambient_dim, ())

    @cached_property
    def basis(self):
        """The rows divided by their pivots, for where a row's scale shows
        (a subspace written or ordered): Fractions unless the pivot is 1."""
        return tuple(row if (p := next(filter(None, row))) == 1
                     else tuple(Fraction(x, p) for x in row)
                     for row in self.rows)

    @property
    def dim(self):
        return len(self.rows)

    def contains_vector(self, v):
        if len(v) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return matrix_rank(self.rows + (tuple(v),)) == self.dim

    def contains(self, other):
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return matrix_rank(self.rows + other.rows) == self.dim


def subspace_sum(s1, s2):
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("dimension mismatch")
    return Subspace.from_rows(s1.ambient_dim, s1.rows + s2.rows)


def subspace_intersection(s1, s2):
    """One elimination (Zassenhaus): the rows ``[a | a]``, a in s1, and
    ``[b | 0]``, b in s2, span the pairs (a + b, a), so the rows of their
    RREF that are zero on the left half hold the primitive RREF rows of
    s1 cap s2 on the right half."""
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError("dimension mismatch")
    n = s1.ambient_dim
    R, pivots = rref([[*a, *a] for a in s1.rows]
                     + [[*b] + [0] * n for b in s2.rows])
    return Subspace(n, tuple(tuple(row[n:])
                             for row, c in zip(R, pivots) if c >= n))


def subspace_to_lattice(subspace):
    """Saturated lattice of integer points of a rational subspace."""
    n = subspace.ambient_dim
    perp = null_space_int(subspace.rows, n)
    return kernel_lattice(perp, n)
