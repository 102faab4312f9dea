"""Independent oracles and seeded instance generators shared by the tests.

The oracles deliberately avoid the code paths they check: brute-force
enumeration for lattice saturation, direct min-evaluation for Delta
membership, one tie cone per support pair, each from its own double
description, for Delta fans (the library takes one tie cone per edge of
the Newton polytope, its rays read off the polytope's facets), a double
description of the dual cone for the canonical H-representation (the
library reads the facets off the cone's raw rows), argmin sets
of box characters for the faces of a Newton polytope, subset
enumeration for extreme rays, exact epsilon thresholds for local cones,
Fraction double sums for bilinear restrictions and block conditions, the
kernel of the stacked kernels for a subspace intersection (the library
runs one Zassenhaus elimination),
sympy's root finder over Q for the pencil spectrum (the library reads
integer roots off a factorization over Z), and a pencil determinant root
search (via sympy) for symplectic base existence.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from qtdelta import polyhedral, torus
from qtdelta.lattice import (Sublattice, Subspace, dot, null_space_int,
                             vec_primitive, vec_primitive_signed)
from qtdelta.polyhedral import Cone, Fan
from qtdelta.symplectic import (
    AlternatingMapQ,
    SymplecticBase,
    verify_symplectic_base,
)


def assert_canonical_element(element):
    """The element's stored terms are what the validating constructor keeps
    of them: int exponents of the right lengths, no empty coefficient and
    no zero value."""
    assert element == torus.QTorusElement(element.rank, element.s,
                                          element.terms)
    for exp, coeff in element._terms.items():
        assert len(exp) == element.rank
        assert all(type(x) is int for x in exp)
        assert coeff, "empty coefficient dict"
        for q, v in coeff.items():
            assert len(q) == element.s and all(type(x) is int for x in q)
            assert type(v) in (int, Fraction) and v, "zero coefficient"


# ---------------------------------------------------------------------------
# lattice oracles

def is_row_hnf(H):
    prev = -1
    seen_zero = False
    for row in H:
        pivot = next((c for c, x in enumerate(row) if x != 0), None)
        if pivot is None:
            seen_zero = True
            continue
        if seen_zero or pivot <= prev or row[pivot] <= 0:
            return False
        prev = pivot
    # entries above each pivot reduced into [0, pivot)
    rows = [r for r in H if any(r)]
    for r, row in enumerate(rows):
        pivot = next(c for c, x in enumerate(row) if x != 0)
        for above in rows[:r]:
            if not 0 <= above[pivot] < row[pivot]:
                return False
    return True


def det_fraction(matrix):
    M = [[Fraction(x) for x in row] for row in matrix]
    n = len(M)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            det = -det
        det *= M[c][c]
        inv = 1 / M[c][c]
        M[c] = [x * inv for x in M[c]]
        for i in range(c + 1, n):
            if M[i][c] != 0:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return det


def rref_fraction(matrix):
    """Reduced row echelon form by Gauss-Jordan elimination on Fractions:
    ``(nonzero rows, pivot columns)``, the reference for ``lattice.rref``."""
    M = [[Fraction(x) for x in row] for row in matrix]
    m = len(M)
    n = len(M[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pivot_row = next((i for i in range(r, m) if M[i][c] != 0), None)
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


def subspace_intersection_oracle(s1, s2):
    """s1 cap s2 as the kernel of the stacked kernels of s1 and s2 (three
    null spaces), the reference for ``lattice.subspace_intersection``."""
    n = s1.ambient_dim
    k1 = null_space_int(s1.rows, n)
    k2 = null_space_int(s2.rows, n)
    return Subspace.from_rows(n, null_space_int(k1 + k2, n))


def inverse_fraction(matrix):
    """Inverse of a square rational matrix: the right block of the
    ``rref_fraction`` of ``[matrix | I]``."""
    n = len(matrix)
    rows, pivots = rref_fraction([list(row) + [int(i == j) for j in range(n)]
                                  for i, row in enumerate(matrix)])
    if pivots[:n] != tuple(range(n)):
        raise ValueError("singular matrix")
    return [list(row[n:]) for row in rows]


def restrict_double_sum(matrix, basis):
    """B M B^T entry by entry: the O(r^2 n^2) double sum of Fraction
    products b_i[a] * M[a][b] * b_j[b]."""
    n = len(matrix)
    return tuple(tuple(
        sum(Fraction(bi[a]) * Fraction(matrix[a][b]) * Fraction(bj[b])
            for a in range(n) for b in range(n))
        for bj in basis) for bi in basis)


def pairing_double_sum(phi, u, v):
    """phi(u, v) as one Fraction double sum per target coordinate."""
    return tuple(sum(Fraction(u[i]) * m[i][j] * Fraction(v[j])
                     for i in range(phi.n) for j in range(phi.n))
                 for m in phi.forms)


def block_conditions_oracle(phi, bases):
    """The pairing conditions of Theorem 4.2 on a family of bases, from
    ``pairing_double_sum`` and ``rref_fraction`` alone (no ``congruence``).

    Returns ``(commute, parts)``: ``commute`` is true when every row of one
    basis pairs to zero with every row of another, and ``parts`` holds, per
    basis, ``(nondegenerate, image)``: whether the Gram rows phi_k(b_i, b_j)
    of the basis, all k stacked, have full rank (phi restricted to the span
    has trivial radical), and the ``rref_fraction`` rows of the span of its
    pairings phi(b_i, b_j), i < j."""
    commute = all(not any(pairing_double_sum(phi, a, b))
                  for i, p in enumerate(bases) for q in bases[i + 1:]
                  for a in p for b in q)
    parts = []
    for basis in bases:
        gram = [[pairing_double_sum(phi, a, b) for b in basis] for a in basis]
        stacked = [[value[k] for value in row]
                   for k in range(phi.s) for row in gram]
        pairs = [gram[i][j] for i in range(len(basis))
                 for j in range(i + 1, len(basis))]
        parts.append((len(rref_fraction(stacked)[1]) == len(basis),
                      rref_fraction(pairs)[0]))
    return commute, parts


def mat_mul(A, B):
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(len(B)))
                       for j in range(len(B[0]))) for i in range(len(A)))


def saturation_points_bruteforce(basis, n, box=3, k_max=12):
    """All x in the box with k*x in the generated lattice for some k>=1."""
    points = set()
    in_lattice = Sublattice.from_rows(n, basis).contains_vector

    def walk(prefix):
        if len(prefix) == n:
            v = tuple(prefix)
            for k in range(1, k_max + 1):
                if in_lattice(tuple(k * x for x in v)):
                    points.add(v)
                    return
            return
        for x in range(-box, box + 1):
            walk(prefix + [x])

    walk([])
    return points


# ---------------------------------------------------------------------------
# polyhedral / delta oracles

def delta_member_bruteforce(support, chi):
    """Minimum over the support attained at least twice."""
    values = [dot(chi, a) for a in support]
    m = min(values)
    return sum(1 for v in values if v == m) >= 2


def exposed_faces_bruteforce(support, box):
    """The faces of conv(support) of dimension at least one that an integer
    character of [-box, box]^n exposes, each as the frozenset of support
    points on it: the box characters grouped by their argmin set, the sets
    of two or more points kept.  No facet is computed, so a face whose
    normal cone misses the box is missed."""
    faces = set()
    for chi in itertools.product(range(-box, box + 1), repeat=len(support[0])):
        values = [dot(chi, a) for a in support]
        low = min(values)
        face = frozenset(a for a, v in zip(support, values) if v == low)
        if len(face) >= 2:
            faces.add(face)
    return faces


def extreme_rays_bruteforce(constraints, dim):
    """Extreme rays of the pointed cone {z in Q^dim : a.z >= 0 for all a},
    as sorted primitive integer vectors, by enumeration: each extreme ray
    spans the one-dimensional kernel of some dim - 1 of the constraints,
    so both signs of every such kernel vector are tried and the feasible
    ones kept.  No double description and no adjacency test."""
    rays = set()
    for subset in itertools.combinations(constraints, dim - 1):
        rows, pivots = rref_fraction(subset)
        if len(pivots) != dim - 1:
            continue
        free = next(c for c in range(dim) if c not in pivots)
        v = [Fraction(int(c == free)) for c in range(dim)]
        for row, c in zip(rows, pivots):
            v[c] = -row[free]
        for w in (v, [-x for x in v]):
            if all(dot(a, w) >= 0 for a in constraints):
                rays.add(vec_primitive(w))
    return tuple(sorted(rays))


def canonical_hrep_oracle(cone):
    """(equalities, facets) of a cone by double dualization: the lineality
    and the extreme rays, from one double description, of the dual cone
    {a : a.l = 0 on the cone's lineality, a.r >= 0 on its rays}, the
    canonical H-representation that ``Cone.canonical_hrep`` reads off the
    raw rows instead."""
    facets, eq = polyhedral._vrep(cone.ambient_dim, cone.lineality,
                                  cone.rays)
    polyhedral._check_generators(cone.rays + cone.lineality, eq, facets)
    return eq, facets


def delta_set_pairwise(module):
    """Delta set by its definition: one tie cone per pair of support points,
    with the full containment prune of ``Fan``."""
    support = module.relator.support
    cones = []
    for i, a in enumerate(support):
        for b in support[i + 1:]:
            eq = [tuple(x - y for x, y in zip(a, b))]
            ineq = [tuple(x - y for x, y in zip(c, a))
                    for c in support if c != a and c != b]
            cones.append(Cone.from_constraints(module.rank, eq, ineq))
    return Fan(module.rank, cones)


def edge_graph_oracle(n, points):
    """Edges of conv(points) from the tie cones cut out by the rows w - u
    over every point w: the vertices are the points with a full-dimensional
    normal cone, the edges the vertex pairs (i, j), i < j, whose tie cone
    has dimension n - 1.  Returns ``({key: (i, cone)}, neighbours)``, i the
    first vertex of the edge and ``neighbours[i]`` the set of vertices that
    share an edge with vertex i."""
    def diff(w, u):
        return tuple(a - b for a, b in zip(w, u))
    vertices = [i for i, u in enumerate(points)
                if Cone.from_constraints(
                    n, (), [diff(w, u) for w in points]).dim == n]
    edges, neighbours = {}, {i: set() for i in vertices}
    for i, j in itertools.combinations(vertices, 2):
        u = points[i]
        cone = Cone.from_constraints(n, [diff(u, points[j])],
                                     [diff(w, u) for w in points])
        if cone.dim == n - 1:
            edges[cone.key] = (i, cone)
            neighbours[i].add(j)
            neighbours[j].add(i)
    return edges, neighbours


def edge_rows_oracle(n, points):
    """The raw rows of the edge cones that ``edge_graph_oracle`` finds:
    ``{key: (equalities, inequalities)}``, the equality u - v of the edge
    [u, v], u its first vertex, and the rows w - u of u's neighbours w in
    ascending order, each primitive."""
    edges, neighbours = edge_graph_oracle(n, points)
    return {key: (cone._raw_eq,
                  tuple(vec_primitive([a - b for a, b in zip(points[w],
                                                             points[i])])
                        for w in sorted(neighbours[i])))
            for key, (i, cone) in edges.items()}


def local_cone_eps_oracle(fan, x, y):
    """Exact decision of `x + eps*y in fan for all small eps >= 0`.

    Below the threshold eps* = min |a.x| / |a.y| over constraints with both
    values nonzero, the sign of every constraint at x + eps*y is constant,
    so one exact evaluation decides the whole interval.
    """
    x = tuple(Fraction(v) for v in x)
    y = tuple(Fraction(v) for v in y)
    if not fan.member(x):
        return False
    thresholds = []
    for cone in fan.cones:
        for a in list(cone._raw_eq) + list(cone._raw_ineq):
            ax, ay = dot(a, x), dot(a, y)
            if ax != 0 and ay != 0:
                thresholds.append(abs(ax) / abs(ay))
    eps = min(thresholds) / 2 if thresholds else Fraction(1, 2)
    return fan.member(tuple(a + eps * b for a, b in zip(x, y)))


def dyadic_eps_agreement(fan, x, y, claimed):
    """The sampled memberships at eps in {1/2, ..., 1/64} below the exact
    threshold must agree with the claimed local-cone membership."""
    x = tuple(Fraction(v) for v in x)
    y = tuple(Fraction(v) for v in y)
    thresholds = []
    for cone in fan.cones:
        for a in list(cone._raw_eq) + list(cone._raw_ineq):
            ax, ay = dot(a, x), dot(a, y)
            if ax != 0 and ay != 0:
                thresholds.append(abs(ax) / abs(ay))
    cut = min(thresholds) if thresholds else None
    for k in range(1, 7):
        eps = Fraction(1, 2 ** k)
        if cut is not None and eps >= cut:
            continue
        if fan.member(tuple(a + eps * b for a, b in zip(x, y))) != claimed:
            return False
    return True


def random_point_on_fan(rng, fan):
    cone = rng.choice(fan.cones)
    gens = list(cone.rays) + list(cone.lineality)
    n = fan.ambient_dim
    p = [Fraction(0)] * n
    for g in gens:
        c = Fraction(rng.randint(0 if g in cone.rays else -3, 3),
                     rng.randint(1, 2))
        p = [a + c * b for a, b in zip(p, g)]
    return tuple(p)


def fans_distinguishable(rng, f1, f2, samples=200):
    """Monte Carlo witness search: a point in exactly one of the fans."""
    n = f1.ambient_dim
    for _ in range(samples):
        if f1.cones and rng.random() < 0.4:
            p = random_point_on_fan(rng, f1)
        elif f2.cones and rng.random() < 0.6:
            p = random_point_on_fan(rng, f2)
        else:
            p = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(n))
        if f1.member(p) != f2.member(p):
            return True
    return False


# ---------------------------------------------------------------------------
# symplectic oracles

def rational_roots_oracle(coeffs):
    """Rational roots, ascending, of a polynomial given by int or Fraction
    coefficients (leading first), by ``sympy.roots`` over Q."""
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in coeffs], x)
    return sorted(Fraction(int(root.p), int(root.q))
                  for root in sympy.roots(poly, filter="Q"))


def pencil_lines(phi):
    """Rational lines L in Q^2 with ker(mu*Phi1 - lam*Phi2) nonzero, from
    the rational roots of the pencil determinant (s = 2 only).  Returns
    None when the determinant vanishes identically (inconclusive)."""
    import sympy

    if phi.s != 2:
        raise ValueError("pencil oracle requires s = 2")
    lam = sympy.Symbol("lam")
    n = phi.n
    M = sympy.Matrix(n, n, lambda i, j:
                     sympy.Rational(str(phi.forms[0][i][j]))
                     - lam * sympy.Rational(str(phi.forms[1][i][j])))
    p = sympy.expand(M.det())
    if p == 0:
        return None
    lines = [(1, 0)]  # the line lam -> infinity, i.e. (lam0, mu0) = (1, 0)
    poly = sympy.Poly(p, lam)
    for root, _ in sympy.roots(poly, filter="Q").items():
        frac = Fraction(int(root.p), int(root.q))
        lines.append(vec_primitive_signed((frac.numerator, frac.denominator)))
    # dedupe; (1, 0) may coincide with a root line representation
    out = []
    for w in lines:
        w = vec_primitive_signed(w)
        if w not in out:
            out.append(w)
    return out


def base_exists_oracle(phi):
    """Exhaustive base existence check for s = 2, trivial radical, and a
    not-identically-zero pencil determinant.

    Any valid block is exactly W_L = {v : phi(v, V) inside L} for its image
    line L, and W_L is the kernel of the pencil member that annihilates L;
    so enumerating the rational root lines of the pencil determinant and
    testing every subset of the candidate blocks is exhaustive.
    """
    from qtdelta.lattice import matrix_rank, null_space_int
    from qtdelta.symplectic import center, image_space

    if center(phi).dim != 0:
        raise ValueError("oracle requires a trivial radical")
    lines = pencil_lines(phi)
    if lines is None:
        return None
    candidates = []
    n = phi.n
    for lam0, mu0 in lines:
        member = [[mu0 * Fraction(phi.forms[0][i][j])
                   - lam0 * Fraction(phi.forms[1][i][j])
                   for j in range(n)] for i in range(n)]
        basis = null_space_int(member, n)
        if basis:
            candidates.append(((lam0, mu0), Subspace.from_rows(n, basis)))
    for mask in range(1, 1 << len(candidates)):
        picked = [candidates[i] for i in range(len(candidates))
                  if mask & (1 << i)]
        blocks = [b for _, b in picked]
        if sum(b.dim for b in blocks) != n:
            continue
        stacked = [row for b in blocks for row in b.basis]
        if matrix_rank(stacked) != n:
            continue
        lines_of = []
        ok = True
        for b in blocks:
            img = image_space(phi, b)
            if img.dim != 1:
                ok = False
                break
            lines_of.append(vec_primitive_signed(img.basis[0]))
        if not ok:
            continue
        cand = SymplecticBase(Subspace.zero(n), tuple(blocks),
                              tuple(lines_of))
        if verify_symplectic_base(phi, cand).passed:
            return True
    return False


# ---------------------------------------------------------------------------
# seeded generators

def random_support(rng, n, size, lo=-3, hi=3):
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.randint(lo, hi) for _ in range(n)))
    return sorted(pts)


def random_laurent(rng, s):
    out = {}
    for q in random_support(rng, s, rng.randint(1, 2), lo=-2, hi=2):
        out[tuple(q)] = Fraction(rng.choice([x for x in range(-5, 6) if x]),
                                 rng.randint(1, 3))
    return out


def random_relator(rng, n, s, max_support=8):
    supp = random_support(rng, n, rng.randint(2, max_support))
    return torus.QTorusElement(n, s, {a: random_laurent(rng, s) for a in supp})


def random_cocycle(rng, n, s, bound=2):
    mats = tuple(tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                       for _ in range(n)) for _ in range(s))
    return torus.CocycleForm(n, mats)


def random_monomial(rng, n, s, bound=3):
    exp = tuple(rng.randint(-bound, bound) for _ in range(n))
    q = tuple(rng.randint(-2, 2) for _ in range(s))
    c = Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 3))
    return torus.QTorusElement.monomial(n, s, exp, coeff=c, qexp=q)


def random_character(rng, n, num=3, den=2):
    return tuple(Fraction(rng.randint(-num, num), rng.randint(1, den))
                 for _ in range(n))


def random_unimodular(rng, n, ops=12):
    G = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        kind = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            for t in range(n):
                G[j][t] += c * G[i][t]
        elif kind == 1:
            G[i], G[j] = G[j], G[i]
        else:
            G[i] = [-x for x in G[i]]
    return tuple(map(tuple, G))


def standard_j(d):
    m = [[0] * d for _ in range(d)]
    for i in range(d // 2):
        m[i][d // 2 + i] = 1
        m[d // 2 + i][i] = -1
    return m


def block_form(dims, lines, s, central=0):
    """Alternating map with one nondegenerate block per (dimension, line)
    pair and an optional central summand of zeros."""
    n = sum(dims) + central
    mats = [[[0] * n for _ in range(n)] for _ in range(s)]
    off = 0
    for d, w in zip(dims, lines):
        jd = standard_j(d)
        for k in range(s):
            for i in range(d):
                for j in range(d):
                    mats[k][off + i][off + j] += w[k] * jd[i][j]
        off += d
    return AlternatingMapQ(n, s, tuple(tuple(map(tuple, m)) for m in mats))


def conjugate_form(phi, G):
    """phi'(x, y) = phi(G x, G y)."""
    n = phi.n
    out = []
    for m in phi.forms:
        gt_m = [[sum(Fraction(G[a][i]) * m[a][b] for a in range(n))
                 for b in range(n)] for i in range(n)]
        out.append(tuple(tuple(sum(gt_m[i][b] * Fraction(G[b][j])
                                   for b in range(n)) for j in range(n))
                         for i in range(n)))
    return AlternatingMapQ(n, phi.s, tuple(out))


def conjugated_block_instance(rng, dims, lines, s, central=0, ops=12):
    """Conjugated block form plus the expected (conjugated) block spans."""
    phi0 = block_form(dims, lines, s, central)
    n = phi0.n
    G = random_unimodular(rng, n, ops)
    phi = conjugate_form(phi0, G)
    ginv = inverse_fraction(G)
    expected = []
    off = 0
    for d in dims:
        cols = [tuple(ginv[r][off + i] for r in range(n)) for i in range(d)]
        expected.append(Subspace.from_rows(n, cols))
        off += d
    return phi, expected


def distinct_lines(rng, t, s):
    lines = []
    keys = set()
    guard = 0
    while len(lines) < t:
        guard += 1
        if guard > 200:
            raise RuntimeError("could not draw distinct lines")
        w = tuple(rng.randint(-2, 2) for _ in range(s))
        if not any(w):
            continue
        key = vec_primitive_signed(w)
        if key not in keys:
            keys.add(key)
            lines.append(w)
    return lines


def affine_sublattice_points(rng, n, d, size, box=2):
    """At most ``size`` distinct points of a translate of a rank-d
    sublattice of Z^n, sorted: points of [-box, box]^d padded by zeros,
    mapped by a random unimodular matrix and translated.  The sublattice is
    in general not a coordinate subspace."""
    U = random_unimodular(rng, n)
    base = [rng.randint(-3, 3) for _ in range(n)]
    points = set()
    for _ in range(size):
        x = [rng.randint(-box, box) for _ in range(d)]
        points.add(tuple(base[i] + sum(x[k] * U[k][i] for k in range(d))
                         for i in range(n)))
    return sorted(points)


def random_saturated_sublattice(rng, n, rank):
    from qtdelta.lattice import Sublattice, saturate
    while True:
        rows = [tuple(rng.randint(-2, 2) for _ in range(n))
                for _ in range(rank)]
        lat = saturate(Sublattice.from_rows(n, rows))
        if lat.rank == rank:
            return lat
