"""Rational polyhedral cones and cone-union fans, all arithmetic exact.

A Cone carries an H-representation, the raw rows (equalities and
inequalities) it was cut out by, which ``member``, ``tangent_cone``,
``preimage`` and the covering test read, and a V-representation (extreme
rays plus a lineality basis).  The V-side is canonical: the lineality
basis comes from an RREF null-space computation and the rays are the
extreme rays of the cone intersected with the canonical coordinate
complement of the lineality, scaled to primitive integer vectors.
Two cones are equal as point sets iff they carry identical (rays, lineality)
data, which gives cheap structural equality and hashing.  The tie cones of
the edges of a polytope (``edge_normal_fan``) share one lineality and read
their rays off its facets, found by one double description in the
complement of that lineality.  The facets are checked, and their point
incidence read, by evaluating each facet and each normal on every point at
once: the points' coordinates are packed into the biased slots of one int
per column, wide enough that no slot carries, so the sign and the zero
test of every slot are exact.  A segment's one tie cone is the hyperplane
orthogonal to it, with no rays, so it takes no double description.  A
tangent cone reads its rays off the cone's own; every other cone takes one
double description.

Fans are plain unions of cones (no face structure is maintained):
containment-redundant cones are pruned and the rest deterministically
sorted.  ``Fan.irredundant`` skips the prune for cone lists that have no
redundant cone by construction.  A Fan is a record (``_record.Record``);
a Cone is the one value type that is not, because its equality is that of
its point set, the canonical (rays, lineality) key, while its raw rows may
differ.  A Cone is frozen all the same: only this module fills its ``_dim``
slot, on first read or, for the edge cones ``edge_normal_fan`` builds, with
the dimension it already knows, which saves one rank per edge cone.
``fan_equal`` compares point sets: equal canonical cone sets, or each fan
covered by the other, which one point per top-dimensional cell decides
once the hyperplanes of the other fan's raw rows cut a cone.  The
canonical H-representation (equalities and facets) is computed only where
a cone is written, by ``Cone.canonical_hrep``, which reads the facets off
the raw rows by the rule that picks a tangent cone's rays, with no double
description.
"""

from __future__ import annotations

from operator import mul

from ._record import Record, _set
from .lattice import (
    Subspace,
    _primitive,
    complement_columns,
    dot,
    lift_columns,
    matrix_rank,
    null_space_int,
    row_times,
    rref,
    vec_primitive,
    vec_primitive_signed,
)

__all__ = ["Cone", "Fan", "carrier_spaces", "delta_star", "fan_dim",
           "fan_equal", "local_cone", "preimage"]


def _norm_constraints(vectors, dim):
    out = []
    seen = set()
    for v in vectors:
        if len(v) != dim:
            raise ValueError("constraint of wrong dimension")
        p = vec_primitive(v)
        if any(p) and p not in seen:
            seen.add(p)
            out.append(p)
    return tuple(out)


def _dd_pointed(constraints, dim):
    """Extreme rays of the pointed cone {z in Q^dim : a.z >= 0 for all a}.

    Incremental double description: start from a simplicial cone cut out by
    ``dim`` independent constraints, then clip with the remaining ones,
    keeping only adjacent positive/negative ray pairs (combinatorial test:
    no third ray is tight on every constraint the pair shares).
    Pointedness (constraint rank equal to ``dim``) is a precondition.

    The start comes from one fraction-free ``rref`` of ``[A^T | I]``,
    A the constraint rows: its pivots are the first ``dim`` independent
    constraints ``sel`` and its right block is then a positive row scaling
    of ``(A_sel^T)^-1``, whose primitive rows are the rays of the
    simplicial cone, ray j tight on every selected constraint but the j-th.

    Each ray carries its tight set over the constraints used so far as an
    int bitmask: a kept ray gains the new bit when tight on the new
    constraint, and a ray built from an adjacent pair (p, q) is tight where
    both are, plus the new constraint.  Adjacent rays span a 2-face, tight
    on constraints of rank dim - 2, so a pair sharing fewer is rejected
    before the scan.  No ray repeats: a new ray lies inside the 2-face its
    pair spans, which no other pair spans and which holds no kept ray.
    """
    if dim == 0:
        return ()
    k = len(constraints)
    rows, sel = rref([[a[t] for a in constraints]
                      + [int(t == j) for j in range(dim)]
                      for t in range(dim)])
    if sel[-1] >= k:
        raise ValueError("cone is not pointed")
    rays = [tuple(_primitive(row[k:])) for row in rows]
    start = sum(1 << i for i in sel)
    masks = [start ^ (1 << i) for i in sel]
    selset = set(sel)
    for idx, a in enumerate(constraints):
        if idx in selset:
            continue
        bit = 1 << idx
        new, new_masks, pos, neg = [], [], [], []
        for r, m in zip(rays, masks):
            v = sum(map(mul, a, r))
            if v >= 0:
                new.append(r)
                new_masks.append(m if v else m | bit)
            if v:
                (pos if v > 0 else neg).append((r, m, v))
        for rp, mp, vp in pos:
            for rq, mq, vq in neg:
                common = mp & mq
                # adjacent iff no ray but p and q is tight on all of common
                if (common.bit_count() >= dim - 2
                        and [m & common for m in masks].count(common) == 2):
                    new.append(tuple(_primitive(
                        [vp * y - vq * x for x, y in zip(rp, rq)])))
                    new_masks.append(common | bit)
        rays, masks = new, new_masks
    return tuple(sorted(rays))


def _vrep(dim, equalities, inequalities):
    """Canonical (extreme rays, lineality basis) of an H-described cone.

    The lineality is the common null space of all constraints; the pointed
    part lives in the canonical coordinate complement W of the lineality,
    so the returned rays depend only on the point set.  On W the
    constraints have full rank, so one double description over the
    inequalities and each equality as the pair +-e gives the rays.
    """
    lineality = null_space_int(list(equalities) + list(inequalities), dim)
    wcols = complement_columns(lineality, dim)
    eq_w = [[a[j] for j in wcols] for a in equalities]
    constraints = _norm_constraints(
        eq_w + [[-x for x in e] for e in eq_w]
        + [[a[j] for j in wcols] for a in inequalities], len(wcols))
    return tuple(lift_columns(u, wcols, dim)
                 for u in _dd_pointed(constraints, len(wcols))), lineality


def _ray_sum(dim, rays):
    """Sum of the extreme rays: a relative-interior point of the cone they
    span with any lineality (the origin when there are no rays)."""
    return tuple(map(sum, zip(*rays))) if rays else (0,) * dim


def _into_complement(vector, rows, pivots):
    """Primitive positive multiple of the vector plus a lineality vector,
    zero on the pivots of the lineality's fraction-free RREF (rows, pivots)."""
    r = vec_primitive(vector)
    for row, c in zip(rows, pivots):
        if r[c]:
            r = [row[c] * x - r[c] * y for x, y in zip(r, row)]
    return vec_primitive(r)


def _extreme_generators(generators, rows, lineality):
    """The extreme rays of K = cone(generators) + span(lineality), each
    moved into the complement of the lineality, deduplicated and sorted.

    The rows vanish on the lineality and, with equalities that vanish on
    every generator, cut out K, so each face of K is cut out by a set of
    rows (Ziegler, Lectures on Polytopes, Lecture 2).  A generator tight
    on every row lies in the lineality; any other spans an extreme ray iff
    no other generator, distinct modulo the lineality, is tight on every
    row it is tight on.
    """
    rows_l, pivots = rref(lineality)
    full = (1 << len(rows)) - 1
    candidates = {}
    for g in generators:
        mask = sum(1 << i for i, a in enumerate(rows) if not dot(a, g))
        if mask != full:
            candidates[_into_complement(g, rows_l, pivots)] = mask
    return tuple(sorted(
        r for r, m in candidates.items()
        if not any(o is not r and n & m == m
                   for o, n in candidates.items())))


def _check_generators(generators, equalities, inequalities):
    for g in generators:
        if (any(dot(e, g) != 0 for e in equalities)
                or any(dot(a, g) < 0 for a in inequalities)):
            raise AssertionError("a generator violates a constraint")


class Cone:
    """Closed rational polyhedral cone containing 0.  Immutable: assigning
    or deleting an attribute raises AttributeError, as on a record; only
    this module fills the ``_dim`` cache, through ``_set``."""

    __slots__ = ("ambient_dim", "rays", "lineality", "_raw_eq", "_raw_ineq",
                 "_dim")

    def __init__(self, ambient_dim, rays, lineality, raw_eq, raw_ineq):
        _set(self, "ambient_dim", ambient_dim)
        _set(self, "rays", rays)
        _set(self, "lineality", lineality)
        _set(self, "_raw_eq", raw_eq)
        _set(self, "_raw_ineq", raw_ineq)
        _set(self, "_dim", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cone is immutable")

    def __delattr__(self, name):
        raise AttributeError("Cone is immutable")

    @classmethod
    def from_constraints(cls, ambient_dim, equalities=(), inequalities=()):
        """The cone cut out by the constraints (one double description)."""
        eq = _norm_constraints(equalities, ambient_dim)
        ineq = _norm_constraints(inequalities, ambient_dim)
        rays, lineality = _vrep(ambient_dim, eq, ineq)
        _check_generators(rays + lineality, eq, ineq)
        return cls(ambient_dim, rays, lineality, eq, ineq)

    @property
    def key(self):
        return (self.rays, self.lineality)

    def canonical_hrep(self):
        """(equalities, facets), a function of the point set alone: the
        lineality and the extreme rays of the dual cone, which the raw
        inequalities generate and the rays cut out, with no double
        description."""
        eq = null_space_int(self.rays + self.lineality, self.ambient_dim)
        facets = _extreme_generators(self._raw_ineq, self.rays, eq)
        _check_generators(self.rays + self.lineality, eq, facets)
        return eq, facets

    @property
    def dim(self):
        if self._dim is None:
            _set(self, "_dim",
                 matrix_rank(list(self.rays) + list(self.lineality)))
        return self._dim

    def member(self, point):
        if len(point) != self.ambient_dim:
            raise ValueError("dimension mismatch")
        return (all(dot(e, point) == 0 for e in self._raw_eq)
                and all(dot(a, point) >= 0 for a in self._raw_ineq))

    def contains_cone(self, other):
        return all(self.member(g)
                   for g in list(other.rays) + list(other.lineality)) \
            and all(self.member([-x for x in g]) for g in other.lineality)

    def tangent_cone(self, point):
        """Cone of directions y such that point + eps*y stays inside for all
        small eps >= 0.  Requires ``point`` to be a member.  Its rays are
        read off the cone's own, with no double description."""
        if not self.member(point):
            raise ValueError("point is not in the cone")
        active = tuple(a for a in self._raw_ineq if dot(a, point) == 0)
        # It is C + span(F), F the face of C cut out by the active rows: its
        # lineality is the kernel of the raw equalities and active rows, and
        # C's rays generate it with that lineality.
        lineality = null_space_int(self._raw_eq + active, self.ambient_dim)
        rays = _extreme_generators(self.rays, active, lineality)
        _check_generators(rays + lineality, self._raw_eq, active)
        return Cone(self.ambient_dim, rays, lineality, self._raw_eq, active)

    def relint_point(self):
        """Canonical rational point in the relative interior (sum of the
        extreme rays; the origin when the cone is a subspace)."""
        return _ray_sum(self.ambient_dim, self.rays)

    def span(self):
        return Subspace.from_rows(self.ambient_dim,
                                  list(self.rays) + list(self.lineality))

    def __eq__(self, other):
        return (isinstance(other, Cone)
                and self.ambient_dim == other.ambient_dim
                and self.key == other.key)

    def __hash__(self):
        return hash((self.ambient_dim, self.key))

    def __repr__(self):
        return (f"Cone(dim={self.ambient_dim}, rays={list(self.rays)}, "
                f"lineality={list(self.lineality)})")


def _sorted_unique(ambient_dim, cones):
    """The cones with duplicates dropped, sorted by canonical key."""
    uniq = {}
    for c in cones:
        if c.ambient_dim != ambient_dim:
            raise ValueError("cone ambient dimension mismatch")
        uniq[c.key] = c
    return tuple(uniq[k] for k in sorted(uniq))


class Fan(Record):
    """Finite union of cones of a common ambient dimension."""

    ambient_dim: int
    cones: tuple

    def __init__(self, ambient_dim, cones=()):
        items = _sorted_unique(ambient_dim, cones)
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "cones", tuple(
            c for c in items
            if not any(o is not c and o.contains_cone(c) for o in items)))

    @classmethod
    def irredundant(cls, ambient_dim, cones):
        """Fan of cones none of which contains another (say, cones of one
        dimension from a polyhedral fan, or a subset of a Fan's cones):
        duplicates are dropped and the rest sorted, without the quadratic
        containment prune of the constructor."""
        return cls._trusted(ambient_dim, _sorted_unique(ambient_dim, cones))

    @property
    def is_empty(self):
        return not self.cones

    def member(self, point):
        return any(c.member(point) for c in self.cones)

    def __repr__(self):
        return f"Fan(dim={self.ambient_dim}, cones={len(self.cones)})"


def _bits(mask):
    """The indices of the set bits of an int bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _packed_zeros(row, packed, high, low):
    """The zero slots of row . packed as a mask of their top bits, or None
    when a slot is negative.

    ``packed[t]`` holds column t of a matrix, entry i in slot i, the bits
    iB to iB + B - 1, and ``high`` the top bit of every slot.  Each value v
    of the row on a matrix row must lie in (-2^(B-1), 2^(B-1)).  Adding
    ``high`` puts v + 2^(B-1), in [0, 2^B), in its slot with no carry or
    borrow, so that slot's top bit is set iff v >= 0.  When every slot's is,
    x ^ high holds each v in its slot, and adding ``low`` = 2^(B-1) - 1 per
    slot sets the top bit iff v > 0, again with no carry (Lamport, "Multiple
    byte processing with full-word instructions", CACM 18(8), 1975).
    """
    x = sum(map(mul, row, packed)) + high
    if x & high != high:
        return None
    return high & ~((x ^ high) + low)


def edge_normal_fan(dim, points):
    """Tie cones {chi : chi(u) = chi(v) <= chi(w), w in points} of the edges
    [u, v] of conv(points), pairwise distinct and all of dimension dim - 1,
    so none contains another.

    One double description over the (1, p_W), W the columns off the
    pivots of the lineality's RREF, gives the facets (f0, f), f0 + f.p >= 0,
    of conv(points), and ``on[b]``, the bitmask of the points tight on facet
    b, which one packed evaluation per facet gives (``_packed_zeros``).
    The points tight on every facet of a set are the AND of their
    columns.  A point is a vertex iff that AND over its facets is
    the point alone, and two vertices span an edge iff the AND over the
    facets they share holds no third vertex (the smallest face holding both
    is the intersection of those facets).  The inner normals f of the shared
    facets are the rays of the edge's tie cone modulo its lineality, the
    characters constant on the points, which all edges share.  So one check
    per fan covers every edge cone: a canonical normal r minimal exactly on
    its facet has r.(u - v) = 0 and r.(w - u) = r.w - min >= 0 for each edge
    [u, v] on that facet.  The cone at u is cut out by the rows w - u of u's
    neighbours w in the edge graph alone: a vertex minimal among its
    neighbours is minimal on the polytope (Ziegler, Lectures on Polytopes,
    Lecture 3).  Each edge's primitive direction is computed once and gives
    its equality and the rows at both of its ends.

    When the lineality has dimension dim - 1, conv(points) is a segment
    [u, v], u before v in input order, its ends the points extreme along
    any nonzero difference.  Its one edge cone is the hyperplane
    (u - v)^perp: the lineality, no rays, and the row v - u of u's one
    neighbour.  That is what the general path builds, so it is returned
    with no double description.  Every binomial has such a Delta set
    (Maclagan and Sturmfels, Introduction to Tropical Geometry, Section
    3.1), and so does the initial form at a character in the relative
    interior of a top cone of Delta.
    """
    if len(points) < 2:  # no edge
        return Fan.irredundant(dim, ())
    diffs = [tuple(a - b for a, b in zip(p, points[0])) for p in points[1:]]
    lineality = null_space_int(diffs, dim)
    _check_generators(lineality, diffs, ())
    if len(lineality) == dim - 1:
        # a segment: its ends are extreme along any nonzero difference
        d = next(x for x in diffs if any(x))
        values = [sum(map(mul, d, p)) for p in points]
        i, j = sorted((values.index(min(values)), values.index(max(values))))
        e = vec_primitive([a - b for a, b in zip(points[i], points[j])])
        cone = Cone(dim, (), lineality, (e,), (tuple([-x for x in e]),))
        _set(cone, "_dim", dim - 1)
        return Fan.irredundant(dim, (cone,))
    rows, pivots = rref(lineality)
    # W is a column basis of the differences, so the rows (1, p_W), distinct
    # and primitive, have full rank, and each facet of their cone, lifted by
    # zeros off W, is a facet of the cone over the (1, p).
    cols = [0] + [j + 1 for j in range(dim) if j not in pivots]
    hull = [(1,) + tuple([p[j - 1] for j in cols[1:]]) for p in points]
    facets = _dd_pointed(hull, len(cols))
    normals = [_into_complement(lift_columns(f, cols, dim + 1)[1:], rows,
                                pivots) for f in facets]
    # the normals vanish on the pivots: each is a row over the hull's
    # columns, 0 on the column of ones
    normals_w = [(0,) + tuple([r[j - 1] for j in cols[1:]]) for r in normals]
    # The incidence is recomputed, not read off the double description,
    # because this pass is also the check of the facets.  Column t of the
    # hull is packed into one int, slot i of width B holding the entry of
    # point i, so a row c over the columns takes the value c.(1, p) of every
    # point p in |W| + 1 multiply-adds (_packed_zeros).  With K the largest
    # |c_0| and sum |c_t| max|p_t| over t >= 1 among the facets and normals,
    # every value of a facet or of a normal rebased at a point lies in
    # [-2K, 2K], and 2K < 2^(B - 1) for B = bitlength(K) + 2.
    columns = list(zip(*hull))
    sizes = [0] + [max(map(abs, column)) for column in columns[1:]]
    bound = max(max(abs(c[0]), sum(map(mul, map(abs, c), sizes)))
                for c in [*facets, *normals_w])
    width = bound.bit_length() + 2
    ones = sum(1 << (i * width) for i in range(len(points)))
    high = ones << (width - 1)
    low = high - ones
    packed = [sum(x << (i * width) for i, x in enumerate(column))
              for column in columns]
    on = []
    tight = [0] * len(points)
    meet = [(1 << len(points)) - 1] * len(points)
    for b, (f, r) in enumerate(zip(facets, normals_w)):
        zeros = _packed_zeros(f, packed, high, low)
        if zeros is None:
            raise AssertionError("facet inequality cuts off a point")
        points_on = [k // width for k in _bits(zeros)]
        # r is minimal exactly on the facet iff r.(p - z) >= 0 for every
        # point p, with equality on the facet's points alone, z the first
        if not points_on or _packed_zeros(
                (-dot(r, hull[points_on[0]]),) + r[1:], packed, high,
                low) != zeros:
            raise AssertionError("facet normal not minimal on its facet")
        mask = sum([1 << i for i in points_on])
        on.append(mask)
        for i in points_on:
            tight[i] |= 1 << b
            meet[i] &= mask
    vmask = sum(1 << i for i, m in enumerate(meet) if m == 1 << i)
    vertices = list(_bits(vmask))
    # an edge is a 2-face of the cone over the (1, p), on facets of rank
    # one less than the polytope's dimension.  The primitive direction d of
    # an edge [u, v], u first, gives its equality -d, the row v - u = d of
    # u's neighbour v and the row u - v = -d of v's neighbour u; each vertex
    # gets its rows in ascending order of the neighbour.
    need = dim - len(lineality) - 1
    edges = []
    steps = [[] for _ in points]
    for x, i in enumerate(vertices):
        for j in vertices[x + 1:]:
            common = tight[i] & tight[j]
            if common.bit_count() < need:
                continue
            pts = vmask
            for b in _bits(common):
                pts &= on[b]
            if pts == (1 << i) | (1 << j):
                d = vec_primitive([q - p for p, q in zip(points[i],
                                                         points[j])])
                back = tuple([-y for y in d])
                steps[i].append(d)
                steps[j].append(back)
                edges.append((i, back, common))
    # The rows w - u, w a neighbour of u, are shared by the edges [u, v] to
    # later vertices v: v - u >= 0 is implied by the equality u - v = 0.
    ineq = {i: tuple(steps[i]) for i, _, _ in edges}
    cones = []
    for i, eq, common in edges:
        rays = tuple(sorted(normals[b] for b in _bits(common)))
        cone = Cone(dim, rays, lineality, (eq,), ineq[i])
        _set(cone, "_dim", dim - 1)  # known, so no rank is computed for it
        cones.append(cone)
    return Fan.irredundant(dim, cones)


def fan_dim(fan):
    """Dimension of the underlying point set; -1 for the empty fan."""
    if fan.is_empty:
        return -1
    return max(c.dim for c in fan.cones)


def local_cone(fan, point):
    """Union of tangent cones at ``point`` over the cones containing it.

    Empty fan when the point lies outside the fan (the direction set
    {y : point + eps*y inside for all small eps >= 0} is then empty).
    """
    if len(point) != fan.ambient_dim:
        raise ValueError("dimension mismatch")
    tangents = [c.tangent_cone(point) for c in fan.cones if c.member(point)]
    return Fan(fan.ambient_dim, tangents)


def preimage(fan, matrix, domain_dim):
    """Pull a fan back along the linear map y -> matrix . y from Q^domain_dim.

    ``matrix`` has ``fan.ambient_dim`` rows of length ``domain_dim``; a
    constraint vector a of a cone pulls back to the vector a . matrix.
    """
    rows = [tuple(r) for r in matrix]
    if len(rows) != fan.ambient_dim:
        raise ValueError("matrix rows must match fan ambient dimension")
    if any(len(r) != domain_dim for r in rows):
        raise ValueError("matrix rows must have length domain_dim")

    cones = [Cone.from_constraints(domain_dim,
                                   [row_times(e, rows) for e in c._raw_eq],
                                   [row_times(a, rows) for a in c._raw_ineq])
             for c in fan.cones]
    return Fan(domain_dim, cones)


def delta_star(fan):
    """Union of the cones of maximal dimension (for a fan of cones this is
    the closure of the set of regular points).  A subset of a Fan's cones
    is irredundant, so no containment prune runs."""
    top = fan_dim(fan)
    return Fan.irredundant(fan.ambient_dim,
                           [c for c in fan.cones if c.dim == top])


def carrier_spaces(fan):
    """Deduplicated linear spans of the maximal-dimension cones."""
    top = fan_dim(fan)
    spans = {}
    for c in fan.cones:
        if c.dim == top:
            s = c.span()
            spans[s.basis] = s
    return [spans[k] for k in sorted(spans)]


def _uncovered(fan, other):
    """A rational point of ``fan`` outside ``other``, or None when ``other``
    covers ``fan``.

    Each cone C of ``fan`` is cut by the hyperplanes of the raw rows of
    ``other`` only, and a region is split only where a hyperplane takes
    both signs on it (on a ray of its closure, or on a lineality vector).
    Every final region is a cell of the dimension of C on whose relative
    interior each hyperplane has one sign; the raw rows of a cone of
    ``other`` cut out its point set, so the cone either holds the cell or
    misses its relative interior, and the cell's ray sum decides which.
    The cells cover C and ``other`` is closed, so C is covered iff every
    cell is.
    """
    n = fan.ambient_dim
    hyperplanes = sorted({vec_primitive_signed(a) for c in other.cones
                          for a in c._raw_eq + c._raw_ineq})
    for cone in fan.cones:
        regions = [(cone._raw_ineq, cone.rays, cone.lineality)]
        for h in hyperplanes:
            cut = []
            for region in regions:
                ineq, rays, lin = region
                values = [dot(h, g) for g in rays]
                if not (any(dot(h, g) for g in lin)
                        or max(values, default=0) > 0 > min(values, default=0)):
                    cut.append(region)
                    continue
                for half in (h, tuple(-x for x in h)):
                    halves = ineq + (half,)
                    cut.append((halves,) + _vrep(n, cone._raw_eq, halves))
            regions = cut
        for _, rays, _ in regions:
            point = _ray_sum(n, rays)
            if not other.member(point):
                return point
    return None


def fan_equal(f1, f2):
    """Exact equality of the underlying point sets of two fans: identical
    canonical cone sets, or each fan covered by the other."""
    if f1.ambient_dim != f2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return f1 == f2 or (_uncovered(f1, f2) is None
                        and _uncovered(f2, f1) is None)
