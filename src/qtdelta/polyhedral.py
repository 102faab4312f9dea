"""Rational polyhedral cones and cone-union fans, all arithmetic exact.

A Cone carries an H-representation (equalities and inequalities) and a
V-representation (extreme rays plus a lineality basis).  The V-side is
canonical: the lineality basis comes from an RREF null-space computation and
the rays are the extreme rays of the cone intersected with the canonical
coordinate complement of the lineality, scaled to primitive integer vectors.
Two cones are equal as point sets iff they carry identical (rays, lineality)
data, which gives cheap structural equality and hashing.

Fans are plain unions of cones (no face structure is maintained):
containment-redundant cones are pruned and the rest deterministically
sorted.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import (
    Subspace,
    complement_columns,
    dot,
    matrix_rank,
    null_space_int,
    rref_int,
    vec_primitive,
    vec_primitive_signed,
)


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
    keeping only adjacent positive/negative ray pairs (combinatorial test).
    Pointedness (constraint rank equal to ``dim``) is a precondition.

    The start comes from one fraction-free ``rref_int`` of ``[A^T | I]``,
    A the constraint rows: its pivots are the first ``dim`` independent
    constraints ``sel`` and its right block is then a positive row scaling
    of ``(A_sel^T)^-1``, whose primitive rows are the rays of the
    simplicial cone, ray j tight on every selected constraint but the j-th.
    """
    if dim == 0:
        return ()
    k = len(constraints)
    rows, sel = rref_int([[a[t] for a in constraints]
                          + [int(t == j) for j in range(dim)]
                          for t in range(dim)])
    if sel[-1] >= k:
        raise ValueError("cone is not pointed")
    rays = [vec_primitive(row[k:]) for row in rows]
    processed = list(sel)
    selset = set(sel)
    for idx, a in enumerate(constraints):
        if idx in selset:
            continue
        vals = [dot(a, r) for r in rays]
        if all(v >= 0 for v in vals):
            processed.append(idx)
            continue
        act = [frozenset(j for j in processed if dot(constraints[j], r) == 0)
               for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new = [rays[i] for i in pos] + [rays[i] for i in zero]
        for p in pos:
            for q in neg:
                common = act[p] & act[q]
                if any(k != p and k != q and common <= act[k]
                       for k in range(len(rays))):
                    continue
                combo = [vals[p] * rays[q][t] - vals[q] * rays[p][t]
                         for t in range(dim)]
                new.append(vec_primitive(combo))
        processed.append(idx)
        seen = set()
        rays = [r for r in new if not (r in seen or seen.add(r))]
    return tuple(sorted(set(rays)))


def _vrep(dim, equalities, inequalities):
    """Canonical (extreme rays, lineality basis) of an H-described cone.

    The lineality is the common null space of all constraints; the pointed
    part lives in the canonical coordinate complement of the lineality, so
    the returned rays depend only on the point set.
    """
    lineality = null_space_int(list(equalities) + list(inequalities), dim)
    wcols = complement_columns(lineality, dim)
    eq_w = _norm_constraints([[a[j] for j in wcols] for a in equalities],
                             len(wcols))
    K = null_space_int(eq_w, len(wcols))
    reduced = []
    seen = set()
    for a in inequalities:
        asel = [a[j] for j in wcols]
        row = vec_primitive([dot(k, asel) for k in K])
        if any(row) and row not in seen:
            seen.add(row)
            reduced.append(row)
    urays = _dd_pointed(reduced, len(K))
    rays = []
    for u in urays:
        z = [dot(u, [k[i] for k in K]) for i in range(len(wcols))]
        x = [0] * dim
        for value, j in zip(z, wcols):
            x[j] = value
        rays.append(vec_primitive(x))
    return tuple(sorted(set(rays))), lineality


def _hrep_from_generators(dim, rays, lineality):
    """Canonical H-representation (equalities, facet inequalities) of the
    cone generated by ``rays`` and ``lineality``: the facets are the extreme
    rays of the dual cone, the equalities span the orthogonal complement of
    the span (double dualization)."""
    facet_rays, span_perp = _vrep(dim, lineality, rays)
    return span_perp, facet_rays


class Cone:
    """Closed rational polyhedral cone containing 0."""

    __slots__ = ("ambient_dim", "rays", "lineality", "_raw_eq", "_raw_ineq",
                 "_hrep", "_dim", "_hash")

    def __init__(self, ambient_dim, rays, lineality, raw_eq, raw_ineq):
        self.ambient_dim = ambient_dim
        self.rays = rays
        self.lineality = lineality
        self._raw_eq = raw_eq
        self._raw_ineq = raw_ineq
        self._hrep = None
        self._dim = None
        self._hash = None

    @classmethod
    def from_constraints(cls, ambient_dim, equalities=(), inequalities=()):
        eq = _norm_constraints(equalities, ambient_dim)
        ineq = _norm_constraints(inequalities, ambient_dim)
        rays, lineality = _vrep(ambient_dim, eq, ineq)
        cone = cls(ambient_dim, rays, lineality, eq, ineq)
        for g in list(rays) + list(lineality):
            if any(dot(e, g) != 0 for e in eq) or any(dot(a, g) < 0 for a in ineq):
                raise AssertionError("double description produced an invalid generator")
        return cone

    @classmethod
    def from_generators(cls, ambient_dim, rays=(), lineality=()):
        gens_r = _norm_constraints(rays, ambient_dim)
        gens_l = _norm_constraints(lineality, ambient_dim)
        eq, ineq = _hrep_from_generators(ambient_dim, gens_r, gens_l)
        cone = cls.from_constraints(ambient_dim, eq, ineq)
        for g in gens_r + gens_l:
            if not cone.member(g):
                raise AssertionError("generator outside reconstructed cone")
        return cone

    @classmethod
    def full(cls, ambient_dim):
        return cls.from_constraints(ambient_dim)

    @classmethod
    def origin(cls, ambient_dim):
        eye = [[1 if i == j else 0 for j in range(ambient_dim)]
               for i in range(ambient_dim)]
        return cls.from_constraints(ambient_dim, equalities=eye)

    @property
    def key(self):
        return (self.rays, self.lineality)

    def _canonical_hrep(self):
        if self._hrep is None:
            eq, ineq = _hrep_from_generators(self.ambient_dim, self.rays,
                                             self.lineality)
            for g in list(self.rays) + list(self.lineality):
                if any(dot(e, g) != 0 for e in eq) or any(dot(a, g) < 0 for a in ineq):
                    raise AssertionError("canonical H-representation mismatch")
            self._hrep = (eq, ineq)
        return self._hrep

    @property
    def equalities(self):
        return self._canonical_hrep()[0]

    @property
    def inequalities(self):
        return self._canonical_hrep()[1]

    @property
    def dim(self):
        if self._dim is None:
            self._dim = matrix_rank(list(self.rays) + list(self.lineality))
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
        small eps >= 0.  Requires ``point`` to be a member."""
        if not self.member(point):
            raise ValueError("point is not in the cone")
        active = [a for a in self._raw_ineq if dot(a, point) == 0]
        return Cone.from_constraints(self.ambient_dim, self._raw_eq, active)

    def relint_point(self):
        """Canonical rational point in the relative interior (sum of the
        extreme rays; the origin when the cone is a subspace)."""
        p = [0] * self.ambient_dim
        for r in self.rays:
            p = [a + b for a, b in zip(p, r)]
        return tuple(p)

    def span(self):
        return Subspace.from_rows(self.ambient_dim,
                                  list(self.rays) + list(self.lineality))

    def __eq__(self, other):
        return (isinstance(other, Cone)
                and self.ambient_dim == other.ambient_dim
                and self.key == other.key)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ambient_dim, self.key))
        return self._hash

    def __repr__(self):
        return (f"Cone(dim={self.ambient_dim}, rays={list(self.rays)}, "
                f"lineality={list(self.lineality)})")


class Fan:
    """Finite union of cones of a common ambient dimension."""

    __slots__ = ("ambient_dim", "cones")

    def __init__(self, ambient_dim, cones=()):
        uniq = {}
        for c in cones:
            if c.ambient_dim != ambient_dim:
                raise ValueError("cone ambient dimension mismatch")
            uniq[c.key] = c
        items = list(uniq.values())
        kept = [c for c in items
                if not any(o.key != c.key and o.contains_cone(c)
                           for o in items)]
        kept.sort(key=lambda c: c.key)
        self.ambient_dim = ambient_dim
        self.cones = tuple(kept)

    @property
    def is_empty(self):
        return not self.cones

    def member(self, point):
        return any(c.member(point) for c in self.cones)

    def __eq__(self, other):
        return (isinstance(other, Fan)
                and self.ambient_dim == other.ambient_dim
                and tuple(c.key for c in self.cones)
                == tuple(c.key for c in other.cones))

    def __hash__(self):
        return hash((self.ambient_dim, tuple(c.key for c in self.cones)))

    def __repr__(self):
        return f"Fan(dim={self.ambient_dim}, cones={len(self.cones)})"


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


def preimage(fan, matrix, domain_dim=None):
    """Pull a fan back along the linear map y -> matrix . y.

    ``matrix`` has ``fan.ambient_dim`` rows; a constraint vector a of a cone
    pulls back to the vector a . matrix on the domain.
    """
    rows = [tuple(r) for r in matrix]
    if len(rows) != fan.ambient_dim:
        raise ValueError("matrix rows must match fan ambient dimension")
    if rows:
        dims = {len(r) for r in rows}
        if len(dims) != 1:
            raise ValueError("ragged matrix")
        d = dims.pop()
        if domain_dim is not None and domain_dim != d:
            raise ValueError("domain dimension mismatch")
    elif domain_dim is None:
        raise ValueError("domain dimension required for an empty matrix")
    else:
        d = domain_dim

    def pull(a):
        return tuple(sum(Fraction(a[i]) * rows[i][j] for i in range(len(rows)))
                     for j in range(d))

    cones = [Cone.from_constraints(d, [pull(e) for e in c._raw_eq],
                                   [pull(a) for a in c._raw_ineq])
             for c in fan.cones]
    return Fan(d, cones)


def delta_star(fan):
    """Union of the cones of maximal dimension (for a fan of cones this is
    the closure of the set of regular points)."""
    if fan.is_empty:
        return fan
    top = fan_dim(fan)
    return Fan(fan.ambient_dim, [c for c in fan.cones if c.dim == top])


def carrier_spaces(fan):
    """Deduplicated linear spans of the maximal-dimension cones."""
    if fan.is_empty:
        return []
    top = fan_dim(fan)
    spans = {}
    for c in fan.cones:
        if c.dim == top:
            s = c.span()
            spans[s.basis] = s
    return [spans[k] for k in sorted(spans)]


def _relint_of_closure(dim, eqs, closed):
    """Relative-interior point (sum of extreme rays) and V-data of the cone
    {eqs = 0, closed >= 0}."""
    rays, lin = _vrep(dim, eqs, closed)
    p = [0] * dim
    for r in rays:
        p = [a + b for a, b in zip(p, r)]
    return tuple(p), rays, lin


def _cells(fan, hyperplanes):
    """One exact rational relative-interior point per relatively open cell
    of the hyperplane arrangement covering the fan.

    Each cone of the fan is a disjoint union of such cells because all of
    its bounding hyperplanes belong to ``hyperplanes``; any other fan built
    from the same hyperplane family contains either all of a cell or none
    of it, so a single interior point decides the whole cell.
    """
    n = fan.ambient_dim
    reps = {}
    for cone in fan.cones:
        base_closed = list(cone.inequalities)
        # region = (equalities, stricts, signature, closure rays)
        regions = [(list(cone.equalities), [], (), list(cone.rays),
                    list(cone.lineality))]
        for h in hyperplanes:
            next_regions = []
            for eqs, stricts, sig, rays, lin in regions:
                rvals = [dot(h, g) for g in rays]
                lvals = [dot(h, g) for g in lin]
                if not any(rvals) and not any(lvals):
                    next_regions.append((eqs + [h], stricts, sig + (0,),
                                         rays, lin))
                    continue
                # a nonzero value on a lineality vector puts points of the
                # closure strictly on both sides of the hyperplane
                candidates = [(0, eqs + [h], stricts)]
                if any(v > 0 for v in rvals) or any(lvals):
                    candidates.append((1, eqs, stricts + [h]))
                if any(v < 0 for v in rvals) or any(lvals):
                    candidates.append((-1, eqs,
                                       stricts + [tuple(-x for x in h)]))
                for sign, new_eqs, new_stricts in candidates:
                    p, c_rays, c_lin = _relint_of_closure(
                        n, new_eqs, base_closed + new_stricts)
                    if all(dot(s, p) > 0 for s in new_stricts):
                        next_regions.append((new_eqs, new_stricts,
                                             sig + (sign,), list(c_rays),
                                             list(c_lin)))
            regions = next_regions
        for eqs, stricts, sig, rays, lin in regions:
            if sig not in reps:
                p = [0] * n
                for r in rays:
                    p = [a + b for a, b in zip(p, r)]
                reps[sig] = tuple(p)
    return list(reps.values())


def fan_equal(f1, f2):
    """Exact equality of the underlying point sets of two fans.

    Fast paths: identical canonical cone sets, then a generator-membership
    witness search.  The full decision collects all bounding hyperplanes of
    both fans, refines each fan into relatively open cells of the induced
    arrangement and compares the cell sets through exact rational
    relative-interior representatives.
    """
    if f1.ambient_dim != f2.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if {c.key for c in f1.cones} == {c.key for c in f2.cones}:
        return True
    for a, b in ((f1, f2), (f2, f1)):
        for c in a.cones:
            for g in list(c.rays) + list(c.lineality):
                if not b.member(g):
                    return False
            for g in c.lineality:
                if not b.member([-x for x in g]):
                    return False
    hyperplanes = set()
    for f in (f1, f2):
        for c in f.cones:
            for e in c.equalities:
                hyperplanes.add(vec_primitive_signed(e))
            for a in c.inequalities:
                hyperplanes.add(vec_primitive_signed(a))
    hyperplanes = sorted(hyperplanes)
    if not all(f2.member(p) for p in _cells(f1, hyperplanes)):
        return False
    return all(f1.member(p) for p in _cells(f2, hyperplanes))
