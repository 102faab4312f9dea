"""Delta-set fans of cyclic one-relator modules and their local structure.

For a relator r with support S in Z^n, the Delta set is the tropical locus
of characters whose minimum over S is attained at least twice:

    Delta = union over pairs a != b in S of
            {chi : chi(a) = chi(b) <= chi(c) for all c in S}.

That is the tropical hypersurface of r with trivial valuation, so its
maximal cones are the tie cones of the edges of the Newton polytope
conv(S), and ``polyhedral.edge_normal_fan`` computes the fan that way, once
per module object, from the facets of conv(S): one double description in
the complement of the characters constant on S.  When conv(S) is a segment
[u, v] (a binomial, or the initial form at a character inside a top cone
of Delta) the fan is the one hyperplane (u - v)^perp, built with no
double description.

The initial form of r at a rational character chi keeps the chi-minimal
terms, normalizes them into the kernel lattice B of chi, and generates the
one-relator module over B whose Delta set describes the local cone of the
ambient Delta set at chi.  The checkers in this module verify that identity,
the dimension identity and the induced-module law on concrete instances.

``check_lemma31`` computes its two sides independently.  The local cone
comes from the membership of chi in the cones of the module's Delta fan.
The pullback comes from the count of chi-minimal support points: when chi
attains its minimum over S only once, chi is off the Delta set, the
initial form is a single term, and its Delta set and that set's pullback
are empty, so no initial form is built.  An empty local cone never
decides the pullback side, or the check would compare a fan with itself.
``tc_delta`` and ``check_induced`` still build the initial form: the first
returns a fan in the coordinates of the kernel lattice, and in the second
both sides would come from the one count, which would make it vacuous.

Every question asked of chi here (membership, tangent cones, the
chi-minimal face, ker chi) depends only on its positive ray, so the
checkers pass ``Character.ray``, the primitive integer vector on that ray,
down to ``polyhedral`` and ``lattice``; reports print chi as given.  For
the same reason ``initial_form`` is computed once per module object and
ray: the local-cone, dimension, trailing-coefficient and induced checkers
at one chi share one ``InitialFormResult`` and its Delta fan.  Like the
Delta fan, that cache lives on the object, so equal modules never share it.

Input is validated at the boundary: ``Character``, ``OneRelatorModule``
and the public constructors of ``torus`` check what a caller hands them.
Values this module builds from data it has just computed (the trimmed
relator, coordinates in a lattice basis, the initial form, the module
inside a sublattice) go through the private constructor
``Record._trusted``, which checks nothing.
"""

from __future__ import annotations

from functools import cached_property

from . import polyhedral, torus
from ._record import Record
from .lattice import (
    Sublattice,
    Subspace,
    as_rational,
    dot,
    kernel_lattice,
    row_times,
    saturate,
    vec_primitive,
)
from .polyhedral import Fan
from .rng import derive, rational

__all__ = ["Character", "OneRelatorModule", "check_dim_identity",
           "check_induced", "check_lemma31", "delta_set", "generic_for",
           "initial_form", "sample_delta_point", "tc_delta"]


class Character(Record):
    """Rational point of Hom(A, R) for A = Z^n.

    ``coords`` are kept as given; ``ray`` is the primitive integer vector
    on the same positive ray, which is all the Delta layer reads."""

    coords: tuple

    def _post_init(self):
        object.__setattr__(self, "coords",
                           tuple(as_rational(x) for x in self.coords))

    @staticmethod
    def zero(n):
        return Character((0,) * n)

    @property
    def n(self):
        return len(self.coords)

    @property
    def is_zero(self):
        return not any(self.coords)

    @cached_property
    def ray(self):
        return vec_primitive(self.coords)

    @property
    def rank(self):
        """Rank of the image in Q: one unless the character is zero."""
        return 0 if self.is_zero else 1


class OneRelatorModule(Record):
    """Cyclic module presented by a single nonzero relator."""

    relator: torus.QTorusElement
    cocycle: torus.CocycleForm

    def _post_init(self):
        if self.relator.is_zero:
            raise ValueError("relator must be nonzero")
        if self.relator.rank != self.cocycle.rank:
            raise ValueError("relator and cocycle rank mismatch")

    @property
    def rank(self):
        return self.relator.rank

    @cached_property
    def _delta_fan(self):
        # stored in the instance dict: one fan per object, never shared by
        # equal modules
        return polyhedral.edge_normal_fan(self.rank, self.relator.support)

    @cached_property
    def _initial_forms(self):
        # initial_form's results by character ray, per object like the fan
        return {}


def delta_set(module: OneRelatorModule) -> Fan:
    """Delta set of the module: the union over pairs a != b of the relator
    support S of the tie cones {chi : chi(a) = chi(b) <= chi(c), c in S},
    as a fan without redundant cones.

    Computed as the normal cones of the edges of conv(S), once per module
    object; later calls on the same object return the same Fan."""
    return module._delta_fan


class InitialFormResult(OneRelatorModule):
    """The initial form as a one-relator module over B = saturate(ker chi):
    relator and cocycle are in the coordinates of ``kernel.basis``."""

    kernel: Sublattice


def _in_coordinates(element, lattice):
    """The element with each support point written in the coordinates of
    the lattice's basis; None when a support point lies outside it."""
    terms = {}
    for a, coeff in element._terms.items():
        coords = lattice.coordinates(a)
        if coords is None:
            return None
        terms[coords] = coeff
    return torus.QTorusElement._trusted(lattice.rank, element.s, terms)


def initial_form(module: OneRelatorModule, chi: Character) -> InitialFormResult:
    """Chi-minimal part of the relator, moved into the kernel lattice of chi.

    The minimizing terms are left-multiplied by the inverse of the monomial
    at the lexicographically least minimizing support point (so the twist
    acts on the coefficients exactly) and re-expressed in the coordinates of
    the canonical basis of B = saturate(ker chi).

    The result depends on chi only through its ray, so it is computed once
    per module object and ray; later calls return the same object.
    """
    if chi.n != module.rank:
        raise ValueError("character of wrong length")
    ray = chi.ray
    init = module._initial_forms.get(ray)
    if init is None:
        init = _initial_form(module, ray,
                             _minimal_support(module.relator, ray))
    return init


def _minimal_support(relator, ray):
    """The support points of the relator at which the ray is minimal."""
    values = {a: dot(ray, a) for a in relator._terms}
    minimum = min(values.values())
    return [a for a, v in values.items() if v == minimum]


def _initial_form(module, ray, min_support):
    """``initial_form`` at the ray, given its minimal support points; the
    result goes into the module's cache."""
    r = module.relator
    trimmed = torus.QTorusElement._trusted(
        r.rank, r.s, {a: r._terms[a] for a in min_support})
    inverse = torus.monomial_inverse(min(min_support), r.s, module.cocycle)
    shifted = torus.multiply(inverse, trimmed, module.cocycle)
    B = kernel_lattice([ray], module.rank)
    restricted = _in_coordinates(shifted, B)
    if restricted is None:
        raise AssertionError("initial form support escaped the kernel lattice")
    result = module._initial_forms[ray] = InitialFormResult._trusted(
        restricted, module.cocycle.restrict(B), B)
    return result


def tc_delta(module: OneRelatorModule, chi: Character) -> Fan:
    """Delta set of the trailing-coefficient module at chi, inside the dual
    of the kernel lattice; empty exactly when chi is outside the Delta set."""
    return delta_set(initial_form(module, chi))


class LocalConeReport(Record):
    chi: Character
    lhs: Fan
    rhs: Fan
    equal: bool


def check_lemma31(module: OneRelatorModule, chi: Character) -> LocalConeReport:
    """Compare the local cone of the Delta set at chi with the pullback of
    the trailing-coefficient Delta set along the restriction to ker chi.

    The two sides are computed independently.  The local cone comes from
    the membership of chi in the cones of the module's Delta fan.  The
    pullback comes from the chi-minimal support points: when there is only
    one, the initial form is a single term, whose Delta set is empty, and
    so is its pullback (the empty fan that ``preimage`` returns for it), so
    no initial form is built.  Otherwise chi is evaluated on the support
    once, for both the count and the initial form.  The pullback is never
    read off an empty local cone."""
    lhs = polyhedral.local_cone(delta_set(module), chi.ray)
    rhs = _pullback(module, chi.ray)
    return LocalConeReport(chi, lhs, rhs, polyhedral.fan_equal(lhs, rhs))


def _pullback(module, ray):
    """The trailing-coefficient Delta set at the ray, pulled back to the
    characters of the module's lattice."""
    init = module._initial_forms.get(ray)
    if init is None:
        min_support = _minimal_support(module.relator, ray)
        if len(min_support) == 1:
            # a single term has an empty Delta set, and so an empty pullback
            return Fan(module.rank)
        init = _initial_form(module, ray, min_support)
    return polyhedral.preimage(delta_set(init), init.kernel.basis,
                               domain_dim=module.rank)


class DimReport(Record):
    chi: Character
    chi_rank: int
    tc_dim: int
    delta_dim: int

    @property
    def holds(self):
        return self.chi_rank + self.tc_dim == self.delta_dim


def check_dim_identity(module: OneRelatorModule, chi: Character) -> DimReport:
    """Verify rank(chi) + dim Delta(TC_chi) = dim Delta at a character in
    the closure of the regular part of the Delta set.  Every cone of the
    Delta fan is an edge cone of dimension n - 1, so the fan is its own
    regular part and membership is read off the fan itself."""
    fan = delta_set(module)
    if not fan.member(chi.ray):
        raise ValueError("character outside the regular part of the Delta set")
    tc = tc_delta(module, chi)
    return DimReport(chi, chi.rank, polyhedral.fan_dim(tc),
                     polyhedral.fan_dim(fan))


def check_induced(module: OneRelatorModule, sublattice: Sublattice,
                  chi: Character) -> LocalConeReport:
    """Induced-module law: the trailing-coefficient Delta set of a relator
    supported in a saturated sublattice A1 equals the pullback, along the
    restriction of ker(chi) to ker(chi) - cap - A1, of the one computed
    inside A1 at the restricted character.  Each call checks that A1 is
    saturated and holds the relator's support, and builds the module
    inside A1."""
    if sublattice.ambient_rank != module.rank:
        raise ValueError("sublattice ambient rank mismatch")
    if saturate(sublattice) != sublattice:
        raise ValueError("sublattice must be saturated")
    inner_relator = _in_coordinates(module.relator, sublattice)
    if inner_relator is None:
        raise ValueError("relator support outside the sublattice")
    inner_module = OneRelatorModule._trusted(
        inner_relator, module.cocycle.restrict(sublattice))
    H1 = sublattice.basis
    chi1 = Character(tuple(dot(chi.ray, h) for h in H1))

    init = initial_form(module, chi)
    inner_init = initial_form(inner_module, chi1)
    B, B1 = init.kernel, inner_init.kernel
    # basis of B cap A1 aligned with the inner kernel basis
    restriction = []
    for y in B1.basis:
        coeffs = B.coordinates(row_times(y, H1))
        if coeffs is None:
            raise AssertionError("kernel intersection escaped the kernel")
        restriction.append(coeffs)
    lhs = delta_set(init)
    rhs = polyhedral.preimage(delta_set(inner_init), restriction,
                              domain_dim=B.rank)
    return LocalConeReport(chi, lhs, rhs, polyhedral.fan_equal(lhs, rhs))


def generic_for(module: OneRelatorModule, chi: Character,
                space: Subspace) -> bool:
    """True iff the local cone of the regular part at chi lies inside the
    subspace.  The character itself must belong to the subspace.  Every
    cone of the Delta fan is an edge cone of dimension n - 1, so the fan is
    its own regular part."""
    if space.ambient_dim != module.rank:
        raise ValueError("subspace of wrong dimension")
    if not space.contains_vector(chi.ray):
        raise ValueError("character outside the subspace")
    lc = polyhedral.local_cone(delta_set(module), chi.ray)
    return all(space.contains(c.span()) for c in lc.cones)


def sample_delta_point(module: OneRelatorModule, cone_index: int,
                       seed: int) -> Character:
    """Deterministic rational point in the relative interior of the indexed
    Delta cone: the sum of its extreme rays plus a seeded nonzero rational
    combination of the lineality basis."""
    fan = delta_set(module)
    if not 0 <= cone_index < len(fan.cones):
        raise IndexError("cone index out of range")
    cone = fan.cones[cone_index]
    rng = derive(seed, "delta-sample", cone_index)
    point = cone.relint_point()
    weights = [rational(rng, nonzero=False) for _ in cone.lineality]
    if cone.lineality and not cone.rays and not any(weights):
        weights[0] = rational(rng, nonzero=True)
    for w, l in zip(weights, cone.lineality):
        point = [p + w * x for p, x in zip(point, l)]
    return Character(tuple(point))
