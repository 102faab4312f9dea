"""Twisted Laurent algebra arithmetic over Q(q_1, ..., q_s).

Elements are finite sums of lattice monomials x^a, a in Z^n, with
coefficients that are Laurent polynomials in the parameters q_1..q_s over Q.
Monomials multiply through a bilinear integer twist:

    x^a * x^b = (prod_k q_k^(a . B_k . b)) x^(a+b)

for a tuple of integer matrices B_1..B_s.  The parameters are treated as
multiplicatively independent, so a monomial commutator is trivial exactly
when all its twist exponents vanish.

The commutator data of the twist is a ``symplectic.AlternatingMapQ`` with
integer matrices; a cocycle restricts to a sublattice, so it stays integral.
"""

from __future__ import annotations

from operator import add, mul

from ._record import Record
from .lattice import (Sublattice, as_int, as_rational, congruence, dot,
                      kernel_lattice, matrix_rank, row_times, saturate)
from .symplectic import AlternatingMapQ, _block_pairings

__all__ = ["CocycleForm", "QTorusElement", "center_lattice", "cocycle_image",
           "commutator_form", "multiply", "verify_theorem42"]


def _check_square_int(mat, n):
    rows = tuple(tuple(as_int(x) for x in row) for row in mat)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix of wrong shape")
    return rows


class CocycleForm(Record):
    """Bilinear integer forms B_1..B_s defining the monomial twist."""

    rank: int
    forms: tuple

    def _post_init(self):
        object.__setattr__(self, "forms",
                           tuple(_check_square_int(m, self.rank)
                                 for m in self.forms))

    @property
    def s(self):
        return len(self.forms)

    def twist(self, a, b):
        """Parameter exponents of x^a * x^b relative to x^(a+b)."""
        return tuple(dot(row_times(a, m), b) for m in self.forms)

    def restrict(self, lattice: Sublattice) -> "CocycleForm":
        """Twist forms in the coordinates of a sublattice basis; the
        congruence of int forms by an int basis is already int."""
        return CocycleForm._trusted(lattice.rank, tuple(
            congruence(lattice.basis, m) for m in self.forms))


# looked up by ``perfbench/spans.py``; ROADMAP item 1 deletes the binding
AlternatingFormZ = AlternatingMapQ


def commutator_form(cocycle: CocycleForm) -> AlternatingMapQ:
    """Antisymmetrisation B_k - B_k^T, an integral form; its pairing gives
    the q-exponents by which x^a x^b and x^b x^a differ."""
    n = cocycle.rank
    return AlternatingMapQ(n, cocycle.s, tuple(
        tuple(tuple(m[i][j] - m[j][i] for j in range(n)) for i in range(n))
        for m in cocycle.forms))


def _normalize_coeff(coeff):
    out = {}
    for qexp, c in coeff.items():
        f = as_rational(c)
        if f:
            key = tuple(as_int(e) for e in qexp)
            # a fresh entry takes f itself: 0 + f would dispatch to
            # Fraction.__radd__ for no change in value or type
            if key in out:
                out[key] += f
            else:
                out[key] = f
    return {k: v for k, v in out.items() if v}


def _drop_zeros(terms):
    """Accumulated terms without the coefficients that cancelled to zero
    and without the exponents left with none."""
    out = {}
    for exp, coeff in terms.items():
        c = {q: v for q, v in coeff.items() if v}
        if c:
            out[exp] = c
    return out


class QTorusElement(Record):
    """Finite formal sum of lattice monomials with Laurent coefficients.

    ``terms`` maps an exponent a in Z^n to a coefficient, itself a map from
    a parameter exponent in Z^s to a nonzero rational.  Instances are
    immutable value objects.

    The public constructor validates and normalizes its input in
    ``_post_init``; this module and ``delta`` hand over data they have just
    built through ``Record._trusted``, which keeps ``_terms`` as given: int
    tuples of length ``rank`` mapped to nonempty dicts from int tuples of
    length ``s`` to nonzero ints or Fractions.
    """

    rank: int
    s: int
    _terms: dict

    def _post_init(self):
        rank, s = as_int(self.rank), as_int(self.s)
        clean = {}
        for exp, coeff in self._terms.items():
            key = tuple(as_int(x) for x in exp)
            if len(key) != rank:
                raise ValueError("exponent of wrong rank")
            c = _normalize_coeff(coeff)
            for qexp in c:
                if len(qexp) != s:
                    raise ValueError("parameter exponent of wrong length")
            if c:
                clean[key] = c
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "_terms", clean)

    @staticmethod
    def zero(rank, s):
        return QTorusElement(rank, s, {})

    @staticmethod
    def monomial(rank, s, exp, coeff=1, qexp=None):
        q = tuple(qexp) if qexp is not None else (0,) * s
        return QTorusElement(rank, s, {tuple(exp): {q: coeff}})

    @staticmethod
    def one(rank, s):
        return QTorusElement.monomial(rank, s, (0,) * rank)

    @property
    def terms(self):
        return {exp: dict(c) for exp, c in self._terms.items()}

    @property
    def support(self):
        return tuple(sorted(self._terms))

    @property
    def is_zero(self):
        return not self._terms

    def coefficient(self, exp):
        return dict(self._terms.get(tuple(exp), {}))

    def __add__(self, other):
        if (self.rank, self.s) != (other.rank, other.s):
            raise ValueError("rank mismatch")
        terms = {exp: dict(c) for exp, c in self._terms.items()}
        for exp, c in other._terms.items():
            acc = terms.setdefault(exp, {})
            for qexp, v in c.items():
                acc[qexp] = acc.get(qexp, 0) + v
        return QTorusElement._trusted(self.rank, self.s, _drop_zeros(terms))

    def __neg__(self):
        return QTorusElement._trusted(self.rank, self.s, {
            exp: {q: -v for q, v in c.items()}
            for exp, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __hash__(self):
        # the field tuple holds a dict, which has no hash
        return hash((self.rank, self.s, frozenset(
            (exp, frozenset(c.items())) for exp, c in self._terms.items())))


def multiply(alpha: QTorusElement, beta: QTorusElement,
             cocycle: CocycleForm) -> QTorusElement:
    """Product in the twisted algebra, bilinear over the monomial rule.

    Factors with fewer parameters are included into the larger coefficient
    field by padding their parameter exponents with zeros.
    """
    if alpha.rank != beta.rank or alpha.rank != cocycle.rank:
        raise ValueError("rank mismatch")
    s = max(alpha.s, beta.s, cocycle.s)
    pad = (0,) * (s - cocycle.s)
    right = [(b, [(q + (0,) * (s - len(q)), v) for q, v in cb.items()])
             for b, cb in beta._terms.items()]
    terms = {}
    for a, ca in alpha._terms.items():
        # x^a x^b twists by the dot products of the rows a.B_k with b
        rows = [row_times(a, m) for m in cocycle.forms]
        left = [(q + (0,) * (s - len(q)), v) for q, v in ca.items()]
        for b, cb in right:
            shift = tuple([sum(map(mul, row, b)) for row in rows]) + pad
            acc = terms.setdefault(tuple(map(add, a, b)), {})
            for qa, va in left:
                twisted = tuple(map(add, qa, shift))
                for qb, vb in cb:
                    q = tuple(map(add, twisted, qb))
                    v = va * vb
                    acc[q] = acc[q] + v if q in acc else v
    return QTorusElement._trusted(alpha.rank, s, _drop_zeros(terms))


def monomial_inverse(exp, s, cocycle: CocycleForm) -> QTorusElement:
    """Two-sided inverse of the unit x^exp, over max(s, cocycle.s)
    parameters."""
    a = tuple(as_int(x) for x in exp)
    if len(a) != cocycle.rank:
        raise ValueError("exponent of wrong rank")
    s = max(as_int(s), cocycle.s)
    qexp = cocycle.twist(a, a)
    q = qexp + (0,) * (s - len(qexp))
    return QTorusElement._trusted(cocycle.rank, s,
                                  {tuple(-x for x in a): {q: 1}})


def center_lattice(form: AlternatingMapQ) -> Sublattice:
    """Saturated sublattice of exponents whose monomials are central:
    the radical of the commutator pairing intersected with Z^n."""
    return kernel_lattice([row for m in form.forms for row in m], form.n)


def cocycle_image(form: AlternatingMapQ, lattice: Sublattice) -> Sublattice:
    """Sublattice of Z^s generated by the pairings of basis pairs; rank one
    models an infinite cyclic twist image, rank zero a commutative twist."""
    if lattice.ambient_rank != form.n:
        raise ValueError("ambient rank mismatch")
    _, [(pairs, _)] = _block_pairings(form, [lattice.basis])
    return Sublattice.from_rows(form.s, pairs)


class Theorem42Report(Record):
    """Audit of a direct decomposition against the four block conditions."""

    pairwise_commute: bool
    trivial_centres: bool
    rank_one_images: bool
    distinct_image_lines: bool
    finite_index: bool
    image_lines: tuple

    @property
    def passed(self):
        return (self.pairwise_commute and self.trivial_centres
                and self.rank_one_images and self.distinct_image_lines
                and self.finite_index)


def verify_theorem42(form: AlternatingMapQ, parts) -> Theorem42Report:
    """Check a family of independent sublattices A_1..A_t against:
    (1) cross pairings vanish, (2) the pairing restricted to each part has
    trivial radical, (3) each twist image has rank exactly one, (4) the
    saturated images are pairwise distinct lines; plus the finite-index
    requirement that the ranks sum to the ambient rank."""
    parts = list(parts)
    n = form.n
    for p in parts:
        if p.ambient_rank != n:
            raise ValueError("part with wrong ambient rank")
    stacked = [row for p in parts for row in p.basis]
    total = sum(p.rank for p in parts)
    if matrix_rank(stacked) != total:
        raise ValueError("parts are not independent")

    commute, per_part = _block_pairings(form, [p.basis for p in parts])
    centres = all(matrix_rank(diagonal) == p.rank
                  for p, (_, diagonal) in zip(parts, per_part))
    images = [Sublattice.from_rows(form.s, pairs) for pairs, _ in per_part]
    rank_one = all(img.rank == 1 for img in images)
    saturated = [saturate(img) for img in images]
    distinct = all(saturated[i] != saturated[j]
                   for i in range(len(parts)) for j in range(i + 1, len(parts)))
    finite_index = total == n
    return Theorem42Report(commute, centres, rank_one, distinct, finite_index,
                           tuple(s.basis for s in saturated))
