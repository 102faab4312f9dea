"""Twisted Laurent algebra arithmetic over Q(q_1, ..., q_s).

Elements are finite sums of lattice monomials x^a, a in Z^n, with
coefficients that are Laurent polynomials in the parameters q_1..q_s over Q.
Monomials multiply through a bilinear integer twist:

    x^a * x^b = (prod_k q_k^(a . B_k . b)) x^(a+b)

for a tuple of integer matrices B_1..B_s.  The parameters are treated as
multiplicatively independent, so a monomial commutator is trivial exactly
when all its twist exponents vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lattice import (Sublattice, congruence, kernel_lattice, matrix_rank,
                      saturate)


def _check_square_int(mat, n):
    rows = tuple(tuple(int(x) for x in row) for row in mat)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError("matrix of wrong shape")
    return rows


def _bilinear(mat, a, b):
    return sum(a[i] * mat[i][j] * b[j] for i in range(len(a))
               for j in range(len(b)))


@dataclass(frozen=True)
class CocycleForm:
    """Bilinear integer forms B_1..B_s defining the monomial twist."""

    rank: int
    forms: tuple

    def __post_init__(self):
        object.__setattr__(self, "forms",
                           tuple(_check_square_int(m, self.rank)
                                 for m in self.forms))

    @property
    def s(self):
        return len(self.forms)

    def twist(self, a, b):
        """Parameter exponents of x^a * x^b relative to x^(a+b)."""
        return tuple(_bilinear(m, a, b) for m in self.forms)

    def restrict(self, lattice: Sublattice) -> "CocycleForm":
        """Twist forms in the coordinates of a sublattice basis."""
        return CocycleForm(lattice.rank, tuple(congruence(lattice.basis, m)
                                               for m in self.forms))


@dataclass(frozen=True)
class AlternatingFormZ:
    """Antisymmetric integer forms, the commutator data of the twist."""

    rank: int
    forms: tuple

    def __post_init__(self):
        mats = tuple(_check_square_int(m, self.rank) for m in self.forms)
        for m in mats:
            for i in range(self.rank):
                for j in range(self.rank):
                    if m[i][j] != -m[j][i]:
                        raise ValueError("form is not antisymmetric")
        object.__setattr__(self, "forms", mats)

    @property
    def s(self):
        return len(self.forms)

    def pairing(self, a, b):
        return tuple(_bilinear(m, a, b) for m in self.forms)

    def restrict(self, lattice: Sublattice) -> "AlternatingFormZ":
        return AlternatingFormZ(lattice.rank,
                                tuple(congruence(lattice.basis, m)
                                      for m in self.forms))


def commutator_form(cocycle: CocycleForm) -> AlternatingFormZ:
    """Antisymmetrisation B_k - B_k^T; its pairing gives the q-exponents by
    which x^a x^b and x^b x^a differ."""
    n = cocycle.rank
    mats = []
    for m in cocycle.forms:
        mats.append(tuple(tuple(m[i][j] - m[j][i] for j in range(n))
                          for i in range(n)))
    return AlternatingFormZ(n, tuple(mats))


def _normalize_coeff(coeff):
    out = {}
    for qexp, c in coeff.items():
        f = Fraction(c)
        if f:
            key = tuple(int(e) for e in qexp)
            out[key] = out.get(key, Fraction(0)) + f
    return {k: v for k, v in out.items() if v}


class QTorusElement:
    """Finite formal sum of lattice monomials with Laurent coefficients.

    ``terms`` maps an exponent a in Z^n to a coefficient, itself a map from
    a parameter exponent in Z^s to a nonzero rational.  Instances are
    immutable value objects.
    """

    __slots__ = ("rank", "s", "_terms", "_key")

    def __init__(self, rank, s, terms):
        self.rank = int(rank)
        self.s = int(s)
        clean = {}
        for exp, coeff in terms.items():
            key = tuple(int(x) for x in exp)
            if len(key) != self.rank:
                raise ValueError("exponent of wrong rank")
            c = _normalize_coeff(coeff)
            for qexp in c:
                if len(qexp) != self.s:
                    raise ValueError("parameter exponent of wrong length")
            if c:
                clean[key] = c
        self._terms = clean
        self._key = tuple(sorted(
            (exp, tuple(sorted(c.items()))) for exp, c in clean.items()))

    @staticmethod
    def zero(rank, s):
        return QTorusElement(rank, s, {})

    @staticmethod
    def monomial(rank, s, exp, coeff=1, qexp=None):
        q = tuple(qexp) if qexp is not None else (0,) * s
        return QTorusElement(rank, s, {tuple(exp): {q: Fraction(coeff)}})

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
                acc[qexp] = acc.get(qexp, Fraction(0)) + v
        return QTorusElement(self.rank, self.s, terms)

    def __neg__(self):
        return QTorusElement(self.rank, self.s, {
            exp: {q: -v for q, v in c.items()}
            for exp, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, QTorusElement)
                and (self.rank, self.s) == (other.rank, other.s)
                and self._key == other._key)

    def __hash__(self):
        return hash((self.rank, self.s, self._key))

    def __repr__(self):
        return f"QTorusElement(rank={self.rank}, s={self.s}, terms={self._terms!r})"


def multiply(alpha: QTorusElement, beta: QTorusElement,
             cocycle: CocycleForm) -> QTorusElement:
    """Product in the twisted algebra, bilinear over the monomial rule.

    Factors with fewer parameters are included into the larger coefficient
    field by padding their parameter exponents with zeros.
    """
    if alpha.rank != beta.rank or alpha.rank != cocycle.rank:
        raise ValueError("rank mismatch")
    s = max(alpha.s, beta.s, cocycle.s)
    terms = {}
    for a, ca in alpha._terms.items():
        for b, cb in beta._terms.items():
            shift = cocycle.twist(a, b)
            exp = tuple(x + y for x, y in zip(a, b))
            acc = terms.setdefault(exp, {})
            for qa, va in ca.items():
                qa_s = qa + (0,) * (s - len(qa))
                for qb, vb in cb.items():
                    qb_s = qb + (0,) * (s - len(qb))
                    q = tuple(x + y + z for x, y, z in
                              zip(qa_s, qb_s, shift + (0,) * (s - len(shift))))
                    acc[q] = acc.get(q, Fraction(0)) + va * vb
    return QTorusElement(alpha.rank, s, terms)


def monomial_inverse(exp, s, cocycle: CocycleForm) -> QTorusElement:
    """Two-sided inverse of the unit x^exp."""
    a = tuple(int(x) for x in exp)
    qexp = cocycle.twist(a, a)
    q = tuple(qexp) + (0,) * (s - len(qexp))
    return QTorusElement(cocycle.rank, s,
                         {tuple(-x for x in a): {q: Fraction(1)}})


def chi_min(alpha: QTorusElement, chi) -> Fraction:
    """Minimum of the character over the support of a nonzero element."""
    if alpha.is_zero:
        raise ValueError("the zero element has no support minimum")
    coords = tuple(Fraction(x) for x in chi)
    if len(coords) != alpha.rank:
        raise ValueError("character of wrong length")
    return min(sum(c * e for c, e in zip(coords, exp))
               for exp in alpha.support)


def center_lattice(form: AlternatingFormZ) -> Sublattice:
    """Saturated sublattice of exponents whose monomials are central:
    the radical of the commutator pairing intersected with Z^n."""
    rows = [row for m in form.forms for row in m]
    return kernel_lattice(rows, form.rank)


def is_commutative(form: AlternatingFormZ, lattice: Sublattice) -> bool:
    if lattice.ambient_rank != form.rank:
        raise ValueError("ambient rank mismatch")
    basis = lattice.basis
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if any(form.pairing(basis[i], basis[j])):
                return False
    return True


def cocycle_image(form: AlternatingFormZ, lattice: Sublattice) -> Sublattice:
    """Sublattice of Z^s generated by the pairings of basis pairs; rank one
    models an infinite cyclic twist image, rank zero a commutative twist."""
    if lattice.ambient_rank != form.rank:
        raise ValueError("ambient rank mismatch")
    basis = lattice.basis
    vecs = []
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            vecs.append(form.pairing(basis[i], basis[j]))
    return Sublattice.from_rows(form.s, vecs)


@dataclass(frozen=True)
class Theorem42Report:
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

    def to_json(self):
        return {
            "pairwise_commute": self.pairwise_commute,
            "trivial_centres": self.trivial_centres,
            "rank_one_images": self.rank_one_images,
            "distinct_image_lines": self.distinct_image_lines,
            "finite_index": self.finite_index,
            "image_lines": [[list(r) for r in line] for line in self.image_lines],
            "passed": self.passed,
        }


def verify_theorem42(form: AlternatingFormZ, parts) -> Theorem42Report:
    """Check a family of independent sublattices A_1..A_t against:
    (1) cross pairings vanish, (2) the pairing restricted to each part has
    trivial radical, (3) each twist image has rank exactly one, (4) the
    saturated images are pairwise distinct lines; plus the finite-index
    requirement that the ranks sum to the ambient rank."""
    parts = list(parts)
    n = form.rank
    for p in parts:
        if p.ambient_rank != n:
            raise ValueError("part with wrong ambient rank")
    stacked = [row for p in parts for row in p.basis]
    total = sum(p.rank for p in parts)
    if matrix_rank(stacked) != total:
        raise ValueError("parts are not independent")

    commute = True
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for a in parts[i].basis:
                for b in parts[j].basis:
                    if any(form.pairing(a, b)):
                        commute = False
    centres = all(center_lattice(form.restrict(p)).rank == 0 for p in parts)
    images = [cocycle_image(form, p) for p in parts]
    rank_one = all(img.rank == 1 for img in images)
    saturated = [saturate(img) for img in images]
    distinct = all(saturated[i] != saturated[j]
                   for i in range(len(parts)) for j in range(i + 1, len(parts)))
    finite_index = total == n
    return Theorem42Report(commute, centres, rank_one, distinct, finite_index,
                           tuple(s.basis for s in saturated))
