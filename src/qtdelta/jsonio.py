"""JSON schemas of the CLI's input and output.

Rationals serialize as plain ints when integral and as "p/q" strings
otherwise; vectors and matrices are arrays of those.  The readers accept
that grammar only, a JSON int or a string ``-?[0-9]+(/[0-9]+)?`` with a
nonzero denominator, and raise ValueError on any other data.

This is the one module that writes JSON: :func:`to_json` turns any value
the CLI outputs into JSON data.  Reports and sublattices are written as
objects of their record fields plus their verdict property, so a new
report field needs no writer; a subspace is written by its divided basis,
and fans, elements and symplectic bases have the writers below.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import groups, symplectic, torus
from .delta import Character
from .lattice import Sublattice, Subspace, as_int
from .polyhedral import Cone, Fan


def rational_to_json(x):
    if x.denominator == 1:
        return x.numerator
    return f"{x.numerator}/{x.denominator}"


def to_json(value):
    """JSON data of an output value: None, bools and strings as they are,
    ints and Fractions by ``rational_to_json``, tuples and lists as arrays,
    dicts as objects, a Character as its coords, a Subspace by its divided
    basis, fans, elements and symplectic bases by their writers, and any
    other record as its record fields plus its verdict.

    Each written cone costs one ``Cone.canonical_hrep``, which reads the
    facets off the cone's rows with no double description, so a cone
    written twice is read twice."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, (int, Fraction)):
        return rational_to_json(value)
    if isinstance(value, (tuple, list)):
        return [to_json(x) for x in value]
    if isinstance(value, dict):
        return {key: to_json(x) for key, x in value.items()}
    if isinstance(value, Character):
        return to_json(value.coords)
    if isinstance(value, Subspace):
        return {"ambient_dim": value.ambient_dim,
                "basis": to_json(value.basis)}
    if isinstance(value, Fan):
        return fan_to_json(value)
    if isinstance(value, torus.QTorusElement):
        return element_to_json(value)
    if isinstance(value, symplectic.SymplecticBase):
        return base_to_json(value)
    out = {name: to_json(getattr(value, name)) for name in value._fields}
    for verdict in ("passed", "holds"):
        if hasattr(value, verdict):
            out[verdict] = getattr(value, verdict)
    return out


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def rational_from_json(value):
    """A JSON int as that int, a string "p" or "p/q" as Fraction(p, q)."""
    if isinstance(value, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(value, int):
        return value
    match = isinstance(value, str) and _RATIONAL.fullmatch(value)
    if not match:
        raise ValueError(f"bad rational value {value!r}")
    den = int(match[2] or 1)
    if not den:
        raise ValueError(f"zero denominator in {value!r}")
    return Fraction(int(match[1]), den)


def int_from_json(value) -> int:
    f = rational_from_json(value)
    if f.denominator != 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(f)


def size_from_json(value) -> int:
    n = int_from_json(value)
    if n < 0:
        raise ValueError(f"expected a nonnegative size, got {value!r}")
    return n


def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _array(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array")
    return value


def vector_from_json(data, length):
    out = tuple(rational_from_json(x) for x in _array(data, "vector"))
    if len(out) != length:
        raise ValueError(f"vector of length {len(out)}, expected {length}")
    return out


def matrix_from_json(data, width):
    return tuple(vector_from_json(row, width) for row in _array(data, "matrix"))


def cone_to_json(cone: Cone):
    eq, ineq = cone.canonical_hrep()
    return {"dim": cone.ambient_dim, "eq": to_json(eq), "ineq": to_json(ineq)}


def cone_from_json(data) -> Cone:
    dim = size_from_json(_object(data, "cone").get("dim"))
    eq = matrix_from_json(data.get("eq", []), dim)
    ineq = matrix_from_json(data.get("ineq", []), dim)
    return Cone.from_constraints(dim, eq, ineq)


def fan_to_json(fan: Fan):
    return {
        "dim": fan.ambient_dim,
        "cones": [cone_to_json(c) for c in fan.cones],
    }


def fan_from_json(data) -> Fan:
    dim = size_from_json(_object(data, "fan").get("dim"))
    return Fan(dim, [cone_from_json(c)
                     for c in _array(data.get("cones", []), "fan cones")])


def element_to_json(element: torus.QTorusElement):
    terms = []
    for exp in element.support:
        coeff = element.coefficient(exp)
        terms.append({
            "exp": list(exp),
            "coeff": [{"qexp": list(q), "c": rational_to_json(v)}
                      for q, v in sorted(coeff.items())],
        })
    return {"rank": element.rank, "terms": terms}


def element_from_json(data) -> torus.QTorusElement:
    rank = size_from_json(_object(data, "element").get("rank"))
    terms = {}
    widths = set()
    for item in _array(data.get("terms", []), "terms"):
        _object(item, "term")
        exp = tuple(int_from_json(x)
                    for x in _array(item.get("exp", []), "term exp"))
        coeff = terms.setdefault(exp, {})
        for c in _array(item.get("coeff", []), "term coeff"):
            _object(c, "coeff item")
            qexp = tuple(int_from_json(x)
                         for x in _array(c.get("qexp", []), "coeff qexp"))
            widths.add(len(qexp))
            coeff[qexp] = coeff.get(qexp, 0) + rational_from_json(c.get("c"))
    if len(widths) > 1:
        raise ValueError("inconsistent parameter exponent lengths")
    return torus.QTorusElement(rank, widths.pop() if widths else 0, terms)


def _matrices(data, what, size_key, mats_key):
    """``(size, s, matrices)`` of a JSON object holding a size, ``s`` and
    an array of ``s`` square rational matrices."""
    size = size_from_json(_object(data, what).get(size_key))
    s = size_from_json(data.get("s"))
    mats = _array(data.get(mats_key, []), f"{what} {mats_key}")
    if len(mats) != s:
        raise ValueError(f"expected s = {s} {what} matrices, got {len(mats)}")
    return size, s, tuple(matrix_from_json(m, size) for m in mats)


def cocycle_from_json(data) -> torus.CocycleForm:
    rank, _, mats = _matrices(data, "cocycle", "rank", "B")
    return torus.CocycleForm(rank, mats)


def alternating_z_from_json(data) -> symplectic.AlternatingMapQ:
    """An alternating form whose entries are all integers."""
    n, s, mats = _matrices(data, "form", "n", "phi")
    return symplectic.AlternatingMapQ(n, s, tuple(
        tuple(tuple(as_int(x) for x in row) for row in m) for m in mats))


def alternating_q_from_json(data) -> symplectic.AlternatingMapQ:
    return symplectic.AlternatingMapQ(
        *_matrices(data, "form", "n", "phi"))


def sublattice_from_json(data) -> Sublattice:
    n = size_from_json(_object(data, "sublattice").get("ambient_rank"))
    return Sublattice.from_rows(n, matrix_from_json(data.get("basis", []), n))


def subspace_from_json(data, n) -> Subspace:
    """A subspace of Q^n: a basis matrix, or an object of ``basis`` and
    ``ambient_dim`` n."""
    if isinstance(data, dict):
        dim = size_from_json(data.get("ambient_dim"))
        if dim != n:
            raise ValueError(f"subspace in Q^{dim}, expected Q^{n}")
        data = data.get("basis", [])
    elif not isinstance(data, list):
        raise ValueError("subspace must be an object or a basis matrix")
    return Subspace.from_rows(n, matrix_from_json(data, n))


def character_from_json(data, n) -> Character:
    return Character(vector_from_json(data, n))


def base_to_json(base: symplectic.SymplecticBase):
    return to_json({"V0": base.V0.basis,
                    "blocks": [b.basis for b in base.blocks],
                    "lines": base.lines})


def base_from_json(data, n) -> symplectic.SymplecticBase:
    v0 = Subspace.from_rows(
        n, matrix_from_json(_object(data, "base").get("V0", []), n))
    blocks = tuple(Subspace.from_rows(n, matrix_from_json(b, n))
                   for b in _array(data.get("blocks", []), "base blocks"))
    lines = tuple(tuple(int_from_json(x) for x in _array(w, "base line"))
                  for w in _array(data.get("lines", []), "base lines"))
    return symplectic.SymplecticBase(v0, blocks, lines)


def presentation_from_json(data) -> groups.Class2Presentation:
    gens = _array(_object(data, "presentation").get("generators", []),
                  "generators")
    central = _array(data.get("central", []), "central generators")
    table = []
    for item in _array(data.get("commutators", []), "commutators"):
        _object(item, "commutator")
        a = int_from_json(item.get("a"))
        b = int_from_json(item.get("b"))
        if not (1 <= a <= len(gens) and 1 <= b <= len(gens)):
            raise ValueError("commutator index out of range (1-based)")
        exps = tuple(int_from_json(x)
                     for x in _array(item.get("exps", []), "commutator exps"))
        table.append((a - 1, b - 1, exps))
    return groups.Class2Presentation(tuple(str(g) for g in gens),
                                     tuple(str(z) for z in central),
                                     tuple(table))

