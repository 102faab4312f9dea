"""JSON schemas for the CLI and for golden files.

Rationals serialize as plain ints when integral and as "p/q" strings
otherwise; vectors and matrices are arrays of those.  Every converter has a
strict parser counterpart that raises ValueError on malformed data.
"""

from __future__ import annotations

from fractions import Fraction

from . import groups, symplectic, torus
from .delta import Character
from .lattice import Sublattice, Subspace
from .polyhedral import Cone, Fan


def rational_to_json(x):
    f = Fraction(x)
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def rational_from_json(value) -> Fraction:
    if isinstance(value, bool):
        raise ValueError("boolean is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"bad rational literal {value!r}") from exc
    raise ValueError(f"bad rational value {value!r}")


def int_from_json(value) -> int:
    f = rational_from_json(value)
    if f.denominator != 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(f)


def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _array(value, what):
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON array")
    return value


def vector_to_json(vec):
    return [rational_to_json(x) for x in vec]


def vector_from_json(data, length=None):
    if not isinstance(data, list):
        raise ValueError("vector must be a JSON array")
    out = tuple(rational_from_json(x) for x in data)
    if length is not None and len(out) != length:
        raise ValueError(f"vector of length {len(out)}, expected {length}")
    return out


def matrix_to_json(rows):
    return [vector_to_json(row) for row in rows]


def matrix_from_json(data, width=None):
    if not isinstance(data, list):
        raise ValueError("matrix must be a JSON array of rows")
    rows = tuple(vector_from_json(row, width) for row in data)
    if width is None and rows:
        w = len(rows[0])
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
    return rows


def int_matrix_from_json(data, width=None):
    rows = matrix_from_json(data, width)
    out = []
    for row in rows:
        ints = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("expected integer matrix entries")
            ints.append(int(x))
        out.append(tuple(ints))
    return tuple(out)


def cone_to_json(cone: Cone):
    return {
        "dim": cone.ambient_dim,
        "eq": matrix_to_json(cone.equalities),
        "ineq": matrix_to_json(cone.inequalities),
    }


def cone_from_json(data) -> Cone:
    if not isinstance(data, dict):
        raise ValueError("cone must be a JSON object")
    dim = int_from_json(data.get("dim"))
    eq = matrix_from_json(data.get("eq", []), dim)
    ineq = matrix_from_json(data.get("ineq", []), dim)
    return Cone.from_constraints(dim, eq, ineq)


def fan_to_json(fan: Fan):
    return {
        "dim": fan.ambient_dim,
        "cones": [cone_to_json(c) for c in fan.cones],
    }


def fan_from_json(data) -> Fan:
    if not isinstance(data, dict):
        raise ValueError("fan must be a JSON object")
    dim = int_from_json(data.get("dim"))
    cones = data.get("cones", [])
    if not isinstance(cones, list):
        raise ValueError("fan cones must be a JSON array")
    return Fan(dim, [cone_from_json(c) for c in cones])


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


def element_from_json(data, s=None) -> torus.QTorusElement:
    if not isinstance(data, dict):
        raise ValueError("element must be a JSON object")
    rank = int_from_json(data.get("rank"))
    raw_terms = data.get("terms", [])
    if not isinstance(raw_terms, list):
        raise ValueError("terms must be a JSON array")
    terms = {}
    widths = set()
    for item in raw_terms:
        _object(item, "term")
        exp = tuple(int_from_json(x)
                    for x in _array(item.get("exp", []), "term exp"))
        coeff = {}
        for c in _array(item.get("coeff", []), "term coeff"):
            _object(c, "coeff item")
            qexp = tuple(int_from_json(x)
                         for x in _array(c.get("qexp", []), "coeff qexp"))
            widths.add(len(qexp))
            coeff[qexp] = coeff.get(qexp, Fraction(0)) \
                + rational_from_json(c.get("c"))
        terms[exp] = coeff
    if len(widths) > 1:
        raise ValueError("inconsistent parameter exponent lengths")
    inferred = widths.pop() if widths else (s if s is not None else 0)
    if s is not None and inferred != s:
        raise ValueError("parameter count mismatch")
    return torus.QTorusElement(rank, inferred, terms)


def cocycle_to_json(cocycle: torus.CocycleForm):
    return {
        "rank": cocycle.rank,
        "s": cocycle.s,
        "B": [matrix_to_json(m) for m in cocycle.forms],
    }


def cocycle_from_json(data) -> torus.CocycleForm:
    if not isinstance(data, dict):
        raise ValueError("cocycle must be a JSON object")
    rank = int_from_json(data.get("rank"))
    s = int_from_json(data.get("s"))
    mats = data.get("B", [])
    if not isinstance(mats, list) or len(mats) != s:
        raise ValueError("expected s twist matrices")
    return torus.CocycleForm(rank, tuple(int_matrix_from_json(m, rank)
                                         for m in mats))


def alternating_z_from_json(data) -> torus.AlternatingFormZ:
    if not isinstance(data, dict):
        raise ValueError("form must be a JSON object")
    n = int_from_json(data.get("n"))
    s = int_from_json(data.get("s"))
    mats = data.get("phi", [])
    if not isinstance(mats, list) or len(mats) != s:
        raise ValueError("expected s form matrices")
    return torus.AlternatingFormZ(n, tuple(int_matrix_from_json(m, n)
                                           for m in mats))


def alternating_q_to_json(phi: symplectic.AlternatingMapQ):
    return {
        "n": phi.n,
        "s": phi.s,
        "phi": [matrix_to_json(m) for m in phi.forms],
    }


def alternating_q_from_json(data) -> symplectic.AlternatingMapQ:
    if not isinstance(data, dict):
        raise ValueError("form must be a JSON object")
    n = int_from_json(data.get("n"))
    s = int_from_json(data.get("s"))
    mats = data.get("phi", [])
    if not isinstance(mats, list) or len(mats) != s:
        raise ValueError("expected s form matrices")
    return symplectic.AlternatingMapQ(
        n, s, tuple(matrix_from_json(m, n) for m in mats))


def sublattice_to_json(lattice: Sublattice):
    return {"ambient_rank": lattice.ambient_rank,
            "basis": matrix_to_json(lattice.basis)}


def sublattice_from_json(data) -> Sublattice:
    if not isinstance(data, dict):
        raise ValueError("sublattice must be a JSON object")
    n = int_from_json(data.get("ambient_rank"))
    return Sublattice.from_rows(n, int_matrix_from_json(data.get("basis", []), n))


def subspace_to_json(space: Subspace):
    return {"ambient_dim": space.ambient_dim,
            "basis": matrix_to_json(space.basis)}


def subspace_from_json(data, ambient=None) -> Subspace:
    if isinstance(data, dict):
        n = int_from_json(data.get("ambient_dim"))
        rows = matrix_from_json(data.get("basis", []), n)
    elif isinstance(data, list) and ambient is not None:
        n = ambient
        rows = matrix_from_json(data, n)
    else:
        raise ValueError("subspace must be an object or a basis matrix")
    return Subspace.from_rows(n, rows)


def character_from_json(data, n=None) -> Character:
    return Character(vector_from_json(data, n))


def base_to_json(base: symplectic.SymplecticBase):
    return {
        "V0": matrix_to_json(base.V0.basis),
        "blocks": [matrix_to_json(b.basis) for b in base.blocks],
        "lines": [list(w) for w in base.lines],
    }


def base_from_json(data, n) -> symplectic.SymplecticBase:
    if not isinstance(data, dict):
        raise ValueError("base must be a JSON object")
    v0 = Subspace.from_rows(n, matrix_from_json(data.get("V0", []), n))
    blocks = tuple(Subspace.from_rows(n, matrix_from_json(b, n))
                   for b in _array(data.get("blocks", []), "base blocks"))
    lines = tuple(tuple(int_from_json(x) for x in _array(w, "base line"))
                  for w in _array(data.get("lines", []), "base lines"))
    return symplectic.SymplecticBase(v0, blocks, lines)


def presentation_from_json(data) -> groups.Class2Presentation:
    if not isinstance(data, dict):
        raise ValueError("presentation must be a JSON object")
    gens = data.get("generators", [])
    central = data.get("central", [])
    if not isinstance(gens, list) or not isinstance(central, list):
        raise ValueError("generator lists must be JSON arrays")
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


def presentation_to_json(pres: groups.Class2Presentation):
    return {
        "generators": list(pres.generators),
        "central": list(pres.central),
        "commutators": [{"a": a + 1, "b": b + 1, "exps": list(exps)}
                        for a, b, exps in pres.table],
    }
