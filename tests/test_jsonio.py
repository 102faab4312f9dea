import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qtdelta import jsonio, torus
from qtdelta._record import Record
from qtdelta.delta import OneRelatorModule, delta_set
from qtdelta.lattice import Sublattice, Subspace
from qtdelta.polyhedral import Cone, Fan
from qtdelta.symplectic import AlternatingMapQ, SymplecticBase

from oracles import random_cocycle, random_relator


def test_rational_forms():
    assert jsonio.rational_to_json(Fraction(3, 1)) == 3
    assert jsonio.rational_to_json(3) == 3
    assert jsonio.rational_to_json(Fraction(-1, 2)) == "-1/2"
    assert jsonio.rational_from_json("7/3") == Fraction(7, 3)
    # a JSON int is read as that int, a "p/q" string as a Fraction
    for value in (3, -4):
        assert type(jsonio.rational_from_json(value)) is int
        assert jsonio.rational_from_json(value) == value
    vector = jsonio.vector_from_json([1, "1/2"], 2)
    assert vector == (1, Fraction(1, 2))
    assert [type(x) for x in vector] == [int, Fraction]
    with pytest.raises(ValueError):
        jsonio.rational_from_json("x/2")
    with pytest.raises(ValueError):
        jsonio.rational_from_json(True)
    with pytest.raises(ValueError):
        jsonio.rational_from_json("1/0")


@settings(derandomize=True, database=None)
@given(st.integers() | st.fractions())
def test_rational_roundtrip(x):
    # the reader reads exactly what the writer writes, type included
    back = jsonio.rational_from_json(
        json.loads(json.dumps(jsonio.rational_to_json(x))))
    assert back == x
    assert (type(back) is int) == (x.denominator == 1)


def test_fan_roundtrip():
    fan = Fan(2, [
        Cone.from_constraints(2, [(1, 0)], [(0, 1)]),
        Cone.from_constraints(2, [], [(1, 1), (1, -1)]),
    ])
    data = jsonio.fan_to_json(fan)
    back = jsonio.fan_from_json(json.loads(json.dumps(data)))
    assert back == fan


def test_element_roundtrip():
    rng = random.Random(0)
    for _ in range(10):
        el = random_relator(rng, rng.randint(1, 3), rng.randint(1, 2), 5)
        back = jsonio.element_from_json(jsonio.element_to_json(el))
        assert back == el


def test_repeated_exponents_are_summed():
    """A second term with the same exponent adds to the first, as a repeated
    parameter exponent inside one term does; a sum of zero drops the term."""
    def term(exp, *coeffs):
        return {"exp": exp, "coeff": [{"qexp": [q], "c": c}
                                      for q, c in coeffs]}

    read = jsonio.element_from_json({"rank": 1, "terms": [
        term([1], (0, 1)), term([1], (0, "1/2"), (1, 2)), term([1], (0, 1)),
        term([0], (0, 1)), term(["0/1"], (0, -1))]})
    assert read.terms == {(1,): {(0,): Fraction(5, 2), (1,): 2}}
    assert read == jsonio.element_from_json({"rank": 1, "terms": [
        term([1], (0, 1), (0, "1/2"), (1, 2), (0, 1))]})


def test_cocycle_roundtrip():
    rng = random.Random(1)
    c = random_cocycle(rng, 3, 2)
    data = {"rank": c.rank, "s": c.s,
            "B": [[list(row) for row in m] for m in c.forms]}
    back = jsonio.cocycle_from_json(json.loads(json.dumps(data)))
    assert back == c


def test_sublattice_subspace_roundtrip():
    lat = Sublattice.from_rows(3, [(1, 2, 3), (0, 4, 5)])
    assert jsonio.sublattice_from_json(jsonio.to_json(lat)) == lat
    space = Subspace.from_rows(3, [(1, Fraction(1, 2), 0)])
    assert space.rows == ((2, 1, 0),)
    # written by its divided basis, under the keys it always had
    assert jsonio.to_json(space) == {"ambient_dim": 3,
                                     "basis": [[1, "1/2", 0]]}
    assert jsonio.subspace_from_json(jsonio.to_json(space), 3) == space
    assert jsonio.subspace_from_json([[1, "1/2", 0]], 3) == space


def test_alternating_roundtrip():
    phi = AlternatingMapQ(2, 1, (((0, Fraction(1, 2)),
                                  (Fraction(-1, 2), 0)),))
    data = {"n": 2, "s": 1, "phi": [[[0, "1/2"], ["-1/2", 0]]]}
    assert jsonio.alternating_q_from_json(data) == phi
    # the Z reader checks every entry integral and keeps it an int
    with pytest.raises(ValueError, match=r"got Fraction\(1, 2\)"):
        jsonio.alternating_z_from_json(data)
    data["phi"] = [[[0, "4/2"], [-2, 0]]]
    forms = jsonio.alternating_z_from_json(data).forms
    assert forms == (((0, 2), (-2, 0)),)
    assert all(type(x) is int for row in forms[0] for x in row)


def test_base_roundtrip():
    base = SymplecticBase(
        Subspace.zero(2), (Subspace.full(2),), ((1,),))
    back = jsonio.base_from_json(jsonio.base_to_json(base), 2)
    assert back == base


def test_presentation_roundtrip():
    from qtdelta import central_product, heisenberg
    data = {"generators": ["x1", "y1", "x1'", "x2", "y1'", "y2"],
            "central": ["z", "z'"],
            "commutators": [{"a": 1, "b": 2, "exps": [1, 0]},
                            {"a": 3, "b": 5, "exps": [0, 1]},
                            {"a": 4, "b": 6, "exps": [0, 1]}]}
    assert jsonio.presentation_from_json(data) \
        == central_product(heisenberg(1), heisenberg(2))


def test_presentation_one_based_indices():
    data = {"generators": ["a", "b"], "central": ["z"],
            "commutators": [{"a": 1, "b": 2, "exps": [1]}]}
    pres = jsonio.presentation_from_json(data)
    assert pres.commutator(0, 1) == (1,)
    with pytest.raises(ValueError):
        jsonio.presentation_from_json(
            {"generators": ["a"], "central": ["z"],
             "commutators": [{"a": 0, "b": 1, "exps": [1]}]})


def test_fan_json_matches_delta_output():
    r = (torus.QTorusElement.one(2, 1)
         + torus.QTorusElement.monomial(2, 1, (1, 0))
         + torus.QTorusElement.monomial(2, 1, (0, 1)))
    zero = torus.CocycleForm(2, (((0, 0), (0, 0)),))
    fan = delta_set(OneRelatorModule(r, zero))
    payload = jsonio.fan_to_json(fan)
    assert payload["dim"] == 2
    assert len(payload["cones"]) == 3
    assert jsonio.fan_from_json(payload) == fan


def test_malformed_inputs():
    with pytest.raises(ValueError):
        jsonio.fan_from_json({"dim": 2, "cones": "nope"})
    with pytest.raises(ValueError):
        jsonio.cone_from_json({"dim": 2, "eq": [[1]], "ineq": []})
    with pytest.raises(ValueError):
        jsonio.element_from_json({"rank": 1, "terms": [
            {"exp": [0], "coeff": [{"qexp": [0], "c": 1}]},
            {"exp": [1], "coeff": [{"qexp": [0, 1], "c": 1}]}]})
    with pytest.raises(ValueError):
        jsonio.cocycle_from_json({"rank": 2, "s": 2, "B": [[[0, 0], [0, 0]]]})


# The field names of every record, as dataclasses.fields listed them before
# the records had their own base: to_json writes exactly these keys for each
# record without a writer of its own (Fan and QTorusElement have one).
RECORD_FIELDS = {
    "Sublattice": ("ambient_rank", "basis"),
    "Subspace": ("ambient_dim", "rows"),
    "Fan": ("ambient_dim", "cones"),
    "Character": ("coords",),
    "OneRelatorModule": ("relator", "cocycle"),
    "InitialFormResult": ("relator", "cocycle", "kernel"),
    "LocalConeReport": ("chi", "lhs", "rhs", "equal"),
    "DimReport": ("chi", "chi_rank", "tc_dim", "delta_dim"),
    "AlternatingMapQ": ("n", "s", "forms"),
    "SymplecticBase": ("V0", "blocks", "lines"),
    "BaseReport": ("direct_sum", "centre_is_v0", "blocks_orthogonal",
                   "blocks_nondegenerate", "lines_distinct",
                   "lines_consistent"),
    "NoBaseFound": ("attempts", "evidence", "reason"),
    "AmpleReport": ("m", "dim_ok", "cond1", "cond2", "probes",
                    "degenerate"),
    "CocycleForm": ("rank", "forms"),
    "QTorusElement": ("rank", "s", "_terms"),
    "Theorem42Report": ("pairwise_commute", "trivial_centres",
                        "rank_one_images", "distinct_image_lines",
                        "finite_index", "image_lines"),
    "Class2Presentation": ("generators", "central", "table"),
    "HeisenbergBlock": ("rank", "basis", "lifted_basis", "line"),
    "StructureReport": ("heisenberg_blocks", "cyclic_rank", "decomposed",
                        "diagnostics"),
}


def _records(cls=Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("qtdelta."):
            yield sub
        yield from _records(sub)


def test_record_fields_pinned():
    # jsonio imports every layer, so every record class exists here
    assert {cls.__name__: cls._fields for cls in _records()} == RECORD_FIELDS

