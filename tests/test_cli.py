import contextlib
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import random
import re
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import json_oracle
from oracles import affine_sublattice_points
from qtdelta import cli, delta, polyhedral
from qtdelta.cli import main

TROPICAL = {
    "relator": {"rank": 2, "terms": [
        {"exp": [0, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [0, 1], "coeff": [{"qexp": [0], "c": 1}]}]},
    "cocycle": {"rank": 2, "s": 1, "B": [[[0, 0], [0, 0]]]},
}

TWO_BLOCK = {"form": {"n": 4, "s": 2, "phi": [
    [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]}}

HEISENBERG2 = {"presentation": {
    "generators": ["x1", "x2", "y1", "y2"],
    "central": ["z"],
    "commutators": [{"a": 1, "b": 3, "exps": [1]},
                    {"a": 2, "b": 4, "exps": [1]}]}}

INDUCED = {
    "relator": {"rank": 2, "terms": [
        {"exp": [0, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]}]},
    "cocycle": {"rank": 2, "s": 1, "B": [[[0, 0], [0, 0]]]},
    "A1": {"ambient_rank": 2, "basis": [[1, 0]]},
}

# a rank-3 relator supported in a rank-2 saturated A1
INDUCED3 = {
    "relator": {"rank": 3, "terms": [
        {"exp": e, "coeff": [{"qexp": [0], "c": c}]} for e, c in [
            ([0, 0, 0], 1), ([1, 0, 1], -2), ([0, 1, 0], 3), ([1, 1, 1], 1)]]},
    "cocycle": {"rank": 3, "s": 1,
                "B": [[[0, 1, 0], [0, 0, 0], [0, 0, 0]]]},
    "A1": {"ambient_rank": 3, "basis": [[1, 0, 1], [0, 1, 0]]},
}

# relators whose coefficients are plain rationals, with a nontrivial twist
TWISTED = {
    "relator": {"rank": 2, "terms": [
        {"exp": [1, 1], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [2, 1], "coeff": [{"qexp": [0], "c": -2}]},
        {"exp": [1, 2], "coeff": [{"qexp": [0], "c": 3}]}]},
    "cocycle": {"rank": 2, "s": 1, "B": [[[0, 0], [1, 0]]]},
}
# A binomial, whose initial form at a character on its Delta set is itself,
# and a relator whose initial form at chi is a collinear trinomial.
BINOMIAL_AT = {
    "relator": {"rank": 3, "terms": [
        {"exp": [1, 0, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [0, 2, 1], "coeff": [{"qexp": [1], "c": "-2/3"}]}]},
    "cocycle": {"rank": 3, "s": 1,
                "B": [[[0, 1, 0], [0, 0, -1], [2, 0, 0]]]},
    "chi": [3, 1, 1],
}

COLLINEAR_AT = {
    "relator": {"rank": 3, "terms": [
        {"exp": e, "coeff": [{"qexp": [0], "c": c}]} for e, c in [
            ([0, 0, 0], 1), ([1, 1, 0], -2), ([2, 2, 0], 1),
            ([0, 0, 1], 5)]]},
    "cocycle": BINOMIAL_AT["cocycle"],
    "chi": ["1/2", "-1/2", "1/2"],
}

TWISTED_INDUCED = {
    "relator": {"rank": 2, "terms": [
        {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [2, 0], "coeff": [{"qexp": [0], "c": -2}]}]},
    "cocycle": {"rank": 2, "s": 1, "B": [[[1, 1], [0, 0]]]},
    "A1": {"ambient_rank": 2, "basis": [[1, 0]]},
}


WIDE3 = {
    "relator": {"rank": 3, "terms": [
        {"exp": e, "coeff": [{"qexp": [q], "c": c}]} for e, q, c in [
            ([0, 0, 0], 0, 1), ([2, 0, 1], 1, -3), ([0, 2, 0], 0, "1/2"),
            ([1, 1, 2], -1, 2), ([0, 0, 3], 0, 5), ([1, 0, 0], 2, -1)]]},
    "cocycle": {"rank": 3, "s": 1,
                "B": [[[0, 1, 0], [0, 0, -1], [2, 0, 0]]]},
}


def with_scalar_relator(payload):
    """The same input with every relator coefficient written without
    parameters (``"qexp": []``)."""
    terms = [dict(term, coeff=[dict(c, qexp=[]) for c in term["coeff"]])
             for term in payload["relator"]["terms"]]
    return dict(payload, relator=dict(payload["relator"], terms=terms))


TORUS_MUL = {
    "a": {"rank": 2, "terms": [
        {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]}]},
    "b": {"rank": 2, "terms": [
        {"exp": [0, 1], "coeff": [{"qexp": [0], "c": 1}]}]},
    "cocycle": {"rank": 2, "s": 1, "B": [[[0, 1], [0, 0]]]},
}

# (x1 + x2)(x2 - x1) without a twist: the two x1 x2 terms cancel
TORUS_MUL_CANCEL = {
    "a": {"rank": 2, "terms": [
        {"exp": [1, 0], "coeff": [{"qexp": [], "c": 1}]},
        {"exp": [0, 1], "coeff": [{"qexp": [], "c": 1}]}]},
    "b": {"rank": 2, "terms": [
        {"exp": [0, 1], "coeff": [{"qexp": [], "c": 1}]},
        {"exp": [1, 0], "coeff": [{"qexp": [], "c": -1}]}]},
    "cocycle": {"rank": 2, "s": 0, "B": []},
}

# TORUS_MUL with a = x1 written as 1/2 x1 + 1/2 x1 and b = x2 as 2 x2 - x2
_HALF = {"qexp": [0], "c": "1/2"}
TORUS_MUL_SPLIT = dict(
    TORUS_MUL,
    a=dict(TORUS_MUL["a"], terms=[{"exp": [1, 0], "coeff": [_HALF]},
                                  {"exp": [1, 0], "coeff": [_HALF]}]),
    b=dict(TORUS_MUL["b"], terms=[
        {"exp": [0, 1], "coeff": [{"qexp": [0], "c": 2}]},
        {"exp": [0, 1], "coeff": [{"qexp": [0], "c": -1}]}]))

AMPLE = {"form": {"n": 2, "s": 1, "phi": [[[0, 1], [-1, 0]]]},
         "X": [[1, 0], [0, 1]],
         "Omega": [[[1, 0]], [[0, 1]]],
         "probes": [[[1, 0]], [[0, 1]], [[1, 1]]]}


def _element_qexp(element, qexp):
    """The element with every parameter exponent replaced by ``qexp``."""
    return dict(element, terms=[
        dict(t, coeff=[dict(c, qexp=qexp) for c in t["coeff"]])
        for t in element["terms"]])


THM42 = {"form": TWO_BLOCK["form"],
         "parts": [{"ambient_rank": 4, "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
                   {"ambient_rank": 4, "basis": [[0, 0, 1, 0], [0, 0, 0, 1]]}]}


def _wedge(n, *forms):
    """Form JSON with one matrix per form, each given as terms (i, j, c)
    meaning c e_i ^ e_j."""
    mats = []
    for terms in forms:
        m = [[0] * n for _ in range(n)]
        for i, j, c in terms:
            m[i][j] += c
            m[j][i] -= c
        mats.append(m)
    return {"n": n, "s": len(mats), "phi": mats}


NON_ORTHOGONAL_BASE = dict(TWO_BLOCK, base={
    "V0": [], "blocks": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                         [[0, 0, 1, 0], [1, 0, 0, 1]]],
    "lines": [[0, 1], [1, 0]]})

RANK_TWO_AND_EMPTY_IMAGES = {
    "form": _wedge(5, [(0, 1, 1)], [(2, 3, 1)]),
    "parts": [{"ambient_rank": 5, "basis": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                            [0, 0, 1, 0, 0], [0, 0, 0, 1, 0]]},
              {"ambient_rank": 5, "basis": [[0, 0, 0, 0, 1]]}]}

TWIN_LINES = {"form": _wedge(4, [(0, 1, 1), (2, 3, 1)]),
              "parts": THM42["parts"]}

# one block e1, e2 of the two: the pieces do not span Q^4
ONE_BLOCK_BASE = dict(TWO_BLOCK, base={
    "V0": [], "blocks": [[[1, 0, 0, 0], [0, 1, 0, 0]]], "lines": [[1, 0]]})

# e1^e2 -> w, whose radical e3 is V0, written as 2 e3; the line as 3 w
RADICAL_BASE = {"form": _wedge(3, [(0, 1, 1)]),
                "base": {"V0": [[0, 0, 2]], "blocks": [[[1, 1, 0], [0, 1, 0]]],
                         "lines": [[3]]}}

# e1^e2 -> (2, 0) and e3^e4 -> (3, 3): saturated lines (1, 0) and (1, 1)
SCALED_LINES = {"form": _wedge(4, [(0, 1, 2), (2, 3, 3)], [(2, 3, 3)]),
                "parts": THM42["parts"]}

# e1 and e2 as parts of e1^e2 -> w: they do not commute, and pair to 0
ANTICOMMUTING = {"form": _wedge(2, [(0, 1, 1)]),
                 "parts": [{"ambient_rank": 2, "basis": [[1, 0]]},
                           {"ambient_rank": 2, "basis": [[0, 1]]}]}

# e2^e3 -> w1, e2^e4 -> w2, e1^e4 -> w3: no symplectic base
CROSSED_WEDGES = {"form": _wedge(4, [(1, 2, 1)], [(1, 3, 1)], [(0, 3, 1)])}

CROSSED_PRESENTATION = {"presentation": {
    "generators": ["a", "b", "c", "d"],
    "central": ["u", "v", "w"],
    "commutators": [{"a": 2, "b": 3, "exps": [1, 0, 0]},
                    {"a": 2, "b": 4, "exps": [0, 1, 0]},
                    {"a": 1, "b": 4, "exps": [0, 0, 1]}]}}

HALF_FORM = {"form": {"n": 3, "s": 1,
                      "phi": [[[0, 0, "1/2"], [0, 0, -1], ["-1/2", 1, 0]]]}}

# e1^e2, e2^e3, e1^e3 on Q^3: the centre is 0, so 2m = 3 is odd
ODD_AMPLE = {"form": _wedge(3, [(0, 1, 1)], [(1, 2, 1)], [(0, 2, 1)]),
             "X": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "Omega": []}


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def child_env():
    """This environment with the checkout's ``src`` first on PYTHONPATH, so
    a child ``python -m qtdelta.cli`` imports the package under test."""
    path = filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_cli(command, payload, *flags):
    proc = subprocess.run(
        [sys.executable, "-m", "qtdelta.cli", command, *flags],
        input=json.dumps(payload), capture_output=True, text=True,
        env=child_env())
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(command, payload, tmp_path, *flags):
    inp = tmp_path / "in.json"
    out = tmp_path / "out.json"
    inp.write_text(json.dumps(payload))
    code = main([command, "--input", str(inp), "--output", str(out), *flags])
    return code, out.read_text() if out.exists() else ""


class TestSubcommands:
    def test_delta_tropical(self, tmp_path):
        code, out = run_inproc("delta", TROPICAL, tmp_path)
        assert code == 0
        fan = json.loads(out)
        assert fan["dim"] == 2 and len(fan["cones"]) == 3

    def test_initform_and_tc(self, tmp_path):
        code, out = run_inproc("initform", dict(TROPICAL, chi=[0, 1]),
                               tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["B"]["basis"] == [[1, 0]]
        assert len(payload["r_chi"]["terms"]) == 2
        code, out = run_inproc("tc", dict(TROPICAL, chi=[0, 1]), tmp_path)
        assert code == 0
        assert json.loads(out)["dim"] == 1

    def test_lc_roundtrips_fan_json(self, tmp_path):
        code, out = run_inproc("delta", TROPICAL, tmp_path)
        fan = json.loads(out)
        code, out = run_inproc("lc", {"fan": fan, "point": [0, 1]}, tmp_path)
        assert code == 0
        lc = json.loads(out)
        # output fans parse back as inputs
        code, out = run_inproc("lc", {"fan": lc, "point": [0, 0]}, tmp_path)
        assert code == 0 and json.loads(out) == lc

    def test_check_lemma31_sampled(self, tmp_path):
        code, out = run_inproc("check-lemma31", TROPICAL, tmp_path,
                               "--sample", "20", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] and len(payload["checks"]) == 20

    def test_check_dim_and_induced(self, tmp_path):
        code, out = run_inproc("check-dim", TROPICAL, tmp_path,
                               "--sample", "6")
        assert code == 0 and json.loads(out)["all_hold"]
        code, out = run_inproc("check-induced", INDUCED, tmp_path,
                               "--sample", "5", "--seed", "2")
        assert code == 0 and json.loads(out)["all_equal"]

    def test_check_induced_many_characters(self, tmp_path):
        # one module and one A1 for all 40 sampled characters
        code, out = run_inproc("check-induced", INDUCED3, tmp_path,
                               "--sample", "40", "--seed", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_equal"] and len(payload["checks"]) == 40

    @pytest.mark.parametrize("command, payload, flags", [
        ("delta", TWISTED, ()),
        ("initform", dict(TWISTED, chi=[0, 1]), ()),
        ("tc", dict(TWISTED, chi=[0, 1]), ()),
        ("check-lemma31", TWISTED, ("--sample", "6")),
        ("check-dim", TWISTED, ("--sample", "4")),
        ("check-induced", dict(TWISTED_INDUCED, chi=[0, 1]), ()),
    ])
    def test_scalar_relator_coefficients(self, tmp_path, command, payload,
                                         flags):
        expected = run_inproc(command, payload, tmp_path, *flags)
        assert expected[0] == 0
        assert run_inproc(command, with_scalar_relator(payload), tmp_path,
                          *flags) == expected

    def test_torus_mul(self, tmp_path):
        code, out = run_inproc("torus-mul", TORUS_MUL, tmp_path)
        assert code == 0
        assert json.loads(out) == {"rank": 2, "terms": [
            {"exp": [1, 1], "coeff": [{"qexp": [1], "c": 1}]}]}

    def test_torus_mul_repeated_exponents_summed(self, tmp_path):
        # the product is the one of TORUS_MUL
        assert run_inproc("torus-mul", TORUS_MUL_SPLIT, tmp_path) \
            == run_inproc("torus-mul", TORUS_MUL, tmp_path)

    @pytest.mark.parametrize("qexp_a,qexp_b", [([], [0]), ([0], []),
                                               ([], [])],
                             ids=["a", "b", "both"])
    def test_torus_mul_factor_without_parameters(self, tmp_path, qexp_a,
                                                 qexp_b):
        payload = dict(TORUS_MUL, a=_element_qexp(TORUS_MUL["a"], qexp_a),
                       b=_element_qexp(TORUS_MUL["b"], qexp_b))
        assert run_inproc("torus-mul", payload, tmp_path) \
            == run_inproc("torus-mul", TORUS_MUL, tmp_path)

    def test_torus_mul_factor_with_extra_parameters(self, tmp_path):
        payload = dict(TORUS_MUL, a=_element_qexp(TORUS_MUL["a"], [0, 0]))
        assert run_inproc("torus-mul", payload, tmp_path) == (2, "")

    @pytest.mark.parametrize("command,flags,digest", [
        ("check-lemma31", ("--sample", "8", "--seed", "3"),
         "a2d74c05c5709c5a4e3275a5009ddacf882c401981ce1728da509280a9bc6268"),
        ("check-dim", ("--sample", "6", "--seed", "4"),
         "2a1e86e11147ebc6e4f236467292ac4a075c8039a5827e81b1b6965dde1963f5"),
    ])
    def test_sampled_checks_pinned(self, tmp_path, command, flags, digest):
        # digests of the output of the pairwise Delta builder
        code, out = run_inproc(command, WIDE3, tmp_path, *flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command,payload,flags,exit_code,digest", [
        # blocks e1,e2 and e3,e1+e4 pair across; their lines are swapped
        ("verify-base", NON_ORTHOGONAL_BASE, (), 1,
         "fdfeeaec963e759029685fd4dd06c72c83eb69947a1eb5abf269ae84397f5756"),
        # image lines [[1, 0], [0, 1]] and []
        ("verify-thm42", RANK_TWO_AND_EMPTY_IMAGES, (), 1,
         "1923c4cef0ffa1ac1e7ddc53653b722bdde2b454298d15b00d2cae605faaa597"),
        ("verify-thm42", TWIN_LINES, (), 1,
         "788278062b4f3dc7e21462a01a475c559b110bdec519b5a723640d1f82ff18c5"),
        ("symbase", CROSSED_WEDGES, (), 0,
         "4d98317de1732770a10298958e3301a3bfe03c62eff02e5b4928db95e20a1e2c"),
        ("group-structure", CROSSED_PRESENTATION, (), 0,
         "36c8d7aad68b3c88c9cf7c55dcac35852751bd91f82b08af17949769bff445d2"),
        ("group-structure", CROSSED_PRESENTATION, ("--format", "pretty"), 0,
         "7704bd309255faf9c9f4840dae45e4879665540cd1f18f0b89094894cd2747c1"),
        # radical spanned by (1, 1/2, 0)
        ("center", HALF_FORM, (), 0,
         "4a5c3ccca5ae3d970be64d0a1baee1576eaa5461fa2c562d62f2bef93b44d804"),
        # the degenerate report: m is null and the check fails
        ("check-ample", ODD_AMPLE, (), 1,
         "0d0ee59fa28cbb04d3b348f991de18945cdff3fbb24e7377eb4420d8d40051da"),
    ], ids=["verify-base", "thm42-images", "thm42-twin", "symbase-no-base",
            "structure-no-base", "structure-no-base-pretty", "center-half",
            "ample-degenerate"])
    def test_failure_and_no_base_payloads_pinned(self, tmp_path, command,
                                                 payload, flags, exit_code,
                                                 digest):
        # payloads that no perfbench/cli_cases.json case reaches
        code, out = run_inproc(command, payload, tmp_path, *flags)
        assert code == exit_code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_center(self, tmp_path):
        code, out = run_inproc("center", TWO_BLOCK, tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["subspace"]["basis"] == []
        assert payload["lattice"]["basis"] == []

    def test_symbase_and_verify(self, tmp_path):
        code, out = run_inproc("symbase", TWO_BLOCK, tmp_path, "--seed", "1")
        assert code == 0
        base = json.loads(out)["base"]
        code, out = run_inproc("verify-base",
                               dict(TWO_BLOCK, base=base), tmp_path)
        assert code == 0 and json.loads(out)["passed"]

    def test_verify_base_failure_exits_one(self, tmp_path):
        code, out = run_inproc("verify-base", ONE_BLOCK_BASE, tmp_path)
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_abelian_split(self, tmp_path):
        code, out = run_inproc("symbase", TWO_BLOCK, tmp_path)
        base = json.loads(out)["base"]
        payload = dict(TWO_BLOCK, base=base,
                       U=[[1, 0, 0, 0], [0, 0, 1, 0]])
        code, out = run_inproc("abelian-split", payload, tmp_path)
        assert code == 0
        comps = json.loads(out)["components"]
        assert sorted(c["basis"][0] for c in comps) \
            == [[0, 0, 1, 0], [1, 0, 0, 0]]

    def test_check_ample(self, tmp_path):
        code, out = run_inproc("check-ample", AMPLE, tmp_path)
        assert code == 0 and json.loads(out)["passed"]

    def test_group_structure(self, tmp_path):
        code, out = run_inproc("group-structure", HEISENBERG2, tmp_path)
        assert code == 0
        payload = json.loads(out)
        assert payload["decomposed"]
        assert [b["rank"] for b in payload["heisenberg_blocks"]] == [2]

    def test_verify_thm42(self, tmp_path):
        code, out = run_inproc("verify-thm42", THM42, tmp_path)
        assert code == 0 and json.loads(out)["passed"]

    def test_verify_thm42_twin_fails(self, tmp_path):
        code, out = run_inproc("verify-thm42", TWIN_LINES, tmp_path)
        assert code == 1
        report = json.loads(out)
        assert not report["distinct_image_lines"] and report["rank_one_images"]


def _sized_inputs(n):
    """One input per command that reads a size, with every size ``n`` and
    no vector in it, so that the sign of ``n`` alone can make it bad."""
    element = {"rank": n, "terms": []}
    cocycle = {"rank": n, "s": 0, "B": []}
    module = {"relator": dict(element, terms=[
        {"exp": [], "coeff": [{"qexp": [], "c": 1}]}]), "cocycle": cocycle}
    form = {"n": n, "s": 0, "phi": []}
    base = {"V0": [], "blocks": [], "lines": []}
    return {
        "delta": module,
        "check-induced": dict(module, A1={"ambient_rank": n, "basis": []},
                              chi=[]),
        "lc": {"fan": {"dim": n, "cones": [{"dim": n}]}, "point": []},
        "torus-mul": {"a": element, "b": element, "cocycle": cocycle},
        "center": {"form": form},
        "symbase": {"form": form},
        "verify-base": {"form": form, "base": base},
        "abelian-split": {"form": form, "base": base, "U": []},
        "check-ample": {"form": form, "Omega": [],
                        "X": {"ambient_dim": n, "basis": []}},
        "verify-thm42": {"form": form,
                         "parts": [{"ambient_rank": n, "basis": []}]},
    }


LINE_FAN = {"dim": 1, "cones": [{"dim": 1}]}

# each payload reaches one boundary check, which names the fault on stderr
BAD_INPUTS = {
    "parameter-counts": ("delta", dict(TROPICAL, relator=_element_qexp(
        TROPICAL["relator"], [0, 0])), (),
        "relator and cocycle parameter counts differ"),
    "ranks": ("delta", dict(TROPICAL, cocycle={
        "rank": 3, "s": 1, "B": [[[0, 0, 0], [0, 0, 0], [0, 0, 0]]]}), (),
        "relator and cocycle rank mismatch"),
    "empty-delta-sample": ("check-dim", dict(TROPICAL, relator=dict(
        TROPICAL["relator"], terms=TROPICAL["relator"]["terms"][:1])),
        ("--sample", "2"), "the Delta set is empty; nothing to sample"),
    "no-chi": ("check-lemma31", TROPICAL, (),
               "provide a 'chi' field or --sample N"),
    "fractional-exp": ("delta", dict(TROPICAL, relator=dict(
        TROPICAL["relator"], terms=[{"exp": [0, "1/2"], "coeff": [
            {"qexp": [0], "c": 1}]}])), (),
        "expected an integer, got '1/2'"),
    "fractional-cocycle": ("delta", dict(TROPICAL, cocycle={
        "rank": 2, "s": 1, "B": [[[0, "1/2"], [0, 0]]]}), (),
        "integer entry expected, got Fraction(1, 2)"),
    "fractional-sublattice": ("check-induced", dict(INDUCED, chi=[1, 2], A1={
        "ambient_rank": 2, "basis": [["1/2", 0]]}), (),
        "integer entry expected, got Fraction(1, 2)"),
    "fractional-z-form": ("verify-thm42", {
        "form": {"n": 2, "s": 1, "phi": [[[0, "1/2"], ["-1/2", 0]]]},
        "parts": []}, (), "integer entry expected, got Fraction(1, 2)"),
    "part-ambient-rank": ("verify-thm42", {
        "form": _wedge(2, [(0, 1, 1)]),
        "parts": [{"ambient_rank": 3, "basis": [[1, 0, 0]]}]}, (),
        "part with wrong ambient rank"),
    "non-abelian-probe": ("check-ample",
                          dict(AMPLE, probes=[[[1, 0], [0, 1]]]), (),
                          "probe is not an abelian subspace of X"),
    "element-ranks": ("torus-mul", dict(TORUS_MUL, b={"rank": 3, "terms": []}),
                      (), "rank mismatch"),
    "form-count": ("center", {"form": {"n": 2, "s": 2, "phi": [
        [[0, 1], [-1, 0]]]}}, (), "expected s = 2 form matrices, got 1"),
    # a subspace object in the wrong ambient dimension, in each field
    "ample-x-dim": ("check-ample", dict(AMPLE, X={
        "ambient_dim": 3, "basis": []}), (), "subspace in Q^3, expected Q^2"),
    "ample-omega-dim": ("check-ample", dict(AMPLE, Omega=[{
        "ambient_dim": 3, "basis": []}]), (), "subspace in Q^3, expected Q^2"),
    "ample-probe-dim": ("check-ample", dict(AMPLE, probes=[{
        "ambient_dim": 1, "basis": []}]), (), "subspace in Q^1, expected Q^2"),
    "split-u-dim": ("abelian-split", dict(
        TWO_BLOCK, base={"V0": [], "blocks": [], "lines": []},
        U={"ambient_dim": 3, "basis": [[1, 0, 0]]}), (),
        "subspace in Q^3, expected Q^4"),
}


class TestErrorHandling:
    @pytest.mark.parametrize("literal", [
        "0.5", "1e3", " 1/2", "1/2 ", "+3", "1_000", "\u0661",
        "\uff11\uff12", "3/-4", "1/0", "1e10000000"])
    def test_rational_outside_the_grammar_exit_two(self, tmp_path, capsys,
                                                   literal):
        # a rational is a JSON int or "p" or "p/q" in ASCII digits, q > 0
        payload = {"fan": LINE_FAN, "point": [literal]}
        code, out = run_inproc("lc", payload, tmp_path)
        assert code == 2 and out == ""
        assert repr(literal) in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["3", "-7/2", "4/1", "-0", "0/5"])
    def test_rational_in_the_grammar_accepted(self, tmp_path, literal):
        payload = {"fan": LINE_FAN, "point": [literal]}
        assert run_inproc("lc", payload, tmp_path)[0] == 0

    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_boundary_check_exit_two(self, tmp_path, capsys, case):
        command, payload, flags, message = BAD_INPUTS[case]
        code, out = run_inproc(command, payload, tmp_path, *flags)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"qtdelta: {message}\n"

    def test_malformed_json_exit_two(self):
        proc = subprocess.run([sys.executable, "-m", "qtdelta.cli", "delta"],
                              input="{bad", capture_output=True, text=True,
                              env=child_env())
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_malformed_json_message(self, tmp_path, capsys):
        inp = tmp_path / "in.json"
        inp.write_text('{"relator": 1,\n  bad}')
        assert main(["delta", "--input", str(inp)]) == 2
        assert capsys.readouterr() == ("", (
            "qtdelta: malformed JSON at line 2 column 3 (char 17): "
            "Expecting property name enclosed in double quotes\n"))

    @pytest.mark.parametrize("command,check,failed,key", [
        ("check-lemma31", "check_lemma31",
         lambda r: delta.LocalConeReport(r.chi, r.lhs, r.rhs, False),
         "all_equal"),
        ("check-dim", "check_dim_identity",
         lambda r: delta.DimReport(r.chi, r.chi_rank, r.tc_dim + 1,
                                   r.delta_dim),
         "all_hold"),
    ], ids=["lemma31", "dim"])
    def test_failed_check_exit_one_with_witness(self, tmp_path, monkeypatch,
                                                command, check, failed, key):
        # the third and fifth of six sampled checks fail; the witness is
        # the first of them
        passing = json.loads(run_inproc(command, WIDE3, tmp_path,
                                        "--sample", "6")[1])
        real = getattr(delta, check)
        calls = []

        def failing(*args):
            calls.append(args)
            report = real(*args)
            return failed(report) if len(calls) in (3, 5) else report

        monkeypatch.setattr(delta, check, failing)
        code, out = run_inproc(command, WIDE3, tmp_path, "--sample", "6")
        result = json.loads(out)
        assert code == 1 and len(calls) == 6
        assert result[key] is False and passing[key] is True
        assert result["witness"] == result["checks"][2] \
            != passing["checks"][2]
        assert [c for i, c in enumerate(result["checks"]) if i not in (2, 4)] \
            == [c for i, c in enumerate(passing["checks"]) if i not in (2, 4)]

    @pytest.mark.parametrize("text", [
        "[" * 3000 + "]" * 3000,
        json.dumps({"fan": LINE_FAN, "point": None}).replace(
            "null", "[" * 3000 + "]" * 3000)], ids=["bare", "lc-point"])
    def test_deeply_nested_json_exit_two(self, tmp_path, capsys, text):
        # nesting past the recursion limit is bad input, not an internal
        # error: bare, and as the point of an otherwise valid lc payload
        inp, out = tmp_path / "in.json", tmp_path / "out.json"
        inp.write_text(text)
        assert main(["lc", "--input", str(inp), "--output", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == "qtdelta: JSON nested too deeply\n"
        proc = subprocess.run([sys.executable, "-m", "qtdelta.cli", "lc"],
                              input=text, capture_output=True, text=True,
                              env=child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) \
            == (2, "", "qtdelta: JSON nested too deeply\n")

    def test_missing_field_exit_two(self, tmp_path):
        code, _ = run_inproc("delta", {"cocycle": TROPICAL["cocycle"]},
                             tmp_path)
        assert code == 2

    def test_unknown_flag_rejected(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qtdelta.cli", "delta", "--bogus"],
            input="{}", capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2

    def test_check_dim_outside_regular_part(self, tmp_path):
        code, _ = run_inproc("check-dim", dict(TROPICAL, chi=[1, 1]),
                             tmp_path)
        assert code == 2

    def test_non_object_term_exit_two(self, tmp_path):
        payload = dict(TROPICAL, chi=[0, 0],
                       relator={"rank": 2, "terms": [5]})
        code, _ = run_inproc("tc", payload, tmp_path)
        assert code == 2

    def test_non_array_exp_exit_two(self, tmp_path):
        payload = dict(TROPICAL, chi=[0, 0], relator={"rank": 2, "terms": [
            {"exp": 5, "coeff": [{"qexp": [0], "c": 1}]}]})
        code, _ = run_inproc("tc", payload, tmp_path)
        assert code == 2

    def test_non_object_commutator_exit_two(self, tmp_path):
        payload = {"presentation": dict(HEISENBERG2["presentation"],
                                        commutators=[7])}
        code, _ = run_inproc("group-structure", payload, tmp_path)
        assert code == 2

    def test_non_array_base_blocks_exit_two(self, tmp_path):
        payload = dict(TWO_BLOCK, base={"V0": [], "blocks": 5, "lines": []})
        code, _ = run_inproc("verify-base", payload, tmp_path)
        assert code == 2

    def test_non_array_parts_exit_two(self, tmp_path):
        payload = {"form": TWO_BLOCK["form"], "parts": 5}
        code, _ = run_inproc("verify-thm42", payload, tmp_path)
        assert code == 2

    def test_non_array_omega_exit_two(self, tmp_path):
        payload = dict(AMPLE, Omega=5)
        code, _ = run_inproc("check-ample", payload, tmp_path)
        assert code == 2

    def test_non_array_probes_exit_two(self, tmp_path):
        payload = dict(AMPLE, probes=7)
        code, _ = run_inproc("check-ample", payload, tmp_path)
        assert code == 2

    def test_negative_sample_exit_two(self, capsys):
        for command in ("check-lemma31", "check-dim", "check-induced"):
            code, out, err = run_cli(command, INDUCED, "--sample", "-3")
            assert code == 2 and out == "" and "--sample" in err, command
        with pytest.raises(SystemExit) as exc:
            main(["--sample", "-3", "check-dim"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and "--sample" in err

    @pytest.mark.parametrize("command", list(_sized_inputs(0)))
    def test_negative_size_exit_two(self, tmp_path, capsys, command):
        code, out = run_inproc(command, _sized_inputs(0)[command], tmp_path)
        assert code in (0, 1), command
        for size in (-1, -2):
            (tmp_path / "out.json").unlink(missing_ok=True)
            code, out = run_inproc(command, _sized_inputs(size)[command],
                                   tmp_path)
            err = capsys.readouterr().err
            assert code == 2 and out == "", (command, size)
            assert f"expected a nonnegative size, got {size}" in err

    def test_retries_below_one_exit_two(self, tmp_path, capsys):
        for command, payload in (("symbase", TWO_BLOCK),
                                 ("group-structure", HEISENBERG2)):
            for retries in ("0", "-2"):
                code, out = run_inproc(command, payload, tmp_path,
                                       "--retries", retries)
                err = capsys.readouterr().err
                assert code == 2 and out == "", command
                assert "retries must be at least 1" in err, command

    def test_options_before_or_after_command(self, monkeypatch, capsys):
        outs = []
        for argv in (["check-lemma31", "--sample", "4", "--seed", "3"],
                     ["--sample", "4", "--seed", "3", "check-lemma31"],
                     ["--seed", "3", "check-lemma31", "--sample", "4"]):
            monkeypatch.setattr(sys, "stdin",
                                io.StringIO(json.dumps(TROPICAL)))
            assert main(argv) == 0
            outs.append(capsys.readouterr().out)
        assert json.loads(outs[0])["all_equal"]
        assert outs == [outs[0]] * 3

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        out = capsys.readouterr().out
        assert exc.value.code == 0 and len(cli._COMMANDS) == 15
        for name, (_fn, help_text) in cli._COMMANDS.items():
            assert re.search(rf"^ +{re.escape(name)} +{re.escape(help_text)}$",
                             out, re.MULTILINE), name

    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err.splitlines()[-1] == (
            "qtdelta: error: argument command: invalid choice: 'bogus' "
            "(choose from 'delta', 'initform', 'tc', 'lc', 'check-lemma31', "
            "'check-dim', 'check-induced', 'torus-mul', 'center', 'symbase', "
            "'verify-base', 'abelian-split', 'check-ample', "
            "'group-structure', 'verify-thm42')")

    def test_zero_relator_exit_two(self, tmp_path):
        payload = {"relator": {"rank": 2, "terms": []},
                   "cocycle": TROPICAL["cocycle"]}
        code, _ = run_inproc("delta", payload, tmp_path)
        assert code == 2

    def test_unreadable_input_or_unwritable_output_exit_two(self, tmp_path,
                                                            capsys):
        inp = tmp_path / "in.json"
        inp.write_text(json.dumps(TWO_BLOCK))
        missing = str(tmp_path / "missing" / "x.json")
        for flags in (["--input", missing],
                      ["--input", str(inp), "--output", missing]):
            assert main(["center", *flags]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("qtdelta: ") and missing in err

    def test_internal_error_exit_three(self, monkeypatch, capsys):
        def failing_self_check(args, data):
            raise AssertionError("identity failed")

        monkeypatch.setitem(cli._COMMANDS, "center",
                            (failing_self_check, "radical"))
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TWO_BLOCK)))
        code = main(["center"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        assert err == "qtdelta: internal error: AssertionError: identity failed\n"


# a 3001-digit coefficient: every input number is under the interpreter's
# 4300-digit limit on int-string conversion, the 6001-digit coefficient of
# the product is over it
BIG = 10 ** 3000 + 7


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestDigitLimit:
    """An exact answer is written whatever its size; the limit holds on
    input and is restored for the rest of the process."""

    @pytest.mark.parametrize("coeff", [BIG, str(BIG)], ids=["int", "string"])
    def test_answer_past_the_limit(self, coeff):
        term = {"qexp": [0], "c": coeff}
        payload = dict(
            TORUS_MUL,
            a=dict(TORUS_MUL["a"], terms=[{"exp": [1, 0], "coeff": [term]}]),
            b=dict(TORUS_MUL["b"], terms=[{"exp": [0, 1], "coeff": [term]}]))
        limit = _digit_limit()
        code, output = _answer("torus-mul", payload)
        assert code == 0
        assert output["terms"] == [
            {"exp": [1, 1], "coeff": [{"qexp": [1], "c": BIG * BIG}]}]
        assert json_oracle.check_torus_mul(payload, output) is None
        assert _digit_limit() == limit

    def test_limit_restored_after_a_failed_write(self, monkeypatch, capsys):
        def failing_writer(value):
            raise AssertionError("writer failed")

        monkeypatch.setattr(cli.jsonio, "to_json", failing_writer)
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(TORUS_MUL)))
        limit = _digit_limit()
        assert main(["torus-mul"]) == 3
        assert capsys.readouterr().out == ""
        assert _digit_limit() == limit

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="the interpreter has no int-string limit")
    def test_input_past_the_limit_exit_two(self, capsys):
        digits = "1" + "0" * 4300
        text = json.dumps(TORUS_MUL).replace('"c": 1', f'"c": {digits}', 1)
        with mock.patch.object(sys, "stdin", io.StringIO(text)):
            assert main(["torus-mul"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "4300 digits" in err


class TestDeterminism:
    def test_byte_identical_reruns(self):
        cases = [
            ("delta", TROPICAL, ()),
            ("check-lemma31", TROPICAL, ("--sample", "8", "--seed", "3")),
            ("check-dim", TROPICAL, ("--sample", "4", "--seed", "5")),
            ("symbase", TWO_BLOCK, ("--seed", "9")),
            ("group-structure", HEISENBERG2, ("--seed", "2")),
        ]
        for command, payload, flags in cases:
            first = run_cli(command, payload, *flags)
            second = run_cli(command, payload, *flags)
            assert first == second
            assert first[0] == 0

    def test_pretty_format_stable(self):
        a = run_cli("delta", TROPICAL, "--format", "pretty")
        b = run_cli("delta", TROPICAL, "--format", "pretty")
        assert a == b
        assert a[1].startswith("{\n")


MUTANTS = (5, -1, "x", [], {}, None, True, 2.5)


def _valid_payloads(tmp_path):
    """One valid (command, payload, flags) per subcommand."""
    _, fan = run_inproc("delta", TROPICAL, tmp_path)
    _, out = run_inproc("symbase", TWO_BLOCK, tmp_path)
    base = json.loads(out)["base"]
    return [
        ("delta", TROPICAL, ()),
        ("initform", dict(TROPICAL, chi=[0, 1]), ()),
        ("tc", dict(TROPICAL, chi=[0, 1]), ()),
        ("lc", {"fan": json.loads(fan), "point": [0, 1]}, ()),
        ("check-lemma31", dict(TROPICAL, chi=[0, 1]), ()),
        ("check-dim", dict(TROPICAL, chi=[0, 1]), ()),
        ("check-induced", dict(INDUCED, chi=[1, 2]), ()),
        ("torus-mul", TORUS_MUL, ()),
        ("center", TWO_BLOCK, ()),
        ("symbase", TWO_BLOCK, ("--retries", "2")),
        ("verify-base", dict(TWO_BLOCK, base=base), ()),
        ("abelian-split", dict(TWO_BLOCK, base=base,
                               U=[[1, 0, 0, 0], [0, 0, 1, 0]]), ()),
        ("check-ample", AMPLE, ()),
        ("group-structure", HEISENBERG2, ()),
        ("verify-thm42", THM42, ()),
    ]


def _paths(value, prefix=()):
    """Every key path into the nested objects and arrays of ``value``."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(value, path, new):
    """Copy of ``value`` with the field at ``path`` set to ``new``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replace(value[path[0]], path[1:], new)
    return copy


def _mutations(payload):
    """Copies of ``payload`` with one field at any depth replaced by a
    value of the wrong kind: each value of MUTANTS for a top-level field
    or a field one level below it, and the next value of MUTANTS in turn
    for every deeper field."""
    deeper = itertools.cycle(MUTANTS)
    for path in _paths(payload):
        for bad in MUTANTS if len(path) <= 2 else (next(deeper),):
            yield _replace(payload, path, bad)


def test_cli_contract_under_field_mutation(tmp_path):
    """Every mutated payload exits 0, 1 or 2 without an escaping
    exception, and exit 1 comes with a JSON report."""
    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    commands = set()
    for command, payload, flags in _valid_payloads(tmp_path):
        commands.add(command)
        assert run_inproc(command, payload, tmp_path, *flags)[0] == 0
        for mutant in _mutations(payload):
            inp.write_text(json.dumps(mutant))
            out.unlink(missing_ok=True)
            code = main([command, "--input", str(inp), "--output", str(out),
                         *flags])
            assert code in (0, 1, 2), (command, mutant, code)
            if code == 1:
                json.loads(out.read_text())
    assert len(commands) == 15


def _integers_as_strings(value, key=None):
    """``value`` with every integral JSON number written as the string
    "n/1", except under "generators" and "central", which hold names."""
    if key in ("generators", "central"):
        return value
    if isinstance(value, dict):
        return {k: _integers_as_strings(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_integers_as_strings(v, key) for v in value]
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value}/1"
    return value


def test_output_independent_of_integer_representation(tmp_path):
    """An integral number written as "n/1" is read as a Fraction, a JSON int
    as an int; the exit code and the output bytes are the same for both."""
    out = tmp_path / "out.json"
    commands = set()
    for command, payload, flags in _valid_payloads(tmp_path):
        rewritten = _integers_as_strings(payload)
        assert rewritten != payload
        results = []
        for data in (payload, rewritten):
            out.unlink(missing_ok=True)
            results.append(run_inproc(command, data, tmp_path, *flags))
        assert results[0][0] == 0 and results[0] == results[1], command
        commands.add(command)
    assert len(commands) == 15


# Object keys the input parsers read, so that fuzzed objects reach past the
# first missing-field check.
FIELD_NAMES = ("rank", "terms", "exp", "coeff", "qexp", "c", "s", "B", "n",
               "phi", "dim", "cones", "eq", "ineq", "ambient_rank", "basis",
               "V0", "blocks", "lines", "generators", "central",
               "commutators", "a", "b", "exps")

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["", "x", "2", "-1/2", "1/0", "z"]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(FIELD_NAMES)
                                        | st.text(max_size=2),
                                        children, max_size=4)),
    max_leaves=12)


@pytest.fixture(scope="module")
def valid_payloads(tmp_path_factory):
    return {command: (payload, flags) for command, payload, flags
            in _valid_payloads(tmp_path_factory.mktemp("payloads"))}


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_cli_contract_fuzz(valid_payloads, monkeypatch, command):
    """A path drawn in one valid payload per subcommand gets a drawn JSON
    value; ``main`` in-process exits 0, 1 or 2, no exception escapes, and
    exits 0 and 1 print a JSON payload on stdout.  About half the draws pick a
    field at most two levels deep, where the container checks sit.  The
    argument parser is built once for all draws."""
    payload, flags = valid_payloads[command]
    paths = [()] + list(_paths(payload))
    shallow = [p for p in paths if len(p) <= 2]
    monkeypatch.setattr(cli, "build_parser",
                        functools.lru_cache(cli.build_parser))

    @settings(max_examples=80, derandomize=True, database=None,
              deadline=None)
    @given(path=st.sampled_from(shallow) | st.sampled_from(paths),
           value=JSON_VALUES)
    def check(path, value):
        stdin = io.StringIO(json.dumps(_replace(payload, path, value)))
        stdout, stderr = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([command, *flags])
        assert code in (0, 1, 2), (command, path, value, stderr.getvalue())
        if code in (0, 1):
            json.loads(stdout.getvalue())
        else:
            assert stdout.getvalue() == ""

    check()


# ---------------------------------------------------------------------------
# answers checked against their inputs by ``json_oracle``, which reads JSON
# only (ROADMAP item 13)

def _check_tc(payload, output):
    """``check_tc`` in the coordinates of the B that the ``initform`` answer
    on the same payload prints, once ``check_initform`` has verified it."""
    code, initform = _answer("initform", payload)
    assert code == 0, payload
    return (json_oracle.check_initform(payload, initform)
            or json_oracle.check_tc(payload, output, initform["B"]["basis"]))


ORACLE = {"delta": json_oracle.check_delta,
          "initform": json_oracle.check_initform,
          "tc": _check_tc,
          "torus-mul": json_oracle.check_torus_mul,
          "lc": json_oracle.check_lc,
          "check-lemma31": json_oracle.check_lemma31,
          "check-dim": json_oracle.check_dim,
          "center": json_oracle.check_center,
          "abelian-split": json_oracle.check_abelian_split,
          "verify-base": json_oracle.check_verify_base,
          "verify-thm42": json_oracle.check_verify_thm42,
          "symbase": json_oracle.check_symbase}
CLI_CASES = json.loads((SRC.parent / "perfbench" / "cli_cases.json")
                       .read_text(encoding="utf-8"))["cases"]


def _answer(command, payload, *flags):
    """Exit code and parsed stdout of one in-process run on ``payload``."""
    stdin, stdout = io.StringIO(json.dumps(payload)), io.StringIO()
    with mock.patch.object(sys, "stdin", stdin), \
            contextlib.redirect_stdout(stdout):
        code = main([command, *flags])
    return code, json_oracle.read(stdout.getvalue() or "null")


def _oracle_verdict(command, payload, *flags, exit_code=0):
    code, output = _answer(command, payload, *flags)
    assert code == exit_code, (command, payload)
    return ORACLE[command](payload, output)


def _negated(c):
    """A JSON rational (int or "p/q" string) negated, in the same form."""
    if isinstance(c, int):
        return -c
    return c[1:] if c.startswith("-") else "-" + c


COEFFS = st.sampled_from([1, -1, 2, -3, "1/2", "-2/3"])


@st.composite
def _products(draw):
    """torus-mul payloads of rank 1-3 and 0-2 parameters; each factor has
    its own parameter count, at most the cocycle's, and some terms are
    written a second time, negated, so that they cancel.  Exponents and
    parameter exponents are 0 or 1, so products of distinct term pairs
    often meet and sum."""
    n, s = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    small = st.integers(0, 1)

    def element():
        width = draw(st.integers(0, s))
        terms = []
        for _ in range(draw(st.integers(0, 4))):
            exp = draw(st.lists(small, min_size=n, max_size=n))
            coeff = [{"qexp": draw(st.lists(small, min_size=width,
                                            max_size=width)),
                      "c": draw(COEFFS)}
                     for _ in range(draw(st.integers(1, 2)))]
            terms.append({"exp": exp, "coeff": coeff})
            if draw(st.booleans()):
                terms.append({"exp": exp, "coeff": [
                    dict(c, c=_negated(c["c"])) for c in coeff]})
        return {"rank": n, "terms": terms}
    forms = draw(st.lists(st.lists(st.lists(st.integers(-2, 2), min_size=n,
                                            max_size=n),
                                   min_size=n, max_size=n),
                          min_size=s, max_size=s))
    return {"a": element(), "b": element(),
            "cocycle": {"rank": n, "s": s, "B": forms}}


@st.composite
def _flat_relators(draw):
    """delta payloads whose support, 1-8 points, lies in a translate of a
    proper sublattice of Z^n, n = 2..4 (``affine_sublattice_points``); a
    point may be written twice with cancelling coefficients, which drops
    it from the support while another point is left."""
    n = draw(st.integers(2, 4))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    support = affine_sublattice_points(rng, n, draw(st.integers(1, n - 1)),
                                       draw(st.integers(1, 8)))
    s = draw(st.integers(0, 1))
    width = draw(st.sampled_from([0, s]))
    terms = [{"exp": list(a), "coeff": [{"qexp": [0] * width,
                                         "c": draw(COEFFS)}]}
             for a in support]
    if len(terms) > 1 and draw(st.booleans()):
        terms.append(dict(terms[0], coeff=[
            dict(c, c=_negated(c["c"])) for c in terms[0]["coeff"]]))
    forms = [[[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)]
             for _ in range(s)]
    return {"relator": {"rank": n, "terms": terms},
            "cocycle": {"rank": n, "s": s, "B": forms}}


# a radical of dimension 2 whose RREF basis has a Fraction entry
CENTER_RATIONAL = {"form": {"n": 4, "s": 2, "phi": [
    [[0, "1/2", 0, 3], ["-1/2", 0, 0, 0], [0, 0, 0, 0], [-3, 0, 0, 0]],
    [[0] * 4] * 4]}}


# U = span{(2, 1, 0, 0), (0, 0, 2, -1)} given by mixed rational rows, over
# the two blocks of TWO_BLOCK spanned by other rows than the unit vectors
SPLIT_TWO = dict(TWO_BLOCK, base={
    "V0": [], "blocks": [[[1, 1, 0, 0], [0, 2, 0, 0]],
                         [[0, 0, 1, 3], [0, 0, 0, "1/2"]]],
    "lines": [[1, 0], [0, 1]]},
    U=[[2, 1, 2, -1], ["1/2", "1/4", -2, 1]])

# three blocks e1^e2, e3^e4, e5^e6 with image lines (1, 0), (1, 1), (0, 1);
# U = span{v1, v2, v3}, v_i in block i, given as v1 + v2, v2 - v3, v1/2 + v3
SPLIT_THREE = {
    "form": _wedge(6, [(0, 1, 1), (2, 3, 1)], [(2, 3, 1), (4, 5, 2)]),
    "base": {"V0": [], "blocks": [[[1, "1/2", 0, 0, 0, 0],
                                   [0, 1, 0, 0, 0, 0]],
                                  [[0, 0, 1, 0, 0, 0],
                                   [0, 0, "2/3", 1, 0, 0]],
                                  [[0, 0, 0, 0, 1, 1], [0, 0, 0, 0, 0, 2]]],
             "lines": [[1, 0], [1, 1], [0, 1]]},
    "U": [[2, 1, 3, 2, 0, 0], [0, 0, 3, 2, -1, 1], [1, "1/2", 0, 0, 1, -1]]}


# three cones in Q^3 given with redundant, scaled and rational rows: the
# nonnegative orthant, a 2-dimensional cone on the plane x = y that meets it
# on the ray of (0, 0, 1), and the ray of (0, -1, 0)
LC_FAN = {"dim": 3, "cones": [
    {"dim": 3, "ineq": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]]},
    {"dim": 3, "eq": [[1, -1, 0]],
     "ineq": [[-1, 0, 0], [0, 0, 2], ["1/2", 0, 1]]},
    {"dim": 3, "eq": [[0, 0, 1]], "ineq": [[0, -1, 0], [1, 0, 0], [-1, 0, 0]]},
]}
LC_AT_APEX = {"fan": LC_FAN, "point": [0, 0, 0]}


@st.composite
def _degenerate_forms(draw):
    """center payloads Phi_k = C^T A_k C on Q^3..Q^5, for 1-3 drawn
    antisymmetric integer r x r matrices A_k and one small rational r x n
    matrix C, r < n, so that the radical holds the kernel of C; with r odd
    one form alone is degenerate on the rest.  Entries are written as "p"
    or "p/q" strings."""
    n, s = draw(st.integers(3, 5)), draw(st.integers(1, 3))
    r = draw(st.integers(2, n - 1))
    entry = st.sampled_from([1, 0, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    C = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                      min_size=r, max_size=r))
    forms = []
    for _ in range(s):
        A = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                A[i][j] = draw(st.integers(-2, 2))
                A[j][i] = -A[i][j]
        forms.append([[str(sum(C[a][i] * A[a][b] * C[b][j]
                               for a in range(r) for b in range(r)))
                       for j in range(n)] for i in range(n)])
    return {"form": {"n": n, "s": s, "phi": forms}}


class TestJsonOracle:
    @pytest.mark.parametrize(
        "case", [c for c in CLI_CASES if c["command"] in ORACLE],
        ids=lambda c: c["command"])
    def test_cli_cases(self, case):
        assert _oracle_verdict(case["command"], case["payload"],
                               *case["flags"]) is None

    @pytest.mark.parametrize("command,payload", [
        ("delta", TROPICAL),
        ("delta", TWISTED),
        ("delta", with_scalar_relator(TWISTED)),
        ("delta", WIDE3),
        ("delta", _sized_inputs(0)["delta"]),
        ("torus-mul", TORUS_MUL),
        ("torus-mul", TORUS_MUL_SPLIT),
        ("torus-mul", TORUS_MUL_CANCEL),
        ("torus-mul", dict(TORUS_MUL, a=_element_qexp(TORUS_MUL["a"], []))),
        ("torus-mul", dict(TORUS_MUL, b=_element_qexp(TORUS_MUL["b"], []))),
        ("torus-mul", _sized_inputs(0)["torus-mul"]),
        ("center", TWO_BLOCK),
        ("center", HALF_FORM),
        ("center", CENTER_RATIONAL),
        ("abelian-split", SPLIT_TWO),
        ("abelian-split", SPLIT_THREE),
        ("abelian-split", _sized_inputs(0)["abelian-split"]),
        ("initform", BINOMIAL_AT),
        ("initform", COLLINEAR_AT),
        ("tc", BINOMIAL_AT),
        ("tc", COLLINEAR_AT),
        ("lc", LC_AT_APEX),
        # on a ray of the orthant, inside it, on the ray two cones share,
        # and off the fan
        ("lc", dict(LC_AT_APEX, point=[2, 0, 0])),
        ("lc", dict(LC_AT_APEX, point=["1/2", 1, 3])),
        ("lc", dict(LC_AT_APEX, point=[0, 0, 5])),
        ("lc", dict(LC_AT_APEX, point=[-1, -1, -1])),
    ])
    def test_payloads(self, command, payload):
        assert _oracle_verdict(command, payload) is None

    @pytest.mark.parametrize("payload", [TROPICAL, WIDE3],
                             ids=["tropical", "wide3"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_lemma31_samples(self, payload, seed):
        assert _oracle_verdict("check-lemma31", payload, "--sample", "6",
                               "--seed", str(seed)) is None

    @pytest.mark.parametrize("payload", [TWISTED, WIDE3],
                             ids=["twisted", "wide3"])
    def test_dimension_samples(self, payload):
        assert _oracle_verdict("check-dim", payload, "--sample", "6",
                               "--seed", "3") is None

    @pytest.mark.parametrize("command,payload,exit_code", [
        ("verify-base", SPLIT_TWO, 0),
        ("verify-base", SPLIT_THREE, 0),
        ("verify-base", RADICAL_BASE, 0),
        ("verify-base", _sized_inputs(0)["verify-base"], 0),
        ("verify-base", NON_ORTHOGONAL_BASE, 1),
        ("verify-base", ONE_BLOCK_BASE, 1),
        ("verify-base", dict(RADICAL_BASE, base=dict(
            RADICAL_BASE["base"], V0=[[1, 0, 1]])), 1),
        ("verify-thm42", THM42, 0),
        ("verify-thm42", SCALED_LINES, 0),
        ("verify-thm42", RANK_TWO_AND_EMPTY_IMAGES, 1),
        ("verify-thm42", TWIN_LINES, 1),
        ("verify-thm42", ANTICOMMUTING, 1),
        ("verify-thm42", _sized_inputs(0)["verify-thm42"], 1),
    ])
    def test_verifier_payloads(self, command, payload, exit_code):
        assert _oracle_verdict(command, payload,
                               exit_code=exit_code) is None

    @pytest.mark.parametrize("payload", [TWO_BLOCK,
                                         {"form": SPLIT_THREE["form"]}],
                             ids=["two-block", "three-block"])
    def test_found_bases(self, payload):
        code, output = _answer("symbase", payload, "--seed", "1")
        assert code == 0
        assert _oracle_verdict("verify-base",
                               dict(payload, base=output["base"])) is None

    @pytest.mark.parametrize("payload,flags", [
        (TWO_BLOCK, ("--seed", "1")),
        ({"form": SPLIT_THREE["form"]}, ("--seed", "1")),
        ({"form": RADICAL_BASE["form"]}, ()),
        ({"form": SCALED_LINES["form"]}, ("--seed", "5")),
        (CROSSED_WEDGES, ()),
        (_sized_inputs(0)["symbase"], ()),
    ], ids=["two-block", "three-block", "radical", "scaled", "no-base",
            "empty"])
    def test_symbase_answers(self, payload, flags):
        assert _oracle_verdict("symbase", payload, *flags) is None

    def test_symbase_no_base_attempts(self):
        _, output = _answer("symbase", CROSSED_WEDGES, "--retries", "3")
        assert output["no_base"]["attempts"] == 3
        assert json_oracle.check_symbase(CROSSED_WEDGES, output,
                                         retries=3) is None
        assert json_oracle.check_symbase(CROSSED_WEDGES, output) \
            == "attempts is 3, expected 8"

        def verdict(**changed):
            return json_oracle.check_symbase(CROSSED_WEDGES, {
                "no_base": dict(output["no_base"], **changed)}, retries=3)

        assert verdict(reason="unlucky") \
            == "reason 'unlucky' is none of the search's"
        assert verdict(evidence=None) \
            == "a failed verification left no evidence"
        assert verdict(evidence=dict(output["no_base"]["evidence"],
                                     blocks_orthogonal=True)) \
            == "the evidence is not a failed base report"

    def test_wrong_symbase_caught(self):
        _, output = _answer("symbase", {"form": SPLIT_THREE["form"]},
                            "--seed", "1")
        payload = {"form": SPLIT_THREE["form"]}
        base = output["base"]

        def verdict(**changed):
            return json_oracle.check_symbase(
                payload, {"base": dict(base, **changed)})

        assert verdict() is None
        lines = base["lines"]
        assert verdict(lines=[lines[1], lines[0]] + lines[2:]) \
            == "the printed base fails lines_consistent"
        # e6 moved from block 0 (e5, e6) to block 1 (e3, e4): it pairs
        # with e5, now in another block
        blocks = base["blocks"]
        assert blocks[:2] == [[[0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]],
                              [[0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]]]
        moved = [blocks[0][:1], blocks[1] + blocks[0][1:]] + blocks[2:]
        assert verdict(blocks=moved) \
            == "the printed base fails blocks_orthogonal"
        assert verdict(lines=[[-x for x in lines[0]]] + lines[1:]) \
            == f"line 0 is {[-x for x in lines[0]]!r}, not primitive " \
               f"with a positive first nonzero entry"
        # a wrong V0: the radical of RADICAL_BASE's form is e3, not e1 + e3
        radical = {"form": RADICAL_BASE["form"]}
        _, output = _answer("symbase", radical)
        assert output["base"]["V0"] == [[0, 0, 1]]
        assert json_oracle.check_symbase(radical, {"base": dict(
            output["base"], V0=[[1, 0, 1]])}) \
            == "the printed base fails centre_is_v0"
        assert json_oracle.check_symbase(radical, {"base": dict(
            output["base"], V0=[[0, 0, 2]])}) \
            == "V0: row 0 has pivot entry 2, expected 1"

    def test_wrong_base_report_caught(self):
        _, output = _answer("verify-base", SPLIT_TWO)
        assert output["passed"]
        assert json_oracle.check_verify_base(
            SPLIT_TWO, dict(output, blocks_orthogonal=False)) \
            == "blocks_orthogonal is False, expected True"
        _, output = _answer("verify-base", NON_ORTHOGONAL_BASE)
        assert not output["blocks_orthogonal"]
        assert json_oracle.check_verify_base(
            NON_ORTHOGONAL_BASE, dict(output, passed=True)) \
            == "passed is True, expected False"

    def test_wrong_thm42_report_caught(self):
        _, output = _answer("verify-thm42", SCALED_LINES)
        assert output["image_lines"] == [[[1, 0]], [[1, 1]]]

        def verdict(lines):
            return json_oracle.check_verify_thm42(
                SCALED_LINES, dict(output, image_lines=lines))

        assert verdict(output["image_lines"][::-1]) \
            == "image line 0 does not span the pairings of part 0"
        assert verdict([[[2, 0]], [[1, 1]]]) \
            == "image line 0 is not saturated: its maximal minors have gcd 2"
        assert verdict([[[1, 0]], [[-1, -1]]]) \
            == "image line 1 row 0 has pivot entry -1, expected positive"
        _, output = _answer("verify-thm42", TWIN_LINES)
        assert not output["distinct_image_lines"]
        assert json_oracle.check_verify_thm42(
            TWIN_LINES, dict(output, passed=True)) \
            == "passed is True, expected False"

    def test_rationals_past_the_digit_limit(self):
        # (c/2) x^(1,0) times (c/3) x^(0,1) prints c^2/6, whose numerator has
        # more digits than the interpreter's int-string limit
        def factor(exp, den):
            return dict(TORUS_MUL["a"], terms=[
                {"exp": exp, "coeff": [{"qexp": [0], "c": f"{BIG}/{den}"}]}])
        payload = dict(TORUS_MUL, a=factor([1, 0], 2), b=factor([0, 1], 3))
        limit = _digit_limit()
        code, output = _answer("torus-mul", payload)
        assert code == 0
        assert json_oracle.check_torus_mul(payload, output) is None
        coeff = output["terms"][0]["coeff"][0]
        assert coeff["c"].endswith("49/6")
        coeff["c"] = coeff["c"][:-len("49/6")] + "50/6"
        assert json_oracle.check_torus_mul(payload, output).startswith(
            "coefficient of x^[1, 1] is {(1,): Fraction(")
        assert _digit_limit() == limit

    def test_flipped_q_exponent_caught(self):
        _, output = _answer("torus-mul", TORUS_MUL)
        output["terms"][0]["coeff"][0]["qexp"][0] *= -1
        assert json_oracle.check_torus_mul(TORUS_MUL, output) \
            == "coefficient of x^[1, 1] is {(-1,): Fraction(1, 1)}, " \
               "expected {(1,): Fraction(1, 1)}"

    def test_dropped_cone_caught(self):
        _, output = _answer("delta", TROPICAL)
        for k in range(len(output["cones"])):
            dropped = dict(output, cones=output["cones"][:k]
                           + output["cones"][k + 1:])
            reason = json_oracle.check_delta(TROPICAL, dropped)
            assert reason.endswith(
                "minimum attained twice is True, printed fan member is "
                "False")

    def test_wrong_initial_form_caught(self):
        _, output = _answer("initform", BINOMIAL_AT)
        assert output["B"]["basis"] == [[1, 0, -3], [0, 1, -1]]

        def verdict(row):
            wrong = json.loads(json.dumps(output))
            wrong["B"]["basis"][1] = row
            return json_oracle.check_initform(BINOMIAL_AT, wrong)

        assert verdict([0, -1, 1]) \
            == "B row 1 has pivot entry -1, expected positive"
        assert verdict([0, 1, 0]) == "B row 1 is not orthogonal to chi"
        _, output = _answer("tc", BINOMIAL_AT)
        assert len(output["cones"]) == 1
        assert json_oracle.check_tc(BINOMIAL_AT, dict(output, cones=[]),
                                    [[1, 0, -3], [0, 1, -1]]) \
            == "psi [-2, -1]: minimum attained twice is True, printed fan " \
               "member is False"

    def test_wrong_local_cone_caught(self):
        _, output = _answer("lc", LC_AT_APEX)
        assert len(output["cones"]) == 3
        for k in range(3):
            dropped = dict(output, cones=output["cones"][:k]
                           + output["cones"][k + 1:])
            assert json_oracle.check_lc(LC_AT_APEX, dropped).endswith(
                "the epsilon rule is True, printed fan member is False")
        flipped = json.loads(json.dumps(output))
        assert flipped["cones"][2]["ineq"][0] == [0, 0, 1]
        flipped["cones"][2]["ineq"][0] = [0, 0, -1]
        assert json_oracle.check_lc(LC_AT_APEX, flipped) \
            == "y [0, 0, -2]: the epsilon rule is False, printed fan " \
               "member is True"

    def test_dropped_rhs_cone_caught(self):
        _, output = _answer("check-lemma31", TROPICAL, "--sample", "6",
                            "--seed", "11")
        report = output["checks"][0]
        assert report["chi"] == [-1, -1] and len(report["rhs"]["cones"]) == 1
        dropped = json.loads(json.dumps(output))
        dropped["checks"][0]["rhs"]["cones"] = []
        assert json_oracle.check_lemma31(TROPICAL, dropped) \
            == "check 0 rhs y [-2, -2]: minimum attained twice is True, " \
               "printed fan member is False"
        dropped["checks"][0]["rhs"] = report["rhs"]
        dropped["all_equal"] = False
        assert json_oracle.check_lemma31(TROPICAL, dropped) \
            == "all_equal is False with 6 equal checks"

    def test_wrong_dimension_caught(self):
        _, output = _answer("check-dim", TROPICAL, "--sample", "2")
        assert [r["tc_dim"] for r in output["checks"]] == [0, 0]

        def verdict(**changes):
            wrong = json.loads(json.dumps(output))
            wrong.update(changes.pop("top", {}))
            wrong["checks"][1].update(changes)
            return json_oracle.check_dim(TROPICAL, wrong)

        assert verdict(tc_dim=1) == "check 1 tc_dim is 1, expected 0"
        assert verdict(holds=False) \
            == "check 1 holds is False, expected True"
        assert verdict(top={"all_hold": False}) \
            == "all_hold is False, expected True"

    def test_wrong_centre_caught(self):
        _, output = _answer("center", CENTER_RATIONAL)
        assert output["subspace"]["basis"] == [[0, 1, 0, "-1/6"],
                                               [0, 0, 1, 0]]

        def verdict(row, entries):
            wrong = json.loads(json.dumps(output))
            wrong["subspace"]["basis"][row:row + 1] = entries
            return json_oracle.check_center(CENTER_RATIONAL, wrong)

        assert verdict(1, []) == "subspace dimension 1, expected 2"
        assert verdict(0, [[0, 1, 0, "1/6"]]) \
            == "subspace row 0 is not in the radical of form 0"
        assert verdict(0, [[0, -1, 0, "1/6"]]) \
            == "row 0 has pivot entry -1, expected 1"

    def test_wrong_split_caught(self):
        _, output = _answer("abelian-split", SPLIT_TWO)
        assert [c["basis"] for c in output["components"]] \
            == [[[1, "1/2", 0, 0]], [[0, 0, 1, "-1/2"]]]
        dropped = json.loads(json.dumps(output))
        dropped["components"][1]["basis"] = []
        assert json_oracle.check_abelian_split(SPLIT_TWO, dropped) \
            == "component 1 has dimension 0, expected 1, that of U cap " \
               "block 1"
        swapped = dict(output, components=output["components"][::-1])
        assert json_oracle.check_abelian_split(SPLIT_TWO, swapped) \
            == "component 0 row 0 is not in block 0"

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(payload=_products())
    def test_drawn_products(self, payload):
        assert _oracle_verdict("torus-mul", payload) is None

    @settings(max_examples=40, derandomize=True, database=None,
              deadline=None)
    @given(payload=_flat_relators())
    def test_drawn_flat_supports(self, payload):
        assert _oracle_verdict("delta", payload) is None

    @settings(max_examples=60, derandomize=True, database=None,
              deadline=None)
    @given(payload=_degenerate_forms())
    def test_drawn_centres(self, payload):
        assert _oracle_verdict("center", payload) is None


# ---------------------------------------------------------------------------
# the canonical H-representation of a cone is computed where it is written
# and nowhere else: once per cone printed, so a cone printed twice is read
# twice

# cones printed per command
WRITTEN_CONES = {"delta": 3, "tc": 1, "lc": 1, "check-lemma31": 10}


def _printed_cones(value):
    """The cone objects ({"dim", "eq", "ineq"}) in a JSON value."""
    if isinstance(value, list):
        return [c for x in value for c in _printed_cones(x)]
    if isinstance(value, dict):
        return ([value] if set(value) == {"dim", "eq", "ineq"} else []) + [
            c for x in value.values() for c in _printed_cones(x)]
    return []


@pytest.mark.parametrize("case", CLI_CASES, ids=lambda c: c["command"])
def test_canonical_hrep_once_per_written_cone(case, monkeypatch):
    calls = []
    canonical_hrep = polyhedral.Cone.canonical_hrep
    monkeypatch.setattr(polyhedral.Cone, "canonical_hrep", lambda self: (
        calls.append(self), canonical_hrep(self))[1])
    code, output = _answer(case["command"], case["payload"], *case["flags"])
    assert code == case["exit"]
    cones = _printed_cones(output)
    assert len(cones) == WRITTEN_CONES.get(case["command"], 0)
    assert len(calls) == len(cones)
