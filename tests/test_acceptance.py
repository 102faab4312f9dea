"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.  Counts and time budgets are fixed here; every numeric comparison is
exact (no tolerances anywhere).
"""

import json
import random
import time
from fractions import Fraction

import pytest

from qtdelta import polyhedral, torus
from qtdelta.cli import main as cli_main
from qtdelta.delta import (
    Character,
    OneRelatorModule,
    check_dim_identity,
    check_induced,
    check_lemma31,
    delta_set,
    sample_delta_point,
    tc_delta,
)
from qtdelta.groups import (
    add_cyclic,
    central_product,
    commutator_form,
    heisenberg,
    structure_report,
)
from qtdelta.lattice import Sublattice, Subspace, subspace_sum
from qtdelta.polyhedral import Cone, Fan, fan_dim, fan_equal
from qtdelta.symplectic import (
    NoBaseFound,
    SymplecticBase,
    compute_symplectic_base,
    decompose_abelian,
    is_abelian,
    verify_symplectic_base,
)

from oracles import (
    base_exists_oracle,
    block_form,
    conjugate_form,
    conjugated_block_instance,
    distinct_lines,
    inverse_fraction,
    random_character,
    random_cocycle,
    random_monomial,
    random_relator,
    random_saturated_sublattice,
    random_unimodular,
)


def report(num, name, t0, budget=None):
    elapsed = time.perf_counter() - t0
    over = budget is not None and elapsed >= budget
    verdict = "FAIL (over budget)" if over else "PASS"
    print(f"ACCEPTANCE {num} ({name}): {verdict} ({elapsed:.1f}s)")
    assert not over, f"criterion {num} exceeded its {budget}s budget"


def random_module(rng):
    n = rng.choice([2, 3, 4])
    s = rng.choice([1, 2])
    return OneRelatorModule(random_relator(rng, n, s, max_support=8),
                            random_cocycle(rng, n, s))


def instance_stream(count_modules, seed):
    rng = random.Random(seed)
    for index in range(count_modules):
        yield index, random_module(rng), rng


def test_criterion_1_lemma31_suite():
    t0 = time.perf_counter()
    checks = 0
    for index, module, rng in instance_stream(75, seed=101):
        fan = delta_set(module)
        characters = []
        for cone_index in range(min(2, len(fan.cones))):
            characters.append(sample_delta_point(module, cone_index,
                                                 seed=index))
        while len(characters) < 4:
            characters.append(Character(random_character(rng, module.rank)))
        for chi in characters:
            assert check_lemma31(module, chi).equal, \
                (module.relator.support, chi.coords)
            checks += 1
    assert checks >= 300
    report(1, f"local-cone identity on {checks} instances", t0, budget=120)


def test_criterion_2_dimension_identity_suite():
    t0 = time.perf_counter()
    checks = 0
    for index, module, rng in instance_stream(75, seed=101):
        fan = delta_set(module)
        if fan.is_empty:
            continue
        top = fan_dim(fan)
        top_indices = [i for i, c in enumerate(fan.cones) if c.dim == top]
        for repeat in range(4):
            cone_index = top_indices[repeat % len(top_indices)]
            chi = sample_delta_point(module, cone_index,
                                     seed=1000 * index + repeat)
            assert check_dim_identity(module, chi).holds
            checks += 1
    assert checks >= 300
    report(2, f"rank + trailing dimension on {checks} samples", t0, budget=60)


def test_criterion_3_induced_suite():
    t0 = time.perf_counter()
    rng = random.Random(303)
    checks = 0
    while checks < 100:
        n = rng.choice([2, 3, 4])
        rank = rng.randint(1, min(3, n))
        lattice = random_saturated_sublattice(rng, n, rank)
        support = set()
        while len(support) < rng.randint(2, 5):
            coeffs = [rng.randint(-2, 2) for _ in range(rank)]
            support.add(tuple(sum(coeffs[i] * lattice.basis[i][j]
                                  for i in range(rank)) for j in range(n)))
        s = rng.choice([1, 2])
        terms = {a: {(0,) * s: Fraction(rng.choice([1, 2, -1]), 1)}
                 for a in support}
        module = OneRelatorModule(torus.QTorusElement(n, s, terms),
                                  random_cocycle(rng, n, s))
        chi = Character(random_character(rng, n))
        assert check_induced(module, lattice, chi).equal
        checks += 1
    report(3, f"induced-module law on {checks} embeddings", t0, budget=60)


def test_criterion_4_tropical_line_golden():
    t0 = time.perf_counter()
    relator = (torus.QTorusElement.one(2, 1)
               + torus.QTorusElement.monomial(2, 1, (1, 0))
               + torus.QTorusElement.monomial(2, 1, (0, 1)))
    zero = torus.CocycleForm(2, (((0, 0), (0, 0)),))
    module = OneRelatorModule(relator, zero)
    fan = delta_set(module)
    golden = Fan(2, [
        Cone.from_constraints(2, [(1, 0)], [(0, 1)]),
        Cone.from_constraints(2, [(0, 1)], [(1, 0)]),
        Cone.from_constraints(2, [(1, -1)], [(-1, 0)]),
    ])
    assert fan_equal(fan, golden)
    chi = Character((0, 1))
    lc = polyhedral.local_cone(fan, chi.coords)
    assert fan_equal(lc, Fan(2, [Cone.from_constraints(2, [(1, 0)])]))
    tc = tc_delta(module, chi)
    assert fan_equal(tc, Fan(1, [Cone.from_constraints(1, [(1,)])]))
    report(4, "tropical-line golden fixtures", t0)


def test_criterion_5_symplectic_roundtrip():
    t0 = time.perf_counter()
    rng = random.Random(505)
    total = 0
    successes = 0
    while total < 200:
        t = rng.randint(1, 3)
        dims = [rng.choice([2, 4]) for _ in range(t)]
        s = rng.randint(1, 3)
        try:
            lines = distinct_lines(rng, t, s)
        except RuntimeError:
            continue
        central = rng.choice([0, 1, 2])
        phi, expected = conjugated_block_instance(rng, dims, lines, s,
                                                  central)
        total += 1
        base = compute_symplectic_base(phi, seed=total)
        if isinstance(base, NoBaseFound):
            continue
        assert verify_symplectic_base(phi, base).passed
        got = sorted(subspace_sum(base.V0, b).basis for b in base.blocks)
        want = sorted(subspace_sum(base.V0, b).basis for b in expected)
        if got == want:
            successes += 1
    assert successes >= 0.99 * total, f"{successes}/{total}"
    report(5, f"base recovery on {successes}/{total} conjugated forms", t0,
           budget=120)


def test_criterion_6_abelian_decomposition_suite():
    t0 = time.perf_counter()
    rng = random.Random(606)
    decomposed = 0
    rejected = 0
    while decomposed < 200:
        t = rng.randint(1, 3)
        dims = [rng.choice([2, 4]) for _ in range(t)]
        s = rng.randint(1, 3)
        try:
            lines = distinct_lines(rng, t, s)
        except RuntimeError:
            continue
        n = sum(dims)
        G = random_unimodular(rng, n, ops=8)
        phi = conjugate_form(block_form(dims, lines, s), G)
        ginv = inverse_fraction(G)
        base = compute_symplectic_base(phi, seed=decomposed)
        if isinstance(base, NoBaseFound):
            continue
        for _ in range(5):
            rows = []
            off = 0
            for d in dims:
                half = d // 2
                sym = [[rng.randint(-2, 2) for _ in range(half)]
                       for _ in range(half)]
                for i in range(half):
                    for j in range(i):
                        sym[i][j] = sym[j][i]
                for i in range(half):
                    vec = [Fraction(0)] * n
                    vec[off + i] = Fraction(1)
                    for j in range(half):
                        vec[off + half + j] = Fraction(sym[i][j])
                    rows.append(tuple(vec))
                off += d
            mapped = [tuple(sum(ginv[r][c] * row[c] for c in range(n))
                            for r in range(n)) for row in rows]
            space = Subspace.from_rows(n, mapped)
            parts = decompose_abelian(phi, base, space)
            assert sum(p.dim for p in parts) == space.dim == n // 2
            for part, block in zip(parts, base.blocks):
                assert 2 * part.dim == block.dim
            decomposed += 1
        # a non-abelian probe must be rejected
        if n >= 4 and not is_abelian(phi, Subspace.full(n)):
            with pytest.raises(ValueError):
                decompose_abelian(phi, base, Subspace.full(n))
            rejected += 1
    assert rejected > 0
    report(6, f"abelian split on {decomposed} subspaces", t0, budget=30)


def no_base_fixture():
    from qtdelta.symplectic import AlternatingMapQ
    m1 = [[0] * 4 for _ in range(4)]
    m1[0][1], m1[1][0] = 1, -1
    m1[2][3], m1[3][2] = 1, -1
    m2 = [[0] * 4 for _ in range(4)]
    m2[0][2], m2[2][0] = 1, -1
    return AlternatingMapQ(4, 2, (tuple(map(tuple, m1)),
                                  tuple(map(tuple, m2))))


def test_criterion_7_merged_and_no_base_fixtures():
    t0 = time.perf_counter()
    merged = block_form([2, 2], [(1,), (1,)], 1)
    base = compute_symplectic_base(merged, seed=0)
    assert isinstance(base, SymplecticBase)
    assert len(base.blocks) == 1 and base.blocks[0].dim == 4
    assert base.lines == ((1,),)
    assert verify_symplectic_base(merged, base).passed

    fixture = no_base_fixture()
    outcome = compute_symplectic_base(fixture, seed=0, retries=8)
    assert isinstance(outcome, NoBaseFound) and outcome.attempts == 8
    assert base_exists_oracle(fixture) is False
    # the oracle agrees with the pencil search on a decomposable twin
    assert base_exists_oracle(block_form([2, 2], [(1, 0), (0, 1)], 2)) is True
    report(7, "merged-line and no-base fixtures", t0)


def test_criterion_8_torus_algebra():
    t0 = time.perf_counter()
    rng = random.Random(808)
    associativity = identity = commutator = 0
    while associativity < 4000:
        n, s = rng.randint(1, 4), rng.randint(1, 3)
        cocycle = random_cocycle(rng, n, s)
        a = random_monomial(rng, n, s)
        b = random_monomial(rng, n, s)
        c = random_monomial(rng, n, s)
        left = torus.multiply(torus.multiply(a, b, cocycle), c, cocycle)
        right = torus.multiply(a, torus.multiply(b, c, cocycle), cocycle)
        assert left == right
        associativity += 1
    while identity < 3000:
        n, s = rng.randint(1, 4), rng.randint(1, 3)
        cocycle = random_cocycle(rng, n, s)
        a = random_monomial(rng, n, s)
        one = torus.QTorusElement.one(n, s)
        assert torus.multiply(a, one, cocycle) == a
        assert torus.multiply(one, a, cocycle) == a
        identity += 1
    while commutator < 3000:
        n, s = rng.randint(1, 4), rng.randint(1, 3)
        cocycle = random_cocycle(rng, n, s)
        phi = torus.commutator_form(cocycle)
        ea = tuple(rng.randint(-3, 3) for _ in range(n))
        eb = tuple(rng.randint(-3, 3) for _ in range(n))
        xa = torus.QTorusElement.monomial(n, s, ea)
        xb = torus.QTorusElement.monomial(n, s, eb)
        ab = torus.multiply(xa, xb, cocycle)
        shift = phi.pairing(ea, eb)
        expected = torus.QTorusElement.monomial(
            n, s, tuple(x + y for x, y in zip(ea, eb)),
            qexp=tuple(cocycle.twist(eb, ea)[k] + shift[k]
                       for k in range(s)))
        assert ab == expected
        commutator += 1
    total = associativity + identity + commutator
    assert total >= 10_000
    report(8, f"twisted algebra laws on {total} monomial checks", t0,
           budget=30)


def test_criterion_9_structure_pipeline():
    t0 = time.perf_counter()
    for m in (1, 2, 3, 4):
        rep = structure_report(heisenberg(m), seed=0)
        assert rep.decomposed and rep.cyclic_rank == 0
        assert [b.rank for b in rep.heisenberg_blocks] == [m]
        assert rep.heisenberg_blocks[0].line == (1,)

    ranks = [1, 2, 1]
    pres = heisenberg(ranks[0])
    for r in ranks[1:]:
        pres = central_product(pres, heisenberg(r))
    pres = add_cyclic(add_cyclic(pres))
    rep = structure_report(pres, seed=0)
    assert rep.decomposed
    assert rep.cyclic_rank == 2
    assert sorted(b.rank for b in rep.heisenberg_blocks) == sorted(ranks)
    assert {b.line for b in rep.heisenberg_blocks} \
        == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert rep.diagnostics["theorem42"].passed

    twin = central_product(heisenberg(1), heisenberg(1),
                           identify_centres=True)
    audit = torus.verify_theorem42(
        commutator_form(twin),
        [Sublattice.from_rows(4, [(1, 0, 0, 0), (0, 1, 0, 0)]),
         Sublattice.from_rows(4, [(0, 0, 1, 0), (0, 0, 0, 1)])])
    assert audit.pairwise_commute and audit.trivial_centres \
        and audit.rank_one_images
    assert not audit.distinct_image_lines and not audit.passed
    report(9, "Heisenberg/cyclic structure pipeline", t0)


CLI_CASES = [
    ("delta", {"relator": {"rank": 2, "terms": [
        {"exp": [0, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]},
        {"exp": [0, 1], "coeff": [{"qexp": [0], "c": 1}]}]},
        "cocycle": {"rank": 2, "s": 1, "B": [[[0, 0], [0, 0]]]}}, ()),
    ("initform", None, ()),       # filled in below from the delta payload
    ("tc", None, ()),
    ("lc", None, ()),
    ("check-lemma31", None, ("--sample", "6", "--seed", "11")),
    ("check-dim", None, ("--sample", "4", "--seed", "12")),
    ("check-induced", None, ("--sample", "4", "--seed", "13")),
    ("torus-mul", {"a": {"rank": 2, "terms": [
        {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]}]},
        "b": {"rank": 2, "terms": [
            {"exp": [0, 1], "coeff": [{"qexp": [0], "c": "1/2"}]}]},
        "cocycle": {"rank": 2, "s": 1, "B": [[[0, 1], [0, 0]]]}}, ()),
    ("center", {"form": {"n": 3, "s": 1, "phi": [
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]}}, ()),
    ("symbase", {"form": {"n": 4, "s": 2, "phi": [
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]}},
        ("--seed", "4", "--retries", "8")),
    ("verify-base", None, ()),
    ("abelian-split", None, ()),
    ("check-ample", {"form": {"n": 2, "s": 1, "phi": [[[0, 1], [-1, 0]]]},
                     "X": [[1, 0], [0, 1]],
                     "Omega": [[[1, 0]], [[0, 1]]],
                     "probes": [[[1, 0]], [[0, 1]], [[1, 1]]]},
     ("--seed", "6")),
    ("group-structure", {"presentation": {
        "generators": ["x1", "y1", "c"], "central": ["z"],
        "commutators": [{"a": 1, "b": 2, "exps": [1]}]}},
     ("--seed", "7")),
    ("verify-thm42", {"form": {"n": 4, "s": 2, "phi": [
        [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]]]},
        "parts": [
            {"ambient_rank": 4, "basis": [[1, 0, 0, 0], [0, 1, 0, 0]]},
            {"ambient_rank": 4, "basis": [[0, 0, 1, 0], [0, 0, 0, 1]]}]},
     ()),
]


def build_cli_cases():
    cases = []
    tropical = CLI_CASES[0][1]
    trop_chi = dict(tropical, chi=[0, 1])
    induced = {
        "relator": {"rank": 2, "terms": [
            {"exp": [0, 0], "coeff": [{"qexp": [0], "c": 1}]},
            {"exp": [1, 0], "coeff": [{"qexp": [0], "c": 1}]}]},
        "cocycle": tropical["cocycle"],
        "A1": {"ambient_rank": 2, "basis": [[1, 0]]},
    }
    symbase_payload = CLI_CASES[9][1]
    base = {"V0": [], "blocks": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                                 [[0, 0, 1, 0], [0, 0, 0, 1]]],
            "lines": [[1, 0], [0, 1]]}
    fan_payload = {
        "fan": {"dim": 2, "cones": [
            {"dim": 2, "eq": [[1, 0]], "ineq": [[0, 1]]},
            {"dim": 2, "eq": [[0, 1]], "ineq": [[1, 0]]}]},
        "point": [0, 1],
    }
    fillers = {
        "initform": trop_chi,
        "tc": trop_chi,
        "lc": fan_payload,
        "check-lemma31": tropical,
        "check-dim": tropical,
        "check-induced": induced,
        "verify-base": dict(symbase_payload, base=base),
        "abelian-split": dict(symbase_payload, base=base,
                              U=[[1, 0, 0, 0], [0, 0, 1, 0]]),
    }
    for command, payload, flags in CLI_CASES:
        cases.append((command, payload or fillers[command], flags))
    return cases


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    for command, payload, flags in build_cli_cases():
        inp = tmp_path / f"{command}.json"
        inp.write_text(json.dumps(payload))
        outputs = []
        codes = []
        for run in range(2):
            out = tmp_path / f"{command}.{run}.out"
            codes.append(cli_main([command, "--input", str(inp),
                                   "--output", str(out), *flags]))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{command} output not reproducible"
        assert codes[0] == codes[1] == 0, f"{command} exited {codes}"
    report(10, "CLI determinism across all subcommands", t0)
