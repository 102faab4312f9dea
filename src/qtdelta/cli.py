"""Command-line front end with JSON input/output and deterministic seeds.

Exit codes: 0 on success (verified or computed), 1 when a checked property
fails (the report carries a witness), 2 on malformed input or bad usage.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import delta, groups, jsonio, polyhedral, symplectic, torus
from .rng import derive, rational


class InputError(Exception):
    pass


def _load(args):
    if args.input:
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input: {exc}") from exc
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"malformed JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}") from exc


def _emit(args, payload):
    if args.format == "pretty":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _module_from(data):
    relator = jsonio.element_from_json(_require(data, "relator"))
    cocycle = jsonio.cocycle_from_json(_require(data, "cocycle"))
    if relator.s not in (cocycle.s, 0):
        raise InputError("relator and cocycle parameter counts differ")
    if relator.s != cocycle.s:
        relator = torus.QTorusElement(relator.rank, cocycle.s, relator.terms)
    try:
        return delta.OneRelatorModule(relator, cocycle)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _require(data, key):
    if not isinstance(data, dict) or key not in data:
        raise InputError(f"missing input field {key!r}")
    return data[key]


def _sample_characters(module, count, seed):
    """Deterministic character sample: relative-interior points of the
    Delta cones alternating with rational grid points."""
    fan = delta.delta_set(module)
    out = []
    rng = derive(seed, "grid")
    idx = 0
    while len(out) < count:
        if fan.cones and idx % 2 == 0:
            cone_index = (idx // 2) % len(fan.cones)
            out.append(delta.sample_delta_point(module, cone_index,
                                                seed + idx))
        else:
            out.append(delta.Character(tuple(
                rational(rng) for _ in range(module.rank))))
        idx += 1
    return out


def _chi_list(args, data, module):
    if args.sample:
        return _sample_characters(module, args.sample, args.seed)
    if "chi" not in data:
        raise InputError("provide a 'chi' field or --sample N")
    return [jsonio.character_from_json(data["chi"], module.rank)]


def cmd_delta(args):
    module = _module_from(_load(args))
    _emit(args, jsonio.fan_to_json(delta.delta_set(module)))
    return 0


def cmd_initform(args):
    data = _load(args)
    module = _module_from(data)
    chi = jsonio.character_from_json(_require(data, "chi"), module.rank)
    init = delta.initial_form(module, chi)
    _emit(args, {
        "r_chi": jsonio.element_to_json(init.relator),
        "B": jsonio.sublattice_to_json(init.kernel),
    })
    return 0


def cmd_tc(args):
    data = _load(args)
    module = _module_from(data)
    chi = jsonio.character_from_json(_require(data, "chi"), module.rank)
    _emit(args, jsonio.fan_to_json(delta.tc_delta(module, chi)))
    return 0


def cmd_lc(args):
    data = _load(args)
    fan = jsonio.fan_from_json(_require(data, "fan"))
    point = jsonio.vector_from_json(_require(data, "point"), fan.ambient_dim)
    _emit(args, jsonio.fan_to_json(polyhedral.local_cone(fan, point)))
    return 0


def cmd_check_lemma31(args):
    data = _load(args)
    module = _module_from(data)
    reports = [delta.check_lemma31(module, chi)
               for chi in _chi_list(args, data, module)]
    payload = {
        "checks": [r.to_json() for r in reports],
        "all_equal": all(r.equal for r in reports),
    }
    if not payload["all_equal"]:
        payload["witness"] = next(r.to_json() for r in reports if not r.equal)
    _emit(args, payload)
    return 0 if payload["all_equal"] else 1


def cmd_check_dim(args):
    data = _load(args)
    module = _module_from(data)
    if args.sample:
        full = delta.delta_set(module)
        dim = polyhedral.fan_dim(full)
        top = [i for i, c in enumerate(full.cones) if c.dim == dim]
        if not top:
            raise InputError("the Delta set is empty; nothing to sample")
        chis = [delta.sample_delta_point(module, top[i % len(top)],
                                         args.seed + i)
                for i in range(args.sample)]
    else:
        if "chi" not in data:
            raise InputError("provide a 'chi' field or --sample N")
        chis = [jsonio.character_from_json(data["chi"], module.rank)]
    reports = []
    for chi in chis:
        try:
            reports.append(delta.check_dim_identity(module, chi))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    payload = {
        "checks": [r.to_json() for r in reports],
        "all_hold": all(r.holds for r in reports),
    }
    if not payload["all_hold"]:
        payload["witness"] = next(r.to_json() for r in reports if not r.holds)
    _emit(args, payload)
    return 0 if payload["all_hold"] else 1


def cmd_check_induced(args):
    data = _load(args)
    module = _module_from(data)
    lattice = jsonio.sublattice_from_json(_require(data, "A1"))
    if args.sample:
        rng = derive(args.seed, "induced-grid")
        chis = [delta.Character(tuple(rational(rng)
                                      for _ in range(module.rank)))
                for _ in range(args.sample)]
    else:
        if "chi" not in data:
            raise InputError("provide a 'chi' field or --sample N")
        chis = [jsonio.character_from_json(data["chi"], module.rank)]
    reports = []
    for chi in chis:
        try:
            reports.append(delta.check_induced(module, lattice, chi))
        except ValueError as exc:
            raise InputError(str(exc)) from exc
    payload = {
        "checks": [r.to_json() for r in reports],
        "all_equal": all(r.equal for r in reports),
    }
    if not payload["all_equal"]:
        payload["witness"] = next(r.to_json() for r in reports if not r.equal)
    _emit(args, payload)
    return 0 if payload["all_equal"] else 1


def cmd_torus_mul(args):
    data = _load(args)
    cocycle = jsonio.cocycle_from_json(_require(data, "cocycle"))
    a = jsonio.element_from_json(_require(data, "a"), s=None)
    b = jsonio.element_from_json(_require(data, "b"), s=None)
    for el in (a, b):
        if el.rank != cocycle.rank:
            raise InputError("element rank does not match the cocycle")
    a = torus.QTorusElement(a.rank, cocycle.s, a.terms)
    b = torus.QTorusElement(b.rank, cocycle.s, b.terms)
    _emit(args, jsonio.element_to_json(torus.multiply(a, b, cocycle)))
    return 0


def cmd_center(args):
    data = _load(args)
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    sub = symplectic.center(phi)
    from .lattice import subspace_to_lattice
    _emit(args, {
        "subspace": jsonio.subspace_to_json(sub),
        "lattice": jsonio.sublattice_to_json(subspace_to_lattice(sub)),
    })
    return 0


def cmd_symbase(args):
    data = _load(args)
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    outcome = symplectic.compute_symplectic_base(phi, seed=args.seed,
                                                 retries=args.retries)
    if isinstance(outcome, symplectic.NoBaseFound):
        _emit(args, {"no_base": outcome.to_json()})
    else:
        _emit(args, {"base": jsonio.base_to_json(outcome)})
    return 0


def cmd_verify_base(args):
    data = _load(args)
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    base = jsonio.base_from_json(_require(data, "base"), phi.n)
    report = symplectic.verify_symplectic_base(phi, base)
    _emit(args, report.to_json())
    return 0 if report.passed else 1


def cmd_abelian_split(args):
    data = _load(args)
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    base = jsonio.base_from_json(_require(data, "base"), phi.n)
    space = jsonio.subspace_from_json(_require(data, "U"), ambient=phi.n)
    try:
        components = symplectic.decompose_abelian(phi, base, space)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(args, {"components": [jsonio.subspace_to_json(c)
                                for c in components]})
    return 0


def cmd_check_ample(args):
    data = _load(args)
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    space = jsonio.subspace_from_json(_require(data, "X"), ambient=phi.n)
    omega = [jsonio.subspace_from_json(u, ambient=phi.n)
             for u in jsonio._array(_require(data, "Omega"), "Omega")]
    probes = None
    if "probes" in data:
        probes = [jsonio.subspace_from_json(u, ambient=phi.n)
                  for u in jsonio._array(data["probes"], "probes")]
    try:
        report = symplectic.check_ample(phi, space, omega, probes=probes,
                                        seed=args.seed)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(args, report.to_json())
    return 0 if report.passed else 1


def cmd_group_structure(args):
    data = _load(args)
    pres = jsonio.presentation_from_json(_require(data, "presentation"))
    report = groups.structure_report(pres, seed=args.seed,
                                     retries=args.retries)
    _emit(args, report.to_json())
    return 0


def cmd_verify_thm42(args):
    data = _load(args)
    form = jsonio.alternating_z_from_json(_require(data, "form"))
    parts = [jsonio.sublattice_from_json(p)
             for p in jsonio._array(_require(data, "parts"), "parts")]
    try:
        report = torus.verify_theorem42(form, parts)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit(args, report.to_json())
    return 0 if report.passed else 1


_COMMANDS = {
    "delta": (cmd_delta, "Delta-set fan of a one-relator module"),
    "initform": (cmd_initform, "initial form and kernel lattice at a character"),
    "tc": (cmd_tc, "trailing-coefficient Delta set at a character"),
    "lc": (cmd_lc, "local cone of a fan at a point"),
    "check-lemma31": (cmd_check_lemma31,
                      "local cone vs pulled-back trailing Delta set"),
    "check-dim": (cmd_check_dim, "rank + trailing dimension identity"),
    "check-induced": (cmd_check_induced, "induced-module restriction law"),
    "torus-mul": (cmd_torus_mul, "twisted product of two elements"),
    "center": (cmd_center, "radical of an alternating form"),
    "symbase": (cmd_symbase, "seeded symplectic base search"),
    "verify-base": (cmd_verify_base, "certify a symplectic base"),
    "abelian-split": (cmd_abelian_split,
                      "split an abelian subspace along the blocks"),
    "check-ample": (cmd_check_ample, "ample-abelian-subspaces conditions"),
    "group-structure": (cmd_group_structure,
                        "Heisenberg/cyclic structure of commutator data"),
    "verify-thm42": (cmd_verify_thm42, "audit a block decomposition"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qtdelta",
        description="Exact Delta-set, local-cone and symplectic-base toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_fn, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", help="input JSON path (default: stdin)")
        p.add_argument("--output", help="output path (default: stdout)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for all randomized behaviour")
        p.add_argument("--sample", type=int, default=0,
                       help="number of sampled characters for the checkers")
        p.add_argument("--format", choices=("json", "pretty"),
                       default="json")
        p.add_argument("--retries", type=int, default=8,
                       help="retry budget for the base search")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fn = _COMMANDS[args.command][0]
    try:
        return fn(args)
    except InputError as exc:
        print(f"qtdelta: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"qtdelta: {exc}", file=sys.stderr)
        return 2


run = main


if __name__ == "__main__":
    sys.exit(main())
