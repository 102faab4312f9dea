"""Command-line front end with JSON input/output and deterministic seeds.

Exit codes: 0 on success (verified or computed), 1 when a checked property
fails (the report carries a witness), 2 on malformed input or bad usage
(an unreadable ``--input`` or unwritable ``--output`` included), 3 on an
internal failure (a failed self-check), reported on stderr only.

Answers are exact at any size: an int in the output may have more digits
than the interpreter's limit on int-string conversion (4300 by default
where there is one), which is lifted while the answer is written.  The
limit still holds on input, so a number of more than 4300 digits in the
input exits 2.

Each ``cmd_*`` maps the parsed arguments and the loaded JSON to
``(result, passed)``, the result a value; :func:`main` alone loads the
input, writes ``jsonio.to_json(result)`` and turns the verdict, or an
exception, into the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import delta, groups, jsonio, polyhedral, symplectic, torus
from .lattice import subspace_to_lattice
from .rng import derive, rational


def _load(args):
    if args.input:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"malformed JSON at line {exc.lineno} column {exc.colno} "
            f"(char {exc.pos}): {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def _emit(args, result):
    # the answer is exact at any size: the interpreter's limit on int-string
    # conversion, where it has one, is lifted for this conversion only and
    # restored after, since in-process callers share it
    lift = hasattr(sys, "set_int_max_str_digits")
    if lift:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        payload = jsonio.to_json(result)
        if args.format == "pretty":
            text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        else:
            text = json.dumps(payload, sort_keys=True,
                              separators=(",", ":")) + "\n"
    finally:
        if lift:
            sys.set_int_max_str_digits(limit)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _require(data, key):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing input field {key!r}")
    return data[key]


def _module_from(data):
    relator = jsonio.element_from_json(_require(data, "relator"))
    cocycle = jsonio.cocycle_from_json(_require(data, "cocycle"))
    if relator.s not in (cocycle.s, 0):
        raise ValueError("relator and cocycle parameter counts differ")
    return delta.OneRelatorModule(relator, cocycle)


def _grid_point(rng, rank):
    return delta.Character(tuple(rational(rng) for _ in range(rank)))


def _sample_mixed(module, count, seed):
    """Relative-interior points of the Delta cones alternating with
    rational grid points."""
    fan = delta.delta_set(module)
    out = []
    rng = derive(seed, "grid")
    for idx in range(count):
        if fan.cones and idx % 2 == 0:
            cone_index = (idx // 2) % len(fan.cones)
            out.append(delta.sample_delta_point(module, cone_index,
                                                seed + idx))
        else:
            out.append(_grid_point(rng, module.rank))
    return out


def _sample_top_cones(module, count, seed):
    """Relative-interior points of the top-dimensional Delta cones, in
    turn.  Every Delta cone is an edge cone of dimension n - 1, so these
    are all of the Delta cones."""
    cones = len(delta.delta_set(module).cones)
    if not cones:
        raise ValueError("the Delta set is empty; nothing to sample")
    return [delta.sample_delta_point(module, i % cones, seed + i)
            for i in range(count)]


def _sample_grid(module, count, seed):
    """Rational grid points."""
    rng = derive(seed, "induced-grid")
    return [_grid_point(rng, module.rank) for _ in range(count)]


def _chis(args, data, module, sampler):
    """``--sample N`` characters drawn by ``sampler``, else the input's
    ``chi``."""
    if args.sample:
        return sampler(module, args.sample, args.seed)
    if "chi" not in data:
        raise ValueError("provide a 'chi' field or --sample N")
    return [jsonio.character_from_json(data["chi"], module.rank)]


def _verdict(reports, key, ok):
    """Every report, ``key`` true when attribute ``ok`` holds on all of
    them, and the first report where it fails as the witness."""
    failed = [r for r in reports if not getattr(r, ok)]
    result = {"checks": reports, key: not failed}
    if failed:
        result["witness"] = failed[0]
    return result, not failed


def cmd_delta(args, data):
    return delta.delta_set(_module_from(data)), True


def cmd_initform(args, data):
    module = _module_from(data)
    chi = jsonio.character_from_json(_require(data, "chi"), module.rank)
    init = delta.initial_form(module, chi)
    return {"r_chi": init.relator, "B": init.kernel}, True


def cmd_tc(args, data):
    module = _module_from(data)
    chi = jsonio.character_from_json(_require(data, "chi"), module.rank)
    return delta.tc_delta(module, chi), True


def cmd_lc(args, data):
    fan = jsonio.fan_from_json(_require(data, "fan"))
    point = jsonio.vector_from_json(_require(data, "point"), fan.ambient_dim)
    return polyhedral.local_cone(fan, point), True


def cmd_check_lemma31(args, data):
    module = _module_from(data)
    return _verdict([delta.check_lemma31(module, chi)
                     for chi in _chis(args, data, module, _sample_mixed)],
                    "all_equal", "equal")


def cmd_check_dim(args, data):
    module = _module_from(data)
    return _verdict([delta.check_dim_identity(module, chi)
                     for chi in _chis(args, data, module, _sample_top_cones)],
                    "all_hold", "holds")


def cmd_check_induced(args, data):
    module = _module_from(data)
    lattice = jsonio.sublattice_from_json(_require(data, "A1"))
    return _verdict([delta.check_induced(module, lattice, chi)
                     for chi in _chis(args, data, module, _sample_grid)],
                    "all_equal", "equal")


def cmd_torus_mul(args, data):
    cocycle = jsonio.cocycle_from_json(_require(data, "cocycle"))
    a, b = (jsonio.element_from_json(_require(data, key)) for key in "ab")
    if max(a.s, b.s) > cocycle.s:
        raise ValueError("element has more parameters than the cocycle")
    return torus.multiply(a, b, cocycle), True


def cmd_center(args, data):
    sub = symplectic.center(jsonio.alternating_q_from_json(
        _require(data, "form")))
    return {"subspace": sub, "lattice": subspace_to_lattice(sub)}, True


def cmd_symbase(args, data):
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    outcome = symplectic.compute_symplectic_base(phi, seed=args.seed,
                                                 retries=args.retries)
    if isinstance(outcome, symplectic.NoBaseFound):
        return {"no_base": outcome}, True
    return {"base": outcome}, True


def cmd_verify_base(args, data):
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    base = jsonio.base_from_json(_require(data, "base"), phi.n)
    report = symplectic.verify_symplectic_base(phi, base)
    return report, report.passed


def cmd_abelian_split(args, data):
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    base = jsonio.base_from_json(_require(data, "base"), phi.n)
    space = jsonio.subspace_from_json(_require(data, "U"), phi.n)
    components = symplectic.decompose_abelian(phi, base, space)
    return {"components": components}, True


def cmd_check_ample(args, data):
    phi = jsonio.alternating_q_from_json(_require(data, "form"))
    space = jsonio.subspace_from_json(_require(data, "X"), phi.n)
    omega = [jsonio.subspace_from_json(u, phi.n)
             for u in jsonio._array(_require(data, "Omega"), "Omega")]
    probes = None
    if "probes" in data:
        probes = [jsonio.subspace_from_json(u, phi.n)
                  for u in jsonio._array(data["probes"], "probes")]
    report = symplectic.check_ample(phi, space, omega, probes=probes,
                                    seed=args.seed)
    return report.to_json(), report.passed


def cmd_group_structure(args, data):
    pres = jsonio.presentation_from_json(_require(data, "presentation"))
    return groups.structure_report(pres, seed=args.seed,
                                   retries=args.retries), True


def cmd_verify_thm42(args, data):
    form = jsonio.alternating_z_from_json(_require(data, "form"))
    parts = [jsonio.sublattice_from_json(p)
             for p in jsonio._array(_require(data, "parts"), "parts")]
    report = torus.verify_theorem42(form, parts)
    return report, report.passed


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


def _count(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    """One parser for every command: all of them take the same options,
    which may come before or after the command name."""
    parser = argparse.ArgumentParser(
        prog="qtdelta",
        description="Exact Delta-set, local-cone and symplectic-base toolkit",
        epilog="commands:\n" + "\n".join(
            f"  {name:<17}{help_text}"
            for name, (_fn, help_text) in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--input", help="input JSON path (default: stdin)")
    parser.add_argument("--output", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for all randomized behaviour")
    parser.add_argument("--sample", type=_count, default=0,
                        help="number of sampled characters for the checkers")
    parser.add_argument("--format", choices=("json", "pretty"),
                        default="json")
    parser.add_argument("--retries", type=int, default=8,
                        help="retry budget for the base search")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    fn = _COMMANDS[args.command][0]
    try:
        result, passed = fn(args, _load(args))
        _emit(args, result)
    except (OSError, ValueError) as exc:
        print(f"qtdelta: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"qtdelta: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
