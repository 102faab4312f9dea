"""Span recorder for the traced benchmark run.

``instrument`` wraps the public functions of ``lattice``, ``polyhedral``,
``torus``, ``delta`` and ``symplectic`` from outside the package.  A
function imported by name (``from .lattice import rref``) is bound in
several modules, so every binding of the original object in every
``qtdelta`` module is replaced, and class methods are replaced on their
class.  Spans (name, start, end, parent, op id) are kept in flat arrays in
memory and written out once at the end of the run.

A layer's self time is its span's duration minus the time covered by its
child spans.  Counters computed after a call (bit lengths, rays built, the
``fan_equal`` path) run inside a ``trace.hook`` span, so their cost is
charged to tracing and not to the layer that called the function.
"""

from __future__ import annotations

import array
import collections
import contextlib
import functools
import gzip
import sys
from time import perf_counter_ns

HOOK = "trace.hook"
OP = "op"


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.op = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counters = collections.Counter()
        self.maxima = collections.Counter()

    def open(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def operation(self, op_id):
        self.op_id = op_id
        idx = self.open(OP)
        try:
            yield
        finally:
            self.close(idx)
            self.op_id = -1

    def totals(self, weights=None):
        """Per span name: (calls, total seconds, self seconds), each span's
        time scaled by the weight of its op (see run.timed)."""
        n = len(self.start)
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        calls = collections.Counter()
        total = collections.Counter()
        own = collections.Counter()
        for i in range(n):
            name = self.names[self.name_id[i]]
            w = weights[self.op[i]] if weights else 1.0
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += w * dur
            own[name] += w * (dur - covered[i])
        return {k: (calls[k], total[k] / 1e9, own[k] / 1e9) for k in calls}

    def write(self, path):
        """Spans as tab-separated text, one line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tname\top\tparent\tstart_ns\tend_ns\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.op[i]}"
                         f"\t{self.parent[i]}\t{self.start[i]}\t{self.end[i]}\n")


def _wrap(tracer, name, fn, hook=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            h = tracer.open(HOOK)
            hook(tracer, args, result)
            tracer.close(h)
        return result
    return traced


def _bits(values):
    best = 0
    for x in values:
        if isinstance(x, int):
            best = max(best, x.bit_length())
        else:
            best = max(best, x.numerator.bit_length(),
                       x.denominator.bit_length())
    return best


def _rref_bits(tracer, args, result):
    rows, _ = result
    b = _bits(x for row in rows for x in row)
    tracer.maxima["lattice.rref.max_bits"] = max(
        tracer.maxima["lattice.rref.max_bits"], b)


def _hnf_bits(tracer, args, result):
    H, U = result
    b = _bits(x for m in (H, U) for row in m for x in row)
    tracer.maxima["lattice.hnf.max_bits"] = max(
        tracer.maxima["lattice.hnf.max_bits"], b)


def _rays_built(tracer, args, cone):
    tracer.counters["polyhedral.rays_built"] += len(cone.rays)


def _fan_kept(tracer, args, _result):
    fan = args[0]
    cones = args[2] if len(args) > 2 else ()
    tracer.counters["polyhedral.fan.cones_in"] += len(cones)
    tracer.counters["polyhedral.fan.cones_kept"] += len(fan.cones)


def _fan_equal_path(tracer, args, _result):
    f1, f2 = args
    if {c.key for c in f1.cones} == {c.key for c in f2.cones}:
        tracer.counters["polyhedral.fan_equal.structural"] += 1


def _base_found(tracer, args, result):
    # With a nondegenerate part the search returns blocks only from a
    # pencil attempt that passed verification.
    if getattr(result, "blocks", None):
        tracer.counters["symplectic.attempt_successes"] += 1


# (span name, module, attribute, hook): module-level functions.
FUNCTIONS = (
    ("lattice.rref", "lattice", "rref", _rref_bits),
    ("lattice.hnf", "lattice", "hnf", _hnf_bits),
    ("lattice.null_space_int", "lattice", "null_space_int", None),
    ("lattice.vec_primitive", "lattice", "vec_primitive", None),
    ("polyhedral.fan_equal", "polyhedral", "fan_equal", _fan_equal_path),
    ("polyhedral.local_cone", "polyhedral", "local_cone", None),
    ("polyhedral.preimage", "polyhedral", "preimage", None),
    ("delta.delta_set", "delta", "delta_set", None),
    ("delta.initial_form", "delta", "initial_form", None),
    ("delta.sample_delta_point", "delta", "sample_delta_point", None),
    ("torus.multiply", "torus", "multiply", None),
    ("symplectic.compute_symplectic_base", "symplectic",
     "compute_symplectic_base", _base_found),
    ("symplectic.verify_symplectic_base", "symplectic",
     "verify_symplectic_base", None),
    ("symplectic.image_space", "symplectic", "image_space", None),
    ("symplectic.center", "symplectic", "center", None),
    ("symplectic.decompose_abelian", "symplectic", "decompose_abelian", None),
)

# (span name, module, class, method, hook): methods replaced on the class.
METHODS = (
    ("polyhedral.from_constraints", "polyhedral", "Cone", "from_constraints",
     _rays_built),
    ("polyhedral.fan", "polyhedral", "Fan", "__init__", _fan_kept),
    ("torus.restrict", "torus", "CocycleForm", "restrict", None),
    ("torus.restrict", "torus", "AlternatingFormZ", "restrict", None),
    ("symplectic.pairing", "symplectic", "AlternatingMapQ", "pairing", None),
)


@contextlib.contextmanager
def instrument(tracer):
    """Patch every binding of the traced functions for the duration."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qtdelta"
                                     or name.startswith("qtdelta."))]
    undo = []

    def setattr_undo(owner, attr, value):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    try:
        for span, mod, attr, hook in FUNCTIONS:
            original = getattr(sys.modules["qtdelta." + mod], attr)
            wrapped = _wrap(tracer, span, original, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr_undo(m, key, wrapped)
        for span, mod, cls_name, attr, hook in METHODS:
            cls = getattr(sys.modules["qtdelta." + mod], cls_name)
            original = vars(cls)[attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_wrap(tracer, span, original.__func__,
                                            hook))
            else:
                wrapped = _wrap(tracer, span, original, hook)
            setattr_undo(cls, attr, wrapped)

        symplectic = sys.modules["qtdelta.symplectic"]
        derive = symplectic.derive

        @functools.wraps(derive)
        def counted_derive(seed, *labels):
            if labels and labels[0] == "pencil":
                tracer.counters["symplectic.pencil_attempts"] += 1
            return derive(seed, *labels)

        setattr_undo(symplectic, "derive", counted_derive)
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals, tracer, ops):
    """Per-layer metrics of a traced run over ``ops`` operations, from the
    span ``totals`` and the tracer's counters."""
    out = {}
    for name, (calls, _total, own) in totals.items():
        if name in (OP, HOOK):
            continue
        out[name + ".calls"] = calls
        out[name + ".self_s"] = own
    c = tracer.counters
    out.update(tracer.maxima)
    out["polyhedral.rays_built"] = c["polyhedral.rays_built"]
    out["polyhedral.fan.kept_ratio"] = _ratio(
        c["polyhedral.fan.cones_kept"], c["polyhedral.fan.cones_in"])
    out["polyhedral.fan_equal.structural_frac"] = _ratio(
        c["polyhedral.fan_equal.structural"],
        out.get("polyhedral.fan_equal.calls", 0))
    out["delta.delta_set.per_op"] = _ratio(
        out.get("delta.delta_set.calls", 0), ops)
    out["symplectic.pencil_attempts"] = c["symplectic.pencil_attempts"]
    out["symplectic.attempt_success_ratio"] = _ratio(
        c["symplectic.attempt_successes"], c["symplectic.pencil_attempts"])
    return out
