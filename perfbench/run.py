"""qtdelta benchmark: one workload per run, closed loop, every result checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package under ``src/`` there is the one
measured.  One client sends the next operation only after the previous one
finished.  A run works through a fixed list of operations (the seed picks
them, the workload fixes how many), pass after pass, for ``--seconds``: at
least one pass, and another only while a pass still fits.  Each operation
counts at the median of its passes.  The op count, and so the tail
percentile, depends only on the workload.

Times are calibrated.  A shared host can change speed by a factor of two
within seconds, when a neighbour loads the same core.  Between timed
calls the benchmark times a fixed standard-library kernel (exact
Gauss-Jordan elimination of an 8x8 rational matrix) and scales each call's
wall time by CAL_NOMINAL_S over the kernel's time around that call (see
``Clock``): every reported time is in seconds of a machine on which the
kernel takes exactly CAL_NOMINAL_S.  The benchmark pins itself and its
child processes to one CPU, so the kernel runs where the calls it scales
run.  Raw wall times go to the result file as well.

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json:
throughput, median and tail latency, the share of operations with a correct
result, set-up time (median of several fresh interpreters, spread over the
run, that import the package and finish one warm-up operation) and peak
resident memory (of the largest child process on cli-cold).

``--trace 1`` runs every operation twice: untraced, then traced (spans
around every public function of the five core layers, or ``python -X
importtime`` on cli-cold).  It reports the per-layer metrics of
BENCHMARK.json; a metric of a layer the workload does not reach reads 0.
``trace.overhead_ratio`` is traced over untraced time.

Every result is checked; a wrong result makes the run exit 1.  The last
line of stdout is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Details (machine, source digest, seed, input
digest, raw times, failure reasons) go to ``.perfbench-out/`` in the
checkout, spans included.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

from checkout import import_qtdelta

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5
OUT_DIR = ".perfbench-out"
# The calibration kernel's time on an idle 2-core Xeon with Python 3.11.7.
CAL_NOMINAL_S = 1.0e-3
_CAL_MATRIX = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4)
                for j in range(8)] for i in range(8)]


def calibration_s():
    """Wall time of the calibration kernel, which uses no qtdelta code."""
    start = time.perf_counter()
    M = [row[:] for row in _CAL_MATRIX]
    for c in range(len(M)):
        p = next(i for i in range(c, len(M)) if M[i][c])
        M[c], M[p] = M[p], M[c]
        for i in range(len(M)):
            if i != c and M[i][c]:
                f = M[i][c] / M[c][c]
                M[i] = [a - f * b for a, b in zip(M[i], M[c])]
    return time.perf_counter() - start


class Clock:
    """Calibrated timing of a sequence of calls.

    The calibration kernel runs once before the first call and once after
    every call.  Call k is scaled by CAL_NOMINAL_S over the median of the
    four kernel times nearest to it (two on each side), which follows the
    host's speed without picking up the kernel's own jitter.
    """

    def __init__(self):
        self.cal = [calibration_s()]
        self.raw = []

    def call(self, fn, *args, **kwargs):
        """(call index, outcome) of ``attempt(fn, *args, **kwargs)``."""
        start = time.perf_counter()
        outcome = attempt(fn, *args, **kwargs)
        self.raw.append(time.perf_counter() - start)
        self.cal.append(calibration_s())
        return len(self.raw) - 1, outcome

    def scaled(self):
        """Calibrated seconds of every call so far, by call index."""
        return [took * CAL_NOMINAL_S
                / statistics.median(self.cal[max(0, k - 1):k + 3])
                for k, took in enumerate(self.raw)]


def tail_percentile(n):
    """Highest integer percentile with at least ten of n ops beyond it
    (nearest-rank)."""
    for p in range(99, -1, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 0


def percentile(values, p):
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def attempt(fn, *args, **kwargs):
    """(result, None) or (None, reason) for a call that raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # an op that raises counts as failed
        return None, f"{type(exc).__name__}: {exc}"


def verdict(workload, op, outcome):
    result, error = outcome
    if error:
        return error
    reason, error = attempt(workload.check, op, result)
    return error or reason


def probe_setup(clock, workload, root, seed):
    """One fresh interpreter that imports qtdelta and finishes one checked
    warm-up operation: (call index, None), or (None, reason it failed)."""
    import workloads
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), workload.name,
           str(seed)]
    k, (proc, error) = clock.call(
        subprocess.run, cmd, cwd=root, env=workloads.child_env(root),
        capture_output=True, timeout=120, check=False)
    if error or proc.returncode != 0:
        return None, "set-up probe failed: " + (
            error or proc.stderr.decode()[-300:])
    return k, None


def _summary(per_op):
    p = tail_percentile(len(per_op))
    return {"throughput_ops_s": len(per_op) / sum(per_op),
            "latency_p50_ms": statistics.median(per_op) * 1e3,
            "latency_tail_ms": percentile(per_op, p) * 1e3}


def measure(workload, ops, root, seed, seconds):
    """Passes over the ops until ``seconds`` are used up; a set-up probe
    before each of the first passes spreads the probes over the run."""
    clock = Clock()
    calls = [[] for _ in ops]
    probes, failures = [], {}
    begin = time.perf_counter()
    last_pass = passes = 0
    while not passes or time.perf_counter() - begin + last_pass <= seconds:
        if len(probes) < SETUP_REPEATS and -1 not in failures:
            k, error = probe_setup(clock, workload, root, seed)
            if error:
                failures[-1] = error
            else:
                probes.append(k)
        start = time.perf_counter()
        for i, op in enumerate(ops):
            variant = workload.variant(op, passes)
            k, outcome = clock.call(workload.run, variant)
            calls[i].append(k)
            reason = verdict(workload, variant, outcome)
            if reason:
                failures.setdefault(i, reason)
        last_pass = time.perf_counter() - start
        passes += 1
    while len(probes) < SETUP_REPEATS and -1 not in failures:
        k, error = probe_setup(clock, workload, root, seed)
        if error:
            failures[-1] = error
        else:
            probes.append(k)

    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" \
        else resource.RUSAGE_SELF
    metrics, raw_metrics = {}, {}
    for out, times in ((metrics, clock.scaled()), (raw_metrics, clock.raw)):
        out.update(_summary([statistics.median(times[k] for k in ks)
                             for ks in calls]))
        # No probe succeeded only when the run has failed anyway.
        out["setup_s"] = (statistics.median(times[k] for k in probes)
                          if probes else 0.0)
    metrics["ok_frac"] = 1 - sum(1 for i in failures if i >= 0) / len(ops)
    metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    return metrics, sorted(failures.items()), {
        "tail_percentile": tail_percentile(len(ops)), "passes": passes,
        "raw_metrics": raw_metrics}


def trace_in_process(workload, ops, spans_path=None):
    import spans
    tracer = spans.Tracer()
    clock = Clock()
    pairs, failures = [], []

    def traced_run(i, op):
        with spans.instrument(tracer), tracer.operation(i):
            return workload.run(op)

    for i, op in enumerate(ops):
        plain_op, traced_op = workload.variant(op, 0), workload.variant(op, 1)
        k_plain, first = clock.call(workload.run, plain_op)
        k_traced, second = clock.call(traced_run, i, traced_op)
        pairs.append((k_plain, k_traced))
        reason = (verdict(workload, plain_op, first)
                  or verdict(workload, traced_op, second))
        if reason:
            failures.append((i, reason))
    scaled = clock.scaled()
    totals = tracer.totals([scaled[t] / clock.raw[t] for _, t in pairs])
    metrics = spans.layer_metrics(totals, tracer, len(ops))
    metrics["trace.overhead_ratio"] = (sum(scaled[t] for _, t in pairs)
                                       / sum(scaled[p] for p, _ in pairs))
    extra = {"spans": len(tracer.start),
             "traced_op_s": totals.get(spans.OP, (0, 0.0, 0.0))[1],
             "layer_self_s": sum(v for k, v in metrics.items()
                                 if k.endswith(".self_s"))}
    if spans_path:
        tracer.write(spans_path)
        extra["spans_file"] = os.path.basename(spans_path)
    return metrics, failures, extra


def import_times(stderr):
    """Cumulative microseconds per top-level import in -X importtime output."""
    out = {}
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if name.startswith("  ") or not cumulative.strip().isdigit():
            continue
        out[name.strip()] = int(cumulative)
    return out


def trace_cli(workload, ops):
    clock = Clock()
    pairs, failures = [], []
    for i, op in enumerate(ops):
        k_plain, first = clock.call(workload.run, op)
        k_traced, second = clock.call(workload.run, op, True)
        pairs.append((op, k_plain, k_traced, second))
        reason = verdict(workload, op, first) or verdict(workload, op, second)
        if reason:
            failures.append((i, reason))
    scaled = clock.scaled()
    by_command = defaultdict(list)
    qtdelta_us, sympy_us = [], []
    for op, k_plain, k_traced, (result, error) in pairs:
        by_command[op["command"]].append(scaled[k_plain])
        if error:
            continue
        imports = import_times(result[2])
        scale = scaled[k_traced] / clock.raw[k_traced]
        qtdelta_us.append(scale * sum(
            v for k, v in imports.items()
            if k == "qtdelta" or k.startswith("qtdelta.")))
        if "sympy" in imports:
            sympy_us.append(scale * imports["sympy"])
    metrics = {f"cli.{cmd}.p50_ms": statistics.median(t) * 1e3
               for cmd, t in by_command.items()}
    metrics["cli.import.qtdelta_us"] = statistics.median(qtdelta_us or [0])
    metrics["cli.import.sympy_us"] = statistics.median(sympy_us or [0])
    metrics["trace.overhead_ratio"] = (
        sum(scaled[k] for _, _, k, _ in pairs)
        / sum(scaled[k] for _, k, _, _ in pairs))
    return metrics, failures, {}


def machine(root, seed):
    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head, encoding="utf-8") as fh:
            commit = fh.read().strip()
        ref = os.path.join(root, ".git", commit.removeprefix("ref: "))
        if commit.startswith("ref: ") and os.path.isfile(ref):
            with open(ref, encoding="utf-8") as fh:
                commit = fh.read().strip()
    src = hashlib.sha256()
    for dirpath, dirnames, files in os.walk(os.path.join(root, "src")):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(dirpath, f)
                src.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    src.update(fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count(), "seed": seed}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    root = import_qtdelta()
    import workloads
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read BENCHMARK.json: {exc}")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))

    workload = workloads.WORKLOADS[args.workload](root)
    n_ops = workload.cycles * len(workload.strata)
    ops = [workload.make_op(args.seed, i) for i in range(n_ops)]
    os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)
    stem = os.path.join(root, OUT_DIR,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if not args.trace:
        listed = bench["end_to_end"]
        values, failures, extra = measure(workload, ops, root, args.seed,
                                          args.seconds)
    elif args.workload == "cli-cold":
        listed = bench["per_layer"]
        values, failures, extra = trace_cli(workload, ops)
    else:
        listed = bench["per_layer"]
        values, failures, extra = trace_in_process(workload, ops,
                                                   stem + "-spans.tsv.gz")
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]} for m in listed}

    failed = len({i for i, _ in failures})
    record = dict(machine(root, args.seed), workload=args.workload,
                  params=workload.params, seconds=args.seconds, ops=n_ops,
                  input_digest=workloads.input_digest(ops), **extra,
                  failures=[f"op {i}: {r}" for i, r in failures[:50]],
                  metrics=metrics, all_values=values)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
        fh.write("\n")

    print(f"perfbench {args.workload} seed={args.seed} ops={n_ops} "
          f"trace={args.trace} python={record['python']} "
          f"nproc={record['nproc']} cpu={record['cpu']!r}")
    if "tail_percentile" in extra:
        print(f"  latency_tail_ms is p{extra['tail_percentile']} "
              f"of {n_ops} ops")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for i, reason in failures[:20]:
        print(f"  FAILED op {i}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": n_ops,
                      "failed": failed, "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
