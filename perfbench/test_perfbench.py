"""Self-tests of the benchmark itself (not of the package).

From the repository root:

    python3 -m pytest -q perfbench
    python3 perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from checkout import import_qtdelta  # noqa: E402

import_qtdelta(ROOT)

import run  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
# Per-layer metrics that are counts or ratios of counts, hence exact.
EXACT = (".calls", ".max_bits", ".per_op", ".kept_ratio", ".structural_frac",
         "rays_built", "pencil_attempts", "attempt_success_ratio")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _ops(name, seed, count):
    w = workloads.WORKLOADS[name](ROOT)
    return w, [w.make_op(seed, i) for i in range(count)]


def test_same_seed_same_input_digest():
    for name in workloads.WORKLOADS:
        w = workloads.WORKLOADS[name](ROOT)
        count = len(w.strata) + 2
        first = workloads.input_digest(_ops(name, 5, count)[1])
        again = workloads.input_digest(_ops(name, 5, count)[1])
        other = workloads.input_digest(_ops(name, 6, count)[1])
        assert first == again, name
        assert first != other, name


def test_variants_keep_results():
    for name in ("local-cone", "wide-support", "symbase"):
        w, ops = _ops(name, 3, 4)
        for op in ops:
            for r in range(3):
                v = w.variant(op, r)
                assert (v == op) == (r == 0), (name, r)
                assert w.check(v, w.run(v)) is None, (name, r)


def _traced(name, count):
    w, ops = _ops(name, 9, count)
    metrics, failures, extra = run.trace_in_process(w, ops)
    assert not failures, failures
    return metrics, extra


def test_traced_counts_repeat_and_self_time_fits():
    for name, count in (("local-cone", 6), ("symbase", 6)):
        first, extra = _traced(name, count)
        second, _ = _traced(name, count)
        exact = {k: v for k, v in first.items() if k.endswith(EXACT)}
        assert exact, name
        assert exact == {k: second[k] for k in exact}, name
        assert 0 < extra["layer_self_s"] <= extra["traced_op_s"], name


def test_metric_names_and_coverage():
    bench = _bench()
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    for name in names + [w["name"] for w in bench["workloads"]]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    produced = set()
    for name, count in (("local-cone", 3), ("wide-support", 3),
                        ("symbase", 12)):
        metrics, _ = _traced(name, count)
        produced |= {k for k, v in metrics.items() if v}
    w, ops = _ops("cli-cold", 0, len(workloads.load_cli_cases()))
    metrics, failures, _ = run.trace_cli(w, ops)
    assert not failures, failures
    produced |= {k for k, v in metrics.items() if v}
    for name in produced:
        assert NAME.fullmatch(name), name
    missing = [m["name"] for m in bench["per_layer"]
               if m["name"] not in produced]
    assert not missing, missing


def test_tail_percentile_leaves_ten_ops():
    for n in (11, 27, 45, 70, 126, 1000):
        p = run.tail_percentile(n)
        ranked = sorted(range(n))
        assert n - ranked.index(run.percentile(ranked, p)) - 1 >= 10
        assert n - ranked.index(run.percentile(ranked, p + 1)) - 1 < 10


def test_import_time_parser():
    stderr = (b"import time: self [us] | cumulative | imported package\n"
              b"import time:       120 |        120 |   qtdelta.rng\n"
              b"import time:       300 |       5000 | qtdelta\n"
              b"import time:       200 |        900 | qtdelta.jsonio\n"
              b"import time:     40000 |     400000 | sympy\n")
    assert run.import_times(stderr) == {"qtdelta": 5000,
                                        "qtdelta.jsonio": 900,
                                        "sympy": 400000}


def test_result_records_machine():
    record = run.machine(ROOT, 7)
    for key in ("commit", "src_sha256", "python", "cpu", "nproc", "seed"):
        assert key in record, key
    assert record["seed"] == 7


if __name__ == "__main__":
    failed = 0
    for test_name, fn in sorted(globals().items()):
        if test_name.startswith("test_") and callable(fn):
            try:
                fn()
                print(f"PASS {test_name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {test_name}: {exc!r}")
    sys.exit(1 if failed else 0)
