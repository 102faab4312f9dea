"""Set-up probe: a fresh interpreter imports qtdelta and finishes one checked
warm-up operation of a workload.  The warm-up pulls in what the package
imports lazily, for example sympy on the base search.

    python3 perfbench/probe.py WORKLOAD SEED

Exit code 0 when the warm-up result checks out, 1 otherwise.
"""

from __future__ import annotations

import sys

from checkout import import_qtdelta

root = import_qtdelta()

import workloads  # noqa: E402  (needs qtdelta on the path)


def main(name, seed):
    workload = workloads.WORKLOADS[name](root)
    op = workload.warm_up_op(seed)
    reason = workload.check(op, workload.warm_up(op))
    if reason:
        sys.exit(f"perfbench probe: {reason}")


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
