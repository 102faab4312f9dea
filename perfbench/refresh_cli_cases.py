"""Re-record the exit code and stdout digest of every cli-cold case.

The stored digests are the byte-identical stdout contract the cli-cold
workload checks.  Re-record them only for a change that alters CLI output
on purpose, from the repository root:

    python3 perfbench/refresh_cli_cases.py
"""

from __future__ import annotations

import hashlib
import json

from checkout import import_qtdelta

root = import_qtdelta()

import workloads  # noqa: E402  (needs qtdelta on the path)


def main():
    cli = workloads.CliCold(root)
    with open(workloads.CLI_CASES, encoding="utf-8") as fh:
        data = json.load(fh)
    for case in data["cases"]:
        code, stdout, stderr = cli.run(case)
        if stderr:
            raise SystemExit(f"{case['command']}: {stderr.decode()}")
        case["exit"] = code
        case["stdout_sha256"] = hashlib.sha256(stdout).hexdigest()
        print(f"{case['command']}: exit {code}, {len(stdout)} bytes")
    with open(workloads.CLI_CASES, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
