"""Run benchmark workloads on seed 0 and compare the printed output
digests with the seed-0 table in gaitbench/README.md.

usage: python3 .github/check_seed0_digests.py WORKLOAD...

Exits 1 if any workload's outputs differ from the table.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUTPUTS = ("features.csv", "model.svm", "report.txt")


def recorded(workload: str) -> dict[str, str]:
    """The table row of ``workload``: first 16 hex digits per output."""
    for line in (ROOT / "gaitbench" / "README.md").read_text().splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) == 1 + len(OUTPUTS) and cells[0] == workload:
            return {name: cell for name, cell in zip(OUTPUTS, cells[1:]) if cell != "-"}
    sys.exit(f"no seed-0 digest row for {workload} in gaitbench/README.md")


def printed(workload: str) -> dict[str, str]:
    command = [sys.executable, "gaitbench/run.py", "--workload", workload,
               "--seed", "0", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    line = next(ln for ln in out.splitlines() if ln.startswith("output sha256: "))
    return {name: digest[:16] for name, digest in json.loads(line.split(": ", 1)[1]).items()}


def main(workloads: list[str]) -> int:
    failed = False
    for workload in workloads:
        expected, got = recorded(workload), printed(workload)
        print(f"{workload}: " + ("ok" if got == expected else f"{got} != {expected}"))
        failed |= got != expected
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
