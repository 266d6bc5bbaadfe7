"""Check the benchmark itself.

    python3 perfbench/selfcheck.py

- The metric names and units in run.py match BENCHMARK.json.
- For every workload, two traced runs on the default seed are correct (the
  reference outputs match and every traced composition reproduces the
  untraced call) and report identical computed counts.

Exits 0 when every check passes.  Takes about a minute, mostly the oracle
workload, whose single round cannot be shortened.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import COUNT_UNITS, END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, WORKLOAD_NAMES


def traced_run(name: str) -> dict:
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name,
           "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != units:
            problems.append(f"BENCHMARK.json {key} {declared} != run.py {units}")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.py")

    for name in WORKLOAD_NAMES:
        first, second = traced_run(name), traced_run(name)
        for res in (first, second):
            if not res["correct"]:
                problems.append(f"{name}: {res['failed']} of {res['attempted']} traced ops failed")
        counts = [{c: res["metrics"][c]["value"] for c in COUNT_UNITS} for res in (first, second)]
        if counts[0] != counts[1]:
            problems.append(f"{name}: counts differ between runs: {counts[0]} vs {counts[1]}")
        print(f"{name}: counts {counts[0]}")

    for p in problems:
        print(f"PROBLEM {p}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
