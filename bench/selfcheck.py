"""Self-check of the benchmark: a tiny run of every workload.

    python3 bench/selfcheck.py

For each workload, checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, and that two traced runs print
every per-layer metric with its unit and agree on every count.  Exits 1
and names the first mismatch otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# per-layer values that depend only on the inputs, never on timing
EXACT_UNITS = ("count", "bytes")
EXACT_RATIOS = ("formats.valid_ratio", "mutation.accept_ratio", "failed_ratio")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def expect_metrics(what: str, result: dict, specs: list[dict]):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{what}: result keys are {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        raise SystemExit(f"{what}: not a correct run: {result}")
    want = {m["name"]: m["unit"] for m in specs}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise SystemExit(f"{what}: missing {missing}, unexpected {extra}, "
                         f"wrong unit {wrong}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        expect_metrics(f"{workload} trace=0", run(workload, 0), spec["end_to_end"])
        first, second = run(workload, 1), run(workload, 1)
        for result in (first, second):
            expect_metrics(f"{workload} trace=1", result, spec["per_layer"])
        for name, m in first["metrics"].items():
            exact = m["unit"] in EXACT_UNITS or name in EXACT_RATIOS
            if exact and m["value"] != second["metrics"][name]["value"]:
                raise SystemExit(f"{workload}: {name} differs between traced runs: "
                                 f"{m['value']} != {second['metrics'][name]['value']}")
        print(f"{workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
