"""Run every workload untraced and traced; print every metric by name.

    python3 bench/report.py [--seed 1] [--seconds 10]

Each run is a separate ``run.py`` process, so peak memory is per workload.
Exits 1 if any run reports an incorrect result or fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            print(f"== {name} trace={trace} exit={proc.returncode}")
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                print(proc.stderr)
                ok = False
                continue
            ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
