#!/usr/bin/env python3
"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --workloads hopf-fd,null-algebra \
        --seeds 1,2,3,4,5,6,7,8,9,10

Spread is (Q3 - Q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`.  A metric is steady when its spread
is below a third of its bound; `setup_s` is reported but, as its own
bound allows, only its median has to hold between two sets of runs.
The default seeds are the development set; the held-out seeds
(`--seeds 1001,...,1010`) confirm a claim on inputs not used while it
was written.  Writes `.perfbench_out/steadiness-<workload>.json`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEV_SEEDS = tuple(range(1, 11))
HELD_OUT_SEEDS = tuple(range(1001, 1011))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default=",".join(map(str, DEV_SEEDS)),
                   help="comma list; held out: " + ",".join(map(str, HELD_OUT_SEEDS)))
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    steady = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        failed = 0
        for seed in seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  "failed", result["failed"], flush=True)
        rows = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            rows[m["name"]] = {"median": statistics.median(v), "spread": spread(v),
                               "bound": m["bound"], "values": v}
            ok = m["name"] == "setup_s" or rows[m["name"]]["spread"] < m["bound"] / 3
            steady &= ok
            print(f"  {workload:13s} {m['name']:14s} median {statistics.median(v):10.5g}"
                  f"  spread {rows[m['name']]['spread']:.4f}  bound {m['bound']}"
                  f"  {'ok' if ok else 'WIDE'}")
        steady &= failed == 0
        out = ROOT / ".perfbench_out" / f"steadiness-{workload}.json"
        out.write_text(json.dumps({"seeds": seeds, "failed": failed, "metrics": rows},
                                  indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
