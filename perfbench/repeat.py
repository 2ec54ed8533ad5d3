"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME --seeds 1 2 3 ... [--seconds T] [--json FILE]

For each metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json.  With --json it appends
a record with every run's values and the machine context to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()

    runs, context = [], []
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
        result = json.loads(lines[-1])
        context = [line for line in lines if line.startswith("# ")]
        runs.append({"seed": seed, **{k: v["value"] for k, v in result["metrics"].items()}})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in runs[-1].items() if k != "seed"),
              flush=True)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {}
    for name in runs[0]:
        if name == "seed":
            continue
        values = [r[name] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        note = f"bound {bound}  spread/bound {spread / bound:.2f}" if bound else ""
        print(f"{name:40s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}  {note}")
    if args.json:
        path = Path(args.json)
        records = json.loads(path.read_text()) if path.exists() else []
        records.append({"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                        "context": context, "runs": runs, "summary": summary})
        path.write_text(json.dumps(records, indent=1) + "\n")


if __name__ == "__main__":
    main()
