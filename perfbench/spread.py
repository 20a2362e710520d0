"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads W ...] [--seeds 1-10] [--trace]
                                [--out perfbench/baseline.json]
                                [--against perfbench/baseline.json]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, the distance between the quartiles as a share of the median,
against the metric's bound.  ``--against FILE`` also prints how far each
median moved from the one in an earlier ``--out`` file, against the bound
(the check that two sets of runs agree).  ``--trace`` adds one traced run per workload
(first seed) for the per-layer metrics.  ``--out`` writes all of it, with
the environment of the runs, as a baseline file.
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


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result {result}")
    record = HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json"
    return {**result, "record": json.loads(record.read_text(encoding="utf-8"))}


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else None
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    ap.add_argument("--against", type=Path)
    args = ap.parse_args(argv)
    earlier = (json.loads(args.against.read_text(encoding="utf-8"))["workloads"]
               if args.against else {})

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    baseline = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(spec, workload, seed, 0) for seed in args.seeds]
        entry = {"env": runs[0]["record"]["env"], "metrics": {}}
        print(f"{workload}  ({len(runs)} runs)")
        for name in runs[0]["record"]["report"]:
            rows = [r["record"]["report"][name] for r in runs]
            s = summarize([row["value"] for row in rows])
            metric = {"unit": rows[0]["unit"], "samples": [row["samples"] for row in rows]}
            if name in bounds:
                bound = metric["bound"] = bounds[name]["bound"]
                verdict = ("ok" if s["spread"] < bound / 3
                           else "within bound" if s["spread"] <= bound else "OVER BOUND")
                print(f"  {name:<14} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                      f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} / bound {bound}"
                      f"  {verdict}")
                if name in earlier.get(workload, {}).get("metrics", {}):
                    before = earlier[workload]["metrics"][name]["median"]
                    change = (s["median"] - before) / before
                    print(f"  {'':<14} median {change:+.4f} against {args.against}"
                          f"  {'ok' if change <= bound else 'WORSE THAN BOUND'}")
            entry["metrics"][name] = {**metric, **s}
        if args.trace:
            traced = run_once(spec, workload, args.seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        baseline["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
