"""Record the benchmark baseline into perfbench/baseline.json.

    python3 perfbench/record.py

Runs every workload once per seed with tracing off, one run after
another and each for the run_seconds of BENCHMARK.json, then once per
workload with tracing on at the main seed. Stores, per workload, each
seed's end-to-end metrics, raw times and payload sha256, the median and
quartiles of each metric and raw time with its quartile spread
(IQR / median), and the traced per-layer metrics. The main seed is the
acceptance seed of tests/test_acceptance.py; the held-out seed was not
used for tuning, so that a later gain can be checked on a seed it was not
tuned on.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

MAIN_SEED, HELD_OUT_SEED = 20240811, 1729
SEEDS = (MAIN_SEED, HELD_OUT_SEED, 1, 2, 3, 4, 5, 6, 7, 8)

def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    detail = json.loads(lines[-2].removeprefix(run.DETAIL))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    seconds = json.loads((run.HERE.parent / "BENCHMARK.json").read_text(
        encoding="utf-8"))["run_seconds"]
    run._import_korbit()
    out = {"seeds": {"main": MAIN_SEED, "held_out": HELD_OUT_SEED},
           "run_seconds": seconds, "machine": run.machine_info(),
           "digests": {}, "workloads": {}}
    for name in run.WORKLOADS:
        per_seed = {}
        for seed in SEEDS:
            metrics, detail = run_once(name, seed, seconds, 0)
            per_seed[str(seed)] = {"metrics": metrics, "raw": detail["raw"],
                                   "sha256": detail["sha256"]}
            print(name, seed, {k: round(v, 4) for k, v in metrics.items()},
                  flush=True)
        traced, _ = run_once(name, MAIN_SEED, seconds, 1)
        out["digests"][name] = {s: v["sha256"] for s, v in per_seed.items()}
        out["workloads"][name] = {
            "summary": {k: summarize([v["metrics"][k]
                                      for v in per_seed.values()])
                        for k in metrics},
            "raw_summary": {k: summarize([v["raw"][k]
                                          for v in per_seed.values()])
                            for k in detail["raw"]},
            "per_seed": per_seed,
            "traced_main_seed": traced,
        }
    Path(run.BASELINE).write_text(json.dumps(out, indent=1) + "\n",
                                  encoding="utf-8")
    for name, data in out["workloads"].items():
        for kind in ("summary", "raw_summary"):
            print(name, kind, {k: f"{v['median']:.4g} "
                               f"(spread {v['spread']:.3f})"
                               for k, v in data[kind].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
