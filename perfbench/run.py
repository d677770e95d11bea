"""korbit benchmark: time to verdict on four workloads, plus a traced run
that splits the time over korbit's modules.

Run from the repository root:

    python3 perfbench/run.py --workload verify --seed 20240811 --seconds 25
    python3 perfbench/run.py --workload all --seed 20240811 --seconds 25
    python3 perfbench/run.py --workload foliation --seed 7 --trace 1

A workload (verify, foliation, scan, crosscheck; see NOTES.md) is a list
of units issued by one caller in a closed loop. A pass runs every unit and
emits the payload the CLI would print. The run repeats passes until the
next one would end after --seconds, but makes at least the workload's
minimum number of passes; every pass must emit the same bytes.

--trace 0 reports the end-to-end metrics. Their times are scaled to the
host's fast state by a reference kernel timed between units (hostspeed.py);
the raw times are printed beside them. --trace 1 alternates untraced and
traced passes, reports the per-layer metrics and writes every span to
perfbench/out/. --workload all runs each workload in its own process.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The line before it starts with "detail "
and holds a JSON object with the payload sha256, whether it repeated,
whether it matches perfbench/baseline.json (null when no digest is
recorded for the seed) and, with --trace 0, the raw times. Exit status: 0 when every unit met its
check and the payload repeated byte for byte, 1 otherwise, 2 when korbit
cannot be imported from this checkout's src/ directory.

Timing uses only time.perf_counter and resource.getrusage, on this
process and the interpreters it starts: nothing system-wide is traced and
no cache is dropped.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BASELINE = HERE / "baseline.json"
WORKLOADS = ("verify", "foliation", "scan", "crosscheck")
# One BLAS/OpenMP thread: a workload is a single closed-loop caller, and a
# 2-core machine would otherwise time thread contention.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
# Fresh interpreters timed for setup_s, after one that fills the bytecode
# cache of a new checkout.
SETUP_REPEATS = 5
# Prefix of the stdout line before the result line.
DETAIL = "detail "
# Summed self times of all spans may differ from the traced wall time by
# this share: the loop between units is outside every span.
SELF_SUM_SLACK = 0.05
# ROADMAP.md: "1340-1860 of 4000 probes per family are evaluated" at the
# acceptance seed. Those are all constraint_residuals calls made inside
# partition_check, membership checks included; see NOTES.md.
ACCEPTANCE_SEED = 20240811
ROADMAP_PROBES = (1340, 1860)
RESIDUALS = "orbits.constraint_residuals"
PARTITION = "foliation.partition_check"
PROBE_KEYS = ("evaluated", "guard_rejected", "slots", "residual_calls")


def _import_korbit():
    """Pin BLAS threads, then import korbit from this checkout only."""
    os.environ.update(THREAD_PINS)
    if not (SRC / "korbit" / "__init__.py").is_file():
        print(f"error: no korbit package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import korbit
    if Path(korbit.__file__).resolve().parent != SRC / "korbit":
        print(f"error: imported korbit from {korbit.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


def machine_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "thread_pins": dict(THREAD_PINS)}


@dataclass
class Pass:
    """Outcome of one pass over every unit of a workload."""
    wall: float       # seconds, host speed readings excluded
    latencies: array  # seconds per unit, in unit order
    problems: list    # [(unit label, reason)]
    digest: object    # sha256 of the payload, None when a unit raised
    items: object     # unit documents of a traced pass, else None
    scaled_wall: float = 0.0  # with a HostSpeed: units plus emit, scaled
    scaled: array = None      # with a HostSpeed: latencies, scaled


def run_pass(wl, first_uid, tracer=None, speed=None) -> Pass:
    """Run every unit once, then emit and hash the payload. The unit
    documents are kept only for a traced pass, which reads them after the
    run; an untraced pass must not grow the process from pass to pass.
    With a HostSpeed, each unit is also scaled by the host speed readings
    taken before and after it (hostspeed.py)."""
    from korbit import reports
    from tracer import EMIT, UNIT

    latencies, scales, items, problems = array("d"), array("d"), [], []
    spent = speed.spent if speed else 0.0
    last = len(wl.units) - 1
    t0 = perf_counter()
    for i, unit in enumerate(wl.units):
        if tracer:
            tracer.unit_id = first_uid + i
            tracer.open(UNIT)
        u0 = perf_counter()
        try:
            item, problem = unit.fn(*unit.args)
        except Exception as exc:  # a unit that raises fails; the run goes on
            if not problems:
                traceback.print_exc(file=sys.stderr)
            item, problem = None, f"raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - u0)
        if tracer:
            tracer.close(UNIT)
        items.append(item)
        if problem:
            problems.append((unit.label, problem))
        if speed and (i == last or speed.due()):
            scales.extend([speed.scale()] * (len(latencies) - len(scales)))
    digest = None
    if tracer:
        tracer.unit_id = -1
        tracer.open(EMIT)
    e0 = perf_counter()
    if all(item is not None for item in items):
        payload = reports.dumps(wl.assemble(items)) + "\n"
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    emit = perf_counter() - e0
    if tracer:
        tracer.close(EMIT)
    done = Pass(perf_counter() - t0, latencies, problems, digest,
                items if tracer else None)
    if speed:
        done.wall -= speed.spent - spent
        done.scaled = array("d", map(float.__mul__, latencies, scales))
        done.scaled_wall = sum(done.scaled) + emit * speed.scale()
    return done


def run_loop(wl, seconds, tracer=None, speed=None):
    """Closed loop of passes; with a tracer every second pass is traced.

    Returns (untraced passes, traced passes).
    """
    plain, traced = [], []
    need = 2 if tracer else wl.min_passes
    start = perf_counter()
    while True:
        k = len(plain) + len(traced)
        if tracer and k % 2:
            with tracer.installed():
                traced.append(run_pass(wl, k * len(wl.units), tracer))
            last = traced[-1]
        else:
            plain.append(run_pass(wl, k * len(wl.units), speed=speed))
            last = plain[-1]
        if k + 1 >= need and perf_counter() - start + last.wall > seconds:
            return plain, traced


def measure_setup(name, seed, speed):
    """Median wall time of a fresh interpreter that imports korbit, builds
    the workload's algebras and generates its inputs from the seed: scaled
    by the mean of the host speed readings taken around it, and raw."""
    from hostspeed import SETUP_READS

    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", name, "--seed", str(seed)]
    scaled, raw = [], []
    for k in range(SETUP_REPEATS + 1):
        scales = [speed.scale() for _ in range(SETUP_READS)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        dt = perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        scales += [speed.scale() for _ in range(SETUP_READS)]
        if k:
            scaled.append(dt * statistics.fmean(scales))
            raw.append(dt)
    return statistics.median(scaled), statistics.median(raw)


def recorded_digest(name, seed):
    try:
        data = json.loads(BASELINE.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return None
    return data.get("digests", {}).get(name, {}).get(str(seed))


def determinism(name, seed, passes):
    """The payload digest, whether every pass repeated it, and whether it
    matches the digest recorded for the seed (None when there is none)."""
    digests = {p.digest for p in passes}
    digest = passes[0].digest
    want = recorded_digest(name, seed)
    return {"sha256": digest,
            "repeated": len(digests) == 1 and None not in digests,
            "digest_matches_baseline": None if want is None
            else want == digest}


def _digest_lines(det, passes):
    match = det["digest_matches_baseline"]
    against = {None: "no digest recorded for this seed",
               True: "matches perfbench/baseline.json",
               False: "CHANGED from perfbench/baseline.json"}[match]
    return [f"  payload sha256  {det['sha256']}",
            f"  repeated byte for byte over {len(passes)} passes: "
            f"{'yes' if det['repeated'] else 'NO'}; {against}"]


def _times(walls, latencies, tail_pct):
    import numpy as np

    lat = np.concatenate([np.frombuffer(a) for a in latencies])
    # The median of the verify units falls in a 25 % gap between unit
    # sizes, so the sample median jumps across it with noise; the mean of
    # the middle fifth of the samples moves smoothly (NOTES.md).
    lo, hi = np.percentile(lat, [40, 60])
    middle = float(lat[(lat >= lo) & (lat <= hi)].mean())
    return {"wall_s": (statistics.median(walls), "s"),
            "unit_p50_ms": (middle * 1e3, "ms"),
            "unit_tail_ms": (float(np.percentile(lat, tail_pct)) * 1e3,
                             "ms")}


def end_to_end(wl, plain, setup):
    """The end-to-end metrics at the host's fast speed, and the raw times."""
    scaled_setup, raw_setup = setup
    metrics = {"setup_s": (scaled_setup, "s")}
    metrics.update(_times([p.scaled_wall for p in plain],
                          [p.scaled for p in plain], wl.tail_pct))
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    raw = {"setup_s": raw_setup}
    raw.update({k: v for k, (v, _) in _times(
        [p.wall for p in plain], [p.latencies for p in plain],
        wl.tail_pct).items()})
    return metrics, raw


def per_layer(wl, name, seed, plain, traced, tracer):
    """Per-layer metrics of the traced passes, and report lines."""
    import workloads
    from tracer import EMIT, NAMES, UNIT

    n = len(traced)
    traced_wall = sum(p.wall for p in traced)
    m = tracer.layer_metrics(n)
    rows = m["exp_action.sample_orbit.rows"][0]
    calls = m["exp_action.sample_orbit.calls"][0]
    m["exp_action.sample_orbit.rows_per_call"] = (
        rows / calls if calls else 0.0, "count")

    # Partition probes: a probe is evaluated when partition_check itself
    # calls constraint_residuals and it returns, guard-rejected when that
    # call raises, and sign-rejected otherwise.
    probes = {}  # family -> counts per PROBE_KEYS

    def family_counts(fam):
        return probes.setdefault(fam, dict.fromkeys(PROBE_KEYS, 0))

    for p in traced:
        for unit, item in zip(wl.units, p.items):
            if unit.fn is workloads.partition_unit and item is not None:
                family_counts(item["family"])["slots"] += (
                    item["disjoint_pairs"] * workloads.PROBE_POINTS)
    for key, per_unit in (
            ("evaluated", tracer.count_by_unit(RESIDUALS, PARTITION, False)),
            ("guard_rejected", tracer.count_by_unit(RESIDUALS, PARTITION,
                                                    True)),
            ("residual_calls", tracer.count_by_unit(RESIDUALS))):
        for uid, count in per_unit.items():
            unit = wl.units[uid % len(wl.units)]
            if unit.fn is workloads.partition_unit:
                family_counts(unit.args[0])[key] += count
    total = {k: sum(c[k] for c in probes.values()) for k in PROBE_KEYS}
    for key in ("evaluated", "guard_rejected", "slots"):
        m[f"foliation.probe_{key}"] = (total[key] / n, "count")
    m["foliation.probe_eval_ratio"] = (
        total["evaluated"] / total["slots"] if total["slots"] else 0.0,
        "ratio")

    self_sum = sum(tracer.self_s)
    layer_sum = self_sum - tracer.self_s[UNIT] - tracer.self_s[EMIT]
    m["bench.self_s"] = ((tracer.self_s[UNIT] + tracer.self_s[EMIT]) / n, "s")
    m["trace.wall_s"] = (statistics.median(p.wall for p in traced), "s")
    m["trace.overhead_ratio"] = (
        m["trace.wall_s"][0] / statistics.median(p.wall for p in plain),
        "ratio")
    m["trace.self_sum_ratio"] = (self_sum / traced_wall, "ratio")
    m["trace.layer_share"] = (layer_sum / traced_wall, "ratio")

    modules = {}
    for nid, s in enumerate(tracer.self_s):
        mod = NAMES[nid].rsplit(".", 1)[0]
        modules[mod] = modules.get(mod, 0.0) + s
    shares = sorted(modules.items(), key=lambda kv: -kv[1])
    lines = ["  self time by module: " + ", ".join(
        f"{mod} {100.0 * s / traced_wall:.1f}%" for mod, s in shares)]
    ratio = m["trace.self_sum_ratio"][0]
    within = abs(ratio - 1.0) <= SELF_SUM_SLACK
    lines.append(f"  summed self time / traced wall_s = {ratio:.4f} "
                 f"(slack {SELF_SUM_SLACK}: "
                 f"{'within' if within else 'OUTSIDE'})")
    per_pass = {f: {k: v // n for k, v in c.items()}
                for f, c in probes.items()}
    if per_pass:
        lines.append("  partition probes evaluated / slots per family: "
                     + ", ".join(f"{f} {c['evaluated']}/{c['slots']}"
                                 for f, c in per_pass.items()))
        lines.append("  constraint_residuals calls inside partition_check "
                     "(probes plus membership checks): " + ", ".join(
                         f"{f} {c['residual_calls']}"
                         for f, c in per_pass.items()))
        if seed == ACCEPTANCE_SEED:
            lo, hi = ROADMAP_PROBES
            inside = all(lo <= c["residual_calls"] <= hi
                         for c in per_pass.values())
            lines.append(f"  ROADMAP observation of {lo}-{hi} per family "
                         f"counts those calls: "
                         f"{'agrees' if inside else 'DISAGREES'}")
    summary = {"workload": name, "seed": seed, "traced_passes": n,
               "untraced_passes": len(plain), "machine": machine_info(),
               "module_self_s": {k: v / n for k, v in shares},
               "probes_per_family": per_pass,
               "metrics": {k: v[0] for k, v in m.items()}}
    return m, lines, summary


def run_one(args) -> int:
    import workloads
    from hostspeed import HostSpeed
    from tracer import Tracer

    name, seed = args.workload, args.seed
    speed = None if args.trace else HostSpeed()
    setup = None if args.trace else measure_setup(name, seed, speed)
    wl = workloads.build(name, seed)
    # The inputs live for the whole run: keep them out of the collector's
    # full passes, whose pauses would otherwise land in unit latencies.
    gc.collect()
    gc.freeze()
    tracer = Tracer() if args.trace else None
    plain, traced = run_loop(wl, args.seconds, tracer, speed)
    passes = plain + traced
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.problems) for p in passes)
    first = {}
    for p in passes:
        for label, reason in p.problems:
            first.setdefault(label, reason)
    for label, reason in first.items():
        print(f"FAILED unit {label}: {reason}", file=sys.stderr)
    det = determinism(name, seed, passes)

    pins = " ".join(f"{k}={v}" for k, v in THREAD_PINS.items())
    print(f"workload {name}  seed {seed}  passes {len(plain)} untraced, "
          f"{len(traced)} traced  units/pass {len(wl.units)}  {pins}")
    if args.trace:
        metrics, lines, summary = per_layer(wl, name, seed, plain, traced,
                                            tracer)
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{name}-seed{seed}"
        tracer.write(f"{stem}-spans.npz", [u.label for u in wl.units])
        summary["payload_sha256"] = passes[0].digest
        Path(f"{stem}-trace.json").write_text(
            json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    else:
        metrics, det["raw"] = end_to_end(wl, plain, setup)
        lat_n = sum(len(p.latencies) for p in plain)
        notes = {"setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
                 "wall_s": f"median of {len(plain)} passes",
                 "unit_p50_ms": f"p40-p60 mean of {lat_n} units",
                 "unit_tail_ms": f"p{wl.tail_pct:g} of {lat_n} units",
                 "peak_rss_mb": "ru_maxrss of this process"}
        lines = ["  times at the host's fast speed (raw times in brackets)"]
        for k, (v, u) in metrics.items():
            raw = f"[{det['raw'][k]:.6g}]" if k in det["raw"] else ""
            lines.append(f"  {k:<13} {v:<9.6g} {raw:<11} {u:<3} "
                         f"({notes[k]})")
        lines.append(f"  fail_ratio    {failed / attempted:<9.6g} "
                     f"{'':<15} ({failed} of {attempted} units failed)")
    for line in lines + _digest_lines(det, passes):
        print(line)
    correct = failed == 0 and det["repeated"]
    print(DETAIL + json.dumps(det))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; prints a combined result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{k}": v
                                  for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def _nonnegative(text):
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return v


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=_nonnegative, required=True)
    ap.add_argument("--seconds", type=_nonnegative, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _import_korbit()
    if args.workload == "all":
        if args.setup_probe:
            ap.error("--setup-probe needs a single workload")
        return run_all(args)
    import workloads
    if args.setup_probe:
        workloads.build(args.workload, args.seed)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
