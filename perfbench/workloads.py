"""The four benchmark workloads, their inputs and their correctness gates.

A workload is a list of units plus an assembler that turns the units'
report documents into the payload the CLI would print. Every unit call
goes through a korbit module attribute (``orbits.verify_proposition``,
not ``korbit.verify_proposition``), so the traced run sees it once the
tracer has replaced that attribute.

The bounds in the gates are the library defaults and the pinned values of
tests/test_acceptance.py. They are copied, never loosened.
"""

import math
from dataclasses import dataclass

import numpy as np

from korbit import algebra, exp_action, foliation, kirillov, orbits

# Sizes are the CLI defaults, which reproduce the baseline of ROADMAP.md.
VERIFY_N = 500
PARTITION_PAIRS = 100
PROBE_MEMBERS = 100
PROBE_POINTS = 50  # partition_check's probes per disjoint pair
SCAN_N = 100_000
CROSSCHECK_DRAWS = 1000  # per family

# Criterion 4 of tests/test_acceptance.py.
RESIDUAL_TOL = 1e-8
TANGENCY_TOL = 1e-8
EXPECTED_ADOPTED = {
    ("5.3.1", 6): "literal",
    ("5.3.3", 4): "literal",
    ("5.3.5", 8): "corrected",
    ("5.3.7", 5): "literal",
    ("5.3.7", 6): "literal",
    ("5.3.7", 7): "literal",
    ("5.3.7", 8): "literal",
    ("5.3.8", 3): "oracle-corrected",
}

# Criterion 3.
SCAN_COMBOS = [(fam, None) for fam in algebra.FAMILY_TAGS] + [
    ("5.3.1", {"lambda1": -2.0, "lambda2": 0.5}),
    ("5.3.8", {"lambda": 1.0, "phi": math.pi / 2}),
]

# Criterion 2.
CROSSCHECK_TOL = 1e-9
MOTION_PARAMS = (2.0, 3.0)


@dataclass
class Unit:
    """One closed-loop call: ``fn(*args)`` returns (document, problem).

    ``problem`` is None when the pinned check holds, else a short reason.
    """
    label: str
    fn: object
    args: tuple


@dataclass
class Workload:
    units: list
    assemble: object  # list of unit documents -> payload object
    min_passes: int   # passes every run makes, whatever --seconds says
    tail_pct: float   # highest percentile with >= 10 samples beyond it
                      # in min_passes passes; fixed per workload so runs
                      # of different length report the same statistic


def _tail_pct(samples: int) -> float:
    # Capped at p90: beyond it, the crosscheck units of a fraction of a
    # millisecond time the host's interruptions rather than korbit.
    ladder = (90.0, 80.0, 75.0, 50.0)
    # samples * (100 - p) / 100 >= 10, rounded so that 50 * 20 counts
    return next(p for p in ladder if round(samples * (100.0 - p), 6) >= 1000)


def _workload(units, assemble, min_passes):
    return Workload(units, assemble, min_passes,
                    _tail_pct(len(units) * min_passes))


def _build_defaults():
    # The units build these again; set-up builds them once so that a bad
    # parameter set fails before any timing starts.
    for fam in algebra.FAMILY_TAGS:
        algebra.build_algebra(fam, None)


# ---- verify: verify-props --family all --n 500 --format json ------------

def _verify_unit(fam, case, seed):
    rep = orbits.verify_proposition(fam, None, case, n=VERIFY_N, seed=seed)
    problem = None
    if not rep.passed:
        problem = "report not passed"
    elif not (rep.max_residual < RESIDUAL_TOL
              and rep.tangency_max < TANGENCY_TOL):
        problem = "residual or tangency above the pinned bound"
    elif (fam, case) in EXPECTED_ADOPTED:
        # criterion 4 keeps the last adjudication entry of the case
        got = rep.provenance[-1]["adopted"] if rep.provenance else None
        want = EXPECTED_ADOPTED[(fam, case)]
        if got != want:
            problem = f"adjudication {got!r}, expected {want!r}"
    return rep.to_json_dict(), problem


def _verify(seed):
    _build_defaults()
    units = [Unit(f"{fam} case {c}", _verify_unit, (fam, c, seed))
             for fam in algebra.FAMILY_TAGS for c in orbits.case_indices(fam)]
    # Two passes of about 11 s fill a 25 s run.
    return _workload(units, list, min_passes=2)


# ---- foliation: check-foliation --family all --pairs 100 ----------------

def partition_unit(fam, seed):
    rep = foliation.partition_check(fam, None, pairs=PARTITION_PAIRS,
                                    seed=seed, probe_points=PROBE_POINTS)
    return rep.to_json_dict(), None if rep.passed else "partition not passed"


def _probe_unit(fam, case, seed):
    ok = foliation.local_triviality_probe(fam, None, case, n=PROBE_MEMBERS,
                                          seed=seed)
    return (fam, case, ok), None if ok else "chart probe false"


def _foliation_payload(items):
    docs = []
    for item in items:
        if isinstance(item, dict):
            item = dict(item)
            item["local_triviality"] = {}
            docs.append(item)
        else:
            fam, case, ok = item
            docs[-1]["local_triviality"][str(case)] = ok
    return docs


def _foliation(seed):
    _build_defaults()
    units = []
    for fam in algebra.FAMILY_TAGS:
        units.append(Unit(f"{fam} partition", partition_unit, (fam, seed)))
        units += [Unit(f"{fam} chart {c}", _probe_unit, (fam, c, seed))
                  for c in orbits.case_indices(fam) if c != 1]
    return _workload(units, _foliation_payload, min_passes=2)


# ---- scan: scan-md --n 100000 over the criterion 3 combinations ---------

def _scan_unit(fam, params, seed):
    rep = kirillov.md_scan(fam, params, n=SCAN_N, seed=seed)
    problem = None
    if not set(rep.histogram) <= {0, 2}:
        problem = f"ranks {sorted(rep.histogram)} outside {{0, 2}}"
    elif rep.violations or rep.zero_rank_failures:
        problem = "rank violations or zero-rank failures"
    return rep.to_json_dict(), problem


def _scan(seed):
    for fam, params in SCAN_COMBOS:
        algebra.build_algebra(fam, params)
    units = [Unit(f"{fam} {params or 'defaults'}", _scan_unit,
                  (fam, params, seed)) for fam, params in SCAN_COMBOS]
    return _workload(units, list, min_passes=5)


# ---- crosscheck: generic vs closed-form route, criterion 2 --------------

def _crosscheck_unit(alg, U, alg531, F, V):
    exp_gap = float(np.max(np.abs(
        exp_action.exp_ad(alg, U).m
        - exp_action.exp_ad_closed(alg.family, alg.params, U).m)))
    a = exp_action.coadjoint_move(alg531, F, V)
    b = exp_action.coadjoint_move_531(alg531.params, F, V)
    motion_gap = float(np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a))))
    problem = None
    if not (exp_gap < CROSSCHECK_TOL and motion_gap < CROSSCHECK_TOL):
        problem = f"exp gap {exp_gap:.3e}, motion gap {motion_gap:.3e}"
    return (alg.family, exp_gap, motion_gap), problem


def _crosscheck_payload(items):
    worst = {}
    for fam, exp_gap, motion_gap in items:
        w = worst.setdefault(fam, {"family": fam, "draws": 0,
                                   "exp_gap": 0.0, "motion_gap": 0.0})
        w["draws"] += 1
        w["exp_gap"] = max(w["exp_gap"], exp_gap)
        w["motion_gap"] = max(w["motion_gap"], motion_gap)
    return list(worst.values())


def _crosscheck(seed):
    rng = np.random.default_rng(seed)
    fams = algebra.FAMILY_TAGS
    Us = rng.uniform(-3.0, 3.0, size=(len(fams), CROSSCHECK_DRAWS, 5))
    Fs = rng.uniform(-3.0, 3.0, size=(len(fams), CROSSCHECK_DRAWS, 5))
    Vs = rng.uniform(-2.0, 2.0, size=(len(fams), CROSSCHECK_DRAWS, 5))
    alg531 = algebra.build_algebra("5.3.1", MOTION_PARAMS)
    units = []
    for i, fam in enumerate(fams):
        alg = algebra.build_algebra(fam, None)
        units += [Unit(f"{fam} draw {k}", _crosscheck_unit,
                       (alg, Us[i, k], alg531, Fs[i, k], Vs[i, k]))
                  for k in range(CROSSCHECK_DRAWS)]
    return _workload(units, _crosscheck_payload, min_passes=2)


BUILDERS = {"verify": _verify, "foliation": _foliation, "scan": _scan,
            "crosscheck": _crosscheck}


def build(name: str, seed: int) -> Workload:
    """Build the workload's algebras and its inputs from the seed."""
    return BUILDERS[name](int(seed))
