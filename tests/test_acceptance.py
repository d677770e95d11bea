"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line (run with -s to see them). Tolerances and time budgets are pinned
here on purpose; loosening them is a behavior change, not a test fix.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import korbit as kb

SEED = 20240811

JACOBI_GRID = {
    "5.3.1": [(2.0, 3.0), (-1.0, 2.0), (0.5, -0.5), (3.0, 5.0), (-2.0, -3.0)],
    "5.3.2": [(2.0,), (-1.0,), (0.5,), (3.0,), (-2.0,)],
    "5.3.3": [(2.0,), (-1.0,), (0.5,), (3.0,), (-2.0,)],
    "5.3.4": [()],
    "5.3.5": [(2.0,), (-1.0,), (0.5,), (3.0,), (-2.0,)],
    "5.3.6": [(2.0,), (-1.0,), (0.5,), (3.0,), (-2.0,)],
    "5.3.7": [()],
    "5.3.8": [(lam, ph)
              for lam in (0.5, -0.5, 2.0, -2.0, 3.0)
              for ph in (math.pi / 6, math.pi / 3, math.pi / 2,
                         2 * math.pi / 3, 5 * math.pi / 6)],
}

SCAN_COMBOS = [
    ("5.3.1", None),
    ("5.3.2", None),
    ("5.3.3", None),
    ("5.3.4", None),
    ("5.3.5", None),
    ("5.3.6", None),
    ("5.3.7", None),
    ("5.3.8", None),
    ("5.3.1", {"lambda1": -2.0, "lambda2": 0.5}),
    ("5.3.8", {"lambda": 1.0, "phi": math.pi / 2}),
]


def _line(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


def test_criterion_1_jacobi_identity_over_grids():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for fam, grid in JACOBI_GRID.items():
        for vals in grid:
            alg = kb.build_algebra(fam, vals if vals else None)
            worst = max(worst, kb.jacobi_residual(alg))
            count += 1
    dt = time.perf_counter() - t0
    ok = worst < 1e-12 and dt < 1.0
    _line("criterion 1: Jacobi identity over parameter grids", ok,
          f"{count} algebras, max residual {worst:.2e}, {dt:.2f}s")
    assert worst < 1e-12
    assert dt < 1.0


def test_criterion_2_closed_form_exponentials():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_exp = 0.0
    for fam in kb.FAMILY_TAGS:
        alg = kb.build_algebra(fam, None)
        for _ in range(1000):
            U = rng.uniform(-3.0, 3.0, 5)
            d = np.max(np.abs(kb.exp_ad(alg, U).m
                              - kb.exp_ad_closed(fam, alg.params, U).m))
            worst_exp = max(worst_exp, float(d))
    alg1 = kb.build_algebra("5.3.1", (2.0, 3.0))
    worst_sketch = 0.0
    for _ in range(1000):
        U = rng.uniform(-2.0, 2.0, 5)
        F = rng.uniform(-3.0, 3.0, 5)
        a = kb.coadjoint_move(alg1, F, U)
        b = kb.coadjoint_move_531(alg1.params, F, U)
        d = np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)))
        worst_sketch = max(worst_sketch, float(d))
    dt = time.perf_counter() - t0
    ok = worst_exp < 1e-9 and worst_sketch < 1e-9 and dt < 5.0
    _line("criterion 2: closed-form exponentials and the diagonal-family "
          "motion", ok,
          f"exp gap {worst_exp:.2e}, motion gap {worst_sketch:.2e}, {dt:.2f}s")
    assert worst_exp < 1e-9
    assert worst_sketch < 1e-9
    assert dt < 5.0


def test_criterion_3_rank_scan():
    t0 = time.perf_counter()
    bad = []
    for fam, params in SCAN_COMBOS:
        rep = kb.md_scan(fam, params, n=100000, seed=SEED)
        if not (set(rep.histogram) <= {0, 2} and rep.violations == []
                and rep.zero_rank_failures == []):
            bad.append((fam, params))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 30.0
    _line("criterion 3: orbit dimension in {0, 2} over 10^5 covectors x "
          f"{len(SCAN_COMBOS)} parameter combos", ok,
          f"failures {bad or 'none'}, {dt:.2f}s")
    assert not bad
    assert dt < 30.0


def test_criterion_4_case_verification():
    t0 = time.perf_counter()
    failures = []
    adopted = {}
    worst_res = 0.0
    worst_tan = 0.0
    for fam in kb.FAMILY_TAGS:
        for c in kb.case_indices(fam):
            rep = kb.verify_proposition(fam, None, c, n=500, seed=SEED)
            worst_res = max(worst_res, rep.max_residual)
            worst_tan = max(worst_tan, rep.tangency_max)
            if not rep.passed:
                failures.append((fam, c, rep.max_residual, rep.tangency_max,
                                 rep.sign_violations, rep.jacobian_failures))
            for entry in rep.provenance:
                adopted[(fam, c)] = entry["adopted"]
    dt = time.perf_counter() - t0
    expected_flags = {
        ("5.3.1", 6): "literal",
        ("5.3.3", 4): "literal",
        ("5.3.5", 8): "corrected",
        ("5.3.7", 5): "literal",
        ("5.3.7", 6): "literal",
        ("5.3.7", 7): "literal",
        ("5.3.7", 8): "literal",
        ("5.3.8", 3): "oracle-corrected",
    }
    flags_ok = all(adopted.get(k) == v for k, v in expected_flags.items())
    ok = not failures and flags_ok and dt < 60.0
    _line("criterion 4: closed-form case constraints at n=500 per base", ok,
          f"max residual {worst_res:.2e}, max tangency {worst_tan:.2e}, "
          f"adjudications {len(adopted)}, {dt:.2f}s")
    assert not failures, failures
    assert flags_ok, adopted
    assert worst_res < 1e-8
    assert worst_tan < 1e-8
    assert dt < 60.0


def test_criterion_5_partition_and_charts():
    t0 = time.perf_counter()
    bad = []
    for fam in kb.FAMILY_TAGS:
        rep = kb.partition_check(fam, None, pairs=100, seed=SEED)
        if not rep.passed:
            bad.append((fam, "partition", rep.failures[:3]))
        for c in kb.case_indices(fam):
            if c == 1:
                continue
            if not kb.local_triviality_probe(fam, None, c, n=100, seed=SEED):
                bad.append((fam, c, "chart probe"))
    dt = time.perf_counter() - t0
    ok = not bad and dt < 30.0
    _line("criterion 5: orbit partition and chart probes", ok,
          f"failures {bad or 'none'}, {dt:.2f}s")
    assert not bad, bad
    assert dt < 30.0


def _run_cli(args, threads=None):
    env = os.environ.copy()
    env.pop("KORBIT_THREADS", None)
    if threads is not None:
        env["KORBIT_THREADS"] = str(threads)
    return subprocess.run([sys.executable, "-m", "korbit", *args],
                          capture_output=True, text=True, env=env)


def test_criterion_6_deterministic_cli_output():
    checks = [
        ("scan-md", "--family", "5.3.1", "--n", "20000", "--seed", "123"),
        ("verify-props", "--family", "5.3.8", "--case", "3", "--n", "200",
         "--seed", "123", "--format", "json"),
        ("sample-orbit", "--family", "5.3.5", "--covector", "0,0,1,1,1",
         "--n", "50", "--seed", "123"),
    ]
    ok = True
    detail = []
    for args in checks:
        runs = [_run_cli(args), _run_cli(args), _run_cli(args, threads=8)]
        codes = {r.returncode for r in runs}
        outs = {r.stdout for r in runs}
        if codes != {0} or len(outs) != 1:
            ok = False
            detail.append(args[0])
    _line("criterion 6: byte-identical reruns, thread setting inert", ok,
          f"divergent: {detail or 'none'}")
    assert ok, detail


def test_criterion_7_gradients_and_first_order_flow():
    t0 = time.perf_counter()
    worst_grad = 0.0
    for fam in kb.FAMILY_TAGS:
        alg = kb.build_algebra(fam, None)
        for c in kb.case_indices(fam):
            base = kb.canonical_bases(fam, c)[0]
            desc = kb.classify_orbit(fam, None, base)
            pts = kb.sample_orbit(alg, base, 30, seed=SEED, radius=1.5).points
            for q in pts:
                worst_grad = max(worst_grad,
                                 kb.gradient_fd_error(desc, q, step=1e-6))
    rng = np.random.default_rng(SEED)
    eps = 1e-6
    worst_flow = 0.0
    for fam in kb.FAMILY_TAGS:
        alg = kb.build_algebra(fam, None)
        for _ in range(100):
            U = rng.uniform(-2.0, 2.0, 5)
            F = rng.uniform(-2.0, 2.0, 5)
            drift = (kb.coadjoint_move(alg, F, eps * U) - F) / eps
            want = kb.ad_matrix(alg, U).T @ F
            err = np.max(np.abs(drift - want)) / (1.0 + np.max(np.abs(want)))
            worst_flow = max(worst_flow, float(err))
    dt = time.perf_counter() - t0
    ok = worst_grad < 1e-4 and worst_flow < 1e-4
    _line("criterion 7: analytic gradients and first-order coadjoint flow",
          ok, f"gradient err {worst_grad:.2e}, flow err {worst_flow:.2e}, "
              f"{dt:.2f}s")
    assert worst_grad < 1e-4
    assert worst_flow < 1e-4
