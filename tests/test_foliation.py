import warnings

import numpy as np
import pytest

import korbit as kb
from korbit import exp_action, orbits
from korbit.errors import AsymmetryError, DomainError, EvaluationError

from conftest import CANONICAL


def test_generic_stratum_predicate():
    assert not kb.generic_stratum_contains([1.0, -2.0, 0.0, 0.0, 0.0])
    assert kb.generic_stratum_contains([0.0, 0.0, 1e-12, 0.0, 0.0])
    assert kb.generic_stratum_contains([0.0, 0.0, 0.0, 0.0, 3.0])
    stack = [[1.0, -2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1e-12, 0.0, 0.0],
             [0.0, 0.0, 0.0, 0.0, 3.0]]
    assert kb.generic_stratum_contains(stack).tolist() == [False, True, True]
    with pytest.raises(DomainError):
        kb.generic_stratum_contains([[0.0, 0.0, np.nan, 0.0, 0.0]])


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_partition_check_small(fam, params):
    rep = kb.partition_check(fam, params, pairs=20, seed=14)
    assert rep.passed, rep.failures
    assert rep.n == 40
    assert rep.generic + rep.fixed_point == rep.n
    # injected same-orbit pairs at indices 3, 8, 13, 18
    assert rep.same_leaf_pairs == 4
    assert rep.disjoint_pairs == 16
    if rep.min_separation is not None:
        assert rep.min_separation > 10 * rep.tol


def test_partition_report_is_deterministic():
    a = kb.partition_check("5.3.5", {"lambda": 2.0}, pairs=15, seed=3)
    b = kb.partition_check("5.3.5", {"lambda": 2.0}, pairs=15, seed=3)
    assert a.to_json_dict() == b.to_json_dict()


def test_partition_report_carries_scope_notice():
    rep = kb.partition_check("5.3.4", None, pairs=5, seed=1)
    assert "partition" in rep.notice
    doc = rep.to_json_dict()
    assert doc["notice"] == rep.notice
    assert doc["passed"] is True


def test_orbit_relation_transitive_along_moves():
    rng = np.random.default_rng(44)
    for fam, params in CANONICAL[:4]:
        alg = kb.build_algebra(fam, params)
        for _ in range(5):
            F = rng.uniform(-2, 2, 5)
            F1 = kb.coadjoint_move(alg, F, rng.uniform(-1.5, 1.5, 5))
            F2 = kb.coadjoint_move(alg, F1, rng.uniform(-1.5, 1.5, 5))
            assert kb.orbits_equal(alg, F, F1)
            assert kb.orbits_equal(alg, F1, F2)
            assert kb.orbits_equal(alg, F, F2)


def test_local_triviality_all_dim2_cases():
    for fam, params in CANONICAL:
        for c in kb.case_indices(fam):
            if c == 1:
                continue
            assert kb.local_triviality_probe(fam, params, c, n=25, seed=6), (fam, c)


def test_local_triviality_rejects_point_case():
    with pytest.raises(DomainError):
        kb.local_triviality_probe("5.3.2", None, 1, n=5, seed=0)


def test_local_triviality_rejects_mismatched_base():
    with pytest.raises(DomainError):
        kb.local_triviality_probe("5.3.2", None, 8, n=5, seed=0,
                                  base=[1, 1, 0, 0, 1])


@pytest.mark.parametrize("call", [
    lambda: kb.partition_check("5.3.2", None, pairs=0, seed=0),
    lambda: kb.local_triviality_probe("5.3.2", None, 8, n=0, seed=0),
    lambda: kb.partition_check("5.3.2", None, pairs=3, seed=0, radius=0.0),
    lambda: kb.partition_check("5.3.2", None, pairs=3, seed=0, radius=-1.0),
    lambda: kb.partition_check("5.3.4", None, pairs=20, seed=1, probe_points=0),
    lambda: kb.md_scan("5.3.1", None, n=0, seed=1),
    lambda: kb.md_scan("5.3.1", None, n=0, seed=1, rank_tol=-1),
    lambda: kb.md_scan("5.3.1", None, n=8, seed=1, radius=0.0),
    lambda: kb.md_scan("5.3.1", None, n=8, seed=1, radius=-1.0),
    lambda: kb.md_scan("5.3.1", None, n=8, seed=1, radius=float("inf")),
])
def test_vacuous_sample_counts_are_refused(call):
    with pytest.raises(DomainError):
        call()


def _reference_partition(family, params, pairs, seed, radius, tol,
                         probe_points=50):
    """partition_check with its probes evaluated one point at a time."""
    alg = kb.build_algebra(family, params)
    rng = np.random.default_rng(int(seed))
    pts = rng.uniform(-radius, radius, size=(2 * pairs, 5))
    failures = []
    min_sep = None
    same_leaf = 0
    disjoint = 0
    for i in range(pairs):
        Fa = pts[2 * i].copy()
        Fb = pts[2 * i + 1].copy()
        expect = None
        if i % 5 == 3:
            U = rng.uniform(-1.5, 1.5, size=5)
            Fb = exp_action.coadjoint_move(alg, Fa, U)
            expect = True
        elif i % 5 == 4:
            desc_a = orbits.classify_orbit(alg.family, alg.params, Fa)
            j = desc_a.signs[0].coord if desc_a.signs else 2
            Fb = Fa.copy()
            Fb[j] = -Fb[j]
            expect = False
        try:
            eq = orbits.orbits_equal(alg, Fa, Fb, tol)
        except AsymmetryError as exc:
            failures.append({"pair": i, "kind": "asymmetry",
                             "detail": str(exc)})
            continue
        if expect is True and not eq:
            failures.append({"pair": i, "kind": "same_leaf_missed",
                             "detail": f"coadjoint image not recognized, "
                                       f"base {list(map(float, Fa))}"})
            continue
        if expect is False and eq:
            failures.append({"pair": i, "kind": "mirror_merged",
                             "detail": f"sign-flipped covector reported on "
                                       f"the same orbit, base "
                                       f"{list(map(float, Fa))}"})
            continue
        if eq:
            same_leaf += 1
            continue
        disjoint += 1
        desc_b = orbits.classify_orbit(alg.family, alg.params, Fb)
        probe = exp_action.sample_orbit(
            alg, Fa, probe_points, seed=int(seed) + 104729 + i,
            radius=1.5).points
        for q in probe:
            for sp in desc_b.signs:
                if not float(sp.fn(q)) > 0.0:
                    break
            else:
                try:
                    r = orbits.constraint_residuals(desc_b, q)
                except EvaluationError:
                    continue  # structurally separated (different stratum)
                sep = float(np.max(np.abs(r)))
                if min_sep is None or sep < min_sep:
                    min_sep = sep
                if sep < tol:
                    failures.append({
                        "pair": i, "kind": "overlap",
                        "detail": f"orbit point {list(map(float, q))} is a "
                                  f"member of the partner descriptor"})
                elif sep < 10.0 * tol:
                    failures.append({
                        "pair": i, "kind": "margin",
                        "detail": f"orbit point at normalized residual "
                                  f"{sep:.3e} from the partner descriptor"})
    return failures, min_sep, same_leaf, disjoint


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_batched_probes_match_point_reference(fam, params):
    # tol = 0.05 puts probes inside 10*tol, and some inside tol
    kinds = set()
    for seed, tol in ((14, 1e-8), (1729, 1e-8), (5, 0.05)):
        rep = kb.partition_check(fam, params, pairs=25, seed=seed, tol=tol)
        failures, min_sep, same_leaf, disjoint = _reference_partition(
            fam, params, 25, seed, 2.0, tol)
        assert rep.failures == failures
        assert (rep.same_leaf_pairs, rep.disjoint_pairs) == (same_leaf, disjoint)
        # numpy's scalar and array loops may round the last bit differently
        assert rep.min_separation == pytest.approx(min_sep, rel=1e-15, abs=0)
        kinds |= {f["kind"] for f in failures}
    assert kinds >= {"margin"}, kinds


def test_batched_probes_report_overlap_and_margin_in_order():
    kinds = [f["kind"] for f in _reference_partition(
        "5.3.8", {"lambda": 1.0, "phi": 0.5}, 20, 3, 2.0, 0.2)[0]]
    assert {"overlap", "margin"} <= set(kinds)
    rep = kb.partition_check("5.3.8", {"lambda": 1.0, "phi": 0.5}, pairs=20,
                             seed=3, tol=0.2)
    assert [f["kind"] for f in rep.failures] == kinds


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_partition_never_evaluates_rejected_probes(fam, params):
    # a probe outside the partner's stratum fails a sign or a guard of a
    # log or power; evaluating its residual would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = kb.partition_check(fam, params, pairs=20, seed=8)
    assert rep.disjoint_pairs > 0
