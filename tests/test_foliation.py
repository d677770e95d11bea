import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

import korbit as kb
from korbit import algebra, exp_action, foliation, kirillov, orbits, reports
from korbit.errors import (AsymmetryError, DomainError, EvaluationError,
                           ParameterWarning)

from conftest import CANONICAL

BAD_TOLS = (0.0, -1e-8, math.inf, math.nan, True, np.True_)  # a bool is no number


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


def _all_minor_charts(J, rank_tol):
    """The chart test with every 3-column minor run on every row."""
    ranks, thr = kirillov.svd_ranks(J, rank_tol)
    if np.any(ranks != 3):
        return False
    charted = np.zeros(len(J), dtype=bool)
    for cols in itertools.combinations(range(5), 3):
        charted |= kirillov.svd_ranks(J[:, :, cols], rank_tol, thr)[0] == 3
    return bool(np.all(charted))


def test_chart_probe_matches_all_minor_loop(monkeypatch):
    jacobian = orbits._jacobian
    seen = []

    def recorded(desc, P):
        seen.append(jacobian(desc, P))
        return seen[-1]

    monkeypatch.setattr(orbits, "_jacobian", recorded)
    outcomes = []
    for tol in (1e-9, 0.1, 0.3):
        for fam, params in CANONICAL:
            for c in kb.case_indices(fam):
                base = orbits.canonical_bases(fam, c)[0]
                if kb.classify_orbit(fam, params, base).dim != 2:
                    continue
                got = kb.local_triviality_probe(fam, params, c, n=50, seed=6,
                                                rank_tol=tol)
                assert got == _all_minor_charts(seen[-1], tol), (fam, c, tol)
                outcomes.append(got)
    assert True in outcomes and False in outcomes
    # Rows charted by the first minor only, by the last minor only, and a
    # rank-3 row whose minors all fall under the threshold 1e-3 (sigma3 of
    # the row is 0.8e-3 * sqrt(3), of each minor at most 0.8e-3).
    first, last, none = np.zeros((3, 3, 5))
    first[:, :3] = np.eye(3)
    last[:, 2:] = np.eye(3)
    none[:2, :2] = np.eye(2)
    none[2, 2:] = 0.8e-3
    for rows, expect in (([first, last, first], True),
                         ([first, last, none], False)):
        J = np.array(rows)
        monkeypatch.setattr(orbits, "_jacobian", lambda desc, P, J=J: J)
        assert _all_minor_charts(J, 1e-3) is expect
        assert kb.local_triviality_probe("5.3.2", None, 8, n=3, seed=0,
                                         rank_tol=1e-3) is expect


def _svd_only_probe(J, rank_tol):
    """local_triviality_probe's verdict on Jacobians J with every rank
    decided by svd_ranks: the implementation before the Cauchy-Binet
    certificate, kept as the reference."""
    ranks, thr = kirillov.svd_ranks(J, rank_tol)
    if np.any(ranks != 3):
        return False
    open_rows = np.arange(len(J))
    for cols in itertools.combinations(range(5), 3):
        minors = J[open_rows][:, :, cols]
        full = kirillov.svd_ranks(minors, rank_tol, thr[open_rows])[0] == 3
        open_rows = open_rows[~full]
        if not len(open_rows):
            return True
    return False


def test_chart_probe_matches_svd_only_reference(monkeypatch):
    rng = np.random.default_rng(43)

    def thin(c):
        # rank 3 (sigma3 = c * sqrt(3)); every chart minor has sigma3 <= c
        m = np.zeros((3, 5))
        m[:2, :2] = np.eye(2)
        m[2, 2:] = c
        return m

    def rotated(rows, s):
        U = np.linalg.qr(rng.normal(size=(len(rows), 3, 3)))[0]
        return s * (U @ np.array(rows))

    for tol in (1e-9, 1e-6, 1e-3):
        for s in (1e-3, 1.0, 1e3):
            thr = tol * max(1.0, s)
            if thr > 1e-4 * s:  # random rows would sit near the threshold
                continue
            good = list(rng.normal(size=(20, 3, 5)))
            rank2 = np.outer([1.0, 2.0, 0.5], [1.0, 0, 0, 0, 0]) + thin(0.0)
            # 1.8: J certified, its minors left to SVD, which charts them;
            # 1 +- 1e-3: the minors sit at the threshold
            for extra, expect in (([], True), ([thin(1.8 * thr / s)], True),
                                  ([thin(1.001 * thr / s)], True),
                                  ([thin(0.999 * thr / s)], False),
                                  ([rank2], False)):
                J = rotated(good + extra, s)
                monkeypatch.setattr(orbits, "_jacobian",
                                    lambda desc, P, J=J: J)
                assert _svd_only_probe(J, tol) is expect, (tol, s, extra)
                assert kb.local_triviality_probe(
                    "5.3.2", None, 8, n=len(J), seed=0,
                    rank_tol=tol) is expect, (tol, s, extra)
    monkeypatch.undo()
    # the four-constraint Jacobians of the 5.3.8 case 3 sigma = 0 branch
    jacobian = orbits._jacobian
    seen = []

    def recorded(desc, P):
        seen.append(jacobian(desc, P))
        return seen[-1]

    monkeypatch.setattr(orbits, "_jacobian", recorded)
    for tol in (1e-9, 0.3):
        got = kb.local_triviality_probe("5.3.8", None, 3, n=50, seed=3,
                                        base=[1, 1, 1, 1, 0], rank_tol=tol)
        assert seen[-1].shape == (50, 4, 5)
        assert got is _svd_only_probe(seen[-1], tol)


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
    # tolerances that make a check vacuous or switch it off
    *[lambda k=k, t=t: kb.verify_proposition("5.3.4", None, 2, n=5, seed=0,
                                             **{k: t})
      for k in ("member_tol", "tangency_tol", "grad_tol") for t in BAD_TOLS],
    *[lambda t=t: kb.partition_check("5.3.2", None, pairs=3, seed=0, tol=t)
      for t in BAD_TOLS],
    *[lambda t=t: kb.classify_orbit("5.3.1", None, [1, 1, 1e-13, 1, 1],
                                    snap_tol=t)
      for t in (-1e-8, math.inf, -math.inf, math.nan)],
])
def test_vacuous_sample_counts_are_refused(call):
    with pytest.raises(DomainError):
        call()


def _reference_partition(family, params, pairs, seed, radius, tol,
                         probe_points=50, counts=None):
    """partition_check with its probes evaluated one point at a time. A
    counts dict, when given, receives the probe counts of the report."""
    alg = kb.build_algebra(family, params)
    rng = np.random.default_rng(int(seed))
    pts = rng.uniform(-radius, radius, size=(2 * pairs, 5))
    failures = []
    min_sep = None
    same_leaf = 0
    disjoint = 0
    tally = dict.fromkeys(("probes_evaluated", "probes_sign_rejected",
                           "probes_guard_rejected", "vacuous_pairs"), 0)
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
        evaluated = 0
        for q in probe:
            for sp in desc_b.signs:
                if not float(sp.fn(q)) > 0.0:
                    tally["probes_sign_rejected"] += 1
                    break
            else:
                try:
                    r = orbits.constraint_residuals(desc_b, q)
                except EvaluationError:
                    # structurally separated (different stratum)
                    tally["probes_guard_rejected"] += 1
                    continue
                evaluated += 1
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
        tally["probes_evaluated"] += evaluated
        tally["vacuous_pairs"] += evaluated == 0
    if counts is not None:
        counts.update(tally)
    return failures, min_sep, same_leaf, disjoint


# At radius 1e10 the same-leaf partners of pairs 3, 8, 13 and 18 miss
# membership (on 5.3.4 pair 3's two directions disagree): the residual
# normalization does not scale with the coefficients (ROADMAP item 3), so
# the delta*s = sigma*t residual is the rounding of two cancelling
# products, as the BLAS dot behind P @ c rounds them.
_FAR_FAILURES = {
    "5.3.3": [(3, "same_leaf_missed"), (8, "same_leaf_missed"),
              (13, "same_leaf_missed"), (18, "same_leaf_missed")],
    "5.3.4": [(3, "asymmetry"), (8, "same_leaf_missed"),
              (13, "same_leaf_missed"), (18, "same_leaf_missed")],
}


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_batched_probes_match_point_reference(fam, params):
    # tol = 0.05 puts probes inside 10*tol, and some inside tol; radius
    # 1e10 fails the known pairs of 5.3.3 and 5.3.4
    kinds = set()
    runs = [(25, seed, 2.0, tol)
            for seed, tol in ((14, 1e-8), (1729, 1e-8), (5, 0.05))]
    if fam in _FAR_FAILURES:
        runs.append((20, 1, 1e10, 1e-8))
    for pairs, seed, radius, tol in runs:
        rep = kb.partition_check(fam, params, pairs=pairs, seed=seed,
                                 radius=radius, tol=tol)
        counts = {}
        failures, min_sep, same_leaf, disjoint = _reference_partition(
            fam, params, pairs, seed, radius, tol, counts=counts)
        assert rep.failures == failures
        assert (rep.same_leaf_pairs, rep.disjoint_pairs) == (same_leaf, disjoint)
        assert {k: getattr(rep, k) for k in counts} == counts
        assert rep.probes_evaluated + rep.probes_sign_rejected + \
            rep.probes_guard_rejected == 50 * rep.disjoint_pairs
        # numpy's scalar and array loops may round the last bit differently
        assert rep.min_separation == pytest.approx(min_sep, rel=1e-15, abs=0)
        if radius == 1e10:
            assert [(f["pair"], f["kind"]) for f in failures] == \
                _FAR_FAILURES[fam]
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


def test_probe_order_after_a_phase_one_failure():
    # pairs 2 and 7 fail in their probes, pair 6 between them in its
    # membership check; the failure list keeps pair order
    rep = kb.partition_check("5.3.1", None, pairs=20, seed=1, radius=2.0,
                             tol=0.2)
    assert rep.failures == _reference_partition("5.3.1", None, 20, 1, 2.0,
                                                 0.2)[0]
    pairs = [f["pair"] for f in rep.failures]
    six = pairs.index(6)
    assert rep.failures[six]["kind"] == "asymmetry"
    assert pairs[six - 1] == 2 and pairs[six + 1] == 7
    assert {rep.failures[six - 1]["kind"], rep.failures[six + 1]["kind"]} <= {
        "margin", "overlap"}


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_stacked_probes_are_bitwise_per_pair_samples(fam, params,
                                                     monkeypatch):
    # 500 rows hold 71 pairs of 7 probes (not a divisor), one pair of 333,
    # and less than one pair of 600
    move_items, move = exp_action._move_items, exp_action._move
    calls, stacks = [], []

    def recorded(alg, F, U, n, where=None):
        out = move_items(alg, F, U, n, where)
        calls.append((F, n, where, out))
        return out

    def counted(alg, F, U):
        stacks.append(len(U))
        return move(alg, F, U)

    monkeypatch.setattr(exp_action, "_move_items", recorded)
    monkeypatch.setattr(exp_action, "_move", counted)
    alg = kb.build_algebra(fam, params)
    for pairs, probe_points in ((100, 1), (100, 7), (20, 50), (20, 333),
                                (20, 600), (1, 50), (3, 50)):
        calls.clear()
        stacks.clear()
        rep = kb.partition_check(fam, params, pairs=pairs, seed=9,
                                 probe_points=probe_points)
        moved = stacks[:]  # before sample_orbit below moves its own
        # the same-leaf partners of pairs 3, 8, ... move first, in one stack
        same_leaf = len(range(3, pairs, 5))
        if same_leaf:
            assert calls.pop(0)[1] == 1 and moved.pop(0) == same_leaf
        (F, n, where, P), = calls
        assert n == probe_points and P.shape == (n * len(F), 5)
        order = []
        for k, Fa in enumerate(F):
            m = re.fullmatch(r"family (\S+), pair (\d+), base (\[[^]]*\])",
                             where(k))
            i = int(m[2])
            assert m[1] == alg.family and json.loads(m[3]) == Fa.tolist()
            want = exp_action.sample_orbit(alg, Fa, probe_points,
                                           seed=9 + 104729 + i,
                                           radius=1.5).points
            got = P[k * n:(k + 1) * n]
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), i
            order.append(i)
        assert order == sorted(set(order)) and len(order) == rep.disjoint_pairs
        per_stack = max(1, 500 // probe_points)
        assert all(rows % probe_points == 0 for rows in moved)  # whole pairs
        assert len(moved) == -(-len(F) // per_stack)
        assert sum(moved) == probe_points * len(F)
        assert max(moved, default=0) <= max(500, probe_points)
    assert move_items(alg, np.empty((0, 5)), np.empty((0, 5)), 50).shape == (
        0, 5)


def test_partition_calls_scale_with_case_groups_not_pairs(monkeypatch):
    # random pairs and their known partners are all in case 8: one
    # membership group and one probe group, whatever the pair count
    calls = dict.fromkeys(("_descriptor", "_residual_rows",
                           "_mutual_membership"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(orbits, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(orbits, name, counted)
    seen = []
    for pairs in (20, 100):
        calls.update(dict.fromkeys(calls, 0))
        rep = kb.partition_check("5.3.2", None, pairs=pairs, seed=3)
        assert rep.passed and rep.disjoint_pairs > 0
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    # two directions of one membership group, then one probe group
    assert seen[0]["_mutual_membership"] == 1
    assert seen[0]["_residual_rows"] == 3
    # a descriptor per side and per probe group, and one per screened subset
    assert seen[0]["_descriptor"] <= 6


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_mirror_partners_are_sign_flips_of_their_first_member(
        monkeypatch, fam, params):
    # every 5th pair from pair 4 on is its first member with the sign
    # coordinate of its case negated (gamma where the case has none), as
    # in the point reference; the drawn second member is discarded
    pairs, seed = 30, 5
    bases = set()

    def recorded(family, p, B1, B2, tol, _fn=orbits._mutual_membership):
        for a, b in zip(B1, B2):
            bases.add((tuple(a.tolist()), tuple(b.tolist())))
        return _fn(family, p, B1, B2, tol)
    monkeypatch.setattr(orbits, "_mutual_membership", recorded)
    rep = kb.partition_check(fam, params, pairs=pairs, seed=seed)
    alg = algebra.build_algebra(fam, params)
    pts = np.random.default_rng(seed).uniform(-2.0, 2.0, size=(2 * pairs, 5))
    for i in range(4, pairs, 5):
        Fa = pts[2 * i]
        desc_a = orbits.classify_orbit(alg.family, alg.params, Fa)
        Fb = Fa.copy()
        Fb[desc_a.signs[0].coord if desc_a.signs else 2] *= -1.0
        assert (tuple(Fa.tolist()), tuple(Fb.tolist())) in bases, i
        assert not any(f["pair"] == i for f in rep.failures)


def test_membership_merging_every_pair_fails_each_mirror_pair(monkeypatch):
    # membership that calls every pair equal merges each mirror pair and
    # leaves no disjoint pair: the probe screen runs on no rows and the
    # report has no separation, written as null
    pairs = 12
    monkeypatch.setattr(orbits, "_mutual_membership",
                        lambda family, p, B1, B2, tol: (
                            np.ones(len(B1), dtype=bool), {}))
    screened = []

    def recorded(family, p, bases, points, _fn=orbits._screen):
        out = _fn(family, p, bases, points)
        screened.append((bases.shape, points.shape, [a.shape for a in out]))
        return out
    monkeypatch.setattr(orbits, "_screen", recorded)
    rep = kb.partition_check("5.3.2", None, pairs=pairs, seed=3)
    mirror = list(range(4, pairs, 5))
    assert [(f["pair"], f["kind"]) for f in rep.failures] == [
        (i, "mirror_merged") for i in mirror]
    assert all(f["detail"].startswith(
        "sign-flipped covector reported on the same orbit, base [")
        for f in rep.failures)
    assert screened == [((0, 5), (0, 5), [(0,), (0,), (0,)])]
    assert (rep.same_leaf_pairs, rep.disjoint_pairs) == (
        pairs - len(mirror), 0)
    assert (rep.probes_evaluated, rep.probes_sign_rejected,
            rep.probes_guard_rejected, rep.vacuous_pairs) == (0, 0, 0, 0)
    assert rep.min_separation is None and not rep.passed
    doc = reports.dumps(rep.to_json_dict())
    assert '"min_separation": null, "probes_evaluated": 0' in doc
    assert json.loads(doc)["min_separation"] is None


def test_partition_counts_probes_and_vacuous_pairs():
    rep = kb.partition_check("5.3.2", None, pairs=100, seed=20240811)
    doc = rep.to_json_dict()
    assert list(doc)[list(doc).index("min_separation") + 1:][:4] == [
        "probes_evaluated", "probes_sign_rejected", "probes_guard_rejected",
        "vacuous_pairs"]
    assert rep.probes_evaluated + rep.probes_sign_rejected \
        + rep.probes_guard_rejected == 50 * rep.disjoint_pairs
    # every probe of a pair shares its orbit's sign, so a pair is evaluated
    # whole or not at all; vacuous pairs do not fail the partition
    assert rep.probes_evaluated == 50 * (rep.disjoint_pairs - rep.vacuous_pairs)
    assert rep.vacuous_pairs > 0 and rep.passed


def test_public_calls_validate_their_arguments_once(monkeypatch):
    # the public entry point checks parameters and arrays; the package's own
    # calls below it hand checked values to private kernels
    calls = dict.fromkeys(("validate_params", "as_vector5", "as_stack5"), 0)
    for name in calls:
        def counted(*args, _check=getattr(algebra, name), _name=name, **kw):
            calls[_name] += 1
            return _check(*args, **kw)
        monkeypatch.setattr(algebra, name, counted)
    for run in (lambda: kb.verify_proposition("5.3.5", None, 8, n=20, seed=1),
                lambda: kb.local_triviality_probe("5.3.5", None, 8, n=20, seed=1),
                lambda: kb.partition_check("5.3.2", None, pairs=20, seed=1)):
        calls.update(dict.fromkeys(calls, 0))
        run()
        assert calls["validate_params"] == 1
    # partition_check, the last run, checks one array: its covector draw
    assert calls["as_vector5"] + calls["as_stack5"] <= 1


def test_one_public_call_issues_one_parameter_warning():
    p = {"lambda": 0.0}
    for run in (lambda: kb.verify_proposition("5.3.3", p, 2, n=20, seed=1),
                lambda: kb.local_triviality_probe("5.3.3", p, 2)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run()
        assert [w.category for w in caught] == [ParameterWarning]
    # orbits_equal takes a built algebra, whose parameters were checked
    with pytest.warns(ParameterWarning):
        alg = kb.build_algebra("5.3.3", p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not kb.orbits_equal(alg, [1, 1, 0, 0, 1], [1, 1, 0, 0, -1])


@pytest.mark.parametrize("fam", [f"5.3.{k}" for k in range(1, 9)])
def test_probe_overflow_names_family_pair_base_and_row(fam):
    # at radius 8e307 the first pair's probes leave the float range: the
    # refusal is the one its own sample_orbit call gives, prefixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError) as err:
            kb.partition_check(fam, None, pairs=3, seed=1, radius=8e307)
        m = re.fullmatch(r"family (\S+), pair (\d+), base (\[[^]]*\]): (.*)",
                         str(err.value))
        assert m and m[1] == fam, str(err.value)
        i, base = int(m[2]), json.loads(m[3])
        pts = np.random.default_rng(1).uniform(-8e307, 8e307, (6, 5))
        assert i == 0 and base == pts[0].tolist()
        with pytest.raises(DomainError) as alone:
            exp_action.sample_orbit(kb.build_algebra(fam, None), base, 50,
                                    seed=1 + 104729 + i, radius=1.5)
    assert m[4] == str(alone.value)
    if fam == "5.3.1":
        assert m[4].startswith("the coadjoint image overflows at row 1, "
                               "U = [0.6407756646576535, ")


@pytest.mark.parametrize("seed", [1, 2**63 - 104729 - 3, 2**64])
def test_probe_seeds_are_unbounded_integers(monkeypatch, seed):
    # pair i's probes are sample_orbit's points at seed + 104729 + i even
    # where that sum leaves the int64 range, as it does for pairs 3 and up
    # at 2**63 - 104729 - 3; the last _screen call screens the probes
    screen, screened = orbits._screen, []

    def recording(family, p, bases, points):
        screened.append(points)
        return screen(family, p, bases, points)

    monkeypatch.setattr(orbits, "_screen", recording)
    rep = kb.partition_check("5.3.1", None, pairs=10, seed=seed)
    assert rep.passed and rep.seed == seed
    # every pair but the same-leaf pairs 3 and 8 lies on two orbits
    disjoint = [0, 1, 2, 4, 5, 6, 7, 9]
    assert rep.disjoint_pairs == len(disjoint)
    alg = kb.build_algebra("5.3.1", None)
    A = np.random.default_rng(seed).uniform(-2.0, 2.0, (20, 5))[0::2]
    probes = screened[-1].reshape(len(disjoint), 50, 5)
    for k, i in enumerate(disjoint):
        alone = exp_action.sample_orbit(alg, A[i], 50, seed=seed + 104729 + i,
                                        radius=1.5)
        assert np.array_equal(probes[k], alone.points)


def test_same_leaf_overflow_names_family_pair_and_base():
    # at radius 8e307 the same-leaf partner of pair 3 leaves the float range
    # before any probe moves; the refusal is its one-row move's, prefixed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(DomainError) as err:
            kb.partition_check("5.3.1", None, pairs=5, seed=1, radius=8e307)
        rng = np.random.default_rng(1)
        base = rng.uniform(-8e307, 8e307, (10, 5))[6]
        U = rng.uniform(-1.5, 1.5, (1, 5))
        with pytest.raises(DomainError) as alone:
            exp_action._move(kb.build_algebra("5.3.1", None), base, U)
    assert str(err.value) == (f"family 5.3.1, pair 3, base {base.tolist()}: "
                              f"{alone.value}")
    assert str(alone.value).startswith("the coadjoint image overflows at row 0")


def test_chart_probe_overflow_names_family_case_base_and_row():
    # seed 1 draws row 0 of the radius-400 cube first; its motion overflows,
    # and the refusal is verify_proposition's for the same base
    with pytest.raises(DomainError) as err:
        kb.local_triviality_probe("5.3.1", None, 8, n=20, seed=1, radius=400)
    with pytest.raises(DomainError) as verify:
        kb.verify_proposition("5.3.1", None, 8, n=20, seed=1, radius=400,
                              base=[1, 1, 1, 1, 1])
    assert str(err.value) == str(verify.value)
    assert str(err.value).startswith(
        "family 5.3.1 case 8, base [1.0, 1.0, 1.0, 1.0, 1.0]: exp(ad U) "
        "overflows at row 0, U = [9.457299760205387, ")


def test_chart_probe_samples_the_first_canonical_base(monkeypatch):
    # the probe's points are verify_proposition's sample of base 0
    jacobian = orbits._jacobian
    seen = []

    def recorded(desc, P):
        seen.append(P)
        return jacobian(desc, P)

    monkeypatch.setattr(orbits, "_jacobian", recorded)
    kb.local_triviality_probe("5.3.4", None, 8, n=30, seed=5, radius=1.5)
    base = orbits.canonical_bases("5.3.4", 8)[0]
    alg = kb.build_algebra("5.3.4", None)
    assert np.array_equal(seen[0], kb.sample_orbit(alg, base, 30, seed=5,
                                                   radius=1.5).points)


_ZERO_EIGENVALUE = {"lambda": 0.0}


def _refused_partition_check():
    # refused at its first gamma != 0 pair, after the warning
    with pytest.raises(DomainError, match="no valid closed-form"):
        kb.partition_check("5.3.3", _ZERO_EIGENVALUE, pairs=3, seed=1)


@pytest.mark.parametrize("call", [
    lambda: kb.validate_params("5.3.3", _ZERO_EIGENVALUE),
    lambda: kb.build_algebra("5.3.3", _ZERO_EIGENVALUE),
    lambda: kb.verify_proposition("5.3.3", _ZERO_EIGENVALUE, 2, n=5, seed=1),
    lambda: kb.local_triviality_probe("5.3.3", _ZERO_EIGENVALUE, 2, n=5),
    _refused_partition_check,
], ids=["validate_params", "build_algebra", "verify_proposition",
        "local_triviality_probe", "partition_check"])
def test_parameter_warning_names_the_callers_file(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    assert [w.category for w in caught] == [ParameterWarning]
    assert caught[0].filename == __file__
