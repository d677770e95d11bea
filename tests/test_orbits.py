import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbit as kb
from korbit import algebra, kirillov, orbits
from korbit.errors import AsymmetryError, DomainError, EvaluationError, ParameterWarning

from conftest import CANONICAL, stack_with_singular_values

P531 = {"lambda1": 2.0, "lambda2": 3.0}


def test_classify_case_examples():
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 1, 1, 1])
    assert (desc.case_index, desc.shape, desc.dim) == (8, "cylinder", 2)
    desc = kb.classify_orbit("5.3.1", P531, [1, 2, 0, 0, 0])
    assert (desc.case_index, desc.shape, desc.dim) == (1, "point", 0)
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 1, 0, 0])
    assert desc.case_index == 5
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 0, 1, 1])
    assert desc.case_index == 4
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 0, 0, 1])
    assert desc.case_index == 2
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 0, 1, 0])
    assert desc.case_index == 3


def test_classify_538_has_three_cases():
    assert kb.case_indices("5.3.8") == (1, 2, 3)
    assert kb.classify_orbit("5.3.8", None, [1, 1, 0, 0, 0]).case_index == 1
    assert kb.classify_orbit("5.3.8", None, [1, 1, 0, 0, 2]).case_index == 2
    assert kb.classify_orbit("5.3.8", None, [1, 1, 1, 0, 0]).case_index == 3
    assert kb.classify_orbit("5.3.8", None, [1, 1, 0, -1, 5]).case_index == 3


def test_classify_zero_pattern_formula():
    # case = 1 + 4*(gamma != 0) + 2*(delta != 0) + (sigma != 0)
    for bits in range(8):
        F = [1.0, -1.0,
             1.0 if bits & 4 else 0.0,
             1.0 if bits & 2 else 0.0,
             1.0 if bits & 1 else 0.0]
        desc = kb.classify_orbit("5.3.2", None, F)
        assert desc.case_index == 1 + bits


def test_classify_snap_tolerance():
    F = [0.0, 0.0, 1e-13, 1.0, 1.0]
    desc = kb.classify_orbit("5.3.1", P531, F)
    assert desc.case_index == 8 and not desc.snapped
    desc = kb.classify_orbit("5.3.1", P531, F, snap_tol=1e-12)
    assert desc.case_index == 4 and desc.snapped
    assert desc.base[2] == 0.0


def test_classify_refuses_degenerate_first_eigenvalue_with_gamma():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ParameterWarning)
        for fam, params in [("5.3.1", (0.0, 3.0)), ("5.3.3", (0.0,)),
                            ("5.3.5", (0.0,))]:
            for case_base in ([0, 0, 1, 0, 0], [0, 0, 1, 1, 1]):
                with pytest.raises(DomainError):
                    kb.classify_orbit(fam, params, case_base)
            # gamma = 0 cases stay available
            desc = kb.classify_orbit(fam, params, [0, 0, 0, 1, 0])
            assert desc.case_index == 3


def test_constraint_count_and_rank():
    for fam, params in CANONICAL:
        for c in kb.case_indices(fam):
            base = kb.canonical_bases(fam, c)[0]
            desc = kb.classify_orbit(fam, params, base)
            if desc.dim == 0:
                assert len(desc.constraints) == 5
            else:
                assert len(desc.constraints) in (3, 4)
                assert kb.jacobian_rank_check(desc, base) == 3


def test_membership_frozen_example_531():
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 1, 1, 1])
    assert kb.is_member(desc, [-1.5, 17.0, 4.0, 8.0, 2.0])  # y is free
    assert kb.is_member(desc, [0.0, 0.0, 1.0, 1.0, 1.0])
    assert not kb.is_member(desc, [-1.5, 17.0, 4.0, 8.0, -2.0])  # sign flip
    assert not kb.is_member(desc, [-1.5, 17.0, 4.0, 8.1, 2.0])
    assert not kb.is_member(desc, [-1.4, 17.0, 4.0, 8.0, 2.0])


def test_membership_dim_zero():
    desc = kb.classify_orbit("5.3.4", None, [1.0, 2.0, 0.0, 0.0, 0.0])
    assert kb.is_member(desc, [1.0, 2.0, 0.0, 0.0, 0.0])
    assert not kb.is_member(desc, [1.0, 2.001, 0.0, 0.0, 0.0])
    assert not kb.is_member(desc, [1.0, 2.0, 1e-4, 0.0, 0.0])


def test_residuals_raise_on_unevaluable_points():
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 1, 0, 1])  # case 6
    with pytest.raises(EvaluationError):
        kb.constraint_residuals(desc, [0.0, 0.0, 1.0, 0.0, -1.0])
    # is_member folds that into a refusal
    assert not kb.is_member(desc, [0.0, 0.0, 1.0, 0.0, -1.0])
    # a NaN coordinate makes no point at all, as for is_member
    with pytest.raises(DomainError, match="finite coordinates"):
        kb.constraint_residuals(desc, [0.0, 0.0, 1.0, 0.0, math.nan])


def test_residuals_refuse_non_points_and_keep_the_stack_shape():
    desc = kb.classify_orbit("5.3.1", P531, [0, 0, 1, 0, 1])  # case 6
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NaN residuals, no RuntimeWarning
        for bad, match in (([1, 1, 1, 1, math.inf], "finite coordinates"),
                           (1.0, r"shape \(5,\) or \(n, 5\), got \(\)"),
                           ("abcde", "must hold real numbers")):
            with pytest.raises(DomainError, match=match):
                kb.constraint_residuals(desc, bad)
    alg = kb.build_algebra("5.3.1", P531)
    P = kb.sample_orbit(alg, [0, 0, 1, 0, 1], 4, seed=1).points
    R = kb.constraint_residuals(desc, P)
    assert R.shape == (4, 3)
    for k in range(4):
        r = kb.constraint_residuals(desc, P[k])
        assert r.shape == (3,) and np.array_equal(r, R[k])


def test_residual_normalization():
    desc = kb.classify_orbit("5.3.4", None, [0, 0, 1, 0, 0])  # case 5
    p = np.array([0.0, 0.0, 101.0, 0.0, 0.0])  # x = alpha + gamma - z violated by 100
    r = kb.constraint_residuals(desc, p)
    assert abs(abs(r[0]) - 100.0 / 102.0) < 1e-12


def test_sign_predicate_at_huge_coordinates_does_not_overflow():
    # coefficient and coordinate near 1e300: their product overflows, the
    # predicate must not. The admitted mask equals the product form's on
    # the same rows scaled to 1 (guards and signs are scale-free), and
    # is_member, which needs no residual on a rejected row, is False there.
    rng = np.random.default_rng(5)
    checked = 0
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            for B in orbits.canonical_bases(fam, c):
                desc = kb.classify_orbit(fam, params, B)
                if not desc.signs:
                    continue
                P = np.vstack([rng.uniform(-2.0, 2.0, (20, 5)),
                               kb.sample_orbit(alg, B, 20, seed=3,
                                               radius=0.5).points])
                P[::3, desc.signs[0].coord] *= -1.0
                product = orbits._masks(desc, P)[0]
                for sp in desc.signs:
                    product &= desc.base[sp.coord] * P[:, sp.coord] > 0.0
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    big = kb.classify_orbit(fam, params, 1e300 * B)
                    guarded, signed = orbits._masks(big, 1e300 * P)
                    admitted = guarded & signed
                    assert np.array_equal(admitted, product), (fam, c, B)
                    assert not any(orbits.is_member(big, q)
                                   for q in 1e300 * P[~admitted])
                assert 0 < np.count_nonzero(admitted) < len(P)
                checked += 1
    assert checked > 100


def test_membership_round_trip_all_cases():
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            for base in kb.canonical_bases(fam, c):
                desc = kb.classify_orbit(fam, params, base)
                assert desc.case_index == c
                pts = kb.sample_orbit(alg, base, 30, seed=3, radius=2.0).points
                for q in pts:
                    assert kb.is_member(desc, q), (fam, c, base, q)


def test_tangency_and_gradients_on_samples():
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            base = kb.canonical_bases(fam, c)[0]
            desc = kb.classify_orbit(fam, params, base)
            pts = kb.sample_orbit(alg, base, 10, seed=9, radius=1.5).points
            for q in pts:
                assert kb.tangency_residual(alg, desc, q) < 1e-8
                assert kb.gradient_fd_error(desc, q) < 1e-4
                if desc.dim == 2:
                    assert kb.jacobian_rank_check(desc, q) == 3


def test_orbits_equal_mutual():
    alg = kb.build_algebra("5.3.6", None)
    F = np.array([0.4, -0.9, 1.1, 0.6, -0.7])
    G = kb.coadjoint_move(alg, F, np.array([0.5, -1.0, 0.25, 0.8, -0.3]))
    assert kb.orbits_equal(alg, F, G)
    H = F.copy()
    H[2] = -H[2]
    assert not kb.orbits_equal(alg, F, H)


def test_orbits_equal_point_orbits():
    alg = kb.build_algebra("5.3.2", None)
    assert kb.orbits_equal(alg, [1, 2, 0, 0, 0], [1, 2, 0, 0, 0])
    assert not kb.orbits_equal(alg, [1, 2, 0, 0, 0], [1, 3, 0, 0, 0])


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, True,
                                 np.True_])
def test_membership_tolerance_must_be_finite_and_positive(tol):
    # an infinite tol made these two distinct orbits compare equal, and a
    # negative one made every point a non-member; True ran as tol 1.0
    alg = kb.build_algebra("5.3.1", None)
    F1, F2 = [1, 1, 1, 1, 1], [5, 7, 3, 9, 2]
    assert not kb.orbits_equal(alg, F1, F2)
    desc = kb.classify_orbit("5.3.1", None, F1)
    with pytest.raises(DomainError, match="membership tolerance"):
        kb.is_member(desc, F2, tol=tol)
    with pytest.raises(DomainError, match="membership tolerance"):
        kb.orbits_equal(alg, F1, F2, tol=tol)


@pytest.mark.parametrize("F1,F2,message", [
    ([1, 1, 1], [1, 1, 1, 0, 0], "covector must have 5 coordinates"),
    ([1, 1, 1, 0, 0], [1, 1, 1], "family 5.3.3 with lambda = 0"),
    ([1, 1, 0, 0, 1], [1, 1, 1], "covector must have 5 coordinates"),
    ([1, 1, 0, 0, 1], [1, 1, 1, 0, 0], "family 5.3.3 with lambda = 0"),
    ([1, 1, 0, 0, 1], [1, 1, 0, 0, 1], "membership tolerance"),
])
def test_orbits_equal_refuses_in_argument_order(F1, F2, message):
    # F1 is checked as a covector and then for its case, then F2 the same
    # way, and the tolerance last: the first refusal that applies is raised
    with pytest.warns(ParameterWarning):
        alg = kb.build_algebra("5.3.3", {"lambda": 0.0})
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        kb.orbits_equal(alg, F1, F2, tol=-1.0)


def test_verify_proposition_passes_each_case():
    for fam, params in CANONICAL[:3] + [("5.3.8", {"lambda": 1.0, "phi": math.pi / 2})]:
        for c in kb.case_indices(fam):
            rep = kb.verify_proposition(fam, params, c, n=60, seed=1)
            assert rep.passed, (fam, c, rep.to_json_dict())
            assert rep.max_residual < 1e-8
            assert rep.tangency_max < 1e-8
            assert rep.sign_violations == 0


def test_verify_report_provenance_531_case6():
    rep = kb.verify_proposition("5.3.1", P531, 6, n=80, seed=2)
    assert rep.passed
    assert len(rep.provenance) == 1
    entry = rep.provenance[0]
    assert entry["adopted"] == "literal"
    # the transcribed pair and the implied z-s relation all hold
    assert entry["literal_residual"] < 1e-8
    assert entry["corrected_residual"] < 1e-8


def test_verify_report_provenance_535_case8():
    rep = kb.verify_proposition("5.3.5", {"lambda": 2.0}, 8, n=80, seed=2)
    assert rep.passed
    entry = rep.provenance[0]
    assert entry["adopted"] == "corrected"
    assert entry["literal_residual"] > 1e-4
    assert entry["corrected_residual"] < 1e-8


def test_verify_report_provenance_533_case4_shape():
    rep = kb.verify_proposition("5.3.3", {"lambda": 2.0}, 4, n=60, seed=2)
    assert rep.passed
    assert rep.shape == "half-plane"
    assert rep.provenance[0]["adopted"] == "literal"


def test_verify_report_provenance_537_log_cases():
    for c in (5, 6, 7, 8):
        rep = kb.verify_proposition("5.3.7", {}, c, n=60, seed=4)
        assert rep.passed
        assert rep.provenance[0]["adopted"] == "literal"
        assert rep.provenance[0]["literal_residual"] < 1e-8


def test_verify_report_provenance_538_case3():
    rep = kb.verify_proposition("5.3.8", None, 3, n=60, seed=6)
    assert rep.passed
    entry = rep.provenance[0]
    assert entry["adopted"] == "oracle-corrected"
    assert entry["literal_residual"] is None
    assert entry["corrected_residual"] < 1e-8


def _slot_worst(desc, slot, P):
    """Worst normalized residual of a slot's constraints on P, evaluated
    directly: an index, a slice, or an alternative spec built here."""
    cons = desc.constraints
    if isinstance(slot, int):
        cons = (cons[slot],)
    elif isinstance(slot, slice):
        cons = cons[slot]
    else:
        v = orbits._namespace(desc.base, desc.params)
        cons = (orbits._DISPLAYS[slot](v),)
    scale = 1.0 + np.max(np.abs(P), axis=-1)
    return max(float(np.max(np.abs(con.fn(P) / scale))) for con in cons)


def test_adjudicated_residuals_equal_direct_slot_evaluation():
    # each adjudicated unit: the reported literal and corrected residuals
    # are, bit for bit, the slot's constraints evaluated on every base's
    # guarded sample, maximised over the bases (one entry per equation
    # label, so per branch on 5.3.8 case 3)
    n, seed, radius = 40, 11, 2.0
    units, kinds = set(), set()
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            adj = orbits._CASES[fam, c].adjudication
            if adj is None:
                continue
            units.add((fam, c))
            want = {}
            for k, base in enumerate(kb.canonical_bases(fam, c)):
                desc = kb.classify_orbit(fam, params, base)
                P = kb.sample_orbit(alg, base, n, seed=seed + 7919 * k,
                                    radius=radius).points
                ok = np.ones(n, dtype=bool)
                for con in desc.constraints:
                    for g in con.guards:
                        ok &= g.fn(P) > 0.0
                eq = desc.constraints[adj.equation]
                label = "; ".join(
                    con.expr for con in (eq if isinstance(eq, tuple) else (eq,)))
                got = want.setdefault(label, [None, None])
                for i, slot in enumerate((adj.literal, adj.corrected)):
                    if slot is None:
                        continue
                    kinds.add(type(slot).__name__)
                    r = _slot_worst(desc, slot, P[ok])
                    got[i] = r if got[i] is None else max(got[i], r)
            rep = kb.verify_proposition(fam, params, c, n=n, seed=seed,
                                        radius=radius)
            reported = {e["equation"]: [e["literal_residual"],
                                        e["corrected_residual"]]
                        for e in rep.provenance}
            assert reported == want, (fam, params, c)
            if (fam, c) == ("5.3.8", 3):
                assert len(reported) >= 2  # the sigma != 0 and = 0 branches
    assert len(units) == 8
    assert kinds == {"int", "slice", "str"}


def _per_base_verification(fam, params, c, n, seed, radius=2.0,
                           rank_tol=1e-9, step=1e-6):
    """The check fields of verify_proposition, built base by base from
    public calls and merged as the former per-base loop merged them; an
    FD step across a guard gives NaN, without a warning as in verify."""
    alg = kb.build_algebra(fam, params)
    got = dict(max_residual=0.0, tangency_max=0.0, sign_violations=0,
               jacobian_failures=0, dimension_mismatches=0,
               gradient_max_rel_err=0.0)
    prov = {}
    for k, base in enumerate(kb.canonical_bases(fam, c)):
        desc = kb.classify_orbit(fam, params, base)
        P = kb.sample_orbit(alg, base, n, seed=seed + 7919 * k,
                            radius=radius).points
        guarded = np.ones(n, dtype=bool)
        for con in desc.constraints:
            for g in con.guards:
                guarded &= g.fn(P) > 0.0
        signed = np.ones(n, dtype=bool)
        for sp in desc.signs:
            signed &= sp.fn(P) > 0.0
        got["sign_violations"] += n - int(np.count_nonzero(guarded & signed))
        Pm = P[guarded]
        if len(Pm):
            with np.errstate(invalid="ignore"):
                fd = kb.gradient_fd_error(desc, Pm, step)
            for key, vals in (
                    ("max_residual",
                     np.abs(kb.constraint_residuals(desc, Pm))),
                    ("tangency_max", kb.tangency_residual(alg, desc, Pm)),
                    ("gradient_max_rel_err", fd)):
                got[key] = float(np.max(vals, initial=got[key]))
            if desc.dim == 2:
                ranks = kb.jacobian_rank_check(desc, Pm, rank_tol)
                got["jacobian_failures"] += int(np.count_nonzero(ranks != 3))
            forms = kb.kirillov_forms(alg, Pm)
            got["dimension_mismatches"] += int(np.count_nonzero(
                kirillov.skew_ranks(forms, rank_tol) != desc.dim))
        adj = orbits._CASES[fam, c].adjudication
        if adj is None:
            continue
        eq = desc.constraints[adj.equation]
        label = "; ".join(con.expr for con in (
            eq if isinstance(eq, tuple) else (eq,)))
        entry = prov.setdefault(label, {
            "equation": label, "literal_residual": None,
            "corrected_residual": None, "adopted": adj.adopted,
            "note": adj.note})
        for name, slot in (("literal_residual", adj.literal),
                           ("corrected_residual", adj.corrected)):
            if slot is not None and len(Pm):
                r = _slot_worst(desc, slot, Pm)
                entry[name] = (r if entry[name] is None
                               else float(np.max([entry[name], r])))
    got["provenance"] = list(prov.values())
    return got


def test_verify_blocks_match_per_base_reference_bitwise(monkeypatch):
    # the bases of a case are checked in blocks of one zero pattern with one
    # stacked descriptor; the report does not depend on the block size and
    # equals, bit for bit, each base checked alone by the public calls. At
    # radius 6 some FD steps cross a guard. At radius 800 a few draws
    # underflow a coordinate to 0 while none overflows, so some rows of a
    # base fail a guard and others pass (seeds found by search; s on 5.3.1
    # case 4, t on 5.3.5 case 3).
    runs = [(fam, c, 40, seed, radius)
            for seed, radius in ((3, 2.0), (20240811, 2.0), (5, 6.0))
            for fam in algebra.FAMILY_TAGS for c in kb.case_indices(fam)]
    runs += [("5.3.1", 4, 3, 4026, 800.0), ("5.3.1", 4, 3, 4932, 800.0),
             ("5.3.5", 3, 3, 67, 800.0)]
    blocks = orbits._VERIFY_ROWS
    for fam, c, n, seed, radius in runs:
        want = _per_base_verification(fam, None, c, n, seed, radius)
        if radius == 800.0:
            assert want["sign_violations"] > 0
        # one block per zero pattern, one base per block (limits 1 and
        # n + 1), and blocks of three bases
        for limit in (blocks, 1, n + 1, 3 * n):
            monkeypatch.setattr(orbits, "_VERIFY_ROWS", limit)
            doc = kb.verify_proposition(fam, None, c, n=n, seed=seed,
                                        radius=radius).to_json_dict()
            got = {key: doc[key] for key in want}
            assert repr(got) == repr(want), (fam, c, seed, limit)


def test_verify_overflow_names_the_first_refused_base(monkeypatch):
    # at radius 400 a refused motion names the family, the case and the
    # first canonical base whose own sample_orbit call is refused, with
    # that call's message, whatever the block size
    n, seed, named = 50, 1, 0
    for limit in (orbits._VERIFY_ROWS, 1):
        monkeypatch.setattr(orbits, "_VERIFY_ROWS", limit)
        for fam in algebra.FAMILY_TAGS:
            alg = kb.build_algebra(fam, None)
            for c in kb.case_indices(fam):
                want = None
                for k, base in enumerate(kb.canonical_bases(fam, c)):
                    try:
                        kb.sample_orbit(alg, base, n, seed=seed + 7919 * k,
                                        radius=400.0)
                    except DomainError as exc:
                        want = f"family {fam} case {c}, base {base.tolist()}: {exc}"
                        break
                if want is None:  # every motion is finite
                    continue
                with pytest.raises(DomainError) as err:
                    kb.verify_proposition(fam, None, c, n=n, seed=seed,
                                          radius=400.0)
                assert str(err.value) == want
                named += 1
    assert named


@pytest.mark.parametrize("fam,c,radius,seed,first", [
    ("5.3.4", 2, 400.0, 1, 0), ("5.3.4", 8, 360.0, 10, 1),
    ("5.3.7", 5, 400.0, 1, 0)])
def test_verify_rank_refusal_names_the_first_refused_base(
        monkeypatch, fam, c, radius, seed, first):
    # every motion is finite, but some Kirillov forms square past the float
    # range: the refusal names the family, the case and the first base
    # whose own check is refused, whatever the block size (at radius 360
    # on 5.3.4 case 8, not the first base of the block; seed found by
    # search)
    n = 50
    bases = kb.canonical_bases(fam, c)
    want = None
    for k, base in enumerate(bases):
        try:
            kb.verify_proposition(fam, None, c, n=n, seed=seed + 7919 * k,
                                  radius=radius, base=base)
        except DomainError as exc:
            want = str(exc)
            break
    assert want == (f"family {fam} case {c}, base {base.tolist()}: skew_ranks "
                    "needs finite forms with finite squared Pfaffians")
    assert k == first
    for limit in (orbits._VERIFY_ROWS, 1, 3 * n):
        monkeypatch.setattr(orbits, "_VERIFY_ROWS", limit)
        with pytest.raises(DomainError) as err:
            kb.verify_proposition(fam, None, c, n=n, seed=seed, radius=radius)
        assert str(err.value) == want, limit


def test_verify_quarter_turn_branch():
    rep = kb.verify_proposition("5.3.8", {"lambda": 1.0, "phi": math.pi / 2},
                                3, n=80, seed=8)
    assert rep.passed, rep.to_json_dict()


def test_verify_rejects_mismatched_base():
    with pytest.raises(DomainError):
        kb.verify_proposition("5.3.2", None, 5, n=10, seed=0,
                              base=[0, 0, 0, 0, 1.0])


def test_case_index_is_a_checked_count():
    # a bool or a numeric string is no case index, an integral float is its
    # int, and a case outside the family is refused with an explicit base too
    for bad in (True, "2"):
        for call in (lambda: kb.verify_proposition("5.3.2", None, bad, n=5,
                                                   seed=1),
                     lambda: kb.local_triviality_probe("5.3.2", None, bad,
                                                       n=5),
                     lambda: kb.canonical_bases("5.3.2", bad)):
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == (f"case index must be an integer, "
                                      f"got {bad!r}")
    rep = kb.verify_proposition("5.3.2", None, 2.0, n=5, seed=1)
    assert type(rep.case) is int and rep.case == 2
    with pytest.raises(DomainError, match=r"^family 5\.3\.2 has no case 9$"):
        kb.verify_proposition("5.3.2", None, 9, n=5, seed=1,
                              base=[1, 1, 1, 1, 1])
    with pytest.raises(DomainError,
                       match=r"^case index must be at least 1, got 0$"):
        kb.canonical_bases("5.3.2", 0)


def test_descriptor_summary_is_json_ready():
    import json

    from korbit import reports
    desc = kb.classify_orbit("5.3.7", {}, [0, 0, 1, 1, 1])
    doc = kb.descriptor_summary(desc)
    parsed = json.loads(reports.dumps(doc))
    assert parsed["case"] == 8
    assert parsed["dim"] == 2
    assert len(parsed["constraints"]) == 3


coordmag = st.floats(min_value=0.1, max_value=5.0)
signs = st.sampled_from([-1.0, 1.0])


@given(g=coordmag, d=coordmag, s=coordmag, sg=signs, sd=signs, ss=signs)
@settings(max_examples=40, deadline=None)
def test_membership_holds_along_moves(g, d, s, sg, sd, ss):
    alg = kb.build_algebra("5.3.2", None)
    F = np.array([0.3, -0.2, sg * g, sd * d, ss * s])
    desc = kb.classify_orbit("5.3.2", None, F)
    q = kb.coadjoint_move(alg, F, np.array([0.7, -0.5, 0.2, 0.1, -0.9]))
    assert kb.is_member(desc, q)


def test_verify_refuses_empty_sample():
    with pytest.raises(DomainError):
        kb.verify_proposition("5.3.2", None, 8, n=0, seed=0)


@pytest.mark.parametrize("step", [0.0, -1e-6, math.nan, math.inf])
def test_fd_step_must_be_finite_and_positive(step):
    # a zero or NaN step made every difference NaN, and the NaNs were dropped
    with pytest.raises(DomainError):
        kb.verify_proposition("5.3.1", None, 8, n=50, seed=7, grad_step=step)
    desc = kb.classify_orbit("5.3.1", P531, [1, 1, 1, 1, 1])
    with pytest.raises(DomainError):
        kb.gradient_fd_error(desc, [1.0, 1.0, 1.0, 1.0, 1.0], step=step)


def test_fd_difference_across_a_guard_is_not_dropped():
    desc = kb.classify_orbit("5.3.6", None, [1, 1, 1, 1, 0])  # log(z/gamma)
    p = [0.0, 1.0, 5e-7, 0.0, 0.0]  # z - step < 0
    assert kb.constraint_residuals(desc, p).shape == (3,)  # guards hold at p
    with np.errstate(invalid="ignore"):
        assert not math.isfinite(kb.gradient_fd_error(desc, p))
        # at radius 6 some steps of case 7 cross s/sigma > 0
        rep = kb.verify_proposition("5.3.1", P531, 7, n=50, seed=1, radius=6.0)
    assert math.isnan(rep.gradient_max_rel_err)
    assert not rep.passed


def test_rejected_points_are_never_evaluated():
    # 5.3.6 case 6: sign sigma*s > 0, guard z/gamma > 0 under log(z/gamma)
    desc = kb.classify_orbit("5.3.6", None, [1, 1, 1, 0, 1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not kb.is_member(desc, [1.0, 0.0, -1.0, 0.0, 1.0])  # guard
        assert not kb.is_member(desc, [1.0, 0.0, 1.0, 0.0, -1.0])  # sign
        assert not kb.is_member(desc, [1.0, 0.0, -1.0, 0.0, -1.0])  # both
    with pytest.raises(EvaluationError,
                       match=r"^cannot evaluate 't = z\*log\(z/gamma\)': "
                             r"requires z/gamma > 0$"):
        kb.constraint_residuals(desc, [1.0, 0.0, -1.0, 0.0, 1.0])


# Every constraint of every canonical descriptor, as "display [guard]" and
# joined by "; ": one entry per (family, case), one string per form of the
# case among the canonical bases and parameter sets (5.3.8 case 3 has three
# branches).
_PINNED_CONSTRAINTS = {
    ("5.3.1", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.1", 2): "x = alpha; z = 0; t = 0",
    ("5.3.1", 3): "x = alpha; z = 0; s = 0",
    ("5.3.1", 4): (
        "x = alpha; z = 0; t = delta*(s/sigma)**lambda2 [s/sigma > 0]"),
    ("5.3.1", 5): "lambda1*x = lambda1*alpha + gamma - z; t = 0; s = 0",
    ("5.3.1", 6): (
        "lambda1*x = lambda1*alpha + gamma - z; "
        "lambda1*x = lambda1*alpha + gamma*(1 - (s/sigma)**lambda1) [s/sigma "
        "> 0]; t = 0"),
    ("5.3.1", 7): (
        "lambda1*x = lambda1*alpha + gamma - z; "
        "lambda1*x = lambda1*alpha + gamma*(1 - (t/delta)**(lambda1/lambda2))"
        " [t/delta > 0]; s = 0"),
    ("5.3.1", 8): (
        "lambda1*x = lambda1*alpha + gamma - z; "
        "lambda1*x = lambda1*alpha + gamma*(1 - (s/sigma)**lambda1) [s/sigma "
        "> 0]; t = delta*(s/sigma)**lambda2 [s/sigma > 0]"),
    ("5.3.2", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.2", 2): "x = alpha; z = 0; t = 0",
    ("5.3.2", 3): "x = alpha; z = 0; s = 0",
    ("5.3.2", 4): (
        "x = alpha; z = 0; s = sigma*(t/delta)**lambda [t/delta > 0]"),
    ("5.3.2", 5): "x = alpha + gamma - z; t = 0; s = 0",
    ("5.3.2", 6): (
        "x = alpha + gamma - z; s = sigma*(z/gamma)**lambda [z/gamma > 0]; "
        "t = 0"),
    ("5.3.2", 7): (
        "x = alpha + gamma - z; x = alpha + (1 - t/delta)*gamma; s = 0"),
    ("5.3.2", 8): (
        "x = alpha + gamma - z; x = alpha + (1 - t/delta)*gamma; "
        "s = sigma*(t/delta)**lambda [t/delta > 0]"),
    ("5.3.3", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.3", 2): "x = alpha; z = 0; t = 0",
    ("5.3.3", 3): "x = alpha; z = 0; s = 0",
    ("5.3.3", 4): "x = alpha; z = 0; delta*s = sigma*t",
    ("5.3.3", 5): "lambda*x = lambda*alpha + gamma - z; t = 0; s = 0",
    ("5.3.3", 6): (
        "lambda*x = lambda*alpha + gamma - z; "
        "lambda*x = lambda*alpha + gamma*(1 - (s/sigma)**lambda) [s/sigma > "
        "0]; t = 0"),
    ("5.3.3", 7): (
        "lambda*x = lambda*alpha + gamma - z; "
        "z = gamma*(t/delta)**lambda [t/delta > 0]; s = 0"),
    ("5.3.3", 8): (
        "lambda*x = lambda*alpha + gamma - z; "
        "lambda*x = lambda*alpha + gamma*(1 - (t/delta)**lambda) [t/delta > "
        "0]; delta*s = sigma*t"),
    ("5.3.4", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.4", 2): "x = alpha; z = 0; t = 0",
    ("5.3.4", 3): "x = alpha; z = 0; s = 0",
    ("5.3.4", 4): "x = alpha; z = 0; delta*s = sigma*t",
    ("5.3.4", 5): "x = alpha + gamma - z; t = 0; s = 0",
    ("5.3.4", 6): (
        "x = alpha + gamma - z; x = alpha + gamma*(1 - s/sigma); t = 0"),
    ("5.3.4", 7): "x = alpha + gamma - z; z = gamma*t/delta; s = 0",
    ("5.3.4", 8): (
        "x = alpha + gamma - z; x = alpha + gamma*(1 - s/sigma); "
        "delta*s = sigma*t"),
    ("5.3.5", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.5", 2): "x = alpha; z = 0; t = 0",
    ("5.3.5", 3): "x = alpha; z = 0; s = t*log(t/delta) [t/delta > 0]",
    ("5.3.5", 4): (
        "x = alpha; z = 0; s = sigma*t/delta + t*log(t/delta) [t/delta > 0]"),
    ("5.3.5", 5): "lambda*x = lambda*alpha + gamma - z; t = 0; s = 0",
    ("5.3.5", 6): (
        "lambda*x = lambda*alpha + gamma - z; "
        "lambda*x = lambda*alpha + gamma*(1 - (s/sigma)**lambda) [s/sigma > "
        "0]; t = 0"),
    ("5.3.5", 7): (
        "lambda*x = lambda*alpha + gamma - z; "
        "z = gamma*(t/delta)**lambda [t/delta > 0]; "
        "s = t*log(t/delta) [t/delta > 0]"),
    ("5.3.5", 8): (
        "lambda*x = lambda*alpha + gamma - z; "
        "lambda*x = lambda*alpha + gamma*(1 - (t/delta)**lambda) [t/delta > "
        "0]; s = sigma*t/delta + t*log(t/delta) [t/delta > 0]"),
    ("5.3.6", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.6", 2): "x = alpha; z = 0; t = 0",
    ("5.3.6", 3): "x = alpha; z = 0; s = 0",
    ("5.3.6", 4): (
        "x = alpha; z = 0; s = sigma*(t/delta)**lambda [t/delta > 0]"),
    ("5.3.6", 5): (
        "x = alpha + gamma - z; t = z*log(z/gamma) [z/gamma > 0]; s = 0"),
    ("5.3.6", 6): (
        "x = alpha + gamma - z; t = z*log(z/gamma) [z/gamma > 0]; "
        "s = sigma*(z/gamma)**lambda [z/gamma > 0]"),
    ("5.3.6", 7): (
        "x = alpha + gamma - z; "
        "t = z*log(z/gamma) + delta*z/gamma [z/gamma > 0]; s = 0"),
    ("5.3.6", 8): (
        "x = alpha + gamma - z; "
        "t = z*log(z/gamma) + delta*z/gamma [z/gamma > 0]; "
        "s = sigma*(z/gamma)**lambda [z/gamma > 0]"),
    ("5.3.7", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.7", 2): "x = alpha; z = 0; t = 0",
    ("5.3.7", 3): "x = alpha; z = 0; s = t*log(t/delta) [t/delta > 0]",
    ("5.3.7", 4): (
        "x = alpha; z = 0; s = t*log(t/delta) + sigma*t/delta [t/delta > 0]"),
    ("5.3.7", 5): (
        "x = alpha + gamma - z; t = z*log(z/gamma) [z/gamma > 0]; "
        "s = (z/2)*log(z/gamma)**2 [z/gamma > 0]"),
    ("5.3.7", 6): (
        "x = alpha + gamma - z; t = z*log(z/gamma) [z/gamma > 0]; "
        "s = (z/2)*log(z/gamma)**2 + sigma*z/gamma [z/gamma > 0]"),
    ("5.3.7", 7): (
        "x = alpha + gamma - z; "
        "t = z*log(z/gamma) + delta*z/gamma [z/gamma > 0]; "
        "s = (z/2)*log(z/gamma)**2 + (delta/gamma)*z*log(z/gamma) [z/gamma > "
        "0]"),
    ("5.3.7", 8): (
        "x = alpha + gamma - z; "
        "t = z*log(z/gamma) + delta*z/gamma [z/gamma > 0]; "
        "s = (z/2)*log(z/gamma)**2 + (delta/gamma)*z*log(z/gamma) + "
        "sigma*z/gamma [z/gamma > 0]"),
    ("5.3.8", 1): "x = alpha; y = beta; z = 0; t = 0; s = 0",
    ("5.3.8", 2): "x = alpha; z = 0; t = 0",
    ("5.3.8", 3): (
        "z = Re((gamma + i*delta)*exp(b*exp(-i*phi))), b = "
        "log(s/sigma)/lambda [s/sigma > 0]; "
        "t = Im((gamma + i*delta)*exp(b*exp(-i*phi))), b = "
        "log(s/sigma)/lambda [s/sigma > 0]; "
        "x = alpha - gamma*Re(w) - delta*Im(w), w = (exp(b*exp(i*phi)) - "
        "1)*exp(-i*phi), b = log(s/sigma)/lambda [s/sigma > 0]",
        "s = 0; "
        "z = Re((gamma + i*delta)*exp(b*exp(-i*phi))), b = log(hypot(z, "
        "t)/hypot(gamma, delta))/cos(phi) [z**2 + t**2 > 0]; "
        "t = Im((gamma + i*delta)*exp(b*exp(-i*phi))), b = log(hypot(z, "
        "t)/hypot(gamma, delta))/cos(phi) [z**2 + t**2 > 0]; "
        "x = alpha - gamma*Re(w) - delta*Im(w), w = (exp(b*exp(i*phi)) - "
        "1)*exp(-i*phi), b = log(hypot(z, t)/hypot(gamma, delta))/cos(phi) "
        "[z**2 + t**2 > 0]",
        "s = 0; hypot(z, t) = hypot(gamma, delta) [z**2 + t**2 > 0]; "
        "x = alpha - gamma*sin(b) - delta*(1 - cos(b)), b = winding angle of "
        "(z + i*t) against (gamma + i*delta), mod 2*pi [z**2 + t**2 > 0]",
    ),
}


@pytest.mark.parametrize("display", [
    "s = foo(t)", "s = t % 2", "s = unknown*t", "s = True*t", "s = 1j*t",
    "s = t[0]", "s = +t", "s = log(t, 2)", "s = t**z", "s = t = z"])
def test_display_compiler_refuses_other_syntax(display):
    with pytest.raises((SyntaxError, ValueError)):
        orbits._compile(display)


def test_affine_coefficients_round_as_written():
    # an affine display's gradient is its coefficient vector, and its value
    # at the origin its constant, each rounded as the display writes them
    al, ga, de, si = 1.1, 0.3, 0.7, 1.9
    v = orbits._namespace(np.array([al, 2.0, ga, de, si]), {"lambda": 2.3})
    origin = np.zeros((1, 5))
    for display, coef, const in [
            ("delta*s = sigma*t", [0, 0, 0, -si, de], 0.0),
            ("x = alpha + (1 - t/delta)*gamma", [1, 0, 0, ga / de, 0],
             -al - ga),
            ("x = alpha + gamma*(1 - s/sigma)", [1, 0, 0, 0, ga / si],
             -al - ga),
            ("z = gamma*t/delta", [0, 0, 1, -(ga / de), 0], 0.0),
            ("lambda*x = lambda*alpha + gamma - z", [2.3, 0, 1, 0, 0],
             -2.3 * al - ga)]:
        con = orbits._DISPLAYS[display](v)
        assert con.affine and con.guards == ()
        assert con.grad(origin)[0].tolist() == coef, display
        assert con.fn(origin).tolist() == [const], display


def _shown(desc):
    return "; ".join(con.expr + "".join(f" [{g.expr}]" for g in con.guards)
                     for con in desc.constraints)


def test_constraint_displays_and_guards_are_pinned():
    seen = {}
    for fam, params in CANONICAL:
        for c in kb.case_indices(fam):
            for base in kb.canonical_bases(fam, c):
                shown = _shown(kb.classify_orbit(fam, params, base))
                forms = seen.setdefault((fam, c), [])
                if shown not in forms:
                    forms.append(shown)
    pinned = {key: (v,) if isinstance(v, str) else v
              for key, v in _PINNED_CONSTRAINTS.items()}
    assert {key: tuple(v) for key, v in seen.items()} == pinned
    # the first failing guard, in constraint order, names the refusal
    desc = kb.classify_orbit("5.3.1", P531, [1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(EvaluationError) as err:
        kb.constraint_residuals(desc, [1.0, 0.0, 1.0, 1.0, -1.0])
    assert str(err.value) == (
        "cannot evaluate 'lambda1*x = lambda1*alpha + gamma*(1 - "
        "(s/sigma)**lambda1)': requires s/sigma > 0")


# Display strings are read as numpy expressions: "lhs = rhs" plus trailing
# "w = ..." / "b = ..." definitions, evaluated last clause first.
_DISPLAY_SCOPE = {"log": np.log, "exp": np.exp, "hypot": np.hypot,
                  "sin": np.sin, "cos": np.cos, "Re": np.real, "Im": np.imag,
                  "i": 1j}
_DEFINITION = re.compile(r", (?=[bw] = )")


def _display_scope(desc, P):
    scope = dict(_DISPLAY_SCOPE)
    scope.update(zip(("alpha", "beta", "gamma", "delta", "sigma"),
                     map(float, desc.base)))
    scope.update((k.replace("lambda", "lam"), v) for k, v in desc.params.items())
    scope.update(zip("xyzts", P.T))
    return scope


def _display_value(expr, scope):
    """(lhs - rhs, |lhs| + |rhs|) of a display equation."""
    eq, *defs = _DEFINITION.split(expr.replace("lambda", "lam"))
    scope = dict(scope)
    for d in reversed(defs):
        name, _, rhs = d.partition(" = ")
        scope[name] = eval(rhs, scope)
    lhs, _, rhs = eq.partition(" = ")
    lhs, rhs = eval(lhs, scope), eval(rhs, scope)
    return lhs - rhs, np.abs(lhs) + np.abs(rhs)


def test_display_strings_match_constraint_functions():
    rng = np.random.default_rng(17)
    checked = 0
    # lambda = 1 in both 5.3.8 entries of CANONICAL would hide a misplaced lambda
    for fam, params in CANONICAL + [("5.3.8", {"lambda": -2.0, "phi": 1.0})]:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            for base in kb.canonical_bases(fam, c):
                desc = kb.classify_orbit(fam, params, base)
                on = kb.sample_orbit(alg, base, 12, seed=c, radius=1.5).points
                # off-orbit points too, so that fn is not ~0; a relative
                # perturbation keeps every sign and guard of the base
                P = np.vstack([on, on * (1.0 + 0.05 * rng.uniform(-1, 1, on.shape))])
                scope = _display_scope(desc, P)
                for con in desc.constraints:
                    if "winding angle" in con.expr:
                        continue  # prose definition of b
                    val, mag = _display_value(con.expr, scope)
                    fn = con.fn(P)
                    assert np.all(np.abs(val - fn) <= 1e-12 * (1.0 + mag)), \
                        (fam, c, base, con.expr)
                    checked += 1
                for sp in desc.signs:
                    lhs, _, zero = sp.expr.partition(" > ")
                    assert zero == "0"
                    val = eval(lhs.replace("lambda", "lam"), scope)
                    assert np.all(np.abs(val - sp.fn(P)) <= 1e-12 * (1.0 + np.abs(val)))
    assert checked > 500


def _row_reference(alg, desc, row, tol=1e-9, step=1e-6):
    """(rank, tangency, FD error) at one (1, 5) row: the per-point loop the
    batched checks replace. Rows stay arrays so that numpy evaluates the
    constraint functions with the same array loops as for a stack."""
    q = row[0]
    J = np.stack([con.grad(row)[0] for con in desc.constraints])
    sv = np.linalg.svd(J, compute_uv=False)
    rank = int(np.count_nonzero(sv > tol * max(1.0, float(sv[0]))))
    B = kb.kirillov_form(alg, q).b
    scale = 1.0 + float(np.max(np.abs(q)))
    tangency = 0.0
    fd_err = 0.0
    for con in desc.constraints:
        G = con.grad(row)[0]
        tangency = max(tangency, float(np.max(np.abs(B @ G))) / scale)
        denom = max(1.0, float(np.max(np.abs(G))))
        for j in range(5):
            rp = row.copy()
            rp[0, j] += step
            rm = row.copy()
            rm[0, j] -= step
            fd = (con.fn(rp)[0] - con.fn(rm)[0]) / (2.0 * step)
            fd_err = max(fd_err, float(abs(fd - G[j])) / denom)
    return rank, tangency, fd_err


def test_batched_checks_match_row_loop():
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            for base in kb.canonical_bases(fam, c)[:3]:
                desc = kb.classify_orbit(fam, params, base)
                P = kb.sample_orbit(alg, base, 15, seed=5, radius=1.5).points
                ranks = kb.jacobian_rank_check(desc, P)
                tangency = kb.tangency_residual(alg, desc, P)
                fd_err = kb.gradient_fd_error(desc, P)
                assert ranks.shape == tangency.shape == fd_err.shape == (15,)
                for k in range(len(P)):
                    rank, tan_ref, fd_ref = _row_reference(alg, desc, P[k:k + 1])
                    assert ranks[k] == rank, (fam, c, k)
                    assert abs(tangency[k] - tan_ref) <= 1e-15, (fam, c, k)
                    assert abs(fd_err[k] - fd_ref) <= 1e-15, (fam, c, k)
                    # a single point is the n = 1 case of the stack
                    assert kb.jacobian_rank_check(desc, P[k]) == ranks[k]
                    assert kb.tangency_residual(alg, desc, P[k]) == tangency[k]
                    assert kb.gradient_fd_error(desc, P[k]) == fd_err[k]


def _fd_rows_per_shift(desc, P, J, step):
    """gradient_fd_error with one constraint call per shifted copy of P:
    the former loop, kept as the bitwise reference of the stacked one."""
    worst = np.zeros(P.shape[0])
    for c, con in enumerate(desc.constraints):
        G = J[:, c, :]
        denom = np.maximum(1.0, np.max(np.abs(G), axis=-1))
        for j in range(5):
            Pp = P.copy()
            Pp[:, j] += step
            Pm = P.copy()
            Pm[:, j] -= step
            fd = (con.fn(Pp) - con.fn(Pm)) / (2.0 * step)
            worst = np.maximum(worst, np.abs(fd - G[:, j]) / denom)
    return worst


def test_stacked_fd_rows_match_per_shift_loop_bitwise():
    # radius 6 also steps across guards, so NaN rows are compared too
    seen_nan = False
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            for k, base in enumerate(kb.canonical_bases(fam, c)):
                desc = kb.classify_orbit(fam, params, base)
                for radius, step in ((1.5, 1e-6), (6.0, 1e-4)):
                    P = kb.sample_orbit(alg, base, 40, seed=k,
                                        radius=radius).points
                    P = P[orbits._masks(desc, P)[0]]
                    J = orbits._jacobian(desc, P)
                    with np.errstate(all="ignore"):
                        got = kb.gradient_fd_error(desc, P, step)
                        ref = _fd_rows_per_shift(desc, P, J, step)
                    assert np.array_equal(got.view(np.int64),
                                          ref.view(np.int64)), (fam, c, k)
                    seen_nan |= bool(np.isnan(got).any())
    assert seen_nan


def test_stacked_descriptor_fd_rows_match_per_base_bitwise():
    # the stacked-descriptor case: one (2, 5, n, 5) FD over a block of the
    # bases of one zero pattern, each row against its own base, equals
    # the FD rows of each base alone bit for bit
    seen_nan = False
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            bases = kb.canonical_bases(fam, c)
            codes = [orbits._pattern(*b.tolist()[2:]) for b in bases]
            for code in dict.fromkeys(codes):
                for radius, step in ((1.5, 1e-6), (6.0, 1e-4)):
                    Ps, Bs, want = [], [], []
                    for k in np.flatnonzero(np.array(codes) == code):
                        desc = kb.classify_orbit(fam, params, bases[k])
                        P = kb.sample_orbit(alg, bases[k], 40, seed=int(k),
                                            radius=radius).points
                        P = P[orbits._masks(desc, P)[0]]
                        with np.errstate(all="ignore"):
                            want.append(kb.gradient_fd_error(desc, P, step))
                        Ps.append(P)
                        Bs.append(np.repeat(bases[k][None], len(P), axis=0))
                    P = np.concatenate(Ps)
                    if not len(P):
                        continue
                    desc = orbits._descriptor(fam, alg.params,
                                              np.concatenate(Bs))
                    with np.errstate(all="ignore"):
                        got = orbits._fd_rows(desc, P,
                                              orbits._jacobian(desc, P), step)
                    assert np.array_equal(
                        got.view(np.int64),
                        np.concatenate(want).view(np.int64)), (fam, c, code)
                    seen_nan |= bool(np.isnan(got).any())
    assert seen_nan


def _einsum_tangency_rows(P, B, J):
    """_tangency_rows as the dense contraction it replaced: the bitwise
    reference, zero entries of the forms included."""
    v = np.einsum("nij,ncj->nci", B, J)
    return np.max(np.abs(v), axis=(1, 2)) / (1.0 + np.max(np.abs(P), axis=-1))


def test_tangency_rows_match_einsum_bitwise():
    # the samples of every case as verify_proposition draws them, each
    # block of bases of one zero pattern with one stacked descriptor, then
    # the same rows with inf, -inf or NaN Jacobian entries: those rows
    # read NaN, as the einsum's 0 * inf does
    seen = 0
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for c in kb.case_indices(fam):
            bases = np.array(kb.canonical_bases(fam, c))
            codes = np.array([orbits._pattern(*b.tolist()[2:]) for b in bases])
            for code in np.unique(codes):
                block = bases[codes == code]
                desc, P = orbits._case_sample(alg, block, c, 30,
                                              range(len(block)), 2.0)
                guarded = orbits._masks(desc, P)[0]
                P = P[guarded]
                if desc.base.ndim == 2:
                    desc = orbits._descriptor(fam, alg.params,
                                              desc.base[guarded])
                B, J = kb.kirillov_forms(alg, P), orbits._jacobian(desc, P)
                bad = J.copy()
                bad[::5, 0, 1], bad[1::5, -1, 4] = np.inf, np.nan
                bad[2::5, 1, 0] = -np.inf
                for Jx in (J, bad):
                    with np.errstate(invalid="ignore"):
                        got = orbits._tangency_rows(P, B, Jx)
                        ref = _einsum_tangency_rows(P, B, Jx)
                    assert np.array_equal(got.view(np.int64),
                                          ref.view(np.int64)), (fam, c, code)
                assert np.array_equal(np.isnan(got),
                                      np.arange(len(P)) % 5 < 3)
                seen += len(P)
    assert seen


def test_scale_matches_np_max_bitwise_on_non_finite_rows():
    # the chain of np.maximum over the columns keeps np.max's bits: inf
    # rows read inf, NaN rows NaN (also beside an inf), -0.0 reads as 0.0
    P = np.random.default_rng(8).uniform(-3.0, 3.0, (48, 5))
    P[::6, 2], P[1::6, 4], P[2::6, 0] = np.inf, -np.inf, np.nan
    P[3::6, 1], P[3::6, 3] = np.inf, np.nan
    P[4::6] = -0.0
    got = orbits._scale(P)
    ref = 1.0 + np.max(np.abs(P), axis=-1)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    assert np.array_equal(np.isnan(got), np.isin(np.arange(48) % 6, (2, 3)))
    assert orbits._scale(np.empty((0, 5))).shape == (0,)


def test_jacobian_rank_check_matches_svd_reference(monkeypatch):
    # certified rows, rows at the threshold, rank-2 rows, four-constraint
    # stacks (SVD only) and the Jacobians of a sampled orbit
    rng = np.random.default_rng(41)
    tol = 1e-3
    sv = -np.sort(-np.abs(rng.normal(size=(300, 3))), axis=1)
    sv *= 10.0 ** rng.uniform(-3.0, 3.0, (300, 1))
    sv[:100, 2] = tol * np.maximum(1.0, sv[:100, 0]) * rng.choice(
        [1.0 - 1e-3, 1.0 + 1e-3, 3.0], 100)
    sv[100:150, 2] = 0.0
    J3 = stack_with_singular_values(rng, sv, 5)
    J4 = np.concatenate([J3, rng.normal(size=(300, 1, 5))], axis=1)
    desc = kb.classify_orbit("5.3.2", None, [1, 1, 1, 1, 1])
    P = kb.sample_orbit(kb.build_algebra("5.3.2", None), desc.base, 300,
                        seed=2).points
    for J in (J3, J4, orbits._jacobian(desc, P)):
        monkeypatch.setattr(orbits, "_jacobian", lambda desc, P, J=J: J)
        for t in (1e-9, tol):
            ranks = kb.jacobian_rank_check(desc, P, t)
            ref = kirillov.svd_ranks(J, t)[0]
            assert ranks.dtype == ref.dtype and np.array_equal(ranks, ref)
    assert {2, 3} <= set(kirillov.svd_ranks(J3, tol)[0].tolist())


# Catalog defaults (None) and a second parameter point per family; 5.3.8
# adds the modulus branch (phi = 1) and the quarter turn (phi = pi/2) of
# its sigma = 0 rows.
_STACK_PARAMS = [
    ("5.3.1", None), ("5.3.1", {"lambda1": -1.5, "lambda2": 0.6}),
    ("5.3.2", None), ("5.3.2", {"lambda": -0.7}),
    ("5.3.3", None), ("5.3.3", {"lambda": 0.4}),
    ("5.3.4", None),
    ("5.3.5", None), ("5.3.5", {"lambda": -1.6}),
    ("5.3.6", None), ("5.3.6", {"lambda": 0.45}),
    ("5.3.7", None),
    ("5.3.8", None), ("5.3.8", {"lambda": 0.7, "phi": 1.0}),
    ("5.3.8", {"lambda": -1.3, "phi": math.pi / 2}),
]


def _mixed_stack(alg, seed, per_pattern=3, points=8):
    """Bases of every zero pattern of (gamma, delta, sigma), per_pattern of
    each, and per base `points` rows: orbit points, then two points of the
    cube that may fail a guard or a sign. Returns (bases, points) of equal
    length, rows shuffled."""
    rng = np.random.default_rng(seed)
    bases, pts = [], []
    for code in range(8):
        for _ in range(per_pattern):
            B = rng.uniform(-2.0, 2.0, 5)
            mag = rng.uniform(0.3, 3.0, 3) * rng.choice([-1.0, 1.0], 3)
            B[2:] = [mag[k] if code >> (2 - k) & 1 else 0.0 for k in range(3)]
            P = kb.sample_orbit(alg, B, points - 2, seed=int(rng.integers(1 << 30)),
                                radius=1.0).points
            bases += [B] * points
            pts += [*P, *rng.uniform(-2.0, 2.0, (2, 5))]
    order = rng.permutation(len(bases))
    return np.array(bases)[order], np.array(pts)[order]


@pytest.mark.parametrize("fam,params", _STACK_PARAMS)
def test_stacked_descriptors_match_one_base_descriptors(fam, params):
    alg = kb.build_algebra(fam, params)
    B, P = _mixed_stack(alg, seed=_STACK_PARAMS.index((fam, params)))
    p = alg.params
    codes = orbits._pattern(*B.T[2:])
    cases = orbits._case_of(fam, codes)
    singles = [kb.classify_orbit(fam, params, b) for b in B]
    assert cases.tolist() == [d.case_index for d in singles]
    assert len(set(cases.tolist())) == len(kb.case_indices(fam))
    screen_guarded, screen_signed, worst = orbits._screen(fam, p, B, P)
    seen = np.zeros(len(B), dtype=bool)
    for code in np.unique(codes):
        rows = np.flatnonzero(codes == code)
        desc = orbits._descriptor(fam, p, B[rows])
        assert not seen[rows].any()
        seen[rows] = True
        assert np.array_equal(desc.base, B[rows])
        guarded, signed = orbits._masks(desc, P[rows])
        assert np.array_equal(screen_guarded[rows], guarded)
        assert np.array_equal(screen_signed[rows], signed)
        admitted = np.flatnonzero(guarded & signed)
        ok = rows[admitted]
        res = orbits._residual_rows(orbits._descriptor(fam, p, B[ok]), P[ok])
        affine = np.array([c.affine for c in desc.constraints])
        assert res.shape == (len(admitted), len(desc.constraints))
        for k, r in enumerate(rows):
            one = singles[r]
            assert (desc.case, desc.shape, desc.dim, desc.provenance) == (
                one.case, one.shape, one.dim, one.provenance)
            assert [c.expr for c in desc.constraints] == [
                c.expr for c in one.constraints]
            assert [s.expr for s in desc.signs] == [s.expr for s in one.signs]
            q = P[r][None, :]
            one_guarded, one_signed = orbits._masks(one, q)
            assert guarded[k] == one_guarded[0]
            assert signed[k] == one_signed[0]
            if not (guarded[k] and signed[k]):
                assert worst[r] == np.inf  # a rejected row is not evaluated
                continue
            want = orbits._residual_rows(one, q)[0]
            got = res[np.searchsorted(admitted, k)]
            assert np.array_equal(got[~affine], want[~affine]), (fam, r)
            np.testing.assert_allclose(got[affine], want[affine],
                                       rtol=1e-15, atol=1e-15)
            # the screen's worst residual is the stacked row's, and matches
            # the one-base descriptor's
            assert worst[r] == np.max(np.abs(got)), (fam, r)
            np.testing.assert_allclose(worst[r], np.max(np.abs(want)),
                                       rtol=1e-15, atol=1e-15)
    assert seen.all()


def test_stacked_descriptor_covers_both_sigma_zero_branches():
    # 5.3.8 case 3 with sigma = 0: four constraints on the modulus branch,
    # three at the quarter turn; a stack holds one branch per zero pattern
    for phi, count in ((1.0, 4), (math.pi / 2, 3)):
        alg = kb.build_algebra("5.3.8", {"lambda": 1.0, "phi": phi})
        B, _ = _mixed_stack(alg, seed=5)
        codes = orbits._pattern(*B.T[2:])
        groups = [orbits._descriptor("5.3.8", alg.params, B[codes == c])
                  for c in np.unique(codes)]
        branch = [d for d in groups
                  if d.case_index == 3 and d.case.zero_pattern[2]]
        assert len(branch) == 3  # (gamma, delta) = (+, 0), (0, +), (+, +)
        assert all(len(d.constraints) == count and not d.signs
                   for d in branch)


def test_stacked_classifier_refuses_degenerate_parameters():
    with pytest.warns(ParameterWarning):
        p = algebra.validate_params("5.3.3", {"lambda": 0.0})
    fixed = np.array([[1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 1.0, 0.0, 0.0, 2.0]])
    # the screen's groups, in ascending zero-pattern order
    assert orbits._case_of("5.3.3", np.unique(orbits._pattern(*fixed.T[2:]))
                           ).tolist() == [2, 4]
    guarded, signed, worst = orbits._screen("5.3.3", p, fixed, fixed)
    assert guarded.all() and signed.all() and np.all(worst < 1e-15)
    degenerate = np.vstack([fixed, [1, 1, 1, 0, 0]])
    with pytest.raises(DomainError, match="no valid closed-form") as err:
        orbits._screen("5.3.3", p, degenerate, degenerate)
    with pytest.raises(DomainError) as one:
        orbits._descriptor("5.3.3", p, np.array([1.0, 1.0, 1.0, 0.0, 0.0]))
    assert str(err.value) == str(one.value)


def test_orbits_equal_is_the_one_row_mutual_membership():
    alg = kb.build_algebra("5.3.4", None)
    F = np.array([0.3, -1.2, 1.1, 0.8, -0.6])
    G = kb.coadjoint_move(alg, F, np.array([0.2, 0.9, -0.4, 0.3, 0.5]))
    equal, odd = orbits._mutual_membership(alg.family, alg.params, F[None],
                                           G[None], 1e-8)
    assert equal.tolist() == [True] and odd == {}
    assert kb.orbits_equal(alg, F, G)
    # the stacked call decides each row as orbits_equal decides it alone
    H = F * np.array([1, 1, 1, 1, -1])
    equal, odd = orbits._mutual_membership(alg.family, alg.params,
                                           np.array([F, F]), np.array([G, H]),
                                           1e-8)
    assert equal.tolist() == [kb.orbits_equal(alg, F, G),
                              kb.orbits_equal(alg, F, H)] == [True, False]
    assert odd == {}
