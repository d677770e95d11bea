import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbit as kb
from korbit.errors import AsymmetryError, DomainError, EvaluationError, ParameterWarning

from conftest import CANONICAL

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
            base = kb.canonical_bases(fam, c, sign_variants=False)[0]
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
    for s in (-1.0, math.nan):
        with pytest.raises(EvaluationError):
            kb.constraint_residuals(desc, [0.0, 0.0, 1.0, 0.0, s])
    # is_member folds that into a refusal
    assert not kb.is_member(desc, [0.0, 0.0, 1.0, 0.0, -1.0])


def test_residual_normalization():
    desc = kb.classify_orbit("5.3.4", None, [0, 0, 1, 0, 0])  # case 5
    p = np.array([0.0, 0.0, 101.0, 0.0, 0.0])  # x = alpha + gamma - z violated by 100
    r = kb.constraint_residuals(desc, p)
    assert abs(abs(r[0]) - 100.0 / 102.0) < 1e-12


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
            base = kb.canonical_bases(fam, c, sign_variants=False)[0]
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


def test_verify_quarter_turn_branch():
    rep = kb.verify_proposition("5.3.8", {"lambda": 1.0, "phi": math.pi / 2},
                                3, n=80, seed=8)
    assert rep.passed, rep.to_json_dict()


def test_verify_rejects_mismatched_base():
    with pytest.raises(DomainError):
        kb.verify_proposition("5.3.2", None, 5, n=10, seed=0,
                              base=[0, 0, 0, 0, 1.0])


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
