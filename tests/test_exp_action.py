import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbit as kb
from korbit.errors import DomainError

from conftest import CANONICAL, phi1_sum, taylor_expm

LN2 = math.log(2.0)


def test_phi_series_frozen_examples():
    assert abs(kb.phi_series(2.0, LN2) - 1.5) < 1e-15
    assert kb.phi_series(0.0, 7.0) == 7.0
    assert kb.phi_series(5.0, 0.0) == 0.0
    assert abs(kb.phi_series(1.0, 1.0) - (math.e - 1.0)) < 1e-15


@given(lam=st.floats(-4, 4), b=st.floats(-1, 1))
@settings(max_examples=120, deadline=None)
def test_phi_series_matches_taylor_oracle(lam, b):
    # b*phi1(b*lam) with phi1 from a plain 40-term sum
    want = b * phi1_sum(b * lam)
    got = kb.phi_series(lam, b)
    assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_phi_series_tight_at_series_cutoff():
    # the closed form takes over at |b*lam| = 1e-4; both branches must agree
    # with the plain sum right at the seam
    for x in (0.99999e-4, 1e-4, 1.00001e-4, 1e-5, 2e-4, 1e-3, -1e-4):
        want = x * phi1_sum(x)
        got = kb.phi_series(1.0, x)
        assert abs(got - want) <= 1e-14 * (1.0 + abs(want)), x


def test_phi_series_rejects_nonfinite():
    with pytest.raises(DomainError):
        kb.phi_series(float("nan"), 1.0)
    with pytest.raises(DomainError):
        kb.phi_series(1.0, float("inf"))


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_exp_ad_matches_taylor_oracle(fam, params):
    rng = np.random.default_rng(42)
    alg = kb.build_algebra(fam, params)
    for _ in range(20):
        U = rng.uniform(-2.5, 2.5, 5)
        M = kb.ad_matrix(alg, U)
        got = kb.exp_ad(alg, U).m
        want = taylor_expm(M)
        assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_exp_ad_closed_matches_generic(fam, params):
    rng = np.random.default_rng(7)
    alg = kb.build_algebra(fam, params)
    for _ in range(60):
        U = rng.uniform(-3, 3, 5)
        a = kb.exp_ad(alg, U).m
        b = kb.exp_ad_closed(fam, params, U).m
        assert np.max(np.abs(a - b)) < 1e-9


def test_exp_ad_block_structure():
    # upper-left identity, upper-right zero: the quotient by the ideal is fixed
    alg = kb.build_algebra("5.3.6", None)
    U = np.array([0.3, -1.2, 0.7, 0.1, -0.4])
    m = kb.exp_ad(alg, U).m
    assert np.allclose(m[:2, :2], np.eye(2), atol=1e-14)
    assert np.allclose(m[:2, 2:], 0.0, atol=1e-14)
    mc = kb.exp_ad_closed("5.3.6", None, U).m
    assert np.array_equal(mc[:2, :2], np.eye(2))
    assert np.array_equal(mc[:2, 2:], np.zeros((2, 3)))


def test_exp_determinant_is_exp_trace():
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        rng = np.random.default_rng(11)
        for _ in range(10):
            U = rng.uniform(-2, 2, 5)
            M = kb.ad_matrix(alg, U)
            d = np.linalg.det(kb.exp_ad(alg, U).m)
            assert abs(d - math.exp(np.trace(M))) <= 1e-9 * abs(d)


def test_exp_inverse_is_exp_of_negative():
    alg = kb.build_algebra("5.3.7", None)
    rng = np.random.default_rng(3)
    for _ in range(10):
        U = rng.uniform(-2, 2, 5)
        m = kb.exp_ad(alg, U).m @ kb.exp_ad(alg, -U).m
        assert np.max(np.abs(m - np.eye(5))) < 1e-12


def test_exp_doubling():
    alg = kb.build_algebra("5.3.8", None)
    rng = np.random.default_rng(5)
    for _ in range(10):
        U = rng.uniform(-1.5, 1.5, 5)
        m = kb.exp_ad(alg, U).m
        assert np.max(np.abs(m @ m - kb.exp_ad(alg, 2.0 * U).m)) < 1e-11


def test_scipy_cross_check():
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(23)
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for _ in range(5):
            U = rng.uniform(-3, 3, 5)
            M = kb.ad_matrix(alg, U)
            assert np.max(np.abs(kb.exp_ad(alg, U).m
                                 - scipy_linalg.expm(M))) < 1e-10


def test_coadjoint_frozen_example_531():
    # base (0,0,1,1,1) moved by (ln 2) X2 with lambda = (2, 3)
    alg = kb.build_algebra("5.3.1", (2.0, 3.0))
    F = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
    U = np.array([0.0, LN2, 0.0, 0.0, 0.0])
    img = kb.coadjoint_move(alg, F, U)
    assert np.allclose(img, [-1.5, 0.0, 4.0, 8.0, 2.0], atol=1e-12)


def test_coadjoint_sketch_matches_matrix_route():
    alg = kb.build_algebra("5.3.1", (2.0, 3.0))
    rng = np.random.default_rng(17)
    for _ in range(200):
        U = rng.uniform(-2, 2, 5)
        F = rng.uniform(-3, 3, 5)
        a = kb.coadjoint_move(alg, F, U)
        b = kb.coadjoint_move_531(alg.params, F, U)
        assert np.max(np.abs(a - b)) <= 1e-11 * (1.0 + np.max(np.abs(a)))


def _literal_y_531(params, F, U):
    # y of the 5.3.1 motion in its literal transcription: the delta term
    # carries the first eigenvalue lambda1 where the matrix route has lambda2
    l1 = params["lambda1"]
    a, b, c, d, f = U
    al, be, ga, de, si = F
    return (be + ga * (a - c * l1) * phi1_sum(b * l1)
            - de * d * l1 * phi1_sum(b * l1) - si * f * phi1_sum(b))


def test_coadjoint_sketch_literal_variant_deviates():
    # the literal variant disagrees with the matrix route whenever d*delta != 0
    params = {"lambda1": 2.0, "lambda2": 3.0}
    F = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    U = np.array([0.0, 0.5, 0.0, 1.0, 0.0])
    alg = kb.build_algebra("5.3.1", params)
    right = kb.coadjoint_move(alg, F, U)
    fixed = kb.coadjoint_move_531(params, F, U)
    literal = fixed.copy()
    literal[1] = _literal_y_531(params, F, U)
    assert np.max(np.abs(fixed - right)) < 1e-12
    assert abs(literal[1] - right[1]) > 1e-2


def test_fixed_points_stay_fixed():
    # gamma = delta = sigma = 0 is fixed by the whole group
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        F = np.array([0.7, -1.3, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(2)
        for _ in range(5):
            U = rng.uniform(-3, 3, 5)
            assert np.allclose(kb.coadjoint_move(alg, F, U), F, atol=1e-12)


def test_first_order_flow_matches_transposed_ad():
    eps = 1e-6
    rng = np.random.default_rng(29)
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for _ in range(10):
            U = rng.uniform(-2, 2, 5)
            F = rng.uniform(-2, 2, 5)
            drift = (kb.coadjoint_move(alg, F, eps * U) - F) / eps
            want = kb.ad_matrix(alg, U).T @ F
            assert np.max(np.abs(drift - want)) <= 1e-4 * (1.0 + np.max(np.abs(want)))


def test_sample_orbit_deterministic_and_on_orbit():
    alg = kb.build_algebra("5.3.6", None)
    F = np.array([1.0, 1.0, 1.0, 1.0, 1.0])
    s1 = kb.sample_orbit(alg, F, 50, seed=99)
    s2 = kb.sample_orbit(alg, F, 50, seed=99)
    assert np.array_equal(s1.points, s2.points)
    s3 = kb.sample_orbit(alg, F, 50, seed=100)
    assert not np.array_equal(s1.points, s3.points)
    desc = kb.classify_orbit("5.3.6", None, F)
    assert all(kb.is_member(desc, q) for q in s1.points)


def test_sample_orbit_rejects_bad_arguments():
    alg = kb.build_algebra("5.3.4", None)
    with pytest.raises(DomainError):
        kb.sample_orbit(alg, [1, 1, 1, 1, 1], -1, seed=0)
    with pytest.raises(DomainError):
        kb.sample_orbit(alg, [1, 1, 1, 1, 1], 10, seed=0, radius=0.0)
    empty = kb.sample_orbit(alg, [1, 1, 1, 1, 1], 0, seed=0)
    assert empty.points.shape == (0, 5)
