import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbit as kb
from korbit import algebra, exp_action
from korbit.errors import DomainError

from conftest import CANONICAL, phi1_sum, taylor_expm
from test_acceptance import JACOBI_GRID

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


@pytest.mark.parametrize("lam,b", [(800.0, 1.0), (1.0, 800.0),
                                   (1e308, 1e308)])
def test_phi_series_refuses_a_result_past_the_float_range(lam, b):
    # finite arguments whose value is inf (or inf/inf), with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            kb.phi_series(lam, b)
    assert str(err.value) == f"phi_series overflows at lam = {lam!r}, b = {b!r}"


def test_phi_series_rejects_nonfinite():
    with pytest.raises(DomainError):
        kb.phi_series(float("nan"), 1.0)
    with pytest.raises(DomainError):
        kb.phi_series(1.0, float("inf"))
    # and what is not a real number at all
    for lam, b in (("x", 1.0), (1.0, "y"), (1j, 1.0), (None, 1.0), ([1.0], 1.0),
                   (True, 2.0), (1.0, np.True_)):
        with pytest.raises(DomainError,
                           match="phi_series arguments must be real numbers"):
            kb.phi_series(lam, b)


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


def _expm_per_matrix(M):
    # The degree-19 Paterson-Stockmeyer core, one matrix at a time with @,
    # as the reference for the stacked code: scale by 2^-s until the
    # infinity norm is at most 1, blocks B_j = sum_i A^i / (4j + i)!, then
    # B0 + A4 (B1 + A4 (B2 + A4 (B3 + A4 B4))), squared s times.
    a = np.abs(M)
    norm = float(np.max(a[:, 0] + a[:, 1] + a[:, 2] + a[:, 3] + a[:, 4]))
    s = math.ceil(math.log2(norm)) if norm > 1.0 else 0
    A = M * 2.0 ** -s
    A2 = A @ A
    A3 = A2 @ A
    A4 = A2 @ A2
    coeffs = np.array([[1 / math.factorial(4 * j + i) for i in range(4)]
                       for j in range(5)])
    B = (coeffs @ np.stack([np.eye(5), A, A2, A3]).reshape(4, 25))
    B = B.reshape(5, 5, 5)
    R = B[4]
    for j in (3, 2, 1, 0):
        R = B[j] + A4 @ R
    for _ in range(s):
        R = R @ R
    return R


def _count(v):
    # squarings of a matrix of infinity norm v under the target 1
    return math.ceil(math.log2(v)) if v > 1.0 else 0


def _assert_rows_close(got, want):
    # 1e-15 relative to each row's largest entry: other BLAS builds may
    # round the stacked products differently
    axes = tuple(range(1, want.ndim))
    scale = np.max(np.abs(want), axis=axes, keepdims=True)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-15 * scale)


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_stacked_motion_matches_per_point_algorithm(fam, params):
    rng = np.random.default_rng(61)
    alg = kb.build_algebra(fam, params)
    # 100 rows per radius, interleaved, so one stack mixes squaring counts
    radii = np.repeat([1e-3, 0.3, 2.0, 8.0, 40.0], 100)
    Us = rng.uniform(-1.0, 1.0, (500, 5)) * rng.permutation(radii)[:, None]
    F = rng.uniform(-2.5, 2.5, 5)
    M = kb.ad_matrix(alg, Us)
    counts = {_count(v) for v in np.linalg.norm(M, np.inf, axis=(1, 2))}
    # every count from none up to the last one that cannot overflow
    assert set(range(exp_action._EXP_SAFE_SQUARINGS + 1)) <= counts
    want = np.array([_expm_per_matrix(m) for m in M])
    for n in (0, 1, 2, 500):
        E = kb.exp_ad(alg, Us[:n]).m
        _assert_rows_close(E, want[:n])
        _assert_rows_close(kb.coadjoint_move(alg, F, Us[:n]),
                           np.array([m.T @ F for m in want[:n]]).reshape(n, 5))
    # each stacked row is the n = 1 result of the same code
    E = kb.exp_ad(alg, Us).m
    G = kb.coadjoint_move(alg, F, Us)
    for k in range(0, 500, 7):
        _assert_rows_close(E[k:k + 1], kb.exp_ad(alg, Us[k]).m[None])
        _assert_rows_close(G[k:k + 1], kb.coadjoint_move(alg, F, Us[k])[None])


def test_stacked_motion_edges():
    alg = kb.build_algebra("5.3.7", None)
    F = np.array([0.5, -1.25, 0.75, 2.0, -0.5])
    assert kb.exp_ad(alg, np.zeros((0, 5))).m.shape == (0, 5, 5)
    assert kb.coadjoint_move(alg, F, np.zeros((0, 5))).shape == (0, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        zero = kb.exp_ad(alg, np.zeros((3, 5))).m
    assert np.array_equal(zero, np.broadcast_to(np.eye(5), (3, 5, 5)))
    for bad in (np.ones((3, 4)), np.ones((2, 3, 5)), np.ones(4)):
        with pytest.raises(DomainError):
            kb.exp_ad(alg, bad)
        with pytest.raises(DomainError):
            kb.coadjoint_move(alg, F, bad)
    for value in (np.nan, np.inf):
        U = np.ones((4, 5))
        U[2, 3] = value
        with pytest.raises(DomainError):
            kb.ad_matrix(alg, U)
        with pytest.raises(DomainError):
            kb.coadjoint_move(alg, F, U)


def _int_bits(a):
    # IEEE bit patterns: -0.0 differs from 0.0 here
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_one_element_motion_is_bitwise_its_stacked_row(fam, params):
    # one element multiplies with np.dot, a stack with np.matmul; both must
    # give the bits of the @-based per-matrix algorithm, so that a product
    # that rounds differently on either path shows here
    rng = np.random.default_rng(67)
    alg = kb.build_algebra(fam, params)
    radii = np.repeat([1e-3, 0.3, 2.0, 8.0, 40.0], 12)
    Us = rng.uniform(-1.0, 1.0, (60, 5)) * radii[:, None]
    # b = -300 needs more than 8 squarings, so the checked path runs too
    Us = np.vstack([Us, [0.25, -300.0, 0.5, -0.75, 1.0]])
    F = rng.uniform(-2.5, 2.5, 5)
    M = kb.ad_matrix(alg, Us)
    counts = {_count(v) for v in np.linalg.norm(M, np.inf, axis=(1, 2))}
    assert 0 in counts and len(counts) >= 9
    assert max(counts) > exp_action._EXP_SAFE_SQUARINGS
    E = kb.exp_ad(alg, Us).m
    G = kb.coadjoint_move(alg, F, Us)
    for k, U in enumerate(Us):
        want = _expm_per_matrix(M[k])
        one = kb.exp_ad(alg, U).m
        assert np.array_equal(_int_bits(one), _int_bits(want)), (k, U)
        assert np.array_equal(_int_bits(E[k]), _int_bits(want)), (k, U)
        g = kb.coadjoint_move(alg, F, U)
        assert np.array_equal(_int_bits(g), _int_bits(F @ want)), (k, U)
        assert np.array_equal(_int_bits(G[k]), _int_bits(g)), (k, U)


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_stack_split_into_core_chunks_is_bitwise_its_rows(fam, params):
    # a stack longer than _CORE_ROWS runs its Taylor core in chunks; every
    # row, on either side of a chunk boundary, keeps its one-element bits
    rng = np.random.default_rng(73)
    alg = kb.build_algebra(fam, params)
    n = 2 * exp_action._CORE_ROWS + 3
    radii = rng.choice([0.3, 2.0, 8.0], n)
    Us = rng.uniform(-1.0, 1.0, (n, 5)) * radii[:, None]
    E = kb.exp_ad(alg, Us).m
    for k, U in enumerate(Us):
        one = kb.exp_ad(alg, U).m
        assert np.array_equal(_int_bits(E[k]), _int_bits(one)), k


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_row_wise_motion_is_bitwise_its_one_element_rows(fam, params):
    # an (n, 5) covector stack moves row k by U[k]; the draws mix squaring
    # counts, b = -300 included, as in the test above
    rng = np.random.default_rng(71)
    alg = kb.build_algebra(fam, params)
    radii = np.repeat([1e-3, 0.3, 2.0, 8.0, 40.0], 12)
    Us = rng.uniform(-1.0, 1.0, (60, 5)) * radii[:, None]
    Us = np.vstack([Us, [0.25, -300.0, 0.5, -0.75, 1.0]])
    Fs = rng.uniform(-2.5, 2.5, (61, 5))
    G = kb.coadjoint_move(alg, Fs, Us)
    assert G.shape == (61, 5)
    for k in range(61):
        one = kb.coadjoint_move(alg, Fs[k], Us[k])
        assert np.array_equal(_int_bits(G[k]), _int_bits(one)), k
    assert kb.coadjoint_move(alg, np.zeros((0, 5)),
                             np.zeros((0, 5))).shape == (0, 5)
    for F, U in ((Fs, Us[:60]), (Fs[:60], Us), (Fs[:1], Us[0]),
                 (Fs, Us[0]), (Fs[:2], np.ones((2, 1, 5)))):
        with pytest.raises(DomainError):
            kb.coadjoint_move(alg, F, U)


def test_sampling_radius_with_an_overflowing_cube_is_refused():
    # rng.uniform(-r, r) needs the width 2r; past the float range numpy
    # raises OverflowError, so the radius is refused first
    alg = kb.build_algebra("5.3.1", None)
    F = [1.0, 1.0, 1.0, 1.0, 1.0]
    widest = np.finfo(float).max / 2.0
    assert algebra.as_radius(widest) == widest
    assert algebra.as_radius(8e307) == 8e307
    for r in (np.nextafter(widest, math.inf), 1e308, np.finfo(float).max):
        with pytest.raises(DomainError, match="too large"):
            algebra.as_radius(r)
    for call in (
            lambda: kb.sample_orbit(alg, F, 3, seed=1, radius=1e308),
            lambda: kb.md_scan("5.3.1", None, n=8, seed=1, radius=1e308),
            lambda: kb.verify_proposition("5.3.1", None, 8, n=5, seed=1,
                                          radius=1e308),
            lambda: kb.partition_check("5.3.1", None, pairs=3, seed=1,
                                       radius=1e308)):
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == ("sampling radius 1e+308 is too large: the "
                                  "cube width 2*radius exceeds the float "
                                  "range")


def _overflow_line(U, row=None):
    where = "" if row is None else f"row {row}, "
    return f"overflows at {where}U = {list(map(float, U))}"


def test_overflow_is_refused_on_every_motion_route():
    # the same refusal on all five functions, with no numpy warning first
    alg = kb.build_algebra("5.3.1", None)
    F = [1.0, 1.0, 1.0, 1.0, 1.0]
    U = [0.0, 300.0, 0.0, 0.0, 0.0]
    stack = [[0.0, 1.0, 0.0, 0.0, 0.0], U]
    cases = [
        (lambda: kb.exp_ad(alg, U), "exp(ad U) " + _overflow_line(U)),
        (lambda: kb.exp_ad(alg, stack), "exp(ad U) " + _overflow_line(U, 1)),
        (lambda: kb.coadjoint_move(alg, F, U), "exp(ad U) " + _overflow_line(U)),
        (lambda: kb.coadjoint_move(alg, F, stack),
         "exp(ad U) " + _overflow_line(U, 1)),
        (lambda: kb.coadjoint_move(alg, [F, F], stack),
         "exp(ad U) " + _overflow_line(U, 1)),
        (lambda: kb.exp_ad_closed("5.3.1", None, U),
         "exp(ad U) " + _overflow_line(U)),
        (lambda: kb.coadjoint_move_531(None, F, U),
         "the coadjoint image " + _overflow_line(U)),
        (lambda: kb.coadjoint_move_531(None, F, [0.0, 800.0, 0, 0, 0]),
         "the coadjoint image " + _overflow_line([0.0, 800.0, 0, 0, 0])),
        # exp(705) is finite, 705^2/2 * exp(705) is not
        (lambda: kb.exp_ad_closed("5.3.7", None, [0, 705.0, 0, 0, 0]),
         "exp(ad U) " + _overflow_line([0, 705.0, 0, 0, 0])),
        (lambda: kb.exp_ad(kb.build_algebra("5.3.7", None), [0, 705.0, 0, 0, 0]),
         "exp(ad U) " + _overflow_line([0, 705.0, 0, 0, 0])),
        # the rotation pair of 5.3.8 goes through numpy's complex exp
        (lambda: kb.exp_ad_closed("5.3.8", None, [0, 1500.0, 0, 0, 0]),
         "exp(ad U) " + _overflow_line([0, 1500.0, 0, 0, 0])),
        # finite coordinates whose ad matrix already overflows
        (lambda: kb.exp_ad(alg, [1e308, 1.0, 1e308, 1e308, 1e308]),
         "ad U " + _overflow_line([1e308, 1.0, 1e308, 1e308, 1e308])),
        (lambda: kb.exp_ad(alg, [[0.0, 1e308, 0.0, 0.0, 0.0]]),
         "ad U " + _overflow_line([0.0, 1e308, 0.0, 0.0, 0.0], 0)),
        (lambda: kb.exp_ad_closed("5.3.1", None, [1e308, 1.0, 1e308, 1e308, 1e308]),
         "exp(ad U) " + _overflow_line([1e308, 1.0, 1e308, 1e308, 1e308])),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, message in cases:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == message
        with pytest.raises(DomainError, match=r"^exp\(ad U\) overflows at row "):
            kb.sample_orbit(alg, F, 3, seed=1, radius=400.0)
        # the same magnitudes towards zero stay finite and agree
        V = [0.0, -300.0, 0.0, 0.0, 0.0]
        generic = kb.exp_ad(alg, V).m
        assert np.all(np.isfinite(generic))
        assert np.max(np.abs(generic - kb.exp_ad_closed("5.3.1", None, V).m)) < 1e-12
        img = kb.coadjoint_move(alg, F, V)
        assert np.max(np.abs(img - kb.coadjoint_move_531(None, F, V))) < 1e-12
    # a finite exponential whose product with a huge covector is not: the
    # product overflows inside numpy, which warns before the refusal
    for move in (lambda F, U: kb.coadjoint_move(alg, F, U),
                 lambda F, U: kb.coadjoint_move(alg, F, [U])[0],
                 lambda F, U: kb.coadjoint_move(alg, [F], [U])[0],
                 lambda F, U: kb.coadjoint_move_531(None, F, U)):
        with pytest.raises(DomainError, match="^the coadjoint image overflows"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                move([0, 0, 0, 1e300, 1e300], [0, 200.0, 0, 0, 0])


def test_item_motion_edges_and_refusals():
    # _move_items, the sampler behind sample_orbit and both probes
    alg = kb.build_algebra("5.3.1", None)
    F = np.ones((3, 5))
    assert exp_action._move_items(alg, F, np.empty((0, 5)), 0).shape == (0, 5)
    U = exp_action._draws([1, 2, 3], 4, 1.5)
    assert np.array_equal(U, np.concatenate([
        np.random.default_rng(s).uniform(-1.5, 1.5, (4, 5)) for s in (1, 2, 3)]))
    # item 1's second element overflows: the stack's own refusal counts the
    # rows of the stack, where(1)'s the rows of item 1's four elements
    U[5] = [0.0, 300.0, 0.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            exp_action._move_items(alg, F, U, 4)
        assert str(err.value) == "exp(ad U) " + _overflow_line(U[5], 5)
        with pytest.raises(DomainError) as err:
            exp_action._move_items(alg, F, U, 4, lambda k: f"item {k}")
        assert str(err.value) == "item 1: exp(ad U) " + _overflow_line(U[5], 1)
        # without where, one item's refusal is the kernel's own, unprefixed,
        # as sample_orbit raises it
        with pytest.raises(DomainError) as err:
            exp_action._move_items(alg, F[:1], U[4:8], 4)
        with pytest.raises(DomainError) as alone:
            exp_action._move(alg, F[0], U[4:8])
    assert str(err.value) == str(alone.value) == (
        "exp(ad U) " + _overflow_line(U[5], 1))


@pytest.mark.parametrize("bad", [
    ["a", 1, 1, 1, 1],
    [[1, 2], [1, 2, 3, 4, 5]],
    [1j, 1, 1, 1, 1],
    np.ones(5, dtype=complex),
    {"a": 1},
    [np.complex128(1), 1, 1, 1, 1],
    [np.ones(5, dtype=complex)],
], ids=["string", "ragged", "complex-entry", "complex-array", "dict",
        "complex-scalar-in-list", "complex-array-in-list"])
def test_non_numeric_input_is_refused(bad):
    alg = kb.build_algebra("5.3.2", None)
    F = [1.0, 1.0, 1.0, 1.0, 1.0]
    for call in (lambda: kb.exp_ad(alg, bad), lambda: kb.ad_matrix(alg, bad),
                 lambda: kb.coadjoint_move(alg, F, bad),
                 lambda: kb.coadjoint_move(alg, bad, F),
                 lambda: kb.exp_ad_closed("5.3.2", None, bad),
                 lambda: kb.coadjoint_move_531(None, F, bad),
                 lambda: kb.sample_orbit(alg, bad, 3, seed=1),
                 lambda: kb.classify_orbit("5.3.2", None, bad)):
        with pytest.raises(DomainError, match="must hold real numbers"):
            call()


# ---- closed route: the spectral table against the per-family forms ------
# The closed forms that exp_action's spectral table replaced, kept verbatim
# (with their phi helpers) as the bit-for-bit reference for exp_ad_closed.

def _ref_phi1(x):
    if abs(x) < 1e-4:
        return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    if isinstance(x, complex):
        return (np.exp(x) - 1.0) / x
    return np.expm1(x) / x


_REF_PHI2_COEF = [1.0 / math.factorial(k + 2) for k in range(18)]
_REF_PHI3_COEF = [1.0 / math.factorial(k + 3) for k in range(18)]


def _ref_phi2(x):
    if abs(x) < 0.5:
        acc = 0.0
        for c in reversed(_REF_PHI2_COEF):
            acc = acc * x + c
        return acc
    return (np.expm1(x) - x) / (x * x)


def _ref_phi3(x):
    if abs(x) < 0.5:
        acc = 0.0
        for c in reversed(_REF_PHI3_COEF):
            acc = acc * x + c
        return acc
    return (np.expm1(x) - x - 0.5 * x * x) / (x ** 3)


def _ref_phi1p(x):
    return _ref_phi1(x) - _ref_phi2(x)


def _ref_phi1pp(x):
    return _ref_phi1(x) - 2.0 * _ref_phi2(x) + 2.0 * _ref_phi3(x)


def _ref_closed_blocks(family, p, b):
    if family == "5.3.1":
        l1, l2 = p["lambda1"], p["lambda2"]
        E = np.diag([math.exp(b * l1), math.exp(b * l2), math.exp(b)])
        P = np.diag([_ref_phi1(b * l1), _ref_phi1(b * l2), _ref_phi1(b)])
        return E, P
    if family == "5.3.2":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.diag([eb, eb, math.exp(b * lam)])
        P = np.diag([_ref_phi1(b), _ref_phi1(b), _ref_phi1(b * lam)])
        return E, P
    if family == "5.3.3":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.diag([math.exp(b * lam), eb, eb])
        P = np.diag([_ref_phi1(b * lam), _ref_phi1(b), _ref_phi1(b)])
        return E, P
    if family == "5.3.4":
        eb = math.exp(b)
        return eb * np.eye(3), _ref_phi1(b) * np.eye(3)
    if family == "5.3.5":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.array([[math.exp(b * lam), 0.0, 0.0],
                      [0.0, eb, b * eb],
                      [0.0, 0.0, eb]])
        P = np.array([[_ref_phi1(b * lam), 0.0, 0.0],
                      [0.0, _ref_phi1(b), b * _ref_phi1p(b)],
                      [0.0, 0.0, _ref_phi1(b)]])
        return E, P
    if family == "5.3.6":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.array([[eb, b * eb, 0.0],
                      [0.0, eb, 0.0],
                      [0.0, 0.0, math.exp(b * lam)]])
        P = np.array([[_ref_phi1(b), b * _ref_phi1p(b), 0.0],
                      [0.0, _ref_phi1(b), 0.0],
                      [0.0, 0.0, _ref_phi1(b * lam)]])
        return E, P
    if family == "5.3.7":
        eb = math.exp(b)
        E = eb * np.array([[1.0, b, 0.5 * b * b],
                           [0.0, 1.0, b],
                           [0.0, 0.0, 1.0]])
        f0, f1 = _ref_phi1(b), b * _ref_phi1p(b)
        f2 = 0.5 * b * b * _ref_phi1pp(b)
        P = np.array([[f0, f1, f2],
                      [0.0, f0, f1],
                      [0.0, 0.0, f0]])
        return E, P
    # 5.3.8: rotation-scaling block acts as multiplication by e^(i*phi)
    lam, ph = p["lambda"], p["phi"]
    w = complex(b * math.cos(ph), b * math.sin(ph))
    ew = np.exp(w)
    pw = _ref_phi1(w)
    E = np.array([[ew.real, -ew.imag, 0.0],
                  [ew.imag, ew.real, 0.0],
                  [0.0, 0.0, math.exp(b * lam)]])
    P = np.array([[pw.real, -pw.imag, 0.0],
                  [pw.imag, pw.real, 0.0],
                  [0.0, 0.0, _ref_phi1(b * lam)]])
    return E, P


def _ref_exp_ad_closed(family, p, U):
    a, b = U[0], U[1]
    w = U[2:]
    A = kb.ad2_matrix(family, p)
    E3, P3 = _ref_closed_blocks(family, p, float(b))
    V = np.zeros((3, 2))
    V[0, 0] = -b
    V[:, 1] = -A @ w
    V[0, 1] += a
    m = np.eye(5)
    m[2:, :2] = P3 @ V
    m[2:, 2:] = E3
    return m


def _same_bits(got, want):
    # equal as IEEE bit patterns: -0.0 differs from 0.0 here
    return got.shape == want.shape and np.array_equal(
        got.view(np.int64), want.view(np.int64))


def _reference_params(fam):
    sets = [p for f, p in CANONICAL if f == fam]
    sets += [kb.params_from_sequence(fam, v) for v in JACOBI_GRID[fam]]
    if fam == "5.3.8":
        sets.append({"lambda": -2.0, "phi": math.pi / 2})
    return sets


def _switch_bs(p):
    # |b*mu| at each series switch (1e-4 for phi1, 0.5 for phi2 and phi3),
    # just below and just above, for every eigenvalue modulus of ad(X2)
    moduli = {abs(v) for k, v in p.items() if k != "phi"} | {1.0}
    bs = [0.0, 1e-5, -1e-5]
    for mod in moduli:
        for cut in (1e-4, 0.5):
            for side in (1.0 - 1e-6, 1.0 + 1e-6):
                bs += [cut * side / mod, -cut * side / mod]
    return bs


@pytest.mark.parametrize("fam", kb.FAMILY_TAGS)
def test_exp_ad_closed_matches_per_family_reference_bitwise(fam):
    rng = np.random.default_rng(83)
    for p in _reference_params(fam):
        Us = list(rng.uniform(-3.0, 3.0, (40, 5)))
        for b in _switch_bs(p):
            U = rng.uniform(-3.0, 3.0, 5)
            U[1] = b
            Us.append(U)
        for U in Us:
            got = kb.exp_ad_closed(fam, p, U).m
            assert _same_bits(got, _ref_exp_ad_closed(fam, p, U)), (p, U)


@pytest.mark.parametrize("fam", kb.FAMILY_TAGS)
def test_spectral_row_reproduces_ad_x2_bitwise(fam):
    # the closed route's own A equals the algebra's ad_x2 template
    eigenvalues, links = exp_action._SPECTRA[fam]
    for p in _reference_params(fam):
        mus = eigenvalues(p)
        A = exp_action._spectral_blocks(mus, links, 1.0, np.eye(3))[0]
        assert _same_bits(A, kb.ad2_matrix(fam, p)), p


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_one_element_results_are_fresh_arrays(fam, params):
    # the closed route writes exp(b*A) straight into its result: no result
    # may be a module array of exp_action, or be handed out twice
    alg = kb.build_algebra(fam, params)
    U = np.array([0.3, -0.7, 0.2, 0.5, -0.1])
    F = np.array([1.0, -2.0, 0.5, 0.25, 3.0])
    calls = [lambda: kb.exp_ad(alg, U).m,
             lambda: kb.exp_ad_closed(fam, params, U).m,
             lambda: kb.coadjoint_move(alg, F, U)]
    if fam == "5.3.1":
        calls.append(lambda: kb.coadjoint_move_531(params, F, U))
    constants = [v for v in vars(exp_action).values()
                 if isinstance(v, np.ndarray)]
    assert len(constants) >= 2  # _PS_COEFFS and _EYE at least
    for call in calls:
        want, first = call(), call()
        assert not np.shares_memory(first, want)
        assert not any(np.shares_memory(first, c) for c in constants)
        first[...] = np.nan
        assert _same_bits(call(), want)


def test_squaring_counts_follow_the_log2_rule_at_powers_of_two():
    # ceil(log2 v) from numpy's log2 against math.log2, at every power of
    # two in the float range and one ulp either side, where a log2 that
    # rounds the wrong way would give one squaring too few or too many
    powers = [math.ldexp(1.0, k) for k in range(-60, 1024)]
    norms = [0.0] + [v for p in powers
                     for v in (math.nextafter(p, 0.0), p,
                               math.nextafter(p, math.inf))]
    norms.append(np.finfo(float).max)
    got = exp_action._squarings(np.array(norms))
    want = [math.ceil(math.log2(v)) if v > 1.0 else 0 for v in norms]
    assert got.tolist() == want
    assert [exp_action._squarings(v) for v in norms[:400:7]] == want[:400:7]
    bad = exp_action._squarings(np.array([math.inf, math.nan]))
    assert not np.isfinite(bad).any()


@pytest.mark.parametrize("row,col,value", [(0, 2, math.nan), (4, 1, math.nan),
                                           (2, 3, math.inf), (3, 0, -math.inf)])
def test_one_matrix_with_a_non_finite_entry_is_refused(row, col, value):
    # one matrix's norm is a Python float: max() would drop a NaN after the
    # first row sum, and math.ceil would raise on inf, so both must be
    # refused as ad U overflowing, as a stack's row is
    U = [1.0, 2.0, 3.0, 4.0, 5.0]
    M = np.full((5, 5), 0.5)
    M[row, col] = value
    with pytest.raises(DomainError) as err:
        exp_action._expm(M, np.array(U))
    assert str(err.value) == "ad U " + _overflow_line(U)
    with pytest.raises(DomainError) as err:
        exp_action._expm(M[None], np.array([U]))
    assert str(err.value) == "ad U " + _overflow_line(U, 0)


def test_one_matrix_norm_adds_each_row_left_to_right():
    # 4 + 4e-16 rounds back to 4 twice, so the norm is 4 and the count 2
    # on both paths; a compensated sum (math.fsum, or sum() from Python
    # 3.12 on) reads 4.000000000000001 and 3 squarings. No ad_U of these
    # algebras has this row, so _expm is called directly.
    M = np.zeros((5, 5))
    M[2] = [4.0, 4e-16, 4e-16, 0.0, 0.0]
    U = np.zeros(5)
    assert exp_action._inf_norm(M) == 4.0
    assert exp_action._squarings(exp_action._inf_norm(M)) == 2
    assert exp_action._squarings(exp_action._inf_norm(M[None])).tolist() == [2]
    assert _same_bits(exp_action._expm(M, U), exp_action._expm(M[None], U[None])[0])


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_exp_ad_matches_scipy_over_radii(fam, params):
    # an independent exponential (Pade, scipy) over the radii of the
    # stacked tests and b = -300, relative to each matrix's largest entry
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(97)
    alg = kb.build_algebra(fam, params)
    for radius, bound in ((1e-3, 1e-15), (0.3, 1e-15), (2.0, 1e-10),
                          (8.0, 1e-10), (40.0, 1e-10)):
        Us = rng.uniform(-radius, radius, (40, 5))
        if radius == 40.0:
            Us = np.vstack([Us, [0.25, -300.0, 0.5, -0.75, 1.0]])
        E = kb.exp_ad(alg, Us).m
        for U, got, M in zip(Us, E, kb.ad_matrix(alg, Us)):
            want = scipy_linalg.expm(M)
            dev = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert dev <= bound, (radius, U, dev)


@pytest.mark.parametrize("fam", kb.FAMILY_TAGS)
def test_crosscheck_gap_per_family(fam):
    # the generic route against the closed one at criterion 2's draws,
    # family by family; for 5.3.1 also the literal motion
    rng = np.random.default_rng(20240811)
    alg = kb.build_algebra(fam, None)
    Us = rng.uniform(-3.0, 3.0, (1000, 5))
    E = kb.exp_ad(alg, Us).m
    gap = max(float(np.max(np.abs(E[k] - kb.exp_ad_closed(fam, None, U).m)))
              for k, U in enumerate(Us))
    assert gap < 1e-9
    if fam == "5.3.1":
        alg1 = kb.build_algebra(fam, (2.0, 3.0))
        Fs = rng.uniform(-3.0, 3.0, (1000, 5))
        Vs = rng.uniform(-2.0, 2.0, (1000, 5))
        G = kb.coadjoint_move(alg1, Fs, Vs)
        motion = max(float(np.max(np.abs(g - kb.coadjoint_move_531(
            alg1.params, F, V))) / (1.0 + np.max(np.abs(g))))
            for g, F, V in zip(G, Fs, Vs))
        assert motion < 1e-9
