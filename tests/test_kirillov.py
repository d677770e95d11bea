import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbit as kb
from korbit.errors import DomainError

from conftest import CANONICAL, elimination_rank

coord = st.floats(min_value=-50.0, max_value=50.0,
                  allow_nan=False, allow_infinity=False)
vec5 = st.lists(coord, min_size=5, max_size=5).map(lambda v: np.array(v))


def test_form_entries_531():
    alg = kb.build_algebra("5.3.1", (2.0, 3.0))
    F = np.array([5.0, -7.0, 1.5, -2.0, 4.0])
    B = kb.kirillov_form(alg, F).b
    ga, de, si = 1.5, -2.0, 4.0
    # row 1: pairing of [X1, .] with F touches only X2 (through X3)
    assert B[0, 1] == ga
    assert np.array_equal(B[0], [0.0, ga, 0.0, 0.0, 0.0])
    # row 2: [X2, X_j] brings in the ideal action
    assert B[1, 0] == -ga
    assert B[1, 2] == 2.0 * ga
    assert B[1, 3] == 3.0 * de
    assert B[1, 4] == si
    # ideal is abelian
    assert np.array_equal(B[2:, 2:], np.zeros((3, 3)))


def test_form_entries_538():
    ph = math.pi / 3
    alg = kb.build_algebra("5.3.8", {"lambda": 2.0, "phi": ph})
    F = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    B = kb.kirillov_form(alg, F).b
    assert B[1, 4] == 2.0
    assert B[1, 2] == 0.0 and B[1, 3] == 0.0
    assert B[0, 1] == 0.0


def test_form_rows_match_transposed_ad_bitwise():
    rng = np.random.default_rng(8)
    e = np.eye(5)
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for _ in range(20):
            F = rng.uniform(-5, 5, 5)
            B = kb.kirillov_form(alg, F).b
            for i in range(5):
                assert np.array_equal(B[i], kb.ad_matrix(alg, e[i]).T @ F)


@given(F=vec5)
@settings(max_examples=80, deadline=None)
def test_form_skewness_is_exact(F):
    alg = kb.build_algebra("5.3.5", (2.0,))
    B = kb.kirillov_form(alg, F).b
    assert np.array_equal(B, -B.T)


@given(F=vec5)
@settings(max_examples=80, deadline=None)
def test_rank_is_zero_or_two(F):
    alg = kb.build_algebra("5.3.8", None)
    r = kb.numeric_rank(kb.kirillov_form(alg, F).b)
    assert r in (0, 2)


def test_numeric_rank_matches_elimination_oracle():
    rng = np.random.default_rng(31)
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for _ in range(100):
            F = rng.uniform(-10, 10, 5)
            B = kb.kirillov_form(alg, F).b
            assert kb.numeric_rank(B) == elimination_rank(B)


def test_numeric_rank_info_reports_adjustment():
    # a nearly-skew perturbation must not be even-forced
    M = np.zeros((5, 5))
    M[0, 1], M[1, 0] = 1.0, -1.0
    r, adjusted = kb.numeric_rank_info(M)
    assert (r, adjusted) == (2, False)
    M[0, 2] = 1e-30  # breaks exact skewness, so no forcing applies
    r, adjusted = kb.numeric_rank_info(M)
    assert r == 2 and adjusted is False


def test_orbit_dimension_cases():
    alg = kb.build_algebra("5.3.4", None)
    assert kb.orbit_dimension(alg, [3.0, -2.0, 0.0, 0.0, 0.0]) == 0
    assert kb.orbit_dimension(alg, [3.0, -2.0, 1.0, 0.0, 0.0]) == 2
    assert kb.orbit_dimension(alg, [0.0, 0.0, 0.0, 1e-3, 0.0]) == 2


def test_rank_invariant_along_orbit():
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        F = np.array([0.5, -1.0, 0.8, -0.6, 0.9])
        d0 = kb.orbit_dimension(alg, F)
        for q in kb.sample_orbit(alg, F, 25, seed=13).points:
            assert kb.orbit_dimension(alg, q) == d0


def test_md_scan_small():
    rep = kb.md_scan("5.3.3", None, n=4000, seed=21)
    assert rep.passed
    assert set(rep.histogram) <= {0, 2}
    assert sum(rep.histogram.values()) == 4000
    assert rep.histogram[0] == 500  # exactly the forced all-zero stratum
    assert rep.violations == []
    assert rep.zero_rank_failures == []


def test_md_scan_deterministic():
    a = kb.md_scan("5.3.8", None, n=2000, seed=77).to_json_dict()
    b = kb.md_scan("5.3.8", None, n=2000, seed=77).to_json_dict()
    assert a == b


def test_md_scan_json_schema():
    rep = kb.md_scan("5.3.1", None, n=800, seed=5).to_json_dict()
    for key in ("family", "params", "n", "seed", "histogram",
                "violations", "zero_rank_failures"):
        assert key in rep
    assert all(isinstance(k, str) for k in rep["histogram"])


_CASE8_BASE = [1.0, 1.0, 1.0, 1.0, 1.0]
RANK_TOL_ENTRY_POINTS = {
    "numeric_rank_info": lambda tol: kb.numeric_rank_info(np.eye(3), tol),
    "md_scan": lambda tol: kb.md_scan("5.3.1", None, n=200, seed=1,
                                      rank_tol=tol),
    "verify_proposition": lambda tol: kb.verify_proposition(
        "5.3.2", None, 8, n=5, seed=1, rank_tol=tol),
    "jacobian_rank_check": lambda tol: kb.jacobian_rank_check(
        kb.classify_orbit("5.3.2", None, _CASE8_BASE), _CASE8_BASE, tol),
    "local_triviality_probe": lambda tol: kb.local_triviality_probe(
        "5.3.2", None, 8, n=5, seed=1, rank_tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0])
@pytest.mark.parametrize("entry", sorted(RANK_TOL_ENTRY_POINTS))
def test_rank_tolerance_must_be_positive(entry, tol):
    with pytest.raises(DomainError, match="rank tolerance"):
        RANK_TOL_ENTRY_POINTS[entry](tol)
