import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbit as kb
from korbit import kirillov
from korbit.errors import DomainError

from conftest import CANONICAL, elimination_rank, stack_with_singular_values
from test_acceptance import JACOBI_GRID

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


def _form_algebras():
    """Every CANONICAL member and every member of the acceptance grid."""
    sets = list(CANONICAL) + [(fam, kb.params_from_sequence(fam, v))
                              for fam, grid in JACOBI_GRID.items()
                              for v in grid]
    return [kb.build_algebra(fam, p) for fam, p in sets]


def test_forms_match_einsum_reference_bitwise():
    # the reference is the contraction over the whole structure tensor;
    # comparing IEEE bit patterns makes signed zeros count too
    rng = np.random.default_rng(17)
    for alg in _form_algebras():
        for n in (0, 1, 20000):
            F = rng.uniform(-1.0, 1.0, (n, 5))
            F *= 10.0 ** rng.uniform(-8.0, 6.0, (n, 5))
            F[rng.random((n, 5)) < 0.2] = 0.0
            F[rng.random((n, 5)) < 0.1] = -0.0
            F[:1] = -0.0
            B = kb.kirillov_forms(alg, F)
            ref = np.einsum("ijk,nk->nij", alg.c, F)
            assert B.shape == ref.shape == (n, 5, 5)
            assert np.array_equal(B.view(np.int64), ref.view(np.int64)), (
                alg.family, alg.params, n)
            assert np.array_equal(B, -B.transpose(0, 2, 1))
            assert np.array_equal(kirillov.skew_ranks(B, 1e-9),
                                  kirillov.skew_ranks(np.ascontiguousarray(B),
                                                      1e-9))


@pytest.mark.parametrize("shape", [(5,), (2, 4), (1, 2, 5)])
def test_kirillov_forms_refuses_non_stack(shape):
    with pytest.raises(DomainError, match=r"\(n, 5\) stack"):
        kb.kirillov_forms(kb.build_algebra("5.3.4", None), np.ones(shape))


@pytest.mark.parametrize("Fs,message", [
    (np.ones((2, 5), dtype=complex), "got a complex array"),
    ([[1, 1, 1, 1, "a"]], "could not convert string to float"),
    ([[np.complex128(1), 1, 1, 1, 1]], "got a complex value"),
    ([np.ones(5, dtype=complex)], "got a complex value"),
], ids=["complex-array", "string-entry", "complex-scalar-in-list",
        "complex-array-in-list"])
def test_kirillov_forms_refuses_non_real_input(Fs, message):
    # not the forms of the real part with a ComplexWarning, and not a bare
    # ValueError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as err:
            kb.kirillov_forms(kb.build_algebra("5.3.4", None), Fs)
    assert str(err.value).startswith("covector stack must hold real numbers")
    assert message in str(err.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_covector_makes_skew_ranks_raise(value):
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for k in range(5):
            F = np.ones((3, 5))
            F[1, k] = value
            with pytest.raises(DomainError, match="finite"):
                kirillov.skew_ranks(kb.kirillov_forms(alg, F), 1e-9)
            # one covector is refused before any form is built
            with pytest.raises(DomainError,
                               match="^covector must have finite coordinates$"):
                kb.kirillov_form(alg, F[1])


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
    r = kb.orbit_dimension(alg, F)
    assert r in (0, 2)


def test_orbit_dimension_matches_elimination_oracle():
    rng = np.random.default_rng(31)
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for _ in range(100):
            F = rng.uniform(-10, 10, 5)
            B = kb.kirillov_form(alg, F).b
            assert kb.orbit_dimension(alg, F) == elimination_rank(B)


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


def test_md_scan_reports_each_rank_outside_zero_and_two(monkeypatch):
    # skew_ranks cannot return 4 on these families, so a stub reads rank 4
    # on row 7, which lies in the unconstrained stratum
    skew_ranks = kirillov.skew_ranks

    def rank4_at_7(B, tol):
        ranks = skew_ranks(B, tol)
        ranks[7] = 4
        return ranks

    monkeypatch.setattr(kirillov, "skew_ranks", rank4_at_7)
    rep = kb.md_scan("5.3.1", None, n=100, seed=5)
    F7 = np.random.default_rng(5).uniform(-10.0, 10.0, (100, 5))[7]
    assert not rep.passed
    assert rep.violations == [{"index": 7, "covector": F7.tolist(), "rank": 4}]
    assert rep.zero_rank_failures == []
    assert rep.histogram == {0: 12, 2: 87, 4: 1}


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


def _even_svd_ranks(B, tol):
    """Oracle: SVD ranks rounded down to even."""
    ranks, _ = kirillov.svd_ranks(B, tol)
    return ranks - ranks % 2


def _skew_stack(rng, w):
    """Exactly skew 5x5 forms with singular values w1, w1, w2, w2, 0 per
    row of w, in random orthonormal coordinates."""
    n = len(w)
    Q, _ = np.linalg.qr(rng.standard_normal((n, 5, 5)))
    D = np.zeros((n, 5, 5))
    D[:, 0, 1], D[:, 2, 3] = w[:, 0], w[:, 1]
    M = Q @ (D - D.transpose(0, 2, 1)) @ Q.transpose(0, 2, 1)
    upper = np.triu(M, 1)
    return upper - upper.transpose(0, 2, 1)


def _assert_matches_oracle(B, tol):
    with np.errstate(all="raise"):  # a zero form must not warn either
        ranks = kirillov.skew_ranks(B, tol)
    assert np.array_equal(ranks, _even_svd_ranks(B, tol))
    return ranks


def test_skew_ranks_match_svd_oracle():
    rng = np.random.default_rng(11)
    n = 4000
    for tol in (1e-9, 1e-6):
        # random forms of rank 0, 2 and 4 with w1 spread over 1e-12..1e6
        for rank in (0, 2, 4):
            w = np.sort(rng.uniform(0.01, 1.0, (n, 2)), axis=1)[:, ::-1]
            w *= 10.0 ** rng.uniform(-12.0, 6.0, (n, 1))
            w[:, rank // 2:] = 0.0
            _assert_matches_oracle(_skew_stack(rng, w), tol)
        # equal pairs w1 = w2, where s - 2p rounds to either side of 0
        w = np.repeat(10.0 ** rng.uniform(-12.0, 6.0, (n, 1)), 2, axis=1)
        _assert_matches_oracle(_skew_stack(rng, w), tol)
        # w2 = tol * w1 * (1 +- 1e-3): every w2 decision sits at the
        # threshold tol * w1 (w1 >= 1), on both sides
        w1 = 10.0 ** rng.uniform(0.0, 6.0, n)
        side = rng.choice([-1.0, 1.0], n)
        w = np.column_stack([w1, tol * w1 * (1.0 + 1e-3 * side)])
        ranks = _assert_matches_oracle(_skew_stack(rng, w), tol)
        assert np.array_equal(ranks, np.where(side > 0, 4, 2))
        # w1 = tol * (1 +- 1e-3) < 1: the w1 decision at the threshold tol
        w = np.column_stack([tol * (1.0 + 1e-3 * side), np.zeros(n)])
        ranks = _assert_matches_oracle(_skew_stack(rng, w), tol)
        assert np.array_equal(ranks, np.where(side > 0, 2, 0))
    # Kirillov forms of every family on all eight zero patterns of
    # (gamma, delta, sigma)
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        for zeros in itertools.product((False, True), repeat=3):
            F = rng.uniform(-10.0, 10.0, (200, 5))
            F[:, 2:][:, list(zeros)] = 0.0
            ranks = _assert_matches_oracle(kb.kirillov_forms(alg, F), 1e-9)
            assert np.all(ranks == (0 if all(zeros) else 2))


@pytest.mark.parametrize("shape", [(5, 5), (2, 4, 4), (2, 5, 4), (1, 1, 5, 5)])
def test_skew_ranks_refuses_non_stack(shape):
    with pytest.raises(DomainError, match=r"\(n, 5, 5\) stack"):
        kirillov.skew_ranks(np.zeros(shape), 1e-9)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, np.nan, 1e200])
def test_skew_ranks_refuses_non_finite_form(value):
    B = np.zeros((2, 5, 5))
    B[1, 0, 1], B[1, 1, 0] = value, -value
    with pytest.raises(DomainError, match="finite"):
        kirillov.skew_ranks(B, 1e-9)


# md_scan's zero-coordinate subsets of (gamma, delta, sigma), written out
# again so the reference below shares no code with the scan
_SCAN_ZEROS = ((), (2,), (3,), (4,), (2, 3), (2, 4), (3, 4), (2, 3, 4))


def _svd_scan_payload(family, params, n, seed, rank_tol, radius=10.0):
    """md_scan's payload with every rank from an even-rounded SVD."""
    alg = kb.build_algebra(family, params)
    Fs = np.random.default_rng(seed).uniform(-radius, radius, (n, 5))
    share = n // 8
    for k, zeros in enumerate(_SCAN_ZEROS[1:]):
        lo = n - 7 * share + k * share
        Fs[lo:lo + share, list(zeros)] = 0.0
    hist, violations, zero_failures = {}, [], []
    for lo in range(0, n, 20000):
        block = Fs[lo:lo + 20000]
        ranks = _even_svd_ranks(kb.kirillov_forms(alg, block), rank_tol)
        for r, count in zip(*np.unique(ranks, return_counts=True)):
            hist[int(r)] = hist.get(int(r), 0) + int(count)

        def row(i):
            return {"index": lo + int(i),
                    "covector": [float(v) for v in block[i]],
                    "rank": int(ranks[i])}

        zero_stratum = np.all(block[:, 2:] == 0.0, axis=1)
        violations += [row(i) for i in np.flatnonzero(~np.isin(ranks, (0, 2)))]
        zero_failures += [row(i) for i in
                          np.flatnonzero((ranks == 0) != zero_stratum)]
    return {"family": alg.family, "params": dict(alg.params), "n": n,
            "seed": seed, "radius": radius, "rank_tol": rank_tol,
            "histogram": {str(k): hist[k] for k in sorted(hist)},
            "violations": violations, "zero_rank_failures": zero_failures,
            "passed": not violations and not zero_failures}


@pytest.mark.parametrize("rank_tol", [1e-9, 1e-3])
@pytest.mark.parametrize("fam,params", CANONICAL)
def test_md_scan_matches_svd_reference(fam, params, rank_tol):
    rep = kb.md_scan(fam, params, n=20000, seed=29, rank_tol=rank_tol)
    assert rep.to_json_dict() == _svd_scan_payload(fam, params, 20000, 29,
                                                   rank_tol)


def test_md_scan_matches_svd_reference_across_blocks():
    # at rank_tol 1 every form reads rank 0, so every row off the zero
    # stratum is a zero-rank failure, and their indices and covectors are
    # compared across each of md_scan's block boundaries
    n = 2 * kirillov._SCAN_ROWS + 3
    rep = kb.md_scan("5.3.4", None, n=n, seed=29, rank_tol=1.0).to_json_dict()
    assert rep == _svd_scan_payload("5.3.4", None, n, 29, 1.0)
    assert rep["histogram"] == {"0": n}
    assert len(rep["zero_rank_failures"]) == n - n // 8


def test_md_scan_report_does_not_depend_on_the_block_size(monkeypatch):
    # a stub reads rank 4 where the form's (1, 2) entry exceeds 9 and rank
    # 0 where it is below -9: chosen by value, so the same covectors fail
    # whichever block holds them, and violations, zero-rank failures and
    # the histogram all cross blocks of 7 rows
    skew_ranks = kirillov.skew_ranks

    def by_value(B, tol):
        ranks = skew_ranks(B, tol)
        ranks[B[:, 1, 2] > 9.0] = 4
        ranks[B[:, 1, 2] < -9.0] = 0
        return ranks

    monkeypatch.setattr(kirillov, "skew_ranks", by_value)
    default = kb.md_scan("5.3.1", None, n=100, seed=5).to_json_dict()
    monkeypatch.setattr(kirillov, "_SCAN_ROWS", 7)
    small = kb.md_scan("5.3.1", None, n=100, seed=5).to_json_dict()
    assert small == default
    for key in ("violations", "zero_rank_failures"):
        assert len({f["index"] // 7 for f in small[key]}) > 1
    assert set(small["histogram"]) == {"0", "2", "4"}


def _certificate_rows(rng, tol, s1, k):
    """A stack at the largest singular value s1, and which rows the
    certificate must leave open (within a factor 2 of the threshold, its
    least margin) or must certify (10 times above it, with
    s2 = s1 / 2)."""
    thr = tol * max(1.0, s1)
    rows, margin, sure = [], [], []

    def add(sv, is_margin=False, is_sure=False):
        rows.append(sv)
        margin.append(is_margin)
        sure.append(is_sure)

    for s2 in (s1, s1 / 2, 30.0 * thr, 1.5 * thr):
        for f in (1.0 - 1e-3, 1.0 + 1e-3, 1.5, 10.0):
            s3 = f * thr
            if s3 <= s2 <= s1:
                add((s1, s2, s3), is_margin=f < 2.0,
                    is_sure=f == 10.0 and s2 == s1 / 2)
    # rank 2 with s2 / s1 from 1e-8 to 1, rank 1 and rank 0
    for s2 in s1 * 10.0 ** np.linspace(-8.0, 0.0, 9):
        add((s1, s2, 0.0))
    add((s1, 0.0, 0.0))
    add((0.0, 0.0, 0.0))
    sv = np.repeat(np.array(rows), 8, axis=0)
    return (stack_with_singular_values(rng, sv, k),
            np.repeat(margin, 8), np.repeat(sure, 8))


@pytest.mark.parametrize("k", [5, 3])
def test_rank3_certificate_never_disagrees_with_svd(k):
    rng = np.random.default_rng(31)
    certified_any = 0
    for tol in (1e-9, 1e-6, 1e-3):
        for s1 in 10.0 ** np.arange(-6.0, 7.0):
            M, margin, sure = _certificate_rows(rng, tol, s1, k)
            with np.errstate(all="raise"):
                ok = kirillov._certified3(M, tol)
            ranks, svd_thr = kirillov.svd_ranks(M, tol)
            assert not np.any(ok & (ranks != 3)), (tol, s1)
            # a row within a factor 2 of the threshold is left to SVD
            assert not np.any(ok & margin), (tol, s1)
            assert np.all(ok[sure]), (tol, s1)
            # the certificate's threshold bound tau = tol * max(1, |M|_F)
            # bounds svd_ranks' threshold up to rounding, which the margin
            # covers
            thr = tol * np.maximum(1.0, np.linalg.norm(M, axis=(1, 2)))
            assert np.all(thr * (1.0 + 1e-12) >= svd_thr[:, 0])
            certified_any += int(np.count_nonzero(ok))
            assert np.array_equal(kirillov.certified_svd_ranks(M, tol), ranks)
    assert certified_any > 0
    # rows with an inf or NaN entry, or beyond the range where minors of
    # the row stay normal floats, are never certified and raise nothing
    M = np.tile(np.eye(3, k), (6, 1, 1))
    for r, v in enumerate((np.inf, -np.inf, np.nan, 1e200, 1e-200)):
        M[r, r % 3, 0] = v
    M[4] *= 1e-200
    with np.errstate(all="raise"):
        ok = kirillov._certified3(M, 1e-9)
    assert ok.tolist() == [False] * 5 + [True]


def _all_minor_charts(J, tol):
    """Per row: svd_ranks reads rank 3, and rank 3 on some 3-column minor
    at the row's threshold."""
    ranks, thr = kirillov.svd_ranks(J, tol)
    charted = np.zeros(len(J), dtype=bool)
    for cols in itertools.combinations(range(J.shape[2]), 3):
        charted |= kirillov.svd_ranks(J[:, :, cols], tol, thr)[0] == 3
    return (ranks == 3) & charted


def _thin(c):
    # rank 3 with sigma3 = c * sqrt(3); every 3-column minor has sigma3 <= c
    m = np.zeros((3, 5))
    m[:2, :2] = np.eye(2)
    m[2, 2:] = c
    return m


def test_chart_certificate_never_disagrees_with_svd(monkeypatch):
    rng = np.random.default_rng(47)
    svd_ranks = kirillov.svd_ranks
    sent = []  # the rows the certificate leaves to the SVD

    def recorded(M, tol, thr=None):
        if thr is None:
            sent.extend(M)
        return svd_ranks(M, tol, thr)

    monkeypatch.setattr(kirillov, "svd_ranks", recorded)
    decided = 0
    for tol in (1e-9, 1e-6, 1e-3):
        for s in (1e-3, 1.0, 1e3):
            thr = tol * max(1.0, s)  # the threshold of a thin row
            rows, margin = list(rng.normal(size=(20, 3, 5))), []
            # charted by the SVD from f = 1.001 on, certifiable from f > 2
            for f in (0.5, 0.999, 1.001, 1.5, 1.999, 2.5, 10.0):
                if f * thr / s * math.sqrt(3.0) < 1.0:
                    rows.append(_thin(f * thr / s))
                    margin.append(f <= 2.0)
            rows.append(np.outer([1.0, 2.0, 0.5], np.eye(5)[0]) + _thin(0.0))
            margin += [False]
            U = np.linalg.qr(rng.normal(size=(len(rows), 3, 3)))[0]
            J = s * (U @ np.array(rows))  # minors keep their singular values
            expect = _all_minor_charts(J, tol)
            sent.clear()
            got = kirillov._charted_rank3(J, tol)
            assert np.array_equal(got, expect), (tol, s)
            reached = np.array([any(np.array_equal(r, m) for m in sent)
                                for r in J])
            assert np.all(reached[20:][np.array(margin)]), (tol, s)
            assert np.all(got[~reached]), (tol, s)
            decided += int(np.count_nonzero(~reached))
    assert decided > 0
    # Minor (0, 1, 2) is diag(1, 10, 0.8): _certified3 proves it against
    # its own threshold 0.01, but the row's threshold is 1.0, against
    # which no minor (sigma3 <= 0.8) has rank 3, while the row (singular
    # values 1000, 10, 0.8 * sqrt(2)) has
    row = np.zeros((1, 3, 5))
    row[0, 0, 0], row[0, 0, 4], row[0, 1, 1] = 1.0, 1000.0, 10.0
    row[0, 2, 2:4] = 0.8
    assert kirillov._certified3(row[:, :, :3], 1e-3).tolist() == [True]
    assert kirillov.svd_ranks(row, 1e-3)[0].tolist() == [3]
    for J in (row, np.concatenate([_thin(1.0)[None], row])):
        assert kirillov._charted_rank3(J, 1e-3).tolist() == [True] * (
            len(J) - 1) + [False]
    # four-row stacks go to the SVD alone
    J = rng.normal(size=(30, 4, 5))
    J[:10, 3] = J[:10, 0] + J[:10, 1]  # rank 3
    J[10:15, 1:] = J[10:15, :1]  # rank 1
    expect = _all_minor_charts(J, 1e-9)
    sent.clear()
    got = kirillov._charted_rank3(J, 1e-9)
    assert len(sent) == 30 and np.array_equal(got, expect)
    assert got[:10].all() and not got[10:15].any()


def test_verify_sends_only_four_row_jacobians_to_the_svd(monkeypatch):
    # at catalog defaults the certificate decides every three-row Jacobian
    # row of verify_proposition; only the sigma = 0 branch of 5.3.8 case 3,
    # whose four constraints have rank 3, reaches svd_ranks
    svd_ranks = kirillov.svd_ranks
    sent = []

    def recorded(M, tol, thr=None):
        sent.append((unit, M.shape))
        return svd_ranks(M, tol, thr)

    monkeypatch.setattr(kirillov, "svd_ranks", recorded)
    for fam in kb.FAMILY_TAGS:
        for case in kb.case_indices(fam):
            unit = (fam, case)
            rep = kb.verify_proposition(fam, None, case, n=100, seed=20240811)
            assert rep.passed, unit
    assert sent
    assert all(u == ("5.3.8", 3) and shape[1:] == (4, 5) for u, shape in sent)


_CASE8_BASE = [1.0, 1.0, 1.0, 1.0, 1.0]
RANK_TOL_ENTRY_POINTS = {
    "skew_ranks": lambda tol: kirillov.skew_ranks(np.zeros((1, 5, 5)), tol),
    # at tolerance 0.0 every row of this stack certifies and svd_ranks
    # never runs, so certified_svd_ranks must refuse the tolerance itself
    "certified_svd_ranks": lambda tol: kirillov.certified_svd_ranks(
        np.tile(np.eye(3, 5), (4, 1, 1)), tol),
    "md_scan": lambda tol: kb.md_scan("5.3.1", None, n=200, seed=1,
                                      rank_tol=tol),
    "verify_proposition": lambda tol: kb.verify_proposition(
        "5.3.2", None, 8, n=5, seed=1, rank_tol=tol),
    "jacobian_rank_check": lambda tol: kb.jacobian_rank_check(
        kb.classify_orbit("5.3.2", None, _CASE8_BASE), _CASE8_BASE, tol),
    "local_triviality_probe": lambda tol: kb.local_triviality_probe(
        "5.3.2", None, 8, n=5, seed=1, rank_tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan, True,
                                 np.True_])
@pytest.mark.parametrize("entry", sorted(RANK_TOL_ENTRY_POINTS))
def test_rank_tolerance_must_be_positive(entry, tol):
    # a bool is no number: True would run as tolerance 1.0
    want = ("a real number" if isinstance(tol, (bool, np.bool_))
            else "finite and positive")
    with pytest.raises(DomainError, match=f"rank tolerance must be {want}"):
        RANK_TOL_ENTRY_POINTS[entry](tol)
