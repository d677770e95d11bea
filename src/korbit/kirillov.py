"""Kirillov form, numeric rank, and the rank-degeneracy scan.

For every covector F the form B_F(X, Y) = <F, [X, Y]> is skew; the defining
property of these families is that its rank is 0 or 2 everywhere, with
rank 0 exactly on the gamma = delta = sigma = 0 stratum.
"""

from dataclasses import dataclass, field

import numpy as np

from . import algebra, exp_action
from .errors import DomainError


@dataclass(frozen=True)
class KirillovForm:
    """Skew matrix b[i, j] = <F, [X_{i+1}, X_{j+1}]> at the base covector."""
    b: np.ndarray
    base: np.ndarray


def kirillov_form(alg: algebra.LieAlgebra, F) -> KirillovForm:
    F = algebra.as_vector5(F, "covector")
    # c @ F contracts the last tensor axis; row i is then exactly the
    # coordinate tuple of transpose(ad_matrix(X_{i+1})) @ F.
    b = alg.c @ F
    return KirillovForm(b=b, base=F)


def kirillov_forms(alg: algebra.LieAlgebra, Fs: np.ndarray) -> np.ndarray:
    """Batched forms for an (n, 5) stack of covectors; returns (n, 5, 5)."""
    Fs = np.asarray(Fs, dtype=float)
    return np.einsum("ijk,nk->nij", alg.c, Fs)


def svd_ranks(M, tol: float, thr=None):
    """(ranks, thresholds) of a matrix or an (..., m, k) stack of them.

    A rank counts the singular values exceeding the matrix's threshold,
    tol * max(1, largest singular value) unless thresholds are given (a
    submatrix tested against the threshold of its parent). Thresholds keep
    a trailing axis of length 1. Every numeric rank decision of the
    package is made here.
    """
    if not tol > 0:
        raise DomainError("rank tolerance must be positive")
    sv = np.linalg.svd(M, compute_uv=False)
    if thr is None:
        # a slice, not an indexed column, so a matrix without singular
        # values (a zero dimension) has rank 0
        thr = tol * np.maximum(1.0, sv[..., :1])
    return (sv > thr).sum(axis=-1), thr


def numeric_rank_info(m, tol: float = 1e-9):
    """(rank, adjusted): SVD rank with evenness forced for skew inputs.

    Rank counts singular values exceeding tol * max(1, largest singular
    value). Exactly skew square inputs get an odd count rounded down to
    even; adjusted reports whether that rounding moved the value.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise DomainError("numeric_rank expects a matrix")
    rank = int(svd_ranks(m, tol)[0])
    if m.shape[0] == m.shape[1] and rank % 2 == 1 and np.array_equal(m, -m.T):
        return rank - 1, True
    return rank, False


def numeric_rank(m, tol: float = 1e-9) -> int:
    return numeric_rank_info(m, tol)[0]


def orbit_dimension(alg: algebra.LieAlgebra, F, tol: float = 1e-9) -> int:
    """Dimension of the coadjoint orbit through F = rank of B_F."""
    return numeric_rank(kirillov_form(alg, F).b, tol)


def _batch_skew_ranks(B: np.ndarray, tol: float):
    """Even-forced ranks for an (n, 5, 5) stack of exactly skew matrices."""
    ranks, _ = svd_ranks(B, tol)
    odd = ranks % 2 == 1
    ranks = ranks - odd
    return ranks.astype(int), int(odd.sum())


# Zero-coordinate index subsets of (gamma, delta, sigma) forced in the scan,
# in emission order; the empty subset is the plain uniform stratum.
_SCAN_PATTERNS = ((), (2,), (3,), (4,), (2, 3), (2, 4), (3, 4), (2, 3, 4))


@dataclass
class MdReport:
    """Result of a rank-degeneracy scan over sampled covectors."""
    family: str
    params: dict
    n: int
    seed: int
    radius: float
    rank_tol: float
    histogram: dict
    violations: list = field(default_factory=list)
    zero_rank_failures: list = field(default_factory=list)
    rank_rounding_adjustments: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations and not self.zero_rank_failures

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "n": self.n,
            "seed": self.seed,
            "radius": self.radius,
            "rank_tol": self.rank_tol,
            "histogram": {str(k): int(v) for k, v in sorted(self.histogram.items())},
            "violations": self.violations,
            "zero_rank_failures": self.zero_rank_failures,
            "rank_rounding_adjustments": self.rank_rounding_adjustments,
            "passed": self.passed,
        }


def md_scan(family, params, n: int, seed: int, rank_tol: float = 1e-9,
            radius: float = 10.0) -> MdReport:
    """Sample covectors and check that every Kirillov rank is 0 or 2.

    The n draws are split evenly over the eight zero-subsets of
    (gamma, delta, sigma); the unconstrained subset takes the remainder.
    A violation is any rank outside {0, 2}; separately, rank 0 must occur
    exactly where gamma = delta = sigma = 0.
    """
    alg = algebra.build_algebra(family, params)
    n = int(n)
    if n < 1:
        raise DomainError(f"sample count must be at least 1, got {n}")
    radius = exp_action.as_radius(radius)
    rng = np.random.default_rng(int(seed))
    Fs = rng.uniform(-radius, radius, size=(n, 5))
    share = n // len(_SCAN_PATTERNS)
    start = n - share * (len(_SCAN_PATTERNS) - 1)  # unconstrained stratum
    for k, pattern in enumerate(_SCAN_PATTERNS[1:]):
        lo = start + k * share
        for idx in pattern:
            Fs[lo:lo + share, idx] = 0.0

    violations = []
    zero_failures = []
    hist = {}
    adjustments = 0
    chunk = 20000
    for lo in range(0, n, chunk):
        block = Fs[lo:lo + chunk]
        B = kirillov_forms(alg, block)
        ranks, adj = _batch_skew_ranks(B, rank_tol)
        adjustments += adj
        vals, counts = np.unique(ranks, return_counts=True)
        for v, cnt in zip(vals, counts):
            hist[int(v)] = hist.get(int(v), 0) + int(cnt)
        bad = np.nonzero((ranks != 0) & (ranks != 2))[0]
        for i in bad:
            violations.append({"index": int(lo + i),
                               "covector": [float(v) for v in block[i]],
                               "rank": int(ranks[i])})
        is_zero_rank = ranks == 0
        is_zero_stratum = np.all(block[:, 2:] == 0.0, axis=1)
        mism = np.nonzero(is_zero_rank != is_zero_stratum)[0]
        for i in mism:
            zero_failures.append({"index": int(lo + i),
                                  "covector": [float(v) for v in block[i]],
                                  "rank": int(ranks[i])})
    return MdReport(family=alg.family, params=dict(alg.params), n=n,
                    seed=int(seed), radius=radius,
                    rank_tol=float(rank_tol), histogram=hist,
                    violations=violations, zero_rank_failures=zero_failures,
                    rank_rounding_adjustments=adjustments)
