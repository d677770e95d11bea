"""Kirillov forms, their ranks, the rank-degeneracy scan, and the rank
tests of every other matrix.

For every covector F the form B_F(X, Y) = <F, [X, Y]> is skew; the defining
property of these families is that its rank is 0 or 2 everywhere, with
rank 0 exactly on the gamma = delta = sigma = 0 stratum.

kirillov_forms builds a stack of forms from the nonzero entries of the
structure tensor, with the einsum's arithmetic and exact skewness. It
stores them entry-major, so skew_ranks reads each entry as one contiguous
vector. md_scan builds and ranks its forms in blocks of _SCAN_ROWS rows,
small enough that its buffers stay resident between blocks and calls. A
Kirillov form's rank has one rule: its Pfaffians (skew_ranks,
and orbit_dimension for one covector), so it is even by construction.

The ranks of 3-row matrices (constraint Jacobians and their 3x3 chart
minors) are certificate-then-SVD: certify_rank3 proves rank 3 from the
Cauchy-Binet sums of squared minors where the bound has room, and
svd_ranks decides every row it leaves open, so each decision is the
SVD's. svd_ranks decides the ranks of every other matrix. Every rank
tolerance must be finite and positive (algebra.as_tolerance).
"""

import dataclasses
import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import algebra
from .errors import DomainError


@dataclass(frozen=True)
class KirillovForm:
    """Skew matrix b[i, j] = <F, [X_{i+1}, X_{j+1}]> at the base covector."""
    b: np.ndarray
    base: np.ndarray


def kirillov_form(alg: algebra.LieAlgebra, F) -> KirillovForm:
    """The form at one covector: the n = 1 case of kirillov_forms."""
    F = algebra.as_vector5(F, "covector")
    return KirillovForm(b=kirillov_forms(alg, F[None])[0], base=F)


def kirillov_forms(alg: algebra.LieAlgebra, Fs: np.ndarray) -> np.ndarray:
    """Batched forms for an (n, 5) stack of covectors: an (n, 5, 5) view.

    The view is entry-major, so entry (i, j) of every form is one
    contiguous (n,) vector. Each upper entry adds the nonzero products
    c[i, j, k] * F_k in k order to +0.0: the arithmetic of
    einsum("ijk,nk->nij") without its zero terms (tests pin the two bit
    for bit). Each lower entry is 0.0 minus its upper one, so skewness is
    exact. A covector with a non-finite coordinate gets an all-NaN form,
    which skew_ranks refuses whichever coordinate it is.
    """
    Fs = np.asarray(Fs, dtype=float)
    if Fs.ndim != 2 or Fs.shape[1] != 5:
        raise DomainError(
            f"kirillov_forms expects an (n, 5) stack, got shape {Fs.shape}")
    F = Fs.T
    E = np.zeros((5, 5, len(Fs)))
    for i, j in itertools.combinations(range(5), 2):
        ks = np.flatnonzero(alg.c[i, j])
        if len(ks):
            for k in ks:
                E[i, j] += alg.c[i, j, k] * F[k]
            np.subtract(0.0, E[i, j], out=E[j, i])
    if not np.isfinite(Fs).all():
        E[:, :, ~np.isfinite(Fs).all(axis=1)] = np.nan
    return E.transpose(2, 0, 1)


def svd_ranks(M, tol: float, thr=None):
    """(ranks, thresholds) of a matrix or an (..., m, k) stack of them.

    A rank counts the singular values exceeding the matrix's threshold,
    tol * max(1, largest singular value) unless thresholds are given (a
    submatrix tested against the threshold of its parent). Thresholds keep
    a trailing axis of length 1. Every numeric rank decision of the
    package other than a Kirillov form's (skew_ranks) and a row that
    certify_rank3 proves has rank 3 is made here.
    """
    tol = algebra.as_tolerance("rank tolerance", tol)
    sv = np.linalg.svd(M, compute_uv=False)
    if thr is None:
        # a slice, not an indexed column, so a matrix without singular
        # values (a zero dimension) has rank 0
        thr = tol * np.maximum(1.0, sv[..., :1])
    return (sv > thr).sum(axis=-1), thr


# certify_rank3's margins: sigma3 above _KAPPA times the threshold bound
# absorbs the SVD's rounding at the threshold, and a volume above
# _VOLUME_RTOL times its rounding bound keeps the minors' own rounding
# errors negligible. Rows with |M|_F^2 inside _E1_RANGE keep every product
# of six entries, and _VOLUME_RTOL^2 * |M|_F^6, normal floats.
_KAPPA = 2.0
_VOLUME_RTOL = 1e-12
_E1_RANGE = (1e-90, 1e90)


@functools.lru_cache(maxsize=None)
def _cauchy_binet_tables(k):
    """Index tables of a 3 x k matrix's minors: the column pairs (i, j),
    the column triples (i, j, l), and for each triple the positions of the
    column pairs (j, l), (i, l), (i, j) of its row-0 cofactor expansion."""
    pairs = list(itertools.combinations(range(k), 2))
    pos = {p: q for q, p in enumerate(pairs)}
    triples = list(itertools.combinations(range(k), 3))
    cofactors = [(pos[j, l], pos[i, l], pos[i, j]) for i, j, l in triples]
    return (np.array(pairs).T, np.array(triples).T, np.array(cofactors).T)


def certify_rank3(M, tol: float, thr=None):
    """(certified, thresholds) of an (n, 3, k) stack, k >= 3.

    A row is certified only where the Cauchy-Binet identities prove that
    svd_ranks(M, tol) reads rank 3 on it. With singular values s1 >= s2 >=
    s3 of the row, e1 = |M|_F^2 = s1^2 + s2^2 + s3^2, e2 = the sum of the
    squared 2x2 minors = s1^2 s2^2 + s1^2 s3^2 + s2^2 s3^2, and e3 = the
    sum of the squared 3x3 minors = (s1 s2 s3)^2, so s3^2 >= e3 / e2 and
    s1 <= sqrt(e1). The threshold bound tau = tol * max(1, sqrt(e1)) is at
    least svd_ranks' threshold, unless thr gives the bounds (a submatrix
    tested against the tau of its parent). A row is certified when
    e3 / e2 > (2 tau)^2, and sqrt(e3) > 1e-12 e1^(3/2) keeps its minors far
    above their rounding errors (Higham, Accuracy and Stability of
    Numerical Algorithms, 2002). Rank-deficient, non-finite and
    near-threshold rows are not certified; svd_ranks decides them.
    Thresholds are returned as an (n,) vector.
    """
    tol = algebra.as_tolerance("rank tolerance", tol)
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != 3 or M.shape[2] < 3:
        raise DomainError(
            f"certify_rank3 expects an (n, 3, k) stack with k >= 3, got "
            f"shape {M.shape}")
    pairs, triples, cofactors = _cauchy_binet_tables(M.shape[2])
    # row r of every matrix as one contiguous (k, n) block
    a, b, c = np.ascontiguousarray(M.transpose(1, 2, 0))
    i, j = pairs
    # a row out of range or not finite overflows or turns NaN here; the
    # range test below leaves it to svd_ranks
    with np.errstate(all="ignore"):
        e1 = (a * a + b * b + c * c).sum(axis=0)
        ab = a[i] * b[j] - a[j] * b[i]
        ac = a[i] * c[j] - a[j] * c[i]
        bc = b[i] * c[j] - b[j] * c[i]
        e2 = (ab * ab + ac * ac + bc * bc).sum(axis=0)
        p, q, r = cofactors
        t0, t1, t2 = triples
        det = a[t0] * bc[p] - a[t1] * bc[q] + a[t2] * bc[r]
        e3 = (det * det).sum(axis=0)
        if thr is None:
            thr = tol * np.maximum(1.0, np.sqrt(e1))
        certified = ((e1 > _E1_RANGE[0]) & (e1 < _E1_RANGE[1])
                     & (e3 / e2 > (_KAPPA * thr) ** 2)
                     & (np.sqrt(e3) > _VOLUME_RTOL * e1 * np.sqrt(e1)))
    return certified, thr


def certified_svd_ranks(M, tol: float) -> np.ndarray:
    """svd_ranks(M, tol)[0] of an (n, m, k) stack: rows that certify_rank3
    proves read 3, and only the others go through the SVD."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != 3 or M.shape[2] < 3:
        return svd_ranks(M, tol)[0]
    open_rows = ~certify_rank3(M, tol)[0]
    ranks = np.full(len(M), 3)
    if open_rows.any():
        ranks[open_rows] = svd_ranks(M[open_rows], tol)[0]
    return ranks


def skew_ranks(B, tol: float) -> np.ndarray:
    """Even ranks (0, 2 or 4) of an (n, 5, 5) stack of exactly skew forms.

    A 5x5 skew form has singular values w1, w1, w2, w2, 0 with
    w1^2 + w2^2 = |B|_F^2 / 2 and w1 * w2 = |pf|, where pf holds its five
    4x4 principal Pfaffians (Wimmer, ACM TOMS 38(4), 2012). Each pair
    counts against svd_ranks' threshold tol * max(1, w1). Only the strict
    upper triangle is read, so skewness is the caller's guarantee.
    """
    tol = algebra.as_tolerance("rank tolerance", tol)
    B = np.asarray(B, dtype=float)
    if B.ndim != 3 or B.shape[1:] != (5, 5):
        raise DomainError(
            f"skew_ranks expects an (n, 5, 5) stack, got shape {B.shape}")
    # one (n,) vector per entry keeps every temporary at n floats; the
    # vectors are contiguous when B comes from kirillov_forms
    E = B.transpose(1, 2, 0)
    s = sum(E[i, j] * E[i, j]
            for i, j in itertools.combinations(range(5), 2))  # w1^2 + w2^2
    p2 = 0.0
    for a, b, c, d in itertools.combinations(range(5), 4):
        # the 4x4 principal Pfaffian on rows and columns a < b < c < d
        pf = E[a, b] * E[c, d] - E[a, c] * E[b, d] + E[a, d] * E[b, c]
        p2 = p2 + pf * pf
    p = np.sqrt(p2)  # w1 * w2
    # w1 +- w2 = sqrt(s +- 2p); rounding can leave s - 2p just below 0
    w1 = 0.5 * (np.sqrt(s + 2.0 * p) + np.sqrt(np.maximum(s - 2.0 * p, 0.0)))
    if not np.all(np.isfinite(w1)):
        raise DomainError("skew_ranks needs finite forms with finite "
                          "squared Pfaffians")
    thr = tol * np.maximum(1.0, w1)
    # w2 > thr, written without dividing by w1, which is 0 on a zero form
    return 2 * (w1 > thr) + 2 * (p > thr * w1)


def orbit_dimension(alg: algebra.LieAlgebra, F, tol: float = 1e-9) -> int:
    """Dimension of the coadjoint orbit through F = rank of B_F."""
    return int(skew_ranks(kirillov_form(alg, F).b[None], tol)[0])


# md_scan ranks its covectors this many rows at a time, so that its buffers
# stay resident from block to block and from call to call. Each entry
# vector of a block is then 64 KiB, below glibc's 128 KiB default mmap
# threshold, and the block's (5, 5, rows) form buffer, 1.6 MB, stays on the
# heap too: glibc raises its mmap threshold to the largest mapping freed so
# far, here the (n, 5) covector draw (4.0 MB at n = 10^5), which the form
# buffer of a 20 000-row block just reached. A mapped buffer is unmapped
# when freed and page-faulted in again on its next use: one warm pass of
# the perfbench scan workload took 38 760 minor faults at 20 000 rows and
# 33 460 at 16 384, and takes 0 at 8192 and 4096. Drawing the covectors
# block by block gives the same covectors but leaves the threshold at its
# default, and took 11 340 faults a pass. The mechanism is glibc's: another
# allocator gives the same reports, perhaps not the same fault counts.
_SCAN_ROWS = 8192

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

    @property
    def passed(self) -> bool:
        return not self.violations and not self.zero_rank_failures

    def to_json_dict(self) -> dict:
        # keys in field order, then the verdict; JSON keys are strings
        doc = dict(dataclasses.asdict(self), passed=self.passed)
        doc["histogram"] = {str(k): v for k, v in self.histogram.items()}
        return doc


def md_scan(family, params, n: int, seed: int, rank_tol: float = 1e-9,
            radius: float = 10.0) -> MdReport:
    """Sample covectors and check that every Kirillov rank is 0 or 2.

    The n draws are split evenly over the eight zero-subsets of
    (gamma, delta, sigma); the unconstrained subset takes the remainder.
    A violation is any rank outside {0, 2}; separately, rank 0 must occur
    exactly where gamma = delta = sigma = 0. The covectors are drawn at
    once and ranked in blocks of _SCAN_ROWS rows; the report does not
    depend on the block size.
    """
    alg = algebra.build_algebra(family, params)
    n = algebra.as_count("sample count", n, 1)
    seed = algebra.as_count("seed", seed, 0)
    radius = algebra.as_radius(radius)
    rank_tol = algebra.as_tolerance("rank tolerance", rank_tol)
    rng = np.random.default_rng(seed)
    Fs = rng.uniform(-radius, radius, size=(n, 5))
    share = n // len(_SCAN_PATTERNS)
    start = n - share * (len(_SCAN_PATTERNS) - 1)  # unconstrained stratum
    for k, pattern in enumerate(_SCAN_PATTERNS[1:]):
        lo = start + k * share
        for idx in pattern:
            Fs[lo:lo + share, idx] = 0.0

    violations = []
    zero_failures = []
    hist = np.zeros(5, dtype=np.int64)  # ranks of 5x5 skew forms
    for lo in range(0, n, _SCAN_ROWS):
        block = Fs[lo:lo + _SCAN_ROWS]
        B = kirillov_forms(alg, block)
        ranks = skew_ranks(B, rank_tol)
        hist += np.bincount(ranks, minlength=5)
        bad = np.nonzero((ranks != 0) & (ranks != 2))[0]
        for i in bad:
            violations.append({"index": int(lo + i),
                               "covector": [float(v) for v in block[i]],
                               "rank": int(ranks[i])})
        is_zero_rank = ranks == 0
        # three compares, not np.all(block[:, 2:] == 0.0, axis=1), which
        # reduces a strided length-3 axis slowly; the same predicate for
        # every float, -0.0 and NaN included
        is_zero_stratum = ((block[:, 2] == 0.0) & (block[:, 3] == 0.0)
                           & (block[:, 4] == 0.0))
        mism = np.nonzero(is_zero_rank != is_zero_stratum)[0]
        for i in mism:
            zero_failures.append({"index": int(lo + i),
                                  "covector": [float(v) for v in block[i]],
                                  "rank": int(ranks[i])})
    return MdReport(family=alg.family, params=dict(alg.params), n=n,
                    seed=seed, radius=radius,
                    rank_tol=rank_tol,
                    histogram={r: int(c) for r, c in enumerate(hist) if c},
                    violations=violations, zero_rank_failures=zero_failures)
