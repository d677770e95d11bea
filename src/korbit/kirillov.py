"""Kirillov forms, their ranks, the rank-degeneracy scan, and the rank
tests of every other matrix.

For every covector F the form B_F(X, Y) = <F, [X, Y]> is skew; the defining
property of these families is that its rank is 0 or 2 everywhere, with
rank 0 exactly on the gamma = delta = sigma = 0 stratum.

kirillov_forms builds a stack of forms from the nonzero entries of the
structure tensor, with the einsum's arithmetic and exact skewness. It
stores them entry-major, so skew_ranks reads each entry as one contiguous
vector. md_scan is three steps: draw its covectors at once, rank their
forms in blocks of _SCAN_ROWS rows (small enough that the buffers stay
resident between blocks and calls) into one rank vector, and read the
histogram and both failure lists off that vector. A
Kirillov form's rank has one rule: its Pfaffians (skew_ranks,
and orbit_dimension for one covector), so it is even by construction.

Constraint Jacobians are certificate-then-SVD, with one certificate:
_certified3 proves from Cauchy-Binet sums of squared minors that some
column triple of a three-row Jacobian has rank 3 at the row's threshold.
certified_svd_ranks sends the rows it leaves open to svd_ranks, and the
chart rule, _charted_rank3, sends them to svd_ranks and one svd_ranks call
on their ten minors. Both leave four-row stacks to svd_ranks alone, which
decides every other rank too. Every rank tolerance must be finite and
positive (algebra.as_tolerance).
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
    Fs = algebra._as_real_array(Fs, "covector stack")
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
    package is made here, other than a Kirillov form's (skew_ranks) and a
    Jacobian row that _certified3 proves has rank 3.
    """
    tol = algebra.as_tolerance("rank tolerance", tol)
    sv = np.linalg.svd(M, compute_uv=False)
    if thr is None:
        # a slice, not an indexed column, so a matrix without singular
        # values (a zero dimension) has rank 0
        thr = tol * np.maximum(1.0, sv[..., :1])
    return (sv > thr).sum(axis=-1), thr


# _certified3's margins: a certified minor's sigma3 above _KAPPA times the
# threshold bound absorbs the SVD's rounding at the threshold, and a
# determinant above _VOLUME_RTOL * |M|_F^3 keeps the rounding errors of the
# row's minors below 1e-3 of their values. Rows with |M|_F^2 inside
# _E1_RANGE keep every product of six entries, and _VOLUME_RTOL^2 *
# |M|_F^6, normal floats.
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


def _certified3(M, tol) -> np.ndarray:
    """Per row of an (n, 3, k) float stack, k >= 3, at a checked tol: True
    where some 3-column minor provably has rank 3 at the row's svd_ranks
    threshold, so that svd_ranks reads rank 3 on the row and on that minor.

    Why it is sound. A minor m with singular values s1 >= s2 >= s3 has
    det(m)^2 = (s1 s2 s3)^2, and the sum of its squared 2x2 minors is
    s1^2 s2^2 + s1^2 s3^2 + s2^2 s3^2 >= s1^2 s2^2. That sum is part of
    e2, the sum of the row's squared 2x2 minors, so s3^2 >= det(m)^2 / e2;
    one e2 per row bounds every minor's sum at the cost of none. A row is
    certified when some minor has det(m)^2 > (2 tau)^2 e2, with tau = tol
    * max(1, |M|_F) at least the row's threshold tol * max(1, sigma1).
    Then s3 > 2 tau, and by interlacing the row's sigma3 is at least s3,
    so the SVD reads rank 3 on both. Rounding: the terms of det(m) sum in
    absolute value to at most the product of m's row 1-norms, which is at
    most |M|_F^3, and those of a 2x2 minor to at most |M|_F^2, so both
    err by a few ulps of those powers. The certified minor also has
    |det(m)| > 1e-12 |M|_F^3, hence sqrt(e2) >= |det(m)| / |M|_F > 1e-12
    |M|_F^2, and the computed ratio is good to well below the factor 2
    (Higham, Accuracy and Stability of Numerical Algorithms, 2002).
    Rank-deficient, non-finite and near-threshold rows, and rows outside
    _E1_RANGE, are not certified; svd_ranks decides them.
    """
    pairs, triples, cofactors = _cauchy_binet_tables(M.shape[2])
    with np.errstate(all="ignore"):  # overflowed and NaN rows stay open
        # row r of every matrix as one contiguous (k, n) block
        a, b, c = np.ascontiguousarray(M.transpose(1, 2, 0))
        i, j = pairs
        ab = a[i] * b[j] - a[j] * b[i]
        ac = a[i] * c[j] - a[j] * c[i]
        bc = b[i] * c[j] - b[j] * c[i]
        p, q, r = cofactors
        t0, t1, t2 = triples
        det = a[t0] * bc[p] - a[t1] * bc[q] + a[t2] * bc[r]
        e1 = (a * a + b * b + c * c).sum(axis=0)  # |M|_F^2
        e2 = (ab * ab + ac * ac + bc * bc).sum(axis=0)
        tau = tol * np.maximum(1.0, np.sqrt(e1))
        return ((e1 > _E1_RANGE[0]) & (e1 < _E1_RANGE[1])
                & (np.max(det * det, axis=0)
                   > np.maximum((_KAPPA * tau) ** 2 * e2,
                                _VOLUME_RTOL ** 2 * e1 ** 3)))


def certified_svd_ranks(M, tol: float) -> np.ndarray:
    """svd_ranks(M, tol)[0] of an (n, m, k) stack: the rows of a three-row
    stack that _certified3 proves read 3, and only the others go through
    the SVD."""
    tol = algebra.as_tolerance("rank tolerance", tol)
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1] != 3 or M.shape[2] < 3:
        return svd_ranks(M, tol)[0]
    ranks = np.full(len(M), 3)
    open_rows = ~_certified3(M, tol)
    if open_rows.any():
        ranks[open_rows] = svd_ranks(M[open_rows], tol)[0]
    return ranks


def _charted_rank3(J, tol) -> np.ndarray:
    """Per row of an (n, m, k) float stack, k >= 3, at a checked tol: rank
    3 and a 3-column minor of rank 3 at the row's threshold (a chart).

    A three-row stack's rows that _certified3 proves are charted; one
    svd_ranks call on all ten minors decides the rest.
    """
    charted = (_certified3(J, tol) if J.shape[1] == 3
               else np.zeros(len(J), dtype=bool))
    rest = np.flatnonzero(~charted)
    if len(rest):
        ranks, thr = svd_ranks(J[rest], tol)
        # (rows, triples, m, 3): every minor of a row at the row's threshold
        triples = _cauchy_binet_tables(J.shape[2])[1]
        minors = J[rest][:, :, triples.T].transpose(0, 2, 1, 3)
        full = svd_ranks(minors, tol, thr[:, None])[0] == 3
        charted[rest] = (ranks == 3) & full.any(axis=1)
    return charted


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
# stay on the heap from block to block and from call to call, instead of
# being unmapped when freed and page-faulted in again. Each entry vector of
# a block is 64 KiB, below glibc's 128 KiB default mmap threshold, and the
# (5, 5, rows) form buffer, 1.6 MB, below the threshold glibc raises to the
# largest mapping freed so far: the (n, 5) covector draw, 4.0 MB at
# n = 10^5. Another allocator gives the same reports.
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
    exactly where gamma = delta = sigma = 0. Three steps: draw every
    covector at once and force each subset's zeros; rank the forms in
    blocks of _SCAN_ROWS rows into one rank vector; read the histogram and
    both failure lists, in index order, off that vector. The report does
    not depend on the block size.
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
        Fs[lo:lo + share, list(pattern)] = 0.0

    ranks = np.empty(n, dtype=np.int8)  # 0, 2 or 4: ranks of 5x5 skew forms
    for lo in range(0, n, _SCAN_ROWS):
        B = kirillov_forms(alg, Fs[lo:lo + _SCAN_ROWS])
        ranks[lo:lo + _SCAN_ROWS] = skew_ranks(B, rank_tol)

    # three compares, not np.all(Fs[:, 2:] == 0.0, axis=1), which
    # reduces a strided length-3 axis slowly; the same predicate for
    # every float, -0.0 and NaN included
    is_zero_stratum = (Fs[:, 2] == 0.0) & (Fs[:, 3] == 0.0) & (Fs[:, 4] == 0.0)

    def records(rows):
        return [{"index": int(i), "covector": Fs[i].tolist(),
                 "rank": int(ranks[i])} for i in np.flatnonzero(rows)]

    return MdReport(
        family=alg.family, params=dict(alg.params), n=n, seed=seed,
        radius=radius, rank_tol=rank_tol,
        histogram={r: int(c) for r, c in enumerate(np.bincount(ranks)) if c},
        violations=records((ranks != 0) & (ranks != 2)),
        zero_rank_failures=records((ranks == 0) != is_zero_stratum))
