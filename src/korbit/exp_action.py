"""Coadjoint motion: exponentials of adjoint matrices and orbit sampling.

exp(ad_U) is block lower-triangular: an identity 2x2 block, a 3x3 block
exp(b*A) (A = ad_{X2} on the ideal, b = X2-coefficient of U) and a 3x2
coupling block phi1(b*A) @ V, phi1(x) = (e^x - 1)/x. The generic route
(exp_ad, coadjoint_move) takes one element (5,) or an (n, 5) stack, one
element being the n = 1 case; every orbit sample moves by _move_items.

The generic route's exponential, _expm, is family-blind: it reads only
the matrices ad_U, never this module's spectral table or the block
structure above. It scales each matrix by a power of two to infinity norm
at most 1 and evaluates the degree-19 Taylor polynomial by
Paterson-Stockmeyer in seven matrix products, then squares back. One
matrix reads its norm and squaring count in Python floats, a stack in
numpy; both add each row left to right, so the two agree bit for bit.

The closed-form route, exp_ad_closed, takes one element and never reads
the algebra's ad_x2 template: its table _SPECTRA gives per family the
eigenvalues of A on (z, t, s), a complex pair being a rotation-scaling
block, and A's Jordan links. _spectral_blocks walks a row once and
gives A, exp(b*A) and phi1(b*A) together: f(b*mu) on the diagonal,
b*f'(b*mu) on each link, (b^2/2)*f''(b*mu) across a two-link chain.

Every motion function refuses a result past the float range with a
DomainError naming the element, or its row of a stack, and no numpy
warning. The checks run only where overflow is possible (_SAFE_EXPONENT,
_EXP_SAFE_SQUARINGS and, for F @ exp(M), ||F||_1 <= 1e85).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import DomainError

# Below this magnitude phi1 switches to its truncated series for stability.
SERIES_CUTOFF = 1e-4

# Taylor degree 19 = 4*4 + 3, evaluated by Paterson-Stockmeyer: row j of
# _PS_COEFFS holds 1/(4j + i)! for i = 0..3, the block B_j = sum_i
# _PS_COEFFS[j, i] A^i, and T(A) = B0 + A4 (B1 + A4 (B2 + A4 (B3 + A4 B4))).
# The scaling target ||A||inf <= 1 leaves a remainder below
# sum_{k >= 20} 1/k! ~ 4e-19, far under the unit roundoff 2^-53.
_PS_COEFFS = np.array([[1 / math.factorial(4 * j + i) for i in range(4)]
                       for j in range(5)])
_PS_COEFFS.setflags(write=False)
# At most 8 squarings means ||M||inf <= 256, and under this scaling
# ||exp(M)||inf <= e^(2 ||M||inf) <= e^512 ~ 2e222: no overflow is possible.
_EXP_SAFE_SQUARINGS = 8
# |U_i * mu| <= 350 for every coordinate and eigenvalue (one of which has
# modulus 1) keeps each closed-form entry below e^350 * 350^3 ~ 1e160.
_SAFE_EXPONENT = 350.0

_EYE = np.eye(5)
_EYE.setflags(write=False)
# A stack's Taylor core runs on at most this many rows at a time, so that
# each of its buffers stays below 128 KiB, glibc's default mmap and trim
# threshold. A larger buffer is mapped afresh or trimmed off the heap when
# freed, and each call then page-faults it in again: unchunked, one pass
# of the perfbench verify workload took about 40 600 minor faults, chunked
# about 3.
_CORE_ROWS = 128
# Rows per _move_items stack. All of partition_check's probes in one stack
# took about 6 000 minor faults per pass over 8 families, 500 about 50.
_STACK_ROWS = 500


def _phi1(x):
    # phi1(x) = (e^x - 1)/x, phi1(0) = 1; complex arguments allowed
    if abs(x) < SERIES_CUTOFF:
        return 1.0 + x * (0.5 + x * (1.0 / 6.0 + x / 24.0))
    if isinstance(x, complex):
        return (np.exp(x) - 1.0) / x
    return np.expm1(x) / x


# Horner coefficients of phi_k(x) = sum_j x^j / (j + k)!, highest first
_PHI_TAYLOR = {k: [1.0 / math.factorial(j + k) for j in reversed(range(18))]
               for k in (2, 3)}


def _phi(x, k):
    # phi2 = (e^x - 1 - x)/x^2 and phi3 = (e^x - 1 - x - x^2/2)/x^3 (k = 2, 3)
    if abs(x) < 0.5:
        acc = 0.0
        for c in _PHI_TAYLOR[k]:
            acc = acc * x + c
        return acc
    if k == 2:
        return (np.expm1(x) - x) / (x * x)
    return (np.expm1(x) - x - 0.5 * x * x) / (x ** 3)


def phi_series(lam: float, b: float) -> float:
    """(e^(b*lam) - 1)/lam, continued by its limit b at lam = 0.

    Equal to b * phi1(b*lam); the series branch is used when |b*lam| is
    below SERIES_CUTOFF. A value past the float range raises DomainError
    naming both arguments.
    """
    try:
        lam, b = (algebra._as_real("phi_series argument", v) for v in (lam, b))
    except DomainError:  # neither float() nor a bool will do
        shown = ", ".join(map(algebra._shown, (lam, b)))
        raise DomainError(
            f"phi_series arguments must be real numbers, got {shown}") from None
    if not (math.isfinite(lam) and math.isfinite(b)):
        raise DomainError("phi_series arguments must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        value = b * _phi1(b * lam)
    if not math.isfinite(value):
        raise DomainError(f"phi_series overflows at lam = {lam!r}, b = {b!r}")
    return value


def _expm(M: np.ndarray, U, norm=None) -> np.ndarray:
    """Scaling-and-squaring exponential with a degree-19 Taylor core.

    M is one 5x5 matrix or an (n, 5, 5) stack. Each matrix is scaled by
    its own power of two, 2^s with s = ceil(log2 ||M||inf) (0 when the norm
    is at most 1), and squared s times. The degree-19 Taylor polynomial of
    the scaled A is a Paterson-Stockmeyer evaluation (SIAM J. Comput. 2(1),
    1973): A^2, A^3 and A^4, the five blocks of I, A, A^2, A^3 from one
    (5x4)(4x25n) product, then four Horner steps in A^4; seven matrix
    products in all. A stack runs this core _CORE_ROWS rows at a time. The
    squarings all matrices need run on the whole stack, the rest on the
    rows that need them. One matrix multiplies with np.dot, a stack with
    np.matmul: the same BLAS product, np.dot with less per-call cost. One
    matrix reads its norm and squaring count in Python floats, a stack in
    numpy, each row added left to right on both.

    Under this scaling ||exp(M)||inf <= e^(2 ||M||inf), so a matrix with at
    most _EXP_SAFE_SQUARINGS squarings cannot overflow; only when some
    matrix needs more is the result checked, and a row that is not finite
    raises DomainError naming its element, the matching row of U. norm
    is _inf_norm(M), when the caller has it.
    """
    norm = _inf_norm(M) if norm is None else norm
    counts = _squarings(norm)
    if M.ndim == 2:
        mul = np.dot
        if not math.isfinite(counts):  # ad_U itself overflowed
            raise _overflow("ad U", U, norm)
        common = most = counts
        R = _taylor(M, math.ldexp(1.0, -common), mul, None)
    else:
        mul = np.matmul
        most = counts.max(initial=0.0)
        if not math.isfinite(most):
            raise _overflow("ad U", U, norm)
        counts = counts.astype(np.intp)
        common, most = int(counts.min(initial=0)), int(most)
        scale = np.ldexp(1.0, -counts)[:, None, None]
        R = np.empty(M.shape)
        for i in range(0, len(M), _CORE_ROWS):
            rows = slice(i, i + _CORE_ROWS)
            _taylor(M[rows], scale[rows], mul, R[rows])
    if most <= _EXP_SAFE_SQUARINGS:
        return _square(R, counts, common, most, mul)
    with np.errstate(over="ignore", invalid="ignore"):
        R = _square(R, counts, common, most, mul)
    _refuse_non_finite("exp(ad U)", U, R)
    return R


def _inf_norm(M):
    # the largest row sum of |M|, each row summed left to right with +
    # (sum() compensates float sums from Python 3.12 on). One matrix's
    # norm is a float, and its first row sum that is not finite is
    # returned as it is: a comparison, as in max(), passes over a NaN.
    if M.ndim == 2:
        norm = 0.0
        for a, b, c, d, e in M.tolist():
            s = abs(a) + abs(b) + abs(c) + abs(d) + abs(e)
            if not s <= norm:  # a larger or a NaN row sum
                if not math.isfinite(s):
                    return s
                norm = s
        return norm
    a = np.abs(M.T, order="C")  # a[j, i] is |M[i, j]|, of each matrix
    return (a[0] + a[1] + a[2] + a[3] + a[4]).max(axis=0)


def _taylor(M, scale, mul, out):
    # The degree-19 Taylor polynomial of A = scale * M into out (a new
    # array when out is None). P holds I, A, A^2, A^3; once the blocks B
    # are formed from it, A^4 and three Horner steps reuse its memory.
    P = np.empty((4,) + M.shape)
    P[0] = _EYE
    A = np.multiply(M, scale, out=P[1])
    A2 = mul(A, A, out=P[2])
    mul(A2, A, out=P[3])
    B = np.dot(_PS_COEFFS, P.reshape(4, -1)).reshape((5,) + M.shape)
    A4 = mul(A2, A2, out=P[0])
    R = B[4]
    for j, k in ((3, 1), (2, 3), (1, 1)):
        R = mul(A4, R, out=P[k])
        R += B[j]
    R = mul(A4, R, out=out)
    R += B[0]
    return R


def _squarings(norm):
    # s = ceil(log2 ||M||inf), so that ||2^-s M||inf <= 1, and 0 for a norm
    # of at most 1; inf or NaN where the norm is not finite. One matrix's
    # float norm gives an int (math.ceil refuses inf and NaN), a stack's
    # norms an array of floats.
    if isinstance(norm, np.ndarray):
        return np.ceil(np.log2(np.maximum(norm, 1.0)))
    if not math.isfinite(norm):
        return norm
    return math.ceil(math.log2(norm)) if norm > 1.0 else 0


def _square(R, counts, common, most, mul):
    # row k of R squared counts[k] times; common of them on the whole stack
    for _ in range(common):
        R = mul(R, R)
    for j in range(common, most):
        rows = counts > j
        Rj = R[rows]
        R[rows] = Rj @ Rj
    return R


def _overflow(what, U, values) -> DomainError:
    """The refusal of a motion whose values are not finite: it names the
    element U, or for a stack the first row whose values are not."""
    U = np.asarray(U, dtype=float)
    if U.ndim == 1:
        return DomainError(f"{what} overflows at U = {U.tolist()}")
    finite = np.isfinite(values).reshape(len(U), -1).all(axis=1)
    k = int(np.argmin(finite))
    return DomainError(f"{what} overflows at row {k}, U = {U[k].tolist()}")


def _refuse_non_finite(what, U, values):
    if not np.isfinite(values).all():
        raise _overflow(what, U, values)


@dataclass(frozen=True)
class ExpAdMatrix:
    """A 5x5 exponential of an adjoint matrix plus how it was computed."""
    m: np.ndarray
    source: str  # "generic" or "closed_form"


def exp_ad(alg: algebra.LieAlgebra, U) -> ExpAdMatrix:
    """exp(ad_U) by the generic scaling-and-squaring route.

    U is one element (5,) or an (n, 5) stack; m is (5, 5) or (n, 5, 5).
    """
    return ExpAdMatrix(m=_expm(algebra.ad_matrix(alg, U), U), source="generic")


# family: (p -> eigenvalues of A on (z, t, s), i of each link A[i, i+1] = 1)
_SPECTRA = {
    "5.3.1": (lambda p: (p["lambda1"], p["lambda2"], 1.0), ()),
    "5.3.2": (lambda p: (1.0, 1.0, p["lambda"]), ()),
    "5.3.3": (lambda p: (p["lambda"], 1.0, 1.0), ()),
    "5.3.4": (lambda p: (1.0, 1.0, 1.0), ()),
    "5.3.5": (lambda p: (p["lambda"], 1.0, 1.0), (1,)),
    "5.3.6": (lambda p: (1.0, 1.0, p["lambda"]), (0,)),
    "5.3.7": (lambda p: (1.0, 1.0, 1.0), (0, 1)),
    "5.3.8": (lambda p: (cmath.rect(1.0, p["phi"]), cmath.rect(1.0, -p["phi"]),
                         p["lambda"]), ()),
}


def _spectral_blocks(mus, links, b, E):
    """A and phi1(b*A) of a spectral row, with exp(b*A) written into E
    (3x3, zero off its diagonal), in one walk: each complex pair, and each
    real eigenvalue with its Jordan block, is visited once, and phi2 and
    phi3 are evaluated only across a link (Higham, Functions of Matrices,
    SIAM 2008, ch. 10)."""
    A = np.zeros((3, 3))
    P = np.zeros((3, 3))
    for i in links:
        A[i, i + 1] = 1.0
    i = 0
    while i < 3:
        mu = mus[i]
        if isinstance(mu, complex):  # the pair mu, conj(mu) on (i, i+1)
            x = complex(b * mu.real, b * mu.imag)
            for M, f in ((A, mu), (E, np.exp(x)), (P, _phi1(x))):
                M[i, i] = M[i + 1, i + 1] = f.real
                M[i, i + 1] = -f.imag
                M[i + 1, i] = f.imag
            i += 2
            continue
        x = b * mu
        e, f = math.exp(x), _phi1(x)
        if i not in links:
            A[i, i], E[i, i], P[i, i] = mu, e, f
            i += 1
            continue
        # a Jordan block: phi1' = phi1 - phi2, phi1'' = phi1 - 2*phi2 + 2*phi3
        f2 = _phi(x, 2)
        es, fs = [e, b * e], [f, b * (f - f2)]
        if i + 1 in links:
            c = 0.5 * b * b
            es.append(c * e)
            fs.append(c * (f - 2.0 * f2 + 2.0 * _phi(x, 3)))
        end = i + len(es)
        for r in range(i, end):
            A[r, r] = mu
            for j in range(end - r):
                E[r, r + j] = es[j]
                P[r, r + j] = fs[j]
        i = end
    return A, P


def _closed_form(mus, links, U):
    a, b, w = U[0], float(U[1]), U[2:]
    m = _EYE.copy()
    A, P3 = _spectral_blocks(mus, links, b, m[2:, 2:])
    V = np.zeros((3, 2))
    V[0, 0] = -b
    V[:, 1] = -A @ w
    V[0, 1] += a
    m[2:, :2] = P3 @ V
    return m


def exp_ad_closed(family, params, U) -> ExpAdMatrix:
    """exp(ad_U) assembled from the family's spectral row in _SPECTRA.

    A result beyond the float range raises DomainError naming U.
    """
    family = algebra.normalize_family(family)
    p = algebra.validate_params(family, params)
    U = algebra.as_vector5(U, "algebra element")
    eigenvalues, links = _SPECTRA[family]
    mus = eigenvalues(p)
    if max(map(abs, U.tolist())) * max(map(abs, mus)) <= _SAFE_EXPONENT:
        return ExpAdMatrix(m=_closed_form(mus, links, U), source="closed_form")
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            m = _closed_form(mus, links, U)
        except OverflowError:  # math.exp beyond the float range
            m = None
    if m is None or not np.isfinite(m).all():
        raise _overflow("exp(ad U)", U, None)
    return ExpAdMatrix(m=m, source="closed_form")


def coadjoint_move(alg: algebra.LieAlgebra, F, U) -> np.ndarray:
    """Coordinates of the coadjoint image of F under exp(U).

    U is one element (5,) or an (n, 5) stack; the result is (5,) or
    (n, 5), row k the image under exp(U[k]). F is one covector (5,), or
    an (n, 5) stack paired row-wise with an (n, 5) U: row k is then the
    image of F[k] under exp(U[k]). An image beyond the float range raises
    DomainError naming its element, or its row of a stack.
    """
    F = algebra.as_stack5(F, "covector")
    U = algebra.as_stack5(U, "algebra element")
    if F.ndim == 2 and U.shape != F.shape:
        raise DomainError(
            f"a covector stack of shape {F.shape} moves by an element "
            f"stack of the same shape, got {U.shape}")
    return _move(alg, F, U)


def _move(alg: algebra.LieAlgebra, F: np.ndarray, U: np.ndarray) -> np.ndarray:
    """coadjoint_move of a checked float covector or stack F and element
    or stack U."""
    if U.ndim == 1:  # one element, so F is one covector
        M = algebra._ad(alg, U)
        norm = _inf_norm(M)
        E = _expm(M, U, norm)
        a, b, c, d, e = F.tolist()
        # |G_j| <= ||F||_1 ||E||inf <= 1e85 * e^512 ~ 2e307 at norm <= 256
        if norm <= 256.0 and abs(a) + abs(b) + abs(c) + abs(d) + abs(e) <= 1e85:
            return np.dot(F, E)
    else:
        E = _expm(algebra._ad(alg, U), U)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        G = (np.dot(F, E) if E.ndim == 2
             else np.matmul(F[..., None, :], E)[..., 0, :])
    _refuse_non_finite("the coadjoint image", U, G)
    return G


def coadjoint_move_531(params, F, U) -> np.ndarray:
    """Closed-form coadjoint motion for family 5.3.1 (diagonal action).

    With U = (a, b, c, d, f) and F = (alpha, beta, gamma, delta, sigma):

        x = alpha - gamma * phi_series(lambda1, b)
        y = beta + gamma*(a - c*lambda1)*phi1(b*lambda1)
                 - delta*d*lambda2*phi1(b*lambda2) - sigma*f*phi1(b)
        z = gamma * e^(b*lambda1)
        t = delta * e^(b*lambda2)
        s = sigma * e^b

    An image beyond the float range raises DomainError naming U.
    """
    p = algebra.validate_params("5.3.1", params)
    F = algebra.as_vector5(F, "covector")
    U = algebra.as_vector5(U, "algebra element")
    l1, l2 = p["lambda1"], p["lambda2"]
    a, b, c, d, f = U.tolist()
    al, be, ga, de, si = F.tolist()
    try:  # the exponentials first: past e^709.78 they raise, the rest do not
        z = ga * math.exp(b * l1)
        t = de * math.exp(b * l2)
        s = si * math.exp(b)
    except OverflowError:
        raise _overflow("the coadjoint image", U, None) from None
    x = al - ga * (b * _phi1(b * l1))
    y = (be + ga * (a - c * l1) * _phi1(b * l1)
         - de * d * l2 * _phi1(b * l2)
         - si * f * _phi1(b))
    if not all(map(math.isfinite, (x, y, z, t, s))):
        raise _overflow("the coadjoint image", U, None)
    return np.array([x, y, z, t, s])


@dataclass(frozen=True)
class OrbitSample:
    """Seeded sample of orbit points through a base covector."""
    family: str
    params: dict
    base: np.ndarray
    points: np.ndarray  # shape (n, 5)
    seed: int
    radius: float

    @property
    def count(self) -> int:
        return int(self.points.shape[0])

    def to_json_dict(self) -> dict:
        return {"family": self.family, "params": dict(self.params),
                "base": self.base.tolist(), "seed": int(self.seed),
                "radius": float(self.radius), "n": self.count,
                "points": self.points.tolist()}


def sample_orbit(alg: algebra.LieAlgebra, F, n: int, seed: int,
                 radius: float = 2.0) -> OrbitSample:
    """Sample n coadjoint images of F along elements drawn uniformly from
    the coordinate cube [-radius, radius]^5 by a seeded generator.

    Deterministic for a given seed: one (n, 5) draw, moved in one call.
    A draw whose image overflows raises DomainError naming its row.
    """
    F = algebra.as_vector5(F, "covector")
    n = algebra.as_count("sample count", n, 0)
    seed = algebra.as_count("seed", seed, 0)
    radius = algebra.as_radius(radius)
    pts = _move_items(alg, F[None], _draws([seed], n, radius), n)
    return OrbitSample(family=alg.family, params=dict(alg.params),
                       base=F, points=pts, seed=seed, radius=radius)


def _draws(seeds, n, radius) -> np.ndarray:
    """sample_orbit's n draws from [-radius, radius]^5 for each seed."""
    return _joined([np.random.default_rng(s).uniform(-radius, radius, (n, 5))
                    for s in seeds])


def _move_items(alg, F, U, n, where=None) -> np.ndarray:
    """Row k of the (m, 5) stack F moved by rows k*n ... (k+1)*n - 1 of U,
    in stacks of whole items of at most _STACK_ROWS rows (or one item). A
    refused stack raises its own DomainError, or with where given, that of
    its first refused item k moved alone, after where(k)."""
    per_stack = max(1, _STACK_ROWS // max(n, 1))
    blocks = []
    for k in range(0, len(F), per_stack):
        items = range(k, min(k + per_stack, len(F)))
        Fs = F[k] if len(items) == 1 else np.repeat(F[k:items.stop], n, axis=0)
        try:
            blocks.append(_move(alg, Fs, U[k * n:items.stop * n]))
        except DomainError:
            if where is None:
                raise
            for j in items:
                try:
                    _move(alg, F[j], U[j * n:(j + 1) * n])
                except DomainError as exc:
                    raise DomainError(f"{where(j)}: {exc}") from None
            raise
    return _joined(blocks)


def _joined(blocks) -> np.ndarray:
    # the (k, 5) blocks in order; one block as it is, not copied
    return blocks[0] if len(blocks) == 1 else np.concatenate(
        [np.empty((0, 5))] + blocks)
