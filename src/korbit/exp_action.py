"""Coadjoint motion: exponentials of adjoint matrices and orbit sampling.

exp(ad_U) is block lower-triangular: an identity 2x2 block, a 3x3 block
exp(b*A) (A = ad_{X2} on the ideal, b = X2-coefficient of U) and a 3x2
coupling block phi1(b*A) @ V, phi1(x) = (e^x - 1)/x. The generic route
(exp_ad, coadjoint_move, sample_orbit) takes one element (5,) or an
(n, 5) stack, one element being the n = 1 case of the same code.

The closed-form route, exp_ad_closed, takes one element and never reads
the algebra's ad_x2 template: its table _SPECTRA gives per family the
eigenvalues of A on (z, t, s), a complex pair being a rotation-scaling
block, and A's Jordan links. _matrix_function turns a row into f(b*A)
for f = exp, phi1 and the identity (A itself): f(b*mu) on the diagonal,
b*f'(b*mu) on each link, (b^2/2)*f''(b*mu) across a two-link chain.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import algebra
from .errors import DomainError

# Below this magnitude phi1 switches to its truncated series for stability.
SERIES_CUTOFF = 1e-4

_EXP_SERIES_ORDER = 13
_EXP_NORM_TARGET = 0.5


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


def _exp_jet(x, order):
    return (np.exp(x) if isinstance(x, complex) else math.exp(x),) * (order + 1)


def _phi1_jet(x, order):
    # phi1' = phi1 - phi2, phi1'' = phi1 - 2*phi2 + 2*phi3
    f = _phi1(x)
    if order == 0:
        return (f,)
    f2 = _phi(x, 2)
    jet = (f, f - f2)
    return jet if order == 1 else jet + (f - 2.0 * f2 + 2.0 * _phi(x, 3),)


def _identity_jet(x, order):
    return (x, 1.0, 0.0)[:order + 1]


def phi_series(lam: float, b: float) -> float:
    """(e^(b*lam) - 1)/lam, continued by its limit b at lam = 0.

    Equal to b * phi1(b*lam); the series branch is used when |b*lam| is
    below SERIES_CUTOFF.
    """
    lam = float(lam)
    b = float(b)
    if not (math.isfinite(lam) and math.isfinite(b)):
        raise DomainError("phi_series arguments must be finite")
    return b * _phi1(b * lam)


def _expm(M: np.ndarray) -> np.ndarray:
    """Scaling-and-squaring exponential with an order-13 series core.

    M is one 5x5 matrix or an (n, 5, 5) stack. Each matrix is scaled by
    its own power of two, 2^s, until its infinity norm is at most 0.5 (the
    order-13 Taylor remainder is then below 1e-15), and squared s times.
    The squarings all matrices need run on the whole stack, the rest on
    the rows that need them.
    """
    norm = np.abs(M).sum(axis=-1).max(axis=-1)
    counts = [math.ceil(math.log2(v / _EXP_NORM_TARGET))
              if v > _EXP_NORM_TARGET else 0 for v in np.ravel(norm).tolist()]
    common, most = min(counts, default=0), max(counts, default=0)
    if most > common:  # a stack whose rows differ in count
        counts = np.array(counts)
        A = np.ldexp(M, -counts[:, None, None])
    else:
        A = M / (2.0 ** common)
    eye = np.eye(5)
    R = eye + A / _EXP_SERIES_ORDER  # A @ I == A
    for k in range(_EXP_SERIES_ORDER - 1, 0, -1):
        R = A @ R
        R /= k
        R += eye
    for _ in range(common):
        R = R @ R
    for j in range(common, most):
        rows = counts > j
        Rj = R[rows]
        R[rows] = Rj @ Rj
    return R


@dataclass(frozen=True)
class ExpAdMatrix:
    """A 5x5 exponential of an adjoint matrix plus how it was computed."""
    m: np.ndarray
    source: str  # "generic" or "closed_form"


def exp_ad(alg: algebra.LieAlgebra, U) -> ExpAdMatrix:
    """exp(ad_U) by the generic scaling-and-squaring route.

    U is one element (5,) or an (n, 5) stack; m is (5, 5) or (n, 5, 5).
    """
    return ExpAdMatrix(m=_expm(algebra.ad_matrix(alg, U)), source="generic")


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


def _matrix_function(jet, mus, links, b):
    """f(b*A) for a spectral row's A; jet(x, k) is f, f', ..., f^(k) at x
    (Higham, Functions of Matrices, SIAM 2008, ch. 10)."""
    M = np.zeros((3, 3))
    taylor = (1.0, b, 0.5 * b * b)  # b^j / j!
    i = 0
    while i < 3:
        if isinstance(mus[i], complex):  # the pair mu, conj(mu) on (i, i+1)
            f = jet(complex(b * mus[i].real, b * mus[i].imag), 0)[0]
            M[i:i + 2, i:i + 2] = ((f.real, -f.imag), (f.imag, f.real))
            i += 2
            continue
        k = 0  # links from i to the end of its Jordan block
        while i + k in links:
            k += 1
        d = jet(b * mus[i], k)
        for j in range(k + 1):
            M[i, i + j] = taylor[j] * d[j]
        i += 1
    return M


def exp_ad_closed(family, params, U) -> ExpAdMatrix:
    """exp(ad_U) assembled from the family's spectral row in _SPECTRA."""
    family = algebra.normalize_family(family)
    p = algebra.validate_params(family, params)
    U = algebra.as_vector5(U, "algebra element")
    a, b, w = U[0], U[1], U[2:]
    eigenvalues, links = _SPECTRA[family]
    mus = eigenvalues(p)
    A = _matrix_function(_identity_jet, mus, links, 1.0)
    E3 = _matrix_function(_exp_jet, mus, links, float(b))
    P3 = _matrix_function(_phi1_jet, mus, links, float(b))
    V = np.zeros((3, 2))
    V[0, 0] = -b
    V[:, 1] = -A @ w
    V[0, 1] += a
    m = np.eye(5)
    m[2:, :2] = P3 @ V
    m[2:, 2:] = E3
    return ExpAdMatrix(m=m, source="closed_form")


def coadjoint_move(alg: algebra.LieAlgebra, F, U) -> np.ndarray:
    """Coordinates of the coadjoint image of F under exp(U).

    U is one element (5,) or an (n, 5) stack; the result is (5,) or
    (n, 5), row k the image under exp(U[k]).
    """
    F = algebra.as_vector5(F, "covector")
    return F @ exp_ad(alg, U).m


def coadjoint_move_531(params, F, U) -> np.ndarray:
    """Closed-form coadjoint motion for family 5.3.1 (diagonal action).

    With U = (a, b, c, d, f) and F = (alpha, beta, gamma, delta, sigma):

        x = alpha - gamma * phi_series(lambda1, b)
        y = beta + gamma*(a - c*lambda1)*phi1(b*lambda1)
                 - delta*d*lambda2*phi1(b*lambda2) - sigma*f*phi1(b)
        z = gamma * e^(b*lambda1)
        t = delta * e^(b*lambda2)
        s = sigma * e^b
    """
    p = algebra.validate_params("5.3.1", params)
    F = algebra.as_vector5(F, "covector")
    U = algebra.as_vector5(U, "algebra element")
    l1, l2 = p["lambda1"], p["lambda2"]
    a, b, c, d, f = (float(v) for v in U)
    al, be, ga, de, si = (float(v) for v in F)
    x = al - ga * phi_series(l1, b)
    y = (be + ga * (a - c * l1) * _phi1(b * l1)
         - de * d * l2 * _phi1(b * l2)
         - si * f * _phi1(b))
    z = ga * math.exp(b * l1)
    t = de * math.exp(b * l2)
    s = si * math.exp(b)
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


def as_radius(radius) -> float:
    """A sampling radius, which must be finite and positive."""
    r = float(radius)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"sampling radius must be finite and positive, got {r!r}")
    return r


def sample_orbit(alg: algebra.LieAlgebra, F, n: int, seed: int,
                 radius: float = 2.0) -> OrbitSample:
    """Sample n coadjoint images of F along elements drawn uniformly from
    the coordinate cube [-radius, radius]^5 by a seeded generator.

    Deterministic for a given seed: one (n, 5) draw, moved in one call.
    """
    F = algebra.as_vector5(F, "covector")
    n = int(n)
    if n < 0:
        raise DomainError("sample count must be nonnegative")
    radius = as_radius(radius)
    rng = np.random.default_rng(int(seed))
    Us = rng.uniform(-radius, radius, size=(n, 5))
    pts = coadjoint_move(alg, F, Us)
    return OrbitSample(family=alg.family, params=dict(alg.params),
                       base=F, points=pts, seed=int(seed), radius=radius)
