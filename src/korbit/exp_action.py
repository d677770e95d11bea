"""Coadjoint motion: exponentials of adjoint matrices and orbit sampling.

The adjoint matrix of any element has zero first and second rows, so its
exponential is block lower-triangular with an identity 2x2 block, a 3x3
block exp(b*A) (A = ad_{X2} on the ideal, b = X2-coefficient), and a 3x2
coupling block phi1(b*A) @ V. Closed forms per family reduce to the scalar
functions phi1(x) = (e^x - 1)/x and its derivatives.
"""

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


_PHI2_COEF = [1.0 / math.factorial(k + 2) for k in range(18)]
_PHI3_COEF = [1.0 / math.factorial(k + 3) for k in range(18)]


def _phi2(x):
    # (e^x - 1 - x)/x^2, phi2(0) = 1/2
    if abs(x) < 0.5:
        acc = 0.0
        for c in reversed(_PHI2_COEF):
            acc = acc * x + c
        return acc
    return (np.expm1(x) - x) / (x * x)


def _phi3(x):
    # (e^x - 1 - x - x^2/2)/x^3, phi3(0) = 1/6
    if abs(x) < 0.5:
        acc = 0.0
        for c in reversed(_PHI3_COEF):
            acc = acc * x + c
        return acc
    return (np.expm1(x) - x - 0.5 * x * x) / (x ** 3)


def _phi1p(x):
    # d/dx phi1 = phi1 - phi2
    return _phi1(x) - _phi2(x)


def _phi1pp(x):
    # d^2/dx^2 phi1 = phi1 - 2*phi2 + 2*phi3
    return _phi1(x) - 2.0 * _phi2(x) + 2.0 * _phi3(x)


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

    Scales by powers of two until the infinity norm is at most 0.5; the
    order-13 Taylor remainder is then below 1e-15.
    """
    norm = float(np.linalg.norm(M, np.inf))
    s = 0
    if norm > _EXP_NORM_TARGET:
        s = int(math.ceil(math.log2(norm / _EXP_NORM_TARGET)))
    A = M / (2.0 ** s)
    eye = np.eye(M.shape[0])
    R = np.eye(M.shape[0])
    for k in range(_EXP_SERIES_ORDER, 0, -1):
        R = eye + (A @ R) / k
    for _ in range(s):
        R = R @ R
    return R


@dataclass(frozen=True)
class ExpAdMatrix:
    """A 5x5 exponential of an adjoint matrix plus how it was computed."""
    m: np.ndarray
    source: str  # "generic" or "closed_form"


def exp_ad(alg: algebra.LieAlgebra, U) -> ExpAdMatrix:
    """exp(ad_U) by the generic scaling-and-squaring route."""
    return ExpAdMatrix(m=_expm(algebra.ad_matrix(alg, U)), source="generic")


def _closed_blocks(family, p, b):
    """(E3, Phi3) = (exp(b*A), phi1(b*A)) in closed form per family."""
    if family == "5.3.1":
        l1, l2 = p["lambda1"], p["lambda2"]
        E = np.diag([math.exp(b * l1), math.exp(b * l2), math.exp(b)])
        P = np.diag([_phi1(b * l1), _phi1(b * l2), _phi1(b)])
        return E, P
    if family == "5.3.2":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.diag([eb, eb, math.exp(b * lam)])
        P = np.diag([_phi1(b), _phi1(b), _phi1(b * lam)])
        return E, P
    if family == "5.3.3":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.diag([math.exp(b * lam), eb, eb])
        P = np.diag([_phi1(b * lam), _phi1(b), _phi1(b)])
        return E, P
    if family == "5.3.4":
        eb = math.exp(b)
        return eb * np.eye(3), _phi1(b) * np.eye(3)
    if family == "5.3.5":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.array([[math.exp(b * lam), 0.0, 0.0],
                      [0.0, eb, b * eb],
                      [0.0, 0.0, eb]])
        P = np.array([[_phi1(b * lam), 0.0, 0.0],
                      [0.0, _phi1(b), b * _phi1p(b)],
                      [0.0, 0.0, _phi1(b)]])
        return E, P
    if family == "5.3.6":
        lam = p["lambda"]
        eb = math.exp(b)
        E = np.array([[eb, b * eb, 0.0],
                      [0.0, eb, 0.0],
                      [0.0, 0.0, math.exp(b * lam)]])
        P = np.array([[_phi1(b), b * _phi1p(b), 0.0],
                      [0.0, _phi1(b), 0.0],
                      [0.0, 0.0, _phi1(b * lam)]])
        return E, P
    if family == "5.3.7":
        eb = math.exp(b)
        E = eb * np.array([[1.0, b, 0.5 * b * b],
                           [0.0, 1.0, b],
                           [0.0, 0.0, 1.0]])
        f0, f1, f2 = _phi1(b), b * _phi1p(b), 0.5 * b * b * _phi1pp(b)
        P = np.array([[f0, f1, f2],
                      [0.0, f0, f1],
                      [0.0, 0.0, f0]])
        return E, P
    # 5.3.8: rotation-scaling block acts as multiplication by e^(i*phi)
    lam, ph = p["lambda"], p["phi"]
    w = complex(b * math.cos(ph), b * math.sin(ph))
    ew = np.exp(w)
    pw = _phi1(w)
    E = np.array([[ew.real, -ew.imag, 0.0],
                  [ew.imag, ew.real, 0.0],
                  [0.0, 0.0, math.exp(b * lam)]])
    P = np.array([[pw.real, -pw.imag, 0.0],
                  [pw.imag, pw.real, 0.0],
                  [0.0, 0.0, _phi1(b * lam)]])
    return E, P


def exp_ad_closed(family, params, U) -> ExpAdMatrix:
    """exp(ad_U) assembled from the per-family closed-form blocks."""
    family = algebra.normalize_family(family)
    p = algebra.validate_params(family, params)
    U = algebra.as_vector5(U, "algebra element")
    a, b = U[0], U[1]
    w = U[2:]
    A = algebra.render_ad2(family, p)
    E3, P3 = _closed_blocks(family, p, float(b))
    V = np.zeros((3, 2))
    V[0, 0] = -b
    V[:, 1] = -A @ w
    V[0, 1] += a
    m = np.eye(5)
    m[2:, :2] = P3 @ V
    m[2:, 2:] = E3
    return ExpAdMatrix(m=m, source="closed_form")


def coadjoint_move(alg: algebra.LieAlgebra, F, U) -> np.ndarray:
    """Coordinates of the coadjoint image of F under exp(U)."""
    F = algebra.as_vector5(F, "covector")
    return exp_ad(alg, U).m.T @ F


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
        return {
            "family": self.family,
            "params": dict(self.params),
            "base": [float(v) for v in self.base],
            "seed": int(self.seed),
            "radius": float(self.radius),
            "n": self.count,
            "points": [[float(v) for v in row] for row in self.points],
        }


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

    Deterministic for a given seed (single draw pass, sequential moves).
    """
    F = algebra.as_vector5(F, "covector")
    n = int(n)
    if n < 0:
        raise DomainError("sample count must be nonnegative")
    radius = as_radius(radius)
    rng = np.random.default_rng(int(seed))
    Us = rng.uniform(-radius, radius, size=(n, 5))
    pts = np.empty((n, 5))
    for k in range(n):
        pts[k] = coadjoint_move(alg, F, Us[k])
    return OrbitSample(family=alg.family, params=dict(alg.params),
                       base=F, points=pts, seed=int(seed), radius=radius)
