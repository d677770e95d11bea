"""Shared numeric oracles for the test suite.

These are deliberately naive reimplementations (plain Taylor sums, row
reduction) kept independent of the package internals so they can arbitrate
its results.
"""

import math

import numpy as np

CANONICAL = [
    ("5.3.1", {"lambda1": 2.0, "lambda2": 3.0}),
    ("5.3.2", {"lambda": 2.0}),
    ("5.3.3", {"lambda": 2.0}),
    ("5.3.4", {}),
    ("5.3.5", {"lambda": 2.0}),
    ("5.3.6", {"lambda": 2.0}),
    ("5.3.7", {}),
    ("5.3.8", {"lambda": 1.0, "phi": math.pi / 3}),
    ("5.3.8", {"lambda": 1.0, "phi": math.pi / 2}),
]


def taylor_expm(M, terms: int = 60) -> np.ndarray:
    """Matrix exponential by a scaled plain Taylor sum; oracle use only."""
    M = np.asarray(M, dtype=float)
    s = 0
    nrm = float(np.abs(M).sum())
    while nrm > 0.25:
        nrm /= 2.0
        s += 1
    A = M / (2.0 ** s)
    out = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, terms + 1):
        term = term @ A / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def phi1_sum(x: float, terms: int = 40) -> float:
    """sum_k x^k/(k+1)! evaluated term by term; oracle for (e^x - 1)/x."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term = term * x / (k + 2)
    return total


def elimination_rank(M, tol: float = 1e-9) -> int:
    """Gauss-Jordan rank with partial pivoting and a scaled threshold."""
    A = np.array(M, dtype=float)
    n, m = A.shape
    scale = max(1.0, float(np.max(np.abs(A))) if A.size else 1.0)
    rank = 0
    row = 0
    for col in range(m):
        if row >= n:
            break
        piv = row + int(np.argmax(np.abs(A[row:, col])))
        if abs(A[piv, col]) <= tol * scale:
            continue
        A[[row, piv]] = A[[piv, row]]
        A[row] = A[row] / A[row, col]
        for r in range(n):
            if r != row:
                A[r] = A[r] - A[r, col] * A[row]
        row += 1
        rank += 1
    return rank


def stack_with_singular_values(rng, sv, k: int) -> np.ndarray:
    """An (n, 3, k) stack, row r = U diag(sv[r]) V^T with random U (3x3)
    and V (k x 3) of orthonormal columns."""
    sv = np.asarray(sv, dtype=float)
    U = np.linalg.qr(rng.normal(size=(len(sv), 3, 3)))[0]
    V = np.linalg.qr(rng.normal(size=(len(sv), k, 3)))[0]
    return (U * sv[:, None, :]) @ V.transpose(0, 2, 1)
