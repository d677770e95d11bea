"""Structure constants and adjoint operators for the eight families.

All eight algebras share the basis (X1, ..., X5) with derived ideal
span(X3, X4, X5) abelian, [X1, X2] = X3, ad_{X1} vanishing on the ideal,
and ad_{X2} acting on the ideal by a family-specific 3x3 matrix. Dual
coordinates are written (alpha, beta, gamma, delta, sigma) for a base
covector and (x, y, z, t, s) for a running point of its orbit.

Each family is one row of the table _FAMILIES: its tag, its parameter
names with their defaults, its domain entries (display strings such as
"lambda1 != lambda2" or "phi in (0, pi)"), the parameter whose zero is
accepted with a ParameterWarning, and the ad_{X2} template as the catalog
prints it. Parameter validation, ad2_matrix, the catalog and the public
FAMILY_TAGS, PARAM_NAMES and DEFAULT_PARAMS are all derived from the row.
"""

import math
import warnings
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import DomainError, ParameterWarning


@dataclass(frozen=True)
class Family:
    """One catalog row; see the module docstring."""
    tag: str
    defaults: dict      # parameter name -> default, in --params order
    domain: tuple       # "p != v" or "p in (lo, hi)", checked in order
    zero_warning: str | None  # parameter whose zero degenerates the cases
    ad_x2: tuple        # 3x3 template: numbers, parameters, [-]cos/sin(phi)


_FAMILIES = {row.tag: row for row in (
    Family("5.3.1", {"lambda1": 2.0, "lambda2": 3.0},
           ("lambda1 != 1", "lambda2 != 0", "lambda2 != 1",
            "lambda1 != lambda2"),
           "lambda1", (("lambda1", 0, 0), (0, "lambda2", 0), (0, 0, 1))),
    Family("5.3.2", {"lambda": 2.0}, ("lambda != 0", "lambda != 1"),
           None, ((1, 0, 0), (0, 1, 0), (0, 0, "lambda"))),
    Family("5.3.3", {"lambda": 2.0}, ("lambda != 1",),
           "lambda", (("lambda", 0, 0), (0, 1, 0), (0, 0, 1))),
    Family("5.3.4", {}, (), None, ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
    Family("5.3.5", {"lambda": 2.0}, ("lambda != 1",),
           "lambda", (("lambda", 0, 0), (0, 1, 1), (0, 0, 1))),
    Family("5.3.6", {"lambda": 2.0}, ("lambda != 0", "lambda != 1"),
           None, ((1, 1, 0), (0, 1, 0), (0, 0, "lambda"))),
    Family("5.3.7", {}, (), None, ((1, 1, 0), (0, 1, 1), (0, 0, 1))),
    Family("5.3.8", {"lambda": 1.0, "phi": math.pi / 3.0},
           ("lambda != 0", "phi in (0, pi)"),
           None, (("cos(phi)", "-sin(phi)", 0), ("sin(phi)", "cos(phi)", 0),
                  (0, 0, "lambda"))),
)}


def _compile(term):
    """p -> value of a catalog term: a number, pi, a parameter, or
    [-]f(parameter) for a function f of the math module."""
    if not isinstance(term, str) or term[0].isdigit() or term == "pi":
        value = math.pi if term == "pi" else float(term)
        return lambda p: value
    if term[0] == "-":
        positive = _compile(term[1:])
        return lambda p: -positive(p)
    if term[-1] == ")":
        fn, arg = term[:-1].split("(")
        f = getattr(math, fn)
        return lambda p: f(p[arg])
    return lambda p: p[term]


def _domain_test(entry):
    """p -> whether p satisfies 'name != v' or 'name in (lo, hi)' (open)."""
    name, op, rhs = entry.split(" ", 2)
    if op == "!=":
        other = _compile(rhs)
        return lambda p: p[name] != other(p)
    lo, hi = (_compile(v) for v in rhs.strip("()").split(", "))
    return lambda p: lo(p) < p[name] < hi(p)


# The row strings compiled once; validate_params and render_ad2 run these.
_DOMAIN_TESTS = {tag: [(e, _domain_test(e)) for e in row.domain]
                 for tag, row in _FAMILIES.items()}
_AD2_TERMS = {tag: [[_compile(v) for v in r] for r in row.ad_x2]
              for tag, row in _FAMILIES.items()}

FAMILY_TAGS = tuple(_FAMILIES)
PARAM_NAMES = {tag: tuple(row.defaults) for tag, row in _FAMILIES.items()}
# Used by the CLI when --params is omitted; the library API always takes
# explicit parameters for parameterized families.
DEFAULT_PARAMS = {tag: dict(row.defaults) for tag, row in _FAMILIES.items()}


def normalize_family(tag) -> str:
    """Canonicalize a family tag; accepts '5.3.k' or 'G5.3.k'."""
    if not isinstance(tag, str):
        raise DomainError(f"family tag must be a string, got {type(tag).__name__}")
    t = tag.strip()
    if t[:1] in ("G", "g"):
        t = t[1:]
    if t not in FAMILY_TAGS:
        raise DomainError(f"unknown family tag {tag!r}; expected one of "
                          + ", ".join(FAMILY_TAGS))
    return t


def family_row(family) -> Family:
    """The table row of a family tag ('5.3.k' or 'G5.3.k')."""
    return _FAMILIES[normalize_family(family)]


def _as_float(name, value):
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise DomainError(f"parameter {name} must be a real number, got {value!r}") from None
    if not math.isfinite(v):
        raise DomainError(f"parameter {name} must be finite, got {v!r}")
    return v


def params_from_sequence(family, values) -> dict:
    """Build a parameter dict from an ordered value list (CLI --params order)."""
    family = normalize_family(family)
    names = PARAM_NAMES[family]
    values = list(values)
    if len(values) != len(names):
        raise DomainError(
            f"family {family} takes {len(names)} parameter(s) "
            f"({', '.join(names) or 'none'}), got {len(values)}")
    return {n: _as_float(n, v) for n, v in zip(names, values)}


def validate_params(family, params=None) -> dict:
    """Check family parameters against their domain; return a canonical dict.

    Raises DomainError naming the first violated domain entry of the
    family's row. params=None selects the catalog defaults. A zero value
    of the row's warning parameter (a first ideal eigenvalue) is accepted
    with a ParameterWarning because the generic orbit case equations lose
    a relation there; see classify_orbit.
    """
    row = family_row(family)
    family = row.tag
    names = PARAM_NAMES[family]
    if params is None:
        params = dict(row.defaults)
    if not isinstance(params, dict):
        params = params_from_sequence(family, params)
    missing = [n for n in names if n not in params]
    if missing:
        raise DomainError(f"family {family} requires parameter(s) {', '.join(missing)}")
    extra = [k for k in params if k not in names]
    if extra:
        raise DomainError(f"family {family} does not take parameter(s) {', '.join(extra)}")
    p = {n: _as_float(n, params[n]) for n in names}

    for entry, holds in _DOMAIN_TESTS[family]:
        if not holds(p):
            raise DomainError(f"family {family} requires {entry}")
    if row.zero_warning is not None and p[row.zero_warning] == 0.0:
        warnings.warn(
            f"family {family} with {row.zero_warning} = 0 is accepted, but "
            "the generic orbit case equations degenerate; classify_orbit "
            "refuses cases with gamma != 0 for these parameters",
            ParameterWarning, stacklevel=2)
    return p


def render_ad2(family, p) -> np.ndarray:
    """ad_{X2} on the ideal from the row's template; p must be a
    validate_params result (no checks are repeated here)."""
    return np.array([[term(p) for term in r] for r in _AD2_TERMS[family]])


def ad2_matrix(family, params) -> np.ndarray:
    """The 3x3 matrix of ad_{X2} on the derived ideal, columns = images of X3..X5."""
    family = normalize_family(family)
    return render_ad2(family, validate_params(family, params))


@dataclass(frozen=True)
class LieAlgebra:
    """A validated family member: tag, parameters, structure tensor.

    c[i, j, k] is the X_{k+1} coefficient of [X_{i+1}, X_{j+1}] (0-based
    storage, 1-based basis labels). The tensor is exactly antisymmetric in
    (i, j) by construction and read-only.
    """
    family: str
    params: dict
    c: np.ndarray

    @property
    def dim(self) -> int:
        return 5


def build_algebra(family, params=None) -> LieAlgebra:
    """Construct the structure tensor for a family member."""
    family = normalize_family(family)
    p = validate_params(family, params)
    c = np.zeros((5, 5, 5))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = -1.0
    A = render_ad2(family, p)
    for j in range(3):
        for i in range(3):
            if A[i, j] != 0.0:
                c[1, 2 + j, 2 + i] = A[i, j]
                c[2 + j, 1, 2 + i] = -A[i, j]
    c.setflags(write=False)
    return LieAlgebra(family=family, params=p, c=c)


def as_vector5(v, what="vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.shape != (5,):
        raise DomainError(f"{what} must have 5 coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must have finite coordinates")
    return arr


def bracket(alg: LieAlgebra, U, V) -> np.ndarray:
    """Lie bracket [U, V] in basis coordinates.

    Computed from the antisymmetrized outer product so that
    bracket(U, V) == -bracket(V, U) holds to exact floating-point equality.
    """
    U = as_vector5(U)
    V = as_vector5(V)
    W = np.outer(U, V)
    W = W - W.T
    return 0.5 * np.einsum("ij,ijk->k", W, alg.c)


def ad_matrix(alg: LieAlgebra, U) -> np.ndarray:
    """Matrix of ad_U = [U, .] acting on coordinate columns."""
    U = as_vector5(U, "algebra element")
    return np.einsum("i,ijk->kj", U, alg.c)


def jacobi_residual(alg: LieAlgebra) -> float:
    """Max over basis triples of the sup-norm of the Jacobi cyclic sum."""
    E = np.eye(5)
    worst = 0.0
    for i, j, k in combinations(range(5), 3):
        v = (bracket(alg, E[i], bracket(alg, E[j], E[k]))
             + bracket(alg, E[j], bracket(alg, E[k], E[i]))
             + bracket(alg, E[k], bracket(alg, E[i], E[j])))
        worst = max(worst, float(np.max(np.abs(v))))
    return worst


def family_catalog() -> dict:
    """Machine-readable catalog: tags, parameter names, domain constraints,
    and the ad_{X2} matrix template for each family."""
    entries = []
    for row in _FAMILIES.values():
        constraints = list(row.domain)
        if row.zero_warning is not None:
            constraints.append(f"{row.zero_warning} = 0 accepted with a warning "
                               "(orbit case equations degenerate)")
        entries.append({"tag": row.tag, "name": "G" + row.tag,
                        "parameters": list(row.defaults),
                        "constraints": constraints,
                        "ad_x2": [list(r) for r in row.ad_x2],
                        "defaults": dict(row.defaults)})
    return {"basis": "X1..X5, derived ideal = span(X3, X4, X5), [X1, X2] = X3",
            "families": entries}
