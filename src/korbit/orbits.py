"""Closed-form orbit descriptors: constraint sets per family and case,
membership and tangency checks, and sampled end-to-end verification.

A case is determined by which of (gamma, delta, sigma) vanish at the base
covector. Every positive-dimensional orbit here is two-dimensional and is
cut out by constraints of Jacobian rank 3 plus strict sign conditions:
three constraints, or four on the sigma = 0 branch of family 5.3.8 case 3
(s = 0 and the z, t and x motions), whose Jacobians both rank rules of
kirillov leave to the SVD. y is always a free coordinate.

Each orbit description lives in one row of the case table ``_CASES``,
keyed by (family, case): its constraints as the paper's display strings
("s = sigma*(t/delta)**lambda"), the coordinate of the sign condition and
the adjudication note. _compile parses each display once at import with
the ast module (names, numbers, + - * / **, unary minus and log; other
syntax fails there) and derives, on first use, g = lhs - rhs, its partial
derivatives, whether it is affine, and its guards: each log argument and
each base of a power whose exponent is not an integer literal must be
> 0. The sign display comes from the coordinate and the provenance from
the adjudication note. Adding a case is one table row; rows shared by
several families are written once. Family 5.3.8 case 3 is the one row
whose specs are a builder.

The checks (residuals, tangency, Jacobian rank, finite-difference
gradients) and the one screen _masks (the guard mask, then the sign mask,
each in one loop) take one point or an (n, 5) stack; a single point is the
n = 1 case. verify_proposition runs them once per block of bases of one
zero pattern, computes its residual rows once, and the adjudication record
reads the adjudicated columns from them.

A descriptor may also hold an (n, 5) stack of bases that share one zero
pattern: the compiled displays read each base coordinate as an (n,)
column, and row k of a stack of points is checked against base k. The
membership screen (_screen) checks row k of a stack of points against the
orbit of row k of a stack of bases: it groups the rows by their base's
zero pattern, which fixes the case, the sign condition and the 5.3.8
branch, and builds one descriptor per group. Mutual membership
(_mutual_membership) is two screens of two base stacks, so orbits_equal
is its one-row case and partition_check decides all its pairs with it.
A one-base descriptor is the n = 1 case.
"""

import ast
import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cache, partial
from operator import add, mul, neg, sub, truediv

import numpy as np

from . import algebra, exp_action, kirillov
from .errors import AsymmetryError, DomainError, EvaluationError

_X, _Y, _Z, _T, _S = range(5)
_NAMES = ("x", "y", "z", "t", "s")
_GREEK = ("alpha", "beta", "gamma", "delta", "sigma")


@dataclass(frozen=True)
class Guard:
    """A quantity that must be strictly positive for evaluation."""
    expr: str
    fn: object


@dataclass(frozen=True)
class SignPredicate:
    """A strict sign condition selecting the orbit's connected stratum."""
    expr: str
    fn: object
    coord: int  # index of the coordinate whose sign is fixed


@dataclass(frozen=True)
class Constraint:
    """One scalar equation g(p) = 0 with analytic gradient."""
    expr: str
    fn: object
    grad: object
    affine: bool
    guards: tuple = ()


@dataclass(frozen=True)
class OrbitCase:
    family: str
    case_index: int
    zero_pattern: tuple  # (gamma == 0, delta == 0, sigma == 0)


@dataclass(frozen=True)
class OrbitDescriptor:
    case: OrbitCase
    base: np.ndarray  # (5,), or an (n, 5) stack of bases of one pattern
    params: dict
    constraints: tuple
    signs: tuple
    dim: int
    shape: str  # point | half-plane | cylinder
    provenance: str  # literal | oracle-corrected
    snapped: bool = False

    @property
    def family(self) -> str:
        return self.case.family

    @property
    def case_index(self) -> int:
        return self.case.case_index


def _namespace(base, params) -> dict:
    """Values of the names a display may use: base coordinates, parameters.

    A base coordinate is a float for one base, and an (n,) column for an
    (n, 5) stack of bases; parameters are floats either way.
    """
    cols = base.tolist() if base.ndim == 1 else np.array(base.T)
    return dict(zip(_GREEK, cols), **params)


# The leaf of each name a display may use, as parsed: "lambda" is a Python
# keyword, so a display spells it "lambd_" before parsing.
_LEAVES = {n.replace("lambda", "lambd_"): ("v", n)
           for n in _GREEK + sum(algebra.PARAM_NAMES.values(), ())}
_LEAVES.update({n: ("x", i) for i, n in enumerate(_NAMES)})
_BINARY = {ast.Add: add, ast.Sub: sub, ast.Mult: mul, ast.Div: truediv,
           ast.Pow: pow}
_ONE = ("c", 1.0)
# The origin as a tree indexes points, P[..., i]: an affine display's
# constant term is its value there.
_ORIGIN = {(..., i): 0.0 for i in range(5)}


def _parse(node, text, guards):
    """Tree of an ast node of the display side text: ("x", i) for
    coordinate i, ("v", name) for a namespace symbol, ("c", number), or
    (op, *operands) with op the function that evaluates it (an operator of
    _BINARY, neg or np.log). Each log argument and each base of a power
    whose exponent is not an integer literal goes into the dict guards,
    keyed by its text. Other syntax raises SyntaxError."""
    match node:
        case ast.BinOp(op=op, left=a, right=b) if type(op) in _BINARY:
            e = (_BINARY[type(op)], _parse(a, text, guards),
                 _parse(b, text, guards))
            if e[0] is pow and any(_deriv(e[2], i) for i in range(5)):
                raise SyntaxError(f"{text!r}: an exponent names a coordinate")
            if e[0] is not pow or type(getattr(b, "value", None)) is int:
                return e
        case ast.Name(id=name) if name in _LEAVES:
            return _LEAVES[name]
        case ast.Constant(value=int() | float() as c) if type(c) is not bool:
            return ("c", c)
        case ast.UnaryOp(op=ast.USub(), operand=a):
            return (neg, _parse(a, text, guards))
        case ast.Call(func=ast.Name(id="log"), args=[a], keywords=[]):
            e = (np.log, _parse(a, text, guards))
        case _:
            raise SyntaxError(f"{ast.unparse(node)!r} in {text!r}: not a term")
    guards.setdefault(text[a.col_offset:a.end_col_offset], e[1])  # a > 0
    return e


def _node(op, a, b=None):
    """The tree (op, a[, b]) simplified, None standing for zero: a factor 1
    drops out, a sign moves out of a product, and (1/d)*b is b/d, so that
    an affine display's coefficients round as written (gamma/delta); a/a
    is 1, (p*q)/q is p and (p/c)/(q/c) is p/q (d log(z/gamma) is 1/z)."""
    if op is truediv and a:
        if a == b or a[0] is mul and a[2] == b:
            return _ONE if a == b else a[1]
        if a[0] is b[0] is truediv and a[2] == b[2]:
            return _node(truediv, a[1], b[1])
    elif op is mul:
        if None in (a, b) or _ONE in (a, b):
            return None if None in (a, b) else b if a == _ONE else a
        for p, q in (a, b), (b, a):
            if p[0] is neg:
                return _node(neg, _node(mul, p[1], q))
            if p[:2] == (truediv, _ONE):
                return _node(truediv, q, p[2])
    elif op in (add, sub) and None in (a, b):
        return a if b is None else b if op is add else _node(neg, b)
    elif op is neg:
        return a and (a[1] if a[0] is neg else (op, a))
    return a and (op, a, b)


def _deriv(e, i):
    """Partial derivative of the tree e in coordinate i (None: zero)."""
    op, a, b = (*e, None)[:3]
    if op in ("x", "v", "c"):
        return _ONE if e == ("x", i) else None
    da, db = _deriv(a, i), b and _deriv(b, i)
    if op in (neg, add, sub):
        return _node(op, da, db)
    if op in (np.log, truediv):  # d(a/b) = (da - (a/b)*db)/b, d log a = da/a
        return _node(truediv, _node(sub, da, db and _node(mul, e, db)), b or a)
    if op is mul:
        return _node(add, _node(mul, da, b), _node(mul, a, db))
    n = ("c", b[1] - 1) if b[0] == "c" else (sub, b, _ONE)
    return _node(mul, _node(mul, b, a if n == _ONE else (op, a, n)), da)


def _closure(e):
    """(v, P) -> value of the tree e on the namespace v and the points P."""
    op, a, b = (*e, None)[:3]
    if op == "x":
        return lambda v, P: P[..., a]
    if op in ("v", "c"):
        return (lambda v, P: v[a]) if op == "v" else (lambda v, P: a)
    a = _closure(a)
    if b is None:
        return lambda v, P: op(a(v, P))
    b = _closure(b)
    return lambda v, P: op(a(v, P), b(v, P))


def _compile(display):
    """v -> the Constraint of a display "lhs = rhs" on the namespace v. The
    display is parsed now. On the first call, g = lhs - rhs is
    differentiated by the chain rule over its tree, one partial per
    coordinate; g is affine where its Hessian vanishes; and g, its partials
    and its guards become closures."""
    guards = {}
    lhs, rhs = (_parse(ast.parse(side.replace("lambda", "lambd_"),
                                 mode="eval").body, side, guards)
                for side in display.split(" = "))
    e = (sub, lhs, rhs)

    @cache
    def forms():
        grads = {i: d for i in range(5) if (d := _deriv(e, i))}
        return (not any(_deriv(d, j) for d in grads.values() for j in grads),
                _closure(e),
                {i: _closure(d) for i, d in grads.items()},
                [(f"{t} > 0", _closure(g)) for t, g in guards.items()])

    def build(v):
        affine, fn, slope, checks = forms()
        shown = tuple([Guard(t, partial(g, v)) for t, g in checks])
        if affine:
            return _aff(display, [slope[i](v, None) if i in slope else 0.0
                                  for i in range(5)],
                        fn(v, _ORIGIN) + 0.0, shown)
        return Constraint(display, partial(fn, v), lambda P: _sparse(
            P, {i: g(v, P) for i, g in slope.items()}), False, shown)

    return build


def _sign(i, v) -> SignPredicate:
    # the coefficient's sign alone (it is nonzero): the product with a
    # huge coordinate could overflow, its sign is the same
    sign = 1.0 - 2.0 * (v[_GREEK[i]] < 0.0)
    return SignPredicate(expr=f"{_GREEK[i]}*{_NAMES[i]} > 0",
                         fn=lambda P: sign * P[..., i], coord=i)


def _aff(expr, coef, const, guards) -> Constraint:
    # g = p @ coef + const. Coefficients that vary by row (a stack of
    # bases) make a stack of (1, 5) @ (5, 1) products: each row rounds as
    # one point's p @ coef, a (5,) @ (5,) product, does for its own base,
    # which partition_check relies on. One base's P @ coef over many
    # points is a matrix-vector product and can differ in the last bit.
    if np.ndarray in map(type, coef):
        c = np.stack(np.broadcast_arrays(*coef), axis=-1)

        def fn(P):
            return (P[..., None, :] @ c[..., None])[..., 0, 0] + const
    else:
        c = np.asarray(coef, dtype=float)

        def fn(P):
            return P @ c + const

    def grad(P):
        return np.broadcast_to(c, np.shape(P)).copy()

    return Constraint(expr, fn, grad, True, guards)


def _sparse(P, entries) -> np.ndarray:
    """Gradient shaped like P, zero except {coordinate: value} entries."""
    G = np.zeros(np.shape(P))
    for i, val in entries.items():
        G[..., i] = val
    return G


# Detection threshold for the quarter-turn branch of family 5.3.8: float pi/2
# leaves cos(phi) ~ 6e-17, and for |cos(phi)| below this the two branches
# agree far beyond the membership tolerance at any reasonable radius.
_QUARTER_TURN_TOL = 1e-9

_Z_MOTION = "z = Re((gamma + i*delta)*exp(b*exp(-i*phi)))"
_T_MOTION = "t = Im((gamma + i*delta)*exp(b*exp(-i*phi)))"
_X_MOTION = ("x = alpha - gamma*Re(w) - delta*Im(w), "
             "w = (exp(b*exp(i*phi)) - 1)*exp(-i*phi)")


def _build_538_case3(v, sigma_zero):
    """Family 5.3.8 with (gamma, delta) != 0: solve-then-check membership.

    Each of z, t and x is constrained as the coordinate minus its
    closed-form motion at the group parameter b recovered from the point:
    from s when sigma != 0, else from the modulus of (z, t), else, at
    phi = pi/2 where the modulus is constant, from the winding angle mod 2pi
    (x is exactly 2pi-periodic in b there, so the principal angle
    suffices, and z, t reduce to the modulus constraint). A route supplies
    only b, d * grad(b) for a b-derivative d, and the display clause naming
    b; the gradient of a constraint is the chain rule through b. Applying
    grad(b) to d inside the route makes each product round as the route's
    closed form, d/(lambda*s) or d*(z/(r**2*cos(phi))). The bases of a
    stack share their zero pattern, so one branch serves every row.
    """
    lam, ph = v["lambda"], v["phi"]
    al, ga, de, si = v["alpha"], v["gamma"], v["delta"], v["sigma"]
    zeta0 = ga + 1j * de
    r0 = np.hypot(ga, de)
    quarter = sigma_zero and abs(math.cos(ph)) < _QUARTER_TURN_TOL
    # e^(-i*phi) moves (z, t), e^(+i*phi) moves x; exactly -i and i at the
    # quarter turn, where Re(w) = sin(b) and Im(w) = 1 - cos(b)
    ed = -1j if quarter else complex(math.cos(ph), -math.sin(ph))
    eu = ed.conjugate()

    if not sigma_zero:
        guard = Guard("s/sigma > 0", lambda P: P[..., _S] / si)
        where = "b = log(s/sigma)/lambda"

        def b_of(P):
            return np.log(P[..., _S] / si) / lam

        def d_grad_b(P, d):
            return _sparse(P, {_S: d / (lam * P[..., _S])})
    else:
        # sigma = 0: the orbit stays in the s = 0 slice
        guard = Guard("z**2 + t**2 > 0",
                      lambda P: P[..., _Z] ** 2 + P[..., _T] ** 2)
        if quarter:
            where = ("b = winding angle of (z + i*t) against "
                     "(gamma + i*delta), mod 2*pi")

            def b_of(P):
                rho = (P[..., _Z] + 1j * P[..., _T]) * np.conjugate(zeta0)
                return -np.arctan2(np.imag(rho), np.real(rho))

            def d_grad_b(P, d):
                u = ga * P[..., _Z] + de * P[..., _T]
                w = ga * P[..., _T] - de * P[..., _Z]
                m2 = u * u + w * w
                return _sparse(P, {_Z: d * ((de * u + ga * w) / m2),
                                   _T: d * (-(ga * u - de * w) / m2)})
        else:
            cosph = math.cos(ph)
            where = "b = log(hypot(z, t)/hypot(gamma, delta))/cos(phi)"

            def b_of(P):
                return np.log(np.hypot(P[..., _Z], P[..., _T]) / r0) / cosph

            def d_grad_b(P, d):
                r2c = (P[..., _Z] ** 2 + P[..., _T] ** 2) * cosph
                return _sparse(P, {_Z: d * (P[..., _Z] / r2c),
                                   _T: d * (P[..., _T] / r2c)})

    def gap(P, i):
        """p[i] minus its motion at b(P), and the derivative of that in b."""
        b = b_of(P)
        if i == _X:
            E = np.exp(b * eu)
            w = (E - 1.0) * ed
            return (P[..., _X] - al + ga * w.real + de * w.imag,
                    ga * E.real + de * E.imag)
        zeta = zeta0 * np.exp(b * ed)
        part = np.real if i == _Z else np.imag
        return P[..., i] - part(zeta), -part(ed * zeta)

    def motion(i, expr):
        def grad(P):
            G = d_grad_b(P, gap(P, i)[1])
            G[..., i] += 1.0
            return G

        return Constraint(f"{expr}, {where}", lambda P: gap(P, i)[0], grad,
                          False, (guard,))

    if not sigma_zero:
        return motion(_Z, _Z_MOTION), motion(_T, _T_MOTION), motion(_X, _X_MOTION)
    s_zero = _DISPLAYS["s = 0"](v)
    if not quarter:
        return (s_zero, motion(_Z, _Z_MOTION), motion(_T, _T_MOTION),
                motion(_X, _X_MOTION))

    # at the quarter turn the (z, t) motion is a pure rotation: only its
    # modulus constrains the point, its angle is b
    def mod_fn(P):
        return np.hypot(P[..., _Z], P[..., _T]) - r0

    def mod_grad(P):
        r = np.hypot(P[..., _Z], P[..., _T])
        return _sparse(P, {_Z: P[..., _Z] / r, _T: P[..., _T] / r})

    modulus = Constraint("hypot(z, t) = hypot(gamma, delta)", mod_fn,
                         mod_grad, False, (guard,))
    return (s_zero, modulus,
            motion(_X, "x = alpha - gamma*sin(b) - delta*(1 - cos(b))"))


@dataclass(frozen=True)
class _Adjudication:
    """How a flagged equation of a case was decided against the oracle.

    equation, literal and corrected are slots: an index into the case's
    constraints, a slice of them, or (literal and corrected only) an
    alternative display. The equation slot names what is adjudicated; the
    worst normalized residual of the literal and corrected slots is
    reported under that label (None: not evaluated). An index or slice
    reads the verification's own residual columns; a display is evaluated.
    """
    equation: object
    literal: object
    corrected: object
    adopted: str  # literal | corrected | oracle-corrected
    note: str


_PAIR_531_6 = _Adjudication(
    equation=1, literal=slice(0, 2),
    corrected="z = gamma*(s/sigma)**lambda1",
    adopted="literal",
    note=("both transcribed equations share the left-hand side "
          "lambda1*x; the pair is mutually consistent and, with the "
          "t = 0 template constraint, has Jacobian rank 3, so the "
          "transcribed pair is kept; the implied z-s relation is "
          "evaluated in the corrected slot"))
_AFFINE_533_4 = _Adjudication(
    equation=2, literal=2, corrected=None, adopted="literal",
    note=("every constraint in this case is affine, so the "
          "descriptor is tagged half-plane even though the case "
          "enumeration labels it a cylinder; shape tags here follow "
          "the structural test"))
_Y_TO_X_535_8 = _Adjudication(
    equation=1,
    literal="lambda*y = lambda*alpha + gamma*(1 - (t/delta)**lambda)",
    corrected=1, adopted="corrected",
    note=("the transcribed equation reads lambda*y on the left-hand "
          "side, but y is a free coordinate of the orbit; the "
          "single-symbol correction y -> x passes the sampled "
          "oracle, so the corrected form is adopted"))
_LOG2_537 = _Adjudication(
    equation=2, literal=2, corrected=None, adopted="literal",
    note=("the s equation is parsed as (z/2) times the square of "
          "log(z/gamma); this parse passes the sampled oracle and "
          "is adopted as transcribed"))
_SOLVED_538_3 = _Adjudication(
    equation=slice(None), literal=None, corrected=slice(None),
    adopted="oracle-corrected",
    note=("the transcribed set-builder leaves the first coordinate "
          "pair unconstrained; membership is implemented by "
          "recovering the group parameter b from s (sigma != 0), "
          "from the modulus of (z, t) (cos(phi) != 0), or from the "
          "winding angle mod 2pi (phi = pi/2, where x is exactly "
          "2pi-periodic in b)"))


@dataclass(frozen=True)
class _Case:
    specs: object  # tuple of display strings, or a builder taking the
    # namespace and whether sigma vanishes at the base
    sign: object  # coordinate of the sign condition, None for point orbits
    adjudication: object = None


# Displays used by several rows.
_XZ = "x = alpha + gamma - z"
_XZ_L = "lambda*x = lambda*alpha + gamma - z"
_XZ_L1 = "lambda1*x = lambda1*alpha + gamma - z"
_XT = "x = alpha + (1 - t/delta)*gamma"
_XS = "x = alpha + gamma*(1 - s/sigma)"
_TS = "delta*s = sigma*t"
_S_T_LAM = "s = sigma*(t/delta)**lambda"
_S_Z_LAM = "s = sigma*(z/gamma)**lambda"
_T_S_L2 = "t = delta*(s/sigma)**lambda2"
_Z_T_LAM = "z = gamma*(t/delta)**lambda"
_X_S_L1 = "lambda1*x = lambda1*alpha + gamma*(1 - (s/sigma)**lambda1)"
_X_S_LAM = "lambda*x = lambda*alpha + gamma*(1 - (s/sigma)**lambda)"
_X_T_LAM = "lambda*x = lambda*alpha + gamma*(1 - (t/delta)**lambda)"
_S_TLOGT = "s = t*log(t/delta)"
_T_ZLOGZ = "t = z*log(z/gamma)"
_T_ZLOGZ_LIN = "t = z*log(z/gamma) + delta*z/gamma"
_S_LOG_LIN = "s = sigma*t/delta + t*log(t/delta)"

_ALL = "5.3.1 5.3.2 5.3.3 5.3.4 5.3.5 5.3.6 5.3.7 5.3.8"

# (families, case, row); a row listed for several families is shared by them.
_ROWS = (
    (_ALL, 1, _Case(("x = alpha", "y = beta", "z = 0", "t = 0", "s = 0"),
                    None)),
    (_ALL, 2, _Case(("x = alpha", "z = 0", "t = 0"), _S)),
    ("5.3.1 5.3.2 5.3.3 5.3.4 5.3.6", 3,
     _Case(("x = alpha", "z = 0", "s = 0"), _T)),
    ("5.3.5 5.3.7", 3, _Case(("x = alpha", "z = 0", _S_TLOGT), _T)),
    # sigma may vanish at the base here; the sign condition is then dropped
    ("5.3.8", 3, _Case(_build_538_case3, _S, _SOLVED_538_3)),
    ("5.3.1", 4, _Case(("x = alpha", "z = 0", _T_S_L2), _S)),
    ("5.3.2 5.3.6", 4, _Case(("x = alpha", "z = 0", _S_T_LAM), _T)),
    ("5.3.3", 4, _Case(("x = alpha", "z = 0", _TS), _T, _AFFINE_533_4)),
    ("5.3.4", 4, _Case(("x = alpha", "z = 0", _TS), _T)),
    ("5.3.5", 4, _Case(("x = alpha", "z = 0", _S_LOG_LIN), _T)),
    ("5.3.7", 4, _Case((
        "x = alpha", "z = 0", "s = t*log(t/delta) + sigma*t/delta"), _T)),
    ("5.3.1", 5, _Case((_XZ_L1, "t = 0", "s = 0"), _Z)),
    ("5.3.2 5.3.4", 5, _Case((_XZ, "t = 0", "s = 0"), _Z)),
    ("5.3.3 5.3.5", 5, _Case((_XZ_L, "t = 0", "s = 0"), _Z)),
    ("5.3.6", 5, _Case((_XZ, _T_ZLOGZ, "s = 0"), _Z)),
    ("5.3.7", 5, _Case((_XZ, _T_ZLOGZ, "s = (z/2)*log(z/gamma)**2"), _Z,
                       _LOG2_537)),
    ("5.3.1", 6, _Case((_XZ_L1, _X_S_L1, "t = 0"), _S, _PAIR_531_6)),
    ("5.3.2", 6, _Case((_XZ, _S_Z_LAM, "t = 0"), _Z)),
    ("5.3.3 5.3.5", 6, _Case((_XZ_L, _X_S_LAM, "t = 0"), _S)),
    ("5.3.4", 6, _Case((_XZ, _XS, "t = 0"), _S)),
    ("5.3.6", 6, _Case((_XZ, _T_ZLOGZ, _S_Z_LAM), _S)),
    ("5.3.7", 6, _Case((_XZ, _T_ZLOGZ, (
        "s = (z/2)*log(z/gamma)**2 + sigma*z/gamma")), _Z, _LOG2_537)),
    ("5.3.1", 7, _Case((_XZ_L1, "lambda1*x = lambda1*alpha + gamma*(1 - "
                        "(t/delta)**(lambda1/lambda2))", "s = 0"), _T)),
    ("5.3.2", 7, _Case((_XZ, _XT, "s = 0"), _T)),
    ("5.3.3", 7, _Case((_XZ_L, _Z_T_LAM, "s = 0"), _T)),
    ("5.3.4", 7, _Case((_XZ, "z = gamma*t/delta", "s = 0"), _T)),
    ("5.3.5", 7, _Case((_XZ_L, _Z_T_LAM, _S_TLOGT), _T)),
    ("5.3.6", 7, _Case((_XZ, _T_ZLOGZ_LIN, "s = 0"), _Z)),
    ("5.3.7", 7, _Case((_XZ, _T_ZLOGZ_LIN, (
        "s = (z/2)*log(z/gamma)**2 + (delta/gamma)*z*log(z/gamma)")), _Z,
        _LOG2_537)),
    ("5.3.1", 8, _Case((_XZ_L1, _X_S_L1, _T_S_L2), _S)),
    ("5.3.2", 8, _Case((_XZ, _XT, _S_T_LAM), _T)),
    ("5.3.3", 8, _Case((_XZ_L, _X_T_LAM, _TS), _T)),
    ("5.3.4", 8, _Case((_XZ, _XS, _TS), _T)),
    ("5.3.5", 8, _Case((_XZ_L, _X_T_LAM, _S_LOG_LIN), _T, _Y_TO_X_535_8)),
    ("5.3.6", 8, _Case((_XZ, _T_ZLOGZ_LIN, _S_Z_LAM), _Z)),
    ("5.3.7", 8, _Case((_XZ, _T_ZLOGZ_LIN, (
        "s = (z/2)*log(z/gamma)**2 + (delta/gamma)*z*log(z/gamma) "
        "+ sigma*z/gamma")), _Z, _LOG2_537)),
)

_CASES = {(fam, case): row for fams, case, row in _ROWS for fam in fams.split()}
# Each display of the table and of the adjudication slots, parsed once.
_DISPLAYS = {s: _compile(s) for s in {
    spec for _, _, row in _ROWS for spec in (
        *(() if callable(row.specs) else row.specs),
        getattr(row.adjudication, "literal", None),
        getattr(row.adjudication, "corrected", None)) if type(spec) is str}}


def _pattern(ga, de, si):
    """Zero-pattern code 4*(gamma != 0) + 2*(delta != 0) + (sigma != 0) of
    one covector's floats, or per row of the columns of an (n, 5) stack."""
    return 4 * (ga != 0.0) + 2 * (de != 0.0) + (si != 0.0)


def _case_of(family, code):
    """Case index of a zero-pattern code, or of an array of codes: 1 + code,
    except on 5.3.8, where (gamma, delta) != 0 (code >= 2) is one case, 3."""
    if family == "5.3.8":
        return 3 - (code < 2) * (2 - code)
    return code + 1


def _refuse_degenerate(family, p, cases):
    """The case 5-8 equations divide by the row's warning parameter: refuse
    them when it is 0 and any of the case indices is 5 or more."""
    pname = algebra.family_row(family).zero_warning
    if pname is not None and p[pname] == 0.0 and np.any(cases >= 5):
        raise DomainError(
            f"family {family} with {pname} = 0: cases with gamma != 0 have "
            "no valid closed-form constraint set (the x coordinate "
            "decouples from z); rank and dimension checks remain available")


def _sign_coord(family, code):
    """Coordinate of the sign condition of a zero-pattern code, None when
    its case has none or the coordinate vanishes (5.3.8 case 3, sigma = 0)."""
    sign = _CASES[family, _case_of(family, code)].sign
    return sign if sign is not None and code >> (_S - sign) & 1 else None


def _screen(family, p, bases, points):
    """(guarded, signed, worst) of row k of the (n, 5) stack points against
    the orbit of row k of the (n, 5) stack bases: the guard and sign masks,
    and the largest |normalized residual|, inf where the row is not
    admitted (both masks hold). Rows are grouped by their base's zero
    pattern, which fixes the case, its sign condition and, on 5.3.8 case
    3, the branch that recovers b; each group builds one stacked
    descriptor for the masks and one for its admitted rows when some are
    rejected, and only admitted rows are evaluated."""
    codes = _pattern(*bases.T[2:])
    guarded, signed = np.zeros((2, len(points)), dtype=bool)
    worst = np.full(len(points), np.inf)
    with np.errstate(over="ignore", invalid="ignore"):  # inf/NaN fail a row
        for code in np.unique(codes):
            rows = np.flatnonzero(codes == code)
            desc = _descriptor(family, p, bases[rows])
            guarded[rows], signed[rows] = _masks(desc, points[rows])
            ok = rows[guarded[rows] & signed[rows]]
            if 0 < len(ok) < len(rows):
                desc = _descriptor(family, p, bases[ok])
            if len(ok):
                res = _residual_rows(desc, points[ok])
                worst[ok] = np.max(np.abs(res), axis=-1)
    return guarded, signed, worst


def classify_orbit(family, params, F, snap_tol: float = 0.0) -> OrbitDescriptor:
    """Build the orbit descriptor through F.

    Exact zero comparisons decide the case; snap_tol > 0 additionally
    treats |coordinate| < snap_tol as zero for scanned (non-exact) input
    and records that in the descriptor. A negative or non-finite snap_tol
    raises DomainError.
    """
    family = algebra.normalize_family(family)
    p = algebra.validate_params(family, params)
    F = algebra.as_vector5(F, "covector")
    snap_tol = algebra.as_tolerance("snap_tol", snap_tol, zero_ok=True)
    base = F.copy()
    snapped = False
    if snap_tol > 0.0:
        for i in (_Z, _T, _S):
            if base[i] != 0.0 and abs(base[i]) < snap_tol:
                base[i] = 0.0
                snapped = True
    return _descriptor(family, p, base, snapped)


def _descriptor(family, p, base, snapped=False) -> OrbitDescriptor:
    """classify_orbit of a canonical family tag, a validate_params dict and
    a finite float covector, which the descriptor keeps as its base.

    base may also be an (n, 5) stack of bases sharing one zero pattern (as
    _screen groups them): the descriptor then checks row k of a stack of
    points against base k.
    """
    code = _pattern(*(base if base.ndim == 1 else base[0]).tolist()[2:])
    case_index = _case_of(family, code)
    _refuse_degenerate(family, p, case_index)

    row = _CASES[family, case_index]
    v = _namespace(base, p)
    if callable(row.specs):
        constraints = row.specs(v, not code & 1)
    else:
        constraints = tuple(_DISPLAYS[spec](v) for spec in row.specs)
    coord = _sign_coord(family, code)
    signs = () if coord is None else (_sign(coord, v),)
    dim = 0 if case_index == 1 else 2
    if dim == 0:
        shape = "point"
    elif all(c.affine for c in constraints):
        shape = "half-plane"
    else:
        shape = "cylinder"
    adj = row.adjudication
    provenance = ("literal" if adj is None or adj.adopted == "literal"
                  else "oracle-corrected")
    base.setflags(write=False)
    return OrbitDescriptor(
        case=OrbitCase(family=family, case_index=case_index,
                       zero_pattern=(not code & 4, not code & 2,
                                     not code & 1)),
        base=base, params=p, constraints=constraints, signs=signs,
        dim=dim, shape=shape, provenance=provenance, snapped=snapped)


def descriptor_summary(desc: OrbitDescriptor) -> dict:
    return {
        "family": desc.family,
        "params": dict(desc.params),
        "case": desc.case_index,
        "zero_pattern": dict(zip(_GREEK[2:], desc.case.zero_pattern)),
        "base": [float(v) for v in desc.base],
        "dim": desc.dim,
        "shape": desc.shape,
        "provenance": desc.provenance,
        "snapped": desc.snapped,
        "constraints": [c.expr for c in desc.constraints],
        "signs": [s.expr for s in desc.signs],
    }


def _guards(desc, P):
    """(constraint, guard, rows of P where it is > 0, NaN failing) per guard."""
    for con in desc.constraints:
        for g in con.guards:
            yield con, g, np.asarray(g.fn(P)) > 0.0


def _masks(desc, P):
    """(guarded, signed) of an (n, 5) stack P: the rows passing every guard,
    whose residuals are defined, and the rows passing every strict sign
    predicate. A row admitted as a member passes both."""
    guarded = np.ones(P.shape[:-1], dtype=bool)
    for _, _, ok in _guards(desc, P):
        guarded &= ok
    signed = np.ones(P.shape[:-1], dtype=bool)
    for sp in desc.signs:
        signed &= np.asarray(sp.fn(P)) > 0.0
    return guarded, signed


def _residual_rows(desc, P):
    """Normalized residuals of points whose guards hold (not checked)."""
    res = np.stack([con.fn(P) for con in desc.constraints], axis=-1)
    return res / _scale(P)[..., None]


def _scale(P):
    """1 + |p|_inf per row: the normalization of residuals and tangency."""
    return 1.0 + np.max(np.abs(P), axis=-1)


def _stack(p):
    """(n, 5) stack of finite points, and whether p was a single point."""
    P = algebra.as_stack5(p, "point")
    return (P[None, :], True) if P.ndim == 1 else (P, False)


def _jacobian(desc, P):
    """(n, constraints, 5) stack of constraint gradients at the rows of P."""
    return np.stack([con.grad(P) for con in desc.constraints], axis=1)


def constraint_residuals(desc: OrbitDescriptor, p) -> np.ndarray:
    """Normalized residuals g_i(p)/(1 + |p|_inf), in descriptor order.

    p is one point (5,) or an (n, 5) stack, and the result (k,) or (n, k).
    Raises DomainError when p is not finite real points, EvaluationError
    when a power/log argument is not strictly positive at p.
    """
    P, single = _stack(p)
    for con, g, ok in _guards(desc, P):
        if not np.all(ok):
            raise EvaluationError(
                f"cannot evaluate {con.expr!r}: requires {g.expr}")
    res = _residual_rows(desc, P)
    return res[0] if single else res


def is_member(desc: OrbitDescriptor, p, tol: float = 1e-8) -> bool:
    """Strict sign predicates plus all |normalized residuals| < tol.

    Unevaluable points (guard violations) are non-members, not errors.
    tol must be finite and positive (DomainError otherwise).
    """
    tol = algebra.as_tolerance("membership tolerance", tol)
    P = algebra.as_vector5(p, "point")[None, :]
    return bool(_screen(desc.family, desc.params, desc.base[None], P)[2][0]
                < tol)


def tangency_residual(alg: algebra.LieAlgebra, desc: OrbitDescriptor, p):
    """max_i |(B(p) @ grad g)_i| / (1 + |p|_inf) over the constraints.

    The rows of the Kirillov form at p span the orbit tangent space, so
    this vanishes on descriptors that cut out the orbit correctly. A float
    for one point, an array of one value per row for an (n, 5) stack.
    """
    P, single = _stack(p)
    worst = _tangency_rows(P, kirillov.kirillov_forms(alg, P), _jacobian(desc, P))
    return float(worst[0]) if single else worst


def _tangency_rows(P, B, J):
    """tangency_residual of P, with Kirillov forms B and Jacobians J."""
    v = np.einsum("nij,ncj->nci", B, J)
    return np.max(np.abs(v), axis=(1, 2)) / _scale(P)


def jacobian_rank_check(desc: OrbitDescriptor, p, tol: float = 1e-9):
    """Numeric rank of the constraint-gradient stack at p (expected 3).

    An int for one point, an array of one rank per row for an (n, 5) stack.
    """
    P, single = _stack(p)
    ranks = kirillov.certified_svd_ranks(_jacobian(desc, P), tol)
    return int(ranks[0]) if single else ranks


def gradient_fd_error(desc: OrbitDescriptor, p, step: float = 1e-6):
    """Max relative deviation of analytic gradients from central differences.

    A float for one point, an array of one value per row for an (n, 5)
    stack. A difference that is not finite (a step across a guard) makes
    the row's value non-finite instead of being skipped.
    """
    P, single = _stack(p)
    step = algebra.as_tolerance("FD step", step)
    worst = _fd_rows(desc, P, _jacobian(desc, P), step)
    return float(worst[0]) if single else worst


def _fd_rows(desc, P, J, step):
    """gradient_fd_error of an (n, 5) stack with constraint Jacobians J.

    The 10 shifted copies of P (+step, then -step, in each coordinate j)
    are one (2, 5, n, 5) stack, so each constraint is evaluated once, and
    the per-row base coordinates of a stacked descriptor broadcast over it.
    """
    n = P.shape[0]
    shifted = np.broadcast_to(P, (2, 5, n, 5)).copy()
    axes = np.arange(5)
    shifted[0, axes, :, axes] += step
    shifted[1, axes, :, axes] -= step
    worst = np.zeros(n)
    for c, con in enumerate(desc.constraints):
        G = J[:, c, :]
        denom = np.maximum(1.0, np.max(np.abs(G), axis=-1))
        plus, minus = con.fn(shifted)
        fd = (plus - minus) / (2.0 * step)  # row j: the difference along j
        worst = np.maximum(worst, np.max(np.abs(fd - G.T) / denom, axis=0))
    return worst


def orbits_equal(alg: algebra.LieAlgebra, F1, F2, tol: float = 1e-8) -> bool:
    """Mutual membership check; both directions must agree. tol must be
    finite and positive (DomainError otherwise)."""
    fam, p = alg.family, alg.params
    B = []
    for F in (F1, F2):  # each covector, then its case, in argument order
        F = algebra.as_vector5(F, "covector")
        _refuse_degenerate(fam, p, _case_of(fam, _pattern(*F.tolist()[2:])))
        B.append(F[None])
    equal, asymmetric = _mutual_membership(
        fam, p, *B, algebra.as_tolerance("membership tolerance", tol))
    if asymmetric:
        raise asymmetric[0]
    return bool(equal[0])


def _mutual_membership(family, p, B1, B2, tol):
    """Whether row k of the (n, 5) stack B1 and row k of B2 lie on one
    orbit, each screened against the other's orbit: a bool per row, and
    {row: AsymmetryError} where the two directions disagree."""
    a, b = (_screen(family, p, X, Y)[2] < tol for X, Y in ((B1, B2), (B2, B1)))
    return a, {int(k): AsymmetryError(
        f"orbit membership disagreed for family {family}: "
        f"{B1[k].tolist()} vs {B2[k].tolist()} ({a[k]} / {b[k]})")
        for k in np.flatnonzero(a != b)}


def case_indices(family) -> tuple:
    """Valid case indices for a family (zero patterns of gamma, delta, sigma)."""
    family = algebra.normalize_family(family)
    return tuple(sorted(c for fam, c in _CASES if fam == family))


def canonical_bases(family, case_index) -> list:
    """Base covectors for verification: alpha = beta = 1 and every pattern
    of (gamma, delta, sigma) in {1, -1, 0} that lies in the case, so the
    nonzero stratum coordinates take all +-1 sign patterns (family 5.3.8
    case 3 also includes sigma = 0 sub-branch bases). The first has every
    nonzero coordinate +1."""
    family = algebra.normalize_family(family)
    case_index = _checked_case(family, case_index)
    return [np.array([1.0, 1.0, g, d, s])
            for g, d, s in itertools.product((1.0, -1.0, 0.0), repeat=3)
            if _case_of(family, _pattern(g, d, s)) == case_index]


def _checked_case(family, case_index) -> int:
    """A case index of the normalized family as an int, or DomainError."""
    case_index = algebra.as_count("case index", case_index, 1)
    if (family, case_index) not in _CASES:
        raise DomainError(f"family {family} has no case {case_index}")
    return case_index


# Sample rows per block of verify_proposition's bases (see its docstring).
_VERIFY_ROWS = 1000


def _case_sample(alg, bases, case_index, n, seeds, radius):
    """(descriptor, sample_orbit points) of an (m, 5) stack of bases of one
    zero pattern, base k moved by the n draws of seeds[k] and checked on its
    own rows (one base: a one-base descriptor). Refuses bases outside the
    case, and a motion past the float range naming family, case and base."""
    desc = _descriptor(alg.family, alg.params, bases[0].copy() if len(bases)
                       == 1 else np.repeat(bases, n, axis=0))
    if desc.case_index != case_index:
        raise DomainError(f"base {bases[0].tolist()} lies in case "
                          f"{desc.case_index}, not requested case {case_index}")
    U = exp_action._draws(seeds, n, radius)
    return desc, exp_action._move_items(alg, bases, U, n, lambda k: (
        f"family {alg.family} case {case_index}, base {bases[k].tolist()}"))


def _adjudicate(prov, desc, Pm, res):
    """Merge the case's adjudication record on the guarded rows Pm of a
    sample into the dict prov, keyed by its equation: a slot keeps its
    worst value over the samples (None: not evaluated). res holds the
    normalized residual rows of Pm: an index or slice slot reads its
    columns, and only an alternative display is built and evaluated."""
    adj = _CASES[desc.family, desc.case_index].adjudication
    if adj is None:
        return

    def worst(slot):
        if slot is None or not len(Pm):
            return None
        if isinstance(slot, (int, slice)):
            return float(np.max(np.abs(res[:, slot])))
        con = _DISPLAYS[slot](_namespace(desc.base, desc.params))
        return float(np.max(np.abs(con.fn(Pm) / _scale(Pm))))

    eq = desc.constraints[adj.equation]
    label = "; ".join(c.expr for c in (eq if isinstance(eq, tuple) else (eq,)))
    entry = prov.setdefault(label, {
        "equation": label, "literal_residual": None,
        "corrected_residual": None, "adopted": adj.adopted, "note": adj.note})
    for key, slot in (("literal_residual", adj.literal),
                      ("corrected_residual", adj.corrected)):
        vals = [r for r in (entry[key], worst(slot)) if r is not None]
        entry[key] = float(np.max(vals)) if vals else None


@dataclass
class VerificationReport:
    """Sampled verification of one family case against its descriptor."""
    family: str
    params: dict
    case: int
    base: list
    bases: list
    n: int
    seed: int
    radius: float
    member_tol: float
    tangency_tol: float
    rank_tol: float
    shape: str
    dim: int
    max_residual: float
    tangency_max: float
    sign_violations: int
    jacobian_failures: int
    dimension_mismatches: int
    gradient_max_rel_err: float
    provenance: list
    passed: bool

    def to_json_dict(self) -> dict:
        return dataclasses.asdict(self)  # keys in field order


def verify_proposition(family, params, case_index, n: int, seed: int,
                       radius: float = 2.0, member_tol: float = 1e-8,
                       tangency_tol: float = 1e-8, rank_tol: float = 1e-9,
                       grad_tol: float = 1e-4, grad_step: float = 1e-6,
                       base=None) -> VerificationReport:
    """Sample n orbit points per canonical base of one case and check the
    constraint set end to end.

    Checks: normalized residuals below member_tol, sign predicates strict,
    tangency of the Kirillov rows below tangency_tol, constraint Jacobian
    rank exactly 3 (dim-2 cases), sampled orbit dimension equal to the base
    dimension, and analytic gradients against central differences. The base
    covectors are canonical_bases(family, case), one per sign pattern of
    the case, unless an explicit base is given; base k samples with
    seed + 7919*k, in blocks of whole bases of one zero pattern and at most
    _VERIFY_ROWS rows; the report does not depend on the blocks. The case
    index must be an integer case of the family and the tolerances and
    grad_step finite and positive (DomainError otherwise). A motion beyond
    the float range raises DomainError naming the family, case and base.
    """
    alg = algebra.build_algebra(family, params)
    n = algebra.as_count("sample count", n, 1)
    seed = algebra.as_count("seed", seed, 0)
    radius = algebra.as_radius(radius)
    grad_step = algebra.as_tolerance("FD step", grad_step)
    member_tol = algebra.as_tolerance("member_tol", member_tol)
    tangency_tol = algebra.as_tolerance("tangency_tol", tangency_tol)
    grad_tol = algebra.as_tolerance("grad_tol", grad_tol)
    rank_tol = algebra.as_tolerance("rank tolerance", rank_tol)
    case_index = _checked_case(alg.family, case_index)
    bases = (canonical_bases(alg.family, case_index) if base is None
             else [algebra.as_vector5(base, "base covector")])

    max_residual = tangency_max = grad_worst = 0.0
    sign_violations = jacobian_failures = dimension_mismatches = 0
    prov_acc = {}

    codes = [_pattern(*B.tolist()[2:]) for B in bases]
    groups = [[k for k, c in enumerate(codes) if c == code]
              for code in dict.fromkeys(codes)]  # in the order of first base
    size = max(1, _VERIFY_ROWS // n)  # whole bases per block
    blocks = [g[i:i + size] for g in groups for i in range(0, len(g), size)]
    descs = []
    with np.errstate(over="ignore", invalid="ignore"):  # inf fails a check
        for ks in blocks:
            desc, P = _case_sample(alg, np.array([bases[k] for k in ks]),
                                   case_index, n, [seed + 7919 * k for k in ks],
                                   radius)
            descs.append(desc)
            guarded, signed = _masks(desc, P)
            sign_violations += len(P) - int(np.count_nonzero(guarded & signed))
            res, P = None, P[guarded]  # the checks run on every guarded row
            if desc.base.ndim == 2 and 0 < len(P) < len(guarded):
                desc = _descriptor(alg.family, alg.params, desc.base[guarded])
            if len(P):  # np.max keeps a NaN
                res = _residual_rows(desc, P)
                forms = kirillov.kirillov_forms(alg, P)
                J = _jacobian(desc, P)
                max_residual = float(np.max(np.abs(res), initial=max_residual))
                tangency_max = float(np.max(_tangency_rows(P, forms, J),
                                            initial=tangency_max))
                if desc.dim == 2:
                    ranks = kirillov.certified_svd_ranks(J, rank_tol)
                    jacobian_failures += int(np.count_nonzero(ranks != 3))
                dimension_mismatches += int(np.count_nonzero(
                    kirillov.skew_ranks(forms, rank_tol) != desc.dim))
                grad_worst = float(np.max(_fd_rows(desc, P, J, grad_step),
                                          initial=grad_worst))
            _adjudicate(prov_acc, desc, P, res)

    passed = (max_residual < member_tol and tangency_max < tangency_tol
              and sign_violations == 0 and jacobian_failures == 0
              and dimension_mismatches == 0 and grad_worst < grad_tol)
    return VerificationReport(
        family=alg.family, params=dict(alg.params), case=case_index,
        base=[float(v) for v in bases[0]],
        bases=[[float(v) for v in b] for b in bases],
        n=n, seed=seed, radius=radius,
        member_tol=float(member_tol), tangency_tol=float(tangency_tol),
        rank_tol=rank_tol, shape=descs[0].shape, dim=descs[0].dim,
        max_residual=max_residual, tangency_max=tangency_max,
        sign_violations=sign_violations, jacobian_failures=jacobian_failures,
        dimension_mismatches=dimension_mismatches,
        gradient_max_rel_err=grad_worst,
        provenance=list(prov_acc.values()), passed=passed)
