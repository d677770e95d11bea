"""Orbit-partition checks: random covector pairs either share one orbit or
lie on disjoint ones, and two-dimensional orbits admit coordinate charts.

The generic stratum (union of the two-dimensional orbits) is the set of
covectors with (gamma, delta, sigma) != 0; everything else is a fixed
point. Pair checks inject known same-orbit pairs and known mirror-stratum
pairs among the random ones so both outcomes are exercised.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import algebra, exp_action, kirillov, orbits
from .errors import AsymmetryError, DomainError, EvaluationError

_NOTICE = ("this report checks the set-theoretic orbit partition only; "
           "transverse-measure functionals on the leaf space have no finite "
           "sampling content and are not probed")


def generic_stratum_contains(F) -> bool:
    """True when F lies on a two-dimensional orbit: (gamma, delta, sigma) != 0."""
    F = algebra.as_vector5(F, "covector")
    return bool(F[2] != 0.0 or F[3] != 0.0 or F[4] != 0.0)


@dataclass
class StratumReport:
    """Outcome of a sampled orbit-partition check for one family."""
    family: str
    params: dict
    pairs: int
    seed: int
    radius: float
    tol: float
    n: int
    generic: int
    fixed_point: int
    same_leaf_pairs: int
    disjoint_pairs: int
    min_separation: object  # float | None when no probe was evaluable
    failures: list = field(default_factory=list)
    notice: str = _NOTICE

    @property
    def passed(self) -> bool:
        return not self.failures and self.generic + self.fixed_point == self.n

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "params": dict(self.params),
            "pairs": self.pairs,
            "seed": self.seed,
            "radius": self.radius,
            "tol": self.tol,
            "n": self.n,
            "generic": self.generic,
            "fixed_point": self.fixed_point,
            "same_leaf_pairs": self.same_leaf_pairs,
            "disjoint_pairs": self.disjoint_pairs,
            "min_separation": self.min_separation,
            "failures": list(self.failures),
            "notice": self.notice,
            "passed": self.passed,
        }


def partition_check(family, params=None, pairs: int = 100, seed: int = 0,
                    radius: float = 2.0, tol: float = 1e-8,
                    probe_points: int = 50) -> StratumReport:
    """Check that random covector pairs are either on one orbit or on
    numerically separated orbits.

    Every 5th pair is replaced by a known same-orbit pair (a coadjoint move
    of the first member) and every following 5th by a mirror pair (the
    stratum-sign coordinate flipped). For pairs on distinct orbits, 50
    points of the first orbit are probed against the second descriptor; a
    probe closer than 10*tol in normalized residual is a failure, as is any
    probe that passes full membership.
    """
    alg = algebra.build_algebra(family, params)
    pairs = int(pairs)
    if pairs < 1:
        raise DomainError(f"pair count must be at least 1, got {pairs}")
    radius = exp_action.as_radius(radius)
    rng = np.random.default_rng(int(seed))
    n = 2 * pairs
    pts = rng.uniform(-radius, radius, size=(n, 5))
    generic = sum(1 for i in range(n) if generic_stratum_contains(pts[i]))
    fixed = n - generic

    failures = []
    min_sep = None
    same_leaf = 0
    disjoint = 0
    for i in range(pairs):
        Fa = pts[2 * i].copy()
        Fb = pts[2 * i + 1].copy()
        expect = None
        if i % 5 == 3:
            U = rng.uniform(-1.5, 1.5, size=5)
            Fb = exp_action.coadjoint_move(alg, Fa, U)
            expect = True
        elif i % 5 == 4:
            desc_a = orbits.classify_orbit(alg.family, alg.params, Fa)
            j = desc_a.signs[0].coord if desc_a.signs else 2
            Fb = Fa.copy()
            Fb[j] = -Fb[j]
            expect = False
        try:
            eq = orbits.orbits_equal(alg, Fa, Fb, tol)
        except AsymmetryError as exc:
            failures.append({"pair": i, "kind": "asymmetry",
                             "detail": str(exc)})
            continue
        if expect is True and not eq:
            failures.append({"pair": i, "kind": "same_leaf_missed",
                             "detail": f"coadjoint image not recognized, "
                                       f"base {list(map(float, Fa))}"})
            continue
        if expect is False and eq:
            failures.append({"pair": i, "kind": "mirror_merged",
                             "detail": f"sign-flipped covector reported on "
                                       f"the same orbit, base "
                                       f"{list(map(float, Fa))}"})
            continue
        if eq:
            same_leaf += 1
            continue
        disjoint += 1
        desc_b = orbits.classify_orbit(alg.family, alg.params, Fb)
        probe = exp_action.sample_orbit(
            alg, Fa, probe_points, seed=int(seed) + 104729 + i,
            radius=1.5).points
        for q in probe:
            for sp in desc_b.signs:
                if not float(sp.fn(q)) > 0.0:
                    break
            else:
                try:
                    r = orbits.constraint_residuals(desc_b, q)
                except EvaluationError:
                    continue  # structurally separated (different stratum)
                sep = float(np.max(np.abs(r)))
                if min_sep is None or sep < min_sep:
                    min_sep = sep
                if sep < tol:
                    failures.append({
                        "pair": i, "kind": "overlap",
                        "detail": f"orbit point {list(map(float, q))} is a "
                                  f"member of the partner descriptor"})
                elif sep < 10.0 * tol:
                    failures.append({
                        "pair": i, "kind": "margin",
                        "detail": f"orbit point at normalized residual "
                                  f"{sep:.3e} from the partner descriptor"})
    return StratumReport(
        family=alg.family, params=dict(alg.params), pairs=pairs,
        seed=int(seed), radius=radius, tol=float(tol), n=n,
        generic=generic, fixed_point=fixed, same_leaf_pairs=same_leaf,
        disjoint_pairs=disjoint, min_separation=min_sep, failures=failures)


def local_triviality_probe(family, params, case_index, n: int = 100,
                           seed: int = 0, radius: float = 2.0, base=None,
                           rank_tol: float = 1e-9) -> bool:
    """True when every sampled orbit member admits a coordinate chart.

    At each of n sampled points the constraint Jacobian must have rank 3
    and some 3-column submatrix (the complement of two chart coordinates)
    must be nonsingular, so the orbit is locally a graph over the two
    remaining coordinates.
    """
    alg = algebra.build_algebra(family, params)
    n = int(n)
    if n < 1:
        raise DomainError(f"sample count must be at least 1, got {n}")
    if base is None:
        base = orbits.canonical_bases(alg.family, case_index,
                                      sign_variants=False)[0]
    else:
        base = algebra.as_vector5(base, "base covector")
    desc = orbits.classify_orbit(alg.family, alg.params, base)
    if desc.case_index != case_index:
        raise DomainError(
            f"base lies in case {desc.case_index}, not case {case_index}")
    if desc.dim != 2:
        raise DomainError(
            f"case {case_index} of family {alg.family} is a single point; "
            "the chart probe needs a two-dimensional orbit")
    pts = exp_action.sample_orbit(alg, base, n, seed=int(seed),
                                  radius=radius).points
    J = np.stack([con.grad(pts) for con in desc.constraints], axis=1)
    ranks, thr = kirillov.svd_ranks(J, rank_tol)
    if np.any(ranks != 3):
        return False
    # a chart drops two coordinates; the other three columns must be
    # nonsingular at the threshold of the full Jacobian
    charted = np.zeros(n, dtype=bool)
    for cols in itertools.combinations(range(5), 3):
        charted |= kirillov.svd_ranks(J[:, :, cols], rank_tol, thr)[0] == 3
    return bool(np.all(charted))
