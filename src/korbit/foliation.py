"""Orbit-partition checks: random covector pairs either share one orbit or
lie on disjoint ones, and two-dimensional orbits admit coordinate charts.

The generic stratum (union of the two-dimensional orbits) is the set of
covectors with (gamma, delta, sigma) != 0; everything else is a fixed
point. Pair checks inject known same-orbit pairs and known mirror-stratum
pairs among the random ones so both outcomes are exercised.
The pairs are checked as arrays, in two phases. The first injects the
known pairs (the same-leaf partners in one stacked motion) and decides
mutual membership of all pairs in one orbits._mutual_membership call. The
second moves the probes of every disjoint pair by exp_action._move_items,
whole pairs stacked, and screens each probe row against its own pair's
partner base in one orbits._screen call. Only probes admitted by the
partner's guards and signs get residuals; they are counted, and failures
are listed in pair order, then probe order. The chart probe is the
one-base case of verify_proposition's block sampler (orbits._case_sample)
under kirillov's chart rule (_charted_rank3).
"""

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import algebra, exp_action, kirillov, orbits
from .errors import DomainError

_NOTICE = ("this report checks the set-theoretic orbit partition only; "
           "transverse-measure functionals on the leaf space have no finite "
           "sampling content and are not probed")


def generic_stratum_contains(F):
    """Whether F lies on a two-dimensional orbit, (gamma, delta, sigma) != 0:
    a bool for one covector, one per row for an (n, 5) stack."""
    F = algebra.as_stack5(F, "covector")
    inside = np.any(F[..., 2:] != 0.0, axis=-1)
    return bool(inside) if F.ndim == 1 else inside


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
    probes_evaluated: int  # probes admitted by the partner, with residuals
    probes_sign_rejected: int  # probes failing the partner's sign condition
    probes_guard_rejected: int  # probes then failing a guard of the partner
    vacuous_pairs: int  # disjoint pairs none of whose probes was evaluated
    failures: list = field(default_factory=list)
    notice: str = _NOTICE

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        # keys in field order, then the verdict
        return dict(dataclasses.asdict(self), passed=self.passed)


def partition_check(family, params=None, pairs: int = 100, seed: int = 0,
                    radius: float = 2.0, tol: float = 1e-8,
                    probe_points: int = 50) -> StratumReport:
    """Check that random covector pairs are either on one orbit or on
    numerically separated orbits.

    Every 5th pair is replaced by a known same-orbit pair (a coadjoint move
    of the first member) and every following 5th by a mirror pair (the
    stratum-sign coordinate flipped). For pairs on distinct orbits,
    probe_points points of the first orbit are probed against the second
    descriptor; a probe closer than 10*tol in normalized residual is a
    failure, as is any probe that passes full membership. tol must be
    finite and positive (DomainError otherwise). Pair i's probes are the
    points of sample_orbit(alg, Fa, probe_points, seed + 104729 + i,
    radius=1.5); a same-leaf or probe motion past the float range raises
    DomainError naming the family, the pair and its base. The report
    counts the probes evaluated, those failing the partner's sign
    condition, and those passing it but failing a guard; a disjoint pair
    with no evaluated probe is counted as vacuous and does not fail.
    """
    alg = algebra.build_algebra(family, params)
    pairs = algebra.as_count("pair count", pairs, 1)
    probe_points = algebra.as_count("probe count", probe_points, 1)
    seed = algebra.as_count("seed", seed, 0)
    radius = algebra.as_radius(radius)
    tol = algebra.as_tolerance("partition tolerance", tol)
    rng = np.random.default_rng(seed)
    n = 2 * pairs
    pts = rng.uniform(-radius, radius, size=(n, 5))
    generic = int(np.count_nonzero(generic_stratum_contains(pts)))
    fam, p = alg.family, alg.params

    # phase one: inject the known pairs, then decide mutual membership of
    # every pair; a degenerate parameter is refused before any motion
    A, B = pts[0::2], pts[1::2].copy()
    codes = orbits._pattern(*A.T[2:])
    orbits._refuse_degenerate(fam, p, orbits._case_of(fam, codes))
    same, mirror = np.arange(3, pairs, 5), np.arange(4, pairs, 5)
    if len(same):
        U = rng.uniform(-1.5, 1.5, size=(len(same), 5))
        B[same] = exp_action._move_items(alg, A[same], U, 1,
                                         _pair_of(fam, A, same))
    # a mirror partner is its first member with the sign coordinate of its
    # case negated, gamma where the case has none
    coord = [orbits._sign_coord(fam, c) for c in range(8)]
    j = np.array([orbits._Z if c is None else c for c in coord])[codes[mirror]]
    B[mirror] = A[mirror]
    B[mirror, j] = -A[mirror, j]

    equal, odd = orbits._mutual_membership(fam, p, A, B, tol)

    failures = []
    missed = set(same[~equal[same]].tolist())
    merged = set(mirror[equal[mirror]].tolist())
    for i in sorted(odd.keys() | missed | merged):
        if i in odd:
            failures.append({"pair": i, "kind": "asymmetry",
                             "detail": str(odd[i])})
        elif i in missed:
            failures.append({"pair": i, "kind": "same_leaf_missed",
                             "detail": f"coadjoint image not recognized, "
                                       f"base {list(map(float, A[i]))}"})
        else:
            failures.append({"pair": i, "kind": "mirror_merged",
                             "detail": f"sign-flipped covector reported on "
                                       f"the same orbit, base "
                                       f"{list(map(float, A[i]))}"})
    settled = np.ones(pairs, dtype=bool)
    settled[[f["pair"] for f in failures]] = False
    disjoint = np.flatnonzero(settled & ~equal)

    # phase two: the probes of every disjoint pair; row r is screened
    # against its pair's partner
    pair_of = np.repeat(disjoint, probe_points)
    # Python ints: seed is unbounded, and an int64 sum could overflow
    Us = exp_action._draws([seed + 104729 + i for i in disjoint.tolist()],
                           probe_points, 1.5)
    probe = exp_action._move_items(alg, A[disjoint], Us, probe_points,
                                   _pair_of(fam, A, disjoint))
    guarded, signed, sep = orbits._screen(fam, p, B[pair_of], probe)
    evaluated = guarded & signed
    min_sep = float(np.min(sep[evaluated])) if evaluated.any() else None
    for r in np.flatnonzero(sep < 10.0 * tol):  # pair order, then probe order
        i, d = int(pair_of[r]), sep[r]
        if d < tol:
            failures.append({
                "pair": i, "kind": "overlap",
                "detail": f"orbit point {list(map(float, probe[r]))} is a "
                          f"member of the partner descriptor"})
        else:
            failures.append({
                "pair": i, "kind": "margin",
                "detail": f"orbit point at normalized residual "
                          f"{d:.3e} from the partner descriptor"})
    failures.sort(key=lambda f: f["pair"])  # stable: probe order per pair
    return StratumReport(
        family=fam, params=dict(p), pairs=pairs,
        seed=seed, radius=radius, tol=tol, n=n,
        generic=generic, fixed_point=n - generic,
        same_leaf_pairs=int(np.count_nonzero(settled & equal)),
        disjoint_pairs=len(disjoint), min_separation=min_sep,
        probes_evaluated=int(np.count_nonzero(evaluated)),
        probes_sign_rejected=int(np.count_nonzero(~signed)),
        probes_guard_rejected=int(np.count_nonzero(signed & ~guarded)),
        vacuous_pairs=int(np.count_nonzero(
            ~evaluated.reshape(len(disjoint), probe_points).any(axis=1))),
        failures=failures)


def _pair_of(family, A, pairs):
    # the refusal prefix of item k, moved from pair pairs[k]'s first member
    return lambda k: (f"family {family}, pair {pairs[k]}, "
                      f"base {list(map(float, A[pairs[k]]))}")


def local_triviality_probe(family, params, case_index, n: int = 100,
                           seed: int = 0, radius: float = 2.0, base=None,
                           rank_tol: float = 1e-9) -> bool:
    """True when every sampled orbit member admits a coordinate chart.

    At each of n points sampled from the base (canonical_bases(family,
    case_index)[0] unless given), the constraint Jacobian must have rank
    3 and a 3-column submatrix (the complement of two chart coordinates)
    nonsingular at the Jacobian's threshold: the orbit is locally a graph
    over two coordinates. rank_tol must be finite and positive. A case
    index that is not a case of the family, a base outside the case and a
    motion past the float range raise DomainError, as in
    verify_proposition.
    """
    alg = algebra.build_algebra(family, params)
    n = algebra.as_count("sample count", n, 1)
    seed = algebra.as_count("seed", seed, 0)
    radius = algebra.as_radius(radius)
    rank_tol = algebra.as_tolerance("rank tolerance", rank_tol)
    case_index = orbits._checked_case(alg.family, case_index)
    base = (orbits.canonical_bases(alg.family, case_index)[0] if base is None
            else algebra.as_vector5(base, "base covector"))
    desc, pts = orbits._case_sample(alg, base[None], case_index, n, [seed], radius)
    if desc.dim != 2:
        raise DomainError(
            f"case {case_index} of family {alg.family} is a single point; "
            "the chart probe needs a two-dimensional orbit")
    return bool(np.all(kirillov._charted_rank3(orbits._jacobian(desc, pts),
                                               rank_tol)))
