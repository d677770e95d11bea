"""Orbit-partition checks: random covector pairs either share one orbit or
lie on disjoint ones, and two-dimensional orbits admit coordinate charts.

The generic stratum (union of the two-dimensional orbits) is the set of
covectors with (gamma, delta, sigma) != 0; everything else is a fixed
point. Pair checks inject known same-orbit pairs and known mirror-stratum
pairs among the random ones so both outcomes are exercised.
The pair loop runs in two phases. The first classifies each pair,
injects the known pairs and decides membership, in pair order; the
second moves the probes of every disjoint pair, whole pairs stacked up to
_PROBE_CHUNK_ROWS rows per exp_ad call, each row by its own pair's
covector. Only probes admitted by the partner descriptor's membership
mask (guards and signs) get residuals, and failures are listed in pair
order.
"""

import dataclasses
import itertools
from dataclasses import dataclass, field

import numpy as np

from . import algebra, exp_action, kirillov, orbits
from .errors import AsymmetryError, DomainError

# Disjoint-pair probes move in stacks of whole pairs up to this many rows.
_PROBE_CHUNK_ROWS = 500
# Chart minors, the four that leave y (column 1) free first: y is always
# a free coordinate of these orbits, so those minors chart most rows.
_CHART_MINORS = tuple(sorted(itertools.combinations(range(5), 3),
                             key=lambda cols: 1 in cols))

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
    radius=1.5); a probe motion past the float range raises DomainError
    naming the family, the pair and its base.
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

    failures = []
    same_leaf = 0
    disjoint = []  # (i, Fa, desc_b) of every pair on distinct orbits
    for i in range(pairs):
        Fa = pts[2 * i].copy()
        Fb = pts[2 * i + 1].copy()
        desc_a = orbits.classify_orbit(alg.family, alg.params, Fa)
        expect = None
        if i % 5 == 3:
            U = rng.uniform(-1.5, 1.5, size=5)
            Fb = exp_action.coadjoint_move(alg, Fa, U)
            expect = True
        elif i % 5 == 4:
            j = desc_a.signs[0].coord if desc_a.signs else 2
            Fb = Fa.copy()
            Fb[j] = -Fb[j]
            expect = False
        desc_b = orbits.classify_orbit(alg.family, alg.params, Fb)
        try:
            eq = orbits._mutual_membership(desc_a, desc_b, Fa, Fb, tol)
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
        disjoint.append((i, Fa, desc_b))

    min_sep = None
    for i, desc_b, probe in _moved_probes(alg, disjoint, seed, probe_points):
        # probes failing a sign or guard of desc_b lie in another stratum
        probe = probe[orbits._admitted(desc_b, probe)[1]]
        sep = np.max(np.abs(orbits._residual_rows(desc_b, probe)), axis=-1)
        if len(sep):
            low = float(np.min(sep))
            min_sep = low if min_sep is None else min(min_sep, low)
        near = sep < 10.0 * tol  # in probe order
        for q, d in zip(probe[near], sep[near]):
            if d < tol:
                failures.append({
                    "pair": i, "kind": "overlap",
                    "detail": f"orbit point {list(map(float, q))} is a "
                              f"member of the partner descriptor"})
            else:
                failures.append({
                    "pair": i, "kind": "margin",
                    "detail": f"orbit point at normalized residual "
                              f"{d:.3e} from the partner descriptor"})
    failures.sort(key=lambda f: f["pair"])  # stable: probe order per pair
    return StratumReport(
        family=alg.family, params=dict(alg.params), pairs=pairs,
        seed=seed, radius=radius, tol=tol, n=n,
        generic=generic, fixed_point=n - generic, same_leaf_pairs=same_leaf,
        disjoint_pairs=len(disjoint), min_separation=min_sep,
        failures=failures)


def _moved_probes(alg, disjoint, seed, probe_points):
    """(i, desc_b, probe points) per disjoint pair (i, Fa, desc_b), in pair
    order. Pair i's probes are the images of Fa along
    default_rng(seed + 104729 + i).uniform(-1.5, 1.5, (probe_points, 5)),
    bit for bit sample_orbit's; whole pairs move together in stacks of at
    most _PROBE_CHUNK_ROWS rows (one pair if it alone is larger)."""
    per_chunk = max(1, _PROBE_CHUNK_ROWS // probe_points)
    for k in range(0, len(disjoint), per_chunk):
        chunk = disjoint[k:k + per_chunk]
        Us = np.concatenate([
            np.random.default_rng(seed + 104729 + i).uniform(
                -1.5, 1.5, size=(probe_points, 5)) for i, _, _ in chunk])
        Fs = np.repeat([Fa for _, Fa, _ in chunk], probe_points, axis=0)
        try:
            P = exp_action.coadjoint_move(alg, Fs, Us)
        except DomainError:
            _refuse_pair_overflow(alg, chunk, Us, probe_points)
            raise
        for m, (i, _, desc_b) in enumerate(chunk):
            yield i, desc_b, P[m * probe_points:(m + 1) * probe_points]


def _refuse_pair_overflow(alg, chunk, Us, probe_points):
    """Move each pair of an overflowing chunk alone, and raise the first
    pair's refusal: it names the row within that pair's draw, prefixed
    with the family, the pair and its base."""
    for m, (i, Fa, _) in enumerate(chunk):
        try:
            with np.errstate(all="ignore"):  # the stack has warned already
                exp_action.coadjoint_move(
                    alg, Fa, Us[m * probe_points:(m + 1) * probe_points])
        except DomainError as exc:
            raise DomainError(f"family {alg.family}, pair {i}, base "
                              f"{list(map(float, Fa))}: {exc}") from None


def local_triviality_probe(family, params, case_index, n: int = 100,
                           seed: int = 0, radius: float = 2.0, base=None,
                           rank_tol: float = 1e-9) -> bool:
    """True when every sampled orbit member admits a coordinate chart.

    At each of n sampled points the constraint Jacobian must have rank 3
    and some 3-column submatrix (the complement of two chart coordinates)
    must be nonsingular, so the orbit is locally a graph over the two
    remaining coordinates. rank_tol must be finite and positive
    (DomainError otherwise).
    """
    alg = algebra.build_algebra(family, params)
    n = algebra.as_count("sample count", n, 1)
    rank_tol = algebra.as_tolerance("rank tolerance", rank_tol)
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
    pts = exp_action.sample_orbit(alg, base, n, seed=seed,
                                  radius=radius).points
    J = orbits._jacobian(desc, pts)
    # a chart drops two coordinates; the other three columns must be
    # nonsingular at the threshold of the full Jacobian
    if J.shape[1] == 3:
        # rows whose rank 3 and chart certify_rank3 proves are done
        certified, tau = kirillov.certify_rank3(J, rank_tol)
        uncharted = _uncharted(
            J, np.flatnonzero(certified), tau,
            lambda M, t: kirillov.certify_rank3(M, rank_tol, t)[0])
        J = J[np.union1d(uncharted, np.flatnonzero(~certified))]
        if not len(J):
            return True
    # svd_ranks decides every other row
    ranks, thr = kirillov.svd_ranks(J, rank_tol)
    if np.any(ranks != 3):
        return False
    return not len(_uncharted(
        J, np.arange(len(J)), thr,
        lambda M, t: kirillov.svd_ranks(M, rank_tol, t)[0] == 3))


def _uncharted(J, rows, thr, full_rank):
    """The rows of J where no 3-column submatrix passes full_rank(minors,
    thresholds). Each minor, in _CHART_MINORS order, is tested only on the
    rows no earlier minor has charted."""
    for cols in _CHART_MINORS:
        if not len(rows):
            break
        rows = rows[~full_rank(J[rows][:, :, cols], thr[rows])]
    return rows
