import numpy as np
import pytest

import korbit as kb
from korbit.errors import DomainError

from conftest import CANONICAL


def test_generic_stratum_predicate():
    assert not kb.generic_stratum_contains([1.0, -2.0, 0.0, 0.0, 0.0])
    assert kb.generic_stratum_contains([0.0, 0.0, 1e-12, 0.0, 0.0])
    assert kb.generic_stratum_contains([0.0, 0.0, 0.0, 0.0, 3.0])


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_partition_check_small(fam, params):
    rep = kb.partition_check(fam, params, pairs=20, seed=14)
    assert rep.passed, rep.failures
    assert rep.n == 40
    assert rep.generic + rep.fixed_point == rep.n
    # injected same-orbit pairs at indices 3, 8, 13, 18
    assert rep.same_leaf_pairs == 4
    assert rep.disjoint_pairs == 16
    if rep.min_separation is not None:
        assert rep.min_separation > 10 * rep.tol


def test_partition_report_is_deterministic():
    a = kb.partition_check("5.3.5", {"lambda": 2.0}, pairs=15, seed=3)
    b = kb.partition_check("5.3.5", {"lambda": 2.0}, pairs=15, seed=3)
    assert a.to_json_dict() == b.to_json_dict()


def test_partition_report_carries_scope_notice():
    rep = kb.partition_check("5.3.4", None, pairs=5, seed=1)
    assert "partition" in rep.notice
    doc = rep.to_json_dict()
    assert doc["notice"] == rep.notice
    assert doc["passed"] is True


def test_orbit_relation_transitive_along_moves():
    rng = np.random.default_rng(44)
    for fam, params in CANONICAL[:4]:
        alg = kb.build_algebra(fam, params)
        for _ in range(5):
            F = rng.uniform(-2, 2, 5)
            F1 = kb.coadjoint_move(alg, F, rng.uniform(-1.5, 1.5, 5))
            F2 = kb.coadjoint_move(alg, F1, rng.uniform(-1.5, 1.5, 5))
            assert kb.orbits_equal(alg, F, F1)
            assert kb.orbits_equal(alg, F1, F2)
            assert kb.orbits_equal(alg, F, F2)


def test_local_triviality_all_dim2_cases():
    for fam, params in CANONICAL:
        for c in kb.case_indices(fam):
            if c == 1:
                continue
            assert kb.local_triviality_probe(fam, params, c, n=25, seed=6), (fam, c)


def test_local_triviality_rejects_point_case():
    with pytest.raises(DomainError):
        kb.local_triviality_probe("5.3.2", None, 1, n=5, seed=0)


def test_local_triviality_rejects_mismatched_base():
    with pytest.raises(DomainError):
        kb.local_triviality_probe("5.3.2", None, 8, n=5, seed=0,
                                  base=[1, 1, 0, 0, 1])


@pytest.mark.parametrize("call", [
    lambda: kb.partition_check("5.3.2", None, pairs=0, seed=0),
    lambda: kb.local_triviality_probe("5.3.2", None, 8, n=0, seed=0),
    lambda: kb.partition_check("5.3.2", None, pairs=3, seed=0, radius=0.0),
    lambda: kb.partition_check("5.3.2", None, pairs=3, seed=0, radius=-1.0),
    lambda: kb.md_scan("5.3.1", None, n=0, seed=1),
    lambda: kb.md_scan("5.3.1", None, n=0, seed=1, rank_tol=-1),
    lambda: kb.md_scan("5.3.1", None, n=8, seed=1, radius=0.0),
    lambda: kb.md_scan("5.3.1", None, n=8, seed=1, radius=-1.0),
    lambda: kb.md_scan("5.3.1", None, n=8, seed=1, radius=float("inf")),
])
def test_vacuous_sample_counts_are_refused(call):
    with pytest.raises(DomainError):
        call()
