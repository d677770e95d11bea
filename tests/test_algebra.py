import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import korbit as kb
from korbit.errors import DomainError, ParameterWarning

from conftest import CANONICAL
from test_acceptance import JACOBI_GRID

FAMS = list(kb.FAMILY_TAGS)

coord = st.floats(min_value=-10.0, max_value=10.0,
                  allow_nan=False, allow_infinity=False)
vec5 = st.lists(coord, min_size=5, max_size=5).map(lambda v: np.array(v))


def test_catalog_lists_all_families():
    cat = kb.family_catalog()
    assert [e["tag"] for e in cat["families"]] == FAMS
    for e in cat["families"]:
        assert set(e["defaults"]) == set(e["parameters"])
        assert len(e["ad_x2"]) == 3


# The catalog's template vocabulary, evaluated without the package's code.
_TEMPLATE_TERMS = {"cos(phi)": lambda p: math.cos(p["phi"]),
                   "sin(phi)": lambda p: math.sin(p["phi"]),
                   "-sin(phi)": lambda p: -math.sin(p["phi"])}


def _catalog_value(term, p):
    if isinstance(term, int):
        return float(term)
    if term in _TEMPLATE_TERMS:
        return _TEMPLATE_TERMS[term](p)
    if term in p:
        return p[term]
    return math.pi if term == "pi" else float(term)


def _entry_holds(entry, p):
    name, op, rhs = entry.split(" ", 2)
    if op == "!=":
        return p[name] != _catalog_value(rhs, p)
    lo, hi = (_catalog_value(v, p) for v in rhs.strip("()").split(", "))
    return lo < p[name] < hi


def _entry_breakers(entry, p):
    # parameter sets that violate this entry: the value it excludes, or
    # each endpoint of its open interval
    name, op, rhs = entry.split(" ", 2)
    values = rhs.strip("()").split(", ") if op == "in" else [rhs]
    return [{**p, name: _catalog_value(v, p)} for v in values]


# (delta, sigma) of the four cases with gamma != 0
_GAMMA_CASES = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


@pytest.mark.parametrize("entry", kb.family_catalog()["families"],
                         ids=lambda e: e["tag"])
def test_catalog_agrees_with_behaviour(entry):
    tag, defaults = entry["tag"], entry["defaults"]
    for vals in [None] + [v for v in JACOBI_GRID[tag] if v]:
        p = kb.validate_params(tag, vals)
        want = np.array([[_catalog_value(v, p) for v in row]
                         for row in entry["ad_x2"]])
        assert kb.ad2_matrix(tag, p).tobytes() == want.tobytes(), (tag, p)

    domain = [c for c in entry["constraints"] if "accepted with a warning" not in c]
    assert all(_entry_holds(c, defaults) for c in domain)
    for c in domain:
        for bad in _entry_breakers(c, defaults):
            assert [d for d in domain if not _entry_holds(d, bad)] == [c]
            with pytest.raises(DomainError) as err:
                kb.validate_params(tag, bad)
            assert str(err.value) == f"family {tag} requires {c}"

    for name in entry["parameters"]:
        listed = (f"{name} = 0 accepted with a warning (orbit case equations "
                  "degenerate)") in entry["constraints"]
        p = {**defaults, name: 0.0}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                kb.validate_params(tag, p)
            except DomainError:
                assert not listed, (tag, name)
                continue
            refused = []
            for de, si in _GAMMA_CASES:
                try:
                    kb.classify_orbit(tag, p, [0.5, -1.0, 1.0, de, si])
                except DomainError:
                    refused.append((de, si))
        warned = any(w.category is ParameterWarning for w in caught)
        assert warned == listed, (tag, name)
        assert refused == (_GAMMA_CASES if listed else []), (tag, name)


def test_normalize_family_accepts_both_spellings():
    assert kb.normalize_family("G5.3.4") == "5.3.4"
    assert kb.normalize_family("5.3.4") == "5.3.4"
    with pytest.raises(DomainError):
        kb.normalize_family("5.3.9")


@pytest.mark.parametrize("fam,params", CANONICAL)
def test_jacobi_identity_at_canonical_params(fam, params):
    alg = kb.build_algebra(fam, params)
    assert kb.jacobi_residual(alg) < 1e-12


def test_param_domain_rejections():
    bad = [
        ("5.3.1", (1.0, 3.0)),
        ("5.3.1", (2.0, 0.0)),
        ("5.3.1", (2.0, 1.0)),
        ("5.3.1", (2.0, 2.0)),
        ("5.3.2", (0.0,)),
        ("5.3.2", (1.0,)),
        ("5.3.3", (1.0,)),
        ("5.3.5", (1.0,)),
        ("5.3.6", (0.0,)),
        ("5.3.6", (1.0,)),
        ("5.3.8", {"lambda": 0.0, "phi": 1.0}),
        ("5.3.8", {"lambda": 1.0, "phi": 0.0}),
        ("5.3.8", {"lambda": 1.0, "phi": math.pi}),
        ("5.3.8", {"lambda": 1.0, "phi": -0.5}),
    ]
    for fam, params in bad:
        with pytest.raises(DomainError):
            kb.validate_params(fam, params)


def test_param_count_and_name_errors():
    with pytest.raises(DomainError):
        kb.validate_params("5.3.2", (2.0, 3.0))
    with pytest.raises(DomainError):
        kb.validate_params("5.3.2", {"mu": 2.0})
    with pytest.raises(DomainError):
        kb.validate_params("5.3.4", (1.0,))


def test_zero_first_eigenvalue_accepted_with_warning():
    for fam, params in [("5.3.1", (0.0, 3.0)), ("5.3.3", (0.0,)),
                        ("5.3.5", (0.0,))]:
        with pytest.warns(ParameterWarning):
            p = kb.validate_params(fam, params)
        assert list(p.values())[0] == 0.0


def test_defaults_used_when_params_omitted():
    alg = kb.build_algebra("5.3.2", None)
    assert alg.params == {"lambda": 2.0}


@pytest.mark.parametrize("fam", FAMS)
def test_bracket_x1_x2_is_x3(fam):
    alg = kb.build_algebra(fam, None)
    e = np.eye(5)
    assert np.array_equal(kb.bracket(alg, e[0], e[1]), e[2])
    # X1 acts trivially on the ideal
    for i in (2, 3, 4):
        assert np.array_equal(kb.bracket(alg, e[0], e[i]), np.zeros(5))


def test_ad_x2_matches_catalog_template_531():
    alg = kb.build_algebra("5.3.1", (2.0, 3.0))
    ad2 = kb.ad_matrix(alg, np.eye(5)[1])
    assert ad2[2, 0] == -1.0  # [X2, X1] = -X3
    assert ad2[2, 2] == 2.0
    assert ad2[3, 3] == 3.0
    assert ad2[4, 4] == 1.0
    assert np.count_nonzero(ad2) == 4


def test_ad_x2_block_equals_ad2_matrix():
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        ad2 = kb.ad_matrix(alg, np.eye(5)[1])
        assert np.array_equal(ad2[2:, 2:], kb.ad2_matrix(fam, params))


def test_ad_x2_538_rotation_block():
    ph = math.pi / 3
    A = kb.ad2_matrix("5.3.8", {"lambda": 2.0, "phi": ph})
    assert np.allclose(A[:2, :2], [[math.cos(ph), -math.sin(ph)],
                                   [math.sin(ph), math.cos(ph)]], atol=1e-15)
    assert A[2, 2] == 2.0


@given(U=vec5, V=vec5)
@settings(max_examples=60, deadline=None)
def test_bracket_antisymmetric_bitwise(U, V):
    alg = kb.build_algebra("5.3.5", (2.0,))
    assert np.array_equal(kb.bracket(alg, U, V), -kb.bracket(alg, V, U))


@given(U=vec5, V=vec5)
@settings(max_examples=60, deadline=None)
def test_bracket_lands_in_derived_ideal(U, V):
    alg = kb.build_algebra("5.3.6", (2.0,))
    W = kb.bracket(alg, U, V)
    assert W[0] == 0.0
    assert W[1] == 0.0


@given(U=vec5, V=vec5, W=vec5)
@settings(max_examples=40, deadline=None)
def test_jacobi_identity_random_triples(U, V, W):
    alg = kb.build_algebra("5.3.8", None)
    J = (kb.bracket(alg, U, kb.bracket(alg, V, W))
         + kb.bracket(alg, V, kb.bracket(alg, W, U))
         + kb.bracket(alg, W, kb.bracket(alg, U, V)))
    scale = 1.0 + max(np.max(np.abs(U)), np.max(np.abs(V)), np.max(np.abs(W))) ** 3
    assert np.max(np.abs(J)) / scale < 1e-12


def test_ad_matrix_is_bracket_in_matrix_form():
    rng = np.random.default_rng(7)
    for fam, params in CANONICAL:
        alg = kb.build_algebra(fam, params)
        U = rng.uniform(-3, 3, 5)
        V = rng.uniform(-3, 3, 5)
        assert np.allclose(kb.ad_matrix(alg, U) @ V, kb.bracket(alg, U, V),
                           atol=1e-12)


def test_as_vector_rejects_bad_shapes():
    with pytest.raises(DomainError):
        kb.classify_orbit("5.3.4", None, [1.0, 2.0, 3.0])
