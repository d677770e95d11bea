import math
import types
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
    with pytest.raises(DomainError,
                       match="^family tag must be a string, got float$"):
        kb.normalize_family(5.31)


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
    with pytest.raises(DomainError,
                       match=r"^family 5.3.2 does not take parameter\(s\) mu$"):
        kb.validate_params("5.3.2", {"lambda": 2.0, "mu": 1.0})


@pytest.mark.parametrize("family,params", [
    ("5.3.1", "23"), ("5.3.2", b"2"), ("5.3.4", ""), ("5.3.2", bytearray(b"2")),
    ("5.3.2", 2.0), ("5.3.4", 0), ("5.3.2", object()), ("5.3.1", {3.0, 2.0}),
    ("5.3.2", frozenset({2.0})), ("5.3.4", set())])
@pytest.mark.parametrize("entry", ["validate_params", "build_algebra",
                                   "params_from_sequence"])
def test_string_or_bytes_params_are_refused(entry, family, params):
    # list() would split them into characters: '23' would read as
    # lambda1 = 2, lambda2 = 3, and '' as the empty parameter list; a
    # number or another object list() cannot iterate is refused the same
    # way, and so is a set, which list() would read in its iteration order
    with pytest.raises(DomainError) as err:
        getattr(kb, entry)(family, params)
    assert str(err.value) == (
        f"family {family} takes its parameters as a dict or a sequence of "
        f"numbers, got {params!r}")


def test_a_mapping_is_read_as_a_dict():
    # a Mapping that is not a dict gives the dict's result, or its refusal
    for fam, params in (("5.3.2", {"lambda": 2.0}),
                        ("5.3.1", {"lambda2": 3.0, "lambda1": 2.0})):
        proxy = types.MappingProxyType(params)
        assert kb.validate_params(fam, proxy) == kb.validate_params(fam, params)
        got, want = kb.build_algebra(fam, proxy), kb.build_algebra(fam, params)
        assert got.params == want.params and np.array_equal(got.c, want.c)
    for params in ({"mu": 2.0}, {"lambda": "abc"}, {"lambda": 1.0}):
        with pytest.raises(DomainError) as want:
            kb.validate_params("5.3.2", params)
        with pytest.raises(DomainError) as got:
            kb.validate_params("5.3.2", types.MappingProxyType(params))
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value,line", [
    (math.inf, "parameter lambda must be finite, got inf"),
    (-math.inf, "parameter lambda must be finite, got -inf"),
    (math.nan, "parameter lambda must be finite, got nan"),
    ("abc", "parameter lambda must be a real number, got 'abc'"),
    (None, "parameter lambda must be a real number, got None"),
    (True, "parameter lambda must be a real number, got True")])
def test_non_finite_or_non_numeric_param_is_refused_by_name(value, line):
    # NaN != 0 holds, so only the finiteness check keeps NaN out of the
    # domain tests; both parameter paths refuse it by the parameter's name
    for params in ({"lambda": value}, [value]):
        with pytest.raises(DomainError) as err:
            kb.validate_params("5.3.2", params)
        assert str(err.value) == line


def test_c_max_follows_the_structure_tensor():
    # c_max is read off c, never passed in, so it cannot disagree with c
    alg = kb.build_algebra("5.3.6", {"lambda": 40.0})
    assert alg.c_max == 40.0
    with pytest.raises(TypeError):
        kb.LieAlgebra(family="5.3.6", params={}, c=alg.c, c_max=1.0)
    zero = kb.LieAlgebra(family="5.3.6", params={}, c=np.zeros((5, 5, 5)))
    assert zero.c_max == 0.0
    assert not kb.ad_matrix(zero, np.full(5, 1e300)).any()


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


@pytest.mark.parametrize("k", range(5))
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_coordinates_are_refused(value, k):
    # one vector is checked in Python floats, a stack in numpy
    v = np.ones(5)
    v[k] = value
    stack = np.ones((3, 5))
    stack[1] = v
    for check, arg in ((kb.algebra.as_vector5, v), (kb.algebra.as_vector5, list(v)),
                       (kb.algebra.as_stack5, v), (kb.algebra.as_stack5, stack)):
        with pytest.raises(DomainError) as err:
            check(arg, "covector")
        assert str(err.value) == "covector must have finite coordinates"


def test_a_float64_array_is_taken_as_it_is():
    # np.asarray(v, dtype=float) returns such an array itself; anything
    # else becomes a new float64 ndarray
    v = np.arange(5.0)
    assert kb.algebra.as_vector5(v) is v
    assert kb.algebra.as_stack5(v) is v
    for other in (v.view(type("Sub", (np.ndarray,), {})), v.astype(np.float32),
                  v.astype(">f8"), v.astype(int), v.tolist()):
        got = kb.algebra.as_vector5(other)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.dtype.isnative and np.array_equal(got, v)


_CASE8 = [1.0, 1.0, 1.0, 1.0, 1.0]
# each entry point with one count or seed argument replaced by v
COUNT_ENTRY_POINTS = {
    "verify_proposition n": lambda v: kb.verify_proposition(
        "5.3.2", None, 8, n=v, seed=1),
    "verify_proposition seed": lambda v: kb.verify_proposition(
        "5.3.2", None, 8, n=5, seed=v),
    "verify_proposition case": lambda v: kb.verify_proposition(
        "5.3.2", None, v, n=5, seed=1),
    "md_scan n": lambda v: kb.md_scan("5.3.1", None, n=v, seed=1),
    "md_scan seed": lambda v: kb.md_scan("5.3.1", None, n=16, seed=v),
    "partition_check pairs": lambda v: kb.partition_check(
        "5.3.2", None, pairs=v, seed=1),
    "partition_check probe_points": lambda v: kb.partition_check(
        "5.3.2", None, pairs=3, seed=1, probe_points=v),
    "partition_check seed": lambda v: kb.partition_check(
        "5.3.2", None, pairs=3, seed=v),
    "sample_orbit n": lambda v: kb.sample_orbit(
        kb.build_algebra("5.3.1", None), _CASE8, v, seed=1),
    "sample_orbit seed": lambda v: kb.sample_orbit(
        kb.build_algebra("5.3.1", None), _CASE8, 3, seed=v),
    "local_triviality_probe n": lambda v: kb.local_triviality_probe(
        "5.3.2", None, 8, n=v, seed=1),
    "local_triviality_probe seed": lambda v: kb.local_triviality_probe(
        "5.3.2", None, 8, n=5, seed=v),
    "local_triviality_probe case": lambda v: kb.local_triviality_probe(
        "5.3.2", None, v, n=5, seed=1),
}


@pytest.mark.parametrize("value", [2.5, 1.9, 0.5, math.inf, math.nan, True,
                                   "3", None])
@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_counts_and_seeds_must_be_integers(entry, value):
    # int() would run 2.5 as 2 and refuse 0.5 as "got 0"
    with pytest.raises(DomainError, match="must be an integer, got "):
        COUNT_ENTRY_POINTS[entry](value)


@pytest.mark.parametrize("entry", sorted(k for k in COUNT_ENTRY_POINTS
                                         if k.endswith(" seed")))
def test_negative_seeds_are_refused(entry):
    with pytest.raises(DomainError, match=r"^seed must be at least 0, got -1$"):
        COUNT_ENTRY_POINTS[entry](-1)


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
def test_integral_floats_count_as_their_integers(entry):
    value = 3 if entry.endswith(" probe_points") else 5
    as_int = COUNT_ENTRY_POINTS[entry](value)
    for same in (float(value), np.int64(value), np.float32(value)):
        other = COUNT_ENTRY_POINTS[entry](same)
        if isinstance(as_int, bool):
            assert other is as_int
        else:
            assert other.to_json_dict() == as_int.to_json_dict()


def test_as_count_bounds():
    assert kb.algebra.as_count("sample count", 1e5, 1) == 100000
    assert type(kb.algebra.as_count("seed", np.uint8(7), 0)) is int
    with pytest.raises(DomainError,
                       match=r"^sample count must be at least 1, got 0$"):
        kb.algebra.as_count("sample count", 0.0, 1)
    with pytest.raises(DomainError, match="must be an integer"):
        kb.algebra.as_count("seed", np.bool_(True), 0)


@pytest.mark.parametrize("value", [None, "abc", 1j, [1.0], True, np.True_])
def test_non_numeric_tolerance_or_radius_is_refused_by_name(value):
    # a library caller's value that float() cannot take is a DomainError
    # naming the argument, not a TypeError or ValueError; float() takes a
    # bool as 0 or 1, which is refused as well
    calls = {
        "sampling radius": lambda: kb.md_scan("5.3.1", None, n=8, seed=1,
                                              radius=value),
        "rank tolerance": lambda: kb.verify_proposition(
            "5.3.1", None, 8, n=5, seed=1, rank_tol=value),
    }
    for what, call in calls.items():
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == f"{what} must be a real number, got {value!r}"


@pytest.mark.parametrize("value", [10**400, 10**5000],
                         ids=["401 digits", "5001 digits"])
def test_number_past_the_float_range_is_refused(value):
    # float() raises OverflowError on such an int, and past 4300 digits
    # repr() raises ValueError; either way it is a domain error
    shown = "an int too long to show" if value > 10**4300 else repr(value)
    calls = {
        f"parameter lambda must be a real number, got {shown}":
            lambda: kb.validate_params("5.3.2", {"lambda": value}),
        "vector must hold real numbers: int too large to convert to float":
            lambda: kb.algebra.as_vector5([value, 0, 0, 0, 0]),
        f"tol must be a real number, got {shown}":
            lambda: kb.algebra.as_tolerance("tol", value),
        f"sampling radius must be a real number, got {shown}":
            lambda: kb.algebra.as_radius(value),
        f"phi_series arguments must be real numbers, got {shown}, 1.0":
            lambda: kb.phi_series(value, 1.0),
        f"snap_tol must be a real number, got {shown}":
            lambda: kb.classify_orbit("5.3.1", None, [1, 1, 1, 1, 1],
                                      snap_tol=value),
    }
    for line, call in calls.items():
        with pytest.raises(DomainError) as err:
            call()
        assert str(err.value) == line
