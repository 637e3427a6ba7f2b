"""Property tests: CLI exit codes on fuzzed JSON, the separatrix landings
of the model field, and series identities.

Examples are derandomized, so every run checks the same cases.
"""

import cmath
import json
import math
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_main, scalar_separatrix_landings
from parafold.model import ModelField, bifurcation_angles, ds_invariant
from parafold.series import TruncatedSeries, series_distance
from parafold.unfolding import EigenvalueFunction, canonicalize

FUZZ = settings(max_examples=30, deadline=None, derandomize=True, database=None)
IDENTITY = settings(max_examples=20, deadline=None, derandomize=True, database=None)

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}

# ---------------------------------------------------------------------------
# fuzzed JSON into the CLI
# ---------------------------------------------------------------------------

values = st.one_of(st.floats(-4.0, 4.0), st.integers(-3, 3), st.sampled_from([1e-300, 1e300]))
junk = st.sampled_from([-1, 0, 2.5, 10**6, "2", None, True, float("nan"), float("inf"), [], {}])


def entries(**indices):
    """Coefficient entries with the given index strategies, ``re``/``im`` optional."""
    return st.lists(
        st.fixed_dictionaries(indices, optional={"re": values, "im": values}), max_size=6
    )


def paths(node, prefix=()):
    """Paths to every value below the root of a JSON document."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


@st.composite
def spoiled(draw, documents):
    """A valid document, or one with one value replaced by junk."""
    doc = draw(documents)
    if draw(st.booleans()):
        *head, last = draw(st.sampled_from(list(paths(doc))))
        parent = doc
        for key in head:
            parent = parent[key]
        parent[last] = draw(junk)
    return doc


@st.composite
def lambda_documents(draw):
    k = draw(st.integers(1, 5))
    truncation = draw(st.integers(k, 24))
    # a generic leading coefficient first, so that most documents load
    coefficients = [{"deg": k, "re": float(k + 1), "im": 0.0}]
    coefficients += draw(entries(deg=st.integers(0, truncation)))
    return {"k": k, "truncation": truncation, "coefficients": coefficients}


@st.composite
def family_documents(draw):
    k = draw(st.integers(1, 4))
    nz, neps = draw(st.integers(k + 1, 12)), draw(st.integers(1, 3))
    coefficients = [{"m": k + 1, "n": 0, "re": 1.0}, {"m": 0, "n": 1, "re": -1.0}]
    coefficients += draw(entries(m=st.integers(0, nz), n=st.integers(0, neps)))
    return {"k": k, "omega": {"Nz": nz, "Neps": neps, "coefficients": coefficients}}


KEYS = ["k", "truncation", "coefficients", "deg", "re", "im", "omega", "Nz", "Neps", "m", "n"]
any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-30, 30) | st.floats() | st.text("kmnrei{}[]", max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text("kmnrei", max_size=3), inner, max_size=5),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def check_cli(doc_path, doc):
    doc_path.write_text(json.dumps(doc), encoding="utf-8")
    for argv in (["canon", str(doc_path)], ["nf", "polynomial", str(doc_path)]):
        assert run_main(argv)[0] in DOCUMENTED_EXIT_CODES, (argv, doc)


@FUZZ
@given(doc=spoiled(st.one_of(lambda_documents(), family_documents())))
def test_cli_exit_codes_on_structured_documents(doc_path, doc):
    check_cli(doc_path, doc)


@FUZZ
@given(doc=any_json)
def test_cli_exit_codes_on_arbitrary_json(doc_path, doc):
    check_cli(doc_path, doc)


# ---------------------------------------------------------------------------
# separatrix landings of z' = z^{k+1} - eps at generic eps
# ---------------------------------------------------------------------------


@IDENTITY
@given(
    k=st.integers(1, 8),
    ray=st.integers(0, 15),
    offset=st.floats(0.05, 0.95),
    log_abs=st.floats(-1.0, 0.5),
)
def test_separatrix_landings_name_each_trunk_edge_twice(k, ray, offset, log_abs):
    # each of the k alpha-omega zones meets infinity in two of the 2k
    # sectors between consecutive separatrices, so the pairs {land(j),
    # land(j+1)} are the gon's trunk edges, each twice
    theta = bifurcation_angles(k)[ray % (2 * k)] + offset * math.pi / k
    fld = ModelField(k, 10**log_abs * cmath.exp(1j * theta))
    land = scalar_separatrix_landings(fld)
    assert None not in land
    order = ds_invariant(fld).order
    trunk = [tuple(sorted(e)) for e in zip(order, order[1:])]
    pairs = [tuple(sorted(p)) for p in zip(land, land[1:] + land[:1])]
    assert Counter(pairs) == dict.fromkeys(trunk, 2)


# ---------------------------------------------------------------------------
# series identities on well-conditioned inputs: |c_0| >= 0.5, |c_n| <= 1
# ---------------------------------------------------------------------------


@st.composite
def unit_series(draw, max_order=40):
    order = draw(st.integers(4, max_order))
    radii = draw(st.lists(st.floats(0.0, 1.0, allow_subnormal=False), min_size=order + 1,
                          max_size=order + 1))
    phases = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=order + 1, max_size=order + 1))
    radii[0] = max(radii[0], 0.5)
    return TruncatedSeries(np.array(radii) * np.exp(1j * np.array(phases)))


def moduli(s):
    return TruncatedSeries(np.abs(s.coefficients))


def assert_residual(residual, bound, tol=1e-12):
    """Each coefficient of ``residual`` within ``tol`` times the same coefficient
    of ``bound``, the result of the same operation on the moduli: the size
    rounding errors can reach (plus the underflow threshold)."""
    limit = tol * np.abs(bound.coefficients) + sys.float_info.min
    assert (np.abs(residual.coefficients) <= limit).all()


@IDENTITY
@given(s=unit_series())
def test_reciprocal(s):
    r = s.reciprocal()
    assert_residual(s * r - 1.0, moduli(s) * moduli(r))


@IDENTITY
@given(s=unit_series())
def test_reversion(s):
    f = s.shift_up(1)  # f(x) = x s(x): f(0) = 0, |f'(0)| >= 0.5
    g = f.reversion()
    x = TruncatedSeries.identity(f.order)
    assert_residual(f.compose(g) - x, moduli(f).compose(moduli(g)))
    assert_residual(g.compose(f) - x, moduli(g).compose(moduli(f)))


@IDENTITY
@given(s=unit_series(), k=st.integers(2, 5))
def test_kth_root(s, k):
    u = s / s[0]
    root = u.kth_root(k)
    assert_residual(root**k - u, moduli(root) ** k)


@IDENTITY
@given(s=unit_series(max_order=30), k=st.integers(1, 4))
def test_canonicalize_is_idempotent(s, k):
    ef = EigenvalueFunction(k, ((k + 1) * s.extended(s.order + k)).shift_up(k))
    once = canonicalize(ef)
    twice = canonicalize(once.lam)
    assert once.lam.is_canonical()
    assert series_distance(twice.lam.lam, once.lam.lam) <= 1e-9
    assert series_distance(twice.h, TruncatedSeries.identity(twice.h.order)) <= 1e-9
