"""Randomized properties of the pointwise operator quantities, moment and
apply, over families, orders and interior point sets.

Every series value is within its truncation tail of the operator's exact
value: at most 0.1 * eps per unit share for a moment, eps * sup|f| for
apply.  Each point keeps its own series depth whatever the other points
of a call, so a vector call and per-point calls agree to rounding.
Operator values go through OperatorSpec.apply and moment only.

Each test replays, as explicit examples, the 20 cases its strategies drew
in a derandomized run, kept in property_cases.json as (family, n, rho,
the unit draws u, the other arguments).  Derandomized draws still move
with edits to src/ alone (Hypothesis takes literal constants from the
code under test), and with them the cases the suite covers and its wall
time; the recorded cases stay put.
"""

import json
from pathlib import Path

import numpy as np
from hypothesis import Phase, example, given, settings, strategies as st

from opgeom.funcspace import registry
from opgeom.operators import FAMILIES, OperatorSpec, family_record, moment

EPS = 1e-10
ROUNDING = 1e-12
PROPERTY = settings(phases=[Phase.explicit], deadline=None, database=None)
CASES = json.loads(Path(__file__).with_name("property_cases.json").read_text())


def case_of(family, n, rho, u):
    """The operator and the points lo + (hi - lo) u of its certified
    interval [lo, hi]."""
    fam = family_record(family)
    spec = OperatorSpec(family, n, rho=rho,
                        truncation_eps=EPS if fam.series else None)
    lo, hi = spec.certified_interval()
    return spec, lo + (hi - lo) * np.array(u)


@st.composite
def specs_and_points(draw, families=FAMILIES):
    """An operator of a random family and order, and 1..12 points inside
    its certified interval."""
    family = draw(st.sampled_from(families))
    fam = family_record(family)
    n = draw(st.integers(fam.min_n, 12))
    rho = draw(st.sampled_from((1.0, 2.0))) if fam.param == "rho" else None
    u = draw(st.lists(st.floats(0.001, 0.999), min_size=1, max_size=12))
    return case_of(family, n, rho, u)


def replayed(test):
    """test with each of its recorded cases as an explicit example,
    applied last first, so that they run in the recorded order."""
    for family, n, rho, u, args in reversed(CASES[test.__name__]):
        test = example(case=case_of(family, n, rho, u), **args)(test)
    return test


def moment_tail(spec):
    return 0.1 * EPS if spec.record.series else 0.0


SUP = {"e2": 1.0, "exp": np.e, "abs_half": 0.5, "osc": 1.0}  # sup|f| on [0, 1]


@PROPERTY
@given(specs_and_points(), st.integers(0, 4))
@replayed
def test_vector_moment_matches_per_point_calls(case, k):
    spec, xs = case
    each = np.array([moment(spec, k, float(x)) for x in xs])
    gap = moment(spec, k, xs) - each
    assert np.max(np.abs(gap)) <= ROUNDING


@PROPERTY
@given(specs_and_points(), st.sampled_from(("e2", "psi", "abs_half", "osc")))
@replayed
def test_vector_apply_matches_per_point_calls(case, name):
    spec, xs = case
    f = registry(name)
    each = np.array([spec.apply(f, float(x)) for x in xs])
    assert np.max(np.abs(spec.apply(f, xs) - each)) <= ROUNDING


@PROPERTY
@given(specs_and_points())
@replayed
def test_order_zero_and_one_moments(case):
    spec, xs = case
    tail = moment_tail(spec)
    assert np.max(np.abs(moment(spec, 0, xs) - 1.0)) <= tail + ROUNDING
    assert np.max(np.abs(moment(spec, 1, xs))) <= tail + ROUNDING


@PROPERTY
@given(specs_and_points())
@replayed
def test_apply_is_positive(case):
    spec, xs = case
    assert np.min(spec.apply(registry("abs_half"), xs)) >= 0.0


@PROPERTY
@given(specs_and_points(families=("mkz-symmetric",)), st.integers(0, 4))
@replayed
def test_symmetric_moments_mirror(case, k):
    # even moments are symmetric under x -> 1 - x, odd ones antisymmetric
    spec, xs = case
    gap = moment(spec, k, 1.0 - xs) - (-1.0) ** k * moment(spec, k, xs)
    assert np.max(np.abs(gap)) <= 2 * moment_tail(spec) + ROUNDING


@PROPERTY
@given(specs_and_points(), st.sampled_from(("e0", "e1")))
@replayed
def test_affine_reproduction(case, name):
    # every family reproduces e0 and e1; a series value only up to its
    # tail, since sup|e0| = sup|e1| = 1
    spec, xs = case
    f = registry(name)
    tail = EPS if spec.record.series else 0.0
    assert np.max(np.abs(spec.apply(f, xs) - f(xs))) <= tail + ROUNDING


@PROPERTY
@given(specs_and_points(families=("mkz-symmetric",)), st.sampled_from(tuple(SUP)))
@replayed
def test_reflection_identity(case, name):
    # mkz-reflected is the plain operator on f(1 - t) at 1 - x, bit for
    # bit; mkz-symmetric is the mean of the two up to their tails: each
    # of its branches at half the share and half the eps, each of the
    # one-branch operators at eps
    spec, xs = case
    f = registry(name)
    plain = OperatorSpec("mkz", spec.n, truncation_eps=EPS)
    reflected = OperatorSpec("mkz-reflected", spec.n, truncation_eps=EPS).apply(f, xs)
    assert np.array_equal(reflected, plain.apply(f.reflected(), 1.0 - xs))
    mean = 0.5 * (plain.apply(f, xs) + reflected)
    gap = spec.apply(f, xs) - mean
    assert np.max(np.abs(gap)) <= 1.5 * EPS * SUP[name] + ROUNDING
