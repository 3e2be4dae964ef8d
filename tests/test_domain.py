"""Each range rule is written once, in the library: every entry point refuses a
bad local dimension (symmetry.check_dims), prior (minerr.Priors) or batch
(simulate.check_batch) with that rule's text."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stateid import checks, minerr, unambiguous
from stateid.minerr import EQUAL_PRIORS, Priors
from stateid.povm import Povm
from stateid.simulate import GlobalTrialSpec, LoccTrialSpec, check_batch, run_batch
from stateid.symmetry import bipartite_toolkit, build_toolkit, check_dims, dimension_table

DIMS_RULE = r"^dimensions must be \(d,\) or \(d_a, d_b\), each an integer >= 2, got "
PRIORS_RULE = r"^priors must be "
BATCH_RULE = (r"^a batch needs n >= 1 trials and workers >= 1, each an integer, and an "
              r"integer seed >= 0, got ")

BAD_PARTY = st.integers(-3, 1) | st.just(2.5)
GOOD_PARTY = st.integers(2, 4)
BAD_SPLIT = (st.tuples(BAD_PARTY, GOOD_PARTY) | st.tuples(GOOD_PARTY, BAD_PARTY)
             | st.tuples(BAD_PARTY, BAD_PARTY))
BAD_ETA1 = (st.sampled_from([math.nan, math.inf, -math.inf]) | st.floats(-10.0, -5e-324)
            | st.floats(math.nextafter(1.0, 2.0), 10.0))
BAD_COUNT = st.integers(-3, 0) | st.sampled_from([2.5, 4.0, True, False])
BAD_SEED = st.integers(-3, -1) | st.sampled_from([7.0, 0.0, True, False])

P = Priors.from_eta1


def _check_entry(check):
    """(name, dimensions, takes a prior, call) of a registry check: its grid
    point's leading integers are dimensions, and a float after them a prior."""
    n_dims = sum(isinstance(v, int) for v in check.grid[0])
    takes_prior = len(check.grid[0]) > n_dims
    return (f"checks.{check.grid_name}", n_dims, takes_prior,
            lambda *args: check.evaluate(*args[:n_dims], *args[n_dims:] if takes_prior else ()))


# (name, dimensions, takes a prior, call(*dims, eta1)), with eta1 <= 1/2 as
# the separable element needs.  Every registry check with a grid: no_error's
# one point is the run's seed, which numpy's default_rng rules.
ENTRIES = [
    ("minerr.max_success_global", 1, True,
     lambda d, eta1: minerr.max_success_global(d, P(eta1))),
    ("minerr.max_success_eigenvalue_route", 1, True,
     lambda d, eta1: minerr.max_success_eigenvalue_route(d, P(eta1))),
    ("minerr.optimal_global_povm", 1, True,
     lambda d, eta1: minerr.optimal_global_povm(d, P(eta1))),
    ("unambiguous.max_success_global", 1, False,
     lambda d, eta1: unambiguous.max_success_global(d)),
    ("unambiguous.optimal_global_povm", 1, False,
     lambda d, eta1: unambiguous.optimal_global_povm(d)),
    ("GlobalTrialSpec", 1, True,
     lambda d, eta1: GlobalTrialSpec(minerr.optimal_global_povm(d, P(eta1)), d, P(eta1))),
    ("dimension_table", 1, False, lambda d, eta1: dimension_table(d)),
    ("build_toolkit", 1, False, lambda d, eta1: build_toolkit(d)),
    ("unambiguous.max_success_separable", 2, False,
     lambda d_a, d_b, eta1: unambiguous.max_success_separable(d_a, d_b)),
    ("minerr.locc_protocol", 2, True,
     lambda d_a, d_b, eta1: minerr.locc_protocol(d_a, d_b, P(eta1))),
    ("unambiguous.locc_protocol", 2, False,
     lambda d_a, d_b, eta1: unambiguous.locc_protocol(d_a, d_b)),
    ("minerr.locc_povm_element", 2, True,
     lambda d_a, d_b, eta1: minerr.locc_povm_element(d_a, d_b, P(eta1))),
    ("unambiguous.separable_unamb_povm", 2, False,
     lambda d_a, d_b, eta1: unambiguous.separable_unamb_povm(
         d_a, d_b, unambiguous.SeparableCoeffs.optimal())),
    ("LoccTrialSpec", 2, True,
     lambda d_a, d_b, eta1: LoccTrialSpec(minerr.locc_protocol(d_a, d_b, P(eta1)), P(eta1))),
    ("bipartite_toolkit", 2, False, lambda d_a, d_b, eta1: bipartite_toolkit(d_a, d_b)),
] + [_check_entry(check) for check in checks.CHECKS if check.grid]


def test_every_grid_check_is_an_entry():
    names = {name for name, *_ in ENTRIES if name.startswith("checks.")}
    assert names == {f"checks.{check.grid_name}" for check in checks.CHECKS if check.grid}
    assert len(names) == len(checks.CHECKS) - 1
    assert {name for name, _, takes_prior, _ in ENTRIES if takes_prior and name in names} == {
        "checks.minerr_dual_route_grid", "checks.minerr_locc_equality_grid"}


@settings(max_examples=20, deadline=None, derandomize=True)
@example(d=0)
@example(d=1)
@given(d=BAD_PARTY)
def test_bad_local_dimension_is_refused_by_every_entry(d):
    for name, n_dims, _, call in ENTRIES:
        if n_dims == 1:
            with pytest.raises(ValueError, match=DIMS_RULE + re.escape(f"{(d,)!r}") + "$"):
                call(d, 0.3)


@settings(max_examples=30, deadline=None, derandomize=True)
@example(split=(1, 2))
@example(split=(-1, 2))
@given(split=BAD_SPLIT)
def test_bad_split_is_refused_by_every_entry(split):
    # the split, or (split_identity, which reads the parties one at a time) a bad party
    named = {repr(split)} | {repr((d,)) for d in split if d not in range(2, 5)}
    for name, n_dims, _, call in ENTRIES:
        if n_dims == 2:
            with pytest.raises(ValueError, match=DIMS_RULE) as err:
                call(*split, 0.3)
            assert str(err.value).partition(", got ")[2] in named, name


@settings(max_examples=20, deadline=None, derandomize=True)
@given(dims=BAD_SPLIT | st.tuples(BAD_PARTY) | st.tuples(GOOD_PARTY, GOOD_PARTY, GOOD_PARTY)
       | st.just(()))
def test_check_dims_and_povm_refuse_any_other_shape(dims):
    with pytest.raises(ValueError, match=DIMS_RULE + re.escape(repr(dims)) + "$"):
        check_dims(dims)
    unit = np.zeros((6,) * len(dims))
    unit[(0,) * len(dims)] = 1.0
    with pytest.raises(ValueError, match=DIMS_RULE + re.escape(repr(dims)) + "$"):
        Povm(dims, {1: unit})


@settings(max_examples=30, deadline=None, derandomize=True)
@given(eta1=BAD_ETA1)
def test_bad_prior_is_refused_by_every_entry(eta1):
    for name, n_dims, takes_prior, call in ENTRIES:
        if takes_prior:
            with pytest.raises(ValueError, match=PRIORS_RULE):
                call(*(2,) * n_dims, eta1)
    with pytest.raises(ValueError, match=PRIORS_RULE):
        Priors(eta1, 1.0 - eta1)


@settings(max_examples=30, deadline=None, derandomize=True)
@example(n=True, workers=1, seed=7)      # a bool is an Integral
@example(n=3, workers=True, seed=7)
@example(n=3, workers=1, seed=7.0)       # numpy's TypeError before the rule
@example(n=3, workers=1, seed=-1)        # numpy's ValueError before the rule
@example(n=3, workers=1, seed=True)
@given(n=BAD_COUNT | st.integers(1, 20), workers=BAD_COUNT | st.integers(1, 3),
       seed=BAD_SEED | st.integers(0, 2**70))
def test_bad_batch_is_refused_before_any_trial(n, workers, seed):
    spec = GlobalTrialSpec(minerr.optimal_global_povm(2, EQUAL_PRIORS), 2, EQUAL_PRIORS)
    calls = [(n, workers, seed), (workers, 1, 7), (1, n, 7), (1, 1, seed)]
    for args in calls:
        good = all(type(k) is int and k >= least for k, least in zip(args, (1, 1, 0)))
        if good:
            check_batch(*args)
            continue
        text = BATCH_RULE + re.escape(f"n={args[0]!r}, workers={args[1]!r}, "
                                      f"seed={args[2]!r}") + "$"
        with pytest.raises(ValueError, match=text):
            check_batch(*args)
        with pytest.raises(ValueError, match=text):
            run_batch(spec, args[0], args[2], args[1])
