"""Property tests of the mixture bounds over drawn codes and noise levels."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cib import estimators
from cib.estimators import (
    MODE_AS_PRINTED,
    MODE_CITED_SOURCE,
    EmbeddedDataset,
    bound_report,
)
from helpers import einsum_bound_report

# derandomized so that a tier-1 failure replays from its test id; no
# example database is written
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)

COORD = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False,
                  allow_subnormal=False)
MODES = st.sampled_from([MODE_AS_PRINTED, MODE_CITED_SOURCE])


@st.composite
def code_matrices(draw, max_rows=24, max_dim=9):
    n = draw(st.integers(1, max_rows))
    d = draw(st.integers(1, max_dim))
    return draw(arrays(np.float64, (n, d), elements=COORD))


def _close(a, b):
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@PROPERTY
@given(codes=code_matrices(), mode=MODES, seed=st.integers(0, 2**32 - 1),
       sigma2=st.floats(0.1, 10.0), eta2=st.floats(0.0, 5.0))
def test_row_permutation_invariance(codes, mode, seed, sigma2, eta2):
    perm = np.random.default_rng(seed).permutation(codes.shape[0])
    labels = np.zeros(codes.shape[0], dtype=int)
    data = EmbeddedDataset(codes, labels, sigma2, eta2)
    shuffled = EmbeddedDataset(codes[perm], labels, sigma2, eta2)
    assert _close(bound_report(shuffled, mode).unconditional, bound_report(data, mode).unconditional)


@PROPERTY
@given(data=st.data(), codes=code_matrices(), mode=MODES,
       sigma2=st.floats(0.1, 10.0), eta2=st.floats(0.0, 5.0))
def test_translation_invariance(data, codes, mode, sigma2, eta2):
    shift = data.draw(arrays(np.float64, (codes.shape[1],), elements=COORD))
    labels = np.zeros(codes.shape[0], dtype=int)
    moved = EmbeddedDataset(codes + shift, labels, sigma2, eta2)
    data = EmbeddedDataset(codes, labels, sigma2, eta2)
    assert _close(bound_report(moved, mode).unconditional, bound_report(data, mode).unconditional)


@PROPERTY
@given(codes=code_matrices(), sigmas=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=4))
def test_cited_source_lies_in_zero_log_n_and_falls_as_sigma2_grows(codes, sigmas):
    n = codes.shape[0]
    labels = np.zeros(n, dtype=int)
    values = [bound_report(EmbeddedDataset(codes, labels, s2, 0.0), MODE_CITED_SOURCE).unconditional
              for s2 in sorted(sigmas)]
    for value in values:
        assert -1e-12 <= value <= math.log(n) + 1e-12
    for wider, narrower in zip(values[1:], values):
        assert wider <= narrower + 1e-12


@PROPERTY
@given(codes=code_matrices(), mode=MODES, label=st.integers(0, 9),
       sigma2=st.floats(0.1, 10.0), eta2=st.floats(0.0, 5.0))
def test_single_class_aggregate_equals_unconditional(codes, mode, label, sigma2, eta2):
    data = EmbeddedDataset(codes, np.full(codes.shape[0], label), sigma2, eta2)
    report = bound_report(data, mode)
    assert report.aggregate == report.unconditional


@PROPERTY
@given(codes=code_matrices(max_rows=60), mode=MODES, seed=st.integers(0, 2**32 - 1),
       threads=st.sampled_from([1, 2]), tile=st.integers(1, 4000),
       sigma2=st.floats(0.1, 10.0), eta2=st.floats(0.0, 5.0))
def test_report_does_not_depend_on_thread_count_or_tile_size(codes, mode, seed, threads, tile, sigma2, eta2):
    labels = np.random.default_rng(seed).integers(0, 3, size=codes.shape[0])
    data = EmbeddedDataset(codes, labels, sigma2, eta2)
    with mock.patch.object(estimators, "_bound_threads", lambda: 1):
        expected = bound_report(data, mode).to_json_dict()
    with (mock.patch.object(estimators, "_bound_threads", lambda: threads),
          mock.patch.object(estimators, "_TILE", tile), mock.patch.object(estimators, "_MIN_ROWS", 1)):
        assert bound_report(data, mode).to_json_dict() == expected


@st.composite
def labelled_codes(draw):
    """Codes with grouped, shuffled, one-class or singleton labels, some rows duplicated.

    N is drawn on both sides of 128 and 181, where a report first takes more
    than one tile (and starts its helper thread) with two threads and with one.
    """
    arrangement = draw(st.sampled_from(["grouped", "shuffled", "one", "singletons"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = int(rng.integers(120, 191) if rng.random() < 0.5 else rng.integers(1, 25))
    codes = rng.normal(scale=rng.uniform(0.1, 5.0), size=(n, int(rng.integers(1, 10))))
    codes[rng.integers(0, n, size=rng.integers(0, n + 1))] = codes[rng.integers(0, n)]  # duplicates
    classes = int(rng.integers(2, 8))
    if arrangement == "grouped":
        labels = np.sort(rng.integers(0, classes, size=n))
    elif arrangement == "shuffled":
        labels = rng.integers(0, classes, size=n)
    elif arrangement == "one":
        labels = np.full(n, classes)
    else:  # each row its own class, in a shuffled order
        labels = rng.permutation(n)
    return codes, labels


@settings(PROPERTY, max_examples=80)
@given(drawn=labelled_codes(), mode=MODES, outer=st.booleans(), weights=st.booleans(),
       threads=st.sampled_from([1, 2]), sigma2=st.floats(0.1, 10.0), eta2=st.floats(0.0, 5.0))
def test_report_equals_one_einsum_pass_per_class(drawn, mode, outer, weights, threads, sigma2, eta2):
    codes, labels = drawn
    data = EmbeddedDataset(codes, labels, sigma2, eta2)
    with mock.patch.object(estimators, "_bound_threads", lambda: threads):
        report = bound_report(data, mode, outer, weights)
        assert bound_report(data, mode).unconditional == report.unconditional
    assert report == einsum_bound_report(data, mode, outer, weights)
