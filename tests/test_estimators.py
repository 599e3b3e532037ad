"""Mixture bounds against a naive double-loop reference and their invariances."""

import collections
import math
import os
import threading

import numpy as np
import pytest

from cib import estimators
from cib.diffcore import NonFiniteError
from cib.estimators import (
    MODE_AS_PRINTED,
    MODE_CITED_SOURCE,
    EmbeddedDataset,
    bound_report,
)
from helpers import einsum_bound_on_codes, einsum_bounds, einsum_distance_tile


def naive_bound(codes, sigma2, eta2, mode):
    """Direct O(N^2) summation, scalar arithmetic only."""
    n, m = codes.shape
    width = eta2 + sigma2
    total = 0.0
    for i in range(n):
        inner = 0.0
        for j in range(n):
            diff = codes[i] - codes[j]
            if mode == MODE_AS_PRINTED:
                dist = math.sqrt(float(np.dot(diff, diff)))
            else:
                dist = float(np.dot(diff, diff))
            inner += math.exp(-0.5 * dist / width)
        if mode == MODE_CITED_SOURCE:
            inner /= n
        total += math.log(inner)
    return -total / n - m * math.log(sigma2 / width)


def _two_cluster(n=64, d=3, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    codes = np.concatenate(
        [rng.normal(-2.0, 0.5, size=(half, d)), rng.normal(2.0, 0.5, size=(n - half, d))]
    )
    labels = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return EmbeddedDataset(codes=codes, labels=labels, sigma2=0.8, eta2=0.3)


@pytest.mark.parametrize("sigma2,eta2,named", [
    (float("nan"), 0.0, "sigma2"), (float("inf"), 0.0, "sigma2"), (0.0, 0.0, "sigma2"),
    (1.0, float("nan"), "eta2"), (1.0, float("inf"), "eta2"), (1.0, -0.5, "eta2"),
])
def test_noise_variance_out_of_range_rejected_naming_it(sigma2, eta2, named):
    with pytest.raises(ValueError, match=f"^{named} must be"):
        EmbeddedDataset(np.zeros((2, 1)), np.array([0, 1]), sigma2=sigma2, eta2=eta2)


class TestMixtureBound:
    def test_labels_must_align_with_code_rows(self):
        with pytest.raises(ValueError, match="labels must align with code rows"):
            EmbeddedDataset(np.zeros((3, 2)), np.zeros(2, dtype=int), sigma2=1.0)

    def test_single_sample_as_printed_collapses(self):
        data = EmbeddedDataset(np.array([[1.0, 2.0]]), np.array([0]), sigma2=0.5, eta2=1.5)
        expected = -2.0 * math.log(0.5 / 2.0)
        assert bound_report(data, MODE_AS_PRINTED).unconditional == pytest.approx(expected, abs=1e-15)

    def test_single_sample_zero_eta_is_zero(self):
        data = EmbeddedDataset(np.array([[1.0, 2.0]]), np.array([0]), sigma2=0.5, eta2=0.0)
        assert bound_report(data, MODE_AS_PRINTED).unconditional == 0.0
        assert bound_report(data, MODE_CITED_SOURCE).unconditional == 0.0

    @pytest.mark.parametrize("mode", [MODE_AS_PRINTED, MODE_CITED_SOURCE])
    def test_matches_naive_double_loop(self, mode):
        data = _two_cluster()
        expected = naive_bound(data.codes, data.sigma2, data.eta2, mode)
        assert bound_report(data, mode).unconditional == pytest.approx(expected, abs=1e-10)

    def test_row_permutation_invariance(self):
        rng = np.random.default_rng(4)
        data = _two_cluster(seed=1)
        perm = rng.permutation(data.count)
        shuffled = EmbeddedDataset(data.codes[perm], data.labels[perm], data.sigma2, data.eta2)
        for mode in (MODE_AS_PRINTED, MODE_CITED_SOURCE):
            assert bound_report(shuffled, mode).unconditional == pytest.approx(
                bound_report(data, mode).unconditional, abs=1e-12
            )

    def test_translation_invariance(self):
        data = _two_cluster(seed=2)
        moved = EmbeddedDataset(data.codes + np.array([10.0, -3.0, 0.25]), data.labels,
                                data.sigma2, data.eta2)
        for mode in (MODE_AS_PRINTED, MODE_CITED_SOURCE):
            assert bound_report(moved, mode).unconditional == pytest.approx(
                bound_report(data, mode).unconditional, abs=1e-12
            )

    def test_invalid_noise_rejected(self):
        with pytest.raises(ValueError):
            EmbeddedDataset(np.zeros((2, 2)), np.zeros(2, dtype=int), sigma2=0.0)
        with pytest.raises(ValueError):
            EmbeddedDataset(np.zeros((2, 2)), np.zeros(2, dtype=int), sigma2=1.0, eta2=-0.1)

    def test_nonfinite_codes_are_a_numerical_failure(self):
        with pytest.raises(NonFiniteError, match="codes must be finite"):
            EmbeddedDataset(np.array([[0.0, np.inf], [1.0, 0.0]]), np.zeros(2, dtype=int), sigma2=1.0)

    def test_zero_width_codes_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            EmbeddedDataset(np.zeros((5, 0)), np.zeros(5, dtype=int), sigma2=1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            bound_report(_two_cluster(), "exact")


def _class_bound(data, y, mode=MODE_CITED_SOURCE, printed_outer_normalization=False):
    """The bound of class ``y`` alone, as the report gives it."""
    return bound_report(data, mode, printed_outer_normalization).per_class[y][1]


class TestConditionalBound:
    def test_single_class_dataset_equals_unconditional(self):
        data = EmbeddedDataset(np.random.default_rng(0).normal(size=(10, 2)),
                               np.zeros(10, dtype=int), sigma2=1.0, eta2=0.5)
        for mode in (MODE_AS_PRINTED, MODE_CITED_SOURCE):
            assert _class_bound(data, 0, mode) == bound_report(data, mode).unconditional

    def test_single_sample_class_collapses(self):
        codes = np.array([[0.0, 0.0], [5.0, 5.0], [5.5, 5.0]])
        data = EmbeddedDataset(codes, np.array([0, 1, 1]), sigma2=0.5, eta2=1.5)
        expected = -2.0 * math.log(0.5 / 2.0)
        assert _class_bound(data, 0, MODE_AS_PRINTED) == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("mode", [MODE_AS_PRINTED, MODE_CITED_SOURCE])
    def test_per_class_values_match_restricted_naive_sum(self, mode):
        data = _two_cluster(seed=3)
        for y in (0, 1):
            codes_y = data.codes[data.labels == y]
            expected = naive_bound(codes_y, data.sigma2, data.eta2, mode)
            assert _class_bound(data, y, mode) == pytest.approx(expected, abs=1e-10)

    def test_printed_outer_normalization_scales_log_part(self):
        data = _two_cluster(seed=5)
        width = data.sigma2 + data.eta2
        const = -data.dim * math.log(data.sigma2 / width)
        for y in (0, 1):
            n_y = int(np.sum(data.labels == y))
            default = _class_bound(data, y, MODE_CITED_SOURCE)
            printed = _class_bound(data, y, MODE_CITED_SOURCE, printed_outer_normalization=True)
            assert printed == pytest.approx((default - const) * n_y / data.count + const, abs=1e-12)

    def test_absent_class_has_no_entry(self):
        data = _two_cluster()
        assert sorted(bound_report(data).per_class) == [0, 1]
        with pytest.raises(KeyError):
            _class_bound(data, 7)


class TestBoundReport:
    def test_unknown_mode_rejected_naming_both_modes(self):
        with pytest.raises(ValueError, match="unknown mode 'printed'; expected one of .*as-printed.*cited-source"):
            bound_report(_two_cluster(), "printed")

    def test_single_class_aggregate_equals_unconditional_exactly(self):
        rng = np.random.default_rng(14)
        data = EmbeddedDataset(rng.normal(size=(20, 2)), np.zeros(20, dtype=int),
                               sigma2=0.7, eta2=0.2)
        report = bound_report(data, MODE_CITED_SOURCE)
        assert report.aggregate == report.unconditional

    def test_disjoint_classes_conditioning_reduces_the_bound(self):
        rng = np.random.default_rng(21)
        for trial in range(10):
            centers = rng.uniform(-20.0, 20.0, size=(2, 2))
            while np.linalg.norm(centers[0] - centers[1]) < 10.0:
                centers = rng.uniform(-20.0, 20.0, size=(2, 2))
            codes = np.concatenate([centers[0] + rng.normal(0, 0.3, (16, 2)),
                                    centers[1] + rng.normal(0, 0.3, (16, 2))])
            labels = np.repeat([0, 1], 16)
            data = EmbeddedDataset(codes, labels, sigma2=0.5, eta2=0.5)
            report = bound_report(data, MODE_CITED_SOURCE)
            assert report.aggregate <= report.unconditional + 1e-12

    def test_json_document_field_names(self):
        data = _two_cluster(seed=8)
        doc = bound_report(data, MODE_CITED_SOURCE).to_json_dict()
        assert set(doc) == {"mode", "unconditional", "aggregate", "per_class"}
        assert doc["mode"] == "cited-source"
        assert [set(e) for e in doc["per_class"]] == [{"label", "count", "value"}] * 2
        assert [e["label"] for e in doc["per_class"]] == [0, 1]
        assert sum(e["count"] for e in doc["per_class"]) == data.count

    def test_modes_agree_for_single_point(self):
        data = EmbeddedDataset(np.array([[0.5, -1.0]]), np.array([0]), sigma2=0.4, eta2=0.6)
        assert bound_report(data, MODE_AS_PRINTED).unconditional == bound_report(
            data, MODE_CITED_SOURCE).unconditional

    def test_as_printed_direction_violations_are_reported_not_asserted(self, capsys):
        # the compact published form does not provably bound the mutual
        # information, so the conditioning direction is only surveyed
        rng = np.random.default_rng(33)
        violations = 0
        for _ in range(10):
            codes = np.concatenate([rng.normal(-5, 0.3, (16, 2)), rng.normal(5, 0.3, (16, 2))])
            data = EmbeddedDataset(codes, np.repeat([0, 1], 16), sigma2=0.5, eta2=0.5)
            report = bound_report(data, MODE_AS_PRINTED)
            if report.aggregate > report.unconditional + 1e-12:
                violations += 1
        print(f"\nas-printed conditioning direction violated on {violations}/10 instances")


def _every_bound(data, mode, bounds=estimators):
    """Every value the public functions of ``bounds`` derive from the kernel, in a fixed order."""
    values = [bounds.bound_report(data, mode).unconditional]
    for outer in (False, True):
        for weights in (False, True):
            report = bounds.bound_report(data, mode, outer, weights)
            values += [report.unconditional, report.aggregate]
            values += [v for _, (_, v) in sorted(report.per_class.items())]
    return values


class TestTiledKernel:
    """The tiled per-coordinate kernel reproduces the einsum reference bit for bit."""

    @pytest.mark.parametrize("d", range(1, 33))
    def test_sq_distances_equal_einsum_tile(self, d):
        rng = np.random.default_rng(d)
        for n in (1, 2, 7, 300):
            codes = rng.normal(scale=3.0, size=(n, d))
            if n > 2:
                codes[-1] = codes[0]
            cols = np.ascontiguousarray(codes.T)
            reused = np.full(d * n * n + 5, np.nan)  # shared by every tile, larger than any of them
            tiles = [(np.arange(start, stop), einsum_distance_tile(codes, start, stop))
                     for start, stop in ((0, n), (0, 1), (n // 2, n), (n - 1, n))]
            shuffled = rng.permutation(n)[: (n + 1) // 2]  # rows gathered out of order
            tiles.append((shuffled, einsum_distance_tile(codes, 0, n)[shuffled]))
            for rows, expected in tiles:
                fresh = np.empty(d * rows.size * n)
                got = estimators._sq_distances(cols, rows, fresh)
                assert got.flags.c_contiguous and np.shares_memory(got, fresh)
                assert np.array_equal(got, expected)
                into = estimators._sq_distances(cols, rows, reused)
                assert into.flags.c_contiguous and np.shares_memory(into, reused)
                assert np.array_equal(into, got)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("mode", [MODE_AS_PRINTED, MODE_CITED_SOURCE])
    @pytest.mark.parametrize("n,d", [(1, 3), (2, 1), (23, 5), (40, 8), (61, 11), (2000, 8)])
    def test_bounds_equal_einsum_reference_at_any_tile_size(self, monkeypatch, threads, mode, n, d):
        rng = np.random.default_rng(100 * n + d)
        codes = rng.normal(scale=2.0, size=(n, d))
        labels = rng.integers(0, 3, size=n)
        if n > 2:
            codes[1] = codes[0]
            labels[-1] = 7  # a one-sample class
        data = EmbeddedDataset(codes, labels, sigma2=0.8, eta2=0.35)
        expected = _every_bound(data, mode, einsum_bounds)
        monkeypatch.setattr(estimators, "_bound_threads", lambda: threads)
        monkeypatch.setattr(estimators, "_MIN_ROWS", 1)
        # several tiles with a ragged last one, one-row tiles, one tile; at
        # N = 2000 wider ragged tiles, and one-row tiles for the unconditional
        # bound only, to keep the test short
        ragged = 4 * n - 1 if n < 100 else 16 * n - 1
        for tile in (ragged, 1, estimators._TILE):
            monkeypatch.setattr(estimators, "_TILE", tile)
            if tile == 1 and n > 100:
                assert bound_report(data, mode).unconditional == expected[0]
            else:
                assert _every_bound(data, mode) == expected


class _RecordingExecutor(estimators.ThreadPoolExecutor):
    """The helper-thread pool, counting how often a bound starts one."""

    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


def _wide_data(n=300, d=4, seed=3):
    rng = np.random.default_rng(seed)
    return EmbeddedDataset(rng.normal(size=(n, d)), rng.integers(0, 3, size=n), sigma2=0.9, eta2=0.2)


class TestThreads:
    """Code rows split over a helper thread: counted, propagated, never leaked."""

    def test_usable_cores_reads_the_affinity_mask(self, monkeypatch):
        if hasattr(os, "sched_getaffinity"):
            assert estimators.usable_cores() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert estimators.usable_cores() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert estimators.usable_cores() == 1

    @pytest.mark.parametrize(
        "cores,pool_worker,helpers", [(1, False, 0), (2, True, 0), (16, True, 0), (2, False, 1), (16, False, 1)]
    )
    def test_helper_only_with_a_spare_core_outside_pool_workers(self, monkeypatch, cores, pool_worker, helpers):
        data = _wide_data()
        expected = einsum_bound_on_codes(data.codes, data.dim, data.sigma2, data.eta2, MODE_CITED_SOURCE)
        monkeypatch.setattr(estimators, "usable_cores", lambda: cores)
        monkeypatch.setattr(estimators.multiprocessing, "parent_process",
                            lambda: object() if pool_worker else None)
        monkeypatch.setattr(_RecordingExecutor, "started", 0)
        monkeypatch.setattr(estimators, "ThreadPoolExecutor", _RecordingExecutor)
        assert estimators._bound_threads() == (1 if cores == 1 or pool_worker else 2)
        assert bound_report(data).unconditional == expected
        assert _RecordingExecutor.started == helpers

    def test_one_tile_starts_no_helper(self, monkeypatch):
        monkeypatch.setattr(estimators, "_bound_threads", lambda: 2)
        monkeypatch.setattr(_RecordingExecutor, "started", 0)
        monkeypatch.setattr(estimators, "ThreadPoolExecutor", _RecordingExecutor)
        bound_report(_wide_data(n=40))  # 40 * 40 elements fit one tile of _TILE // 2
        assert _RecordingExecutor.started == 0

    @pytest.mark.parametrize("failing_row", [0, 140, 150, 299])
    def test_failure_in_either_half_raises_and_leaks_no_thread(self, monkeypatch, failing_row):
        # 300 rows: the calling thread fills label-order rows 0-149, the helper 150-299
        data = _wide_data()
        target = np.argsort(data.labels, kind="stable")[failing_row]
        real = estimators._sq_distances

        def failing(cols, rows, buf):
            if target in rows:
                raise RuntimeError(f"injected failure at row {failing_row}")
            return real(cols, rows, buf)

        monkeypatch.setattr(estimators, "_bound_threads", lambda: 2)
        monkeypatch.setattr(estimators, "_TILE", 2 * 300 * 10)  # 10-row tiles, 15 per half
        monkeypatch.setattr(estimators, "_sq_distances", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"row {failing_row}"):
            bound_report(data)
        assert threading.active_count() == before

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("tile", [600, 150])
    def test_tiles_hold_at_least_min_rows_while_they_fit_min_rows_tiles(self, monkeypatch, threads, tile):
        heights, sizes = collections.Counter(), []
        real = estimators._sq_distances

        def recording(cols, rows, buf):
            heights[rows.size] += 1
            sizes.append(buf.size)
            return real(cols, rows, buf)

        monkeypatch.setattr(estimators, "_bound_threads", lambda: threads)
        # 600: one or two rows per thread without the floor, and four fit the
        # buffer bound; 150: four rows would not fit it
        monkeypatch.setattr(estimators, "_TILE", tile)
        monkeypatch.setattr(estimators, "_sq_distances", recording)
        data = _wide_data()
        bound_report(data)
        assert sum(h * c for h, c in heights.items()) == 300
        assert max(sizes) <= data.dim * max(estimators._MIN_ROWS * tile // threads, data.count)
        if tile == 600:
            # every row once, in tiles of _MIN_ROWS rows but for at most one ragged tile per thread
            assert max(heights) == estimators._MIN_ROWS > 1
            assert sum(c for h, c in heights.items() if h < estimators._MIN_ROWS) <= threads
        else:
            assert max(heights) < estimators._MIN_ROWS

    def test_one_pass_starts_one_helper_for_the_whole_report(self, monkeypatch):
        data = _wide_data()
        monkeypatch.setattr(estimators, "_bound_threads", lambda: 2)
        monkeypatch.setattr(_RecordingExecutor, "started", 0)
        monkeypatch.setattr(estimators, "ThreadPoolExecutor", _RecordingExecutor)
        pairs = []
        real = estimators._sq_distances

        def recording(cols, rows, buf):
            pairs.append(rows.size * cols.shape[1])
            return real(cols, rows, buf)

        monkeypatch.setattr(estimators, "_sq_distances", recording)
        bound_report(data)
        assert _RecordingExecutor.started == 1
        assert sum(pairs) == data.count**2

    def test_helper_keeps_the_callers_errstate(self, monkeypatch):
        monkeypatch.setattr(estimators, "_bound_threads", lambda: 2)
        monkeypatch.setattr(estimators, "_TILE", 2 * 300 * 10)
        seen = []
        real = estimators._sq_distances

        def recording(cols, rows, buf):
            seen.append((threading.get_ident(), np.geterr()["under"]))
            return real(cols, rows, buf)

        monkeypatch.setattr(estimators, "_sq_distances", recording)
        with np.errstate(under="raise"):
            bound_report(_wide_data())
        assert len({ident for ident, _ in seen}) == 2
        assert {mode for _, mode in seen} == {"raise"}
