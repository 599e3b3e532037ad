"""Quartiles, the percentile rule, failure counting, reference comparison, speed probes."""

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_quartiles_match_statistics_quantiles():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.6]
    q1, med, q3 = stats.quartiles(values)
    assert [q1, q3] == [statistics.quantiles(values, n=4)[0], statistics.quantiles(values, n=4)[2]]
    assert med == statistics.median(values)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert stats.samples_beyond(1000, 99.0) == 10
    assert stats.percentile(values, 99.0) == 990
    assert stats.percentile(values[:-1], 99.0) is None
    assert stats.percentile(list(range(20)), 50.0) == 9
    assert stats.percentile(list(range(19)), 50.0) is None
    assert stats.percentile([], 50.0) is None


def test_describe_reports_only_the_highest_supported_tail():
    assert "p99" not in stats.describe(list(range(999)))
    assert stats.describe(list(range(999)))["p95"] == 949
    doc = stats.describe(list(range(1000)))
    assert doc["p99"] == 989 and "p95" not in doc
    assert set(stats.describe([1.0, 2.0, 3.0])) == {"median", "q1", "q3", "n"}


def test_ledger_counts_each_operation_and_failure():
    ledger = stats.Ledger()
    assert ledger.ratio == 0.0
    assert ledger.check(True, "ok") is True
    assert ledger.check(False, "bad exit") is False
    ledger.check(True, "ok")
    ledger.check(False, "mismatch")
    assert (ledger.attempted, ledger.failed) == (4, 2)
    assert ledger.ratio == 0.5
    assert ledger.failures == ["bad exit", "mismatch"]


def test_compare_counts_one_failure_per_mismatched_key():
    workload = workloads.DeskTrain()
    reference = {"acc_test": 0.98, "ce_test": 0.1, "ixt": 2.0}
    ledger = stats.Ledger()
    workloads.compare(ledger, workload, {"acc_test": 0.98, "ce_test": 0.1 * (1 + 1e-9), "ixt": 2.0}, reference)
    assert (ledger.attempted, ledger.failed) == (5, 0)
    ledger = stats.Ledger()
    values = {"acc_test": 0.979, "ce_test": 0.1 * (1 + 1e-4), "ixt": 2.0, "extra": 1.0}
    workloads.compare(ledger, workload, values, reference)
    assert (ledger.attempted, ledger.failed) == (5, 3)
    ledger = stats.Ledger()
    workloads.compare(ledger, workload, {}, None)
    assert (ledger.attempted, ledger.failed) == (1, 1)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_probes_only_while_entered():
    with speed.Sampler(interval=0.02) as sampler:
        _busy(0.2)
    taken = len(sampler.samples)
    assert taken >= 3 and sampler.spent == sum(sampler.samples)
    _busy(0.05)
    assert len(sampler.samples) == taken


def test_sampler_moves_into_pool_workers_and_restores_the_pool(tmp_path):
    import concurrent.futures
    import types

    module = types.SimpleNamespace(ProcessPoolExecutor=concurrent.futures.ProcessPoolExecutor)
    with speed.Sampler(interval=0.02) as sampler:
        with sampler.in_workers(module, tmp_path / "probes"):
            with module.ProcessPoolExecutor(1) as pool:
                list(pool.map(_busy, [0.3]))
    assert module.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert len(list((tmp_path / "probes").glob("probes-*.txt"))) == 1
    assert len(sampler.samples) >= 5 and sampler.spent >= sum(sampler.samples) - 1e-12
    outside = speed.Sampler()
    with outside.in_workers(module, tmp_path / "unused"):
        assert module.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
    assert not (tmp_path / "unused").exists()


def test_sampler_cost_weights_by_speed_at_each_sample():
    sampler = speed.Sampler()
    sampler.samples = [0.5, 0.25]  # one probe at half the speed of the other
    assert sampler.cost(2.0) == 2.0 * (2.0 + 4.0) / 2


def test_command_cost_takes_the_speed_sampled_inside_its_sections():
    result = workloads.CycleResult(timings=[
        workloads.Timing("train", 2.0, 2.0, [0.5]),
        workloads.Timing("train", 1.0, 1.0, [0.25]),
        workloads.Timing("estimate", 0.5, 0.5, []),
    ])
    assert result.labels() == ["train", "estimate"]
    assert result.seconds("train") == 1.5  # per command
    assert result.cost("train", cycle_speed=1.0) == 3.0 * (2.0 + 4.0) / 2
    assert result.cost("estimate", cycle_speed=3.0) == 0.5 * 3.0  # too short to hold a sample


def test_py_probe_times_a_loop():
    assert 0.0 < speed.py_probe_s(1000) < speed.py_probe_s(100000)
    assert speed.speed([0.5, 0.25]) == 3.0


def test_command_ratio_max_takes_the_worst_command_against_the_baseline():
    import run

    cycles = [{"commands": {"train": 10.0, "gradcheck": 1.0}},
              {"commands": {"train": 12.0, "gradcheck": 3.0}},
              {"commands": {"train": 11.0, "gradcheck": 2.0}}]
    ledger = stats.Ledger()
    assert run.command_ratio_max(cycles, {"train": 11.0, "gradcheck": 1.0}, ledger) == [2.0]
    assert run.command_ratio_max(cycles, {"train": 5.5, "gradcheck": 4.0}, ledger) == [2.0]
    assert ledger.failed == 0
    assert run.command_ratio_max(cycles, {"train": 11.0}, ledger) == []
    assert (ledger.attempted, ledger.failed) == (3, 1)
