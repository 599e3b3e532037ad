"""Span bookkeeping: self time, wrappers, fork spill files and layer arithmetic."""

import os
import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layers  # noqa: E402
from tracer import Span, Tracer, covered, self_times  # noqa: E402


def _span(sid, name, start, end, parent=None, attrs=None):
    return Span((1, sid), name, start, end, (1, parent) if parent is not None else None, "r", attrs)


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == 5.0
    assert covered(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert covered(0.0, 10.0, [(4.0, 4.0), (11.0, 12.0)]) == 0.0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "child", 1.0, 5.0, parent=0),
        _span(2, "grandchild", 2.0, 4.0, parent=1),
        _span(3, "child", 6.0, 7.0, parent=0),
    ]
    own = self_times(spans)
    assert own[(1, 0)] == 10.0 - 4.0 - 1.0
    assert own[(1, 1)] == 4.0 - 2.0
    assert own[(1, 2)] == 2.0
    assert own[(1, 3)] == 1.0


def test_self_time_counts_overlapping_children_once():
    # two pool workers run side by side under one pool span
    spans = [
        _span(0, "pool", 0.0, 10.0),
        _span(1, "worker", 1.0, 6.0, parent=0),
        _span(2, "worker", 3.0, 9.0, parent=0),
    ]
    assert self_times(spans)[(1, 0)] == 10.0 - 8.0


def test_wrappers_record_parents_and_restore_the_original(tmp_path):
    owner = types.SimpleNamespace(inner=lambda x: x + 1, outer=lambda x: owner.inner(x) * 2)
    original_inner, original_outer = owner.inner, owner.outer
    tracer = Tracer()
    tracer.start("run-0", tmp_path)
    tracer.patch(owner, "inner", tracer.wrap("inner", owner.inner, lambda a, k, r: {"arg": a[0]}))
    tracer.patch(owner, "outer", tracer.wrap("outer", owner.outer))
    assert owner.outer(3) == 8
    tracer.restore()
    spans = tracer.stop()
    assert owner.inner is original_inner and owner.outer is original_outer
    by_name = {s.name: s for s in spans}
    assert by_name["inner"].parent == by_name["outer"].sid
    assert by_name["inner"].attrs == {"arg": 3}
    assert {s.run for s in spans} == {"run-0"}


def test_forked_worker_spills_spans_that_name_the_parent_span(tmp_path):
    tracer = Tracer()
    tracer.start("run-1", tmp_path)
    task = tracer.wrap("task", lambda: None, spill=True)
    pool = tracer.begin("pool")
    pid = os.fork()
    if pid == 0:
        try:
            task()
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    tracer.end(pool)
    spans = tracer.stop()
    assert status == 0
    assert tracer.workers_started == 1
    worker = [s for s in spans if s.name == "task"]
    assert len(worker) == 1 and worker[0].sid[0] == pid and worker[0].parent == pool.sid


def test_pair_count_is_n_squared_plus_class_squares():
    assert layers.pair_count([0, 0, 1]) == 9 + 4 + 1
    assert layers.pair_count([2] * 5) == 25 + 25
    assert layers.pair_count(list(range(10)) * 200) == 2000**2 + 10 * 200**2


def test_step_durations_pair_each_update_with_its_loss_graph():
    spans = [
        _span(0, "model.train", 0.0, 1.0),
        _span(1, "model.loss_graph", 0.100, 0.102, parent=0),
        _span(2, "diffcore.backward", 0.103, 0.104, parent=0),
        _span(3, "model.adam_update", 0.104, 0.105, parent=0),
        _span(4, "model.loss_graph", 0.200, 0.201, parent=0),
        _span(5, "model.adam_update", 0.203, 0.204, parent=0),
    ]
    steps = layers.step_durations_ms(spans)
    assert [round(ms, 9) for ms in steps] == [5.0, 4.0]


def test_cycle_metrics_of_a_pool_with_two_workers():
    root = 1
    pool = Span((root, 0), "cli.pool", 0.0, 10.0, None, "r", {"jobs": 2, "submitted": 1.0})
    workers = [
        Span((7, 0), "cli.sweep_worker", 1.0, 5.0, (root, 0), "r"),
        Span((8, 0), "cli.sweep_worker", 1.5, 6.0, (root, 0), "r"),
        Span((7, 1), "cli.sweep_worker", 5.0, 9.0, (root, 0), "r"),
    ]
    bound = Span((7, 2), "estimators.bound_report", 5.0, 7.0, (7, 1), "r", {"pairs": 50})
    m = layers.cycle_metrics([pool, *workers, bound], root, workers_started=2)
    assert m["cli.worker_busy_s"] == 4.0 + 4.5 + 4.0
    assert m["cli.pool_wait_s"] == 0.0 + 0.5 + 4.0
    assert m["cli.parallel_efficiency"] == 12.5 / 20.0
    assert m["cli.workers_started"] == 2
    assert m["estimators.pairs"] == 50 and m["estimators.pairs_per_s"] == 25.0
    assert m["trace.spans_per_cycle"] == 5


def test_install_reports_targets_the_program_lacks(monkeypatch):
    homes = {name for name, *_ in layers.FUNCTIONS + layers.METHODS} | {"cli"}
    for home in homes:
        monkeypatch.setitem(sys.modules, f"cib.{home}", types.ModuleType(f"cib.{home}"))
    cli = sys.modules["cib.cli"]
    cli.run = lambda argv: 0
    cli.ProcessPoolExecutor = type("Pool", (), {})
    tape = type("Tape", (), {"backward": lambda self: None})
    sys.modules["cib.diffcore"].Tape = tape
    tracer = Tracer()
    installed, absent = layers.install(tracer)
    try:
        assert {"cli.run", "diffcore.backward", layers.POOL_SPAN} == set(installed)
        assert "estimators.bound_report" in absent and "model.adam_update" in absent
        assert len(installed) + len(absent) == len(layers.FUNCTIONS) + len(layers.METHODS) + 1
    finally:
        tracer.restore()
    assert cli.ProcessPoolExecutor.__name__ == "Pool"
