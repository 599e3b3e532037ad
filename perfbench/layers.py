"""Where the traced run binds its wrappers, and the per-layer metrics it derives.

Wrappers bind where the caller looks the name up.  A function imported by
name into another module (``from .gaussians import kl_to_surrogate`` in
``cib.objectives`` and ``cib.model``) is a separate binding, so every module
of the ``cib`` package that holds the function object gets the wrapper.
Methods are patched on their class.  ``cib.cli`` looks up
``ProcessPoolExecutor`` in its own namespace; it gets a subclass that records
the pool's span, and its forked workers inherit every wrapper.

Layer times are self times: a span's duration minus the part its child spans
cover, so the layers of one cycle add up to the traced wall time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

from tracer import self_times

# (home module, attribute, span name)
FUNCTIONS = [
    ("diffcore", "grad_check", "diffcore.grad_check"),
    ("objectives", "cib_loss_graph", "objectives.cib_loss_graph"),
    ("objectives", "cib_loss", "objectives.cib_loss"),
    ("gaussians", "kl_to_surrogate", "gaussians.kl_to_surrogate"),
    ("gaussians", "kl_to_surrogate_graph", "gaussians.kl_to_surrogate_graph"),
    ("estimators", "bound_report", "estimators.bound_report"),
    ("model", "train", "model.train"),
    ("model", "evaluate", "model.evaluate"),
    ("data_io", "gen_gmm_splits", "data_io.gen_gmm_splits"),
    ("data_io", "save_checkpoint", "data_io.save_checkpoint"),
    ("data_io", "write_metrics", "data_io.write_metrics"),
    ("data_io", "load_checkpoint", "data_io.load_checkpoint"),
    ("data_io", "load_dataset", "data_io.load_dataset"),
    ("cli", "run", "cli.run"),
    ("cli", "_sweep_worker", "cli.sweep_worker"),
    ("discrete_oracle", "info_report", "discrete_oracle.info_report"),
    ("discrete_oracle", "equivalence_scan", "discrete_oracle.equivalence_scan"),
    ("discrete_oracle", "optimal_product_surrogate", "discrete_oracle.optimal_product_surrogate"),
    ("discrete_oracle", "sample_kl_objective", "discrete_oracle.sample_kl_objective"),
]

# (home module, class, method, span name)
METHODS = [
    ("diffcore", "Tape", "backward", "diffcore.backward"),
    ("model", "ModelState", "loss_graph", "model.loss_graph"),
    ("model", "_Adam", "update", "model.adam_update"),
    ("model", "EncoderModel", "encode_batch", "model.encode_batch"),
]

POOL_SPAN = "cli.pool"


def pair_count(labels) -> int:
    """Code pairs one ``bound_report`` visits: N^2 unconditional plus N_y^2 per class."""
    labels = np.asarray(labels)
    counts = np.bincount(labels) if labels.size else np.zeros(0, dtype=np.int64)
    return int(labels.size) ** 2 + int(np.sum(counts.astype(np.int64) ** 2))


def _file_bytes(position: int):
    def attrs(args, kwargs, result):
        path = kwargs.get("path", args[position] if len(args) > position else None)
        return {"bytes": os.path.getsize(path)}

    return attrs


_ATTRS = {
    "diffcore.backward": lambda args, kwargs, result: {"nodes": len(args[0])},
    "estimators.bound_report": lambda args, kwargs, result: {
        "pairs": pair_count(kwargs.get("data", args[0] if args else None).labels)
    },
    "data_io.save_checkpoint": _file_bytes(4),
    "data_io.write_metrics": _file_bytes(1),
    "cli.run": lambda args, kwargs, result: {"command": args[0][0], "code": result},
}


def install(tracer) -> tuple[list[str], list[str]]:
    """Wrap every target in the loaded ``cib`` package; returns (installed, absent) span names."""
    modules = [m for name, m in sorted(sys.modules.items()) if name == "cib" or name.startswith("cib.")]
    installed, absent = [], []
    for home, attr, span in FUNCTIONS:
        original = getattr(sys.modules[f"cib.{home}"], attr, None)
        if original is None:
            absent.append(span)
            continue
        wrapper = tracer.wrap(span, original, _ATTRS.get(span), spill=span == "cli.sweep_worker")
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, name, wrapper)
        installed.append(span)
    for home, cls_name, method, span in METHODS:
        cls = getattr(sys.modules[f"cib.{home}"], cls_name, None)
        if cls is None or method not in cls.__dict__:
            absent.append(span)
            continue
        tracer.patch(cls, method, tracer.wrap(span, cls.__dict__[method], _ATTRS.get(span)))
        installed.append(span)
    cli = sys.modules["cib.cli"]
    tracer.patch(cli, "ProcessPoolExecutor", _traced_pool(tracer, cli.ProcessPoolExecutor))
    installed.append(POOL_SPAN)
    return installed, absent


def _traced_pool(tracer, base):
    class TracedPool(base):
        """The pool's span covers its whole life; workers fork inside it."""

        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            self._bench_jobs = max_workers

        def __enter__(self):
            self._bench_span = tracer.begin(POOL_SPAN)
            self._bench_span.attrs = {"jobs": self._bench_jobs, "submitted": None}
            return super().__enter__()

        def map(self, fn, *iterables, **kwargs):
            self._bench_span.attrs["submitted"] = time.perf_counter()
            return super().map(fn, *iterables, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.end(self._bench_span)

    return TracedPool


# self time of these spans, summed per cycle
_SELF_TIME = {
    "diffcore.backward_s": "diffcore.backward",
    "diffcore.grad_check_s": "diffcore.grad_check",
    "objectives.loss_graph_s": "objectives.cib_loss_graph",
    "objectives.cib_loss_s": "objectives.cib_loss",
    "gaussians.kl_to_surrogate_s": "gaussians.kl_to_surrogate",
    "gaussians.kl_graph_s": "gaussians.kl_to_surrogate_graph",
    "estimators.bound_report_s": "estimators.bound_report",
    "model.loss_graph_s": "model.loss_graph",
    "model.adam_update_s": "model.adam_update",
    "model.evaluate_s": "model.evaluate",
    "model.encode_batch_s": "model.encode_batch",
    "model.train_s": "model.train",
    "data_io.dataset_gen_s": "data_io.gen_gmm_splits",
    "data_io.save_checkpoint_s": "data_io.save_checkpoint",
    "data_io.write_metrics_s": "data_io.write_metrics",
    "data_io.load_checkpoint_s": "data_io.load_checkpoint",
    "data_io.load_dataset_s": "data_io.load_dataset",
    "cli.run_s": "cli.run",
    "discrete_oracle.info_report_s": "discrete_oracle.info_report",
    "discrete_oracle.equivalence_scan_s": "discrete_oracle.equivalence_scan",
    "discrete_oracle.optimal_product_surrogate_s": "discrete_oracle.optimal_product_surrogate",
    "discrete_oracle.sample_kl_objective_s": "discrete_oracle.sample_kl_objective",
}

# call counts per cycle
_CALLS = {
    "diffcore.backward_calls": "diffcore.backward",
    "objectives.cib_loss_calls": "objectives.cib_loss",
    "gaussians.kl_to_surrogate_calls": "gaussians.kl_to_surrogate",
    "estimators.bound_report_calls": "estimators.bound_report",
    "model.evaluate_calls": "model.evaluate",
    "discrete_oracle.instances": "discrete_oracle.info_report",
    "discrete_oracle.sample_kl_calls": "discrete_oracle.sample_kl_objective",
}


def step_durations_ms(spans) -> list[float]:
    """Per training step: from the start of the loss graph to the end of the update."""
    graph_start = {}
    steps = []
    for s in sorted(spans, key=lambda s: (s.sid[0], s.start)):
        key = (s.sid[0], s.parent)
        if s.name == "model.loss_graph":
            graph_start[key] = s.start
        elif s.name == "model.adam_update" and key in graph_start:
            steps.append((s.end - graph_start.pop(key)) * 1e3)
    return steps


def cycle_metrics(spans, root_pid: int, workers_started: int) -> dict:
    """Per-layer values of one traced cycle, except the step percentiles and overhead."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    m = {key: sum(own[s.sid] for s in by_name[name]) for key, name in _SELF_TIME.items()}
    m.update({key: len(by_name[name]) for key, name in _CALLS.items()})

    backward = by_name["diffcore.backward"]
    m["diffcore.tape_nodes_per_step"] = (
        sum(s.attrs["nodes"] for s in backward) / len(backward) if backward else 0
    )
    checks = {s.sid for s in by_name["diffcore.grad_check"]}
    m["diffcore.grad_check_loss_evals"] = sum(1 for s in by_name["model.loss_graph"] if s.parent in checks)

    m["estimators.pairs"] = sum(s.attrs["pairs"] for s in by_name["estimators.bound_report"])
    busy = m["estimators.bound_report_s"]
    m["estimators.pairs_per_s"] = m["estimators.pairs"] / busy if busy > 0 else 0.0

    m["data_io.artifact_bytes"] = sum(
        s.attrs["bytes"] for name in ("data_io.save_checkpoint", "data_io.write_metrics")
        for s in by_name[name]
    )

    pools = {s.sid: s for s in by_name[POOL_SPAN]}
    workers = [s for s in by_name["cli.sweep_worker"] if s.sid[0] != root_pid]
    m["cli.worker_busy_s"] = sum(s.duration for s in workers)
    m["cli.pool_wait_s"] = sum(
        s.start - pools[s.parent].attrs["submitted"] for s in workers if s.parent in pools
    )
    capacity = sum(p.attrs["jobs"] * p.duration for p in pools.values())
    m["cli.parallel_efficiency"] = m["cli.worker_busy_s"] / capacity if capacity > 0 else 0.0
    m["cli.workers_started"] = workers_started
    m["cli.exit_nonzero"] = sum(1 for s in by_name["cli.run"] if s.attrs["code"] != 0)
    m["trace.spans_per_cycle"] = len(spans)
    return m
