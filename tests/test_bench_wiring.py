"""The benchmark's span wrappers bind to the real program, and a tiny run fires every one a workload needs.

``perfbench/layers.py`` wraps named entry points of the ``cib`` package, and
a traced benchmark cycle counts a wrapper that is not installed or never
fires as a failed operation.  These tests run the same wiring in-process on
small inputs, so a refactor that drops or bypasses a wrapped name fails here
rather than only in a traced benchmark run.
"""

import json
import sys
from pathlib import Path

import numpy as np

from cib import cli, discrete_oracle, estimators

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# every span that some workload requires to fire in a traced cycle
REQUIRED = set().union(*(w.spans for w in workloads.WORKLOADS.values()))


def test_install_finds_every_target_in_the_program():
    tracer = Tracer()
    try:
        installed, absent = layers.install(tracer)
    finally:
        tracer.restore()
    assert absent == []
    assert REQUIRED <= set(installed)


def _tiny_config(tmp_path):
    cfg = {
        "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 6, "sep": 4.0, "seed": 3},
        "encoder": {"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
        "decoder": {"variant": "softmax"},
        "loss": {"beta_prime": 1.0},
        "optim": {"kind": "adam", "lr": 1e-3, "steps": 2, "batch": 4, "log_every": 1},
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _tiny_instance(tmp_path, rng):
    p = rng.uniform(0.1, 1.0, size=(3, 2))
    q = rng.uniform(0.1, 1.0, size=(3, 4))
    doc = {"p": (p / p.sum()).tolist(), "q": (q / q.sum(axis=1, keepdims=True)).tolist(),
           "arities": [2, 2], "samples": [[0, 0], [1, 1], [2, 0]]}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return path


def test_a_tiny_run_fires_every_span_a_workload_needs(tmp_path, monkeypatch, capsys):
    # a machine with one usable core would run the sweep without its pool
    monkeypatch.setattr(estimators, "usable_cores", lambda: 2)
    rng = np.random.default_rng(0)
    config, instance = _tiny_config(tmp_path), _tiny_instance(tmp_path, rng)
    run_dir, data = tmp_path / "run", tmp_path / "data.json"
    tracer = Tracer()
    tracer.start("wiring", tmp_path / "spans")
    codes = []
    try:
        layers.install(tracer)
        codes.append(cli.run(["train", "--config", str(config), "--out", str(run_dir)]))
        codes.append(cli.run("gen-data --classes 2 --dim 2 --per-class 5 --sep 4 --seed 1 --out".split()
                             + [str(data)]))
        codes.append(cli.run(["estimate", "--checkpoint", str(run_dir / "checkpoint.json"), "--data", str(data)]))
        codes.append(cli.run(["gradcheck"]))
        codes.append(cli.run(["oracle", "--instance", str(instance)]))
        codes.append(cli.run(["sweep", "--config", str(config), "--betas", "0,1", "--jobs", "2",
                              "--out", str(tmp_path / "sweep")]))
        joint = discrete_oracle.DiscreteJoint(np.array([[0.3, 0.2], [0.1, 0.4]]))
        enc = discrete_oracle.DiscreteEncoder(np.array([[0.6, 0.4], [0.2, 0.8]]), (2,))
        discrete_oracle.equivalence_scan(joint, [enc], 0.5)
        surrogate = discrete_oracle.optimal_product_surrogate(np.array([[0.5, 0.5], [0.3, 0.7]]), (2,))
        discrete_oracle.sample_kl_objective([[0, 0], [1, 1]], enc, surrogate)
    finally:
        tracer.restore()
        spans = tracer.stop()
    assert codes == [0] * 6, capsys.readouterr().err
    assert tracer.workers_started == 2
    assert REQUIRED - {s.name for s in spans} == set()


def test_the_parallel_sweep_alone_fires_its_workload_spans_in_its_workers(tmp_path, monkeypatch, capsys):
    """Each workload's spans must fire from its own commands: here, the sweep-parallel sweep's.

    The union above would pass a sweep that bypassed ``model.train``,
    because ``cib train`` fires that span too.
    """
    monkeypatch.setattr(estimators, "usable_cores", lambda: 2)
    config = _tiny_config(tmp_path)
    tracer = Tracer()
    tracer.start("sweep-alone", tmp_path / "spans")
    try:
        layers.install(tracer)
        code = cli.run(["sweep", "--config", str(config), "--betas", "0,1", "--jobs", "2",
                        "--out", str(tmp_path / "sweep")])
    finally:
        tracer.restore()
        spans = tracer.stop()
    assert code == 0, capsys.readouterr().err
    assert set(workloads.WORKLOADS["sweep-parallel"].spans) - {s.name for s in spans} == set()
    in_workers = {s.name for s in spans if s.sid[0] != tracer.root_pid}
    assert {"model.train", "diffcore.backward", "model.adam_update"} <= in_workers
    pools = [s for s in spans if s.name == layers.POOL_SPAN]
    assert len(pools) == 1 and pools[0].attrs["submitted"] is not None
