"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every check uses the tolerance stated in its assertion.
"""

import json
import math
import struct
import time

import numpy as np
import pytest

from cib import data_io, model
from cib.data_io import MetricsRow, validate_config
from cib.diffcore import grad_check
from cib.discrete_oracle import (
    decomposition_check,
    equivalence_scan,
    induced,
    info_report,
    optimal_product_surrogate,
    perturbed_product_surrogates,
    sample_kl_objective,
    surrogate_optimality_check,
)
from cib.estimators import (
    MODE_AS_PRINTED,
    MODE_CITED_SOURCE,
    EmbeddedDataset,
    bound_report,
    mixture_bound,
)
from helpers import random_arities, random_encoder, random_joint, random_samples
from test_estimators import naive_bound


def _report(number, name, ok, detail):
    print(f"\nACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_1_chain_rule_identity():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        joint = random_joint(rng, nx, ny)
        enc = random_encoder(rng, nx, random_arities(rng, max_outcomes=16))
        worst = max(worst, abs(info_report(joint, enc).chain_rule_gap()))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 10.0
    _report(1, "chain rule", ok, f"worst gap {worst:.2e}, 1000 instances in {elapsed:.1f} s")


def test_criterion_2_objective_equivalence():
    rng = np.random.default_rng(102)
    betas = np.round(np.arange(0.1, 0.95, 0.1), 10)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        joint = random_joint(rng, 3, 2)
        encoders = [random_encoder(rng, 3, (4,)) for _ in range(50)]
        for beta in betas:
            scan = equivalence_scan(joint, encoders, float(beta), tie_tol=1e-10)
            if not scan.coincide:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        2,
        "plain vs class-conditional argmin sets",
        ok,
        f"{mismatches} mismatches over 100 families x {betas.size} betas in {elapsed:.1f} s",
    )


def test_criterion_3_surrogate_kl_decomposition():
    rng = np.random.default_rng(103)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(1000):
        nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        arities = random_arities(rng, max_outcomes=16)
        joint = random_joint(rng, nx, ny)
        enc = random_encoder(rng, nx, arities)
        ind = induced(joint, enc)
        best = optimal_product_surrogate(ind.t_given_y, arities)
        decomp = decomposition_check(joint, enc, best)
        worst_gap = max(worst_gap, abs(decomp.gap))
        rep = info_report(joint, enc)
        p_y = joint.p.sum(axis=0)
        expected = float(np.sum(p_y * rep.TC_given_y))
        worst_residual = max(worst_residual, abs(decomp.kl_residual - expected))
    ok = worst_gap < 1e-12 and worst_residual < 1e-12
    _report(
        3,
        "surrogate KL decomposition",
        ok,
        f"worst lhs-rhs gap {worst_gap:.2e}, worst residual-TC gap {worst_residual:.2e}",
    )


def test_criterion_4_optimal_product_surrogate():
    rng = np.random.default_rng(104)
    start = time.perf_counter()
    worst_eq = 0.0
    worst_improvement = 0.0
    for _ in range(1000):
        enc = random_encoder(rng, 4, (2, 2))
        samples = random_samples(rng, 4, 2, 10)
        rep = surrogate_optimality_check(samples, enc)
        worst_eq = max(worst_eq, abs(rep.gap))
        base = rep.lhs_min
        for cand in perturbed_product_surrogates(rep.surrogate, step=0.01):
            improvement = base - sample_kl_objective(samples, enc, cand)
            worst_improvement = max(worst_improvement, improvement)
    elapsed = time.perf_counter() - start
    ok = worst_eq < 1e-10 and worst_improvement <= 1e-10 and elapsed < 120.0
    _report(
        4,
        "closed-form optimum vs perturbation search",
        ok,
        f"worst equality gap {worst_eq:.2e}, best perturbation improvement "
        f"{worst_improvement:.2e}, 1000 instances in {elapsed:.1f} s",
    )


def test_criterion_5_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for head in ("softmax", "naive_bayes"):
        cfg = validate_config(
            {
                "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 1, "sep": 1.0, "seed": 0},
                "encoder": {"layer_dims": [2, 2, 2], "sigma2": 0.5},
                "decoder": {"variant": head},
                "loss": {"beta_prime": 1.0},
                "seed": 0,
            }
        )
        state = model.build_state(cfg, np.array([0.5, 0.5]), rng)
        state.store.set("sur.mu", rng.uniform(-1.0, 1.0, (2, 2)))
        state.store.set("sur.log_sigma", rng.uniform(-0.3, 0.3, 2))
        x = rng.uniform(-2.0, 2.0, (4, 2))
        labels = rng.integers(0, 2, 4)
        noise = rng.standard_normal((1, 4, 2))
        report = grad_check(model.make_loss_fn(state, x, labels, 1.0, noise), state.store, 1e-5, 1e-5)
        worst = max(worst, report.max_rel_error)
        assert report.passed
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 5.0
    _report(5, "full-loss gradient check", ok, f"worst rel error {worst:.2e} in {elapsed:.1f} s")


def test_criterion_6_estimator_fidelity():
    rng = np.random.default_rng(106)
    codes = np.concatenate(
        [rng.normal(-1.5, 0.7, size=(128, 4)), rng.normal(1.5, 0.7, size=(128, 4))]
    )
    labels = np.repeat([0, 1], 128)
    data = EmbeddedDataset(codes=codes, labels=labels, sigma2=0.9, eta2=0.4)
    worst = 0.0
    for mode in (MODE_AS_PRINTED, MODE_CITED_SOURCE):
        worst = max(worst, abs(mixture_bound(data, mode) - naive_bound(codes, 0.9, 0.4, mode)))
    single = EmbeddedDataset(codes=codes, labels=np.zeros(256, dtype=int), sigma2=0.9, eta2=0.4)
    report = bound_report(single, MODE_CITED_SOURCE)
    exact_single_class = report.aggregate == report.unconditional
    ok = worst < 1e-10 and exact_single_class
    _report(
        6,
        "estimator fidelity",
        ok,
        f"worst |vectorized - naive| {worst:.2e} at N=256; "
        f"single-class aggregate equals unconditional: {exact_single_class}",
    )


def _reference_config(beta_prime=1.0, steps=2000):
    return validate_config(
        {
            "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 500, "sep": 4.0, "seed": 7},
            "encoder": {"layer_dims": [2, 8, 2]},
            "decoder": {"variant": "naive_bayes"},
            "loss": {"beta_prime": beta_prime},
            "optim": {"steps": steps, "batch": 64, "log_every": 500},
            "seed": 7,
        }
    )


def test_criterion_7_desk_scale_training():
    cfg = _reference_config()
    train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
    bayes_accuracy = 1.0 - train_ds.provenance["bayes_error"]
    start = time.perf_counter()
    first = model.train([cfg], train_ds, test_ds)[0]
    elapsed = time.perf_counter() - start
    accuracy = model.evaluate(first.state, test_ds).accuracy
    second = model.train([cfg], train_ds, test_ds)[0]
    identical = first.metrics == second.metrics and np.array_equal(
        first.state.store.values, second.state.store.values
    )
    ok = accuracy >= 0.95 and elapsed < 300.0 and identical
    _report(
        7,
        "desk-scale training",
        ok,
        f"test accuracy {accuracy:.4f} (analytic Bayes {bayes_accuracy:.4f}) "
        f"in {elapsed:.1f} s; bit-identical reruns: {identical}",
    )


def test_criterion_8_sweep_compression_direction():
    cfg = _reference_config()
    points = model.sweep(cfg, [0.0, 0.3, 1.0, 3.0, 10.0])
    first, last = points[0], points[-1]
    ok = last.ixt_given_y < first.ixt_given_y
    _report(
        8,
        "sweep compression direction",
        ok,
        f"I(X;T|Y) bound {first.ixt_given_y:.4f} at beta'=0 vs {last.ixt_given_y:.4f} at beta'=10",
    )


def test_criterion_9_formats(tmp_path):
    # IDX round trip
    rng = np.random.default_rng(109)
    payload = rng.integers(0, 256, size=6 * 4, dtype=np.uint8)
    im, lb = tmp_path / "im", tmp_path / "lb"
    with open(im, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, 6, 2, 2))
        f.write(payload.tobytes())
    with open(lb, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 6))
        f.write(bytes(range(6)))
    ds = data_io.read_idx(im, lb)
    data_io.write_idx(tmp_path / "im2", tmp_path / "lb2", ds.features, ds.labels, (2, 2))
    idx_ok = (tmp_path / "im2").read_bytes() == im.read_bytes() and (
        tmp_path / "lb2"
    ).read_bytes() == lb.read_bytes()

    # checkpoint byte identity
    cfg = _reference_config(steps=0)
    state = model.build_state(cfg, np.array([0.5, 0.5]), np.random.default_rng(1))
    p1, p2 = tmp_path / "c1.json", tmp_path / "c2.json"
    data_io.save_checkpoint(state, p1)
    data_io.save_checkpoint(data_io.load_checkpoint(p1), p2)
    ckpt_ok = p1.read_bytes() == p2.read_bytes()

    # metrics parse-back
    rows = [
        MetricsRow(0, 1.0 / 3.0, math.pi * 1e-8, 0.3, 1.0 / 3.0 + 0.3 * math.pi * 1e-8, 2.0 / 3.0),
        MetricsRow(2000, 0.1 + 0.2, 123456.78901234567, 10.0, 3.000000000000001, 1.0),
    ]
    data_io.write_metrics(rows, tmp_path / "m.csv")
    csv_ok = data_io.read_metrics(tmp_path / "m.csv") == rows

    ok = idx_ok and ckpt_ok and csv_ok
    _report(
        9,
        "persistent formats",
        ok,
        f"idx round-trip {idx_ok}, checkpoint byte-identity {ckpt_ok}, metrics parse-back {csv_ok}",
    )
