"""Command-line surface: exit codes, artifacts, and JSON mode."""

import ast
import collections
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cib import cli, data_io, discrete_oracle, estimators, gaussians, model, objectives
from cib.cli import REPORT_KEYS, run
from helpers import random_encoder, random_joint


def _write_config(tmp_path, **overrides):
    cfg = {
        "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 12, "sep": 4.0, "seed": 3},
        "encoder": {"layer_dims": [2, 3, 2]},
        "decoder": {"variant": "naive_bayes"},
        "loss": {"beta_prime": 1.0},
        "optim": {"steps": 6, "batch": 8, "log_every": 3},
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _write_diverging_config(tmp_path, head, noise_mode, activation, update, kind, lr):
    """A 2-3-2 config of 6 steps that diverges at some step sizes and finishes at others."""
    return _write_config(tmp_path,
                         encoder={"layer_dims": [2, 3, 2], "activation": activation, "noise_mode": noise_mode},
                         decoder={"variant": head}, surrogate={"update": update},
                         optim={"kind": kind, "lr": lr, "steps": 6, "batch": 8, "log_every": 3})


def _write_split_config(tmp_path, test_labels=(0, 1, 2), test_dim=2, priors="train"):
    """A json-dataset config whose train split has 2 classes in dimension 2, and a test split as given."""
    train, test = tmp_path / "train.json", tmp_path / "test.json"
    data_io.save_dataset(data_io.Dataset(np.eye(8, 2), np.arange(8) % 2, 2), train)
    data_io.save_dataset(data_io.Dataset(np.zeros((len(test_labels), test_dim)), np.array(test_labels),
                                         max(test_labels) + 1), test)
    return _write_config(tmp_path, dataset={"kind": "json", "train": str(train), "test": str(test)},
                         surrogate={"priors": priors})


def _below_a_file(tmp_path):
    """An --out path whose parent is a regular file."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return blocker / "out"


def _unreachable(*args, **kwargs):
    raise AssertionError("reached although --out is unusable")


def _write_instance(tmp_path, seed=0, with_samples=False):
    rng = np.random.default_rng(seed)
    joint = random_joint(rng, 3, 2)
    enc = random_encoder(rng, 3, (2, 2))
    doc = {"p": joint.p.tolist(), "q": enc.q.tolist(), "arities": [2, 2]}
    if with_samples:
        doc["samples"] = [[0, 0], [1, 1], [2, 0], [1, 0], [2, 1]]
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return path


def _digests(code, captured, out):
    """The exit code and the sha256 of stdout, stderr and every file under ``out`` with its relative path."""
    files = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        files.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return {
        "code": code,
        "stdout": hashlib.sha256(captured.out.encode()).hexdigest(),
        "stderr": hashlib.sha256(captured.err.encode()).hexdigest(),
        "files": files.hexdigest(),
    }


class TestGenData:
    def test_writes_dataset_and_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = run(
            "gen-data --kind gmm --classes 2 --dim 2 --per-class 500 --sep 4 --seed 7 "
            f"--out {out}".split()
        )
        assert code == 0
        ds = data_io.load_dataset(out)
        assert ds.count == 1000 and ds.class_count == 2

    def test_nonfinite_sep_exits_one_naming_it(self, tmp_path, capsys):
        out = tmp_path / "d" / "d.json"
        argv = f"gen-data --classes 2 --dim 2 --per-class 5 --sep nan --seed 0 --out {out}".split()
        assert run(argv) == 1
        assert "sep must be finite" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "flag,value",
        [("--classes", "1"), ("--dim", "0"), ("--per-class", "0"), ("--sep", "-1"), ("--seed", "-1")],
    )
    def test_out_of_range_flag_exits_one_naming_the_flag(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d" / "d.json"
        flags = {"--classes": "2", "--dim": "2", "--per-class": "5", "--sep": "1", "--seed": "0", flag: value}
        argv = ["gen-data", *(tok for item in flags.items() for tok in item), "--out", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {flag} must be ")
        assert not out.parent.exists()

    def test_out_below_a_regular_file_exits_one_naming_it(self, tmp_path, capsys):
        out = _below_a_file(tmp_path) / "d.json"
        assert run(f"gen-data --classes 2 --dim 2 --per-class 5 --sep 1 --seed 0 --out {out}".split()) == 1
        assert "blocker" in capsys.readouterr().err

    def test_json_mode_emits_single_document(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = run(
            f"gen-data --classes 2 --dim 2 --per-class 5 --sep 1 --seed 0 --out {out} --json".split()
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 10

    def test_dataset_file_and_json_document_are_byte_stable(self, tmp_path, capsys, monkeypatch):
        """sha256 of the dataset file gen-data has always written, and of its --json document.

        The --out path is relative, so that stdout, which names it, does not
        depend on the temporary directory.
        """
        monkeypatch.chdir(tmp_path)
        code = run("gen-data --classes 3 --dim 4 --per-class 50 --sep 2.5 --seed 11 --out d.json --json".split())
        assert code == 0
        assert {
            "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
            "d.json": hashlib.sha256((tmp_path / "d.json").read_bytes()).hexdigest(),
        } == {
            "stdout": "1bca3b42a147808ecd291a241600ff15bf2b07fb9ffbb1c6094f05bf9e4949b4",
            "d.json": "7c208045790ef8798642a8148dced7f91ccdc611b968e25a1ebf0546ff6a0c2f",
        }


class TestTrain:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert run(["train", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "run")]) == 1

    def test_diverging_run_prints_only_its_failure(self, tmp_path, capsys):
        """beta' = 0 times an infinite KL is NaN; the total says nothing of it, the finiteness check does."""
        cfg = _write_config(tmp_path, encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
                            loss={"beta_prime": 0.0}, optim={"kind": "sgd", "lr": 1e3, "steps": 6, "batch": 8},
                            seed=2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
        assert code == 2 and [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == "numerical failure: non-finite loss at step 2 (train sample 0)\n"
        assert not (tmp_path / "run").exists()

    def test_writes_run_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"out", "final_step", "point"}
        for name in ("checkpoint.json", "metrics.csv", "point.json"):
            assert (out / name).is_file()
        rows = data_io.read_metrics(out / "metrics.csv")
        assert rows[0].step == 0 and rows[-1].step == 6

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, loss={"beta": 0.5, "beta_prime": 1.0})
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_nonfinite_beta_prime_exits_one_naming_the_field(self, tmp_path, capsys, value):
        cfg = _write_config(tmp_path)
        cfg.write_text(cfg.read_text().replace('"beta_prime": 1.0', f'"beta_prime": {value}'))
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "loss.beta_prime" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("block,key,value", [
        ("optim", "lr", float("nan")),
        ("optim", "lr", float("inf")),
        ("encoder", "sigma2", float("inf")),
    ])
    def test_nonfinite_lr_or_sigma2_exits_one_naming_the_field(self, tmp_path, capsys, block, key, value):
        defaults = {"optim": {"steps": 6, "batch": 8, "log_every": 3}, "encoder": {"layer_dims": [2, 3, 2]}}
        cfg = _write_config(tmp_path, **{block: dict(defaults[block], **{key: value})})
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert f"{block}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("block,key,value", [
        ("optim", "batch", float("inf")),
        ("loss", "mc_samples", float("inf")),
        ("", "decoder", [1]),
        ("surrogate", "learn_sigma", "false"),
        ("dataset", "standardize", "no"),
        ("optim", "steps", 2.5),
        ("encoder", "layer_dims", [2, 2.5, 2]),
        ("optim", "lr", "0.1"),
        ("", "seed", True),
        ("dataset", "seed", 1.5),
        ("dataset", "classes", "x"),
        ("loss", "mc_samples", float("nan")),
        ("dataset", "sep", float("nan")),
        ("encoder", "activation", "gelu"),
        ("loss", "beta", 1.0),
        ("dataset", "per_class", 0),
        ("dataset", "seed", -1),
    ])
    def test_malformed_field_exits_one_naming_it_before_any_directory(self, tmp_path, capsys, block, key, value):
        cfg = json.loads(_write_config(tmp_path).read_text())
        if key == "beta":
            del cfg["loss"]["beta_prime"]
        (cfg.setdefault(block, {}) if block else cfg)[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
        assert (f"{block}.{key}" if block else key) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_dataset_file_exits_one_before_any_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        cfg = _write_config(tmp_path, dataset={"kind": "json", "train": missing, "test": missing})
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert "missing.json" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("standardize", [False, True])
    def test_provenance_that_is_not_an_object_exits_one_before_any_directory(self, tmp_path, capsys, standardize):
        data = tmp_path / "d.json"
        data_io.save_dataset(data_io.Dataset(np.eye(8, 2), np.arange(8) % 2, 2), data)
        doc = json.loads(data.read_text())
        doc["provenance"] = 5
        data.write_text(json.dumps(doc))
        cfg = _write_config(tmp_path, dataset={"kind": "json", "train": str(data), "test": str(data),
                                               "standardize": standardize})
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error: ") and str(data) in err, err
        assert not (tmp_path / "run").exists()

    def test_out_below_a_regular_file_exits_one_naming_it(self, tmp_path, capsys):
        out = _below_a_file(tmp_path)
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 1
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("at_file", [False, True])
    def test_unusable_out_exits_one_before_training(self, tmp_path, capsys, monkeypatch, at_file):
        monkeypatch.setattr(model, "train", _unreachable)
        out = _below_a_file(tmp_path).parent if at_file else _below_a_file(tmp_path)
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 1
        assert str(tmp_path / "blocker") in capsys.readouterr().err

    def test_identical_invocations_produce_identical_bytes(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("checkpoint.json", "metrics.csv", "point.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


    def test_infinite_test_cross_entropy_exits_two_leaving_no_directory(self, tmp_path, capsys, monkeypatch):
        """A zero-probability true class makes ce_test infinite, which point.json cannot hold as JSON."""
        monkeypatch.setattr(model.ModelState, "log_probs",
                            lambda self, t: np.tile([0.0, -np.inf], t.shape[:-1] + (1,)))
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 2
        assert "ce_test" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("priors", ["train", "all"])
    @pytest.mark.parametrize("test_labels,test_dim,named", [
        ((0, 1, 2), 2, "the test split has label 2, but the train split has 2 classes"),
        ((0, 1), 3, "the test split has 3"),
    ])
    def test_test_split_that_does_not_fit_exits_one_before_training(
        self, tmp_path, capsys, monkeypatch, priors, test_labels, test_dim, named
    ):
        monkeypatch.setattr(model, "_train_stack", _unreachable)
        cfg = _write_split_config(tmp_path, test_labels, test_dim, priors)
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text("[1, 2]")
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"
        assert not (tmp_path / "run").exists()

    def test_standardizing_features_beyond_float_range_prints_one_line(self, tmp_path, capsys):
        """The train split's mean overflows to inf: one error naming dataset.standardize, no numpy warning."""
        data = tmp_path / "d.json"
        assert run(f"gen-data --classes 2 --dim 2 --per-class 5 --sep 1e308 --seed 0 --out {data}".split()) == 0
        cfg = _write_config(tmp_path, dataset={"kind": "json", "train": str(data), "test": str(data),
                                               "standardize": True})
        capsys.readouterr()
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr() == (
            "", "error: dataset.standardize: the train split's standardized features are not finite\n")
        assert not (tmp_path / "run").exists()

    def test_a_train_spread_beyond_float_range_exits_one(self, tmp_path, capsys):
        """Column 0's variance overflows although its mean is 0: one error, not a column scaled to zeros."""
        data = tmp_path / "d.json"
        data.write_text(json.dumps({"features": [[1.5e308, 1.0], [-1.5e308, 2.0]], "labels": [0, 1],
                                    "class_count": 2}))
        cfg = _write_config(tmp_path, dataset={"kind": "json", "train": str(data), "test": str(data),
                                               "standardize": True})
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr() == (
            "", "error: dataset.standardize: the train split's feature spread is not finite\n")
        assert not (tmp_path / "run").exists()

    def test_trains_from_an_idx_pair_as_from_the_same_rows_in_json(self, tmp_path, capsys):
        """An IDX dataset block gives the metrics and point of a JSON block holding the rows read_idx returns."""
        rng = np.random.default_rng(4)
        block = {}
        for split, n in (("train", 12), ("test", 8)):
            labels = np.arange(n) % 2
            pixels = rng.integers(0, 128, (n, 4)) + 127 * labels[:, None]  # the classes differ in brightness
            images, label_file = tmp_path / f"{split}-images", tmp_path / f"{split}-labels"
            data_io.write_idx(images, label_file, pixels / 255.0, labels, (2, 2))
            block[f"{split}_images"], block[f"{split}_labels"] = str(images), str(label_file)
            data_io.save_dataset(data_io.read_idx(images, label_file), tmp_path / f"{split}.json")
        encoder = {"layer_dims": [4, 3, 2]}
        idx_cfg = _write_config(tmp_path, dataset={"kind": "idx", **block}, encoder=encoder)
        assert run(["train", "--config", str(idx_cfg), "--out", str(tmp_path / "idx")]) == 0
        json_cfg = _write_config(tmp_path, dataset={"kind": "json", "train": str(tmp_path / "train.json"),
                                                    "test": str(tmp_path / "test.json")}, encoder=encoder)
        assert run(["train", "--config", str(json_cfg), "--out", str(tmp_path / "json")]) == 0
        for name in ("metrics.csv", "point.json"):
            assert (tmp_path / "idx" / name).read_bytes() == (tmp_path / "json" / name).read_bytes()
        assert json.loads((tmp_path / "idx" / "checkpoint.json").read_text())["config"]["dataset"]["kind"] == "idx"

    def test_acceptance_7_artifacts_are_byte_stable(self, tmp_path):
        # sha256 of the bytes this config has always written; the loss terms
        # and bounds must not change in their last bit
        cfg = _write_config(
            tmp_path,
            dataset={"kind": "gmm", "classes": 2, "dim": 2, "per_class": 500, "sep": 4.0, "seed": 7},
            encoder={"layer_dims": [2, 8, 2]},
            optim={"steps": 2000, "batch": 64, "log_every": 500},
            seed=7,
        )
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        digests = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("metrics.csv", "point.json")
        }
        assert digests == {
            "metrics.csv": "259ac96d0983aa6418590b9fbd6242347b78e54b9084f7910d54899bfead5f02",
            "point.json": "28e0410adf881cba9d2951d9cfe589ed158adccf51b837ecadf7c32e8d867a6e",
        }

    def test_acceptance_7_checkpoint_and_json_document_are_byte_stable(self, tmp_path, capsys, monkeypatch):
        """sha256 of the checkpoint and the --json document the acceptance-7 config has always written.

        The --out path is relative, so that stdout, which names it, does not
        depend on the temporary directory.
        """
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(
            tmp_path,
            dataset={"kind": "gmm", "classes": 2, "dim": 2, "per_class": 500, "sep": 4.0, "seed": 7},
            encoder={"layer_dims": [2, 8, 2]},
            optim={"steps": 2000, "batch": 64, "log_every": 500},
            seed=7,
        )
        assert run(["train", "--config", str(cfg), "--out", "run", "--json"]) == 0
        assert {
            "stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest(),
            "checkpoint.json": hashlib.sha256((tmp_path / "run" / "checkpoint.json").read_bytes()).hexdigest(),
        } == {
            "stdout": "a74ecb229ff93e82d388eb1a479c06a118d892e9c9a01c424fdbe3178e57a365",
            "checkpoint.json": "9d163c4d453beb9896c4c0af78668aba76596c412da7586b75efc0a22e7904ca",
        }

class TestSweep:
    def test_writes_point_dirs_and_aggregate(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "sweep"
        code = run(["sweep", "--config", str(cfg), "--betas", "0,1", "--out", str(out), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["points"]) == 2
        for i in range(2):
            assert (out / f"point_{i:03d}" / "checkpoint.json").is_file()
        csv = (out / "sweep.csv").read_text().splitlines()
        assert csv[0] == "beta_prime,ce_test,kl_test,acc_test,ixt,ixt_given_y"
        assert len(csv) == 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("priors", ["train", "all"])
    def test_test_split_with_an_unknown_label_exits_one_naming_it(self, tmp_path, capsys, jobs, priors):
        cfg = _write_split_config(tmp_path, priors=priors)
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(cfg), "--betas", "0,1", "--out", str(out), "--jobs", jobs]) == 1
        assert "the test split has label 2" in capsys.readouterr().err
        assert not (out / "point_000").exists()

    def test_config_without_a_required_key_exits_one_naming_file_and_key(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dataset={"kind": "gmm", "classes": 2, "dim": 2, "sep": 4.0, "seed": 3})
        out = tmp_path / "sweep"
        assert run(["sweep", "--config", str(cfg), "--betas", "0,1", "--out", str(out), "--jobs", "2"]) == 1
        assert capsys.readouterr() == ("", f"error: {cfg}: config is missing required key dataset.per_class\n")
        assert not out.exists()

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(["sweep", "--config", str(cfg), "--betas", "0,0.5", "--out", str(out1)]) == 0
        assert run(["sweep", "--config", str(cfg), "--betas", "0,0.5", "--out", str(out2), "--jobs", "2"]) == 0
        for rel in ("sweep.csv", "point_000/checkpoint.json", "point_001/point.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    @pytest.mark.parametrize(
        "jobs,betas,cores,expected",
        [(64, "0,0.5,1", 2, 2), (8, "0,0.5", 16, 2), (3, "0,0.5,1,2", 16, 3), (4, "0", 16, None),
         (2, "0,0.5", 1, None)],
    )
    def test_jobs_clamped_to_points_and_cores(self, tmp_path, monkeypatch, jobs, betas, cores, expected):
        started = []

        class RecordingPool:
            """Stands in for the process pool: records its size, maps in-process."""

            def __init__(self, max_workers=None):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(estimators, "usable_cores", lambda: cores)
        cfg = _write_config(tmp_path)
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(cfg), "--betas", betas, "--out", str(out), "--jobs", str(jobs)]
        assert run(argv) == 0
        assert started == ([] if expected is None else [expected])
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + len(betas.split(","))

    def test_missing_dataset_file_exits_one_before_any_directory(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        cfg = _write_config(tmp_path, dataset={"kind": "json", "train": missing, "test": missing})
        assert run(["sweep", "--config", str(cfg), "--betas", "0,1", "--out", str(tmp_path / "s")]) == 1
        assert "missing.json" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_out_below_a_regular_file_exits_one_naming_it(self, tmp_path, capsys):
        out = _below_a_file(tmp_path)
        assert run(["sweep", "--config", str(_write_config(tmp_path)), "--betas", "0", "--out", str(out)]) == 1
        assert "blocker" in capsys.readouterr().err

    @pytest.mark.parametrize("at_file", [False, True])
    def test_unusable_out_exits_one_before_any_point_trains(self, tmp_path, capsys, monkeypatch, at_file):
        monkeypatch.setattr(model, "sweep", _unreachable)
        out = _below_a_file(tmp_path).parent if at_file else _below_a_file(tmp_path)
        argv = ["sweep", "--config", str(_write_config(tmp_path)), "--betas", "0,1", "--out", str(out)]
        assert run(argv) == 1
        assert str(tmp_path / "blocker") in capsys.readouterr().err

    def test_failing_points_leave_the_same_directories_at_any_jobs(self, tmp_path, capsys, monkeypatch):
        """The 2nd and 4th points diverge, at steps 5 and 6: only the 1st point's directory is written."""
        monkeypatch.setattr(estimators, "usable_cores", lambda: 2)
        cfg = _write_config(tmp_path, encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
                            optim={"kind": "sgd", "lr": 30.0, "steps": 6, "batch": 8, "log_every": 3})
        seen = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            code = run(["sweep", "--config", str(cfg), "--betas", "0,100,0,1e4", "--out", str(out),
                        "--jobs", str(jobs)])
            seen.append((code, capsys.readouterr().err, sorted(p.name for p in out.iterdir())))
        assert seen[0] == seen[1] == (2, "numerical failure: non-finite loss at step 5 (train sample 0)\n",
                                      ["point_000"])
        first = [(tmp_path / f"jobs{jobs}" / "point_000" / "checkpoint.json").read_bytes() for jobs in (1, 2)]
        assert first[0] == first[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_failing_stack_writes_frozen_bytes(self, tmp_path, capsys, monkeypatch, jobs):
        """sha256 of what a diverging 8-point sweep has always written and printed.

        Points 0-4 finish; point 5 fails in its metrics row at step 18, point
        6 in its loss at step 3 and point 7 in its loss at step 4.  At
        --jobs 1 they are one stack; at --jobs 2 points 0-3 are a stack that
        finishes and points 4-7 one that fails.
        """
        monkeypatch.setattr(estimators, "usable_cores", lambda: 2)
        cfg = _write_config(tmp_path, encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
                            optim={"kind": "sgd", "lr": 30.0, "steps": 20, "batch": 8, "log_every": 3})
        out = tmp_path / "sweep"
        code = run(["sweep", "--config", str(cfg), "--betas", "0,3,0,1,1,10,1e3,100", "--out", str(out),
                    "--jobs", jobs])
        assert sorted(p.name for p in out.iterdir()) == [f"point_{i:03d}" for i in range(5)]
        assert _digests(code, capsys.readouterr(), out) == {
            "code": 2,
            "stdout": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "stderr": "f66c7b337693f1f84edf390a88f600a7b8ed19324cdb6562c7f0e0af133417e4",
            "files": "a5c55038b9e0820cfa4affdaaf2a1bbb2b82bb316428c93bf39a0223cbd813cb",
        }

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_succeeding_sweep_writes_frozen_bytes(self, tmp_path, capsys, monkeypatch, jobs):
        """sha256 of what a finishing 5-point sweep has always written and printed.

        At --jobs 2 points 0-1 and 2-4 are the two shares.  The --out path is
        relative, so that stdout, which names it, does not depend on the
        temporary directory.
        """
        monkeypatch.setattr(estimators, "usable_cores", lambda: 2)
        monkeypatch.chdir(tmp_path)
        cfg = _write_config(tmp_path, encoder={"layer_dims": [2, 4, 2], "noise_mode": "learned_eta"},
                            optim={"steps": 12, "batch": 8, "log_every": 4})
        code = run(["sweep", "--config", str(cfg), "--betas", "0,0.3,1,3,10", "--out", "sweep", "--jobs", jobs])
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
            *(f"point_{i:03d}" for i in range(5)), "sweep.csv"]
        assert _digests(code, capsys.readouterr(), tmp_path / "sweep") == {
            "code": 0,
            "stdout": "1c88cc66de073c1877bdeadff9887656d3400a035440b204617e0e1fa3a3305b",
            "stderr": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "files": "09dd77fe806b77d86ce5f95e94e8440a192b7d230c126f4c31d21ffa296f2b67",
        }

    def test_each_share_is_written_as_it_returns(self, tmp_path, monkeypatch):
        """The parent writes share 0's point directories before it reads share 1's result."""
        out = tmp_path / "s"
        written_before = []

        class LazyPool:
            """Stands in for the process pool: each share runs only when its result is read."""

            def __init__(self, max_workers=None):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, payloads):
                for payload in payloads:
                    written_before.append(sorted(p.name for p in out.iterdir()) if out.exists() else [])
                    yield fn(payload)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", LazyPool)
        monkeypatch.setattr(estimators, "usable_cores", lambda: 2)
        argv = ["sweep", "--config", str(_write_config(tmp_path)), "--betas", "0,0.5,1,2", "--out", str(out),
                "--jobs", "2"]
        assert run(argv) == 0
        assert written_before == [[], ["point_000", "point_001"]]

    @pytest.mark.parametrize("failure", ["nonfinite-codes", "minus-inf-true-class"])
    def test_a_point_failing_its_test_evaluation_fails_as_alone(self, tmp_path, capsys, monkeypatch, failure):
        """The third of four points fails only in the stacked test-split evaluation of its trade-off point.

        At --jobs 1 it is the third row of one stack, at --jobs 2 the first row of the second share.  The
        sweep exits with its error and exit code from ``cib train`` alone, and the points before it are
        written byte for byte as alone.
        """
        monkeypatch.setattr(estimators, "usable_cores", lambda: 2)
        betas = [0.0, 0.5, 1.0, 2.0]
        cfg_path = _write_config(tmp_path)
        cfg = json.loads(cfg_path.read_text())
        solo = []
        for i, beta_prime in enumerate(betas):
            path = tmp_path / f"solo{i}.json"
            path.write_text(json.dumps({**cfg, "loss": {"beta_prime": beta_prime}, "seed": model.derive_seed(3, i)}))
            solo.append(path)
        [(_, failing)] = model.sweep(cfg, [2], [betas[2]])
        target = failing.state.store.values.copy()
        armed = []  # set once training is done, in this process or a forked worker
        tradeoff_points, encode_batch, log_probs = (model.tradeoff_points, model.ModelState.encode_batch,
                                                    model.ModelState.log_probs)

        def hit(store):
            return np.all(store.values == target, axis=-1) if armed and store.values.ndim == 2 else False

        def poisoned_codes(self, x):
            codes = encode_batch(self, x)
            codes[hit(self.store)] = np.inf
            return codes

        def poisoned_log_probs(self, t):
            lp = log_probs(self, t)
            lp[hit(self.store)] = -np.inf
            return lp

        monkeypatch.setattr(model, "tradeoff_points", lambda *args: armed.append(1) or tradeoff_points(*args))
        if failure == "nonfinite-codes":
            monkeypatch.setattr(model.ModelState, "encode_batch", poisoned_codes)
        else:
            monkeypatch.setattr(model.ModelState, "log_probs", poisoned_log_probs)

        alone = []
        for i, path in enumerate(solo):
            armed.clear()
            alone.append(run(["train", "--config", str(path), "--out", str(tmp_path / f"alone{i}")]))
            alone.append(capsys.readouterr().err)
        assert alone[1::2] == ["", "", alone[5], ""] and alone[0::2] == [0, 0, 2, 0]
        assert ("codes must be finite" if failure == "nonfinite-codes" else "ce_test") in alone[5]
        for jobs in (1, 2):
            armed.clear()
            out = tmp_path / f"jobs{jobs}"
            code = run(["sweep", "--config", str(cfg_path), "--betas", ",".join(map(str, betas)), "--out", str(out),
                        "--jobs", str(jobs)])
            assert (code, capsys.readouterr().err) == (alone[4], alone[5])
            assert sorted(p.name for p in out.iterdir()) == ["point_000", "point_001"]
            for i in range(2):
                assert (out / f"point_{i:03d}" / "point.json").read_bytes() == (
                    tmp_path / f"alone{i}" / "point.json").read_bytes()

    @pytest.mark.parametrize("lr,steps,betas,code,err", [
        (1e3, 6, "0,100,0,1e4", 2, "numerical failure: learned noise variance exp(35806756.08493792) overflows\n"),
        (30.0, 20, "0,3,0,1,1,10,1e3,100", 2, "numerical failure: encoder codes must be finite\n"),
        (30.0, 20, "0,0.1,0.3,1,3,10,30,100,1e3,1e4", 2,
         "numerical failure: learned noise variance exp(7.532778854391603e+118) overflows\n"),
    ], ids=["4-points-lr-1e3", "8-points-lr-30", "10-points-lr-30"])
    def test_diverging_point_prints_only_its_failure(self, tmp_path, capsys, lr, steps, betas, code, err):
        """Overflow, inf * 0 and inf + -inf in training and evaluation stay silent; the failure line says it."""
        cfg = _write_config(tmp_path, encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
                            optim={"kind": "sgd", "lr": lr, "steps": steps, "batch": 8, "log_every": 3})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = run(["sweep", "--config", str(cfg), "--betas", betas, "--out", str(tmp_path / "s")])
        assert (got, [str(w.message) for w in caught], capsys.readouterr().err) == (code, [], err)

    def test_diverging_workers_print_only_the_failure(self, tmp_path):
        """Forked workers share the process's stderr: a diverging --jobs 2 sweep run as a command prints one line."""
        cfg = _write_config(tmp_path, encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"},
                            optim={"kind": "sgd", "lr": 30.0, "steps": 20, "batch": 8, "log_every": 3})
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "cib.cli", "sweep", "--config", str(cfg), "--betas", "0,3,0,1,1,10,1e3,100",
             "--out", str(tmp_path / "s"), "--jobs", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (done.returncode, done.stdout, done.stderr) == (
            2, "", "numerical failure: encoder codes must be finite\n")

    def test_no_sweep_warns_as_it_diverges(self, tmp_path):
        """Across heads, noise modes, activations, surrogate updates, optimizers and step sizes, numpy warns of nothing.

        A sweep that finishes prints nothing on stderr; one that diverges prints its one failure line and exits 2.
        """
        bad = {}
        for i, grid in enumerate(itertools.product(["softmax", "naive_bayes"], ["fixed_sigma", "learned_eta"],
                                                   ["relu", "softplus", "tanh"], ["gradient", "alternating"],
                                                   ["sgd", "adam"], [3.0, 30.0, 1e3])):
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                code = run(["sweep", "--config", str(_write_diverging_config(tmp_path, *grid)),
                            "--betas", "0,100,0,1e4", "--out", str(tmp_path / f"s{i}")])
            warned = [f"{Path(w.filename).name}:{w.lineno}: {w.message}" for w in caught]
            if warned or err.getvalue().count("\n") != (code != 0) or code not in (0, 2):
                bad[grid] = (code, warned, err.getvalue())
        assert bad == {}

    @pytest.mark.parametrize("head,noise_mode,activation,kind,lr,message", [
        ("softmax", "fixed_sigma", "softplus", "sgd", 3.0, "ClassSurrogate parameters must be finite"),
        ("softmax", "fixed_sigma", "softplus", "sgd", 30.0, "encoder codes must be finite"),
        ("softmax", "fixed_sigma", "tanh", "sgd", 3.0, "kl_term must be nonnegative, got nan"),
        ("softmax", "learned_eta", "tanh", "adam", 1e3, "non-finite or non-numeric values for kl_train, kl_test"),
        ("naive_bayes", "fixed_sigma", "softplus", "sgd", 3.0, "log-probabilities must be finite or -inf"),
        ("naive_bayes", "fixed_sigma", "tanh", "sgd", 3.0, "log-probabilities must be finite or -inf"),
        ("naive_bayes", "learned_eta", "tanh", "sgd", 30.0, "log-probabilities must be finite or -inf"),
        ("naive_bayes", "learned_eta", "tanh", "sgd", 1e3, "log-probabilities must be finite or -inf"),
    ])
    def test_every_check_on_a_runs_numbers_exits_two(self, tmp_path, capsys, head, noise_mode, activation, kind, lr,
                                                     message):
        """Each check on a diverging run's codes, surrogate, log-probabilities, KL or point is a numerical failure."""
        cfg = _write_diverging_config(tmp_path, head, noise_mode, activation, "gradient", kind, lr)
        code = run(["sweep", "--config", str(cfg), "--betas", "0,100,0,1e4", "--out", str(tmp_path / "s")])
        assert (code, capsys.readouterr().err) == (2, f"numerical failure: {message}\n")

    @pytest.mark.parametrize("flags,message", [
        (["--betas", ","], "--betas must list at least one value"),
        (["--betas", "0,1", "--jobs", "0"], "--jobs must be at least 1"),
    ])
    def test_an_empty_grid_or_no_workers_exits_one_naming_the_flag(self, tmp_path, capsys, flags, message):
        out = tmp_path / "s"
        assert run(["sweep", "--config", str(_write_config(tmp_path)), *flags, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_bad_betas_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        for betas in ("a,b", "-1", "nan,1", "1,inf"):
            assert run(["sweep", "--config", str(cfg), "--betas", betas, "--out", str(tmp_path / "s")]) == 1
            assert not (tmp_path / "s").exists()  # rejected before any directory is made


class TestEstimate:
    def test_reports_bounds_from_checkpoint(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        data = tmp_path / "d.json"
        assert run("gen-data --classes 2 --dim 2 --per-class 20 --sep 4 --seed 5 "
                   f"--out {data}".split()) == 0
        capsys.readouterr()
        code = run(["estimate", "--checkpoint", str(out / "checkpoint.json"),
                    "--data", str(data), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"mode", "unconditional", "aggregate", "per_class"}
        assert doc["mode"] == "cited-source"
        assert [set(e) for e in doc["per_class"]] == [{"label", "count", "value"}] * 2

    def test_dataset_of_another_dimension_exits_one_naming_both_flags(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        data = tmp_path / "d3.json"
        assert run(f"gen-data --classes 2 --dim 3 --per-class 20 --sep 4 --seed 5 --out {data}".split()) == 0
        capsys.readouterr()
        assert run(["estimate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data)]) == 1
        err = capsys.readouterr().err
        assert "--data" in err and "--checkpoint" in err and "dimension 3" in err

    def test_unreadable_inputs_exit_one_naming_path_and_key(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        ckpt = out / "checkpoint.json"
        garbage, featureless, paramless = (tmp_path / f"{n}.json" for n in ("garbage", "featureless", "paramless"))
        garbage.write_text("not json")
        featureless.write_text(json.dumps({"labels": [0, 1], "class_count": 2}))
        doc = json.loads(ckpt.read_text())
        del doc["params"]
        paramless.write_text(json.dumps(doc))
        capsys.readouterr()
        for checkpoint, data, named in ((garbage, featureless, [str(garbage)]),
                                        (paramless, featureless, [str(paramless), "params"]),
                                        (ckpt, garbage, [str(garbage)]),
                                        (ckpt, featureless, [str(featureless), "features"])):
            assert run(["estimate", "--checkpoint", str(checkpoint), "--data", str(data)]) == 1
            err = capsys.readouterr().err
            assert all(word in err for word in named), err

    def test_malformed_entries_exit_one_naming_file_and_key_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        data = tmp_path / "d.json"
        assert run(f"gen-data --classes 2 --dim 2 --per-class 5 --sep 4 --seed 5 --out {data}".split()) == 0
        ckpt, valueless, short = out / "checkpoint.json", tmp_path / "valueless.json", tmp_path / "short.json"
        doc = json.loads(ckpt.read_text())
        del doc["params"]["enc.W0"]["values"]
        valueless.write_text(json.dumps(doc))
        doc = json.loads(data.read_text())
        doc["labels"] = doc["labels"][:-1]
        short.write_text(json.dumps(doc))
        doc["labels"].append(0)
        doc["features"][0][1] = True
        boolean = tmp_path / "boolean.json"
        boolean.write_text(json.dumps(doc))
        capsys.readouterr()
        for checkpoint, dataset, named in ((valueless, data, [str(valueless), "params.enc.W0.values"]),
                                           (ckpt, short, [str(short), "labels must align"]),
                                           (ckpt, boolean, [str(boolean), "features must be rows of JSON numbers"])):
            assert run(["estimate", "--checkpoint", str(checkpoint), "--data", str(dataset)]) == 1
            err = capsys.readouterr().err
            assert all(word in err for word in named), err

    def test_labels_beyond_int64_exit_one_naming_file_and_key(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        data = tmp_path / "d.json"
        assert run(f"gen-data --classes 2 --dim 2 --per-class 5 --sep 4 --seed 5 --out {data}".split()) == 0
        capsys.readouterr()
        doc = json.loads(data.read_text())
        for label in (2**63, 10**400, -2**63 - 1):
            doc["labels"][1] = label
            data.write_text(json.dumps(doc))
            assert run(["estimate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data)]) == 1
            assert capsys.readouterr().err == (
                f"error: {data}: labels must lie in [0, 2), not an integer beyond int64\n"), label

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(priors=1.0), "priors must be nonnegative and sum to 1"),
        (lambda doc: doc["priors"].__setitem__(0, 10**400),
         "priors must be JSON numbers, not an integer beyond the float range"),
        (lambda doc: doc["params"]["enc.W0"]["values"].__setitem__(0, 10**400),
         "params.enc.W0.values must be JSON numbers, not an integer beyond the float range"),
    ], ids=["bare-number-priors", "huge-prior", "huge-value"])
    def test_checkpoint_numbers_outside_the_format_exit_one_naming_the_file(self, tmp_path, capsys, edit, message):
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        data = tmp_path / "d.json"
        assert run(f"gen-data --classes 2 --dim 2 --per-class 5 --sep 4 --seed 5 --out {data}".split()) == 0
        ckpt = out / "checkpoint.json"
        doc = json.loads(ckpt.read_text())
        edit(doc)
        ckpt.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["estimate", "--checkpoint", str(ckpt), "--data", str(data)]) == 1
        assert capsys.readouterr().err == f"error: {ckpt}: {message}\n"

    def test_overflowing_learned_noise_is_a_numerical_failure(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"})
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        ckpt["params"]["enc.log_eta2"]["values"] = [1000.0]
        (out / "checkpoint.json").write_text(json.dumps(ckpt))
        data = tmp_path / "d.json"
        assert run("gen-data --classes 2 --dim 2 --per-class 5 --sep 4 --seed 5 "
                   f"--out {data}".split()) == 0
        capsys.readouterr()
        code = run(["estimate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data)])
        assert code == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowing_codes_print_only_the_failure(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        data = tmp_path / "d.json"
        data_io.save_dataset(data_io.Dataset(np.full((4, 2), 1.7e308), np.array([0, 1, 0, 1]), 2), data)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["estimate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data)])
        assert (code, [str(w.message) for w in caught], capsys.readouterr().err) == (
            2, [], "numerical failure: codes must be finite\n")

    def test_entries_the_model_cannot_use_exit_one_naming_the_file(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        ckpt, data = out / "checkpoint.json", tmp_path / "d.json"
        data_io.save_dataset(data_io.Dataset(np.eye(4, 2), np.array([0, 1, 0, 1]), 2), data)
        good = json.loads(data.read_text())
        nan, label, renamed = (tmp_path / f"{n}.json" for n in ("nan", "label", "renamed"))
        nan.write_text(json.dumps({**good, "features": [[float("nan"), 0.0], *good["features"][1:]]}))
        label.write_text(json.dumps({**good, "labels": [0, 1, 0, 2]}))
        doc = json.loads(ckpt.read_text())
        doc["params"]["enc.W9"] = doc["params"].pop("enc.W1")
        renamed.write_text(json.dumps(doc))
        capsys.readouterr()
        for checkpoint, dataset, message in (
            (ckpt, nan, f"{nan}: features must be finite"),
            (ckpt, label, f"{label}: labels must lie in [0, 2)"),
            (renamed, data, f"{renamed}: checkpoint slices ['enc.W0', 'enc.W9', 'enc.b0', 'enc.b1', 'sur.log_sigma', "
                            "'sur.mu'] do not match config slices ['enc.W0', 'enc.W1', 'enc.b0', 'enc.b1', "
                            "'sur.log_sigma', 'sur.mu']"),
        ):
            assert run(["estimate", "--checkpoint", str(checkpoint), "--data", str(dataset)]) == 1
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_priors_not_summing_to_one_exit_one(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        ckpt = json.loads((out / "checkpoint.json").read_text())
        ckpt["priors"] = [0.5, 0.4]
        (out / "checkpoint.json").write_text(json.dumps(ckpt))
        data = tmp_path / "d.json"
        assert run(f"gen-data --classes 2 --dim 2 --per-class 5 --sep 4 --seed 5 --out {data}".split()) == 0
        capsys.readouterr()
        assert run(["estimate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data)]) == 1
        captured = capsys.readouterr()
        assert "priors must be nonnegative and sum to 1" in captured.err and captured.out == ""

    def test_as_printed_mode_flag(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        out = tmp_path / "run"
        run(["train", "--config", str(cfg), "--out", str(out)])
        data = tmp_path / "d.json"
        run(f"gen-data --classes 2 --dim 2 --per-class 10 --sep 4 --seed 5 --out {data}".split())
        capsys.readouterr()
        code = run(["estimate", "--checkpoint", str(out / "checkpoint.json"),
                    "--data", str(data), "--mode", "as-printed", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["mode"] == "as-printed"

    def test_every_mode_and_printed_form_prints_frozen_bytes(self, tmp_path, capsys):
        # sha256 of what estimate has always printed for a learned-eta
        # checkpoint on classes of unequal size: both modes, each printed
        # form, as human output and as --json
        cfg = _write_config(tmp_path,
                            dataset={"kind": "gmm", "classes": 3, "dim": 2, "per_class": 10, "sep": 4.0, "seed": 3},
                            encoder={"layer_dims": [2, 3, 2], "noise_mode": "learned_eta"})
        out = tmp_path / "run"
        assert run(["train", "--config", str(cfg), "--out", str(out)]) == 0
        full = data_io.gen_gmm(data_io.GmmSpec(3, 2, 4.0, 9, 5))
        keep = (full.labels != 0) | (np.arange(full.count) % 3 == 0)  # 3, 9 and 9 rows per class
        data = tmp_path / "d.json"
        data_io.save_dataset(data_io.Dataset(full.features[keep], full.labels[keep], 3), data)
        capsys.readouterr()
        digests = {}
        for mode, *flags in itertools.product(("cited-source", "as-printed"), ([], ["--printed-normalization"]),
                                              ([], ["--printed-weights"]), ([], ["--json"])):
            argv = ["--mode", mode, *itertools.chain(*flags)]
            assert run(["estimate", "--checkpoint", str(out / "checkpoint.json"), "--data", str(data), *argv]) == 0
            digests[" ".join(argv)] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == {
            "--mode cited-source": "0f45ed418a914ce9e9e508df90bc7dbfac5434cdb5a4909c35a5d439c67acadd",
            "--mode cited-source --printed-normalization":
                "88facee8d124afc319fa4180fa2121f8c3e68797db0034f011b3937fdf995019",
            "--mode cited-source --printed-weights": "fa5b2f342093e2039f0cabe2649681bcccd6dcc7bcd966827626b7ca5be08200",
            "--mode cited-source --printed-normalization --printed-weights":
                "72133e690f861782ee22b365d848c121e82c371e05e31d828eef33788f51b206",
            "--mode cited-source --json": "e76d30655107775814d035fab90fb675a48e54965d3de0a563caf43298c1375c",
            "--mode cited-source --printed-normalization --json":
                "2a61b1899592b9fce7017311d21293a1721db8938c591967b8c9603d5ed7bfe8",
            "--mode cited-source --printed-weights --json":
                "626e3f5fddf5acfe00db5d850d83f694a4621ac7cddaece8637ca8623705d5c2",
            "--mode cited-source --printed-normalization --printed-weights --json":
                "473cbb0c3ad492d74a82cd209c94fc6f7bc218ee55619bde09525f52d8f895f9",
            "--mode as-printed": "83720d9adfa67873e41199a196bd1787f8fdb95aaad7ac9cc93235ec6e572b07",
            "--mode as-printed --printed-normalization":
                "6a20a9d97babd77e2b295cf8a0621cfdb677dd5d508923d28ad925280f9eb214",
            "--mode as-printed --printed-weights": "b57f7c45db05f3172941e12a6c0c1946fd98d6e9f2d139c396df5e0853890551",
            "--mode as-printed --printed-normalization --printed-weights":
                "3723355597f46cdde11468d3d751e286214f3ebae02fc98adad9d2d6394c8bc5",
            "--mode as-printed --json": "c5076b3a9d38fa75b3b6f055c8d7dc5fb86f58dfb73a24b0a2bbe1e57727dcd1",
            "--mode as-printed --printed-normalization --json":
                "90cc6f75f193dbcf1f8ce5bf031b60aaa816120f466e4254bef03281c263a6fa",
            "--mode as-printed --printed-weights --json":
                "b95cfb4096bf68dbab59c58bdb08228f1d93d993997297d98fd4564a0bdfc418",
            "--mode as-printed --printed-normalization --printed-weights --json":
                "9b98cab7f7475080027480ac6ed143bfd034447d07be18cd5872914e99a190c7",
        }


class TestGradcheck:
    def test_default_check_passes(self, capsys):
        assert run(["gradcheck", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert set(doc["heads"]) == {"softmax", "naive_bayes"}

    def test_one_class_passes(self, capsys):
        assert run(["gradcheck", "--classes", "1"]) == 0

    def test_impossible_tolerance_fails_with_exit_two(self, capsys):
        assert run(["gradcheck", "--tol", "1e-30"]) == 2

    @pytest.mark.parametrize("argv,flag", [
        (["--batch", "0"], "--batch"),
        (["--classes", "0"], "--classes"),
        (["--eps", "0"], "--eps"),
        (["--eps=-1e-5"], "--eps"),
        (["--eps", "nan"], "--eps"),
        (["--eps", "inf"], "--eps"),
        (["--tol", "0"], "--tol"),
        (["--tol", "nan"], "--tol"),
        (["--tol", "inf"], "--tol"),
        (["--seed", "-1"], "--seed"),
        (["--layers", "2"], "encoder.layer_dims"),
        (["--layers", "a,b"], "--layers must be a comma-separated list of ints: invalid literal for int()"),
        (["--mc-samples", "0"], "loss.mc_samples"),
        (["--layers", "2,0,2"], "layer_dims entry 1 is 0"),
        (["--beta-prime", "nan"], "loss.beta_prime"),
        (["--beta-prime", "inf"], "loss.beta_prime"),
        (["--sigma2", "inf"], "encoder.sigma2"),
    ])
    def test_bad_argument_exits_one_naming_the_flag(self, argv, flag, capsys):
        assert run(["gradcheck", *argv]) == 1
        captured = capsys.readouterr()
        assert flag in captured.err and captured.out == ""

    def test_json_output_is_byte_stable(self, capsys):
        # sha256 of the documents these checks have always printed: the
        # analytic gradients and every central difference keep their bits
        cases = {
            "default": [],
            "learned_eta_mc3": ["--noise-mode", "learned_eta", "--mc-samples", "3", "--classes", "3",
                                "--batch", "5"],
            "relu_3layers": ["--activation", "relu", "--layers", "3,5,4,2", "--classes", "3", "--batch", "6",
                             "--mc-samples", "2"],
            "tanh_softmax_eta": ["--activation", "tanh", "--head", "softmax", "--noise-mode", "learned_eta",
                                 "--layers", "2,4,3", "--seed", "4"],
            "nb_relu_mc3": ["--head", "naive_bayes", "--activation", "relu", "--mc-samples", "3",
                            "--layers", "4,6,2", "--beta-prime", "0.3", "--seed", "2"],
            "bench_shape": ["--layers", "8,32,3", "--classes", "3", "--batch", "16", "--seed", "1"],
        }
        digests = {}
        for name, argv in cases.items():
            assert run(["gradcheck", *argv, "--json"]) == 0
            digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digests == {
            "default": "eefc1008a36e26f185a95b1f9845634d90b986791d7341fcc549a2b02982759d",
            "learned_eta_mc3": "f37cb01f68ae49288d5e981a74be9faac78a776693f25cd4815dfb0c0287cefb",
            "relu_3layers": "9a5445ac307df250a44f53f04e681ac7ccd128cae90174da7bc94fb64e47347b",
            "tanh_softmax_eta": "e0fed2f8ea389aa908bd0159df067140c04815d3b9850d15c6ac8ed233c76679",
            "nb_relu_mc3": "6d4864fe0378577deb03d63b01b1f978784ee8245634ed4cfebc2440d7fcb87d",
            "bench_shape": "76b45875ea48f6ff91aa4d7733401bf286c24da7e3c1da783fbcd386ae537e62",
        }


class TestOracle:
    def test_random_instance_passes_all_verdicts(self, tmp_path, capsys):
        inst = _write_instance(tmp_path, with_samples=True)
        code = run(["oracle", "--instance", str(inst), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["verdicts"]["chain_rule"] == "pass"
        assert doc["verdicts"]["decomposition"] == "pass"
        assert doc["verdicts"]["surrogate_optimality"] == "pass"
        assert doc["report"]["I_XT"] >= 0.0

    def test_human_mode_prints_verdict_lines(self, tmp_path, capsys):
        inst = _write_instance(tmp_path)
        assert run(["oracle", "--instance", str(inst)]) == 0
        out = capsys.readouterr().out
        assert "chain_rule: pass" in out

    def test_malformed_instance_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"p": [[0.5, 0.6]], "q": [[1.0]], "arities": [1]}))
        assert run(["oracle", "--instance", str(path)]) == 1

    @pytest.mark.parametrize("bad", [[3, 0], [-1, 0], [0, -1], [0, 2], [1.7, 1], [True, 0]])
    def test_out_of_range_sample_rejected(self, tmp_path, capsys, bad):
        # the instance has 3 feature values and 2 classes; a float or bool index is never cast
        inst = _write_instance(tmp_path, with_samples=True)
        doc = json.loads(inst.read_text())
        doc["samples"].append(bad)
        inst.write_text(json.dumps(doc))
        assert run(["oracle", "--instance", str(inst)]) == 1
        err = capsys.readouterr().err
        assert "bad oracle instance" in err and "samples must be integer pairs" in err

    @pytest.mark.parametrize("samples", [[], 0, False, "", {}, None, "01", {"01": 1}, 5, [[0, 0, 1]], [[0]], [5],
                                         [[0, 1], "01"], [{"0": 0, "1": 1}]])
    def test_samples_that_are_not_a_nonempty_list_of_pairs_rejected_naming_the_file(self, tmp_path, capsys, samples):
        inst = _write_instance(tmp_path)
        inst.write_text(json.dumps({**json.loads(inst.read_text()), "samples": samples}))
        assert run(["oracle", "--instance", str(inst)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {inst}: bad oracle instance: ")
        assert "samples must be integer pairs" in err and "in a nonempty list" in err

    def test_non_integer_arity_exits_one_naming_arities(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        doc = {"p": random_joint(rng, 3, 2).p.tolist(), "q": random_encoder(rng, 3, (2,)).q.tolist(),
               "arities": [2.9]}
        inst = tmp_path / "instance.json"
        inst.write_text(json.dumps(doc))
        assert run(["oracle", "--instance", str(inst)]) == 1
        assert "arities must be positive integers" in capsys.readouterr().err

    @pytest.mark.parametrize("arities", [4, None, "2", {"2": 1}])
    def test_arities_that_are_not_a_list_rejected_naming_the_file(self, tmp_path, capsys, arities):
        inst = _write_instance(tmp_path)
        inst.write_text(json.dumps({**json.loads(inst.read_text()), "arities": arities}))
        assert run(["oracle", "--instance", str(inst)]) == 1
        message = f"bad oracle instance: arities must be a list of positive integers, got {arities!r}"
        assert capsys.readouterr().err == f"error: {inst}: {message}\n"

    def test_non_object_instance_exits_one_naming_it(self, tmp_path, capsys):
        inst = tmp_path / "instance.json"
        inst.write_text("[1, 2]")
        assert run(["oracle", "--instance", str(inst)]) == 1
        assert "not a JSON object" in capsys.readouterr().err


    @pytest.mark.parametrize("table", ["p", "q"])
    def test_nan_table_entry_exits_one_naming_the_instance(self, tmp_path, capsys, table):
        inst = _write_instance(tmp_path)
        doc = json.loads(inst.read_text())
        doc[table][0][0] = float("nan")
        inst.write_text(json.dumps(doc))
        assert run(["oracle", "--instance", str(inst)]) == 1
        err = capsys.readouterr().err
        assert "bad oracle instance" in err and str(inst) in err


    @pytest.mark.parametrize("table,entry,kind", [
        ("p", "0.25", "str"),  # numpy would read "0.25" as 0.25, and true and false as 1.0 and 0.0
        ("q", True, "bool"),
        ("p", 10**400, "an integer beyond the float range"),
        ("q", -(10**400), "an integer beyond the float range"),
    ])
    def test_table_entries_that_are_not_numbers_exit_one_naming_file_and_key(self, tmp_path, capsys, table,
                                                                             entry, kind):
        inst = _write_instance(tmp_path)
        doc = json.loads(inst.read_text())
        doc[table][0][0] = entry
        inst.write_text(json.dumps(doc))
        assert run(["oracle", "--instance", str(inst)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {inst}: bad oracle instance: {table} must be rows of JSON numbers, not {kind}\n"


    @pytest.mark.parametrize("edit,message", [
        ({"p": []}, "bad oracle instance: joint table must be a nonempty 2-D array"),
        ({"q": []}, "bad oracle instance: encoder table must be a nonempty 2-D array"),
        ({"q": [[1.25, -0.25, 0.0, 0.0], [0.25] * 4, [0.25] * 4]},
         "bad oracle instance: encoder probabilities must be nonnegative"),
        ({"p": [[0.5, 0.0], [0.25, 0.0], [0.25, 0.0]]}, "every class needs positive probability"),
        ({"p": [[1e308, 1e308]]}, "bad oracle instance: joint table sums to inf, not 1"),
        ({"q": [[1e308, 1e308, 0.0, 0.0], [0.25] * 4, [0.25] * 4]},
         "bad oracle instance: each encoder row must sum to 1"),
    ], ids=["empty-p", "empty-q", "negative-q", "class-without-mass", "p-sum-overflows", "q-row-sum-overflows"])
    def test_tables_the_oracle_cannot_use_exit_one_naming_the_instance(self, tmp_path, capsys, edit, message):
        inst = _write_instance(tmp_path, with_samples=True)
        inst.write_text(json.dumps({**json.loads(inst.read_text()), **edit}))
        assert run(["oracle", "--instance", str(inst), "--json"]) == 1
        assert capsys.readouterr() == ("", f"error: {inst}: {message}\n")

    def test_a_failing_verdict_prints_the_report_and_exits_two_naming_it(self, tmp_path, monkeypatch, capsys):
        check = discrete_oracle.surrogate_optimality_check

        def off_by_one(samples, enc):
            rep = check(samples, enc)
            return discrete_oracle.OptimalityReport(rep.lhs_min + 1.0, rep.rhs, rep.surrogate)

        monkeypatch.setattr(discrete_oracle, "surrogate_optimality_check", off_by_one)
        assert run(["oracle", "--instance", str(_write_instance(tmp_path, with_samples=True)), "--json"]) == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["verdicts"] == {
            "chain_rule": "pass", "nonnegativity": "pass", "decomposition": "pass", "surrogate_optimality": "fail"
        }
        assert err == "numerical failure: oracle checks failed: surrogate_optimality\n"


_FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-(2**53), 2**53))


class TestReport:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(point=st.fixed_dictionaries(
        {key: st.floats(0.0, 1.0) if key == "acc_test" else _FINITE for key in cli.POINT_KEYS}
    ))
    def test_any_finite_written_point_reports_its_own_values(self, point):
        with tempfile.TemporaryDirectory() as tmp:
            rundir, out = Path(tmp) / "run", Path(tmp) / "r.csv"
            rundir.mkdir()
            (rundir / "checkpoint.json").write_text("{}")
            (rundir / "metrics.csv").write_text("")
            data_io.write_json(point, rundir / "point.json")
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(["report", "--runs", str(rundir), "--out", str(out)]) == 0
            header, row = out.read_text().splitlines()
        assert header == ",".join(REPORT_KEYS)
        assert [float(v) for v in row.split(",")] == [float(point[key]) for key in REPORT_KEYS]

    def test_empty_run_list_writes_header_only(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(["report", "--out", str(out)]) == 0
        assert out.read_text() == ",".join(REPORT_KEYS) + "\n"

    def test_out_below_a_regular_file_exits_one_naming_it(self, tmp_path, capsys):
        assert run(["report", "--out", str(_below_a_file(tmp_path) / "r.csv")]) == 1
        assert "blocker" in capsys.readouterr().err

    def test_single_run_row_matches_point_json(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        rundir = tmp_path / "run"
        run(["train", "--config", str(cfg), "--out", str(rundir)])
        capsys.readouterr()
        out = tmp_path / "r.csv"
        assert run(["report", "--runs", str(rundir), "--out", str(out)]) == 0
        point = json.loads((rundir / "point.json").read_text())
        header, row = out.read_text().splitlines()
        values = dict(zip(header.split(","), (float(v) for v in row.split(","))))
        for key, value in values.items():
            assert value == point[key]

    def test_five_point_sweep_rows_sorted_by_beta_prime(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        sweep_out = tmp_path / "sweep"
        run(["sweep", "--config", str(cfg), "--betas", "3,0,10,1,0.3", "--out", str(sweep_out)])
        capsys.readouterr()
        dirs = [str(sweep_out / f"point_{i:03d}") for i in range(5)]
        out = tmp_path / "r.csv"
        assert run(["report", "--runs", *dirs, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        betas = [float(r.split(",")[0]) for r in rows]
        assert betas == sorted(betas) == [0.0, 0.3, 1.0, 3.0, 10.0]

    def test_missing_artifacts_listed_per_directory(self, tmp_path, capsys):
        empty = tmp_path / "not_a_run"
        empty.mkdir()
        assert run(["report", "--runs", str(empty), "--out", str(tmp_path / "r.csv")]) == 1
        err = capsys.readouterr().err
        assert "not_a_run" in err and "checkpoint.json" in err

    @pytest.mark.parametrize("edit,named", [
        (lambda p: p.pop("ixt"), "ixt"),
        (lambda p: p.update(ce_test=float("nan")), "ce_test"),
        (lambda p: p.update(kl_train=float("inf")), "kl_train"),
        (lambda p: p.update(acc_test="0.5"), "acc_test"),
        (lambda p: p.update(ixt=10**400), "ixt"),  # an int beyond float range
    ])
    def test_unusable_point_json_rejected_naming_the_directory(self, tmp_path, capsys, edit, named):
        good, bad = tmp_path / "good_run", tmp_path / "bad_run"
        point = dict.fromkeys(cli.POINT_KEYS, 0.5)
        for rd in (good, bad):
            rd.mkdir()
            (rd / "checkpoint.json").write_text("{}")
            (rd / "metrics.csv").write_text("")
            (rd / "point.json").write_text(json.dumps(point))
        edit(point)
        (bad / "point.json").write_text(json.dumps(point))
        out = tmp_path / "r.csv"
        assert run(["report", "--runs", str(good), "--out", str(out)]) == 0
        assert run(["report", "--runs", str(good), str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err
        assert str(bad / "point.json") in err and named in err and "good_run" not in err


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert run(["gen-data", "--bogus", "1"]) == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert run([]) == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(["frobnicate"]) == 1

    @pytest.mark.parametrize("flag", ["train --config", "sweep --config", "estimate --checkpoint",
                                      "estimate --data", "oracle --instance"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_an_input_the_os_cannot_read_exits_one_with_its_message(self, tmp_path, capsys, flag, kind):
        """The read's own OSError names the path; a valid file stands in for every other input."""
        out = tmp_path / "run"
        assert run(["train", "--config", str(_write_config(tmp_path)), "--out", str(out)]) == 0
        data = tmp_path / "d.json"
        assert run(f"gen-data --classes 2 --dim 2 --per-class 5 --sep 4 --seed 5 --out {data}".split()) == 0
        inputs = {"train --config": ["--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "r2")],
                  "sweep --config": ["--config", str(tmp_path / "config.json"), "--betas", "1",
                                     "--out", str(tmp_path / "s")],
                  "estimate --checkpoint": ["--checkpoint", str(out / "checkpoint.json"), "--data", str(data)],
                  "estimate --data": ["--checkpoint", str(out / "checkpoint.json"), "--data", str(data)],
                  "oracle --instance": ["--instance", str(_write_instance(tmp_path))]}
        command, name = flag.split()
        argv = inputs[flag]
        bad = tmp_path / "absent.json"
        if kind == "directory":
            bad.mkdir()
        argv[argv.index(name) + 1] = str(bad)
        capsys.readouterr()
        assert run([command, *argv]) == 1
        reason = "No such file or directory" if kind == "missing" else "Is a directory"
        assert capsys.readouterr() == ("", f"error: [Errno {2 if kind == 'missing' else 21}] {reason}: '{bad}'\n")
        assert not (tmp_path / "r2").exists() and not (tmp_path / "s").exists()

    @pytest.mark.parametrize("argv,code", [(["gradcheck", "--layers", "2,2", "--head", "softmax"], 0),
                                           (["frobnicate"], 1)])
    def test_main_exits_with_the_code_of_run(self, monkeypatch, capsys, argv, code):
        monkeypatch.setattr(sys, "argv", ["cib", *argv])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == code

    def test_cached_parser_leaves_no_state_between_runs(self, tmp_path, capsys):
        assert cli._build_parser() is cli._build_parser()
        not_a_run, out = tmp_path / "not_a_run", tmp_path / "r.csv"
        not_a_run.mkdir()
        assert run(["report", "--runs", str(not_a_run), "--out", str(out)]) == 1
        assert run(["train", "--out", str(out)]) == 1  # parse error: --config missing
        assert run(["report", "--out", str(out)]) == 0
        assert out.read_text() == ",".join(REPORT_KEYS) + "\n"
        parser = cli._build_parser()
        report = parser.parse_args(["report", "--out", "a"])
        parallel = parser.parse_args(["sweep", "--config", "c", "--betas", "1", "--out", "b", "--jobs", "2"])
        serial = parser.parse_args(["sweep", "--config", "c", "--betas", "1", "--out", "b"])
        assert serial.jobs == 1 and parallel.jobs == 2
        assert not hasattr(parallel, "runs") and not hasattr(report, "jobs")
        with pytest.raises(AttributeError):
            report.runs.append("leaked")  # the shared default cannot be mutated
        assert list(parser.parse_args(["report", "--out", "a"]).runs) == []


class TestTracedEntryPoints:
    """The benchmark wraps these names; each must exist and fire on a training command."""

    def test_train_calls_each_evaluation_entry_point(self, tmp_path, monkeypatch, capsys):
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        kl = counted("kl_to_surrogate", gaussians.kl_to_surrogate)
        monkeypatch.setattr(gaussians, "kl_to_surrogate", kl)
        monkeypatch.setattr(objectives, "kl_to_surrogate", kl)
        monkeypatch.setattr(objectives, "cib_loss", counted("cib_loss", objectives.cib_loss))
        monkeypatch.setattr(model, "evaluate", counted("evaluate", model.evaluate))
        monkeypatch.setattr(estimators, "bound_report", counted("bound_report", estimators.bound_report))
        monkeypatch.setattr(
            model.ModelState, "encode_batch", counted("encode_batch", model.ModelState.encode_batch)
        )
        cfg = _write_config(tmp_path)  # 6 steps logged every 3: metrics rows at steps 0, 3 and 6
        assert run(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        # one per metrics row, plus the test split of the trade-off point (its
        # train split is the final metrics row's)
        per_split = 3 + 1
        assert counts == {"cib_loss": per_split, "kl_to_surrogate": per_split, "encode_batch": per_split,
                          "evaluate": 1, "bound_report": 1}

    def test_oracle_calls_info_report_once(self, tmp_path, monkeypatch, capsys):
        calls = []
        report = discrete_oracle.info_report
        monkeypatch.setattr(discrete_oracle, "info_report", lambda *args: calls.append(args) or report(*args))
        assert run(["oracle", "--instance", str(_write_instance(tmp_path, with_samples=True))]) == 0
        assert len(calls) == 1

    def test_oracle_derives_each_quantity_once(self, tmp_path, monkeypatch, capsys):
        """q(T|Y), the stacked information pass and the sample check, once per instance."""
        calls = collections.Counter()
        for name in ("induced", "_info_pass", "_checked_samples"):
            fn = getattr(discrete_oracle, name)
            monkeypatch.setattr(discrete_oracle, name,
                                lambda *args, _fn=fn, _name=name: calls.update([_name]) or _fn(*args))
        assert run(["oracle", "--instance", str(_write_instance(tmp_path, with_samples=True))]) == 0
        assert calls == {"induced": 1, "_info_pass": 1, "_checked_samples": 1}

    def test_every_wrapped_name_exists(self):
        tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "layers.py").read_text())
        lists = {
            node.targets[0].id: ast.literal_eval(node.value)
            for node in tree.body
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("FUNCTIONS", "METHODS")
        }
        assert lists["FUNCTIONS"] and lists["METHODS"]
        for home, attr, _ in lists["FUNCTIONS"]:
            assert callable(getattr(importlib.import_module(f"cib.{home}"), attr, None)), f"cib.{home}.{attr}"
        for home, cls_name, method, _ in lists["METHODS"]:
            cls = getattr(importlib.import_module(f"cib.{home}"), cls_name, None)
            assert cls is not None and method in cls.__dict__, f"cib.{home}.{cls_name}.{method}"
