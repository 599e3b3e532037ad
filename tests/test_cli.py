"""Command-line surface: exit codes, artifacts, and JSON mode."""

import hashlib
import json

import numpy as np
import pytest

from cib import cli, data_io
from cib.cli import REPORT_HEADER, run
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

    def test_json_mode_emits_single_document(self, tmp_path, capsys):
        out = tmp_path / "d.json"
        code = run(
            f"gen-data --classes 2 --dim 2 --per-class 5 --sep 1 --seed 0 --out {out} --json".split()
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 10


class TestTrain:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert run(["train", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "run")]) == 1

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

    def test_identical_invocations_produce_identical_bytes(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(["train", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run(["train", "--config", str(cfg), "--out", str(out2)]) == 0
        for name in ("checkpoint.json", "metrics.csv", "point.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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
        assert csv[0] == REPORT_HEADER
        assert len(csv) == 3

    def test_parallel_jobs_match_sequential(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert run(["sweep", "--config", str(cfg), "--betas", "0,0.5", "--out", str(out1)]) == 0
        assert run(["sweep", "--config", str(cfg), "--betas", "0,0.5", "--out", str(out2), "--jobs", "2"]) == 0
        for rel in ("sweep.csv", "point_000/checkpoint.json", "point_001/point.json"):
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()

    @pytest.mark.parametrize(
        "jobs,betas,cores,expected",
        [(64, "0,0.5,1", 2, 2), (8, "0,0.5", 16, 2), (3, "0,0.5,1,2", 16, 3), (4, "0", 16, None)],
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
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cores)
        cfg = _write_config(tmp_path)
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(cfg), "--betas", betas, "--out", str(out), "--jobs", str(jobs)]
        assert run(argv) == 0
        assert started == ([] if expected is None else [expected])
        assert len((out / "sweep.csv").read_text().splitlines()) == 1 + len(betas.split(","))

    def test_bad_betas_rejected(self, tmp_path, capsys):
        cfg = _write_config(tmp_path)
        assert run(["sweep", "--config", str(cfg), "--betas", "a,b", "--out", str(tmp_path / "s")]) == 1
        assert run(["sweep", "--config", str(cfg), "--betas", "-1", "--out", str(tmp_path / "s")]) == 1


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


class TestGradcheck:
    def test_default_check_passes(self, capsys):
        assert run(["gradcheck", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert set(doc["heads"]) == {"softmax", "naive_bayes"}

    def test_impossible_tolerance_fails_with_exit_two(self, capsys):
        assert run(["gradcheck", "--tol", "1e-30"]) == 2


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


class TestReport:
    def test_empty_run_list_writes_header_only(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert run(["report", "--out", str(out)]) == 0
        assert out.read_text() == REPORT_HEADER + "\n"

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
        assert "bad_run" in err and named in err and "good_run" not in err


class TestUsage:
    def test_unknown_flag_exits_one(self, capsys):
        assert run(["gen-data", "--bogus", "1"]) == 1

    def test_missing_subcommand_exits_one(self, capsys):
        assert run([]) == 1

    def test_unknown_subcommand_exits_one(self, capsys):
        assert run(["frobnicate"]) == 1
