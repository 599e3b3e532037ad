"""Dataset synthesis and the on-disk formats (IDX, checkpoints, metrics, configs)."""

import json
import math
import struct

import numpy as np
import pytest

from cib import data_io, model
from cib.data_io import (
    CheckpointError,
    ConfigError,
    Dataset,
    GmmSpec,
    IdxFormatError,
    MetricsRow,
    gen_gmm,
    gen_gmm_splits,
    read_idx,
    standardize,
    validate_config,
    write_idx,
    write_metrics,
)


class TestGenGmm:
    def test_zero_separation_has_chance_bayes_error(self):
        ds = gen_gmm(GmmSpec(class_count=2, dim=2, sep=0.0, per_class=10, seed=0))
        assert ds.provenance["bayes_error"] == pytest.approx(0.5, abs=1e-15)

    def test_reference_mixture_bayes_error_matches_normal_cdf(self):
        ds = gen_gmm(GmmSpec(class_count=2, dim=2, sep=4.0, per_class=10, seed=7))
        phi_minus_two = 0.5 * (1.0 + math.erf(-2.0 / math.sqrt(2.0)))
        assert ds.provenance["bayes_error"] == pytest.approx(phi_minus_two, abs=1e-15)
        assert ds.provenance["bayes_error"] == pytest.approx(0.02275, abs=1e-5)

    def test_bayes_error_agrees_with_monte_carlo_classification(self):
        # nearest-mean classification of fresh draws approximates Phi(-s/2)
        spec = GmmSpec(class_count=2, dim=2, sep=4.0, per_class=500_000, seed=3)
        ds = gen_gmm(spec)
        means = np.stack([ds.features[ds.labels == y].mean(axis=0) for y in (0, 1)])
        d0 = np.linalg.norm(ds.features - means[0], axis=1)
        d1 = np.linalg.norm(ds.features - means[1], axis=1)
        predicted = (d1 < d0).astype(int)
        error = float(np.mean(predicted != ds.labels))
        assert error == pytest.approx(ds.provenance["bayes_error"], abs=5e-4)

    def test_same_seed_is_bit_identical(self):
        spec = GmmSpec(class_count=3, dim=4, sep=2.0, per_class=50, seed=11)
        a, b = gen_gmm(spec), gen_gmm(spec)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_stratified_counts_are_exact(self):
        ds = gen_gmm(GmmSpec(class_count=3, dim=2, sep=1.0, per_class=17, seed=5))
        np.testing.assert_array_equal(np.bincount(ds.labels), [17, 17, 17])

    def test_splits_share_means_and_train_half_is_gen_gmm(self):
        spec = GmmSpec(class_count=2, dim=5, sep=6.0, per_class=2000, seed=9)
        train, test = gen_gmm_splits(spec, test_per_class=2000)
        single = gen_gmm(spec)
        np.testing.assert_array_equal(train.features, single.features)
        for y in (0, 1):
            mu_train = train.features[train.labels == y].mean(axis=0)
            mu_test = test.features[test.labels == y].mean(axis=0)
            assert np.linalg.norm(mu_train - mu_test) < 0.2

    def test_two_class_mean_distance_equals_separation(self):
        for dim in (2, 3, 7):
            spec = GmmSpec(class_count=2, dim=dim, sep=4.0, per_class=20000, seed=13)
            ds = gen_gmm(spec)
            mu0 = ds.features[ds.labels == 0].mean(axis=0)
            mu1 = ds.features[ds.labels == 1].mean(axis=0)
            assert np.linalg.norm(mu0 - mu1) == pytest.approx(4.0, abs=0.1)


class TestStandardize:
    def test_train_moments_and_test_transform(self):
        rng = np.random.default_rng(0)
        train = Dataset(rng.normal(3.0, 2.5, (400, 3)), rng.integers(0, 2, 400), 2)
        test = Dataset(rng.normal(3.0, 2.5, (100, 3)), rng.integers(0, 2, 100), 2)
        s_train, s_test = standardize(train, test)
        np.testing.assert_allclose(s_train.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(s_train.features.var(axis=0), 1.0, atol=1e-10)
        mu, sd = train.features.mean(axis=0), train.features.std(axis=0)
        np.testing.assert_allclose(s_test.features, (test.features - mu) / sd, atol=0, rtol=0)

    def test_constant_dimension_left_unscaled(self):
        feats = np.column_stack([np.ones(10), np.arange(10.0)])
        train = Dataset(feats, np.zeros(10, dtype=int), 1)
        s_train, _ = standardize(train)
        np.testing.assert_allclose(s_train.features[:, 0], 0.0, atol=1e-15)


def _write_label_file(path, labels, magic=0x00000801):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", magic, len(labels)))
        f.write(bytes(labels))


def _write_image_file(path, n, rows, cols, payload, magic=0x00000803):
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", magic, n, rows, cols))
        f.write(bytes(payload))


class TestIdx:
    def test_parses_fixed_label_bytes(self, tmp_path):
        _write_image_file(tmp_path / "im", 3, 1, 1, [0, 128, 255])
        _write_label_file(tmp_path / "lb", [0, 1, 2])
        ds = read_idx(tmp_path / "im", tmp_path / "lb")
        np.testing.assert_array_equal(ds.labels, [0, 1, 2])
        np.testing.assert_allclose(ds.features[:, 0], [0.0, 128 / 255, 1.0], atol=0)

    def test_parses_two_by_two_images(self, tmp_path):
        _write_image_file(tmp_path / "im", 2, 2, 2, range(8))
        _write_label_file(tmp_path / "lb", [1, 0])
        ds = read_idx(tmp_path / "im", tmp_path / "lb")
        assert ds.features.shape == (2, 4)
        np.testing.assert_allclose(ds.features[1], np.arange(4, 8) / 255.0, atol=0)

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(6)
        payload = rng.integers(0, 256, size=5 * 9, dtype=np.uint8)
        _write_image_file(tmp_path / "im", 5, 3, 3, payload.tolist())
        _write_label_file(tmp_path / "lb", [0, 1, 2, 3, 4])
        ds = read_idx(tmp_path / "im", tmp_path / "lb")
        write_idx(tmp_path / "im2", tmp_path / "lb2", ds.features, ds.labels, (3, 3))
        assert (tmp_path / "im2").read_bytes() == (tmp_path / "im").read_bytes()
        assert (tmp_path / "lb2").read_bytes() == (tmp_path / "lb").read_bytes()
        again = read_idx(tmp_path / "im2", tmp_path / "lb2")
        np.testing.assert_array_equal(again.features, ds.features)
        np.testing.assert_array_equal(again.labels, ds.labels)

    def test_wrong_magic_rejected(self, tmp_path):
        _write_image_file(tmp_path / "im", 1, 1, 1, [7], magic=0x00000802)
        _write_label_file(tmp_path / "lb", [0])
        with pytest.raises(IdxFormatError, match="magic"):
            read_idx(tmp_path / "im", tmp_path / "lb")

    def test_truncated_payload_rejected(self, tmp_path):
        with open(tmp_path / "im", "wb") as f:
            f.write(struct.pack(">IIII", 0x00000803, 2, 2, 2))
            f.write(bytes([1, 2, 3]))  # needs 8
        _write_label_file(tmp_path / "lb", [0, 1])
        with pytest.raises(IdxFormatError, match="truncated"):
            read_idx(tmp_path / "im", tmp_path / "lb")

    def test_count_mismatch_rejected(self, tmp_path):
        _write_image_file(tmp_path / "im", 2, 1, 1, [1, 2])
        _write_label_file(tmp_path / "lb", [0, 1, 1])
        with pytest.raises(IdxFormatError, match="labels"):
            read_idx(tmp_path / "im", tmp_path / "lb")


def _tiny_config():
    return {
        "dataset": {"kind": "gmm", "classes": 2, "dim": 2, "per_class": 8, "sep": 3.0, "seed": 1},
        "encoder": {"layer_dims": [2, 3, 2]},
        "loss": {"beta_prime": 1.0},
        "optim": {"steps": 3, "batch": 4},
        "seed": 1,
    }


class TestCheckpoints:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        cfg = validate_config(_tiny_config())
        rng = np.random.default_rng(2)
        state = model.build_state(cfg, np.array([0.5, 0.5]), rng)
        first = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, state.surrogate(), state.head, cfg, first)
        encoder, surrogate, head, config = data_io.load_checkpoint(first)
        second = tmp_path / "ckpt2.json"
        data_io.save_checkpoint(encoder, surrogate, head, config, second)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        cfg = validate_config(_tiny_config())
        state = model.build_state(cfg, np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, state.surrogate(), state.head, cfg, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="format_version"):
            data_io.load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg = validate_config(_tiny_config())
        state = model.build_state(cfg, np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, state.surrogate(), state.head, cfg, path)
        doc = json.loads(path.read_text())
        doc["params"]["enc.W0"]["shape"] = [2, 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="shape"):
            data_io.load_checkpoint(path)

    def test_loaded_values_match_exactly(self, tmp_path):
        cfg = validate_config(_tiny_config())
        rng = np.random.default_rng(3)
        state = model.build_state(cfg, np.array([0.25, 0.75]), rng)
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, state.surrogate(), state.head, cfg, path)
        encoder, surrogate, head, _ = data_io.load_checkpoint(path)
        np.testing.assert_array_equal(encoder.store.values, state.store.values)
        np.testing.assert_array_equal(surrogate.priors, state.priors)

    def test_loaded_model_reproduces_evaluation_without_drift(self, tmp_path):
        cfg = validate_config(_tiny_config())
        train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
        run = model.train(cfg, train_ds, test_ds)
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(run.state, run.state.surrogate(), run.state.head, cfg, path)
        encoder, surrogate, head, config = data_io.load_checkpoint(path)
        loaded = model.ModelState(
            config=config, store=encoder.store, encoder=encoder, head=head, priors=surrogate.priors
        )
        before = model.evaluate(run.state, test_ds)
        after = model.evaluate(loaded, test_ds)
        assert after.accuracy == before.accuracy
        assert after.cross_entropy == before.cross_entropy
        assert after.kl_term == before.kl_term
        assert after.bounds.unconditional == before.bounds.unconditional


class TestMetricsCsv:
    def test_empty_series_writes_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([], path)
        assert path.read_text() == data_io.METRICS_HEADER + "\n"

    def test_single_row_is_two_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([MetricsRow(1, 0.5, 0.25, 1.0, 0.75, 0.9)], path)
        assert len(path.read_text().splitlines()) == 2

    def test_parse_back_is_exact(self, tmp_path):
        rows = [
            MetricsRow(0, 1.0 / 3.0, math.pi, 0.3, 1.0 / 3.0 + 0.3 * math.pi, 2.0 / 3.0),
            MetricsRow(100, 1e-17, 123456.789012345678, 9.0, 0.1 + 0.2, 1.0),
        ]
        path = tmp_path / "m.csv"
        write_metrics(rows, path)
        parsed = data_io.read_metrics(path)
        for row, back in zip(rows, parsed):
            assert back == row  # float equality: repr round-trips exactly


class TestAtomicWrites:
    class _FailingFile:
        """Writes half of what it is given, then fails like a full disk."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, text):
            self.f.write(text[: len(text) // 2])
            self.f.flush()
            raise OSError("no space left on device")

    @pytest.mark.parametrize("writer", ["metrics", "dataset"])
    def test_failed_write_keeps_previous_file_and_leaves_no_temporary(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "artifact"
        ds = gen_gmm(GmmSpec(class_count=2, dim=2, sep=4.0, per_class=3, seed=0))
        rows = [MetricsRow(step, 0.5, 0.25, 1.0, 0.75, 0.5) for step in range(3)]
        write = {
            "metrics": lambda n: write_metrics(rows[:n], path),
            "dataset": lambda n: data_io.save_dataset(Dataset(ds.features[:n], ds.labels[:n], 2), path),
        }[writer]
        write(2)
        before = path.read_bytes()
        real_open = open
        monkeypatch.setattr(data_io, "open", lambda *a, **k: self._FailingFile(real_open(*a, **k)), raising=False)
        with pytest.raises(OSError, match="no space left"):
            write(3)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_replaces_an_existing_file(self, tmp_path):
        path = tmp_path / "a.txt"
        data_io.write_text_atomic(path, "old\n")
        data_io.write_text_atomic(path, "new\n")
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


class TestConfig:
    def test_defaults_are_applied(self):
        cfg = validate_config(_tiny_config())
        assert cfg["encoder"]["activation"] == "softplus"
        assert cfg["decoder"]["variant"] == "naive_bayes"
        assert cfg["optim"]["kind"] == "adam"
        assert cfg["loss"]["mc_samples"] == 1
        assert cfg["surrogate"]["learn_sigma"] is True

    def test_missing_required_key_rejected(self):
        bad = _tiny_config()
        del bad["encoder"]
        with pytest.raises(ConfigError, match="encoder"):
            validate_config(bad)

    def test_beta_and_beta_prime_are_exclusive(self):
        bad = _tiny_config()
        bad["loss"] = {"beta": 0.5, "beta_prime": 1.0}
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(bad)
        bad["loss"] = {}
        with pytest.raises(ConfigError, match="exactly one"):
            validate_config(bad)

    def test_unknown_keys_rejected(self):
        bad = _tiny_config()
        bad["extra"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            validate_config(bad)
        bad2 = _tiny_config()
        bad2["optim"]["momentum"] = 0.9
        with pytest.raises(ConfigError, match="unknown"):
            validate_config(bad2)

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            data_io.load_config(path)

    def test_dataset_from_config_generates_splits(self):
        cfg = validate_config(_tiny_config())
        train, test = data_io.dataset_from_config(cfg["dataset"])
        assert train.count == 16 and test.count == 16
        assert train.class_count == test.class_count == 2

    def test_dataset_from_config_standardizes_when_asked(self):
        dcfg = dict(_tiny_config()["dataset"])
        dcfg["standardize"] = True
        dcfg["per_class"] = 200
        train, _ = data_io.dataset_from_config(dcfg)
        np.testing.assert_allclose(train.features.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(train.features.var(axis=0), 1.0, atol=1e-10)
