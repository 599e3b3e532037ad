"""Dataset synthesis and the on-disk formats (IDX, checkpoints, metrics, configs)."""

import contextlib
import io
import json
import math
import re
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cib import cli, data_io, model
from cib.data_io import (
    CONFIG_FIELDS,
    REQUIRED,
    Dataset,
    GmmSpec,
    MetricsRow,
    gen_gmm,
    gen_gmm_splits,
    read_idx,
    standardize,
    validate_config,
    write_idx,
    write_metrics,
)
from helpers import reference_validate_config


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

    def test_a_test_split_needs_a_row_per_class(self):
        with pytest.raises(ValueError, match="test_per_class must be positive"):
            gen_gmm_splits(GmmSpec(class_count=2, dim=2, sep=1.0, per_class=5, seed=0), 0)

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

    def test_equals_the_two_temporary_formula_and_leaves_inputs_alone(self):
        rng = np.random.default_rng(1)
        features = [rng.normal(-1.0, 3.0, (50, 4)), rng.normal(2.0, 0.5, (20, 4))]
        features[0][:, 2] = 7.0  # a constant dimension: std is replaced by 1
        copies = [f.copy() for f in features]
        train, test = (Dataset(f, np.arange(len(f)) % 2, 2) for f in features)
        mean, std = features[0].mean(axis=0), features[0].std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        for split, out in zip((train, test), standardize(train, test)):
            assert np.array_equal(out.features, (split.features - mean) / std)
            assert out.features is not split.features
        assert all(np.array_equal(f, c) for f, c in zip(features, copies))
        assert train.features is features[0] and test.features is features[1]

    def test_a_spread_beyond_float_range_is_an_error_not_a_column_of_zeros(self):
        train = Dataset(np.array([[1.5e308, 1.0], [-1.5e308, 2.0]]), np.array([0, 1]), 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no numpy overflow warning before it
            with pytest.raises(ValueError, match="^dataset.standardize: the train split's feature spread is not finite$"):
                standardize(train)


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

    def test_write_rejects_features_that_do_not_fit_the_image_shape(self, tmp_path):
        with pytest.raises(ValueError, match=r"^features \(2, 4\) do not match image shape \(3, 3\)$"):
            write_idx(tmp_path / "im", tmp_path / "lb", np.zeros((2, 4)), np.array([0, 1]), (3, 3))
        assert not (tmp_path / "im").exists() and not (tmp_path / "lb").exists()

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

    @pytest.mark.parametrize("labels", [[0, 300], [-1, 0], [0.0, 0.5], [0.0, 1.0], [True, False], [0, 1, 1], [0],
                                        [[0], [1]]])
    def test_labels_that_a_label_byte_cannot_hold_rejected_before_writing(self, tmp_path, labels):
        """Each would be written as another label (300 as 44, -1 as 255, 0.5 as 0) or as an unreadable pair."""
        with pytest.raises(ValueError, match="labels must be 2 integers in \\[0, 255\\], one per row"):
            write_idx(tmp_path / "im", tmp_path / "lb", np.zeros((2, 1)), np.array(labels), (1, 1))
        assert not (tmp_path / "im").exists() and not (tmp_path / "lb").exists()

    @pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1])
    def test_features_outside_the_unit_interval_rejected_before_writing(self, tmp_path, bad):
        with pytest.raises(ValueError, match="features must lie in \\[0, 1\\]"):
            write_idx(tmp_path / "im", tmp_path / "lb", np.array([[0.5], [bad]]), np.array([0, 1]), (1, 1))
        assert not (tmp_path / "im").exists()

    def test_labels_at_the_byte_range_ends_round_trip(self, tmp_path):
        labels = np.array([0, 255, 7], dtype=np.int64)
        write_idx(tmp_path / "im", tmp_path / "lb", np.zeros((3, 1)), labels, (1, 1))
        np.testing.assert_array_equal(read_idx(tmp_path / "im", tmp_path / "lb").labels, labels)

    _MAGIC = {"im": struct.pack(">I", 0x00000803), "lb": struct.pack(">I", 0x00000801)}

    @classmethod
    def _pair(cls, tmp_path, broken=None, header=None, payload=None):
        """Two 1 x 1 images and their labels, with ``broken``'s header or payload (after its magic) replaced."""
        files = {"im": (struct.pack(">III", 2, 1, 1), bytes([7, 9])), "lb": (struct.pack(">I", 2), bytes([0, 1]))}
        for name, (sizes, body) in files.items():
            if name == broken and header is not None:  # a short header ends the file
                sizes, body = header, b""
            if name == broken and payload is not None:
                body = payload
            (tmp_path / name).write_bytes(cls._MAGIC[name] + sizes + body)
        return tmp_path / "im", tmp_path / "lb"

    @pytest.mark.parametrize("broken,kind", [("im", "image"), ("lb", "label")])
    def test_wrong_magic_rejected_naming_the_file(self, tmp_path, broken, kind):
        self._pair(tmp_path)
        path = tmp_path / broken
        path.write_bytes(struct.pack(">I", 0x00000802) + path.read_bytes()[4:])
        with pytest.raises(ValueError, match=re.escape(f"{path}: bad {kind} magic 0x00000802, expected 0x")):
            read_idx(tmp_path / "im", tmp_path / "lb")

    @pytest.mark.parametrize("broken,header,payload,wanted", [
        ("im", None, bytes([7]), "wanted 2 bytes, got 1"),
        ("lb", None, bytes([0]), "wanted 2 bytes, got 1"),
        ("im", struct.pack(">II", 2, 1), None, "wanted 12 bytes, got 8"),
        ("lb", b"\0\0", None, "wanted 4 bytes, got 2"),
    ], ids=["image-payload", "label-payload", "image-header", "label-header"])
    def test_truncated_file_rejected_naming_it(self, tmp_path, broken, header, payload, wanted):
        part = "payload" if header is None else "header"
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / broken}: truncated {part} ({wanted})")):
            read_idx(*self._pair(tmp_path, broken, header, payload))

    @pytest.mark.parametrize("broken,sizes,wanted", [
        ("im", (2**32 - 1,) * 3, (2**32 - 1) ** 3),  # beyond what one read can ask for
        ("im", (65535, 65535, 255), 65535 * 65535 * 255),  # 1.1 TB
        ("lb", (2**32 - 1,), 2**32 - 1),
    ], ids=["image-overflow", "image-terabyte", "label-4gb"])
    def test_payload_larger_than_the_file_rejected_before_reading(self, tmp_path, broken, sizes, wanted):
        """The header's declared payload is compared with the file's length; 10 payload bytes follow it."""
        header = struct.pack(f">{len(sizes)}I", *sizes)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / broken}: truncated payload "
                                                           f"(wanted {wanted} bytes, got 10)")):
            read_idx(*self._pair(tmp_path, broken, payload=bytes(10), header=header))

    @pytest.mark.parametrize("broken,payload", [("im", bytes([7, 9, 0])), ("lb", bytes([0, 1, 1]))], ids=["im", "lb"])
    def test_trailing_bytes_rejected_naming_the_file(self, tmp_path, broken, payload):
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / broken}: trailing bytes after payload")):
            read_idx(*self._pair(tmp_path, broken, payload=payload))

    @pytest.mark.parametrize("n,rows,cols", [(0, 1, 1), (0, 28, 28), (2, 0, 1), (2, 1, 0)])
    def test_images_without_pixels_rejected_naming_the_images_file(self, tmp_path, n, rows, cols):
        """An empty pair would otherwise reach the dataset check, which names no file."""
        _write_image_file(tmp_path / "im", n, rows, cols, [])
        _write_label_file(tmp_path / "lb", [0] * n)
        with pytest.raises(ValueError, match=re.escape(f"{tmp_path / 'im'}: no pixels ({n} images of {rows} x {cols})")):
            read_idx(tmp_path / "im", tmp_path / "lb")

    def test_count_mismatch_rejected(self, tmp_path):
        _write_image_file(tmp_path / "im", 2, 1, 1, [1, 2])
        _write_label_file(tmp_path / "lb", [0, 1, 1])
        with pytest.raises(ValueError, match="labels"):
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
        data_io.save_checkpoint(state, first)
        second = tmp_path / "ckpt2.json"
        data_io.save_checkpoint(data_io.load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_version_rejected(self, tmp_path):
        cfg = validate_config(_tiny_config())
        state = model.build_state(cfg, np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 2
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            data_io.load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        cfg = validate_config(_tiny_config())
        state = model.build_state(cfg, np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["params"]["enc.W0"]["shape"] = [2, 3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="shape"):
            data_io.load_checkpoint(path)

    def test_missing_slice_entry_names_file_and_key_path(self, tmp_path):
        state = model.build_state(validate_config(_tiny_config()), np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        del doc["params"]["enc.W0"]["values"]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="params.enc.W0.values") as exc:
            data_io.load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key,value,message", [
        # numpy would read each of these as a slice or priors of float64 numbers
        ("enc.W0", lambda v: ["0.25", True, *v[2:]], "params.enc.W0.values must be JSON numbers, not bool, str"),
        ("enc.b0", lambda v: [None, *v[1:]], "params.enc.b0.values must be JSON numbers, not NoneType"),
        ("enc.b0", lambda v: [[x] for x in v], "params.enc.b0.values must be JSON numbers, not list"),
        ("enc.log_eta2", lambda v: "0.5", "params.enc.log_eta2.values must be JSON numbers, not str"),
        ("priors", lambda v: ["0.5", 0.5], "priors must be JSON numbers, not str"),
        ("priors", lambda v: [True, 0], "priors must be JSON numbers, not bool"),
        ("enc.W0", lambda v: [10**400, *v[1:]],
         "params.enc.W0.values must be JSON numbers, not an integer beyond the float range"),
        ("priors", lambda v: [-(10**400), 1], "priors must be JSON numbers, not an integer beyond the float range"),
    ], ids=["str-and-bool", "null", "nested", "scalar-str", "str-prior", "bool-priors", "huge-value", "huge-prior"])
    def test_entries_that_are_not_numbers_name_file_and_key(self, tmp_path, key, value, message):
        cfg = _tiny_config()
        cfg["encoder"]["noise_mode"] = "learned_eta"
        state = model.build_state(validate_config(cfg), np.array([0.5, 0.5]), np.random.default_rng(4))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        if key == "priors":
            doc["priors"] = value(doc["priors"])
        else:
            doc["params"][key]["values"] = value(doc["params"][key]["values"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"{message}$") as exc:
            data_io.load_checkpoint(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("priors", [[0.5, 0.6], [-0.5, 1.5], [float("nan"), 1.0], 1.0],
                             ids=["sum", "negative", "nan", "bare-number"])
    def test_priors_that_are_not_a_distribution_name_the_file(self, tmp_path, priors):
        state = model.build_state(validate_config(_tiny_config()), np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["priors"] = priors
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: priors must be nonnegative and sum to 1")):
            data_io.load_checkpoint(path)

    def test_bad_priors_are_reported_before_bad_slices(self, tmp_path):
        """The priors are checked where they enter the model, before its slices are read."""
        state = model.build_state(validate_config(_tiny_config()), np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["priors"] = [0.5, 0.6]
        doc["params"]["enc.W0"]["values"][0] = float("inf")
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: priors must be nonnegative and sum to 1")):
            data_io.load_checkpoint(path)

    def test_integer_values_and_priors_load_as_float64(self, tmp_path):
        state = model.build_state(validate_config(_tiny_config()), np.array([0.5, 0.5]))
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["params"]["enc.b0"]["values"] = [1, -2, 0]
        doc["priors"] = [1, 0]
        path.write_text(json.dumps(doc))
        loaded = data_io.load_checkpoint(path)
        assert loaded.store.get("enc.b0").tolist() == [1.0, -2.0, 0.0] and loaded.priors.tolist() == [1.0, 0.0]
        assert loaded.priors.dtype == np.float64

    def test_loaded_values_match_exactly(self, tmp_path):
        cfg = validate_config(_tiny_config())
        rng = np.random.default_rng(3)
        state = model.build_state(cfg, np.array([0.25, 0.75]), rng)
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(state, path)
        loaded = data_io.load_checkpoint(path)
        np.testing.assert_array_equal(loaded.store.values, state.store.values)
        np.testing.assert_array_equal(loaded.priors, state.priors)
        assert loaded.config == state.config

    def test_loaded_model_reproduces_evaluation_without_drift(self, tmp_path):
        cfg = validate_config(_tiny_config())
        train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
        run = model.train([cfg], train_ds, test_ds)[0]
        path = tmp_path / "ckpt.json"
        data_io.save_checkpoint(run.state, path)
        loaded = data_io.load_checkpoint(path)
        [before] = model.evaluate([run.state], test_ds)
        [after] = model.evaluate([loaded], test_ds)
        assert after.accuracy == before.accuracy
        assert after.cross_entropy == before.cross_entropy
        assert after.kl_term == before.kl_term
        assert after.bounds.unconditional == before.bounds.unconditional


class TestDatasetFile:
    def test_misaligned_labels_name_the_file(self, tmp_path):
        path = tmp_path / "d.json"
        data_io.save_dataset(Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2), path)
        doc = json.loads(path.read_text())
        doc["labels"] = doc["labels"][:-1]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="labels must align with feature rows") as exc:
            data_io.load_dataset(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("labels,message", [
        ([0.9, 1.5, 0.2], "labels must be a list of integers"),  # numpy would truncate them to 0, 1, 0
        ([0, 1.0, 0], "labels must be a list of integers"),
        ([True, False, True], "labels must be a list of integers"),
        (["0", "1", "0"], "labels must be a list of integers"),
        ([0, None, 1], "labels must be a list of integers"),
        ("010", "labels must be a list of integers"),
        ([0, 10**30, 1], r"labels must lie in \[0, 2\), not an integer beyond int64"),
        ([0, 2**63, 1], r"labels must lie in \[0, 2\), not an integer beyond int64"),
        ([0, -2**63 - 1, 1], r"labels must lie in \[0, 2\), not an integer beyond int64"),
    ])
    def test_labels_that_are_not_integers_name_the_file(self, tmp_path, labels, message):
        path = tmp_path / "d.json"
        data_io.save_dataset(Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2), path)
        doc = json.loads(path.read_text())
        doc["labels"] = labels
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message) as exc:
            data_io.load_dataset(path)
        assert str(exc.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("row,kinds", [
        ([True, False], "bool"),  # numpy would read them as 1.0 and 0.0
        ([0.5, "1"], "str"),
        ([None, 2], "NoneType"),
        ([[1.0], 2], "list"),
        ([False, "0"], "bool, str"),
        ([10**400, 0], "an integer beyond the float range"),
    ])
    def test_features_that_are_not_numbers_name_the_file(self, tmp_path, row, kinds):
        path = tmp_path / "d.json"
        data_io.save_dataset(Dataset(np.zeros((3, 2)), np.array([0, 1, 0]), 2), path)
        doc = json.loads(path.read_text())
        doc["features"][1] = row
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"features must be rows of JSON numbers, not {kinds}$") as exc:
            data_io.load_dataset(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_integer_and_float_features_load_as_float64(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"features": [[1, 2.5], [-3, 0]], "labels": [0, 1], "class_count": 2}))
        ds = data_io.load_dataset(path)
        assert ds.features.dtype == np.float64 and ds.features.tolist() == [[1.0, 2.5], [-3.0, 0.0]]

    @pytest.mark.parametrize("provenance", [5, [1, 2], "gmm", None])
    def test_provenance_that_is_not_an_object_names_the_file(self, tmp_path, provenance):
        path = tmp_path / "d.json"
        data_io.save_dataset(Dataset(np.zeros((2, 1)), np.array([0, 1]), 2), path)
        doc = json.loads(path.read_text())
        doc["provenance"] = provenance
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="provenance must be a JSON object") as exc:
            data_io.load_dataset(path)
        assert str(exc.value).startswith(f"{path}: ")


    @pytest.mark.parametrize("class_count", [2.7, True, "2", 0, None])
    def test_class_count_that_is_not_a_positive_integer_names_the_file(self, tmp_path, class_count):
        path = tmp_path / "d.json"
        data_io.save_dataset(Dataset(np.zeros((2, 1)), np.array([0, 1]), 2), path)
        doc = json.loads(path.read_text())
        doc["class_count"] = class_count
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="class_count must be an integer in") as exc:
            data_io.load_dataset(path)
        assert str(exc.value).startswith(f"{path}: ")


# text whose characters json escapes: non-ASCII, quotes, backslashes, control characters and lone surrogates
_JSON_TEXT = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\ud800", "\udfff", "\U0001f600"]),
))
_JSON_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 2.225073858507201e-308, 1e308, -1e308, math.nan, math.inf, -math.inf]),
    st.floats().map(np.float64),
)
_JSON_INTS = st.one_of(st.integers(), st.sampled_from([-1, 2**64, -(2**64) - 1, 2**200]))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# lists of exact floats or exact ints, each with or without a nan or inf among them
_ONE_KIND_LISTS = st.one_of(
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1),
    st.tuples(st.lists(st.floats(allow_nan=False, allow_infinity=False)), _NON_FINITE, st.integers(0, 5)).map(
        lambda t: [*t[0][:t[2]], t[1], *t[0][t[2]:]]),
    st.lists(st.integers(), min_size=1),
    st.tuples(st.lists(st.integers(), min_size=1), _NON_FINITE).map(lambda t: [*t[0], t[1]]),
)
_JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), _JSON_FLOATS, _JSON_INTS, _JSON_TEXT, _ONE_KIND_LISTS),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(_JSON_TEXT, inner, max_size=4)),
    max_leaves=12,
)
# every other document is nested at least three deep
_JSON_DOCS = st.one_of(_JSON_VALUES, _JSON_VALUES.map(lambda v: {"a": [(v,)]}))


class TestJsonDocuments:
    @settings(max_examples=400, deadline=None)
    @given(doc=_JSON_DOCS)
    @example(doc={"f": [0.5, math.nan], "i": [1, -(2**70)], "e": [[], {}, ()], "t": (1.5, -math.inf, np.float64(2.0))})
    def test_json_text_is_the_text_of_json_dumps(self, doc):
        assert data_io.json_text(doc) == json.dumps(doc, sort_keys=True, indent=1)

    @pytest.mark.parametrize("doc,message", [
        (np.int64(1), "^Object of type int64 is not JSON serializable$"),
        ({"a": [1.0, np.int64(1)]}, "^Object of type int64 is not JSON serializable$"),
        ({1: "a"}, "must be a string"),  # json would write the key as "1"; every document the program writes has str keys
    ])
    def test_write_json_refuses_what_it_cannot_write_and_leaves_no_file(self, tmp_path, doc, message):
        with pytest.raises(TypeError, match=message):
            data_io.write_json(doc, tmp_path / "d.json")
        assert list(tmp_path.iterdir()) == []

    def test_write_json_is_canonical(self, tmp_path):
        path = tmp_path / "d.json"
        data_io.write_json({"b": [1.5, 2], "a": 0.1}, path)
        assert path.read_text() == '{\n "a": 0.1,\n "b": [\n  1.5,\n  2\n ]\n}\n'
        assert data_io.read_json(path, ("a", "b")) == {"a": 0.1, "b": [1.5, 2]}

    @pytest.mark.parametrize("text,keys,message", [
        ("[1, 2]", ("p",), "is not a JSON object"),
        ('{"p": 1}', ("p", "q", "r"), "lacks q, r"),
        ("{", (), "invalid JSON"),
    ])
    def test_read_json_names_the_path(self, tmp_path, text, keys, message):
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message) as exc:
            data_io.read_json(path, keys)
        assert str(exc.value).startswith(f"{path}: ")

    def test_read_json_names_the_path_of_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_bytes(b'{"a": "\xff"}')
        with pytest.raises(ValueError, match="invalid JSON") as exc:
            data_io.read_json(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_read_json_without_keys_returns_any_document(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("[1, 2]")
        assert data_io.read_json(path) == [1, 2]


class TestMetricsCsv:
    def test_empty_series_writes_header_only(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([], path)
        assert path.read_text() == data_io.METRICS_HEADER + "\n"

    def test_single_row_is_two_lines(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metrics([MetricsRow(1, 0.5, 0.25, 1.0, 0.75, 0.9)], path)
        assert len(path.read_text().splitlines()) == 2

    @pytest.mark.parametrize("text", ["", "1,0.5,0.25,1.0,0.75,0.9\n"])
    def test_a_file_without_the_header_rejected_naming_it(self, tmp_path, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: missing metrics header$"):
            data_io.read_metrics(path)

    @pytest.mark.parametrize("row", ["1,2,3", "1,2,3,4,5,6,7", "", "1.5,2,3,4,5,6", "1,2,3,4,5,x"])
    def test_a_malformed_row_rejected_naming_the_file_and_line(self, tmp_path, row):
        path = tmp_path / "m.csv"
        path.write_text(f"{data_io.METRICS_HEADER}\n1,0.5,0.25,1.0,0.75,0.9\n{row}\n")
        message = f"{path}: line 3 is not a row of {data_io.METRICS_HEADER}: {row!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            data_io.read_metrics(path)

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

    @pytest.mark.parametrize("failure", ["replace", "labels write"])
    def test_failed_idx_write_keeps_the_previous_pair_and_leaves_no_temporary(self, tmp_path, monkeypatch, failure):
        """Neither file of the pair is replaced unless both are written whole."""
        images, labels = tmp_path / "im", tmp_path / "lb"
        write_idx(images, labels, np.zeros((2, 1)), np.array([0, 1]), (1, 1))
        before = images.read_bytes(), labels.read_bytes()
        if failure == "replace":
            def refuse(*args):
                raise OSError("rename refused")

            monkeypatch.setattr(data_io.os, "replace", refuse)
        else:
            real_open = open
            monkeypatch.setattr(data_io, "open", lambda path, *a, **k: (
                self._FailingFile(real_open(path, *a, **k)) if Path(path).name.startswith(".lb")
                else real_open(path, *a, **k)), raising=False)
        with pytest.raises(OSError):
            write_idx(images, labels, np.ones((3, 1)), np.array([1, 0, 1]), (1, 1))
        assert (images.read_bytes(), labels.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["im", "lb"]

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
        with pytest.raises(ValueError, match="encoder"):
            validate_config(bad)

    def test_beta_and_beta_prime_are_exclusive(self):
        bad = _tiny_config()
        bad["loss"] = {"beta": 0.5, "beta_prime": 1.0}
        with pytest.raises(ValueError, match="exactly one"):
            validate_config(bad)
        bad["loss"] = {}
        with pytest.raises(ValueError, match="exactly one"):
            validate_config(bad)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_beta_prime_must_be_finite_and_nonnegative(self, value):
        bad = _tiny_config()
        bad["loss"] = {"beta_prime": value}
        with pytest.raises(ValueError, match="loss.beta_prime"):
            validate_config(bad)

    def test_nonpositive_layer_width_named(self):
        bad = _tiny_config()
        bad["encoder"]["layer_dims"] = [2, 0, 2]
        with pytest.raises(ValueError, match="layer_dims entry 1 is 0"):
            validate_config(bad)

    def test_unknown_keys_rejected(self):
        bad = _tiny_config()
        bad["extra"] = 1
        with pytest.raises(ValueError, match="unknown"):
            validate_config(bad)
        bad2 = _tiny_config()
        bad2["optim"]["momentum"] = 0.9
        with pytest.raises(ValueError, match="unknown"):
            validate_config(bad2)

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="invalid JSON"):
            data_io.load_config(path)

    def test_load_config_names_the_file_once_and_library_callers_do_not(self, tmp_path):
        """load_config prefixes validate_config's errors with the path; read_json's errors carry it already."""
        bad = _tiny_config()
        del bad["encoder"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(bad))
        message = "config is missing required key encoder.layer_dims"
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            data_io.load_config(path)
        train_ds, _ = data_io.dataset_from_config(validate_config(_tiny_config())["dataset"])
        for call in (lambda: validate_config(bad), lambda: model.build_state(bad, [0.5, 0.5]),
                     lambda: model.train([bad], train_ds), lambda: model.sweep(bad, [0], [1.0])):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                call()
        path.write_text("{not json")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: invalid JSON')}") as exc:
            data_io.load_config(path)
        assert str(exc.value).count(str(path)) == 1

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

    def test_gmm_spec_names_a_nonfinite_sep_and_a_negative_seed(self):
        for sep in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sep must be finite"):
                GmmSpec(class_count=2, dim=2, sep=sep, per_class=3, seed=0)
        with pytest.raises(ValueError, match="seed must be at least 0"):
            GmmSpec(class_count=2, dim=2, sep=1.0, per_class=3, seed=-1)

    def test_integral_floats_are_stored_as_ints_and_floats_as_given(self):
        cfg = _tiny_config()
        cfg["optim"]["steps"] = 3.0
        cfg["encoder"]["layer_dims"] = [2.0, 3, 2]
        cfg["encoder"]["sigma2"] = 1
        out = validate_config(cfg)
        assert type(out["optim"]["steps"]) is int and out["optim"]["steps"] == 3
        assert [type(d) for d in out["encoder"]["layer_dims"]] == [int, int, int]
        assert type(out["encoder"]["sigma2"]) is int  # checkpoint.json keeps "sigma2": 1

    def test_keys_of_another_dataset_kind_are_unknown(self):
        bad = _tiny_config()
        bad["dataset"]["train"] = "train.json"
        with pytest.raises(ValueError, match="unknown config keys: dataset.train"):
            validate_config(bad)


# ------------------------------------------------------------------ the field table, fuzzed

# derandomized so that a tier-1 failure replays from its test id; no
# example database is written
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

HOSTILE = [float("nan"), float("inf"), float("-inf"), 2.5, -1, 0, True, "x", [], {}, None]


def _int_from(low):
    return lambda v: type(v) is int and v >= low


def _number(ok):
    return lambda v: type(v) in (int, float) and math.isfinite(v) and ok(v)


def _never(v):
    return False


def _is_bool(v):
    return type(v) is bool


# which of the HOSTILE values each field of a gmm config accepts, written out
# from the README's schema independently of the table
ACCEPTS = {
    "dataset.kind": _never,
    "dataset.classes": _int_from(2),
    "dataset.dim": _int_from(1),
    "dataset.per_class": _int_from(1),
    "dataset.test_per_class": _int_from(1),
    "dataset.sep": _number(lambda v: v >= 0),
    "dataset.seed": _int_from(0),
    "dataset.standardize": _is_bool,
    "encoder.layer_dims": _never,
    "encoder.activation": _never,
    "encoder.noise_mode": _never,
    "encoder.sigma2": _number(lambda v: v > 0),
    "decoder.variant": _never,
    "surrogate.learn_sigma": _is_bool,
    "surrogate.update": _never,
    "surrogate.priors": _never,
    "loss.beta": _number(lambda v: 0 <= v < 1),
    "loss.beta_prime": _number(lambda v: v >= 0),
    "loss.mc_samples": _int_from(1),
    "optim.kind": _never,
    "optim.lr": _number(lambda v: v > 0),
    "optim.steps": _int_from(0),
    "optim.batch": _int_from(1),
    "optim.log_every": _int_from(1),
    "seed": _int_from(0),
}
GMM_FIELDS = [f for f in CONFIG_FIELDS if f.when in (None, "gmm")]


def _set_field(cfg, field, value):
    (cfg.setdefault(field.block, {}) if field.block else cfg)[field.key] = value
    return cfg


def _train_exit(cfg):
    """(exit code, stderr, whether the run directory exists) of ``cib train`` on ``cfg``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "run"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(["train", "--config", str(path), "--out", str(out)])
        return code, err.getvalue(), out.exists()


def _valid_values(f):
    """Values field ``f`` accepts: ints for an int field, floats and ints for a float field."""
    if f.kind == "ints":
        return st.lists(st.integers(1, 64), min_size=2, max_size=5)
    if f.kind == "int":
        low = int(f.allowed[1:].split(",")[0])
        return st.integers(low, low + 2**40)
    if f.kind == "float":
        low, high = (float(b) for b in f.allowed[1:-1].split(","))
        open_low = f.allowed[0] == "("
        floats = st.floats(low, min(high, 1e12), exclude_min=open_low, exclude_max=high < math.inf)
        top = 2**40 if high == math.inf else math.ceil(high) - 1
        return floats | st.integers(int(low) + open_low, top)
    if f.kind == "choice":
        return st.sampled_from(f.allowed)
    return st.booleans() if f.kind == "bool" else st.text(min_size=1)


class TestFieldTable:
    def test_every_gmm_field_has_an_acceptance_rule(self):
        assert sorted(f.name for f in GMM_FIELDS) == sorted(ACCEPTS)

    @PROPERTY
    @given(field=st.sampled_from(GMM_FIELDS), value=st.sampled_from(HOSTILE))
    def test_hostile_value_exits_one_naming_the_field_before_any_directory(self, field, value):
        assume(not ACCEPTS[field.name](value))
        code, err, made = _train_exit(_set_field(_tiny_config(), field, value))
        assert code == 1
        assert field.name in err
        assert not made

    @PROPERTY
    @given(data=st.data())
    def test_valid_configs_validate_as_the_hand_written_checks_did(self, data):
        kind = data.draw(st.sampled_from(["gmm", "json", "idx"]))
        beta_key, other = data.draw(st.permutations(["beta", "beta_prime"]))
        cfg = {"dataset": {"kind": kind}}
        for f in CONFIG_FIELDS:
            if f.when not in (None, kind) or f.name in ("dataset.kind", f"loss.{other}"):
                continue
            if f.block:
                cfg.setdefault(f.block, {})
            if f.default == REQUIRED or f.name == f"loss.{beta_key}" or data.draw(st.booleans()):
                _set_field(cfg, f, data.draw(_valid_values(f)))
        for block in ("decoder", "surrogate", "optim"):
            if not cfg[block] and data.draw(st.booleans()):
                del cfg[block]
        ours, theirs = validate_config(cfg), reference_validate_config(cfg)
        assert ours == theirs
        assert json.dumps(ours, sort_keys=True) == json.dumps(theirs, sort_keys=True)


def _readme_schema():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text[text.index("### Config schema"):]


def test_readme_config_block_names_every_table_field():
    schema = _readme_schema()
    jsonc = schema[schema.index("```jsonc"):].split("```")[1]
    names, block = set(), None
    for line in jsonc.splitlines():
        opener = re.match(r'  "(\w+)":\s*\{', line)
        if opener:
            block = opener.group(1)
        elif re.match(r'  "\w+":', line):
            block = None
        keys = re.findall(r'"(\w+)":', line)[1 if opener else 0:]
        names |= {f"{block}.{key}" if block else key for key in keys}
    assert names == {f.name for f in CONFIG_FIELDS}


def test_readme_field_table_lists_every_table_field():
    rows = re.findall(r"^\| `([\w.]+)` \|", _readme_schema(), flags=re.M)
    assert sorted(rows) == sorted(f.name for f in CONFIG_FIELDS)
