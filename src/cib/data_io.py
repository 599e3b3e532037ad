"""Dataset synthesis, IDX ingestion, and the persistent file formats.

All on-disk artifacts are deterministic functions of their inputs: floats are
serialized with ``repr`` (shortest decimal that round-trips, never more than
17 significant digits), JSON keys are sorted, and nothing except an explicit
provenance field carries wall-clock state.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

__all__ = [
    "IdxFormatError",
    "CheckpointError",
    "ConfigError",
    "Dataset",
    "GmmSpec",
    "MetricsRow",
    "METRICS_HEADER",
    "gen_gmm",
    "gen_gmm_splits",
    "standardize",
    "read_idx",
    "write_idx",
    "save_dataset",
    "load_dataset",
    "save_checkpoint",
    "load_checkpoint",
    "write_metrics",
    "write_text_atomic",
    "read_metrics",
    "load_config",
    "validate_config",
    "dataset_from_config",
]


class IdxFormatError(ValueError):
    """An IDX file violates the binary format contract."""


class CheckpointError(ValueError):
    """A checkpoint file cannot be loaded against the requested configuration."""


class ConfigError(ValueError):
    """A run configuration document is malformed."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer class labels and a provenance record."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "features", np.asarray(self.features, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.intp))
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a nonempty (N, m) matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels must align with feature rows")
        if np.any(self.labels < 0) or np.any(self.labels >= self.class_count):
            raise ValueError(f"labels must lie in [0, {self.class_count})")

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class GmmSpec:
    """Synthetic Gaussian-mixture dataset: K unit-covariance classes.

    Class means are placed deterministically from the seed: on a circle of
    radius sep/2 for dim == 2, antipodally at distance ``sep`` for K == 2 in
    any dimension, and on seeded random unit directions scaled by sep/2
    otherwise.  For K == 2 the analytic Bayes error is Phi(-sep/2).
    """

    class_count: int
    dim: int
    sep: float
    per_class: int
    seed: int

    def __post_init__(self):
        if self.class_count < 2:
            raise ValueError("need at least 2 classes")
        if self.dim < 1 or self.per_class < 1:
            raise ValueError("dim and per_class must be positive")
        if self.sep < 0.0:
            raise ValueError("separation must be nonnegative")


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _gmm_means(spec: GmmSpec, rng: np.random.Generator) -> np.ndarray:
    k, m, r = spec.class_count, spec.dim, spec.sep / 2.0
    if m == 2:
        angles = 2.0 * math.pi * np.arange(k) / k
        return r * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    if k == 2:
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        return np.stack([r * u, -r * u])
    dirs = rng.standard_normal((k, m))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return r * dirs


def _gmm_draw(means: np.ndarray, per_class: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    k, m = means.shape
    features = np.concatenate([means[y] + rng.standard_normal((per_class, m)) for y in range(k)])
    labels = np.repeat(np.arange(k), per_class)
    return features, labels


def _gmm_provenance(spec: GmmSpec, split: str) -> dict:
    bayes_error = _normal_cdf(-spec.sep / 2.0) if spec.class_count == 2 else None
    return {
        "kind": "gmm",
        "classes": spec.class_count,
        "dim": spec.dim,
        "sep": spec.sep,
        "per_class": spec.per_class,
        "seed": spec.seed,
        "split": split,
        "bayes_error": bayes_error,
    }


def gen_gmm(spec: GmmSpec) -> Dataset:
    """Stratified draw from the mixture; deterministic for a fixed seed."""
    rng = np.random.default_rng(spec.seed)
    means = _gmm_means(spec, rng)
    features, labels = _gmm_draw(means, spec.per_class, rng)
    return Dataset(features, labels, spec.class_count, _gmm_provenance(spec, "train"))


def gen_gmm_splits(spec: GmmSpec, test_per_class: int) -> tuple[Dataset, Dataset]:
    """Train and test splits sharing the same mixture means.

    The test draw continues the train split's random stream, so the train
    split is identical to ``gen_gmm(spec)``.
    """
    if test_per_class < 1:
        raise ValueError("test_per_class must be positive")
    rng = np.random.default_rng(spec.seed)
    means = _gmm_means(spec, rng)
    tr_x, tr_y = _gmm_draw(means, spec.per_class, rng)
    te_x, te_y = _gmm_draw(means, test_per_class, rng)
    test_prov = _gmm_provenance(spec, "test")
    test_prov["per_class"] = test_per_class
    return (
        Dataset(tr_x, tr_y, spec.class_count, _gmm_provenance(spec, "train")),
        Dataset(te_x, te_y, spec.class_count, test_prov),
    )


def standardize(train: Dataset, test: Dataset | None = None) -> tuple[Dataset, Dataset | None]:
    """Zero-mean unit-variance features from train statistics.

    The test split is transformed with the train split's moments.  Constant
    feature dimensions are centered but left unscaled.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)

    def apply(ds: Dataset, split: str) -> Dataset:
        prov = dict(ds.provenance)
        prov["standardized"] = True
        return Dataset((ds.features - mean) / std, ds.labels, ds.class_count, prov)

    return apply(train, "train"), (apply(test, "test") if test is not None else None)


# --------------------------------------------------------------------- IDX

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(f, n: int, path: str) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise IdxFormatError(f"{path}: truncated payload (wanted {n} bytes, got {len(data)})")
    return data


def read_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse a big-endian IDX image/label file pair into a dataset.

    Pixels are scaled from bytes to [0, 1].  Wrong magic numbers, truncated
    payloads, and image/label count mismatches each raise a distinct error.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    with open(images_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, str(images_path)))
        if magic != _IDX_IMAGES_MAGIC:
            raise IdxFormatError(
                f"{images_path}: bad image magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}"
            )
        n, rows, cols = struct.unpack(">III", _read_exact(f, 12, str(images_path)))
        payload = _read_exact(f, n * rows * cols, str(images_path))
        if f.read(1):
            raise IdxFormatError(f"{images_path}: trailing bytes after payload")
    with open(labels_path, "rb") as f:
        (magic,) = struct.unpack(">I", _read_exact(f, 4, str(labels_path)))
        if magic != _IDX_LABELS_MAGIC:
            raise IdxFormatError(
                f"{labels_path}: bad label magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}"
            )
        (n_labels,) = struct.unpack(">I", _read_exact(f, 4, str(labels_path)))
        label_bytes = _read_exact(f, n_labels, str(labels_path))
        if f.read(1):
            raise IdxFormatError(f"{labels_path}: trailing bytes after payload")
    if n != n_labels:
        raise IdxFormatError(f"{images_path}: {n} images but {n_labels} labels")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(n, rows * cols)
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.intp)
    provenance = {
        "kind": "idx",
        "images": str(images_path),
        "labels": str(labels_path),
        "image_shape": [int(rows), int(cols)],
        "images_sha256": hashlib.sha256(payload).hexdigest(),
        "labels_sha256": hashlib.sha256(label_bytes).hexdigest(),
    }
    class_count = int(labels.max()) + 1 if n else 1
    return Dataset(pixels / 255.0, labels, class_count, provenance)


def write_idx(
    images_path: str | Path,
    labels_path: str | Path,
    features: np.ndarray,
    labels: np.ndarray,
    image_shape: tuple[int, int],
) -> None:
    """Write an IDX pair; features in [0, 1] are quantized back to bytes.

    Features that came from :func:`read_idx` (multiples of 1/255) round-trip
    bit-exactly.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    rows, cols = image_shape
    n = features.shape[0]
    if features.shape != (n, rows * cols):
        raise ValueError(f"features {features.shape} do not match image shape {image_shape}")
    if np.any(features < 0.0) or np.any(features > 1.0):
        raise ValueError("features must lie in [0, 1]")
    pixels = np.rint(features * 255.0).astype(np.uint8)
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(pixels.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", _IDX_LABELS_MAGIC, n))
        f.write(labels.astype(np.uint8).tobytes())


# --------------------------------------------------------------------- atomic text files


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` so that the file is either complete or absent.

    The text goes to a temporary file in the same directory, which then
    replaces ``path`` in one rename; if writing fails, the temporary file is
    removed and a previous ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# --------------------------------------------------------------------- JSON documents


def _dump_json(obj: Any, path: str | Path) -> None:
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def save_dataset(ds: Dataset, path: str | Path) -> None:
    _dump_json(
        {
            "features": ds.features.tolist(),
            "labels": ds.labels.tolist(),
            "class_count": ds.class_count,
            "provenance": ds.provenance,
        },
        path,
    )


def load_dataset(path: str | Path) -> Dataset:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return Dataset(
        np.asarray(doc["features"], dtype=np.float64),
        np.asarray(doc["labels"], dtype=np.intp),
        int(doc["class_count"]),
        doc.get("provenance", {}),
    )


CHECKPOINT_VERSION = 1


def save_checkpoint(model, surrogate, head, config: dict, path: str | Path) -> None:
    """Write a versioned JSON checkpoint of all parameter slices.

    The encoder, surrogate, and decoder-head parameters all live in the
    model's parameter store; class priors ride along separately since they
    are fitted, not trained.  Serialization is canonical, so saving a loaded
    checkpoint reproduces the file byte for byte.
    """
    store = model.store
    params = {
        name: {
            "shape": list(store.spec(name).shape),
            "values": store.get(name).ravel().tolist(),
        }
        for name in store.names()
    }
    _dump_json(
        {
            "format_version": CHECKPOINT_VERSION,
            "config": config,
            "params": params,
            "priors": surrogate.priors.tolist(),
        },
        path,
    )


def load_checkpoint(path: str | Path):
    """Rebuild (model, surrogate, head, config) from a checkpoint file."""
    from . import model as _model

    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    version = doc.get("format_version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format_version: {version!r}")
    config = doc["config"]
    priors = np.asarray(doc["priors"], dtype=np.float64)
    state = _model.build_state(config, priors)
    saved = doc["params"]
    names = set(state.store.names())
    if set(saved) != names:
        raise CheckpointError(
            f"checkpoint slices {sorted(saved)} do not match config slices {sorted(names)}"
        )
    for name, entry in saved.items():
        shape = tuple(entry["shape"])
        if shape != state.store.spec(name).shape:
            raise CheckpointError(
                f"slice {name!r} has shape {shape}, config implies {state.store.spec(name).shape}"
            )
        state.store.set(name, np.asarray(entry["values"], dtype=np.float64).reshape(shape))
    return state.encoder, state.surrogate(), state.head, config


# --------------------------------------------------------------------- metrics CSV

METRICS_HEADER = "step,cross_entropy,kl_term,beta_prime,total,accuracy"


@dataclass(frozen=True)
class MetricsRow:
    step: int
    cross_entropy: float
    kl_term: float
    beta_prime: float
    total: float
    accuracy: float


def write_metrics(series: Sequence[MetricsRow], path: str | Path) -> None:
    lines = [METRICS_HEADER]
    for row in series:
        lines.append(
            ",".join(
                [
                    str(row.step),
                    repr(row.cross_entropy),
                    repr(row.kl_term),
                    repr(row.beta_prime),
                    repr(row.total),
                    repr(row.accuracy),
                ]
            )
        )
    write_text_atomic(path, "\n".join(lines) + "\n")


def read_metrics(path: str | Path) -> list[MetricsRow]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != METRICS_HEADER:
        raise ValueError(f"{path}: missing metrics header")
    rows = []
    for line in lines[1:]:
        step, ce, kl, bp, total, acc = line.split(",")
        rows.append(
            MetricsRow(int(step), float(ce), float(kl), float(bp), float(total), float(acc))
        )
    return rows


# --------------------------------------------------------------------- run configuration

_CONFIG_DEFAULTS = {
    "encoder": {"activation": "softplus", "noise_mode": "fixed_sigma", "sigma2": 1.0},
    "decoder": {"variant": "naive_bayes"},
    "surrogate": {"learn_sigma": True, "update": "gradient", "priors": "train"},
    "loss": {"mc_samples": 1},
    "optim": {"kind": "adam", "lr": 1e-3, "steps": 1000, "batch": 64, "log_every": 100},
}

_ALLOWED = {
    "top": {"dataset", "encoder", "decoder", "surrogate", "loss", "optim", "seed"},
    "encoder": {"layer_dims", "activation", "noise_mode", "sigma2"},
    "decoder": {"variant"},
    "surrogate": {"learn_sigma", "update", "priors"},
    "loss": {"beta", "beta_prime", "mc_samples"},
    "optim": {"kind", "lr", "steps", "batch", "log_every"},
    "dataset": {
        "kind", "classes", "dim", "per_class", "test_per_class", "sep", "seed",
        "standardize", "train", "test",
        "train_images", "train_labels", "test_images", "test_labels",
    },
}


def _reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def validate_config(config: dict) -> dict:
    """Apply defaults and validate the run configuration; returns a new dict."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(config, _ALLOWED["top"], "config")
    for key in ("dataset", "encoder", "loss", "seed"):
        if key not in config:
            raise ConfigError(f"config is missing required key {key!r}")
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in config.items()}
    for block, defaults in _CONFIG_DEFAULTS.items():
        merged = dict(defaults)
        merged.update(cfg.get(block, {}))
        cfg[block] = merged
    for block in ("dataset", "encoder", "decoder", "surrogate", "loss", "optim"):
        _reject_unknown(cfg[block], _ALLOWED[block], block)

    enc = cfg["encoder"]
    dims = enc.get("layer_dims")
    if not isinstance(dims, list) or len(dims) < 2 or any(int(d) < 1 for d in dims):
        raise ConfigError("encoder.layer_dims must list at least input and bottleneck sizes")
    enc["layer_dims"] = [int(d) for d in dims]
    if enc["noise_mode"] not in ("fixed_sigma", "learned_eta"):
        raise ConfigError(f"unknown encoder.noise_mode: {enc['noise_mode']!r}")
    if not float(enc["sigma2"]) > 0.0:
        raise ConfigError("encoder.sigma2 must be positive")
    if cfg["decoder"]["variant"] not in ("softmax", "naive_bayes"):
        raise ConfigError(f"unknown decoder.variant: {cfg['decoder']['variant']!r}")
    if cfg["surrogate"]["update"] not in ("gradient", "alternating"):
        raise ConfigError(f"unknown surrogate.update: {cfg['surrogate']['update']!r}")
    if cfg["surrogate"]["priors"] not in ("train", "all"):
        raise ConfigError(f"unknown surrogate.priors: {cfg['surrogate']['priors']!r}")

    loss = cfg["loss"]
    if ("beta" in loss) == ("beta_prime" in loss):
        raise ConfigError("loss must set exactly one of beta, beta_prime")
    if int(loss["mc_samples"]) < 1:
        raise ConfigError("loss.mc_samples must be at least 1")
    if "beta_prime" in loss and float(loss["beta_prime"]) < 0.0:
        raise ConfigError("loss.beta_prime must be nonnegative")

    opt = cfg["optim"]
    if opt["kind"] not in ("adam", "sgd"):
        raise ConfigError(f"unknown optim.kind: {opt['kind']!r}")
    if int(opt["steps"]) < 0 or int(opt["batch"]) < 1 or float(opt["lr"]) <= 0.0:
        raise ConfigError("optim needs steps >= 0, batch >= 1, lr > 0")
    if int(opt["log_every"]) < 1:
        raise ConfigError("optim.log_every must be at least 1")

    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")
    kind = cfg["dataset"].get("kind")
    if kind not in ("gmm", "json", "idx"):
        raise ConfigError(f"unknown dataset.kind: {kind!r}")
    return cfg


def load_config(path: str | Path) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return validate_config(doc)


def dataset_from_config(dcfg: dict) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) splits from the config's dataset block."""
    kind = dcfg["kind"]
    if kind == "gmm":
        spec = GmmSpec(
            class_count=int(dcfg["classes"]),
            dim=int(dcfg["dim"]),
            sep=float(dcfg["sep"]),
            per_class=int(dcfg["per_class"]),
            seed=int(dcfg["seed"]),
        )
        train, test = gen_gmm_splits(spec, int(dcfg.get("test_per_class", dcfg["per_class"])))
    elif kind == "json":
        train = load_dataset(dcfg["train"])
        test = load_dataset(dcfg["test"])
    elif kind == "idx":
        train = read_idx(dcfg["train_images"], dcfg["train_labels"])
        test = read_idx(dcfg["test_images"], dcfg["test_labels"])
    else:
        raise ConfigError(f"unknown dataset.kind: {kind!r}")
    if dcfg.get("standardize", False):
        train, test = standardize(train, test)
    return train, test
