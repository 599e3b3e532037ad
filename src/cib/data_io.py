"""Dataset synthesis, IDX ingestion, and the persistent file formats.

All on-disk artifacts are deterministic functions of their inputs: floats are
serialized with ``repr`` (shortest decimal that round-trips, never more than
17 significant digits), JSON keys are sorted, and nothing except an explicit
provenance field carries wall-clock state.  Every JSON document of the
workbench is written by :func:`write_json` and read by :func:`read_json`,
whose errors name the file.  A checkpoint holds one ``model.ModelState``
whole: :func:`save_checkpoint` writes it and :func:`load_checkpoint`
returns it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple, Sequence

import numpy as np

from .diffcore import ACTIVATIONS

__all__ = [
    "IdxFormatError",
    "CheckpointError",
    "ConfigError",
    "ConfigField",
    "CONFIG_FIELDS",
    "REQUIRED",
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
    "write_json",
    "read_json",
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
        for name, low in (("class_count", 2), ("dim", 1), ("per_class", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not 0.0 <= self.sep < math.inf:
            raise ValueError(f"sep must be finite and nonnegative, got {self.sep}")


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

    def apply(ds: Dataset) -> Dataset:
        prov = dict(ds.provenance)
        prov["standardized"] = True
        out = ds.features - mean  # one temporary per split; the split's own array is left as it is
        out /= std
        return Dataset(out, ds.labels, ds.class_count, prov)

    return apply(train), (apply(test) if test is not None else None)


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


def write_json(obj: Any, path: str | Path) -> None:
    """Write ``obj`` to ``path`` atomically: sorted keys, indent 1, a trailing newline."""
    write_text_atomic(path, json.dumps(obj, sort_keys=True, indent=1) + "\n")


def read_json(path: str | Path, error: type[ValueError], keys: tuple[str, ...] = ()) -> Any:
    """The JSON document in ``path``; ``error`` names the path if it is invalid or not an object with ``keys``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise error(f"{path}: invalid JSON ({exc})") from exc
    if keys and not isinstance(doc, dict):
        raise error(f"{path}: is not a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise error(f"{path}: lacks {', '.join(missing)}")
    return doc


def save_dataset(ds: Dataset, path: str | Path) -> None:
    write_json({"features": ds.features.tolist(), "labels": ds.labels.tolist(),
                "class_count": ds.class_count, "provenance": ds.provenance}, path)


def load_dataset(path: str | Path) -> Dataset:
    doc = read_json(path, ValueError, ("features", "labels", "class_count"))
    if not _fits("int", "[1, inf)", doc["class_count"]):
        raise ValueError(f"{path}: class_count must be an integer in [1, inf), got {doc['class_count']!r}")
    try:
        return Dataset(
            np.asarray(doc["features"], dtype=np.float64),
            np.asarray(doc["labels"], dtype=np.intp),
            int(doc["class_count"]),
            doc.get("provenance", {}),
        )
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


CHECKPOINT_VERSION = 1


def save_checkpoint(state, path: str | Path) -> None:
    """Write a versioned JSON checkpoint of a ``model.ModelState``.

    Every parameter slice of the state's store goes in, with the validated
    config and the class priors (fitted, not trained).  Serialization is
    canonical, so saving a loaded checkpoint reproduces the file byte for byte.
    """
    store = state.store
    params = {
        name: {"shape": list(store.spec(name).shape), "values": store.get(name).ravel().tolist()}
        for name in store.names()
    }
    doc = {"format_version": CHECKPOINT_VERSION, "config": state.config, "params": params,
           "priors": state.priors.tolist()}
    write_json(doc, path)


def load_checkpoint(path: str | Path):
    """Rebuild the ``model.ModelState`` a checkpoint file holds; its slices must fit the config."""
    from . import model as _model

    doc = read_json(path, CheckpointError, ("format_version", "config", "params", "priors"))
    try:  # every error below names the file
        if doc["format_version"] != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint format_version: {doc['format_version']!r}")
        state = _model.build_state(doc["config"], np.asarray(doc["priors"], dtype=np.float64))
        saved = doc["params"]
        names = set(state.store.names())
        if not isinstance(saved, dict) or set(saved) != names:
            raise CheckpointError(f"checkpoint slices {sorted(saved)} do not match "
                                  f"config slices {sorted(names)}")
        for name, entry in saved.items():
            lacking = [key for key in ("shape", "values") if not isinstance(entry, dict) or key not in entry]
            if lacking:
                raise CheckpointError(f"lacks params.{name}.{lacking[0]}")
            shape, implied = tuple(entry["shape"]), state.store.spec(name).shape
            if shape != implied:
                raise CheckpointError(f"slice {name!r} has shape {shape}, config implies {implied}")
            state.store.set(name, np.asarray(entry["values"], dtype=np.float64).reshape(shape))
        state.surrogate()  # rejects priors that are negative or do not sum to 1, and non-finite sur.* values
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: {exc}") from exc
    return state


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
    lines = [METRICS_HEADER] + [
        ",".join([str(row.step)] + [repr(v) for v in (row.cross_entropy, row.kl_term, row.beta_prime,
                                                      row.total, row.accuracy)])
        for row in series
    ]
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

class ConfigField(NamedTuple):
    """One row of :data:`CONFIG_FIELDS`; ``when`` limits a dataset field to one dataset kind."""

    block: str  # "" for a top-level key
    key: str
    kind: str  # int, float, bool, choice, str (a path) or ints (a list of widths)
    allowed: Any  # "[low, high)" or "(low, high)" for int, float and ints; the choices of a choice
    default: Any  # REQUIRED, None (optional, nothing filled in) or the value filled in
    when: str | None = None

    @property
    def name(self) -> str:
        return f"{self.block}.{self.key}" if self.block else self.key


REQUIRED = "required"

# the README's config schema lists the same fields; a test keeps the two in step
CONFIG_FIELDS = (
    ConfigField("dataset", "kind", "choice", ("gmm", "json", "idx"), REQUIRED),
    ConfigField("dataset", "classes", "int", "[2, inf)", REQUIRED, "gmm"),
    ConfigField("dataset", "dim", "int", "[1, inf)", REQUIRED, "gmm"),
    ConfigField("dataset", "per_class", "int", "[1, inf)", REQUIRED, "gmm"),
    ConfigField("dataset", "test_per_class", "int", "[1, inf)", None, "gmm"),
    ConfigField("dataset", "sep", "float", "[0, inf)", REQUIRED, "gmm"),
    ConfigField("dataset", "seed", "int", "[0, inf)", REQUIRED, "gmm"),
    ConfigField("dataset", "train", "str", None, REQUIRED, "json"),
    ConfigField("dataset", "test", "str", None, REQUIRED, "json"),
    ConfigField("dataset", "train_images", "str", None, REQUIRED, "idx"),
    ConfigField("dataset", "train_labels", "str", None, REQUIRED, "idx"),
    ConfigField("dataset", "test_images", "str", None, REQUIRED, "idx"),
    ConfigField("dataset", "test_labels", "str", None, REQUIRED, "idx"),
    ConfigField("dataset", "standardize", "bool", None, None),
    ConfigField("encoder", "layer_dims", "ints", "[1, inf)", REQUIRED),
    ConfigField("encoder", "activation", "choice", ACTIVATIONS, "softplus"),
    ConfigField("encoder", "noise_mode", "choice", ("fixed_sigma", "learned_eta"), "fixed_sigma"),
    ConfigField("encoder", "sigma2", "float", "(0, inf)", 1.0),
    ConfigField("decoder", "variant", "choice", ("softmax", "naive_bayes"), "naive_bayes"),
    ConfigField("surrogate", "learn_sigma", "bool", None, True),
    ConfigField("surrogate", "update", "choice", ("gradient", "alternating"), "gradient"),
    ConfigField("surrogate", "priors", "choice", ("train", "all"), "train"),
    ConfigField("loss", "beta", "float", "[0, 1)", None),  # exactly one of beta, beta_prime
    ConfigField("loss", "beta_prime", "float", "[0, inf)", None),
    ConfigField("loss", "mc_samples", "int", "[1, inf)", 1),
    ConfigField("optim", "kind", "choice", ("adam", "sgd"), "adam"),
    ConfigField("optim", "lr", "float", "(0, inf)", 1e-3),
    ConfigField("optim", "steps", "int", "[0, inf)", 1000),
    ConfigField("optim", "batch", "int", "[1, inf)", 64),
    ConfigField("optim", "log_every", "int", "[1, inf)", 100),
    ConfigField("", "seed", "int", "[0, inf)", REQUIRED),
)
_BLOCKS = tuple(dict.fromkeys(f.block for f in CONFIG_FIELDS if f.block))


def _fits(kind: str, allowed: Any, value: Any) -> bool:
    """Whether ``value`` is of ``kind`` and in ``allowed``; null never is.

    An int is a Python int that is not a bool, or an integral float; a float
    is an int or a float.  A range never includes its upper bound, so NaN and
    inf fall outside every range.
    """
    if kind == "bool":
        return isinstance(value, bool)
    if kind in ("str", "choice"):
        return isinstance(value, str) and (value in allowed if kind == "choice" else value != "")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if kind == "int" and isinstance(value, float) and not value.is_integer():  # nor are NaN and inf
        return False
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        return False
    low, high = (float(bound) for bound in allowed[1:-1].split(","))
    return (low < number if allowed[0] == "(" else low <= number) and number < high


def _checked(f: ConfigField, value: Any) -> Any:
    """``value`` as field ``f`` stores it: ints as int, the rest as given; ConfigError if it does not fit."""
    if f.kind == "ints":
        if not isinstance(value, list) or len(value) < 2:
            raise ConfigError(f"{f.name} must list at least input and bottleneck sizes, got {value!r}")
        for i, width in enumerate(value):
            if not _fits("int", f.allowed, width):
                raise ConfigError(f"{f.name} entry {i} is {width!r}, not an integer in {f.allowed}")
        return [int(width) for width in value]
    if not _fits(f.kind, f.allowed, value):
        what = {"int": "an integer in ", "float": "a number in ", "choice": "one of ",
                "bool": "true or false", "str": "a non-empty string"}[f.kind]
        allowed = ", ".join(map(repr, f.allowed)) if f.kind == "choice" else f.allowed or ""
        raise ConfigError(f"{f.name} must be {what}{allowed}, got {value!r}")
    return int(value) if f.kind == "int" else value


def validate_config(config: dict) -> dict:
    """Check ``config`` against :data:`CONFIG_FIELDS` and fill in defaults; returns a new dict.

    Fields are checked in table order, then unknown keys; every rejection is a
    ConfigError naming the field as ``block.key``.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    for block in _BLOCKS:
        if not isinstance(config.get(block, {}), dict):
            raise ConfigError(f"{block} must be a JSON object, got {config[block]!r}")
    kind = config.get("dataset", {}).get("kind")
    fields = [f for f in CONFIG_FIELDS if f.when in (None, kind)]
    cfg: dict = {block: {} for block in _BLOCKS}
    for f in fields:
        given, into = (config.get(f.block, {}), cfg[f.block]) if f.block else (config, cfg)
        if f.key in given:
            into[f.key] = _checked(f, given[f.key])
        elif f.default == REQUIRED:
            raise ConfigError(f"config is missing required key {f.name}")
        elif f.default is not None:
            into[f.key] = f.default
    known = {(f.block, f.key) for f in fields} | {("", block) for block in _BLOCKS}
    unknown = sorted(f"{block}.{key}" if block else str(key) for block in ("", *_BLOCKS)
                     for key in (config.get(block, {}) if block else config) if (block, key) not in known)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if ("beta" in cfg["loss"]) == ("beta_prime" in cfg["loss"]):
        raise ConfigError("loss must set exactly one of loss.beta, loss.beta_prime")
    return cfg


def load_config(path: str | Path) -> dict:
    return validate_config(read_json(path, ConfigError))


def dataset_from_config(dcfg: dict) -> tuple[Dataset, Dataset]:
    """Materialize (train, test) splits from the config's dataset block."""
    kind = dcfg["kind"]
    if kind == "gmm":
        spec = GmmSpec(dcfg["classes"], dcfg["dim"], float(dcfg["sep"]), dcfg["per_class"], dcfg["seed"])
        train, test = gen_gmm_splits(spec, dcfg.get("test_per_class", dcfg["per_class"]))
    elif kind == "json":
        train = load_dataset(dcfg["train"])
        test = load_dataset(dcfg["test"])
    else:  # idx: validate_config admits no other kind
        train = read_idx(dcfg["train_images"], dcfg["train_labels"])
        test = read_idx(dcfg["test_images"], dcfg["test_labels"])
    if dcfg.get("standardize", False):
        train, test = standardize(train, test)
    return train, test
