"""Dataset synthesis, IDX ingestion, and the persistent file formats.

All on-disk artifacts are deterministic functions of their inputs: floats are
serialized with ``repr`` (shortest decimal that round-trips, never more than
17 significant digits), JSON keys are sorted, and nothing except an explicit
provenance field carries wall-clock state.  Every JSON file and every
``--json`` document of the workbench is the text of json's
``dumps(doc, sort_keys=True, indent=1)``, produced by the one writer
:func:`json_text` (files through :func:`write_json`), and every JSON file is
read by :func:`read_json`, whose errors name the file.  A checkpoint holds
one ``model.ModelState`` whole: :func:`save_checkpoint` writes it and
:func:`load_checkpoint` returns it.
"""

from __future__ import annotations

import hashlib
import itertools
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
    "json_text",
    "write_json",
    "read_json",
    "json_floats",
    "read_metrics",
    "load_config",
    "validate_config",
    "dataset_from_config",
]


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


@np.errstate(over="ignore", invalid="ignore")
def standardize(train: Dataset, test: Dataset | None = None) -> tuple[Dataset, Dataset | None]:
    """Zero-mean unit-variance features from train statistics.

    The test split is transformed with the train split's moments.  Constant
    feature dimensions are centered but left unscaled.  Features whose
    moments or standardized values overflow are a ValueError naming
    ``dataset.standardize`` and the split, not a numpy warning; so is a
    train-split spread that overflows, which would scale its column to zeros.
    """
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)

    def apply(ds: Dataset, split: str) -> Dataset:
        prov = dict(ds.provenance)
        prov["standardized"] = True
        out = ds.features - mean  # one temporary per split; the split's own array is left as it is
        out /= std
        try:
            return Dataset(out, ds.labels, ds.class_count, prov)
        except ValueError:  # the split's labels and shape already passed: its features are not finite
            raise ValueError(f"dataset.standardize: the {split} split's standardized features are not finite") from None

    scaled = apply(train, "train")
    if not np.isfinite(std).all():  # x / inf is finite, so apply() does not see it
        raise ValueError("dataset.standardize: the train split's feature spread is not finite")
    return scaled, (apply(test, "test") if test is not None else None)


# --------------------------------------------------------------------- IDX

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_header(f, n: int, path: Path) -> bytes:
    data = f.read(n)
    if len(data) != n:
        raise ValueError(f"{path}: truncated header (wanted {n} bytes, got {len(data)})")
    return data


def _read_idx_file(path: Path, magic: int, kind: str, dims: int) -> tuple[tuple[int, ...], bytes]:
    """The ``dims`` header sizes and the payload of one IDX file of ``kind`` ("image" or "label").

    The payload the header declares is checked against the bytes the file
    holds before any of it is read.
    """
    with open(path, "rb") as f:
        (found,) = struct.unpack(">I", _read_header(f, 4, path))
        if found != magic:
            raise ValueError(f"{path}: bad {kind} magic 0x{found:08x}, expected 0x{magic:08x}")
        sizes = struct.unpack(f">{dims}I", _read_header(f, 4 * dims, path))
        size, left = math.prod(sizes), os.fstat(f.fileno()).st_size - f.tell()
        if size > left:
            raise ValueError(f"{path}: truncated payload (wanted {size} bytes, got {left})")
        if size < left:
            raise ValueError(f"{path}: trailing bytes after payload")
        return sizes, f.read(size)


def read_idx(images_path: str | Path, labels_path: str | Path) -> Dataset:
    """Parse a big-endian IDX image/label file pair into a dataset.

    Pixels are scaled from bytes to [0, 1].  Wrong magic numbers, truncated
    payloads, trailing bytes, images without pixels and image/label count
    mismatches each raise a distinct error naming the file.
    """
    images_path, labels_path = Path(images_path), Path(labels_path)
    (n, rows, cols), payload = _read_idx_file(images_path, _IDX_IMAGES_MAGIC, "image", 3)
    if not payload:
        raise ValueError(f"{images_path}: no pixels ({n} images of {rows} x {cols})")
    (n_labels,), label_bytes = _read_idx_file(labels_path, _IDX_LABELS_MAGIC, "label", 1)
    if n != n_labels:
        raise ValueError(f"{images_path}: {n} images but {n_labels} labels")
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
    return Dataset(pixels / 255.0, labels, int(labels.max()) + 1, provenance)


def write_idx(
    images_path: str | Path,
    labels_path: str | Path,
    features: np.ndarray,
    labels: np.ndarray,
    image_shape: tuple[int, int],
) -> None:
    """Write an IDX pair; features in [0, 1] are quantized back to bytes.

    Features that came from :func:`read_idx` (multiples of 1/255) round-trip
    bit-exactly.  The labels must be one integer in [0, 255] per row; they
    are checked before any byte is written.  Both files are written whole
    before either replaces a previous one.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    rows, cols = image_shape
    n = features.shape[0]
    if features.shape != (n, rows * cols):
        raise ValueError(f"features {features.shape} do not match image shape {image_shape}")
    if not np.all((features >= 0.0) & (features <= 1.0)):  # NaN too
        raise ValueError("features must lie in [0, 1]")
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer) or np.any((labels < 0) | (labels > 255)):
        raise ValueError(f"labels must be {n} integers in [0, 255], one per row; got {labels.dtype} {labels.shape}")
    pixels = np.rint(features * 255.0).astype(np.uint8)
    _write_atomic({
        images_path: struct.pack(">IIII", _IDX_IMAGES_MAGIC, n, rows, cols) + pixels.tobytes(),
        labels_path: struct.pack(">II", _IDX_LABELS_MAGIC, n) + labels.astype(np.uint8).tobytes(),
    })


# --------------------------------------------------------------------- atomic files


def _write_atomic(payloads: dict[str | Path, bytes]) -> None:
    """Write each payload to its path so that every file is either complete or as it was.

    Each payload goes to a temporary file in its path's directory; once all
    are written, each replaces its path in one rename.  If anything fails,
    the temporary files are removed.
    """
    tmps = {Path(path): Path(path).with_name(f".{Path(path).name}.{os.getpid()}.tmp") for path in payloads}
    try:
        for tmp, data in zip(tmps.values(), payloads.values()):
            with open(tmp, "wb") as f:
                f.write(data)
        for path, tmp in tmps.items():
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps.values():
            tmp.unlink(missing_ok=True)
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8 so that the file is either complete or as it was."""
    _write_atomic({path: text.encode("utf-8")})


# --------------------------------------------------------------------- JSON documents


_STR_TEXT = json.encoder.encode_basestring_ascii  # json's own C string writer
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json's words for these float reprs


def _text(obj: Any, newline: str) -> str:
    """The JSON text of ``obj``: items start lines at ``newline`` plus a space, the closing bracket at ``newline``."""
    if isinstance(obj, str):
        return _STR_TEXT(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _NON_FINITE.get(text, text)
    inner = newline + " "
    sep = "," + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        kinds = set(map(type, obj))
        body = ""
        if kinds == {float}:
            body = sep.join(map(float.__repr__, obj))
        elif kinds == {int}:
            body = sep.join(map(int.__repr__, obj))
        if not body or "n" in body:  # mixed items, or a nan or inf repr (it holds an "n"): item by item
            body = sep.join([_text(item, inner) for item in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # a key that is not a str fails the sort or the string writer with a TypeError
        body = sep.join([_STR_TEXT(key) + ": " + _text(obj[key], inner) for key in sorted(obj)])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(doc: Any) -> str:
    """The text of json's ``dumps(doc, sort_keys=True, indent=1)``, without its pure-Python encoder.

    Keys must be ``str``; another key, or a value json cannot write, is a TypeError.
    """
    return _text(doc, "\n")


def write_json(obj: Any, path: str | Path) -> None:
    """Write ``obj`` to ``path`` atomically: the text of :func:`json_text` and a trailing newline."""
    write_text_atomic(path, json_text(obj) + "\n")


def read_json(path: str | Path, keys: tuple[str, ...] = ()) -> Any:
    """The JSON document in ``path``; a ValueError names the path if it is invalid or not an object with ``keys``."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # malformed JSON, or bytes that are not UTF-8
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    if keys and not isinstance(doc, dict):
        raise ValueError(f"{path}: is not a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{path}: lacks {', '.join(missing)}")
    return doc


def json_floats(value: Any, message: str, rows: bool = False) -> np.ndarray:
    """A JSON value read as a float64 array, once every entry is a JSON int or float.

    The entries are those of a list, a lone value, or (``rows``) those of a
    list of lists; a ``rows`` value of another shape is left to numpy and the
    caller's shape check.  Any other entry, which numpy would also read (true,
    false and "1" as 1.0, 0.0 and 1.0), is a ValueError of ``message`` and the
    offending types, and so is an int beyond the float range.
    """
    if not rows:
        entries = value if isinstance(value, list) else [value]
    elif isinstance(value, list) and all(isinstance(row, list) for row in value):
        entries = itertools.chain.from_iterable(value)
    else:
        entries = ()
    others = set(map(type, entries)) - {int, float}
    if others:
        raise ValueError(f"{message}, not {', '.join(sorted(kind.__name__ for kind in others))}")
    try:
        return np.asarray(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{message}, not an integer beyond the float range") from None


def save_dataset(ds: Dataset, path: str | Path) -> None:
    write_json({"features": ds.features.tolist(), "labels": ds.labels.tolist(),
                "class_count": ds.class_count, "provenance": ds.provenance}, path)


def load_dataset(path: str | Path) -> Dataset:
    doc = read_json(path, ("features", "labels", "class_count"))
    if not _fits("int", "[1, inf)", doc["class_count"]):
        raise ValueError(f"{path}: class_count must be an integer in [1, inf), got {doc['class_count']!r}")
    labels, provenance = doc["labels"], doc.get("provenance", {})
    if not isinstance(labels, list) or not all(type(v) is int for v in labels):
        raise ValueError(f"{path}: labels must be a list of integers")
    if not isinstance(provenance, dict):
        raise ValueError(f"{path}: provenance must be a JSON object, got {provenance!r}")
    try:
        return Dataset(
            json_floats(doc["features"], "features must be rows of JSON numbers", rows=True),
            np.asarray(labels, dtype=np.intp),
            int(doc["class_count"]),
            provenance,
        )
    except OverflowError:  # the features passed json_floats, so a label is beyond int64
        raise ValueError(f"{path}: labels must lie in [0, {doc['class_count']}), not an integer beyond int64") from None
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

    doc = read_json(path, ("format_version", "config", "params", "priors"))
    try:  # every error below names the file
        if doc["format_version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint format_version: {doc['format_version']!r}")
        state = _model.build_state(doc["config"], json_floats(doc["priors"], "priors must be JSON numbers"))
        saved = doc["params"]
        names = set(state.store.names())
        if not isinstance(saved, dict) or set(saved) != names:
            raise ValueError(f"checkpoint slices {sorted(saved)} do not match "
                             f"config slices {sorted(names)}")
        for name, entry in saved.items():
            lacking = [key for key in ("shape", "values") if not isinstance(entry, dict) or key not in entry]
            if lacking:
                raise ValueError(f"lacks params.{name}.{lacking[0]}")
            shape, implied = tuple(entry["shape"]), state.store.spec(name).shape
            if shape != implied:
                raise ValueError(f"slice {name!r} has shape {shape}, config implies {implied}")
            values = json_floats(entry["values"], f"params.{name}.values must be JSON numbers")
            state.store.set(name, values.reshape(shape))  # set() rejects non-finite slices
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc
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
    for number, line in enumerate(lines[1:], start=2):
        try:
            step, ce, kl, bp, total, acc = line.split(",")
            rows.append(MetricsRow(int(step), float(ce), float(kl), float(bp), float(total), float(acc)))
        except ValueError:
            raise ValueError(f"{path}: line {number} is not a row of {METRICS_HEADER}: {line!r}") from None
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
    """``value`` as field ``f`` stores it: ints as int, the rest as given; a ValueError if it does not fit."""
    if f.kind == "ints":
        if not isinstance(value, list) or len(value) < 2:
            raise ValueError(f"{f.name} must list at least input and bottleneck sizes, got {value!r}")
        for i, width in enumerate(value):
            if not _fits("int", f.allowed, width):
                raise ValueError(f"{f.name} entry {i} is {width!r}, not an integer in {f.allowed}")
        return [int(width) for width in value]
    if not _fits(f.kind, f.allowed, value):
        what = {"int": "an integer in ", "float": "a number in ", "choice": "one of ",
                "bool": "true or false", "str": "a non-empty string"}[f.kind]
        allowed = ", ".join(map(repr, f.allowed)) if f.kind == "choice" else f.allowed or ""
        raise ValueError(f"{f.name} must be {what}{allowed}, got {value!r}")
    return int(value) if f.kind == "int" else value


def validate_config(config: dict) -> dict:
    """Check ``config`` against :data:`CONFIG_FIELDS` and fill in defaults; returns a new dict.

    Fields are checked in table order, then unknown keys; every rejection is a
    ValueError naming the field as ``block.key``.
    """
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object")
    for block in _BLOCKS:
        if not isinstance(config.get(block, {}), dict):
            raise ValueError(f"{block} must be a JSON object, got {config[block]!r}")
    kind = config.get("dataset", {}).get("kind")
    fields = [f for f in CONFIG_FIELDS if f.when in (None, kind)]
    cfg: dict = {block: {} for block in _BLOCKS}
    for f in fields:
        given, into = (config.get(f.block, {}), cfg[f.block]) if f.block else (config, cfg)
        if f.key in given:
            into[f.key] = _checked(f, given[f.key])
        elif f.default == REQUIRED:
            raise ValueError(f"config is missing required key {f.name}")
        elif f.default is not None:
            into[f.key] = f.default
    known = {(f.block, f.key) for f in fields} | {("", block) for block in _BLOCKS}
    unknown = sorted(f"{block}.{key}" if block else str(key) for block in ("", *_BLOCKS)
                     for key in (config.get(block, {}) if block else config) if (block, key) not in known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    if ("beta" in cfg["loss"]) == ("beta_prime" in cfg["loss"]):
        raise ValueError("loss must set exactly one of loss.beta, loss.beta_prime")
    return cfg


def load_config(path: str | Path) -> dict:
    """The validated config in ``path``; every error names the file."""
    doc = read_json(path)
    try:
        return validate_config(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


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
