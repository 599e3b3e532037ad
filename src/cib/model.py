"""Stochastic encoder, decoder heads, training loop, and the beta' sweep driver.

The encoder is a small feed-forward net whose output is the mean of an
isotropic Gaussian over the bottleneck; its variance is either a fixed
sigma^2 or exp(log eta^2) + sigma^2 with a learned global log eta^2 (sigma^2
then acts as a floor).  Two decoder heads are available: a parametric
softmax readout, and a naive Bayes classifier fitted to the class surrogate
parameters, which owns no parameters of its own.  Training minimizes the
class-conditional bottleneck loss jointly over encoder weights and surrogate
parameters; every run is a deterministic function of its seed.
Encoder, surrogate and softmax readout share one parameter store, which one
:class:`ModelState` holds with its config and priors: the value a run
returns and a checkpoint holds.  Runs that differ only in beta' and seed,
such as a sweep's points, train in lockstep over one stacked store, each
getting the bits it gets in a stack of one.  Stacking saves numpy call
overhead, which is most of a small net's step; a large model's runs train
in several stacks, so that no array of a step holds more than STACK_VALUES
values for more than one run.
Evaluation works on the same inputs as training, the (N, d) matrix of encoder
means and the scalar log-variance: one kernel gives accuracy, cross-entropy
and KL for metrics rows and trade-off points alike.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from . import data_io, estimators, objectives
from .data_io import Dataset, MetricsRow
from .diffcore import NonFiniteError, ParamStore, Tape, activate, logsumexp_rows
from .gaussians import ClassSurrogate
from .objectives import beta_to_beta_prime

__all__ = [
    "NonFiniteLossError",
    "EncoderModel",
    "ModelState",
    "EvalResult",
    "TrainResult",
    "TradeoffPoint",
    "EVAL_MC_SAMPLES",
    "EVAL_NOISE_SEED",
    "derive_seed",
    "build_state",
    "make_loss_fn",
    "train",
    "loss_terms",
    "evaluate",
    "tradeoff_point",
    "sweep",
    "sweep_runs",
]

EVAL_MC_SAMPLES = 16
# Evaluation noise comes from this fixed stream so evaluate() is a pure
# function of (parameters, dataset).
EVAL_NOISE_SEED = 202_408
_MASK64 = (1 << 64) - 1


class NonFiniteLossError(ArithmeticError):
    """Training produced a NaN/inf loss; carries the offending sample index."""

    def __init__(self, message: str, step: int | None = None, sample_index: int | None = None):
        super().__init__(message)
        self.step = step
        self.sample_index = sample_index


def derive_seed(base: int, index: int) -> int:
    """Stable 64-bit mix of a base seed and a stream/run index."""
    z = (int(base) + 0x9E3779B97F4A7C15 * (int(index) + 1)) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


_INIT_STREAM, _SHUFFLE_STREAM, _NOISE_STREAM = 0, 1, 2


@dataclass
class EncoderModel:
    """Feed-forward encoder f(x) with an isotropic noise model on its output."""

    layer_dims: list[int]
    activation: str
    noise_mode: str
    sigma2: float
    store: ParamStore

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def bottleneck_dim(self) -> int:
        return self.layer_dims[-1]

    def weight_names(self) -> list[tuple[str, str]]:
        return [(f"enc.W{l}", f"enc.b{l}") for l in range(len(self.layer_dims) - 1)]

    def log_var(self) -> float:
        """Log of the isotropic bottleneck variance."""
        if self.noise_mode == "fixed_sigma":
            return math.log(self.sigma2)
        return math.log(self.eta2() + self.sigma2)

    def eta2(self) -> float:
        """Learned noise variance exp(log eta^2); NonFiniteError if it overflows a float."""
        if self.noise_mode == "fixed_sigma":
            return 0.0
        log_eta2 = float(self.store.get("enc.log_eta2"))
        try:
            return math.exp(log_eta2)
        except OverflowError:
            raise NonFiniteError(f"learned noise variance exp({log_eta2}) overflows") from None

    def embedded(self, codes: np.ndarray, labels: np.ndarray) -> estimators.EmbeddedDataset:
        """The mixture-bound input of these codes: codes, labels and this encoder's noise variances."""
        return estimators.EmbeddedDataset(codes=codes, labels=labels, sigma2=self.sigma2, eta2=self.eta2())

    def encode_batch(self, x: np.ndarray) -> np.ndarray:
        """Mean embeddings for a batch; returns the (N, d) matrix f(x)."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"inputs must be (N, {self.in_dim}), got {x.shape}")
        h = x
        for l, (wn, bn) in enumerate(self.weight_names()):
            h = h @ self.store.get(wn).T + self.store.get(bn)
            if l < len(self.layer_dims) - 2:
                h = activate(h, self.activation)
        return h


@dataclass
class ModelState:
    """The whole model of a run: the validated config, one parameter store and the class priors.

    It is the one value that crosses run boundaries: :func:`train` returns it
    inside a :class:`TrainResult`, evaluation reads it, and
    :func:`data_io.save_checkpoint` / :func:`data_io.load_checkpoint` write
    and rebuild it whole.  The decoder q(y | t) is ``config["decoder"]["variant"]``:
    a softmax readout over its ``head.*`` slices, or the class surrogate's
    naive Bayes rule.
    """

    config: dict
    store: ParamStore
    priors: np.ndarray

    @functools.cached_property
    def encoder(self) -> EncoderModel:
        """The encoder of ``config["encoder"]``, reading the ``enc.*`` slices of this state's store."""
        enc = self.config["encoder"]
        return EncoderModel(list(enc["layer_dims"]), enc["activation"], enc["noise_mode"], float(enc["sigma2"]),
                            self.store)

    @property
    def class_count(self) -> int:
        return self.priors.shape[0]

    @property
    def learns_sigma(self) -> bool:
        """Whether ``sur.log_sigma`` exists; without it every sigma_y is 1."""
        return "sur.log_sigma" in self.store.names()

    @functools.cached_property
    def log_priors(self) -> np.ndarray:
        """log p(y) of the fixed priors; -inf for a zero prior."""
        with np.errstate(divide="ignore"):
            return np.log(self.priors)

    def surrogate(self) -> ClassSurrogate:
        """The class surrogate over the current ``sur.*`` slices and the priors; checks both."""
        mu = self.store.get("sur.mu")
        log_sigma = self.store.get("sur.log_sigma") if self.learns_sigma else np.zeros(mu.shape[0])
        return ClassSurrogate(mu, log_sigma, self.priors)

    def log_probs(self, t: np.ndarray) -> np.ndarray:
        """Normalized class log-probabilities for a (N, d) batch of points.

        Naive Bayes scores are accumulated in log space and normalized with
        log-sum-exp, so far-from-mean points cannot underflow to an all-zero
        posterior.
        """
        t = np.asarray(t, dtype=np.float64)
        d = self.encoder.bottleneck_dim
        if t.ndim != 2 or t.shape[1] != d:
            raise ValueError(f"points must be (N, {d}), got {t.shape}")
        if self.config["decoder"]["variant"] == "naive_bayes":
            s = self.surrogate()
            log_var = 2.0 * s.class_log_sigma
            diff = t[:, None, :] - s.class_means[None, :, :]
            quad = np.einsum("nkd,nkd->nk", diff, diff) * (0.5 * np.exp(-log_var))[None, :]
            scores = -quad + (self.log_priors - 0.5 * d * (math.log(2.0 * math.pi) + log_var))[None, :]
        else:
            scores = t @ self.store.get("head.W").T + self.store.get("head.b")
        return scores - logsumexp_rows(scores)[:, None]

    def loss_graph(
        self, tape: Tape, x: np.ndarray, labels: np.ndarray, beta_prime: np.ndarray, noise: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Record the training loss of the batches on ``tape``; returns (total, ce, kl), one per stacked row.

        The softmax readout scores with its own ``head.*`` slices; naive Bayes
        scores with the surrogate's, which the KL term shares.
        """
        enc = self.encoder
        means = tape.mlp(x, [name for pair in enc.weight_names() for name in pair], enc.activation)
        log_var = tape.log_var(enc.sigma2, "enc.log_eta2" if enc.noise_mode == "learned_eta" else None)
        log_sigma = "sur.log_sigma" if self.learns_sigma else None
        if self.config["decoder"]["variant"] == "softmax":
            score_rule = ("softmax", "head.W", "head.b", None)
        else:
            score_rule = ("naive_bayes", "sur.mu", log_sigma, self.log_priors)
        return objectives.cib_loss_graph(
            tape, means, log_var, labels, score_rule, "sur.mu", log_sigma, beta_prime, noise
        )


def build_state(config: dict, priors: np.ndarray, rng: np.random.Generator | None = None) -> ModelState:
    """The model state of a configuration: its parameter store, config and priors.

    With ``rng`` the weights get a fan-balanced uniform initialization and
    everything else starts at zero; without it all slices start at zero
    (checkpoint loading overwrites them).
    """
    cfg = data_io.validate_config(config)
    enc_cfg = cfg["encoder"]
    dims = enc_cfg["layer_dims"]
    priors = np.asarray(priors, dtype=np.float64)
    k = priors.shape[0]
    d = dims[-1]

    def glorot(shape):
        if rng is None:
            return np.zeros(shape)
        bound = math.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-bound, bound, size=shape)

    slices: list[tuple[str, np.ndarray]] = []
    for l in range(len(dims) - 1):
        slices.append((f"enc.W{l}", glorot((dims[l + 1], dims[l]))))
        slices.append((f"enc.b{l}", np.zeros(dims[l + 1])))
    if enc_cfg["noise_mode"] == "learned_eta":
        slices.append(("enc.log_eta2", np.zeros(())))
    slices.append(("sur.mu", np.zeros((k, d))))
    if cfg["surrogate"]["learn_sigma"]:
        slices.append(("sur.log_sigma", np.zeros(k)))
    if cfg["decoder"]["variant"] == "softmax":
        slices.append(("head.W", glorot((k, d))))
        slices.append(("head.b", np.zeros(k)))

    return ModelState(config=cfg, store=ParamStore(slices), priors=priors)


def make_loss_fn(
    state: ModelState, x: np.ndarray, labels: np.ndarray, beta_prime: float, noise: np.ndarray
):
    """Loss closure over frozen data and noise, in the grad_check contract.

    Every row of a stacked store gets the same batch, labels and noise, as
    views that copy nothing, and the same ``beta_prime``.
    """

    def lossfn(store: ParamStore):
        tape = Tape(store)
        p = store.values.shape[0]
        xs, ys, noises = (np.broadcast_to(a, (p,) + np.shape(a)) for a in (x, labels, noise))
        total, _, _ = state.loss_graph(tape, xs, ys, np.full(p, beta_prime), noises)
        return total, tape

    return lossfn


def _resolve_beta_prime(loss_cfg: dict) -> float:
    if "beta_prime" in loss_cfg:
        return float(loss_cfg["beta_prime"])
    return beta_to_beta_prime(float(loss_cfg["beta"]))


def _empirical_priors(train_ds: Dataset, extra: Dataset | None = None) -> np.ndarray:
    """Class frequencies; every class must appear in the train split."""
    counts = np.bincount(train_ds.labels, minlength=train_ds.class_count).astype(np.float64)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"class {missing} has no samples in the train split")
    if extra is not None:
        counts += np.bincount(extra.labels, minlength=train_ds.class_count)
    return counts / counts.sum()


class _Adam:
    """Adaptive-moment update of the flat parameter vector, elementwise, so stacked vectors update as rows."""

    def __init__(self, shape: tuple[int, ...], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, values: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad * grad
        m_hat = self.m / (1.0 - self.beta1**self.t)
        v_hat = self.v / (1.0 - self.beta2**self.t)
        values -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def keep(self, rows: list[int]) -> None:
        """Keep the moments of these stacked rows only."""
        self.m, self.v = self.m[rows], self.v[rows]


class _Sgd:
    def __init__(self, shape: tuple[int, ...], lr: float):
        self.lr = lr

    def update(self, values: np.ndarray, grad: np.ndarray) -> None:
        values -= self.lr * grad

    def keep(self, rows: list[int]) -> None:
        pass


@dataclass(frozen=True)
class EvalResult:
    """Deterministic metrics of one model on one dataset.

    ``bounds`` holds the O(N^2) information-plane bounds when :func:`evaluate`
    computed them, and is None from :func:`loss_terms`, which skips them.
    """

    accuracy: float
    cross_entropy: float
    kl_term: float
    bounds: estimators.BoundReport | None = None


@dataclass
class TrainResult:
    """A run: its model, its metrics rows, its beta' and the error that ended it early, if any.

    The final metrics row of a finished run is the :func:`loss_terms`
    evaluation of ``state`` on the train split; the trade-off point reads its
    train-split terms from it instead of evaluating that split again.
    """

    state: ModelState
    metrics: list[MetricsRow]
    beta_prime: float
    error: Exception | None = None


@dataclass(frozen=True)
class TradeoffPoint:
    """One sweep entry: loss terms, accuracy, and information-plane bounds."""

    beta_prime: float
    ce_train: float
    kl_train: float
    ce_test: float
    kl_test: float
    acc_test: float
    ixt: float
    ixt_given_y: float

    def __post_init__(self):
        if not 0.0 <= self.acc_test <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.acc_test}")
        if not (np.isfinite(self.ixt) and np.isfinite(self.ixt_given_y)):
            raise ValueError("information-plane bounds must be finite")

    def to_json_dict(self) -> dict:
        return asdict(self)


def _encode_split(state: ModelState, ds: Dataset) -> np.ndarray:
    if ds.dim != state.encoder.in_dim:
        raise ValueError(f"dataset dimension {ds.dim} does not match encoder input {state.encoder.in_dim}")
    if int(ds.labels.max()) >= state.class_count:
        raise ValueError("dataset labels exceed the model's class count")
    means = state.encoder.encode_batch(ds.features)
    if not np.all(np.isfinite(means)):
        raise ValueError("encoder codes must be finite")
    return means


def _terms_of_codes(state: ModelState, ds: Dataset, means: np.ndarray) -> EvalResult:
    rng = np.random.default_rng(EVAL_NOISE_SEED)
    noise = rng.standard_normal((EVAL_MC_SAMPLES, ds.count, means.shape[1]))
    predictions = np.argmax(state.log_probs(means), axis=1)
    accuracy = float(np.mean(predictions == ds.labels))

    true_lp, kl = objectives.cib_loss(
        ds.labels, means, state.encoder.log_var(), state.log_probs, state.surrogate(), noise
    )
    # -inf (a zero-probability true class) is reported as an infinite cross-entropy
    if np.any(np.isnan(true_lp)) or np.any(true_lp == np.inf):
        raise ValueError("log-probabilities must be finite or -inf")
    kl_term = float(np.mean(kl))
    if not kl_term >= -1e-9:
        raise ValueError(f"kl_term must be nonnegative, got {kl_term}")
    return EvalResult(accuracy=accuracy, cross_entropy=float(-np.mean(true_lp)), kl_term=kl_term)


def loss_terms(state: ModelState, ds: Dataset) -> EvalResult:
    """Accuracy, Monte-Carlo cross-entropy and exact KL term; ``bounds`` is None.

    Predictions are made from the encoder *mean* (no latent sampling).  The
    cross-entropy uses EVAL_MC_SAMPLES frozen draws, so the whole result is
    deterministic.  Both loss terms come from one :func:`objectives.cib_loss`
    call on the encoder means.  Metrics rows use this, since they keep no
    bounds; the final row's result is the train split of the trade-off point.
    """
    return _terms_of_codes(state, ds, _encode_split(state, ds))


def evaluate(state: ModelState, ds: Dataset) -> EvalResult:
    """:func:`loss_terms` plus the pairwise-mixture bound report of the same codes.

    The bounds cost O(N^2) in the split size; only the test split of a
    trade-off point needs them.
    """
    means = _encode_split(state, ds)
    terms = _terms_of_codes(state, ds, means)
    report = estimators.bound_report(state.encoder.embedded(means, ds.labels), estimators.MODE_CITED_SOURCE)
    return EvalResult(terms.accuracy, terms.cross_entropy, terms.kl_term, bounds=report)


def tradeoff_point(run: TrainResult, test_ds: Dataset) -> TradeoffPoint:
    """The trade-off point of a finished run: loss terms on both splits, bounds on the test split.

    The train-split terms are the run's final metrics row, an evaluation of
    the same state, so only the test split is encoded and evaluated here.
    A run that failed raises its error.
    """
    if run.error is not None:
        raise run.error
    final = run.metrics[-1]
    ev_test = evaluate(run.state, test_ds)
    return TradeoffPoint(
        beta_prime=run.beta_prime,
        ce_train=final.cross_entropy,
        kl_train=final.kl_term,
        ce_test=ev_test.cross_entropy,
        kl_test=ev_test.kl_term,
        acc_test=ev_test.accuracy,
        ixt=ev_test.bounds.unconditional,
        ixt_given_y=ev_test.bounds.aggregate,
    )


def _metrics_row(ev: EvalResult, beta_prime: float, step: int) -> MetricsRow:
    return MetricsRow(
        step=step,
        cross_entropy=ev.cross_entropy,
        kl_term=ev.kl_term,
        beta_prime=beta_prime,
        total=ev.cross_entropy + beta_prime * ev.kl_term,
        accuracy=ev.accuracy,
    )


@np.errstate(over="ignore", invalid="ignore")
def _diagnose_nonfinite(
    state: ModelState, x: np.ndarray, labels: np.ndarray, noise: np.ndarray, batch_idx: np.ndarray
) -> int:
    """Dataset index of the first sample with a non-finite loss contribution."""
    means = state.encoder.encode_batch(x)
    true_lp, kl = objectives.cib_loss(
        labels, means, state.encoder.log_var(), state.log_probs, state.surrogate(), noise
    )
    bad = ~np.all(np.isfinite(means), axis=1) | ~np.all(np.isfinite(true_lp), axis=1) | ~np.isfinite(kl)
    first = int(np.flatnonzero(bad)[0]) if np.any(bad) else 0
    return int(batch_idx[first])


def _alternating_moment_step(state: ModelState, train: Dataset) -> None:
    """M-step: set each class surrogate to the moments of its current codes."""
    means = state.encoder.encode_batch(train.features)
    var = math.exp(state.encoder.log_var())
    mu = state.store.get("sur.mu")
    d = means.shape[1]
    for y in range(state.class_count):
        rows = means[train.labels == y]
        mu[y] = rows.mean(axis=0)
        if state.learns_sigma:
            sigma2_y = float(np.mean((rows - mu[y]) ** 2)) + var
            state.store.get("sur.log_sigma")[y] = 0.5 * math.log(sigma2_y)


def _without_beta(loss: dict) -> dict:
    return {key: value for key, value in loss.items() if key not in ("beta", "beta_prime")}


def _check_stackable(configs: list[dict]) -> None:
    """ValueError naming the first block in which the configs differ, beyond beta' and the seed."""

    def shared(cfg: dict) -> dict:
        return {**cfg, "loss": _without_beta(cfg["loss"]), "seed": None}

    first = shared(configs[0])
    for cfg in map(shared, configs[1:]):
        for block, value in first.items():
            if cfg[block] != value:
                raise ValueError(f"configs trained as one stack differ in {block}; only beta' and seed may")


# the most float64 values that one array of a lockstep step may hold, at
# least one run's worth: a stack takes as many runs as keep their parameter
# vectors, widest layer and kept score draws within it.  Past it a step's
# time goes to arithmetic rather than to numpy call overhead, so stacking
# more runs would only multiply the optimizer's and the backward's arrays
STACK_VALUES = 2**16


def _stack_rows(state: ModelState, batch: int, draws: int) -> int:
    """How many runs of this model one lockstep stack takes, at least one."""
    enc = state.encoder
    naive_bayes = state.config["decoder"]["variant"] == "naive_bayes"
    per_draw = batch * state.class_count * (enc.bottleneck_dim if naive_bayes else 1)
    widest = max(state.store.size, batch * max(enc.layer_dims), draws * per_draw)
    return max(1, STACK_VALUES // widest)


class _Lockstep:
    """The runs of one stack still going, with what they share: a (P, size) store, optimizer and (P,) beta'."""

    def __init__(self, runs: list[TrainResult], streams: list[tuple], opt_cfg: dict):
        self.runs, self.streams, self.order = runs, streams, None
        self._bind(np.stack([run.state.store.values for run in runs]))
        optimizer = _Adam if opt_cfg["kind"] == "adam" else _Sgd
        self.opt = optimizer(self.store.values.shape, float(opt_cfg["lr"]))

    def _bind(self, values: np.ndarray) -> None:
        """Make ``values`` the stack, and each run's state a view of its row."""
        self.store = self.runs[0].state.store.with_values(values)
        for run, row in zip(self.runs, values):
            run.state = replace(run.state, store=self.store.with_values(row))
        self.beta_prime = np.array([run.beta_prime for run in self.runs])

    def each(self, work) -> None:
        """``work(run, j)`` for the j-th run still going and not yet failed; what it raises becomes the run's error."""
        for j, run in enumerate(self.runs):
            if run.error is None:
                try:
                    work(run, j)
                except (ArithmeticError, ValueError) as exc:
                    run.error = exc

    def drop_failed(self) -> list[int] | None:
        """Drop the runs that failed from the stack; returns the rows kept, or None if none failed."""
        keep = [j for j, run in enumerate(self.runs) if run.error is None]
        if len(keep) == len(self.runs):
            return None
        self.runs = [self.runs[j] for j in keep]
        self.streams = [self.streams[j] for j in keep]
        if keep:
            self._bind(self.store.values[keep])
            self.opt.keep(keep)
            self.order = None if self.order is None else self.order[keep]
        return keep


def train(
    configs: Sequence[dict],
    train_ds: Dataset,
    test_ds: Dataset | None = None,
    shuffle_seed: int | None = None,
) -> list[TrainResult]:
    """Minimize the bottleneck loss of each config by stochastic gradient, in lockstep; fully seeded.

    The configs may differ only in beta' and seed, as a sweep's points do.
    Their runs step together as one model over a stacked store, and each
    gets the bits it gets when trained alone (``train([config], ...)``, a
    stack of one): its own initialization, shuffle and noise streams,
    batches and metrics rows.  A run whose loss turns non-finite, or whose
    surrogate update or evaluation fails, leaves the stack with that error
    in :attr:`TrainResult.error`; the others go on.  Runs of a large model
    train in consecutive stacks of :func:`_stack_rows` runs each, so no
    array of a step outgrows STACK_VALUES for more than one run.

    Batches are drawn from a per-epoch shuffled order but processed in sorted
    index order, so a full-batch run is independent of the shuffle stream.
    ``shuffle_seed`` overrides that stream (the run seed keeps driving
    initialization and noise), which is how order-invariance is exercised.
    Metrics rows are full train-split evaluations logged at step 0, every
    ``optim.log_every`` steps, and at the final step.
    """
    cfgs = [data_io.validate_config(config) for config in configs]
    if not cfgs:
        raise ValueError("train needs at least one config")
    _check_stackable(cfgs)
    cfg = cfgs[0]
    if cfg["encoder"]["layer_dims"][0] != train_ds.dim:
        raise ValueError(
            f"encoder expects inputs of dimension {cfg['encoder']['layer_dims'][0]}, "
            f"dataset has {train_ds.dim}"
        )
    use_all = cfg["surrogate"]["priors"] == "all" and test_ds is not None
    priors = _empirical_priors(train_ds, test_ds if use_all else None)

    runs, streams = [], []
    for c in cfgs:
        seed = c["seed"]
        state = build_state(c, priors, np.random.default_rng(derive_seed(seed, _INIT_STREAM)))
        runs.append(TrainResult(state=state, metrics=[], beta_prime=_resolve_beta_prime(c["loss"])))
        streams.append((
            np.random.default_rng(derive_seed(seed, _SHUFFLE_STREAM) if shuffle_seed is None else shuffle_seed),
            np.random.default_rng(derive_seed(seed, _NOISE_STREAM)),
        ))
    batch = min(cfg["optim"]["batch"], train_ds.count)
    rows = _stack_rows(runs[0].state, batch, cfg["loss"]["mc_samples"])
    for lo in range(0, len(runs), rows):
        _train_stack(_Lockstep(runs[lo : lo + rows], streams[lo : lo + rows], cfg["optim"]), cfg, train_ds, batch)
    return runs


def _train_stack(lock: _Lockstep, cfg: dict, train_ds: Dataset, batch: int) -> None:
    """Run the steps of :func:`train` on one stack, whose runs keep their rows, results and errors."""
    n = train_ds.count
    steps, log_every = cfg["optim"]["steps"], cfg["optim"]["log_every"]
    mc_samples = cfg["loss"]["mc_samples"]
    alternating = cfg["surrogate"]["update"] == "alternating"
    d = lock.runs[0].state.encoder.bottleneck_dim
    sur_slices = [lock.store.spec(name) for name in lock.store.names() if name.startswith("sur.")]

    def moment_step(run, j):
        _alternating_moment_step(run.state, train_ds)

    def log_row(run, j):
        run.metrics.append(_metrics_row(loss_terms(run.state, train_ds), run.beta_prime, step))

    step = 0
    if alternating:
        lock.each(moment_step)
    lock.each(log_row)
    lock.drop_failed()
    pos = n  # the first step draws the first order
    for step in range(1, steps + 1):
        if not lock.runs:
            break
        if pos + batch > n:
            lock.order = np.stack([shuffle.permutation(n) for shuffle, _ in lock.streams])
            pos = 0
        idx = np.sort(lock.order[:, pos : pos + batch])
        pos += batch
        noise = np.empty((len(lock.runs), mc_samples, batch, d))
        for row, (_, draws) in zip(noise, lock.streams):
            draws.standard_normal(out=row)  # the draws of standard_normal((mc_samples, batch, d))
        x, labels = train_ds.features[idx], train_ds.labels[idx]

        tape = Tape(lock.store)
        total, _, _ = lock.runs[0].state.loss_graph(tape, x, labels, lock.beta_prime, noise)
        finite = np.isfinite(total)
        if not finite.all():

            def diagnose(run, j):
                if not finite[j]:
                    sample = _diagnose_nonfinite(run.state, x[j], labels[j], noise[j], idx[j])
                    raise NonFiniteLossError(
                        f"non-finite loss at step {step} (train sample {sample})", step=step, sample_index=sample
                    )

            lock.each(diagnose)
            keep = lock.drop_failed()
            if not lock.runs:
                break
            # the runs left take this step again on the same batches and noise
            x, labels, noise = x[keep], labels[keep], noise[keep]
            tape = Tape(lock.store)
            lock.runs[0].state.loss_graph(tape, x, labels, lock.beta_prime, noise)
        grad = tape.backward()
        if alternating:
            for spec in sur_slices:
                grad[:, spec.offset : spec.offset + spec.size] = 0.0
        lock.opt.update(lock.store.values, grad)
        if alternating:
            lock.each(moment_step)
        if step % log_every == 0 or step == steps:
            lock.each(log_row)
        lock.drop_failed()


def sweep(config: dict, beta_primes: Sequence[float]) -> list[TradeoffPoint]:
    """Independent runs over the beta' grid, trained in lockstep; one TradeoffPoint per value.

    Each point derives its own run seed from (config seed, point index), so a
    grid entry is reproducible in isolation.  The first point that failed
    raises its error.
    """
    if len(beta_primes) == 0:
        raise ValueError("beta_prime list must be non-empty")
    runs, test_ds = sweep_runs(config, range(len(beta_primes)), beta_primes)
    return [tradeoff_point(run, test_ds) for run in runs]


def sweep_runs(
    config: dict, indices: Sequence[int], beta_primes: Sequence[float]
) -> tuple[list[TrainResult], Dataset]:
    """Train the grid points ``indices`` at ``beta_primes`` in one :func:`train` call; returns (runs, test split).

    The config's dataset is built once for all of them.
    """
    cfg = data_io.validate_config(config)
    configs = [
        {**cfg, "loss": {**_without_beta(cfg["loss"]), "beta_prime": float(beta_prime)},
         "seed": derive_seed(cfg["seed"], index)}
        for index, beta_prime in zip(indices, beta_primes)
    ]
    train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
    return train(configs, train_ds, test_ds), test_ds
