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
such as a sweep's points, train in lockstep over one stacked store.
Stacking saves numpy call overhead, which is most of a small net's step; a
large model's runs train in several stacks, so that no array of a step
holds more than STACK_VALUES values for more than one run.
Evaluation works on the same inputs as training: a stack's (P, N, d) encoder
means and (P,) log-variances, P >= 1.  One kernel gives accuracy,
cross-entropy and KL for metrics rows and trade-off points alike, scoring
all the models of a stack in one pass over the split's evaluation noise,
which is drawn once per split.
A stack, of runs in training or of models in evaluation, runs whole or each
of its members runs alone: the first failure of any member ends it, and
each member runs again as a stack of one, to the bits and the error it gets
alone, at the cost of the stack's work up to that failure.
A run's failure is its one error, an ``ArithmeticError``: a non-finite
loss or eta^2, or a failed check of its codes, surrogate, log-probabilities,
KL or trade-off point (:class:`NonFiniteError`); a ``ValueError`` inside a
run is a broken contract and propagates.  Overflow, inf * 0 and inf - inf
inside a run are not numpy warnings, because these checks report them;
:func:`_train_stack` and :func:`_stack_terms` each state this once with
``np.errstate``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import data_io, estimators, objectives
from .data_io import Dataset, MetricsRow
from .diffcore import NonFiniteError, ParamStore, Tape, activate, logsumexp_rows
from .objectives import beta_to_beta_prime

__all__ = [
    "NonFiniteLossError",
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
    "evaluate",
    "tradeoff_points",
    "sweep",
]

EVAL_MC_SAMPLES = 16
# Evaluation noise comes from this fixed stream so evaluate() is a pure
# function of (parameters, dataset).
EVAL_NOISE_SEED = 202_408
_MASK64 = (1 << 64) - 1


class NonFiniteLossError(NonFiniteError):
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
class ModelState:
    """The whole model of a run: the validated config, one parameter store and the class priors.

    It is the one value that crosses run boundaries: :func:`train` returns it
    inside a :class:`TrainResult`, evaluation reads it, and
    :func:`data_io.save_checkpoint` / :func:`data_io.load_checkpoint` write
    and rebuild it whole.  The encoder f(x) is ``config["encoder"]`` over the
    ``enc.*`` slices.  The decoder q(y | t) is ``config["decoder"]["variant"]``:
    a softmax readout over its ``head.*`` slices, or the class surrogate's
    naive Bayes rule.
    """

    config: dict
    store: ParamStore
    priors: np.ndarray

    @property
    def in_dim(self) -> int:
        return self.config["encoder"]["layer_dims"][0]

    @property
    def bottleneck_dim(self) -> int:
        return self.config["encoder"]["layer_dims"][-1]

    @functools.cached_property
    def net_names(self) -> tuple[str, ...]:
        """The net's slice names W_0, b_0, W_1, b_1, ... in the order :meth:`Tape.mlp` takes them."""
        return tuple(f"enc.{kind}{l}" for l in range(len(self.config["encoder"]["layer_dims"]) - 1) for kind in "Wb")

    @property
    def sigma2(self) -> float:
        return float(self.config["encoder"]["sigma2"])

    def log_var(self) -> float:
        """Log of the isotropic bottleneck variance; eta^2 is 0.0 under fixed noise, and 0.0 + sigma^2 is sigma^2."""
        return math.log(self.eta2() + self.sigma2)

    def eta2(self) -> float:
        """Learned noise variance exp(log eta^2); NonFiniteError if it overflows a float."""
        if self.config["encoder"]["noise_mode"] == "fixed_sigma":
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
        """Mean embeddings for a batch; returns the (N, d) matrix f(x), or (P, N, d) for a stacked store.

        A stacked store encodes the same (N, in) batch with each of its P
        nets; each net's product is the one it gets alone.
        """
        enc = self.config["encoder"]
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"inputs must be (N, {self.in_dim}), got {x.shape}")
        h, names = x, iter(self.net_names)
        for l, (wn, bn) in enumerate(zip(names, names)):
            h = h @ self.store.get(wn).mT
            h += self.store.get(bn)[..., None, :]
            if l < len(enc["layer_dims"]) - 2:
                h = activate(h, enc["activation"])
        return h

    @property
    def class_count(self) -> int:
        return self.priors.shape[0]

    @property
    def learns_sigma(self) -> bool:
        """Whether ``sur.log_sigma`` exists; without it every sigma_y is 1."""
        return "sur.log_sigma" in self.store.layout

    @functools.cached_property
    def log_priors(self) -> np.ndarray:
        """log p(y) of the fixed priors; -inf for a zero prior."""
        with np.errstate(divide="ignore"):
            return np.log(self.priors)

    def surrogate(self) -> tuple[np.ndarray, np.ndarray]:
        """The class surrogate r(T|Y), checked finite: the (K, d) class means and (K,) log standard deviations.

        They are the store's ``sur.*`` slices; a stacked store gives (P, K, d) and (P, K).
        """
        mu, log_sigma = self._surrogate_slices()
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(log_sigma))):
            raise NonFiniteError("ClassSurrogate parameters must be finite")
        return mu, log_sigma

    def _surrogate_slices(self) -> tuple[np.ndarray, np.ndarray]:
        """The unchecked class means and log-sigmas of the store; without ``sur.log_sigma`` the log-sigmas are 0."""
        mu = self.store.get("sur.mu")
        return mu, self.store.get("sur.log_sigma") if self.learns_sigma else np.zeros(mu.shape[:-1])

    def log_probs(self, t: np.ndarray) -> np.ndarray:
        """Normalized class log-probabilities: (N, K) for a (N, d) batch of points.

        A stacked store scores a (P, N, d) stack of batches, row p with model
        p, and returns (P, N, K).  Naive Bayes scores are accumulated in log
        space and normalized with log-sum-exp, so far-from-mean points cannot
        underflow to an all-zero posterior; they read the surrogate's slices
        unchecked, once per draw, and :meth:`surrogate` checks them.
        """
        t = np.asarray(t, dtype=np.float64)
        d = self.bottleneck_dim
        if t.ndim != self.store.values.ndim + 1 or t.shape[-1] != d:
            raise ValueError(f"points must be ([P,] N, {d}) like the store's stack, got {t.shape}")
        if self.config["decoder"]["variant"] == "naive_bayes":
            mu, log_sigma = self._surrogate_slices()
            log_var = 2.0 * log_sigma
            diff = t[..., :, None, :] - mu[..., None, :, :]
            quad = np.einsum("...nkd,...nkd->...nk", diff, diff) * (0.5 * np.exp(-log_var))[..., None, :]
            del diff  # a draw's widest array, (N, K, d) per model
            scores = -quad + (self.log_priors - 0.5 * d * (math.log(2.0 * math.pi) + log_var))[..., None, :]
        else:
            scores = t @ self.store.get("head.W").mT
            scores += self.store.get("head.b")[..., None, :]
        scores -= logsumexp_rows(scores)[..., None]  # in place, like the bias: one (P, N, K) array a draw
        return scores

    def loss_graph(
        self, tape: Tape, x: np.ndarray, labels: np.ndarray, beta_prime: np.ndarray, noise: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Record the training loss of the batches on ``tape``; returns (total, ce, kl), one per stacked row.

        The softmax readout scores with its own ``head.*`` slices; naive Bayes
        scores with the surrogate's, which the KL term shares.
        """
        enc = self.config["encoder"]
        means = tape.mlp(x, self.net_names, enc["activation"])
        log_var = tape.log_var(self.sigma2, "enc.log_eta2" if enc["noise_mode"] == "learned_eta" else None)
        log_sigma = "sur.log_sigma" if self.learns_sigma else None
        if self.config["decoder"]["variant"] == "softmax":
            score_rule = ("softmax", "head.W", "head.b", None)
        else:
            score_rule = ("naive_bayes", "sur.mu", log_sigma, self.log_priors)
        return objectives.cib_loss_graph(
            tape, means, log_var, labels, score_rule, "sur.mu", log_sigma, beta_prime, noise
        )


# perfbench/layers.py wraps model.EncoderModel.encode_batch, a name tests/test_bench_wiring.py requires to exist
EncoderModel = ModelState


def build_state(config: dict, priors: np.ndarray, rng: np.random.Generator | None = None) -> ModelState:
    """The model state of a configuration: its parameter store, config and priors.

    Every state is built here, so here its (K,) priors are checked.  With
    ``rng`` the weights get a fan-balanced uniform initialization and
    everything else starts at zero; without it all slices start at zero
    (checkpoint loading overwrites them).
    """
    cfg = data_io.validate_config(config)
    enc_cfg = cfg["encoder"]
    dims = enc_cfg["layer_dims"]
    priors = np.asarray(priors, dtype=np.float64)
    if priors.ndim != 1 or not (np.all(priors >= 0.0) and abs(float(priors.sum()) - 1.0) <= 1e-12):  # NaN fails
        raise ValueError("priors must be nonnegative and sum to 1")
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


_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPS = 0.9, 0.999, 1e-8


class _Adam:
    """Adaptive-moment update of the flat parameter vector, elementwise, so stacked vectors update as rows."""

    def __init__(self, shape: tuple[int, ...], lr: float):
        self.lr = lr
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self.t = 0

    def update(self, values: np.ndarray, grad: np.ndarray) -> None:
        self.t += 1
        self.m = _ADAM_BETA1 * self.m + (1.0 - _ADAM_BETA1) * grad
        self.v = _ADAM_BETA2 * self.v + (1.0 - _ADAM_BETA2) * grad * grad
        m_hat = self.m / (1.0 - _ADAM_BETA1**self.t)
        v_hat = self.v / (1.0 - _ADAM_BETA2**self.t)
        values -= self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


class _Sgd:
    def __init__(self, shape: tuple[int, ...], lr: float):
        self.lr = lr

    def update(self, values: np.ndarray, grad: np.ndarray) -> None:
        values -= self.lr * grad


@dataclass(frozen=True)
class EvalResult:
    """Deterministic metrics of one model on one dataset.

    ``bounds`` holds the O(N^2) information-plane bounds from :func:`evaluate`,
    and is None from :func:`_stack_terms`, which skips them.
    """

    accuracy: float
    cross_entropy: float
    kl_term: float
    bounds: estimators.BoundReport | None = None


@dataclass
class TrainResult:
    """A run: its model, its metrics rows, its beta' and the error that ended it early, if any.

    The final metrics row of a finished run is the :func:`_stack_terms`
    evaluation of ``state`` on the train split; the trade-off point reads its
    train-split terms from it instead of evaluating that split again.
    """

    state: ModelState
    metrics: list[MetricsRow]
    beta_prime: float
    error: Exception | None = None


@dataclass(frozen=True)
class TradeoffPoint:
    """One sweep entry: loss terms, accuracy, and information-plane bounds, each a finite number."""

    beta_prime: float
    ce_train: float
    kl_train: float
    ce_test: float
    kl_test: float
    acc_test: float
    ixt: float
    ixt_given_y: float

    def __post_init__(self):
        bad = [name for name, v in vars(self).items() if not _finite_number(v)]
        if bad:
            raise ValueError(f"non-finite or non-numeric values for {', '.join(bad)}")
        if not 0.0 <= self.acc_test <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.acc_test}")


def _finite_number(v) -> bool:
    """Whether ``v`` is a finite int or float; an int beyond float range is not."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:  # int too large to convert to float
        return False


def _eval_noise(n: int, d: int) -> np.ndarray:
    """The frozen evaluation draws of a split of ``n`` rows: (EVAL_MC_SAMPLES, n, d) from EVAL_NOISE_SEED."""
    return np.random.default_rng(EVAL_NOISE_SEED).standard_normal((EVAL_MC_SAMPLES, n, d))


def _stacked(states: Sequence[ModelState]) -> ModelState:
    """One state over the (P, size) stack of the stores of ``states``, which share a model and priors.

    The stack of one state is a view of its store; more are copied.
    """
    first = states[0]
    values = first.store.values[None] if len(states) == 1 else np.stack([s.store.values for s in states])
    return ModelState(first.config, first.store.with_values(values), first.priors)


@np.errstate(over="ignore", invalid="ignore")
def _stack_terms(states: Sequence[ModelState], ds: Dataset, noise: np.ndarray) -> list:
    """Loss terms of the models of one stack on ``ds``: per model an (EvalResult, (N, d) codes) pair or its error.

    The models are a checked stack that fits ``ds`` (:func:`evaluate` checks
    its input, :func:`train` its runs').  They are encoded and scored
    together, in passes of :func:`_stack_rows` models (a pass over N rows is
    a step of batch N and one draw) over the split's shared (S, N, d)
    ``noise``.  A pass in which any model fails a check scores each model
    again alone, to the values and error it gets there, at the cost of one
    more pass per model.
    """
    rows = _stack_rows(states[0], ds.count, 1)
    return [outcome for lo in range(0, len(states), rows) for outcome in _pass_terms(states[lo : lo + rows], ds, noise)]


def _pass_terms(states: Sequence[ModelState], ds: Dataset, noise: np.ndarray) -> list:
    """One pass of :func:`_stack_terms`: its models scored as one stack or, if any fails a check, each alone."""
    stack = _stacked(states)
    means = stack.encode_batch(ds.features)
    try:
        if not np.all(np.isfinite(means)):
            raise NonFiniteError("encoder codes must be finite")
        surrogate = stack.surrogate()  # naive-Bayes scores read it, so it is checked before the log-variances
        log_vars = np.array([state.log_var() for state in states])
    except ArithmeticError as exc:
        outcomes: list = [exc]
    else:
        predictions = np.argmax(stack.log_probs(means), axis=-1)
        true_lp, kl = objectives.cib_loss(ds.labels, means, log_vars, stack.log_probs, surrogate, noise)
        outcomes = []
        for i, codes in enumerate(means):
            # -inf (a zero-probability true class) is reported as an infinite cross-entropy
            if np.any(np.isnan(true_lp[i])) or np.any(true_lp[i] == np.inf):
                outcomes.append(NonFiniteError("log-probabilities must be finite or -inf"))
                continue
            kl_term = float(np.mean(kl[i]))
            if not kl_term >= -1e-9:
                outcomes.append(NonFiniteError(f"kl_term must be nonnegative, got {kl_term}"))
                continue
            accuracy = float(np.mean(predictions[i] == ds.labels))
            outcomes.append((EvalResult(accuracy, float(-np.mean(true_lp[i])), kl_term), codes))
    if len(states) > 1 and any(isinstance(outcome, Exception) for outcome in outcomes):
        return [outcome for state in states for outcome in _pass_terms([state], ds, noise)]
    return outcomes


def evaluate(states: Sequence[ModelState], ds: Dataset) -> list[EvalResult | Exception]:
    """Loss terms and the pairwise-mixture bound report of the same codes, for each model of a stack.

    Predictions come from the encoder *mean*; both loss terms come from one
    :func:`objectives.cib_loss` call over EVAL_MC_SAMPLES frozen draws, so
    the result is deterministic.  The models share their config up to beta'
    and seed; a single model is a stack of one.  The split is scored in one
    stacked pass (a pass with a failing model is scored again model by
    model), and each entry is the model's result or the error it gets alone.
    The bounds cost O(N^2) in the split size, so metrics rows, which keep
    none, read the loss terms of :func:`_stack_terms` instead.  No models,
    models that differ in more than beta' and seed or in their priors, and a
    split that does not fit the model raise ValueError.
    """
    if not states:
        raise ValueError("an evaluation needs at least one model")
    _check_stackable([state.config for state in states])
    if not all(np.array_equal(state.priors, states[0].priors) for state in states[1:]):
        raise ValueError("models evaluated as one stack differ in their priors")
    if ds.dim != states[0].in_dim:
        raise ValueError(f"dataset dimension {ds.dim} does not match encoder input {states[0].in_dim}")
    if int(ds.labels.max()) >= states[0].class_count:
        raise ValueError("dataset labels exceed the model's class count")
    outcomes = _stack_terms(states, ds, _eval_noise(ds.count, states[0].bottleneck_dim))
    results: list = []
    for state, outcome in zip(states, outcomes):
        if not isinstance(outcome, Exception):  # its codes and eta^2 passed their checks in the pass
            terms, means = outcome
            report = estimators.bound_report(state.embedded(means, ds.labels), estimators.MODE_CITED_SOURCE)
            outcome = replace(terms, bounds=report)
        results.append(outcome)
    return results


def tradeoff_points(runs: Sequence[TrainResult], test_ds: Dataset) -> list[TradeoffPoint | Exception]:
    """The trade-off point of each run of one stack: loss terms on both splits, bounds on the test split.

    The train-split terms are each run's final metrics row, an evaluation of
    the same state, so only the test split is evaluated here, in one
    :func:`evaluate` call for the stack.  A run that failed, or whose point
    fails, has the error it gets alone in its place.
    """
    finished = [run for run in runs if run.error is None]
    evaluated = iter(evaluate([run.state for run in finished], test_ds) if finished else ())
    points: list = []
    for run in runs:
        outcome = run.error if run.error is not None else next(evaluated)
        if not isinstance(outcome, Exception):
            final = run.metrics[-1]
            try:
                outcome = TradeoffPoint(
                    beta_prime=run.beta_prime,
                    ce_train=final.cross_entropy,
                    kl_train=final.kl_term,
                    ce_test=outcome.cross_entropy,
                    kl_test=outcome.kl_term,
                    acc_test=outcome.accuracy,
                    ixt=outcome.bounds.unconditional,
                    ixt_given_y=outcome.bounds.aggregate,
                )
            except ValueError as exc:  # cib report's input check; here the values are the run's numbers
                outcome = NonFiniteError(str(exc))
        points.append(outcome)
    return points


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
    stack = _stacked([state])
    means = stack.encode_batch(x)
    true_lp, kl = objectives.cib_loss(
        labels, means, np.array([state.log_var()]), stack.log_probs, stack.surrogate(), noise
    )
    bad = ~np.all(np.isfinite(means[0]), axis=1) | ~np.all(np.isfinite(true_lp[0]), axis=1) | ~np.isfinite(kl[0])
    first = int(np.flatnonzero(bad)[0]) if np.any(bad) else 0
    return int(batch_idx[first])


def _alternating_moment_step(state: ModelState, train: Dataset) -> None:
    """M-step: set each class surrogate to the moments of its current codes."""
    means = state.encode_batch(train.features)
    var = math.exp(state.log_var())
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
                raise ValueError(f"configs of one stack differ in {block}; only beta' and seed may")


# the most float64 values that one array of a lockstep step or of an
# evaluation pass may hold, at least one run's worth: a stack takes as many
# runs as keep their parameter vectors, widest layer and kept score draws
# within it.  Past it a step's time goes to arithmetic rather than to numpy
# call overhead, so stacking more runs would only multiply the optimizer's
# and the backward's arrays
STACK_VALUES = 2**16


def _stack_rows(state: ModelState, batch: int, draws: int) -> int:
    """How many runs of this model one lockstep stack, or one evaluation pass, takes: at least one.

    A step of ``batch`` rows keeps ``draws`` score draws; an evaluation pass
    over N rows scores one draw at a time.
    """
    naive_bayes = state.config["decoder"]["variant"] == "naive_bayes"
    per_draw = batch * state.class_count * (state.bottleneck_dim if naive_bayes else 1)
    widest = max(state.store.size, batch * max(state.config["encoder"]["layer_dims"]), draws * per_draw)
    return max(1, STACK_VALUES // widest)


def train(configs: Sequence[dict], train_ds: Dataset, test_ds: Dataset | None = None) -> list[TrainResult]:
    """Minimize the bottleneck loss of each config by stochastic gradient, in lockstep; fully seeded.

    The configs may differ only in beta' and seed, as a sweep's points do.
    Their runs step together as one model over a stacked store, and each
    gets the bits it gets when trained alone (``train([config], ...)``, a
    stack of one): its own initialization, shuffle and noise streams,
    batches and metrics rows.  A stack runs whole, or each of its runs
    alone: the first run whose loss turns non-finite, or whose surrogate
    update or metrics row fails, ends the stack, and each of its runs trains
    again alone, to the values and error (:attr:`TrainResult.error`) it
    gets there, at the cost of the steps up to that failure.  Runs of a
    large model train in consecutive stacks of :func:`_stack_rows` runs
    each, so no array of a step outgrows STACK_VALUES for more than one run.

    Batches are drawn from a per-epoch shuffled order but processed in sorted
    index order, so a full-batch run is independent of the shuffle stream.
    A ``test_ds`` that does not fit the model fails before the first step.
    Metrics rows are full train-split evaluations logged at step 0, every
    ``optim.log_every`` steps, and at the final step.
    """
    cfgs = [data_io.validate_config(config) for config in configs]
    if not cfgs:
        raise ValueError("train needs at least one config")
    _check_stackable(cfgs)
    cfg = cfgs[0]
    in_dim = cfg["encoder"]["layer_dims"][0]
    for split, ds in (("train", train_ds), ("test", test_ds)):
        if ds is not None and ds.dim != in_dim:
            raise ValueError(f"encoder expects inputs of dimension {in_dim}, the {split} split has {ds.dim}")
    if test_ds is not None and int(test_ds.labels.max()) >= train_ds.class_count:
        raise ValueError(f"the test split has label {int(test_ds.labels.max())}, "
                         f"but the train split has {train_ds.class_count} classes")
    use_all = cfg["surrogate"]["priors"] == "all" and test_ds is not None
    priors = _empirical_priors(train_ds, test_ds if use_all else None)

    batch = min(cfg["optim"]["batch"], train_ds.count)
    rows = _stack_rows(build_state(cfg, priors), batch, cfg["loss"]["mc_samples"])
    runs: list[TrainResult] = []
    for lo in range(0, len(cfgs), rows):
        stack = cfgs[lo : lo + rows]
        done = _train_stack(stack, priors, train_ds, batch)
        if len(stack) > 1 and any(run.error is not None for run in done):
            done = [_train_stack([c], priors, train_ds, batch)[0] for c in stack]
        runs += done
    return runs


def _batch_blocks(order: np.ndarray, batch: int) -> np.ndarray:
    """The (P, n // batch, batch) batches of one epoch's (P, n) shuffled orders, each sorted.

    Step j of the epoch takes block j: entries j * batch up to (j + 1) *
    batch of each order, in ascending index order.  The last n % batch
    entries of an order go unused.
    """
    return np.sort(order[:, : order.shape[1] // batch * batch].reshape(order.shape[0], -1, batch), axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _train_stack(cfgs: Sequence[dict], priors: np.ndarray, train_ds: Dataset, batch: int) -> list[TrainResult]:
    """Run the steps of :func:`train` on one stack of runs, together, until the first failure of any run.

    That run keeps its error, and every run its metrics rows and values up
    to there.  A metrics row evaluates the whole stack in one pass over the
    train split's evaluation noise, drawn once per stack.
    """
    cfg, seeds = cfgs[0], [c["seed"] for c in cfgs]
    n, d = train_ds.count, cfg["encoder"]["layer_dims"][-1]
    # drawn before the stack's arrays: a 784-256-8 sweep of stacks of one peaks 1.4 MB lower than drawn after
    eval_noise = _eval_noise(n, d)
    states = [build_state(c, priors, np.random.default_rng(derive_seed(c["seed"], _INIT_STREAM))) for c in cfgs]
    store = states[0].store.with_values(np.stack([state.store.values for state in states]))
    # each run's state reads its row of the stacked store
    runs = [TrainResult(replace(state, store=store.with_values(row)), [], _resolve_beta_prime(state.config["loss"]))
            for state, row in zip(states, store.values)]
    shuffles = [np.random.default_rng(derive_seed(seed, _SHUFFLE_STREAM)) for seed in seeds]
    draws = [np.random.default_rng(derive_seed(seed, _NOISE_STREAM)) for seed in seeds]
    opt = (_Adam if cfg["optim"]["kind"] == "adam" else _Sgd)(store.values.shape, float(cfg["optim"]["lr"]))
    beta_prime = np.array([run.beta_prime for run in runs])
    steps, log_every = cfg["optim"]["steps"], cfg["optim"]["log_every"]
    alternating = cfg["surrogate"]["update"] == "alternating"
    sur_slices = [store.spec(name) for name in store.names() if name.startswith("sur.")]

    def each(work) -> bool:
        """``work(j, run)`` for each run until one fails, which keeps its error; whether none failed."""
        for j, run in enumerate(runs):
            try:
                work(j, run)
            except ArithmeticError as exc:
                run.error = exc
                return False
        return True

    def moment_steps() -> bool:
        return not alternating or each(lambda j, run: _alternating_moment_step(run.state, train_ds))

    def log_rows(step: int) -> bool:
        for run, outcome in zip(runs, _stack_terms([run.state for run in runs], train_ds, eval_noise)):
            if isinstance(outcome, Exception):
                run.error = outcome
                return False
            run.metrics.append(_metrics_row(outcome[0], run.beta_prime, step))
        return True

    if not (moment_steps() and log_rows(0)):
        return runs
    per_epoch = n // batch
    block = per_epoch  # the first step draws the first order
    for step in range(1, steps + 1):
        if block == per_epoch:
            blocks = _batch_blocks(np.stack([shuffle.permutation(n) for shuffle in shuffles]), batch)
            block = 0
        idx = blocks[:, block]
        block += 1
        noise = np.empty((len(runs), cfg["loss"]["mc_samples"], batch, d))
        for row, stream in zip(noise, draws):
            stream.standard_normal(out=row)  # the draws of standard_normal((mc_samples, batch, d))
        x, labels = train_ds.features[idx], train_ds.labels[idx]

        tape = Tape(store)
        total, _, _ = runs[0].state.loss_graph(tape, x, labels, beta_prime, noise)
        if not np.isfinite(total).all():

            def diagnose(j, run):
                if not np.isfinite(total[j]):
                    sample = _diagnose_nonfinite(run.state, x[j], labels[j], noise[j], idx[j])
                    raise NonFiniteLossError(f"non-finite loss at step {step} (train sample {sample})",
                                             step=step, sample_index=sample)

            each(diagnose)
            return runs
        grad = tape.backward()
        if alternating:
            for spec in sur_slices:
                grad[:, spec.offset : spec.offset + spec.size] = 0.0
        opt.update(store.values, grad)
        if not moment_steps() or ((step % log_every == 0 or step == steps) and not log_rows(step)):
            return runs
    return runs


def sweep(
    config: dict, indices: Sequence[int], beta_primes: Sequence[float]
) -> list[tuple[TradeoffPoint | Exception, TrainResult]]:
    """Train the grid points ``indices`` at ``beta_primes`` in one :func:`train` call; (point, run) in grid order.

    Each point derives its own run seed from (config seed, grid index), so a
    grid entry is reproducible in isolation.  The config's dataset is built
    once for all of them, and the points come from one :func:`tradeoff_points`
    call; a point that failed has its error in place of the point.
    """
    cfg = data_io.validate_config(config)
    configs = [
        {**cfg, "loss": {**_without_beta(cfg["loss"]), "beta_prime": float(beta_prime)},
         "seed": derive_seed(cfg["seed"], index)}
        for index, beta_prime in zip(indices, beta_primes)
    ]
    train_ds, test_ds = data_io.dataset_from_config(cfg["dataset"])
    runs = train(configs, train_ds, test_ds)
    return list(zip(tradeoff_points(runs, test_ds), runs))
