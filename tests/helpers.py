"""Shared randomized-instance builders and small numerical oracles."""

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType, SimpleNamespace

import numpy as np

from cib.diffcore import (
    NonFiniteError,
    ShapeError,
    Tape,
    _activate,
    _naive_bayes_grads,
    _naive_bayes_scores,
    _softmax_nll,
    _softmax_nll_grad,
)
from cib.discrete_oracle import (
    MAX_JOINT_OUTCOMES,
    DecompositionReport,
    DiscreteEncoder,
    DiscreteJoint,
    EquivalenceScan,
    OptimalityReport,
    ProductSurrogate,
    induced,
    info_report,
    kl_discrete,
    objective_values,
    optimal_product_surrogate,
)
from cib.data_io import ConfigError
from cib.estimators import MODE_AS_PRINTED, BoundReport, aggregate_conditional


def numpy_logsumexp_rows(a):
    """Row-wise log-sum-exp by numpy's own reductions: the reference for ``diffcore.logsumexp_rows``."""
    mx = np.maximum.reduce(a, axis=-1)
    shifted = np.subtract(a, mx[..., None])
    return mx + np.log(np.exp(shifted, out=shifted).sum(axis=-1))


def random_joint(rng, nx, ny, floor=0.05):
    """Random joint table with strictly positive entries."""
    p = rng.uniform(floor, 1.0, size=(nx, ny))
    return DiscreteJoint(p / p.sum())


def random_encoder(rng, nx, arities, floor=0.05):
    """Random stochastic encoder with strictly positive rows."""
    nt = int(np.prod(arities))
    q = rng.uniform(floor, 1.0, size=(nx, nt))
    return DiscreteEncoder(q / q.sum(axis=1, keepdims=True), tuple(arities))


def random_arities(rng, max_outcomes=16):
    """One to three coordinates with alphabet sizes 2..4, product capped."""
    while True:
        n_coords = int(rng.integers(1, 4))
        arities = tuple(int(rng.integers(2, 5)) for _ in range(n_coords))
        if int(np.prod(arities)) <= max_outcomes:
            return arities


def random_product_surrogate(rng, ny, arities, floor=0.05):
    factors = []
    for _ in range(ny):
        class_factors = []
        for a in arities:
            f = rng.uniform(floor, 1.0, size=a)
            class_factors.append(f / f.sum())
        factors.append(tuple(class_factors))
    return ProductSurrogate(tuple(factors))


def sparse_rows(rng, shape, zero_frac, floor=0.05):
    """Random stochastic rows (last axis) with about ``zero_frac`` of entries set to 0.

    Every row keeps at least one positive entry.
    """
    t = rng.uniform(floor, 1.0, size=shape)
    t[rng.random(shape) < zero_frac] = 0.0
    rows = t.reshape(-1, shape[-1])
    for i in np.flatnonzero(rows.sum(axis=1) == 0.0):
        rows[i, rng.integers(0, shape[-1])] = 1.0
    return t / t.sum(axis=-1, keepdims=True)


def sparse_joint(rng, nx, ny, zero_frac):
    """Joint table with zero cells in which every class keeps positive mass."""
    p = np.ascontiguousarray(sparse_rows(rng, (ny, nx), zero_frac).T)
    return DiscreteJoint(p / p.sum())


def sparse_encoder(rng, nx, arities, zero_frac):
    return DiscreteEncoder(sparse_rows(rng, (nx, int(np.prod(arities))), zero_frac), tuple(arities))


def sparse_product_surrogate(rng, ny, arities, zero_frac):
    return ProductSurrogate(tuple(
        tuple(sparse_rows(rng, (a,), zero_frac) for a in arities) for _ in range(ny)
    ))


def random_samples(rng, nx, ny, n):
    """(x, y) index pairs guaranteed to hit every class at least once."""
    xs = rng.integers(0, nx, size=n)
    ys = np.concatenate([np.arange(ny), rng.integers(0, ny, size=n - ny)])
    return np.stack([xs, ys], axis=1)


def central_difference(f, theta, eps):
    """Independent coordinate-wise central-difference gradient of f at theta."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        up = theta.copy()
        up[k] += eps
        down = theta.copy()
        down[k] -= eps
        grad[k] = (f(up) - f(down)) / (2.0 * eps)
    return grad


def gaussian_quadrature_kl(m1, v1, m2, v2, lo=-12.0, hi=12.0, n=240001):
    """Trapezoid-rule KL between two 1-D Gaussians given means and variances."""
    t = np.linspace(lo, hi, n)
    p = np.exp(-0.5 * (t - m1) ** 2 / v1) / np.sqrt(2.0 * np.pi * v1)
    q = np.exp(-0.5 * (t - m2) ** 2 / v2) / np.sqrt(2.0 * np.pi * v2)
    integrand = np.where(p > 0.0, p * (np.log(np.maximum(p, 1e-300)) - np.log(np.maximum(q, 1e-300))), 0.0)
    return float(np.trapezoid(integrand, t))


# --------------------------------------------------------------------- reference graph engine
#
# A general reverse-mode tape over the primitive ops of the training-loss
# chains and the per-draw ops (one score and one NLL node per Monte-Carlo
# draw).  The library records no graph: its Tape (mlp, log_var,
# mc_cross_entropy, kl_to_surrogate_rows, total) must reproduce the chains
# below bit for bit, values and gradients.
#
# One backward rule per op kind.  A rule receives the tape's value list, the
# node's inputs, aux and id, and the node's adjoint ``g``; it hands the
# adjoint of each input to ``push``.  Rules never write into ``g`` or into an
# array they have pushed, so a pushed array may be shared between nodes.


def _mean(x):
    """``np.mean(x)`` of a nonempty float64 array, over all of it: the same sum and division."""
    return x.sum() / x.size


def _bw_pass(v, ins, aux, nid, g, push):
    for i in ins:
        push(i, g)


def _bw_scale(v, ins, aux, nid, g, push):
    push(ins[0], g * aux)


def _bw_exp(v, ins, aux, nid, g, push):
    push(ins[0], g * v[nid])


def _bw_log(v, ins, aux, nid, g, push):
    push(ins[0], g / v[ins[0]])


def _bw_mean_all(v, ins, aux, nid, g, push):
    xv = v[ins[0]]
    push(ins[0], np.full(xv.shape, g / xv.size))


def _bw_affine(v, ins, aux, nid, g, push):
    xv, wv = v[ins[0]], v[ins[1]]
    if xv.ndim == 2:
        push(ins[0], g @ wv)
        push(ins[1], g.T @ xv)
        push(ins[2], g.sum(axis=0))
    else:
        push(ins[0], wv.T @ g)
        push(ins[1], np.outer(g, xv))
        push(ins[2], g)


def where_act_grad(kind, g, pre, out, e):
    """The activation adjoint with the softplus sigmoid taken by ``np.where``.

    The two-branch sigmoid 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x)
    below, from e = e^(-|x|); ``diffcore._act_grad`` must equal it bit for bit.
    """
    if kind == "relu":
        return g * (pre > 0.0)
    if kind == "softplus":
        return g * (np.where(pre >= 0, 1.0, e) / (1.0 + e))
    return g * (1.0 - out**2)


def _bw_act(v, ins, aux, nid, g, push):
    kind, e = aux
    push(ins[0], where_act_grad(kind, g, v[ins[0]], v[nid], e))


def _bw_sub(v, ins, aux, nid, g, push):
    push(ins[0], g)
    push(ins[1], -g)


def _bw_mul(v, ins, aux, nid, g, push):
    push(ins[0], g * v[ins[1]])
    push(ins[1], g * v[ins[0]])


def _bw_sum_all(v, ins, aux, nid, g, push):
    push(ins[0], np.full_like(v[ins[0]], g))


def _bw_bcast(v, ins, aux, nid, g, push):
    push(ins[0], np.asarray(np.sum(g)))


def _bw_mul_scalar(v, ins, aux, nid, g, push):
    push(ins[0], g * v[ins[1]])
    push(ins[1], np.asarray(np.sum(g * v[ins[0]])))


def _bw_take(v, ins, aux, nid, g, push):
    gv = np.zeros_like(v[ins[0]])
    np.add.at(gv, aux, g)
    push(ins[0], gv)


def _bw_row_sum(v, ins, aux, nid, g, push):
    push(ins[0], np.broadcast_to(g[:, None], v[ins[0]].shape))


def _bw_pairwise_sqdist(v, ins, aux, nid, g, push):
    tv, mv = v[ins[0]], v[ins[1]]
    w = 2.0 * g[:, :, None] * (tv[:, None, :] - mv[None, :, :])
    push(ins[0], w.sum(axis=1))
    push(ins[1], -w.sum(axis=0))


def _bw_mul_rows(v, ins, aux, nid, g, push):
    push(ins[0], g * v[ins[1]][None, :])
    push(ins[1], (g * v[ins[0]]).sum(axis=0))


def _bw_add_rows(v, ins, aux, nid, g, push):
    push(ins[0], g)
    push(ins[1], g.sum(axis=0))


def _bw_logsumexp_rows(v, ins, aux, nid, g, push):
    push(ins[0], np.exp(v[ins[0]] - v[nid][:, None]) * g[:, None])


def _bw_pick(v, ins, aux, nid, g, push):
    gs = np.zeros_like(v[ins[0]])
    gs[np.arange(gs.shape[0]), aux] = g
    push(ins[0], gs)


def _bw_naive_bayes_scores(v, ins, aux, nid, g, push):
    for node, adjoint in zip(ins, _naive_bayes_grads(aux, g, True)):
        push(node, adjoint)


def _bw_softmax_nll(v, ins, aux, nid, g, push):
    at, lse = aux
    push(ins[0], _softmax_nll_grad(v[ins[0]], at, lse, g))


class ChainTape:
    """Topologically ordered record of the reference chains' ops with cached values.

    Node handles are plain ints; inputs always reference strictly earlier
    nodes.  Construction runs the forward computation eagerly, so reading
    :meth:`val` is free.  A node is *live* when it depends on a parameter
    leaf; :meth:`backward` visits live nodes only.  Parameter leaves are
    copies of the store, not views, so a reference graph shares no memory
    with the store it is compared on.
    """

    _rules = MappingProxyType({
        "add": _bw_pass,
        "scale": _bw_scale,
        "add_const": _bw_pass,
        "exp": _bw_exp,
        "log": _bw_log,
        "mean_all": _bw_mean_all,
        "affine": _bw_affine,
        "act": _bw_act,
        "sub": _bw_sub,
        "mul": _bw_mul,
        "add_n": _bw_pass,
        "sum_all": _bw_sum_all,
        "bcast": _bw_bcast,
        "mul_scalar": _bw_mul_scalar,
        "take": _bw_take,
        "take_rows": _bw_take,
        "row_sum": _bw_row_sum,
        "pairwise_sqdist": _bw_pairwise_sqdist,
        "mul_rows": _bw_mul_rows,
        "add_rows": _bw_add_rows,
        "logsumexp_rows": _bw_logsumexp_rows,
        "pick": _bw_pick,
        "naive_bayes_scores": _bw_naive_bayes_scores,
        "softmax_nll": _bw_softmax_nll,
    })

    def __init__(self, store=None):
        self.store = store
        self._kind, self._inputs, self._value, self._aux, self._live = [], [], [], [], []

    def __len__(self):
        return len(self._kind)

    def val(self, node):
        return self._value[node]

    def _push(self, kind, inputs, value, aux=None):
        live = self._live
        self._kind.append(kind)
        self._inputs.append(inputs)
        self._value.append(np.asarray(value, dtype=np.float64))
        self._aux.append(aux)
        live.append(kind == "param" or any(live[i] for i in inputs))
        return len(self._kind) - 1

    def const(self, value):
        return self._push("const", (), np.asarray(value, dtype=np.float64))

    def param(self, name):
        if self.store is None:
            raise ValueError("tape has no bound ParamStore")
        return self._push("param", (), self.store.get(name).copy(), aux=self.store.spec(name))

    def add(self, a, b):
        av, bv = self._value[a], self._value[b]
        if av.shape != bv.shape:
            raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
        return self._push("add", (a, b), av + bv)

    def scale(self, x, c):
        return self._push("scale", (x,), self._value[x] * float(c), aux=float(c))

    def add_const(self, x, c):
        return self._push("add_const", (x,), self._value[x] + float(c), aux=float(c))

    def exp(self, x):
        with np.errstate(over="ignore"):
            return self._push("exp", (x,), np.exp(self._value[x]))

    def log(self, x):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._push("log", (x,), np.log(self._value[x]))

    def mean_all(self, x):
        return self._push("mean_all", (x,), _mean(self._value[x]))

    def affine(self, x, w, b, label="affine"):
        """``x @ W.T + b`` for a batch ``x`` of shape (B, d_in), or ``W x + b``
        for a single vector of shape (d_in,)."""
        xv, wv, bv = self._value[x], self._value[w], self._value[b]
        if wv.ndim != 2 or bv.shape != (wv.shape[0],) or xv.ndim not in (1, 2) or xv.shape[-1] != wv.shape[1]:
            raise ShapeError(f"affine {label!r}: x{xv.shape} W{wv.shape} b{bv.shape} do not agree")
        out = xv @ wv.T + bv if xv.ndim == 2 else wv @ xv + bv
        return self._push("affine", (x, w, b), out, aux=label)

    def activation(self, x, kind):
        out, e = _activate(self._value[x], kind)
        return self._push("act", (x,), out, aux=(kind, e))

    def _binary(self, kind, a, b):
        av, bv = self._value[a], self._value[b]
        if av.shape != bv.shape:
            raise ShapeError(f"{kind}: shapes {av.shape} and {bv.shape} differ")
        op = {"sub": np.subtract, "mul": np.multiply}[kind]
        return self._push(kind, (a, b), op(av, bv))

    def sub(self, a, b):
        return self._binary("sub", a, b)

    def mul(self, a, b):
        return self._binary("mul", a, b)

    def add_n(self, nodes):
        if not nodes:
            raise ValueError("add_n needs at least one node")
        shape = self._value[nodes[0]].shape
        for n in nodes[1:]:
            if self._value[n].shape != shape:
                raise ShapeError("add_n: all operands must share one shape")
        out = self._value[nodes[0]].copy()
        for n in nodes[1:]:
            out += self._value[n]
        return self._push("add_n", tuple(nodes), out)

    def neg(self, x):
        return self.scale(x, -1.0)

    def sum_all(self, x):
        return self._push("sum_all", (x,), np.sum(self._value[x]))

    def bcast(self, s, shape):
        sv = self._value[s]
        if sv.shape != ():
            raise ShapeError("bcast: input must be a scalar node")
        return self._push("bcast", (s,), np.full(shape, sv), aux=tuple(shape))

    def mul_scalar(self, x, s):
        sv = self._value[s]
        if sv.shape != ():
            raise ShapeError("mul_scalar: second input must be a scalar node")
        return self._push("mul_scalar", (x, s), self._value[x] * sv)

    def take(self, v, idx):
        vv = self._value[v]
        if vv.ndim != 1:
            raise ShapeError("take: input must be a vector")
        idx = np.asarray(idx, dtype=np.intp)
        return self._push("take", (v,), vv[idx], aux=idx)

    def take_rows(self, m, idx):
        mv = self._value[m]
        if mv.ndim != 2:
            raise ShapeError("take_rows: input must be a matrix")
        idx = np.asarray(idx, dtype=np.intp)
        return self._push("take_rows", (m,), mv[idx], aux=idx)

    def row_sum(self, x):
        xv = self._value[x]
        if xv.ndim != 2:
            raise ShapeError("row_sum: input must be a matrix")
        return self._push("row_sum", (x,), xv.sum(axis=1))

    def pairwise_sqdist(self, t, m):
        """Squared Euclidean distances between rows of t (B,d) and rows of m (K,d)."""
        tv, mv = self._value[t], self._value[m]
        if tv.ndim != 2 or mv.ndim != 2 or tv.shape[1] != mv.shape[1]:
            raise ShapeError(f"pairwise_sqdist: shapes {tv.shape} and {mv.shape} do not agree")
        diff = tv[:, None, :] - mv[None, :, :]
        return self._push("pairwise_sqdist", (t, m), np.einsum("bkd,bkd->bk", diff, diff))

    def mul_rows(self, x, w):
        """Multiply each column k of x (B,K) by w[k]."""
        xv, wv = self._value[x], self._value[w]
        if xv.ndim != 2 or wv.shape != (xv.shape[1],):
            raise ShapeError(f"mul_rows: shapes {xv.shape} and {wv.shape} do not agree")
        return self._push("mul_rows", (x, w), xv * wv[None, :])

    def add_rows(self, x, c):
        """Add c (K,) to every row of x (B,K)."""
        xv, cv = self._value[x], self._value[c]
        if xv.ndim != 2 or cv.shape != (xv.shape[1],):
            raise ShapeError(f"add_rows: shapes {xv.shape} and {cv.shape} do not agree")
        return self._push("add_rows", (x, c), xv + cv[None, :])

    def logsumexp_rows(self, s):
        sv = self._value[s]
        if sv.ndim != 2:
            raise ShapeError("logsumexp_rows: input must be a matrix")
        return self._push("logsumexp_rows", (s,), numpy_logsumexp_rows(sv))

    def pick(self, s, labels):
        sv = self._value[s]
        labels = np.asarray(labels, dtype=np.intp)
        if sv.ndim != 2 or labels.shape != (sv.shape[0],):
            raise ShapeError("pick: need (B,K) scores and (B,) labels")
        return self._push("pick", (s,), sv[np.arange(sv.shape[0]), labels], aux=labels)

    def naive_bayes_scores(self, t, mu, log_sigma, log_priors):
        """Class scores log p(y) + log N(t_b; mu_y, sigma_y^2 I) of one draw, a (B, K) node."""
        tv, muv, lsv = self._value[t], self._value[mu], self._value[log_sigma]
        log_priors = np.asarray(log_priors, dtype=np.float64)
        if (tv.ndim != 2 or muv.ndim != 2 or tv.shape[1] != muv.shape[1]
                or lsv.shape != (muv.shape[0],) or log_priors.shape != lsv.shape):
            raise ShapeError(
                f"naive_bayes_scores: t{tv.shape} mu{muv.shape} log_sigma{lsv.shape} "
                f"log_priors{log_priors.shape} do not agree"
            )
        scores, cache = _naive_bayes_scores(tv, muv, lsv, log_priors)
        return self._push("naive_bayes_scores", (t, mu, log_sigma), scores, aux=cache)

    def softmax_nll(self, scores, labels):
        """Per-row negative log-softmax of the labelled class of one draw, a (B,) node."""
        sv = self._value[scores]
        labels = np.asarray(labels, dtype=np.intp)
        if sv.ndim != 2 or labels.shape != (sv.shape[0],):
            raise ShapeError("softmax_nll: need (B,K) scores and (B,) labels")
        at = (np.arange(sv.shape[0]), labels)
        nll, lse = _softmax_nll(sv, at)
        return self._push("softmax_nll", (scores,), nll, aux=(at, lse))

    def backward(self, output, seed=1.0):
        """d(output)/d(theta) for every parameter of the bound store; the output must be scalar.

        Nodes are walked once in reverse.  A node's first incoming adjoint is
        kept as is and later ones are added out of place; each parameter
        leaf adds its adjoint onto the zeroed gradient.
        """
        if self._value[output].shape != ():
            raise ShapeError(f"backward needs a scalar output node, got shape {self._value[output].shape}")
        grad = np.zeros(self.store.size if self.store is not None else 0)
        adj = [None] * (output + 1)
        adj[output] = np.asarray(float(seed))

        def push(nid, g):
            a = adj[nid]
            adj[nid] = g if a is None else a + g

        for nid in range(output, -1, -1):
            g = adj[nid]
            if g is None or not self._live[nid]:
                continue
            if self._kind[nid] == "param":
                spec = self._aux[nid]
                grad[spec.offset : spec.offset + spec.size] += np.asarray(g).ravel()
            else:
                self._rules[self._kind[nid]](self._value, self._inputs[nid], self._aux[nid], nid, g, push)
        return grad


# --------------------------------------------------------------------- reference chains


def chain_kl_to_surrogate_rows(tape, means, log_var, mu, log_sigma, labels):
    b, d = tape.val(means).shape
    labels = np.asarray(labels, dtype=np.intp)
    log_var_y = tape.scale(tape.take(log_sigma, labels), 2.0)
    diff = tape.sub(means, tape.take_rows(mu, labels))
    sq_dist = tape.row_sum(tape.mul(diff, diff))
    lv_b = tape.bcast(log_var, (b,))
    var_ratio = tape.scale(tape.exp(tape.sub(lv_b, log_var_y)), float(d))
    mahal = tape.mul(sq_dist, tape.exp(tape.neg(log_var_y)))
    terms = [
        var_ratio,
        mahal,
        tape.scale(log_var_y, float(d)),
        tape.scale(lv_b, -float(d)),
        tape.const(np.full(b, -float(d))),
    ]
    return tape.scale(tape.add_n(terms), 0.5)


def chain_naive_bayes_scores(tape, t, mu, log_var, log_priors):
    """Scores from a (K,) class log-variance node (2 log sigma_y, or a zero constant)."""
    d = tape.val(t).shape[1]
    quad = tape.mul_rows(
        tape.pairwise_sqdist(t, mu),
        tape.scale(tape.exp(tape.neg(log_var)), 0.5),
    )
    offset = tape.add(
        tape.scale(log_var, -0.5 * d),
        tape.const(log_priors - 0.5 * d * math.log(2.0 * math.pi)),
    )
    return tape.add_rows(tape.neg(quad), offset)


def chain_softmax_nll(tape, scores, labels):
    return tape.sub(tape.logsumexp_rows(scores), tape.pick(scores, labels))


@dataclass(frozen=True)
class LossSpec:
    """One training loss over named store slices and one row's fixed inputs, which :func:`fused_loss` gives every row.

    ``weights`` names the net's slices W_0, b_0, W_1, b_1, ...; ``log_eta2``
    the learned noise slice (None: the log-variance is log sigma2);
    ``score_rule`` is ``(head, p, q, log_priors)`` of
    ``Tape.mc_cross_entropy``; ``mu`` and ``log_sigma`` name the surrogate
    (``log_sigma`` None: every sigma_y is 1).
    """

    x: np.ndarray
    labels: np.ndarray
    noise: np.ndarray
    weights: tuple
    activation: str
    sigma2: float
    log_eta2: str | None
    score_rule: tuple
    mu: str
    log_sigma: str | None
    beta_prime: float

    @classmethod
    def of_state(cls, state, x, labels, beta_prime, noise):
        """The loss that ``ModelState.loss_graph`` records for this state and batch."""
        enc = state.encoder
        log_sigma = "sur.log_sigma" if "sur.log_sigma" in state.store.names() else None
        with np.errstate(divide="ignore"):
            log_priors = np.log(state.priors)
        if state.config["decoder"]["variant"] == "softmax":
            score_rule = ("softmax", "head.W", "head.b", None)
        else:
            score_rule = ("naive_bayes", "sur.mu", log_sigma, log_priors)
        return cls(
            x=np.asarray(x, dtype=np.float64), labels=np.asarray(labels, dtype=np.intp), noise=noise,
            weights=tuple(name for pair in enc.weight_names() for name in pair), activation=enc.activation,
            sigma2=enc.sigma2, log_eta2="enc.log_eta2" if enc.noise_mode == "learned_eta" else None,
            score_rule=score_rule, mu="sur.mu", log_sigma=log_sigma, beta_prime=beta_prime,
        )


LOSS_PARTS = ("means", "log_var", "ce", "kl_rows", "total", "kl")


def shared_by_rows(store, *inputs):
    """Each of ``inputs`` given to every row of the stacked ``store``: (P, *shape) broadcast views, no copies."""
    p = store.values.shape[0]
    return [np.broadcast_to(a, (p,) + np.shape(a)) for a in inputs]


def fused_loss(store, spec):
    """The loss of ``spec`` on a stacked store through the library's Tape; returns (tape, values by LOSS_PARTS).

    Every row takes the spec's batch, labels, noise and beta' (:func:`shared_by_rows`).
    """
    tape = Tape(store)
    x, labels, noise, beta_prime = shared_by_rows(store, spec.x, spec.labels, spec.noise, spec.beta_prime)
    means = tape.mlp(x, spec.weights, spec.activation)
    log_var = tape.log_var(spec.sigma2, spec.log_eta2)
    ce = tape.mc_cross_entropy(means, log_var, noise, labels, *spec.score_rule)
    kl_rows = tape.kl_to_surrogate_rows(means, log_var, spec.mu, spec.log_sigma, labels)
    total, ce, kl = tape.total(ce, kl_rows, beta_prime)
    return tape, dict(zip(LOSS_PARTS, (means, log_var, ce, kl_rows, total, kl)))


def stack_of_one(store):
    """The (size,) vector of ``store`` as the (1, size) stack a Tape takes, a view of the same values."""
    return store.with_values(store.values[None])


def fused_loss_alone(store, spec):
    """:func:`fused_loss` of the (size,) vector of ``store`` as a stack of one; returns (tape, its row's values)."""
    tape, values = fused_loss(stack_of_one(store), spec)
    return tape, {part: value[0] for part, value in values.items()}


def chain_loss(tape, spec, per_draw_ops=False):
    """The loss of ``spec`` on a :class:`ChainTape`; returns its nodes by LOSS_PARTS.

    By default every op is a primitive: one affine and one activation node
    per layer, and the cross-entropy and KL as their primitive chains.  With
    ``per_draw_ops`` each draw scores with one ``naive_bayes_scores`` node
    (or an affine readout) and takes one ``softmax_nll`` node.  Either way
    each draw records its own reparameterization and its own score leaves.
    """
    head, p, q, log_priors = spec.score_rule
    means = tape.const(spec.x)
    layers = len(spec.weights) // 2
    for l in range(layers):
        means = tape.affine(means, tape.param(spec.weights[2 * l]), tape.param(spec.weights[2 * l + 1]),
                            label=spec.weights[2 * l])
        if l < layers - 1:
            means = tape.activation(means, spec.activation)
    if spec.log_eta2 is None:
        log_var = tape.const(math.log(spec.sigma2))
    else:
        log_var = tape.log(tape.add_const(tape.exp(tape.param(spec.log_eta2)), spec.sigma2))
    mu = tape.param(spec.mu)
    k = tape.val(mu).shape[0]
    log_sigma = tape.const(np.zeros(k)) if spec.log_sigma is None else tape.param(spec.log_sigma)

    def scores_graph(t):
        if head == "softmax":
            return tape.affine(t, tape.param(p), tape.param(q), label="head")
        head_mu = tape.param(p)
        if per_draw_ops:
            head_ls = tape.const(np.zeros(k)) if q is None else tape.param(q)
            return tape.naive_bayes_scores(t, head_mu, head_ls, log_priors)
        class_log_var = tape.const(np.zeros(k)) if q is None else tape.scale(tape.param(q), 2.0)
        return chain_naive_bayes_scores(tape, t, head_mu, class_log_var, log_priors)

    nll = tape.softmax_nll if per_draw_ops else (lambda s, y: chain_softmax_nll(tape, s, y))
    std = tape.exp(tape.scale(log_var, 0.5))
    nll_draws = []
    for s in range(spec.noise.shape[0]):
        t = tape.add(means, tape.mul_scalar(tape.const(spec.noise[s]), std))
        nll_draws.append(nll(scores_graph(t), spec.labels))
    ce = tape.mean_all(tape.scale(tape.add_n(nll_draws), 1.0 / spec.noise.shape[0]))
    kl_rows = chain_kl_to_surrogate_rows(tape, means, log_var, mu, log_sigma, spec.labels)
    kl = tape.mean_all(kl_rows)
    total = tape.add(ce, tape.scale(kl, float(spec.beta_prime)))
    return dict(zip(LOSS_PARTS, (means, log_var, ce, kl_rows, total, kl)))


def chain_loss_graph(state, tape, x, labels, beta_prime, noise, per_draw_ops=False):
    """``ModelState.loss_graph`` on a :class:`ChainTape`; returns the (total, ce, kl) nodes."""
    nodes = chain_loss(tape, LossSpec.of_state(state, x, labels, beta_prime, noise), per_draw_ops)
    return nodes["total"], nodes["ce"], nodes["kl"]


# --------------------------------------------------------------------- gradient-check reference
#
# grad_check with one forward of a stack of one per probe, moving one
# coordinate of the store in place.  The stacked probes of
# cib.diffcore.grad_check must give its numeric and analytic gradients bit
# for bit.


def loop_grad_check(lossfn, params, eps):
    """(analytic, numeric) gradients of ``lossfn`` at ``params``, one ``lossfn`` call per probe."""
    stack = stack_of_one(params)  # a view: moving a coordinate of params moves it here
    loss, tape = lossfn(stack)
    if not np.isfinite(float(loss[0])):
        raise NonFiniteError(f"loss is non-finite at the evaluation point: {float(loss[0])}")
    analytic = tape.backward()[0]
    base = params.values.copy()
    numeric = np.zeros_like(analytic)
    try:
        for k in range(params.size):
            params.values[k] = base[k] + eps
            f1 = float(lossfn(stack)[0][0])
            params.values[k] = base[k] - eps
            f2 = float(lossfn(stack)[0][0])
            params.values[k] = base[k]
            if not (np.isfinite(f1) and np.isfinite(f2)):
                raise NonFiniteError(f"loss non-finite while probing coordinate {k}")
            numeric[k] = (f1 - f2) / (2.0 * eps)
    finally:
        params.values[:] = base
    return analytic, numeric


def per_row(lossfn):
    """A ``grad_check`` loss function over a loss that cannot stack.

    ``lossfn`` maps the store of one parameter vector to ``(value, gradient
    function)``; a stacked store is evaluated row by row, and its backward
    stacks the rows' gradients.
    """

    def rows(store):
        evaluated = [lossfn(store.with_values(row)) for row in store.values]
        values = np.array([float(value) for value, _ in evaluated])
        return values, SimpleNamespace(backward=lambda: np.stack([gradient() for _, gradient in evaluated]), width=1)

    return rows


# --------------------------------------------------------------------- mixture-bound reference
#
# The mixture bound with the pairwise distances of each row block reduced by
# einsum over a (block, N, d) difference tensor, and the report built from it
# one class at a time, each class's bound over its own codes alone.  The one
# tiled pass behind cib.estimators must reproduce them bit for bit.


def einsum_distance_tile(codes, start, stop):
    diff = codes[start:stop, None, :] - codes[None, :, :]
    return np.einsum("bnd,bnd->bn", diff, diff)


def einsum_bound_on_codes(codes, dim, sigma2, eta2, mode):
    """The mixture bound over ``codes`` alone."""
    n = codes.shape[0]
    width = eta2 + sigma2
    inner_logs = np.empty(n)
    block_rows = max(1, min(1024, int(4e6 / max(1, n * codes.shape[1]))))
    for start in range(0, n, block_rows):
        stop = min(start + block_rows, n)
        d2 = einsum_distance_tile(codes, start, stop)
        if mode == MODE_AS_PRINTED:
            kernel = -0.5 * np.sqrt(d2) / width
            inner_logs[start:stop] = numpy_logsumexp_rows(kernel)
        else:
            kernel = -0.5 * d2 / width
            inner_logs[start:stop] = numpy_logsumexp_rows(kernel) - np.log(n)
    return float(-np.mean(inner_logs) - dim * np.log(sigma2 / width))


def einsum_mixture_bound(data, mode):
    """``estimators.mixture_bound`` over the einsum reference."""
    return einsum_bound_on_codes(data.codes, data.dim, data.sigma2, data.eta2, mode)


def einsum_conditional_bound(data, y, mode, printed_outer_normalization=False):
    """Class ``y``'s bound in ``estimators.bound_report`` over the einsum reference: one pass over its codes."""
    codes = data.codes[data.labels == y]
    value = einsum_bound_on_codes(codes, data.dim, data.sigma2, data.eta2, mode)
    if printed_outer_normalization:
        width = data.eta2 + data.sigma2
        const = -data.dim * np.log(data.sigma2 / width)
        value = (value - const) * (codes.shape[0] / data.count) + const
    return value


def einsum_bound_report(data, mode, printed_outer_normalization=False, printed_count_weights=False):
    """``estimators.bound_report`` as one einsum pass over all codes plus one per class."""
    per_class = {
        int(y): (int(np.sum(data.labels == y)), einsum_conditional_bound(data, y, mode, printed_outer_normalization))
        for y in np.unique(data.labels)
    }
    return BoundReport(
        mode=mode,
        unconditional=einsum_mixture_bound(data, mode),
        aggregate=aggregate_conditional(per_class, data.count, printed_count_weights),
        per_class=per_class,
    )


# the two public bounds over the einsum reference
einsum_bounds = SimpleNamespace(mixture_bound=einsum_mixture_bound, bound_report=einsum_bound_report)


# --------------------------------------------------------------------- discrete-oracle references
#
# The per-encoder and per-sample loops of the oracle.  The stacked family
# pass and the row-wise sample KLs of cib.discrete_oracle must reproduce them
# bit for bit.


def loop_equivalence_scan(joint, encoders, beta, tie_tol=1e-10):
    """``equivalence_scan`` as one ``info_report`` per encoder."""
    if not encoders:
        raise ValueError("encoder family must be non-empty")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    beta_prime = beta / (1.0 - beta)
    l_ib = np.empty(len(encoders))
    l_cib = np.empty(len(encoders))
    for k, enc in enumerate(encoders):
        vals = objective_values(info_report(joint, enc), beta, beta_prime)
        l_ib[k] = vals.l_ib
        l_cib[k] = vals.l_cib
    argmin_ib = tuple(int(k) for k in np.flatnonzero(l_ib <= l_ib.min() + tie_tol))
    argmin_cib = tuple(int(k) for k in np.flatnonzero(l_cib <= l_cib.min() + tie_tol))
    return EquivalenceScan(beta, beta_prime, argmin_ib, argmin_cib, l_ib, l_cib)


def outer_expand(surrogate, y):
    """Class y's joint table of a ``ProductSurrogate`` as the outer product of its factors, raveled in C order."""
    return functools.reduce(np.multiply.outer, surrogate.factors[y]).ravel()


def loop_sample_kl_objective(samples, enc, surrogate):
    """``sample_kl_objective`` as one ``kl_discrete`` per sample."""
    samples = np.asarray(samples, dtype=np.intp)
    expanded = [outer_expand(surrogate, y) for y in range(surrogate.class_count)]
    return float(np.mean([kl_discrete(enc.q[x], expanded[y]) for x, y in samples]))


def loop_surrogate_optimality_check(samples, enc):
    """``surrogate_optimality_check`` with per-sample and per-class KL lists."""
    samples = np.asarray(samples, dtype=np.intp)
    class_count = int(samples[:, 1].max()) + 1
    counts = np.zeros(class_count, dtype=np.int64)
    t_given_y = np.zeros((class_count, enc.nt))
    for x, y in samples:
        counts[y] += 1
        t_given_y[y] += enc.q[x]
    t_given_y = t_given_y / counts[:, None]
    best = optimal_product_surrogate(t_given_y, enc.arities)
    lhs_min = loop_sample_kl_objective(samples, enc, best)
    tc = np.array([kl_discrete(t_given_y[y], outer_expand(best, y)) for y in range(class_count)])
    rhs = float(np.mean([kl_discrete(enc.q[x], t_given_y[y]) + tc[y] for x, y in samples]))
    return OptimalityReport(lhs_min=lhs_min, rhs=rhs, surrogate=best)


def loop_product_surrogate_problem(factors):
    """The message ``ProductSurrogate(factors)`` raises, checking factor by factor, or None if it is valid."""
    factors = tuple(tuple(np.asarray(f, dtype=np.float64) for f in class_factors) for class_factors in factors)
    if not factors:
        return "need at least one class"
    arities = tuple(f.size for f in factors[0])
    for y, class_factors in enumerate(factors):
        if tuple(f.size for f in class_factors) != arities:
            return "all classes must share the coordinate arities"
        for j, f in enumerate(class_factors):
            if not np.all(np.isfinite(f)) or np.any(f < 0.0) or abs(float(f.sum()) - 1.0) > 1e-12:
                return f"factor (class {y}, coordinate {j}) is not a distribution"
    if math.prod(arities) > MAX_JOINT_OUTCOMES:
        return f"product alphabet has {math.prod(arities)} outcomes, cap is {MAX_JOINT_OUTCOMES}"
    return None


def loop_perturbed_product_surrogates(surrogate, step=0.01):
    """``perturbed_product_surrogates`` one move at a time, each candidate built and checked whole."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    for y, class_factors in enumerate(surrogate.factors):
        for j, factor in enumerate(class_factors):
            arity = factor.size
            for a in range(arity):
                if factor[a] <= 0.0:
                    continue
                delta = min(step, float(factor[a]))
                for bsym in range(arity):
                    if bsym == a:
                        continue
                    moved = factor.copy()
                    moved[a] -= delta
                    moved[bsym] += delta
                    moved /= moved.sum()
                    new_factors = [list(cf) for cf in surrogate.factors]
                    new_factors[y][j] = moved
                    yield ProductSurrogate(tuple(tuple(cf) for cf in new_factors))


def loop_checked_samples(samples, nx):
    """``_checked_samples`` scanning every entry's type and range: the (N, 2) intp array, or the message it raises."""
    pairs = np.asarray(samples, dtype=object)
    intp = np.iinfo(np.intp)
    whole = all(isinstance(v, (int, np.integer)) and type(v) is not bool and intp.min <= v <= intp.max
                for v in pairs.flat)
    if not whole or pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        return "samples must be a nonempty sequence of (x, y) integer index pairs"
    samples = pairs.astype(np.intp)
    xs, ys = samples.T
    if np.any((xs < 0) | (xs >= nx)):
        return f"sample feature index outside [0, {nx})"
    if np.any(ys < 0):
        return "sample class label is negative"
    return samples


def loop_decomposition_check(joint, enc, surrogate):
    """``decomposition_check`` with one ``kl_discrete`` per (x, y) cell, x-major."""
    expanded = [outer_expand(surrogate, y) for y in range(joint.ny)]
    lhs = 0.0
    for x in range(joint.nx):
        for y in range(joint.ny):
            if joint.p[x, y] > 0.0:
                lhs += joint.p[x, y] * kl_discrete(enc.q[x], expanded[y])
    ind = induced(joint, enc)
    p_y = joint.p.sum(axis=0)
    residual = 0.0
    for y in range(joint.ny):
        if p_y[y] > 0.0:
            residual += p_y[y] * kl_discrete(ind.t_given_y[y], expanded[y])
    rep = info_report(joint, enc)
    return DecompositionReport(lhs=lhs, i_xt_given_y=rep.I_XT_given_Y, kl_residual=residual)


# --------------------------------------------------------------------- evaluation reference
#
# The evaluation path of a general diagonal-Gaussian object layer: codes are
# wrapped as DiagGaussians, each sample's class surrogate is expanded to one,
# and the loss rows are reduced through cross_entropy_term.  Evaluation on
# (N, d) codes and the scalar log-variance must reproduce it bit for bit.


@dataclass(frozen=True)
class DiagGaussian:
    """Diagonal Gaussian(s): mean and elementwise log-variance, coordinates last."""

    mean: np.ndarray
    log_var: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=np.float64))
        object.__setattr__(self, "log_var", np.asarray(self.log_var, dtype=np.float64))
        if self.mean.ndim < 1 or self.mean.shape != self.log_var.shape:
            raise ValueError("mean and log_var must be equal-shape arrays")
        if not (np.all(np.isfinite(self.mean)) and np.all(np.isfinite(self.log_var))):
            raise ValueError("DiagGaussian parameters must be finite")


def kl_diag(g1, g2):
    """Closed-form KL(g1 || g2) per batch row."""
    dl = g1.log_var - g2.log_var
    z = (g1.mean - g2.mean) ** 2 * np.exp(-g2.log_var)
    return 0.5 * np.sum(np.exp(dl) + z - 1.0 - dl, axis=-1)


def surrogate_component(s, y):
    """The class-y surrogates expanded to one DiagGaussian per label."""
    y = np.asarray(y, dtype=np.intp)
    if np.any((y < 0) | (y >= s.class_count)):
        raise ValueError("unknown class label")
    log_var = np.repeat((2.0 * s.class_log_sigma[y])[..., None], s.dim, axis=-1)
    return DiagGaussian(s.class_means[y], log_var)


def loss_rows(labels, encodings, decoder, surrogate, noise):
    """(N, S) true-class log-probs and (N,) KLs of a batched DiagGaussian."""
    labels = np.asarray(labels, dtype=np.intp)
    n = encodings.mean.shape[0]
    stds = np.exp(0.5 * encodings.log_var)
    rows = np.arange(n)
    true_lp = np.empty((n, noise.shape[0]))
    for s in range(noise.shape[0]):
        true_lp[:, s] = decoder(encodings.mean + stds * noise[s])[rows, labels]
    return true_lp, kl_diag(encodings, surrogate_component(surrogate, labels))


def cross_entropy_term(true_class_log_probs):
    lp = np.asarray(true_class_log_probs, dtype=np.float64)
    if np.any(np.isnan(lp)) or np.any(lp == np.inf):
        raise ValueError("log-probabilities must be finite or -inf")
    return float(-np.mean(lp))


def reference_loss_terms(state, ds, mc_samples, noise_seed):
    """(accuracy, cross_entropy, kl_term) of ``model.loss_terms`` through DiagGaussian objects."""
    means = state.encoder.encode_batch(ds.features)
    log_var = state.encoder.log_var()
    noise = np.random.default_rng(noise_seed).standard_normal((mc_samples, ds.count, means.shape[1]))
    accuracy = float(np.mean(np.argmax(state.log_probs(means), axis=1) == ds.labels))
    codes = DiagGaussian(means, np.full(means.shape, log_var))
    true_lp, kl = loss_rows(ds.labels, codes, state.log_probs, state.surrogate(), noise)
    return accuracy, cross_entropy_term(true_lp), float(np.mean(kl))


@np.errstate(over="ignore", invalid="ignore")
def reference_diagnose_nonfinite(state, x, labels, noise, batch_idx):
    """``model._diagnose_nonfinite`` with placeholder codes for rows already known bad."""
    means = state.encoder.encode_batch(x)
    bad = ~np.all(np.isfinite(means), axis=1)
    codes = DiagGaussian(np.where(bad[:, None], 0.0, means), np.full(means.shape, state.encoder.log_var()))
    true_lp, kl = loss_rows(labels, codes, state.log_probs, state.surrogate(), noise)
    bad |= ~np.all(np.isfinite(true_lp), axis=1) | ~np.isfinite(kl)
    first = int(np.flatnonzero(bad)[0]) if np.any(bad) else 0
    return int(batch_idx[first])


# --------------------------------------------------------------------- config-validation reference

# The hand-written validate_config that the field table of cib.data_io
# replaced.  It accepts more than the table (a float step count, a bool seed,
# any learn_sigma, ...), but every config the table accepts with its int
# fields given as ints must validate to the same dict under both.

_REFERENCE_DEFAULTS = {
    "encoder": {"activation": "softplus", "noise_mode": "fixed_sigma", "sigma2": 1.0},
    "decoder": {"variant": "naive_bayes"},
    "surrogate": {"learn_sigma": True, "update": "gradient", "priors": "train"},
    "loss": {"mc_samples": 1},
    "optim": {"kind": "adam", "lr": 1e-3, "steps": 1000, "batch": 64, "log_every": 100},
}

_REFERENCE_ALLOWED = {
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


def _reference_reject_unknown(block: dict, allowed: set, where: str) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} keys: {sorted(unknown)}")


def reference_validate_config(config: dict) -> dict:
    """Apply defaults and validate the run configuration; returns a new dict."""
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    _reference_reject_unknown(config, _REFERENCE_ALLOWED["top"], "config")
    for key in ("dataset", "encoder", "loss", "seed"):
        if key not in config:
            raise ConfigError(f"config is missing required key {key!r}")
    cfg = {k: (dict(v) if isinstance(v, dict) else v) for k, v in config.items()}
    for block, defaults in _REFERENCE_DEFAULTS.items():
        merged = dict(defaults)
        merged.update(cfg.get(block, {}))
        cfg[block] = merged
    for block in ("dataset", "encoder", "decoder", "surrogate", "loss", "optim"):
        _reference_reject_unknown(cfg[block], _REFERENCE_ALLOWED[block], block)

    enc = cfg["encoder"]
    dims = enc.get("layer_dims")
    if not isinstance(dims, list) or len(dims) < 2:
        raise ConfigError("encoder.layer_dims must list at least input and bottleneck sizes")
    enc["layer_dims"] = [int(d) for d in dims]
    for i, d in enumerate(enc["layer_dims"]):
        if d < 1:
            raise ConfigError(f"encoder.layer_dims entry {i} is {d}; every width must be positive")
    if enc["noise_mode"] not in ("fixed_sigma", "learned_eta"):
        raise ConfigError(f"unknown encoder.noise_mode: {enc['noise_mode']!r}")
    if not 0.0 < float(enc["sigma2"]) < math.inf:
        raise ConfigError(f"encoder.sigma2 must be positive and finite, got {enc['sigma2']}")
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
    if "beta_prime" in loss and not 0.0 <= float(loss["beta_prime"]) < math.inf:
        raise ConfigError(f"loss.beta_prime must be finite and nonnegative, got {loss['beta_prime']}")

    opt = cfg["optim"]
    if opt["kind"] not in ("adam", "sgd"):
        raise ConfigError(f"unknown optim.kind: {opt['kind']!r}")
    if int(opt["steps"]) < 0 or int(opt["batch"]) < 1:
        raise ConfigError("optim needs steps >= 0, batch >= 1")
    if not 0.0 < float(opt["lr"]) < math.inf:
        raise ConfigError(f"optim.lr must be positive and finite, got {opt['lr']}")
    if int(opt["log_every"]) < 1:
        raise ConfigError("optim.log_every must be at least 1")

    if not isinstance(cfg["seed"], int):
        raise ConfigError("seed must be an integer")
    kind = cfg["dataset"].get("kind")
    if kind not in ("gmm", "json", "idx"):
        raise ConfigError(f"unknown dataset.kind: {kind!r}")
    return cfg
