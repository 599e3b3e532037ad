"""Reverse-mode differentiation for the training loss of the bottleneck models.

Values are float64 numpy arrays: scalars are shape-() arrays, batches are
2-D ``(batch, dim)`` matrices.  A :class:`Tape` records a few scalar
primitives and three fused loss ops (the encoder net, the Monte-Carlo
cross-entropy, the per-row surrogate KL) in topological order together with
cached forward values; :meth:`Tape.backward` walks the records once in
reverse and returns a flat gradient aligned with the bound
:class:`ParamStore`.

This is deliberately not a general autodiff system: no broadcasting rules
beyond the few ops that need them, no higher-order derivatives, and no op
the library does not record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ShapeError",
    "NonFiniteError",
    "SliceSpec",
    "ParamStore",
    "Tape",
    "GradCheckReport",
    "grad_check",
    "logsumexp_rows",
    "activate",
    "ACTIVATIONS",
]

ACTIVATIONS = ("relu", "softplus", "tanh")


def logsumexp_rows(a: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Row-wise log(sum(exp(a))) of a matrix, shifted by each row's maximum.

    With ``overwrite`` the shifted exponentials are formed in ``a`` itself.
    """
    mx = np.maximum.reduce(a, axis=1)  # a.max(axis=1) without its wrapper
    shifted = np.subtract(a, mx[:, None], out=a if overwrite else None)
    return mx + np.log(np.exp(shifted, out=shifted).sum(axis=1))


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NonFiniteError(ArithmeticError):
    """A loss or forward value is NaN or infinite."""


@dataclass(frozen=True)
class SliceSpec:
    """Location of one named parameter block inside the flat vector."""

    offset: int
    size: int
    shape: tuple[int, ...]


class ParamStore:
    """Flat float64 parameter vector with an immutable named-slice layout.

    Slices are laid out in insertion order, are disjoint, and cover the
    vector exactly.  The layout never changes after construction; only the
    values may be mutated (e.g. by an optimizer).
    """

    def __init__(self, arrays: Mapping[str, np.ndarray] | Sequence[tuple[str, np.ndarray]]):
        items = list(arrays.items()) if isinstance(arrays, Mapping) else list(arrays)
        if not items:
            raise ValueError("ParamStore needs at least one named slice")
        layout: dict[str, SliceSpec] = {}
        chunks = []
        offset = 0
        for name, arr in items:
            if name in layout:
                raise ValueError(f"duplicate slice name: {name!r}")
            a = np.asarray(arr, dtype=np.float64)
            layout[name] = SliceSpec(offset, a.size, a.shape)
            chunks.append(a.ravel())
            offset += a.size
        self.values: np.ndarray = np.concatenate(chunks)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("parameter values must be finite")
        self._layout = MappingProxyType(layout)

    @property
    def layout(self) -> Mapping[str, SliceSpec]:
        return self._layout

    @property
    def size(self) -> int:
        return self.values.size

    def names(self) -> tuple[str, ...]:
        return tuple(self._layout)

    def spec(self, name: str) -> SliceSpec:
        try:
            return self._layout[name]
        except KeyError:
            raise KeyError(f"unknown parameter slice: {name!r}") from None

    def get(self, name: str) -> np.ndarray:
        """Return the named block as a reshaped view of the flat vector."""
        s = self.spec(name)
        return self.values[s.offset : s.offset + s.size].reshape(s.shape)

    def set(self, name: str, arr: np.ndarray) -> None:
        s = self.spec(name)
        a = np.asarray(arr, dtype=np.float64)
        if a.shape != s.shape:
            raise ShapeError(f"slice {name!r} has shape {s.shape}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"values for slice {name!r} must be finite")
        self.values[s.offset : s.offset + s.size] = a.ravel()

    def copy(self) -> "ParamStore":
        dup = object.__new__(ParamStore)
        dup.values = self.values.copy()
        dup._layout = self._layout
        return dup


def activate(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise hidden-layer activation of the encoder (:meth:`Tape.mlp`, ``encode_batch``)."""
    return _activate(x, kind)[0]


def _activate(x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The activation and, for softplus, e^(-|x|), which its derivative reuses."""
    if kind == "relu":
        return np.maximum(x, 0.0), None
    if kind == "softplus":
        # ln(1+e^x) overflows past ~x=40; use max(x,0)+log1p(e^-|x|)
        e = np.exp(-np.abs(x))
        return np.maximum(x, 0.0) + np.log1p(e), e
    if kind == "tanh":
        return np.tanh(x), None
    raise ValueError(f"unsupported activation: {kind!r} (choose from {ACTIVATIONS})")


def _mean(x: np.ndarray) -> np.float64:
    """``np.mean(x)`` of a nonempty float64 array: the same sum and division, without the wrapper."""
    return x.sum() / x.size


def _act_grad(kind: str, g: np.ndarray, pre: np.ndarray, out: np.ndarray, e: np.ndarray | None):
    """Adjoint of ``pre`` through ``out, e = _activate(pre, kind)`` for the output adjoint ``g``."""
    if kind == "relu":
        return g * (pre > 0.0)
    if kind == "softplus":
        # the sigmoid as 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, each exact
        # on its half-line; e = e^(-|x|) serves both branches and cannot overflow
        return g * (np.where(pre >= 0, 1.0, e) / (1.0 + e))
    return g * (1.0 - out**2)


def _naive_bayes_scores(tv, muv, lsv, log_priors):
    """Scores log p(y) + log N(t_b; mu_y, sigma_y^2 I) of a (B, d) batch, and their backward cache."""
    d = tv.shape[1]
    log_var = lsv * 2.0
    diff = tv[:, None, :] - muv[None, :, :]
    sq_dist = np.einsum("bkd,bkd->bk", diff, diff)
    neg_log_var = log_var * -1.0
    with np.errstate(over="ignore"):
        inv_var = np.exp(neg_log_var)
    half_inv_var = inv_var * 0.5
    offset = log_var * (-0.5 * d) + (log_priors - 0.5 * d * math.log(2.0 * math.pi))
    scores = offset[None, :] - sq_dist * half_inv_var[None, :]  # (-q) + offset, exactly
    return scores, (diff, sq_dist, inv_var, half_inv_var)


def _naive_bayes_grads(cache, g, need_log_sigma: bool):
    """Adjoints of (t, mu, log_sigma) for the score adjoint ``g``; the last is None unless asked for."""
    diff, sq_dist, inv_var, half_inv_var = cache
    d = diff.shape[2]
    g_log_sigma = None
    if need_log_sigma:
        g_log_var = g.sum(axis=0) * (-0.5 * d)  # through the offset row
    g_quad = g * -1.0
    g_sq_dist = g_quad * half_inv_var[None, :]
    if need_log_sigma:
        g_half_inv_var = (g_quad * sq_dist).sum(axis=0)
        g_log_var = g_log_var - g_half_inv_var * 0.5 * inv_var  # through e^(-log_var); a + (-b) is a - b
        g_log_sigma = g_log_var * 2.0
    w = 2.0 * g_sq_dist[:, :, None] * diff
    return w.sum(axis=1), -w.sum(axis=0), g_log_sigma


def _softmax_nll(sv: np.ndarray, rows: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row negative log-softmax of the labelled class, and the row log-sum-exps.

    ``rows`` is ``np.arange(B)``, passed in so that repeated calls share it.
    """
    lse = logsumexp_rows(sv)
    return lse - sv[rows, labels], lse


def _softmax_nll_grad(sv, rows, labels, lse, g):
    """Adjoint of the scores for the (B,) adjoint ``g``: the log-sum-exp's minus ``g`` at the labels.

    The chain adds the log-sum-exp part onto a matrix that is 0 except for
    -g at the labels, which gives the same sums except that 0.0 + (-0.0) is
    +0.0.  Such a zero reaches the gradient only as a zero, and adding it
    onto the zeroed gradient makes it +0.0 there too.
    """
    g_scores = np.exp(sv - lse[:, None]) * g[:, None]
    g_scores[rows, labels] -= g
    return g_scores


# ---------------------------------------------------------------------- backward rules
#
# One rule per op kind.  A rule receives the tape's value list, the node's
# inputs, aux and id, and the node's adjoint ``g``; it hands the adjoint of
# each input to ``push``.  Rules never write into ``g`` or into an array they
# have pushed, so a pushed array may be shared between nodes.
#
# The fused rules replay the backward rules of the primitive chains they
# fuse, node by node in reverse, keeping every product's grouping and the
# order in which adjoints reach a shared node; a comment names the chain
# node whose adjoint a line forms.


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


def _bw_mlp(v, ins, aux, nid, g, push):
    activation, inputs, pres, exps = aux
    for l in range(len(inputs) - 1, -1, -1):
        w = ins[2 * l]
        if l:  # the first layer's input is the fixed batch: no adjoint
            g_in = g @ v[w]
        push(w, g.T @ inputs[l])
        push(ins[2 * l + 1], g.sum(axis=0))
        if l:
            g = _act_grad(activation, g_in, pres[l - 1], inputs[l], exps[l - 1])


def _bw_mc_cross_entropy(v, ins, aux, nid, g, push):
    means, log_var, p, q = ins
    head, noise, rows, labels, std, draws, need_std, need_q = aux
    b = labels.shape[0]
    g_nll = np.full(b, g / b * (1.0 / noise.shape[0]))  # the batch mean, then the 1/S scale
    g_p = g_q = g_std = None
    for s in range(len(draws) - 1, -1, -1):
        scores, lse, cache = draws[s]
        g_scores = _softmax_nll_grad(scores, rows, labels, lse, g_nll)
        if head == "softmax":
            g_t, gp, gq = g_scores @ v[p], g_scores.T @ cache, g_scores.sum(axis=0)
        else:
            g_t, gp, gq = _naive_bayes_grads(cache, g_scores, need_q)
        # the chain gave each draw its own score leaves, summed from the last draw on;
        # each draw's reparameterization pushes to the means on its own
        g_p = gp if g_p is None else g_p + gp
        if need_q:
            g_q = gq if g_q is None else g_q + gq
        push(means, g_t)
        if need_std:
            g_eps = np.asarray(np.sum(g_t * noise[s]))  # the draw's noise * std product
            g_std = g_eps if g_std is None else g_std + g_eps
    push(p, g_p)
    if need_q:
        push(q, g_q)
    if need_std:
        push(log_var, g_std * std * 0.5)  # through e^(v / 2)


def _bw_kl_to_surrogate_rows(v, ins, aux, nid, g, push):
    means, log_var, mu, log_sigma = ins
    labels, diff, sq_dist, ratio, inv_var, need_lv, need_ls = aux
    d = float(diff.shape[1])
    g = g * 0.5  # the five summands
    g_sq_dist = g * inv_var
    if need_lv or need_ls:
        g_gap = g * d * ratio  # through e^(v - lv_y)
    if need_lv:
        push(log_var, np.asarray(np.sum(g * -d + g_gap)))  # broadcast encoder log-variance
    g_sq = g_sq_dist[:, None]
    g_diff = g_sq * diff * 2.0  # the chain's p + p, exactly
    push(means, g_diff)
    g_mu = np.zeros(v[mu].shape)
    np.subtract.at(g_mu, labels, g_diff)  # adds -g_diff row by row
    push(mu, g_mu)
    if need_ls:
        # per-row surrogate log-variance lv_y, then through e^(-lv_y) and e^(v - lv_y); a + (-b) is a - b
        g_lv_y = g * d - g * sq_dist * inv_var - g_gap
        g_log_sigma = np.zeros(v[log_sigma].shape)
        np.add.at(g_log_sigma, labels, g_lv_y * 2.0)
        push(log_sigma, g_log_sigma)


class Tape:
    """Topologically ordered record of ops with cached values.

    Node handles are plain ints; inputs always reference strictly earlier
    nodes.  Construction runs the forward computation eagerly, so reading
    :meth:`val` is free.  A node is *live* when it depends on a parameter
    leaf; :meth:`backward` visits live nodes only, and the fused ops form no
    adjoint for a dead input such as a fixed log-variance.

    Besides a few scalar primitives the tape records three fused ops, which
    together make the training loss of the whole model family:

    - :meth:`mlp`: the encoder's feed-forward net, all layers;
    - :meth:`mc_cross_entropy`: the Monte-Carlo cross-entropy over all S
      reparameterized draws (draw, class scores, softmax NLL, mean);
    - :meth:`kl_to_surrogate_rows`: the per-row KL to the class surrogate.

    Each performs the numpy operations of the primitive chain it stands for
    in the same order and under the same ``np.errstate`` scopes, forward and
    backward, and hands its adjoints to shared nodes in the chain's order, so
    it gives the chain's values and gradients bit for bit.

    :meth:`param` leaves are views of the bound store, not copies: a tape is
    valid only until its store changes, so take :meth:`backward` before the
    parameters are updated.  A tape is single-threaded; build a separate tape
    per concurrent task.
    """

    _rules: Mapping[str, Callable] = MappingProxyType({
        "add": _bw_pass,
        "scale": _bw_scale,
        "add_const": _bw_pass,
        "exp": _bw_exp,
        "log": _bw_log,
        "mean_all": _bw_mean_all,
        "mlp": _bw_mlp,
        "mc_cross_entropy": _bw_mc_cross_entropy,
        "kl_to_surrogate_rows": _bw_kl_to_surrogate_rows,
    })

    def __init__(self, store: ParamStore | None = None):
        self.store = store
        self._kind: list[str] = []
        self._inputs: list[tuple[int, ...]] = []
        self._value: list[np.ndarray] = []
        self._aux: list[object] = []
        self._live: list[bool] = []

    def __len__(self) -> int:
        return len(self._kind)

    def val(self, node: int) -> np.ndarray:
        return self._value[node]

    def _push(self, kind: str, inputs: tuple[int, ...], value: np.ndarray, aux: object = None) -> int:
        live = self._live
        self._kind.append(kind)
        self._inputs.append(inputs)
        self._value.append(np.asarray(value, dtype=np.float64))
        self._aux.append(aux)
        live.append(kind == "param" or any(live[i] for i in inputs))
        return len(self._kind) - 1

    # ------------------------------------------------------------------ leaves

    def const(self, value) -> int:
        return self._push("const", (), np.asarray(value, dtype=np.float64))

    def param(self, name: str) -> int:
        """Leaf reading the named slice of the bound store (a view, see the class notes)."""
        if self.store is None:
            raise ValueError("tape has no bound ParamStore")
        spec = self.store.spec(name)
        view = self.store.values[spec.offset : spec.offset + spec.size].reshape(spec.shape)
        return self._push("param", (), view, aux=spec)

    # ------------------------------------------------------------------ primitives

    def add(self, a: int, b: int) -> int:
        av, bv = self._value[a], self._value[b]
        if av.shape != bv.shape:
            raise ShapeError(f"add: shapes {av.shape} and {bv.shape} differ")
        return self._push("add", (a, b), av + bv)

    def scale(self, x: int, c: float) -> int:
        return self._push("scale", (x,), self._value[x] * float(c), aux=float(c))

    def add_const(self, x: int, c: float) -> int:
        return self._push("add_const", (x,), self._value[x] + float(c), aux=float(c))

    def exp(self, x: int) -> int:
        # overflow to inf is surfaced by the caller's finiteness check
        with np.errstate(over="ignore"):
            return self._push("exp", (x,), np.exp(self._value[x]))

    def log(self, x: int) -> int:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._push("log", (x,), np.log(self._value[x]))

    def mean_all(self, x: int) -> int:
        xv = self._value[x]
        return self._push("mean_all", (x,), _mean(xv))

    # ------------------------------------------------------------------ fused loss ops

    def mlp(self, x: np.ndarray, weights: Sequence[int], activation: str) -> int:
        """Output of a feed-forward net on the fixed (B, d_in) batch ``x``.

        ``weights`` holds the nodes W_0, b_0, W_1, b_1, ...: layer l maps h to
        ``h @ W_l.T + b_l``, and every layer but the last then applies
        ``activation``.  ``x`` is data, not a node, so no adjoint is formed
        for it.
        """
        if len(weights) < 2 or len(weights) % 2:
            raise ValueError("mlp needs (W, b) node pairs")
        h = np.asarray(x, dtype=np.float64)
        n = len(weights) // 2
        inputs, pres, exps = [], [], []
        for l in range(n):
            wv, bv = self._value[weights[2 * l]], self._value[weights[2 * l + 1]]
            if h.ndim != 2 or wv.ndim != 2 or bv.shape != (wv.shape[0],) or h.shape[1] != wv.shape[1]:
                raise ShapeError(f"mlp layer {l}: x{h.shape} W{wv.shape} b{bv.shape} do not agree")
            inputs.append(h)
            h = h @ wv.T + bv
            if l < n - 1:
                pres.append(h)
                h, e = _activate(h, activation)
                exps.append(e)
        return self._push("mlp", tuple(weights), h, aux=(activation, inputs, pres, exps))

    def mc_cross_entropy(
        self, means: int, log_var: int, noise: np.ndarray, labels: np.ndarray,
        head: str, p: int, q: int, log_priors: np.ndarray | None = None,
    ) -> int:
        """Monte-Carlo cross-entropy of the labels, a scalar node.

        Draw s is ``t_s = means + e^(v/2) noise[s]`` for the (B, d) ``means``,
        the scalar log-variance node ``log_var`` = v and the fixed (S, B, d)
        ``noise``; the value is the batch mean of
        ``(1/S) sum_s -log softmax(scores(t_s))[y]``.  ``head`` names the score
        rule: ``"softmax"`` scores ``t @ W.T + b`` with ``p``, ``q`` = W (K, d)
        and b (K,); ``"naive_bayes"`` scores log p(y) + log N(t; mu_y,
        sigma_y^2 I) with ``p``, ``q`` = mu (K, d) and log sigma (K,) and the
        fixed (K,) ``log_priors``.
        """
        mv, lv, pv, qv = (self._value[i] for i in (means, log_var, p, q))
        noise = np.asarray(noise, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.intp)
        if (mv.ndim != 2 or lv.shape != () or noise.ndim != 3 or noise.shape[0] < 1
                or noise.shape[1:] != mv.shape or labels.shape != (mv.shape[0],)
                or pv.ndim != 2 or pv.shape[1] != mv.shape[1] or qv.shape != (pv.shape[0],)):
            raise ShapeError(
                f"mc_cross_entropy: means{mv.shape} log_var{lv.shape} noise{noise.shape} "
                f"labels{labels.shape} head {pv.shape} {qv.shape} do not agree"
            )
        if head == "naive_bayes":
            log_priors = np.asarray(log_priors, dtype=np.float64)
            if log_priors.shape != qv.shape:
                raise ShapeError(f"mc_cross_entropy: log_priors{log_priors.shape} for {qv.shape[0]} classes")
        elif head != "softmax":
            raise ValueError(f"unknown score head: {head!r}")
        with np.errstate(over="ignore"):
            std = np.exp(lv * 0.5)
        rows = np.arange(mv.shape[0])
        draws = []
        total = None
        for eps in noise:
            t = mv + eps * std
            if head == "softmax":
                scores, cache = t @ pv.T + qv, t
            else:
                scores, cache = _naive_bayes_scores(t, pv, qv, log_priors)
            nll, lse = _softmax_nll(scores, rows, labels)
            draws.append((scores, lse, cache))
            if total is None:
                total = nll
            else:
                total += nll
        ce = _mean(total * (1.0 / noise.shape[0]))
        aux = (head, noise, rows, labels, std, draws, self._live[log_var], self._live[q])
        return self._push("mc_cross_entropy", (means, log_var, p, q), ce, aux=aux)

    def kl_to_surrogate_rows(
        self, means: int, log_var: int, mu: int, log_sigma: int, labels: np.ndarray
    ) -> int:
        """Per-row KL(N(m_i, e^v I) || N(mu_{y_i}, sigma_{y_i}^2 I)), a (B,) node.

        ``means`` is (B, d), ``log_var`` the scalar log-variance v, ``mu``
        (K, d) and ``log_sigma`` (K,).  The chain it fuses is
        0.5 * (d e^(v - lv_y) + |m - mu_y|^2 e^(-lv_y) + d lv_y - d v - d)
        with lv_y = 2 log sigma_y.
        """
        mv, lv, muv, lsv = (self._value[i] for i in (means, log_var, mu, log_sigma))
        labels = np.asarray(labels, dtype=np.intp)
        if (mv.ndim != 2 or lv.shape != () or muv.ndim != 2 or muv.shape[1] != mv.shape[1]
                or lsv.shape != (muv.shape[0],) or labels.shape != (mv.shape[0],)):
            raise ShapeError(
                f"kl_to_surrogate_rows: means{mv.shape} log_var{lv.shape} mu{muv.shape} "
                f"log_sigma{lsv.shape} labels{labels.shape} do not agree"
            )
        d = float(mv.shape[1])
        lv_y = lsv[labels] * 2.0
        diff = mv - muv[labels]
        sq_dist = (diff * diff).sum(axis=1)
        # the scalar v broadcasts: each element is the chain's v_b[i] op x
        gap, neg_lv_y = lv - lv_y, lv_y * -1.0
        with np.errstate(over="ignore"):
            ratio, inv_var = np.exp(gap), np.exp(neg_lv_y)
        rows = ratio * d + sq_dist * inv_var
        rows += lv_y * d
        rows += lv * -d
        rows += -d
        aux = (labels, diff, sq_dist, ratio, inv_var, self._live[log_var], self._live[log_sigma])
        return self._push("kl_to_surrogate_rows", (means, log_var, mu, log_sigma), rows * 0.5, aux=aux)

    # ------------------------------------------------------------------ engine

    def backward(self, output: int, seed: float = 1.0) -> np.ndarray:
        """Accumulate d(output)/d(theta) for every parameter of the bound store.

        The output node must be scalar.  The walk is sequential and purely a
        function of the recorded tape, so repeated calls are bit-identical.
        A node's first incoming adjoint is kept as is and later ones are
        added out of place; no adjoint array is ever written to.
        """
        if self._value[output].shape != ():
            raise ShapeError(
                f"backward needs a scalar output node, got shape {self._value[output].shape}"
            )
        grad = np.zeros(self.store.size if self.store is not None else 0)
        adj: list[np.ndarray | None] = [None] * (output + 1)
        adj[output] = np.asarray(float(seed))

        def push(nid: int, g: np.ndarray) -> None:
            a = adj[nid]
            adj[nid] = g if a is None else a + g

        kinds, inputs, values, auxes, live, rules = (
            self._kind, self._inputs, self._value, self._aux, self._live, self._rules
        )
        for nid in range(output, -1, -1):
            g = adj[nid]
            if g is None or not live[nid]:
                continue
            kind = kinds[nid]
            if kind == "param":
                spec: SliceSpec = auxes[nid]  # type: ignore[assignment]
                grad[spec.offset : spec.offset + spec.size] += np.asarray(g).ravel()
            else:
                rules[kind](values, inputs[nid], auxes[nid], nid, g, push)
        return grad


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of comparing reverse-mode gradients to central differences."""

    max_rel_error: float
    worst_index: int
    worst_name: str
    passed: bool
    eps: float
    tol: float
    analytic: np.ndarray
    numeric: np.ndarray


LossFn = Callable[[ParamStore], tuple[Tape, int]]


def grad_check(lossfn: LossFn, params: ParamStore, eps: float, tol: float) -> GradCheckReport:
    """Compare the tape gradient of ``lossfn`` to central differences.

    ``lossfn`` must deterministically map the store to a ``(tape, output)``
    pair (any randomness frozen by the caller).  The relative error per
    coordinate is ``|g - fd| / max(1, |g|)``.
    """
    if eps <= 0.0:
        raise ValueError("grad_check: eps must be positive")
    tape, out = lossfn(params)
    base_loss = float(tape.val(out))
    if not np.isfinite(base_loss):
        raise NonFiniteError(f"loss is non-finite at the evaluation point: {base_loss}")
    analytic = tape.backward(out)

    base = params.values.copy()
    numeric = np.zeros_like(analytic)
    try:
        for k in range(params.size):
            params.values[k] = base[k] + eps
            t1, o1 = lossfn(params)
            f1 = float(t1.val(o1))
            params.values[k] = base[k] - eps
            t2, o2 = lossfn(params)
            f2 = float(t2.val(o2))
            params.values[k] = base[k]
            if not (np.isfinite(f1) and np.isfinite(f2)):
                raise NonFiniteError(f"loss non-finite while probing coordinate {k}")
            numeric[k] = (f1 - f2) / (2.0 * eps)
    finally:
        params.values[:] = base

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    worst = int(np.argmax(rel)) if rel.size else 0
    worst_name = ""
    for name, spec in params.layout.items():
        if spec.offset <= worst < spec.offset + spec.size:
            worst_name = name
            break
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(
        max_rel_error=max_rel,
        worst_index=worst,
        worst_name=worst_name,
        passed=max_rel < tol,
        eps=eps,
        tol=tol,
        analytic=analytic,
        numeric=numeric,
    )
