"""Reverse-mode differentiation of the training loss of the bottleneck models.

A :class:`Tape` evaluates the one loss this library trains -- the encoder
net, the Monte-Carlo cross-entropy and the per-row surrogate KL, with
``ce + beta' * mean(kl)`` on top -- over P >= 1 stacked parameter vectors
of a :class:`ParamStore`, and :meth:`Tape.backward` returns its (P, size)
float64 gradient in one straight-line pass.  This module orders every
floating-point operation of a training step.  It records no graph and
differentiates no other loss.
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


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """Row-wise log(sum(exp(a))) over the last axis, shifted by each row's maximum.

    A last axis of 1 to 7 entries is reduced in column passes, with numpy's
    reduction's bits: a running ``np.maximum`` over the columns, one
    ``exp(column - max)`` per column, the exps added column by column from the
    first, then ``max + log(sum)``.  Below 8 entries numpy sums a row in that
    order, sequentially from its first entry.  It also pays its inner-loop
    set-up once per row, so at (1000, 2) its reductions are bound by that
    per-row cost, not by their arithmetic; the passes pay it once per column.
    From 8 entries up numpy sums in 8 interleaved lanes, so a wider (or an
    empty) last axis keeps numpy's reduction.  So does a call where some
    row's maximum is NaN: which NaN numpy's maximum returns there depends on
    its SIMD width.
    """
    k = a.shape[-1]
    if 0 < k < 8:
        mx = a[..., 0]
        for j in range(1, k):
            mx = np.maximum(mx, a[..., j])
        if not np.isnan(mx).any():
            total = np.exp(a[..., 0] - mx)
            for j in range(1, k):
                total = total + np.exp(a[..., j] - mx)
            return mx + np.log(total)
    mx = np.maximum.reduce(a, axis=-1)  # a.max(axis=-1) without its wrapper
    shifted = np.subtract(a, mx[..., None])
    return mx + np.log(np.exp(shifted, out=shifted).sum(axis=-1))


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

    Slices are laid out in the order of the (name, array) pairs the store is
    built from, are disjoint, and cover the vector exactly.  The layout never
    changes after construction; only the values may be mutated, in place
    (e.g. by an optimizer): every slice is one view, made with the store.  A
    store may also stack P vectors of one layout as (P, size) ``values``
    (:meth:`with_values`); its slices are then (P, *shape) views.
    """

    def __init__(self, arrays: Sequence[tuple[str, np.ndarray]]):
        if not arrays:
            raise ValueError("ParamStore needs at least one named slice")
        layout: dict[str, SliceSpec] = {}
        chunks = []
        offset = 0
        for name, arr in arrays:
            if name in layout:
                raise ValueError(f"duplicate slice name: {name!r}")
            a = np.asarray(arr, dtype=np.float64)
            layout[name] = SliceSpec(offset, a.size, a.shape)
            chunks.append(a.ravel())
            offset += a.size
        values = np.concatenate(chunks)
        if not np.all(np.isfinite(values)):
            raise ValueError("parameter values must be finite")
        self._layout = MappingProxyType(layout)
        self._bind(values)

    def __getstate__(self) -> dict:
        return {"layout": dict(self._layout), "values": self.values}

    def __setstate__(self, state: dict) -> None:
        self._layout = MappingProxyType(state["layout"])
        self._bind(state["values"])

    def _bind(self, values: np.ndarray) -> None:
        self.values = values
        self._views = {name: values[..., s.offset : s.offset + s.size].reshape(values.shape[:-1] + s.shape)
                       for name, s in self._layout.items()}

    @property
    def layout(self) -> Mapping[str, SliceSpec]:
        return self._layout

    @property
    def size(self) -> int:
        return self.values.shape[-1]

    def names(self) -> tuple[str, ...]:
        return tuple(self._layout)

    def spec(self, name: str) -> SliceSpec:
        try:
            return self._layout[name]
        except KeyError:
            raise KeyError(f"unknown parameter slice: {name!r}") from None

    def get(self, name: str) -> np.ndarray:
        """Return the named block as a reshaped view of the flat vector (of each stacked vector)."""
        try:
            return self._views[name]
        except KeyError:
            raise KeyError(f"unknown parameter slice: {name!r}") from None

    def set(self, name: str, arr: np.ndarray) -> None:
        """Write ``arr``, of the slice's own shape, into the named slice (of every stacked vector)."""
        shape = self.spec(name).shape
        a = np.asarray(arr, dtype=np.float64)
        if a.shape != shape:
            raise ShapeError(f"slice {name!r} has shape {shape}, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"values for slice {name!r} must be finite")
        self._views[name][...] = a

    def with_values(self, values: np.ndarray) -> "ParamStore":
        """A store of this layout over ``values``, one (size,) vector or (P, size) stacked ones, not copied."""
        dup = object.__new__(ParamStore)
        dup._layout = self._layout
        dup._bind(values)
        return dup

    def copy(self) -> "ParamStore":
        return self.with_values(self.values.copy())


def activate(x: np.ndarray, kind: str) -> np.ndarray:
    """Elementwise hidden-layer activation of the encoder (:meth:`Tape.mlp`, ``encode_batch``)."""
    return _activate(x, kind)[0]


def _activate(x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray | None]:
    """The activation and, for softplus, e^(-|x|), which its derivative reuses."""
    if kind == "relu":
        return np.maximum(x, 0.0), None
    if kind == "softplus":
        # ln(1+e^x) overflows past ~x=40; use max(x,0)+log1p(e^-|x|), the sum
        # taken in place so that a stacked forward's peak holds one
        # temporary fewer
        e = np.exp(-np.abs(x))
        out = np.maximum(x, 0.0)
        out += np.log1p(e)
        return out, e
    if kind == "tanh":
        return np.tanh(x), None
    raise ValueError(f"unsupported activation: {kind!r} (choose from {ACTIVATIONS})")


def _mean(x: np.ndarray) -> np.ndarray:
    """``np.mean(x, axis=-1)`` of a nonempty float64 array: the same sums and division, without the wrapper."""
    return x.sum(axis=-1) / x.shape[-1]


def _act_grad(kind: str, g: np.ndarray, pre: np.ndarray, out: np.ndarray, e: np.ndarray | None):
    """Adjoint of ``pre`` through ``out, e = _activate(pre, kind)`` for the output adjoint ``g``."""
    if kind == "relu":
        return g * (pre > 0.0)
    if kind == "softplus":
        # the sigmoid as 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, each exact
        # on its half-line; e = e^(-|x|) serves both branches and cannot overflow
        return g * (np.maximum(e, pre >= 0) / (1.0 + e))
    return g * (1.0 - out**2)


def _naive_bayes_scores(tv, muv, lsv, log_priors):
    """Scores log p(y) + log N(t_b; mu_y, sigma_y^2 I) of a (..., B, d) batch, and their backward cache."""
    d = tv.shape[-1]
    log_var = lsv * 2.0
    diff = tv[..., :, None, :] - muv[..., None, :, :]
    sq_dist = np.einsum("...bkd,...bkd->...bk", diff, diff)
    neg_log_var = log_var * -1.0
    # a diverging run gives inf * 0 below; the caller checks the loss's finiteness
    with np.errstate(over="ignore", invalid="ignore"):
        inv_var = np.exp(neg_log_var)
        half_inv_var = inv_var * 0.5
        offset = log_var * (-0.5 * d) + (log_priors - 0.5 * d * math.log(2.0 * math.pi))
        scores = offset[..., None, :] - sq_dist * half_inv_var[..., None, :]  # (-q) + offset, exactly
    return scores, (diff, sq_dist, inv_var, half_inv_var)


def _naive_bayes_grads(cache, g, need_log_sigma: bool):
    """Adjoints of (t, mu, log_sigma) for the (..., B, K) score adjoint ``g``; the last is None unless asked for."""
    diff, sq_dist, inv_var, half_inv_var = cache
    d = diff.shape[-1]
    g_log_sigma = None
    if need_log_sigma:
        g_log_var = g.sum(axis=-2) * (-0.5 * d)  # through the offset row
    g_quad = g * -1.0
    g_sq_dist = g_quad * half_inv_var[..., None, :]
    if need_log_sigma:
        g_half_inv_var = (g_quad * sq_dist).sum(axis=-2)
        g_log_var = g_log_var - g_half_inv_var * 0.5 * inv_var  # through e^(-log_var); a + (-b) is a - b
        g_log_sigma = g_log_var * 2.0
    w = 2.0 * g_sq_dist[..., None] * diff
    return w.sum(axis=-2), -w.sum(axis=-3), g_log_sigma


def _softmax_nll(sv: np.ndarray, at: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per-row negative log-softmax of the labelled class, and the row log-sum-exps.

    ``at`` indexes each batch row's labelled score: ``(rows, labels)``, led by
    the stack index of each row on a stacked store.
    """
    lse = logsumexp_rows(sv)
    return lse - sv[at], lse


def _softmax_nll_grad(sv, at, lse, g):
    """Adjoint of the scores for the (..., B) adjoint ``g``: the log-sum-exp's minus ``g`` at the labels.

    The chain adds the log-sum-exp part onto a matrix that is 0 except for
    -g at the labels, which gives the same sums except that 0.0 + (-0.0) is
    +0.0.  Such a zero reaches the gradient only as a zero, and adding it
    onto the zeroed gradient makes it +0.0 there too.
    """
    g_scores = np.exp(sv - lse[..., None]) * g[..., None]
    g_scores[at] -= g
    return g_scores


class Tape:
    """One evaluation of the training loss over a stack of P parameter vectors, kept for its backward.

    Five calls record the loss in a fixed order, each keeping its backward
    cache: :meth:`mlp` (the encoder net), :meth:`log_var`,
    :meth:`mc_cross_entropy` (all S reparameterized draws),
    :meth:`kl_to_surrogate_rows` and :meth:`total`.  They and the one
    straight-line :meth:`backward` perform the numpy operations of the
    primitive chain the loss stands for, in its order and under its
    ``np.errstate`` scopes, so the tape gives the chain's values and
    gradient bit for bit.

    Every array the tape takes or forms has the stack's leading P axis.
    Row p of the (P,) :meth:`total` and the (P, size) :meth:`backward` is
    bit for bit what vector p gives in a stack of one, through the same
    operations in the same order.  ``width`` is the most float64 values one
    intermediate holds per parameter vector, or all the draws' kept scores
    and caches together if they hold more, so that a caller can bound a
    stack whatever the draw count.

    Parameters are read as views of the bound store, so take
    :meth:`backward` before they change.  A tape is single-threaded.
    """

    def __init__(self, store: ParamStore):
        if store.values.ndim != 2 or not store.values.shape[0]:
            raise ShapeError(f"a Tape needs a (P, size) stacked store, P >= 1; got values{store.values.shape}")
        self.store = store
        self.width = 0
        self._lead = store.values.shape[:-1]  # (P,)
        # the stack index of each row, for gathers along the class axis that follows it
        self._rows = np.arange(self._lead[0])[:, None]
        self._ops = 0
        self._mlp = self._log_var = self._ce = self._kl = self._total = None

    def __len__(self) -> int:
        """Number of recorded ops that :meth:`backward` replays (a fixed log-variance is none)."""
        return self._ops

    def _slice(self, name: str | None, shape: tuple[int, ...]) -> np.ndarray:
        """The named slice as a view, or zeros of its (P, *``shape``) shape for ``None``."""
        return np.zeros(self._lead + shape) if name is None else self.store.get(name)

    def mlp(self, x: np.ndarray, names: Sequence[str], activation: str) -> np.ndarray:
        """Output of a feed-forward net on the fixed (P, B, d_in) batch ``x``, (P, B, d_out).

        ``names`` lists the slices W_0, b_0, W_1, b_1, ...: layer l maps h to
        ``h @ W_l.T + b_l``, and every layer but the last then applies
        ``activation``.  ``x`` is data, so no adjoint is formed for it.
        """
        if len(names) < 2 or len(names) % 2:
            raise ValueError("mlp needs (W, b) slice-name pairs")
        weights = [self.store.get(name) for name in names]
        h = np.asarray(x, dtype=np.float64)
        n = len(names) // 2
        inputs, pres, exps = [], [], []
        for l in range(n):
            wv, bv = weights[2 * l], weights[2 * l + 1]
            if (h.ndim != 3 or h.shape[:1] != self._lead or wv.ndim != 3
                    or bv.shape != wv.shape[:-1] or h.shape[-1] != wv.shape[-1]):
                raise ShapeError(f"mlp layer {l}: x{h.shape} W{wv.shape} b{bv.shape} do not agree")
            inputs.append(h)
            h = h @ wv.mT + bv[..., None, :]
            self.width = max(self.width, h.shape[-2] * h.shape[-1])
            if l < n - 1:
                pres.append(h)
                h, e = _activate(h, activation)
                exps.append(e)
        self._mlp = (names, weights, activation, inputs, pres, exps)
        self._ops += 1
        return h

    def log_var(self, sigma2: float, name: str | None = None) -> np.ndarray:
        """The (P,) log-variance: log sigma2, or log(e^(log eta^2) + sigma2) for the slice ``name``."""
        if name is None:
            return np.full(self._lead, math.log(sigma2))
        # overflow to inf is surfaced by the caller's finiteness check
        with np.errstate(over="ignore"):
            e = np.exp(self.store.get(name))
        var = e + float(sigma2)
        with np.errstate(divide="ignore", invalid="ignore"):
            lv = np.log(var)
        self._log_var = (name, e, var)
        self._ops += 1
        return lv

    def mc_cross_entropy(
        self, means: np.ndarray, log_var: np.ndarray, noise: np.ndarray, labels: np.ndarray,
        head: str, p: str, q: str | None, log_priors: np.ndarray | None = None,
    ) -> np.ndarray:
        """Monte-Carlo cross-entropy of the labels, (P,).

        Draw s is ``t_s = means + e^(v/2) noise[:, s]`` for the (P, B, d)
        ``means`` of :meth:`mlp`, the (P,) ``log_var`` v of :meth:`log_var`
        and the fixed (P, S, B, d) ``noise``; the value is the batch mean of
        ``(1/S) sum_s -log softmax(scores(t_s))[y]`` for the (P, B)
        ``labels``.  ``head`` names the score rule: ``"softmax"`` scores
        ``t @ W.T + b`` with the slices ``p``, ``q`` = W (K, d) and b (K,);
        ``"naive_bayes"`` scores log p(y) + log N(t; mu_y, sigma_y^2 I) with
        ``p``, ``q`` = mu (K, d) and log sigma (K,) and the fixed (K,)
        ``log_priors``.  ``q`` None is a zero constant.
        """
        mv, lv = np.asarray(means, dtype=np.float64), np.asarray(log_var, dtype=np.float64)
        pv = self.store.get(p)
        qv = self._slice(q, pv.shape[-2:-1])
        noise = np.asarray(noise, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.intp)
        if (mv.shape[:-2] != self._lead or lv.shape != self._lead or noise.ndim != 4 or noise.shape[1] < 1
                or noise.shape[:1] + noise.shape[2:] != mv.shape or labels.shape != mv.shape[:-1]
                or pv.shape[:-2] != self._lead or pv.shape[-1] != mv.shape[-1] or qv.shape != pv.shape[:-1]):
            raise ShapeError(
                f"mc_cross_entropy: means{mv.shape} log_var{lv.shape} noise{noise.shape} "
                f"labels{labels.shape} head {pv.shape} {qv.shape} do not agree"
            )
        if head == "naive_bayes":
            log_priors = np.asarray(log_priors, dtype=np.float64)
            if log_priors.shape != pv.shape[-2:-1]:
                raise ShapeError(f"mc_cross_entropy: log_priors{log_priors.shape} for {pv.shape[-2]} classes")
        elif head != "softmax":
            raise ValueError(f"unknown score head: {head!r}")
        with np.errstate(over="ignore"):
            std = np.exp(lv * 0.5)
        scale = std[:, None, None]  # a row's std spans its (B, d) draws
        b, draw_count = mv.shape[-2], noise.shape[1]
        at = (self._rows, np.arange(b), labels)  # each row's labelled score
        draws = []
        total = None
        k, d = pv.shape[-2:]
        # a draw's widest intermediate, and the scores and cache that every draw keeps for the backward
        kept = b * k * (d + 2) if head == "naive_bayes" else b * (k + d)
        self.width = max(self.width, b * k * (d if head == "naive_bayes" else 1), draw_count * kept)
        for s in range(draw_count):
            t = mv + noise[:, s] * scale
            if head == "softmax":
                scores, cache = t @ pv.mT + qv[..., None, :], t
            else:
                scores, cache = _naive_bayes_scores(t, pv, qv, log_priors)
            nll, lse = _softmax_nll(scores, at)
            draws.append((scores, lse, cache))
            total = nll if total is None else total + nll
        self._ce = (head, p, q, pv, noise, at, std, draws)
        self._ops += 1
        return _mean(total * (1.0 / draw_count))

    def kl_to_surrogate_rows(
        self, means: np.ndarray, log_var: np.ndarray, mu: str, log_sigma: str | None, labels: np.ndarray
    ) -> np.ndarray:
        """Per-row KL(N(m_i, e^v I) || N(mu_{y_i}, sigma_{y_i}^2 I)), a (P, B) array.

        ``means`` is the (P, B, d) output of :meth:`mlp`, ``log_var`` the (P,)
        v of :meth:`log_var` and ``labels`` the (P, B) classes; ``mu`` and
        ``log_sigma`` name the (K, d) and (K,) surrogate slices (``log_sigma``
        None: every sigma_y is 1).  The chain it stands for is
        0.5 * (d e^(v - lv_y) + |m - mu_y|^2 e^(-lv_y) + d lv_y - d v - d)
        with lv_y = 2 log sigma_y.
        """
        mv, lv = np.asarray(means, dtype=np.float64), np.asarray(log_var, dtype=np.float64)
        muv = self.store.get(mu)
        lsv = self._slice(log_sigma, muv.shape[-2:-1])
        labels = np.asarray(labels, dtype=np.intp)
        if (mv.shape[:-2] != self._lead or lv.shape != self._lead or muv.shape[:-2] != self._lead
                or muv.shape[-1] != mv.shape[-1] or lsv.shape != muv.shape[:-1] or labels.shape != mv.shape[:-1]):
            raise ShapeError(
                f"kl_to_surrogate_rows: means{mv.shape} log_var{lv.shape} mu{muv.shape} "
                f"log_sigma{lsv.shape} labels{labels.shape} do not agree"
            )
        d = float(mv.shape[-1])
        lv_y = lsv[self._rows, labels] * 2.0
        diff = mv - muv[self._rows, labels]
        sq_dist = (diff * diff).sum(axis=-1)
        # a row's v broadcasts over its batch: each element is the chain's v_b[i] op x
        lv = lv[:, None]
        gap, neg_lv_y = lv - lv_y, lv_y * -1.0
        # a diverging run gives inf + -inf below; the caller checks the loss's finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            ratio, inv_var = np.exp(gap), np.exp(neg_lv_y)
            rows = ratio * d + sq_dist * inv_var
            rows += lv_y * d
            rows += lv * -d
            rows += -d
        self._kl = (mu, log_sigma, labels, diff, sq_dist, ratio, inv_var)
        self._ops += 1
        return rows * 0.5

    def total(self, ce: np.ndarray, kl_rows: np.ndarray, beta_prime: np.ndarray) -> tuple[np.ndarray, ...]:
        """The (P,) losses ``ce + beta' * mean(kl_rows)`` for the (P,) ``beta_prime``; returns (total, ce, kl)."""
        if np.shape(beta_prime) != self._lead:
            raise ShapeError(f"total: beta_prime{np.shape(beta_prime)} for a stack of {self._lead[0]}")
        kl = _mean(kl_rows)
        self._total = (beta_prime, kl_rows.shape[-1])
        self._ops += 1
        # a diverging run gives inf * 0 here; the caller checks the total's finiteness
        with np.errstate(over="ignore", invalid="ignore"):
            return ce + kl * beta_prime, ce, kl

    def backward(self) -> np.ndarray:
        """The (P, size) gradient of the recorded totals over the bound store.

        One straight-line pass in the chain's adjoint order: the KL rows
        reach the means, the surrogate and the log-variance first; the draws
        then add to the means from the last draw to the first, and their
        summed score-parameter adjoints follow the KL's; the net comes last.
        Each slice's adjoint is added once onto a zeroed gradient, so a -0.0
        adjoint is +0.0 there.  Adjoints of a fixed log-variance or fixed
        class sigmas are not formed.
        """
        if any(r is None for r in (self._mlp, self._ce, self._kl, self._total)):
            raise ValueError("backward needs a recorded mlp, mc_cross_entropy, kl_to_surrogate_rows and total")
        store, lead = self.store, self._lead
        grad = np.zeros(store.values.shape)
        beta_prime, b = self._total
        need_lv = self._log_var is not None

        # KL rows: the adjoint of the scale by beta', then of the mean
        mu, log_sigma, kl_labels, diff, sq_dist, ratio, inv_var = self._kl
        need_ls = log_sigma is not None
        d = float(diff.shape[-1])
        g = np.full(lead + (b,), (beta_prime / b)[:, None]) * 0.5
        g_sq_dist = g * inv_var
        if need_lv or need_ls:
            g_gap = g * d * ratio  # through e^(v - lv_y)
        if need_lv:
            g_lv = (g * -d + g_gap).sum(axis=-1)  # broadcast encoder log-variance
        g_means = g_sq_dist[..., None] * diff * 2.0  # the chain's p + p, exactly
        # ufunc.at visits the index in order, so each row adds its batch rows in the chain's order
        kl_at = (self._rows, kl_labels)
        g_mu = np.zeros(lead + store.spec(mu).shape)
        np.subtract.at(g_mu, kl_at, g_means)  # adds -g_means row by row
        adj = {mu: g_mu}  # slice adjoints, the KL's first
        if need_ls:
            # per-row surrogate log-variance lv_y, then through e^(-lv_y) and e^(v - lv_y); a + (-b) is a - b
            g_lv_y = g * d - g * sq_dist * inv_var - g_gap
            g_log_sigma = np.zeros(lead + store.spec(log_sigma).shape)
            np.add.at(g_log_sigma, kl_at, g_lv_y * 2.0)
            adj[log_sigma] = g_log_sigma

        # Monte-Carlo cross-entropy, adjoint 1: the batch mean, then the 1/S scale
        head, p, q, pv, noise, at, std, draws = self._ce
        need_q = q is not None
        g_nll = np.full(lead + (b,), 1.0 / b * (1.0 / len(draws)))
        g_p = g_q = g_std = None
        for s in range(len(draws) - 1, -1, -1):
            scores, lse, cache = draws[s]
            g_scores = _softmax_nll_grad(scores, at, lse, g_nll)
            if head == "softmax":
                g_t, gp, gq = g_scores @ pv, g_scores.mT @ cache, g_scores.sum(axis=-2)
            else:
                g_t, gp, gq = _naive_bayes_grads(cache, g_scores, need_q)
            # the chain gave each draw its own score leaves, summed from the last draw on;
            # each draw's reparameterization adds to the means on its own
            g_p = gp if g_p is None else g_p + gp
            if need_q:
                g_q = gq if g_q is None else g_q + gq
            g_means = g_means + g_t
            if need_lv:
                g_eps = (g_t * noise[:, s]).sum(axis=(-2, -1))  # the draw's noise * std product
                g_std = g_eps if g_std is None else g_std + g_eps
        adj[p] = adj[p] + g_p if p in adj else g_p
        if need_q:
            adj[q] = adj[q] + g_q if q in adj else g_q

        # the learned log-variance log(e^(log eta^2) + sigma2): through e^(v / 2), the log and the exp
        if need_lv:
            name, e, var = self._log_var
            adj[name] = (g_lv + g_std * std * 0.5) / var * e

        # the net, from the last layer
        names, weights, activation, inputs, pres, exps = self._mlp
        g = g_means
        for l in range(len(inputs) - 1, -1, -1):
            if l:  # the first layer's input is the fixed batch: no adjoint
                g_in = g @ weights[2 * l]
            adj[names[2 * l]] = g.mT @ inputs[l]
            adj[names[2 * l + 1]] = g.sum(axis=-2)
            if l:
                g = _act_grad(activation, g_in, pres[l - 1], inputs[l], exps[l - 1])

        for name, g in adj.items():
            spec = store.spec(name)
            grad[:, spec.offset : spec.offset + spec.size] += g.reshape(lead + (spec.size,))
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


LossFn = Callable[[ParamStore], tuple[np.ndarray, Tape]]

# the most float64 values that one intermediate of a stack of probes may hold;
# the stacked forward holds about four intermediates at its peak, so a stack
# takes about four times this many values, besides its probe rows
PROBE_STACK_VALUES = 2**14


def grad_check(lossfn: LossFn, params: ParamStore, eps: float, tol: float) -> GradCheckReport:
    """Compare the reverse-mode gradient of ``lossfn`` to central differences.

    ``lossfn`` must deterministically map a (P, size) stacked store to
    ``(losses, tape)`` (any randomness frozen by the caller): the (P,) losses
    of its rows and the :class:`Tape` that recorded them, or any object with
    its ``backward()`` and ``width``.  The gradient is row 0 of one backward
    on the (size,) ``params`` as a stack of one; ``params`` stays untouched.
    The 2 * size probes (each coordinate +eps, then -eps) are rows of
    stacked stores, as many per call as keep every intermediate within
    PROBE_STACK_VALUES values (``Tape.width`` counts the draws' kept caches
    together, so the bound holds whatever the draw count), and at least one.
    The relative error per coordinate is ``|g - fd| / max(1, |g|)``.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"grad_check: eps must be positive and finite, got {eps}")
    loss, tape = lossfn(params.with_values(params.values[None]))
    base_loss = float(loss[0])
    if not np.isfinite(base_loss):
        raise NonFiniteError(f"loss is non-finite at the evaluation point: {base_loss}")
    analytic = tape.backward()[0]

    n, base = params.size, params.values
    coords = np.tile(np.arange(n), 2)  # probe j moves coordinate j % n
    moved = np.concatenate([base + eps, base - eps])
    losses = np.empty(2 * n)
    chunk = max(1, PROBE_STACK_VALUES // tape.width)
    for start in range(0, 2 * n, chunk):
        probes = np.arange(start, min(start + chunk, 2 * n))
        rows = np.tile(base, (probes.size, 1))
        rows[np.arange(probes.size), coords[probes]] = moved[probes]
        losses[probes] = lossfn(params.with_values(rows))[0]
    up, down = losses[:n], losses[n:]
    bad = ~(np.isfinite(up) & np.isfinite(down))
    if bad.any():
        raise NonFiniteError(f"loss non-finite while probing coordinate {int(np.argmax(bad))}")
    numeric = (up - down) / (2.0 * eps)

    rel = np.abs(analytic - numeric) / np.maximum(1.0, np.abs(analytic))
    worst = int(np.argmax(rel)) if rel.size else 0
    worst_name = next((name for name, s in params.layout.items() if s.offset <= worst < s.offset + s.size), "")
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(max_rel_error=max_rel, worst_index=worst, worst_name=worst_name,
                           passed=max_rel < tol, eps=eps, tol=tol, analytic=analytic, numeric=numeric)
