"""Reverse-mode differentiation over the op set the bottleneck models need.

Values are float64 numpy arrays: scalars are shape-() arrays, batches are
2-D ``(batch, dim)`` matrices.  A :class:`Tape` records primitive ops, and
three fused ops of the training loss, in topological order together with
cached forward values; :meth:`Tape.backward` walks the records once in
reverse and returns a flat gradient aligned with the bound
:class:`ParamStore`.

This is deliberately not a general autodiff system: no broadcasting rules
beyond the few ops that need them, no higher-order derivatives.
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
    """Row-wise log(sum(exp(a))) of a matrix, shifted by each row's maximum."""
    mx = a.max(axis=1)
    return mx + np.log(np.exp(a - mx[:, None]).sum(axis=1))


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
    """Elementwise hidden-layer activation: the forward rule of :meth:`Tape.activation`."""
    if kind == "relu":
        return np.maximum(x, 0.0)
    if kind == "softplus":
        # ln(1+e^x) overflows past ~x=40; use max(x,0)+log1p(e^-|x|)
        return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    if kind == "tanh":
        return np.tanh(x)
    raise ValueError(f"unsupported activation: {kind!r} (choose from {ACTIVATIONS})")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # each branch is exact on its own half-line; only the discarded one can overflow
    with np.errstate(over="ignore", invalid="ignore"):
        ex = np.exp(x)
        return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)), ex / (1.0 + ex))


class Tape:
    """Topologically ordered record of ops with cached values.

    Node handles are plain ints; inputs always reference strictly earlier
    nodes.  Construction runs the forward computation eagerly, so reading
    :meth:`val` is free.  Besides the primitives there are three fused loss
    ops (:meth:`kl_to_surrogate_rows`, :meth:`naive_bayes_scores`,
    :meth:`softmax_nll`); each performs the numpy operations of the primitive
    chain it stands for in the same order, forward and backward, so it gives
    the chain's values and gradients bit for bit with fewer nodes.
    A tape is single-threaded; build a separate tape per concurrent task.
    """

    def __init__(self, store: ParamStore | None = None):
        self.store = store
        self._kind: list[str] = []
        self._inputs: list[tuple[int, ...]] = []
        self._value: list[np.ndarray] = []
        self._aux: list[object] = []

    def __len__(self) -> int:
        return len(self._kind)

    def val(self, node: int) -> np.ndarray:
        return self._value[node]

    def _push(self, kind: str, inputs: tuple[int, ...], value: np.ndarray, aux: object = None) -> int:
        self._kind.append(kind)
        self._inputs.append(inputs)
        self._value.append(np.asarray(value, dtype=np.float64))
        self._aux.append(aux)
        return len(self._kind) - 1

    # ------------------------------------------------------------------ leaves

    def const(self, value) -> int:
        return self._push("const", (), np.asarray(value, dtype=np.float64))

    def param(self, name: str) -> int:
        if self.store is None:
            raise ValueError("tape has no bound ParamStore")
        return self._push("param", (), self.store.get(name).copy(), aux=self.store.spec(name))

    # ------------------------------------------------------------------ ops

    def affine(self, x: int, w: int, b: int, label: str = "affine") -> int:
        """``x @ W.T + b`` for a batch ``x`` of shape (B, d_in), or ``W x + b``
        for a single vector of shape (d_in,)."""
        xv, wv, bv = self._value[x], self._value[w], self._value[b]
        if wv.ndim != 2 or bv.shape != (wv.shape[0],) or xv.ndim not in (1, 2) or xv.shape[-1] != wv.shape[1]:
            raise ShapeError(
                f"affine {label!r}: x{xv.shape} W{wv.shape} b{bv.shape} do not agree"
            )
        out = xv @ wv.T + bv if xv.ndim == 2 else wv @ xv + bv
        return self._push("affine", (x, w, b), out, aux=label)

    def activation(self, x: int, kind: str) -> int:
        return self._push("act", (x,), activate(self._value[x], kind), aux=kind)

    def _binary(self, kind: str, a: int, b: int) -> int:
        av, bv = self._value[a], self._value[b]
        if av.shape != bv.shape:
            raise ShapeError(f"{kind}: shapes {av.shape} and {bv.shape} differ")
        op = {"add": np.add, "sub": np.subtract, "mul": np.multiply}[kind]
        return self._push(kind, (a, b), op(av, bv))

    def add(self, a: int, b: int) -> int:
        return self._binary("add", a, b)

    def sub(self, a: int, b: int) -> int:
        return self._binary("sub", a, b)

    def mul(self, a: int, b: int) -> int:
        return self._binary("mul", a, b)

    def add_n(self, nodes: Sequence[int]) -> int:
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

    def scale(self, x: int, c: float) -> int:
        return self._push("scale", (x,), self._value[x] * float(c), aux=float(c))

    def neg(self, x: int) -> int:
        return self.scale(x, -1.0)

    def add_const(self, x: int, c: float) -> int:
        return self._push("add_const", (x,), self._value[x] + float(c), aux=float(c))

    def exp(self, x: int) -> int:
        # overflow to inf is surfaced by the caller's finiteness check
        with np.errstate(over="ignore"):
            return self._push("exp", (x,), np.exp(self._value[x]))

    def log(self, x: int) -> int:
        with np.errstate(divide="ignore", invalid="ignore"):
            return self._push("log", (x,), np.log(self._value[x]))

    def sum_all(self, x: int) -> int:
        return self._push("sum_all", (x,), np.sum(self._value[x]))

    def mean_all(self, x: int) -> int:
        return self._push("mean_all", (x,), np.mean(self._value[x]))

    def bcast(self, s: int, shape: tuple[int, ...]) -> int:
        sv = self._value[s]
        if sv.shape != ():
            raise ShapeError("bcast: input must be a scalar node")
        return self._push("bcast", (s,), np.full(shape, sv), aux=tuple(shape))

    def mul_scalar(self, x: int, s: int) -> int:
        sv = self._value[s]
        if sv.shape != ():
            raise ShapeError("mul_scalar: second input must be a scalar node")
        return self._push("mul_scalar", (x, s), self._value[x] * sv)

    def take(self, v: int, idx: np.ndarray) -> int:
        vv = self._value[v]
        if vv.ndim != 1:
            raise ShapeError("take: input must be a vector")
        idx = np.asarray(idx, dtype=np.intp)
        return self._push("take", (v,), vv[idx], aux=idx)

    def take_rows(self, m: int, idx: np.ndarray) -> int:
        mv = self._value[m]
        if mv.ndim != 2:
            raise ShapeError("take_rows: input must be a matrix")
        idx = np.asarray(idx, dtype=np.intp)
        return self._push("take_rows", (m,), mv[idx], aux=idx)

    def row_sum(self, x: int) -> int:
        xv = self._value[x]
        if xv.ndim != 2:
            raise ShapeError("row_sum: input must be a matrix")
        return self._push("row_sum", (x,), xv.sum(axis=1))

    def pairwise_sqdist(self, t: int, m: int) -> int:
        """Squared Euclidean distances between rows of t (B,d) and rows of m (K,d)."""
        tv, mv = self._value[t], self._value[m]
        if tv.ndim != 2 or mv.ndim != 2 or tv.shape[1] != mv.shape[1]:
            raise ShapeError(f"pairwise_sqdist: shapes {tv.shape} and {mv.shape} do not agree")
        diff = tv[:, None, :] - mv[None, :, :]
        return self._push("pairwise_sqdist", (t, m), np.einsum("bkd,bkd->bk", diff, diff))

    def mul_rows(self, x: int, w: int) -> int:
        """Multiply each column k of x (B,K) by w[k]."""
        xv, wv = self._value[x], self._value[w]
        if xv.ndim != 2 or wv.shape != (xv.shape[1],):
            raise ShapeError(f"mul_rows: shapes {xv.shape} and {wv.shape} do not agree")
        return self._push("mul_rows", (x, w), xv * wv[None, :])

    def add_rows(self, x: int, c: int) -> int:
        """Add c (K,) to every row of x (B,K)."""
        xv, cv = self._value[x], self._value[c]
        if xv.ndim != 2 or cv.shape != (xv.shape[1],):
            raise ShapeError(f"add_rows: shapes {xv.shape} and {cv.shape} do not agree")
        return self._push("add_rows", (x, c), xv + cv[None, :])

    def logsumexp_rows(self, s: int) -> int:
        sv = self._value[s]
        if sv.ndim != 2:
            raise ShapeError("logsumexp_rows: input must be a matrix")
        return self._push("logsumexp_rows", (s,), logsumexp_rows(sv))

    def pick(self, s: int, labels: np.ndarray) -> int:
        sv = self._value[s]
        labels = np.asarray(labels, dtype=np.intp)
        if sv.ndim != 2 or labels.shape != (sv.shape[0],):
            raise ShapeError("pick: need (B,K) scores and (B,) labels")
        return self._push("pick", (s,), sv[np.arange(sv.shape[0]), labels], aux=labels)

    # ------------------------------------------------------------------ fused loss ops

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
        lv_b = np.full(labels.shape, lv)
        gap, neg_lv_y = lv_b - lv_y, lv_y * -1.0
        with np.errstate(over="ignore"):
            ratio, inv_var = np.exp(gap), np.exp(neg_lv_y)
        rows = ratio * d + sq_dist * inv_var
        rows += lv_y * d
        rows += lv_b * -d
        rows += np.full(labels.shape, -d)
        return self._push(
            "kl_to_surrogate_rows", (means, log_var, mu, log_sigma), rows * 0.5,
            aux=(labels, diff, sq_dist, ratio, inv_var),
        )

    def naive_bayes_scores(self, t: int, mu: int, log_sigma: int, log_priors: np.ndarray) -> int:
        """Class scores log p(y) + log N(t_b; mu_y, sigma_y^2 I), a (B, K) node.

        ``t`` is (B, d), ``mu`` (K, d), ``log_sigma`` (K,) and ``log_priors`` a
        fixed (K,) array.  Scores are unnormalized log-probabilities.
        """
        tv, muv, lsv = self._value[t], self._value[mu], self._value[log_sigma]
        log_priors = np.asarray(log_priors, dtype=np.float64)
        if (tv.ndim != 2 or muv.ndim != 2 or tv.shape[1] != muv.shape[1]
                or lsv.shape != (muv.shape[0],) or log_priors.shape != lsv.shape):
            raise ShapeError(
                f"naive_bayes_scores: t{tv.shape} mu{muv.shape} log_sigma{lsv.shape} "
                f"log_priors{log_priors.shape} do not agree"
            )
        d = tv.shape[1]
        log_var = lsv * 2.0
        diff = tv[:, None, :] - muv[None, :, :]
        sq_dist = np.einsum("bkd,bkd->bk", diff, diff)
        neg_log_var = log_var * -1.0
        with np.errstate(over="ignore"):
            inv_var = np.exp(neg_log_var)
        half_inv_var = inv_var * 0.5
        offset = log_var * (-0.5 * d) + (log_priors - 0.5 * d * math.log(2.0 * math.pi))
        scores = (sq_dist * half_inv_var[None, :]) * -1.0 + offset[None, :]
        return self._push(
            "naive_bayes_scores", (t, mu, log_sigma), scores, aux=(diff, sq_dist, inv_var, half_inv_var)
        )

    def softmax_nll(self, scores: int, labels: np.ndarray) -> int:
        """Per-row negative log-softmax of the labelled class, a (B,) node."""
        sv = self._value[scores]
        labels = np.asarray(labels, dtype=np.intp)
        if sv.ndim != 2 or labels.shape != (sv.shape[0],):
            raise ShapeError("softmax_nll: need (B,K) scores and (B,) labels")
        lse = logsumexp_rows(sv)
        return self._push(
            "softmax_nll", (scores,), lse - sv[np.arange(sv.shape[0]), labels], aux=(labels, lse)
        )

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

        kinds, inputs, values, auxes = self._kind, self._inputs, self._value, self._aux
        for nid in range(output, -1, -1):
            g = adj[nid]
            if g is None:
                continue
            kind = kinds[nid]
            if kind == "param":
                spec: SliceSpec = auxes[nid]  # type: ignore[assignment]
                grad[spec.offset : spec.offset + spec.size] += np.asarray(g).ravel()
            elif kind != "const":
                _BACKWARD[kind](values, inputs[nid], auxes[nid], nid, g, push)
        return grad


# ---------------------------------------------------------------------- backward rules
#
# One rule per op kind.  A rule receives the tape's value list, the node's
# inputs, aux and id, and the node's adjoint ``g``; it hands the adjoint of
# each input to ``push``.  Rules never write into ``g`` or into an array they
# have pushed, so a pushed array may be shared between nodes.


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


def _bw_act(v, ins, aux, nid, g, push):
    if aux == "relu":
        push(ins[0], g * (v[ins[0]] > 0.0))
    elif aux == "softplus":
        push(ins[0], g * _sigmoid(v[ins[0]]))
    else:
        push(ins[0], g * (1.0 - v[nid] ** 2))


def _bw_pass(v, ins, aux, nid, g, push):
    for i in ins:
        push(i, g)


def _bw_sub(v, ins, aux, nid, g, push):
    push(ins[0], g)
    push(ins[1], -g)


def _bw_mul(v, ins, aux, nid, g, push):
    push(ins[0], g * v[ins[1]])
    push(ins[1], g * v[ins[0]])


def _bw_scale(v, ins, aux, nid, g, push):
    push(ins[0], g * aux)


def _bw_exp(v, ins, aux, nid, g, push):
    push(ins[0], g * v[nid])


def _bw_log(v, ins, aux, nid, g, push):
    push(ins[0], g / v[ins[0]])


def _bw_sum_all(v, ins, aux, nid, g, push):
    push(ins[0], np.full_like(v[ins[0]], g))


def _bw_mean_all(v, ins, aux, nid, g, push):
    xv = v[ins[0]]
    push(ins[0], np.full_like(xv, g / xv.size))


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


# The fused rules below replay the backward rules of the chains they fuse,
# node by node in reverse, keeping every product's grouping; a comment names
# the chain node whose adjoint a line forms.


def _bw_kl_to_surrogate_rows(v, ins, aux, nid, g, push):
    means, log_var, mu, log_sigma = ins
    labels, diff, sq_dist, ratio, inv_var = aux
    d = float(diff.shape[1])
    g = g * 0.5  # the five summands
    g_lv_b = g * -d  # broadcast encoder log-variance
    g_lv_y = g * d  # per-row surrogate log-variance
    g_sq_dist = g * inv_var
    g_lv_y = g_lv_y + g * sq_dist * inv_var * -1.0  # through e^(-lv_y)
    g_gap = g * d * ratio  # through e^(v - lv_y)
    g_lv_b = g_lv_b + g_gap
    g_lv_y = g_lv_y + -g_gap
    push(log_var, np.asarray(np.sum(g_lv_b)))
    g_sq = np.broadcast_to(g_sq_dist[:, None], diff.shape)
    g_diff = g_sq * diff + g_sq * diff
    push(means, g_diff)
    g_mu = np.zeros_like(v[mu])
    np.add.at(g_mu, labels, -g_diff)
    push(mu, g_mu)
    g_log_sigma = np.zeros_like(v[log_sigma])
    np.add.at(g_log_sigma, labels, g_lv_y * 2.0)
    push(log_sigma, g_log_sigma)


def _bw_naive_bayes_scores(v, ins, aux, nid, g, push):
    t, mu, log_sigma = ins
    diff, sq_dist, inv_var, half_inv_var = aux
    d = diff.shape[2]
    g_log_var = g.sum(axis=0) * (-0.5 * d)  # through the offset row
    g_quad = g * -1.0
    g_sq_dist = g_quad * half_inv_var[None, :]
    g_half_inv_var = (g_quad * sq_dist).sum(axis=0)
    g_log_var = g_log_var + g_half_inv_var * 0.5 * inv_var * -1.0  # through e^(-log_var)
    w = 2.0 * g_sq_dist[:, :, None] * diff
    push(t, w.sum(axis=1))
    push(mu, -w.sum(axis=0))
    push(log_sigma, g_log_var * 2.0)


def _bw_softmax_nll(v, ins, aux, nid, g, push):
    labels, lse = aux
    sv = v[ins[0]]
    g_pick = np.zeros_like(sv)
    g_pick[np.arange(sv.shape[0]), labels] = -g
    push(ins[0], g_pick)
    push(ins[0], np.exp(sv - lse[:, None]) * g[:, None])


_BACKWARD: dict[str, Callable] = {
    "affine": _bw_affine,
    "act": _bw_act,
    "add": _bw_pass,
    "sub": _bw_sub,
    "mul": _bw_mul,
    "add_n": _bw_pass,
    "scale": _bw_scale,
    "add_const": _bw_pass,
    "exp": _bw_exp,
    "log": _bw_log,
    "sum_all": _bw_sum_all,
    "mean_all": _bw_mean_all,
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
    "kl_to_surrogate_rows": _bw_kl_to_surrogate_rows,
    "naive_bayes_scores": _bw_naive_bayes_scores,
    "softmax_nll": _bw_softmax_nll,
}


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
