"""Reverse-mode differentiation over the op set the bottleneck models need.

Values are float64 numpy arrays: scalars are shape-() arrays, batches are
2-D ``(batch, dim)`` matrices.  A :class:`Tape` records primitive ops in
topological order together with cached forward values; :meth:`Tape.backward`
walks the records once in reverse and returns a flat gradient aligned with
the bound :class:`ParamStore`.

This is deliberately not a general autodiff system: no broadcasting rules
beyond the few ops that need them, no higher-order derivatives.
"""

from __future__ import annotations

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


def _stable_softplus(x: np.ndarray) -> np.ndarray:
    # ln(1+e^x) overflows past ~x=40; use max(x,0)+log1p(e^-|x|)
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Tape:
    """Topologically ordered record of primitive ops with cached values.

    Node handles are plain ints; inputs always reference strictly earlier
    nodes.  Construction runs the forward computation eagerly, so reading
    :meth:`val` is free and :meth:`replay` reproduces values bit-exactly.
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
        if kind not in ACTIVATIONS:
            raise ValueError(f"unsupported activation: {kind!r} (choose from {ACTIVATIONS})")
        xv = self._value[x]
        if kind == "relu":
            out = np.maximum(xv, 0.0)
        elif kind == "softplus":
            out = _stable_softplus(xv)
        else:
            out = np.tanh(xv)
        return self._push("act", (x,), out, aux=kind)

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

    def dot(self, a: int, b: int) -> int:
        av, bv = self._value[a], self._value[b]
        if av.ndim != 1 or av.shape != bv.shape:
            raise ShapeError(f"dot: need equal-length vectors, got {av.shape} and {bv.shape}")
        return self._push("dot", (a, b), np.dot(av, bv))

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

    # ------------------------------------------------------------------ engine

    def replay(self) -> None:
        """Recompute every cached value in order from current leaf values.

        Param leaves re-read the bound store, so a replay after an optimizer
        step refreshes the whole tape.  For fixed leaves the recomputation is
        bit-identical to the original forward pass.
        """
        for nid in range(len(self._kind)):
            kind = self._kind[nid]
            if kind == "const":
                continue
            if kind == "param":
                spec: SliceSpec = self._aux[nid]  # type: ignore[assignment]
                self._value[nid] = self.store.values[spec.offset : spec.offset + spec.size].reshape(spec.shape).copy()
                continue
            ins = [self._value[i] for i in self._inputs[nid]]
            self._value[nid] = self._recompute(kind, ins, self._aux[nid])

    def _recompute(self, kind: str, ins: list[np.ndarray], aux: object) -> np.ndarray:
        if kind == "affine":
            x, w, b = ins
            return x @ w.T + b if x.ndim == 2 else w @ x + b
        if kind == "act":
            if aux == "relu":
                return np.maximum(ins[0], 0.0)
            if aux == "softplus":
                return _stable_softplus(ins[0])
            return np.tanh(ins[0])
        if kind == "add":
            return ins[0] + ins[1]
        if kind == "sub":
            return ins[0] - ins[1]
        if kind == "mul":
            return ins[0] * ins[1]
        if kind == "add_n":
            out = ins[0].copy()
            for v in ins[1:]:
                out += v
            return out
        if kind == "scale":
            return ins[0] * aux  # type: ignore[operator]
        if kind == "add_const":
            return ins[0] + aux  # type: ignore[operator]
        if kind == "exp":
            return np.exp(ins[0])
        if kind == "log":
            with np.errstate(divide="ignore", invalid="ignore"):
                return np.log(ins[0])
        if kind == "sum_all":
            return np.asarray(np.sum(ins[0]))
        if kind == "mean_all":
            return np.asarray(np.mean(ins[0]))
        if kind == "dot":
            return np.asarray(np.dot(ins[0], ins[1]))
        if kind == "bcast":
            return np.full(aux, ins[0])  # type: ignore[arg-type]
        if kind == "mul_scalar":
            return ins[0] * ins[1]
        if kind == "take":
            return ins[0][aux]
        if kind == "take_rows":
            return ins[0][aux]
        if kind == "row_sum":
            return ins[0].sum(axis=1)
        if kind == "pairwise_sqdist":
            diff = ins[0][:, None, :] - ins[1][None, :, :]
            return np.einsum("bkd,bkd->bk", diff, diff)
        if kind == "mul_rows":
            return ins[0] * ins[1][None, :]
        if kind == "add_rows":
            return ins[0] + ins[1][None, :]
        if kind == "logsumexp_rows":
            return logsumexp_rows(ins[0])
        if kind == "pick":
            return ins[0][np.arange(ins[0].shape[0]), aux]
        raise AssertionError(f"unknown op kind {kind!r}")

    def backward(self, output: int, seed: float = 1.0) -> np.ndarray:
        """Accumulate d(output)/d(theta) for every parameter of the bound store.

        The output node must be scalar.  The walk is sequential and purely a
        function of the recorded tape, so repeated calls are bit-identical.
        """
        if self._value[output].shape != ():
            raise ShapeError(
                f"backward needs a scalar output node, got shape {self._value[output].shape}"
            )
        grad = np.zeros(self.store.size if self.store is not None else 0)
        adj: list[np.ndarray | None] = [None] * len(self._kind)
        adj[output] = np.asarray(float(seed))

        def push(nid: int, g: np.ndarray) -> None:
            if adj[nid] is None:
                adj[nid] = np.zeros_like(self._value[nid])
            adj[nid] += g  # type: ignore[operator]

        for nid in range(output, -1, -1):
            g = adj[nid]
            if g is None:
                continue
            kind = self._kind[nid]
            ins = self._inputs[nid]
            aux = self._aux[nid]
            if kind == "const":
                continue
            if kind == "param":
                spec: SliceSpec = aux  # type: ignore[assignment]
                grad[spec.offset : spec.offset + spec.size] += np.asarray(g).ravel()
            elif kind == "affine":
                xv, wv = self._value[ins[0]], self._value[ins[1]]
                if xv.ndim == 2:
                    push(ins[0], g @ wv)
                    push(ins[1], g.T @ xv)
                    push(ins[2], g.sum(axis=0))
                else:
                    push(ins[0], wv.T @ g)
                    push(ins[1], np.outer(g, xv))
                    push(ins[2], g)
            elif kind == "act":
                xv = self._value[ins[0]]
                if aux == "relu":
                    push(ins[0], g * (xv > 0.0))
                elif aux == "softplus":
                    push(ins[0], g * _sigmoid(xv))
                else:
                    push(ins[0], g * (1.0 - self._value[nid] ** 2))
            elif kind == "add":
                push(ins[0], g)
                push(ins[1], g)
            elif kind == "sub":
                push(ins[0], g)
                push(ins[1], -g)
            elif kind == "mul":
                push(ins[0], g * self._value[ins[1]])
                push(ins[1], g * self._value[ins[0]])
            elif kind == "add_n":
                for i in ins:
                    push(i, g)
            elif kind == "scale":
                push(ins[0], g * aux)  # type: ignore[operator]
            elif kind == "add_const":
                push(ins[0], g)
            elif kind == "exp":
                push(ins[0], g * self._value[nid])
            elif kind == "log":
                push(ins[0], g / self._value[ins[0]])
            elif kind == "sum_all":
                push(ins[0], np.full_like(self._value[ins[0]], g))
            elif kind == "mean_all":
                xv = self._value[ins[0]]
                push(ins[0], np.full_like(xv, g / xv.size))
            elif kind == "dot":
                push(ins[0], g * self._value[ins[1]])
                push(ins[1], g * self._value[ins[0]])
            elif kind == "bcast":
                push(ins[0], np.asarray(np.sum(g)))
            elif kind == "mul_scalar":
                push(ins[0], g * self._value[ins[1]])
                push(ins[1], np.asarray(np.sum(g * self._value[ins[0]])))
            elif kind == "take":
                gv = np.zeros_like(self._value[ins[0]])
                np.add.at(gv, aux, g)
                push(ins[0], gv)
            elif kind == "take_rows":
                gm = np.zeros_like(self._value[ins[0]])
                np.add.at(gm, aux, g)
                push(ins[0], gm)
            elif kind == "row_sum":
                push(ins[0], np.broadcast_to(g[:, None], self._value[ins[0]].shape).copy())
            elif kind == "pairwise_sqdist":
                tv, mv = self._value[ins[0]], self._value[ins[1]]
                w = 2.0 * g[:, :, None] * (tv[:, None, :] - mv[None, :, :])
                push(ins[0], w.sum(axis=1))
                push(ins[1], -w.sum(axis=0))
            elif kind == "mul_rows":
                push(ins[0], g * self._value[ins[1]][None, :])
                push(ins[1], (g * self._value[ins[0]]).sum(axis=0))
            elif kind == "add_rows":
                push(ins[0], g)
                push(ins[1], g.sum(axis=0))
            elif kind == "logsumexp_rows":
                sv, out = self._value[ins[0]], self._value[nid]
                push(ins[0], np.exp(sv - out[:, None]) * g[:, None])
            elif kind == "pick":
                gs = np.zeros_like(self._value[ins[0]])
                gs[np.arange(gs.shape[0]), aux] = g
                push(ins[0], gs)
            else:
                raise AssertionError(f"unknown op kind {kind!r}")
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
