"""Pairwise-mixture upper bounds on I(X;T) and I(X;T|Y) over embedded datasets.

Treating the embedded codes as the component means of a homoscedastic
Gaussian mixture gives a mutual-information upper bound built from pairwise
code distances.  Two formula variants ship because the compact published
form and its source disagree:

* ``as-printed``  - unsquared Euclidean distances, no normalization inside
  the logarithm.
* ``cited-source`` - squared distances with a 1/N factor inside the
  logarithm; this is the variant that provably upper-bounds the mutual
  information and is therefore the default.

The conditional variant restricts the bound to one class at a time; by
default each class is averaged over its own sample count and classes are
combined with relative frequencies, so the aggregate cannot scale with the
dataset size.  :func:`bound_report` forms the printed alternatives behind
its flags: ``printed_outer_normalization`` divides each restricted sum by N
instead of N_y, which scales the log part of a class's bound by N_y / N (its
distance-free term is not class-averaged), and ``printed_count_weights``
combines the classes with absolute counts, so the aggregate scales with N.

One tiled pass gives a whole report.  Pairwise distances come from direct
coordinate differences summed in a fixed order, in tiles of code rows
against every code; the rows are visited in stable label order, so a tile
seldom spans two classes.  Each tile is exponentiated once, unshifted: the
codes are finite and every row holds its own zero distance, so a row's
maximum is -0.0 and the usual log-sum-exp shift would change no bit.  The
whole row's sum feeds I(X;T); the sub-row over the row's own class,
gathered once per tile, feeds that class's bound.  :func:`bound_report` is
the one way into the pass: the bound on I(X;T) alone is its ``unconditional``.

The main process splits the rows into two halves and fills the second on a
helper thread (numpy releases the GIL on the (rows, N) tiles); a ``cib
sweep`` pool worker, or a process with one usable core, uses one thread.
Each thread gets tiles of ``_TILE // threads // N`` rows, raised to
``_MIN_ROWS`` while such a tile stays within ``_MIN_ROWS * _TILE //
threads`` elements and to one row at least, and its own reused (d, rows, N)
buffer, so the buffers hold at most ``d * max(_MIN_ROWS * _TILE, threads *
N)`` values: O(d * _TILE) up to N = _MIN_ROWS * _TILE / threads, O(d * N)
above.  A tile gathers its own rows from the codes, so the pass holds no
reordered copy of them.  Every row's sums are formed whole inside one
tile, so the bits do not depend on the thread count or the tile size.
"""

from __future__ import annotations

import contextvars
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .diffcore import NonFiniteError

__all__ = [
    "MODE_AS_PRINTED",
    "MODE_CITED_SOURCE",
    "EmbeddedDataset",
    "BoundReport",
    "bound_report",
]

MODE_AS_PRINTED = "as-printed"
MODE_CITED_SOURCE = "cited-source"
_MODES = (MODE_AS_PRINTED, MODE_CITED_SOURCE)

_TILE = 1 << 15  # elements per (rows, N) distance tile
# rows per tile at least, up to N = _MIN_ROWS * _TILE / threads: thinner
# tiles spend their time in Python under the GIL
_MIN_ROWS = 4


@dataclass(frozen=True)
class EmbeddedDataset:
    """Encoder codes with labels and the mixture's noise parameters.

    ``sigma2`` is the fixed per-component noise variance (> 0); ``eta2`` the
    learned additional noise variance (>= 0).  ``codes`` rows are the mean
    embeddings f(x_i).
    """

    codes: np.ndarray
    labels: np.ndarray
    sigma2: float
    eta2: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "codes", np.asarray(self.codes, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.intp))
        if self.codes.ndim != 2 or self.codes.shape[0] < 1 or self.codes.shape[1] < 1:
            raise ValueError(f"codes must be a nonempty (N, d) matrix, got shape {self.codes.shape}")
        if not np.all(np.isfinite(self.codes)):
            raise NonFiniteError("codes must be finite")
        if self.labels.shape != (self.codes.shape[0],):
            raise ValueError("labels must align with code rows")
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not 0.0 <= self.eta2 < np.inf:
            raise ValueError(f"eta2 must be nonnegative and finite, got {self.eta2}")

    @property
    def count(self) -> int:
        return self.codes.shape[0]

    @property
    def dim(self) -> int:
        return self.codes.shape[1]


@dataclass(frozen=True)
class BoundReport:
    """Unconditional and per-class bound values plus their aggregate."""

    mode: str
    unconditional: float
    aggregate: float
    per_class: Mapping[int, tuple[int, float]]

    def to_json_dict(self) -> dict:
        return {
            "mode": self.mode,
            "unconditional": self.unconditional,
            "aggregate": self.aggregate,
            "per_class": [
                {"label": int(y), "count": int(c), "value": float(v)}
                for y, (c, v) in sorted(self.per_class.items())
            ],
        }


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _bound_threads() -> int:
    """Threads for one bound: two, or one on a single usable core or inside a
    process-pool worker (its sibling workers already hold the other cores)."""
    if multiprocessing.parent_process() is not None:
        return 1
    return min(2, usable_cores())


def _sq_distances(cols: np.ndarray, rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Squared distances from the code columns ``rows`` of ``cols`` to every code column.

    ``cols`` is the C-contiguous (d, N) transpose of the codes, so each numpy
    call below runs over a (rows, N) inner axis.  The coordinate squares are
    summed in a fixed order: two chains, over the even and over the odd
    coordinates; each full chunk of 8 coordinates enters its chain from last
    to first, the remaining coordinates in order, then the chains are added.
    That is the order of numpy's two-lane ``einsum("bnd,bnd->bn")`` reduction,
    so the bounds keep the bits of the direct-difference einsum they replace.
    Returns a C-contiguous (rows, N) array; the row sums run along its rows,
    and another memory order would change that summation order.  The
    differences are formed in the head of ``buf``, a flat float64 array of at
    least d * rows * N elements, and the result is a view into it.
    """
    dim, n = cols.shape
    sq = buf[: dim * rows.size * n].reshape(dim, rows.size, n)
    np.subtract(cols[:, rows, None], cols[:, None, :], out=sq)
    sq *= sq
    full = dim - dim % 8
    chains = []
    for lane in (0, 1):
        order = [c + k for c in range(0, full, 8) for k in (6 + lane, 4 + lane, 2 + lane, lane)]
        order += range(full + lane, dim, 2)
        if order:
            acc = sq[order[0]]
            for k in order[1:]:
                acc += sq[k]
            chains.append(acc)
    if len(chains) == 2:
        chains[0] += chains[1]
    return chains[0]


def _bound_of_sums(sums: np.ndarray, dim: int, sigma2: float, width: float, mode: str) -> float:
    """The bound from each code's sum of exp(-distance / (2 width)) over its mixture's codes."""
    inner_logs = np.log(sums)
    if mode == MODE_CITED_SOURCE:
        inner_logs -= np.log(sums.size)
    return float(-np.mean(inner_logs) - dim * np.log(sigma2 / width))


def _bounds_on_codes(
    codes: np.ndarray, labels: np.ndarray, sigma2: float, eta2: float, mode: str
) -> tuple[float, dict[int, tuple[int, float]]]:
    """The bound over all codes and each class's (count, bound) over its own codes, from one tiled pass."""
    n, dim = codes.shape
    width = eta2 + sigma2
    classes, inverse, counts = np.unique(labels, return_inverse=True, return_counts=True)
    order = np.argsort(inverse, kind="stable")
    starts = np.concatenate(([0], np.cumsum(counts)))  # class k is order[starts[k]:starts[k + 1]]
    cols = np.ascontiguousarray(codes.T)
    whole = np.empty(n)  # in row order
    own = np.empty(n)  # in label order
    threads = _bound_threads()
    # direct pairwise differences (no dot-product expansion: the sqrt in
    # as-printed mode would amplify its cancellation error), one tile of rows
    # at a time so each thread's (d, rows, N) buffer stays within
    # d * max(_MIN_ROWS * _TILE / threads, N)
    rows = max(1, _TILE // threads // n, min(_MIN_ROWS, _MIN_ROWS * _TILE // threads // n))

    def fill(start: int, stop: int, buf: np.ndarray) -> None:
        """The sums of the rows at label-order positions ``start:stop``, tile by tile through one buffer."""
        for lo in range(start, stop, rows):
            hi = min(lo + rows, stop)
            kernel = _sq_distances(cols, order[lo:hi], buf)
            if mode == MODE_AS_PRINTED:
                np.sqrt(kernel, out=kernel)
            kernel *= -0.5
            kernel /= width
            # each row holds its own zero distance, so its maximum is -0.0
            # and a log-sum-exp shift by it would change no bit
            np.exp(kernel, out=kernel)
            whole[order[lo:hi]] = kernel.sum(axis=-1)
            k = int(np.searchsorted(starts, lo, side="right")) - 1
            while starts[k] < hi:
                a, b = max(lo, starts[k]), min(hi, starts[k + 1])
                part = kernel[a - lo : b - lo]
                own[a:b] = np.take(part, order[starts[k] : starts[k + 1]], axis=1).sum(axis=-1)
                k += 1

    if threads == 1 or n <= rows:
        fill(0, n, np.empty(dim * min(rows, n) * n))
    else:
        # each row's sums are formed whole inside one tile, so the bits do
        # not depend on which thread fills which half; the helper runs in
        # a copy of this context so that it keeps the caller's np.errstate.
        # Both buffers come from this thread and every tile is worked in
        # place, so the helper allocates only row vectors, each tile's
        # (d, rows) code columns and the class sub-tiles it gathers: large
        # blocks freed in a helper thread's malloc arena stay resident and
        # raise peak RSS.
        half = (n + 1) // 2
        bufs = np.empty((2, dim * min(rows, half) * n))
        with ThreadPoolExecutor(max_workers=1) as helper:
            second = helper.submit(contextvars.copy_context().run, fill, half, n, bufs[1])
            fill(0, half, bufs[0])
            second.result()
    per_class = {
        int(y): (int(c), _bound_of_sums(own[a:b], dim, sigma2, width, mode))
        for y, c, a, b in zip(classes, counts, starts[:-1], starts[1:])
    }
    return _bound_of_sums(whole, dim, sigma2, width, mode), per_class


def bound_report(
    data: EmbeddedDataset,
    mode: str = MODE_CITED_SOURCE,
    printed_outer_normalization: bool = False,
    printed_count_weights: bool = False,
) -> BoundReport:
    """Full report: unconditional bound, per-class bounds, and their aggregate, from one tiled pass.

    The per-class values and the aggregate take the printed forms that the
    flags select (see the module docstring).
    """
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {_MODES}")
    unconditional, per_class = _bounds_on_codes(data.codes, data.labels, data.sigma2, data.eta2, mode)
    if printed_outer_normalization:
        const = -data.dim * np.log(data.sigma2 / (data.eta2 + data.sigma2))
        per_class = {y: (c, (v - const) * (c / data.count) + const) for y, (c, v) in per_class.items()}
    counts = np.array([c for c, _ in per_class.values()], dtype=np.int64)
    values = np.array([v for _, v in per_class.values()], dtype=np.float64)
    weights = counts if printed_count_weights else counts / data.count
    return BoundReport(
        mode=mode,
        unconditional=unconditional,
        aggregate=float(np.sum(weights * values)),
        per_class=per_class,
    )
