"""Exact information quantities and identity checks over finite tables.

Everything here is computed by exhaustive summation over small probability
tables, with the standard conventions 0 log 0 := 0 and KL := +inf on support
mismatch.  The module serves as the ground-truth oracle for the identities
the continuous machinery relies on: the mutual-information chain rule, the
equivalence of the plain and class-conditional bottleneck objectives, the
decomposition of the surrogate KL into compression plus a residual, and the
optimality of per-class products of coordinate marginals (whose residual is
the class-conditional total correlation).

The latent alphabet is a product of per-coordinate alphabets; joint outcomes
are indexed in C order (last coordinate fastest), capped at 64 outcomes so
exhaustive sums stay sub-second.

Tables are stored C-contiguous, because numpy sums in memory order.  Every
information quantity comes from one stacked pass over a (K, nx, nt) stack of
encoder tables: ``info_report`` is its one-encoder case, ``equivalence_scan``
runs it once per alphabet size of a family, and ``decomposition_check`` reads
I(X;T|Y) from it.  The pass takes x log x of all its tables at once, with
``info_report``'s class tables for the total correlations.  Sample KLs take one
unmasked pass over rows; only rows whose sum is not finite (a zero, a
negative or a NaN) are redone by ``kl_discrete``.  Every entropy and KL is
still summed whole per encoder or row, so batched values equal the
per-encoder ones bit for bit.

A ``ProductSurrogate`` checks its factors in one pass per coordinate; an optimal one is
built from the (classes, arity) marginal stacks it sums.  Each check takes its KLs in one pass.
``perturbed_product_surrogates`` builds the moves of one coordinate as one
array, by the arithmetic of a single move; a candidate re-checks only the
factor it moved and carries its expanded table, so the search pays for its
KLs, not for checks.
Non-integer, out-of-range or negative sample indices are errors; an integer
ndarray is whole by its dtype, anything else is scanned entry by entry.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .objectives import beta_to_beta_prime

__all__ = [
    "MAX_JOINT_OUTCOMES",
    "DiscreteJoint",
    "DiscreteEncoder",
    "InfoReport",
    "ObjectiveValues",
    "EquivalenceScan",
    "ProductSurrogate",
    "DecompositionReport",
    "OptimalityReport",
    "entropy",
    "kl_discrete",
    "induced",
    "info_report",
    "objective_values",
    "equivalence_scan",
    "decomposition_check",
    "optimal_product_surrogate",
    "sample_kl_objective",
    "surrogate_optimality_check",
    "perturbed_product_surrogates",
]

MAX_JOINT_OUTCOMES = 64


def _check_rows(joint: DiscreteJoint, enc: DiscreteEncoder) -> None:
    if enc.nx != joint.nx:
        raise ValueError(f"encoder covers {enc.nx} feature values, joint has {joint.nx}")


def _xlogx(p: np.ndarray) -> np.ndarray:
    """x log x of a float64 array, elementwise, with 0 log 0 := 0."""
    mask = p > 0.0
    out = np.log(p, out=np.zeros(p.shape), where=mask)
    return np.multiply(out, p, out=out, where=mask)


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with 0 log 0 := 0."""
    return float(-np.sum(_xlogx(np.asarray(p, dtype=np.float64))))


def _entropies(*stacks: np.ndarray) -> list[np.ndarray]:
    """``entropy(stack[k])`` for every k of each C-contiguous (K, ...) stack.

    One x log x pass covers every stack, since it is elementwise.  Each row
    of a stack's reshape is one table in C order, summed by one reduction as
    ``entropy`` sums it, so the values are equal bit for bit.
    """
    terms = _xlogx(np.concatenate(stacks, axis=None))
    out, start = [], 0
    for s in stacks:
        out.append(-np.add.reduce(terms[start:start + s.size].reshape(s.shape[0], -1), axis=1))
        start += s.size
    return out


def kl_discrete(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats; +inf where p puts mass outside q's support."""
    p = np.asarray(p, dtype=np.float64).ravel()
    q = np.asarray(q, dtype=np.float64).ravel()
    if p.shape != q.shape:
        raise ValueError(f"distributions have different sizes: {p.size} vs {q.size}")
    support = p > 0.0
    if np.any(q[support] == 0.0):
        return math.inf
    return float(np.sum(p[support] * (np.log(p[support]) - np.log(q[support]))))


def _kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """``kl_discrete(p[i], q[i])`` for every row i of two (rows, n) tables.

    One unmasked pass sums every row, as ``kl_discrete`` sums a row without
    zeros.  A row with a zero, a negative or a NaN on either side has a NaN
    or infinite term (0 * -inf, log of a negative, p * -log 0), so its sum is
    not finite; only rows whose sum is not finite are redone by
    ``kl_discrete``, for its 0 log 0 and +inf.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.add.reduce(p * (np.log(p) - np.log(q)), axis=1)
    if not math.isfinite(np.add.reduce(out)):  # a row is not finite, or the rows' total overflows
        for i in np.flatnonzero(~np.isfinite(out)):
            out[i] = kl_discrete(p[i], q[i])
    return out


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint probability table p(x, y) over finite feature and class alphabets."""

    p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p", np.ascontiguousarray(self.p, dtype=np.float64))
        if self.p.ndim != 2 or self.p.shape[0] < 1 or self.p.shape[1] < 1:
            raise ValueError("joint table must be a nonempty 2-D array")
        if np.logical_or.reduce(self.p < 0.0, axis=None):
            raise ValueError("joint probabilities must be nonnegative")
        # a sum that overflows to inf is no numpy warning.  Only a table with an entry above 1, which fails the
        # check, can overflow; np.errstate on every table made oracle-verify's cycles 3-8 % slower (2-core Xeon)
        with np.errstate(over="ignore") if np.logical_or.reduce(self.p > 1.0, axis=None) else contextlib.nullcontext():
            total = float(np.add.reduce(self.p, axis=None))
        if not abs(total - 1.0) <= 1e-12:  # a NaN entry fails it too
            raise ValueError(f"joint table sums to {total}, not 1")

    @property
    def nx(self) -> int:
        return self.p.shape[0]

    @property
    def ny(self) -> int:
        return self.p.shape[1]


@dataclass(frozen=True)
class DiscreteEncoder:
    """Stochastic table q(t | x) over a product latent alphabet.

    ``arities`` lists the per-coordinate alphabet sizes; their product is the
    number of columns, and joint outcomes follow C order (last coordinate
    varies fastest).
    """

    q: np.ndarray
    arities: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "q", np.ascontiguousarray(self.q, dtype=np.float64))
        if not all(isinstance(a, (int, np.integer)) and type(a) is not bool and a >= 1 for a in self.arities):
            raise ValueError(f"coordinate arities must be positive integers, got {self.arities}")
        object.__setattr__(self, "arities", tuple(int(a) for a in self.arities))
        if self.q.ndim != 2 or self.q.shape[0] < 1:
            raise ValueError("encoder table must be a nonempty 2-D array")
        nt = math.prod(self.arities)
        if nt != self.q.shape[1]:
            raise ValueError(f"arities {self.arities} imply {nt} outcomes, table has {self.q.shape[1]}")
        if nt > MAX_JOINT_OUTCOMES:
            raise ValueError(f"product alphabet has {nt} outcomes, cap is {MAX_JOINT_OUTCOMES}")
        if np.logical_or.reduce(self.q < 0.0, axis=None):
            raise ValueError("encoder probabilities must be nonnegative")
        with np.errstate(over="ignore") if np.logical_or.reduce(self.q > 1.0, axis=None) else contextlib.nullcontext():
            totals = np.add.reduce(self.q, axis=1)  # overflows only as DiscreteJoint's total does
        if not np.logical_and.reduce(np.abs(totals - 1.0) <= 1e-12):  # a NaN entry fails it too
            raise ValueError("each encoder row must sum to 1")

    @property
    def nx(self) -> int:
        return self.q.shape[0]

    @property
    def nt(self) -> int:
        return self.q.shape[1]


def induced(joint: DiscreteJoint, enc: DiscreteEncoder) -> np.ndarray:
    """Exact (ny, nt) q(T|Y) induced by the encoder; a class of probability zero has a NaN row."""
    _check_rows(joint, enc)
    p_y = joint.p.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # a class of probability zero divides 0 by 0
        t_given_y = (joint.p.T @ enc.q) / p_y[:, None]  # q(y, t) / p(y)
    t_given_y[~(p_y > 0.0)] = np.nan
    return t_given_y


@dataclass(frozen=True)
class InfoReport:
    """Entropies and mutual informations of one (joint, encoder) pair, in nats."""

    H_Y: float
    H_Y_given_T: float
    I_XT: float
    I_YT: float
    I_XT_given_Y: float
    I_XY_given_T: float
    TC_given_y: np.ndarray

    def chain_rule_gap(self) -> float:
        """I(X;T) - I(X;T|Y) - I(Y;T); exactly zero under the Markov chain."""
        return self.I_XT - self.I_XT_given_Y - self.I_YT


def _info_pass(joint: DiscreteJoint, q: np.ndarray, arities: tuple[int, ...] | None = None) -> InfoReport:
    """An :class:`InfoReport` of a C-contiguous (K, nx, nt) stack of encoder tables.

    The five per-encoder quantities are (K,) arrays.  ``TC_given_y`` is None,
    unless the ``arities`` of a one-encoder stack are given: then the
    entropies of each class's q(T|y) and of its coordinate marginals join the
    one x log x pass, and ``TC_given_y`` holds the total correlations.
    Each entropy is one reduction per encoder, so a value is the same alone and in any stack.
    """
    p3 = joint.p[None, :, :, None] * q[:, :, None, :]  # (K, nx, ny, nt)
    p_yt = p3.sum(axis=1)
    p_y = joint.p.sum(axis=0)
    conds, tc = (), None
    if arities is not None:
        present = (p_y > 0.0).nonzero()[0]
        cond = p_yt[0, present] / p_y[present, None]  # q(T|y) of every class with mass
        conds = (cond, *_coordinate_marginals(cond, arities))
    (h_xy,), (h_x,), (h_y,), h_xyt, h_xt, h_yt, h_t, *h_conds = _entropies(
        joint.p[None], joint.p.sum(axis=1)[None], p_y[None],
        p3, p3.sum(axis=2), p_yt, p_yt.sum(axis=1), *conds,
    )
    if conds:
        tc = np.zeros(joint.ny)
        tc[present] = sum(h_conds[1:], 0.0) - h_conds[0]
    return InfoReport(
        H_Y=float(h_y),
        H_Y_given_T=h_yt - h_t,
        I_XT=h_x + h_t - h_xt,
        I_YT=h_y + h_t - h_yt,
        I_XT_given_Y=h_xy + h_yt - h_y - h_xyt,
        I_XY_given_T=h_xt + h_yt - h_t - h_xyt,
        TC_given_y=tc,
    )


def _coordinate_marginals(tables: np.ndarray, arities: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The (n, arity) marginals of each latent coordinate of a C-contiguous (n, nt) stack of distributions.

    The stack axis is outermost, so each row's marginals are summed in the
    order of that row alone, and equal them bit for bit.
    """
    cond = tables.reshape(tables.shape[0], *arities)
    return tuple(
        np.add.reduce(cond, axis=tuple(a + 1 for a in range(len(arities)) if a != axis))
        for axis in range(len(arities))
    )


def info_report(joint: DiscreteJoint, enc: DiscreteEncoder) -> InfoReport:
    """All information quantities by exhaustive summation over (x, y, t)."""
    _check_rows(joint, enc)
    stacked = _info_pass(joint, enc.q[None], enc.arities)
    return InfoReport(
        H_Y=stacked.H_Y,
        H_Y_given_T=float(stacked.H_Y_given_T[0]),
        I_XT=float(stacked.I_XT[0]),
        I_YT=float(stacked.I_YT[0]),
        I_XT_given_Y=float(stacked.I_XT_given_Y[0]),
        I_XY_given_T=float(stacked.I_XY_given_T[0]),
        TC_given_y=stacked.TC_given_y,
    )


@dataclass(frozen=True)
class ObjectiveValues:
    """The three bottleneck objectives evaluated on one InfoReport."""

    l_ib: float
    l_cib: float
    sufficiency_objective: float


def objective_values(report: InfoReport, beta: float, beta_prime: float) -> ObjectiveValues:
    """Plain bottleneck loss, class-conditional loss, and the sufficiency form.

    ``l_ib = H(Y|T) + beta I(X;T)``, ``l_cib = H(Y|T) + beta' I(X;T|Y)`` and
    the sufficiency form ``I(X;Y|T) + beta' I(X;T|Y)``, which differs from
    l_cib only by a constant independent of the encoder.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if not 0.0 <= beta_prime < math.inf:
        raise ValueError(f"beta_prime must be nonnegative and finite, got {beta_prime}")
    return ObjectiveValues(
        l_ib=report.H_Y_given_T + beta * report.I_XT,
        l_cib=report.H_Y_given_T + beta_prime * report.I_XT_given_Y,
        sufficiency_objective=report.I_XY_given_T + beta_prime * report.I_XT_given_Y,
    )


@dataclass(frozen=True)
class EquivalenceScan:
    """Argmin sets of the two objectives over one encoder family."""

    beta: float
    beta_prime: float
    argmin_ib: tuple[int, ...]
    argmin_cib: tuple[int, ...]
    l_ib: np.ndarray
    l_cib: np.ndarray

    @property
    def coincide(self) -> bool:
        return self.argmin_ib == self.argmin_cib


def equivalence_scan(
    joint: DiscreteJoint,
    encoders: Sequence[DiscreteEncoder],
    beta: float,
    tie_tol: float = 1e-10,
) -> EquivalenceScan:
    """Check that both objectives pick the same minimizers over a finite family.

    Ties are resolved as argmin *sets*: every encoder within ``tie_tol`` of
    the family minimum belongs to the set.  The family is evaluated in one
    stacked pass per latent alphabet size, the pass ``info_report`` makes for
    one encoder, so the values match it bit for bit.
    """
    if not encoders:
        raise ValueError("encoder family must be non-empty")
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"beta must lie in [0, 1), got {beta}")
    for enc in encoders:
        _check_rows(joint, enc)
    beta_prime = beta_to_beta_prime(beta)
    groups: dict[int, list[int]] = {}
    for k, enc in enumerate(encoders):
        groups.setdefault(enc.nt, []).append(k)
    l_ib = np.empty(len(encoders))
    l_cib = np.empty(len(encoders))
    for members in groups.values():
        stacked = _info_pass(joint, np.stack([encoders[k].q for k in members]))
        values = objective_values(stacked, beta, beta_prime)
        l_ib[members] = values.l_ib
        l_cib[members] = values.l_cib
    argmin_ib = tuple(int(k) for k in np.flatnonzero(l_ib <= l_ib.min() + tie_tol))
    argmin_cib = tuple(int(k) for k in np.flatnonzero(l_cib <= l_cib.min() + tie_tol))
    return EquivalenceScan(
        beta=beta,
        beta_prime=beta_prime,
        argmin_ib=argmin_ib,
        argmin_cib=argmin_cib,
        l_ib=l_ib,
        l_cib=l_cib,
    )


def _factor_stacks(factors: Sequence[Sequence[np.ndarray]], arities: tuple[int, ...]) -> list[np.ndarray]:
    """One (classes, arity) array per coordinate, whose row y is class y's factor."""
    return [np.concatenate([cf[j].ravel() for cf in factors]).reshape(len(factors), a) for j, a in enumerate(arities)]


def _not_distributions(rows: np.ndarray) -> np.ndarray:
    """Which rows of an (n, arity) stack are not distributions.

    A row is one if no entry is negative and its sum, ``row.sum()`` bit for
    bit, lies within 1e-12 of 1.  A NaN or infinite entry makes the sum NaN
    or infinite, so the sum test rejects non-finite rows too.
    """
    with np.errstate(invalid="ignore", over="ignore"):  # inf + -inf, or a finite row whose sum overflows
        sums = np.add.reduce(rows, axis=1)
    return np.logical_or.reduce(rows < 0.0, axis=1) | ~(np.abs(sums - 1.0) <= 1e-12)


@dataclass(frozen=True)
class ProductSurrogate:
    """Per-class product distribution over the latent coordinates.

    ``factors[y][j]`` is the class-y marginal over coordinate j's alphabet.
    Construction copies them into one read-only (classes, arity) stack per
    coordinate (``optimal_product_surrogate`` hands over the ones it summed),
    checks each stack in one pass and multiplies them out to the read-only
    (classes, nt) ``table``: row y is class y's joint table over the product
    alphabet, in C order.  A factor is a read-only row of its stack, so the
    checks and the table always hold.  Alphabets above
    ``MAX_JOINT_OUTCOMES`` outcomes are rejected, as no encoder has one.
    """

    factors: tuple[tuple[np.ndarray, ...], ...]
    table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        given = tuple(tuple(np.asarray(f, dtype=np.float64) for f in class_factors) for class_factors in self.factors)
        arities = tuple(f.size for f in given[0]) if given else ()
        # classes are checked in order, so a bad factor before the first
        # class of other arities is named first
        shared = next((y for y, cf in enumerate(given) if tuple(f.size for f in cf) != arities), len(given))
        self._set_stacks(len(given), _factor_stacks(given[:shared], arities), shared < len(given))

    def _set_stacks(self, count: int, stacks: Sequence[np.ndarray], mixed: bool = False) -> None:
        """Check the (classes, arity) ``stacks`` as :func:`_checked_table` does, freeze them and take their rows."""
        object.__setattr__(self, "table", _checked_table(count, stacks, mixed))
        for f in stacks:
            f.flags.writeable = False
        object.__setattr__(self, "factors", tuple(tuple(f[y] for f in stacks) for y in range(count)))

    @classmethod
    def _of_stacks(cls, count: int, stacks: Sequence[np.ndarray]) -> ProductSurrogate:
        """The surrogate whose factor (y, j) is ``stacks[j][y]``, checked as the constructor checks it, and frozen."""
        surrogate = object.__new__(cls)
        surrogate._set_stacks(count, stacks)
        return surrogate

    @classmethod
    def _moved(cls, base: ProductSurrogate, y: int, j: int, factor: np.ndarray, table: np.ndarray) -> ProductSurrogate:
        """``base`` with factor (y, j) replaced by ``factor``, a read-only move of it, and its ``table``.

        The other factors are ``base``'s, checked when it was built.
        """
        class_factors = base.factors[y][:j] + (factor,) + base.factors[y][j + 1 :]
        surrogate = object.__new__(cls)
        object.__setattr__(surrogate, "factors", base.factors[:y] + (class_factors,) + base.factors[y + 1 :])
        object.__setattr__(surrogate, "table", table)
        return surrogate

    @property
    def class_count(self) -> int:
        return len(self.factors)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors[0])


def _checked_table(count: int, stacks: Sequence[np.ndarray], mixed: bool = False) -> np.ndarray:
    """The read-only table of ``count`` classes from their (classes, arity) factor stacks, once they pass:
    classes, then each factor in class order, then one arity (``mixed`` fails it), then the outcome cap."""
    if not count:
        raise ValueError("need at least one class")
    bad = np.array([_not_distributions(f) for f in stacks]).T
    if np.logical_or.reduce(bad, axis=None):  # bad is (classes, coordinates)
        y, j = np.argwhere(bad)[0]
        raise ValueError(f"factor (class {y}, coordinate {j}) is not a distribution")
    if mixed:
        raise ValueError("all classes must share the coordinate arities")
    nt = math.prod(f.shape[1] for f in stacks)
    if nt > MAX_JOINT_OUTCOMES:
        raise ValueError(f"product alphabet has {nt} outcomes, cap is {MAX_JOINT_OUTCOMES}")
    table = _expand_rows(count, stacks)
    table.flags.writeable = False
    return table


def _expand_rows(count: int, columns: Sequence[np.ndarray]) -> np.ndarray:
    """(count, nt) table whose row k is the product of the factors ``columns[0][k]``, ``columns[1][k]``, ...

    The products are taken as ((f0 * f1) * f2) ..., after an exact 1.0 * f0,
    with the last coordinate varying fastest; no columns give rows of one 1.0.
    """
    rows = np.ones((count, 1))
    for f in columns:
        rows = (rows[:, :, None] * f[:, None, :]).reshape(rows.shape[0], -1)
    return rows


@dataclass(frozen=True)
class DecompositionReport:
    """Both sides of the surrogate-KL decomposition.

    lhs = E_{XY} KL(q(T|X) || r(T|Y));  rhs = I(X;T|Y) + E_Y KL(q(T|Y) || r(T|Y)).
    """

    lhs: float
    i_xt_given_y: float
    kl_residual: float

    @property
    def rhs(self) -> float:
        return self.i_xt_given_y + self.kl_residual

    @property
    def gap(self) -> float:
        if math.isinf(self.lhs) and math.isinf(self.rhs):
            return 0.0
        return self.lhs - self.rhs


def decomposition_check(
    joint: DiscreteJoint, enc: DiscreteEncoder, surrogate: ProductSurrogate,
    report: InfoReport | None = None, t_given_y: np.ndarray | None = None,
) -> DecompositionReport:
    """Verify lhs = I(X;T|Y) + residual for a per-class product surrogate.

    A surrogate zero where the induced q(T|Y) has mass yields an infinite KL,
    reported as such on both sides.  ``report`` and ``t_given_y``, if given,
    are ``info_report`` and ``induced`` of this pair, which are then not redone.
    """
    _check_rows(joint, enc)
    if surrogate.class_count != joint.ny or surrogate.arities != enc.arities:
        raise ValueError("surrogate must cover the joint's classes and the encoder's alphabet")
    xs, ys = (joint.p > 0.0).nonzero()  # x-major
    t_given_y = induced(joint, enc) if t_given_y is None else t_given_y
    p_y = joint.p.sum(axis=0)
    present = (p_y > 0.0).nonzero()[0]
    # the cells' KLs, then the classes', in one pass
    kls = _kl_rows(np.concatenate((enc.q[xs], t_given_y[present])), surrogate.table[np.concatenate((ys, present))])
    lhs = 0.0
    for weight, kl in zip(joint.p[xs, ys], kls):
        lhs += weight * kl
    residual = 0.0
    for weight, kl in zip(p_y[present], kls[xs.size:]):
        residual += weight * kl
    if report is None:  # info_report's stacked pass, without its total correlations
        i_xt_given_y = float(_info_pass(joint, enc.q[None]).I_XT_given_Y[0])
    else:
        i_xt_given_y = report.I_XT_given_Y
    return DecompositionReport(lhs=lhs, i_xt_given_y=i_xt_given_y, kl_residual=residual)


def optimal_product_surrogate(t_given_y: np.ndarray, arities: Sequence[int]) -> ProductSurrogate:
    """Per-class product of coordinate marginals of q(T|Y).

    This is the product surrogate minimizing the average KL from q(T|Y); the
    attained value per class is exactly the conditional total correlation.
    """
    t_given_y = np.ascontiguousarray(t_given_y, dtype=np.float64)
    arities = tuple(int(a) for a in arities)
    if t_given_y.ndim != 2 or math.prod(arities) != t_given_y.shape[1]:
        raise ValueError("conditional table does not match the arities")
    return ProductSurrogate._of_stacks(t_given_y.shape[0], _coordinate_marginals(t_given_y, arities))


def _checked_samples(samples: Sequence[tuple[int, int]], enc: DiscreteEncoder) -> np.ndarray:
    """Samples as an (N, 2) index array; rejects non-integer indices or ones beyond intp, x outside [0, nx) and y < 0.

    A plain ndarray of an integer dtype that fits ``intp`` is whole by its
    dtype; anything else is scanned entry by entry, and bools are rejected.
    """
    if type(samples) is np.ndarray and samples.dtype.kind in "iu" and np.can_cast(samples.dtype, np.intp):
        pairs, whole = samples, True
    else:
        pairs = np.asarray(samples, dtype=object)
        whole = all(isinstance(v, (int, np.integer)) and type(v) is not bool for v in pairs.flat)
    bad = ValueError("samples must be a nonempty sequence of (x, y) integer index pairs")
    if not whole or pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise bad
    try:
        samples = pairs.astype(np.intp, copy=False)
    except OverflowError:  # an integer no index can hold
        raise bad from None
    low, high = np.minimum.reduce(samples).tolist(), np.maximum.reduce(samples).tolist()  # per column: x, y
    if low[0] < 0 or high[0] >= enc.nx:
        raise ValueError(f"sample feature index outside [0, {enc.nx})")
    if low[1] < 0:
        raise ValueError("sample class label is negative")
    return samples


def _mean(values: np.ndarray) -> float:
    """``np.mean`` of a 1-D float array, bit for bit, without its wrapper."""
    return float(np.add.reduce(values) / values.size)


def sample_kl_objective(
    samples: Sequence[tuple[int, int]], enc: DiscreteEncoder, surrogate: ProductSurrogate
) -> float:
    """(1/N) sum_i KL(q(T|x_i) || r(T|y_i)) for a candidate product surrogate over the encoder's alphabet."""
    if surrogate.arities != enc.arities:
        raise ValueError(f"surrogate arities {surrogate.arities} differ from the encoder's {enc.arities}")
    xs, ys = _checked_samples(samples, enc).T
    if np.maximum.reduce(ys) >= surrogate.class_count:
        raise ValueError(f"sample class label outside the surrogate's {surrogate.class_count} classes")
    return _mean(_kl_rows(enc.q[xs], surrogate.table[ys]))


@dataclass(frozen=True)
class OptimalityReport:
    """Closed-form optimum vs the compression + total-correlation expression."""

    lhs_min: float
    rhs: float
    surrogate: ProductSurrogate

    @property
    def gap(self) -> float:
        return self.lhs_min - self.rhs


def surrogate_optimality_check(
    samples: Sequence[tuple[int, int]], enc: DiscreteEncoder
) -> OptimalityReport:
    """Check the closed-form optimal product surrogate against its value.

    The minimum over per-class product surrogates of the average sample KL
    is attained by the product of conditional coordinate marginals; its value
    equals the average of KL(q(T|x_i) || q(T|y_i)) plus the conditional total
    correlation TC(T|y_i).  Returns both sides.
    """
    samples = _checked_samples(samples, enc)
    xs, ys = samples.T
    # N samples cannot fill N + 1 classes, so a label >= N leaves a class below N empty
    counts = np.bincount(np.minimum(ys, ys.size))
    empty = (counts == 0).nonzero()[0]
    if empty.size:
        raise ValueError(f"class {int(empty[0])} has no samples")
    t_given_y = np.zeros((counts.size, enc.nt))
    q_x = enc.q[xs]
    np.add.at(t_given_y, ys, q_x)  # sample by sample, in order
    t_given_y /= counts[:, None]
    best = optimal_product_surrogate(t_given_y, enc.arities)
    expanded = best.table
    # in one pass: each sample's KL to its class's surrogate (sample_kl_objective
    # of checked samples), each class's total correlation, each sample's KL to q(T|y)
    kls = _kl_rows(np.concatenate((q_x, t_given_y, q_x)), np.concatenate((expanded[ys], expanded, t_given_y[ys])))
    n, classes = ys.size, counts.size
    lhs_min = _mean(kls[:n])
    rhs = _mean(kls[n + classes:] + kls[n:n + classes][ys])
    return OptimalityReport(lhs_min=lhs_min, rhs=rhs, surrogate=best)


def perturbed_product_surrogates(
    surrogate: ProductSurrogate, step: float = 0.01
) -> Iterator[ProductSurrogate]:
    """All single-factor mass moves of size ``step`` (clipped, renormalized).

    For every class, coordinate, and ordered symbol pair (a, b) with mass at
    a, moves min(step, mass_a) from a to b.  Serves as an independent
    line of evidence that no nearby product surrogate beats a claimed optimum.

    The moves of one coordinate, over every class, are one read-only
    (moves, arity) array, made by the subtract, add and division by the row's
    sum of a move made alone.  A move of a checked factor stays nonnegative
    with a sum within a few ulps of 1, so no candidate is checked again.  Each
    shares its other factors and takes its table from one expansion of all moves.
    """
    if not step > 0.0:  # NaN fails it too
        raise ValueError(f"step must be positive, got {step}")
    classes = surrogate.class_count
    stacks = _factor_stacks(surrogate.factors, surrogate.arities)
    blocks = []
    for j, factors in enumerate(stacks):
        per_source = factors.shape[1] - 1
        source_class, sources = (factors > 0.0).nonzero()  # class-major, then source symbol a
        others = np.arange(per_source)
        targets = others + (others >= sources[:, None])  # every b != a, in order
        move_class = source_class.repeat(per_source)
        rows = np.arange(move_class.size)
        delta = np.minimum(step, factors[source_class, sources]).repeat(per_source)
        moved = factors[move_class]
        moved[rows, sources.repeat(per_source)] -= delta
        moved[rows, targets.ravel()] += delta
        moved /= np.add.reduce(moved, axis=1, keepdims=True)
        moved.flags.writeable = False
        tables = None
        if rows.size:
            tables = surrogate.table[None].repeat(rows.size, axis=0)
            columns = [moved if i == j else f[move_class] for i, f in enumerate(stacks)]
            tables[rows, move_class] = _expand_rows(rows.size, columns)
            tables.flags.writeable = False
        starts = move_class.searchsorted(np.arange(classes + 1)).tolist()  # each class's moves
        blocks.append((moved, tables, starts))
    for y in range(classes):
        for j, (moved, tables, starts) in enumerate(blocks):
            for k in range(starts[y], starts[y + 1]):
                yield ProductSurrogate._moved(surrogate, y, j, moved[k], tables[k])
