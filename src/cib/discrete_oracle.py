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
I(X;T|Y) from it.  Sample KLs take one pass over rows.  Every entropy and KL
is still summed whole per encoder or row, so batched values equal the
per-encoder ones bit for bit.
Non-integer, out-of-range or negative sample indices are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "MAX_JOINT_OUTCOMES",
    "DiscreteJoint",
    "DiscreteEncoder",
    "InducedDistributions",
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
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log(p[mask])
    return out


def entropy(p: np.ndarray) -> float:
    """Shannon entropy in nats with 0 log 0 := 0."""
    return float(-np.sum(_xlogx(np.asarray(p, dtype=np.float64))))


def _entropies(tables: np.ndarray) -> np.ndarray:
    """``entropy(tables[k])`` for every k of a C-contiguous stack.

    Each row of the reshape is one table in C order, summed by one reduction
    as ``entropy`` sums it, so the values are equal bit for bit.
    """
    return -np.sum(_xlogx(tables).reshape(tables.shape[0], -1), axis=1)


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

    Rows where both sides are strictly positive take one batched sum; the
    others (zeros, NaN) go through ``kl_discrete`` for its 0 log 0 and +inf.
    """
    out = np.empty(p.shape[0])
    full = np.all(p > 0.0, axis=1) & np.all(q > 0.0, axis=1)
    pf, qf = p[full], q[full]
    out[full] = np.sum(pf * (np.log(pf) - np.log(qf)), axis=1)
    for i in np.flatnonzero(~full):
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
        if np.any(self.p < 0.0):
            raise ValueError("joint probabilities must be nonnegative")
        if abs(float(self.p.sum()) - 1.0) > 1e-12:
            raise ValueError(f"joint table sums to {float(self.p.sum())}, not 1")

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
        nt = int(np.prod(self.arities))
        if nt != self.q.shape[1]:
            raise ValueError(f"arities {self.arities} imply {nt} outcomes, table has {self.q.shape[1]}")
        if nt > MAX_JOINT_OUTCOMES:
            raise ValueError(f"product alphabet has {nt} outcomes, cap is {MAX_JOINT_OUTCOMES}")
        if np.any(self.q < 0.0):
            raise ValueError("encoder probabilities must be nonnegative")
        rows = self.q.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            raise ValueError("each encoder row must sum to 1")

    @property
    def nx(self) -> int:
        return self.q.shape[0]

    @property
    def nt(self) -> int:
        return self.q.shape[1]


@dataclass(frozen=True)
class InducedDistributions:
    """Bayes-rule marginalizations of the encoder through the joint.

    Rows conditioned on an outcome of probability zero are undefined and
    filled with NaN rather than fabricated.
    """

    t_given_y: np.ndarray
    y_given_t: np.ndarray
    t_marginal: np.ndarray


def induced(joint: DiscreteJoint, enc: DiscreteEncoder) -> InducedDistributions:
    """Exact q(T|Y), q(Y|T) and q(T) induced by the encoder."""
    _check_rows(joint, enc)
    p_y = joint.p.sum(axis=0)
    joint_yt = joint.p.T @ enc.q  # (ny, nt): q(y, t)
    q_t = joint_yt.sum(axis=0)

    t_given_y = np.full_like(joint_yt, np.nan)
    pos_y = p_y > 0.0
    t_given_y[pos_y] = joint_yt[pos_y] / p_y[pos_y, None]

    y_given_t = np.full((enc.nt, joint.ny), np.nan)
    pos_t = q_t > 0.0
    y_given_t[pos_t] = joint_yt.T[pos_t] / q_t[pos_t, None]
    return InducedDistributions(t_given_y=t_given_y, y_given_t=y_given_t, t_marginal=q_t)


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


def _info_pass(joint: DiscreteJoint, q: np.ndarray) -> tuple[InfoReport, np.ndarray]:
    """An :class:`InfoReport` of a C-contiguous (K, nx, nt) stack of encoder tables, and q(y, t).

    The five per-encoder quantities are (K,) arrays and ``TC_given_y`` is None.
    Each entropy is one reduction per encoder, so a value is the same alone and in any stack.
    """
    h_xy = entropy(joint.p)
    h_x = entropy(joint.p.sum(axis=1))
    h_y = entropy(joint.p.sum(axis=0))
    p3 = joint.p[None, :, :, None] * q[:, :, None, :]  # (K, nx, ny, nt)
    p_yt = p3.sum(axis=1)
    h_xyt = _entropies(p3)
    h_xt = _entropies(p3.sum(axis=2))
    h_yt = _entropies(p_yt)
    h_t = _entropies(p_yt.sum(axis=1))
    return InfoReport(
        H_Y=h_y,
        H_Y_given_T=h_yt - h_t,
        I_XT=h_x + h_t - h_xt,
        I_YT=h_y + h_t - h_yt,
        I_XT_given_Y=h_xy + h_yt - h_y - h_xyt,
        I_XY_given_T=h_xt + h_yt - h_t - h_xyt,
        TC_given_y=None,
    ), p_yt


def _coordinate_marginals(table: np.ndarray, arities: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The marginal of each latent coordinate of one distribution over the product alphabet."""
    cond = table.reshape(arities)
    return tuple(
        cond.sum(axis=tuple(a for a in range(cond.ndim) if a != axis)) for axis in range(cond.ndim)
    )


def info_report(joint: DiscreteJoint, enc: DiscreteEncoder) -> InfoReport:
    """All information quantities by exhaustive summation over (x, y, t)."""
    _check_rows(joint, enc)
    stacked, p_yt = _info_pass(joint, enc.q[None])
    p_y = joint.p.sum(axis=0)
    tc = np.zeros(joint.ny)
    for y in np.flatnonzero(p_y > 0.0):
        cond = p_yt[0, y] / p_y[y]
        tc[y] = sum(entropy(m) for m in _coordinate_marginals(cond, enc.arities)) - entropy(cond)
    per_encoder = ("H_Y_given_T", "I_XT", "I_YT", "I_XT_given_Y", "I_XY_given_T")
    return replace(stacked, TC_given_y=tc, **{name: float(getattr(stacked, name)[0]) for name in per_encoder})


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
    if beta_prime < 0.0:
        raise ValueError(f"beta_prime must be nonnegative, got {beta_prime}")
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
    beta_prime = beta / (1.0 - beta)
    groups: dict[int, list[int]] = {}
    for k, enc in enumerate(encoders):
        groups.setdefault(enc.nt, []).append(k)
    l_ib = np.empty(len(encoders))
    l_cib = np.empty(len(encoders))
    for members in groups.values():
        stacked, _ = _info_pass(joint, np.stack([encoders[k].q for k in members]))
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


@dataclass(frozen=True)
class ProductSurrogate:
    """Per-class product distribution over the latent coordinates.

    ``factors[y][j]`` is the class-y marginal over coordinate j's alphabet.
    ``expand(y)`` multiplies the factors out to a joint table in C order.
    """

    factors: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        frozen = tuple(
            tuple(np.asarray(f, dtype=np.float64) for f in class_factors)
            for class_factors in self.factors
        )
        object.__setattr__(self, "factors", frozen)
        if not self.factors:
            raise ValueError("need at least one class")
        arities = tuple(f.size for f in self.factors[0])
        for y, class_factors in enumerate(self.factors):
            if tuple(f.size for f in class_factors) != arities:
                raise ValueError("all classes must share the coordinate arities")
            for j, f in enumerate(class_factors):
                if not np.all(np.isfinite(f)) or np.any(f < 0.0) or abs(float(f.sum()) - 1.0) > 1e-12:
                    raise ValueError(f"factor (class {y}, coordinate {j}) is not a distribution")

    @property
    def class_count(self) -> int:
        return len(self.factors)

    @property
    def arities(self) -> tuple[int, ...]:
        return tuple(f.size for f in self.factors[0])

    def expand(self, y: int) -> np.ndarray:
        return reduce(np.multiply.outer, self.factors[y]).ravel()


def _expand_all(surrogate: ProductSurrogate) -> np.ndarray:
    """(classes, nt) table whose row y is ``surrogate.expand(y)``."""
    return np.stack([surrogate.expand(y) for y in range(surrogate.class_count)])


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
    joint: DiscreteJoint, enc: DiscreteEncoder, surrogate: ProductSurrogate
) -> DecompositionReport:
    """Verify lhs = I(X;T|Y) + residual for a per-class product surrogate.

    A surrogate zero where the induced q(T|Y) has mass yields an infinite KL,
    reported as such on both sides.
    """
    _check_rows(joint, enc)
    if surrogate.class_count != joint.ny or surrogate.arities != enc.arities:
        raise ValueError("surrogate must cover the joint's classes and the encoder's alphabet")
    expanded = _expand_all(surrogate)
    xs, ys = np.nonzero(joint.p > 0.0)  # x-major
    lhs = 0.0
    for weight, kl in zip(joint.p[xs, ys], _kl_rows(enc.q[xs], expanded[ys])):
        lhs += weight * kl
    ind = induced(joint, enc)
    p_y = joint.p.sum(axis=0)
    residual = 0.0
    for y in range(joint.ny):
        if p_y[y] > 0.0:
            residual += p_y[y] * kl_discrete(ind.t_given_y[y], expanded[y])
    i_xt_given_y = float(_info_pass(joint, enc.q[None])[0].I_XT_given_Y[0])
    return DecompositionReport(lhs=lhs, i_xt_given_y=i_xt_given_y, kl_residual=residual)


def optimal_product_surrogate(t_given_y: np.ndarray, arities: Sequence[int]) -> ProductSurrogate:
    """Per-class product of coordinate marginals of q(T|Y).

    This is the product surrogate minimizing the average KL from q(T|Y); the
    attained value per class is exactly the conditional total correlation.
    """
    t_given_y = np.asarray(t_given_y, dtype=np.float64)
    arities = tuple(int(a) for a in arities)
    if t_given_y.ndim != 2 or int(np.prod(arities)) != t_given_y.shape[1]:
        raise ValueError("conditional table does not match the arities")
    return ProductSurrogate(tuple(_coordinate_marginals(row, arities) for row in t_given_y))


def _checked_samples(samples: Sequence[tuple[int, int]], enc: DiscreteEncoder) -> np.ndarray:
    """Samples as an (N, 2) index array; rejects non-integer indices, x outside [0, nx) and y < 0."""
    pairs = np.asarray(samples, dtype=object)
    whole = all(isinstance(v, (int, np.integer)) and type(v) is not bool for v in pairs.flat)
    if not whole or pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
        raise ValueError("samples must be a nonempty sequence of (x, y) integer index pairs")
    samples = pairs.astype(np.intp)
    xs, ys = samples.T
    if np.any((xs < 0) | (xs >= enc.nx)):
        raise ValueError(f"sample feature index outside [0, {enc.nx})")
    if np.any(ys < 0):
        raise ValueError("sample class label is negative")
    return samples


def sample_kl_objective(
    samples: Sequence[tuple[int, int]], enc: DiscreteEncoder, surrogate: ProductSurrogate
) -> float:
    """(1/N) sum_i KL(q(T|x_i) || r(T|y_i)) for a candidate product surrogate."""
    xs, ys = _checked_samples(samples, enc).T
    if np.any(ys >= surrogate.class_count):
        raise ValueError(f"sample class label outside the surrogate's {surrogate.class_count} classes")
    return float(np.mean(_kl_rows(enc.q[xs], _expand_all(surrogate)[ys])))


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
    counts = np.bincount(ys)
    if np.any(counts == 0):
        raise ValueError(f"class {int(np.flatnonzero(counts == 0)[0])} has no samples")
    t_given_y = np.zeros((counts.size, enc.nt))
    np.add.at(t_given_y, ys, enc.q[xs])  # sample by sample, in order
    t_given_y /= counts[:, None]
    best = optimal_product_surrogate(t_given_y, enc.arities)
    lhs_min = sample_kl_objective(samples, enc, best)
    tc = _kl_rows(t_given_y, _expand_all(best))
    rhs = float(np.mean(_kl_rows(enc.q[xs], t_given_y[ys]) + tc[ys]))
    return OptimalityReport(lhs_min=lhs_min, rhs=rhs, surrogate=best)


def perturbed_product_surrogates(
    surrogate: ProductSurrogate, step: float = 0.01
) -> Iterator[ProductSurrogate]:
    """All single-factor mass moves of size ``step`` (clipped, renormalized).

    For every class, coordinate, and ordered symbol pair (a, b) with mass at
    a, moves min(step, mass_a) from a to b.  Serves as an independent
    line of evidence that no nearby product surrogate beats a claimed optimum.
    """
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
