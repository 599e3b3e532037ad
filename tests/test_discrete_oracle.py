"""Exact-oracle identities over finite probability tables."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from cib import discrete_oracle
from cib.discrete_oracle import (
    DiscreteEncoder,
    DiscreteJoint,
    ProductSurrogate,
    decomposition_check,
    entropy,
    equivalence_scan,
    induced,
    info_report,
    kl_discrete,
    objective_values,
    optimal_product_surrogate,
    perturbed_product_surrogates,
    sample_kl_objective,
    surrogate_optimality_check,
)
from cib.cli import run
from helpers import (
    loop_decomposition_check,
    loop_equivalence_scan,
    loop_sample_kl_objective,
    loop_surrogate_optimality_check,
    random_arities,
    random_encoder,
    random_joint,
    random_product_surrogate,
    random_samples,
    sparse_encoder,
    sparse_joint,
    sparse_product_surrogate,
)


class TestValidation:
    def test_joint_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DiscreteJoint(np.full((2, 2), 0.3))

    def test_joint_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            DiscreteJoint(np.array([[1.2, -0.2], [0.0, 0.0]]))

    def test_encoder_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            DiscreteEncoder(np.array([[0.5, 0.4]]), (2,))

    @pytest.mark.parametrize("make", [
        lambda: DiscreteJoint(np.array([[np.nan, 0.5], [0.25, 0.25]])),
        lambda: DiscreteEncoder(np.array([[np.nan, 0.5], [0.5, 0.5]]), (2,)),
    ])
    def test_nan_entry_rejected(self, make):
        with pytest.raises(ValueError, match="sum"):
            make()

    def test_arities_must_match_columns(self):
        with pytest.raises(ValueError):
            DiscreteEncoder(np.array([[0.5, 0.5]]), (3,))

    def test_joint_alphabet_cap(self):
        q = np.full((1, 128), 1.0 / 128.0)
        with pytest.raises(ValueError, match="cap"):
            DiscreteEncoder(q, (2,) * 7)

    def test_kl_support_mismatch_is_infinite(self):
        assert kl_discrete(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == math.inf

    def test_entropy_of_point_mass_is_zero(self):
        assert entropy(np.array([1.0, 0.0, 0.0])) == 0.0


class TestInduced:
    def test_identity_encoder_recovers_class_posterior(self):
        rng = np.random.default_rng(0)
        joint = random_joint(rng, 3, 2)
        enc = DiscreteEncoder(np.eye(3), (3,))
        ind = induced(joint, enc)
        p_x = joint.p.sum(axis=1)
        p_y_given_x = joint.p / p_x[:, None]
        np.testing.assert_allclose(ind.y_given_t, p_y_given_x, atol=1e-14, rtol=0)

    def test_constant_encoder_concentrates_t(self):
        rng = np.random.default_rng(1)
        joint = random_joint(rng, 3, 2)
        q = np.zeros((3, 4))
        q[:, 1] = 1.0
        enc = DiscreteEncoder(q, (4,))
        ind = induced(joint, enc)
        np.testing.assert_array_equal(ind.t_given_y[:, 1], [1.0, 1.0])
        assert ind.t_marginal[1] == pytest.approx(1.0, abs=1e-15)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        joint = random_joint(rng, 3, 2)
        enc = random_encoder(rng, 3, (4,))
        ind = induced(joint, enc)
        p_y = joint.p.sum(axis=0)
        for y in range(2):
            direct = sum(joint.p[x, y] / p_y[y] * enc.q[x] for x in range(3))
            np.testing.assert_allclose(ind.t_given_y[y], direct, atol=1e-14, rtol=0)

    def test_zero_mass_t_rows_marked_absent(self):
        joint = DiscreteJoint(np.array([[0.5], [0.5]]))
        q = np.array([[1.0, 0.0], [1.0, 0.0]])
        ind = induced(joint, DiscreteEncoder(q, (2,)))
        assert np.all(np.isnan(ind.y_given_t[1]))
        assert not np.any(np.isnan(ind.y_given_t[0]))


class TestInfoReport:
    def test_independent_t_has_no_information(self):
        rng = np.random.default_rng(3)
        joint = random_joint(rng, 4, 2)
        q = np.tile(np.array([0.25, 0.25, 0.5]), (4, 1))
        rep = info_report(joint, DiscreteEncoder(q, (3,)))
        assert abs(rep.I_XT) < 1e-14
        assert abs(rep.I_XT_given_Y) < 1e-14

    def test_bijective_encoder_uniform_x(self):
        joint = DiscreteJoint(np.full((4, 2), 0.125))
        rep = info_report(joint, DiscreteEncoder(np.eye(4), (4,)))
        assert rep.I_XT == pytest.approx(math.log(4.0), abs=1e-12)

    def test_chain_rule_and_nonnegativity_on_random_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
            arities = random_arities(rng)
            joint = random_joint(rng, nx, ny)
            enc = random_encoder(rng, nx, arities)
            rep = info_report(joint, enc)
            assert abs(rep.chain_rule_gap()) < 1e-12
            for q in (rep.H_Y, rep.H_Y_given_T, rep.I_XT, rep.I_YT,
                      rep.I_XT_given_Y, rep.I_XY_given_T):
                assert q >= -1e-12
            assert np.all(rep.TC_given_y >= -1e-12)

    def test_compression_and_fit_jointly_achievable(self):
        # Y a deterministic function of X; the class-indicator encoder hits
        # H(Y|T) = 0 and I(X;T|Y) = 0 simultaneously
        p = np.zeros((4, 2))
        p[:, 0] = [0.3, 0.2, 0.0, 0.0]
        p[:, 1] = [0.0, 0.0, 0.4, 0.1]
        joint = DiscreteJoint(p)
        q = np.zeros((4, 2))
        q[[0, 1], 0] = 1.0
        q[[2, 3], 1] = 1.0
        rep = info_report(joint, DiscreteEncoder(q, (2,)))
        assert abs(rep.H_Y_given_T) < 1e-14
        assert abs(rep.I_XT_given_Y) < 1e-14


class TestObjectiveValues:
    def test_zero_beta_reduces_to_conditional_entropy(self):
        rng = np.random.default_rng(5)
        joint = random_joint(rng, 3, 2)
        enc = random_encoder(rng, 3, (2, 2))
        rep = info_report(joint, enc)
        vals = objective_values(rep, beta=0.0, beta_prime=0.0)
        assert vals.l_ib == rep.H_Y_given_T
        assert vals.l_cib == rep.H_Y_given_T

    def test_plain_objective_is_scaled_conditional_plus_entropy(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            joint = random_joint(rng, 4, 3)
            enc = random_encoder(rng, 4, (2, 3))
            rep = info_report(joint, enc)
            beta = 0.5
            beta_prime = beta / (1.0 - beta)
            vals = objective_values(rep, beta, beta_prime)
            assert vals.l_ib - (1.0 - beta) * vals.l_cib - beta * rep.H_Y == pytest.approx(
                0.0, abs=1e-12
            )

    def test_domain_checks(self):
        rng = np.random.default_rng(7)
        rep = info_report(random_joint(rng, 2, 2), random_encoder(rng, 2, (2,)))
        with pytest.raises(ValueError):
            objective_values(rep, beta=1.5, beta_prime=0.0)
        with pytest.raises(ValueError):
            objective_values(rep, beta=0.5, beta_prime=-1.0)

    @pytest.mark.parametrize("beta_prime", [float("nan"), float("inf"), -1.0])
    def test_beta_prime_out_of_range_rejected_naming_it(self, beta_prime):
        rng = np.random.default_rng(7)
        rep = info_report(random_joint(rng, 2, 2), random_encoder(rng, 2, (2,)))
        with pytest.raises(ValueError, match="beta_prime must be nonnegative and finite"):
            objective_values(rep, beta=0.5, beta_prime=beta_prime)


class TestEquivalenceScan:
    def test_single_encoder_family(self):
        rng = np.random.default_rng(8)
        joint = random_joint(rng, 3, 2)
        scan = equivalence_scan(joint, [random_encoder(rng, 3, (2, 2))], beta=0.4)
        assert scan.argmin_ib == scan.argmin_cib == (0,)

    def test_zero_beta_minimizes_conditional_entropy(self):
        rng = np.random.default_rng(9)
        joint = random_joint(rng, 3, 2)
        encoders = [random_encoder(rng, 3, (4,)) for _ in range(20)]
        scan = equivalence_scan(joint, encoders, beta=0.0)
        h = [info_report(joint, e).H_Y_given_T for e in encoders]
        assert scan.argmin_ib == (int(np.argmin(h)),)
        assert scan.coincide

    def test_random_families_coincide_across_betas(self):
        rng = np.random.default_rng(10)
        joint = random_joint(rng, 3, 2)
        encoders = [random_encoder(rng, 3, (4,)) for _ in range(50)]
        for beta in np.arange(0.1, 0.95, 0.1):
            scan = equivalence_scan(joint, encoders, beta=float(beta))
            assert scan.coincide

    def test_empty_family_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            equivalence_scan(random_joint(rng, 2, 2), [], beta=0.5)


class TestDecomposition:
    def test_random_instances_balance_exactly(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 4))
            arities = random_arities(rng)
            joint = random_joint(rng, nx, ny)
            enc = random_encoder(rng, nx, arities)
            factors = tuple(
                tuple(np.ones(a) / a if rng.random() < 0.3 else _rand_simplex(rng, a) for a in arities)
                for _ in range(ny)
            )
            surrogate = ProductSurrogate(factors)
            rep = decomposition_check(joint, enc, surrogate)
            assert abs(rep.gap) < 1e-12

    def test_optimal_surrogate_residual_is_total_correlation(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            joint = random_joint(rng, 4, 2)
            arities = (2, 2)
            enc = random_encoder(rng, 4, arities)
            ind = induced(joint, enc)
            best = optimal_product_surrogate(ind.t_given_y, arities)
            rep = decomposition_check(joint, enc, best)
            info = info_report(joint, enc)
            p_y = joint.p.sum(axis=0)
            expected = float(np.sum(p_y * info.TC_given_y))
            assert rep.kl_residual == pytest.approx(expected, abs=1e-12)
            assert abs(rep.gap) < 1e-12

    def test_conditionally_independent_encoder_with_matching_surrogate(self):
        # every row the same product distribution per class block
        joint = DiscreteJoint(np.array([[0.25, 0.25], [0.25, 0.25]]))
        f0, f1 = np.array([0.7, 0.3]), np.array([0.4, 0.6])
        row = np.outer(f0, f1).ravel()
        enc = DiscreteEncoder(np.stack([row, row]), (2, 2))
        surrogate = ProductSurrogate(((f0, f1), (f0, f1)))
        rep = decomposition_check(joint, enc, surrogate)
        assert rep.kl_residual == pytest.approx(0.0, abs=1e-14)
        assert rep.lhs == pytest.approx(rep.i_xt_given_y, abs=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_surrogate_factor_rejected(self, bad):
        with pytest.raises(ValueError, match="not a distribution"):
            ProductSurrogate(((np.array([bad, bad]),),))
        with pytest.raises(ValueError, match="not a distribution"):
            ProductSurrogate(((np.array([0.5, 0.5]), np.array([1.0, bad])),))

    def test_optimal_surrogate_of_an_empty_class_rejected(self):
        # the zero column leaves class 1 with no mass: its conditional is 0/0
        joint = DiscreteJoint(np.array([[0.5, 0.0], [0.5, 0.0]]))
        enc = DiscreteEncoder(np.array([[0.7, 0.3], [0.2, 0.8]]), (2,))
        with np.errstate(invalid="ignore"):
            t_given_y = induced(joint, enc).t_given_y
        with pytest.raises(ValueError, match="not a distribution"):
            optimal_product_surrogate(t_given_y, (2,))

    def test_unsupported_surrogate_reports_infinity(self):
        joint = DiscreteJoint(np.array([[0.5, 0.5]]))
        enc = DiscreteEncoder(np.array([[0.5, 0.5]]), (2,))
        surrogate = ProductSurrogate(((np.array([1.0, 0.0]),), (np.array([1.0, 0.0]),)))
        rep = decomposition_check(joint, enc, surrogate)
        assert rep.lhs == math.inf
        assert rep.kl_residual == math.inf
        assert rep.gap == 0.0


def _rand_simplex(rng, n):
    v = rng.uniform(0.05, 1.0, n)
    return v / v.sum()


class TestOptimalProductSurrogate:
    def test_product_rows_returned_unchanged(self):
        f0, f1 = np.array([0.2, 0.8]), np.array([0.5, 0.25, 0.25])
        row = np.outer(f0, f1).ravel()
        best = optimal_product_surrogate(row[None, :], (2, 3))
        np.testing.assert_allclose(best.factors[0][0], f0, atol=1e-15)
        np.testing.assert_allclose(best.factors[0][1], f1, atol=1e-15)

    def test_marginals_match_direct_coordinate_sums(self):
        # correlated two-bit distribution
        table = np.array([0.4, 0.1, 0.2, 0.3])
        best = optimal_product_surrogate(table[None, :], (2, 2))
        np.testing.assert_allclose(best.factors[0][0], [0.5, 0.5], atol=1e-15)
        np.testing.assert_allclose(best.factors[0][1], [0.6, 0.4], atol=1e-15)

    def test_attains_total_correlation_and_perturbations_never_improve(self):
        rng = np.random.default_rng(14)
        table = _rand_simplex(rng, 4)
        arities = (2, 2)
        best = optimal_product_surrogate(table[None, :], arities)
        attained = kl_discrete(table, best.expand(0))
        cond = table.reshape(arities)
        tc = entropy(cond.sum(axis=1)) + entropy(cond.sum(axis=0)) - entropy(table)
        assert attained == pytest.approx(tc, abs=1e-13)
        for cand in perturbed_product_surrogates(best, step=0.01):
            assert kl_discrete(table, cand.expand(0)) >= attained - 1e-10


    @pytest.mark.parametrize("step", [float("nan"), 0.0, -0.01])
    def test_step_that_is_not_positive_rejected_naming_it(self, step):
        best = optimal_product_surrogate(np.array([[0.4, 0.1, 0.2, 0.3]]), (2, 2))
        with pytest.raises(ValueError, match="step must be positive"):
            next(perturbed_product_surrogates(best, step=step))

    def test_each_candidate_checks_only_its_moved_factor(self, monkeypatch):
        """A search checks one factor per candidate: the rest were checked when the optimum was built."""
        rng = np.random.default_rng(15)
        enc = random_encoder(rng, 4, (2, 3))
        samples = random_samples(rng, 4, 3, 12)
        best = surrogate_optimality_check(samples, enc).surrogate
        checked = []
        check = discrete_oracle._not_distributions
        monkeypatch.setattr(discrete_oracle, "_not_distributions", lambda rows: checked.append(rows.shape) or check(rows))
        candidates = list(perturbed_product_surrogates(best, step=0.01))
        for cand in candidates:
            sample_kl_objective(samples, enc, cand)
        # per class: 2 sources x 1 target on the binary coordinate, 3 x 2 on the ternary one
        assert len(candidates) == 3 * (2 + 6)
        assert sum(rows for rows, _ in checked) == len(candidates)


    def test_alphabets_beyond_the_outcome_cap_are_rejected(self):
        """No encoder has 4^4 = 256 outcomes, so no surrogate has either; 4^3 = 64 is the cap."""
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="product alphabet has 256 outcomes, cap is 64"):
            random_product_surrogate(rng, 2, (4, 4, 4, 4))
        assert random_product_surrogate(rng, 2, (4, 4, 4)).table.shape == (2, 64)


class TestSurrogateOptimality:
    def test_identical_samples_reduce_to_row_total_correlation(self):
        rng = np.random.default_rng(15)
        enc = random_encoder(rng, 3, (2, 2))
        samples = [(1, 0)] * 5
        rep = surrogate_optimality_check(samples, enc)
        row = enc.q[1].reshape(2, 2)
        tc = entropy(row.sum(axis=1)) + entropy(row.sum(axis=0)) - entropy(enc.q[1])
        assert rep.lhs_min == pytest.approx(tc, abs=1e-13)
        assert rep.rhs == pytest.approx(tc, abs=1e-13)

    def test_product_rows_leave_only_kl_terms(self):
        f = [np.array([0.3, 0.7]), np.array([0.9, 0.1])]
        rows = [np.outer(f[0], f[1]).ravel(), np.outer(f[1], f[0]).ravel()]
        enc = DiscreteEncoder(np.stack(rows), (2, 2))
        samples = [(0, 0), (0, 0), (1, 1)]
        rep = surrogate_optimality_check(samples, enc)
        # per-class conditionals equal single product rows => zero TC
        assert rep.lhs_min == pytest.approx(0.0, abs=1e-14)
        assert rep.rhs == pytest.approx(0.0, abs=1e-14)

    def test_random_instance_equality_and_perturbation_search(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            enc = random_encoder(rng, 4, (2, 2))
            samples = random_samples(rng, 4, 2, 10)
            rep = surrogate_optimality_check(samples, enc)
            assert rep.lhs_min == pytest.approx(rep.rhs, abs=1e-10)
            base = sample_kl_objective(samples, enc, rep.surrogate)
            for cand in perturbed_product_surrogates(rep.surrogate, step=0.01):
                assert sample_kl_objective(samples, enc, cand) >= base - 1e-10

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(17)
        enc = random_encoder(rng, 3, (2,))
        with pytest.raises(ValueError, match="no samples"):
            surrogate_optimality_check([(0, 0), (1, 2)], enc)

    def test_a_far_label_names_the_empty_class_in_bounded_memory(self):
        """Two samples cannot fill the classes up to 10^7: class 1 is named without 10^7 counts."""
        enc = random_encoder(np.random.default_rng(18), 3, (2,))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="^class 1 has no samples$"):
                surrogate_optimality_check([(0, 0), (1, 10**7)], enc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


# nt from 1 to 64; (4,) and (2, 2), (8,) and (2, 2, 2), (64,) and (2,) * 6
# share a group in the stacked scan
ARITY_POOL = [(1,), (2,), (3,), (4,), (2, 2), (2, 3), (8,), (2, 2, 2), (3, 3, 3),
              (4, 4), (16, 4), (64,), (2,) * 6, (4, 4, 4)]


def _pick_arities(rng):
    return ARITY_POOL[int(rng.integers(0, len(ARITY_POOL)))]


class TestBatchedMatchesLoops:
    """The stacked family pass and the row-wise sample KLs against the loops in helpers."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence_scan_matches_per_encoder_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        for size in (1, 2, 7, 30):
            nx, ny = int(rng.integers(1, 8)), int(rng.integers(1, 5))
            zero_frac = float(rng.choice([0.0, 0.3, 0.6]))
            joint = sparse_joint(rng, nx, ny, zero_frac)
            encoders = [sparse_encoder(rng, nx, _pick_arities(rng), zero_frac) for _ in range(size)]
            for beta in (0.0, float(rng.uniform(0.0, 1.0)), 0.9):
                scan = equivalence_scan(joint, encoders, beta)
                ref = loop_equivalence_scan(joint, encoders, beta)
                assert scan.l_ib.tobytes() == ref.l_ib.tobytes()
                assert scan.l_cib.tobytes() == ref.l_cib.tobytes()
                assert (scan.argmin_ib, scan.argmin_cib) == (ref.argmin_ib, ref.argmin_cib)
                assert scan.beta_prime == ref.beta_prime

    def test_equivalence_scan_matches_with_an_empty_class(self):
        rng = np.random.default_rng(106)
        p = np.zeros((4, 3))
        p[:, [0, 2]] = sparse_joint(rng, 4, 2, 0.3).p
        joint = DiscreteJoint(p)
        encoders = [sparse_encoder(rng, 4, _pick_arities(rng), 0.3) for _ in range(12)]
        scan = equivalence_scan(joint, encoders, 0.4)
        ref = loop_equivalence_scan(joint, encoders, 0.4)
        assert scan.l_ib.tobytes() == ref.l_ib.tobytes()
        assert scan.l_cib.tobytes() == ref.l_cib.tobytes()

    @pytest.mark.parametrize("seed", range(6))
    def test_sample_kls_match_per_sample_loops(self, seed):
        rng = np.random.default_rng(200 + seed)
        objectives = []
        for _ in range(10):
            nx, ny = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            arities = _pick_arities(rng)
            zero_frac = float(rng.choice([0.0, 0.3, 0.6]))
            enc = sparse_encoder(rng, nx, arities, zero_frac)
            samples = random_samples(rng, nx, ny, int(rng.integers(ny, 25)))
            surrogate = sparse_product_surrogate(rng, ny, arities, zero_frac)
            value = sample_kl_objective(samples, enc, surrogate)
            assert value == loop_sample_kl_objective(samples, enc, surrogate)
            assert sample_kl_objective(samples.tolist(), enc, surrogate) == value
            objectives.append(value)

            rep = surrogate_optimality_check(samples, enc)
            ref = loop_surrogate_optimality_check(samples, enc)
            assert (rep.lhs_min, rep.rhs) == (ref.lhs_min, ref.rhs)
            for ours, theirs in zip(rep.surrogate.factors, ref.surrogate.factors):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(ours, theirs))
        # partial support reached: some objectives are +inf, some finite
        assert any(math.isinf(v) for v in objectives) and any(math.isfinite(v) for v in objectives)

    @pytest.mark.parametrize("seed", range(6))
    def test_decomposition_matches_per_cell_loop(self, seed):
        rng = np.random.default_rng(300 + seed)
        for _ in range(10):
            nx, ny = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            arities = _pick_arities(rng)
            zero_frac = float(rng.choice([0.0, 0.3, 0.6]))
            joint = sparse_joint(rng, nx, ny, zero_frac)
            enc = sparse_encoder(rng, nx, arities, zero_frac)
            for surrogate in (sparse_product_surrogate(rng, ny, arities, zero_frac),
                              optimal_product_surrogate(induced(joint, enc).t_given_y, arities)):
                rep = decomposition_check(joint, enc, surrogate)
                ref = loop_decomposition_check(joint, enc, surrogate)
                assert (rep.lhs, rep.i_xt_given_y, rep.kl_residual) == (
                    ref.lhs, ref.i_xt_given_y, ref.kl_residual)

    def test_tables_are_stored_c_contiguous(self):
        # sums run in memory order, so a transposed input would sum differently
        rng = np.random.default_rng(400)
        p = np.asfortranarray(random_joint(rng, 5, 3).p)
        q = np.asfortranarray(random_encoder(rng, 5, (2, 4)).q)
        joint, enc = DiscreteJoint(p), DiscreteEncoder(q, (2, 4))
        assert joint.p.flags.c_contiguous and enc.q.flags.c_contiguous
        c_rep = info_report(DiscreteJoint(p.copy(order="C")), DiscreteEncoder(q.copy(order="C"), (2, 4)))
        f_rep = info_report(joint, enc)
        assert (f_rep.I_XT, f_rep.I_XT_given_Y, f_rep.H_Y_given_T) == (
            c_rep.I_XT, c_rep.I_XT_given_Y, c_rep.H_Y_given_T)


class TestFamilyValidation:
    def test_member_with_wrong_feature_count_rejected(self):
        rng = np.random.default_rng(18)
        joint = random_joint(rng, 3, 2)
        encoders = [random_encoder(rng, 3, (2,)), random_encoder(rng, 4, (2,))]
        with pytest.raises(ValueError, match="4 feature values, joint has 3"):
            equivalence_scan(joint, encoders, beta=0.5)

    @pytest.mark.parametrize("beta", [-0.1, 1.0, 1.5])
    def test_beta_out_of_range_rejected(self, beta):
        rng = np.random.default_rng(19)
        with pytest.raises(ValueError, match="beta"):
            equivalence_scan(random_joint(rng, 3, 2), [random_encoder(rng, 3, (2,))], beta=beta)


class TestSampleIndices:
    """A sample outside the encoder's rows, with a negative label or a non-integer index is an error."""

    @pytest.mark.parametrize("bad", [(0.5, 0), (1, 1.0), (True, 0), (0, np.bool_(True))])
    def test_non_integer_index_rejected_not_cast(self, bad):
        rng = np.random.default_rng(22)
        enc = random_encoder(rng, 3, (2, 2))
        with pytest.raises(ValueError, match="integer index pairs"):
            sample_kl_objective([(0, 0), (1, 1), bad], enc, random_product_surrogate(rng, 2, (2, 2)))
        with pytest.raises(ValueError, match="integer index pairs"):
            surrogate_optimality_check([(0, 0), (1, 1), bad], enc)

    @pytest.mark.parametrize("samples", [[(0, 0), (0, 2**70)], [(2**70, 0)], [(-2**70, 0)],
                                         np.array([[0, 0], [1, 2**63]], dtype=np.uint64)])
    def test_index_beyond_intp_rejected(self, samples):
        rng = np.random.default_rng(23)
        enc = random_encoder(rng, 3, (2, 2))
        with pytest.raises(ValueError, match="integer index pairs"):
            sample_kl_objective(samples, enc, random_product_surrogate(rng, 2, (2, 2)))
        with pytest.raises(ValueError, match="integer index pairs"):
            surrogate_optimality_check(samples, enc)

    @pytest.mark.parametrize("arities", [(2.9,), (True, 2), (2.0,)])
    def test_non_integer_arity_rejected_not_cast(self, arities):
        with pytest.raises(ValueError, match="arities must be positive integers"):
            DiscreteEncoder(np.full((2, 2), 0.5), arities)

    @pytest.mark.parametrize("bad, message", [((3, 0), "feature index"), ((-1, 0), "feature index"),
                                              ((0, -1), "negative")])
    def test_optimality_check_rejects_bad_sample(self, bad, message):
        enc = random_encoder(np.random.default_rng(20), 3, (2, 2))
        with pytest.raises(ValueError, match=message):
            surrogate_optimality_check([(0, 0), (1, 1), bad], enc)

    @pytest.mark.parametrize("arities", [(1,), (2, 2)])
    def test_sample_kl_objective_rejects_another_alphabet(self, arities):
        """Scored over the encoder's (4,) alphabet, a (1,) surrogate once gave -1.306, a negative KL."""
        rng = np.random.default_rng(24)
        enc = random_encoder(rng, 3, (4,))
        surrogate = random_product_surrogate(rng, 2, arities)
        with pytest.raises(ValueError, match=r"surrogate arities .* differ from the encoder's \(4,\)"):
            sample_kl_objective([(0, 0), (1, 1)], enc, surrogate)

    @pytest.mark.parametrize("bad, message", [((3, 0), "feature index"), ((-1, 0), "feature index"),
                                              ((0, -1), "negative"), ((0, 2), "2 classes")])
    def test_sample_kl_objective_rejects_bad_sample(self, bad, message):
        rng = np.random.default_rng(21)
        enc = random_encoder(rng, 3, (2, 2))
        surrogate = random_product_surrogate(rng, 2, (2, 2))
        with pytest.raises(ValueError, match=message):
            sample_kl_objective([(0, 0), (1, 1), bad], enc, surrogate)


def _bit_guard_digests(tmp_path, capsys):
    """sha256 of oracle outputs on seeded instances, families and searches."""
    rng = np.random.default_rng(20261018)
    docs = []
    for k in range(6):
        nx, ny = int(rng.integers(2, 7)), int(rng.integers(2, 4))
        arities = random_arities(rng, max_outcomes=64)
        zero_frac = 0.0 if k < 3 else 0.3
        joint = sparse_joint(rng, nx, ny, zero_frac)
        enc = sparse_encoder(rng, nx, arities, zero_frac)
        docs.append({"p": joint.p.tolist(), "q": enc.q.tolist(), "arities": list(arities),
                     "samples": random_samples(rng, nx, ny, 12).tolist()})
    oracle = hashlib.sha256()
    for k, doc in enumerate(docs):
        path = tmp_path / f"instance-{k}.json"
        path.write_text(json.dumps(doc))
        run(["oracle", "--instance", str(path), "--json"])
        oracle.update(capsys.readouterr().out.encode())

    joint = sparse_joint(rng, 4, 3, 0.2)
    shapes = [(4,), (2, 2), (8,), (2, 4), (3,), (2, 2, 2), (16,)]
    encoders = [sparse_encoder(rng, 4, shapes[k % len(shapes)], 0.3 if k % 2 else 0.0)
                for k in range(40)]
    family = hashlib.sha256()
    argmins = []
    for beta in np.arange(0.0, 0.95, 0.1):
        scan = equivalence_scan(joint, encoders, float(beta))
        family.update(scan.l_ib.tobytes() + scan.l_cib.tobytes())
        argmins.append([list(scan.argmin_ib), list(scan.argmin_cib)])
    family.update(json.dumps(argmins).encode())

    values = []
    for arities in [(2, 2), (2, 3), (2, 2, 2), (4,)]:
        enc = sparse_encoder(rng, 5, arities, 0.25)
        samples = random_samples(rng, 5, 3, 14)
        rep = surrogate_optimality_check(samples, enc)
        values += [rep.lhs_min, rep.rhs]
        values += [sample_kl_objective(samples, enc, cand)
                   for cand in perturbed_product_surrogates(rep.surrogate, step=0.01)]
        values.append(sample_kl_objective(samples, enc, sparse_product_surrogate(rng, 3, arities, 0.2)))
        joint = sparse_joint(rng, 5, 3, 0.25)
        for surrogate in (sparse_product_surrogate(rng, 3, arities, 0.3),
                          random_product_surrogate(rng, 3, arities)):
            dec = decomposition_check(joint, enc, surrogate)
            values += [dec.lhs, dec.i_xt_given_y, dec.kl_residual]
    search = hashlib.sha256(np.array(values).tobytes())
    return {"oracle_json": oracle.hexdigest(), "family": family.hexdigest(), "search": search.hexdigest()}


def test_oracle_outputs_are_bit_stable(tmp_path, capsys):
    # sha256 of what the oracle has always computed on these seeded inputs,
    # zero cells and infinite KLs included; a reordered sum moves them
    assert _bit_guard_digests(tmp_path, capsys) == {
        "oracle_json": "464d7a5c58c0ee21dc6c20ba7f15e5e139cbfb2d04b47f7faa3c28f2bd16155a",
        "family": "6f493d2ffc6fd8e9d78df6bcf2fe05c0e9c6dedd79acd07afb7d358c165987de",
        "search": "cb8fcc351b3688d0e37d0e0303579495a370052b4f8e9f8bfafa449e4a07d2c4",
    }
