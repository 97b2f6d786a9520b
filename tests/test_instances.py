"""Problem builders: hard instances, group-robust training, ranking."""

import dataclasses
import math

import numpy as np
import pytest

from fcco.datasets import build_synthetic_gdro, build_synthetic_pauc, PaucDataset
from fcco.errors import InvalidParameterError
from fcco.instances import (
    GroupRiskOracle,
    PaucInnerOracle,
    TwoPointNoise,
    _logistic_grad_w,
    _logistic_risk,
    _logistic_risk_grad,
    build_cvar_scalar,
    build_gdro,
    build_hard_nonsmooth,
    build_hard_smooth,
    build_pauc,
    cvar_objective,
    solve_cvar_reference,
)
from fcco.problem import evaluate_objective
from fcco.solvers import AlexrConfig, BaselineConfig, run, strongly_convex_preset


# --- two-point noise --------------------------------------------------------


def test_noise_support_values():
    noise = TwoPointNoise(0.3, 1.0)
    assert noise.p == pytest.approx(0.09)
    assert noise.low == -0.3
    assert noise.high == pytest.approx(0.3 * 0.91 / 0.09)


def test_noise_moments():
    rng = np.random.default_rng(2024)
    draws = TwoPointNoise(0.3, 1.0).draw(rng, 1_000_000)
    assert abs(draws.mean()) < 3 * 1.0 / 1000
    assert draws.var() == pytest.approx(0.91, rel=0.01)


def test_two_point_noise_single_draw():
    val = TwoPointNoise(0.3, 1.0).draw(np.random.default_rng(0), 1)[0]
    assert val in (pytest.approx(-0.3), pytest.approx(0.3 * 0.91 / 0.09))


def test_noise_invalid_parameters():
    with pytest.raises(InvalidParameterError):
        TwoPointNoise(1.0, 0.5)  # p > 1
    with pytest.raises(InvalidParameterError):
        build_hard_smooth(4, 0.9, 0.5)


# --- hard smooth instance -----------------------------------------------------


def test_hard_smooth_known_optimum():
    inst = build_hard_smooth(100, 0.3, 1.0)
    assert np.allclose(inst.x_star, -0.2)
    assert inst.f_star == pytest.approx(-0.03)
    assert inst.mu == pytest.approx(1.0 / 200)
    assert evaluate_objective(inst, inst.x_star) == pytest.approx(inst.f_star, abs=1e-12)


def test_hard_smooth_grid_minimum_matches_closed_form():
    # separable: scan one coordinate of F over the box
    inst = build_hard_smooth(3, 0.45, 1.2)
    grid = np.linspace(-1, 1, 200_001)
    f = inst.outer
    per_coord = np.asarray(f.value(grid)) + 0.25 * grid ** 2
    best = grid[np.argmin(per_coord)]
    assert best == pytest.approx(-2 * 0.45 / 3, abs=1e-5)
    assert per_coord.min() == pytest.approx(inst.f_star, abs=1e-6)


def test_hard_smooth_separable_gradient():
    # full objective gradient equals the per-coordinate derivative
    inst = build_hard_smooth(5, 0.3, 1.0)
    rng = np.random.default_rng(0)
    x = rng.uniform(-0.9, 0.9, size=5)
    h = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = h
        fd = (evaluate_objective(inst, x + e) - evaluate_objective(inst, x - e)) / (2 * h)
        f = inst.outer
        expect = (float(f.grad(x[j])) + 0.5 * x[j]) / 5
        assert fd == pytest.approx(expect, abs=1e-5)


# --- hard nonsmooth instance ---------------------------------------------------


def test_hard_nonsmooth_interior_case():
    inst = build_hard_nonsmooth(4, 0.5, 1.0, 4.0, 1.0)
    assert np.allclose(inst.x_star, -0.25)  # -beta/alpha_reg when alpha_reg > beta/nu
    assert inst.f_star == pytest.approx(-(1.0 ** 2) / (2 * 4.0))


def test_hard_nonsmooth_kink_case():
    inst = build_hard_nonsmooth(4, 0.5, 1.0, 1.0, 1.0)
    assert np.allclose(inst.x_star, -0.5)
    assert inst.f_star == pytest.approx(-0.5 + 0.5 * 1.0 * 0.25)


def test_hard_nonsmooth_gap_bound_at_zero():
    inst = build_hard_nonsmooth(4, 0.5, 1.0, 4.0, 1.0)
    gap = evaluate_objective(inst, np.zeros(4)) - inst.f_star
    assert gap >= 0.5 * min(1.0 * 0.5, 1.0 ** 2 / 4.0) - 1e-12
    assert gap == pytest.approx(0.125)


def test_hard_nonsmooth_grid_minimum():
    inst = build_hard_nonsmooth(2, 0.5, 1.0, 1.0, 1.0)
    grid = np.linspace(-1.0, 1.0, 400_001)
    f = inst.outer
    per_coord = np.asarray(f.value(grid)) + 0.5 * 1.0 * grid ** 2
    assert grid[np.argmin(per_coord)] == pytest.approx(-0.5, abs=1e-5)
    assert per_coord.min() == pytest.approx(inst.f_star, abs=1e-6)


# --- logistic loss ---------------------------------------------------------
# _logistic_risk_grad is the mean loss and gradient GDRO runs; one row here.


def logistic_row(w, a, b):
    return _logistic_risk_grad(w, np.asarray(a, dtype=float)[None, :], np.array([float(b)]))


def test_logistic_loss_at_zero_weights():
    loss, _ = logistic_row(np.zeros(3), [1.0, 2.0, 3.0], 1.0)
    assert loss == pytest.approx(math.log(2.0))


def test_logistic_loss_large_margin_stable():
    a = np.array([50.0])
    loss, grad = logistic_row(np.array([1.0]), a, 1.0)
    assert 0 <= loss < 1e-20
    assert np.all(np.isfinite(grad))
    loss_neg, grad_neg = logistic_row(np.array([1.0]), a, -1.0)
    assert loss_neg == pytest.approx(50.0, rel=1e-6)
    assert np.all(np.isfinite(grad_neg))


def test_logistic_gradient_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-5
    for _ in range(100):
        w = rng.standard_normal(4)
        a = rng.standard_normal(4)
        b = 1.0 if rng.random() < 0.5 else -1.0
        _, grad = logistic_row(w, a, b)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            fd = (logistic_row(w + e, a, b)[0] - logistic_row(w - e, a, b)[0]) / (2 * h)
            assert abs(fd - grad[j]) < 1e-6


# --- group-robust builder -----------------------------------------------------


@pytest.fixture(scope="module")
def small_gdro_data():
    return build_synthetic_gdro(3, 2, 40, 0.4, np.random.default_rng(7))


def test_gdro_exact_objective_matches_direct_formula(small_gdro_data):
    problem = build_gdro(small_gdro_data, divergence="cvar", alpha=0.5, weight_decay=0.1)
    rng = np.random.default_rng(0)
    for _ in range(10):
        w = rng.standard_normal(2)
        c = rng.uniform(0.0, 2.0)
        x = np.concatenate([w, [c]])
        direct = cvar_objective(small_gdro_data, 0.5, 0.1, w, c)
        assert evaluate_objective(problem, x) == pytest.approx(direct, abs=1e-12)


def test_gdro_lam_invariance_for_cvar(small_gdro_data):
    # any lam > 0 produces the same capped-hinge objective
    p1 = build_gdro(small_gdro_data, divergence="cvar", alpha=0.5, lam=1.0)
    p2 = build_gdro(small_gdro_data, divergence="cvar", alpha=0.5, lam=2.5)
    x = np.array([0.3, -0.2, 0.7])
    assert evaluate_objective(p1, x) == pytest.approx(evaluate_objective(p2, x), abs=1e-12)


def test_gdro_single_group_cvar_alpha_one_collapses_to_erm(small_gdro_data):
    rows = small_gdro_data.group_index[0]
    from fcco.datasets import GroupedDataset

    single = GroupedDataset(features=small_gdro_data.features[rows],
                            labels=small_gdro_data.labels[rows],
                            group_of=np.zeros(len(rows), dtype=int), n_groups=1)
    problem = build_gdro(single, divergence="cvar", alpha=1.0, weight_decay=0.0)
    rng = np.random.default_rng(1)
    from fcco.instances import _logistic_risk

    for _ in range(5):
        w = rng.standard_normal(2)
        risk = _logistic_risk(w, single.features, single.labels)
        c_grid = np.linspace(0.0, 4.0, 4001)
        vals = [evaluate_objective(problem, np.concatenate([w, [c]])) for c in c_grid]
        assert min(vals) == pytest.approx(risk, abs=2e-3)


def test_gdro_equal_risks_make_hinge_vanish_at_common_level():
    # duplicate one group: all risks equal r0, so c = r0 zeroes the hinge
    rng = np.random.default_rng(3)
    base = build_synthetic_gdro(1, 2, 30, 0.0, rng)
    from fcco.datasets import GroupedDataset

    feats = np.vstack([base.features] * 3)
    labels = np.concatenate([base.labels] * 3)
    group_of = np.repeat(np.arange(3), base.n_samples)
    data = GroupedDataset(features=feats, labels=labels, group_of=group_of, n_groups=3)
    problem = build_gdro(data, divergence="cvar", alpha=0.5, weight_decay=0.0)
    from fcco.instances import _logistic_risk

    w = rng.standard_normal(2)
    r0 = _logistic_risk(w, base.features, base.labels)
    assert evaluate_objective(problem, np.concatenate([w, [r0]])) == pytest.approx(r0, abs=1e-12)


def test_gdro_chi2_large_lam_approaches_mean_risk(small_gdro_data):
    problem = build_gdro(small_gdro_data, divergence="chi2", lam=1e6,
                         weight_decay=0.0, risk_bound=4.0)
    from fcco.instances import _logistic_risk

    w = np.array([0.2, -0.4])
    c = 0.5
    risks = [
        _logistic_risk(w, small_gdro_data.features[rows], small_gdro_data.labels[rows])
        for rows in small_gdro_data.group_index
    ]
    erm = float(np.mean(risks))
    val = evaluate_objective(problem, np.concatenate([w, [c]]))
    assert val == pytest.approx(erm, abs=1e-3)


@pytest.mark.parametrize("lam", [0.1, 1.0, 4.0 / 3.0, 10.0, 1e6])
def test_gdro_chi2_cap_covers_every_reachable_gradient(small_gdro_data, lam):
    # group risks in [0, risk_bound] and c in [-lam, risk_bound] give inner
    # values u = (R - c)/lam in [-1, (risk_bound + lam)/lam]; on all of them
    # the outer is the uncapped quadratic lam*((u + 2)^2/4 - 1)
    risk_bound = 4.0
    f = build_gdro(small_gdro_data, divergence="chi2", lam=lam, risk_bound=risk_bound).outer
    lo, hi = f.dual_domain()
    for u in np.linspace(-1.0, (risk_bound + lam) / lam, 101):
        assert lo <= f.grad(u) <= hi
        assert f.grad(u) == pytest.approx(lam * (u + 2.0) / 2.0, rel=1e-12)
        assert f.value(u) == pytest.approx(lam * ((u + 2.0) ** 2 / 4.0 - 1.0), rel=1e-12, abs=1e-9 * lam)


@pytest.mark.parametrize("lam", [1.0, 10.0])
def test_gdro_chi2_alexr_and_sox_reach_the_same_objective(lam):
    # both solve the same problem, so at T=3000 their final objectives differ
    # by optimization error only: under 7e-7 at seeds 1-3 for both lam, and
    # 1e-5 leaves a wide margin.  A dual cap below a reachable gradient makes
    # ALEXR's dual prox solve a different problem than sox's gradients: at
    # lam=10 that gap was 2.77 (ALEXR 3.29 with c at its bound -10, sox 0.52)
    data = build_synthetic_gdro(10, 5, 100, 0.5, np.random.default_rng(0))
    problem = build_gdro(data, divergence="chi2", lam=lam, risk_bound=4.0)
    alexr = run(AlexrConfig(eta=20.0, tau=2.0, theta=1.0, S=10, B=16, T=3000, seed=1),
                problem, eval_every=3000)
    sox = run(BaselineConfig(variant="sox", step=20.0, gamma=0.5, S=10, B=16, T=3000, seed=1),
              problem, eval_every=3000)
    assert abs(alexr.final_row.objective - sox.final_row.objective) < 1e-5


def test_gdro_duality_small_grid():
    # penalized min-max over (w, q) equals the dual form over (w, c)
    data = build_synthetic_gdro(3, 2, 20, 0.6, np.random.default_rng(11))
    from fcco.instances import _logistic_risk

    alpha = 0.5
    n = 3
    cap = 1.0 / (alpha * n)
    w_grid = [np.array([a, b]) for a in np.linspace(-1.5, 1.5, 13)
              for b in np.linspace(-1.5, 1.5, 13)]
    c_grid = np.linspace(0.0, 2.0, 801)
    best_dual = math.inf
    best_primal = math.inf
    for w in w_grid:
        risks = np.array([
            _logistic_risk(w, data.features[rows], data.labels[rows])
            for rows in data.group_index
        ])
        dual_w = min(float(np.maximum(risks - c, 0.0).mean() / alpha + c) for c in c_grid)
        # exact capped-simplex maximum: fill 1/(alpha n) on the worst groups
        order = np.argsort(-risks)
        q = np.zeros(n)
        remaining = 1.0
        for g in order:
            take = min(cap, remaining)
            q[g] = take
            remaining -= take
        primal_w = float(q @ risks)
        best_dual = min(best_dual, dual_w)
        best_primal = min(best_primal, primal_w)
    # tolerance: c-grid resolution scaled by the hinge slope bound
    tol = (1.0 + 1.0 / alpha) * (c_grid[1] - c_grid[0])
    assert best_dual == pytest.approx(best_primal, abs=tol)


def test_zero_heterogeneity_gdro_matches_erm():
    # identical group distributions: the worst-half objective at the robust
    # optimum approaches the mean risk at the ERM optimum as groups grow
    from scipy.optimize import minimize
    from fcco.instances import _logistic_risk_grad

    data = build_synthetic_gdro(4, 3, 1500, 0.0, np.random.default_rng(23))
    wd = 0.05
    _w_dro, _c, obj_dro = solve_cvar_reference(data, 0.5, wd, iters=1500)

    def erm(w):
        loss, grad = _logistic_risk_grad(w, data.features, data.labels)
        return loss + 0.5 * wd * float(w @ w), grad + wd * w

    res = minimize(erm, np.zeros(3), jac=True, method="L-BFGS-B")
    assert abs(obj_dro - res.fun) < 1e-2


def test_cvar_reference_matches_convex_solver(small_gdro_data):
    cp = pytest.importorskip("cvxpy")
    w_ref, c_ref, obj_ref = solve_cvar_reference(small_gdro_data, 0.5, 0.05, iters=3000)
    d = small_gdro_data.features.shape[1]
    w = cp.Variable(d)
    c = cp.Variable()
    terms = []
    for rows in small_gdro_data.group_index:
        A = small_gdro_data.features[rows]
        b = small_gdro_data.labels[rows]
        risk = cp.sum(cp.logistic(cp.multiply(-b, A @ w))) / len(rows)
        terms.append(cp.pos(risk - c))
    objective = (cp.sum(cp.hstack(terms)) / (0.5 * small_gdro_data.n_groups)
                 + c + 0.025 * cp.sum_squares(w))
    prob = cp.Problem(cp.Minimize(objective))
    prob.solve()
    assert obj_ref == pytest.approx(prob.value, abs=2e-4)


def test_gdro_aux_metrics_reports_worst_group_risk(small_gdro_data):
    problem = build_gdro(small_gdro_data, divergence="cvar", alpha=0.5)
    metrics = problem.aux_metrics(np.zeros(3))
    assert "worst_group_risk" in metrics
    assert metrics["worst_group_risk"] >= math.log(2.0) - 1e-9  # zero weights


# --- ranking builder -----------------------------------------------------------


def test_pauc_perfectly_separated_case():
    # all positives score +1 and negatives -1 under w: pair margins are -2,
    # the squared hinge vanishes, and the objective reduces to s + hinge(-s)
    pos = np.array([[1.0], [1.0]])
    neg = np.array([[-1.0], [-1.0], [-1.0]])
    data = PaucDataset(positives=pos, negatives=neg, alpha=0.5)
    problem = build_pauc(data, surrogate="squared_hinge")
    w = np.array([1.0])
    for s, expect in [(0.0, 0.0), (0.5, 0.5), (-0.5, -0.5 + 1.0 / (1 - 0.5) * 0.5)]:
        x = np.concatenate([w, [s]])
        assert evaluate_objective(problem, x) == pytest.approx(expect, abs=1e-12)
    s_grid = np.linspace(-1, 1, 2001)
    vals = [evaluate_objective(problem, np.concatenate([w, [s]])) for s in s_grid]
    assert s_grid[int(np.argmin(vals))] == pytest.approx(0.0, abs=1e-3)


def test_pauc_exact_objective_matches_pair_enumeration():
    rng = np.random.default_rng(21)
    data = build_synthetic_pauc(4, 3, 2, 0.8, 0.5, rng)
    problem = build_pauc(data, surrogate="squared_hinge")
    w = rng.standard_normal(2)
    s = 0.3
    x = np.concatenate([w, [s]])
    # brute force over all 12 pairs
    total = 0.0
    for i in range(4):
        acc = 0.0
        for j in range(3):
            z = float((data.negatives[j] - data.positives[i]) @ w)
            acc += max(1.0 + z, 0.0) ** 2
        total += max(acc / 3 - s, 0.0) / (1 - 0.5)
    expect = total / 4 + s
    assert evaluate_objective(problem, x) == pytest.approx(expect, abs=1e-12)


def test_pauc_identical_inner_values_move_dual_blocks_together():
    # at w = 0 every pairwise score is zero, so all inner values coincide and
    # one full outer-batch step moves every dual block to the same value
    rng = np.random.default_rng(5)
    data = build_synthetic_pauc(6, 10, 3, 1.0, 0.5, rng)
    problem = build_pauc(data)
    cfg = AlexrConfig(eta=5.0, tau=1.0, theta=0.0, S=6, B=10, T=1, seed=0)
    rec = run(cfg, problem, eval_every=1)
    blocks = rec.dual_final
    assert np.all(blocks != 0.0)
    assert np.allclose(blocks, blocks[0], atol=1e-12)


def test_pauc_inner_oracle_unbiased():
    rng = np.random.default_rng(6)
    data = build_synthetic_pauc(3, 40, 2, 0.5, 0.5, rng)
    problem = build_pauc(data)
    orc = problem.inners[0]
    x = np.array([0.4, -0.3, 0.1])
    exact = orc.exact_value(x)
    draws = [orc.stochastic_value(x, orc.sample_batch(rng, 8)) for _ in range(4000)]
    assert np.mean(draws) == pytest.approx(exact, abs=4 * np.std(draws) / math.sqrt(4000))


def test_pauc_exact_stochastic_agreement_on_full_batch():
    rng = np.random.default_rng(8)
    data = build_synthetic_pauc(3, 15, 2, 0.5, 0.5, rng)
    problem = build_pauc(data)
    x = np.array([0.2, 0.1, -0.4])
    for orc in problem.inners:
        assert orc.stochastic_value(x, np.arange(orc.size)) == pytest.approx(
            orc.exact_value(x), abs=1e-12)


class ReferencePaucOracle(PaucInnerOracle):
    """The pAUC oracle through the explicit (negatives - positive) difference
    matrix."""

    def exact_value(self, x):
        w, s = x[:-1], float(x[-1])
        return float(np.mean(self.val((self.neg - self.pos) @ w))) - s

    def stochastic_value(self, x, batch):
        w, s = x[:-1], float(x[-1])
        return float(np.mean(self.val((self.neg[batch] - self.pos) @ w))) - s

    def accumulate_jtvp(self, out, x, batch, y, scale):
        diffs = self.neg[batch] - self.pos
        slopes = self.deriv(diffs @ x[:-1])
        out[:-1] += scale * (y * (diffs.T @ slopes) / len(batch))
        out[-1] += scale * -y


def _reference_pauc(problem, surrogate="squared_hinge"):
    inners = [ReferencePaucOracle(g.pos, g.neg, surrogate) for g in problem.inners]
    return dataclasses.replace(problem, inners=inners)


@pytest.mark.parametrize("surrogate", ["squared_hinge", "logistic"])
def test_pauc_oracle_matches_difference_matrix_reference(surrogate):
    # float64 with d <= 50: both forms agree to 1e-12 absolute
    rng = np.random.default_rng(31)
    for _ in range(20):
        n_pos, n_neg, d = rng.integers(2, 12), rng.integers(1, 80), rng.integers(1, 51)
        data = build_synthetic_pauc(n_pos, n_neg, d, 1.0, 0.5, rng)
        problem = build_pauc(data, surrogate=surrogate)
        reference = _reference_pauc(problem, surrogate)
        x = rng.standard_normal(d + 1) / math.sqrt(d)
        for g, ref in zip(problem.inners, reference.inners):
            batch = g.sample_batch(rng, int(rng.integers(1, 10)))
            y, scale = float(rng.standard_normal()), float(rng.random())
            assert abs(g.exact_value(x) - ref.exact_value(x)) <= 1e-12
            assert abs(g.stochastic_value(x, batch) - ref.stochastic_value(x, batch)) <= 1e-12
            start = rng.standard_normal(d + 1)
            out, ref_out = start.copy(), start.copy()
            g.accumulate_jtvp(out, x, batch, y, scale)
            ref.accumulate_jtvp(ref_out, x, batch, y, scale)
            assert np.max(np.abs(out - ref_out)) <= 1e-12


class NpMeanPaucOracle(PaucInnerOracle):
    """The pAUC oracle with its means written as np.mean and slopes.sum()."""

    def exact_value(self, x):
        w, s = x[:-1], float(x[-1])
        return float(np.mean(self.val(self.neg @ w - self.pos @ w))) - s

    def stochastic_value(self, x, batch):
        w, s = x[:-1], float(x[-1])
        return float(np.mean(self.val(self.neg[batch] @ w - self.pos @ w))) - s

    def accumulate_jtvp(self, out, x, batch, y, scale):
        w = x[:-1]
        neg_b = self.neg[batch]
        slopes = self.deriv(neg_b @ w - self.pos @ w)
        out[:-1] += (scale * y / len(batch)) * (slopes @ neg_b - slopes.sum() * self.pos)
        out[-1] -= scale * y


def _assert_pauc_oracles_match(problem, reference, x, rng):
    """Every oracle of `problem` against its reference at x, positives in
    turn, so all but the first exact value may come from the shared cache."""
    n_neg = problem.inners[0].size
    for g, ref in zip(problem.inners, reference, strict=True):
        batch = g.sample_batch(rng, int(rng.integers(1, 2 * n_neg + 2)))
        y, scale = float(rng.standard_normal()), float(rng.random())
        assert g.exact_value(x) == ref.exact_value(x)
        assert g.stochastic_value(x, batch) == ref.stochastic_value(x, batch)
        out = rng.standard_normal(len(x))
        ref_out = out.copy()
        g.accumulate_jtvp(out, x, batch, y, scale)
        ref.accumulate_jtvp(ref_out, x, batch, y, scale)
        assert np.array_equal(out, ref_out)


@pytest.mark.parametrize("surrogate", ["squared_hinge", "logistic"])
def test_pauc_oracle_means_equal_np_mean_bitwise(surrogate):
    # np.add.reduce(v) / v.size is what np.mean computes on float64, and the
    # scores of the negatives that build_pauc's oracles share are the
    # product `neg @ w` the reference computes on every call
    rng = np.random.default_rng(41)
    for _ in range(20):
        n_neg, d = int(rng.integers(1, 300)), int(rng.integers(1, 51))
        problems = [build_pauc(build_synthetic_pauc(4, n_neg, d, 1.0, 0.5, rng),
                               surrogate=surrogate) for _ in range(2)]
        references = [[NpMeanPaucOracle(g.pos, g.neg, surrogate) for g in p.inners]
                      for p in problems]
        x = rng.standard_normal(d + 1) * rng.uniform(0.1, 3.0)
        # two problems with different negatives, evaluated in turn at one x
        for problem, reference in zip(problems * 2, references * 2):
            _assert_pauc_oracles_match(problem, reference, x, rng)
        # the same x edited in place, then a signed zero in place of a zero
        x[int(rng.integers(0, d))] += 1.0
        _assert_pauc_oracles_match(problems[0], references[0], x, rng)
        x[0] = 0.0
        _assert_pauc_oracles_match(problems[0], references[0], x, rng)
        x[0] = -0.0
        _assert_pauc_oracles_match(problems[0], references[0], x, rng)


def test_pauc_oracles_share_one_read_only_score_cache():
    data = build_synthetic_pauc(3, 20, 4, 1.0, 0.5, np.random.default_rng(5))
    first, second = build_pauc(data).inners[:2]
    w = np.linspace(-1.0, 1.0, 4)
    assert first.neg is second.neg
    scores = first._neg_scores.at(w)
    assert second._neg_scores.at(w.copy()) is scores
    assert np.array_equal(scores, first.neg @ w)
    assert not scores.flags.writeable
    with pytest.raises(ValueError):
        scores[0] = 0.0
    # an oracle built on its own holds its own cache
    alone = PaucInnerOracle(data.positives[0], data.negatives, "squared_hinge")
    assert alone._neg_scores is not first._neg_scores
    assert alone.exact_value(np.append(w, 0.5)) == first.exact_value(np.append(w, 0.5))


class FancyIndexGroupRiskOracle(GroupRiskOracle):
    """The GDRO oracle with its batch rows gathered by fancy indexing."""

    def stochastic_value(self, x, batch):
        risk = _logistic_risk(x[:-1], self.feats[batch], self.labels[batch])
        return (risk - float(x[-1])) / self.lam

    def accumulate_jtvp(self, out, x, batch, y, scale):
        grad_w = _logistic_grad_w(x[:-1], self.feats[batch], self.labels[batch])
        coeff = scale * y / self.lam
        out[:-1] += coeff * grad_w
        out[-1] -= coeff


@pytest.mark.parametrize("divergence", ["cvar", "chi2"])
def test_gdro_oracle_batches_equal_fancy_indexing_bitwise(divergence):
    # ndarray.take(batch, axis=0) copies the same rows as feats[batch]
    rng = np.random.default_rng(43)
    for _ in range(10):
        data = build_synthetic_gdro(int(rng.integers(2, 6)), int(rng.integers(1, 30)),
                                    int(rng.integers(2, 40)), 1.0, rng)
        problem = build_gdro(data, divergence=divergence, alpha=0.5, lam=float(rng.uniform(0.5, 2)))
        x = rng.standard_normal(problem.dim)
        for g in problem.inners:
            ref = FancyIndexGroupRiskOracle(g.feats, g.labels, g.lam)
            batch = g.sample_batch(rng, int(rng.integers(1, 2 * g.size + 2)))
            y, scale = float(rng.standard_normal()), float(rng.random())
            assert g.exact_value(x) == ref.exact_value(x)
            assert g.stochastic_value(x, batch) == ref.stochastic_value(x, batch)
            out = rng.standard_normal(problem.dim)
            ref_out = out.copy()
            g.accumulate_jtvp(out, x, batch, y, scale)
            ref.accumulate_jtvp(ref_out, x, batch, y, scale)
            assert np.array_equal(out, ref_out)


@pytest.mark.parametrize("cfg", [
    AlexrConfig(eta=10.0, tau=1.0, theta=0.0, S=4, B=4, T=2000, seed=3),
    AlexrConfig(eta=10.0, tau=1.0, theta=1.0, S=4, B=4, T=2000, seed=4),
    BaselineConfig("sox", step=10.0, gamma=0.5, S=4, B=4, T=2000, seed=5,
                   subgradient_fallback=True),
], ids=["alexr-theta0", "alexr-theta1", "sox"])
def test_pauc_runs_match_difference_matrix_reference(cfg):
    # same random stream, so only rounding separates the two oracles
    data = build_synthetic_pauc(12, 60, 6, 1.0, 0.5, np.random.default_rng(17))
    problem = build_pauc(data)
    rec = run(cfg, problem, eval_every=250)
    ref = run(cfg, _reference_pauc(problem), eval_every=250)
    scale = np.max(np.abs(ref.x_last))
    assert np.max(np.abs(rec.x_last - ref.x_last)) <= 1e-9 * scale
    for row, ref_row in zip(rec.rows, ref.rows, strict=True):
        assert row.objective == pytest.approx(ref_row.objective, rel=1e-9)
        assert row.objective_avg == pytest.approx(ref_row.objective_avg, rel=1e-9)


PAUC_SURROGATES = {  # ell(z) and ell'(z), written here apart from the library's
    "squared_hinge": (lambda z: np.maximum(1.0 + z, 0.0) ** 2,
                      lambda z: 2.0 * np.maximum(1.0 + z, 0.0)),
    "logistic": (lambda z: np.log1p(np.exp(z)), lambda z: 1.0 / (1.0 + np.exp(-z))),
}


def solve_pauc_reference(data, surrogate, weight_decay):
    """Full-batch minimum of the pAUC objective, by scipy's SLSQP on its
    smooth epigraph form: min s + sum_i t_i / k + wd/2 |w|^2 over t_i >= 0
    and t_i >= L_i(w) - s, with L_i(w) the mean surrogate loss of positive
    i and k = n_pos (1 - alpha).  The value returned eliminates s exactly:
    it is piecewise linear in s, so its minimum over s lies at one of the
    per-positive losses (a quantile of them)."""
    optimize = pytest.importorskip("scipy.optimize")
    val, deriv = PAUC_SURROGATES[surrogate]
    n, d = data.positives.shape
    diffs = data.negatives[None, :, :] - data.positives[:, None, :]  # (n, n_neg, d)
    k = n * (1.0 - data.alpha)

    def losses(w):
        return val(diffs @ w).mean(axis=1)

    def objective(z):
        return z[d] + z[d + 1:].sum() / k + 0.5 * weight_decay * z[:d] @ z[:d]

    def objective_grad(z):
        return np.concatenate((weight_decay * z[:d], [1.0], np.full(n, 1.0 / k)))

    def constraint_jac(z):
        loss_jac = (deriv(diffs @ z[:d])[:, :, None] * diffs).mean(axis=1)
        return np.hstack((-loss_jac, np.ones((n, 1)), np.eye(n)))

    z0 = np.concatenate((np.zeros(d + 1), losses(np.zeros(d))))
    res = optimize.minimize(
        objective, z0, jac=objective_grad, method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda z: z[d + 1:] - losses(z[:d]) + z[d],
                      "jac": constraint_jac}],
        bounds=[(None, None)] * (d + 1) + [(0.0, None)] * n,
        options={"ftol": 1e-14, "maxiter": 1000})
    assert res.success, res.message
    w = res.x[:d]
    per_positive = losses(w)
    return (min(s + np.maximum(per_positive - s, 0.0).sum() / k for s in per_positive)
            + 0.5 * weight_decay * w @ w)


@pytest.mark.parametrize("surrogate", ["squared_hinge", "logistic"])
def test_pauc_solvers_reach_the_full_batch_reference(surrogate):
    # The gate is 1e-2 on the averaged iterate's objective, the gate
    # acceptance 09 puts on GDRO, a problem of the same scale: here F* is
    # about 0.5-0.7 (F(0) is ell(0): 1 or log 2), so the gate is under 2% of
    # it.  No solver may end below the reference by more than the
    # reference's own accuracy.
    wd, T = 0.1, 3000
    data = build_synthetic_pauc(8, 40, 3, 1.0, 0.5, np.random.default_rng(7))
    problem = build_pauc(data, surrogate=surrogate, weight_decay=wd)
    reference = solve_pauc_reference(data, surrogate, wd)
    configs = {
        "alexr-theta0": AlexrConfig(eta=40.0, tau=1.0, theta=0.0, S=4, B=64, T=T, seed=1),
        "alexr-theta1": AlexrConfig(eta=40.0, tau=1.0, theta=1.0, S=4, B=64, T=T, seed=1),
        "sox": BaselineConfig("sox", step=40.0, gamma=0.5, S=4, B=64, T=T, seed=1,
                              subgradient_fallback=True),
    }
    finals = {name: run(cfg, problem, eval_every=T).rows[-1] for name, cfg in configs.items()}
    assert len({row.oracle_count for row in finals.values()}) == 1
    for name, row in finals.items():
        assert -1e-8 <= row.objective_avg - reference <= 1e-2, (name, row.objective_avg, reference)


@pytest.mark.parametrize("family", ["hard_smooth", "hard_nonsmooth"])
def test_hard_solvers_reach_the_known_minimizer(family):
    # The gate is on each last iterate's squared distance to the problem's
    # own x_star: at most 1% of ||x_star||^2, the distance from x0 = 0, so
    # each solver ends within a tenth of ||x_star|| of the minimizer.  A
    # solver that settles at another point fails it: at B = 1 a single
    # draw crosses the non-smooth f's kink at -nu three times in four near
    # x* = -0.25, so bsgd's plug-in subgradient is biased, and it ends at
    # 56% of ||x_star||^2 (measured, same S and step).  Here B = 64 keeps
    # the batch-mean noise (std about 0.1) away from that kink, and from the
    # smooth f's clip points near x* = -0.2.  All solvers of a family take
    # the same S, B and T, so they spend equal oracle counts.
    n, S, B, T = 50, 25, 64, 8000
    if family == "hard_smooth":
        problem = build_hard_smooth(n, 0.3, 1.0)
        configs = {
            "alexr": strongly_convex_preset(mu=problem.mu, n=n, S=S, B=B, T=T, epsilon=1e-3,
                                            seed=1),
            "sox": BaselineConfig("sox", step=3.0, gamma=0.5, S=S, B=B, T=T, seed=1),
            "msvr": BaselineConfig("msvr", step=3.0, gamma=0.5, S=S, B=B, T=T, seed=1),
            "bsgd": BaselineConfig("bsgd", step=3.0, S=S, B=B, T=T, seed=1),
        }
    else:
        problem = build_hard_nonsmooth(n, 0.5, 1.0, 4.0, 1.0)
        configs = {
            "alexr-theta0": AlexrConfig(eta=50.0, tau=1.0, theta=0.0, S=S, B=B, T=T, seed=1),
            "bsgd": BaselineConfig("bsgd", step=50.0, S=S, B=B, T=T, seed=1),
        }
    finals = {name: run(cfg, problem, eval_every=T).rows[-1] for name, cfg in configs.items()}
    assert {row.oracle_count for row in finals.values()} == {2 * S * B * T}
    tolerance = 1e-2 * float(problem.x_star @ problem.x_star)
    for name, row in finals.items():
        assert row.dist_sq <= tolerance, (name, row.dist_sq, tolerance)


def test_gdro_exact_stochastic_agreement_on_full_batch(small_gdro_data):
    problem = build_gdro(small_gdro_data, divergence="cvar", alpha=0.5)
    x = np.array([0.1, -0.2, 0.5])
    for orc in problem.inners:
        assert orc.stochastic_value(x, np.arange(orc.size)) == pytest.approx(
            orc.exact_value(x), abs=1e-12)


def test_pauc_degenerate_selection_rejected():
    pos = np.zeros((1, 2))
    neg = np.zeros((5, 2))
    with pytest.raises(InvalidParameterError):
        PaucDataset(positives=pos, negatives=neg, alpha=0.5)


# --- diagnostic scalar instance --------------------------------------------


def test_cvar_scalar_optimum_splits_levels():
    risks = np.linspace(0.1, 1.0, 10)
    problem = build_cvar_scalar(risks, alpha=0.5)
    c_star = problem.x_star[0]
    above = np.count_nonzero(risks > c_star)
    assert above == 5
    # c_star minimizes the objective on a grid
    grid = np.linspace(0.0, 1.2, 12_001)
    vals = [evaluate_objective(problem, np.array([c])) for c in grid]
    assert evaluate_objective(problem, np.array([c_star])) <= min(vals) + 1e-9
