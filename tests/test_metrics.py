"""Metrics: gaps, exact partial AUC, worst-group stats, dual radius, rate fits."""

import math

import numpy as np
import pytest

from fcco.errors import DegenerateSelectionError, InsufficientPointsError, InvalidParameterError
from fcco.instances import build_cvar_scalar, build_hard_nonsmooth, build_hard_smooth
from fcco.metrics import (
    compute_dual_witness,
    dual_radius,
    fit_rate,
    pauc_exact,
    worst_fraction_group_metric,
)
from fcco.problem import evaluate_objective
from fcco.solvers import AlexrConfig, BaselineConfig, run


def pauc_double_loop(pos, neg, alpha):
    """Naive enumeration over every selected pair (integer counts)."""
    pos = sorted(pos)
    k = int(math.floor(len(pos) * (1.0 - alpha)))
    total = 0
    for s in pos[:k]:
        for t in neg:
            if s > t:
                total += 2
            elif s == t:
                total += 1
    return total / (2 * k * len(neg))


# --- objective gaps ----------------------------------------------------------


def test_objective_gap_at_optimum_and_identity():
    inst = build_hard_smooth(10, 0.3, 1.0)
    assert evaluate_objective(inst, inst.x_star) - inst.f_star == pytest.approx(0.0, abs=1e-12)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=10)
        assert evaluate_objective(inst, x) - inst.f_star >= -1e-9


def test_objective_gap_at_origin():
    inst = build_hard_smooth(10, 0.3, 1.0)
    assert evaluate_objective(inst, np.zeros(10)) - inst.f_star == pytest.approx(0.03)


def test_distance_sq_gap():
    # with averaging='last' and a known x_star, the gap column is
    # (mu/2)*||x_t - x_star||^2
    inst = build_hard_smooth(100, 0.3, 1.0)
    cfg = AlexrConfig(eta=0.5, tau=1.0, theta=1.0, S=4, B=1, T=30, averaging="last")
    rows = run(cfg, inst, 10).rows
    # x0 = 0 and x_star = -0.2 per coordinate: squared distance 4, mu = 1/200
    assert rows[0].dist_sq == pytest.approx(4.0)
    assert rows[0].gap == pytest.approx(0.01)
    for row in rows:
        assert row.dist_sq >= 0.0
        assert row.gap == 0.5 * inst.mu * row.dist_sq
    # at mu = 0 that product is 0 wherever x_t is, and every target would
    # read as hit at t = 0; the gap falls back to F(x_t) - f_star
    flat = build_hard_nonsmooth(10, 0.5, 1.0, 0.0, 1.0)
    assert flat.mu == 0.0
    rows = run(BaselineConfig("bsgd", step=1.0, S=2, T=200, averaging="last"), flat, 100).rows
    assert rows[0].gap == pytest.approx(0.5)  # F(0) = 0 and f_star = -beta*nu
    for row in rows:
        assert row.gap == row.objective - flat.f_star


# --- partial AUC ------------------------------------------------------------


def test_pauc_exact_examples():
    assert pauc_exact([0.9, 0.2], [0.5], 0.5) == 0.0
    assert pauc_exact([0.9, 0.8, 0.7], [0.1, 0.2], 0.5) == 1.0
    assert pauc_exact([0.5], [0.5], 0.0) == 0.5  # tie counts one half


def test_pauc_exact_selects_bottom_scores():
    # the restricted metric counts only the lowest-scoring positives
    assert pauc_exact([0.9, 0.1], [0.5], 0.5) == 0.0
    assert pauc_exact([0.9, 0.1], [0.5], 0.0) == 0.5


def test_pauc_exact_matches_double_loop_small_sweep():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n_pos = int(rng.integers(2, 20))
        n_neg = int(rng.integers(1, 20))
        # discrete scores force plenty of ties
        pos = rng.integers(0, 6, size=n_pos) / 5.0
        neg = rng.integers(0, 6, size=n_neg) / 5.0
        alpha = float(rng.uniform(0.05, 0.9))
        if math.floor(n_pos * (1 - alpha)) < 1:
            continue
        assert pauc_exact(pos, neg, alpha) == pauc_double_loop(pos.tolist(), neg.tolist(), alpha)


def test_pauc_exact_degenerate_selection():
    with pytest.raises(DegenerateSelectionError):
        pauc_exact([0.5], [0.1], 0.5)  # floor(1 * 0.5) = 0


# --- worst-fraction metric ----------------------------------------------------


def test_worst_fraction_examples():
    assert worst_fraction_group_metric([0.7, 0.7, 0.7], 0.5, mode="accuracy") == pytest.approx(0.7)
    assert worst_fraction_group_metric([0.9, 0.1, 0.5, 0.3], 0.5, mode="accuracy") == pytest.approx(0.2)
    assert worst_fraction_group_metric([0.9, 0.1, 0.5, 0.3], 1.0, mode="accuracy") == pytest.approx(0.45)
    # loss orientation: worst = largest values
    assert worst_fraction_group_metric([0.9, 0.1, 0.5, 0.3], 0.5, mode="mean") == pytest.approx(0.7)
    with pytest.raises(DegenerateSelectionError):
        worst_fraction_group_metric([], 0.5)


# --- dual radius ---------------------------------------------------------------


def test_dual_radius_zero_when_witness_matches_start():
    problem = build_cvar_scalar(np.linspace(0.1, 1.0, 8), alpha=0.5)
    y = np.full(8, 0.7)
    report = dual_radius(problem, y, y)
    assert report.omega_y0 == 0.0


def test_dual_radius_worst_case_attained():
    problem = build_cvar_scalar(np.linspace(0.1, 1.0, 8), alpha=0.5)
    cap = problem.outer.lipschitz
    report = dual_radius(problem, np.full(8, cap), np.zeros(8))
    assert report.omega_y0 == pytest.approx(report.worst_case)
    assert report.worst_case == pytest.approx(8 * cap ** 2 / 2)
    assert report.sparsity_fraction == 0.0


def test_dual_radius_sparsity_at_optimum():
    risks = np.linspace(0.05, 1.0, 20)
    problem = build_cvar_scalar(risks, alpha=0.5)
    c_star = problem.x_star[0]
    witness = compute_dual_witness(problem, np.array([c_star]))
    report = dual_radius(problem, witness, np.zeros(20))
    assert report.sparsity_fraction == pytest.approx(0.5)
    assert 0.0 <= report.omega_y0 <= report.worst_case + 1e-9
    assert report.omega_y0 == pytest.approx(0.5 * report.worst_case, rel=1e-12)


def test_dual_radius_conjugate_mode():
    from fcco.instances import build_hard_smooth

    inst = build_hard_smooth(4, 0.3, 1.0)
    y0 = np.zeros(4)
    y = np.full(4, 0.3)
    rep = dual_radius(inst, y, y0, psi_mode="conjugate")
    # for the smooth hard outer, the conjugate divergence equals the
    # quadratic one: f*(y) = (y - nu)^2/2
    assert rep.omega_y0 == pytest.approx(0.5 * np.sum((y - y0) ** 2))


# --- rate fitting -----------------------------------------------------------


def test_fit_rate_recovers_planted_laws():
    eps = [0.04, 0.02, 0.01, 0.005]
    lin = [(e, 7.0 / e) for e in eps]
    quad = [(e, 3.0 / e ** 2) for e in eps]
    f1 = fit_rate(lin)
    f2 = fit_rate(quad)
    assert f1.slope == pytest.approx(-1.0, abs=1e-3)
    assert f1.r_squared == pytest.approx(1.0, abs=1e-12)
    assert f2.slope == pytest.approx(-2.0, abs=1e-3)
    assert math.exp(f1.intercept) == pytest.approx(7.0, rel=1e-6)


def test_fit_rate_validation():
    with pytest.raises(InsufficientPointsError):
        fit_rate([(0.1, 10), (0.05, 20)])
    with pytest.raises(InvalidParameterError):
        fit_rate([(0.1, 10), (0.2, 20), (0.05, 40)])
    with pytest.raises(InvalidParameterError):
        fit_rate([(0.1, 10), (0.05, 0), (0.025, 40)])
