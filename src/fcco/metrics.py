"""Evaluation metrics and rate-analysis utilities: exact partial AUC,
worst-group aggregation, dual-table radius accounting, and log-log
complexity-slope fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import (
    DegenerateSelectionError,
    InsufficientPointsError,
    InvalidParameterError,
)


def pauc_exact(pos_scores, neg_scores, alpha):
    """Exact partial AUC restricted to the bottom-(1-alpha) fraction of
    positives by score: mean over the k = floor(n_pos*(1-alpha)) selected
    positives and all negatives of 1[s_pos > s_neg], ties counting 1/2.

    Computed with integer pair counts, so it matches a naive enumeration
    over all selected pairs exactly."""
    pos = np.asarray(pos_scores, dtype=float)
    neg = np.asarray(neg_scores, dtype=float)
    if not 0.0 <= alpha < 1.0:
        raise InvalidParameterError(f"alpha must lie in [0, 1), got {alpha}")
    k = int(math.floor(len(pos) * (1.0 - alpha)))
    if k < 1:
        raise DegenerateSelectionError("no positives selected: floor(n_pos*(1-alpha)) = 0")
    if len(neg) == 0:
        raise DegenerateSelectionError("no negative scores")
    selected = np.sort(pos, kind="stable")[:k]
    neg_sorted = np.sort(neg, kind="stable")
    wins = np.searchsorted(neg_sorted, selected, side="left")
    ties = np.searchsorted(neg_sorted, selected, side="right") - wins
    numerator = int(2 * wins.sum() + ties.sum())
    return numerator / (2 * k * len(neg))


def worst_fraction_group_metric(per_group_values, alpha, mode="accuracy"):
    """Mean of the ceil(alpha*n) worst per-group values: the lowest values
    when mode='accuracy' (higher is better), the highest when mode='mean'
    (per-group mean losses, lower is better)."""
    values = np.asarray(per_group_values, dtype=float)
    if values.size == 0:
        raise DegenerateSelectionError("no per-group values")
    k = int(math.ceil(alpha * values.size))
    if k < 1:
        raise DegenerateSelectionError("alpha * n_groups must be at least 1")
    ordered = np.sort(values)
    if mode == "accuracy":
        chosen = ordered[:k]
    elif mode == "mean":
        chosen = ordered[-k:]
    else:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    return float(np.mean(chosen))


@dataclass
class DualRadiusReport:
    """Distance of a dual-table witness from the initial table."""

    omega_y0: float
    worst_case: float
    sparsity_fraction: float


def compute_dual_witness(problem, x_bar):
    """Block-wise maximizer of v*g_i(x_bar) - f_i*(v), i.e. a subgradient of
    f_i at the exact inner value (midpoint convention at kinks)."""
    return np.array([
        float(f.subgradient(g.exact_value(x_bar)))
        for f, g in zip(problem.outers, problem.inners)
    ])


def dual_radius(problem, y_tilde, y0, psi_mode="quadratic"):
    """Sum over blocks of the distance-generating divergence between the
    witness table and the initial table, with its worst case sum_i C_f_i^2/2
    and the fraction of zero witness blocks."""
    y_tilde = np.asarray(y_tilde, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    if psi_mode == "quadratic":
        omega = 0.5 * float(np.sum((y_tilde - y0) ** 2))
    elif psi_mode == "conjugate":
        omega = 0.0
        for f, yt, y_init in zip(problem.outers, y_tilde, y0):
            omega += (float(f.conjugate_value(yt)) - float(f.conjugate_value(y_init))
                      - float(f.conjugate_grad(y_init)) * (yt - y_init))
    else:
        raise InvalidParameterError(f"unknown psi_mode {psi_mode!r}")
    worst = 0.5 * float(sum(f.lipschitz ** 2 for f in problem.outers))
    sparsity = float(np.mean(np.abs(y_tilde) <= 1e-12))
    return DualRadiusReport(omega_y0=omega, worst_case=worst, sparsity_fraction=sparsity)


@dataclass
class RateFit:
    """Least-squares line through (log eps, log iterations)."""

    slope: float
    intercept: float
    r_squared: float
    points: List[Tuple[float, float]] = field(default_factory=list)


def fit_rate(targets):
    """Fit log T against log eps for pairs (eps, iterations-to-reach-eps).

    Requires at least three pairs with strictly decreasing eps.  A slope
    near -1 indicates O(1/eps) iteration growth, near -2 indicates
    O(1/eps^2)."""
    if len(targets) < 3:
        raise InsufficientPointsError(f"need >= 3 points, got {len(targets)}")
    eps = np.asarray([t[0] for t in targets], dtype=float)
    iters = np.asarray([t[1] for t in targets], dtype=float)
    if np.any(eps[1:] >= eps[:-1]):
        raise InvalidParameterError("eps values must be strictly decreasing")
    if np.any(iters <= 0):
        raise InvalidParameterError("iteration counts must be positive")
    lx = np.log(eps)
    ly = np.log(iters)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(slope=float(slope), intercept=float(intercept), r_squared=r_sq,
                   points=list(zip(lx.tolist(), ly.tolist())))
