"""Problem abstraction: composite finite-sum objectives, their saddle form,
box domains, regularizers, and sampling utilities.

A problem bundles n outer transforms f_i, n stochastic inner oracles g_i, a
quadratic-plus-linear regularizer r, and a box domain.  The objective is

    F(x) = (1/n) * sum_i f_i(g_i(x)) + r(x)

and its saddle counterpart, used by the primal-dual solvers, is

    L(x, y) = (1/n) * sum_i [ g_i(x) * y_i - f_i*(y_i) ] + r(x).

Every inner map has a scalar output, so the dual table is a length-n
vector with one block per component.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainViolationError,
    InvalidBatchSizeError,
    InvalidParameterError,
    UnsupportedExactEvaluationError,
)


class BoxDomain:
    """Per-coordinate closed intervals, possibly unbounded."""

    def __init__(self, lower, upper, dim):
        self.dim = int(dim)
        self.lower = np.broadcast_to(np.asarray(lower, dtype=float), (self.dim,)).copy()
        self.upper = np.broadcast_to(np.asarray(upper, dtype=float), (self.dim,)).copy()
        if np.any(self.lower > self.upper):
            raise InvalidParameterError("box domain has an empty interval")
        self.is_bounded = bool(np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper)))

    @classmethod
    def unbounded(cls, dim):
        return cls(-math.inf, math.inf, dim)

    @classmethod
    def symmetric(cls, radius, dim):
        return cls(-radius, radius, dim)

    def project(self, x):
        # np.clip's result, signed zeros included: with array bounds it keeps
        # this operand order
        return np.minimum(np.maximum(x, self.lower), self.upper)

    def contains(self, x, tol=1e-9):
        x = np.asarray(x, dtype=float)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def __repr__(self):
        return f"BoxDomain(dim={self.dim}, bounded={self.is_bounded})"


class Regularizer:
    """r(x) = sum_j l2[j]/2 * x[j]^2 + linear . x, with closed-form prox.

    `l2` may be a scalar or a per-coordinate vector; `mu` is the strong
    convexity modulus (the smallest quadratic coefficient unless overridden).
    """

    def __init__(self, l2_coeff=0.0, linear=None, mu=None):
        self.l2_coeff = l2_coeff if np.isscalar(l2_coeff) else np.asarray(l2_coeff, dtype=float)
        if np.any(np.asarray(self.l2_coeff) < 0):
            raise InvalidParameterError("l2_coeff must be nonnegative")
        self.linear = None if linear is None else np.asarray(linear, dtype=float)
        self.mu = float(np.min(self.l2_coeff) if mu is None else mu)
        if self.mu < 0:
            raise InvalidParameterError("mu must be nonnegative")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * float(np.sum(self.l2_coeff * x * x))
        if self.linear is not None:
            out += float(self.linear @ x)
        return out

    def prox(self, v, scale, domain=None):
        """argmin_z { scale * r(z) + ||z - v||^2 / 2 }, then box projection."""
        v = np.asarray(v, dtype=float)
        if self.linear is not None:
            v = v - scale * self.linear
        z = v / (1.0 + scale * self.l2_coeff)
        return z if domain is None else domain.project(z)

    def __repr__(self):
        return f"Regularizer(mu={self.mu})"


class InnerOracle(ABC):
    """Stochastic scalar-output inner map g_i.

    Batch handles are opaque: index arrays for finite-sum oracles, raw noise
    draws for distributional ones.  `sample_batch` is the only method that
    consumes randomness.  A custom oracle implements the four abstract
    methods; `is_affine` and `supports_exact` describe it to the problem.
    """

    is_affine = False
    supports_exact = True

    @abstractmethod
    def exact_value(self, x):
        """g_i(x) evaluated exactly (full pass or closed form)."""

    @abstractmethod
    def stochastic_value(self, x, batch):
        """g_i(x; batch)."""

    @abstractmethod
    def accumulate_jtvp(self, out, x, batch, y, scale):
        """out += scale * [g_i'(x; batch)]^T y, in place: the scaled
        Jacobian-transpose-vector product added into the d-vector `out`."""

    @abstractmethod
    def sample_batch(self, rng, size):
        """Draw a size-`size` mini-batch handle (i.i.d. with replacement)."""


class FlatSampleView(ABC):
    """Per-sample loss view used by the plain SGD baselines."""

    n_samples = 0
    group_of = None  # (n_samples,) int array or None

    @abstractmethod
    def loss_and_grad(self, x, idx):
        """Mean loss and mean gradient over the samples in `idx`."""

    def inverse_frequency_probs(self):
        """Per-sample probabilities: group g is drawn with probability
        proportional to 1/|g|, then a sample uniformly within the group."""
        if self.group_of is None:
            raise InvalidParameterError("flat view carries no group labels")
        counts = np.bincount(self.group_of)
        group_prob = (1.0 / counts) / np.sum(1.0 / counts)
        return group_prob[self.group_of] / counts[self.group_of]


@dataclass
class ProblemInstance:
    """The tuple (f_i, g_i, r, X) with exact evaluation and sampling support.

    A block solver keeps one scalar per component in its state's `table`
    (see `solvers.init_state`): the dual values y_i for quadratic ALEXR, the
    tracked inner values u_i for conjugate ALEXR, sox and msvr; component i
    of the table is only touched when block i is sampled.

    `kernel` optionally exposes a vectorized sampled-block backend (see
    `instances.CoordinateNoiseKernel`); when set, every block solver (alexr,
    sox, msvr, bsgd) handles all sampled blocks of a step in one call per
    kernel method instead of one oracle call per block, with the same random
    stream and results.  `flat_view` optionally exposes the per-sample loss
    view needed by the SGD baselines; `aux_metrics(x)` optionally reports
    extra named diagnostics alongside the objective.
    """

    n: int
    dim: int
    outers: Sequence
    inners: Sequence[InnerOracle]
    regularizer: Regularizer
    domain: BoxDomain
    flat_view: Optional[FlatSampleView] = None
    kernel: object = None
    aux_metrics: object = None
    name: str = ""

    def __post_init__(self):
        if self.n < 1:
            raise InvalidParameterError("n must be at least 1")
        if len(self.outers) != self.n or len(self.inners) != self.n:
            raise InvalidParameterError("outers and inners must both have length n")
        if self.domain.dim != self.dim:
            raise InvalidParameterError("domain dimension does not match primal dimension")
        for i, (f, g) in enumerate(zip(self.outers, self.inners)):
            if not g.is_affine:
                lo, _hi = f.dual_domain()
                if lo < 0:
                    raise InvalidParameterError(
                        f"component {i}: nonlinear inner requires a nonnegative dual domain"
                    )

    @property
    def supports_exact(self):
        return all(g.supports_exact for g in self.inners)

    def initial_point(self):
        return self.domain.project(np.zeros(self.dim))


def evaluate_objective(problem, x):
    """Exact objective F(x); raises if x is infeasible or any oracle lacks
    exact evaluation."""
    x = np.asarray(x, dtype=float)
    if not problem.domain.contains(x):
        raise DomainViolationError("x lies outside the box domain")
    if not problem.supports_exact:
        raise UnsupportedExactEvaluationError("an inner oracle lacks exact evaluation")
    total = 0.0
    for f, g in zip(problem.outers, problem.inners):
        total += float(f.value(g.exact_value(x)))
    return total / problem.n + problem.regularizer.value(x)


def evaluate_saddle(problem, x, y):
    """Saddle value L(x, y) for a length-n array y of dual values."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for f, g, yi in zip(problem.outers, problem.inners, y):
        total += float(g.exact_value(x)) * float(yi) - float(f.conjugate_value(yi))
    return total / problem.n + problem.regularizer.value(x)


def sample_outer_batch(rng, n, size):
    """`size` distinct component indices, uniform without replacement,
    returned sorted for a stable block-update order."""
    if size < 1 or size > n:
        raise InvalidBatchSizeError(f"outer batch size {size} not in [1, {n}]")
    if size == n:
        return np.arange(n)
    idx = rng.permutation(n)[:size]
    idx.sort()
    return idx


def primal_prox_step(x, grad_estimate, eta, regularizer, domain):
    """argmin_{z in box} { <G, z> + r(z) + eta/2 * ||z - x||^2 }."""
    v = np.asarray(x, dtype=float) - np.asarray(grad_estimate, dtype=float) / eta
    return regularizer.prox(v, 1.0 / eta, domain)
