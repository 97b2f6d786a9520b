"""Problem abstraction: composite finite-sum objectives, their saddle form,
box domains, regularizers, and sampling utilities.

A problem bundles one outer transform f, n stochastic inner oracles g_i, a
quadratic-plus-linear regularizer r, and a box domain.  The objective is

    F(x) = (1/n) * sum_i f(g_i(x)) + r(x)

and its saddle counterpart, used by the primal-dual solvers, is

    L(x, y) = (1/n) * sum_i [ g_i(x) * y_i - f*(y_i) ] + r(x).

Every inner map has a scalar output, so the dual table is a length-n
vector with one block per component.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainViolationError,
    InvalidBatchSizeError,
    InvalidParameterError,
    UnsupportedExactEvaluationError,
)
from .outers import OuterFunction


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
    convexity modulus, the smallest quadratic coefficient.
    """

    def __init__(self, l2_coeff=0.0, linear=None):
        self.l2_coeff = l2_coeff if np.isscalar(l2_coeff) else np.asarray(l2_coeff, dtype=float)
        if not np.all(np.asarray(self.l2_coeff) >= 0):  # NaN fails too
            raise InvalidParameterError("l2_coeff must be nonnegative")
        self.linear = None if linear is None else np.asarray(linear, dtype=float)
        self.mu = float(np.min(self.l2_coeff))

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


class IndexBatchOracle(InnerOracle):
    """An inner oracle over a finite population of `size` samples whose batch
    handles are sample indices drawn uniformly with replacement.  A problem
    whose inners are all of this kind draws every batch of a solver step in
    one call (see `ProblemInstance.draw`)."""

    def sample_batch(self, rng, size):
        return rng.integers(0, self.size, size=size)


class FlatSampleView(ABC):
    """Per-sample loss view used by the plain SGD baselines."""

    n_samples = 0
    group_of = None  # (n_samples,) int array or None

    @abstractmethod
    def loss_and_grad(self, x, idx):
        """Mean loss and mean gradient over the samples in `idx`."""

    @cached_property
    def inverse_frequency_probs(self):
        """Per-sample probabilities, computed once: group g is drawn with
        probability proportional to 1/|g|, then a sample uniformly within it."""
        if self.group_of is None:
            raise InvalidParameterError("flat view carries no group labels")
        counts = np.bincount(self.group_of)
        group_prob = (1.0 / counts) / np.sum(1.0 / counts)
        return group_prob[self.group_of] / counts[self.group_of]


@dataclass
class ProblemInstance:
    """The tuple (f, g_i, r, X) with exact evaluation and sampling support:
    one `OuterFunction` f shared by every component, and what is known of
    the optimum, the minimizer `x_star` and the optimal value `f_star` (None
    where unknown), which `solvers.run` reads for its gap column.

    `n` (the number of inners), `dim` (the domain's) and `mu` (the
    regularizer's strong-convexity modulus) are derived, as are the
    attributes below, so none of them can disagree with the parts.  An
    `l2_coeff` or `linear` array of the regularizer, and `x_star`, must have
    length `dim`.

    A block solver keeps one scalar per component in its state's `table`
    (see `solvers.init_state`): the dual values y_i for quadratic ALEXR, the
    tracked inner values u_i for conjugate ALEXR, sox and msvr; component i
    of the table is only touched when block i is sampled.

    `supports_exact` says whether every inner has exact evaluation, which
    `evaluate_objective` needs.

    When each inner i is exactly an `instances.CoordinateNoiseOracle` with
    index i, all sharing one noise object (as in the hard-instance
    builders), `kernel` is their vectorized backend
    `instances.CoordinateNoiseKernel`: every block solver (alexr, sox, msvr,
    bsgd) then handles a step's sampled blocks in one call per kernel method
    instead of one oracle call per block, with the same random stream and
    results.  Otherwise it is None.  `flat_view` optionally exposes the
    per-sample loss view needed by the SGD baselines; `aux_metrics(x)`
    optionally reports extra named diagnostics alongside the objective.
    """

    outer: OuterFunction
    inners: Sequence[InnerOracle]
    regularizer: Regularizer
    domain: BoxDomain
    flat_view: Optional[FlatSampleView] = None
    aux_metrics: object = None
    f_star: Optional[float] = None
    x_star: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.inners) == 0:
            raise InvalidParameterError("inners must be non-empty")
        if not isinstance(self.outer, OuterFunction):
            raise InvalidParameterError(
                f"outer must be one OuterFunction, got {type(self.outer).__name__}")
        reg = self.regularizer
        self.n, self.dim, self.mu = len(self.inners), self.domain.dim, reg.mu
        # a scalar l2_coeff applies to every coordinate
        sized = {"regularizer.l2_coeff": reg.l2_coeff if np.ndim(reg.l2_coeff) else None,
                 "regularizer.linear": reg.linear, "x_star": self.x_star}
        for name, value in sized.items():
            if value is not None and np.shape(value) != (self.dim,):
                raise InvalidParameterError(
                    f"{name} has shape {np.shape(value)}; domain.dim is {self.dim}")
        nonlinear = next((i for i, g in enumerate(self.inners) if not g.is_affine), None)
        if nonlinear is not None and not self.outer.is_monotone:
            raise InvalidParameterError(
                f"component {nonlinear}: nonlinear inner requires a nonnegative dual domain")
        self.supports_exact = all(g.supports_exact for g in self.inners)
        self._sizes = None
        if all(isinstance(g, IndexBatchOracle) for g in self.inners):
            self._sizes = np.array([g.size for g in self.inners], dtype=np.int64)
        from .instances import CoordinateNoiseKernel, CoordinateNoiseOracle  # imports this module

        noise = getattr(self.inners[0], "noise", None)
        self.kernel = None
        if all(type(g) is CoordinateNoiseOracle and g.index == i and g.noise is noise
               for i, g in enumerate(self.inners)):
            self.kernel = CoordinateNoiseKernel(noise)

    def initial_point(self):
        return self.domain.project(np.zeros(self.dim))

    def draw(self, rng, S, B):
        """All the randomness of one block-solver step, as `(idx, batches)`:
        the randomness-ordering contract the equivalence tests rely on.

        A step consumes the outer batch `idx` (`sample_outer_batch`: S
        sorted distinct components), then, for each sampled block in
        ascending order, its value batch and then its Jacobian batch, of
        size B each: `batches[k]` is block `idx[k]`'s pair.  With a `kernel`
        they are one (S, 2, B) noise draw; when every inner is an
        `IndexBatchOracle`, one `rng.integers` call with the blocks' sizes as
        an (S, 1, 1) bound; otherwise two `sample_batch` calls per block.
        The first two give the numbers and generator state of the third."""
        idx = sample_outer_batch(rng, self.n, S)
        if self.kernel is not None:
            return idx, self.kernel.draw(rng, S, B)
        if self._sizes is not None:
            return idx, rng.integers(0, self._sizes[idx][:, None, None], size=(S, 2, B))
        inners = [self.inners[i] for i in idx]
        return idx, [(g.sample_batch(rng, B), g.sample_batch(rng, B)) for g in inners]


def evaluate_objective(problem, x):
    """Exact objective F(x); raises if x is infeasible or any oracle lacks
    exact evaluation."""
    x = np.asarray(x, dtype=float)
    if not problem.domain.contains(x):
        raise DomainViolationError("x lies outside the box domain")
    if not problem.supports_exact:
        raise UnsupportedExactEvaluationError("an inner oracle lacks exact evaluation")
    f, total = problem.outer, 0.0
    for g in problem.inners:
        total += float(f.value(g.exact_value(x)))
    return total / problem.n + problem.regularizer.value(x)


def evaluate_saddle(problem, x, y):
    """Saddle value L(x, y) for a length-n array y of dual values."""
    x = np.asarray(x, dtype=float)
    f, total = problem.outer, 0.0
    for g, yi in zip(problem.inners, y):
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
