"""Outer function library: values, subgradients, conjugates, and dual proximal steps.

Every function here is convex with a closed dual interval on which its
conjugate is finite.  The dual proximal step

    argmax_{v in [lo, hi]} { v*g - f*(v) - (tau/2) * (v - y)**2 }

has a closed form for each shipped function because every conjugate is at
most quadratic on its domain.  All value/derivative methods accept floats or
numpy arrays and broadcast elementwise.  `HuberHard.value` computes a float
argument in scalar arithmetic, with the same result as its array path, bit
for bit; exact evaluation calls it once per component.  So do
`ScaledPositivePart.subgradient` and `prox_dual_quadratic`, which the
per-block solver path calls once per sampled block; both return the array
path's `np.float64`.

Clamps onto scalar bounds are written np.minimum(hi, np.maximum(lo, v)): in
that operand order they return what np.clip returns, signed zeros included,
at about half its cost.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from .errors import InvalidParameterError, NotSmoothError

INF = math.inf


class OuterFunction(ABC):
    """Convex scalar outer function with conjugate and dual prox.

    Attributes
    ----------
    is_monotone : bool
        Non-decreasing in its argument (required when composed with a
        nonlinear inner map).
    lipschitz : float
        Bound on |subgradient|; equals the outward radius of the dual
        interval.  May be ``inf`` for unbounded dual domains.
    smoothness : float or None
        Gradient Lipschitz constant; ``None`` marks a non-smooth function.
    """

    is_monotone = False
    lipschitz = INF
    smoothness = None

    @property
    def is_smooth(self):
        return self.smoothness is not None

    @abstractmethod
    def value(self, u):
        """f(u)."""

    @abstractmethod
    def subgradient(self, u):
        """An element of the subdifferential; midpoint convention at kinks."""

    @abstractmethod
    def conjugate_value(self, y):
        """f*(y) = sup_u { y*u - f(u) }; +inf outside the dual interval."""

    @abstractmethod
    def dual_domain(self):
        """Closed interval (lo, hi) on which the conjugate is finite."""

    @abstractmethod
    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        """argmax_{v in dual domain} { v*g - f*(v) - (tau/2)(v - y_prev)^2 }."""

    def grad(self, u):
        """Gradient of f; only defined for smooth functions."""
        raise NotSmoothError(f"{type(self).__name__} is not smooth")

    def conjugate_grad(self, y):
        """Gradient of the conjugate; inverse of `grad` where strictly convex."""
        raise NotSmoothError(f"{type(self).__name__} has no differentiable conjugate")


class ScaledPositivePart(OuterFunction):
    """f(u) = (u)_+ / alpha, the capped-hinge transform.

    Conjugate is identically 0 on its dual interval [0, 1/alpha].
    """

    is_monotone = True

    def __init__(self, alpha):
        if not alpha > 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self.cap = 1.0 / self.alpha
        self.lipschitz = self.cap

    def value(self, u):
        return np.maximum(u, 0.0) / self.alpha

    def subgradient(self, u):
        if isinstance(u, float):
            # NaN and +-0.0 fall through both tests, as in np.where
            return np.float64(self.cap if u > 0 else 0.0 if u < 0 else 0.5 * self.cap)
        return np.where(np.asarray(u) > 0, self.cap, np.where(np.asarray(u) < 0, 0.0, 0.5 * self.cap))[()]

    def conjugate_value(self, y):
        return np.where((np.asarray(y) >= 0) & (np.asarray(y) <= self.cap), 0.0, INF)[()]

    def dual_domain(self):
        return (0.0, self.cap)

    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        v = y_prev + g_tilde / tau
        if isinstance(v, float):
            # np.maximum(a, b) is a if a > b (or a is NaN) else b, and
            # np.minimum(a, b) is a if a < b (or a is NaN) else b: a NaN v
            # passes through and maximum(0.0, -0.0) is -0.0
            if 0.0 > v:
                v = 0.0
            if self.cap < v:
                v = self.cap
            return np.float64(v)
        return np.minimum(self.cap, np.maximum(0.0, v))

    def __repr__(self):
        return f"ScaledPositivePart(alpha={self.alpha})"


class PositivePart(ScaledPositivePart):
    """f(u) = (u)_+ with dual interval [0, 1]."""

    def __init__(self):
        super().__init__(1.0)

    def __repr__(self):
        return "PositivePart()"


class ChiSquareOuter(OuterFunction):
    """f(u) = lam * ((u + 2)_+^2 / 4 - 1), the chi-square penalty transform.

    Direct conjugation gives f*(y) = y^2/lam - 2y + lam = lam*(y/lam - 1)^2
    for y >= 0 (validated against the grid oracle in the test suite).  The
    dual interval is capped at `cap`, supplied by the problem builder from
    its risk bounds.
    """

    is_monotone = True

    def __init__(self, lam, cap):
        if not lam > 0:
            raise InvalidParameterError(f"lam must be positive, got {lam}")
        if not cap > 0:
            raise InvalidParameterError(f"cap must be positive, got {cap}")
        self.lam = float(lam)
        self.cap = float(cap)
        self.lipschitz = self.cap
        self.smoothness = self.lam / 2.0

    def value(self, u):
        return self.lam * (0.25 * np.maximum(np.asarray(u) + 2.0, 0.0) ** 2 - 1.0)

    def grad(self, u):
        return self.lam * np.maximum(np.asarray(u) + 2.0, 0.0) / 2.0

    def subgradient(self, u):
        return self.grad(u)

    def conjugate_value(self, y):
        y = np.asarray(y)
        val = y ** 2 / self.lam - 2.0 * y + self.lam
        return np.where((y >= 0) & (y <= self.cap), val, INF)[()]

    def conjugate_grad(self, y):
        return 2.0 * np.asarray(y) / self.lam - 2.0

    def dual_domain(self):
        return (0.0, self.cap)

    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        return np.minimum(self.cap, np.maximum(0.0, (g_tilde + 2.0 + tau * y_prev) / (2.0 / self.lam + tau)))

    def __repr__(self):
        return f"ChiSquareOuter(lam={self.lam}, cap={self.cap})"


class HuberHard(OuterFunction):
    """Smooth three-branch function used by the hard benchmark instances.

    Quadratic (u + nu)^2/2 - nu^2/2 on [-1, 1] with linear extensions of
    matching slope outside, so the gradient is clip(u + nu, nu-1, nu+1) and
    the conjugate is (y - nu)^2 / 2 on [nu-1, nu+1].  Not monotone: its dual
    interval reaches below zero, so it may only be paired with affine inner
    maps.
    """

    smoothness = 1.0

    def __init__(self, nu):
        if not 0 < nu < 1:
            raise InvalidParameterError(f"nu must lie in (0, 1), got {nu}")
        self.nu = float(nu)
        self.lipschitz = 1.0 + self.nu

    def value(self, u):
        nu = self.nu
        if isinstance(u, float):
            # the array path's arithmetic on the selected piece only; both
            # square as `d * d`, because a scalar `** 2` (Python's, or numpy's
            # on a 0-d array) calls pow(), which can round differently
            if u < -1.0:
                return (nu - 1.0) * u + 0.5 * (nu - 1.0) ** 2 + nu - 1.0 - 0.5 * nu ** 2
            if u > 1.0:
                return (1.0 + nu) * u + 0.5 * (1.0 + nu) ** 2 - 1.0 - nu - 0.5 * nu ** 2
            d = u + nu
            return 0.5 * (d * d) - 0.5 * nu ** 2
        u = np.asarray(u, dtype=float)
        d = u + nu
        mid = 0.5 * (d * d) - 0.5 * nu ** 2
        lo = (nu - 1.0) * u + 0.5 * (nu - 1.0) ** 2 + nu - 1.0 - 0.5 * nu ** 2
        hi = (1.0 + nu) * u + 0.5 * (1.0 + nu) ** 2 - 1.0 - nu - 0.5 * nu ** 2
        return np.where(u < -1.0, lo, np.where(u > 1.0, hi, mid))[()]

    def grad(self, u):
        return np.minimum(self.nu + 1.0, np.maximum(self.nu - 1.0, np.asarray(u) + self.nu))[()]

    def subgradient(self, u):
        return self.grad(u)

    def conjugate_value(self, y):
        y = np.asarray(y)
        val = 0.5 * (y - self.nu) ** 2
        return np.where((y >= self.nu - 1.0) & (y <= self.nu + 1.0), val, INF)[()]

    def conjugate_grad(self, y):
        return np.asarray(y) - self.nu

    def dual_domain(self):
        return (self.nu - 1.0, self.nu + 1.0)

    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        return np.minimum(self.nu + 1.0, np.maximum(self.nu - 1.0, (g_tilde + self.nu + tau * y_prev) / (1.0 + tau)))

    def __repr__(self):
        return f"HuberHard(nu={self.nu})"


class HingeHard(OuterFunction):
    """f(u) = beta * max(u, -nu), the non-smooth hard-instance transform.

    Equals max_{y in [0, beta]} { y*u - nu*(beta - y) }, so the conjugate is
    nu*(beta - y) on [0, beta].
    """

    is_monotone = True

    def __init__(self, beta, nu):
        if not beta > 0:
            raise InvalidParameterError(f"beta must be positive, got {beta}")
        if not nu > 0:
            raise InvalidParameterError(f"nu must be positive, got {nu}")
        self.beta = float(beta)
        self.nu = float(nu)
        self.lipschitz = self.beta

    def value(self, u):
        return self.beta * np.maximum(np.asarray(u), -self.nu)[()]

    def subgradient(self, u):
        u = np.asarray(u)
        return np.where(u > -self.nu, self.beta, np.where(u < -self.nu, 0.0, 0.5 * self.beta))[()]

    def conjugate_value(self, y):
        y = np.asarray(y)
        return np.where((y >= 0) & (y <= self.beta), self.nu * (self.beta - y), INF)[()]

    def dual_domain(self):
        return (0.0, self.beta)

    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        return np.minimum(self.beta, np.maximum(0.0, y_prev + (g_tilde + self.nu) / tau))

    def __repr__(self):
        return f"HingeHard(beta={self.beta}, nu={self.nu})"


class Identity(OuterFunction):
    """f(u) = u; degenerate baseline with the single dual point {1}."""

    is_monotone = True
    smoothness = 0.0
    lipschitz = 1.0

    def value(self, u):
        return np.asarray(u, dtype=float)[()]

    def grad(self, u):
        return np.ones_like(np.asarray(u, dtype=float))[()]

    def subgradient(self, u):
        return self.grad(u)

    def conjugate_value(self, y):
        return np.where(np.asarray(y) == 1.0, 0.0, INF)[()]

    def dual_domain(self):
        return (1.0, 1.0)

    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        return np.ones_like(np.asarray(y_prev, dtype=float))[()]

    def __repr__(self):
        return "Identity()"


class HalfSquareShift(OuterFunction):
    """f(u) = (u + c)^2 / 2, a Legendre exemplar with unbounded dual domain.

    Conjugate is y^2/2 - c*y on all of R; grad and conjugate_grad are exact
    inverses everywhere.
    """

    smoothness = 1.0

    def __init__(self, c=0.0):
        self.c = float(c)

    def value(self, u):
        return 0.5 * (np.asarray(u, dtype=float) + self.c) ** 2

    def grad(self, u):
        return np.asarray(u, dtype=float) + self.c

    def subgradient(self, u):
        return self.grad(u)

    def conjugate_value(self, y):
        y = np.asarray(y, dtype=float)
        return (0.5 * y ** 2 - self.c * y)[()]

    def conjugate_grad(self, y):
        return np.asarray(y, dtype=float) - self.c

    def dual_domain(self):
        return (-INF, INF)

    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        return (g_tilde + self.c + tau * y_prev) / (1.0 + tau)

    def __repr__(self):
        return f"HalfSquareShift(c={self.c})"


def grid_prox_oracle(f, y_prev, g_tilde, tau, grid_size, bounds=None):
    """Brute-force maximizer of the dual prox objective on a uniform grid.

    Test-only independent oracle.  For unbounded dual domains a finite
    `bounds` interval must be supplied by the caller and is intersected with
    the domain.
    """
    if grid_size < 100:
        raise InvalidParameterError("grid_size must be at least 100")
    lo, hi = f.dual_domain()
    if bounds is not None:
        lo, hi = max(lo, bounds[0]), min(hi, bounds[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidParameterError("unbounded dual domain requires explicit bounds")
    if hi <= lo:
        return lo
    grid = np.linspace(lo, hi, grid_size)
    conj = np.asarray(f.conjugate_value(grid), dtype=float)
    obj = grid * g_tilde - conj - 0.5 * tau * (grid - y_prev) ** 2
    return float(grid[int(np.argmax(obj))])


def grid_conjugate_oracle(f, y, u_lo, u_hi, grid_size=100_000):
    """sup_u { y*u - f(u) } over a finite u-grid; test-only oracle."""
    grid = np.linspace(u_lo, u_hi, grid_size)
    return float(np.max(y * grid - np.asarray(f.value(grid), dtype=float)))


SHIPPED_OUTER_FACTORIES = {
    "scaled_positive_part": lambda: ScaledPositivePart(0.5),
    "positive_part": lambda: PositivePart(),
    "chi_square": lambda: ChiSquareOuter(1.0, 4.0),
    "huber_hard": lambda: HuberHard(0.3),
    "hinge_hard": lambda: HingeHard(1.0, 0.2),
    "identity": lambda: Identity(),
    "half_square_shift": lambda: HalfSquareShift(0.7),
}
"""Representative instances of every shipped outer function, used by the
property sweeps in the test suite."""
