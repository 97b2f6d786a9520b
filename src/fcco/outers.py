"""Outer function library: each outer is declared by its conjugate.

An outer f is given by five numbers: f*(y) = a/2*y**2 + b*y + c on the closed
dual interval [lo, hi] (a >= 0; +inf outside), and f is its biconjugate
max_{y in [lo, hi]} {y*u - f*(y)}.  `OuterFunction` derives every method from
them, so the solvers and the evaluator all see one function: the subgradient
is the maximizer y*(u) = clip((u - b)/a, lo, hi) (for a = 0: hi above the kink
u = b, lo below it, the midpoint at it), also the gradient where f is smooth
(a > 0 or lo == hi); `value` is y*·(u - b) - a/2·y*² - c; and the dual prox

    argmax_{v in [lo, hi]} { v*g - f*(v) - (tau/2) * (v - y)**2 }

is clip((g - b + tau*y)/(a + tau)), written clip(y + (g - b)/tau) when a = 0.
A subclass may give a closed-form `value`; the Fenchel-Young test holds it to
the declared conjugate at 1e-12 relative.  `value` and `prox_dual_quadratic`
map a NaN to NaN; a kinked subgradient takes the midpoint there, as np.where.

All methods broadcast over numpy arrays.  A float argument (Python float or
`np.float64`) is clamped in scalar arithmetic and returned as `np.float64`,
equal to the array path bit for bit: the per-block solver path calls the
subgradient and the prox once per sampled block.  `HuberHard.value` likewise
computes a float in scalar arithmetic; exact evaluation calls it once per
component.  Clamps are written np.minimum(hi, np.maximum(lo, v)): in that
operand order they return what np.clip returns, signed zeros included, at
about half its cost.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .errors import InvalidParameterError, NotSmoothError

INF = math.inf


class OuterFunction:
    """Convex scalar outer function declared by its conjugate
    f*(y) = a/2*y**2 + b*y + c on [lo, hi] (see the module docstring)."""

    def __init__(self, lo, hi, a=0.0, b=0.0, c=0.0):
        lo, hi, a, b, c = float(lo), float(hi), float(a), float(b), float(c)
        if not (a >= 0.0 and lo <= hi and lo < INF and hi > -INF):
            raise InvalidParameterError(f"need a >= 0 and lo <= hi, got a={a}, [{lo}, {hi}]")
        if a == 0.0 and not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidParameterError("a linear conjugate needs a bounded dual interval")
        self.lo, self.hi, self.a, self.b, self.c = lo, hi, a, b, c
        self.is_smooth = a > 0.0 or lo == hi
        self._half_a = 0.5 * a
        self._mid = 0.5 * (lo + hi)

    @property
    def lipschitz(self):
        """Bound on |subgradient|, the dual interval's outward radius (or inf)."""
        return max(-self.lo, self.hi)

    @property
    def is_monotone(self):
        """Non-decreasing, as composing with a nonlinear inner map requires."""
        return self.lo >= 0

    def dual_domain(self):
        """Closed interval (lo, hi) on which the conjugate is finite."""
        return (self.lo, self.hi)

    def _clip(self, v):
        if isinstance(v, float):
            # np.maximum(a, b) is a if a > b (or a is NaN) else b, and
            # np.minimum(a, b) is a if a < b (or a is NaN) else b: a NaN v
            # passes through and maximum(0.0, -0.0) is -0.0
            if self.lo > v:
                v = self.lo
            if self.hi < v:
                v = self.hi
            return np.float64(v)
        return np.minimum(self.hi, np.maximum(self.lo, v))

    def subgradient(self, u):
        """y*(u), the maximizer defining f(u); the midpoint at a kink."""
        if not isinstance(u, float):
            u = np.asarray(u)
        if self.a > 0.0:
            return self._clip((u - self.b) / self.a)
        b = self.b
        if isinstance(u, float):
            # NaN and u == b fall through both tests, as in np.where
            return np.float64(self.hi if u > b else self.lo if u < b else self._mid)
        return np.where(u > b, self.hi, np.where(u < b, self.lo, self._mid))[()]

    def grad(self, u):
        """Gradient of f; only defined for smooth functions."""
        if not self.is_smooth:
            raise NotSmoothError(f"{self!r} is not smooth")
        return self.subgradient(u)

    def value(self, u):
        """f(u) = y*·(u - b) - a/2·y*² - c at y* = y*(u)."""
        if not isinstance(u, float):
            u = np.asarray(u, dtype=float)
        y = self.subgradient(u)
        return y * (u - self.b) - self._half_a * y * y - self.c

    def conjugate_value(self, y):
        """f*(y); +inf outside the dual interval."""
        y = np.asarray(y, dtype=float)
        val = (self._half_a * y + self.b) * y + self.c
        return np.where((y >= self.lo) & (y <= self.hi), val, INF)[()]

    def conjugate_grad(self, y):
        """a*y + b, the inverse of `grad` where f is strictly convex."""
        if self.a == 0.0:
            raise NotSmoothError(f"{self!r} has no differentiable conjugate")
        return self.a * np.asarray(y, dtype=float)[()] + self.b

    def prox_dual_quadratic(self, y_prev, g_tilde, tau):
        """argmax_{v in dual domain} { v*g - f*(v) - (tau/2)(v - y_prev)^2 }."""
        if self.a == 0.0:
            return self._clip(y_prev + (g_tilde - self.b) / tau)
        return self._clip((g_tilde - self.b + tau * y_prev) / (self.a + tau))

    def __repr__(self):
        return f"OuterFunction(lo={self.lo}, hi={self.hi}, a={self.a}, b={self.b}, c={self.c})"


class ScaledPositivePart(OuterFunction):
    """f(u) = (u)_+ / alpha, the capped-hinge transform: f* = 0 on [0, 1/alpha]."""

    def __init__(self, alpha):
        if not alpha > 0:
            raise InvalidParameterError(f"alpha must be positive, got {alpha}")
        self.alpha = float(alpha)
        self.cap = 1.0 / self.alpha
        super().__init__(0.0, self.cap)

    def value(self, u):
        return np.maximum(u, 0.0) / self.alpha

    def __repr__(self):
        return f"ScaledPositivePart(alpha={self.alpha})"


class ChiSquareOuter(OuterFunction):
    """The chi-square penalty transform: f*(y) = y^2/lam - 2y + lam on [0, cap].

    f(u) = lam * ((u + 2)^2 / 4 - 1) for -2 <= u <= 2*cap/lam - 2, -lam below
    and linear with slope `cap` above: the cap, which the problem builder
    derives from its risk bounds, is the largest gradient the solvers see.
    """

    def __init__(self, lam, cap):
        if not lam > 0:
            raise InvalidParameterError(f"lam must be positive, got {lam}")
        if not cap > 0:
            raise InvalidParameterError(f"cap must be positive, got {cap}")
        self.lam = float(lam)
        self.cap = float(cap)
        super().__init__(0.0, self.cap, 2.0 / self.lam, -2.0, self.lam)

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

    def __init__(self, nu):
        if not 0 < nu < 1:
            raise InvalidParameterError(f"nu must lie in (0, 1), got {nu}")
        self.nu = float(nu)
        super().__init__(self.nu - 1.0, self.nu + 1.0, 1.0, -self.nu, 0.5 * self.nu * self.nu)

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

    def __repr__(self):
        return f"HuberHard(nu={self.nu})"


class HingeHard(OuterFunction):
    """f(u) = beta * max(u, -nu), the non-smooth hard-instance transform:
    f*(y) = nu*(beta - y) on [0, beta]."""

    def __init__(self, beta, nu):
        if not beta > 0:
            raise InvalidParameterError(f"beta must be positive, got {beta}")
        if not nu > 0:
            raise InvalidParameterError(f"nu must be positive, got {nu}")
        self.beta = float(beta)
        self.nu = float(nu)
        super().__init__(0.0, self.beta, 0.0, -self.nu, self.nu * self.beta)

    def value(self, u):
        return self.beta * np.maximum(np.asarray(u), -self.nu)[()]

    def __repr__(self):
        return f"HingeHard(beta={self.beta}, nu={self.nu})"


# f(u) = (u)_+, dual interval [0, 1]
PositivePart = partial(ScaledPositivePart, 1.0)
# f(u) = u, the single dual point {1}
Identity = partial(OuterFunction, 1.0, 1.0)


def HalfSquareShift(c=0.0):
    """f(u) = (u + c)^2 / 2, a Legendre exemplar: f*(y) = y^2/2 - c*y on all of R."""
    return OuterFunction(-INF, INF, 1.0, -c)


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
    "ScaledPositivePart": lambda: ScaledPositivePart(0.5),
    "PositivePart": PositivePart,
    "ChiSquareOuter": lambda: ChiSquareOuter(1.0, 4.0),
    "HuberHard": lambda: HuberHard(0.3),
    "HingeHard": lambda: HingeHard(1.0, 0.2),
    "Identity": Identity,
    "HalfSquareShift": lambda: HalfSquareShift(0.7),
}
"""Representative instances of every shipped outer function, keyed by the
constructor that builds them, used by the property sweeps in the test
suite."""
