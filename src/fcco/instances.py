"""Concrete problem builders.

* Hard benchmark instances: coordinate-separable problems with two-point
  zero-mean noise and analytically known minimizers, in a smooth and a
  non-smooth variant.  These are the ground-truth targets for the
  convergence-rate harness.
* Group-robust training (CVaR or chi-square penalty) over grouped datasets,
  in its composite dual form over (w, c).
* Ranking with a restricted true-positive-rate constraint (partial AUC
  surrogate), in its composite dual form over (w, s).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError
from .metrics import worst_fraction_group_metric
from .outers import ChiSquareOuter, HingeHard, HuberHard, ScaledPositivePart
from .problem import (
    BoxDomain,
    FlatSampleView,
    IndexBatchOracle,
    InnerOracle,
    ProblemInstance,
    Regularizer,
)

# ---------------------------------------------------------------------------
# noise and coordinate oracles for the hard instances
# ---------------------------------------------------------------------------


class TwoPointNoise:
    """Zero-mean two-point noise: -nu w.p. 1-p, nu*(1-p)/p w.p. p, with
    p = nu^2/sigma^2.  Variance is sigma^2*(1-p)."""

    def __init__(self, nu, sigma):
        if not (sigma > 0 and math.isfinite(sigma)):
            raise InvalidParameterError(f"sigma must be positive and finite, got {sigma}")
        p = nu ** 2 / sigma ** 2
        if not 0.0 < p < 1.0:
            raise InvalidParameterError(f"p = nu^2/sigma^2 = {p} must lie in (0, 1)")
        self.p = p
        self.low = -float(nu)
        self.high = float(nu) * (1.0 - p) / p

    def draw(self, rng, size):
        return np.where(rng.random(size) < self.p, self.high, self.low)


class GaussianNoise:
    """Centered Gaussian noise, used by generic affine test oracles."""

    def __init__(self, sigma):
        self.sigma = float(sigma)

    def draw(self, rng, size):
        return self.sigma * rng.standard_normal(size)


class CoordinateNoiseOracle(InnerOracle):
    """g_i(x; z) = x[i] + z with additive zero-mean noise; the Jacobian is
    the i-th unit vector, independent of x and batch."""

    is_affine = True

    def __init__(self, index, noise):
        self.index = int(index)
        self.noise = noise

    def exact_value(self, x):
        return float(x[self.index])

    def stochastic_value(self, x, batch):
        return float(x[self.index]) + float(batch.mean())

    def accumulate_jtvp(self, out, x, batch, y, scale):
        out[self.index] += scale * y

    def sample_batch(self, rng, size):
        return self.noise.draw(rng, size)


class AffineScalarOracle(InnerOracle):
    """g(x; z) = a.x + b + z; general affine test oracle."""

    is_affine = True

    def __init__(self, a, b=0.0, noise=None):
        self.a = np.asarray(a, dtype=float)
        self.b = float(b)
        self.noise = noise

    def exact_value(self, x):
        return float(self.a @ x) + self.b

    def stochastic_value(self, x, batch):
        base = self.exact_value(x)
        return base if batch.size == 0 else base + float(batch.mean())

    def accumulate_jtvp(self, out, x, batch, y, scale):
        out += (scale * y) * self.a

    def sample_batch(self, rng, size):
        if self.noise is None:
            return np.empty(0)
        return self.noise.draw(rng, size)


class CoordinateNoiseKernel:
    """Vectorized sampled-block backend that `ProblemInstance` derives when
    its inners are the n coordinate oracles 0..n-1 with one shared noise.  A
    block-solver step calls `draw` once for all sampled blocks (one (S, 2, B)
    noise draw, through `ProblemInstance.draw`), `value_noise` once, `values`
    once at x_t and once more at x_{t-1} when the rule extrapolates or
    corrects, and `accumulate_grad` once; the solver's block rule then runs
    elementwise on the problem's outer.  Every block solver (alexr, sox,
    msvr, bsgd) reproduces its per-block results bitwise on this path."""

    def __init__(self, noise):
        self.noise = noise

    def draw(self, rng, n_blocks, batch_size):
        return self.noise.draw(rng, (n_blocks, 2, batch_size))

    def value_noise(self, z):
        """Per-block noise means of the value batches z[:, 0, :]."""
        # the sum-then-divide that ndarray.mean does on float64, without its dispatch
        return np.add.reduce(z[:, 0, :], axis=1) / z.shape[2]

    def values(self, x, idx, value_noise):
        return x[idx] + value_noise

    def accumulate_grad(self, out, x, idx, z_jac, y_new, scale):
        out[idx] += scale * y_new


# ---------------------------------------------------------------------------
# hard instances with known optima
# ---------------------------------------------------------------------------


def build_hard_smooth(n, nu, sigma):
    """Smooth variant: three-branch outer f with f'(u) = clip(u+nu, nu-1, nu+1),
    noisy coordinate inners, r(x) = ||x||^2/(4n), domain [-1, 1]^n.  The
    minimizer is -2*nu/3 per coordinate with objective value -nu^2/3."""
    if not 0.0 < nu < 1.0:
        raise InvalidParameterError(f"nu must lie in (0, 1), got {nu}")
    if n < 1:
        raise InvalidParameterError(f"n must be at least 1, got {n}")
    noise = TwoPointNoise(nu, sigma)
    return ProblemInstance(outer=HuberHard(nu),
                           inners=[CoordinateNoiseOracle(i, noise) for i in range(n)],
                           regularizer=Regularizer(l2_coeff=1.0 / (2.0 * n)),
                           domain=BoxDomain.symmetric(1.0, n),
                           f_star=-nu ** 2 / 3.0, x_star=np.full(n, -2.0 * nu / 3.0))


def build_hard_nonsmooth(n, nu, beta, alpha_reg, sigma):
    """Non-smooth variant: f(u) = beta*max(u, -nu), same noisy inners,
    r(x) = alpha_reg/(2n) * ||x||^2, domain [-2nu, 2nu]^n.  The per-coordinate
    minimizer is -beta/alpha_reg when alpha_reg > beta/nu, else -nu."""
    if not 0.0 < nu < 1.0:
        raise InvalidParameterError(f"nu must lie in (0, 1), got {nu}")
    if alpha_reg < 0:
        raise InvalidParameterError("alpha_reg must be nonnegative")
    if n < 1:
        raise InvalidParameterError(f"n must be at least 1, got {n}")
    noise = TwoPointNoise(nu, sigma)
    coord = -beta / alpha_reg if alpha_reg > beta / nu else -nu
    return ProblemInstance(outer=HingeHard(beta, nu),
                           inners=[CoordinateNoiseOracle(i, noise) for i in range(n)],
                           regularizer=Regularizer(l2_coeff=alpha_reg / n),
                           domain=BoxDomain.symmetric(2.0 * nu, n),
                           f_star=beta * max(coord, -nu) + 0.5 * alpha_reg * coord ** 2,
                           x_star=np.full(n, coord))


# ---------------------------------------------------------------------------
# margin losses: the inner map of both GDRO and pAUC
# ---------------------------------------------------------------------------


# each surrogate loss ell(z) and its derivative ell'(z)
_SURROGATES = {
    "squared_hinge": (lambda z: np.maximum(1.0 + z, 0.0) ** 2,
                      lambda z: 2.0 * np.maximum(1.0 + z, 0.0)),
    "logistic": (lambda z: np.logaddexp(0.0, z), lambda z: 0.5 * (1.0 + np.tanh(0.5 * z))),
}


class _ScoredRows:
    """Margin-loss rows as one float64 array, and their scores `rows @ w` at
    the last w asked for.  Oracles that hold the same instance (a pAUC
    problem's, over its negatives) share the scores, so an exact evaluation
    at one x computes the product once.  The cache is keyed by the dtype and
    bytes of w, so a NaN payload, a signed zero or a w edited in place never
    hits a stale entry.  The scores are read-only, since every oracle reads
    them."""

    def __init__(self, rows):
        self.rows = np.asarray(rows, dtype=float)
        self._key = None
        self._scores = None

    def at(self, w):
        key = (w.dtype.char, w.tobytes())
        if key != self._key:
            scores = self.rows @ w
            scores.flags.writeable = False
            self._key, self._scores = key, scores
        return self._scores


class MarginLossOracle(IndexBatchOracle):
    """g(w, s) = (mean_j ell(<w, r_j> - <w, a>) - s) / lam over the rows r_j,
    with an optional anchor a (none reads as zero); batches sample rows with
    replacement.  GDRO's group risk is the logistic surrogate over the rows
    -y_j a_j with no anchor, and pAUC's inner for positive a_i the surrogate
    over the negatives with anchor a_i and lam = 1.

    `rows` is an array, or a `_ScoredRows` that several oracles share
    (`build_pauc` passes one to all of a problem's oracles), so that an
    exact evaluation computes `rows @ w` once for all of them.  The
    Jacobian's w-part is `slopes @ rows - sum(slopes) * anchor`, so no (rows
    x d) difference matrix is ever built.  Means are `np.add.reduce(v) /
    v.size`, which is what `np.mean` computes on float64, without its
    dispatch overhead."""

    def __init__(self, rows, surrogate, anchor=None, lam=1.0):
        self._scored = rows if isinstance(rows, _ScoredRows) else _ScoredRows(rows)
        self.rows = self._scored.rows
        self.anchor = None if anchor is None else np.asarray(anchor, dtype=float)
        if surrogate not in _SURROGATES:
            raise InvalidParameterError(f"unknown surrogate {surrogate!r}")
        self.val, self.deriv = _SURROGATES[surrogate]
        self.lam = float(lam)
        self.size = len(self.rows)

    def _margins(self, w, scores):
        return scores if self.anchor is None else scores - self.anchor @ w

    def _value(self, x, scores):
        v = self.val(self._margins(x[:-1], scores))
        return (float(np.add.reduce(v) / v.size) - float(x[-1])) / self.lam

    def exact_value(self, x):
        return self._value(x, self._scored.at(x[:-1]))

    def stochastic_value(self, x, batch):
        # take gathers 2-D rows faster than fancy indexing
        return self._value(x, self.rows.take(batch, axis=0) @ x[:-1])

    def accumulate_jtvp(self, out, x, batch, y, scale):
        # the w-part is the batch mean of ell'(<w, r_j - a>) (r_j - a), over lam
        w = x[:-1]
        rows_b = self.rows.take(batch, axis=0)
        slopes = self.deriv(self._margins(w, rows_b @ w))
        grad = slopes @ rows_b
        if self.anchor is not None:
            grad -= np.add.reduce(slopes) * self.anchor
        coeff = scale * y / self.lam
        out[:-1] += (coeff / len(batch)) * grad
        out[-1] -= coeff


# ---------------------------------------------------------------------------
# logistic loss and group-robust training
# ---------------------------------------------------------------------------


def _dual_form_regularizer(dim, weight_decay):
    """r(x) = weight_decay/2 * ||x[:-1]||^2 + x[-1]: weight decay on every
    coordinate but the last, whose +1 linear term is the dual form's
    threshold (GDRO's c, pAUC's s)."""
    l2 = np.full(dim, weight_decay)
    l2[-1] = 0.0
    linear = np.zeros(dim)
    linear[-1] = 1.0
    return Regularizer(l2_coeff=l2, linear=linear)


def _logistic_risk(w, feats, labels):
    """Mean logistic loss over rows; vectorized."""
    z = labels * (feats @ w)
    return float(np.add.reduce(np.logaddexp(0.0, -z))) / z.size


def _group_risks(data, w):
    """Each group's mean logistic loss."""
    return np.array([_logistic_risk(w, data.features[rows], data.labels[rows])
                     for rows in data.group_index])


def _logistic_risk_grad(w, feats, labels):
    z = labels * (feats @ w)
    s = labels * (0.5 * np.tanh(0.5 * z) - 0.5)
    loss = float(np.add.reduce(np.logaddexp(0.0, -z))) / z.size
    return loss, (s @ feats) / z.size


# share of groups averaged by the chi2 problem's worst_group_risk diagnostic
CHI2_WORST_SHARE = 0.5


class GdroFlatView(FlatSampleView):
    """Per-sample logistic loss over the pooled dataset; gradient w.r.t.
    (w, c) with a zero c-component."""

    def __init__(self, feats, labels, group_of):
        self.feats = np.asarray(feats, dtype=float)
        self.labels = np.asarray(labels, dtype=float)
        self.group_of = np.asarray(group_of)
        self.n_samples = len(self.labels)

    def loss_and_grad(self, x, idx):
        w = x[:-1]
        loss, grad_w = _logistic_risk_grad(w, self.feats[idx], self.labels[idx])
        grad = np.zeros(len(x))
        grad[:-1] = grad_w
        return loss, grad


def build_gdro(data, divergence="cvar", alpha=None, lam=1.0, weight_decay=0.0,
               risk_bound=4.0):
    """Group-robust problem in composite dual form over x = (w, c).

    divergence='cvar' uses the capped hinge lam*(.)_+*(1/alpha) with inner
    (R_i(w) - c)/lam (any lam yields the same objective; lam=1 gives the
    plain hinge form) and c in [0, risk_bound].  divergence='chi2' uses the
    quadratic penalty transform with parameter lam, c in [-lam, risk_bound]
    and the dual cap (risk_bound + 3*lam)/2: the outer's gradient lam*(u + 2)/2
    at the largest inner value (risk_bound + lam)/lam that group risks in
    [0, risk_bound] and c >= -lam reach, so every solver sees the same
    quadratic outer on the reachable inner values.  The '+c'
    term rides on the regularizer's linear part; weight decay applies to w
    only.  The `worst_group_risk` diagnostic averages the worst
    ceil(alpha*n) groups under cvar and the worst half under chi2.
    """
    if lam <= 0:
        raise InvalidParameterError("lam must be positive")
    d = data.features.shape[1]
    dim = d + 1
    if divergence == "cvar":
        if alpha is None or not 0.0 < alpha <= 1.0:
            raise InvalidParameterError(f"cvar needs alpha in (0, 1], got {alpha}")
        lo = 0.0
    elif divergence == "chi2":
        lo = -lam
    else:
        raise InvalidParameterError(f"unknown divergence {divergence!r}")
    if not risk_bound >= lo:
        raise InvalidParameterError(f"risk_bound must be at least c's lower end {lo}, "
                                    f"got {risk_bound}")
    if divergence == "cvar":
        outer, worst_share = ScaledPositivePart(alpha / lam), alpha
    else:
        outer, worst_share = ChiSquareOuter(lam, (risk_bound - lo) / 2.0 + lam), CHI2_WORST_SHARE

    # log(1 + exp(-y <w, a>)) is the logistic surrogate at the margin <w, -y a>
    inners = [MarginLossOracle(-data.labels[rows, None] * data.features[rows], "logistic",
                               lam=lam)
              for rows in data.group_index]

    lower = np.full(dim, -math.inf)
    upper = np.full(dim, math.inf)
    lower[-1], upper[-1] = lo, risk_bound
    domain = BoxDomain(lower, upper, dim)
    view = GdroFlatView(data.features, data.labels, data.group_of)

    def aux_metrics(x):
        risks = _group_risks(data, x[:-1])
        return {"worst_group_risk": worst_fraction_group_metric(risks, worst_share, mode="mean")}

    return ProblemInstance(outer=outer, inners=inners,
                           regularizer=_dual_form_regularizer(dim, weight_decay), domain=domain,
                           flat_view=view, aux_metrics=aux_metrics)


def cvar_objective(data, alpha, weight_decay, w, c):
    """Direct evaluation of the capped-hinge dual objective at (w, c)."""
    hinge = np.maximum(_group_risks(data, w) - c, 0.0).mean() / alpha
    return hinge + c + 0.5 * weight_decay * float(w @ w)


def solve_cvar_reference(data, alpha, weight_decay, iters=20000, step_scale=0.5):
    """Independent full-batch reference for the capped-hinge objective.

    Eliminates c exactly by sorting group risks (the inner minimum over c is
    attained at a group-risk quantile), then runs a deterministic subgradient
    method in w with a decaying step, tracking the best iterate.  Returns
    (w, c, objective)."""
    d = data.features.shape[1]
    n = data.n_groups
    k = alpha * n
    w = np.zeros(d)
    best = (math.inf, w.copy(), 0.0)
    group_feats = [data.features[rows] for rows in data.group_index]
    group_labels = [data.labels[rows] for rows in data.group_index]

    def risks_and_grads(w):
        risks = np.empty(n)
        grads = np.empty((n, d))
        for g in range(n):
            risks[g], grads[g] = _logistic_risk_grad(w, group_feats[g], group_labels[g])
        return risks, grads

    for t in range(iters):
        risks, grads = risks_and_grads(w)
        order = np.argsort(-risks)
        # capped-simplex weights: fill 1/(alpha*n) on the worst groups
        q = np.zeros(n)
        remaining = 1.0
        capacity = 1.0 / k
        for g in order:
            take = min(capacity, remaining)
            q[g] = take
            remaining -= take
            if remaining <= 0:
                break
        obj = float(q @ risks) + 0.5 * weight_decay * float(w @ w)
        if obj < best[0]:
            c_star = float(np.sort(risks)[max(0, n - math.ceil(k))])
            best = (obj, w.copy(), c_star)
        sub = grads.T @ q + weight_decay * w
        w = w - step_scale / math.sqrt(t + 1.0) * sub
    return best[1], best[2], best[0]


# ---------------------------------------------------------------------------
# partial-AUC surrogate in dual form
# ---------------------------------------------------------------------------


def build_pauc(data, surrogate="squared_hinge", weight_decay=0.0):
    """Ranking problem over x = (w, s): one component per positive sample
    with outer hinge scaled by 1/(1-alpha), plus the '+s' linear term.  The
    oracles share one copy of the negatives and one cache of their scores,
    so an exact evaluation computes `neg @ w` once."""
    dim = data.positives.shape[1] + 1
    negatives = _ScoredRows(data.negatives)
    inners = [MarginLossOracle(negatives, surrogate, anchor=pos) for pos in data.positives]
    return ProblemInstance(outer=ScaledPositivePart(1.0 - data.alpha), inners=inners,
                           regularizer=_dual_form_regularizer(dim, weight_decay),
                           domain=BoxDomain.unbounded(dim))


def build_cvar_scalar(risks, alpha):
    """Tiny diagnostic problem: minimize (1/(alpha*n)) sum_i (r_i - c)_+ + c
    over the scalar c, with fixed component levels r_i.  Used to study the
    dual-table radius and sparsity at the optimum, the minimizer x_star =
    [c_star], with the optimal value f_star."""
    risks = np.asarray(risks, dtype=float)
    n = len(risks)
    # the derivative 1 - #{r_i > c}/(alpha*n) crosses zero where exactly
    # alpha*n levels exceed c, which takes the midpoint of two levels when
    # alpha*n is an integer (up to rounding: 0.3*10 is 3.0000000000000004),
    # and the ceil(alpha*n)-th largest level otherwise
    order = np.sort(risks)
    k = round(alpha * n)
    if not math.isclose(alpha * n, k, rel_tol=1e-9):
        c_star = float(order[n - math.ceil(alpha * n)])
    else:
        c_star = 0.5 * (order[n - k - 1] + order[n - k]) if 0 < k < n else float(order[0])
    lo, hi = float(risks.min()) - 1.0, float(risks.max()) + 1.0
    return ProblemInstance(outer=ScaledPositivePart(alpha),
                           inners=[AffineScalarOracle(a=[-1.0], b=float(r)) for r in risks],
                           regularizer=Regularizer(l2_coeff=0.0, linear=np.array([1.0])),
                           domain=BoxDomain(lo, hi, 1), x_star=np.array([c_star]),
                           f_star=float(np.maximum(risks - c_star, 0.0).mean()) / alpha + c_star)
