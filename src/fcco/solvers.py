"""Primal-dual block-coordinate solver with extrapolation, plus baselines.

The main solver alternates, per iteration:

  1. sample an outer batch S_t of component indices;
  2. for each sampled block, draw two independent inner mini-batches, form
     the extrapolated estimate
         g~ = g(x_t; B) + theta * (g(x_t; B) - g(x_{t-1}; B))
     (same batch B at both points), and update the block's dual variable by
     a mirror-prox step; unsampled blocks are left untouched;
  3. average the Jacobian-transpose products taken at the *second* batch with
     the *post-update* duals into the primal gradient estimate G_t;
  4. take a proximal gradient step on the primal variable.

Two dual distance-generating choices are supported: `quadratic` uses the
closed-form dual prox of the outer function; `conjugate` (a smooth outer
only) tracks the scalar sequence u via u' = (tau*u + g~)/(1 + tau) and sets
y = f'(u').  Baselines: plug-in biased SGD (bsgd), moving-average tracking
(sox), its variance-corrected variant (msvr), and flat-sample SGD with
uniform (sgd_erm) or inverse-group-frequency (sgd_uw) sampling.

Every solver runs on one `SolverState`: the iterates x and x_prev, the
counters, the run's generator, and `table`, one scalar per component, which
holds
  * the dual values y (from y0) for quadratic ALEXR;
  * the tracked inner values u (from the anchor u0 = f*'(y0), so that
    f'(u0) = y0) for conjugate ALEXR, sox and msvr; sharing the anchor
    makes theta=0 conjugate ALEXR with tau equal sox with
    gamma = 1/(1 + tau) from the first iteration;
  * nothing (None) for bsgd, sgd_erm and sgd_uw.
The config's `psi_mode` or `variant` says which; `init_state` builds it.

One step engine, `_block_step`, runs ALEXR, sox, msvr and bsgd; each solver
supplies only its elementwise block rule (table, g_now, g_prev) -> (table',
y) on the problem's one outer f: the dual prox or u-tracking with
extrapolation, the moving average, the msvr-corrected moving average, or the
plug-in subgradient.

Randomness ordering contract (relied on by the equivalence tests): each
iteration consumes, in order, the outer-batch draw, then for each sampled
block in ascending index order the value batch followed by the Jacobian
batch.  Only `sample_batch` draws inside a step, so the draws may be taken
together as long as the stream is the same.  The vectorized kernel path
draws it in one call, and every block solver takes that path when the
problem has a kernel.  On the per-block path, index-sampled oracles
(`problem.IndexBatchOracle`) also draw in one call: with the blocks'
population sizes as an (S, 1, 1) bound, `rng.integers` returns an (S, 2, B)
array holding the same integers, and leaves the generator in the same
state, as the 2S per-block `sample_batch` calls.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    DivergenceError,
    FlatViewUnavailableError,
    InvalidParameterError,
    NotSmoothError,
)
from .problem import evaluate_objective, primal_prox_step, sample_outer_batch

PSI_QUADRATIC = "quadratic"
PSI_CONJUGATE = "conjugate"


def _check_schedule(cfg):
    """The range checks of the fields AlexrConfig and BaselineConfig share."""
    if cfg.S < 1 or cfg.B < 1 or cfg.T < 0:
        raise InvalidParameterError("S, B must be >= 1 and T >= 0")
    if cfg.averaging not in ("last", "uniform"):
        raise InvalidParameterError(f"unknown averaging {cfg.averaging!r}")


@dataclass
class AlexrConfig:
    """Step sizes and batching for the primal-dual solver.

    eta, tau    proximal coefficients of the primal and dual steps
    theta       extrapolation weight in [0, 1]
    S, B        outer and inner batch sizes
    T           iteration budget (exact; never truncated)
    psi_mode    'quadratic' or 'conjugate' (a smooth outer only)
    averaging   which iterate the run reports as its output measure:
                'last' or 'uniform'
    """

    eta: float
    tau: float
    theta: float
    S: int
    B: int
    T: int
    psi_mode: str = PSI_QUADRATIC
    seed: int = 0
    averaging: str = "uniform"
    label: str = "alexr"

    def __post_init__(self):
        if not (self.eta > 0 and self.tau > 0):
            raise InvalidParameterError("eta and tau must be positive")
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidParameterError("theta must lie in [0, 1]")
        _check_schedule(self)
        if self.psi_mode not in (PSI_QUADRATIC, PSI_CONJUGATE):
            raise InvalidParameterError(f"unknown psi_mode {self.psi_mode!r}")


@dataclass
class BaselineConfig:
    """Configuration for bsgd / sox / msvr / sgd_erm / sgd_uw.

    `step` is the proximal coefficient of the primal step (same role as
    `eta` above); `gamma` is the moving-average weight of sox/msvr (msvr
    needs gamma < 1).  With `subgradient_fallback` off, sox refuses
    non-smooth outer functions.
    """

    variant: str
    step: float
    gamma: float = 0.9
    S: int = 1
    B: int = 1
    T: int = 0
    seed: int = 0
    averaging: str = "last"
    subgradient_fallback: bool = False
    label: str = ""

    def __post_init__(self):
        if self.variant not in _BASELINE_STEPS:
            raise InvalidParameterError(f"unknown baseline variant {self.variant!r}")
        if not self.step > 0:
            raise InvalidParameterError("step must be positive")
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidParameterError("gamma must lie in (0, 1]")
        if self.variant == "msvr" and self.gamma >= 1.0:
            raise InvalidParameterError("msvr needs gamma < 1: its correction degenerates at gamma=1")
        _check_schedule(self)
        if not self.label:
            self.label = self.variant


def check_preset_epsilon(epsilon, theta_margin=None):
    """Raise InvalidParameterError naming epsilon unless a preset can take it
    as its target: positive and finite, and, given the strongly convex
    preset's theta_margin, with theta = 1 - theta_margin*epsilon in (0, 1)."""
    if not (epsilon > 0 and math.isfinite(epsilon)):
        raise InvalidParameterError(f"epsilon must be positive and finite, got {epsilon}")
    if theta_margin is not None and not 0.0 < 1.0 - theta_margin * epsilon < 1.0:
        raise InvalidParameterError(f"epsilon={epsilon} with theta_margin={theta_margin} "
                                    "leaves theta = 1 - theta_margin*epsilon outside (0, 1)")


def strongly_convex_preset(mu, n, S, B, T, epsilon, seed=0, theta=None,
                           theta_margin=0.5, psi_mode=PSI_QUADRATIC, label="alexr"):
    """Step-size preset for mu-strongly-convex problems:
    eta = mu*theta/(1-theta), tau = S/(n*(1-theta)), theta -> 1 as the
    target accuracy epsilon -> 0 (theta = 1 - theta_margin*epsilon unless
    given explicitly).  Reports the last iterate."""
    if theta is None:
        check_preset_epsilon(epsilon, theta_margin)
        theta = 1.0 - theta_margin * epsilon
    if not 0.0 < theta < 1.0:
        raise InvalidParameterError("preset needs theta in (0, 1)")
    eta = mu * theta / (1.0 - theta)
    tau = S / (n * (1.0 - theta))
    return AlexrConfig(eta=eta, tau=tau, theta=theta, S=S, B=B, T=T,
                       psi_mode=psi_mode, seed=seed, averaging="last", label=label)


def convex_preset(S, B, T, epsilon, seed=0, theta=0.0, eta_coeff=1.0,
                  tau_coeff=1.0, psi_mode=PSI_QUADRATIC, label="alexr"):
    """Step-size preset for merely convex problems: eta = eta_coeff/epsilon,
    tau = tau_coeff/(B*epsilon).  theta=0 suits non-smooth inner noise,
    theta=1 exploits smooth inner maps.  Reports the uniform average."""
    check_preset_epsilon(epsilon)
    if B < 1:
        raise InvalidParameterError(f"B must be >= 1, got {B}")
    eta = eta_coeff / epsilon
    tau = tau_coeff / (B * epsilon)
    return AlexrConfig(eta=eta, tau=tau, theta=theta, S=S, B=B, T=T,
                       psi_mode=psi_mode, seed=seed, averaging="uniform", label=label)


@dataclass
class SolverState:
    """Iterates, the per-component table (see the module docstring), the
    iteration counter, the run's random generator and the oracle count."""

    x: np.ndarray
    x_prev: np.ndarray
    table: Optional[np.ndarray]
    t: int
    rng: np.random.Generator
    oracle_count: int = 0


def init_state(cfg, problem):
    """x0 = 0 box-projected.  y0 = 0 where feasible, else the dual lower
    endpoint.  The u anchor is f*'(y0), so that f'(u0) = y0, where the
    conjugate gradient exists, else 0; conjugate mode raises NotSmoothError
    unless the outer function is smooth."""
    x0 = problem.initial_point()
    kind = cfg.psi_mode if isinstance(cfg, AlexrConfig) else cfg.variant
    f = problem.outer
    if kind == PSI_CONJUGATE and not f.is_smooth:
        raise NotSmoothError("conjugate mode requires a smooth outer function")
    y0 = 0.0 if f.lo <= 0.0 <= f.hi else f.lo
    if kind == PSI_QUADRATIC:
        table = np.full(problem.n, y0)
    elif kind in (PSI_CONJUGATE, "sox", "msvr"):
        try:
            u0 = float(f.conjugate_grad(y0))
        except NotSmoothError:
            u0 = 0.0
        table = np.full(problem.n, u0)
    else:
        table = None
    return SolverState(x=x0, x_prev=x0.copy(), table=table, t=0,
                       rng=np.random.default_rng(cfg.seed))


def dual_update_conjugate(f, u_block, g_tilde, tau):
    """Dual step under the conjugate distance-generating choice, tracked
    through u:  u' = (tau*u + g~)/(1+tau),  y' = f'(u')."""
    if not f.is_smooth:
        raise NotSmoothError("conjugate-mode dual update needs a smooth outer function")
    u_new = (tau * u_block + g_tilde) / (1.0 + tau)
    return u_new, f.grad(u_new)


def _block_step(state, problem, S, B, eta, rule, needs_prev):
    """One iteration of a block-sampling solver; mutates and returns `state`.

    Samples the outer batch, draws each sampled block's value and Jacobian
    batches, and estimates g_now = g(x_t; B) (and g_prev = g(x_{t-1}; B) on
    the same batch when `needs_prev`).  `rule(table_slice, g_now, g_prev)`
    returns the new table entries and the dual weights y; `state.table`
    (None when the solver keeps none) is updated in place at the sampled
    blocks.  The Jacobian-transpose products at the second batch with
    weights y are averaged into G, and the primal takes a prox step with
    coefficient eta.
    With a `kernel` the sampled blocks are handled as vectors, otherwise one
    by one in ascending index order; both consume the same random stream.
    On the per-block path, a problem with `population_sizes` draws all the
    step's index batches in one call before the first block.
    """
    rng, table = state.rng, state.table
    idx = sample_outer_batch(rng, problem.n, S)
    G = np.zeros(problem.dim)
    kern = problem.kernel
    if kern is not None:
        z = kern.draw(rng, len(idx), B)  # (S, 2, B): value batches, then Jacobian batches
        noise = kern.value_noise(z)
        g_now = kern.values(state.x, idx, noise)
        g_prev = kern.values(state.x_prev, idx, noise) if needs_prev else None
        new, y = rule(None if table is None else table[idx], g_now, g_prev)
        if table is not None:
            table[idx] = new
        kern.accumulate_grad(G, state.x, idx, z[:, 1, :], y, 1.0 / S)
    else:
        sizes = problem.population_sizes
        if sizes is not None:
            # the same integers and generator state as the per-block draws below
            batches = rng.integers(0, sizes[idx][:, None, None], size=(S, 2, B))
        for k, i in enumerate(idx):
            orc = problem.inners[i]
            if sizes is None:
                b_val = orc.sample_batch(rng, B)
                b_jac = orc.sample_batch(rng, B)
            else:
                b_val, b_jac = batches[k, 0], batches[k, 1]
            g_now = orc.stochastic_value(state.x, b_val)
            g_prev = orc.stochastic_value(state.x_prev, b_val) if needs_prev else None
            new, y = rule(None if table is None else table[i], g_now, g_prev)
            if table is not None:
                table[i] = new
            orc.accumulate_jtvp(G, state.x, b_jac, y, 1.0 / S)
    x_new = primal_prox_step(state.x, G, eta, problem.regularizer, problem.domain)
    state.x_prev = state.x
    state.x = x_new
    state.t += 1
    state.oracle_count += 2 * S * B
    return state


def alexr_step(state, cfg, problem):
    """One full iteration: extrapolated estimate g~ = g_now + theta*(g_now -
    g_prev), then the quadratic dual prox or the conjugate u-tracking step
    on each sampled block; mutates and returns `state`."""
    f, theta, tau = problem.outer, cfg.theta, cfg.tau

    def extrapolate(g_now, g_prev):
        return g_now + theta * (g_now - g_prev) if theta != 0.0 else g_now

    if cfg.psi_mode == PSI_CONJUGATE:
        def rule(u, g_now, g_prev):
            return dual_update_conjugate(f, u, extrapolate(g_now, g_prev), tau)
    else:
        def rule(y, g_now, g_prev):
            y_new = f.prox_dual_quadratic(y, extrapolate(g_now, g_prev), tau)
            return y_new, y_new
    return _block_step(state, problem, cfg.S, cfg.B, cfg.eta, rule, theta != 0.0)


def msvr_beta(n, S, gamma):
    """Scaling factor of the msvr staleness correction."""
    if gamma >= 1.0:
        raise InvalidParameterError("msvr correction degenerates at gamma=1")
    return (n - S) / (S * (1.0 - gamma)) + 1.0 - gamma


def _outer_slope(f, u, allow_subgradient):
    if f.is_smooth:
        return f.grad(u)
    if not allow_subgradient:
        raise NotSmoothError(f"{f!r} is not smooth; enable subgradient_fallback")
    return f.subgradient(u)


def sox_step(state, cfg, problem):
    """Moving-average inner tracking: u' = (1-gamma)*u + gamma*g(x; B) for
    sampled blocks, gradient through f'(u'), proximal primal step."""
    f, gamma, fallback = problem.outer, cfg.gamma, cfg.subgradient_fallback

    def rule(u, g_now, _g_prev):
        u_new = (1.0 - gamma) * u + gamma * g_now
        return u_new, _outer_slope(f, u_new, fallback)
    return _block_step(state, problem, cfg.S, cfg.B, cfg.step, rule, False)


def msvr_step(state, cfg, problem):
    """sox tracking plus the staleness correction
    beta * (g(x_t; B) - g(x_{t-1}; B)) with beta = (n-S)/(S*(1-gamma)) + 1-gamma.
    Non-smooth outer functions always fall back to subgradients here."""
    f, gamma = problem.outer, cfg.gamma
    beta = msvr_beta(problem.n, cfg.S, gamma)

    def rule(u, g_now, g_prev):
        u_new = (1.0 - gamma) * u + gamma * g_now + beta * (g_now - g_prev)
        return u_new, _outer_slope(f, u_new, True)
    return _block_step(state, problem, cfg.S, cfg.B, cfg.step, rule, True)


def bsgd_step(state, cfg, problem):
    """Plug-in biased estimator: y = f'(g(x; B)) from one batch, Jacobian
    from an independent batch, proximal primal step; no dual state."""
    f = problem.outer
    return _block_step(state, problem, cfg.S, cfg.B, cfg.step,
                       lambda _table, g_now, _g_prev: (None, f.subgradient(g_now)), False)


def sgd_step(state, cfg, problem):
    """Stochastic subgradient on the flat per-sample risk: uniform sampling
    (sgd_erm) or inverse-group-frequency sampling (sgd_uw)."""
    view = problem.flat_view
    if view is None:
        raise FlatViewUnavailableError("problem exposes no flat per-sample loss view")
    rng = state.rng
    k = cfg.S * cfg.B
    if cfg.variant == "sgd_uw":
        idx = rng.choice(view.n_samples, size=k, replace=True, p=view.inverse_frequency_probs)
    else:
        idx = rng.integers(0, view.n_samples, size=k)
    _loss, grad = view.loss_and_grad(state.x, idx)
    state.x_prev = state.x
    state.x = primal_prox_step(state.x, grad, cfg.step, problem.regularizer, problem.domain)
    state.t += 1
    state.oracle_count += k
    return state


_BASELINE_STEPS = {
    "bsgd": bsgd_step,
    "sox": sox_step,
    "msvr": msvr_step,
    "sgd_erm": sgd_step,
    "sgd_uw": sgd_step,
}
# Every solver a config can name: ALEXR and each baseline variant.
SOLVER_NAMES = ("alexr", *_BASELINE_STEPS)


@dataclass
class RunRow:
    t: int
    oracle_count: int
    objective: float
    objective_avg: float
    gap: float
    dist_sq: float
    dual_norm: float
    wall_nanos: int
    extras: dict = field(default_factory=dict)


@dataclass
class RunRecord:
    """Per-iteration metric stream plus final iterates; `dual_final` is
    ALEXR's final table (None for the baselines)."""

    solver: str
    seed: int
    rows: list
    x_last: np.ndarray
    x_avg: np.ndarray
    dual_final: Optional[np.ndarray] = None

    @property
    def final_row(self):
        return self.rows[-1]


def _dual_norm(solver, state, problem):
    """||y|| of ALEXR's dual values (y = f'(u) in conjugate mode); 0 for the
    baselines."""
    if not isinstance(solver, AlexrConfig):
        return 0.0
    y = state.table
    if solver.psi_mode == PSI_CONJUGATE:
        y = problem.outer.grad(y)
    return float(np.linalg.norm(y))


def _all_finite(a):
    """np.isfinite(a).all(), cheaper: a.a is finite only if every entry is,
    and the elementwise test decides when the dot product overflows."""
    return math.isfinite(np.vdot(a, a)) or np.isfinite(a).all()


def run(solver, problem, eval_every):
    """Execute exactly `solver.T` iterations, recording metrics every
    `eval_every` iterations (plus iterations 0 and T).

    The `gap` column is the run's convergence measure, taken against the
    problem's own optimum: (mu/2)*||x_t - x_star||^2 when averaging='last',
    `problem.x_star` is known and mu > 0 (at mu = 0 it reads 0 anywhere);
    else F(x_avg_t) - f_star under averaging='uniform' and F(x_t) - f_star
    under 'last' when `problem.f_star` is known; else NaN.  Deterministic
    for a fixed (solver, problem, seed).  Raises DivergenceError at the
    first iteration whose iterate or table is not finite, whatever
    `eval_every` is.
    """
    if eval_every < 1:
        raise InvalidParameterError("eval_every must be at least 1")
    f_star, x_star, mu = problem.f_star, problem.x_star, problem.mu
    if solver.averaging == "last" and x_star is not None and mu > 0:
        measure = "distance"
    elif f_star is not None:
        measure = "objective_avg" if solver.averaging == "uniform" else "objective"
    else:
        measure = "none"

    is_alexr = isinstance(solver, AlexrConfig)
    state = init_state(solver, problem)
    step_fn = alexr_step if is_alexr else _BASELINE_STEPS[solver.variant]

    exact_ok = problem.supports_exact
    x_sum = np.zeros(problem.dim)
    rows = []
    start = time.perf_counter_ns()

    def record():
        x_avg = x_sum / state.t if state.t > 0 else state.x.copy()
        obj = evaluate_objective(problem, state.x) if exact_ok else float("nan")
        obj_avg = evaluate_objective(problem, x_avg) if exact_ok else float("nan")
        dist = float(np.sum((state.x - x_star) ** 2)) if x_star is not None else float("nan")
        if measure == "distance":
            gap = 0.5 * mu * dist
        elif measure == "objective_avg":
            gap = obj_avg - f_star
        elif measure == "objective":
            gap = obj - f_star
        else:
            gap = float("nan")
        extras = dict(problem.aux_metrics(state.x)) if problem.aux_metrics is not None else {}
        rows.append(RunRow(
            t=state.t, oracle_count=state.oracle_count, objective=obj,
            objective_avg=obj_avg, gap=gap, dist_sq=dist,
            dual_norm=_dual_norm(solver, state, problem),
            wall_nanos=time.perf_counter_ns() - start, extras=extras,
        ))

    for t in range(solver.T + 1):
        if t:
            step_fn(state, solver, problem)
            x_sum += state.x
        # checked every iteration, so the error names the first non-finite t
        table = state.table
        if not (_all_finite(state.x) and (table is None or _all_finite(table))):
            raise DivergenceError(solver.label, state.t)
        if t % eval_every == 0 or t == solver.T:
            record()

    x_avg = x_sum / state.t if state.t > 0 else state.x.copy()
    return RunRecord(
        solver=solver.label, seed=solver.seed, rows=rows,
        x_last=state.x.copy(), x_avg=x_avg,
        dual_final=state.table.copy() if is_alexr else None,
    )
