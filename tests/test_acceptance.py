"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  The heavy benchmark criteria (01, 02, 09) dominate the runtime;
the whole module completes in roughly ten minutes on one core.  They carry
the `slow` marker, so `pytest -m "not slow"` skips them.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from fcco.datasets import build_synthetic_gdro
from fcco.harness import run_experiment, sweep_rate, validate_config
from fcco.instances import (
    TwoPointNoise,
    build_cvar_scalar,
    build_gdro,
    build_hard_smooth,
    solve_cvar_reference,
)
from fcco.metrics import compute_dual_witness, dual_radius, pauc_exact
from fcco.outers import SHIPPED_OUTER_FACTORIES, grid_prox_oracle
from fcco.problem import primal_prox_step, sample_outer_batch
from fcco.solvers import (
    AlexrConfig,
    BaselineConfig,
    alexr_step,
    init_state,
    msvr_beta,
    run,
    sox_step,
    strongly_convex_preset,
)


def report(number, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number:02d} {name}: {status} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


# -- 01 ----------------------------------------------------------------------


@pytest.mark.slow
def test_01_hard_instance_optimum_recovery():
    start = time.perf_counter()
    inst = build_hard_smooth(100, 0.3, 1.0)
    gaps = []
    for seed in range(1, 11):
        cfg = strongly_convex_preset(mu=inst.mu, n=100, S=10, B=1, T=200_000,
                                     epsilon=1e-3, seed=seed)
        rec = run(cfg, inst, eval_every=200_000)
        gaps.append(rec.rows[-1].gap)  # (mu/2) * ||x_T - x_star||^2
    elapsed = time.perf_counter() - start
    mean_gap = float(np.mean(gaps))
    report(1, "hard-instance optimum recovery",
           mean_gap <= 1e-3 and elapsed < 120.0,
           f"seed-mean (mu/2)||x_T - x*||^2 = {mean_gap:.3e} <= 1e-3, "
           f"runtime {elapsed:.0f}s < 120s")


# -- 02 ----------------------------------------------------------------------


@pytest.mark.slow
def test_02a_rate_slope_strongly_convex(tmp_path):
    start = time.perf_counter()
    config = validate_config({
        "problem": {"builder": "hard_smooth",
                    "params": {"n": 100, "nu": 0.6, "sigma": 1.0}},
        "solvers": [{"name": "alexr",
                     "params": {"preset": "strongly_convex", "S": 10, "B": 1}}],
        "seeds": list(range(1, 11)),
        "eval_every": 25,
        "epsilons": [4e-3, 2e-3, 1e-3],
        "budget": 40_000,
    })
    rep = sweep_rate(config, tmp_path)
    elapsed = time.perf_counter() - start
    assert all(e["converged"] for e in rep["entries"]), rep["entries"]
    slope = rep["fit"]["slope"]
    hits = [(e["epsilon"], e["iterations"]) for e in rep["entries"]]
    report(2, "rate slope, strongly convex regime",
           -1.3 <= slope <= -0.7 and elapsed < 600.0,
           f"slope {slope:.3f} in [-1.3, -0.7], hits {hits}, "
           f"runtime {elapsed:.0f}s < 600s")


@pytest.mark.slow
def test_02b_rate_slope_nonsmooth_convex(tmp_path):
    start = time.perf_counter()
    config = validate_config({
        "problem": {"builder": "hard_nonsmooth",
                    "params": {"n": 50, "nu": 0.5, "beta": 1.0,
                               "alpha_reg": 1.0, "sigma": 1.0}},
        "solvers": [{"name": "alexr",
                     "params": {"preset": "convex", "theta": 0.0, "S": 10, "B": 1}}],
        "seeds": list(range(1, 11)),
        "eval_every": 100,
        "epsilons": [4e-2, 2e-2, 1e-2],
        "budget": 120_000,
    })
    rep = sweep_rate(config, tmp_path)
    elapsed = time.perf_counter() - start
    assert all(e["converged"] for e in rep["entries"]), rep["entries"]
    slope = rep["fit"]["slope"]
    hits = [(e["epsilon"], e["iterations"]) for e in rep["entries"]]
    report(2, "rate slope, non-smooth convex regime",
           -2.4 <= slope <= -1.6 and elapsed < 600.0,
           f"slope {slope:.3f} in [-2.4, -1.6], hits {hits}, "
           f"runtime {elapsed:.0f}s < 600s")


# -- 03 ----------------------------------------------------------------------


def test_03_representation_equivalence():
    from fcco.instances import AffineScalarOracle, GaussianNoise
    from fcco.outers import HalfSquareShift
    from fcco.problem import BoxDomain, ProblemInstance, Regularizer

    n, dim, S, B, T = 8, 3, 3, 2, 500
    c, tau, eta, theta = 0.7, 2.0, 1.0, 1.0
    outer = HalfSquareShift(c)
    worst = 0.0
    for seed in (1, 2, 3):
        rng_data = np.random.default_rng(100 + seed)
        inners = [
            AffineScalarOracle(a=rng_data.standard_normal(dim),
                               b=float(rng_data.standard_normal()),
                               noise=GaussianNoise(0.5))
            for _ in range(n)
        ]
        problem = ProblemInstance(outer=outer, inners=inners,
                                  regularizer=Regularizer(l2_coeff=0.2),
                                  domain=BoxDomain.unbounded(dim))
        cfg = AlexrConfig(eta=eta, tau=tau, theta=theta, S=S, B=B, T=T,
                          psi_mode="conjugate", seed=seed)
        state = init_state(cfg, problem)

        # independent shadow run: explicit dual prox under the conjugate
        # divergence (closed form for this outer) plus its own u recursion,
        # consuming the documented randomness order
        rng = np.random.default_rng(seed)
        x = problem.initial_point()
        x_prev = x.copy()
        y = np.zeros(n)
        u = np.full(n, -c)  # so that f'(u0) = y0
        for _ in range(T):
            idx = sample_outer_batch(rng, n, S)
            G = np.zeros(dim)
            for i in idx:
                orc = problem.inners[i]
                b_val = orc.sample_batch(rng, B)
                b_jac = orc.sample_batch(rng, B)
                g_now = orc.stochastic_value(x, b_val)
                g_tilde = g_now + theta * (g_now - orc.stochastic_value(x_prev, b_val))
                y[i] = (g_tilde + c + tau * y[i]) / (1.0 + tau)
                u[i] = (tau * u[i] + g_tilde) / (1.0 + tau)
                G += y[i] * orc.a
            G /= S
            x_prev, x = x, primal_prox_step(x, G, eta, problem.regularizer, problem.domain)

            alexr_step(state, cfg, problem)
            y_lib = np.asarray(outer.grad(state.table))
            worst = max(worst,
                        float(np.max(np.abs(y_lib - y))),
                        float(np.max(np.abs(state.table - u))),
                        float(np.max(np.abs(state.x - x))))
    report(3, "representation equivalence",
           worst <= 1e-10,
           f"max deviation across modes/blocks/iterations {worst:.2e} <= 1e-10")


# -- 04 ----------------------------------------------------------------------


def test_04_moving_average_reduction():
    inst = build_hard_smooth(20, 0.3, 1.0)
    tau = 3.0
    T = 500
    worst = 0.0
    for seed in (1, 2, 3):
        cfg_a = AlexrConfig(eta=0.5, tau=tau, theta=0.0, S=5, B=2, T=T,
                            psi_mode="conjugate", seed=seed)
        cfg_s = BaselineConfig(variant="sox", step=0.5, gamma=1.0 / (1.0 + tau),
                               S=5, B=2, T=T, seed=seed)
        s_a = init_state(cfg_a, inst)
        s_s = init_state(cfg_s, inst)
        for _ in range(T):
            alexr_step(s_a, cfg_a, inst)
            sox_step(s_s, cfg_s, inst)
            worst = max(worst,
                        float(np.max(np.abs(s_a.x - s_s.x))),
                        float(np.max(np.abs(s_a.table - s_s.table))))
    report(4, "moving-average reduction",
           worst <= 1e-12,
           f"max |x_t or u_t difference| {worst:.2e} <= 1e-12 over {T} iterations")


# -- 05 ----------------------------------------------------------------------


def test_05_prox_oracle_equivalence():
    grid = 10_000
    worst_ratio = 0.0
    for name, factory in SHIPPED_OUTER_FACTORIES.items():
        f = factory()
        lo, hi = f.dual_domain()
        bounds = None
        if not (math.isfinite(lo) and math.isfinite(hi)):
            bounds = (-8.0, 8.0)
            lo, hi = bounds
        width = hi - lo
        tol = 2.0 * width / grid + 1e-12
        rng = np.random.default_rng(hash(name) % 2 ** 32)
        for _ in range(1000):
            y = rng.uniform(max(lo, -2.0), min(hi, 2.0)) if width else lo
            g = rng.uniform(-3, 3)
            tau = rng.uniform(0.1, 10.0)
            exact = float(f.prox_dual_quadratic(y, g, tau))
            approx = grid_prox_oracle(f, y, g, tau, grid_size=grid, bounds=bounds)
            err = abs(exact - approx)
            assert err <= tol, f"{name}: err {err:.2e} > tol {tol:.2e}"
            if width:
                worst_ratio = max(worst_ratio, err / tol)
    report(5, "dual prox vs grid oracle",
           True,
           f"7 functions x 1000 triples, worst error/tolerance ratio {worst_ratio:.2f}")


# -- 06 ----------------------------------------------------------------------


def test_06_fenchel_reconstruction():
    worst = 0.0
    for name, factory in SHIPPED_OUTER_FACTORIES.items():
        f = factory()
        lo, hi = f.dual_domain()
        u_grid = np.linspace(-3.0, 3.0, 200)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            slopes = np.asarray(f.subgradient(u_grid))
            lo, hi = float(slopes.min()) - 1.0, float(slopes.max()) + 1.0
        y_grid = np.linspace(lo, hi, 10_000)
        conj = np.asarray([float(f.conjugate_value(y)) for y in y_grid]) if hi > lo \
            else np.array([float(f.conjugate_value(lo))])
        y_pts = y_grid if hi > lo else np.array([lo])
        rebuilt = np.max(np.outer(u_grid, y_pts) - conj[None, :], axis=1)
        direct = np.asarray(f.value(u_grid), dtype=float)
        err = float(np.max(np.abs(rebuilt - direct)))
        assert err <= 1e-3, f"{name}: reconstruction error {err:.2e}"
        worst = max(worst, err)
    report(6, "biconjugate reconstruction",
           True, f"max |max_y(yu - f*(y)) - f(u)| = {worst:.2e} <= 1e-3")


# -- 07 ----------------------------------------------------------------------


def test_07_pauc_oracle():
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(10_000):
        n_pos = int(rng.integers(2, 51))
        n_neg = int(rng.integers(1, 51))
        pos = rng.integers(0, 12, size=n_pos) / 10.0
        neg = rng.integers(0, 12, size=n_neg) / 10.0
        alpha = float(rng.uniform(0.02, 0.9))
        k = int(math.floor(n_pos * (1.0 - alpha)))
        if k < 1:
            continue
        # naive enumeration over every selected pair, integer counts
        selected = np.sort(pos)[:k]
        wins = (selected[:, None] > neg[None, :]).sum()
        ties = (selected[:, None] == neg[None, :]).sum()
        expected = (2 * int(wins) + int(ties)) / (2 * k * n_neg)
        assert pauc_exact(pos, neg, alpha) == expected
        checked += 1
    report(7, "exact restricted-ranking metric",
           checked > 9000, f"{checked} random instances matched the pair count exactly")


# -- 08 ----------------------------------------------------------------------


def test_08_gdro_duality_sanity():
    from fcco.instances import _logistic_risk

    data = build_synthetic_gdro(3, 2, 25, 0.6, np.random.default_rng(19))
    alpha, n = 0.5, 3
    cap = 1.0 / (alpha * n)
    c_grid = np.linspace(0.0, 2.0, 1001)
    w_axis = np.linspace(-1.5, 1.5, 15)
    best_dual = math.inf
    best_primal = math.inf
    for w0 in w_axis:
        for w1 in w_axis:
            w = np.array([w0, w1])
            risks = np.array([
                _logistic_risk(w, data.features[rows], data.labels[rows])
                for rows in data.group_index
            ])
            dual_w = min(float(np.maximum(risks - c, 0.0).mean() / alpha + c)
                         for c in c_grid)
            order = np.argsort(-risks)
            q = np.zeros(n)
            remaining = 1.0
            for g in order:
                take = min(cap, remaining)
                q[g] = take
                remaining -= take
            best_dual = min(best_dual, dual_w)
            best_primal = min(best_primal, float(q @ risks))
    tol = (1.0 + 1.0 / alpha) * (c_grid[1] - c_grid[0])
    report(8, "robust-objective duality sanity",
           abs(best_dual - best_primal) <= tol,
           f"|min dual - min max-form| = {abs(best_dual - best_primal):.2e} <= {tol:.2e}")


# -- 09 ----------------------------------------------------------------------


@pytest.mark.slow
def test_09_gdro_solve_quality():
    start = time.perf_counter()
    data = build_synthetic_gdro(20, 10, 200, 0.5, np.random.default_rng(0))
    problem = build_gdro(data, divergence="cvar", alpha=0.5, weight_decay=0.01)
    _w, _c, obj_ref = solve_cvar_reference(data, 0.5, 0.01, iters=4000)

    T, S, B = 50_000, 8, 8
    seeds = (1, 2, 3)

    def final_avg_objective(make_cfg):
        finals, counts = [], []
        for seed in seeds:
            rec = run(make_cfg(seed), problem, eval_every=T)
            finals.append(rec.rows[-1].objective_avg)
            counts.append(rec.rows[-1].oracle_count)
        return float(np.mean(finals)), counts

    obj_alexr, counts_alexr = final_avg_objective(
        lambda s: AlexrConfig(eta=100.0, tau=9.0, theta=1.0, S=S, B=B, T=T, seed=s))
    baselines = {
        "sox": lambda s: BaselineConfig(variant="sox", step=100.0, gamma=0.1,
                                        S=S, B=B, T=T, seed=s, subgradient_fallback=True),
        "msvr": lambda s: BaselineConfig(variant="msvr", step=100.0, gamma=0.5,
                                         S=S, B=B, T=T, seed=s),
        "bsgd": lambda s: BaselineConfig(variant="bsgd", step=100.0,
                                         S=S, B=B, T=T, seed=s),
    }
    results = {}
    for name, make in baselines.items():
        obj_b, counts_b = final_avg_objective(make)
        assert counts_b == counts_alexr, "oracle accounting mismatch"
        results[name] = obj_b

    gap_ref = obj_alexr - obj_ref
    dominated = all(obj_alexr <= obj_b + 1e-9 for obj_b in results.values())
    elapsed = time.perf_counter() - start
    report(9, "synthetic robust-training solve quality",
           gap_ref <= 1e-2 and dominated,
           f"gap to reference {gap_ref:.2e} <= 1e-2; final objectives "
           f"alexr={obj_alexr:.5f} vs {({k: round(v, 5) for k, v in results.items()})}; "
           f"runtime {elapsed:.0f}s")


# -- 10 ----------------------------------------------------------------------


def test_10_noise_law():
    rng = np.random.default_rng(101)
    noise = TwoPointNoise(0.3, 1.0)
    draws = noise.draw(rng, 1_000_000)
    mean = float(draws.mean())
    var = float(draws.var())
    mean_tol = 3.0 * 1.0 / math.sqrt(1_000_000)
    target_var = 1.0 * (1.0 - 0.09)
    report(10, "two-point noise law",
           abs(mean) <= mean_tol and abs(var - target_var) <= 0.01 * target_var,
           f"mean {mean:.2e} (tol {mean_tol:.1e}), var {var:.5f} vs {target_var} +-1%")


# -- 11 ----------------------------------------------------------------------


def test_11_dual_radius_sparsity():
    alpha = 0.5
    n = 40
    risks = np.linspace(0.05, 1.0, n)
    problem = build_cvar_scalar(risks, alpha=alpha)
    c_star = problem.x_star[0]
    witness = compute_dual_witness(problem, np.array([c_star]))
    rep = dual_radius(problem, witness, np.zeros(n))
    cap = problem.outer.lipschitz
    target = n * alpha * cap ** 2 / 2.0
    ok_omega = abs(rep.omega_y0 - target) <= 0.2 * target
    ok_sparse = abs(rep.sparsity_fraction - (1.0 - alpha)) <= 0.05
    report(11, "dual-table radius sparsity",
           ok_omega and ok_sparse,
           f"omega {rep.omega_y0:.2f} vs n*alpha*C^2/2 = {target:.2f} (+-20%), "
           f"sparsity {rep.sparsity_fraction:.2f} vs {1 - alpha} (+-0.05)")


# -- 12 ----------------------------------------------------------------------


def test_12_msvr_correction_factor():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 2000))
        S = int(rng.integers(1, n + 1))
        gamma = float(rng.uniform(0.01, 0.99))
        expected = (n - S) / (S * (1.0 - gamma)) + 1.0 - gamma
        got = msvr_beta(n, S, gamma)
        worst = max(worst, abs(got - expected))
        assert got == expected
    report(12, "variance-correction scaling factor",
           True, f"100 random (n, S, gamma) triples, max |error| = {worst}")


# -- 13 ----------------------------------------------------------------------


def test_13_determinism_and_fairness(tmp_path):
    config = validate_config({
        "problem": {"builder": "hard_smooth", "params": {"n": 8, "nu": 0.3, "sigma": 1.0}},
        "solvers": [
            {"name": "alexr", "params": {"eta": 0.5, "tau": 1.0, "theta": 1.0,
                                         "S": 2, "B": 2, "T": 60}},
            {"name": "bsgd", "params": {"step": 0.5, "S": 2, "B": 1, "T": 120}},
        ],
        "seeds": [1, 2, 3],
        "eval_every": 20,
        "emit": "csv",
    })
    out1 = tmp_path / "first"
    run_experiment(config, out1)
    manifest = json.loads((out1 / "manifest.json").read_text())
    config2 = validate_config({k: manifest[k] for k in
                               ("problem", "solvers", "seeds", "eval_every", "emit")})
    out2 = tmp_path / "second"
    run_experiment(config2, out2)
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in sorted(os.listdir(out1))
    )
    header = (out1 / "aggregate.csv").read_text().splitlines()[0].split(",")
    keyed = "oracle_count" in header and manifest["comparison_axis"] == "oracle_count"
    # bsgd at B=1 and alexr at B=2 consume equal samples per recorded row
    recs = sorted(os.listdir(out1))
    report(13, "determinism and oracle-count fairness",
           identical and keyed,
           f"{len(recs)} files byte-identical on manifest re-run; aggregate keyed by oracle_count")
