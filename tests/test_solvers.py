"""Solver steps, reductions between methods, and the run driver."""

import copy
import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcco.solvers as solvers_module
from fcco.errors import (
    DivergenceError,
    FlatViewUnavailableError,
    InvalidParameterError,
    NotSmoothError,
)
from fcco.datasets import build_synthetic_gdro, build_synthetic_pauc, load_grouped_csv
from fcco.instances import (
    AffineScalarOracle,
    CoordinateNoiseOracle,
    GaussianNoise,
    MarginLossOracle,
    TwoPointNoise,
    build_gdro,
    build_hard_nonsmooth,
    build_hard_smooth,
    build_pauc,
)
from fcco.outers import HalfSquareShift, HuberHard, Identity, PositivePart
from fcco.problem import (
    BoxDomain,
    ProblemInstance,
    Regularizer,
    evaluate_objective,
    primal_prox_step,
    sample_outer_batch,
)
from fcco.solvers import (
    AlexrConfig,
    BaselineConfig,
    alexr_step,
    bsgd_step,
    dual_update_conjugate,
    init_state,
    msvr_beta,
    msvr_step,
    run,
    sgd_step,
    sox_step,
    strongly_convex_preset,
)


def affine_problem(n, dim, outer, noise_sigma=0.5, seed=0, reg=None, box=None):
    """Random affine inners with Gaussian noise and one shared outer."""
    rng = np.random.default_rng(seed)
    inners = [
        AffineScalarOracle(a=rng.standard_normal(dim), b=float(rng.standard_normal()),
                           noise=GaussianNoise(noise_sigma))
        for _ in range(n)
    ]
    return ProblemInstance(
        outer=outer, inners=inners,
        regularizer=reg or Regularizer(l2_coeff=0.1),
        domain=box or BoxDomain.unbounded(dim),
    )


# --- primal prox -----------------------------------------------------------


def test_primal_prox_fixed_point():
    reg = Regularizer()
    box = BoxDomain.unbounded(3)
    x = np.array([0.3, -0.2, 1.0])
    assert np.array_equal(primal_prox_step(x, np.zeros(3), 1.0, reg, box), x)


def test_primal_prox_closed_form():
    reg = Regularizer(l2_coeff=1.0)
    box = BoxDomain.unbounded(2)
    out = primal_prox_step(np.zeros(2), np.ones(2), 1.0, reg, box)
    assert np.allclose(out, -0.5)


def test_primal_prox_clamps_to_box():
    reg = Regularizer()
    box = BoxDomain.symmetric(1.0, 1)
    out = primal_prox_step(np.array([1.0]), np.array([-10.0]), 1.0, reg, box)
    assert out.tolist() == [1.0]


def test_primal_prox_first_order_optimality():
    # interior minimizer satisfies G + r'(x) + eta*(x - x_t) = 0
    rng = np.random.default_rng(2)
    reg = Regularizer(l2_coeff=0.7, linear=np.array([0.2, -0.1]))
    box = BoxDomain.unbounded(2)
    for _ in range(50):
        x = rng.standard_normal(2)
        G = rng.standard_normal(2)
        eta = rng.uniform(0.5, 5.0)
        out = primal_prox_step(x, G, eta, reg, box)
        residual = G + 0.7 * out + reg.linear + eta * (out - x)
        assert np.max(np.abs(residual)) < 1e-10


# --- dual updates ----------------------------------------------------------


def test_dual_update_quadratic_examples():
    assert PositivePart().prox_dual_quadratic(0.0, -1.0, 1.0) == 0.0
    from fcco.outers import ScaledPositivePart, HingeHard

    assert ScaledPositivePart(0.5).prox_dual_quadratic(0.2, 0.5, 2.0) == pytest.approx(0.45)
    assert HingeHard(1.0, 0.2).prox_dual_quadratic(0.5, 0.0, 1e6) == pytest.approx(0.5, abs=1e-6)


def test_dual_update_conjugate_examples():
    f = HalfSquareShift(0.0)
    u_new, y_new = dual_update_conjugate(f, 1.0, 3.0, 1.0)
    assert u_new == pytest.approx(2.0)
    assert y_new == pytest.approx(2.0)
    u_new, _ = dual_update_conjugate(f, 1.0, 3.0, 0.0)
    assert u_new == 3.0  # memoryless limit
    with pytest.raises(NotSmoothError):
        dual_update_conjugate(PositivePart(), 0.0, 1.0, 1.0)


def test_dual_update_conjugate_matches_explicit_prox():
    # for f(u) = (u+c)^2/2 the conjugate-divergence prox has the closed form
    # (g + c + tau*y)/(1 + tau), which must equal f'(u') exactly
    f = HalfSquareShift(0.7)
    rng = np.random.default_rng(9)
    for _ in range(1000):
        u = rng.uniform(-3, 3)
        g = rng.uniform(-3, 3)
        tau = rng.uniform(0.05, 10.0)
        y = float(f.grad(u))
        u_new, y_new = dual_update_conjugate(f, u, g, tau)
        explicit = (g + 0.7 + tau * y) / (1.0 + tau)
        assert y_new == pytest.approx(explicit, abs=1e-10)


# --- alexr step mechanics ----------------------------------------------------


def test_alexr_full_batch_identity_outers_is_proximal_gradient():
    # theta = 0, S = n, noise-free: one step of proximal gradient on F
    n, dim = 4, 3
    rng = np.random.default_rng(1)
    mats = rng.standard_normal((n, dim))
    inners = [AffineScalarOracle(a=mats[i], b=0.0) for i in range(n)]
    reg = Regularizer(l2_coeff=0.5)
    problem = ProblemInstance(outer=Identity(), inners=inners,
                              regularizer=reg, domain=BoxDomain.unbounded(dim))
    cfg = AlexrConfig(eta=2.0, tau=1.0, theta=0.0, S=n, B=1, T=1, seed=0)
    state = init_state(cfg, problem)
    state.x = np.array([0.5, -1.0, 0.25])
    state.x_prev = state.x.copy()
    x0 = state.x.copy()
    alexr_step(state, cfg, problem)
    grad_F = mats.mean(axis=0)  # gradient of the coupling part at any x
    expect = primal_prox_step(x0, grad_F, 2.0, reg, problem.domain)
    assert np.allclose(state.x, expect, atol=1e-12)


def test_alexr_extrapolation_vanishes_at_stationary_pair():
    # with x_t = x_{t-1}, theta = 1 and theta = 0 take identical steps
    problem = affine_problem(6, 2, HuberHard(0.3), seed=3)
    cfg0 = AlexrConfig(eta=2.0, tau=1.0, theta=0.0, S=3, B=2, T=1, seed=5)
    cfg1 = AlexrConfig(eta=2.0, tau=1.0, theta=1.0, S=3, B=2, T=1, seed=5)
    s0 = init_state(cfg0, problem)
    s1 = init_state(cfg1, problem)
    alexr_step(s0, cfg0, problem)
    alexr_step(s1, cfg1, problem)
    assert np.array_equal(s0.x, s1.x)
    assert np.array_equal(s0.table, s1.table)


def test_alexr_block_locality():
    problem = affine_problem(10, 2, PositivePart(), seed=4)
    cfg = AlexrConfig(eta=1.0, tau=1.0, theta=1.0, S=3, B=2, T=1, seed=6)
    state = init_state(cfg, problem)
    state.table[:] = 0.5
    before = state.table.copy()
    # replicate the step's outer-batch draw to identify sampled blocks
    probe = np.random.default_rng(6)
    idx = sample_outer_batch(probe, 10, 3)
    alexr_step(state, cfg, problem)
    untouched = np.setdiff1d(np.arange(10), idx)
    assert np.array_equal(state.table[untouched], before[untouched])
    assert not np.array_equal(state.table[idx], before[idx])


def test_alexr_feasibility_and_dual_domains():
    inst = build_hard_smooth(20, 0.3, 1.0)
    cfg = AlexrConfig(eta=0.05, tau=0.5, theta=1.0, S=5, B=1, T=200, seed=7)
    state = init_state(cfg, inst)
    f = inst.outer
    lo, hi = f.dual_domain()
    for _ in range(200):
        alexr_step(state, cfg, inst)
        assert inst.domain.contains(state.x)
        assert np.all(state.table >= lo - 1e-12)
        assert np.all(state.table <= hi + 1e-12)


def test_alexr_oracle_accounting():
    problem = affine_problem(8, 2, PositivePart(), seed=5)
    cfg = AlexrConfig(eta=1.0, tau=1.0, theta=0.0, S=4, B=3, T=5, seed=0)
    state = init_state(cfg, problem)
    for t in range(1, 6):
        alexr_step(state, cfg, problem)
        assert state.oracle_count == 2 * 4 * 3 * t


@pytest.mark.parametrize("variant", ["bsgd", "sox", "msvr"])
def test_baseline_oracle_accounting(variant):
    problem = affine_problem(8, 2, HalfSquareShift(0.0), seed=5)
    cfg = BaselineConfig(variant=variant, step=1.0, gamma=0.5, S=4, B=3, T=5, seed=0)
    rec = run(cfg, problem, eval_every=5)
    assert rec.rows[-1].oracle_count == 2 * 4 * 3 * 5


def reference_draw(problem, rng, S, B):
    """The randomness-ordering contract written out: the outer batch, then
    each sampled block's value batch and Jacobian batch, in ascending block
    order, through its oracle's `sample_batch`."""
    idx = sample_outer_batch(rng, problem.n, S)
    return idx, [(problem.inners[i].sample_batch(rng, B), problem.inners[i].sample_batch(rng, B))
                 for i in idx]


def per_block(problem):
    """A copy of `problem` that takes the per-block path and draws each
    block's batches through its oracle's `sample_batch` (`reference_draw`),
    as a problem with neither a kernel nor index-sampled inners does."""
    out = copy.copy(problem)
    out.kernel = None
    out.draw = functools.partial(reference_draw, problem)
    return out


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(["coordinate", "index", "mixed"]), data=st.data(),
       B=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_draw_follows_the_contract_on_mixed_oracles(family, data, B, seed):
    # whichever source ProblemInstance.draw takes (the kernel, one
    # rng.integers call, or oracle by oracle), it must return the outer
    # batch and the batches of sample_outer_batch followed by 2S
    # sample_batch calls, and leave the generator where they leave it
    kinds = ["coordinate", "index", "affine", "affine_noiseless"]
    kind = st.sampled_from(kinds) if family == "mixed" else st.just(family)
    kinds = data.draw(st.lists(kind, min_size=1, max_size=8), label="kinds")
    n, dim = len(kinds), len(kinds) + 1
    parts = np.random.default_rng(seed)
    noise = GaussianNoise(0.7)
    inners = []
    for i, kind in enumerate(kinds):
        if kind == "coordinate":
            inners.append(CoordinateNoiseOracle(i, noise))
        elif kind == "index":
            size = data.draw(st.integers(1, 12), label=f"size of inner {i}")
            inners.append(MarginLossOracle(parts.standard_normal((size, dim - 1)), "logistic"))
        else:
            inners.append(AffineScalarOracle(parts.standard_normal(dim), noise=(
                TwoPointNoise(0.3, 1.0) if kind == "affine" else None)))
    problem = ProblemInstance(outer=PositivePart(), inners=inners, regularizer=Regularizer(),
                              domain=BoxDomain.unbounded(dim))
    assert (problem.kernel is not None) == (set(kinds) == {"coordinate"})
    S = data.draw(st.integers(1, n), label="S")
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        idx, batches = problem.draw(rng, S, B)
        ref_idx, ref_batches = reference_draw(problem, ref_rng, S, B)
        assert np.array_equal(idx, ref_idx)
        assert len(batches) == S
        for got, want in zip(batches, ref_batches):
            for j in (0, 1):
                assert got[j].dtype == want[j].dtype
                assert np.array_equal(got[j], want[j])
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def gaussian_coordinate_problem(n, sigma=0.7):
    """Coordinate inners sharing one Gaussian noise object."""
    noise = GaussianNoise(sigma)
    return ProblemInstance(outer=HuberHard(0.3),
                           inners=[CoordinateNoiseOracle(i, noise) for i in range(n)],
                           regularizer=Regularizer(l2_coeff=0.1),
                           domain=BoxDomain.symmetric(1.0, n))


def _assert_paths_agree(problem, smooth, T, S, B, seed, thetas):
    """T steps of every block solver init_state builds, on the kernel path
    and on the per-block path, must agree bitwise, generator state included;
    ALEXR runs at each theta, in conjugate mode too when the outer is
    smooth."""
    assert problem.kernel is not None
    generic = per_block(problem)
    modes = ("quadratic", "conjugate") if smooth else ("quadratic",)
    cases = [(AlexrConfig(eta=0.1, tau=0.8, theta=theta, S=S, B=B, T=T, psi_mode=mode,
                          seed=seed), alexr_step) for mode in modes for theta in thetas]
    cases += [(BaselineConfig(variant=variant, step=10.0, gamma=0.5, S=S, B=B, T=T, seed=seed,
                              subgradient_fallback=True), step)
              for variant, step in (("sox", sox_step), ("msvr", msvr_step), ("bsgd", bsgd_step))]
    for cfg, step in cases:
        s_fast = init_state(cfg, problem)
        s_slow = init_state(cfg, generic)
        for _ in range(T):
            step(s_fast, cfg, problem)
            step(s_slow, cfg, generic)
        assert np.array_equal(s_fast.x, s_slow.x), cfg
        assert np.array_equal(s_fast.x_prev, s_slow.x_prev), cfg
        assert (s_fast.table is None) == (s_slow.table is None), cfg
        if s_slow.table is not None:
            assert np.array_equal(s_fast.table, s_slow.table), cfg
        assert s_fast.oracle_count == s_slow.oracle_count == T * 2 * S * B
        assert s_fast.rng.bit_generator.state == s_slow.rng.bit_generator.state, cfg


def test_kernel_and_generic_paths_agree():
    # the vectorized backend must reproduce the per-block path bitwise for
    # every block solver: same random stream, same elementwise arithmetic
    for inst, smooth in ((build_hard_smooth(12, 0.3, 1.0), True),
                         (build_hard_nonsmooth(12, 0.5, 1.0, 1.0, 1.0), False)):
        _assert_paths_agree(inst, smooth, T=50, S=4, B=2, seed=11,
                            thetas=(0.0, 0.5, 1.0))


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 30), data=st.data(), B=st.integers(1, 8),
       theta=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_kernel_and_generic_paths_agree_on_generated_shapes(n, data, B, theta, seed):
    S = data.draw(st.integers(1, n), label="S")
    # the kernel draws through the noise object, so any noise law takes it
    for problem, smooth in ((build_hard_smooth(n, 0.3, 1.0), True),
                            (build_hard_nonsmooth(n, 0.5, 1.0, 1.0, 1.0), False),
                            (gaussian_coordinate_problem(n), True)):
        _assert_paths_agree(problem, smooth, T=20, S=S, B=B, seed=seed, thetas=(theta,))


def _unequal_gdro_csv():
    # groups of 3, 11, 40 and 7 rows, read the way the gdro_csv builder reads
    rng = np.random.default_rng(23)
    lines = ["f0,f1,f2,label,group"]
    for group, size in zip("abcd", (3, 11, 40, 7)):
        for _ in range(size):
            feats = ",".join(repr(float(v)) for v in rng.standard_normal(3))
            lines.append(f"{feats},{int(rng.integers(0, 2))},{group}")
    return load_grouped_csv("\n".join(lines) + "\n", group_column="group")


def _pauc_with_an_affine_inner():
    # three index-sampled pAUC inners and one affine oracle with Gaussian
    # noise: not every inner is index-sampled, so each block draws its own
    problem = build_pauc(build_synthetic_pauc(4, 9, 2, 1.0, 0.5, np.random.default_rng(0)))
    return dataclasses.replace(problem, inners=problem.inners[:3]
                               + affine_problem(1, 3, PositivePart()).inners)


@pytest.mark.parametrize("B", [1, 3, 8])
@pytest.mark.parametrize("family", ["pauc", "gdro_synthetic", "gdro_csv_unequal", "pauc_mixed"])
def test_one_draw_per_step_equals_per_oracle_draws(family, B):
    # ProblemInstance.draw takes a step's (S, 2, B) batches in one call when
    # every inner is index-sampled, and oracle by oracle otherwise; the
    # result, the oracle count and the generator state must be those of the
    # 2S per-block sample_batch calls, bit for bit
    if family == "pauc":
        problem = build_pauc(build_synthetic_pauc(9, 30, 4, 1.0, 0.5, np.random.default_rng(3)))
    elif family == "gdro_synthetic":
        problem = build_gdro(build_synthetic_gdro(6, 3, 25, 0.5, np.random.default_rng(4)),
                             divergence="cvar", alpha=0.5)
    elif family == "gdro_csv_unequal":
        problem = build_gdro(_unequal_gdro_csv(), divergence="cvar", alpha=0.5)
        assert [g.size for g in problem.inners] == [3, 11, 40, 7]
    else:
        problem = _pauc_with_an_affine_inner()
    each = per_block(problem)
    S, T = 3, 25
    cases = [(AlexrConfig(eta=10.0, tau=1.0, theta=theta, S=S, B=B, T=T, seed=5), alexr_step)
             for theta in (0.0, 1.0)]
    cases += [(BaselineConfig(variant=variant, step=10.0, gamma=0.5, S=S, B=B, T=T, seed=6,
                              subgradient_fallback=True), step)
              for variant, step in (("sox", sox_step), ("msvr", msvr_step), ("bsgd", bsgd_step))]
    for cfg, step in cases:
        s_one = init_state(cfg, problem)
        s_each = init_state(cfg, each)
        for _ in range(T):
            step(s_one, cfg, problem)
            step(s_each, cfg, each)
        assert np.array_equal(s_one.x, s_each.x), cfg
        assert np.array_equal(s_one.x_prev, s_each.x_prev), cfg
        if s_each.table is None:
            assert s_one.table is None, cfg
        else:
            assert np.array_equal(s_one.table, s_each.table), cfg
        assert s_one.oracle_count == s_each.oracle_count == T * 2 * S * B
        assert s_one.rng.bit_generator.state == s_each.rng.bit_generator.state, cfg


def test_conjugate_mode_requires_smooth_outers():
    problem = affine_problem(3, 2, PositivePart())
    cfg = AlexrConfig(eta=1.0, tau=1.0, theta=0.0, S=1, B=1, T=1,
                      psi_mode="conjugate", seed=0)
    with pytest.raises(NotSmoothError):
        init_state(cfg, problem)


def test_quadratic_equals_conjugate_for_half_square():
    # for f(u) = (u+c)^2/2 the conjugate divergence IS the quadratic one
    problem = affine_problem(6, 2, HalfSquareShift(0.4), seed=8)
    cfg_q = AlexrConfig(eta=1.0, tau=2.0, theta=1.0, S=2, B=1, T=100,
                        psi_mode="quadratic", seed=3)
    cfg_c = AlexrConfig(eta=1.0, tau=2.0, theta=1.0, S=2, B=1, T=100,
                        psi_mode="conjugate", seed=3)
    s_q = init_state(cfg_q, problem)
    s_c = init_state(cfg_c, problem)
    f = problem.outer
    for _ in range(100):
        alexr_step(s_q, cfg_q, problem)
        alexr_step(s_c, cfg_c, problem)
        y_from_u = np.asarray(f.grad(s_c.table))
        assert np.allclose(s_q.table, y_from_u, atol=1e-10)
    assert np.allclose(s_q.x, s_c.x, atol=1e-10)


# --- sox -------------------------------------------------------------------


def test_sox_memoryless_gamma_is_plugin():
    problem = affine_problem(4, 2, HalfSquareShift(0.0), noise_sigma=0.0, seed=9)
    cfg = BaselineConfig(variant="sox", step=1.0, gamma=1.0, S=4, B=1, T=1, seed=0)
    state = init_state(cfg, problem)
    x0 = state.x.copy()
    sox_step(state, cfg, problem)
    expect = np.array([orc.exact_value(x0) for orc in problem.inners])
    assert np.allclose(state.table, expect, atol=1e-12)


def test_sox_moving_average_arithmetic():
    problem = affine_problem(1, 1, HalfSquareShift(0.0), noise_sigma=0.0, seed=10)
    problem.inners[0].b = 4.0  # exact inner value 4 at x = 0
    problem.inners[0].a = np.array([0.0])
    cfg = BaselineConfig(variant="sox", step=1e9, gamma=0.5, S=1, B=1, T=1, seed=0)
    state = init_state(cfg, problem)
    state.table[0] = 2.0
    sox_step(state, cfg, problem)
    assert state.table[0] == pytest.approx(3.0)


def test_sox_rejects_nonsmooth_without_fallback():
    problem = affine_problem(3, 2, PositivePart())
    cfg = BaselineConfig(variant="sox", step=1.0, gamma=0.5, S=1, B=1, T=1, seed=0)
    state = init_state(cfg, problem)
    with pytest.raises(NotSmoothError):
        sox_step(state, cfg, problem)
    cfg_ok = BaselineConfig(variant="sox", step=1.0, gamma=0.5, S=1, B=1, T=1,
                            seed=0, subgradient_fallback=True)
    sox_step(init_state(cfg_ok, problem), cfg_ok, problem)


def test_sox_reduction_matches_alexr_conjugate():
    # theta = 0 conjugate-mode updates with tau equal sox with gamma = 1/(1+tau)
    inst = build_hard_smooth(10, 0.3, 1.0)
    tau = 3.0
    T = 300
    cfg_a = AlexrConfig(eta=0.5, tau=tau, theta=0.0, S=3, B=2, T=T,
                        psi_mode="conjugate", seed=21)
    cfg_s = BaselineConfig(variant="sox", step=0.5, gamma=1.0 / (1.0 + tau),
                           S=3, B=2, T=T, seed=21)
    s_a = init_state(cfg_a, inst)
    s_s = init_state(cfg_s, inst)
    assert np.array_equal(s_a.table, s_s.table)  # shared tracker anchor
    for _ in range(T):
        alexr_step(s_a, cfg_a, inst)
        sox_step(s_s, cfg_s, inst)
        assert np.allclose(s_a.x, s_s.x, atol=1e-12)
        assert np.allclose(s_a.table, s_s.table, atol=1e-12)


@pytest.mark.parametrize("make, message", [
    (lambda: AlexrConfig(eta=math.nan, tau=1.0, theta=1.0, S=1, B=1, T=1),
     "eta and tau must be positive"),
    (lambda: AlexrConfig(eta=1.0, tau=math.nan, theta=1.0, S=1, B=1, T=1),
     "eta and tau must be positive"),
    (lambda: BaselineConfig("sox", step=math.nan), "step must be positive"),
])
def test_configs_refuse_nan_step_sizes(make, message):
    # a NaN step fails every comparison, so it would pass a `<= 0` check
    with pytest.raises(InvalidParameterError, match=f"^{message}$"):
        make()


# --- msvr ------------------------------------------------------------------


def test_msvr_beta_formula_cases():
    assert msvr_beta(10, 10, 0.5) == pytest.approx(0.5)
    assert msvr_beta(100, 10, 0.9) == pytest.approx(90.1)
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 1000))
        S = int(rng.integers(1, n + 1))
        gamma = float(rng.uniform(0.05, 0.95))
        assert msvr_beta(n, S, gamma) == pytest.approx(
            (n - S) / (S * (1 - gamma)) + 1 - gamma)
    with pytest.raises(InvalidParameterError):
        msvr_beta(10, 5, 1.0)


def test_msvr_stationary_pair_reduces_to_sox():
    problem = affine_problem(6, 2, HalfSquareShift(0.0), seed=12)
    cfg_m = BaselineConfig(variant="msvr", step=1.0, gamma=0.5, S=2, B=2, T=1, seed=4)
    cfg_s = BaselineConfig(variant="sox", step=1.0, gamma=0.5, S=2, B=2, T=1, seed=4)
    s_m = init_state(cfg_m, problem)
    s_s = init_state(cfg_s, problem)
    msvr_step(s_m, cfg_m, problem)
    sox_step(s_s, cfg_s, problem)
    assert np.allclose(s_m.table, s_s.table, atol=1e-12)
    assert np.allclose(s_m.x, s_s.x, atol=1e-12)


def test_msvr_correction_scaling():
    # one block, deterministic inner g(x) = x: after moving x the correction
    # beta*(g(x_t) - g(x_{t-1})) enters the tracked value
    problem = affine_problem(1, 1, HalfSquareShift(0.0), noise_sigma=0.0, seed=13)
    problem.inners[0].a = np.array([1.0])
    problem.inners[0].b = 0.0
    gamma = 0.5
    cfg = BaselineConfig(variant="msvr", step=1.0, gamma=gamma, S=1, B=1, T=1, seed=0)
    state = init_state(cfg, problem)
    state.x = np.array([2.0])
    state.x_prev = np.array([1.0])
    state.table[0] = 0.0
    beta = msvr_beta(1, 1, gamma)
    msvr_step(state, cfg, problem)
    assert state.table[0] == pytest.approx((1 - gamma) * 0.0 + gamma * 2.0 + beta * (2.0 - 1.0))


# --- bsgd ------------------------------------------------------------------


def test_bsgd_deterministic_full_batch_is_subgradient_step():
    n, dim = 3, 2
    rng = np.random.default_rng(14)
    mats = rng.standard_normal((n, dim))
    inners = [AffineScalarOracle(a=mats[i], b=0.5) for i in range(n)]
    reg = Regularizer()
    problem = ProblemInstance(outer=HalfSquareShift(0.0),
                              inners=inners, regularizer=reg,
                              domain=BoxDomain.unbounded(dim))
    cfg = BaselineConfig(variant="bsgd", step=2.0, S=n, B=1, T=1, seed=0)
    state = init_state(cfg, problem)
    x0 = state.x.copy()
    bsgd_step(state, cfg, problem)
    grad = np.mean([float(o.exact_value(x0)) * o.a for o in inners], axis=0)
    assert np.allclose(state.x, x0 - grad / 2.0, atol=1e-12)


def test_bsgd_identity_outer_is_unbiased():
    # linear outer: E[estimator] equals the exact gradient for any B
    problem = affine_problem(5, 2, Identity(), noise_sigma=1.0, seed=15)
    cfg = BaselineConfig(variant="bsgd", step=1e9, S=5, B=1, T=1, seed=0)
    grads = []
    for seed in range(500):
        state = init_state(
            BaselineConfig(variant="bsgd", step=1e9, S=5, B=1, T=1, seed=seed), problem)
        x0 = state.x.copy()
        bsgd_step(state, cfg, problem)
        grads.append((x0 - state.x) * 1e9)
    exact = np.mean([o.a for o in problem.inners], axis=0)
    assert np.allclose(np.mean(grads, axis=0), exact, atol=4 / math.sqrt(500))


def test_bsgd_plugin_bias_shrinks_with_batch():
    # composed hinge gradient at x near the kink: E[f'(g(x; B))] under
    # asymmetric two-point noise is biased for B = 1 and less so for large B
    from fcco.instances import TwoPointNoise

    noise = TwoPointNoise(0.3, 1.0)
    rng = np.random.default_rng(16)
    x = 0.1  # true slope indicator 1[x > 0] = 1
    biases = []
    for B in (1, 25, 200):
        draws = noise.draw(rng, (100_000, B)).mean(axis=1)
        est = np.where(x + draws > 0, 1.0, np.where(x + draws < 0, 0.0, 0.5))
        biases.append(abs(est.mean() - 1.0))
    assert biases[0] > biases[1] > biases[2]
    assert biases[0] > 0.5
    assert biases[2] < 0.2


# --- sgd -------------------------------------------------------------------


def test_sgd_requires_flat_view():
    problem = affine_problem(3, 2, PositivePart())
    cfg = BaselineConfig(variant="sgd_erm", step=1.0, S=1, B=1, T=1, seed=0)
    state = init_state(cfg, problem)
    with pytest.raises(FlatViewUnavailableError):
        sgd_step(state, cfg, problem)


@pytest.fixture(scope="module")
def gdro_problem():
    data = build_synthetic_gdro(2, 3, 20, 0.4, np.random.default_rng(17))
    return build_gdro(data, divergence="cvar", alpha=0.5, weight_decay=0.1)


def test_sgd_single_group_erm_equals_uw_in_distribution():
    # with one group the inverse-frequency law is exactly uniform, so the
    # two variants draw from the same distribution
    data = build_synthetic_gdro(1, 2, 30, 0.0, np.random.default_rng(18))
    problem = build_gdro(data, divergence="cvar", alpha=1.0)
    probs = problem.flat_view.inverse_frequency_probs
    assert np.allclose(probs, 1.0 / 30, atol=1e-15)
    for variant in ("sgd_erm", "sgd_uw"):
        cfg = BaselineConfig(variant=variant, step=5.0, S=2, B=4, T=20, seed=9)
        run(cfg, problem, eval_every=20)  # both variants execute


def test_sgd_uw_inverse_frequency_weights():
    group_of = np.array([0] * 90 + [1] * 10)
    from fcco.instances import GdroFlatView

    view = GdroFlatView(np.zeros((100, 2)), np.ones(100), group_of)
    probs = view.inverse_frequency_probs
    assert probs.sum() == pytest.approx(1.0)
    # group masses proportional to (1/90, 1/10) normalized = (0.1, 0.9)
    assert probs[:90].sum() == pytest.approx(0.1)
    assert probs[90:].sum() == pytest.approx(0.9)


def test_sgd_uw_sampling_law_is_computed_once_per_view(gdro_problem):
    # a fact of group_of: sgd_uw reads the same array at every step
    view = gdro_problem.flat_view
    assert view.inverse_frequency_probs is view.inverse_frequency_probs


def test_sgd_fixed_point_at_zero_gradient():
    # quadratic per-sample losses sharing one minimizer: every sampled
    # gradient vanishes there, so sgd stays put
    from fcco.problem import FlatSampleView

    center = np.array([0.4, -1.2])

    class QuadraticView(FlatSampleView):
        n_samples = 16
        group_of = np.zeros(16, dtype=int)

        def loss_and_grad(self, x, idx):
            diff = x - center
            return 0.5 * float(diff @ diff), diff

    problem = ProblemInstance(
        outer=Identity(),
        inners=[AffineScalarOracle(a=[0.0, 0.0])],
        regularizer=Regularizer(), domain=BoxDomain.unbounded(2),
        flat_view=QuadraticView(),
    )
    cfg = BaselineConfig(variant="sgd_erm", step=1.0, S=1, B=4, T=5, seed=0)
    state = init_state(cfg, problem)
    state.x = center.copy()
    for _ in range(5):
        sgd_step(state, cfg, problem)
    assert np.array_equal(state.x, center)


def test_sgd_oracle_accounting(gdro_problem):
    cfg = BaselineConfig(variant="sgd_erm", step=1.0, S=3, B=4, T=7, seed=0)
    rec = run(cfg, gdro_problem, eval_every=7)
    assert rec.rows[-1].oracle_count == 3 * 4 * 7


# --- run driver ---------------------------------------------------------------


def test_run_zero_iterations_records_initial_objective():
    inst = build_hard_smooth(5, 0.3, 1.0)
    cfg = AlexrConfig(eta=1.0, tau=1.0, theta=0.0, S=1, B=1, T=0, seed=0)
    rec = run(cfg, inst, eval_every=10)
    assert len(rec.rows) == 1
    assert rec.rows[0].t == 0
    assert rec.rows[0].objective == pytest.approx(
        evaluate_objective(inst, inst.initial_point()))


def test_run_deterministic_metric_streams():
    inst = build_hard_smooth(8, 0.3, 1.0)
    cfg = AlexrConfig(eta=0.1, tau=1.0, theta=1.0, S=2, B=1, T=50, seed=33)
    rec1 = run(cfg, inst, eval_every=5)
    rec2 = run(cfg, inst, eval_every=5)
    for a, b in zip(rec1.rows, rec2.rows):
        assert (a.t, a.oracle_count, a.objective, a.gap, a.dist_sq) == (
            b.t, b.oracle_count, b.objective, b.gap, b.dist_sq)
    assert np.array_equal(rec1.x_last, rec2.x_last)
    assert np.array_equal(rec1.x_avg, rec2.x_avg)


def test_run_records_both_outputs():
    inst = build_hard_smooth(5, 0.3, 1.0)
    cfg = AlexrConfig(eta=1.0, tau=1.0, theta=0.0, S=1, B=1, T=20, seed=0,
                      averaging="uniform")
    rec = run(cfg, inst, eval_every=5)
    assert rec.x_last.shape == (5,)
    assert rec.x_avg.shape == (5,)
    assert not np.array_equal(rec.x_last, rec.x_avg)


def test_run_uniform_average_is_running_mean():
    inst = build_hard_smooth(4, 0.3, 1.0)
    cfg = AlexrConfig(eta=0.5, tau=1.0, theta=1.0, S=2, B=1, T=30, seed=12)
    state = init_state(cfg, inst)
    xs = []
    for _ in range(30):
        alexr_step(state, cfg, inst)
        xs.append(state.x.copy())
    rec = run(cfg, inst, eval_every=30)
    assert np.allclose(rec.x_avg, np.mean(xs, axis=0), atol=1e-12)
    assert np.allclose(rec.x_last, xs[-1], atol=1e-12)


def test_run_reports_divergence_with_solver_and_iteration():
    # a NaN iterate on pAUC's unbounded domain is divergence, not a domain
    # violation; the check runs every iteration, so the record spacing does
    # not move the reported t
    data = build_synthetic_pauc(20, 60, 5, 1.0, 0.5, np.random.default_rng(0))
    problem = build_pauc(data)
    cfg = AlexrConfig(eta=1e-9, tau=1e-9, theta=0.0, S=4, B=4, T=2000, seed=0, label="tiny_steps")
    ts = []
    for eval_every in (1, 2000):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            run(cfg, problem, eval_every=eval_every)
        assert err.value.solver == "tiny_steps"
        assert "tiny_steps" in str(err.value) and f"t={err.value.t}" in str(err.value)
        ts.append(err.value.t)
    assert 0 < ts[0] == ts[1] < 2000


def _edit_around_step(monkeypatch, after, before=lambda state: None):
    """Make `run` call before(state) and after(state) around every ALEXR step."""
    step = solvers_module.alexr_step

    def edited_step(state, cfg, problem):
        before(state)
        step(state, cfg, problem)
        after(state)

    monkeypatch.setattr(solvers_module, "alexr_step", edited_step)


HARD_ALEXR = AlexrConfig(eta=0.5, tau=1.0, theta=1.0, S=5, B=1, T=60, seed=4)


@pytest.mark.parametrize("where", ["x", "table"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_run_raises_divergence_at_the_step_that_went_non_finite(monkeypatch, where, bad):
    def edit(state):
        if state.t == 23:
            (state.x if where == "x" else state.table)[3] = bad

    _edit_around_step(monkeypatch, edit)
    problem = build_hard_smooth(20, 0.3, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            run(HARD_ALEXR, problem, eval_every=1000)
    assert err.value.t == 23


def test_run_accepts_finite_table_whose_square_overflows(monkeypatch):
    # a table of 1e200s is finite although its dot product with itself is
    # not; the next step sees the original table again
    saved = []

    def spoil(state):
        if state.t == 23:
            saved.append(state.table.copy())
            state.table[:] = 1e200

    def restore(state):
        if saved:
            state.table[:] = saved.pop()

    problem = build_hard_smooth(20, 0.3, 1.0)
    plain = run(HARD_ALEXR, problem, eval_every=20)
    _edit_around_step(monkeypatch, spoil, restore)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edited = run(HARD_ALEXR, problem, eval_every=20)
    assert np.array_equal(edited.x_last, plain.x_last)
    assert np.array_equal(edited.dual_final, plain.dual_final)


@pytest.mark.parametrize("a", [
    np.zeros(0), np.zeros(5), np.array([1.0, -2.0, 3.0]), np.full(100, 1e200),
    np.array([1e-300, -1e308, 1e308]), np.array([1.0, math.nan]), np.array([math.inf, 1.0]),
    np.array([-math.inf]), np.array([1e200, math.nan]), np.array([math.inf, -math.inf]),
], ids=["empty", "zeros", "small", "1e200", "near_max", "nan", "inf", "-inf", "1e200_nan",
        "both_infs"])
def test_finiteness_check_equals_elementwise_test(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert bool(solvers_module._all_finite(a)) == bool(np.isfinite(a).all())


def per_component_objective(problem, x):
    """F(x) with every outer value taken on a 0-d array (the np.where path)."""
    f, total = problem.outer, 0.0
    for g in problem.inners:
        total += float(f.value(np.asarray(g.exact_value(x))))
    return total / problem.n + problem.regularizer.value(x)


@pytest.mark.parametrize("cfg", [
    AlexrConfig(eta=0.5, tau=1.0, theta=0.0, S=8, B=1, T=300, seed=2),
    AlexrConfig(eta=0.5, tau=1.0, theta=1.0, S=8, B=1, T=300, seed=2),
    BaselineConfig(variant="sox", step=1.0, gamma=0.5, S=8, B=1, T=300, seed=2),
], ids=["alexr_theta0", "alexr_theta1", "sox"])
def test_recorded_objectives_equal_array_path_reference(monkeypatch, cfg):
    # HuberHard.value takes its scalar branch inside run; every recorded
    # objective must be the array path's, bit for bit
    inst = build_hard_smooth(40, 0.3, 1.0)
    points = []
    evaluate = solvers_module.evaluate_objective

    def capture(problem, x):
        points.append(np.array(x))
        return evaluate(problem, x)

    monkeypatch.setattr(solvers_module, "evaluate_objective", capture)
    rec = run(cfg, inst, eval_every=25)
    recorded = [v for row in rec.rows for v in (row.objective, row.objective_avg)]
    expected = [per_component_objective(inst, x) for x in points]
    assert len(rec.rows) == 13
    assert np.array(recorded).view(np.int64).tolist() == np.array(expected).view(np.int64).tolist()


@pytest.mark.parametrize("family", ["hard_smooth", "gdro_chi2"])
def test_conjugate_dual_norm_equals_per_block_gradients_bitwise(family):
    # the recorded ||y|| takes one array call f.grad(table); it must equal
    # the norm of the per-block float-path gradients bit for bit
    if family == "hard_smooth":
        problem = build_hard_smooth(30, 0.3, 1.0)
    else:
        data = build_synthetic_gdro(6, 4, 40, 0.5, np.random.default_rng(0))
        problem = build_gdro(data, divergence="chi2", lam=1.0)
    cfg = AlexrConfig(eta=2.0, tau=1.0, theta=1.0, S=3, B=2, T=150, psi_mode="conjugate", seed=4)
    rec = run(cfg, problem, eval_every=cfg.T)
    f = problem.outer
    expected = np.linalg.norm([f.grad(float(u)) for u in rec.dual_final])
    assert np.float64(rec.final_row.dual_norm).view(np.int64) == np.float64(expected).view(np.int64)
    assert rec.final_row.dual_norm > 0.0


def test_run_average_distance_decreases_on_seed_mean():
    # strongly convex preset: the seed-averaged squared distance shrinks
    # (up to averaging noise once the stationary level is reached)
    inst = build_hard_smooth(100, 0.3, 1.0)
    curves = []
    for seed in range(1, 11):
        cfg = strongly_convex_preset(mu=inst.mu, n=100, S=10, B=1, T=6000,
                                     epsilon=1e-3, seed=seed)
        rec = run(cfg, inst, eval_every=500)
        curves.append([row.dist_sq for row in rec.rows])
    mean_curve = np.mean(curves, axis=0)
    floor = 2.0 * mean_curve[-1]
    for a, b in zip(mean_curve, mean_curve[1:]):
        if a > floor:  # transient phase: strict decrease
            assert b < a
        else:  # stationary phase: bounded fluctuation around the floor
            assert b <= a * 1.15 + 1e-12
    assert mean_curve[-1] < 0.1 * mean_curve[0]
