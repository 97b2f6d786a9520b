"""Problem abstraction: exact evaluation, saddle values, sampling, boxes."""

import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcco.datasets import build_synthetic_gdro
from fcco.errors import (
    DomainViolationError,
    InvalidBatchSizeError,
    InvalidParameterError,
)
from fcco.instances import (
    AffineScalarOracle,
    CoordinateNoiseKernel,
    CoordinateNoiseOracle,
    GaussianNoise,
    TwoPointNoise,
    build_gdro,
    build_hard_nonsmooth,
    build_hard_smooth,
)
from fcco.outers import HalfSquareShift, HuberHard, Identity, PositivePart
from fcco.problem import (
    BoxDomain,
    ProblemInstance,
    Regularizer,
    evaluate_objective,
    evaluate_saddle,
    sample_outer_batch,
)


def scalar_problem(outer, offsets, reg=None, box=None):
    """n scalar components g_i(x) = x + b_i on a 1-d primal variable."""
    inners = [AffineScalarOracle(a=[1.0], b=b) for b in offsets]
    return ProblemInstance(
        outer=outer, inners=inners,
        regularizer=reg or Regularizer(),
        domain=box or BoxDomain.unbounded(1),
    )


# --- evaluate_objective ----------------------------------------------------


def test_hard_smooth_objective_at_known_minimizer():
    inst = build_hard_smooth(10, 0.3, 1.0)
    assert evaluate_objective(inst, inst.x_star) == pytest.approx(-0.03, abs=1e-12)


def test_zero_problem_objective():
    prob = ProblemInstance(
        outer=Identity(),
        inners=[AffineScalarOracle(a=[0.0, 0.0], b=0.0)] * 3,
        regularizer=Regularizer(), domain=BoxDomain.unbounded(2),
    )
    for x in ([0.0, 0.0], [1.0, -2.0], [5.0, 5.0]):
        assert evaluate_objective(prob, np.asarray(x)) == 0.0


def test_two_hinge_objective():
    # f_i(u) = (u)_+, g_1 = x - 1, g_2 = x + 1 evaluated at x = 0
    prob = scalar_problem(PositivePart(), [-1.0, 1.0])
    brute = 0.5 * (max(0.0 - 1.0, 0.0) + max(0.0 + 1.0, 0.0))
    assert evaluate_objective(prob, np.zeros(1)) == pytest.approx(0.5)
    assert brute == 0.5


def test_objective_rejects_points_outside_box():
    prob = scalar_problem(PositivePart(), [0.0], box=BoxDomain(-1.0, 1.0, 1))
    with pytest.raises(DomainViolationError):
        evaluate_objective(prob, np.array([2.0]))


def test_objective_requires_exact_oracles():
    from fcco.errors import UnsupportedExactEvaluationError

    class StreamOnlyOracle(AffineScalarOracle):
        supports_exact = False

    prob = ProblemInstance(
        outer=PositivePart(),
        inners=[StreamOnlyOracle(a=[1.0])],
        regularizer=Regularizer(), domain=BoxDomain.unbounded(1),
    )
    with pytest.raises(UnsupportedExactEvaluationError):
        evaluate_objective(prob, np.zeros(1))


# --- evaluate_saddle -------------------------------------------------------


def test_saddle_zero_dual():
    prob = scalar_problem(PositivePart(), [-1.0, 1.0])
    assert evaluate_saddle(prob, np.zeros(1), np.zeros(2)) == 0.0


def test_saddle_single_hinge_attains_objective():
    prob = scalar_problem(PositivePart(), [0.0])
    y = np.array([1.0])
    x = np.array([2.0])
    assert evaluate_saddle(prob, x, y) == pytest.approx(2.0)
    assert evaluate_saddle(prob, x, y) == pytest.approx(evaluate_objective(prob, x))


def test_saddle_huber_at_dual_anchor():
    prob = scalar_problem(HuberHard(0.3), [0.0])
    assert evaluate_saddle(prob, np.zeros(1), np.array([0.3])) == pytest.approx(0.0)


@pytest.mark.parametrize("f", [PositivePart(), HuberHard(0.4), HalfSquareShift(0.5)],
                         ids=["PositivePart", "HuberHard", "HalfSquareShift"])
def test_saddle_dominated_by_objective(f):
    rng = np.random.default_rng(0)
    prob = scalar_problem(f, [-0.5, 0.2, 1.0])
    lo, hi = f.dual_domain()
    lo, hi = max(lo, -3.0), min(hi, 3.0)
    for _ in range(200):
        x = rng.uniform(-2, 2, size=1)
        val = evaluate_saddle(prob, x, rng.uniform(lo, hi, size=3))
        assert val <= evaluate_objective(prob, x) + 1e-9


@pytest.mark.parametrize("f", [PositivePart(), HuberHard(0.4)], ids=["PositivePart", "HuberHard"])
def test_saddle_blockwise_max_recovers_objective(f):
    prob = scalar_problem(f, [-0.5, 0.2])
    rng = np.random.default_rng(1)
    grid = np.linspace(*f.dual_domain(), 4001)
    conj = np.array([f.conjugate_value(v) for v in grid])
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5, size=1)
        # block separability: maximize each block independently
        blocks = [grid[np.argmax(grid * inner.exact_value(x) - conj)] for inner in prob.inners]
        best = evaluate_saddle(prob, x, np.array(blocks))
        assert best >= evaluate_objective(prob, x) - 1e-3


# --- outer batch sampling --------------------------------------------------


def test_sample_full_batch():
    rng = np.random.default_rng(0)
    assert sample_outer_batch(rng, 5, 5).tolist() == [0, 1, 2, 3, 4]


def test_sample_batch_cardinality_and_range():
    rng = np.random.default_rng(42)
    a = sample_outer_batch(rng, 100, 10)
    b = sample_outer_batch(rng, 100, 10)
    for batch in (a, b):
        assert len(set(batch.tolist())) == 10
        assert all(0 <= i < 100 for i in batch)
    assert a.tolist() != b.tolist()  # independent draws generally differ


def test_sample_batch_deterministic_under_seed():
    draws1 = [sample_outer_batch(np.random.default_rng(7), 50, 5).tolist()]
    draws2 = [sample_outer_batch(np.random.default_rng(7), 50, 5).tolist()]
    assert draws1 == draws2


def test_sample_batch_uniform_frequencies():
    # chi-square style check: 1e6 single-index draws from n=4
    rng = np.random.default_rng(123)
    counts = np.zeros(4)
    for _ in range(1_000_000):
        counts[sample_outer_batch(rng, 4, 1)[0]] += 1
    freqs = counts / 1_000_000
    assert np.all(np.abs(freqs - 0.25) < 0.01)


def test_sample_batch_invalid_sizes():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidBatchSizeError):
        sample_outer_batch(rng, 5, 6)
    with pytest.raises(InvalidBatchSizeError):
        sample_outer_batch(rng, 5, 0)


# --- box domain ------------------------------------------------------------


def test_project_box_clamps():
    box = BoxDomain.symmetric(1.0, 2)
    assert box.project(np.array([3.0, -3.0])).tolist() == [1.0, -1.0]


def test_project_box_idempotent():
    box = BoxDomain(-2.0, 0.5, 3)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = rng.uniform(-5, 5, size=3)
        once = box.project(x)
        assert np.array_equal(box.project(once), once)


def test_project_box_nonexpansive():
    box = BoxDomain(np.array([-1.0, 0.0]), np.array([1.0, 2.0]), 2)
    rng = np.random.default_rng(4)
    for _ in range(1000):
        x, z = rng.uniform(-4, 4, size=(2, 2))
        dp = np.linalg.norm(box.project(x) - box.project(z))
        assert dp <= np.linalg.norm(x - z) + 1e-12


bound_floats = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-math.inf, math.inf, 0.0, -0.0]))
point_floats = st.one_of(st.floats(-4.0, 4.0),
                         st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 40))
def test_project_box_equals_np_clip_bitwise(data, dim):
    # signed zeros, infinities and NaN included; NaN stays NaN
    a = np.array(data.draw(st.lists(bound_floats, min_size=dim, max_size=dim)))
    b = np.array(data.draw(st.lists(bound_floats, min_size=dim, max_size=dim)))
    box = BoxDomain(np.minimum(a, b), np.maximum(a, b), dim)
    x = np.array(data.draw(st.lists(point_floats, min_size=dim, max_size=dim)))
    got, expected = box.project(x), np.clip(x, box.lower, box.upper)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), expected[~nan].view(np.int64))


def test_empty_box_rejected():
    with pytest.raises(InvalidParameterError):
        BoxDomain(1.0, -1.0, 2)


# --- regularizer -----------------------------------------------------------


def test_regularizer_value_and_prox():
    reg = Regularizer(l2_coeff=np.array([2.0, 0.0]), linear=np.array([0.0, 1.0]))
    x = np.array([1.0, 3.0])
    assert reg.value(x) == pytest.approx(0.5 * 2.0 * 1.0 + 3.0)
    box = BoxDomain(np.array([-10.0, 0.0]), np.array([10.0, 0.5]), 2)
    out = reg.prox(np.array([3.0, 2.0]), 1.0, box)
    # coordinate 0: 3/(1+2); coordinate 1: (2-1)/(1+0)=1 clamped to 0.5
    assert out.tolist() == pytest.approx([1.0, 0.5])
    assert box.contains(out)


def test_regularizer_mu_defaults_to_min_quadratic_coeff():
    assert Regularizer(l2_coeff=0.3).mu == pytest.approx(0.3)
    assert Regularizer(l2_coeff=np.array([0.3, 0.0])).mu == 0.0


# --- oracle agreement ------------------------------------------------------


def test_affine_oracle_jtvp_independent_of_x_and_batch():
    orc = AffineScalarOracle(a=[2.0, -1.0], b=0.5, noise=GaussianNoise(1.0))
    rng = np.random.default_rng(0)
    batch = orc.sample_batch(rng, 4)
    j1, j2 = np.zeros(2), np.zeros(2)
    orc.accumulate_jtvp(j1, np.zeros(2), batch, 1.5, 1.0)
    orc.accumulate_jtvp(j2, np.array([5.0, -7.0]), orc.sample_batch(rng, 4), 1.5, 1.0)
    assert np.array_equal(j1, j2)


def test_instance_validation_rules():
    # nonlinear inner with a dual domain reaching below zero is rejected
    class NonlinearOracle(AffineScalarOracle):
        is_affine = False

    with pytest.raises(InvalidParameterError, match="component 1: nonlinear inner"):
        ProblemInstance(
            outer=HuberHard(0.3),
            inners=[AffineScalarOracle(a=[1.0]), NonlinearOracle(a=[1.0])],
            regularizer=Regularizer(), domain=BoxDomain.unbounded(1),
        )
    # a per-component outer list fails here, not as an AttributeError in a step
    with pytest.raises(InvalidParameterError, match="^outer must be one OuterFunction, got list"):
        ProblemInstance(
            outer=[HuberHard(0.3)] * 2,
            inners=[AffineScalarOracle(a=[1.0])] * 2,
            regularizer=Regularizer(), domain=BoxDomain.unbounded(1),
        )
    with pytest.raises(InvalidParameterError, match="^inners must be non-empty$"):
        ProblemInstance(outer=PositivePart(), inners=[], regularizer=Regularizer(),
                        domain=BoxDomain.unbounded(1))


@pytest.mark.parametrize("field, parts", [
    ("regularizer.l2_coeff", {"regularizer": Regularizer(l2_coeff=np.ones(2))}),
    ("regularizer.linear", {"regularizer": Regularizer(linear=np.ones(1))}),
    ("x_star", {"x_star": np.zeros(2)}),
])
def test_instance_refuses_a_part_whose_length_is_not_dim(field, parts):
    # each used to pass construction and fail later with numpy's message: a
    # short l2_coeff broadcast in the first step, a short linear term's
    # matmul at the first evaluation, a short x_star at the first record
    base = {"outer": PositivePart(), "inners": [AffineScalarOracle(a=np.ones(3))],
            "regularizer": Regularizer(), "domain": BoxDomain.unbounded(3)}
    with pytest.raises(InvalidParameterError, match=f"^{re.escape(field)} has shape "
                                                    r"\(\d\,\); domain\.dim is 3$"):
        ProblemInstance(**{**base, **parts})


# --- derived facts ------------------------------------------------------------


def test_problem_types_init_fields_are_pinned():
    # `n`, `dim`, `mu`, `kernel` and `population_sizes` are derived from the
    # parts, so none of them is an input; the known optimum is
    assert [f.name for f in dataclasses.fields(ProblemInstance) if f.init] == [
        "outer", "inners", "regularizer", "domain", "flat_view", "aux_metrics", "f_star",
        "x_star"]
    problem = build_hard_nonsmooth(5, 0.5, 1.0, 2.0, 1.0)
    assert (problem.n, problem.dim) == (len(problem.inners), problem.domain.dim) == (5, 5)
    assert problem.mu == problem.regularizer.mu == 2.0 / 5


def coordinate_problem(inners, outer):
    n = len(inners)
    return ProblemInstance(outer=outer, inners=inners,
                           regularizer=Regularizer(l2_coeff=0.1),
                           domain=BoxDomain.symmetric(1.0, n))


class SubclassedCoordinateOracle(CoordinateNoiseOracle):
    """A coordinate oracle whose subclass may sample or evaluate otherwise."""


def test_hand_built_coordinate_problem_gets_its_kernel():
    noise, outer = GaussianNoise(0.5), HuberHard(0.3)
    kern = coordinate_problem([CoordinateNoiseOracle(i, noise) for i in range(4)], outer).kernel
    assert type(kern) is CoordinateNoiseKernel
    assert kern.noise is noise
    assert build_hard_smooth(3, 0.3, 1.0).kernel is not None
    gdro = build_gdro(build_synthetic_gdro(3, 2, 5, 0.5, np.random.default_rng(0)), alpha=0.5)
    assert gdro.kernel is None


@pytest.mark.parametrize("mismatch", ["second_noise", "permuted_index", "subclass"])
def test_mismatched_coordinate_problem_has_no_kernel(mismatch):
    # the kernel would run every block on inner 0's noise, so any component
    # that differs must send the solvers down the per-block path
    noise = TwoPointNoise(0.3, 1.0)
    inners = [CoordinateNoiseOracle(i, noise) for i in range(4)]
    if mismatch == "second_noise":  # the same law in a second object
        inners[3] = CoordinateNoiseOracle(3, TwoPointNoise(0.3, 1.0))
    elif mismatch == "permuted_index":
        inners[0], inners[1] = inners[1], inners[0]
    else:
        inners[3] = SubclassedCoordinateOracle(3, noise)
    assert coordinate_problem(inners, HuberHard(0.3)).kernel is None
