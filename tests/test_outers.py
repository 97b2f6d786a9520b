"""Outer function library: values, subgradients, conjugates, dual proxes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fcco.errors import InvalidParameterError, NotSmoothError
from fcco.outers import (
    SHIPPED_OUTER_FACTORIES,
    ChiSquareOuter,
    HalfSquareShift,
    HingeHard,
    HuberHard,
    Identity,
    PositivePart,
    ScaledPositivePart,
    grid_conjugate_oracle,
    grid_prox_oracle,
)

ALL = [factory() for factory in SHIPPED_OUTER_FACTORIES.values()]


def finite_dual_interval(f, pad=3.0):
    lo, hi = f.dual_domain()
    if not math.isfinite(lo):
        lo = -pad
    if not math.isfinite(hi):
        hi = pad
    return lo, hi


# --- values ---------------------------------------------------------------


def test_scaled_positive_part_negative_branch():
    assert ScaledPositivePart(0.5).value(-1.0) == 0.0


def test_chi_square_value_at_zero():
    assert ChiSquareOuter(1.0, 4.0).value(0.0) == pytest.approx(0.25 * 4 - 1)


def test_huber_value_at_zero():
    # middle branch (u + nu)^2/2 - nu^2/2 vanishes at u = 0
    assert HuberHard(0.3).value(0.0) == pytest.approx(0.0)


def test_huber_branches_join_continuously():
    f = HuberHard(0.3)
    for u in (-1.0, 1.0):
        inner = f.value(u)
        outer = f.value(u - 1e-9) if u < 0 else f.value(u + 1e-9)
        assert abs(inner - outer) < 1e-6


def test_hinge_value_matches_max_representation():
    f = HingeHard(1.0, 0.2)
    ys = np.linspace(0.0, 1.0, 2001)
    for u in np.linspace(-0.5, 0.5, 41):
        rep = np.max(ys * u - 0.2 * (1.0 - ys))
        assert f.value(u) == pytest.approx(rep, abs=1e-4)


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_values_convex_on_random_chords(f):
    rng = np.random.default_rng(7)
    for _ in range(200):
        a, b = rng.uniform(-3, 3, size=2)
        lam = rng.random()
        mid = lam * a + (1 - lam) * b
        assert f.value(mid) <= lam * f.value(a) + (1 - lam) * f.value(b) + 1e-9


# --- subgradients ---------------------------------------------------------


def test_positive_part_subgradients():
    f = PositivePart()
    assert f.subgradient(5.0) == 1.0
    assert f.subgradient(0.0) == 0.5  # midpoint of the kink interval
    assert f.subgradient(-2.0) == 0.0


def test_huber_middle_derivative():
    assert HuberHard(0.3).subgradient(0.5) == pytest.approx(0.8)


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_subgradient_bounded_by_lipschitz(f):
    if not math.isfinite(f.lipschitz):
        return
    grid = np.linspace(-5, 5, 201)
    for u in grid:
        assert abs(float(f.subgradient(u))) <= f.lipschitz + 1e-12


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_monotone_functions_have_nonnegative_subgradients(f):
    if not f.is_monotone:
        return
    for u in np.linspace(-5, 5, 201):
        assert float(f.subgradient(u)) >= 0.0


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_subgradient_supports_function(f):
    rng = np.random.default_rng(3)
    for _ in range(200):
        u, v = rng.uniform(-3, 3, size=2)
        assert f.value(v) >= f.value(u) + f.subgradient(u) * (v - u) - 1e-9


# --- conjugates -----------------------------------------------------------


def test_scaled_positive_part_conjugate_zero_on_domain():
    f = ScaledPositivePart(0.5)
    assert f.conjugate_value(1.5) == 0.0
    assert f.conjugate_value(2.5) == math.inf
    assert f.conjugate_value(-0.1) == math.inf


def test_huber_conjugate_zero_at_nu():
    assert HuberHard(0.3).conjugate_value(0.3) == 0.0


def test_hinge_conjugate_at_zero_matches_grid_sup():
    f = HingeHard(1.0, 0.2)
    sup = grid_conjugate_oracle(f, 0.0, -0.4, 0.4)
    assert f.conjugate_value(0.0) == pytest.approx(0.2)
    assert sup == pytest.approx(0.2, abs=1e-6)


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_conjugate_matches_grid_sup(f):
    # sup over u of y*u - f(u); bounded dual values keep the sup interior
    lo, hi = finite_dual_interval(f, pad=2.0)
    for y in np.linspace(lo, hi, 9):
        if not math.isfinite(float(f.conjugate_value(y))):
            continue
        sup = grid_conjugate_oracle(f, y, -8.0, 8.0)
        assert float(f.conjugate_value(y)) == pytest.approx(sup, abs=2e-3)


def test_chi_square_conjugate_is_full_quadratic():
    # direct conjugation gives y^2/lam - 2y + lam (no extra 1/2 factor)
    f = ChiSquareOuter(1.0, 4.0)
    for y in (0.0, 0.5, 1.0, 2.0, 3.5):
        assert float(f.conjugate_value(y)) == pytest.approx(y ** 2 - 2 * y + 1)
        sup = grid_conjugate_oracle(f, y, -10.0, 10.0)
        assert float(f.conjugate_value(y)) == pytest.approx(sup, abs=2e-3)


# --- dual domains ---------------------------------------------------------


def test_dual_domains():
    assert ScaledPositivePart(0.1).dual_domain() == (0.0, 10.0)
    lo, hi = HuberHard(0.3).dual_domain()
    assert (lo, hi) == pytest.approx((-0.7, 1.3))
    assert Identity().dual_domain() == (1.0, 1.0)


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_conjugate_finite_exactly_on_dual_domain(f):
    lo, hi = f.dual_domain()
    if math.isfinite(lo):
        assert math.isfinite(float(f.conjugate_value(lo)))
        assert float(f.conjugate_value(lo - 1e-6)) == math.inf
    if math.isfinite(hi):
        assert math.isfinite(float(f.conjugate_value(hi)))
        assert float(f.conjugate_value(hi + 1e-6)) == math.inf


# --- Young-Fenchel --------------------------------------------------------


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_young_fenchel_inequality_and_equality_at_subgradient(f):
    lo, hi = finite_dual_interval(f)
    for u in np.linspace(-2.5, 2.5, 41):
        for y in np.linspace(lo, hi, 21):
            fy = float(f.conjugate_value(y))
            if not math.isfinite(fy):
                continue
            assert float(f.value(u)) + fy >= y * u - 1e-9
        y_star = float(f.subgradient(u))
        fy = float(f.conjugate_value(y_star))
        if math.isfinite(fy):
            assert float(f.value(u)) + fy == pytest.approx(y_star * u, abs=1e-3)


# --- dual prox ------------------------------------------------------------


def test_scaled_positive_part_prox_closed_form():
    # clamp(y + g/tau) onto [0, 1/alpha]
    f = ScaledPositivePart(0.5)
    assert f.prox_dual_quadratic(0.2, 0.5, 2.0) == pytest.approx(0.45)
    assert f.prox_dual_quadratic(0.0, 0.0, 1.0) == 0.0


def test_prox_example_matches_grid_oracle():
    f = ScaledPositivePart(0.5)
    approx = grid_prox_oracle(f, 0.2, 0.5, 2.0, grid_size=10_000)
    assert approx == pytest.approx(0.45, abs=2 * 2.0 / 10_000)


def test_chi_square_prox_matches_grid_oracle():
    f = ChiSquareOuter(1.0, 4.0)
    v = float(f.prox_dual_quadratic(1.0, 0.0, 1.0))
    approx = grid_prox_oracle(f, 1.0, 0.0, 1.0, grid_size=10_000)
    assert v == pytest.approx(approx, abs=1e-3)


def test_hinge_prox_large_tau_is_identity():
    f = HingeHard(1.0, 0.2)
    assert float(f.prox_dual_quadratic(0.5, 0.0, 1e6)) == pytest.approx(0.5, abs=1e-6)


def test_identity_prox_degenerate_domain():
    f = Identity()
    assert float(f.prox_dual_quadratic(1.0, -3.0, 0.5)) == 1.0
    assert grid_prox_oracle(f, 1.0, -3.0, 0.5, grid_size=500) == 1.0


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_prox_output_in_dual_domain(f):
    rng = np.random.default_rng(11)
    lo, hi = f.dual_domain()
    for _ in range(300):
        y = rng.uniform(*finite_dual_interval(f))
        g = rng.uniform(-3, 3)
        tau = rng.uniform(0.05, 20.0)
        v = float(f.prox_dual_quadratic(y, g, tau))
        assert lo - 1e-12 <= v <= hi + 1e-12


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_prox_matches_grid_oracle_random_sweep(f):
    rng = np.random.default_rng(5)
    lo, hi = finite_dual_interval(f, pad=6.0)
    width = hi - lo
    grid = 4000
    for _ in range(100):
        y = rng.uniform(*finite_dual_interval(f))
        g = rng.uniform(-3, 3)
        tau = rng.uniform(0.1, 10.0)
        exact = float(f.prox_dual_quadratic(y, g, tau))
        approx = grid_prox_oracle(f, y, g, tau, grid_size=grid, bounds=(lo, hi))
        assert abs(exact - approx) <= 2 * width / grid + 1e-12


@pytest.mark.parametrize("f", ALL, ids=lambda f: type(f).__name__)
def test_prox_nonexpansive_in_y(f):
    rng = np.random.default_rng(13)
    for _ in range(300):
        y1, y2 = rng.uniform(*finite_dual_interval(f), size=2)
        g = rng.uniform(-3, 3)
        tau = rng.uniform(0.1, 10.0)
        v1 = float(f.prox_dual_quadratic(y1, g, tau))
        v2 = float(f.prox_dual_quadratic(y2, g, tau))
        assert abs(v1 - v2) <= abs(y1 - y2) + 1e-12


# --- scalar value path and clamps -----------------------------------------


def same_bits(a, b):
    """Bitwise equality of float64 arrays, with every NaN equal to every NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return (a.shape == b.shape and np.array_equal(nan_a, nan_b)
            and np.array_equal(a[~nan_a].view(np.int64), b[~nan_b].view(np.int64)))


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -1.0]
EDGES = [e for x in (-1.0, 1.0) for e in (x, float(np.nextafter(x, -2.0)), float(np.nextafter(x, 2.0)))]
huber_args = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                       st.floats(-3.0, 3.0), st.sampled_from(SPECIAL + EDGES))


@settings(max_examples=400, deadline=None)
@given(nu=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), u=huber_args,
       as_numpy=st.booleans())
# here pow(nu, 2) and nu * nu differ in the last bit
@example(nu=0.8945916467354059, u=0.0, as_numpy=False)
def test_huber_value_float_path_equals_array_path(nu, u, as_numpy):
    # floats take the scalar branch, 0-d arrays the np.where path
    f = HuberHard(nu)
    arg = np.float64(u) if as_numpy else u
    with np.errstate(over="ignore", invalid="ignore"):
        expected = f.value(np.asarray(u))[()]
        got = f.value(arg)
    assert isinstance(got, float)
    assert same_bits(got, expected)


@pytest.mark.parametrize("nu", [0.3, 0.05, 0.9, 1.0 / 3.0])
def test_huber_value_float_path_dense_sweep(nu):
    # Python's u ** 2 calls pow(), which rounds differently from numpy's square
    # on about 1 in 1000 points of the middle piece; a dense sweep sees that
    f = HuberHard(nu)
    u = np.random.default_rng(17).uniform(-1.5, 1.5, 20_000)
    got = np.array([f.value(v) for v in u.tolist()])
    assert same_bits(got, f.value(u))


ZERO_EDGES = [float(np.nextafter(z, t)) for z in (0.0, -0.0) for t in (-1.0, 1.0)]
spp_args = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                     st.sampled_from(SPECIAL + ZERO_EDGES))


def same_float64(got, expected):
    """Type np.float64 and the same 64 bits, NaN payload and sign included."""
    return type(got) is np.float64 and got.view(np.int64) == expected.view(np.int64)


@settings(max_examples=400, deadline=None)
@given(alpha=st.floats(1e-3, 1e3), u=spp_args, as_numpy=st.booleans())
def test_scaled_positive_part_subgradient_float_path_equals_array_path(alpha, u, as_numpy):
    # a float or np.float64 takes the scalar branch, a 1-element array the
    # np.where path; NaN and +-0.0 take the midpoint 0.5*cap on both
    f = ScaledPositivePart(alpha)
    got = f.subgradient(np.float64(u) if as_numpy else u)
    assert same_float64(got, f.subgradient(np.array([u]))[0])


@settings(max_examples=400, deadline=None)
@given(alpha=st.floats(1e-3, 1e3), y=spp_args, g=spp_args,
       tau=st.one_of(st.floats(1e-3, 1e3), st.just(math.inf)), as_numpy=st.booleans())
def test_scaled_positive_part_prox_float_path_equals_array_path(alpha, y, g, tau, as_numpy):
    # the per-block solver path passes an np.float64 table entry and a float.
    # Both paths form y + g/tau in the caller's scalar arithmetic (a NaN's
    # payload there can differ from an array's), so the reference is the
    # array path's clamp of that value
    f = ScaledPositivePart(alpha)
    y = np.float64(y) if as_numpy else y
    with np.errstate(all="ignore"):
        got = f.prox_dual_quadratic(y, g, tau)
        expected = np.minimum(f.cap, np.maximum(0.0, np.array([y + g / tau])))[0]
    assert same_float64(got, expected)


@pytest.mark.parametrize("v", SPECIAL + ZERO_EDGES + [2.0, 2.5, float(np.nextafter(2.0, 3.0))])
def test_scaled_positive_part_prox_float_path_at_clamp_edges(v):
    # y_prev = v and g = -0.0 put v itself (v + -0.0 is v, -0.0 included)
    # at the clamps [0, cap=2]
    f = ScaledPositivePart(0.5)
    got = f.prox_dual_quadratic(v, -0.0, 1.0)
    assert same_float64(got, f.prox_dual_quadratic(np.array([v]), np.array([-0.0]), 1.0)[0])
    assert same_float64(got, np.minimum(2.0, np.maximum(0.0, np.array([v])))[0])


def old_prox(f, y, g, tau):
    """The dual proxes as they were written with np.clip."""
    if isinstance(f, ScaledPositivePart):
        return np.clip(y + g / tau, 0.0, f.cap)
    if isinstance(f, ChiSquareOuter):
        return np.clip((g + 2.0 + tau * y) / (2.0 / f.lam + tau), 0.0, f.cap)
    if isinstance(f, HuberHard):
        return np.clip((g + f.nu + tau * y) / (1.0 + tau), f.nu - 1.0, f.nu + 1.0)
    return np.clip(y + (g + f.nu) / tau, 0.0, f.beta)


clamp_floats = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SPECIAL))
clamp_arrays = st.lists(clamp_floats, min_size=1, max_size=40).map(np.array)


@settings(max_examples=300, deadline=None)
@given(which=st.sampled_from(["scaled_positive_part", "chi_square", "huber_hard", "hinge_hard"]),
       data=st.data(), tau=st.one_of(st.floats(1e-3, 1e3), st.just(math.inf)),
       scalar=st.booleans())
def test_clamps_equal_np_clip_bitwise(which, data, tau, scalar):
    f = SHIPPED_OUTER_FACTORIES[which]()
    if scalar:
        y, g = data.draw(clamp_floats), data.draw(clamp_floats)
    else:
        y = data.draw(clamp_arrays)
        g = data.draw(st.lists(clamp_floats, min_size=y.size, max_size=y.size).map(np.array))
    with np.errstate(all="ignore"):
        assert same_bits(f.prox_dual_quadratic(y, g, tau), old_prox(f, y, g, tau))
        if isinstance(f, HuberHard):
            expected = np.clip(np.asarray(y) + f.nu, f.nu - 1.0, f.nu + 1.0)[()]
            assert same_bits(f.grad(y), expected)


# --- gradient map ---------------------------------------------------------


def test_grad_examples():
    assert HalfSquareShift(0.0).grad(3.0) == 3.0
    assert HuberHard(0.3).grad(0.5) == pytest.approx(0.8)
    assert ChiSquareOuter(2.0, 4.0).grad(0.0) == pytest.approx(2.0)


def test_grad_rejects_kinked_functions():
    with pytest.raises(NotSmoothError):
        PositivePart().grad(1.0)
    with pytest.raises(NotSmoothError):
        HingeHard(1.0, 0.2).grad(1.0)


def test_gradient_inversion_on_legendre_region():
    f = HalfSquareShift(0.7)
    for u in np.linspace(-4, 4, 81):
        assert float(f.conjugate_grad(f.grad(u))) == pytest.approx(u, abs=1e-8)
    h = HuberHard(0.3)
    for u in np.linspace(-0.99, 0.99, 81):  # strictly convex region only
        assert float(h.conjugate_grad(h.grad(u))) == pytest.approx(u, abs=1e-8)


def test_grid_prox_oracle_requires_bounds_for_unbounded_domain():
    with pytest.raises(InvalidParameterError):
        grid_prox_oracle(HalfSquareShift(0.0), 0.0, 1.0, 1.0, grid_size=500)
    with pytest.raises(InvalidParameterError):
        grid_prox_oracle(PositivePart(), 0.0, 1.0, 1.0, grid_size=50)


def test_parameter_validation():
    with pytest.raises(InvalidParameterError):
        ScaledPositivePart(0.0)
    with pytest.raises(InvalidParameterError):
        HuberHard(1.5)
    with pytest.raises(InvalidParameterError):
        ChiSquareOuter(-1.0, 4.0)
