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
    OuterFunction,
    PositivePart,
    ScaledPositivePart,
    grid_conjugate_oracle,
    grid_prox_oracle,
)

# ChiSquareOuter(1, 2) turns linear at u = 2*cap/lam - 2 = 2, inside every
# range the sweeps sample
SWEEP = {**SHIPPED_OUTER_FACTORIES, "ChiSquareOuterLinearTail": lambda: ChiSquareOuter(1.0, 2.0)}
IDS = list(SWEEP)
ALL = [factory() for factory in SWEEP.values()]


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


@pytest.mark.parametrize("f", ALL, ids=IDS)
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


@pytest.mark.parametrize("f", ALL, ids=IDS)
def test_subgradients_lie_in_the_dual_domain(f):
    # every subgradient lies in the declared [lo, hi], so |f'| <= lipschitz =
    # max(-lo, hi), and f' >= 0 when is_monotone (lo >= 0)
    lo, hi = f.dual_domain()
    assert (f.lipschitz, f.is_monotone) == (max(-lo, hi), lo >= 0)
    for u in np.linspace(-5, 5, 201):
        assert lo <= float(f.subgradient(u)) <= hi


def test_derived_constants_equal_the_ones_each_class_stated():
    # the values each class assigned before they were derived from
    # dual_domain(), bit for bit: dual_radius's worst case reads lipschitz
    cases = [(ScaledPositivePart(alpha), 1.0 / alpha, True, False)
             for alpha in (0.5, 0.3, 0.07)]
    cases += [(PositivePart(), 1.0, True, False),
              (ChiSquareOuter(1.0, 4.0), 4.0, True, True),
              (ChiSquareOuter(0.3, 2.7), 2.7, True, True)]
    cases += [(HuberHard(nu), 1.0 + nu, False, True) for nu in (0.3, 0.45, 0.9, 1e-3)]
    cases += [(HingeHard(beta, nu), beta, True, False) for beta, nu in ((1.0, 0.2), (2.5, 0.5))]
    cases += [(Identity(), 1.0, True, True), (HalfSquareShift(0.7), math.inf, False, True)]
    for f, lipschitz, monotone, smooth in cases:
        assert (f.lipschitz, f.is_monotone, f.is_smooth) == (lipschitz, monotone, smooth), f


def test_every_method_but_value_is_derived_from_the_declaration():
    derived = {"subgradient", "grad", "conjugate_value", "conjugate_grad",
               "prox_dual_quadratic", "dual_domain", "lipschitz", "is_monotone", "is_smooth"}
    for cls in (ScaledPositivePart, ChiSquareOuter, HuberHard, HingeHard):
        assert not derived & set(vars(cls)), cls


@pytest.mark.parametrize("f", ALL, ids=IDS)
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


@pytest.mark.parametrize("f", ALL, ids=IDS)
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


def test_chi_square_is_quadratic_up_to_its_cap_then_linear():
    # the biconjugate of the capped conjugate: lam*((u + 2)^2/4 - 1) while
    # f'(u) = lam*(u + 2)/2 stays below cap, i.e. up to u = 2*cap/lam - 2,
    # then linear with slope cap; -lam below u = -2
    lam, cap = 3.0, 4.5
    f = ChiSquareOuter(lam, cap)
    kink = 2.0 * cap / lam - 2.0
    for u in np.linspace(-2.0, kink, 41):
        assert f.value(u) == pytest.approx(lam * ((u + 2.0) ** 2 / 4.0 - 1.0), rel=1e-12, abs=1e-12)
        assert f.grad(u) == pytest.approx(lam * (u + 2.0) / 2.0, rel=1e-12)
    for u in np.linspace(kink, kink + 50.0, 41):
        assert f.value(u) == pytest.approx(f.value(kink) + cap * (u - kink), rel=1e-12)
        assert f.grad(u) == cap
    assert (f.value(-7.0), f.grad(-7.0)) == (-lam, 0.0)


# --- dual domains ---------------------------------------------------------


def test_dual_domains():
    assert ScaledPositivePart(0.1).dual_domain() == (0.0, 10.0)
    lo, hi = HuberHard(0.3).dual_domain()
    assert (lo, hi) == pytest.approx((-0.7, 1.3))
    assert Identity().dual_domain() == (1.0, 1.0)


@pytest.mark.parametrize("f", ALL, ids=IDS)
def test_conjugate_finite_exactly_on_dual_domain(f):
    lo, hi = f.dual_domain()
    if math.isfinite(lo):
        assert math.isfinite(float(f.conjugate_value(lo)))
        assert float(f.conjugate_value(lo - 1e-6)) == math.inf
    if math.isfinite(hi):
        assert math.isfinite(float(f.conjugate_value(hi)))
        assert float(f.conjugate_value(hi + 1e-6)) == math.inf


# --- Young-Fenchel --------------------------------------------------------


@pytest.mark.parametrize("f", ALL, ids=IDS)
def test_young_fenchel_inequality_and_equality_at_subgradient(f):
    # f(u) + f*(y) >= y*u for every y, with equality at y = subgradient(u):
    # that equality ties a closed-form value to the declared conjugate.  The
    # terms are O(|y*u|) or O(1), so rounding leaves at most a few ulps of
    # max(1, |y*u|); 1e-12 of it catches any value that is not f**
    lo, hi = finite_dual_interval(f)
    wide = np.random.default_rng(19).uniform(-6.0, 6.0, 200)
    us = np.concatenate([np.linspace(-8.0, 8.0, 321), np.sign(wide) * 10.0 ** np.abs(wide)])
    for u in us:
        scale = max(1.0, abs(float(f.value(u))))
        for y in np.linspace(lo, hi, 21):
            fy = float(f.conjugate_value(y))
            if not math.isfinite(fy):
                continue
            assert float(f.value(u)) + fy >= y * u - 1e-12 * max(scale, abs(y * u))
        y_star = float(f.subgradient(u))
        fy = float(f.conjugate_value(y_star))
        assert math.isfinite(fy)
        assert abs(float(f.value(u)) + fy - y_star * u) <= 1e-12 * max(1.0, abs(y_star * u)), u


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
    # a NaN passes through the clamp, as on every other outer
    assert math.isnan(f.prox_dual_quadratic(1.0, math.nan, 0.5))


@pytest.mark.parametrize("f", ALL, ids=IDS)
def test_prox_output_in_dual_domain(f):
    rng = np.random.default_rng(11)
    lo, hi = f.dual_domain()
    for _ in range(300):
        y = rng.uniform(*finite_dual_interval(f))
        g = rng.uniform(-3, 3)
        tau = rng.uniform(0.05, 20.0)
        v = float(f.prox_dual_quadratic(y, g, tau))
        assert lo - 1e-12 <= v <= hi + 1e-12


@pytest.mark.parametrize("f", ALL, ids=IDS)
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


@pytest.mark.parametrize("f", ALL, ids=IDS)
def test_prox_nonexpansive_in_y(f):
    rng = np.random.default_rng(13)
    for _ in range(300):
        y1, y2 = rng.uniform(*finite_dual_interval(f), size=2)
        g = rng.uniform(-3, 3)
        tau = rng.uniform(0.1, 10.0)
        v1 = float(f.prox_dual_quadratic(y1, g, tau))
        v2 = float(f.prox_dual_quadratic(y2, g, tau))
        assert abs(v1 - v2) <= abs(y1 - y2) + 1e-12


PROX_GRID = 4001


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(SHIPPED_OUTER_FACTORIES)), y=st.floats(-50.0, 50.0),
       g=st.floats(-50.0, 50.0), tau=st.floats(0.01, 100.0))
def test_prox_lies_in_the_dual_domain_and_on_the_grid_oracle(name, y, g, tau):
    # the prox objective is strictly concave on the dual interval, so its
    # grid maximizer is one of the two grid points around the maximizer:
    # within one grid step of it
    f = SHIPPED_OUTER_FACTORIES[name]()
    lo, hi = f.dual_domain()
    v = float(f.prox_dual_quadratic(y, g, tau))
    assert lo <= v <= hi
    # an unbounded interval needs a > 0, and the unclamped maximizer
    # (a/(a+tau)) (g-b)/a + (tau/(a+tau)) y then lies within this window
    radius = abs(y) + (abs(g) + abs(f.b)) / f.a + 1.0 if f.a > 0.0 else math.inf
    bounds = (max(lo, -radius), min(hi, radius))
    step = (bounds[1] - bounds[0]) / (PROX_GRID - 1)
    approx = grid_prox_oracle(f, y, g, tau, grid_size=PROX_GRID, bounds=bounds)
    assert abs(v - approx) <= step * (1.0 + 1e-9)


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
        v = y + g / tau
        expected = np.minimum(f.cap, np.maximum(0.0, np.array([v])))[0]
    if math.isnan(v):
        # a sum of two NaNs may carry the sign and payload of either, and two
        # evaluations of the same float add (CPython specializes one of them)
        # need not pick the same one, so any NaN matches
        assert type(got) is np.float64 and math.isnan(got)
    else:
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
@given(which=st.sampled_from(["ScaledPositivePart", "ChiSquareOuter", "HuberHard", "HingeHard"]),
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
    for lo, hi, a in ((0.0, 1.0, -1.0), (1.0, 0.0, 1.0), (0.0, math.inf, 0.0), (math.nan, 1.0, 1.0)):
        with pytest.raises(InvalidParameterError):
            OuterFunction(lo, hi, a)
    with pytest.raises(InvalidParameterError):
        ScaledPositivePart(0.0)
    with pytest.raises(InvalidParameterError):
        HuberHard(1.5)
    with pytest.raises(InvalidParameterError):
        ChiSquareOuter(-1.0, 4.0)


# --- the declared builder outer functions against the hand-written ones ---


class HandWrittenOuter(OuterFunction):
    """An outer function given by separately written methods; only what
    reads its dual interval [lo, hi] comes from `OuterFunction`."""

    def __init__(self, lo, hi, value, slope, prox, conjugate_grad=None):
        self.lo, self.hi = lo, hi
        self.value, self.subgradient, self.grad, self.prox_dual_quadratic = value, slope, slope, prox
        self.is_smooth = conjugate_grad is not None
        self._conjugate_grad = conjugate_grad

    def conjugate_grad(self, y):
        if self._conjugate_grad is None:
            raise NotSmoothError("kinked")
        return self._conjugate_grad(y)


def hand_written(f):
    """The builder outer `f` in the arithmetic its class wrote out by hand
    before every method but `value` was derived from the conjugate (array
    paths only; the scalar paths equal them bit for bit, tested above)."""
    if isinstance(f, HuberHard):
        nu = f.nu

        def value(u):
            u = np.asarray(u, dtype=float)
            d = u + nu
            return np.where(u < -1.0, (nu - 1.0) * u + 0.5 * (nu - 1.0) ** 2 + nu - 1.0 - 0.5 * nu ** 2,
                            np.where(u > 1.0, (1.0 + nu) * u + 0.5 * (1.0 + nu) ** 2 - 1.0 - nu - 0.5 * nu ** 2,
                                     0.5 * (d * d) - 0.5 * nu ** 2))[()]
        return HandWrittenOuter(
            nu - 1.0, nu + 1.0, value,
            lambda u: np.minimum(nu + 1.0, np.maximum(nu - 1.0, np.asarray(u) + nu))[()],
            lambda y, g, tau: np.minimum(nu + 1.0, np.maximum(nu - 1.0, (g + nu + tau * y) / (1.0 + tau))),
            conjugate_grad=lambda y: np.asarray(y) - nu)
    if isinstance(f, HingeHard):
        beta, nu = f.beta, f.nu
        return HandWrittenOuter(
            0.0, beta, lambda u: beta * np.maximum(np.asarray(u), -nu)[()],
            lambda u: np.where(np.asarray(u) > -nu, beta, np.where(np.asarray(u) < -nu, 0.0, 0.5 * beta))[()],
            lambda y, g, tau: np.minimum(beta, np.maximum(0.0, y + (g + nu) / tau)))
    assert type(f) is ScaledPositivePart
    alpha, cap = f.alpha, f.cap
    return HandWrittenOuter(
        0.0, cap, lambda u: np.maximum(u, 0.0) / alpha,
        lambda u: np.where(np.asarray(u) > 0, cap, np.where(np.asarray(u) < 0, 0.0, 0.5 * cap))[()],
        lambda y, g, tau: np.minimum(cap, np.maximum(0.0, y + g / tau)))


@pytest.mark.parametrize("nu", [0.05, 0.3, 0.6])
def test_huber_value_is_the_hand_written_one_where_evaluation_reads_it(nu):
    # a hard instance's inner values are coordinates of x in [-1, 1]^n, so
    # evaluation reads HuberHard.value on the middle piece only; there the
    # derived formula gives the hand-written value bit for bit
    f = HuberHard(nu)
    u = np.concatenate([np.random.default_rng(5).uniform(-1.0, 1.0, 20_000),
                        [-1.0, 1.0, 0.0, -0.0, -nu]])
    want = hand_written(f).value(u)
    assert same_bits([f.value(v) for v in u.tolist()], want)
    assert same_bits(f.value(u), want)


def built_problem(family):
    from fcco.datasets import build_synthetic_gdro, build_synthetic_pauc
    from fcco.instances import build_gdro, build_hard_nonsmooth, build_hard_smooth, build_pauc

    if family == "hard_smooth":
        return build_hard_smooth(12, 0.3, 0.5)
    if family == "hard_nonsmooth":
        return build_hard_nonsmooth(12, 0.3, 1.0, 2.0, 0.5)
    if family == "gdro_cvar":
        return build_gdro(build_synthetic_gdro(6, 4, 40, 0.5, np.random.default_rng(0)), "cvar", alpha=0.5)
    return build_pauc(build_synthetic_pauc(15, 40, 4, 1.0, 0.5, np.random.default_rng(0)))


def run_outputs(cfg, problem):
    """Every float a run reports, as exact reprs: its records, x_last, x_avg
    and dual_final."""
    from fcco.solvers import run

    rec = run(cfg, problem, eval_every=50)
    rows = [(r.t, r.oracle_count, r.objective, r.objective_avg, r.gap, r.dist_sq, r.dual_norm,
             r.extras) for r in rec.rows]
    arrays = [None if a is None else a.tobytes() for a in (rec.x_last, rec.x_avg, rec.dual_final)]
    return repr(rows), arrays


@pytest.mark.parametrize("family", ["hard_smooth", "hard_nonsmooth", "gdro_cvar", "pauc"])
def test_declared_builder_outers_reproduce_the_hand_written_ones_bitwise(family):
    # every block solver on every builder whose outer kept its arithmetic
    # (all but chi2 GDRO): the hard instances on the vectorized kernel path,
    # GDRO and pAUC one block at a time
    from dataclasses import replace

    from fcco.solvers import AlexrConfig, BaselineConfig

    problem = built_problem(family)
    outer = problem.outer
    reference = replace(problem, outer=hand_written(outer))
    assert (problem.kernel is None) == (reference.kernel is None)
    steps = dict(S=3, B=2, T=200, seed=1)
    configs = [AlexrConfig(eta=5.0, tau=2.5, theta=theta, psi_mode=mode, **steps)
               for theta in (0.0, 1.0)
               for mode in (("quadratic", "conjugate") if outer.is_smooth else ("quadratic",))]
    configs += [BaselineConfig(variant=v, step=5.0, gamma=0.5, subgradient_fallback=True, **steps)
                for v in ("sox", "msvr", "bsgd")]
    for cfg in configs:
        assert run_outputs(cfg, problem) == run_outputs(cfg, reference), cfg
