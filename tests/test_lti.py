"""Transfer-function algebra: polynomials, reduction, loop closure, placement."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loopinfo import (
    FrequencyGrid,
    InvalidInputError,
    LoopModel,
    RateInputs,
    SingularityError,
    UnstableLoopError,
    close_loop,
    freq_response_array,
    is_stabilizing,
    pole_placement_controller,
    tf,
    white,
)
from loopinfo import lti
from loopinfo.lti import TF_ONE, Polynomial, _horner, poly_roots


# ---------------------------------------------------------------------------
# Polynomial


def test_polynomial_strips_trailing_zeros():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.coeffs == (1.0, 2.0)
    assert p.degree == 1


def test_polynomial_zero_normal_form():
    assert Polynomial([0.0, 0.0]).coeffs == (0.0,)
    assert Polynomial([0.0]).is_zero
    assert not Polynomial([0.0, 1.0]).is_zero


def _at(p: Polynomial, x: complex) -> complex:
    """p at one point, by the Horner rule that unit-circle evaluation uses."""
    return complex(np.asarray(_horner(np.array([complex(x)]), p.coeffs)).flat[0])


def test_polynomial_evaluation():
    # 1 + 2d + 3d^2 at d = 2 -> 17
    p = Polynomial([1.0, 2.0, 3.0])
    assert _at(p, 2.0) == pytest.approx(17.0)
    assert _at(p, 0.0) == 1.0


def test_polynomial_arithmetic():
    p = Polynomial([1.0, 1.0])
    q = Polynomial([1.0, -1.0])
    assert (p * q).coeffs == (1.0, 0.0, -1.0)
    assert (p - q).coeffs == (0.0, 2.0)
    assert p.scaled(3.0).coeffs == (3.0, 3.0)


def test_polynomial_difference_matches_numpy_polysub_bit_for_bit():
    """Unequal lengths, trailing zeros, -0.0 on either side, and differences
    that cancel to zero, against numpy's polysub on the same coefficients."""
    from numpy.polynomial import polynomial as npoly

    rng = np.random.default_rng(32)
    pool = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, -7e299]
    pairs = [((1.0, 2.0), (1.0, 2.0)), ((0.0, -0.0, 3.0), (-0.0, 0.0, 3.0)), ((-0.0,), (0.0,))]
    for _ in range(2000):
        a = [float(x) for x in rng.choice(pool, size=rng.integers(1, 6))]
        b = [float(x) for x in rng.choice(pool, size=rng.integers(1, 6))]
        if rng.random() < 0.2:
            b = a[: rng.integers(1, len(a) + 1)] + [0.0] * int(rng.integers(0, 3))
        pairs.append((a, b))
    cancelled = 0
    for a, b in pairs:
        p, q = Polynomial(a), Polynomial(b)
        got = (p - q).coeffs
        want = Polynomial(npoly.polysub(p.coeffs, q.coeffs)).coeffs
        assert np.array(got).tobytes() == np.array(want).tobytes(), (a, b)
        cancelled += got == (0.0,)
    assert cancelled > 100


coeff_lists = st.lists(
    st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=5
)


@given(coeff_lists, coeff_lists, st.floats(min_value=-2, max_value=2, allow_nan=False))
def test_polynomial_product_evaluates_pointwise(a, b, x):
    p, q = Polynomial(a), Polynomial(b)
    lhs = _at(p * q, x)
    rhs = _at(p, x) * _at(q, x)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


def test_poly_roots_quadratic():
    # ascending-d (1 - 3d + 2d^2) reads as z^2 - 3z + 2 -> z-roots {1, 2}
    roots = sorted(poly_roots(Polynomial([1.0, -3.0, 2.0])), key=lambda r: r.real)
    assert roots[0] == pytest.approx(1.0)
    assert roots[1] == pytest.approx(2.0)


def test_poly_roots_constant_and_nonfinite():
    assert poly_roots(Polynomial([5.0])) == []
    with pytest.raises(InvalidInputError):
        poly_roots(Polynomial([1.0, float("inf")]))


def _bits(roots) -> list[tuple[str, str]]:
    return [(complex(r).real.hex(), complex(r).imag.hex()) for r in roots]


def _assert_roots_are_np_roots(coeffs):
    p = Polynomial(coeffs)
    assert _bits(p._roots) == _bits(np.roots(p.coeffs))


def _roots_corpus():
    """Seeded polynomials of degree 0-10 with magnitudes 1e-3 to 1e3, a
    fifth with a pure-delay prefix; then the hard cases: repeated roots,
    roots within 1e-6 of the unit circle and coefficients of 1e-150 to
    1e150."""
    rng = np.random.default_rng(20260)
    for _ in range(600):
        deg = int(rng.integers(0, 11))
        c = rng.standard_normal(deg + 1) * 10.0 ** rng.uniform(-3, 3, deg + 1)
        delay = int(rng.integers(1, 4)) if rng.random() < 0.2 else 0
        yield [0.0] * delay + c.tolist()
    for _ in range(200):
        deg = int(rng.integers(1, 9))
        yield (rng.standard_normal(deg + 1) * 10.0 ** rng.uniform(-150, 150, deg + 1)).tolist()
    double = Polynomial([1.0, -1.5]) * Polynomial([1.0, -1.5])
    yield (double * Polynomial([1.0, -0.5])).coeffs
    yield (double * double).coeffs
    yield (double * Polynomial([1.0, -0.9999]) * Polynomial([1.0, -0.9999])).coeffs
    for r in (1.0 - 1e-6, 1.0 + 1e-7, -(1.0 - 1e-6)):
        yield [1.0, -r]
        yield (Polynomial([1.0, -r]) * Polynomial([1.0, -0.3, 0.2])).coeffs
    near = [complex(np.exp(1j * t)) * (1.0 - 1e-6) for t in (0.4, -0.4, 2.0, -2.0)]
    yield lti._poly_from_z_roots(near, 1.0).coeffs
    yield [0.0, 0.0, 3.0]  # a pure delay: no finite root


def test_roots_are_np_roots_bit_for_bit_on_a_seeded_corpus():
    for coeffs in _roots_corpus():
        _assert_roots_are_np_roots(coeffs)


def test_degree_one_roots_are_np_roots_where_lapack_rescales():
    """LAPACK's eigensolver rescales a root beyond about 2^459 or below
    2^-459, and scaling back moves its last bit; the root must follow it."""
    rng = np.random.default_rng(7)
    for a, b in 10.0 ** rng.uniform(-150, 150, (2000, 2)):
        _assert_roots_are_np_roots([a, -b])
    for e in (-470, -459, -401, -400, -399, 399, 400, 401, 459, 470):
        for m in (1.0, 1.25, 1.9999999999999998):
            _assert_roots_are_np_roots([1.0, m * 2.0**e])
            _assert_roots_are_np_roots([m * 2.0**-e, -1.0])


_wide = st.floats(min_value=1e-150, max_value=1e150) | st.floats(min_value=-1e150, max_value=-1e-150)


@given(st.integers(0, 3), st.lists(_wide, min_size=1, max_size=11))
def test_roots_are_np_roots_bit_for_bit(delay, coeffs):
    _assert_roots_are_np_roots([0.0] * delay + coeffs)


def test_roots_solver_failure_is_an_input_error(monkeypatch):
    def fail(a, signature):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(lti, "_geev", fail)
    coeffs = (1.0, -0.5, 0.25)
    with pytest.raises(InvalidInputError) as info:
        poly_roots(Polynomial(coeffs))
    assert str(info.value) == (
        f"cannot compute the roots of {coeffs}: too wide a coefficient range"
    )


def _raise_invalid(*args, signature):
    # a floating-point invalid, the flag by which LAPACK's gufuncs report failure
    return np.sqrt(np.array([-1.0]))


def test_roots_solver_invalid_flag_is_an_input_error_without_a_warning(monkeypatch):
    monkeypatch.setattr(lti, "_geev", _raise_invalid)
    coeffs = (1.0, -0.5, 0.25)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError) as info:
            poly_roots(Polynomial(coeffs))
    assert caught == []
    assert str(info.value) == (
        f"cannot compute the roots of {coeffs}: too wide a coefficient range"
    )


# ---------------------------------------------------------------------------
# TransferFunction construction and reduction


def test_roots_whose_coefficient_ratio_overflows_are_an_input_error():
    # the companion matrix would hold 1e300 / 1e-300
    with pytest.raises(InvalidInputError, match="too wide a coefficient range"):
        poly_roots(Polynomial([1e-300, 1e300]))
    with pytest.raises(InvalidInputError, match="too wide a coefficient range"):
        tf([1.0], [1e-300, 1e300])


def test_tf_normalizes_denominator_constant():
    t = tf([1.0], [2.0, 1.0])
    assert t.den.coeffs[0] == 1.0
    assert t.num.coeffs == (0.5,)
    assert t.den.coeffs == (1.0, 0.5)


def test_tf_cancels_common_factor():
    # (1 - 0.5d)(1 - 0.3d) / (1 - 0.5d)(1 - 0.2d) -> (1 - 0.3d)/(1 - 0.2d)
    num = Polynomial([1.0, -0.5]) * Polynomial([1.0, -0.3])
    den = Polynomial([1.0, -0.5]) * Polynomial([1.0, -0.2])
    t = tf(num.coeffs, den.coeffs)
    assert t.num.coeffs == pytest.approx((1.0, -0.3))
    assert t.den.coeffs == pytest.approx((1.0, -0.2))


def test_tf_cancellation_near_origin_preserves_value():
    """z-roots near 0 sit light-years apart in the delay domain; cancelling
    such a pair must not rescale the function."""
    num = Polynomial([1.0, -2.0]) * Polynomial([1.0, -1e-15])
    den = Polynomial([1.0, -0.5]) * Polynomial([1.0, 1e-15])
    t = tf(num.coeffs, den.coeffs)
    assert t.num.degree == 1 and t.den.degree == 1
    omegas = np.array([0.0, 1.0, np.pi])
    z = np.exp(-1j * omegas)
    expect = (1.0 - 2.0 * z) / (1.0 - 0.5 * z)
    assert freq_response_array(t, omegas) == pytest.approx(expect, abs=1e-9)


def test_tf_reduction_preserves_response_on_random_pairs():
    rng = np.random.default_rng(3)
    omegas = np.linspace(-np.pi, np.pi, 17)
    for _ in range(25):
        extra = Polynomial([1.0, float(rng.uniform(-0.9, 0.9))])
        num = Polynomial(list(rng.uniform(-1, 1, 3))) * extra
        den = Polynomial([1.0, float(rng.uniform(-0.7, 0.7))]) * extra
        if num.is_zero or den.coeffs[0] == 0.0:
            continue
        t = tf(num.coeffs, den.coeffs)
        got = freq_response_array(t, omegas)
        z = np.exp(-1j * omegas)
        raw = np.polynomial.polynomial.polyval(z, num.coeffs) / \
            np.polynomial.polynomial.polyval(z, den.coeffs)
        assert np.allclose(got, raw, atol=1e-8)


def test_tf_keeps_delay_zeros_through_reduction():
    # d^2 * (1 - 0.4d) / (1 - 0.4d)(1 - 0.1d) -> d^2 / (1 - 0.1d)
    num = Polynomial([0.0, 0.0, 1.0]) * Polynomial([1.0, -0.4])
    den = Polynomial([1.0, -0.4]) * Polynomial([1.0, -0.1])
    t = tf(num.coeffs, den.coeffs)
    assert t.num.coeffs == pytest.approx((0.0, 0.0, 1.0))
    assert t.den.coeffs == pytest.approx((1.0, -0.1))


def test_tf_rejects_non_causal_or_zero_denominator():
    with pytest.raises(InvalidInputError):
        tf([1.0], [0.0, 1.0])
    with pytest.raises(InvalidInputError):
        tf([1.0], [0.0])


def test_tf_zero_numerator_collapses():
    t = tf([0.0], [1.0, -0.5])
    assert t.is_zero
    assert t.den.coeffs == (1.0,)


def test_tf_product():
    a = tf([0.0, 1.0], [1.0, -0.5])
    b = tf([2.0], [1.0, 0.25])
    prod = a * b
    omegas = np.array([0.3, 2.0])
    assert freq_response_array(prod, omegas) == pytest.approx(
        freq_response_array(a, omegas) * freq_response_array(b, omegas)
    )


def test_poles_and_zeros_with_origin_padding():
    # numerator delay excess shows up as poles at z = 0
    t = tf([0.0, 0.0, 1.0], [1.0, -0.5])
    poles = sorted(t.poles(), key=abs)
    assert poles[0] == 0j
    assert poles[1] == pytest.approx(0.5)
    t2 = tf([0.0, 1.0, -0.25], [1.0, -0.5, 0.0, 0.1])
    zs = t2.zeros()
    assert any(abs(z - 0.25) < 1e-9 for z in zs)


def test_freq_response_array_equals_polyval_reference_bitwise():
    """The in-place Horner evaluator must round exactly as numpy's polyval."""
    from numpy.polynomial import polynomial as npoly

    omegas = -np.pi + 2.0 * np.pi * np.arange(1024) / 1024
    e = np.exp(-1j * omegas)
    rng = np.random.default_rng(5)
    for n_num, n_den in ((1, 1), (1, 2), (2, 1), (3, 4), (5, 7), (8, 3)):
        num = rng.uniform(-2.0, 2.0, n_num)
        den = np.concatenate(([1.0], rng.uniform(-0.3, 0.3, n_den - 1)))
        t = tf(num, den)
        want = npoly.polyval(e, t.num.coeffs) / npoly.polyval(e, t.den.coeffs)
        got = freq_response_array(t, omegas)
        assert np.array_equal(got.real, want.real)
        assert np.array_equal(got.imag, want.imag)


def test_freq_response_pole_on_unit_circle():
    t = tf([1.0], [1.0, -1.0])
    with pytest.raises(SingularityError):
        freq_response_array(t, np.array([0.0]))


# ---------------------------------------------------------------------------
# freq_response_array on a grid's own frequencies

PLANT = tf([0.0, 1.0], [1.0, -2.0])  # a delay numerator
H = tf([1.0, 0.5], [1.0, -0.3])
# P, K and H of three loops: a static gain K with H = 1 (the constant
# Horner path), a placed dynamic K with a dynamic H, a two-sample delay
GRID_LOOPS = (
    (PLANT, tf([-2.0]), TF_ONE),
    (PLANT, pole_placement_controller(PLANT * H, [0.1, 0.2, -0.3]), H),
    (tf([0.0, 0.0, 1.0], [1.0, -0.5]), tf([0.3, -0.1], [1.0, 0.4]), tf([1.0], [1.0, 0.6])),
)


def _count_point_computations(monkeypatch):
    calls = []
    real = lti._unit_circle_points

    def counting(omegas):
        calls.append(len(omegas))
        return real(omegas)

    monkeypatch.setattr(lti, "_unit_circle_points", counting)
    return calls


@pytest.mark.parametrize("n", [64, 4096, 65536])
def test_grid_omegas_evaluate_as_a_copy_bit_for_bit(n):
    g = FrequencyGrid(n)
    for loop in GRID_LOOPS:
        for f in loop:
            got = freq_response_array(f, g.omegas)
            want = freq_response_array(f, g.omegas.copy())
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable
            assert not np.shares_memory(got, g.unit_circle)


@pytest.mark.parametrize("n", [64, 4096, 65536, 2**20])
def test_grid_is_exactly_symmetric_about_omega_zero(n):
    g = FrequencyGrid(n)
    w, e, m = g.omegas, g.unit_circle, n // 2 + 1
    assert w[:m].tobytes() == (-np.pi + 2 * np.pi * np.arange(m) / n).tobytes()
    assert w[n // 2] == 0.0 and not np.signbit(w[n // 2])
    assert w[m:].tobytes() == (-w[m - 2 : 0 : -1]).tobytes()
    assert e[m:].tobytes() == np.conjugate(e[m - 2 : 0 : -1]).tobytes()


def test_grid_omegas_evaluate_half_the_points_once(monkeypatch):
    """freq_response_array on a grid's own omegas evaluates the n/2 + 1
    points with omega <= 0 and conjugates the rest; a static gain needs no
    evaluation."""
    n = 4096
    g = FrequencyGrid(n)
    calls = []
    real = lti.unit_circle_response

    def counting(tf_, points, omegas):
        calls.append(len(points))
        return real(tf_, points, omegas)

    monkeypatch.setattr(lti, "unit_circle_response", counting)
    for f in GRID_LOOPS[2]:
        calls.clear()
        got = freq_response_array(f, g.omegas)
        assert calls == [n // 2 + 1]
        assert got[n // 2 + 1 :].tobytes() == np.conjugate(got[n // 2 - 1 : 0 : -1]).tobytes()
    calls.clear()
    static = freq_response_array(tf([-2.0], [4.0]), g.omegas)
    assert calls == []
    assert static.tobytes() == np.full(n, -0.5 + 0j).tobytes()


def test_grid_omegas_reuse_the_cached_points(monkeypatch):
    n = 4096
    g = FrequencyGrid(n)
    g.unit_circle  # warmed
    calls = _count_point_computations(monkeypatch)
    f = GRID_LOOPS[1][2]
    freq_response_array(f, g.omegas)
    assert calls == []
    m = n // 2 + 1
    others = (g.omegas.copy(), g.omegas[:m], np.linspace(-np.pi, np.pi, n, endpoint=False))
    for omegas in others:
        freq_response_array(f, omegas)
    assert calls == [n, m, n]


def test_other_arrays_leave_the_grid_caches_untouched():
    n = 1024
    g = FrequencyGrid(n)
    writeable = -np.pi + 2.0 * np.pi * np.arange(n) / n
    view = g.omegas[: n // 2]  # read-only, a power of two long
    before = (lti._omegas.cache_info(), lti._unit_circle.cache_info())
    for omegas in (writeable, view):
        freq_response_array(GRID_LOOPS[1][2], omegas)
    assert (lti._omegas.cache_info(), lti._unit_circle.cache_info()) == before


def test_singular_denominator_on_grid_omegas_names_the_sample_as_a_copy():
    t = tf([1.0], [1.0, -1.0])  # 1 - d vanishes at omega = 0, sample 32
    omegas = FrequencyGrid(64).omegas
    raised = []
    for w in (omegas, omegas.copy()):
        with pytest.raises(SingularityError) as info:
            freq_response_array(t, w)
        raised.append((info.value.omega, str(info.value)))
    assert raised[0] == raised[1] == (0.0, "denominator vanishes on the unit circle at omega=0.0")


# ---------------------------------------------------------------------------
# LoopModel / close_loop


def test_loop_model_requires_strictly_proper_gain():
    with pytest.raises(InvalidInputError):
        LoopModel(TF_ONE, TF_ONE, TF_ONE, white(1.0), white(1.0))


def test_loop_gain_that_overflows_is_rejected_where_it_is_built():
    # P*K has the coefficient 1e400
    with pytest.raises(InvalidInputError, match="non-finite"):
        LoopModel(tf([0.0, 1e200]), tf([1e200]), TF_ONE, white(1.0), white(1.0))



def test_closed_loop_that_overflows_says_so():
    """L = P*K*H builds, and is_stabilizing answers, but F_vy's numerator
    H.num * P.den * K.den holds 1e200 * 1e150: close_loop names the overflow."""
    model = LoopModel(
        tf([0.0, 1e-200], [1.0, 1e150]), TF_ONE, tf([1.0, 1e200]), white(1.0), white(1.0)
    )
    assert not is_stabilizing(model).is_stabilizing
    with pytest.raises(InvalidInputError, match="exceeds the float range"):
        close_loop(model)

def test_every_loop_that_builds_gets_a_verdict():
    """Factors with coefficient magnitudes from 1e-320 to 1e150: building a
    LoopModel either fails with InvalidInputError or gives a model on which
    is_stabilizing answers, and no return difference is zero."""
    rng = np.random.default_rng(0)

    def coeffs(count, delayed=False):
        c = [float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-320, 150))
             for _ in range(count)]
        return [0.0] + c if delayed else c

    built = 0
    for _ in range(600):
        try:
            factors = [tf(coeffs(rng.integers(1, 3), delayed=i == 0),
                          coeffs(rng.integers(1, 4))) for i in range(3)]
            model = LoopModel(*factors, white(1.0), white(1.0))
        except InvalidInputError:
            continue
        built += 1
        assert not model._loop_gain_raw[2].is_zero  # the return difference
        report = is_stabilizing(model)
        assert len(report.closed_loop_poles) >= len(report.offending_poles)
    assert built > 200


def test_close_loop_worked_example(worked_model):
    cl = close_loop(worked_model)
    assert cl.f_wy.num.coeffs == pytest.approx((1.0, -2.0))
    assert cl.f_wy.den.coeffs == pytest.approx((1.0,))
    assert cl.closed_loop_poles == (0j,)
    assert cl.is_stable
    # H = 1 so both noise paths share the sensitivity function
    assert cl.f_vy.num.coeffs == cl.f_wy.num.coeffs


def test_close_loop_unstable_flagged():
    # driven unstable loop: positive feedback with K = -0.1 puts the pole at 1.9
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([-0.1]), TF_ONE, white(1.0), white(1.0)
    )
    cl = close_loop(m)
    assert not cl.is_stable
    assert any(abs(p - 1.9) < 1e-9 for p in cl.closed_loop_poles)


def test_open_loop_hides_undriven_unstable_mode():
    """With K = 0 the map w -> y reduces to 1 (the unstable mode is undriven),
    so close_loop reports a stable transfer function while is_stabilizing
    still rejects the interconnection."""
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([0.0]), TF_ONE, white(1.0), white(1.0)
    )
    cl = close_loop(m)
    assert cl.f_wy.num.coeffs == (1.0,) and cl.f_wy.den.coeffs == (1.0,)
    assert cl.is_stable
    rep = is_stabilizing(m)
    assert not rep.is_stabilizing
    assert any(abs(p - 2.0) < 1e-9 for p in rep.offending_poles)


def test_is_stabilizing_reports_offenders():
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([-0.1]), TF_ONE, white(1.0), white(1.0)
    )
    rep = is_stabilizing(m)
    assert not rep.is_stabilizing
    assert any(abs(p - 1.9) < 1e-9 for p in rep.offending_poles)


def test_is_stabilizing_catches_hidden_cancellation():
    # K cancels the unstable plant pole: closed-loop poles look fine but the
    # loop is internally unstable
    plant = tf([0.0, 1.0], [1.0, -2.0])
    ctrl = tf([-0.1, 0.2])  # -0.1 (1 - 2d)
    rep = is_stabilizing(LoopModel(plant, ctrl, TF_ONE, white(1.0), white(1.0)))
    assert not rep.is_stabilizing
    assert any(abs(p - 2.0) < 1e-6 for p in rep.unstable_cancellations)


def test_cancelled_pole_that_stays_a_closed_loop_pole_is_listed_once():
    # K = -0.5 + d = -0.5 (1 - 2d) cancels P's pole at z = 2, which also
    # remains a root of the return difference 1 - 1.5d - d^2
    m = LoopModel(
        tf([0.0, 1.0], [1.0, -2.0]), tf([-0.5, 1.0]), TF_ONE, white(1.0), white(1.0)
    )
    rep = is_stabilizing(m)
    assert rep.unstable_cancellations == (2 + 0j,)
    assert rep.offending_poles == (2 + 0j,)
    with pytest.raises(UnstableLoopError) as err:
        RateInputs(m)
    assert str(err.value).endswith("(offending poles: 2+0j)")


def test_is_stabilizing_accepts_worked_example(worked_model):
    rep = is_stabilizing(worked_model)
    assert rep.is_stabilizing
    assert rep.closed_loop_poles == (0j,)
    assert rep.offending_poles == ()


def test_stability_report_and_closed_loop_formed_once_per_model(worked_model):
    assert is_stabilizing(worked_model) is is_stabilizing(worked_model)
    assert close_loop(worked_model) is close_loop(worked_model)
    other = replace(worked_model, controller=tf([-0.1]))
    assert not is_stabilizing(other).is_stabilizing
    assert not close_loop(other).is_stable


def test_cached_roots_are_not_shared_with_callers():
    """poles() and zeros() pad the list they get with origin roots; the first
    map has two origin poles, the second one origin zero."""
    for t in (tf([0.0, 0.0, 1.0, 0.5], [1.0, -0.5]), tf([1.0, 0.5], [1.0, -0.9, 0.2])):
        calls = (t.poles, t.zeros, lambda: poly_roots(t.den))
        first = [f() for f in calls]
        expected = [list(r) for r in first]
        for got in first:
            got.append(5j)
        assert [f() for f in calls] == expected


# ---------------------------------------------------------------------------
# Pole placement


def test_placement_recovers_deadbeat_gain():
    plant = tf([0.0, 1.0], [1.0, -2.0])
    k = pole_placement_controller(plant, [0.0])
    assert k.num.coeffs == pytest.approx((-2.0,))
    assert k.den.coeffs == pytest.approx((1.0,))


def test_placement_second_order_lands_targets():
    plant = tf([0.0, 1.0], [1.0, 1.0, -6.0])  # poles {2, -3}
    targets = (0.0, 0.2, -0.2)
    k = pole_placement_controller(plant, targets)
    m = LoopModel(plant, k, TF_ONE, white(1.0), white(1.0))
    rep = is_stabilizing(m)
    assert rep.is_stabilizing
    # a target landing exactly at z = 0 has no delay-polynomial factor, so it
    # may drop the realized order instead of appearing in the pole list
    for p in rep.closed_loop_poles:
        assert min(abs(p - t) for t in targets) < 1e-7
    assert len(rep.closed_loop_poles) >= 2


def test_placement_repeated_pole_plant():
    plant = tf([0.0, 1.0], [1.0, -3.0, 2.25])  # double pole at 1.5
    k = pole_placement_controller(plant, (0.0, 0.2, -0.2))
    assert is_stabilizing(
        LoopModel(plant, k, TF_ONE, white(1.0), white(1.0))
    ).is_stabilizing


def test_placement_solver_invalid_flag_is_an_input_error_without_a_warning(monkeypatch):
    monkeypatch.setattr(lti, "_gesv", _raise_invalid)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(InvalidInputError) as info:
            pole_placement_controller(tf([0.0, 1.0], [1.0, -2.0]), [0.0])
    assert caught == []
    assert str(info.value) == "pole placement system is singular: Singular matrix"


def test_placement_singular_system_is_an_input_error(monkeypatch):
    # LAPACK's own singular-pivot report, from a zeroed Sylvester matrix
    solve = lti._gesv

    def zeroed(a, b, signature):
        return solve(0.0 * a, b, signature=signature)

    monkeypatch.setattr(lti, "_gesv", zeroed)
    with pytest.raises(InvalidInputError) as info:
        pole_placement_controller(tf([0.0, 1.0], [1.0, -2.0]), [0.0])
    assert str(info.value) == "pole placement system is singular: Singular matrix"


def test_placement_input_guards():
    plant = tf([0.0, 1.0], [1.0, -2.0])
    with pytest.raises(InvalidInputError):
        pole_placement_controller(plant, [0.0, 0.1])  # wrong count
    with pytest.raises(InvalidInputError):
        pole_placement_controller(tf([1.0]), [0.0])  # static path
    with pytest.raises(InvalidInputError):
        pole_placement_controller(tf([0.0, 0.0, 1.0], [1.0, -0.5]), [0.0])
    with pytest.raises(InvalidInputError):
        pole_placement_controller(plant, [0.5j])  # not conjugate-closed
