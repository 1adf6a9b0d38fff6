import numpy as np
import pytest

from fprom import CoefficientModel


def test_polynomial_evaluation():
    model = CoefficientModel(drift_poly=(1.0, 2.0, 3.0), diff_poly=(0.5,))
    # 1 + 2t + 3t^2 at t = 2
    assert model.drift(2.0) == pytest.approx(17.0)
    assert model.diffusion(2.0) == pytest.approx(0.5)
    assert model.eval(2.0) == pytest.approx((17.0, 0.5))


def test_is_constant():
    assert CoefficientModel((1.0,), (0.5,)).is_constant()
    assert not CoefficientModel((1.0, 0.1), (0.5,)).is_constant()
    # trailing zero coefficients still count as constant behavior
    assert CoefficientModel((1.0, 0.0), (0.5, 0.0)).is_constant()


def test_degree_cap():
    with pytest.raises(ValueError):
        CoefficientModel((1.0, 1.0, 1.0, 1.0, 1.0), (0.5,))


def test_rejects_non_finite_parameters():
    with pytest.raises(ValueError):
        CoefficientModel((np.nan,), (0.5,))
    with pytest.raises(ValueError):
        CoefficientModel((1.0,), (np.inf,))


def test_eval_rejects_non_finite_time():
    model = CoefficientModel((1.0,), (0.5,))
    with pytest.raises(ValueError):
        model.eval(np.nan)


def test_diffusion_range_brackets_extremes():
    # 0.5 - t + t^2 has its minimum 0.25 at t = 0.5
    model = CoefficientModel((0.0,), (0.5, -1.0, 1.0))
    lo, hi = model.diffusion_range(0.0, 1.0)
    assert lo == pytest.approx(0.25, abs=1e-5)
    assert hi == pytest.approx(0.5, abs=1e-12)


def test_max_abs_drift():
    model = CoefficientModel((1.0, -2.0), (0.5,))
    # |1 - 2t| on [0, 2] peaks at t = 2
    assert model.max_abs_drift(0.0, 2.0) == pytest.approx(3.0, abs=1e-6)


@pytest.mark.parametrize("value", [0.25, -0.7, 0.0, 1e-300, 3.5e12])
@pytest.mark.parametrize("span", [(0.0, 2.0), (-1.5, 0.5), (0.3, 0.3)])
def test_constant_coefficients_range_is_the_value(value, span):
    model = CoefficientModel((value,), (value,))
    got = (*model.diffusion_range(*span), model.max_abs_drift(*span))
    assert [repr(v) for v in got] == [repr(v) for v in (value, value, abs(value))]


@pytest.mark.parametrize(
    "poly, span, want",
    [
        # 0.5 - t + t^2: minimum 0.25 at t = 0.5, maximum 0.5 at both ends
        ((0.5, -1.0, 1.0), (0.0, 1.0), (0.25, 0.5)),
        # 1 - 2t: a line takes its range at the ends
        ((1.0, -2.0), (0.0, 2.0), (-3.0, 1.0)),
        # t^3 - 3t: the critical points t = -1 and t = 1 lie inside
        ((0.0, -3.0, 0.0, 1.0), (-1.5, 1.5), (-2.0, 2.0)),
        # t^3 + t has no real critical point
        ((0.0, 1.0, 0.0, 1.0), (-1.0, 2.0), (-2.0, 10.0)),
        # t^3 has a double critical point at 0, which is no extreme
        ((0.0, 0.0, 0.0, 1.0), (-1.0, 2.0), (-1.0, 8.0)),
        # the critical point t = 0.5 lies outside the span
        ((0.5, -1.0, 1.0), (1.0, 3.0), (0.5, 6.5)),
    ],
)
def test_range_is_the_hand_computed_extremes(poly, span, want):
    model = CoefficientModel(poly, poly)
    assert model.diffusion_range(*span) == want
    assert model.max_abs_drift(*span) == max(abs(v) for v in want)


def test_dip_between_sample_points_is_found():
    # (t - 0.0005)^2 - 1e-8 dips below zero only on (0.0004, 0.0006),
    # between the points of a 1001-point sampling of [0, 1]
    model = CoefficientModel((0.0,), (0.0005**2 - 1e-8, -0.001, 1.0))
    lo, hi = model.diffusion_range(0.0, 1.0)
    assert lo == pytest.approx(-1e-8, rel=1e-6)
    assert hi == model.diffusion(1.0)


def test_range_does_not_sample(monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a coefficient range was sampled")

    monkeypatch.setattr(np, "linspace", no_sampling)
    monkeypatch.setattr(np.polynomial.polynomial, "polyval", no_sampling)
    model = CoefficientModel((1.0, -2.0, 0.5, 0.1), (0.5, -1.0, 1.0))
    model.diffusion_range(0.0, 1.0)
    model.max_abs_drift(0.0, 2.0)
