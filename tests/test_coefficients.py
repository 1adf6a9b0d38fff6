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


def _sampled_range(poly, t_start, t_end):
    vals = np.polynomial.polynomial.polyval(np.linspace(t_start, t_end, 1001), poly)
    return float(np.min(vals)), float(np.max(vals)), float(np.max(np.abs(vals)))


@pytest.mark.parametrize("value", [0.25, -0.7, 0.0, 1e-300, 3.5e12])
@pytest.mark.parametrize("span", [(0.0, 2.0), (-1.5, 0.5), (0.3, 0.3)])
def test_constant_coefficients_skip_sampling_with_the_same_result(
    monkeypatch, value, span
):
    expected = _sampled_range((value,), *span)
    model = CoefficientModel((value,), (value,))

    def no_sampling(*args, **kwargs):
        raise AssertionError("a constant coefficient was sampled")

    monkeypatch.setattr(np, "linspace", no_sampling)
    got = (*model.diffusion_range(*span), model.max_abs_drift(*span))
    assert [repr(v) for v in got] == [repr(v) for v in expected]


def test_time_varying_coefficients_are_still_sampled():
    model = CoefficientModel((1.0, -2.0), (0.5, -1.0, 1.0))
    lo, hi, _ = _sampled_range((0.5, -1.0, 1.0), 0.0, 1.0)
    assert model.diffusion_range(0.0, 1.0) == (lo, hi)
    assert model.max_abs_drift(0.0, 2.0) == _sampled_range((1.0, -2.0), 0.0, 2.0)[2]
