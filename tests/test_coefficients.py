import numpy as np
import pytest

from fprom import CoefficientModel, stratonovich_to_ito_drift


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


def test_stratonovich_conversion():
    # additive noise: gradient term vanishes, drift unchanged
    assert stratonovich_to_ito_drift(1.5, 0.0, 0.7) == pytest.approx(1.5)
    # multiplicative: h + g_gradient * diffusion
    assert stratonovich_to_ito_drift(1.0, 0.5, 0.2) == pytest.approx(1.1)


def test_stratonovich_conversion_rejects_non_finite():
    with pytest.raises(ValueError):
        stratonovich_to_ito_drift(np.inf, 0.0, 0.5)
