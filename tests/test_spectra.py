import math

import numpy as np
import pytest

from aldlab import (
    ALDConfig,
    BoundsError,
    EngineError,
    MixtureError,
    PowerLaw,
    SpectrumError,
    build_truncated_mixture,
    condition_report,
    make_schedule,
)


def test_power_law_values():
    spec = PowerLaw(1.2, 2.0)
    np.testing.assert_allclose(spec.eigenvalues(3), [1.2, 0.3, 1.2 / 9.0])
    assert spec.eigenvalues(1)[0] == 1.2


def test_exponent_zero_is_constant():
    assert PowerLaw(40.0).eigenvalues(3).tolist() == [40.0, 40.0, 40.0]
    for v in (1.0, 1e-9, 0.3, 40.0):
        np.testing.assert_array_equal(PowerLaw(v, 0.0).eigenvalues(50), np.full(50, v))


def test_signed_spectrum():
    np.testing.assert_allclose(PowerLaw(-0.5, 1.0).eigenvalues(2), [-0.5, -0.25])
    assert not np.any(PowerLaw(0.0, 3.5).eigenvalues(5))


def test_invalid_parameters_rejected():
    with pytest.raises(SpectrumError, match="exponent must be >= 0"):
        PowerLaw(1.0, -0.5)
    for scale, exponent in ((math.nan, 1.0), (math.inf, 1.0), (1.0, math.inf), (1.0, math.nan)):
        with pytest.raises(SpectrumError, match="finite"):
            PowerLaw(scale, exponent)
    with pytest.raises(SpectrumError, match="dimension"):
        PowerLaw(1.0, 2.0).eigenvalues(0)


def test_positivity_enforced():
    # a power law may be zero or negative; each layer that needs a positive
    # spectrum rejects one where it uses it
    sched = make_schedule(10, 0.1, 1.0)
    for bad in (PowerLaw(0.0), PowerLaw(-1.0, 2.0)):
        with pytest.raises(EngineError, match="must be positive"):
            ALDConfig(dim=2, schedule=sched, gamma=bad, c_base=PowerLaw(1.0))
        with pytest.raises(EngineError, match="must be positive"):
            ALDConfig(dim=2, schedule=sched, gamma=PowerLaw(1.0), c_base=bad)
        with pytest.raises(MixtureError, match="component 1 at coordinate 1"):
            build_truncated_mixture((1.0,), (0.0,), bad, 2)
        with pytest.raises(BoundsError, match="must be positive"):
            condition_report((1.0,), sigma_exponent=1.0, smooth=PowerLaw(1.0), gamma=bad)
        with pytest.raises(BoundsError, match="must be positive"):
            condition_report((1.0,), sigma_exponent=1.0, smooth=bad, gamma=PowerLaw(1.0))


def test_parameters_are_floats():
    spec = PowerLaw(1, 2)
    assert type(spec.scale) is float and type(spec.exponent) is float
    assert spec == PowerLaw(1.0, 2.0)


def test_decay_exponent():
    assert PowerLaw(2.0, 2.7).decay == 2.7
    assert PowerLaw(1.0).decay == 0.0
    assert PowerLaw(-0.1, 3.5).decay == 3.5
    assert PowerLaw(0.0, 3.5).decay == math.inf
