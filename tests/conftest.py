import numpy as np
import pytest

from aldlab import DiagGMM, PowerLaw, build_truncated_mixture


def random_mixture(rng, max_components=4, max_dim=6, separation=6.0):
    """Random diagonal mixture with well-scaled parameters."""
    k = int(rng.integers(1, max_components + 1))
    d = int(rng.integers(1, max_dim + 1))
    w = rng.uniform(0.2, 1.0, size=k)
    w = w / w.sum()
    means = rng.uniform(-separation / 2, separation / 2, size=(k, d))
    variances = rng.uniform(0.3, 3.0, size=(k, d))
    return DiagGMM(weights=w, means=means, variances=variances)


def fig2_target(d):
    """Two-component target with power-law variances and separated means."""
    return build_truncated_mixture(
        (0.75, 0.25),
        (0.0, 10.0),
        PowerLaw(1.0, 1.25),
        d,
        var_scales=(1.2, 2.0),
    )


def fig1_target(d):
    return build_truncated_mixture(
        (0.75, 0.25),
        (0.0, 10.0),
        PowerLaw(1.0, 2.0),
        d,
        var_scales=(1.2, 2.0),
    )


def fig3_target(d):
    return build_truncated_mixture(
        (0.75, 0.25),
        (0.0, 10.0),
        PowerLaw(1.0, 2.0),
        d,
    )


def variant_named(cfg, name):
    """The ``[variant name]`` block of a parsed config."""
    (found,) = (v for v in cfg.variants if v.name == name)
    return found


# a bounds config whose one variant shifts the score's weights
BOUNDS_DWEIGHTS = """
[experiment]
kind = bounds_report

[sweep]
d_values = 1

[variant shifted]
gamma_exponent = 1.5
cbase_exponent = 2.7
drift = misspecified
dweights = -0.05, 0.05

[output]
csv = results/dw.csv
"""


@pytest.fixture
def rng():
    return np.random.default_rng(20250809)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    import sys

    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if results:
        terminalreporter.section("acceptance criteria")
        for line in results:
            terminalreporter.write_line(line)
