"""Power-law sequences: the one spectrum type of the lab.

Every sequence the paper's conditions speak of -- the mixture covariances,
the smoothing covariance, the preconditioner and the score perturbation --
is ``scale * j**(-exponent)`` for ``j >= 1``. A :class:`PowerLaw` describes
such a sequence without storing it, so the same object backs truncations at
any dimension ``d``. A zero scale is the zero sequence and a negative scale
a signed perturbation; a layer that needs positive values checks them where
it uses them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class SpectrumError(ValueError):
    """Raised for invalid spectrum parameters or dimensions."""


@dataclass(frozen=True)
class PowerLaw:
    """The sequence ``scale * j**(-exponent)``, indexed from j = 1."""

    scale: float
    exponent: float = 0.0

    def __post_init__(self):
        scale, exponent = float(self.scale), float(self.exponent)
        if not (math.isfinite(scale) and math.isfinite(exponent)):
            raise SpectrumError(f"power law needs finite parameters, got {self.scale}, {self.exponent}")
        if exponent < 0:
            raise SpectrumError(f"power law exponent must be >= 0, got {exponent}")
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "exponent", exponent)

    def eigenvalues(self, d: int) -> np.ndarray:
        """First ``d`` terms as a float array."""
        if d < 1:
            raise SpectrumError(f"dimension must be >= 1, got {d}")
        j = np.arange(1, d + 1, dtype=float)
        return self.scale * j ** (-self.exponent)

    @property
    def decay(self) -> float:
        """Decay exponent in j; +inf for the zero sequence."""
        return math.inf if self.scale == 0.0 else self.exponent
