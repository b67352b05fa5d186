"""Shared numeric configuration for the loss kernels."""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real

from .errors import ValidationError


@dataclass(frozen=True)
class LossConfig:
    """Numeric knobs shared by every loss kernel.

    epsilon stabilizes overlap quotients (added to numerator and denominator
    of ratio-style losses), log_clamp floors probabilities before any
    logarithm, and include_background controls whether class 0 takes part
    in class sums and means. Library and CLI callers alike get the checks
    below: epsilon in (0, inf) and log_clamp in (0, 1), both stored as
    floats, and include_background a bool.
    """

    epsilon: float = 1e-6
    log_clamp: float = 1e-12
    include_background: bool = True

    def __post_init__(self):
        for name, top in (("epsilon", math.inf), ("log_clamp", 1.0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Real) or not 0 < value < top:
                raise ValidationError(f"{name} must be a number in (0, {top:g}), got {value!r}")
            object.__setattr__(self, name, float(value))
        if not isinstance(self.include_background, bool):
            raise ValidationError(
                f"include_background must be a bool, got {self.include_background!r}"
            )

    def first_class(self) -> int:
        """Index of the first class included in sums (0 or 1)."""
        return 0 if self.include_background else 1


DEFAULT_CONFIG = LossConfig()
