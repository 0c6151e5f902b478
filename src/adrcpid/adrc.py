"""Linear active disturbance-rejection controllers from the bandwidth rule.

A design (``AdrcDesign``, defined in ``design`` and importable from here
too) is fixed by the plant order n (1 or 2), the desired settling time T_s,
the observer pole multiplier g, and the characteristic plant gain b0.
Both controllers' realizations, the equivalent PI(D)F's and ADRC's (the
same rows with ADRC's own reference column), are stated in ``design``; both
are controllers with inputs [r, y] and output u, which carry the rows of
their realization and their two channels in closed form.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable

# the design names are also importable from here
from .design import AdrcDesign, Realization, adrc_channels, adrc_realization, tune_first_order, tune_second_order
from .tf import CHANNELS_OVERFLOW, RationalTransferFunction
from .value import Value


Channels = Callable[[float], tuple[RationalTransferFunction, RationalTransferFunction]]


class TwoInputController(Value, eq=False):
    """Controller with inputs ordered [r, y] and single output u: the rows (A, B, C, D) of
    its realization, and channels(alpha), its (C_r, C_y) in closed form in the time unit s~ = alpha*s."""

    realization: Realization
    channels: Channels

    def __init__(self, realization: Realization, channels: Channels):
        D = realization[3]
        if len(D) != 1 or len(D[0]) != 2:
            raise ValueError("controller must have exactly inputs [r, y] and output u")
        self.__dict__.update(realization=realization, channels=channels)

    @cached_property
    def _cr_cy(self) -> tuple[RationalTransferFunction, RationalTransferFunction]:
        c_r, c_y = self.channels(1.0)
        if not all(map(math.isfinite, c_r.num.coeffs + c_y.num.coeffs + c_y.den.coeffs)):
            raise ValueError(CHANNELS_OVERFLOW)
        return c_r, c_y


def build_adrc(design: AdrcDesign) -> TwoInputController:
    """(n+1)-state controller, realized by ``design.adrc_realization``."""
    return TwoInputController(adrc_realization(design), partial(adrc_channels, design))


def extract_cr_cy(c: TwoInputController) -> tuple[RationalTransferFunction, RationalTransferFunction]:
    """(C_r, C_y) of a controller, u = C_r r - C_y y, its closed forms over one
    monic denominator, made on first read; refused past the float range."""
    return c._cr_cy
