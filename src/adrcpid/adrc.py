"""Linear active disturbance-rejection controllers from the bandwidth rule.

A design (``AdrcDesign``, defined in ``design`` and importable from here
too) is fixed by the plant order n (1 or 2), the desired settling time T_s,
the observer pole multiplier g, and the characteristic plant gain b0.
Both controllers' realizations, ADRC's (the extended observer with the
control law substituted) and the equivalent PI(D)F's, are stated in
``design``; one builder makes either a 2-input state-space system with
inputs [r, y] and output u, which carries its two channels in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

# the design names are also importable from here
from .design import AdrcDesign, Realization, adrc_channels, adrc_realization, tune_first_order, tune_second_order
from .lti import RationalTransferFunction, StateSpaceModel


Channels = Callable[[float], tuple[RationalTransferFunction, RationalTransferFunction]]


@dataclass(frozen=True, eq=False)
class TwoInputController:
    """Controller with inputs ordered [r, y] and single output u: its realization ss, and
    channels(alpha), its (C_r, C_y) in closed form in the time unit s~ = alpha*s."""

    ss: StateSpaceModel
    channels: Channels

    def __post_init__(self):
        if self.ss.n_inputs != 2 or self.ss.n_outputs != 1:
            raise ValueError("controller must have exactly inputs [r, y] and output u")

    @cached_property
    def _cr_cy(self) -> tuple[RationalTransferFunction, RationalTransferFunction]:
        c_r, c_y = self.channels(1.0)
        if not all(map(math.isfinite, c_r.num.coeffs + c_y.num.coeffs + c_y.den.coeffs)):
            raise ValueError(
                "the controller transfer function at this tuning is not representable: its coefficients overflow"
            )
        return c_r, c_y


def _controller(realization: Realization, channels: Channels) -> TwoInputController:
    """The controller carrying channels, realized by the rows (A, B, C, D) as float arrays, also from ints."""
    ss = StateSpaceModel._trusted(*map(partial(np.array, dtype=float), realization), ("r", "y"), ("u",))
    return TwoInputController(ss, channels)


def build_adrc(design: AdrcDesign) -> TwoInputController:
    """(n+1)-state controller, realized by ``design.adrc_realization``."""
    return _controller(adrc_realization(design), partial(adrc_channels, design))


def extract_cr_cy(c: TwoInputController) -> tuple[RationalTransferFunction, RationalTransferFunction]:
    """(C_r, C_y) of a controller, u = C_r r - C_y y, its closed forms over one
    monic denominator, made on first read; refused past the float range."""
    return c._cr_cy
