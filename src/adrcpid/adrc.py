"""Linear active disturbance-rejection controllers from the bandwidth rule.

A design (``AdrcDesign``, defined in ``design`` and importable from here
too) is fixed by the plant order n (1 or 2), the desired settling time T_s,
the observer pole multiplier g, and the characteristic plant gain b0.
Controllers are built directly in substituted closed form (observer
dynamics with the control law already eliminated), as 2-input state-space
systems with inputs [r, y] and output u, which carry the closed forms of
their two channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable

import numpy as np

# the design names are also importable from here
from .design import AdrcDesign, adrc_channels, tune_first_order, tune_second_order
from .lti import RationalTransferFunction, StateSpaceModel


@dataclass(frozen=True, eq=False)
class TwoInputController:
    """Controller with inputs ordered [r, y] and single output u: its realization
    ss, and channels(alpha), its (C_r, C_y) in closed form in the time unit
    s~ = alpha*s, as ``design.adrc_channels`` and ``PidParams.channels`` give them."""

    ss: StateSpaceModel
    channels: Callable[[float], tuple[RationalTransferFunction, RationalTransferFunction]]

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


def observer_matrix(design: AdrcDesign) -> np.ndarray:
    """Dynamics matrix of the pure observer (before feedback substitution).

    The observer gains fill the first column and the integrator chain the
    superdiagonal, so its characteristic polynomial is (s + g omega_cl)^(n+1).
    """
    m = np.eye(design.order + 1, k=1)
    m[:, 0] = np.negative(design.observer_gains)
    return m


def build_adrc(design: AdrcDesign) -> TwoInputController:
    """(n+1)-state controller: extended observer with the control law substituted.

    With u = (K_P r - K_P x1 [- K_D x2] - x_{n+1}) / b0, the term b0 u in the
    observer equation of x_n subtracts the feedback row [K_P, (K_D,) 1] from
    row n of the observer matrix and feeds K_P r into that row.
    """
    n, b0, K_P = design.order, design.b0, design.K_P
    feedback = (*design.feedback_gains, 1.0)
    # the observer matrix: -l in the first column, the integrator chain above the diagonal
    A = [[-l] + [1.0 if j == i + 1 else 0.0 for j in range(1, n + 1)] for i, l in enumerate(design.observer_gains)]
    A[n - 1] = [x - k for x, k in zip(A[n - 1], feedback)]
    B = [[K_P if i == n - 1 else 0.0, l] for i, l in enumerate(design.observer_gains)]
    C = [[-k / b0 for k in feedback]]
    D = [[K_P / b0, 0.0]]
    ss = StateSpaceModel._trusted(*map(np.array, (A, B, C, D)), ("r", "y"), ("u",))
    return TwoInputController(ss, partial(adrc_channels, design))


def extract_cr_cy(c: TwoInputController) -> tuple[RationalTransferFunction, RationalTransferFunction]:
    """(C_r, C_y) of a controller, u = C_r r - C_y y, its closed forms over one
    monic denominator, made on first read; refused past the float range."""
    return c._cr_cy
