"""Linear active disturbance-rejection controllers from the bandwidth rule.

A design is fixed by the plant order n (1 or 2), the desired settling time
T_s, the observer pole multiplier g, and the characteristic plant gain b0.
Controllers are built directly in substituted closed form (observer
dynamics with the control law already eliminated), as 2-input state-space
systems with inputs [r, y] and output u.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lti import RationalTransferFunction, StateSpaceModel, ss_to_tf, tf_neg

# omega_cl * T_s per plant order: the settling constants of the bandwidth rule
SETTLING_CONSTANTS = {1: 4.0, 2: 6.0}


@dataclass(frozen=True)
class AdrcDesign:
    """Bandwidth-rule design for a plant of order n = 1 or 2.

    The state feedback places the n closed-loop poles at -omega_cl, with
    omega_cl = 4/T_s (n = 1) or 6/T_s (n = 2); the extended observer places
    its n + 1 poles g times faster, at -g*omega_cl.  T_s and g must be
    finite and positive, b0 finite and nonzero, of either sign.
    """

    order: int
    T_s: float
    g: float
    b0: float = 1.0

    def __post_init__(self):
        if self.order not in SETTLING_CONSTANTS:
            raise ValueError(f"order must be 1 or 2, got {self.order!r}")
        for name, value in (("T_s", self.T_s), ("g", self.g)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not 0 < abs(self.b0) < math.inf:
            raise ValueError(f"b0 must be finite and nonzero, got {self.b0!r}")

    @property
    def omega_cl(self) -> float:
        return SETTLING_CONSTANTS[self.order] / self.T_s

    @property
    def feedback_gains(self) -> tuple[float, ...]:
        """k_i = C(n, i) omega_cl^(n-i) for i < n: (K_P,) or (K_P, K_D)."""
        n, w = self.order, self.omega_cl
        return tuple(math.comb(n, i) * w ** (n - i) for i in range(n))

    @property
    def observer_gains(self) -> tuple[float, ...]:
        """l_i = C(n+1, i) (g omega_cl)^i for i = 1..n+1: (l1, l2[, l3])."""
        n, w = self.order, self.omega_cl
        # l1 is rounded as (C(n+1, 1) g) omega_cl, as in the written-out gains
        # 2 g K_P and 3 g omega_cl; C(n+1, 1) (g omega_cl) can differ in the last bit
        first = math.comb(n + 1, 1) * self.g * w
        return (first, *(math.comb(n + 1, i) * (self.g * w) ** i for i in range(2, n + 2)))

    @property
    def K_P(self) -> float:
        return self.feedback_gains[0]

    @property
    def K_D(self) -> float:
        """Derivative feedback gain; second-order designs only."""
        return self.feedback_gains[1]

    @property
    def l1(self) -> float:
        return self.observer_gains[0]

    @property
    def l2(self) -> float:
        return self.observer_gains[1]

    @property
    def l3(self) -> float:
        """Third observer gain; second-order designs only."""
        return self.observer_gains[2]


def tune_first_order(T_s: float, g: float, b0: float = 1.0) -> AdrcDesign:
    return AdrcDesign(1, float(T_s), float(g), float(b0))


def tune_second_order(T_s: float, g: float, b0: float = 1.0) -> AdrcDesign:
    return AdrcDesign(2, float(T_s), float(g), float(b0))


@dataclass(frozen=True, eq=False)
class TwoInputController:
    """Controller with inputs ordered [r, y] and single output u."""

    ss: StateSpaceModel

    def __post_init__(self):
        if self.ss.n_inputs != 2 or self.ss.n_outputs != 1:
            raise ValueError("controller must have exactly inputs [r, y] and output u")

    def reference_tf(self) -> RationalTransferFunction:
        """Transfer function from r to u (C_r)."""
        return ss_to_tf(self.ss, input=0, output=0)

    def measurement_tf(self) -> RationalTransferFunction:
        """Transfer function from y to u; equals -C_y by convention."""
        return ss_to_tf(self.ss, input=1, output=0)

    @cached_property
    def _cr_cy(self) -> tuple[RationalTransferFunction, RationalTransferFunction]:
        return self.reference_tf().canonicalized(), tf_neg(self.measurement_tf()).canonicalized()


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
    feedback = np.array([*design.feedback_gains, 1.0])
    A = observer_matrix(design)
    A[n - 1] -= feedback
    B = np.zeros((n + 1, 2))
    B[n - 1, 0] = K_P
    B[:, 1] = design.observer_gains
    C = (-feedback / b0)[np.newaxis]
    D = np.array([[K_P / b0, 0.0]])
    return TwoInputController(StateSpaceModel(A, B, C, D, ("r", "y"), ("u",)))


def extract_cr_cy(c: TwoInputController) -> tuple[RationalTransferFunction, RationalTransferFunction]:
    """Split a 2-input controller into (C_r, C_y) with u = C_r r - C_y y.

    The split is made once per controller; later calls return the same pair.
    """
    return c._cr_cy
