"""Benchmark fixtures: a low-thrust Earth-Mars transfer test case.

The constants below are published benchmark data for the first control step
and the terminal state of an energy-optimal Earth-Mars transfer flown under
Gaussian state uncertainty. Two known blemishes of the published data are
handled here rather than silently:

- The printed scalar variance of the linearized control-magnitude
  constraint (1.01e-4 N^2) does not exactly match what the 3-significant-
  figure control covariance reproduces (1.033e-4 N^2). The fixture carries
  the printed scalar pair (control_y_mean, control_y_var) for the
  one-dimensional rows of the control-constraint comparison, and the full
  matrices for the spectral-radius row.
- The printed 6x6 terminal covariance is indefinite by a sliver because of
  its 3-significant-figure rounding; `terminal_state_cov()` returns an
  eigenvalue-clipped positive-definite repair.

The published source does not include the Mars target state. The default
target below is a placeholder in normalized units chosen to land the
terminal box constraints in the same risk regime as the published
comparison; it is NOT ephemeris data, and any quantitative reproduction
claim for the box-constraint table requires supplying the true target.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianVec
from .linalg import clip_to_psd

__all__ = [
    "EarthMarsFixture",
    "DEFAULT_FIXTURE",
    "DEFAULT_TARGET_STATE",
    "box_constraint_distribution",
]


def _read_only(rows) -> np.ndarray:
    a = np.array(rows, dtype=float)
    a.setflags(write=False)
    return a


class EarthMarsFixture:
    """The published data, as read-only class attributes."""

    __slots__ = ()

    # Nominal first thrust vector [N] and its covariance [N^2].
    u0_mean = _read_only([0.15567, 0.42294, -0.033632])
    sigma_u0 = _read_only(
        [
            [1.49e-6, -6.68e-6, -1.28e-7],
            [-6.68e-6, 1.23e-4, 1.91e-6],
            [-1.28e-7, 1.91e-6, 4.36e-8],
        ]
    )
    u_max = 0.5  # [N]

    # Published scalar distribution of the linearized constraint ||u|| - u_max.
    control_y_mean = -0.048070  # [N]
    control_y_var = 1.01e-4  # [N^2]

    # Terminal state covariance (open-loop propagation), normalized units.
    # Indefinite as printed; see terminal_state_cov().
    sigma_xN = _read_only(
        [
            [1.09e-10, 1.24e-10, 5.74e-13, -4.27e-11, 6.06e-11, 7.51e-13],
            [1.24e-10, 1.45e-10, 7.65e-13, -4.82e-11, 7.04e-11, 9.23e-13],
            [5.74e-13, 7.65e-13, 3.58e-13, -2.07e-13, 3.58e-13, 3.49e-13],
            [-4.27e-11, -4.82e-11, -2.07e-13, 1.67e-11, -2.35e-11, -2.81e-13],
            [6.06e-11, 7.04e-11, 3.58e-13, -2.35e-11, 3.41e-11, 4.39e-13],
            [7.51e-13, 9.23e-13, 3.49e-13, -2.81e-13, 4.39e-13, 3.42e-13],
        ]
    )

    # Relative tolerance of the terminal box constraints.
    epsilon = 5e-5

    def control_constraint(self) -> GaussianVec:
        """Scalar distribution of the linearized control-magnitude constraint."""
        return GaussianVec([self.control_y_mean], [[self.control_y_var]])

    def terminal_state_cov(self) -> np.ndarray:
        """Positive-definite repair of the printed terminal covariance."""
        return clip_to_psd(self.sigma_xN)


DEFAULT_FIXTURE = EarthMarsFixture()

# Placeholder target state [position; velocity] in normalized units.
DEFAULT_TARGET_STATE = _read_only([0.94, 1.20, 0.084, 0.057, 0.18, 0.023])


def box_constraint_distribution(
    fixture: EarthMarsFixture,
    target_state,
    position_only: bool,
) -> GaussianVec:
    """Gaussian of the terminal box constraints |x_N,i - x_t,i| <= eps |x_t,i|.

    Stacks the upper and lower one-sided constraints, giving mean
    -eps * [|x_t|; |x_t|] and block-diagonal covariance built from the
    terminal state covariance. For position_only the velocity rows and
    columns are dropped first (d = 6 instead of d = 12).
    """
    target = np.atleast_1d(np.asarray(target_state, dtype=float))
    if target.shape != (6,):
        raise ValueError(f"target state must have 6 components, got {target.shape}")
    if np.any(target == 0.0):
        raise ValueError("target components must be nonzero (relative tolerance)")
    cov = fixture.terminal_state_cov()
    if position_only:
        cov = cov[:3, :3]
        target = target[:3]
    half = fixture.epsilon * np.abs(target)
    mean = np.concatenate([-half, -half])
    zeros = np.zeros_like(cov)
    block = np.block([[cov, zeros], [zeros, cov]])
    return GaussianVec(mean, block)
