"""Embedded benchmark fixture: control constraint and terminal box data."""

import numpy as np
import pytest

from ccrisk.fixtures import (
    DEFAULT_FIXTURE,
    DEFAULT_TARGET_STATE,
    box_constraint_distribution,
)
from ccrisk.linalg import _cholesky, as_symmetric


class TestControlConstraint:
    def test_scalar_distribution(self):
        g = DEFAULT_FIXTURE.control_constraint()
        assert g.dim == 1
        assert g.mean[0] == pytest.approx(-0.048070)
        assert g.cov[0, 0] == pytest.approx(1.01e-4)


class TestTerminalStateCov:
    def test_raw_matrix_is_indefinite(self):
        # the published 3-significant-figure matrix is indefinite by a sliver
        assert np.min(np.linalg.eigvalsh(DEFAULT_FIXTURE.sigma_xN)) < 0.0

    def test_repair_is_pd_and_close(self):
        repaired = DEFAULT_FIXTURE.terminal_state_cov()
        _cholesky(as_symmetric(repaired))  # must succeed
        diff = np.max(np.abs(repaired - DEFAULT_FIXTURE.sigma_xN))
        assert diff < 5e-3 * np.max(np.abs(DEFAULT_FIXTURE.sigma_xN))


class TestBoxConstraintDistribution:
    def test_position_only_shape(self):
        g = box_constraint_distribution(DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, True)
        assert g.dim == 6
        half = DEFAULT_FIXTURE.epsilon * np.abs(DEFAULT_TARGET_STATE[:3])
        assert np.allclose(g.mean, np.concatenate([-half, -half]))

    def test_full_state_shape(self):
        g = box_constraint_distribution(DEFAULT_FIXTURE, DEFAULT_TARGET_STATE, False)
        assert g.dim == 12
        cov = DEFAULT_FIXTURE.terminal_state_cov()
        assert np.allclose(g.cov[:6, :6], cov)
        assert np.allclose(g.cov[6:, 6:], cov)
        assert np.all(g.cov[:6, 6:] == 0.0)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            box_constraint_distribution(DEFAULT_FIXTURE, [1.0, 2.0], True)
        with pytest.raises(ValueError):
            box_constraint_distribution(DEFAULT_FIXTURE, [0.0, 1, 1, 1, 1, 1], True)


class TestPublishedDataReadOnly:
    @pytest.mark.parametrize("name", ["u0_mean", "sigma_u0", "sigma_xN"])
    def test_write_raises(self, name):
        # neither the attribute nor an entry of its array can be replaced
        with pytest.raises(AttributeError):
            setattr(DEFAULT_FIXTURE, name, getattr(DEFAULT_FIXTURE, name).copy())
        with pytest.raises(ValueError, match="read-only"):
            getattr(DEFAULT_FIXTURE, name)[0] = 0.3

    def test_target_state_write_raises(self):
        with pytest.raises(ValueError, match="read-only"):
            DEFAULT_TARGET_STATE[0] = 0.3
