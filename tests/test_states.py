import math

import numpy as np
import pytest

from interferolab import (
    MmStateSpec,
    TwoModeFockVector,
    mm_state,
    no_state,
    noon_state,
    optimal_phase_state,
    pegg_barnett_vector,
    two_mode_loss_channel,
    two_mode_phase,
)


class TestOptimalPhaseState:
    def test_m_one_is_balanced(self):
        v = optimal_phase_state(1)
        assert np.max(np.abs(v.amps - 1.0 / math.sqrt(2))) < 1e-15

    def test_m_three_amplitudes(self):
        v = optimal_phase_state(3)
        want = [math.sqrt(0.5) * math.sin(math.pi * (n + 0.5) / 4) for n in range(4)]
        assert np.max(np.abs(v.amps - want)) < 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 20, 41])
    def test_normalized_real_symmetric(self, m):
        v = optimal_phase_state(m)
        assert abs(np.sum(np.abs(v.amps) ** 2) - 1.0) < 1e-12
        assert np.max(np.abs(v.amps.imag)) == 0.0
        assert np.all(v.amps.real > 0)
        assert np.max(np.abs(v.amps - v.amps[::-1])) < 1e-12

    @pytest.mark.parametrize("m", [1, 4, 13, 40])
    def test_mean_photon_number_is_half_m(self, m):
        assert abs(optimal_phase_state(m).mean_photon() - m / 2.0) < 1e-10

    def test_rejects_m_below_one(self):
        with pytest.raises(ValueError):
            optimal_phase_state(0)

    def test_rejects_non_integer_m(self):
        # m = 2.5 would give a 4-level state that is no sine state at all
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            optimal_phase_state(2.5)


class TestMmState:
    def test_amplitudes(self):
        v = mm_state(MmStateSpec(5, 2))
        assert v.amps[5] == pytest.approx(1 / math.sqrt(2))
        assert v.amps[2] == pytest.approx(1 / math.sqrt(2))
        assert np.sum(np.abs(v.amps) ** 2) == pytest.approx(1.0)

    def test_no_state_special_case(self):
        v = no_state(4)
        assert v.dim == 9
        assert v.amps[0] == pytest.approx(1 / math.sqrt(2))
        assert v.amps[8] == pytest.approx(1 / math.sqrt(2))

    def test_figure_configuration(self):
        spec = MmStateSpec(30, 10)
        assert spec.n_avg == 20
        assert spec.delta == 20

    def test_mean_photon_number_exact(self):
        spec = MmStateSpec(9, 3)
        assert mm_state(spec).mean_photon() == pytest.approx(spec.n_avg, abs=1e-12)

    @pytest.mark.parametrize("m,mp", [(3, 3), (2, 5), (1, -1)])
    def test_rejects_bad_ordering(self, m, mp):
        with pytest.raises(ValueError):
            MmStateSpec(m, mp)


class TestPeggBarnettVector:
    def test_zero_phase_is_uniform(self):
        v = pegg_barnett_vector(4, 0.0)
        assert np.max(np.abs(v.amps - 1 / math.sqrt(5))) < 1e-15

    def test_orthogonality_of_outcome_vectors(self):
        m = 6
        for l in range(m + 1):
            for lp in range(l + 1, m + 1):
                a = pegg_barnett_vector(m, 2 * math.pi * l / (m + 1))
                b = pegg_barnett_vector(m, 2 * math.pi * lp / (m + 1))
                assert abs(np.vdot(a.amps, b.amps)) < 1e-12

    def test_m_one_at_pi(self):
        v = pegg_barnett_vector(1, math.pi)
        want = np.array([1.0, -1.0]) / math.sqrt(2)
        assert np.max(np.abs(v.amps - want)) < 1e-12

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            pegg_barnett_vector(-1, 0.0)
        with pytest.raises(ValueError):
            pegg_barnett_vector(3, math.nan)


class TestNoonState:
    def test_n_one(self):
        v = noon_state(1)
        assert v.amps[1, 0] == pytest.approx(1 / math.sqrt(2))
        assert v.amps[0, 1] == pytest.approx(1 / math.sqrt(2))
        assert v.amps[0, 0] == 0.0

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_normalized(self, n):
        v = noon_state(n)
        assert abs(np.sum(np.abs(v.amps) ** 2) - 1.0) < 1e-12
        assert v.dims == (n + 1, n + 1)

    def test_rejects_n_below_one(self):
        with pytest.raises(ValueError):
            noon_state(0)

    def test_rejects_unnormalized_two_mode(self):
        with pytest.raises(ValueError):
            TwoModeFockVector(np.ones((2, 2)))


class TestTwoModeHelpers:
    def test_loss_channel_completeness(self):
        ch = two_mode_loss_channel(0.8, 0.6, (3, 4))
        comp = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(comp - np.eye(12))) < 1e-10

    def test_arm_phase_only_touches_first_mode(self):
        n = 2
        rho = noon_state(n).to_density_flat()
        out = two_mode_phase(rho, 0.7, (n + 1, n + 1))
        assert abs(out.trace() - 1.0) < 1e-12
        # |n,0><0,n| coherence picks up exp(i*n*phi)
        hi, lo = n * (n + 1), n
        assert out.mat[hi, lo] == pytest.approx(0.5 * np.exp(1j * n * 0.7), abs=1e-12)

    def test_independent_loss_acts_per_arm(self):
        # the (1,0) photon survives arm 1 with probability eta1 only
        amps = np.zeros((2, 2))
        amps[1, 0] = 1.0
        rho = TwoModeFockVector(amps).to_density_flat()
        from interferolab import apply_channel

        out = apply_channel(rho, two_mode_loss_channel(0.7, 0.3, (2, 2)))
        diag = np.diag(out.mat).real
        assert diag[2] == pytest.approx(0.7, abs=1e-12)  # flat index of |1,0>
        assert diag[0] == pytest.approx(0.3, abs=1e-12)  # lost into |0,0>
