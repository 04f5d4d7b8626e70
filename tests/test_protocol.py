import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interferolab import (
    DensityMatrix,
    FockVector,
    MmStateSpec,
    RoundTripConfig,
    apply_phase,
    mm_state,
    mm_state_output,
    optimal_phase_state,
    optimal_state_output,
    permutation_unitary,
    roundtrip_oracle,
    roundtrip_step,
    validate_closed_forms,
)
from interferolab.fock import apply_channel, loss_channel
from interferolab.protocol import _loss_map


class TestRoundTripConfig:
    def test_rejects_zero_transmissivity(self):
        with pytest.raises(ValueError):
            RoundTripConfig(0.1, 0.0, 0.0, 0.9, 3)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            RoundTripConfig(math.inf, 0.0, 0.9, 0.9, 3)


class TestRoundTripOracle:
    def test_lossless_output_is_permuted_phased_input(self, random_state):
        m, phi = 6, 1.234
        psi = random_state(m + 1)
        out = roundtrip_oracle(psi, RoundTripConfig(phi, 0.0, 1.0, 1.0, m))
        ref = permutation_unitary(m, m + 1).apply(apply_phase(psi, phi))
        assert np.max(np.abs(out.mat - ref.to_density().mat)) < 1e-12
        # rank-1 check
        eigs = np.linalg.eigvalsh(out.mat)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.7, math.pi])
    def test_arm_phase_cancels(self, theta, random_state):
        m = 5
        psi = random_state(m + 1)
        base = roundtrip_oracle(psi, RoundTripConfig(0.41, 0.0, 0.8, 0.65, m))
        out = roundtrip_oracle(psi, RoundTripConfig(0.41, theta, 0.8, 0.65, m))
        assert np.max(np.abs(out.mat - base.mat)) < 1e-12

    def test_vacuum_fixed_point(self):
        out = roundtrip_oracle(
            FockVector([1.0]), RoundTripConfig(0.9, 0.2, 0.6, 0.8, 0)
        )
        assert out.mat[0, 0] == pytest.approx(1.0)

    def test_dimension_must_match_m(self, random_state):
        with pytest.raises(ValueError):
            roundtrip_oracle(random_state(4), RoundTripConfig(0.1, 0.0, 0.9, 0.9, 5))

    def test_output_is_valid_density_matrix(self, random_state):
        out = roundtrip_oracle(random_state(8), RoundTripConfig(0.3, 1.1, 0.55, 0.9, 7))
        out.validate()

    @settings(max_examples=60, deadline=None)
    @given(
        m=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        eta1=st.floats(0.05, 1.0),
        eta2=st.floats(0.05, 1.0),
        theta=st.floats(-math.pi, math.pi),
        phi=st.floats(-math.pi, math.pi),
    )
    def test_second_round_trip_cancels_phase(self, m, seed, eta1, eta2, theta, phi):
        # one round is P(-phi) after a phi-free channel S, and S P(-phi) =
        # P(phi) S because loss commutes with phase and the reversal flips
        # it; two rounds therefore collapse to S^2 for every phi
        d = m + 1
        g = np.random.default_rng(seed).normal(size=(2, d, d))
        g = g[0] + 1j * g[1]
        rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)

        def two_rounds(p):
            cfg = RoundTripConfig(p, theta, eta1, eta2, m)
            return roundtrip_step(roundtrip_step(rho, cfg), cfg).mat

        assert np.max(np.abs(two_rounds(phi) - two_rounds(0.0))) <= 1e-12


class TestLossMap:
    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 10),
        seed=st.integers(0, 2**32 - 1),
        eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    )
    def test_matches_kraus_sum(self, d, seed, eta):
        # complex, non-symmetric diagonals catch a transposed or conjugated lag
        g = np.random.default_rng(seed).normal(size=(2, d, d))
        g = g[0] + 1j * g[1]
        rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        want = apply_channel(rho, loss_channel(eta, d)).mat
        assert np.max(np.abs(_loss_map(rho.mat, eta) - want)) <= 1e-13

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_binomials_raise(self):
        with pytest.raises(ValueError, match="non-finite"):
            _loss_map(np.eye(1031) / 1031, 0.9)


class TestOptimalStateOutput:
    def test_large_m_is_finite_with_unit_trace(self):
        rho = optimal_state_output(300, 0.9, 0.0, check=False)
        assert np.isfinite(rho.mat).all()
        assert abs(np.trace(rho.mat).real - 1.0) <= 1e-10

    def test_lossless_limit_is_pure(self):
        m, phi = 5, 0.77
        got = optimal_state_output(m, 1.0, phi)
        ref = permutation_unitary(m, m + 1).apply(apply_phase(optimal_phase_state(m), phi))
        assert np.max(np.abs(got.mat - ref.to_density().mat)) < 1e-12

    def test_matches_oracle(self):
        m, eta, phi = 2, 0.9, 0.3
        oracle = roundtrip_oracle(
            optimal_phase_state(m), RoundTripConfig(phi, 0.55, eta, eta, m)
        )
        assert np.max(np.abs(optimal_state_output(m, eta, phi).mat - oracle.mat)) < 1e-10

    @pytest.mark.parametrize("eta", [0.5, 0.9])
    def test_unit_trace_up_to_m_twenty(self, eta):
        for m in range(1, 21):
            rho = optimal_state_output(m, eta, 0.4, check=False)
            assert abs(np.trace(rho.mat).real - 1.0) < 1e-10

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            optimal_state_output(0, 0.9, 0.1)
        with pytest.raises(ValueError):
            optimal_state_output(3, 0.0, 0.1)


class TestMmStateOutput:
    def test_lossless_two_level_form(self):
        # hand evolution: both components survive, permute to |0> and |delta>,
        # and keep a coherence rotating at delta * phi
        spec, phi = MmStateSpec(5, 2), 0.9
        delta = spec.delta
        want = np.zeros((6, 6), dtype=complex)
        want[0, 0] = want[delta, delta] = 0.5
        want[delta, 0] = 0.5 * np.exp(-1j * delta * phi)
        want[0, delta] = 0.5 * np.exp(1j * delta * phi)
        got = mm_state_output(spec, 1.0, phi)
        assert np.max(np.abs(got.mat - want)) < 1e-12
        oracle = roundtrip_oracle(mm_state(spec), RoundTripConfig(phi, 0.3, 1.0, 1.0, 5))
        assert np.max(np.abs(got.mat - oracle.mat)) < 1e-12

    def test_matches_oracle_with_loss(self):
        spec, eta, phi = MmStateSpec(3, 1), 0.8, 0.5
        oracle = roundtrip_oracle(mm_state(spec), RoundTripConfig(phi, 1.7, eta, eta, 3))
        assert np.max(np.abs(mm_state_output(spec, eta, phi).mat - oracle.mat)) < 1e-10

    def test_diagonal_real_and_nonnegative(self):
        got = mm_state_output(MmStateSpec(8, 3), 0.6, 1.1)
        diag = np.diag(got.mat)
        assert np.max(np.abs(diag.imag)) == 0.0
        assert float(diag.real.min()) > -1e-12

    def test_output_is_valid_density_matrix(self):
        mm_state_output(MmStateSpec(12, 5), 0.75, 2.2).validate()


class TestValidateClosedForms:
    def test_small_sweep_passes(self, tmp_path):
        report = validate_closed_forms(4)
        assert report.passed
        assert report.max_dev < 1e-10
        # every cell carries worst-element coordinates
        assert all(len(c.worst_element) == 2 for c in report.cells)
        kv = tmp_path / "report.kv"
        report.write_key_values(kv)
        text = kv.read_text()
        for key in ("max_dev=", "argmax_m=", "argmax_eta=", "argmax_phi=", "status="):
            assert key in text
        assert "status=pass" in text
        assert "overall" in report.to_text()

    def test_lossless_column_is_exact(self):
        report = validate_closed_forms(1, eta_grid=(1.0,), phi_grid=(0.0, 1.2))
        assert report.max_dev < 1e-14
