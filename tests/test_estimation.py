import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interferolab import (
    DensityMatrix,
    MmStateSpec,
    OutcomeDistribution,
    apply_channel,
    apply_phase,
    baselines,
    circular_distance,
    circular_rms,
    expectation,
    holevo_variance,
    loss_channel,
    mm_error_terms,
    mm_observable,
    mm_phase_error,
    mm_phase_error_closed,
    mm_state_output,
    noon_phase_error,
    noon_phase_error_brute,
    noon_state,
    optimal_outcome_distribution,
    optimal_state_output,
    pegg_barnett_vector,
    phase_error_summary,
    povm_distribution,
    two_mode_loss_channel,
    two_mode_phase,
)
from interferolab.estimation import _noon_output

TWO_PI = 2 * math.pi


class TestPovmDistribution:
    def test_projector_input_concentrates(self):
        m, l = 7, 3
        rho = pegg_barnett_vector(m, TWO_PI * l / (m + 1)).to_density()
        dist = povm_distribution(rho)
        assert dist.probs[l] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.delete(dist.probs, l)) < 1e-12

    def test_maximally_mixed_is_uniform(self):
        m = 5
        rho = DensityMatrix(np.eye(m + 1) / (m + 1))
        dist = povm_distribution(rho)
        assert np.max(np.abs(dist.probs - 1.0 / (m + 1))) < 1e-14

    def test_two_level_interference_pattern(self):
        # state (|0> + e^{i phi}|1>)/sqrt(2): p(l) = (1 + cos(phi - Phi_l))/2
        phi = 0.83
        amps = np.array([1.0, np.exp(1j * phi)]) / math.sqrt(2)
        from interferolab import FockVector

        dist = povm_distribution(FockVector(amps).to_density())
        want = (1 + np.cos(phi - dist.outcome_phases)) / 2
        assert np.max(np.abs(dist.probs - want)) < 1e-12

    def test_distribution_invariants(self):
        with pytest.raises(ValueError, match="sum"):
            OutcomeDistribution([0.7, 0.7], 0.0)
        with pytest.raises(ValueError, match="negative"):
            OutcomeDistribution([1.1, -0.1], 0.0)
        d = OutcomeDistribution([1.0 + 5e-13, -5e-13], 0.0)
        assert d.probs[1] == 0.0  # tiny negatives are clipped after the check


class TestClosedFormDistribution:
    def test_lossless_overlap(self):
        m, phi = 4, 0.9
        from interferolab import optimal_phase_state, permutation_unitary

        u = permutation_unitary(m + 1)
        phased = apply_phase(optimal_phase_state(m).to_density(), phi)
        want = povm_distribution(DensityMatrix(u @ phased.mat @ u.T)).probs
        got = optimal_outcome_distribution(m, 1.0, phi)
        assert np.max(np.abs(got.probs - want)) < 1e-12

    def test_matches_matrix_route(self):
        from interferolab import RoundTripConfig, optimal_phase_state, roundtrip_oracle

        m, eta, phi = 4, 0.9, 0.2
        got = optimal_outcome_distribution(m, eta, phi)
        rho = roundtrip_oracle(optimal_phase_state(m), RoundTripConfig(phi, 0.0, eta, eta))
        want = povm_distribution(rho, true_phi=phi)
        assert np.max(np.abs(got.probs - want.probs)) < 1e-10

    @pytest.mark.parametrize("eta", [0.55, 0.9])
    def test_normalized(self, eta):
        for m in (1, 5, 12):
            assert abs(optimal_outcome_distribution(m, eta, 1.3).probs.sum() - 1.0) < 1e-10


class TestCircularStatistics:
    def test_distance_wraps(self):
        assert circular_distance(0.1, TWO_PI - 0.1) == pytest.approx(0.2, abs=1e-12)
        assert circular_distance(0.0, math.pi) == pytest.approx(math.pi)

    def test_concentrated_distribution_has_zero_rms(self):
        m, l = 6, 2
        probs = np.zeros(m + 1)
        probs[l] = 1.0
        est = (-TWO_PI * l / (m + 1)) % TWO_PI
        assert circular_rms(OutcomeDistribution(probs, est)) == 0.0

    def test_uniform_approaches_circle_second_moment(self):
        m = 4999
        dist = OutcomeDistribution(np.full(m + 1, 1.0 / (m + 1)), 0.3)
        assert circular_rms(dist) == pytest.approx(math.sqrt(math.pi**2 / 3), abs=2e-3)

    def test_symmetric_pair_at_distance_eps(self):
        # outcomes at 0 and pi/2 estimate 0 and 3pi/2; true phase centered
        # between the estimates 0 and pi/2 is eps = pi/4 away from both
        probs = [0.5, 0.0, 0.0, 0.5]
        dist = OutcomeDistribution(probs, math.pi / 4)
        assert circular_rms(dist) == pytest.approx(math.pi / 4, abs=1e-12)


class TestHolevoVariance:
    def test_mixed_state_is_infinite(self):
        rho = DensityMatrix(np.eye(4) / 4)
        assert holevo_variance(rho) == math.inf

    def test_sharpens_with_m(self):
        vals = [
            holevo_variance(optimal_state_output(m, 1.0, 0.0, check=False))
            for m in (4, 8, 16, 32)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.15

    def test_phase_state_dispersion_vanishes_with_m(self):
        # for the uniform phase state S = m/(m+1), so the dispersion is
        # sqrt(2m+1)/m and heads to zero
        vals = []
        for m in (4, 16, 64, 256):
            rho = pegg_barnett_vector(m, 0.7).to_density()
            got = holevo_variance(rho)
            assert got == pytest.approx(math.sqrt(2 * m + 1) / m, rel=1e-10)
            vals.append(got)
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.1

    def test_matches_continuous_quadrature(self):
        # independent oracle: trapezoid rule on the continuous phase density
        rho = optimal_state_output(4, 0.9, 0.6)
        pts = 2048
        grid = np.linspace(0.0, TWO_PI, pts, endpoint=False)
        n = np.arange(rho.dim)
        basis = np.exp(1j * np.outer(n, grid))
        dens = np.einsum("np,nm,mp->p", basis.conj(), rho.mat, basis).real / TWO_PI
        assert dens.min() > -1e-12
        assert np.sum(dens) * (TWO_PI / pts) == pytest.approx(1.0, abs=1e-10)
        s = abs(np.sum(np.exp(1j * grid) * dens) * (TWO_PI / pts))
        want = math.sqrt(s**-2 - 1.0)
        assert holevo_variance(rho) == pytest.approx(want, abs=1e-8)


class TestMmObservable:
    def test_single_pair(self):
        a = mm_observable(2, 0)
        want = np.zeros((3, 3))
        want[2, 0] = want[0, 2] = 1.0
        assert np.array_equal(a, want)

    def test_symmetric_binary_when_disjoint(self):
        a = mm_observable(9, 3)
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}

    def test_pair_count_for_figure_configuration(self):
        a = mm_observable(30, 10)
        assert np.count_nonzero(a) == 22

    def test_warns_on_overlapping_families(self):
        with pytest.warns(UserWarning, match="overlap"):
            mm_observable(5, 3)

    def test_noiseless_unit_mean(self):
        # 2x2 subspace: <A> = cos(delta * phi) -> 1 at phi = 0
        spec = MmStateSpec(6, 2)
        sigma = mm_state_output(spec, 1.0, 0.0)
        a = mm_observable(spec.m, spec.m_prime)
        assert expectation(sigma, a) == pytest.approx(1.0, abs=1e-12)


class TestMmPhaseError:
    def test_noiseless_error_is_inverse_delta(self):
        for spec in (MmStateSpec(4, 1), MmStateSpec(10, 2)):
            phi = 0.4
            sigma = mm_state_output(spec, 1.0, phi)
            assert mm_phase_error(sigma, spec, phi) == pytest.approx(
                1.0 / spec.delta, abs=1e-12
            )

    def test_stationary_point_gives_sentinel(self):
        spec = MmStateSpec(4, 1)
        sigma = mm_state_output(spec, 0.9, 0.0)
        assert mm_phase_error(sigma, spec, 0.0) == math.inf

    @settings(max_examples=80, deadline=None)
    @given(m=st.integers(1, 24), data=st.data(), eta=st.floats(0.05, 1.0))
    def test_mean_square_is_observable_expectation(self, m, data, eta):
        # the sweep takes <A^2> from the coefficient sums; the overlapping
        # regime (delta <= m_prime) is included
        spec = MmStateSpec(m, data.draw(st.integers(0, m - 1), label="m_prime"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a = mm_observable(spec.m, spec.m_prime)
        want = expectation(mm_state_output(spec, eta, 0.0, check=False), a @ a)
        got = mm_error_terms(spec, eta).mean_square
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_closed_terms_validated(self):
        terms = mm_error_terms(MmStateSpec(9, 3), 0.85)
        assert terms.mean_square >= 0.0
        assert 0.0 < terms.coherence <= 1.0
        assert terms.delta == 6

    @pytest.mark.parametrize("eta", [0.7, 0.9, 1.0])
    @pytest.mark.parametrize("m,mp", [(2, 0), (5, 1), (9, 3), (12, 4)])
    def test_matrix_and_closed_routes_agree(self, eta, m, mp, rng):
        spec = MmStateSpec(m, mp)
        for phi in rng.uniform(0.05, 2.9, 5):
            a = mm_phase_error(mm_state_output(spec, eta, phi, check=False), spec, phi)
            b = mm_phase_error_closed(mm_error_terms(spec, eta), phi)
            if math.isfinite(a) or math.isfinite(b):
                assert abs(a - b) <= 1e-8 * abs(b)

    def test_slope_matches_finite_difference(self, rng):
        # analytic slope -delta * coherence * sin(delta*phi) vs central
        # differences of the observable mean, 20 random points
        spec, eta, h = MmStateSpec(9, 3), 0.85, 1e-6
        a = mm_observable(spec.m, spec.m_prime)
        coherence = mm_error_terms(spec, eta).coherence
        for phi in rng.uniform(0.1, 3.0, 20):
            up = expectation(mm_state_output(spec, eta, phi + h, check=False), a)
            down = expectation(mm_state_output(spec, eta, phi - h, check=False), a)
            fd = (up - down) / (2 * h)
            analytic = -spec.delta * coherence * math.sin(spec.delta * phi)
            assert abs(fd - analytic) <= 1e-6 * max(abs(analytic), 1e-12)


class TestPhaseOptimization:
    def test_shifted_sine_minimum(self):
        phi_star, val, _ = phase_error_summary(lambda x: 1.0 + math.sin(x), TWO_PI)
        assert abs(phi_star - 3 * math.pi / 2) < 1e-5
        assert val < 1e-9

    def test_constant_function(self):
        phi_star, val, avg = phase_error_summary(lambda x: 2.5, TWO_PI)
        assert val == 2.5
        assert avg == 2.5

    def test_noiseless_mm_over_reduced_period(self):
        spec = MmStateSpec(6, 1)
        terms = mm_error_terms(spec, 1.0)
        fn = lambda phi: mm_phase_error_closed(terms, phi)
        _, val, _ = phase_error_summary(fn, TWO_PI / spec.delta)
        assert val == pytest.approx(1.0 / spec.delta, abs=1e-12)

    def test_minimum_not_above_any_grid_sample(self):
        fn = lambda x: math.sin(3 * x) + 0.5 * math.cos(7 * x + 1.0) + 2.0
        grid = 720
        _, val, _ = phase_error_summary(fn, TWO_PI, grid)
        samples = [fn(TWO_PI * k / grid) for k in range(grid)]
        assert val <= min(samples) + 1e-15

    def test_average_reports_excluded_sentinels(self):
        fn = lambda x: math.inf if x < 0.01 else 1.0
        _, _, avg = phase_error_summary(fn, TWO_PI, 100)
        assert avg == 1.0

    def test_all_infinite_raises(self):
        with pytest.raises(ValueError, match="non-finite"):
            phase_error_summary(lambda x: math.inf, TWO_PI, 32)

    @pytest.mark.parametrize("period, message", [
        (0.0, "^period must be > 0, got 0.0$"),
        (-1.0, "^period must be > 0, got -1.0$"),
        (math.inf, "^period must be finite$"),
        (math.nan, "^period must be finite$"),
    ])
    def test_rejects_a_period_that_spans_no_phase(self, period, message):
        # a scan over no phase, or over negative phases, is no period
        with pytest.raises(ValueError, match=message):
            phase_error_summary(lambda x: 1.0 + math.sin(x) ** 2, period)


class TestBaselines:
    def test_lossless_noon_reaches_heisenberg(self):
        for n in range(1, 11):
            b = baselines(n, 1.0)
            assert b.noon_error == pytest.approx(1.0 / n, abs=1e-15)
            assert b.heisenberg == 1.0 / n

    def test_single_photon_closed_form(self):
        for eta in (0.3, 0.8):
            assert baselines(1, eta).noon_error == pytest.approx(1 / math.sqrt(eta))

    def test_shot_noise_value(self):
        assert baselines(20, 0.9).shot_noise == pytest.approx(1 / math.sqrt(18), abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.one_of(st.floats(1.0, 1e3), st.floats(1.0, 1e300)),
        eta=st.floats(0.0, 1.0, exclude_min=True),
    )
    @example(n=1.0, eta=5e-324)  # subnormal n * eta
    @example(n=3.0, eta=1e-200)
    @example(n=1e300, eta=1.0)
    def test_heisenberg_never_above_shot_noise(self, n, eta):
        # fl(n*eta) <= n and fl(sqrt(fl(n*eta))) <= n, and 1/x rounds
        # monotonically, so the ordering holds exactly, with no tolerance;
        # likewise fl(n * eta^(n/2)) <= n puts the NOON error at or above
        # Heisenberg, inf where that factor is 0 (or so small that 1/x overflows)
        b = baselines(n, eta)
        assert b.heisenberg <= b.shot_noise
        if abs(n - round(n)) > 1e-9:
            assert b.noon_error is None
        else:
            assert b.heisenberg <= b.noon_error
            assert n * eta ** (n / 2.0) > 0.0 or b.noon_error == math.inf

    def test_noon_error_only_at_integer_n(self):
        # integer to within 1e-9, the tolerance of a sweep's top index
        assert baselines(2.5, 0.9).noon_error is None
        assert baselines(3.0 + 1e-8, 0.9).noon_error is None
        assert baselines(3.0 + 1e-12, 0.9).noon_error == pytest.approx(
            baselines(3, 0.9).noon_error, rel=1e-11)
        assert baselines(10, 1e-80).noon_error == math.inf

    def test_past_the_binomial_limit(self):
        # no sweep row runs at N >= 515 (binomials of 1030 overflow); the
        # baselines have no such limit
        b = baselines(600, 1.0)
        assert b == (1.0 / math.sqrt(600), 1.0 / 600, 1.0 / 600)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            baselines(0, 0.9)
        with pytest.raises(ValueError):
            baselines(5, 0.0)

    @pytest.mark.parametrize("n", [math.nan, math.inf])
    def test_rejects_non_finite_n(self, n):
        # nan gave nan shot-noise and Heisenberg errors, inf gave 0 for both
        with pytest.raises(ValueError, match=rf"^n must be finite and >= 1, got {n!r}$"):
            baselines(n, 0.9)

    def test_brute_force_agrees_with_closed_form(self):
        n, eta = 3, 0.8
        fn = lambda phi: noon_phase_error_brute(n, eta, phi)
        _, val, _ = phase_error_summary(fn, TWO_PI / n, grid_points=64)
        assert val == pytest.approx(baselines(n, eta).noon_error, abs=1e-8)
        # pointwise too, away from stationary points
        phi = 0.37
        assert noon_phase_error_brute(n, eta, phi) == pytest.approx(
            noon_phase_error(n, eta, phi), abs=1e-6
        )

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_per_arm_loss_equals_the_flattened_two_mode_channel(self, n):
        eta, dims = 0.7, (n + 1, n + 1)
        rho = two_mode_phase(noon_state(n).to_density_flat(), 0.3, dims)
        want = apply_channel(rho, two_mode_loss_channel(eta, eta, dims)).mat
        got = _noon_output(n, loss_channel(eta, n + 1).kraus, 0.3).mat
        assert np.max(np.abs(got - want)) < 1e-15

    @pytest.mark.parametrize("n", [12, 20])
    def test_brute_force_at_larger_n(self, n):
        # the (n + 1)^2-level two-mode state, each arm's loss applied in turn,
        # at the minimiser n * phi = pi / 2 of the closed form
        eta = 0.9
        assert noon_phase_error_brute(n, eta, math.pi / (2 * n)) == pytest.approx(
            baselines(n, eta).noon_error, abs=1e-8
        )


class TestLossMonotonicity:
    @pytest.mark.parametrize("m", [4, 8, 14])
    def test_more_loss_never_helps(self, m):
        def min_rms(eta):
            def rms(phi):
                rho = apply_phase(optimal_state_output(m, eta, 0.0, check=False), -phi)
                return circular_rms(povm_distribution(rho, true_phi=phi))

            return phase_error_summary(rms, TWO_PI, 180)[1]

        a, b, c = min_rms(1.0), min_rms(0.9), min_rms(0.5)
        assert a <= b + 1e-12
        assert b <= c + 1e-12
