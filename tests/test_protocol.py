import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import interferolab.protocol as protocol_mod
from interferolab import (
    DensityMatrix,
    FockVector,
    MmStateSpec,
    RoundTripConfig,
    apply_channel,
    apply_phase,
    loss_channel,
    mm_error_terms,
    mm_observable,
    mm_output_coefficients,
    mm_state,
    mm_state_output,
    optimal_phase_state,
    optimal_state_output,
    permutation_unitary,
    povm_distribution,
    roundtrip_oracle,
    roundtrip_step,
    validate_closed_forms,
)
from interferolab.engine import (
    _LOOP_LOW_LAGS,
    _LOOP_MAX_LAGS,
    _lag_round_trip,
    _loss_table,
    _mm_amplitudes,
    _occupied_lags,
    _round_trip,
    _sine_amplitudes,
)
from interferolab.fock import _check_density, binomial_table
from interferolab.protocol import _kraus_round_trip, _output_matrix


class TestRoundTripConfig:
    def test_rejects_zero_transmissivity(self):
        with pytest.raises(ValueError):
            RoundTripConfig(0.1, 0.0, 0.0, 0.9)

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError):
            RoundTripConfig(math.inf, 0.0, 0.9, 0.9)


class TestRoundTripOracle:
    def test_lossless_output_is_permuted_phased_input(self, random_state):
        m, phi = 6, 1.234
        psi = random_state(m + 1)
        out = roundtrip_oracle(psi, RoundTripConfig(phi, 0.0, 1.0, 1.0))
        u = permutation_unitary(m + 1)
        ref = u @ apply_phase(psi.to_density(), phi).mat @ u.T
        assert np.max(np.abs(out.mat - ref)) < 1e-12
        # rank-1 check
        eigs = np.linalg.eigvalsh(out.mat)
        assert eigs[-1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.7, math.pi])
    def test_arm_phase_cancels(self, theta, random_state):
        m = 5
        psi = random_state(m + 1)
        base = roundtrip_oracle(psi, RoundTripConfig(0.41, 0.0, 0.8, 0.65))
        out = roundtrip_oracle(psi, RoundTripConfig(0.41, theta, 0.8, 0.65))
        assert np.max(np.abs(out.mat - base.mat)) < 1e-12

    def test_vacuum_fixed_point(self):
        out = roundtrip_oracle(
            FockVector([1.0]), RoundTripConfig(0.9, 0.2, 0.6, 0.8)
        )
        assert out.mat[0, 0] == pytest.approx(1.0)

    def test_output_is_valid_density_matrix(self, random_state):
        out = roundtrip_oracle(random_state(8), RoundTripConfig(0.3, 1.1, 0.55, 0.9))
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
            cfg = RoundTripConfig(p, theta, eta1, eta2)
            return roundtrip_step(roundtrip_step(rho, cfg), cfg).mat

        assert np.max(np.abs(two_rounds(phi) - two_rounds(0.0))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        eta1=st.floats(0.05, 1.0),
        eta2=st.floats(0.05, 1.0),
        theta=st.floats(-math.pi, math.pi),
        phi=st.floats(-math.pi, math.pi),
    )
    def test_reversal_matrix_reverses_indices_exactly(self, d, seed, eta1, eta2, theta, phi):
        # each element of u @ rho @ u.T is one element of rho times 1 plus
        # others times 0, so the matrix reversal is the index reversal bit for bit
        g = np.random.default_rng(seed).normal(size=(2, d, d))
        g = g[0] + 1j * g[1]
        rho = DensityMatrix(g @ g.conj().T / np.trace(g @ g.conj().T).real)
        cfg = RoundTripConfig(phi, theta, eta1, eta2)

        out = apply_channel(apply_phase(rho, phi + theta), loss_channel(eta1, d))
        out = DensityMatrix(out.mat[::-1, ::-1], check=False)
        out = apply_channel(apply_phase(out, theta), loss_channel(eta2, d))
        assert np.array_equal(roundtrip_step(rho, cfg).mat, out.mat)


class TestStackedRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 10),
        states=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        eta1=st.floats(0.05, 1.0),
        eta2=st.floats(0.05, 1.0),
        theta=st.floats(-math.pi, math.pi),
    )
    def test_stack_equals_roundtrip_step_on_each_matrix(self, d, states, seed, eta1, eta2, theta):
        # a stack of phases x states, laid out as in the validation gate, goes
        # through the same operations in the same order as roundtrip_step
        assume(eta1 != eta2)
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(states, d, d)) + 1j * rng.normal(size=(states, d, d))
        rhos = g @ g.conj().transpose(0, 2, 1)
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        phis = rng.uniform(-math.pi, math.pi, size=3)
        loss1, loss2 = loss_channel(eta1, d).kraus, loss_channel(eta2, d).kraus
        got = _kraus_round_trip(rhos, phis[:, None], theta, loss1, loss2)
        assert got.shape == (3, states, d, d)
        for p, phi in enumerate(phis):
            cfg = RoundTripConfig(float(phi), theta, eta1, eta2)
            for s, rho in enumerate(rhos):
                want = roundtrip_step(DensityMatrix(rho, check=False), cfg).mat
                assert np.array_equal(got[p, s], want)

    @pytest.mark.parametrize("kind, message", [
        ("hermitian", "not Hermitian"),
        ("trace", "trace deviates"),
        ("eigenvalue", "negative eigenvalue"),
    ])
    def test_stacked_check_rejects_one_bad_matrix(self, kind, message, random_density):
        # one bad matrix among valid ones fails the whole stack, with the
        # message DensityMatrix.validate gives for that matrix alone
        stack = np.array([random_density(4).mat for _ in range(6)]).reshape(2, 3, 4, 4)
        _check_density(stack)
        if kind == "hermitian":
            bad = stack[1, 2].copy()
            bad[0, 1] += 1e-6
        elif kind == "trace":
            bad = 1.01 * stack[1, 2]
        else:
            bad = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        stack[1, 2] = bad
        with pytest.raises(ValueError) as single:
            DensityMatrix(bad)
        with pytest.raises(ValueError, match=message) as stacked:
            _check_density(stack)
        assert str(stacked.value) == str(single.value)


class TestDerivedSizes:
    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        eta1=st.floats(0.05, 1.0),
        eta2=st.floats(0.05, 1.0),
        theta=st.floats(-math.pi, math.pi),
        phi=st.floats(-math.pi, math.pi),
        data=st.data(),
    )
    def test_sizes_come_from_the_input(self, d, seed, eta1, eta2, theta, phi, data):
        # every size is read off the array passed in: the state's d levels
        # fix the output, the outcome count and the reversal
        amps = [1.0, 1j] @ np.random.default_rng(seed).normal(size=(2, d))
        out = roundtrip_oracle(FockVector(amps / np.linalg.norm(amps)),
                               RoundTripConfig(phi, theta, eta1, eta2))
        assert out.dim == d
        assert abs(out.trace() - 1.0) <= 1e-12
        probs = povm_distribution(out, true_phi=phi).probs
        assert probs.shape == (d,)
        assert abs(probs.sum() - 1.0) <= 1e-12

        u = permutation_unitary(d)
        assert np.array_equal(u @ u, np.eye(d))
        for n in range(d):
            assert (u @ np.eye(d)[n])[d - 1 - n] == 1.0

        if d >= 2:
            m, m_prime = d - 1, data.draw(st.integers(0, d - 2), label="m_prime")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # overlapping index families
                a = mm_observable(m, m_prime)
            assert a.shape == (m + 1, m + 1)
            assert np.array_equal(a, a.T)
            assert set(np.unique(a)) <= {0.0, 1.0}
            assert np.count_nonzero(a) == 2 * (m_prime + 1)


def _from_lags(lags: dict, d: int) -> np.ndarray:
    """The real symmetric d x d matrix whose lag-k diagonals are lags[k]."""
    out = np.zeros((d, d))
    for k, lag in lags.items():
        out += np.diag(lag, k) + (np.diag(lag, -k) if k else 0.0)
    return out


@pytest.fixture(scope="module")
def largest_table():
    """The binomial table of the largest top index whose binomials are finite."""
    return binomial_table(1029)


def _lag_weights(d: int, eta: float, k: int) -> np.ndarray:
    """W_k: loss at eta on the lag-k diagonal of a d x d matrix."""
    amp = _loss_table(d, eta)
    return amp[: d - k, : d - k] * amp[k:, k:]


class TestLossMap:
    @settings(max_examples=150, deadline=None)
    @given(
        d=st.integers(1, 11),
        seed=st.integers(0, 2**32 - 1),
        eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        levels=st.one_of(st.none(), st.sets(st.integers(0, 10), min_size=1, max_size=2)),
        zeroed=st.sets(st.integers(0, 10)),
    )
    @example(d=6, seed=0, eta=0.8, levels={2, 5}, zeroed=set())  # M&M pattern: lags 0 and 3
    @example(d=6, seed=0, eta=1.0, levels={2, 5}, zeroed=set())
    @example(d=6, seed=0, eta=0.8, levels={4}, zeroed=set())  # one level: lag 0 only
    @example(d=9, seed=0, eta=0.7, levels=None, zeroed={1, 2, 5})  # gaps between lags
    def test_matches_kraus_sum(self, d, seed, eta, levels, zeroed):
        # real amplitudes of either sign on one or two levels (the M&M pattern:
        # lags 0 and delta only) or with zeroed sites, so that some lags are
        # unoccupied; the lags assembled into a matrix must give the Kraus-sum
        # round trip at phi = 0, where the arm phase theta cancels
        amps = np.random.default_rng(seed).normal(size=d)
        n = np.arange(d)
        if levels is not None:
            amps[~np.isin(n, [level % d for level in levels])] = 0.0
        amps[np.isin(n, list(zeroed))] = 0.0
        if not amps.any():
            amps[-1] = 1.0
        amps /= np.linalg.norm(amps)
        lags = _round_trip(amps, eta)
        assert list(lags) == _occupied_lags(amps).tolist()
        assert all(lag.shape == (d - k,) for k, lag in lags.items())
        oracle = roundtrip_oracle(FockVector(amps), RoundTripConfig(0.0, 0.37, eta, eta))
        assert np.max(np.abs(_from_lags(lags, d) - oracle.mat)) <= 1e-13

    @pytest.mark.parametrize("eta", [0.5, 0.9, 1.0])
    @pytest.mark.parametrize(
        "amps, lags",
        [
            (_mm_amplitudes(MmStateSpec(7, 3)), [0, 4]),
            (_mm_amplitudes(MmStateSpec(5, 0)), [0, 5]),
            (np.eye(6)[2], [0]),
            (_sine_amplitudes(6), list(range(7))),
        ],
        ids=["mm", "no", "single-level", "sine"],
    )
    def test_round_trip_visits_occupied_lags(self, amps, lags, eta):
        # the lags left out are exactly zero in the Kraus-sum output
        assert _occupied_lags(amps).tolist() == lags
        d = amps.size
        got = _round_trip(amps, eta)
        assert list(got) == lags
        oracle = roundtrip_oracle(FockVector(amps), RoundTripConfig(0.0, 0.37, eta, eta))
        n = np.arange(d)
        assert not oracle.mat[~np.isin(np.abs(n[:, None] - n), lags)].any()
        assert np.max(np.abs(_from_lags(got, d) - oracle.mat)) <= 1e-13

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.sampled_from([2, 7, 61, 62, 182, 301]),
        k_frac=st.floats(0.0, 1.0),
        eta1=st.floats(0.05, 1.0),
        eta2=st.floats(0.05, 1.0),
    )
    @example(d=301, k_frac=0.0, eta1=0.9, eta2=0.9)
    @example(d=301, k_frac=17 / 300, eta1=0.292, eta2=0.1919)  # worst case found: 1.4e-12
    @example(d=301, k_frac=1.0, eta1=0.2, eta2=0.2)  # the one entry underflows
    def test_loss_composes_per_lag(self, d, k_frac, eta1, eta2):
        # loss(eta2) after loss(eta1) is loss(eta1 * eta2), lag by lag, relative
        # to the largest entry.  Rows above n = 60 take their binomials from
        # log-gamma sums, which cost up to 1.4e-12 at d = 301 (exact binomials
        # give 4e-14).  The table takes the root only after multiplying its
        # factors, so a factor below the smallest normal double loses bits; that
        # spoils only entries below sqrt(max binomial * tiny), and so atol.
        k = round(k_frac * (d - 1))
        want = _lag_weights(d, eta1 * eta2, k)
        got = _lag_weights(d, eta2, k) @ _lag_weights(d, eta1, k)
        rtol = 1e-12 if d <= 61 else 2e-12
        atol = d * math.sqrt(binomial_table(d - 1).max() * np.finfo(float).tiny)
        assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want)) + atol

    @pytest.mark.parametrize("eta", [0.02, 0.5, 0.9, 0.9266, 0.999, 1.0])
    @pytest.mark.parametrize("d", [2, 61, 62, 181, 182, 198, 301, 1001, 1030])
    def test_table_bitwise_equal_to_the_elementwise_power(self, d, eta, largest_table):
        # the table is built in place, with the powers of (1-eta) read through a
        # Toeplitz view; its values must equal those of the d x d power below,
        # bit for bit, both from the table's own binomials and from a block cut
        # from a larger binomial table
        n = np.arange(d)
        kept, lost = n[:, None], np.maximum(n[None, :] - n[:, None], 0)
        want = np.sqrt(binomial_table(d - 1).T * eta**kept * (1.0 - eta) ** lost)
        for binom in (None, largest_table):
            got = _loss_table(d, eta, binom)
            assert got.flags.c_contiguous
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d", [2, 181, 182, 301, 1030])
    def test_table_memory_order_is_pinned(self, d):
        # the last bits of the per-lag loop depend on the memory order of the
        # table, where numpy would pick C order up to d = 181 and F order from
        # d = 182 on; the table is C order at every d, so that a block cut from
        # a larger table, as a sweep passes it to every row, has the bits of
        # the smaller table
        assert _loss_table(d, 0.9).flags.c_contiguous

    def test_table_build_holds_only_the_array_it_returns(self, largest_table):
        # amp is the only d x d array the build allocates, 1.0 d^2 doubles;
        # gathering the (1-eta) powers through a d x d index table instead of
        # the Toeplitz view takes the peak to 3.0 d^2
        d = 1001
        tracemalloc.start()
        try:
            _loss_table(d, 0.9, largest_table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * d * d * 8

    def test_overflowing_binomials_raise(self, largest_table):
        # binomials of 1030 overflow double: the check comes before any table is
        # built, and names the first row that overflows whatever d is
        for d, binom in [(1031, None), (1031, largest_table), (10**9, None)]:
            with pytest.raises(ValueError, match="non-finite: binomials of 1030 overflow"):
                _loss_table(d, 0.9, binom)


class TestBlockedRoute:
    # an input on more than _LOOP_MAX_LAGS lags runs its lags from
    # _LOOP_LOW_LAGS on in blocks, with products of W_0 for each loss leg;
    # the per-lag loop, _lag_round_trip, is the reference

    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(_LOOP_MAX_LAGS, 400),
        eta=st.floats(0.02, 1.0),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.3]),
    )
    @example(m=64, eta=0.02, seed=0, zero_frac=0.0)  # the smallest blocked input: 65 lags
    @example(m=400, eta=1.0, seed=0, zero_frac=0.0)
    @example(m=400, eta=0.02, seed=1, zero_frac=0.3)
    def test_every_lag_matches_the_per_lag_loop(self, m, eta, seed, zero_frac, largest_table):
        # non-negative amplitudes, like every state a sweep runs, with zeroed
        # sites so that blocks skip lags.  Each lag lies within 1e-12 of its
        # largest entry, plus the floor of entries the loop loses to underflow
        # (see test_loss_composes_per_lag), and each lag sum within 2e-14 of
        # the largest lag sum; measured worst cases are 1.3e-13 and 6.3e-15
        rng = np.random.default_rng(seed)
        amps = np.abs(rng.normal(size=m + 1))
        amps[rng.random(m + 1) < zero_frac] = 0.0
        assume(amps.any())
        amps /= np.linalg.norm(amps)
        ks = _occupied_lags(amps)
        assume(ks.size > _LOOP_MAX_LAGS)
        d = m + 1
        table = _loss_table(d, eta, largest_table)
        got = _round_trip(amps, eta, table)
        assert list(got) == ks.tolist()
        floor = d * math.sqrt(largest_table[:d, :d].max() * np.finfo(float).tiny)
        sums = []
        for k in map(int, ks):
            want = _lag_round_trip(amps, table, k)
            if k < _LOOP_LOW_LAGS:
                assert np.array_equal(got[k], want)
            assert got[k].shape == want.shape
            assert np.max(np.abs(got[k] - want)) <= 1e-12 * np.max(np.abs(want)) + floor, k
            sums.append((got[k].sum(), want.sum()))
        got_sums, want_sums = np.array(sums).T
        assert np.max(np.abs(got_sums - want_sums)) <= 2e-14 * np.max(np.abs(want_sums))

    @pytest.mark.parametrize("eta", [0.05, 0.9])
    @pytest.mark.parametrize("m", [1028, 1029])  # 1029: the largest top index a row may have
    def test_largest_inputs_are_finite_and_match_the_loop(self, m, eta, largest_table):
        # at eta = 0.05, eta^a underflows from a = 249 on and every lag from
        # about 500 on is zero: no scale factor may turn a zero or subnormal
        # entry into NaN.  The loop's own trace misses 1 by 7.5e-13 here
        d = m + 1
        amps = _sine_amplitudes(m)
        table = _loss_table(d, eta, largest_table)
        lags = _round_trip(amps, eta, table)
        assert list(lags) == list(range(d))
        assert all(np.isfinite(lag).all() for lag in lags.values())
        assert abs(lags[0].sum() - 1.0) <= 2e-12
        for k in (1, d // 2, d - 2):
            want = _lag_round_trip(amps, table, k)
            assert np.max(np.abs(lags[k] - want)) <= 1e-12 * np.max(np.abs(want)), k

    def test_peak_memory_is_the_tables_and_one_block(self, largest_table):
        # tracemalloc sees numpy's arrays, not OpenBLAS's packing buffers.  At
        # m = 1000 the loss table (amp, d^2 doubles) is built in place, and the
        # blocked route adds W_0 = amp^2 (d^2), the lags (d^2 / 2) and one block
        # of 64 lags; products over all lags at once peak at 8.0 d^2
        d = 1001
        amps = _sine_amplitudes(d - 1)
        tracemalloc.start()
        try:
            _round_trip(amps, 0.9, _loss_table(d, 0.9, largest_table))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.0 * d * d * 8

    # cut from tables of every size up to the binomial limit: loop lags 0 and 1
    # at d = 181 and 182 (numpy's own order flips there), M&M splittings, the
    # smallest and largest inputs, and eta where eta^a underflows or loss is nil
    @settings(max_examples=50, deadline=None)
    @given(
        d=st.integers(1, 1030),
        extra=st.integers(0, 1029),
        eta=st.one_of(st.sampled_from([0.02, 0.9, 1.0]), st.floats(0.02, 1.0)),
        kind=st.sampled_from(["sine", "mm", "random"]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d=181, extra=120, eta=0.9, kind="sine", seed=0)
    @example(d=182, extra=119, eta=0.9, kind="sine", seed=0)
    @example(d=182, extra=0, eta=0.02, kind="mm", seed=0)
    @example(d=198, extra=103, eta=1.0, kind="mm", seed=1)
    @example(d=181, extra=849, eta=0.02, kind="random", seed=2)
    @example(d=1, extra=1029, eta=0.9, kind="sine", seed=0)
    @example(d=1030, extra=0, eta=0.9, kind="sine", seed=0)
    @example(d=301, extra=729, eta=0.9, kind="sine", seed=0)
    def test_a_block_of_a_larger_table_gives_the_same_bits(
            self, d, extra, eta, kind, seed, largest_table):
        # a sweep builds one table for its largest row and every row reads the
        # top-left block of its size: each lag must have the bits it has
        # through a table of exactly d rows, on the loop and the blocked route
        big = min(d + extra, 1030)
        rng = np.random.default_rng(seed)
        if kind == "sine":
            amps = _sine_amplitudes(d - 1) if d > 1 else np.ones(1)
        elif kind == "mm":
            assume(d > 1)
            amps = _mm_amplitudes(MmStateSpec(d - 1, int(rng.integers(d - 1))))
        else:
            amps = np.abs(rng.normal(size=d))
            amps /= np.linalg.norm(amps)
        want = _round_trip(amps, eta, _loss_table(d, eta, largest_table))
        got = _round_trip(amps, eta, _loss_table(big, eta, largest_table))
        assert list(got) == list(want)
        for k in want:
            assert np.array_equal(got[k].view(np.uint64), want[k].view(np.uint64)), k


class TestOptimalStateOutput:
    def test_large_m_is_finite_with_unit_trace(self):
        rho = optimal_state_output(300, 0.9, 0.0, check=False)
        assert np.isfinite(rho.mat).all()
        assert abs(np.trace(rho.mat).real - 1.0) <= 1e-10

    def test_lossless_limit_is_pure(self):
        m, phi = 5, 0.77
        got = optimal_state_output(m, 1.0, phi)
        u = permutation_unitary(m + 1)
        ref = u @ apply_phase(optimal_phase_state(m).to_density(), phi).mat @ u.T
        assert np.max(np.abs(got.mat - ref)) < 1e-12

    def test_matches_oracle(self):
        m, eta, phi = 2, 0.9, 0.3
        oracle = roundtrip_oracle(
            optimal_phase_state(m), RoundTripConfig(phi, 0.55, eta, eta)
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
        with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
            optimal_state_output(2.5, 0.9, 0.0)


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
        oracle = roundtrip_oracle(mm_state(spec), RoundTripConfig(phi, 0.3, 1.0, 1.0))
        assert np.max(np.abs(got.mat - oracle.mat)) < 1e-12

    def test_matches_oracle_with_loss(self):
        spec, eta, phi = MmStateSpec(3, 1), 0.8, 0.5
        oracle = roundtrip_oracle(mm_state(spec), RoundTripConfig(phi, 1.7, eta, eta))
        assert np.max(np.abs(mm_state_output(spec, eta, phi).mat - oracle.mat)) < 1e-10

    def test_diagonal_real_and_nonnegative(self):
        got = mm_state_output(MmStateSpec(8, 3), 0.6, 1.1)
        diag = np.diag(got.mat)
        assert np.max(np.abs(diag.imag)) == 0.0
        assert float(diag.real.min()) > -1e-12

    def test_output_is_valid_density_matrix(self):
        mm_state_output(MmStateSpec(12, 5), 0.75, 2.2).validate()


class TestOutputMatrix:
    """Both closed forms are assembled by ``_output_matrix`` from their lags."""

    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(1, 8),
        form=st.sampled_from(["rho", "sigma"]),
        frac=st.floats(0.0, 1.0, exclude_max=True),
        eta=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
        phi=st.floats(-20.0, 20.0),
    )
    @example(m=8, form="rho", frac=0.0, eta=0.7, phi=0.4)  # once a diagonal imag of 3.7e-18
    @example(m=5, form="sigma", frac=0.99, eta=0.05, phi=-20.0)
    def test_exactly_hermitian_and_equal_to_the_oracle(self, m, form, frac, eta, phi):
        if form == "rho":
            state, got = optimal_phase_state(m), optimal_state_output(m, eta, phi, check=False)
        else:
            spec = MmStateSpec(m, int(frac * m))  # every m_prime in 0..m-1
            state, got = mm_state(spec), mm_state_output(spec, eta, phi, check=False)
        mat = got.mat
        assert np.array_equal(mat, mat.conj().T)
        assert np.array_equal(np.diag(mat).imag, np.zeros(m + 1))
        oracle = roundtrip_oracle(state, RoundTripConfig(phi, 0.37, eta, eta))
        assert np.max(np.abs(mat - oracle.mat)) <= 1e-12

    def test_rejects_non_finite_phase(self):
        for make in (lambda phi: optimal_state_output(3, 0.9, phi),
                     lambda phi: mm_state_output(MmStateSpec(3, 1), 0.9, phi)):
            with pytest.raises(ValueError, match="phi must be finite"):
                make(math.nan)


def _mm_closed_form(spec, eta):
    """The paper's M&M output as triple sums over first-arm loss i and net
    index shift j, prefactor (1-eta)^(2i-j) eta^(m-i+j); every term is
    positive.  Returns (populations, coherence)."""
    m, mp, delta = spec.m, spec.m_prime, spec.delta
    comb = math.comb

    def pref(i, j):
        return (1.0 - eta) ** (2 * i - j) * eta ** (m - i + j)

    populations = [
        0.5 * math.fsum(
            [pref(i, s - delta) * comb(mp, i) * comb(i + delta, i - s + delta)
             for i in range(max(0, s - delta), mp + 1)]  # fed by |m_prime>
            + [pref(i, s) * comb(m, i) * comb(i, s) for i in range(s, m + 1)]  # fed by |m>
        )
        for s in range(m + 1)
    ]
    coherence = [
        math.fsum(
            pref(i, j) * math.sqrt(comb(mp, i) * comb(m, i) * comb(i + delta, i - j) * comb(i, j))
            for i in range(j, mp + 1)
        )
        for j in range(mp + 1)
    ]
    return np.array(populations), np.array(coherence)


class TestMmClosedForm:
    @settings(max_examples=60, deadline=None)
    @given(
        m_prime=st.integers(0, 30),
        delta=st.integers(1, 30),
        eta=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
    )
    @example(m_prime=5, delta=3, eta=1.0)  # overlapping family, lossless
    @example(m_prime=5, delta=3, eta=0.7)
    def test_coefficients_match_triple_sum(self, m_prime, delta, eta):
        # m <= 60, where the binomials are exact integers; relative wherever
        # the values are normal doubles (eta near 1 drives some subnormal)
        spec = MmStateSpec(m_prime + delta, m_prime)
        populations, coherence = _mm_closed_form(spec, eta)
        lags = mm_output_coefficients(spec, eta)
        tiny = np.finfo(float).tiny
        np.testing.assert_allclose(lags[0], populations, rtol=1e-14, atol=tiny)
        np.testing.assert_allclose(2 * lags[spec.delta], coherence, rtol=1e-14, atol=tiny)

    def test_validation_gate_runs_one_round_trip_per_cell(self, monkeypatch):
        # 21 (m, m_prime) pairs at max_m = 8, times 3 transmissivities; the
        # 3 phases of a cell share its coefficients, and a second gate run
        # builds them all again, so no state is carried between runs
        built = []

        def counting(spec):
            built.append(spec)
            return _mm_amplitudes(spec)

        monkeypatch.setattr(protocol_mod, "_mm_amplitudes", counting)
        validate_closed_forms(8)
        validate_closed_forms(8)
        assert len(built) == 2 * 63

    def test_validation_gate_runs_one_sine_round_trip_per_m_and_eta(self, monkeypatch):
        # 8 values of m times 3 transmissivities, in each of two gate runs;
        # the 3 phases share the lags
        built = []

        def counting(m):
            built.append(m)
            return _sine_amplitudes(m)

        monkeypatch.setattr(protocol_mod, "_sine_amplitudes", counting)
        validate_closed_forms(8)
        validate_closed_forms(8)
        assert len(built) == 2 * 24

    @pytest.mark.parametrize("m", [100, 197, 300])
    @pytest.mark.parametrize("mp, eta", [(3, 0.9), (3, 0.5), (0, 0.9), (4, 0.97)])
    def test_error_terms_match_triple_sum_at_large_m(self, m, mp, eta):
        # above m = 60 the engine's binomials come from log-gamma sums
        spec = MmStateSpec(m, mp)
        populations, coherence = _mm_closed_form(spec, eta)
        terms = mm_error_terms(spec, eta)
        mean_square = math.fsum([*populations[: mp + 1], *populations[spec.delta :]])
        assert terms.mean_square == pytest.approx(mean_square, rel=2e-12, abs=0.0)
        assert terms.coherence == pytest.approx(math.fsum(coherence), rel=2e-12, abs=0.0)


class TestValidateClosedForms:
    @pytest.mark.parametrize("max_m, message", [
        (0, "max_m must be >= 1"),  # a report of no cells has no max_dev
        (2.5, "max_m must be an integer, got 2.5"),
    ])
    def test_rejects_bad_max_m(self, max_m, message):
        with pytest.raises(ValueError, match=message):
            validate_closed_forms(max_m)

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
        lossless = [c for c in validate_closed_forms(1).cells if c.eta == 1.0]
        assert len(lossless) == 6  # 3 phases x (the sine state and the one M&M splitting)
        assert max(c.max_dev for c in lossless) < 1e-14

    @pytest.mark.parametrize("max_m", range(1, 9))
    def test_cells_equal_the_per_cell_oracle_loop(self, max_m):
        # the reference is the loop the stacked gate replaced: one checked
        # oracle run and one assembled output per cell; max_dev must match
        # bit for bit and the worst element exactly
        want = []
        for m in range(1, max_m + 1):
            specs = [MmStateSpec(m, mp) for mp in sorted({0, m // 2, m - 1})]
            for eta in (0.5, 0.9, 1.0):
                sine_lags = _round_trip(_sine_amplitudes(m), eta)
                mm_lags = [mm_output_coefficients(spec, eta) for spec in specs]
                for phi in (0.0, 0.3, 1.2):
                    cfg = RoundTripConfig(phi, 0.37, eta, eta)
                    runs = [("rho", -1, optimal_phase_state(m), sine_lags)]
                    runs += [("sigma", s.m_prime, mm_state(s), lags) for s, lags in zip(specs, mm_lags)]
                    for form, mp, state, lags in runs:
                        closed = _output_matrix(lags, phi)
                        diff = np.abs(closed - roundtrip_oracle(state, cfg).mat)
                        worst = np.unravel_index(int(np.argmax(diff)), diff.shape)
                        want.append((form, m, mp, eta, phi, float(diff[worst]).hex(),
                                     tuple(int(x) for x in worst)))
        got = [(c.form, c.m, c.m_prime, c.eta, c.phi, c.max_dev.hex(), c.worst_element)
               for c in validate_closed_forms(max_m).cells]
        assert got == want

    @pytest.mark.parametrize("eta", protocol_mod._VALIDATION_ETAS)
    def test_a_block_of_a_larger_channel_is_the_smaller_channel(self, eta):
        # the gate builds one loss channel per eta for its max_m and hands each m
        # the top-left block: a Kraus element does not depend on the dimension,
        # and loss never adds photons, so the block is the smaller channel, bit
        # for bit and with as many Kraus matrices
        big = loss_channel(eta, 13).kraus
        for d in range(1, 14):
            block = np.ascontiguousarray(big[:d, :d, :d])
            assert np.array_equal(block, loss_channel(eta, d).kraus), d

    def test_one_stacked_round_trip_per_m_and_eta(self, monkeypatch):
        # 8 values of m times 3 transmissivities: each (m, eta) pushes the stack
        # of its 3 phases x (the sine state and its M&M splittings) through one
        # Kraus round trip, checked as density matrices at once, and the gate
        # builds one binomial table in all
        stacks, checked, tables = [], [], []
        kraus_round_trip = protocol_mod._kraus_round_trip

        def counting_round_trip(mats, phis, *args):
            stacks.append(np.broadcast_shapes(mats.shape[:-2], np.shape(phis)))
            return kraus_round_trip(mats, phis, *args)

        def counting_check(mats):
            checked.append(mats.shape[:-2])
            _check_density(mats)

        def counting_table(nmax):
            tables.append(nmax)
            return binomial_table(nmax)

        def no_oracle(*args):
            raise AssertionError("the gate runs no per-cell oracle")

        monkeypatch.setattr(protocol_mod, "_kraus_round_trip", counting_round_trip)
        monkeypatch.setattr(protocol_mod, "_check_density", counting_check)
        monkeypatch.setattr(protocol_mod, "binomial_table", counting_table)
        monkeypatch.setattr(protocol_mod, "roundtrip_oracle", no_oracle)
        monkeypatch.setattr(protocol_mod, "roundtrip_step", no_oracle)
        validate_closed_forms(8)
        assert stacks == [(3, 1 + len({0, m // 2, m - 1})) for m in range(1, 9) for _ in range(3)]
        assert checked == stacks
        assert tables == [8]
