import math

import numpy as np
import pytest

from interferolab import (
    DensityMatrix,
    FockVector,
    KrausChannel,
    MmErrorTerms,
    MmStateSpec,
    OutcomeDistribution,
    RoundTripConfig,
    TwoModeFockVector,
    apply_channel,
    apply_phase,
    baselines,
    expectation,
    loss_channel,
    mm_observable,
    mm_output_coefficients,
    mm_phase_error,
    mm_phase_error_closed,
    mm_state_output,
    no_state,
    noon_phase_error,
    noon_phase_error_brute,
    noon_state,
    optimal_phase_state,
    optimal_state_output,
    pegg_barnett_vector,
    permutation_unitary,
    phase_error_summary,
    povm_distribution,
    two_mode_phase,
    validate_closed_forms,
)
from interferolab.fock import _check_density, binomial_table


def basis(dim, n):
    amps = np.zeros(dim)
    amps[n] = 1.0
    return FockVector(amps)


class TestFockVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            FockVector([1.0, 1.0])

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            FockVector([])
        with pytest.raises(ValueError):
            FockVector([np.nan, 0.0])

    def test_accepts_strided_amplitudes(self):
        amps = np.zeros(8, dtype=complex)
        amps[0] = 1.0
        assert np.array_equal(FockVector(amps[::2]).amps, [1.0, 0.0, 0.0, 0.0])

    def test_immutable(self):
        v = basis(3, 1)
        with pytest.raises(ValueError):
            v.amps[0] = 1.0


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix([[0.5, 0.1], [0.3, 0.5]])

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix([[1.5, 0.0], [0.0, -0.5]])

    def test_from_pure(self):
        rho = basis(4, 2).to_density()
        rho.validate()
        assert rho.trace() == pytest.approx(1.0)
        assert rho.mat[2, 2] == pytest.approx(1.0)


class TestApplyPhase:
    def test_single_photon_pi_flips_sign(self):
        # the coherence of |0> and |1> picks up exp(i*pi) = -1
        rho = FockVector(np.array([1.0, 1.0]) / math.sqrt(2)).to_density()
        out = apply_phase(rho, math.pi)
        assert abs(out.mat[1, 0] + 0.5) < 1e-12

    def test_zero_phase_is_identity(self):
        rho = FockVector(np.array([1.0, 0.0, 1.0]) / math.sqrt(2)).to_density()
        assert np.array_equal(apply_phase(rho, 0.0).mat, rho.mat)

    def test_superposition_half_pi(self):
        rho = FockVector(np.array([1.0, 0.0, 1.0]) / math.sqrt(2)).to_density()
        out = apply_phase(rho, math.pi / 2)
        want = np.outer([1.0, 0.0, -1.0], [1.0, 0.0, -1.0]) / 2
        assert np.max(np.abs(out.mat - want)) < 1e-12

    def test_density_matrix_elements(self):
        rho = FockVector(np.array([1.0, 1.0]) / math.sqrt(2)).to_density()
        out = apply_phase(rho, 0.3)
        assert out.mat[0, 1] == pytest.approx(0.5 * np.exp(-0.3j), abs=1e-14)
        assert out.trace() == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            apply_phase(basis(2, 0).to_density(), math.inf)


class TestLossChannel:
    def test_no_loss_is_identity(self):
        ch = loss_channel(1.0, 5)
        assert len(ch.kraus) == 1
        assert np.array_equal(ch.kraus[0], np.eye(5))

    def test_single_photon_amplitudes(self):
        # expanding the Kraus operator expression by hand at n = 1:
        # K_0 |1> = sqrt(eta) |1>,  K_1 |1> = sqrt(1 - eta) |0>
        eta = 0.73
        ch = loss_channel(eta, 2)
        one = np.array([0.0, 1.0])
        assert np.allclose(ch.kraus[0] @ one, [0.0, math.sqrt(eta)])
        assert np.allclose(ch.kraus[1] @ one, [math.sqrt(1 - eta), 0.0])

    def test_fock_populations_follow_binomial_survival(self):
        # independent oracle: each of the 5 photons survives with prob eta
        eta, n = 0.9, 5
        rho = apply_channel(basis(n + 1, n).to_density(), loss_channel(eta, n + 1))
        want = [math.comb(n, k) * eta**k * (1 - eta) ** (n - k) for k in range(n + 1)]
        assert np.max(np.abs(np.diag(rho.mat).real - want)) < 1e-12
        assert rho.mat[n, n].real == pytest.approx(0.59049, abs=1e-12)
        off = rho.mat - np.diag(np.diag(rho.mat))
        assert np.max(np.abs(off)) < 1e-15

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.0001])
    def test_rejects_bad_transmissivity(self, eta):
        with pytest.raises(ValueError):
            loss_channel(eta, 4)

    @pytest.mark.parametrize("eta", [0.0, -0.2, 1.0001, math.nan])
    @pytest.mark.parametrize("make", [
        lambda eta: loss_channel(eta, 4),
        lambda eta: RoundTripConfig(0.1, 0.0, 0.9, eta),
        lambda eta: optimal_state_output(3, eta, 0.1),
        lambda eta: mm_output_coefficients(MmStateSpec(3, 1), eta),
        lambda eta: baselines(2.0, eta),
        lambda eta: noon_phase_error(2, eta, 0.1),
    ], ids=["loss_channel", "RoundTripConfig", "optimal_state_output",
            "mm_output_coefficients", "baselines", "noon_phase_error"])
    def test_every_transmissivity_check_is_the_same(self, make, eta):
        with pytest.raises(ValueError, match=r"^transmissivity must be in \(0, 1\], got "):
            make(eta)

    def test_kraus_matrices_are_read_only(self):
        # each call builds a fresh channel; its matrices are read-only
        ch = loss_channel(0.9, 5)
        assert not any(k.flags.writeable for k in ch.kraus)
        with pytest.raises(ValueError):
            ch.kraus[1][0, 1] = 1.0

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("dim", [2, 9, 33])
    def test_kraus_completeness(self, eta, dim):
        ch = loss_channel(eta, dim)
        comp = sum(k.conj().T @ k for k in ch.kraus)
        assert np.max(np.abs(comp - np.eye(dim))) < 1e-10


class TestApplyChannel:
    def test_identity_channel(self, random_density):
        rho = random_density(6)
        from interferolab import KrausChannel

        ident = KrausChannel([np.eye(6)])
        assert np.max(np.abs(apply_channel(rho, ident).mat - rho.mat)) == 0.0

    def test_channel_rejects_incomplete_kraus_set(self):
        # every channel is checked: sum K^dag K = 1 - 0.75 misses by 0.25
        from interferolab import KrausChannel

        with pytest.raises(ValueError, match="completeness"):
            KrausChannel([0.5 * np.eye(3)])

    def test_channel_rejects_entries_that_are_not_matrices(self):
        # the entries of a 1-D array are 0-d: no shape to read a dimension from
        with pytest.raises(ValueError, match="^Kraus matrices must share a square, non-empty shape$"):
            KrausChannel(np.ones(3))

    def test_channel_rejects_an_empty_matrix(self):
        # a 0 x 0 matrix is square, but has no completeness to check
        with pytest.raises(ValueError, match="^Kraus matrices must share a square, non-empty shape$"):
            KrausChannel([np.zeros((0, 0))])

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.9, 1.0])
    def test_batched_product_matches_the_kraus_loop(self, eta, random_density):
        from interferolab import two_mode_loss_channel

        channels = [loss_channel(eta, d) for d in range(1, 13)]
        channels += [two_mode_loss_channel(eta, 0.6, dims) for dims in [(2, 3), (3, 4), (4, 3), (2, 6)]]
        for ch in channels:
            rho = random_density(ch.dim)
            want = np.zeros_like(rho.mat)
            for k in ch.kraus:
                want += k @ rho.mat @ k.conj().T
            assert np.max(np.abs(apply_channel(rho, ch).mat - want)) <= 1e-15

    def test_vacuum_is_loss_invariant(self):
        rho = basis(4, 0).to_density()
        out = apply_channel(rho, loss_channel(0.4, 4))
        assert np.max(np.abs(out.mat - rho.mat)) < 1e-15

    def test_half_transmissive_single_photon(self):
        out = apply_channel(basis(2, 1).to_density(), loss_channel(0.5, 2))
        assert np.allclose(out.mat, np.diag([0.5, 0.5]))

    def test_dimension_mismatch(self, random_density):
        with pytest.raises(ValueError, match="mismatch"):
            apply_channel(random_density(3), loss_channel(0.5, 4))

    @pytest.mark.parametrize("eta", [0.3, 0.5, 0.9, 1.0])
    def test_trace_and_positivity_preserved(self, random_density, eta):
        for dim in (2, 17, 64):
            rho = random_density(dim)
            out = apply_channel(rho, loss_channel(eta, dim))
            assert abs(out.trace() - 1.0) < 1e-10
            assert np.linalg.eigvalsh(out.mat)[0] > -1e-9

    def test_loss_commutes_with_phase(self, random_density):
        rho = random_density(12)
        ch = loss_channel(0.7, 12)
        a = apply_channel(apply_phase(rho, 0.9), ch)
        b = apply_phase(apply_channel(rho, ch), 0.9)
        assert np.max(np.abs(a.mat - b.mat)) < 1e-12


class TestPermutationUnitary:
    def test_reversal_mapping(self):
        u = permutation_unitary(4)
        for src, dst in [(0, 3), (1, 2), (2, 1), (3, 0)]:
            assert (u @ basis(4, src).amps)[dst] == 1.0

    def test_involution_is_exact(self, random_density):
        u = permutation_unitary(9)
        rho = random_density(9).mat
        assert np.array_equal(u @ (u @ rho @ u.T) @ u.T, rho)
        assert np.array_equal(u @ u, np.eye(9))
        assert set(np.unique(u)) <= {0.0, 1.0}

    @pytest.mark.parametrize("dim", range(1, 13))
    def test_read_only_and_its_own_inverse(self, dim):
        u = permutation_unitary(dim)
        assert not u.flags.writeable
        with pytest.raises(ValueError):
            u[0, 0] = 1.0
        assert np.array_equal(u @ u, np.eye(dim))
        assert np.array_equal(u, np.eye(dim)[::-1])

    def test_m_zero_is_identity(self):
        # top index m = 0: the one level |0> maps to itself
        assert np.array_equal(permutation_unitary(1), np.eye(1))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            permutation_unitary(0)


class TestExpectation:
    def test_identity_observable(self, random_density):
        assert expectation(random_density(5), np.eye(5)) == pytest.approx(1.0)

    def test_number_operator(self):
        num = np.diag(np.arange(6.0))
        assert expectation(basis(6, 3).to_density(), num) == pytest.approx(3.0)

    def test_rejects_non_hermitian(self, random_density):
        obs = np.zeros((4, 4))
        obs[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            expectation(random_density(4), obs)

    def test_dimension_mismatch(self, random_density):
        with pytest.raises(ValueError):
            expectation(random_density(4), np.eye(5))


# a comparison such as x > tol is False for NaN, so each check is written to
# fail unless its condition holds
@pytest.mark.parametrize("make, message", [
    (lambda: DensityMatrix([[math.nan]]), "^not Hermitian: .* = nan$"),
    (lambda: _check_density(np.array([[[1.0]], [[math.nan]]])), "^not Hermitian: .* = nan$"),
    (lambda: KrausChannel([[[math.nan]]]), "^Kraus completeness violated by nan$"),
    (lambda: OutcomeDistribution([math.nan, 0.5], 0.0), "^probabilities sum to nan$"),
    (lambda: TwoModeFockVector([[math.nan]]), "^non-finite amplitude$"),
    (lambda: MmErrorTerms(math.nan, math.nan, 2), "^mean_square must be non-negative$"),
    (lambda: expectation(basis(1, 0).to_density(), [[math.nan]]), "^observable not Hermitian"),
], ids=["DensityMatrix", "stacked_check_density", "KrausChannel", "OutcomeDistribution",
        "TwoModeFockVector", "MmErrorTerms", "expectation"])
def test_every_check_rejects_nan(make, message):
    with pytest.raises(ValueError, match=message):
        make()


# _replace builds through __new__, so a changed copy is checked as a new value is
@pytest.mark.parametrize("make, message", [
    (lambda: basis(2, 0)._replace(amps=[1.0, 1.0]), "^state needs unit norm"),
    (lambda: TwoModeFockVector(np.eye(2) / math.sqrt(2.0))._replace(amps=np.eye(2)),
     "^state needs unit norm"),
    (lambda: basis(2, 0).to_density()._replace(mat=[[0.5, 1.0], [0.0, 0.5]]), "^not Hermitian"),
    (lambda: loss_channel(0.9, 3)._replace(kraus=[0.5 * np.eye(3)]),
     "^Kraus completeness violated"),
    (lambda: OutcomeDistribution([0.5, 0.5], 0.0)._replace(probs=[0.25, 0.25]),
     "^probabilities sum to 0.5$"),
    (lambda: RoundTripConfig(0.1, 0.2, 0.9, 0.8)._replace(eta1=1.5),
     r"^transmissivity must be in \(0, 1\], got 1.5$"),
], ids=["FockVector", "TwoModeFockVector", "DensityMatrix", "KrausChannel",
        "OutcomeDistribution", "RoundTripConfig"])
def test_replace_reruns_the_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


ARRAY_OWNERS = {
    "FockVector": lambda: FockVector([0.6, 0.8]),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2.0),
    "KrausChannel": lambda: KrausChannel([np.eye(2)]),
    "TwoModeFockVector": lambda: TwoModeFockVector(np.eye(2) / math.sqrt(2.0)),
    "OutcomeDistribution": lambda: OutcomeDistribution([0.5, 0.5], 0.0),
}


@pytest.mark.parametrize("make", list(ARRAY_OWNERS.values()), ids=list(ARRAY_OWNERS))
def test_array_owners_compare_and_hash_by_identity(make):
    # a tuple of arrays compared by value would raise numpy's ambiguous-truth error
    a, b = make(), make()
    assert a == a and not a != a
    assert a != b and not a == b
    assert a._replace() != a  # a copy through _replace is another owner
    assert hash(a) == object.__hash__(a)


# every Fock size, photon count and grid size is checked by engine._check_top:
# (entry point, least accepted value)
COUNT_CHECKS = {
    "MmStateSpec-m": (lambda x: MmStateSpec(x, 1), 1),
    "MmStateSpec-m_prime": (lambda x: MmStateSpec(5, x), 0),
    "noon_phase_error": (lambda x: noon_phase_error(x, 0.9, 0.1), 1),
    "permutation_unitary": (permutation_unitary, 1),
    "loss_channel": (lambda x: loss_channel(0.9, x), 1),
    "no_state": (no_state, 1),
    "noon_state": (noon_state, 1),
    "pegg_barnett_vector": (lambda x: pegg_barnett_vector(x, 0.1), 0),
    "noon_phase_error_brute": (lambda x: noon_phase_error_brute(x, 0.9, 0.1), 1),
    "phase_error_summary": (lambda x: phase_error_summary(math.cos, 2.0 * math.pi, x), 2),
    "mm_observable-m": (lambda x: mm_observable(x, 1), 1),
    "mm_observable-m_prime": (lambda x: mm_observable(5, x), 0),
    "optimal_phase_state": (optimal_phase_state, 1),
    "optimal_state_output": (lambda x: optimal_state_output(x, 0.9, 0.1), 1),
    "validate_closed_forms": (validate_closed_forms, 1),
    "two_mode_phase-d1": (lambda x: two_mode_phase(basis(4, 0).to_density(), 0.1, (x, x)), 1),
    "two_mode_phase-d2": (lambda x: two_mode_phase(basis(4, 0).to_density(), 0.1, (2, x)), 1),
}


@pytest.mark.parametrize("make, value", [
    pytest.param(make, value, id=f"{name}-{value}")
    for name, (make, least) in COUNT_CHECKS.items()
    for value in ((2.5, math.nan, 0) if least else (2.5, math.nan))
])
def test_every_count_check_is_the_same(make, value):
    with pytest.raises(ValueError, match="must be an integer, got |must be >= "):
        make(value)


# every phase is checked by engine._check_phase
PHASE_CHECKS = {
    "apply_phase": lambda x: apply_phase(basis(2, 0).to_density(), x),
    "pegg_barnett_vector": lambda x: pegg_barnett_vector(3, x),
    "RoundTripConfig-phi": lambda x: RoundTripConfig(x, 0.0, 0.9, 0.9),
    "RoundTripConfig-theta": lambda x: RoundTripConfig(0.1, x, 0.9, 0.9),
    "optimal_state_output": lambda x: optimal_state_output(3, 0.9, x),
    "mm_state_output": lambda x: mm_state_output(MmStateSpec(3, 1), 0.9, x),
    "two_mode_phase": lambda x: two_mode_phase(
        TwoModeFockVector(np.eye(2) / math.sqrt(2.0)).to_density_flat(), x, (2, 2)),
    "noon_phase_error": lambda x: noon_phase_error(2, 0.9, x),
    "noon_phase_error_brute": lambda x: noon_phase_error_brute(2, 0.9, x),
    "mm_phase_error_closed": lambda x: mm_phase_error_closed(MmErrorTerms(0.5, 0.2, 2), x),
    "mm_phase_error": lambda x: mm_phase_error(
        mm_state_output(MmStateSpec(3, 1), 0.9, 0.1), MmStateSpec(3, 1), x),
    "OutcomeDistribution": lambda x: OutcomeDistribution([0.5, 0.5], x),
    "povm_distribution": lambda x: povm_distribution(basis(2, 0).to_density(), x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("make", list(PHASE_CHECKS.values()), ids=list(PHASE_CHECKS))
def test_every_phase_check_is_the_same(make, value):
    with pytest.raises(ValueError, match="must be finite$"):
        make(value)


class TestBinomial:
    @pytest.mark.parametrize("nmax", [6, 60, 75])
    def test_table_matches_scalar(self, nmax):
        # rows up to 60 come from exact integers, rows above from log-gamma;
        # math.comb is 0 above the diagonal
        tbl = binomial_table(nmax)
        for a in range(nmax + 1):
            for b in range(nmax + 1):
                want = float(math.comb(a, b))
                if a <= 60:
                    assert tbl[a, b] == want, (a, b)
                else:
                    assert tbl[a, b] == pytest.approx(want, rel=1e-12), (a, b)

    @pytest.mark.parametrize("nmax", [0, 1, 5, 59, 60, 61, 100, 197, 300, 1029, 1100])
    def test_bitwise_equal_to_the_full_block_formula(self, nmax):
        # log-gamma is evaluated only for the rows above the exact block; the
        # table must equal the formula evaluated on the whole block, bit for bit
        want = np.zeros((nmax + 1, nmax + 1))
        top = min(nmax, 60)
        want[: top + 1, : top + 1] = [[math.comb(a, b) for b in range(top + 1)]
                                      for a in range(top + 1)]
        if nmax > 60:
            lf = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, nmax + 1)))))
            a = np.arange(nmax + 1)[:, None]
            b = np.arange(nmax + 1)[None, :]
            with np.errstate(invalid="ignore", over="ignore"):
                big = np.exp(lf[a] - lf[np.minimum(b, a)] - lf[np.maximum(a - b, 0)])
            big[b > a] = 0.0
            want[top + 1 :] = big[top + 1 :]
        with np.errstate(over="ignore"):
            got = binomial_table(nmax)
        assert got.strides == want.strides
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_returns_a_fresh_array(self):
        # the exact rows are one shared block; writing a result must not reach it
        want = binomial_table(70).copy()
        for nmax in (70, 10):
            binomial_table(nmax)[:] = -1.0
        assert np.array_equal(binomial_table(70), want)
        assert np.array_equal(binomial_table(10), want[:11, :11])
