import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

import sympcap.core as core
from sympcap.core import (
    DEFAULT_SYMPLECTIC_TOL,
    QuadraticHamiltonian,
    SymplecticMatrix,
    _certify,
    _defects,
    _expm,
    _random_symplectic_stack,
    matrix_from_json,
    matrix_to_json,
    random_symplectic,
    standard_form,
    symplectic_eigenvalues,
    williamson,
)
from sympcap.errors import NotPositiveDefinite, NumericalDegeneracy

from oracles import (
    certify_oracle,
    isotropic_hamiltonian,
    jm_spectrum,
    pd_matrix_with_condition,
    random_pd_matrix,
)


class TestStandardForm:
    def test_blocks(self):
        J = standard_form(2)
        assert np.array_equal(J[:2, 2:], np.eye(2))
        assert np.array_equal(J[2:, :2], -np.eye(2))

    def test_j_squared_is_minus_identity(self):
        J = standard_form(3)
        assert np.array_equal(J @ J, -np.eye(6))
        assert np.array_equal(J.T, -J)

    def test_shared_and_read_only(self):
        J = standard_form(2)
        assert standard_form(2) is J
        with pytest.raises(ValueError, match="read-only"):
            J[0, 2] = 5.0
        assert np.array_equal(J, np.eye(4, k=2) - np.eye(4, k=-2))

    def test_memo_bounded(self):
        assert standard_form.cache_info().maxsize is not None
        for n in range(1, standard_form.cache_info().maxsize + 5):
            standard_form(n)
        assert standard_form.cache_info().currsize == standard_form.cache_info().maxsize


class TestRealRead:
    @pytest.mark.parametrize("value", [
        0, 1, -3, 2**53 + 1, 10**20, 0.1, -0.0, 5e-324, 1e308, float("inf"), float("nan"),
        np.float64(0.1), np.float32(0.1), np.int64(-7), np.float64(-0.0),
    ])
    def test_same_bits_as_float(self, value):
        # the exact float and int read and the numbers.Real read give float(value)
        want = np.float64(float(value)).view(np.int64)
        assert np.float64(core._real("x", value)).view(np.int64) == want
        assert np.float64(core._reals("x", [value])[0]).view(np.int64) == want


class TestIsSymplectic:
    def test_identity(self):
        assert SymplecticMatrix(np.eye(4), 1e-10).n == 2

    def test_area_preserving_scaling(self):
        assert SymplecticMatrix(np.diag([2.0, 0.5]), 1e-10).n == 1

    def test_area_scaling_by_four_fails(self):
        with pytest.raises(ValueError, match="symplectic defect"):
            SymplecticMatrix(np.diag([2.0, 2.0]), 1e-10)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            SymplecticMatrix(np.eye(3))


class TestRandomSymplectic:
    def test_small_sigma_is_near_identity(self):
        S = random_symplectic(2, 1e-12, seed=5)
        assert np.allclose(S.matrix, np.eye(4), atol=1e-10)

    def test_determinant_one(self):
        S = random_symplectic(1, 1.0, seed=42)
        assert abs(np.linalg.det(S.matrix) - 1.0) <= 1e-9

    def test_defect(self):
        S = random_symplectic(3, 0.5, seed=7)
        assert _defects(S.matrix) <= 1e-9

    def test_deterministic(self):
        assert np.array_equal(random_symplectic(2, 1.0, 9).matrix,
                              random_symplectic(2, 1.0, 9).matrix)


def generator_stack(N, count, sigma, seed):
    """J A for A symmetric Gaussian of scale sigma, as `_random_symplectic_stack`
    builds it before the exponential."""
    G = np.random.default_rng(seed).normal(0.0, sigma, size=(count, 2 * N, 2 * N))
    return standard_form(N) @ (0.5 * (G + np.swapaxes(G, 1, 2)))


class TestExpm:
    """The batched Pade 13 against scipy's expm, member by member."""

    @pytest.mark.parametrize("N", [1, 2, 4, 6, 8, 10])
    @pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0, 4.0, 5.0])
    def test_matches_scipy_member_by_member(self, N, sigma):
        # |S - expm| <= 1500 eps max|expm| (1 + |A|_1), the 1-norm standing for
        # the condition of exp. Measured worst: 584 (N = 1, sigma = 3), a 2.5x
        # margin. It is scipy's error: on that member a 50-digit mpmath exp is
        # within 12 eps max|S| of S and 3.6e3 of scipy's. Taking s one lower
        # reaches 3.5e4, one squaring fewer 1.5e15.
        A = generator_stack(N, 200, sigma, 10 * N + int(sigma))
        S = _expm(A)
        eps = np.finfo(float).eps
        for k in range(len(A)):
            want = expm(A[k])
            bound = 1500 * eps * np.abs(want).max() * (1 + np.abs(A[k]).sum(axis=0).max())
            assert np.abs(S[k] - want).max() <= bound, k
        assert certify_oracle(S, DEFAULT_SYMPLECTIC_TOL) is None

    def test_zero_stack_is_identity(self):
        assert np.array_equal(_expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))

    @pytest.mark.parametrize("N", [1, 2, 3, 6])
    @pytest.mark.parametrize("sigma", [1.0, 5.0])
    def test_stacked_member_equals_solo(self, N, sigma):
        # at sigma 5 the members of one stack take 0 to 4 squarings
        A = generator_stack(N, 40, sigma, N)
        S = _expm(A)
        for k in range(len(A)):
            assert np.array_equal(_expm(A[k:k + 1])[0], S[k]), k

    @pytest.mark.parametrize("N", [1, 2, 6])
    def test_single_draw_is_scipys(self, N):
        # random_symplectic, shadow --random and nonsqueeze-ensemble --count 1
        # keep scipy's bits; only stacks take the batched kernel
        assert np.array_equal(random_symplectic(N, 3.0, 11).matrix,
                              expm(generator_stack(N, 1, 3.0, 11)[0]))


class TestCertificate:
    """One certificate for one matrix or a stack, checked against the
    member-by-member, entry-by-entry oracle."""

    @staticmethod
    def outcome(stack, tol=DEFAULT_SYMPLECTIC_TOL):
        try:
            _certify(stack, tol)
        except ValueError as exc:
            return str(exc)
        return None

    def test_good_stack_accepted(self):
        stack = _random_symplectic_stack(2, 6, 1.0, np.random.default_rng(4))
        assert certify_oracle(stack, DEFAULT_SYMPLECTIC_TOL) is None
        assert self.outcome(stack) is None

    @pytest.mark.parametrize("position", [0, 3, 6])
    @pytest.mark.parametrize("fault", ["defect", "nan"])
    def test_first_failing_member_as_oracle(self, position, fault):
        stack = _random_symplectic_stack(2, 7, 1.0, np.random.default_rng(5))
        # a second, different fault after the first: reporting it instead
        # of the first would change the message
        for k, factor in ((position, 1.001), (position + 2, 1.01)):
            if k < len(stack):
                stack[k] = np.nan if fault == "nan" and k == position else stack[k] * factor
        k, message = certify_oracle(stack, DEFAULT_SYMPLECTIC_TOL)
        assert k == position
        assert self.outcome(stack) == message
        with pytest.raises(ValueError) as exc:
            SymplecticMatrix(stack[position])
        assert str(exc.value) == message

    @pytest.mark.parametrize("N", [1, 2, 4, 6, 8, 10])
    @pytest.mark.parametrize("sigma", [1.0, 2.0, 3.0, 4.0, 5.0])
    def test_every_draw_certifies(self, N, sigma):
        # the cells of the benchmark's shadow --random sweep, 4 seeds each
        for seed in range(4):
            S = random_symplectic(N, sigma, seed).matrix
            assert certify_oracle(S[None], DEFAULT_SYMPLECTIC_TOL) is None
            assert _defects(S) <= DEFAULT_SYMPLECTIC_TOL

    @pytest.mark.parametrize("N,sigma", [(1, 1.0), (2, 3.0), (4, 5.0), (10, 2.0)])
    def test_perturbed_entry_refused(self, N, sigma):
        S = random_symplectic(N, sigma, 8).matrix
        i, j = np.unravel_index(np.argmax(np.abs(S)), S.shape)
        S[i, j] *= 1 + 1e3 * DEFAULT_SYMPLECTIC_TOL
        k, message = certify_oracle(S[None], DEFAULT_SYMPLECTIC_TOL)
        assert k == 0 and self.outcome(S[None]) == message
        with pytest.raises(ValueError, match=re.escape(message)):
            SymplecticMatrix(S)

    @pytest.mark.parametrize("entries,defect", [
        pytest.param([1e10, 0, 0, 1], "1.000e+00", id="det-1e10"),
        pytest.param([1e200, 0, 0, 1], "1.000e+00", id="det-1e200"),
        pytest.param([np.nan, 0, 0, 1], "nan", id="nan"),
        pytest.param([1, 0, 0, 1 + 1e-9], "5.000e-10", id="off-by-1e-9"),
    ])
    def test_not_symplectic_refused(self, entries, defect):
        S = np.array(entries, dtype=float).reshape(2, 2)
        with pytest.raises(ValueError) as exc:
            SymplecticMatrix(S)
        assert str(exc.value) == f"symplectic defect {defect} exceeds tolerance 1.000e-10"
        assert certify_oracle(S[None], 1e-10) == (0, str(exc.value))
        assert not _defects(S) <= 1e-10

    def test_user_tolerance(self):
        S = np.diag([1.0, 1.0 + 1e-9])
        assert SymplecticMatrix(S, tol=1e-6).tol == 1e-6
        assert certify_oracle(S[None], 1e-6) is None
        with pytest.raises(ValueError, match="symplectic defect 5.000e-10"):
            SymplecticMatrix(S)

    def test_nan_matrix_rejected(self):
        with pytest.raises(ValueError, match="symplectic defect nan exceeds"):
            SymplecticMatrix(np.full((2, 2), np.nan))

    @pytest.mark.parametrize("sigma", [float("nan"), 0.0, -1.0])
    def test_nonpositive_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be finite and positive"):
            random_symplectic(2, sigma, 0)


def assert_normal_form(dec, M, residual=1e-13, defect=1e-14):
    """S^T D S = M within `residual` of max |M|, as recomputed here and as
    reported, and S symplectic within `defect`."""
    S, d = dec.S.matrix, np.concatenate([dec.omegas, dec.omegas])
    assert np.max(np.abs(S.T @ (d[:, None] * S) - M)) <= residual * np.max(np.abs(M))
    assert dec.residual <= residual
    assert certify_oracle(S[None], defect) is None


class TestWilliamson:
    # A degenerate spectrum leaves the basis of each eigenspace to the
    # eigensolver; the normal form must hold whichever basis it picks.
    def test_isotropic_oscillator_frequencies(self):
        # H = (|p|^2 + m^2 w^2 |q|^2) / 2m with m=1, w=2 has spectrum (2, 2)
        H = isotropic_hamiltonian(2, omega=2.0, mass=1.0)
        dec = williamson(H)
        assert np.allclose(dec.omegas, [2.0, 2.0], atol=1e-12)
        assert_normal_form(dec, H.M)

    def test_identity_matrix(self):
        dec = williamson(QuadraticHamiltonian(np.eye(6)))
        assert np.allclose(dec.omegas, np.ones(3), atol=1e-12)
        assert_normal_form(dec, np.eye(6))

    @pytest.mark.parametrize("N", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_conjugated_isotropic(self, N, seed):
        S = random_symplectic(N, 0.5, seed).matrix
        H = QuadraticHamiltonian(S.T @ isotropic_hamiltonian(N, 1.3).M @ S)
        dec = williamson(H)
        assert np.allclose(dec.omegas, 1.3, rtol=1e-13)
        assert_normal_form(dec, H.M)

    def test_single_mode_by_hand(self):
        # eig(JM) for M = diag(1, 4) are +/- 2i
        dec = williamson(QuadraticHamiltonian(np.diag([1.0, 4.0])))
        assert dec.omegas == pytest.approx([2.0], abs=1e-12)
        assert np.allclose(dec.S.matrix, np.diag([1 / np.sqrt(2), np.sqrt(2)]), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("noise_seed", range(4))
    def test_single_mode_canonical_phase_under_noise(self, noise_seed):
        # the eigenvector of iK at +2 is (i, 1) / sqrt2 up to a phase: both
        # entries tie for the largest modulus, whatever the rounding, and the
        # first one is put on the positive imaginary axis
        G = np.random.default_rng(noise_seed).uniform(-1e-15, 1e-15, (2, 2))
        S = williamson(QuadraticHamiltonian(np.diag([1.0, 4.0]) + G + G.T)).S.matrix
        assert np.allclose(S, np.diag([1 / np.sqrt(2), np.sqrt(2)]), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_ill_conditioned_certified_or_numerical(self, N):
        # condition number 1e12: the Schur path refused about half of these
        # as a bad input (symplectic defect above 1e-10, ValueError). A
        # normal form that fails its certificate is a numerical failure
        rng = np.random.default_rng(2026 + N)
        for _ in range(10):
            M = pd_matrix_with_condition(rng, N, 1e12)
            try:
                dec = williamson(QuadraticHamiltonian(M))
            except NumericalDegeneracy as exc:
                assert "symplectic defect" in str(exc)
                continue
            assert_normal_form(dec, QuadraticHamiltonian(M).M, residual=1e-10,
                               defect=DEFAULT_SYMPLECTIC_TOL)

    def test_uncertified_normal_form_is_numerical(self):
        # condition number 1e14: rounding leaves S with a defect of 3.5e-6
        M = pd_matrix_with_condition(np.random.default_rng(210), 3, 1e14)
        with pytest.raises(NumericalDegeneracy, match="symplectic defect .* exceeds tolerance"):
            williamson(QuadraticHamiltonian(M))

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            williamson(QuadraticHamiltonian(np.diag([1.0, -1.0])))

    @pytest.mark.parametrize("d,message", [
        ([1e-300, 1e300], "singular to double precision: smallest eigenvalue 0.000e+00"),
        ([0.0, 1.0], "singular to double precision: smallest eigenvalue 0.000e+00"),
        ([-1e-17, 1.0], "singular to double precision: smallest eigenvalue -1.000e-17"),
        ([-1e-15, 1.0], "smallest eigenvalue -1.000e-15 is not positive"),
    ])
    def test_singular_named(self, d, message):
        # eigh reads diag(1e-300, 1e300) as 0, which once read "not positive"
        with pytest.raises(NotPositiveDefinite, match=re.escape(message)):
            williamson(QuadraticHamiltonian(np.diag(d)))

    def test_positive_definiteness_checked_once(self, monkeypatch):
        checks = []
        require = core._require_positive
        monkeypatch.setattr(core, "_require_positive", lambda w: checks.append(w) or require(w))
        williamson(QuadraticHamiltonian(random_pd_matrix(np.random.default_rng(5), 3)))
        assert len(checks) == 1

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_reconstruction_random_pd(self, N):
        rng = np.random.default_rng(100 + N)
        for _ in range(5):
            M = random_pd_matrix(rng, N)
            dec = williamson(QuadraticHamiltonian(M))
            D = np.diag(np.concatenate([dec.omegas, dec.omegas]))
            recon = dec.S.matrix.T @ D @ dec.S.matrix
            rel = np.max(np.abs(recon - M)) / np.max(np.abs(M))
            assert rel <= 1e-8
            assert _defects(dec.S.matrix) <= 1e-9
            assert np.all(dec.omegas > 0)
            assert np.all(np.diff(dec.omegas) <= 1e-12)  # sorted descending

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), N=st.integers(1, 4))
    def test_spectrum_invariant_under_conjugation(self, seed, N):
        rng = np.random.default_rng(seed)
        M = random_pd_matrix(rng, N)
        S = random_symplectic(N, 0.7, rng)
        w1 = williamson(QuadraticHamiltonian(M)).omegas
        w2 = williamson(QuadraticHamiltonian(S.matrix.T @ M @ S.matrix)).omegas
        assert np.max(np.abs(w1 - w2) / w1) <= 1e-8

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_spectrum_matches_jm_eigenvalues(self, N):
        # the Hermitian iK against the nonsymmetric eig(JM): each is within a
        # few eps cond(M) of the exact spectrum (at most 3.8 eps cond(M)
        # apart over 6 000 such draws), so 16 eps cond(M) bounds them
        rng = np.random.default_rng(300 + N)
        for _ in range(10):
            M = random_pd_matrix(rng, N)
            S = random_symplectic(N, 0.7, rng).matrix
            for A in (M, S.T @ M @ S):
                H = QuadraticHamiltonian(0.5 * (A + A.T))
                want = jm_spectrum(H.M)
                bound = 16 * np.finfo(float).eps * np.linalg.cond(H.M)
                assert np.max(np.abs(symplectic_eigenvalues(H) - want) / want) <= bound

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), N=st.integers(1, 3))
    def test_monotonicity_of_symplectic_spectrum(self, seed, N):
        # M2 - M1 >= 0 implies each sorted symplectic eigenvalue grows
        rng = np.random.default_rng(seed)
        M1 = random_pd_matrix(rng, N)
        G = rng.normal(size=(2 * N, 2 * N))
        M2 = M1 + G @ G.T
        w1 = symplectic_eigenvalues(QuadraticHamiltonian(M1))
        w2 = symplectic_eigenvalues(QuadraticHamiltonian(M2))
        assert np.all(w2 >= w1 * (1 - 1e-10))


class TestJsonRoundTrip:
    def test_round_trip(self):
        M = random_symplectic(2, 1.0, 3).matrix
        obj = matrix_to_json(M)
        assert obj["n"] == 2 and len(obj["matrix"]) == 16
        back = matrix_from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(back, M)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "matrix": [0.0] * 15})
