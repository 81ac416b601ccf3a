import mpmath
import numpy as np
import pytest
from fractions import Fraction
from math import comb

from hypothesis import given, settings, strategies as st

from fullspace import collective_x_matrix, dense_even_gap, target_matrix
from pspin_qaoa.sector import (
    ProblemSpec,
    build_basis,
    diagonalize_target,
    dynamical_gap,
    hz_diagonal,
    plus_state,
    x_spectral_decomposition,
)


class TestProblemSpec:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ProblemSpec(0, 2)
        with pytest.raises(ValueError):
            ProblemSpec(4, 1)
        with pytest.raises(ValueError):
            ProblemSpec(4, 2, -0.5)

    def test_rejects_phase_overflow(self):
        with pytest.raises(OverflowError):
            ProblemSpec(1024, 13)


class TestBasis:
    def test_n2_magnetizations(self):
        assert build_basis(2).magnetizations.tolist() == [2, 0, -2]

    def test_n5_odd_parity(self):
        basis = build_basis(5)
        assert basis.dimension == 6
        assert set(basis.magnetizations.tolist()) == {5, 3, 1, -1, -3, -5}

    def test_n64_endpoints(self):
        basis = build_basis(64)
        assert basis.dimension == 65
        assert basis.magnetizations[0] == 64
        assert basis.magnetizations[64] == -64

    def test_rejects_zero_sites(self):
        with pytest.raises(ValueError):
            build_basis(0)

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_magnetization_parity_and_step(self, n):
        mags = build_basis(n).magnetizations
        assert np.all(np.diff(mags) == -2)
        assert np.all((mags % 2) == (n % 2))


class TestPlusState:
    def test_single_spin(self):
        np.testing.assert_allclose(plus_state(build_basis(1)), [1 / np.sqrt(2)] * 2)

    def test_two_spins(self):
        np.testing.assert_allclose(
            plus_state(build_basis(2)), [0.5, 1 / np.sqrt(2), 0.5], atol=1e-15
        )

    @pytest.mark.parametrize("n", [7, 30, 200, 1024])
    def test_norm(self, n):
        assert abs(np.linalg.norm(plus_state(build_basis(n))) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [3, 11, 24, 30])
    def test_matches_exact_rational_binomials(self, n):
        # independent oracle: exact C(N,k)/2^N via Fraction
        amp = plus_state(build_basis(n)).real
        for k in range(n + 1):
            exact = float(Fraction(comb(n, k), 2**n)) ** 0.5
            assert abs(amp[k] - exact) < 1e-14


class TestCollectiveX:
    def test_single_pauli(self):
        np.testing.assert_allclose(collective_x_matrix(build_basis(1)), [[0, 1], [1, 0]])

    def test_n2_offdiagonals(self):
        mat = collective_x_matrix(build_basis(2))
        np.testing.assert_allclose(np.diag(mat, 1), [np.sqrt(2), np.sqrt(2)])
        np.testing.assert_allclose(np.diag(mat), 0)

    def test_n3_spectrum(self):
        # dense eigensolve of the 4x4 must reproduce the magnetization set
        w = np.linalg.eigvalsh(collective_x_matrix(build_basis(3)))
        np.testing.assert_allclose(sorted(w), [-3, -1, 1, 3], atol=1e-12)

    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_equals_magnetizations(self, n):
        dec = x_spectral_decomposition(n)
        mags = np.sort(build_basis(n).magnetizations)
        np.testing.assert_allclose(np.sort(dec.eigenvalues), mags, atol=1e-10)
        # the reflection-even block keeps the eigenvalues N - 2j with j even
        even = x_spectral_decomposition(n, even_parity=True)
        even_mags = np.sort(build_basis(n).magnetizations[::2])
        np.testing.assert_allclose(np.sort(even.eigenvalues), even_mags, atol=1e-10)

    def test_decomposition_reconstructs(self):
        for n in (1, 5, 40):
            dec = x_spectral_decomposition(n)
            rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            assert np.max(np.abs(rebuilt - collective_x_matrix(build_basis(n)))) < 1e-12

    def test_plus_state_is_top_eigenvector(self):
        for n in (2, 17, 100):
            basis = build_basis(n)
            plus = plus_state(basis).real
            xmat = collective_x_matrix(basis)
            assert np.linalg.norm(xmat @ plus - n * plus) < 1e-10


class TestHzDiagonal:
    def test_values(self):
        assert hz_diagonal(build_basis(3), 3)[0] == -27
        basis4 = build_basis(4)
        assert hz_diagonal(basis4, 2)[basis4.magnetizations.tolist().index(-2)] == -4
        basis5 = build_basis(5)
        assert hz_diagonal(basis5, 3)[-1] == 125

    def test_exact_integers(self):
        vals = hz_diagonal(build_basis(9), 7)
        assert all(isinstance(v, int) for v in vals)
        assert vals[0] == -(9**7)

    def test_overflow_guard(self):
        with pytest.raises(OverflowError):
            hz_diagonal(build_basis(1000), 13)


class TestTargetMatrix:
    def test_h_zero_is_diagonal(self):
        basis = build_basis(6)
        mat = target_matrix(ProblemSpec(6, 2, 0.0), basis, collective_x_matrix(basis))
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0
        assert np.min(np.diag(mat)) == -6

    def test_single_spin(self):
        basis = build_basis(1)
        mat = target_matrix(ProblemSpec(1, 2, 1.0), basis, collective_x_matrix(basis))
        np.testing.assert_allclose(mat, [[-1, -1], [-1, -1]])

    def test_n2_eigenvalues_against_sympy(self):
        # exact symbolic roots as an oracle independent of the numeric solver
        sympy = pytest.importorskip("sympy")
        basis = build_basis(2)
        mat = target_matrix(ProblemSpec(2, 2, 1.0), basis, collective_x_matrix(basis))
        sym = sympy.Matrix(
            [
                [-2, -sympy.sqrt(2), 0],
                [-sympy.sqrt(2), 0, -sympy.sqrt(2)],
                [0, -sympy.sqrt(2), -2],
            ]
        )
        exact = sorted(float(v) for v in sym.eigenvals(multiple=True))
        np.testing.assert_allclose(np.linalg.eigvalsh(mat), exact, atol=1e-12)

    def test_symmetric(self):
        basis = build_basis(9)
        mat = target_matrix(ProblemSpec(9, 3, 1.7), basis, collective_x_matrix(basis))
        assert np.max(np.abs(mat - mat.T)) < 1e-15


class TestDiagonalizeTarget:
    def test_h_zero_extremes_even_p(self):
        spectrum = diagonalize_target(ProblemSpec(8, 2, 0.0))
        assert abs(spectrum.e_min + 8) < 1e-12
        assert abs(spectrum.e_max) < 1e-12
        spectrum_odd = diagonalize_target(ProblemSpec(7, 2, 0.0))
        assert abs(spectrum_odd.e_max + 1 / 7) < 1e-12

    def test_classical_ferromagnet_ground_state(self):
        spectrum = diagonalize_target(ProblemSpec(5, 3, 0.0))
        assert abs(spectrum.e_min + 5) < 1e-12
        expected = np.zeros(6)
        expected[0] = 1.0
        np.testing.assert_allclose(spectrum.ground_state.real, expected, atol=1e-12)

    def test_cat_state_for_even_p(self):
        spectrum = diagonalize_target(ProblemSpec(6, 2, 0.0))
        expected = np.zeros(7)
        expected[0] = expected[6] = 1 / np.sqrt(2)
        np.testing.assert_allclose(spectrum.ground_state.real, expected, atol=1e-12)

    def test_ground_state_residual(self):
        spec = ProblemSpec(12, 3, 0.9)
        spectrum = diagonalize_target(spec)
        basis = build_basis(12)
        mat = target_matrix(spec, basis, collective_x_matrix(basis))
        g = spectrum.ground_state.real
        assert np.linalg.norm(mat @ g - spectrum.e_min * g) < 1e-10

    def test_dynamical_gap_n2_exact(self):
        # parity-even block of the p=2, N=2, h=0 problem is diag(-2, 0)
        assert abs(dynamical_gap(ProblemSpec(2, 2, 0.0)) - 2.0) < 1e-12


def gap_bound(spec: ProblemSpec) -> float:
    """The stated absolute error bound of dynamical_gap."""
    basis = build_basis(spec.n_sites)
    mat = target_matrix(spec, basis, collective_x_matrix(basis))
    return 1e-13 * (np.max(np.abs(np.diag(mat))) + 2 * np.max(np.abs(np.diag(mat, 1))))


def mp_gap(n: int, p: int, h: str) -> float:
    """Dynamical gap at 40 digits: the dense sector matrix built in mpmath,
    projected onto the reflection-even block for even p, then mpmath.eigsy."""
    with mpmath.workdps(40):
        field = mpmath.mpf(h)
        mat = mpmath.zeros(n + 1, n + 1)
        for k in range(n + 1):
            mat[k, k] = -mpmath.mpf((n - 2 * k) ** p) / n ** (p - 1)
        for k in range(n):
            mat[k, k + 1] = mat[k + 1, k] = -field * mpmath.sqrt((k + 1) * (n - k))
        if p % 2 == 1:
            w = sorted(mpmath.eigsy(mat, eigvals_only=True))
            return float(w[1] - w[0])
        half = (n + 1) // 2
        m = half + (1 if n % 2 == 0 else 0)
        proj = mpmath.zeros(n + 1, m)
        for j in range(half):
            proj[j, j] = proj[n - j, j] = 1 / mpmath.sqrt(2)
        if n % 2 == 0:
            proj[n // 2, m - 1] = 1
        w = sorted(mpmath.eigsy(proj.T * mat * proj, eigvals_only=True))
        return float(w[1] - w[0])


class TestDynamicalGap:
    @given(
        st.integers(min_value=2, max_value=80),
        st.sampled_from([2, 3, 4, 5]),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_projected_block(self, n, p, h):
        # even p: the dense projected even block; odd p: the dense sector
        spec = ProblemSpec(n, p, h)
        basis = build_basis(n)
        if p % 2 == 0:
            expected = dense_even_gap(spec, basis)
        else:
            w = np.linalg.eigvalsh(target_matrix(spec, basis, collective_x_matrix(basis)))
            expected = w[1] - w[0]
        assert abs(dynamical_gap(spec) - expected) <= gap_bound(spec)

    @pytest.mark.parametrize("n", [20, 21, 40, 41])
    @pytest.mark.parametrize("h", ["0.5", "2.0", "3.0"])
    def test_matches_mpmath(self, n, h):
        spec = ProblemSpec(n, 2, float(h))
        assert abs(dynamical_gap(spec) - mp_gap(n, 2, h)) <= gap_bound(spec)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n", [20, 21, 40, 41])
    @pytest.mark.parametrize("h", ["0.5", "2.0", "3.0"])
    def test_odd_p_matches_mpmath(self, n, h, p):
        spec = ProblemSpec(n, p, float(h))
        assert abs(dynamical_gap(spec) - mp_gap(n, p, h)) <= gap_bound(spec)

    def test_n3_exact(self):
        # odd N: the middle pair |1>, |2> is coupled, so the even block's last
        # diagonal entry gains that coupling; checked against exact sympy roots
        sympy = pytest.importorskip("sympy")
        r3 = sympy.sqrt(3)
        third = sympy.Rational(1, 3)
        full = sympy.Matrix(
            [
                [-3, -r3, 0, 0],
                [-r3, -third, -2, 0],
                [0, -2, -third, -r3],
                [0, 0, -r3, -3],
            ]
        )
        s2 = 1 / sympy.sqrt(2)
        proj = sympy.Matrix([[s2, 0], [0, s2], [0, s2], [s2, 0]])
        w = sorted((proj.T * full * proj).eigenvals(multiple=True), key=float)
        exact = float(w[1] - w[0])
        assert abs(dynamical_gap(ProblemSpec(3, 2, 1.0)) - exact) < 1e-12

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", [0.0, 0.7, 3.0])
    def test_single_site_odd_p_closed_form(self, p, h):
        # N = 1: the sector is [[-1, -h], [-h, 1]], eigenvalues -+sqrt(1 + h^2)
        spec = ProblemSpec(1, p, h)
        assert abs(dynamical_gap(spec) - 2 * np.sqrt(1 + h * h)) <= gap_bound(spec)

    def test_single_site_even_p_rejected(self):
        with pytest.raises(ValueError, match="one state"):
            dynamical_gap(ProblemSpec(1, 2, 1.0))
