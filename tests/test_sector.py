import mpmath
import numpy as np
import pytest
from fractions import Fraction
from math import comb

from hypothesis import example, given, settings, strategies as st

from fullspace import (
    collective_x_matrix,
    dense_even_gap,
    embed_sector_state,
    full_target_matrix,
    sector_tridiagonal,
    target_matrix,
)
from pspin_qaoa import engine, sector
from pspin_qaoa.engine import CircuitContext, energy, energy_and_gradient
from pspin_qaoa.optimizer import r_init
from pspin_qaoa.sector import (
    ProblemSpec,
    diagonalize_target,
    dynamical_gap,
    dynamics_block,
    plus_state,
    sector_table,
    target_tridiagonal,
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

    @pytest.mark.parametrize("n,p", [(2, 126), (3, 80), (1, 10**9)])
    def test_accepts_powers_below_the_phase_width(self, n, p):
        assert ProblemSpec(n, p).p_exponent == p

    @pytest.mark.parametrize("n,p", [(2, 127), (3, 81), (3, 10**18)])
    def test_refuses_powers_at_the_phase_width(self, n, p):
        # (3, 10**18) would never finish if the exact power came first
        with pytest.raises(OverflowError, match="128-bit"):
            ProblemSpec(n, p)

    @pytest.mark.parametrize("field", [float("nan"), float("inf"), float("-inf"), True])
    def test_rejects_non_finite_field(self, field):
        with pytest.raises(ValueError, match="field must be finite"):
            ProblemSpec(16, 2, field)

    @pytest.mark.parametrize("n,p,name", [
        (16.5, 2, "n_sites"), (16.0, 2, "n_sites"), (True, 2, "n_sites"), (16, 2.5, "p_exponent"),
    ])
    def test_rejects_non_integers(self, n, p, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ProblemSpec(n, p, 1.0)

    def test_stores_numpy_integers_as_int(self):
        spec = ProblemSpec(np.int64(16), np.int32(3), 1.0)
        assert type(spec.n_sites) is int and type(spec.p_exponent) is int
        assert spec == ProblemSpec(16, 3, 1.0)


def magnetizations(n: int) -> np.ndarray:
    """The labels M_k of the sector, read back from the exact p = 3 diagonal
    -(M_k)^3 of ``sector_table``; the cube roots are checked to be exact."""
    hz = sector_table(n, 3).hz
    mags = [-round(np.cbrt(float(v))) for v in hz]
    assert all(-(m**3) == v for m, v in zip(mags, hz))
    return np.array(mags)


class TestBasis:
    def test_n2_magnetizations(self):
        assert magnetizations(2).tolist() == [2, 0, -2]

    def test_n5_odd_parity(self):
        mags = magnetizations(5)
        assert mags.size == 6 == plus_state(5).size
        assert set(mags.tolist()) == {5, 3, 1, -1, -3, -5}

    def test_n64_endpoints(self):
        mags = magnetizations(64)
        assert mags.size == 65 == plus_state(64).size
        assert mags[0] == 64
        assert mags[64] == -64

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_magnetization_parity_and_step(self, n):
        mags = magnetizations(n)
        assert np.all(np.diff(mags) == -2)
        assert np.all((mags % 2) == (n % 2))


class TestPlusState:
    def test_single_spin(self):
        np.testing.assert_allclose(plus_state(1), [1 / np.sqrt(2)] * 2)

    def test_two_spins(self):
        np.testing.assert_allclose(
            plus_state(2), [0.5, 1 / np.sqrt(2), 0.5], atol=1e-15
        )

    @pytest.mark.parametrize("n", [7, 30, 200, 1024])
    def test_norm(self, n):
        assert abs(np.linalg.norm(plus_state(n)) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [3, 11, 24, 30])
    def test_matches_exact_rational_binomials(self, n):
        # independent oracle: exact C(N,k)/2^N via Fraction
        amp = plus_state(n).real
        for k in range(n + 1):
            exact = float(Fraction(comb(n, k), 2**n)) ** 0.5
            assert abs(amp[k] - exact) < 1e-14


class TestCollectiveX:
    def test_single_pauli(self):
        np.testing.assert_allclose(collective_x_matrix(1), [[0, 1], [1, 0]])

    def test_n2_offdiagonals(self):
        mat = collective_x_matrix(2)
        np.testing.assert_allclose(np.diag(mat, 1), [np.sqrt(2), np.sqrt(2)])
        np.testing.assert_allclose(np.diag(mat), 0)

    def test_n3_spectrum(self):
        # dense eigensolve of the 4x4 must reproduce the magnetization set
        w = np.linalg.eigvalsh(collective_x_matrix(3))
        np.testing.assert_allclose(sorted(w), [-3, -1, 1, 3], atol=1e-12)

    @given(st.integers(min_value=1, max_value=256))
    @settings(max_examples=25, deadline=None)
    def test_spectrum_equals_magnetizations(self, n):
        dec = x_spectral_decomposition(n)
        mags = np.sort(magnetizations(n))
        np.testing.assert_allclose(np.sort(dec.eigenvalues), mags, atol=1e-10)
        # the reflection-even block keeps the eigenvalues N - 2j with j even
        even = x_spectral_decomposition(n, even_parity=True)
        even_mags = np.sort(magnetizations(n)[::2])
        np.testing.assert_allclose(np.sort(even.eigenvalues), even_mags, atol=1e-10)

    def test_decomposition_reconstructs(self):
        for n in (1, 5, 40):
            dec = x_spectral_decomposition(n)
            rebuilt = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.T
            assert np.max(np.abs(rebuilt - collective_x_matrix(n))) < 1e-12

    def test_plus_state_is_top_eigenvector(self):
        for n in (2, 17, 100):
            plus = plus_state(n).real
            xmat = collective_x_matrix(n)
            assert np.linalg.norm(xmat @ plus - n * plus) < 1e-10

    def test_refuses_an_oversized_decomposition(self, monkeypatch):
        # V holds m^2 float64: 2^30 bytes admit m = 11585 states
        limit = sector._MAX_MIXER_BYTES
        assert 8 * 11585**2 <= limit < 8 * 11586**2
        x_spectral_decomposition.cache_clear()
        monkeypatch.setattr(sector, "_MAX_MIXER_BYTES", 8 * 100**2)
        assert x_spectral_decomposition(99).eigenvalues.size == 100
        assert x_spectral_decomposition(199, even_parity=True).eigenvalues.size == 100

        def refuse(*args):
            raise AssertionError("built before the size check")

        # refused before any array is built, the context's included
        monkeypatch.setattr(sector, "_x_off_diagonal", refuse)
        monkeypatch.setattr(engine, "sector_table", refuse)
        with pytest.raises(ValueError, match=r"N = 100 \(m = 101 states\) would take 81608 bytes"):
            x_spectral_decomposition(100)
        with pytest.raises(ValueError, match=r"N = 200 \(m = 101 states\)"):
            x_spectral_decomposition(200, even_parity=True)
        with pytest.raises(ValueError, match=r"N = 101 \(m = 102 states\)"):
            CircuitContext(ProblemSpec(101, 3))
        with pytest.raises(ValueError, match=r"N = 200 \(m = 101 states\)"):
            CircuitContext(ProblemSpec(200, 2, 0.5))
        # at the real limit, odd p at N = 20001 would take 3.2 GB
        monkeypatch.setattr(sector, "_MAX_MIXER_BYTES", limit)
        with pytest.raises(ValueError, match=r"N = 20001 \(m = 20002 states\) would take 3200640032"):
            x_spectral_decomposition(20001)


class TestHzDiagonal:
    def test_values(self):
        assert sector_table(3, 3).hz[0] == -27
        assert sector_table(4, 2).hz[magnetizations(4).tolist().index(-2)] == -4
        assert sector_table(5, 3).hz[-1] == 125

    def test_exact_integers(self):
        vals = sector_table(9, 7).hz
        assert all(isinstance(v, int) for v in vals)
        assert vals[0] == -(9**7)


class TestSectorTable:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=0.0, max_value=3.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_target_matches_entrywise_formula(self, n, p, h):
        diag, off = target_tridiagonal(ProblemSpec(n, p, h))
        ref_diag, ref_off = sector_tridiagonal(n, p, h)
        assert np.array_equal(diag, ref_diag)
        assert np.array_equal(off, ref_off)

    def test_exact_integers_near_the_width_cap(self):
        # 1000^12 = 1e36 is within a factor 200 of 2^127; 1000^13 is not
        n, p = 1000, 12
        table = sector_table(n, p)
        exact = [-((n - 2 * k) ** p) for k in range(n + 1)]
        assert table.hz == tuple(exact)
        assert all(type(v) is int for v in table.hz)
        assert table.max_abs_hz == n**p
        assert np.array_equal(table.hz_float, [float(v) for v in exact])
        assert np.array_equal(table.target_diag, sector_tridiagonal(n, p, 0.0)[0])
        with pytest.raises(OverflowError):
            ProblemSpec(n, p + 1)

    def test_cached_arrays_are_read_only(self):
        spec = ProblemSpec(9, 3, 0.5)
        table = sector_table(9, 3)
        ctx = CircuitContext(spec)
        for arr in (
            target_tridiagonal(spec)[0], table.hz_float, table.target_diag,
            table.x_off, ctx.hz_float, ctx.target_diag, ctx.x_off, ctx.ground,
        ):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("p", [2, 3])
    def test_cached_arrays_unchanged_by_use(self, n, p):
        table = sector_table(n, p)
        arrays = (table.hz_float, table.target_diag, table.x_off)
        before = [a.copy() for a in arrays]
        spec = ProblemSpec(n, p, 0.7)
        energy(spec, plus_state(n))
        CircuitContext(spec)
        energy_and_gradient(spec, r_init(3, seed=n).to_vector()[None])
        dynamics_block(p, *target_tridiagonal(spec))
        diagonalize_target(spec)
        dynamical_gap(spec)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)


class TestTargetMatrix:
    def test_h_zero_is_diagonal(self):
        mat = target_matrix(ProblemSpec(6, 2, 0.0))
        assert np.max(np.abs(mat - np.diag(np.diag(mat)))) == 0
        assert np.min(np.diag(mat)) == -6

    def test_single_spin(self):
        mat = target_matrix(ProblemSpec(1, 2, 1.0))
        np.testing.assert_allclose(mat, [[-1, -1], [-1, -1]])

    def test_n2_eigenvalues_against_sympy(self):
        # exact symbolic roots as an oracle independent of the numeric solver
        sympy = pytest.importorskip("sympy")
        mat = target_matrix(ProblemSpec(2, 2, 1.0))
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
        mat = target_matrix(ProblemSpec(9, 3, 1.7))
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
        mat = target_matrix(spec)
        g = spectrum.ground_state.real
        assert np.linalg.norm(mat @ g - spectrum.e_min * g) < 1e-10

    def test_dynamical_gap_n2_exact(self):
        # parity-even block of the p=2, N=2, h=0 problem is diag(-2, 0)
        assert abs(dynamical_gap(ProblemSpec(2, 2, 0.0)) - 2.0) < 1e-12

    @pytest.mark.parametrize(
        "n,p,h", [(33, 2, 0.5), (64, 2, 0.5), (128, 2, 1.0), (512, 2, 1.0), (512, 4, 1.0)]
    )
    def test_even_p_ground_state_is_mirror_symmetric(self, n, p, h):
        # below h_c the sector's even and odd ground states split by less than
        # roundoff; the returned state must still be the even one, exactly
        g = diagonalize_target(ProblemSpec(n, p, h)).ground_state
        assert np.array_equal(g, g[::-1])
        assert abs(np.linalg.norm(g) - 1.0) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 41, 256, 1001])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("h", [1e-3, 0.5, 5.0])
    def test_ground_state_positive(self, n, p, h):
        # Perron-Frobenius: for h > 0 the ground state is positive. Tail
        # entries far below roundoff (down to -7e-44 at N = 1001) come out
        # with either sign, so the floor is a roundoff unit of the unit vector.
        g = diagonalize_target(ProblemSpec(n, p, h)).ground_state
        assert np.all(g.imag == 0)
        assert g.real.max() > 0
        assert g.real.min() >= -1e-15

    @pytest.mark.parametrize("n,p,h", [
        (40, 2, "0.5"), (41, 2, "0.5"), (40, 4, "0.5"), (41, 4, "1.0"),
        (40, 2, "2.0"), (21, 3, "0.5"), (20, 3, "1.3"), (21, 5, "2.0"),
    ])
    def test_ground_state_matches_mpmath(self, n, p, h):
        # within the stated eps ||H|| / gap_block, with the Gershgorin bound
        # for ||H||; these cases use at most 21% of it
        spec = ProblemSpec(n, p, float(h))
        gap, expected = mp_ground_state(n, p, h)
        g = diagonalize_target(spec).ground_state
        assert np.linalg.norm(g - expected) <= np.finfo(float).eps * norm_bound(spec) / gap

    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=2, max_value=7),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @example(1, 2, 0.0)
    @example(1, 3, 5.0)
    @example(2, 2, 1.0)
    @example(2, 7, 0.0)
    @settings(max_examples=20, deadline=None)
    def test_spectrum_ends_match_mpmath(self, n, p, h):
        # the stated bound is a few ulp of the Gershgorin norm; as for the gap,
        # the test allows 1e-13 of that norm
        spec = ProblemSpec(n, p, h)
        spectrum = diagonalize_target(spec)
        e_min, e_max = mp_spectrum_ends(n, p, h)
        assert abs(spectrum.e_min - e_min) <= 1e-13 * norm_bound(spec)
        assert abs(spectrum.e_max - e_max) <= 1e-13 * norm_bound(spec)
        assert spectrum.norm_bound == norm_bound(spec)

    @pytest.mark.parametrize("n", [6, 9, 10])
    @pytest.mark.parametrize("p", [2, 3, 4])
    @pytest.mark.parametrize("h", [0.5, 1.5])
    def test_ground_state_matches_full_space(self, n, p, h):
        # the ground state of the 2^N Hamiltonian lies in the sector
        w, v = np.linalg.eigh(full_target_matrix(n, p, h))
        g = diagonalize_target(ProblemSpec(n, p, h)).ground_state
        assert w[1] - w[0] > 1e-6
        assert abs(np.vdot(v[:, 0], embed_sector_state(g, n))) ** 2 > 1 - 1e-12


def norm_bound(spec: ProblemSpec) -> float:
    """Gershgorin bound on the norm of the sector Hamiltonian, max|d| + 2 max|o|."""
    mat = target_matrix(spec)
    return np.max(np.abs(np.diag(mat))) + 2 * np.max(np.abs(np.diag(mat, 1)))


def gap_bound(spec: ProblemSpec) -> float:
    """The stated absolute error bound of dynamical_gap."""
    return 1e-13 * norm_bound(spec)


def mp_sector(n: int, p: int, h) -> tuple[list, list]:
    """The sector tridiagonal in mpmath at the working precision: the lists
    (diagonal, off-diagonal). ``h`` is a decimal string or a float, read
    exactly."""
    field = mpmath.mpf(h)
    diag = [-mpmath.mpf((n - 2 * k) ** p) / n ** (p - 1) for k in range(n + 1)]
    off = [-field * mpmath.sqrt((k + 1) * (n - k)) for k in range(n)]
    return diag, off


def mp_block(n: int, p: int, h: str):
    """The dynamics block at 40 digits (call inside ``mpmath.workdps(40)``):
    the dense sector matrix built in mpmath and, for even p, the projector
    onto the reflection-even block. Returns (block matrix, projector)."""
    diag, off = mp_sector(n, p, h)
    mat = mpmath.zeros(n + 1, n + 1)
    for k in range(n + 1):
        mat[k, k] = diag[k]
    for k in range(n):
        mat[k, k + 1] = mat[k + 1, k] = off[k]
    if p % 2 == 1:
        return mat, mpmath.eye(n + 1)
    half = (n + 1) // 2
    m = half + (1 if n % 2 == 0 else 0)
    proj = mpmath.zeros(n + 1, m)
    for j in range(half):
        proj[j, j] = proj[n - j, j] = 1 / mpmath.sqrt(2)
    if n % 2 == 0:
        proj[n // 2, m - 1] = 1
    return proj.T * mat * proj, proj


def mp_gap(n: int, p: int, h: str) -> float:
    """Dynamical gap at 40 digits, by mpmath.eigsy of ``mp_block``."""
    with mpmath.workdps(40):
        w = sorted(mpmath.eigsy(mp_block(n, p, h)[0], eigvals_only=True))
        return float(w[1] - w[0])


def mp_spectrum_ends(n: int, p: int, h) -> tuple[float, float]:
    """Lowest and highest eigenvalue of the whole sector at 40 digits.

    Sturm-count bisection of ``mp_sector``: the number of eigenvalues below
    x is the number of negative pivots of the LDL^T factorization of T - x.
    Each end is bracketed by the Gershgorin interval and halved until it is
    1e-25 of the norm wide, far below the 1e-13 the tests allow. This is
    O(N) per count, where ``mpmath.eigsy`` of the dense matrix is O(N^3).
    """
    with mpmath.workdps(40):
        diag, off = mp_sector(n, p, h)
        norm = max(abs(v) for v in diag) + 2 * max(abs(v) for v in off)
        tiny = norm * mpmath.mpf(10) ** -35

        def count_below(x):
            count, pivot = 0, diag[0] - x
            for k in range(n + 1):
                if k > 0:
                    pivot = diag[k] - x - off[k - 1] ** 2 / pivot
                if pivot == 0:
                    pivot = -tiny
                count += pivot < 0
            return count

        def eigenvalue(index):
            lo, hi = -norm - 1, norm + 1
            while hi - lo > norm * mpmath.mpf(10) ** -25:
                mid = (lo + hi) / 2
                if count_below(mid) > index:
                    hi = mid
                else:
                    lo = mid
            return float((lo + hi) / 2)

        return eigenvalue(0), eigenvalue(n)


class TestMpSpectrumEnds:
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("h", ["0.0", "0.7"])
    def test_matches_mpmath_eigsy(self, n, p, h):
        # the bisection oracle against the dense 40-digit eigensolver of the
        # whole sector, which is the odd-p dynamics block
        with mpmath.workdps(40):
            w = sorted(mpmath.eigsy(mp_block(n, p, h)[0], eigvals_only=True))
            expected = (float(w[0]), float(w[-1]))
        assert mp_spectrum_ends(n, p, h) == pytest.approx(expected, rel=1e-15, abs=1e-15)


def mp_ground_state(n: int, p: int, h: str) -> tuple[float, np.ndarray]:
    """(gap of the block, its ground state lifted to the sector and signed
    positive), by mpmath.eigsy of ``mp_block`` at 40 digits."""
    with mpmath.workdps(40):
        block, proj = mp_block(n, p, h)
        w, q = mpmath.eigsy(block)
        order = sorted(range(len(w)), key=lambda i: w[i])
        g = proj * q[:, order[0]]
        g = np.array([float(g[k]) for k in range(n + 1)])
        return float(w[order[1]] - w[order[0]]), g * np.sign(g[np.argmax(np.abs(g))])


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
        if p % 2 == 0:
            expected = dense_even_gap(spec)
        else:
            w = np.linalg.eigvalsh(target_matrix(spec))
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
