import mpmath
import numpy as np
import pytest
import re
import scipy.linalg
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import comb

from hypothesis import example, given, settings, strategies as st

from analytic_oracles import folded_x_eigenvectors, plus_amplitudes, x_eigenvectors
from fullspace import (
    block_to_sector,
    collective_x_matrix,
    dense_even_gap,
    embed_sector_state,
    even_projector,
    full_target_matrix,
    sector_ground_state,
    sector_tridiagonal,
    target_matrix,
)
from pspin_qaoa import engine, sector
from pspin_qaoa.engine import CircuitContext, circuit_context, energy_and_gradient
from pspin_qaoa.optimizer import r_init
from pspin_qaoa.sector import (
    ProblemSpec,
    diagonalize_target,
    dynamical_gap,
    dynamics_block,
    sector_table,
    target_tridiagonal,
    x_spectral_decomposition,
)


class Int(int):
    """An int subclass: ``ProblemSpec`` checks it as any other non-int."""


# An exact int and float take ProblemSpec's fast path; every other type of
# the same value takes the ABC checks, and must meet the same refusals.
INTS = [int, np.int64, np.int32, Int]
FLOATS = [float, np.float64, Fraction]


class TestProblemSpec:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ProblemSpec(0, 2)
        with pytest.raises(ValueError):
            ProblemSpec(4, 1)
        with pytest.raises(ValueError):
            ProblemSpec(4, 2, -0.5)

    @pytest.mark.parametrize("as_int", INTS)
    @pytest.mark.parametrize("as_float", FLOATS)
    def test_rejects_bad_inputs_of_every_type(self, as_int, as_float):
        with pytest.raises(ValueError, match="n_sites must be >= 1"):
            ProblemSpec(as_int(0), 2)
        with pytest.raises(ValueError, match="p_exponent must be >= 2"):
            ProblemSpec(4, as_int(1))
        with pytest.raises(ValueError, match="field must be >= 0"):
            ProblemSpec(4, 2, as_float(-0.5))

    def test_rejects_phase_overflow(self):
        for as_int in INTS:
            with pytest.raises(OverflowError):
                ProblemSpec(as_int(1024), as_int(13))

    @pytest.mark.parametrize("n,p", [(2, 126), (3, 80), (1, 10**9)])
    def test_accepts_powers_below_the_phase_width(self, n, p):
        assert ProblemSpec(n, p).p_exponent == p

    @pytest.mark.parametrize("n,p", [
        (2, 127), (3, 81), (3, 10**18),
        pytest.param(np.int64(2), np.int64(127), id="int64"),
        pytest.param(Int(3), Int(81), id="int-subclass"),
    ])
    def test_refuses_powers_at_the_phase_width(self, n, p):
        # (3, 10**18) would never finish if the exact power came first
        with pytest.raises(OverflowError, match="128-bit"):
            ProblemSpec(n, p)

    @pytest.mark.parametrize("field", [
        float("nan"), float("inf"), float("-inf"), True,
        pytest.param(np.float64("nan"), id="float64-nan"),
        pytest.param(np.float64("-inf"), id="float64-inf"),
        pytest.param(np.True_, id="numpy-bool"),
    ])
    def test_rejects_non_finite_field(self, field):
        with pytest.raises(ValueError, match="field must be finite"):
            ProblemSpec(16, 2, field)

    @pytest.mark.parametrize(
        "field", [10**400, Fraction(10**400, 3), -(10**400), Int(10**400)],
        ids=["int", "fraction", "negative", "int-subclass"],
    )
    def test_refuses_a_field_past_the_float_range(self, field):
        # float(field) overflows; the error names the field, not isfinite's
        # conversion
        with pytest.raises(OverflowError, match="field must fit a float"):
            ProblemSpec(8, 2, field)

    @pytest.mark.parametrize("n,p,name", [
        (16.5, 2, "n_sites"), (16.0, 2, "n_sites"), (True, 2, "n_sites"), (16, 2.5, "p_exponent"),
        pytest.param(np.float64(16.0), 2, "n_sites", id="float64"),
        pytest.param(Fraction(16), 2, "n_sites", id="fraction"),
        pytest.param(16, True, "p_exponent", id="bool-p"),
        pytest.param(16, np.True_, "p_exponent", id="numpy-bool-p"),
    ])
    def test_rejects_non_integers(self, n, p, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ProblemSpec(n, p, 1.0)

    def test_stores_numpy_integers_as_int(self):
        spec = ProblemSpec(np.int64(16), np.int32(3), 1.0)
        assert type(spec.n_sites) is int and type(spec.p_exponent) is int
        assert spec == ProblemSpec(16, 3, 1.0)

    @pytest.mark.parametrize("as_int", INTS)
    @pytest.mark.parametrize("as_float", [float, np.float64, np.float32, Fraction, Int])
    def test_stores_exact_types(self, as_int, as_float):
        spec = ProblemSpec(as_int(16), as_int(3), as_float(2))
        assert (type(spec.n_sites), type(spec.p_exponent), type(spec.field)) == (int, int, float)
        assert spec == ProblemSpec(16, 3, 2.0) and hash(spec) == hash(ProblemSpec(16, 3, 2.0))

    @pytest.mark.parametrize("zero", [-0.0, np.float64(-0.0), 0.0, 0, Fraction(0)])
    def test_a_zero_field_is_stored_as_plus_zero(self, zero):
        # -0.0 is a plain float, so it takes the fast path; it must still be
        # stored as 0.0, one value and one seed
        spec = ProblemSpec(16, 3, zero)
        assert type(spec.field) is float and spec.field.hex() == "0x0.0p+0"
        assert hash(spec) == hash(ProblemSpec(16, 3))

    @pytest.mark.parametrize("field,stored", [
        (Fraction(1, 2), 0.5), (np.float32(0.5), 0.5), (np.float64(0.5), 0.5),
        (2, 2.0), (np.int64(2), 2.0),
        (np.True_, None), (Decimal("0.5"), None), ("0.5", None), (0.5 + 0j, None), (None, None),
        pytest.param(Int(2), 2.0, id="int-subclass"),
        pytest.param(0.5, 0.5, id="float"),
    ])
    def test_stores_the_field_as_a_float(self, field, stored):
        # any other field fails only later: a Fraction in the eigensolver's
        # isfinite, a Decimal or np.True_ when the target is built, an
        # np.float32 with an overflow warning in the field bound
        if stored is None:
            with pytest.raises(ValueError, match="field must be"):
                ProblemSpec(16, 3, field)
            return
        spec = ProblemSpec(16, 3, field)
        assert type(spec.field) is float and spec == ProblemSpec(16, 3, stored)
        assert diagonalize_target(spec).e_min == diagonalize_target(ProblemSpec(16, 3, stored)).e_min

    @pytest.mark.parametrize("n", [7, 1023, 2**40 - 1])
    def test_field_bound(self, n):
        # h (N + 1) < 2^448; N + 1 is a power of two, so the products are exact.
        # Checked in O(1): N = 2^40 - 1 builds no array. A plain float takes
        # the fast path, an np.float64 the ABC checks.
        at = 2.0**448 / (n + 1)
        for as_float in (float, np.float64):
            assert ProblemSpec(n, 2, as_float(np.nextafter(at, 0.0))).field < at
            for h in (at, np.nextafter(at, np.inf), 1e308):
                with pytest.raises(OverflowError, match="2\\^448"):
                    ProblemSpec(n, 3, as_float(h))

    @pytest.mark.parametrize("n", [7, 1023])
    @pytest.mark.parametrize("p", [2, 3])
    def test_largest_field_is_computed(self, n, p):
        # just below the bound the target is -h X to 2^-437 relative, whose
        # block gap is 2h (odd p) or 4h (even p), lowest energy -h N and
        # ground state |+>
        h = np.nextafter(2.0**448 / (n + 1), 0.0)
        spec = ProblemSpec(n, p, h)
        assert dynamical_gap(spec) == pytest.approx((2 if p % 2 else 4) * h, rel=1e-12)
        target = diagonalize_target(spec)
        assert target.e_min == pytest.approx(-h * n, rel=1e-12)
        assert target.e_max == pytest.approx(h * n, rel=1e-12)
        np.testing.assert_allclose(sector_ground_state(spec), plus_amplitudes(n), rtol=0, atol=1e-12)


def magnetizations(n: int) -> np.ndarray:
    """The labels M_k of the sector, read back from the p = 3 diagonal
    -(M_k)^3 of ``sector_table``, exact in float64 for N <= 2^17; each entry
    is checked to be the exact integer -(M_k)^3 of its cube root."""
    hz = sector_table(n, 3).hz_float
    mags = [-round(np.cbrt(v)) for v in hz]
    assert all(-(m**3) == int(v) == v for m, v in zip(mags, hz))
    return np.array(mags)


class TestBasis:
    def test_n2_magnetizations(self):
        assert magnetizations(2).tolist() == [2, 0, -2]

    def test_n5_odd_parity(self):
        mags = magnetizations(5)
        assert mags.size == 6 == plus_amplitudes(5).size
        assert set(mags.tolist()) == {5, 3, 1, -1, -3, -5}

    def test_n64_endpoints(self):
        mags = magnetizations(64)
        assert mags.size == 65 == plus_amplitudes(64).size
        assert mags[0] == 64
        assert mags[64] == -64

    @given(st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_magnetization_parity_and_step(self, n):
        mags = magnetizations(n)
        assert np.all(np.diff(mags) == -2)
        assert np.all((mags % 2) == (n % 2))


def package_plus(n: int) -> np.ndarray:
    """|+> of N sites as the package builds it, the top eigenvector of the
    whole sector's collective X, in the natural order of its amplitudes."""
    dec = x_spectral_decomposition(n, False)
    return dec.plus[dec.order]


class TestPlusState:
    def test_single_spin(self):
        np.testing.assert_allclose(package_plus(1), [1 / np.sqrt(2)] * 2)

    def test_two_spins(self):
        np.testing.assert_allclose(
            package_plus(2), [0.5, 1 / np.sqrt(2), 0.5], atol=1e-15
        )

    @pytest.mark.parametrize("n", [7, 30, 200, 1024])
    def test_norm(self, n):
        assert abs(np.linalg.norm(package_plus(n)) - 1.0) < 1e-12

    def test_norm_within_roundoff(self):
        # the recurrence normalizes in extended precision and rounds once;
        # at N = 4096 the block's |+>, of the same norm, keeps V at 33 MB
        eps = np.finfo(float).eps
        for n in [*range(1, 65), 512, 1024]:
            assert abs(np.linalg.norm(package_plus(n)) - 1.0) <= 4 * eps, n
        block = x_spectral_decomposition.__wrapped__(4096, True)
        assert abs(np.linalg.norm(block.plus) - 1.0) <= 4 * eps

    @pytest.mark.parametrize("n", [3, 11, 24, 30])
    def test_matches_exact_rational_binomials(self, n):
        # independent oracle: exact C(N,k)/2^N via Fraction
        amp = package_plus(n).real
        for k in range(n + 1):
            exact = float(Fraction(comb(n, k), 2**n)) ** 0.5
            assert abs(amp[k] - exact) < 1e-14

    @pytest.mark.parametrize("n", [64, 256, 1024, 2048])
    @pytest.mark.parametrize("even_parity", [False, True])
    def test_within_two_ulp_of_the_binomials(self, n, even_parity):
        # within 0.51 eps of the exact values, so within 2 of their rounding
        dec = x_spectral_decomposition.__wrapped__(n, even_parity)
        exact = plus_amplitudes(n, even_parity)
        assert np.max(np.abs(dec.plus[dec.order] - exact) / exact) <= 2 * np.finfo(float).eps


def unfolded(dec, dtype=float) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues ascending and the dense V, rows in natural block
    order, that a decomposition's folded F describes, computed in
    ``dtype``: for s = 2, v_lam is (F_0 c, F_1 c) / sqrt(2) and v_-lam is
    (F_0 c, -F_1 c) / sqrt(2) for column c of eigenvalue lam > 0, and the
    lam = 0 column F_0 c; for s = 1, F_0 itself."""
    folded, lam, order = dec.folded.astype(dtype), dec.eigenvalues, dec.order
    if folded.shape[0] == 1:
        return lam, folded[0][order]
    even, odd = folded[0], folded[1]
    positive = lam > 0
    root = np.sqrt(dtype(2))
    halves = np.concatenate([np.concatenate([even[:, positive], even[:, positive]], axis=1) / root,
                             np.concatenate([odd[:, positive], -odd[:, positive]], axis=1) / root])
    vec = np.concatenate([halves, np.concatenate([even[:, ~positive], odd[:, ~positive]])], axis=1)
    mags = np.concatenate([lam[positive], -lam[positive], lam[~positive]])
    rank = np.argsort(mags)
    return mags[rank], vec[order][:, rank]


def folded_gram(dec) -> np.ndarray:
    """The exact F_s^T F_s of each half: the identity, but for a 0 in half 1
    at the column of lam = 0. X's recurrence at lam = 0 gives v_1 = 0 and so
    zero odd rows: that eigenvector lives in half 0 alone."""
    s, h = dec.folded.shape[:2]
    gram = np.stack([np.eye(h)] * s)
    if s == 2:
        gram[1][dec.eigenvalues == 0, dec.eigenvalues == 0] = 0.0
    return gram


def x_residual(n: int, even_parity: bool, vec: np.ndarray, lam: np.ndarray) -> float:
    """max |X V - V diag(lam)|, in extended precision from V."""
    work = np.longdouble
    i = np.arange(n, dtype=work)
    diag, off = np.zeros(n + 1, dtype=work), np.sqrt((i + 1) * (n - i))
    if even_parity:
        diag, off = dynamics_block(2, diag, off)
    v = vec.astype(work)
    xv = diag[:, None] * v - v * lam.astype(work)
    xv[:-1] += off[:, None] * v[1:]
    xv[1:] += off[:, None] * v[:-1]
    return float(np.max(np.abs(xv)))


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
        # exactly the integers, ascending: F's eigenvalues are those >= 0
        # wherever the block is folded, and with their negatives they are
        # the whole spectrum
        dec = x_spectral_decomposition(n, False)
        mags = np.sort(magnetizations(n))
        assert np.array_equal(dec.eigenvalues, mags[mags >= 0])
        assert np.array_equal(unfolded(dec)[0], mags)
        # the reflection-even block keeps the eigenvalues N - 2j with j even;
        # at odd N it has no +- pairs and is not folded
        even = x_spectral_decomposition(n, True)
        even_mags = np.sort(magnetizations(n)[::2])
        assert np.array_equal(even.eigenvalues, even_mags if n % 2 else even_mags[even_mags >= 0])
        assert np.array_equal(unfolded(even)[0], even_mags)

    def test_decomposition_reconstructs(self):
        # collective X is lam swap(F^T x) in the folded layout: the halves'
        # products F_s diag(lam) F_1-s^T rebuild it, in the stored order.
        # Every case of the fold: odd p at odd and even N (a padded odd
        # half), even p at N = 0 and 2 mod 4 (with and without lam = 0) and
        # at odd N (unfolded)
        for n, even_parity in [(1, False), (5, False), (40, False), (41, False), (1, True),
                               (2, True), (4, True), (5, True), (6, True), (40, True), (41, True)]:
            dec = x_spectral_decomposition(n, even_parity)
            xmat = collective_x_matrix(n)
            if even_parity:
                d, e = dynamics_block(2, np.zeros(n + 1), np.diag(xmat, 1))
                xmat = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            folded, lam, h = dec.folded, dec.eigenvalues, dec.eigenvalues.size
            if folded.shape[0] == 1:
                rebuilt = (folded[0] * lam) @ folded[0].T
            else:
                rebuilt = np.zeros((2 * h, 2 * h))
                rebuilt[:h, h:] = (folded[0] * lam) @ folded[1].T
                rebuilt[h:, :h] = (folded[1] * lam) @ folded[0].T
            assert np.max(np.abs(rebuilt[np.ix_(dec.order, dec.order)] - xmat)) < 1e-12, (n, even_parity)
            # the padding row, where there is one, is zero in F and in |+>
            padding = np.setdiff1d(np.arange(dec.plus.size), dec.order)
            assert padding.size == dec.plus.size - dec.order.size <= 1
            assert not folded.reshape(dec.plus.size, -1)[padding].any() and not dec.plus[padding].any()

    def test_plus_state_is_top_eigenvector(self):
        for n in (2, 17, 100):
            plus = plus_amplitudes(n)
            xmat = collective_x_matrix(n)
            assert np.linalg.norm(xmat @ plus - n * plus) < 1e-10

    def test_refuses_an_oversized_decomposition(self, monkeypatch):
        # F holds s h^2 float64 and the recurrence (N/2 + 2) rows of h
        # longdouble: 2^30 bytes admit odd p up to N = 11583 (m = 11584),
        # even p up to N = 18914 (m = 9458) and, unfolded, N = 13375 (m = 6688)
        limit, wide = sector._MAX_MIXER_BYTES, np.dtype(sector._RECURRENCE_DTYPE).itemsize

        def nbytes(n, fold, width):
            return 8 * fold * width**2 + wide * (n // 2 + 2) * width

        assert nbytes(11583, 2, 5792) <= limit < nbytes(11585, 2, 5793)
        assert nbytes(18914, 2, 4729) <= limit < nbytes(18916, 2, 4730)
        assert nbytes(13375, 1, 6688) <= limit < nbytes(13377, 1, 6689)
        x_spectral_decomposition.cache_clear()
        monkeypatch.setattr(sector, "_MAX_MIXER_BYTES", nbytes(99, 2, 50))
        assert x_spectral_decomposition(99, False).folded.shape == (2, 50, 50)

        def refuse(*args):
            raise AssertionError("built before the size check")

        # refused before any array is built, the context's included
        monkeypatch.setattr(sector, "_x_off_diagonal", refuse)
        monkeypatch.setattr(engine, "sector_table", refuse)
        cases = [
            (lambda: x_spectral_decomposition(100, False), 100, 101, (2, 51, 51)),
            (lambda: x_spectral_decomposition(200, True), 200, 101, (2, 51, 51)),
            (lambda: x_spectral_decomposition(199, True), 199, 100, (1, 100, 100)),  # unfolded
            (lambda: CircuitContext(ProblemSpec(101, 3)), 101, 102, (2, 51, 51)),
            (lambda: CircuitContext(ProblemSpec(200, 2, 0.5)), 200, 101, (2, 51, 51)),
        ]
        for build, n, m, shape in cases:
            message = f"N = {n} (m = {m} states) would take {nbytes(n, *shape[:2])} bytes, F of shape {shape}"
            with pytest.raises(ValueError, match=re.escape(message)):
                build()
        # at the real limit, odd p at N = 20001 would take 3.2 GB
        monkeypatch.setattr(sector, "_MAX_MIXER_BYTES", limit)
        with pytest.raises(ValueError, match=rf"N = 20001 \(m = 20002 states\) would take {nbytes(20001, 2, 10001)}"):
            x_spectral_decomposition(20001, False)

    @pytest.mark.parametrize("n,even_parity", [(1025, False), (1024, False), (1024, True), (1023, True)])
    def test_the_count_is_the_peak_of_the_build(self, n, even_parity):
        # F and the recurrence's rows are all the build holds at once: the
        # mirrored rows of the sector are written without a temporary, and
        # the rest of the traced peak is row-sized (1.02-1.06 here, where a
        # half-size mirror temporary read 1.54)
        half = n // 2
        dim, fold = (half + 1, 2 - n % 2) if even_parity else (n + 1, 2)
        width = -(-dim // fold)
        wide = np.dtype(sector._RECURRENCE_DTYPE).itemsize
        nbytes = 8 * fold * width**2 + wide * (half + 2) * width
        tracemalloc.start()
        try:
            dec = x_spectral_decomposition.__wrapped__(n, even_parity)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dec.folded.shape == (fold, width, width)
        assert nbytes <= peak <= 1.1 * nbytes

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 13, 32, 63, 64])
    @pytest.mark.parametrize("even_parity", [False, True])
    def test_matches_the_closed_form(self, n, even_parity):
        # every entry of F within 2 eps of its half-column of d^{N/2}(pi/2)
        # from exact integers, and |+> of its top column
        dec = x_spectral_decomposition(n, even_parity)
        eps = np.finfo(float).eps
        assert np.max(np.abs(dec.folded - folded_x_eigenvectors(n, even_parity))) <= 2 * eps
        assert np.max(np.abs(dec.plus[dec.order] - x_eigenvectors(n, even_parity)[:, -1])) <= 2 * eps

    @pytest.mark.parametrize("even_parity", [False, True])
    def test_orthogonal_with_a_small_residual(self, even_parity):
        # orthogonality of the rounded F from float64 products, the residual
        # of the V it folds, unfolded in extended precision
        n, eps = 1024, np.finfo(float).eps
        dec = x_spectral_decomposition.__wrapped__(n, even_parity)
        for half, expected in zip(dec.folded, folded_gram(dec)):
            assert np.max(np.abs(half.T @ half - expected)) <= 8 * eps
        lam, vec = unfolded(dec, np.longdouble)
        assert x_residual(n, even_parity, vec, lam) <= 0.5 * eps * n

    def test_float64_recurrence_keeps_its_bound(self, monkeypatch):
        # float64 is the working precision where longdouble is float64
        # (Windows); column amplitudes span about 2^(N/2), past float64's
        # range at N = 2048 without the rescaling, which must warn nowhere
        n, eps = 2048, np.finfo(float).eps
        monkeypatch.setattr(sector, "_RECURRENCE_DTYPE", np.float64)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            dec = x_spectral_decomposition.__wrapped__(n, False)
        assert np.isfinite(dec.folded).all()
        for half, expected in zip(dec.folded, folded_gram(dec)):
            assert np.max(np.abs(half.T @ half - expected)) <= 100 * eps
        lam, vec = unfolded(dec, np.longdouble)
        assert x_residual(n, False, vec, lam) <= 10 * eps * n
        exact = plus_amplitudes(n)
        assert np.max(np.abs(dec.plus[dec.order] - exact) / exact) <= 200 * eps

    def test_one_cache_entry_per_block(self):
        with pytest.raises(TypeError):
            x_spectral_decomposition(8, even_parity=True)
        with pytest.raises(TypeError):
            x_spectral_decomposition(8)
        x_spectral_decomposition.cache_clear()
        ctx = CircuitContext(ProblemSpec(23, 2, 0.5))
        assert x_spectral_decomposition.cache_info().currsize == 1
        assert x_spectral_decomposition(23, True) is ctx.xdec
        assert x_spectral_decomposition.cache_info().currsize == 1


class TestHzDiagonal:
    def test_values(self):
        assert sector_table(3, 3).hz_float[0] == -27
        assert sector_table(4, 2).hz_float[magnetizations(4).tolist().index(-2)] == -4
        assert sector_table(5, 3).hz_float[-1] == 125

    def test_exact_integers(self):
        # 9^7 < 2^53: every entry is an integer, and exactly -(N - 2k)^p
        n, p = 9, 7
        exact = [-((n - 2 * k) ** p) for k in range(n + 1)]
        assert all(isinstance(v, int) for v in exact)
        vals = sector_table(n, p).hz_float
        assert all(v.is_integer() and int(v) == e for v, e in zip(vals, exact))
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
        # 1000^12 = 1e36 is within a factor 200 of 2^127; 1000^13 is not.
        # The table is each exact integer -(N - 2k)^p rounded once, compared
        # as bytes: np.array_equal takes -0.0 for 0.0, and the middle state
        # of an even N has the diagonal +0.0, not the -0.0 of -float(0)
        for n, p in [(1000, 12), (999, 12), (8, 2), (9, 3), (1024, 3)]:
            table = sector_table(n, p)
            exact = [-((n - 2 * k) ** p) for k in range(n + 1)]
            assert all(type(v) is int for v in exact)
            hz_float = np.array([float(v) for v in exact])
            assert table.hz_float.tobytes() == hz_float.tobytes(), (n, p)
            assert table.target_diag.tobytes() == (hz_float / float(n ** (p - 1))).tobytes(), (n, p)
            assert np.array_equal(table.target_diag, sector_tridiagonal(n, p, 0.0)[0])
            # the exact path starts where |gamma| N^p passes 2^53: max|hz| = N^p
            assert circuit_context(ProblemSpec(n, p)).exact_gamma == 2.0**53 / n**p
        with pytest.raises(OverflowError):
            ProblemSpec(1000, 13)

    def test_cached_arrays_are_read_only(self):
        spec = ProblemSpec(9, 3, 0.5)
        table = sector_table(9, 3)
        for arr in (target_tridiagonal(spec)[0], table.hz_float, table.target_diag, table.x_off):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        # every array of a context and of a target spectrum, in the whole
        # sector (odd p, whose block off-diagonal is a new array) and the
        # block (even p)
        for spec in (ProblemSpec(9, 3, 0.5), ProblemSpec(8, 2, 0.5)):
            arrays = {k: v for k, v in vars(CircuitContext(spec)).items() if isinstance(v, np.ndarray)}
            assert {"plus", "lift_index", "lift_weight", "hz_float"} <= arrays.keys()
            target = diagonalize_target(spec)
            arrays.update(diag=target.diag, off=target.off, ground=target.ground)
            for arr in arrays.values():
                with pytest.raises(ValueError, match="read-only"):
                    arr[0] = 1

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("p", [2, 3])
    def test_context_does_not_depend_on_the_field(self, n, p):
        # the field enters only the target spectrum: two contexts that differ
        # in h alone hold equal arrays and share one block basis, the
        # decomposition's |+> and lift themselves
        a, b = (CircuitContext(ProblemSpec(n, p, h)) for h in (0.25, 1.75))
        assert vars(a).keys() == vars(b).keys()
        for name, value in vars(a).items():
            if name in ("plus", "lift_index", "lift_weight", "xdec"):
                assert value is getattr(b, name), name
            elif isinstance(value, np.ndarray):
                assert np.array_equal(value, getattr(b, name)), name
            elif name != "spec":
                assert value == getattr(b, name), name
        for name in ("plus", "lift_index", "lift_weight"):
            assert getattr(a, name) is getattr(a.xdec, name), name

    @pytest.mark.parametrize("n", [8, 9])
    def test_contexts_of_one_parity_share_the_block_basis(self, n):
        # p = 2 and p = 4 run in one reflection-even block, so they hold one
        # |+> and one lift; only the phases differ
        a, b = (CircuitContext(ProblemSpec(n, p, 0.5)) for p in (2, 4))
        for name in ("plus", "lift_index", "lift_weight", "xdec"):
            assert getattr(a, name) is getattr(b, name), name
        assert not np.array_equal(a.hz_float, b.hz_float)

    def test_plus_state_is_built_once_per_block(self, monkeypatch):
        # |+> is the top column of the block's cached decomposition: a new
        # h, and a new p of the same parity, reuse it without a rebuild
        n = 37
        block = CircuitContext(ProblemSpec(n, 2, 0.3)).xdec
        built = x_spectral_decomposition.cache_info().misses
        for spec in (ProblemSpec(n, 2, 1.1), ProblemSpec(n, 4, 0.3)):
            assert CircuitContext(spec).plus is block.plus
        assert x_spectral_decomposition.cache_info().misses == built
        assert block.folded.shape[0] == 1  # N odd: V itself, |+> its top column
        assert np.array_equal(block.plus, block.folded[0, :, -1])

        def refuse(*args):
            raise AssertionError("x_spectral_decomposition called")

        # the gap path never reads |+>
        monkeypatch.setattr(sector, "x_spectral_decomposition", refuse)
        assert sector_table.__wrapped__(n, 3).hz_float[0] == -(n**3)
        assert dynamical_gap(ProblemSpec(n, 3, 1.3)) > 0
        assert dynamical_gap(ProblemSpec(n, 2, 1.9)) > 0

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("p", [2, 3])
    def test_cached_arrays_unchanged_by_use(self, n, p):
        table = sector_table(n, p)
        arrays = (table.hz_float, table.target_diag, table.x_off)
        before = [a.copy() for a in arrays]
        spec = ProblemSpec(n, p, 0.7)
        CircuitContext(spec)
        energy_and_gradient(spec, r_init(3, seed=n).to_vector()[None])
        dynamics_block(p, *target_tridiagonal(spec))
        diagonalize_target(spec)
        dynamical_gap(spec)
        for a, b in zip(arrays, before):
            assert np.array_equal(a, b)


class TestDynamicsBlock:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_even_p_is_the_dense_projection(self, n):
        # entry for entry P^T T P for random mirror-symmetric T. To first
        # order the error is at most 2 eps |T_kk| <= 2 eps ||T||: 2u from
        # 1/sqrt(2)^2 and 2u from rounding the two products
        proj = even_projector(n)
        for seed in range(20):
            rng = np.random.default_rng([n, seed])
            diag, off = rng.standard_normal(n + 1), rng.standard_normal(n)
            diag, off = diag + diag[::-1], off + off[::-1]
            t = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            d, e = dynamics_block(2, diag, off)
            block = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
            bound = 2 * np.finfo(float).eps * np.linalg.norm(t, 2)
            assert np.max(np.abs(block - proj.T @ t @ proj)) <= bound, (n, seed)

    def test_odd_p_returns_the_arrays_themselves(self):
        diag, off = np.arange(6.0), np.ones(5)
        d, e = dynamics_block(3, diag, off)
        assert d is diag and e is off


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
        spec = ProblemSpec(5, 3, 0.0)
        spectrum = diagonalize_target(spec)
        assert abs(spectrum.e_min + 5) < 1e-12
        expected = np.zeros(6)
        expected[0] = 1.0
        np.testing.assert_allclose(sector_ground_state(spec).real, expected, atol=1e-12)

    def test_cat_state_for_even_p(self):
        # block state 0, the pair state (|0> + |6>)/sqrt(2), lifts to the cat state
        spec = ProblemSpec(6, 2, 0.0)
        np.testing.assert_allclose(diagonalize_target(spec).ground, np.eye(4)[0], atol=1e-12)
        expected = np.zeros(7)
        expected[0] = expected[6] = 1 / np.sqrt(2)
        np.testing.assert_allclose(sector_ground_state(spec).real, expected, atol=1e-12)

    @pytest.mark.parametrize("n,p,h", [(9, 3, 0.5), (9, 2, 0.5), (8, 2, 1.5), (1, 2, 0.5)])
    def test_holds_the_block_target(self, n, p, h):
        # the tridiagonal the energy kernel applies, and its ground state
        spec = ProblemSpec(n, p, h)
        target = diagonalize_target(spec)
        d, e = dynamics_block(p, *target_tridiagonal(spec))
        assert np.array_equal(target.diag, d) and np.array_equal(target.off, e)
        g = target.ground
        assert g.shape == d.shape and abs(np.linalg.norm(g) - 1.0) < 1e-13
        h_g = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) @ g
        assert np.linalg.norm(h_g - np.vdot(g, h_g).real * g) < 1e-12 * target.norm_bound

    def test_ground_state_residual(self):
        spec = ProblemSpec(12, 3, 0.9)
        spectrum = diagonalize_target(spec)
        mat = target_matrix(spec)
        g = sector_ground_state(spec).real
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
        g = sector_ground_state(ProblemSpec(n, p, h))
        assert np.array_equal(g, g[::-1])
        assert abs(np.linalg.norm(g) - 1.0) < 1e-13

    @pytest.mark.parametrize("n", [1, 2, 41, 256, 1001])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("h", [1e-3, 0.5, 5.0])
    def test_ground_state_positive(self, n, p, h):
        # Perron-Frobenius: for h > 0 the ground state is positive. Tail
        # entries far below roundoff (down to -7e-44 at N = 1001) come out
        # with either sign, so the floor is a roundoff unit of the unit vector.
        g = sector_ground_state(ProblemSpec(n, p, h))
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
        g = sector_ground_state(spec)
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
        g = sector_ground_state(ProblemSpec(n, p, h))
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
        for p, h in ((2, 1.0), (4, 1.0), (2, 0.0)):
            with pytest.raises(ValueError, match="one state"):
                dynamical_gap(ProblemSpec(1, p, h))


def scipy_sites(spec: ProblemSpec):
    """The gap, the spectrum ends and the signed, lifted ground state by
    scipy's tridiagonal wrappers: the reference ``sector`` must equal bit
    for bit. The lowest end is the eigenvalue of the block's ground state,
    the top end the whole sector's."""
    diag, off = target_tridiagonal(spec)
    d, e = dynamics_block(spec.p_exponent, diag, off)
    gap = None
    if d.size > 1:
        w = scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 1))
        gap = float(w[1] - w[0])
    w, v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))
    top = (spec.n_sites, spec.n_sites)
    e_max = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=top)[0]
    ends = (float(w[0]), float(e_max))
    ground = block_to_sector(spec.n_sites, spec.p_exponent, v[:, 0])
    if ground[np.argmax(np.abs(ground))] < 0:
        ground = -ground
    return gap, ends, ground.astype(complex)


def count_lapack_calls(monkeypatch) -> list:
    """The names of the ``sector.lapack`` routines called from now on, in
    call order, through a wrapper around each."""
    calls, module = [], sector.lapack

    class Counting:
        def __getattr__(self, name):
            def routine(*args):
                calls.append(name)
                return getattr(module, name)(*args)

            return routine

    monkeypatch.setattr(sector, "lapack", Counting())
    return calls


class TestLapackPath:
    """``sector`` calls dstebz and dstein itself, with the arguments scipy's
    wrappers pick, so every number equals theirs bit for bit; collective X's
    basis takes no LAPACK call."""

    @given(
        st.integers(min_value=1, max_value=200),
        st.sampled_from([2, 3, 4, 5]),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=80, deadline=None)
    @example(1, 2, 1.0)
    @example(1, 3, 0.0)
    @example(200, 3, 10.0)
    def test_equals_scipy_wrappers(self, n, p, h):
        spec = ProblemSpec(n, p, h)
        gap, ends, ground = scipy_sites(spec)
        if gap is not None:
            assert dynamical_gap(spec) == gap
        target = diagonalize_target(spec)
        assert (target.e_min, target.e_max) == ends
        assert np.array_equal(sector_ground_state(spec), ground)
        for even_parity in (False, True):
            dec = x_spectral_decomposition.__wrapped__(n, even_parity)
            assert dec.folded.flags.c_contiguous  # the mixer GEMMs see one layout

    @pytest.mark.parametrize("p", [2, 4])
    def test_one_state_block(self, p):
        # N = 1, even p: a 1x1 block, which f2py cannot pass to LAPACK
        spec = ProblemSpec(1, p, 0.8)
        assert np.array_equal(diagonalize_target(spec).ground, [1.0])
        assert np.array_equal(sector_ground_state(spec), np.full(2, np.sqrt(0.5), dtype=complex))
        assert np.array_equal(sector_ground_state(spec), scipy_sites(spec)[2])
        dec = x_spectral_decomposition(1, True)
        assert dec.eigenvalues.tolist() == [1.0] and dec.folded.tolist() == [[[1.0]]]

    @pytest.mark.parametrize(
        "n,p,h", [(2, 2, 0.5), (8, 2, 0.7), (9, 4, 0.7), (8, 3, 0.7), (1, 3, 0.5), (5, 2, 0.0)]
    )
    def test_two_bisections_and_one_inverse_iteration(self, monkeypatch, n, p, h):
        # e_min comes with the ground state from one block solve; only e_max
        # takes a second, eigenvalue-only bisection of the whole sector
        calls = count_lapack_calls(monkeypatch)
        diagonalize_target(ProblemSpec(n, p, h))
        assert sorted(calls) == ["dstebz", "dstebz", "dstein"]

    @pytest.mark.parametrize("p", [2, 4])
    def test_one_state_block_takes_one_bisection(self, monkeypatch, p):
        # N = 1, even p: the 1x1 block is its own spectrum, so only e_max
        # calls LAPACK
        calls = count_lapack_calls(monkeypatch)
        diagonalize_target(ProblemSpec(1, p, 0.8))
        assert calls == ["dstebz"]

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("h", [0.0, 0.3, 1.0, 1.3, 5.0])
    def test_ground_energy_is_the_sector_bisection(self, p, h):
        # the block holds a sector ground state (Perron-Frobenius for h > 0,
        # block state 0 at h = 0), so its lowest eigenvalue is the sector's:
        # the same bisection for odd p, to 2 eps of the norm bound for even p
        eps = np.finfo(float).eps
        for n in (1, 2, 3, 16, 17, 128, 129, 512, 513):
            spec = ProblemSpec(n, p, h)
            target = diagonalize_target(spec)
            diag, off = target_tridiagonal(spec)
            sector_min = scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(0, 0))[0]
            if p % 2:
                assert target.e_min == sector_min
            else:
                assert abs(target.e_min - sector_min) <= 2 * eps * target.norm_bound

    def test_needs_no_scipy_wrapper(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scipy wrapper was called")

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", refuse)
        monkeypatch.setattr(scipy.linalg, "eigvalsh_tridiagonal", refuse)
        spec = ProblemSpec(33, 3, 0.7)
        assert dynamical_gap(spec) > 0
        assert diagonalize_target(spec).e_min < 0
        assert x_spectral_decomposition.__wrapped__(33, True).eigenvalues.size == 17

    # the helper's modes: two eigenvalues, one eigenpair, and a 1x1 matrix
    # (its own spectrum, with no LAPACK call)
    MODES = [((0, 1), False, 4), ((0, 0), True, 4), ((0, 0), False, 1), ((0, 0), True, 1)]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_entries(self, bad):
        for index, vectors, size in self.MODES:
            d, e = np.zeros(size), np.ones(size - 1)
            cases = [(np.r_[d[:-1], bad], e)] + ([(d, np.r_[e[:-1], bad])] if size > 1 else [])
            for arrays in cases:
                with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
                    sector._tridiagonal_eigh(*arrays, index, vectors)
            # finite entries go through every mode
            assert np.isfinite(sector._tridiagonal_eigh(d, e, index, vectors=False)).all()

    @pytest.mark.parametrize("index,vectors,size", MODES)
    def test_refuses_entries_whose_squares_overflow(self, index, vectors, size):
        # the guard is one sum of squares per array, which numpy reports
        # overflowing; dstebz squares the off-diagonal, so an entry of 2^512
        # is out of its range anyway
        d, e = np.zeros(size), np.ones(size - 1)
        cases = [(np.r_[d[:-1], 2.0**512], e)] + ([(d, np.r_[e[:-1], 2.0**512])] if size > 1 else [])
        for arrays in cases:
            with pytest.warns(RuntimeWarning, match="overflow"):
                with pytest.raises(np.linalg.LinAlgError, match="squares overflow"):
                    sector._tridiagonal_eigh(*arrays, index, vectors)

    def test_refuses_a_non_finite_dstein_vector(self):
        # h (N + 1) = 2^500 at N = 1024, p = 3, past the field bound: dstebz
        # still succeeds, dstein overflows with info = 0
        table = sector_table(1024, 3)
        d, e = table.target_diag, -(2.0**500 / 1025) * table.x_off
        assert np.isfinite(sector._tridiagonal_eigh(d, e, (0, 1), vectors=False)).all()
        with pytest.raises(np.linalg.LinAlgError, match="dstein"):
            sector._tridiagonal_eigh(d, e, (0, 0))

    def test_missing_flapack_names_the_path_searched(self, monkeypatch, tmp_path):
        monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "scipy" / "__init__.py"))
        where = tmp_path / "scipy" / "linalg"
        with pytest.raises(ImportError, match=re.escape(f"_flapack in {where}")):
            sector._load_flapack()

    def test_lapack_failures_keep_their_error_types(self, monkeypatch):
        class Failing:
            def dstebz(self, d, e, *args):
                return 0, np.zeros(d.size), None, None, 1

        monkeypatch.setattr(sector, "lapack", Failing())
        spec = ProblemSpec(8, 3, 0.5)
        with pytest.raises(np.linalg.LinAlgError, match="dstebz found 0"):
            dynamical_gap(spec)
        with pytest.raises(RuntimeError, match="target eigensolver failed"):
            diagonalize_target(spec)

    def test_collective_x_needs_no_lapack(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dstevd called")

        monkeypatch.setattr(sector.lapack, "dstevd", refuse)
        x_spectral_decomposition.cache_clear()
        engine.circuit_context.cache_clear()
        for spec in (ProblemSpec(12, 3, 0.7), ProblemSpec(12, 2, 0.7)):
            dec = x_spectral_decomposition(12, spec.p_exponent % 2 == 0)
            assert engine.circuit_context(spec).xdec is dec
            params = r_init(3, 0)
            energy, _ = energy_and_gradient(spec, params.to_vector()[None])
            assert engine.evaluate(spec, params).energy == energy[0]
        engine.circuit_context.cache_clear()

    def test_short_eigenvalue_count_is_refused(self, monkeypatch):
        real = sector.lapack.dstebz

        def short(*args):
            m, w, iblock, isplit, info = real(*args)
            return m - 1, w, iblock, isplit, info

        monkeypatch.setattr(sector.lapack, "dstebz", short)
        with pytest.raises(np.linalg.LinAlgError, match="found 1 of eigenvalues 0..1"):
            dynamical_gap(ProblemSpec(8, 3, 0.5))
