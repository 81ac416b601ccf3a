import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from hypothesis import example, given, settings, strategies as st

from analytic_oracles import (
    circuit_energy_mp,
    circuit_gradient_adjoint_mp,
    circuit_gradient_mp,
    params_from_vector,
    plus_amplitudes,
    x_eigenvectors,
)
from fullspace import (
    collective_x_matrix,
    embed_sector_state,
    fidelity,
    full_energy,
    full_qaoa_state,
    sector_energy,
    sector_ground_state,
    target_matrix,
)
from pspin_qaoa import engine, optimizer
from pspin_qaoa.engine import (
    QaoaParams,
    circuit_context,
    energy_and_gradient,
    equivalent_annealing_time,
    evaluate,
    qaoa_state,
    residual_energy,
)
from pspin_qaoa.optimizer import RandomInit, l_init, optimize, r_init
from pspin_qaoa.sector import (
    ProblemSpec,
    diagonalize_target,
    reflection_even_tridiagonal,
)


def random_vector(dim, seed=0):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


def random_state(n, seed=0):
    return random_vector(n + 1, seed)


def params_of(gammas, betas):
    return QaoaParams(gammas=np.atleast_1d(gammas), betas=np.atleast_1d(betas))


def context(n, p=2):
    return circuit_context(ProblemSpec(n, p))


def phase(ctx, psi, gamma):
    """One phase layer on a single state."""
    return ctx.apply_phase(psi, ctx.phase_factors(gamma))


def mix(ctx, psi, beta):
    """One mixer layer on a single state."""
    return ctx.apply_mixer(psi, ctx.mixer_factors(beta))


def energy_grad(spec, params):
    """``energy_and_gradient`` of one ``QaoaParams``, run as a batch of one."""
    energies, grads = energy_and_gradient(spec, params.to_vector()[None])
    return energies[0], grads[0]


# one (1, 2) parameter array of every numpy dtype kind but i, u and f; the
# complex one ran as the energy of [[0.1, 0.2]], warning only
NON_REAL_ROWS = {
    "b": np.array([[True, False]]),
    "c": np.array([[0.1 + 0.5j, 0.2]]),
    "O": np.array([[0.1, 0.2]], dtype=object),
    "U": np.array([["0.1", "0.2"]]),
    "S": np.array([[b"0.1", b"0.2"]]),
    "M": np.array([["2020-01-01", "2020-01-02"]], dtype="datetime64[D]"),
    "m": np.array([[1, 2]], dtype="timedelta64[s]"),
    "V": np.zeros((1, 2), dtype=[("gamma", float)]),
}


@st.composite
def accepted_shapes(draw):
    """An (N, p) that ``ProblemSpec`` accepts, with m <= 65 states: N <= 64,
    or N <= 129 for even p, and N^p < 2^127."""
    n = draw(st.integers(min_value=1, max_value=129))
    p_max = 127 if n == 1 else max(p for p in range(2, 128) if n**p < 2**127)
    p = draw(st.integers(min_value=2, max_value=p_max).filter(lambda p: n <= 64 or p % 2 == 0))
    ProblemSpec(n, p)  # raises if the shape is refused
    return n, p


class TestPhaseLayer:
    def test_zero_angle_is_identity(self):
        ctx = context(6, 2)
        psi = random_vector(ctx.plus.size, 1)
        np.testing.assert_allclose(phase(ctx, psi, 0.0), psi)

    def test_single_spin_global_phase(self):
        # N=1, p=3, gamma=pi: phases exp(+-i pi) are a common factor of -1
        psi = random_state(1, 2)
        out = phase(context(1, 3), psi, np.pi)
        np.testing.assert_allclose(out, -psi, atol=1e-14)

    def test_norm_preserved(self):
        psi = random_state(9, 3)
        out = phase(context(9, 3), psi, 0.3)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-14

    @pytest.mark.parametrize("n,p,gamma", [
        (200, 16, 2.9), (300, 15, 1.234567), (1000, 12, 0.7),
        (8, 2, 1e25), (8, 2, 1e30), (8, 2, 3.7e40), (8, 2, -1e300), (1000, 12, 1e300),
    ])
    def test_huge_phases_match_high_precision_reference(self, n, p, gamma):
        # |gamma hz| far beyond 2^53 takes the exact integer reduction; a
        # product of 53 + bit_length(N^p) bits must be reduced mod 2 pi
        # without rounding, also where gamma alone is huge (a reduction at a
        # fixed precision loses 2.8e-12 at 1e25 and every digit at 3.7e40).
        # At (1000, 12, 1e300) the float product would overflow to inf, which
        # must raise no warning
        ctx = context(n, p)
        assert abs(gamma) > ctx.exact_gamma
        out = phase(ctx, np.ones(ctx.plus.size, dtype=complex), gamma)[ctx.order]
        hz = [-((n - 2 * k) ** p) for k in range(ctx.order.size)]
        with mpmath.workprec(4096):
            g, two_pi = mpmath.mpf(gamma), 2 * mpmath.pi
            expected = np.array([complex(mpmath.expj(-mpmath.fmod(g * v, two_pi))) for v in hz])
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-15)

    def test_inverse_two_pi_is_its_leading_bits(self):
        # floor(2^1280 / (2 pi)), with 200 bits to spare
        with mpmath.workprec(1480):
            turns = mpmath.mpf(2) ** 1280 / (2 * mpmath.pi)
            assert engine._INV_2PI == int(mpmath.floor(turns))
            assert 0 < turns - engine._INV_2PI < 1
        assert engine._INV_2PI.bit_length() == 1278

    @given(shape=accepted_shapes(), sign=st.sampled_from([1, -1]),
           exponent=st.integers(min_value=-74, max_value=1023),
           mantissa=st.integers(min_value=0, max_value=2**52 - 1))
    @example(shape=(1000, 12), sign=1, exponent=996, mantissa=0)  # 1e300's binade, m = 501
    @example(shape=(1, 127), sign=-1, exponent=-74, mantissa=2**52 - 1)
    @example(shape=(64, 21), sign=1, exponent=1023, mantissa=2**52 - 1)
    @settings(max_examples=150, deadline=None)
    def test_exact_angles_within_half_an_ulp(self, shape, sign, exponent, mantissa):
        # the stated bound, 0.5 ulp plus 2^-126 rad, against a reduction at
        # 4096 bits, for every (N, p) that ProblemSpec accepts with m <= 65
        # and every gamma that can take the exact path (|gamma| > 2^-74)
        n, p = shape
        gamma = sign * math.ldexp(2**52 + mantissa, exponent - 52)
        hz = [-((n - 2 * k) ** p) for k in range(n // 2 + 1 if p % 2 == 0 else n + 1)]
        angles = engine._exact_angles(gamma, hz)
        with mpmath.workprec(4096):
            two_pi = 2 * mpmath.pi
            for angle, v in zip(angles, hz):
                phase = mpmath.mpf(gamma) * v
                exact = phase - two_pi * mpmath.nint(phase / two_pi)
                assert abs(angle - exact) <= math.ulp(float(exact)) / 2 + 2.0**-126


class TestMixerLayer:
    def test_zero_angle_is_identity(self):
        ctx = context(5)
        psi = random_vector(ctx.plus.size, 4)
        out = mix(ctx, psi, 0.0)
        np.testing.assert_allclose(out, psi, atol=1e-12)

    @pytest.mark.parametrize("n", [3, 6])
    def test_pi_shift_is_global_phase(self, n):
        ctx = context(n)
        psi = random_vector(ctx.plus.size, 5)
        out = mix(ctx, psi, np.pi)
        assert abs(abs(np.vdot(psi, out)) - 1.0) < 1e-12

    def test_plus_state_is_eigenstate(self):
        ctx = context(8)
        plus = ctx.plus
        out = mix(ctx, plus, 0.77)
        assert abs(fidelity(out, plus) - 1.0) < 1e-12
        np.testing.assert_allclose(out, np.exp(1j * 0.77 * 8) * plus, atol=1e-12)


LAYERS = ["apply_phase", "to_x_basis", "from_x_basis", "apply_mixer", "apply_x"]


def apply_layer(ctx, method, state, angles):
    """``method`` on ``state`` with the factors it takes for ``angles``:
    those of the phase or mixer layer, or none. F^T and F act on the
    stored pairs of the state, into those of a new array."""
    if method in ("to_x_basis", "from_x_basis"):
        out = np.empty_like(state)
        getattr(ctx, method)(engine._store_views(ctx, state)[2], engine._store_views(ctx, out)[2])
        return out
    factors = {"apply_phase": (ctx.phase_factors(angles),),
               "apply_mixer": (ctx.mixer_factors(angles),)}.get(method, ())
    return getattr(ctx, method)(state, *factors)


class TestBlockKernel:
    """A state's last axis holds its m amplitudes: an (R, m) stack goes
    through the same kernels as its rows, and a lone (m,) state as the
    stack of one."""

    @pytest.mark.parametrize("method", LAYERS)
    def test_refuses_a_column(self, method):
        # an (n, 1) column would broadcast against the (n,) factors:
        # apply_phase returned an (n, n) array. N = 8, p = 3 stores its
        # m = 9 amplitudes as two halves of 5, the odd one padded
        ctx = context(8, 3)
        column = random_vector(ctx.plus.size, 12)[:, None]
        with pytest.raises(ValueError, match=r"shape \(10, 1\)"):
            apply_layer(ctx, method, column, 0.3)

    @pytest.mark.parametrize("method", LAYERS)
    @pytest.mark.parametrize("n,p", [(1, 2), (1, 3), (8, 2), (129, 3)])
    def test_lone_state_is_row_zero_of_its_stack(self, method, n, p):
        ctx = context(n, p)
        psi = random_vector(ctx.plus.size, 13)
        lone = apply_layer(ctx, method, psi, 0.3)
        stack = apply_layer(ctx, method, psi[None], np.array([0.3]))
        assert lone.shape == psi.shape and stack.shape == (1, psi.size)
        np.testing.assert_array_equal(lone, stack[0])

    @pytest.mark.parametrize("n", [1, 8, 129])
    def test_mixer_stack_matches_rows(self, n):
        ctx = context(n)
        stack = np.stack([random_vector(ctx.plus.size, seed) for seed in (6, 7, 8)])
        betas = np.array([0.41, 1.3, -2.2])
        out = ctx.apply_mixer(stack, ctx.mixer_factors(betas))
        assert out.shape == stack.shape
        for r in range(3):
            np.testing.assert_array_equal(out[r], mix(ctx, stack[r], betas[r]))

    @pytest.mark.parametrize("n", [1, 8, 129])
    def test_phase_stack_matches_rows(self, n):
        ctx = context(n, 3)
        stack = np.stack([random_vector(ctx.plus.size, seed) for seed in (9, 10, 11)])
        gammas = np.array([0.23, 1.7, -0.05])
        out = ctx.apply_phase(stack, ctx.phase_factors(gammas))
        assert out.shape == stack.shape
        for r in range(3):
            np.testing.assert_array_equal(out[r], phase(ctx, stack[r], gammas[r]))


class TestBatchedEvaluation:
    """R parameter vectors evaluate as one stack; every row's numbers are
    exactly those of the same row run as a batch of one."""

    # m = 14, 33, 257 (block and sector), 258, 513 and 1025 (sector, and the
    # block unfolded at odd N)
    @pytest.mark.parametrize("n,p", [(13, 3), (32, 3), (512, 2), (256, 3), (257, 3), (512, 3),
                                     (1024, 3), (2049, 2)])
    def test_rows_match_single_calls(self, n, p):
        spec = ProblemSpec(n, p, 0.7)
        rows = np.array([random_angles(spec, 3, seed) for seed in range(5)])
        energies, grads = energy_and_gradient(spec, rows)
        assert energies.shape == (5,) and grads.shape == (5, 6)
        for row, e_val, grad in zip(rows, energies, grads):
            (e_one,), (grad_one,) = energy_and_gradient(spec, row[None])
            assert e_val == e_one
            np.testing.assert_array_equal(grad, grad_one)

    def test_exact_phase_fallback_per_row(self, monkeypatch):
        # max|hz| = 500^7: gamma = 1e-3 keeps the phase below 2^53 (float
        # product), gamma = 0.5 takes it beyond (exact integers). In one
        # batch each row must get exactly what it gets alone, and only the
        # large row may take the exact path
        spec = ProblemSpec(500, 7, 0.3)
        ctx = circuit_context(spec)
        rows = np.array([[1e-3, 0.4], [0.5, 0.4]])
        assert 1e-3 <= ctx.exact_gamma < 0.5
        exact_calls = []
        exact_angles = engine._exact_angles

        def counted(gamma, *args):
            exact_calls.append(gamma)
            return exact_angles(gamma, *args)

        monkeypatch.setattr(engine, "_exact_angles", counted)
        energies, grads = energy_and_gradient(spec, rows)
        assert exact_calls == [0.5]
        for row, e_val, grad in zip(rows, energies, grads):
            (e_one,), (grad_one,) = energy_and_gradient(spec, row[None])
            assert e_val == e_one
            np.testing.assert_array_equal(grad, grad_one)

    @pytest.mark.parametrize("shape", [(1, 5), (2, 3), (4,), (1, 0)])
    def test_refuses_malformed_parameter_arrays(self, shape):
        # an odd width would drop a beta, a 1-d row would index past its end
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},"):
            energy_and_gradient(ProblemSpec(6, 2, 0.5), np.full(shape, 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("column", [0, 1, 2, 3])  # gamma_1, gamma_2, beta_1, beta_2
    def test_refuses_non_finite_parameter_rows(self, monkeypatch, bad, column):
        # refused before the circuit runs, not as a NaN energy and gradient
        def refuse(*args):
            raise AssertionError("the circuit ran")

        monkeypatch.setattr(engine, "_forward", refuse)
        x = np.full((2, 4), 0.1)
        x[1, column] = bad
        with pytest.raises(ValueError, match="must be finite"):
            energy_and_gradient(ProblemSpec(8, 3, 0.5), x)

    @pytest.mark.parametrize("kind", sorted(NON_REAL_ROWS))
    def test_refuses_non_real_dtypes(self, monkeypatch, kind):
        # a complex row would run as its real part (with only a
        # ComplexWarning), a bool, string or object one as its cast
        def refuse(*args):
            raise AssertionError("the circuit ran")

        monkeypatch.setattr(engine, "_forward", refuse)
        x = NON_REAL_ROWS[kind]
        assert x.dtype.kind == kind and x.shape == (1, 2)
        with pytest.raises(ValueError, match="parameter rows must be integers or reals"):
            energy_and_gradient(ProblemSpec(8, 2, 0.5), x)

    @pytest.mark.parametrize("dtype", [np.int64, np.int8, np.uint8, np.float32])
    def test_accepts_integer_and_real_dtypes(self, dtype):
        spec = ProblemSpec(8, 2, 0.5)
        x = np.array([[1, 2, 0, 1]], dtype=dtype)
        (e_val,), (grad,) = energy_and_gradient(spec, x)
        (e_ref,), (grad_ref,) = energy_and_gradient(spec, x.astype(float))
        assert e_val == e_ref
        np.testing.assert_array_equal(grad, grad_ref)

    def test_refuses_qaoa_params(self):
        # one parameter vector is the batch of one, x[None]
        with pytest.raises(ValueError, match=r"shape \(\)"):
            energy_and_gradient(ProblemSpec(6, 2, 0.5), params_of(0.3, 0.3))

    def test_deep_odd_p_gradient_against_central_differences(self):
        # P = P* = N + 1 = 129 layers on all m = 129 states of N = 128, p = 3,
        # so the reverse sweep reads the stored states of every layer.
        # Five-point central differences along three seeded unit directions
        # in natural units, step 3e-5: truncation about 1e-9 relative,
        # roundoff about 1e-15 |E| / step
        spec = ProblemSpec(128, 3, 0.7)
        depth = 129
        unit = natural_units(spec, depth)
        x = random_angles(spec, depth, 11)
        _, (grad,) = energy_and_gradient(spec, x[None])

        def energy_at(y):
            return energy_and_gradient(spec, y[None])[0][0]

        rng = np.random.default_rng(12)
        step = 3e-5
        for _ in range(3):
            d = rng.normal(size=2 * depth)
            d *= unit / np.linalg.norm(d)
            fd = (8 * (energy_at(x + step * d) - energy_at(x - step * d))
                  - (energy_at(x + 2 * step * d) - energy_at(x - 2 * step * d))) / (12 * step)
            assert abs(grad @ d - fd) <= 1e-7 * max(1.0, abs(fd))


class TestAdjointSweep:
    """The reverse sweep reads the forward sweep's stored states: it carries
    one column per row through the two mixer halves and makes no
    collective-X product."""

    @pytest.mark.parametrize("n,p,depth", [(9, 3, 1), (12, 2, 4), (33, 3, 15)])
    def test_calls_each_mixer_half_twice_per_layer(self, monkeypatch, n, p, depth):
        spec = ProblemSpec(n, p, 0.7)
        circuit_context(spec)
        calls = {name: 0 for name in ("to_x_basis", "from_x_basis", "apply_mixer", "apply_x")}

        def counting(name):
            method = getattr(engine.CircuitContext, name)

            def counted(self, *args):
                calls[name] += 1
                return method(self, *args)

            return counted

        for name in calls:
            monkeypatch.setattr(engine.CircuitContext, name, counting(name))
        rows = np.array([random_angles(spec, depth, seed) for seed in range(2)])
        energy_and_gradient(spec, rows)
        assert calls == {"to_x_basis": 2 * depth, "from_x_basis": 2 * depth,
                         "apply_mixer": 0, "apply_x": 0}


def dense_energy_and_gradient(spec, x):
    """Energy and gradient of one parameter row by dense matrices in the
    whole sector, in natural order: |+> from exact binomials, the mixer
    V diag(exp(i beta lam)) V^T from ``x_eigenvectors`` (the closed form,
    rounded once), H the dense ``target_matrix``, the gradient by an
    adjoint sweep that inserts -i hz and i X. No block and no fold."""
    n, p = spec.n_sites, spec.p_exponent
    vec = x_eigenvectors(n, False)
    lam = np.arange(-n, n + 1, 2, dtype=float)
    hz = np.array([-float((n - 2 * k) ** p) for k in range(n + 1)])
    hmat = target_matrix(spec)
    depth = x.size // 2
    psi, stored = plus_amplitudes(n).astype(complex), []
    for gamma, beta in zip(x[:depth], x[depth:]):
        post_phase = np.exp(-1j * gamma * hz) * psi
        coords = np.exp(1j * beta * lam) * (vec.T @ post_phase)
        stored.append((post_phase, coords))
        psi = vec @ coords
    adj, grad = hmat @ psi, np.empty(2 * depth)
    for layer in reversed(range(depth)):
        post_phase, coords = stored[layer]
        b = vec.T @ adj
        grad[depth + layer] = 2 * np.vdot(b, 1j * lam * coords).real
        adj = vec @ (np.exp(-1j * x[depth + layer] * lam) * b)
        grad[layer] = 2 * np.vdot(adj, -1j * hz * post_phase).real
        adj = np.exp(1j * x[layer] * hz) * adj
    return float(np.vdot(psi, hmat @ psi).real), grad


def stated_bounds(spec, x):
    """The bounds ``energy_and_gradient`` states, on the energy and on each
    gradient component, in that order."""
    n, p, depth = spec.n_sites, spec.p_exponent, x.size // 2
    unit = np.finfo(float).eps * engine.cached_spectrum(spec).norm_bound
    phase_term = n**p * np.sum(np.abs(x[:depth]))
    scale = np.array([n**p] * depth + [n] * depth, dtype=float)
    return (2 * depth + phase_term) * unit, (depth * max(1, n / 64) + phase_term) * unit * scale


# every structural case of the folded layout: an (N, p) at small N for the
# full 2^N space, one at m of about 33 for the dense sector circuit, the
# number s of halves, whether lam = 0 is in the block, and whether a half
# is padded
FOLD_CASES = {
    "even p, N = 0 mod 4": ([(8, 2), (64, 2)], 2, True, True),
    "even p, N = 2 mod 4": ([(10, 4), (66, 2)], 2, False, False),
    "even p, odd N": ([(9, 2), (33, 2)], 1, False, False),
    "odd p, even N": ([(8, 3), (32, 3)], 2, True, True),
    "odd p, odd N": ([(9, 3), (33, 5)], 2, False, False),
}


class TestFoldedLayout:
    """Each (N, p) runs in one of five structural cases of the fold; each
    agrees with the full 2^N space and with a dense sector circuit that
    never folds."""

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_layout(self, case):
        shapes, fold, zero, padded = FOLD_CASES[case]
        for n, p in shapes:
            ctx = context(n, p)
            m = ctx.order.size
            assert ctx.halves == (fold, -(-m // fold)), (n, p)
            assert (0.0 in ctx.xdec.eigenvalues) == zero and (ctx.plus.size > m) == padded, (n, p)

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_matches_the_full_space(self, case):
        n, p = FOLD_CASES[case][0][0]
        spec = ProblemSpec(n, p, GOLDEN_FIELD)
        x = random_angles(spec, 3, n + p)
        (e_val,), (grad,) = energy_and_gradient(spec, x[None])
        params = params_from_vector(x)

        def full(y):
            return full_energy(n, p, GOLDEN_FIELD, full_qaoa_state(n, p, y[:3], y[3:]))

        assert abs(e_val - full(x)) <= stated_bounds(spec, x)[0] + 1e-14 * abs(e_val)
        assert e_val == evaluate(spec, params).energy
        unit, step = natural_units(spec, 3), 1e-4
        for i in range(x.size):
            d = np.zeros_like(x)
            d[i] = step * unit[i]
            fd = (8 * (full(x + d) - full(x - d)) - (full(x + 2 * d) - full(x - 2 * d))) / (12 * step)
            assert abs(grad[i] * unit[i] - fd) <= 1e-8 * max(1.0, abs(e_val)), (i, grad[i] * unit[i], fd)

    @pytest.mark.parametrize("case", sorted(FOLD_CASES))
    def test_matches_the_dense_sector_circuit(self, case):
        # each side is within the stated bounds of exact arithmetic, so the
        # two are within twice them
        n, p = FOLD_CASES[case][0][1]
        spec = ProblemSpec(n, p, GOLDEN_FIELD)
        for seed in range(3):
            x = random_angles(spec, 4, seed) if seed else l_init(4, spec, seed=0).to_vector()
            (e_val,), (grad,) = energy_and_gradient(spec, x[None])
            e_dense, grad_dense = dense_energy_and_gradient(spec, x)
            e_bound, grad_bound = stated_bounds(spec, x)
            assert abs(e_val - e_dense) <= 2 * e_bound
            assert np.all(np.abs(grad - grad_dense) <= 2 * grad_bound)

    def test_odd_n_even_p_block_is_not_folded(self):
        # prod sigma^z does not map the reflection-even block of an odd N to
        # itself, so its lam has no +- pairs: folded as if it had, the energy
        # at (33, 2, 1) read -34.74 where the circuit gives -35.10
        spec = ProblemSpec(33, 2, 1.0)
        assert circuit_context(spec).halves == (1, 17)
        x = l_init(4, spec, seed=0).to_vector()
        e_dense = dense_energy_and_gradient(spec, x)[0]
        assert abs(energy_and_gradient(spec, x[None])[0][0] - e_dense) <= 2 * stated_bounds(spec, x)[0]

    @pytest.mark.parametrize("n,even_parity", [(512, False), (1024, True), (1024, False), (2048, True),
                                               (2049, True)])
    def test_mixer_layer_against_expm_multiply(self, n, even_parity):
        """One mixer layer at m = 513 and m = 1025 (the sector, the block
        folded at even N and unfolded at odd N) against scipy's
        expm_multiply on the sparse collective-X tridiagonal, which takes no
        eigendecomposition. Bound: every amplitude of a unit state within
        24 eps. It is the oracle's: with |beta| N <= 21 its Taylor steps
        were up to 12 eps off a dense scaling-and-squaring expm, which the
        layer matched to 0.7 eps."""
        ctx = context(n, 2 if even_parity else 3)
        diag, off = np.zeros(n + 1), np.sqrt((np.arange(n) + 1.0) * (n - np.arange(n)))
        if even_parity:
            diag, off = reflection_even_tridiagonal(diag, off)
        xmat = scipy.sparse.diags([off, diag, off], [-1, 0, 1], format="csr")
        psi = random_vector(diag.size, n)
        stored = np.zeros(ctx.plus.size, dtype=complex)
        stored[ctx.order] = psi
        for beta in (0.01, -0.007):
            out = ctx.apply_mixer(stored, ctx.mixer_factors(beta))
            exact = scipy.sparse.linalg.expm_multiply(1j * beta * xmat, psi)
            assert np.max(np.abs(out[ctx.order] - exact)) <= 24 * np.finfo(float).eps
            assert not out[np.setdiff1d(np.arange(out.size), ctx.order)].any()


class TestQaoaState:
    def test_zero_angles_give_plus(self):
        spec = ProblemSpec(7, 2, 0.3)
        psi = qaoa_state(spec, params_of([0.0, 0.0], [0.0, 0.0]))
        np.testing.assert_allclose(psi, plus_amplitudes(7), atol=1e-12)

    def test_exact_depth1_odd_p(self):
        spec = ProblemSpec(5, 3, 0.0)
        psi = qaoa_state(spec, params_of(np.pi / 4, np.pi / 4))
        targ = sector_ground_state(spec)
        assert fidelity(psi, targ) > 1 - 1e-12

    def test_exact_depth1_even_p(self):
        spec = ProblemSpec(5, 2, 0.0)
        psi = qaoa_state(spec, params_of(np.pi / 8, np.pi / 4))
        targ = sector_ground_state(spec)
        assert fidelity(psi, targ) > 1 - 1e-12

    @given(st.integers(min_value=1, max_value=128), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_unitarity(self, n, seed):
        spec = ProblemSpec(n, 3, 0.5)
        params = r_init(5, seed)
        assert abs(np.linalg.norm(qaoa_state(spec, params)) - 1.0) < 1e-10

    def test_unitarity_deep_circuit(self):
        spec = ProblemSpec(16, 2, 1.0)
        params = r_init(200, 99)
        assert abs(np.linalg.norm(qaoa_state(spec, params)) - 1.0) < 1e-10


class TestBruteForceOracle:
    """Sector evolution must agree with explicit 2^N tensor-product simulation."""

    @pytest.mark.parametrize("n,p,h,depth,seed", [
        (2, 2, 0.0, 1, 11),
        (5, 3, 0.7, 2, 12),
        (7, 2, 1.3, 3, 13),
        (8, 4, 0.2, 2, 14),
        (10, 3, 2.0, 4, 15),
    ])
    def test_state_overlap(self, n, p, h, depth, seed):
        params = r_init(depth, seed)
        sector = qaoa_state(ProblemSpec(n, p, h), params)
        full = full_qaoa_state(n, p, params.gammas, params.betas)
        overlap = abs(np.vdot(embed_sector_state(sector, n), full)) ** 2
        assert overlap > 1 - 1e-10

    def test_energy_matches_full_space(self):
        n, p, h = 8, 3, 0.9
        params = r_init(3, 21)
        spec = ProblemSpec(n, p, h)
        sector = qaoa_state(spec, params)
        full = full_qaoa_state(n, p, params.gammas, params.betas)
        assert abs(sector_energy(spec, sector) - full_energy(n, p, h, full)) < 1e-10


GOLDEN_FIELD = (math.sqrt(5.0) - 1.0) / 2.0


class TestHighPrecisionOracle:
    """The energy against ``circuit_energy_mp``, the circuit at 40 digits
    from exact binomials, exact phases and the closed-form mixer, and the
    gradient against its 50-digit adjoint sweep, within the bounds
    ``energy_and_gradient`` states."""

    @pytest.mark.parametrize("n,p,depth", [(13, 3, 5), (13, 3, 14), (16, 2, 10), (64, 3, 10)])
    @pytest.mark.parametrize("init", ["r", "l"])
    def test_energy_within_the_stated_bound(self, n, p, depth, init):
        spec = ProblemSpec(n, p, GOLDEN_FIELD)
        unit = np.finfo(float).eps * engine.cached_spectrum(spec).norm_bound
        for seed in range(3 if n < 64 else 1):  # m = 65 costs 0.3-0.6 s a circuit
            params = r_init(depth, seed) if init == "r" else l_init(depth, spec, seed=seed)
            # the angles as drawn, and each gamma on a 2^-30 grid, where
            # every product gamma hz_k is exact in float64: the bound's phase
            # term is 0 there, and its 2 P must hold alone
            dyadic = np.round(params.gammas * 2.0**30) / 2.0**30
            for gammas, phase_term in ((params.gammas, n**p * np.sum(np.abs(params.gammas))), (dyadic, 0.0)):
                x = np.concatenate([gammas, params.betas])
                energy = energy_and_gradient(spec, x[None])[0][0]
                assert evaluate(spec, params_from_vector(x)).energy == energy
                exact = circuit_energy_mp(n, p, GOLDEN_FIELD, gammas, params.betas)
                assert float(abs(mpmath.mpf(float(energy)) - exact)) <= (2 * depth + phase_term) * unit

    @pytest.mark.parametrize("n,p,depth", [(13, 3, 5), (13, 3, 14), (16, 2, 10), (128, 3, 5)])
    @pytest.mark.parametrize("init", ["r", "l"])
    def test_gradient_within_the_stated_bound(self, n, p, depth, init):
        # against the 50-digit adjoint oracle; a gamma component is held to
        # D = N^p, a beta component to D = N. From N = 64 on the first term
        # grows as N: at (128, 3, 5) a beta's reached 1.19 P (r-init, seed 0)
        spec = ProblemSpec(n, p, GOLDEN_FIELD)
        first = depth * max(1, n / 64)
        unit = np.finfo(float).eps * engine.cached_spectrum(spec).norm_bound
        scale = np.array([n**p] * depth + [n] * depth, dtype=float)
        for seed in range(2 if n < 128 else 1):  # m = 129 costs about 1 s an oracle call
            params = r_init(depth, seed) if init == "r" else l_init(depth, spec, seed=seed)
            dyadic = np.round(params.gammas * 2.0**30) / 2.0**30  # phase term 0, as above
            for gammas, phase_term in ((params.gammas, n**p * np.sum(np.abs(params.gammas))), (dyadic, 0.0)):
                grad = energy_and_gradient(spec, np.concatenate([gammas, params.betas])[None])[1][0]
                exact = circuit_gradient_adjoint_mp(n, p, GOLDEN_FIELD, gammas, params.betas)
                exact = np.array([float(v) for v in exact])
                assert np.all(np.abs(grad - exact) <= (first + phase_term) * unit * scale)

    @pytest.mark.parametrize("n,p,depth,init", [(13, 3, 5, "l"), (16, 2, 4, "r")])
    def test_adjoint_oracle_matches_central_differences(self, n, p, depth, init):
        # the adjoint oracle follows the package's derivation; central
        # differences of the circuit oracle share none of it. The two
        # agreed to 2.4e-29 of the largest component at m <= 17
        spec = ProblemSpec(n, p, GOLDEN_FIELD)
        params = r_init(depth, 0) if init == "r" else l_init(depth, spec, seed=0)
        adjoint = circuit_gradient_adjoint_mp(n, p, GOLDEN_FIELD, params.gammas, params.betas)
        central = circuit_gradient_mp(n, p, GOLDEN_FIELD, params.gammas, params.betas)
        with mpmath.workdps(50):
            largest = max(abs(v) for v in central)
            assert max(abs(a - c) for a, c in zip(adjoint, central)) <= mpmath.mpf("1e-25") * largest


class DenseSectorCircuit:
    """The sector circuit from dense matrices, for one (N, p, h).

    |+> comes from exact binomials, each phase exp(-i gamma hz_k) is reduced
    modulo 2 pi from the exact integer hz_k = -(M_k)^p in 40-digit
    arithmetic, and each mixer is scipy's expm of i beta times the dense
    collective-X matrix. Layer factors are cached per angle, so central
    differences pay for the layers they move.
    """

    def __init__(self, spec):
        n, p = spec.n_sites, spec.p_exponent
        self.xmat = collective_x_matrix(n)
        self.hmat = target_matrix(spec)
        self.hz = [-((n - 2 * k) ** p) for k in range(n + 1)]
        self.plus = np.array([math.sqrt(math.comb(n, k) / 2**n) for k in range(n + 1)], complex)
        self._phases, self._mixers = {}, {}

    def phases(self, gamma):
        if gamma not in self._phases:
            with mpmath.workdps(40):
                g, two_pi = mpmath.mpf(float(gamma)), 2 * mpmath.pi
                angles = np.array([float(mpmath.fmod(g * v, two_pi)) for v in self.hz])
            self._phases[gamma] = np.exp(-1j * angles)
        return self._phases[gamma]

    def mixer(self, beta):
        if beta not in self._mixers:
            self._mixers[beta] = scipy.linalg.expm(1j * beta * self.xmat)
        return self._mixers[beta]

    def state(self, x):
        params = params_from_vector(x)
        psi = self.plus
        for gamma, beta in zip(params.gammas, params.betas):
            psi = self.mixer(beta) @ (self.phases(gamma) * psi)
        return psi

    def energy(self, x):
        psi = self.state(x)
        return float(np.vdot(psi, self.hmat @ psi).real)


even_p_circuits = given(
    n=st.integers(min_value=1, max_value=160),
    p=st.sampled_from([2, 4]),
    h=st.floats(min_value=0.0, max_value=3.0),
    depth=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)


def natural_units(spec, depth):
    # gamma multiplies |M|^p up to N^p, so N^(p-1) gamma is its natural scale
    return np.concatenate([np.full(depth, 1.0 / spec.n_sites ** (spec.p_exponent - 1)), np.ones(depth)])


def random_angles(spec, depth, seed):
    unit = natural_units(spec, depth)
    return np.random.default_rng(seed).uniform(-np.pi, np.pi, 2 * depth) * unit


class TestReflectionEvenBlock:
    """Even p runs in the reflection-even block of floor(N/2)+1 states; what
    it returns must agree with the dense circuit on all N+1 states."""

    @even_p_circuits
    @example(n=1, p=2, h=0.5, depth=3, seed=1)
    @example(n=2, p=2, h=1.0, depth=2, seed=2)
    @example(n=7, p=4, h=2.0, depth=4, seed=3)
    @example(n=160, p=2, h=3.0, depth=6, seed=4)
    @settings(max_examples=25, deadline=None)
    def test_state_matches_dense_circuit(self, n, p, h, depth, seed):
        spec = ProblemSpec(n, p, h)
        x = random_angles(spec, depth, seed)
        psi = qaoa_state(spec, params_from_vector(x))
        assert psi.shape == (n + 1,)
        assert np.max(np.abs(psi - DenseSectorCircuit(spec).state(x))) < 1e-12
        np.testing.assert_array_equal(psi, psi[::-1])

    @even_p_circuits
    @example(n=1, p=4, h=1.5, depth=2, seed=5)
    @example(n=9, p=2, h=0.7, depth=3, seed=6)
    @example(n=10, p=2, h=2.5, depth=3, seed=7)
    @settings(max_examples=10, deadline=None)
    def test_gradient_matches_dense_central_differences(self, n, p, h, depth, seed):
        # five-point central differences in natural units, step 5e-5: the
        # truncation error is about step^4 times the fifth derivative, the
        # roundoff about 1e-13 |E| / step
        spec = ProblemSpec(n, p, h)
        dense = DenseSectorCircuit(spec)
        x = random_angles(spec, depth, seed)
        (e_val,), (grad,) = energy_and_gradient(spec, x[None])
        assert abs(e_val - dense.energy(x)) < 1e-10 * max(1.0, abs(e_val))
        unit = natural_units(spec, depth)
        step = 5e-5
        fd = np.zeros_like(x)
        for i in range(x.size):
            def shifted(j):
                y = x.copy()
                y[i] += j * step * unit[i]
                return dense.energy(y)
            fd[i] = (8 * (shifted(1) - shifted(-1)) - (shifted(2) - shifted(-2))) / (12 * step)
        scaled = grad * unit
        scale = max(1.0, abs(e_val), np.max(np.abs(scaled)))
        assert np.max(np.abs(scaled - fd)) < 1e-7 * scale


class TestEnergy:
    def test_plus_state_odd_p(self):
        # odd moments of the symmetric magnetization distribution vanish
        spec = ProblemSpec(8, 3, 0.5)
        assert abs(sector_energy(spec, plus_amplitudes(8)) + 4.0) < 1e-12

    @pytest.mark.parametrize("n", [3, 6, 9, 12])
    def test_plus_state_p2_brute_force(self, n):
        # <(sum sigma^z)^2> over all 2^N bitstrings equals N
        moment = sum(
            (n - 2 * bin(l).count("1")) ** 2 for l in range(2**n)
        ) / 2**n
        assert moment == n
        spec = ProblemSpec(n, 2, 0.0)
        assert abs(sector_energy(spec, plus_amplitudes(n)) + 1.0) < 1e-12

    def test_fully_polarized(self):
        spec = ProblemSpec(6, 3, 0.0)
        e0 = np.zeros(7, complex)
        e0[0] = 1.0
        assert abs(sector_energy(spec, e0) + 6.0) < 1e-12


class TestResidualEnergy:
    def test_affine_map(self):
        spectrum = diagonalize_target(ProblemSpec(6, 2, 1.0))
        assert residual_energy(spectrum, spectrum.e_min) == 0.0
        assert residual_energy(spectrum, spectrum.e_max) == 1.0
        mid = 0.5 * (spectrum.e_min + spectrum.e_max)
        assert abs(residual_energy(spectrum, mid) - 0.5) < 1e-14

    def test_rejects_inconsistent_energy(self):
        spectrum = diagonalize_target(ProblemSpec(6, 2, 1.0))
        with pytest.raises(ValueError):
            residual_energy(spectrum, spectrum.e_min - 1.0)

    def test_slack_scales_with_the_norm_bound(self):
        spectrum = diagonalize_target(ProblemSpec(64, 2, 1e6))
        slack = 1e-12 * spectrum.norm_bound
        assert residual_energy(spectrum, spectrum.e_min - 0.5 * slack) == 0.0
        assert residual_energy(spectrum, spectrum.e_max + 0.5 * slack) == 1.0
        with pytest.raises(ValueError, match="outside spectrum"):
            residual_energy(spectrum, spectrum.e_min - 2.0 * slack)

    @pytest.mark.parametrize("n,h", [(64, 1e6), (64, 1e8), (65, 1e8), (64, 1e12), (65, 1e12)])
    def test_near_ground_state_at_large_field(self, n, h):
        # |+> is nearly the ground state of -h X; its full-sector energy lands
        # below e_min by roundoff of the size of h N (1.5e-6 at h = 1e6), which
        # an absolute slack refused
        spec = ProblemSpec(n, 2, h)
        params = params_of(1e-9, 0.0)
        spectrum = diagonalize_target(spec)
        assert residual_energy(spectrum, sector_energy(spec, qaoa_state(spec, params))) < 1e-12
        assert evaluate(spec, params).residual < 1e-12


class TestFidelity:
    def test_self_and_orthogonal(self):
        psi = random_state(5, 31)
        assert abs(fidelity(psi, psi) - 1.0) < 1e-12
        e0 = np.zeros(6, complex)
        e1 = np.zeros(6, complex)
        e0[0] = e1[1] = 1.0
        assert fidelity(e0, e1) == 0.0

    def test_exact_point_p5(self):
        spec = ProblemSpec(7, 5, 0.0)
        psi = qaoa_state(spec, params_of(np.pi / 4, np.pi / 4))
        assert fidelity(psi, sector_ground_state(spec)) > 1 - 1e-12


class TestGradient:
    @staticmethod
    def finite_difference(spec, params, step=1e-6):
        x = params.to_vector()
        grad = np.zeros_like(x)
        for i in range(x.size):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            ep = sector_energy(spec, qaoa_state(spec, params_from_vector(xp)))
            em = sector_energy(spec, qaoa_state(spec, params_from_vector(xm)))
            grad[i] = (ep - em) / (2 * step)
        return grad

    def test_against_finite_differences(self):
        spec = ProblemSpec(8, 2, 1.0)
        params = params_of(0.3, 0.7)
        _, grad = energy_grad(spec, params)
        fd = self.finite_difference(spec, params)
        mask = np.abs(grad) > 1e-8
        assert np.all(np.abs(grad[mask] - fd[mask]) / np.abs(grad[mask]) < 1e-6)

    def test_vanishes_at_exact_minimum(self):
        spec = ProblemSpec(5, 3, 0.0)
        _, grad = energy_grad(spec, params_of(np.pi / 4, np.pi / 4))
        assert np.max(np.abs(grad)) < 1e-10

    def test_beta_direction_flat_at_origin(self):
        # |+> is an eigenstate of the mixer, so the first beta is a pure phase
        spec = ProblemSpec(10, 2, 5.0)
        _, grad = energy_grad(spec, params_of([0.0, 0.0], [0.0, 0.0]))
        assert abs(grad[2]) < 1e-12

    def test_energy_value_matches_plain_evaluation(self):
        spec = ProblemSpec(9, 3, 0.8)
        params = r_init(4, 77)
        e_grad, _ = energy_grad(spec, params)
        e_plain = sector_energy(spec, qaoa_state(spec, params))
        assert abs(e_grad - e_plain) < 1e-13

    def test_large_n_against_central_differences(self):
        # the large-N circuit of the benchmark, at a linear-schedule start;
        # gamma multiplies |M|^p up to N^p, so its step is scaled by N^-(p-1)
        spec = ProblemSpec(512, 2, 1.0)
        params = l_init(4, spec, seed=0)
        e_grad, grad = energy_grad(spec, params)
        assert abs(e_grad - evaluate(spec, params).energy) < 1e-12
        x = params.to_vector()
        steps = np.concatenate([np.full(4, 1e-5 / 512), np.full(4, 1e-5)])
        fd = np.zeros_like(x)
        for i, step in enumerate(steps):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            ep = evaluate(spec, params_from_vector(xp)).energy
            em = evaluate(spec, params_from_vector(xm)).energy
            fd[i] = (ep - em) / (2 * step)
        assert np.all(np.abs(grad - fd) < 1e-6 * np.abs(grad))


class TestSymmetries:
    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=25, deadline=None)
    def test_conjugation_symmetry(self, seed):
        # E(-gamma, -beta) = E(gamma, beta)
        spec = ProblemSpec(7, 3, 0.6)
        params = r_init(3, seed)
        flipped = QaoaParams(gammas=-params.gammas, betas=-params.betas)
        e1, _ = energy_grad(spec, params)
        e2, _ = energy_grad(spec, flipped)
        assert abs(e1 - e2) < 1e-12


class TestQaoaParams:
    @pytest.mark.parametrize("kind", sorted(NON_REAL_ROWS))
    def test_refuses_non_real_dtypes(self, kind):
        bad, good = NON_REAL_ROWS[kind][0, :1], np.array([0.1])
        with pytest.raises(ValueError, match="gammas must be integers or reals"):
            QaoaParams(bad, good)
        with pytest.raises(ValueError, match="betas must be integers or reals"):
            QaoaParams(good, bad)

    @pytest.mark.parametrize("bad", [["0.1"], [0.1 + 0.5j], [True], [Fraction(1, 10)]], ids=repr)
    def test_refuses_non_real_sequences(self, bad):
        # a list is read as numpy reads it: a string would be parsed, a
        # complex angle lose its imaginary part
        with pytest.raises(ValueError, match="gammas must be integers or reals"):
            QaoaParams(bad, [0.2])

    def test_keeps_its_own_read_only_copy(self):
        # the caller's float64 arrays stay writable, and writing to them
        # moves no angle of the params
        g, b = np.array([0.1, 0.2]), np.array([0.3, 0.4])
        params = QaoaParams(g, b)
        assert g.flags.writeable and b.flags.writeable
        assert not params.gammas.flags.writeable and not params.betas.flags.writeable
        g[0], b[1] = 1.0, 2.0
        assert params.gammas.tolist() == [0.1, 0.2] and params.betas.tolist() == [0.3, 0.4]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=str)
    def test_refuses_non_finite_angles(self, bad):
        # refused at construction: in the kernels an inf angle warns and
        # ends in the misleading "energy nan outside spectrum"
        with pytest.raises(ValueError, match="gammas"):
            evaluate(ProblemSpec(8, 3, 0.5), QaoaParams([bad], [0.1]))
        with pytest.raises(ValueError, match="betas"):
            QaoaParams([0.1, 0.2], [0.3, bad])
        with pytest.raises(ValueError, match="gammas"):
            QaoaParams([0.1, bad], [0.3, 0.4])


class TestAnnealingTime:
    def test_direct_substitution(self):
        spec = ProblemSpec(5, 3, 0.0)
        tau = equivalent_annealing_time(spec, params_of(np.pi / 4, np.pi / 4))
        assert abs(tau - np.pi * 26 / 4) < 1e-12

    def test_h_one_leaves_only_beta(self):
        spec = ProblemSpec(9, 2, 1.0)
        tau = equivalent_annealing_time(spec, params_of([0.2, 0.4], [0.1, 0.3]))
        assert abs(tau - 0.4) < 1e-14

    def test_exact_solution_scales_with_system_size(self):
        # gamma N^(p-1) dominates: tau(N=9)/tau(N=3) -> (9/3)^2 at p=3
        taus = {}
        for n in (3, 9):
            spec = ProblemSpec(n, 3, 0.0)
            taus[n] = equivalent_annealing_time(spec, params_of(np.pi / 4, np.pi / 4))
        assert taus[9] / taus[3] == pytest.approx(8.2, abs=0.2)


# odd p, even p with odd and even N, N = 1 (a one-state block for even p)
EVALUATE_SPECS = [
    (9, 3, 0.8), (13, 5, 0.3), (9, 2, 0.8), (15, 4, 1.7), (8, 2, 0.5), (1, 2, 0.5), (1, 3, 0.5),
]


class TestEvaluate:
    def test_record_consistency(self):
        spec = ProblemSpec(8, 2, 0.8)
        rec = evaluate(spec, r_init(3, 5))
        spectrum = diagonalize_target(spec)
        recomputed = (rec.energy - spectrum.e_min) / (spectrum.e_max - spectrum.e_min)
        assert abs(rec.residual - recomputed) < 1e-14
        assert 0.0 <= rec.fidelity <= 1.0 + 1e-12

    @pytest.mark.parametrize("n,p,h", EVALUATE_SPECS)
    def test_energy_is_the_minimized_energy(self, n, p, h):
        spec = ProblemSpec(n, p, h)
        for seed in range(4):
            params = params_from_vector(random_angles(spec, 3, seed))
            assert evaluate(spec, params).energy == energy_grad(spec, params)[0]

    @pytest.mark.parametrize("n", [64, 65, 512, 1024, 1025])
    def test_fidelity_at_most_one_at_large_field(self, n):
        # |+> is all but the ground state of -h X; with |+> off its norm by
        # roundoff the fidelity read 1 + 2.4e-14 at N = 64
        rec = evaluate(ProblemSpec(n, 2, 1e8), params_of(1e-9, 0.0))
        assert rec.fidelity <= 1.0 + 4 * np.finfo(float).eps

    def test_optimized_record_reports_the_minimized_energy(self):
        spec = ProblemSpec(11, 2, 0.6)
        for res in optimize(spec, 3, RandomInit(), [0, 1]):
            assert res.record.energy == energy_grad(spec, res.params_star)[0]

    @pytest.mark.parametrize("n,p,h", EVALUATE_SPECS + [(512, 2, 1.0), (128, 3, 0.7)])
    def test_matches_the_full_sector(self, n, p, h):
        # the block sums the terms of the lifted energy and overlap in another
        # order; over 400 random points the gaps were at most 2.3e-16 of the
        # norm bound and 4.5e-16
        spec = ProblemSpec(n, p, h)
        spectrum = diagonalize_target(spec)
        for seed in range(4):
            params = params_from_vector(random_angles(spec, 3, seed))
            rec = evaluate(spec, params)
            state = qaoa_state(spec, params)
            assert abs(rec.energy - sector_energy(spec, state)) <= 1e-14 * spectrum.norm_bound
            assert abs(rec.fidelity - fidelity(state, sector_ground_state(spec))) <= 1e-14

    def test_reaches_no_full_sector_path(self, monkeypatch):
        # evaluate reads the cached context and spectrum, both in the block
        spec = ProblemSpec(10, 2, 0.9)
        circuit_context(spec)
        engine.cached_spectrum(spec)

        def refuse(*args, **kwargs):
            raise AssertionError("evaluate left the block")

        for name in ("qaoa_state", "diagonalize_target"):
            monkeypatch.setattr(engine, name, refuse)
        monkeypatch.setattr(engine.CircuitContext, "lift", refuse)
        assert 0.0 <= evaluate(spec, r_init(2, 3)).residual <= 1.0

    def test_context_diagonalizes_the_target_once(self, monkeypatch):
        calls = []

        def counted(spec):
            calls.append(spec)
            return diagonalize_target(spec)

        monkeypatch.setattr(engine, "diagonalize_target", counted)
        engine.cached_spectrum.cache_clear()
        specs = [ProblemSpec(10, 3, 0.5), ProblemSpec(10, 3, 1.5), ProblemSpec(9, 2, 0.5)]
        for spec in specs:
            for seed in range(3):
                evaluate(spec, r_init(2, seed))
                energy_grad(spec, r_init(2, seed))
                optimizer._noise_floor(spec)
            optimize(spec, 2, RandomInit(), [0, 1])
        assert calls == specs
