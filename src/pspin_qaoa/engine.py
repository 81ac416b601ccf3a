"""Layer-by-layer QAOA circuit in the collective-spin sector.

One step applies the diagonal phase unitary exp(-i gamma Hz) followed by the
mixer exp(-i beta Hx) with Hx = -sum_j sigma^x_j. For even p, Hz, Hx and the
target commute with the spin flip k -> N - k and |+> is even under it, so
the circuit runs in the reflection-even block of the sector: the
floor(N/2)+1 states (|k> + |N-k>)/sqrt(2), k < N/2, plus |N/2> for even N
(``sector.dynamics_block``). For odd p it runs in the whole sector of N+1
states. Either way the context, one per spec, holds the phases (only N and
p shape its arrays) and the ``x_spectral_decomposition`` that the contexts
of one (N, parity) share: |+>, the lift and collective X in the parity-folded
basis F. h enters only through the target's per-spec ``cached_spectrum``.

A state's m amplitudes are stored folded, as s halves of h (even k, then
odd k; s = 1 for even p at odd N), its last axis n = s h long: (n,) for one
state, (R, n) for the stack of R circuits, row r with its own angles. One
kernel serves the state, the energy and the adjoint gradient, a lone circuit
as the stack of one. The phase layer multiplies row r by exp(-i gamma_r hz);
the mixer is F^T, half by half, the rotation cos(beta lam) c + i sin(beta
lam) swap(c), swap exchanging the halves, and F: real GEMMs of h^2 on the
(h, 2) float64 views, the BLAS calls a row's batch of one makes, so a row's
numbers never depend on the other rows. The forward sweep keeps, per layer,
the factors, the post-phase state and its coordinates after the mixer; the
reverse sweep carries only the adjoint stack through the same GEMMs and
takes its derivatives as overlaps with those, so it makes no exponential and
no collective-X product. The energy gathers the final state into block
order; only ``qaoa_state`` lifts it to the N+1 sector amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sector import (
    ProblemSpec,
    TargetSpectrum,
    diagonalize_target,
    sector_table,
    x_spectral_decomposition,
)

# floor(2^1280 / (2 pi)): the leading bits of 1/(2 pi), stored the way
# fdlibm stores those of 2/pi. Any finite gamma times any |hz| < 2^127 is
# below 2^1151, so the cut-off tail moves a phase by under 2^-129 of a turn
_INV_2PI = int(
    "28be60db9391054a7f09d5f47d4d377036d8a5664f10e4107f9458eaf7aef158"
    "6dc91b8e909374b801924bba827464873f877ac72c4a69cfba208d7d4baed121"
    "3a671c09ad17df904e64758e60d4ce7d272117e2ef7e4a0ec7fe25fff7816603"
    "fbcbc462d6829b47db4d9fb3c9f2c26dd3d18fd9a797fa8b5d49eeb1faf97c5e"
    "cf41ce7de294a4ba9afed7ec47e357421580cc11bf1edaeafc33ef0826bd0d87",
    16,
)
# Slack of every energy check, relative to the Gershgorin bound on ||H||
_ROUNDOFF = 1e-12


def _angles(values, name: str) -> np.ndarray:
    """``values`` as a new read-only float64 array, refused unless numpy
    reads them as integers or reals (dtype kinds i, u, f), all finite: a
    cast would drop a complex part, and take bools, strings and objects,
    without an error. The copy leaves the caller's array as it was."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be integers or reals, got dtype {values.dtype}")
    values = values.astype(float)
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite, got {values}")
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class QaoaParams:
    """The 2P circuit angles (gamma_1..gamma_P, beta_1..beta_P), each a
    read-only copy of what the caller passed."""

    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(_angles(self.gammas, "gammas"))
        b = np.atleast_1d(_angles(self.betas, "betas"))
        if g.shape != b.shape or g.ndim != 1 or g.size < 1:
            raise ValueError("gammas and betas must be equal-length 1-d sequences, P >= 1")
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.gammas, self.betas])


@dataclass(frozen=True)
class EvaluationRecord:
    """Figures of merit of a single circuit evaluation."""

    energy: float
    residual: float
    fidelity: float
    annealing_time: float


class CircuitContext:
    """Immutable workspace shared by many evaluations, one per spec.

    For even p every field describes the reflection-even block, for odd p the
    whole sector; the kernels do not tell the two apart. States are stored
    folded (``XSpectralDecomposition``): sector amplitude k is stored
    amplitude ``lift_index[k]`` times ``lift_weight[k]``. Only N and p shape
    its arrays, h stays in ``spec.field``: ``xdec``'s, shared by every context
    of one (N, parity), and its own hz in the stored order, 0 on the padding.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        n, p = spec.n_sites, spec.p_exponent
        # first, so that a basis too large to hold is refused before anything is built
        self.xdec = xdec = x_spectral_decomposition(n, p % 2 == 0)
        self.plus, self.lift_index, self.lift_weight = xdec.plus, xdec.lift_index, xdec.lift_weight
        self.order, self.halves = xdec.order, xdec.folded.shape[:2]  # halves: (s, h)
        self._basis_t = xdec.folded.transpose(0, 2, 1)
        self.exact_gamma = 2.0**53 / n**p  # past it, |gamma hz| passes 2^53: max|hz| = N^p
        self.hz_float = np.zeros(self.plus.size)
        self.hz_float[self.order] = sector_table(n, p).hz_float[: self.order.size]
        self.hz_float.setflags(write=False)

    def lift(self, state: np.ndarray) -> np.ndarray:
        """The N+1 sector amplitudes of a stored state vector."""
        return state[self.lift_index] * self.lift_weight

    def phase_factors(self, gamma) -> np.ndarray:
        """exp(-i gamma hz) for an angle or an array of angles, shape
        gamma.shape + (n,).

        An angle with |gamma| > 2^53 / max|hz| (a rounded quotient: within an
        ulp of it either path is valid) is reduced mod 2 pi from the exact
        integers hz_k by ``_exact_angles``; every other takes the float
        product. The integers are derived once per call that has such an
        angle, from N and p, in the stored order.
        """
        gamma = np.asarray(gamma, dtype=float)
        exact = np.abs(gamma) > self.exact_gamma
        if not exact.any():
            return np.exp(-1j * np.multiply.outer(gamma, self.hz_float))
        angles = np.multiply.outer(np.where(exact, 0.0, gamma), self.hz_float)
        rows = angles.reshape(-1, self.hz_float.size)  # a view, one row per angle
        n, p = self.spec.n_sites, self.spec.p_exponent
        hz = np.zeros(self.hz_float.size, dtype=object)
        hz[self.order] = [-((n - 2 * k) ** p) for k in range(self.order.size)]
        for r in np.flatnonzero(exact):
            rows[r] = _exact_angles(float(gamma.flat[r]), hz)
        return np.exp(-1j * angles)

    def mixer_factors(self, beta) -> np.ndarray:
        """exp(i beta lam) of F's h eigenvalues, shape beta.shape + (h,)."""
        return np.exp(1j * np.multiply.outer(beta, self.xdec.eigenvalues))

    def apply_phase(self, state: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """exp(-i gamma Hz) on an (n,) state, given the (n,) ``phase_factors``
        of gamma, or on an (R, n) stack, given the (R, n) factors of R
        angles, row r for state r."""
        return self._checked(state) * factors

    # F^T and F on the (..., s, h, 2) float64 pairs of stored states
    # (``_store_views``), into the pairs ``out``: one real GEMM per half and
    # row, rounded exactly as if that row came alone
    def to_x_basis(self, pairs: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(self._basis_t, pairs, out=out)

    def from_x_basis(self, pairs: np.ndarray, out: np.ndarray) -> np.ndarray:
        return np.matmul(self.xdec.folded, pairs, out=out)

    def apply_mixer(self, state: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """exp(-i beta Hx) = exp(i beta X) on an (n,) state, given the (h,)
        ``mixer_factors`` of beta, or on an (R, n) stack, given the (R, h)
        factors of R angles, row r for state r."""
        cos, isin = _cos_isin(np.expand_dims(factors, -2))
        return self._through_x(
            state, lambda c: _rotate(c, cos, isin, np.empty_like(c), np.empty_like(c))
        )

    # kept only for bench/, goes with ROADMAP item 2
    def apply_x(self, state: np.ndarray) -> np.ndarray:
        return self._through_x(state, lambda c: self.xdec.eigenvalues * c)

    def _through_x(self, state: np.ndarray, layer) -> np.ndarray:
        """F swap(layer(c)), c the (..., s, h) halves of F^T on an (n,) state
        or (R, n) stack: ``layer`` maps them to new halves."""
        state = np.ascontiguousarray(state, dtype=complex)
        out, coords, pairs = _store_views(self, np.empty_like(state))
        self.to_x_basis(_store_views(self, state)[2], pairs)
        new = layer(coords)
        self.from_x_basis(new.view(np.float64).reshape(new.shape + (2,))[..., ::-1, :, :], pairs)
        return out

    def _checked(self, state: np.ndarray) -> np.ndarray:
        """``state``, refused unless its last axis holds the n stored
        amplitudes: an (n, 1) column would broadcast against the (n,) factors
        into an (n, n) array."""
        if state.shape[-1:] != self.plus.shape:
            n = self.plus.size
            raise ValueError(f"a layer acts on a last axis of n = {n}, got shape {state.shape}")
        return state


def _store_views(ctx: CircuitContext, flat: np.ndarray) -> tuple:
    """A C-contiguous complex (..., n) array, its (..., s, h) halves and
    their (..., s, h, 2) float64 pairs, all views of one memory; refused
    like a layer's state unless the last axis holds the n amplitudes."""
    halves = ctx._checked(flat).reshape(flat.shape[:-1] + ctx.halves)
    return flat, halves, halves.view(np.float64).reshape(halves.shape + (2,))


def _cos_isin(factors: np.ndarray):
    """cos and i sin of mixer factors exp(i x), as complex arrays: exactly
    their real part and the rest."""
    return (cos := factors.real.astype(complex)), factors - cos


def _rotate(coords, cos, isin, out, work) -> np.ndarray:
    """out = swap(cos c + isin swap(c)) = cos swap(c) + isin c, c the (..., s,
    h) halves ``coords``: the mixed coordinates with their halves exchanged,
    which the beta-derivative reads unswapped. swap is the identity at s = 1."""
    np.multiply(coords, isin, out=out)
    out += np.multiply(coords[..., ::-1, :], cos, out=work)
    return out


@lru_cache(maxsize=None)
def circuit_context(spec: ProblemSpec) -> CircuitContext:
    return CircuitContext(spec)


@lru_cache(maxsize=None)
def cached_spectrum(spec: ProblemSpec) -> TargetSpectrum:
    """The spec's ``diagonalize_target``, computed once per (N, p, h) per process."""
    return diagonalize_target(spec)


def _exact_angles(gamma: float, hz_ints) -> np.ndarray:
    """gamma hz_k mod 2 pi, centred on zero, from the exact integers hz_k
    (Payne and Hanek 1983): with gamma = num / den, the turn of hz_k is
    num hz_k ``_INV_2PI`` mod den 2^1280, exact in integers, and one correctly
    rounded division takes it to radians. Each angle is within 0.5 ulp plus
    2^-126 rad of the exact one."""
    num, den = gamma.as_integer_ratio()
    turn = den << 1280
    half, scale = turn >> 1, den * _INV_2PI
    frac = num * _INV_2PI % turn  # gamma / (2 pi) mod 1, in units of 1 / turn
    return np.array([((frac * v + half) % turn - half) / scale for v in hz_ints])


def qaoa_state(spec: ProblemSpec, params: QaoaParams) -> np.ndarray:
    """Run the full circuit on |+>, phase layer first within each step, as
    a batch of one.

    Returns the N+1 amplitudes of the sector, also for even p.
    """
    ctx = circuit_context(spec)
    psi = _forward(ctx, params.gammas[None], params.betas[None])[0]
    return ctx.lift(psi[0])


def _forward(ctx: CircuitContext, gammas: np.ndarray, betas: np.ndarray):
    """The circuit for R angle sets, row r of ``gammas`` and ``betas`` (each
    (R, P)) for circuit r. Returns the final (R, n) stack and, per layer, the
    phase factors (P, R, n), the mixer's cos and i sin, (P, R, 1, h), the
    post-phase states a_l, (P, R, n), and the (P, R, s, h) halves of swap(r_l)
    (``_rotate``), r_l = cos c + i sin swap(c) of c = F^T a_l, with the
    float64 pairs of r_l that F reads: the next layer's input is F r_l."""
    (depth, rows), n = gammas.T.shape, ctx.plus.size
    phases = ctx.phase_factors(gammas.T)
    cos, isin = _cos_isin(ctx.mixer_factors(betas.T)[:, :, None])
    post_phase, _, post_pairs = _store_views(ctx, np.empty((depth, rows, n), complex))
    swapped, mixed, mixed_pairs = _store_views(ctx, np.empty((depth, rows, n), complex))
    psi, _, psi_pairs = _store_views(ctx, np.empty((rows, n), complex))
    _, c, c_pairs = _store_views(ctx, np.empty((rows, n), complex))
    work, state, unswapped = np.empty_like(c), ctx.plus, mixed_pairs[:, :, ::-1]
    for layer in range(depth):  # the first phase layer broadcasts |+> to (R, n)
        np.multiply(state, phases[layer], out=post_phase[layer])
        ctx.to_x_basis(post_pairs[layer], c_pairs)
        _rotate(c, cos[layer], isin[layer], mixed[layer], work)
        ctx.from_x_basis(unswapped[layer], psi_pairs)
        state = psi
    return psi, phases, cos, isin, post_phase, (swapped, mixed, unswapped)


def _block_energy(target: TargetSpectrum, phi: np.ndarray):
    """<phi|H|phi> of each row of an (R, m) stack in block order, as an (R,)
    real array, and the (R, m) stack H|phi>.

    For a normalized state of m amplitudes the imaginary part of <phi|H|phi>
    is at most about m eps ||H||, and the spectrum's ``norm_bound`` bounds
    ||H||; an imaginary part of 1e-12 times the bound or more is refused.
    """
    h_phi = target.diag * phi  # the block tridiagonal (diag, off) times phi
    h_phi[..., :-1] += target.off * phi[..., 1:]
    h_phi[..., 1:] += target.off * phi[..., :-1]
    val = np.vecdot(phi, h_phi)
    if np.any(abs(val.imag) >= _ROUNDOFF * target.norm_bound):
        raise ValueError(f"energy has non-negligible imaginary part {val.imag}")
    return val.real, h_phi


def residual_energy(spectrum: TargetSpectrum, energy_value: float) -> float:
    """(E - E_min) / (E_max - E_min), clamped only within roundoff of [0, 1].

    An energy more than 1e-12 times ``spectrum.norm_bound`` (the Gershgorin
    bound on ||H||) outside [E_min, E_max] is refused: both ends and the
    energy carry roundoff of that scale, not of E's own size. A flat
    spectrum (E_max = E_min) has every state as a ground state, so its
    residual is 0.
    """
    slack = _ROUNDOFF * spectrum.norm_bound
    if not (spectrum.e_min - slack <= energy_value <= spectrum.e_max + slack):
        raise ValueError(
            f"energy {energy_value} outside spectrum [{spectrum.e_min}, {spectrum.e_max}]"
        )
    if spectrum.e_max <= spectrum.e_min:
        return 0.0
    res = (energy_value - spectrum.e_min) / (spectrum.e_max - spectrum.e_min)
    return min(max(res, 0.0), 1.0)


def equivalent_annealing_time(spec: ProblemSpec, params: QaoaParams) -> float:
    """tau/hbar = sum_m [beta_m + (1-h) gamma_m N^(p-1)]."""
    scale = (1.0 - spec.field) * spec.n_sites ** (spec.p_exponent - 1)
    return float(np.sum(params.betas) + scale * np.sum(params.gammas))


def energy_and_gradient(spec: ProblemSpec, x: np.ndarray):
    """Exact analytic gradient of the energy via one forward and one adjoint sweep.

    ``x`` is an (R, 2P) array of R parameter vectors, each ordered like
    ``QaoaParams.to_vector``; returns ``(energies (R,), gradients (R, 2P))``.
    A single vector is the batch of one, ``x[None]``. The R circuits run as
    one stack through every kernel call, and each row's numbers are
    bit-identical to its own batch of one: the mixer makes one GEMM per half
    and row, and each sum over the block is one BLAS dot per row. Anything
    that is not a 2-d array of finite integers or reals with an even width
    of at least 2, a ``QaoaParams`` or a complex array included, is refused
    before any exponential.

    The forward sweep keeps per layer the phase factors, the mixer's cos and
    i sin, a_l and r_l (``_forward``): 64 P s h R bytes for s = 2, 16.9 MB
    at m = 513, P = 514, R = 1; 80 P m R for s = 1. The reverse sweep carries
    only the adjoint stack, from H|psi>. Per layer, from the last: b = F^T adj
    gives d/dbeta_l as 2 Re <b| i lam swap(r_l)>; adj = F (cos b - i sin
    swap(b)) moves it before the mixer, where 2 Re <adj| -i hz a_l> is
    d/dgamma_l; then adj takes the conjugated phase factors. Each layer is
    2 s GEMMs of h^2 per row, a reverse one with no exponential: O(P m^2 / s)
    per row, m = floor(N/2)+1 for even p and N+1 for odd p.
    Each energy is within (2 P + max|hz| sum_l |gamma_l|) eps ``norm_bound``
    of exact arithmetic. The second term bounds the rounding of gamma hz; the
    first was at most 0.28 P against a 40-digit oracle at m <= 17, P <= 14,
    and 0.39 P at m = 65 and 129, P = 10 and 20. Each gradient component is
    within (P max(1, N/64) + max|hz| sum_l |gamma_l|) eps ``norm_bound`` D,
    D = max|hz| for a gamma and N for a beta. Against a 50-digit oracle at
    P = 5 and 10 the first term was at most 0.33 P for a gamma; for a beta
    0.44 P at N <= 64, 1.09 P at N = 128 (p = 3) and 2.40 P at N = 256
    (p = 2), with r-init angles.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] < 2 or x.shape[1] % 2:
        raise ValueError(f"parameter rows must form an (R, 2P) array, P >= 1; got shape {x.shape}")
    x = _angles(x, "parameter rows")
    ctx = circuit_context(spec)
    depth = x.shape[1] // 2
    # d/dgamma of the phase layer brings down +i M^p = -i hz, d/dbeta of
    # the mixer i lam swap(r)
    d_phase, d_mixer = 1j * -ctx.hz_float, 1j * ctx.xdec.eigenvalues

    forward = _forward(ctx, x[:, :depth], x[:, depth:])
    psi, phases, cos, isin, post_phase, (swapped, mixed, unswapped) = forward
    e_val, h_phi = _block_energy(cached_spectrum(spec), psi.take(ctx.order, axis=-1))
    adj, _, adj_pairs = _store_views(ctx, np.zeros_like(psi))
    adj[:, ctx.order] = h_phi

    # row r: <adj|d/dgamma_l psi>, then <adj|d/dbeta_l psi>, l = 1..P
    overlaps = np.empty(x.shape, dtype=complex)
    # in place, every layer at once, so the reverse sweep holds no second
    # copy: the conjugated factors, -i hz a_l, and i lam swap(r_l) in swapped
    undo_phase, undo_isin = np.conjugate(phases, out=phases), np.negative(isin, out=isin)
    d_gamma = np.multiply(post_phase, d_phase, out=post_phase)
    np.multiply(mixed, d_mixer, out=mixed)
    b, b_halves, b_pairs = _store_views(ctx, np.empty_like(psi))
    work = np.empty_like(b_halves)
    for layer in reversed(range(depth)):
        ctx.to_x_basis(adj_pairs, b_pairs)
        overlaps[:, depth + layer] = np.vecdot(b, swapped[layer])
        _rotate(b_halves, cos[layer], undo_isin[layer], mixed[layer], work)
        ctx.from_x_basis(unswapped[layer], adj_pairs)
        overlaps[:, layer] = np.vecdot(adj, d_gamma[layer])
        adj *= undo_phase[layer]
    return e_val, 2.0 * overlaps.real


def evaluate(spec: ProblemSpec, params: QaoaParams) -> EvaluationRecord:
    """Energy, residual, fidelity and equivalent annealing time in one record.

    The energy is ``energy_and_gradient``'s, bit for bit, within its bound
    (2 P + max|hz| sum_l |gamma_l|) eps ``norm_bound``; the fidelity is the
    block overlap with the ``cached_spectrum``'s ``ground``. The energy and
    fidelity of the lifted state sum the same terms in another order; the
    tests hold the gaps to 1e-14 (for the energy, times ``norm_bound``).
    """
    target, ctx = cached_spectrum(spec), circuit_context(spec)
    phi = _forward(ctx, params.gammas[None], params.betas[None])[0].take(ctx.order, axis=-1)
    e_val = float(_block_energy(target, phi)[0][0])
    return EvaluationRecord(
        energy=e_val,
        residual=residual_energy(target, e_val),
        fidelity=float(abs(np.vdot(target.ground, phi[0])) ** 2),
        annealing_time=equivalent_annealing_time(spec, params),
    )
