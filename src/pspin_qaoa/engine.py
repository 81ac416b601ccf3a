"""Layer-by-layer QAOA circuit in the collective-spin sector.

One step applies the diagonal phase unitary exp(-i gamma Hz) followed by the
mixer exp(-i beta Hx) with Hx = -sum_j sigma^x_j. For even p, Hz, Hx and the
target commute with the spin flip k -> N - k and |+> is even under it, so
the circuit runs in the reflection-even block of the sector: the
floor(N/2)+1 states (|k> + |N-k>)/sqrt(2), k < N/2, plus |N/2> for even N
(``sector.dynamics_block``). For odd p it runs in the whole sector of N+1
states. Either way the per-(N, p) context holds, m the dimension, the
phases and the per-(N, parity) ``x_spectral_decomposition``: |+>, the lift
and collective-X as V diag(lam) V^T. The field h enters only through the
target, the per-(N, p, h) ``cached_spectrum``: the block tridiagonal and
ground state.

A state's last axis holds its m amplitudes: (m,) for one state, (R, m) for
a stack. One kernel serves the state, the energy and the adjoint gradient,
for R parameter vectors at once: R circuits run as an (R, m) stack, row r
with its own angles, and a lone circuit is the stack of one. The phase
layer multiplies row r by the factors exp(-i gamma_r hz), the mixer by
exp(i beta_r lam) between its two halves, the real GEMMs V^T (into the
collective-X eigenbasis) and V (back out) on the (m, 2) float64 view of
each row, as V is real; the kernels take those factors, computed once per
sweep, never the angles. Each row's GEMMs and sums are the BLAS calls its
batch of one makes, so a row's numbers never depend on the other rows. The
forward sweep keeps, per layer, the factors, the post-phase state and its
eigenbasis coordinates after the mixer factors. The reverse sweep carries
only the adjoint stack, one row per circuit, through the same two GEMM
halves: the beta-derivative is an overlap with the stored coordinates in
the eigenbasis, the gamma-derivative one with the stored post-phase state,
so a reverse layer makes no exponential and no collective-X product.
``evaluate`` takes its energy and fidelity from the same forward sweep, in
the block; only ``qaoa_state`` lifts a state back to the N+1 sector amplitudes.
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


@dataclass(frozen=True)
class QaoaParams:
    """The 2P circuit angles (gamma_1..gamma_P, beta_1..beta_P)."""

    gammas: np.ndarray
    betas: np.ndarray

    def __post_init__(self):
        g = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        b = np.atleast_1d(np.asarray(self.betas, dtype=float))
        if g.shape != b.shape or g.ndim != 1 or g.size < 1:
            raise ValueError("gammas and betas must be equal-length 1-d sequences, P >= 1")
        for name, angles in (("gammas", g), ("betas", b)):
            if not np.all(np.isfinite(angles)):
                raise ValueError(f"{name} must be finite, got {angles}")
        g.setflags(write=False)
        b.setflags(write=False)
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
    """Per-(N, p) immutable workspace shared by many evaluations.

    For even p every field describes the reflection-even block, for odd p the
    whole sector; the kernels do not tell the two apart. Sector amplitude k
    is block amplitude ``lift_index[k]`` times ``lift_weight[k]``. Of
    ``spec`` only N and p are read: no attribute depends on h. It builds no
    array: it holds ``xdec``'s arrays and views of ``sector_table``'s.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        n, p = spec.n_sites, spec.p_exponent
        # first, so that a V too large to hold is refused before anything is built
        self.xdec = xdec = x_spectral_decomposition(n, p % 2 == 0)
        self.plus, self.lift_index, self.lift_weight = xdec.plus, xdec.lift_index, xdec.lift_weight
        table = sector_table(n, p)
        dim = self.plus.size
        self.hz: tuple[int, ...] = table.hz[:dim]
        self.exact_gamma = 2.0**53 / table.max_abs_hz  # past it, |gamma hz| passes 2^53
        self.hz_float = table.hz_float[:dim]

    def lift(self, state: np.ndarray) -> np.ndarray:
        """The N+1 sector amplitudes of a context-dimension state vector."""
        return state[self.lift_index] * self.lift_weight

    def phase_factors(self, gamma) -> np.ndarray:
        """exp(-i gamma hz) for an angle or an array of angles, shape
        gamma.shape + (m,).

        An angle with |gamma| > 2^53 / max|hz| (a rounded quotient: within an
        ulp of it either path is valid) is reduced mod 2 pi from the exact
        integers hz_k by ``_exact_angles``; every other takes the float product.
        """
        gamma = np.asarray(gamma, dtype=float)
        exact = np.abs(gamma) > self.exact_gamma
        if not exact.any():
            return np.exp(-1j * np.multiply.outer(gamma, self.hz_float))
        angles = np.multiply.outer(np.where(exact, 0.0, gamma), self.hz_float)
        rows = angles.reshape(-1, self.hz_float.size)  # a view, one row per angle
        for r in np.flatnonzero(exact):
            rows[r] = _exact_angles(float(gamma.flat[r]), self.hz)
        return np.exp(-1j * angles)

    def mixer_factors(self, beta) -> np.ndarray:
        """exp(i beta lam) in the collective-X eigenbasis, shape beta.shape + (m,)."""
        return np.exp(1j * np.multiply.outer(beta, self.xdec.eigenvalues))

    def apply_phase(self, state: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """exp(-i gamma Hz) on an (m,) state, given the (m,) ``phase_factors``
        of gamma, or on an (R, m) stack, given the (R, m) factors of R
        angles, row r for state r."""
        return self._checked(state) * factors

    def to_x_basis(self, state: np.ndarray) -> np.ndarray:
        """V^T times an (m,) state or each row of an (R, m) stack: its
        coordinates in the collective-X eigenbasis."""
        return self._real_gemm(self.xdec.eigenvectors.T, state)

    def from_x_basis(self, coords: np.ndarray) -> np.ndarray:
        """V times an (m,) state or each row of an (R, m) stack of
        collective-X eigenbasis coordinates: the states they describe."""
        return self._real_gemm(self.xdec.eigenvectors, coords)

    def apply_mixer(self, state: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """exp(-i beta Hx) = V diag(``factors``) V^T on an (m,) state, given
        the (m,) ``mixer_factors`` of beta, or on an (R, m) stack, given the
        (R, m) factors of R angles, row r for state r."""
        return self.from_x_basis(self.to_x_basis(state) * factors)

    # kept only for bench/, goes with ROADMAP item 2
    def apply_x(self, state: np.ndarray) -> np.ndarray:
        return self.from_x_basis(self.xdec.eigenvalues * self.to_x_basis(state))

    def _real_gemm(self, matrix: np.ndarray, state: np.ndarray) -> np.ndarray:
        """The real (m, m) ``matrix`` times each state, as a real GEMM on its
        (m, 2) float64 view: a stack makes one GEMM per row, rounded exactly
        as if that row came alone."""
        state = np.ascontiguousarray(self._checked(state), dtype=complex)
        pairs = state.view(np.float64).reshape(*state.shape, 2)
        return (matrix @ pairs).view(complex).reshape(state.shape)

    def _checked(self, state: np.ndarray) -> np.ndarray:
        """``state``, refused unless its last axis holds the m amplitudes: an
        (m, 1) column would broadcast against the (m,) factors into an
        (m, m) array."""
        if state.shape[-1:] != self.plus.shape:
            m = self.plus.size
            raise ValueError(f"a layer acts on a last axis of m = {m}, got shape {state.shape}")
        return state


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
    """The circuit for R angle sets at once, row r of ``gammas`` and
    ``betas`` (each (R, P)) for circuit r.

    Returns the final states as an (R, m) stack, the phase and mixer
    factors of every layer, each (R, P, m), and per layer l the pair
    (a_l, r_l): the post-phase states a_l and their eigenbasis coordinates
    after the mixer factors, r_l = E_l V^T a_l with E_l = exp(i beta_l lam),
    each (R, m). The next layer's input is V r_l.
    """
    phases, mixers = ctx.phase_factors(gammas), ctx.mixer_factors(betas)
    psi = ctx.plus  # the first phase layer broadcasts it to (R, m)
    layers = []
    for layer in range(gammas.shape[1]):
        post_phase = ctx.apply_phase(psi, phases[:, layer])
        coords = ctx.to_x_basis(post_phase)
        coords *= mixers[:, layer]
        psi = ctx.from_x_basis(coords)
        layers.append((post_phase, coords))
    return psi, phases, mixers, layers


def _block_energy(target: TargetSpectrum, phi: np.ndarray):
    """<phi|H|phi> of each row of an (R, m) stack, as an (R,) real array, and
    the (R, m) stack H|phi>.

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


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """Squared overlap |<target|state>|^2."""
    return float(abs(np.vdot(target, state)) ** 2)


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
    bit-identical to its own batch of one: the mixer makes one GEMM per row,
    and each sum over the sector is one BLAS dot per row. Anything that is
    not a 2-d array of finite numbers with an even width of at least 2, a
    ``QaoaParams`` included, is refused before any exponential.

    The forward sweep keeps, per layer, its phase and mixer factors, the
    post-phase state a_l and its eigenbasis coordinates r_l = E_l V^T a_l
    (see ``_forward``), each an (R, m) stack: 64 P m R bytes, 16.9 MB at
    m = 513, P = 514, R = 1. The reverse sweep carries only the (R, m)
    adjoint stack, starting from H|psi>. Per layer, from the last:
    b = V^T adj gives d/dbeta_l as 2 Re <b| i lam r_l>; adj = V conj(E_l) b
    moves it before the mixer, where 2 Re <adj| -i hz a_l> is d/dgamma_l;
    then adj is multiplied by the conjugated phase factors. So each reverse
    layer is two GEMMs per row and no exponential, and the cost is
    O(P m^2) per row, with m = floor(N/2)+1 for even p and N+1 for odd p.
    Each energy is within (2 P + max|hz| sum_l |gamma_l|) eps ``norm_bound``
    of exact arithmetic. The second term bounds the rounding of gamma hz; the
    first was at most 0.9 P against a 40-digit oracle at m <= 17, P <= 14,
    and at most 0.6 P at m = 65 and 129, P = 10 and 20. Each gradient
    component is within (P + max|hz| sum_l |gamma_l|) eps ``norm_bound`` D,
    D = max|hz| for a gamma and N for a beta; against 50-digit central
    differences of the oracle the first term was at most 0.29 P (m <= 65).
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] < 2 or x.shape[1] % 2:
        raise ValueError(f"parameter rows must form an (R, 2P) array, P >= 1; got shape {x.shape}")
    x = x.astype(float, copy=False)
    if not np.isfinite(x).all():
        raise ValueError(f"parameter rows must be finite, got {x}")
    ctx = circuit_context(spec)
    depth = x.shape[1] // 2
    # d/dgamma of the phase layer brings down +i M^p = -i hz, d/dbeta of
    # the mixer i lam in the eigenbasis
    d_phase, d_mixer = 1j * -ctx.hz_float, 1j * ctx.xdec.eigenvalues

    phi, phases, mixers, layers = _forward(ctx, x[:, :depth], x[:, depth:])
    e_val, adj = _block_energy(cached_spectrum(spec), phi)

    # row r: <adj|d/dgamma_l psi>, then <adj|d/dbeta_l psi>, l = 1..P
    overlaps = np.empty(x.shape, dtype=complex)
    # conjugated in place, so the reverse sweep holds no second copy
    undo_phase = np.conjugate(phases, out=phases)
    undo_mixer = np.conjugate(mixers, out=mixers)
    for layer in reversed(range(depth)):
        post_phase, coords = layers[layer]
        b = ctx.to_x_basis(adj)
        overlaps[:, depth + layer] = np.vecdot(b, d_mixer * coords)
        b *= undo_mixer[:, layer]
        adj = ctx.from_x_basis(b)
        overlaps[:, layer] = np.vecdot(adj, d_phase * post_phase)
        adj *= undo_phase[:, layer]
    return e_val, 2.0 * overlaps.real


def evaluate(spec: ProblemSpec, params: QaoaParams) -> EvaluationRecord:
    """Energy, residual, fidelity and equivalent annealing time in one record.

    The energy is ``energy_and_gradient``'s, bit for bit, within its bound
    (2 P + max|hz| sum_l |gamma_l|) eps ``norm_bound``; the fidelity is the
    block overlap with the ``cached_spectrum``'s ``ground``. The energy and
    ``fidelity`` of the lifted state sum the same terms in another order; the
    tests hold the gaps to 1e-14 (for the energy, times ``norm_bound``).
    """
    target = cached_spectrum(spec)
    phi = _forward(circuit_context(spec), params.gammas[None], params.betas[None])[0]
    e_val = float(_block_energy(target, phi)[0][0])
    return EvaluationRecord(
        energy=e_val,
        residual=residual_energy(target, e_val),
        fidelity=fidelity(phi[0], target.ground),
        annealing_time=equivalent_annealing_time(spec, params),
    )
