"""Layer-by-layer QAOA circuit in the collective-spin sector.

One step applies the diagonal phase unitary exp(-i gamma Hz) followed by the
mixer exp(-i beta Hx) with Hx = -sum_j sigma^x_j. For even p, Hz, Hx and the
target commute with the spin flip k -> N - k and |+> is even under it, so
the circuit runs in the reflection-even block of the sector: the
floor(N/2)+1 states (|k> + |N-k>)/sqrt(2), k < N/2, plus |N/2> for even N
(``sector.dynamics_block``, ``sector.dynamics_lift``). For odd p it
runs in the whole sector of N+1 states. Either way the context holds the
same fields, m the dimension: the phases, the target and collective-X as
tridiagonals, |+>, the target spectrum and ground state, and the cached
spectral decomposition V diag(lam) V^T of collective-X.

One kernel serves the state, the energy and the adjoint gradient, for R
parameter vectors at once: R circuits run as an (R, m, k) stack, row r
with its own angles, and a lone circuit is the stack of one. The phase
layer multiplies row r by the factors exp(-i gamma_r hz), the mixer by
exp(i beta_r lam) between two real GEMMs (V^T, then V) on the (m, 2k)
float64 view of each row, as V is real; the kernels take those factors,
computed once per sweep, never the angles. Each row's GEMMs and sums are
the BLAS calls its batch of one makes, so a row's numbers never depend on
the other rows. The forward sweep keeps the factors of every layer; the
reverse sweep carries each row's state and adjoint vector as one (m, 2)
block and undoes each layer on it with the conjugated forward factors, so
each reverse layer is one mixer call and one multiply for the whole stack.
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
    XSpectralDecomposition,
    diagonalize_target,
    dynamics_block,
    dynamics_lift,
    gershgorin_bound,
    plus_state,
    sector_table,
    target_tridiagonal,
    x_spectral_decomposition,
)

_SAFE_DOUBLE = 2.0**53
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

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "QaoaParams":
        x = np.asarray(x, dtype=float)
        if x.size % 2 != 0:
            raise ValueError("parameter vector length must be even")
        half = x.size // 2
        return cls(gammas=x[:half], betas=x[half:])


@dataclass(frozen=True)
class EvaluationRecord:
    """Figures of merit of a single circuit evaluation."""

    energy: float
    residual: float
    fidelity: float
    annealing_time: float


class CircuitContext:
    """Per-(N, p, h) immutable workspace shared by many evaluations.

    For even p every field describes the reflection-even block, for odd p the
    whole sector; the kernels do not tell the two apart. Sector amplitude k
    is block amplitude ``lift_index[k]`` times ``lift_weight[k]``.
    ``spectrum`` is the spec's ``diagonalize_target``, ``ground`` its ground state.
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        n, p = spec.n_sites, spec.p_exponent
        # first, so that a V too large to hold is refused before anything is built
        self.xdec: XSpectralDecomposition = x_spectral_decomposition(n, even_parity=p % 2 == 0)
        table = sector_table(n, p)
        self.x_diag, self.x_off = dynamics_block(p, np.zeros(n + 1), table.x_off)
        self.target_diag, self.target_off = dynamics_block(p, *target_tridiagonal(spec))
        self.lift_index, self.lift_weight = dynamics_lift(p, n)
        dim = self.x_diag.size
        self.hz: tuple[int, ...] = table.hz[:dim]
        self.max_abs_hz: int = table.max_abs_hz
        self.hz_float = table.hz_float[:dim]
        self.plus = plus_state(n)[:dim] / self.lift_weight[:dim]
        self.spectrum: TargetSpectrum = diagonalize_target(spec)
        self.ground = self.spectrum.ground_state[:dim] / self.lift_weight[:dim]
        self.ground.setflags(write=False)

    def lift(self, state: np.ndarray) -> np.ndarray:
        """The N+1 sector amplitudes of a context-dimension state vector."""
        return state[self.lift_index] * self.lift_weight

    def phase_factors(self, gamma) -> np.ndarray:
        """exp(-i gamma hz) for an angle or an array of angles, shape
        gamma.shape + (m,).

        An angle whose phase |gamma| max|hz| exceeds 2^53 is reduced mod 2 pi
        from the exact integers hz_k, with 64 bits to spare over the exact
        product; every other angle takes the float product.
        """
        gamma = np.asarray(gamma, dtype=float)
        angles = np.multiply.outer(gamma, self.hz_float)
        exact = np.abs(gamma) * float(self.max_abs_hz) > _SAFE_DOUBLE
        if exact.any():
            rows = angles.reshape(-1, self.hz_float.size)  # a view, one row per angle
            for r in np.flatnonzero(exact):
                rows[r] = _exact_angles(float(gamma.flat[r]), self.hz, self.max_abs_hz)
        return np.exp(-1j * angles)

    def mixer_factors(self, beta) -> np.ndarray:
        """exp(i beta lam) in the collective-X eigenbasis, shape beta.shape + (m,)."""
        return np.exp(1j * np.multiply.outer(beta, self.xdec.eigenvalues))

    def apply_phase(self, state: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """exp(-i gamma Hz) on each column of an (m, k) block, given the (m,)
        ``phase_factors`` of gamma, or on an (R, m, k) stack, given the (R, m)
        factors of R angles, row r for block r."""
        return state * factors[..., None]

    def apply_mixer(self, state: np.ndarray, factors: np.ndarray) -> np.ndarray:
        """exp(-i beta Hx) on each column of an (m, k) block, given the (m,)
        ``mixer_factors`` of beta, or on an (R, m, k) stack, given the (R, m)
        factors of R angles, row r for block r. Conjugated, the factors undo
        the layer.

        V is real, so both products are real GEMMs on the (m, 2k) float64
        view of each complex block. A stack makes one GEMM per block, each
        rounded exactly as if that block came alone.
        """
        v = self.xdec.eigenvectors
        state = np.ascontiguousarray(state, dtype=complex)
        rotated = (v.T @ state.view(np.float64)).view(complex)
        rotated *= factors[..., None]
        return (v @ rotated.view(np.float64)).view(complex)

    def apply_x(self, state: np.ndarray) -> np.ndarray:
        return _tridiagonal_product(self.x_diag, self.x_off, state)

    def apply_target(self, state: np.ndarray) -> np.ndarray:
        return _tridiagonal_product(self.target_diag, self.target_off, state)


def _tridiagonal_product(diag: np.ndarray, off: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal (diag, off) times each column of an (m, k)
    block or of an (R, m, k) stack."""
    diag, off = diag[:, None], off[:, None]
    out = diag * state
    out[..., :-1, :] += off * state[..., 1:, :]
    out[..., 1:, :] += off * state[..., :-1, :]
    return out


@lru_cache(maxsize=None)
def circuit_context(spec: ProblemSpec) -> CircuitContext:
    return CircuitContext(spec)


# kept only because bench/workloads.py clears it by name; goes with ROADMAP item 2
@lru_cache(maxsize=None)
def cached_spectrum(spec: ProblemSpec) -> TargetSpectrum:
    return circuit_context(spec).spectrum


def _exact_angles(gamma: float, hz_ints, max_abs_hz: int) -> np.ndarray:
    """gamma hz_k mod 2 pi from the exact integers hz_k, in mpmath."""
    import mpmath

    with mpmath.workprec(max_abs_hz.bit_length() + 53 + 64):
        two_pi = 2 * mpmath.pi
        g = mpmath.mpf(gamma)
        return np.array([float(mpmath.fmod(g * v, two_pi)) for v in hz_ints])


def qaoa_state(spec: ProblemSpec, params: QaoaParams) -> np.ndarray:
    """Run the full circuit on |+>, phase layer first within each step, as
    a batch of one.

    Returns the N+1 amplitudes of the sector, also for even p.
    """
    ctx = circuit_context(spec)
    psi, _, _ = _forward(ctx, params.gammas[None], params.betas[None])
    return ctx.lift(psi[0, :, 0])


def _forward(ctx: CircuitContext, gammas: np.ndarray, betas: np.ndarray):
    """The circuit for R angle sets at once, row r of ``gammas`` and
    ``betas`` (each (R, P)) for circuit r. Returns the final states as an
    (R, m, 1) stack and the phase and mixer factors of every layer, each
    (R, P, m)."""
    phases, mixers = ctx.phase_factors(gammas), ctx.mixer_factors(betas)
    psi = ctx.plus[:, None]  # the first phase layer broadcasts it to (R, m, 1)
    for layer in range(gammas.shape[1]):
        psi = ctx.apply_mixer(ctx.apply_phase(psi, phases[:, layer]), mixers[:, layer])
    return psi, phases, mixers


def energy(spec: ProblemSpec, state: np.ndarray) -> float:
    """<state| H_target |state> of the N+1 sector amplitudes, asserted real."""
    n = spec.n_sites
    state = np.asarray(state, complex)
    if state.shape != (n + 1,):
        raise ValueError(
            f"energy needs the N + 1 = {n + 1} amplitudes of the sector, "
            f"got a state of shape {state.shape}"
        )
    diag, off = target_tridiagonal(spec)
    val = np.vdot(state, _tridiagonal_product(diag, off, state[:, None]))
    return float(_real_energy(val, gershgorin_bound(diag, off)))


def _real_energy(val, norm_bound: float):
    """The real part of an energy, or of each of an array of energies,
    after checking that the imaginary part is roundoff.

    For a normalized state of m amplitudes the imaginary part of <s|H|s> is
    at most about m eps ||H||, and ``norm_bound`` bounds ||H||; an imaginary
    part of 1e-12 times the bound or more is refused.
    """
    val = np.asarray(val)
    if np.any(abs(val.imag) >= _ROUNDOFF * norm_bound):
        raise ValueError(f"energy has non-negligible imaginary part {val.imag}")
    return val.real


def _block_energy(ctx: CircuitContext, phi: np.ndarray):
    """<phi|H|phi> of each state of an (R, m, 1) stack, and H|phi>."""
    h_phi = ctx.apply_target(phi)
    return _real_energy(np.vecdot(phi[..., 0], h_phi[..., 0]), ctx.spectrum.norm_bound), h_phi


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
    not a 2-d array with an even width of at least 2, a ``QaoaParams``
    included, is refused.

    The forward sweep keeps the 2P factor arrays of its layers, 32 P m R
    bytes (66 kB at m = 257, P = 4, R = 2; 8.4 MB at m = 513, P = 513,
    R = 1). The reverse sweep peels the layers off both the state and the
    adjoint vector H|psi> with the conjugated forward factors, so the cost
    is O(P m^2) per row regardless of depth, with m = floor(N/2)+1 for even
    p and N+1 for odd p. Both ride in one (m, 2) block per row, so each
    reverse layer is one mixer call and one multiply, with no exponential.
    Un-computing the state this way stays within roundoff of the forward
    sweep: after P* = 513 layers on m = 513 (N = 512, p = 3, natural-scale
    random angles) the norm drifted by 6e-15 and the state returned to |+>
    within 1.3e-14; at N = 1024, p = 2 (P* = 514) the drift was 1.3e-13.
    """
    ctx = circuit_context(spec)
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] < 2 or x.shape[1] % 2:
        raise ValueError(f"parameter rows must form an (R, 2P) array, P >= 1; got shape {x.shape}")
    x = x.astype(float, copy=False)
    depth = x.shape[1] // 2
    # d/dgamma of the phase layer brings down +i M^p = -i hz
    i_d_diag = 1j * -ctx.hz_float

    phi, phases, mixers = _forward(ctx, x[:, :depth], x[:, depth:])
    e_val, adj = _block_energy(ctx, phi)

    # row r: <adj|i d/dgamma_l phi>, then <adj|i d/dbeta_l phi>, l = 1..P
    overlaps = np.empty(x.shape, dtype=complex)
    undo_phase, undo_mixer = phases.conj()[..., None], mixers.conj()
    block = np.concatenate([phi, adj], axis=2)  # row r: (m, 2) [phi, adj]
    for m in reversed(range(depth)):
        x_phi = ctx.apply_x(block[..., :1])[..., 0]
        overlaps[:, depth + m] = np.vecdot(block[..., 1], 1j * x_phi)
        block = ctx.apply_mixer(block, undo_mixer[:, m])
        overlaps[:, m] = np.vecdot(block[..., 1], i_d_diag * block[..., 0])
        block *= undo_phase[:, m]
    return e_val, 2.0 * overlaps.real


def evaluate(spec: ProblemSpec, params: QaoaParams) -> EvaluationRecord:
    """Energy, residual, fidelity and equivalent annealing time in one record.

    The energy is ``energy_and_gradient``'s, bit for bit, and the fidelity the
    block overlap with ``ctx.ground``. ``energy`` and ``fidelity`` of the
    lifted state sum the same terms in another order; the tests hold the gaps
    to 1e-14 (for the energy, times the Gershgorin bound ``norm_bound``).
    """
    ctx = circuit_context(spec)
    phi = _forward(ctx, params.gammas[None], params.betas[None])[0]
    e_val = float(_block_energy(ctx, phi)[0][0])
    return EvaluationRecord(
        energy=e_val,
        residual=residual_energy(ctx.spectrum, e_val),
        fidelity=fidelity(phi[0, :, 0], ctx.ground),
        annealing_time=equivalent_annealing_time(spec, params),
    )
