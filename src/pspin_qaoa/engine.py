"""Layer-by-layer QAOA circuit in the collective-spin sector.

One step applies the diagonal phase unitary exp(-i gamma Hz) followed by the
mixer exp(-i beta Hx) with Hx = -sum_j sigma^x_j. For even p, Hz, Hx and the
target commute with the spin flip k -> N - k and |+> is even under it, so
the circuit runs in the reflection-even block of the sector: the
floor(N/2)+1 states (|k> + |N-k>)/sqrt(2), k < N/2, plus |N/2> for even N
(``sector.dynamics_block``, ``sector.dynamics_lift``). For odd p it
runs in the whole sector of N+1 states. Either way the context holds the
same fields, m the dimension: the phases, the target and collective-X as
tridiagonals, |+>, and the cached spectral decomposition V diag(lam) V^T of
collective-X. V is real, so a complex state, or an (m, k) block of states,
is viewed as an (m, 2k) float64 array and rotated by two real GEMMs (V^T,
then V) around one diagonal scaling by exp(i beta lam). The state, the energy and the adjoint
gradient all run through these two kernels; the reverse sweep carries the
state and the adjoint vector as one (m, 2) block, so each of its layers is
one mixer call and one phase multiply. ``qaoa_state`` lifts its result back
to the N+1 sector amplitudes.
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
    plus_state,
    sector_table,
    target_tridiagonal,
    x_spectral_decomposition,
)

_SAFE_DOUBLE = 2.0**53


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
        g.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "gammas", g)
        object.__setattr__(self, "betas", b)

    @property
    def depth(self) -> int:
        return self.gammas.size

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
    """

    def __init__(self, spec: ProblemSpec):
        self.spec = spec
        n, p = spec.n_sites, spec.p_exponent
        table = sector_table(n, p)
        self.x_diag, self.x_off = dynamics_block(p, np.zeros(n + 1), table.x_off)
        self.target_diag, self.target_off = dynamics_block(p, *target_tridiagonal(spec))
        self.lift_index, self.lift_weight = dynamics_lift(p, n)
        dim = self.x_diag.size
        self.hz: tuple[int, ...] = table.hz[:dim]
        self.max_abs_hz: int = table.max_abs_hz
        self.hz_float = table.hz_float[:dim]
        self.xdec: XSpectralDecomposition = x_spectral_decomposition(n, even_parity=p % 2 == 0)
        self.plus = plus_state(n)[:dim] / self.lift_weight[:dim]

    def lift(self, state: np.ndarray) -> np.ndarray:
        """The N+1 sector amplitudes of a context-dimension state vector."""
        return state[self.lift_index] * self.lift_weight

    def apply_phase(self, state: np.ndarray, gamma: float) -> np.ndarray:
        """exp(-i gamma Hz) on a vector or on each column of an (m, k) block."""
        factors = _phase_factors(gamma, self.hz, self.hz_float, self.max_abs_hz)
        return state * (factors if state.ndim == 1 else factors[:, None])

    def apply_mixer(self, state: np.ndarray, beta: float) -> np.ndarray:
        """exp(-i beta Hx) on a vector or on each column of an (m, k) block.

        V is real, so both products are real GEMMs on the (m, 2k) float64
        view of the complex block.
        """
        v = self.xdec.eigenvectors
        state = np.ascontiguousarray(state, dtype=complex)
        dim = state.shape[0]
        rotated = (v.T @ state.view(np.float64).reshape(dim, -1)).view(complex)
        rotated *= np.exp(1j * beta * self.xdec.eigenvalues)[:, None]
        return (v @ rotated.view(np.float64)).view(complex).reshape(state.shape)

    def apply_x(self, state: np.ndarray) -> np.ndarray:
        return _tridiagonal_product(self.x_diag, self.x_off, state)

    def apply_target(self, state: np.ndarray) -> np.ndarray:
        return _tridiagonal_product(self.target_diag, self.target_off, state)


def _tridiagonal_product(diag: np.ndarray, off: np.ndarray, state: np.ndarray) -> np.ndarray:
    """The symmetric tridiagonal (diag, off) times a state vector."""
    out = diag * state
    out[:-1] += off * state[1:]
    out[1:] += off * state[:-1]
    return out


@lru_cache(maxsize=None)
def circuit_context(spec: ProblemSpec) -> CircuitContext:
    return CircuitContext(spec)


@lru_cache(maxsize=None)
def cached_spectrum(spec: ProblemSpec) -> TargetSpectrum:
    return diagonalize_target(spec)


def _phase_factors(gamma, hz_ints, hz_float, max_abs_hz) -> np.ndarray:
    """exp(-i gamma hz_k); a phase beyond 2^53 is reduced mod 2 pi from the
    exact integer hz_k, with 64 bits to spare over the exact product."""
    if abs(gamma) * max_abs_hz <= _SAFE_DOUBLE:
        return np.exp(-1j * gamma * hz_float)
    import mpmath

    with mpmath.workprec(max_abs_hz.bit_length() + 53 + 64):
        two_pi = 2 * mpmath.pi
        g = mpmath.mpf(gamma)
        angles = np.array([float(mpmath.fmod(g * v, two_pi)) for v in hz_ints])
    return np.exp(-1j * angles)


def qaoa_state(spec: ProblemSpec, params: QaoaParams) -> np.ndarray:
    """Run the full circuit on |+>, phase layer first within each step.

    Returns the N+1 amplitudes of the sector, also for even p.
    """
    ctx = circuit_context(spec)
    return ctx.lift(_forward(ctx, params))


def _forward(ctx: CircuitContext, params: QaoaParams) -> np.ndarray:
    psi = ctx.plus
    for gamma, beta in zip(params.gammas, params.betas):
        psi = ctx.apply_mixer(ctx.apply_phase(psi, gamma), beta)
    return psi


def energy(spec: ProblemSpec, state: np.ndarray) -> float:
    """<state| H_target |state> of the N+1 sector amplitudes, asserted real."""
    n = spec.n_sites
    state = np.asarray(state, complex)
    if state.shape != (n + 1,):
        raise ValueError(
            f"energy needs the N + 1 = {n + 1} amplitudes of the sector, "
            f"got a state of shape {state.shape}"
        )
    h_state = _tridiagonal_product(*target_tridiagonal(spec), state)
    return _real_energy(np.vdot(state, h_state))


def _real_energy(val: complex) -> float:
    if abs(val.imag) >= 1e-12 * max(1.0, abs(val.real)):
        raise ValueError(f"energy has non-negligible imaginary part {val.imag}")
    return float(val.real)


def residual_energy(spectrum: TargetSpectrum, energy_value: float) -> float:
    """(E - E_min) / (E_max - E_min), clamped only within roundoff of [0, 1].

    A flat spectrum (E_max = E_min) has every state as a ground state, so its
    residual is 0.
    """
    if not (spectrum.e_min - 1e-9 <= energy_value <= spectrum.e_max + 1e-9):
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


def energy_and_gradient(spec: ProblemSpec, params: QaoaParams) -> tuple[float, np.ndarray]:
    """Exact analytic gradient of the energy via one forward and one adjoint sweep.

    The reverse sweep peels layers off both the state and the adjoint vector
    H|psi>, so the cost is O(P m^2) regardless of depth, with m = floor(N/2)+1
    for even p and N+1 for odd p. Both ride in one (m, 2) block, so each
    reverse layer is one mixer call and one phase multiply.
    """
    ctx = circuit_context(spec)
    gammas, betas = params.gammas, params.betas
    depth = params.depth
    # d/dgamma of the phase layer brings down +i M^p = -i hz
    d_diag = -ctx.hz_float

    phi = _forward(ctx, params)
    adj = ctx.apply_target(phi)
    e_val = _real_energy(np.vdot(phi, adj))

    grad_g = np.zeros(depth)
    grad_b = np.zeros(depth)
    block = np.stack([phi, adj], axis=1)
    for m in reversed(range(depth)):
        phi, adj = block.T
        grad_b[m] = 2.0 * np.real(np.vdot(adj, 1j * ctx.apply_x(phi)))
        block = ctx.apply_mixer(block, -betas[m])
        phi, adj = block.T
        grad_g[m] = 2.0 * np.real(np.vdot(adj, 1j * d_diag * phi))
        block = ctx.apply_phase(block, -gammas[m])
    return e_val, np.concatenate([grad_g, grad_b])


def evaluate(spec: ProblemSpec, params: QaoaParams) -> EvaluationRecord:
    """Energy, residual, fidelity and equivalent annealing time in one record."""
    spectrum = cached_spectrum(spec)
    state = qaoa_state(spec, params)
    e_val = energy(spec, state)
    return EvaluationRecord(
        energy=e_val,
        residual=residual_energy(spectrum, e_val),
        fidelity=fidelity(state, spectrum.ground_state),
        annealing_time=equivalent_annealing_time(spec, params),
    )
