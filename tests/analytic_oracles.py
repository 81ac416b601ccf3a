"""Test oracles for the depth-1 derivation, the parameter-space symmetries
and the circuit's rounding.

The package ships only the angles (`pspin_qaoa.analytic.exact_p1_params`);
the decompositions p = 2^(k+1) + n 2^k, the modular power identity behind
them, the closed-form depth-1 fidelity sum and the symmetry table live here,
where the tests check the paper's derivation against the circuit; so does
the split of a flat parameter vector into circuit angles.

So do the closed forms of the circuit's ingredients, from exact integers:
|+> as binomial weights, collective X's eigenvectors as the Wigner small-d
matrix d^{N/2}(pi/2), and from them a 40-digit circuit energy and its
50-digit gradient, by central differences and by an adjoint sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, pi

import mpmath
import numpy as np

from pspin_qaoa.engine import QaoaParams


def params_from_vector(x) -> QaoaParams:
    """The angles of a vector ordered like ``QaoaParams.to_vector``: P
    gammas, then P betas."""
    x = np.asarray(x, dtype=float)
    half = x.size // 2
    return QaoaParams(gammas=x[:half], betas=x[half:])


@dataclass(frozen=True)
class EvenPDecomposition:
    k: int
    n: int

    def reconstruct(self) -> int:
        return 2 ** (self.k + 1) + self.n * 2**self.k

    @property
    def gamma(self) -> float:
        return 2.0 * pi / 2 ** (self.k + 4)


@dataclass(frozen=True)
class SymmetryTransform:
    """One row of the symmetry table: negate everything, or shift one angle."""

    kind: str  # "negate_all" | "beta_shift" | "gamma_shift"
    shift: float = 0.0

    def apply(self, params: QaoaParams, component: int = 0) -> QaoaParams:
        if self.kind == "negate_all":
            return QaoaParams(gammas=-params.gammas, betas=-params.betas)
        if self.kind == "beta_shift":
            betas = params.betas.copy()
            betas[component] += self.shift
            return QaoaParams(gammas=params.gammas, betas=betas)
        if self.kind == "gamma_shift":
            gammas = params.gammas.copy()
            gammas[component] += self.shift
            return QaoaParams(gammas=gammas, betas=params.betas)
        raise ValueError(f"unknown transform kind {self.kind!r}")


def f_of_m(m: int) -> int:
    """0 if M = +-1 mod 8, 1 if M = +-3 mod 8; defined for odd M only."""
    if m % 2 == 0:
        raise ValueError(f"M must be odd, got {m}")
    r = m % 8
    return 0 if r in (1, 7) else 1


def even_p_decomposition(p: int) -> EvenPDecomposition:
    """The unique decomposition p = 2^(k+1) + n 2^k with n a multiple of 4,
    found by the search the derivation describes (k = j - 1 for p = 2^j q)."""
    if p % 2 != 0 or p < 2:
        raise ValueError(f"p must be even and >= 2, got {p}")
    k = 0
    while p % 2 ** (k + 2) == 0:
        k += 1
    n = p // 2**k - 2
    assert n % 4 == 0 and 2 ** (k + 1) + n * 2**k == p
    return EvenPDecomposition(k=k, n=n)


def all_even_p_decompositions(p: int) -> list[EvenPDecomposition]:
    """Every integer representation p = 2^(k+1) + n 2^k, valid or not; only
    the one with 4 | n gives an exact depth-1 angle."""
    if p % 2 != 0 or p < 2:
        raise ValueError(f"p must be even and >= 2, got {p}")
    out = []
    k = 0
    while 2 ** (k + 1) <= p:
        rem = p - 2 ** (k + 1)
        if rem % 2**k == 0:
            out.append(EvenPDecomposition(k=k, n=rem // 2**k))
        k += 1
    return out


def verify_power_identity(k: int, n: int, m: int) -> bool:
    """Check m^(2^(k+1)+n 2^k) mod 2^(k+4) == f(m) 2^(k+3) + 1 for odd m.

    Holds for every odd m exactly when n is a multiple of 4 (n = 0 included);
    for other n the left side picks up an extra power of m and the claim fails.
    """
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    if k < 0 or n < 0:
        raise ValueError("k and n must be natural numbers")
    exponent = 2 ** (k + 1) + n * 2**k
    modulus = 2 ** (k + 4)
    return pow(m, exponent, modulus) == f_of_m(m) * 2 ** (k + 3) + 1


def p1_fidelity_closed_form(p: int, n_sites: int, gamma: float) -> float:
    """Magnetization-resolved depth-1 fidelity at beta = pi/4: the
    binomial-weighted phase sum, independent of the circuit simulation."""
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    total = 0.0 + 0.0j
    norm = 2.0**n_sites
    for k in range(n_sites + 1):
        m = n_sites - 2 * k
        mp = m**p
        weight = comb(n_sites, k) / norm
        if p % 2 == 1:
            total += weight * np.exp(1j * (gamma * mp + 0.5 * pi * k))
        else:
            if n_sites % 2 == 0:
                raise ValueError("even-p closed form requires odd N")
            total += weight * np.exp(1j * (gamma * mp - pi * f_of_m(m)))
    return float(abs(total) ** 2)


def _periods(p: int, n_sites: int) -> tuple[float, float]:
    """(beta period, gamma period) of the energy for these parities."""
    return (pi if p % 2 == 1 else pi / 2.0, pi if n_sites % 2 == 1 else pi / 2 ** (p - 1))


def symmetry_group(p: int, n_sites: int) -> list[SymmetryTransform]:
    """The energy-preserving transforms for given parities of p and N."""
    beta_shift, gamma_shift = _periods(p, n_sites)
    return [
        SymmetryTransform(kind="negate_all"),
        SymmetryTransform(kind="beta_shift", shift=beta_shift),
        SymmetryTransform(kind="gamma_shift", shift=gamma_shift),
    ]


def canonicalize(params: QaoaParams, p: int, n_sites: int) -> QaoaParams:
    """Fold every angle into [0, period) for its symmetry-table period."""
    beta_period, gamma_period = _periods(p, n_sites)
    return QaoaParams(
        gammas=np.mod(params.gammas, gamma_period),
        betas=np.mod(params.betas, beta_period),
    )


def plus_amplitudes(n_sites: int, even_parity: bool = False) -> np.ndarray:
    """The N+1 sector amplitudes of |+>, sqrt(C(N,k) / 2^N), each rounded
    once from exact integers. With ``even_parity``, its floor(N/2)+1
    amplitudes in the reflection-even block: sqrt(2) times amplitude k on a
    pair state (|k> + |N-k>)/sqrt(2), k < N/2."""
    n = n_sites
    with mpmath.workdps(40):
        return np.array([
            float(mpmath.sqrt(mpmath.mpf(comb(n, k) * (2 if even_parity and 2 * k != n else 1)) / 2**n))
            for k in range(n // 2 + 1 if even_parity else n + 1)
        ])


def x_eigenvectors_mp(n_sites: int, even_parity: bool) -> tuple[list[int], list[list]]:
    """Collective X's eigenvalues and eigenvectors in closed form, at the
    working precision: d^{N/2}(pi/2) (Varshalovich, Moskalev & Khersonskii
    1988, ch. 4) in the Dicke basis |k>, k down spins along z.

    The eigenvector of N - 2j, j spins down along x, has amplitude
    2^(-N/2) sqrt(C(N,k) / C(N,j)) K_j(k) on |k>, with the Krawtchouk
    number K_j(k) = sum_s (-1)^s C(k,s) C(N-k,j-s) an exact integer; its
    amplitude on |0> is positive. Returns the eigenvalues ascending and V as
    rows of mpf, column c for eigenvalue c. With ``even_parity``, the
    eigenvalues N - 2j for even j in the reflection-even block: rows k <= N/2,
    a pair state (|k> + |N-k>)/sqrt(2) taking sqrt(2) times amplitude k.
    """
    n, krawtchouk = n_sites, _krawtchouk(n_sites)
    js = range(n - n % 2, -1, -2) if even_parity else range(n, -1, -1)
    rows = range(n // 2 + 1) if even_parity else range(n + 1)
    scale = mpmath.mpf(2) ** (-mpmath.mpf(n) / 2)
    vec = [[scale * mpmath.sqrt(mpmath.mpf(comb(n, k)) / comb(n, j)) * krawtchouk[k][j]
            * (mpmath.sqrt(2) if even_parity and 2 * k != n else 1)
            for j in js] for k in rows]
    return [n - 2 * j for j in js], vec


@lru_cache(maxsize=None)
def _krawtchouk(n: int) -> tuple[tuple[int, ...], ...]:
    """The Krawtchouk numbers K_j(k) of N, row k and column j: exact, so
    one table serves every working precision."""
    return tuple(
        tuple(sum((-1) ** s * comb(k, s) * comb(n - k, j - s) for s in range(min(k, j) + 1)) for j in range(n + 1))
        for k in range(n + 1)
    )


def x_eigenvectors(n_sites: int, even_parity: bool) -> np.ndarray:
    """``x_eigenvectors_mp``'s V, each entry rounded once to float64."""
    with mpmath.workdps(40):
        return np.array(x_eigenvectors_mp(n_sites, even_parity)[1], dtype=float)


def folded_x_eigenvectors(n_sites: int, even_parity: bool) -> np.ndarray:
    """``x_eigenvectors_mp``'s V in the package's parity-folded layout, each
    entry rounded once to float64: an (s, h, h) stack. For even p at odd N
    (``even_parity`` and odd N) it is V itself, s = 1. Otherwise s = 2:
    column c of half 0 holds the even rows k of the c-th eigenvector of
    eigenvalue >= 0 (ascending), of half 1 its odd rows, at row floor(k/2),
    each times sqrt(2) but for eigenvalue 0; a half short of h rows ends in
    a zero row."""
    with mpmath.workdps(40):
        lam, vec = x_eigenvectors_mp(n_sites, even_parity)
        if even_parity and n_sites % 2:
            return np.array(vec, dtype=float)[None]
        cols = [c for c, mu in enumerate(lam) if mu >= 0]
        folded = np.zeros((2, len(cols), len(cols)))
        for k, row in enumerate(vec):
            for i, c in enumerate(cols):
                folded[k % 2, k // 2, i] = float(row[c] * (mpmath.sqrt(2) if lam[c] else 1))
        return folded


def circuit_energy_mp(n_sites: int, p: int, field: float, gammas, betas) -> mpmath.mpf:
    """<psi|H|psi> of the circuit at 40 digits, in the whole sector, from
    nothing the package computes: |+> from exact binomials, each phase
    gamma hz_k from the exact integer hz_k = -(N - 2k)^p (the float gamma
    times an integer of at most 80 bits is exact at 40 digits, and mpmath
    reduces it mod 2 pi), and the mixer V diag(exp(i beta lam)) V^T from
    ``x_eigenvectors_mp`` with integer lam."""
    with mpmath.workdps(40):
        circuit = _CircuitMp(n_sites, p, field)
        psi = circuit.plus
        for gamma, beta in zip(gammas, betas):
            psi = circuit.layer(psi, mpmath.mpf(float(gamma)), mpmath.mpf(float(beta)))
        return circuit.energy(psi)


def circuit_gradient_mp(n_sites: int, p: int, field: float, gammas, betas) -> list:
    """The gradient of ``circuit_energy_mp`` at the float angles, ordered
    like ``QaoaParams.to_vector``: central differences at 50 digits with
    step 1e-22, whose truncation (the step squared times the third
    derivative) and rounding (1e-50 over the step) both stay near 1e-28 of
    the gradient's scale, far below a float gradient's rounding. A moved
    angle of layer l reruns layers l..P from the stored state before l:
    about 2 P^2 layers in all. It shares no derivation with the package's
    adjoint sweep, and checks ``circuit_gradient_adjoint_mp``."""
    with mpmath.workdps(50):
        circuit = _CircuitMp(n_sites, p, field)
        gammas, betas = [mpmath.mpf(float(v)) for v in gammas], [mpmath.mpf(float(v)) for v in betas]
        before = [circuit.plus]
        for gamma, beta in zip(gammas, betas):
            before.append(circuit.layer(before[-1], gamma, beta))
        step = mpmath.mpf(10) ** -22

        def moved(l, d_gamma, d_beta):
            psi = circuit.layer(before[l], gammas[l] + d_gamma, betas[l] + d_beta)
            for gamma, beta in zip(gammas[l + 1:], betas[l + 1:]):
                psi = circuit.layer(psi, gamma, beta)
            return circuit.energy(psi)

        depth = range(len(gammas))
        return ([(moved(l, step, 0) - moved(l, -step, 0)) / (2 * step) for l in depth]
                + [(moved(l, 0, step) - moved(l, 0, -step)) / (2 * step) for l in depth])


def circuit_gradient_adjoint_mp(n_sites: int, p: int, field: float, gammas, betas) -> list:
    """The gradient of ``circuit_energy_mp`` at the float angles at 50
    digits, ordered like ``QaoaParams.to_vector``, from one forward and one
    reverse sweep: 2 P layers, against central differences' 2 P^2.

    With a_l the state after phase layer l, r_l = E_l V^T a_l its mixed
    eigenbasis coordinates and adj = H psi carried back through the
    layers: d/dbeta_l = 2 Re <V^T adj| i lam r_l>, then adj moves before
    the mixer, d/dgamma_l = 2 Re <adj| -i hz a_l>, and adj moves before
    the phase layer. The derivation is the package's, so
    ``circuit_gradient_mp`` checks this oracle."""
    with mpmath.workdps(50):
        circuit = _CircuitMp(n_sites, p, field)
        gammas, betas = [mpmath.mpf(float(v)) for v in gammas], [mpmath.mpf(float(v)) for v in betas]
        psi, stored = circuit.plus, []
        for gamma, beta in zip(gammas, betas):
            post_phase = circuit.phase(psi, gamma)
            coords = circuit.mix(circuit.to_x(post_phase), beta)
            stored.append((post_phase, coords))
            psi = circuit.from_x(coords)
        adj = circuit.h_times(psi)
        d_gammas, d_betas = [], []
        for gamma, beta, (post_phase, coords) in reversed(list(zip(gammas, betas, stored))):
            b = circuit.to_x(adj)
            d_betas.append(2 * mpmath.re(mpmath.fdot(
                [mpmath.conj(v) for v in b], [1j * mu * r for mu, r in zip(circuit.lam, coords)])))
            adj = circuit.from_x(circuit.mix(b, -beta))
            d_gammas.append(2 * mpmath.re(mpmath.fdot(
                [mpmath.conj(v) for v in adj], [-1j * v * a for v, a in zip(circuit.hz, post_phase)])))
            adj = circuit.phase(adj, -gamma)
        return d_gammas[::-1] + d_betas[::-1]


class _CircuitMp:
    """The circuit's parts in the whole sector at the working precision:
    |+>, the phase layer and the mixer's two halves at mpf angles, and the
    target H. V is real, so its products need no conjugate."""

    def __init__(self, n: int, p: int, field: float):
        self.lam, self.vec = x_eigenvectors_mp(n, False)
        self.columns = [list(col) for col in zip(*self.vec)]
        self.hz = [-((n - 2 * k) ** p) for k in range(n + 1)]
        self.plus = [mpmath.sqrt(mpmath.mpf(comb(n, k)) / 2**n) for k in range(n + 1)]
        h = mpmath.mpf(float(field))
        self.diag = [mpmath.mpf(v) / n ** (p - 1) for v in self.hz]
        self.off = [-h * mpmath.sqrt((k + 1) * (n - k)) for k in range(n)]

    def phase(self, psi, gamma):
        """exp(-i gamma hz) psi."""
        return [a * mpmath.expj(-gamma * v) for a, v in zip(psi, self.hz)]

    def to_x(self, psi):
        """V^T psi, the collective-X eigenbasis coordinates."""
        return [mpmath.fdot(col, psi) for col in self.columns]

    def mix(self, coords, beta):
        """exp(i beta lam) times eigenbasis coordinates."""
        return [c * mpmath.expj(beta * mu) for c, mu in zip(coords, self.lam)]

    def from_x(self, coords):
        """V coords, the state of eigenbasis coordinates."""
        return [mpmath.fdot(row, coords) for row in self.vec]

    def layer(self, psi, gamma, beta):
        """One circuit layer, the phase first."""
        return self.from_x(self.mix(self.to_x(self.phase(psi, gamma)), beta))

    def h_times(self, psi):
        """H psi, H the sector target tridiagonal."""
        h_psi = [d * a for d, a in zip(self.diag, psi)]
        for k, o in enumerate(self.off):
            h_psi[k] += o * psi[k + 1]
            h_psi[k + 1] += o * psi[k]
        return h_psi

    def energy(self, psi):
        """<psi|H|psi>."""
        return mpmath.re(mpmath.fdot([mpmath.conj(a) for a in psi], self.h_times(psi)))
