"""Independent oracles: the same circuit in the full 2^N space, and dense
matrices of the Dicke sector.

The full-space functions work with explicit per-qubit tensor products and
know nothing about the Dicke-sector code paths they are used to check. The
dense sector matrices are the plain constructions that the tridiagonal
production code replaced; they are kept as references, as is the sector
tridiagonal written entry by entry from its formulas and the energy of N+1
sector amplitudes taken from it. ``block_to_sector`` lifts a vector of
``dynamics_block`` amplitudes, in their natural order, to the sector, and
``sector_ground_state`` lifts the package's block ground state with it;
``fidelity`` is the squared overlap the tests compare states by.
"""

import numpy as np
import scipy.linalg
from math import comb, sqrt

from pspin_qaoa.sector import diagonalize_target


def n_down(l: int) -> int:
    return bin(l).count("1")


def full_plus_state(n: int) -> np.ndarray:
    return np.full(2**n, 2.0 ** (-n / 2), dtype=complex)


def full_qaoa_state(n: int, p: int, gammas, betas) -> np.ndarray:
    mags = np.array([n - 2 * n_down(l) for l in range(2**n)])
    mp = np.array([float(int(m) ** p) for m in mags])
    psi = full_plus_state(n)
    for gamma, beta in zip(gammas, betas):
        psi = psi * np.exp(1j * gamma * mp)
        # exp(i beta sigma^x) applied qubit by qubit
        c, s = np.cos(beta), 1j * np.sin(beta)
        psi = psi.reshape([2] * n)
        for q in range(n):
            psi = np.moveaxis(psi, q, 0)
            a0, a1 = psi[0].copy(), psi[1].copy()
            psi[0] = c * a0 + s * a1
            psi[1] = s * a0 + c * a1
            psi = np.moveaxis(psi, 0, q)
        psi = psi.reshape(-1)
    return psi


def embed_sector_state(state, n: int) -> np.ndarray:
    """Spread Dicke amplitudes uniformly over the bitstrings of each k."""
    out = np.empty(2**n, dtype=complex)
    for l in range(2**n):
        k = n_down(l)
        out[l] = state[k] / np.sqrt(comb(n, k))
    return out


def full_energy(n: int, p: int, h: float, psi: np.ndarray) -> float:
    mags = np.array([n - 2 * n_down(l) for l in range(2**n)])
    diag = -np.array([float(int(m) ** p) for m in mags]) / n ** (p - 1)
    val = np.vdot(psi, diag * psi)
    # transverse term: -h sum_j sigma^x_j flips one bit at a time
    for j in range(n):
        flipped = np.arange(2**n) ^ (1 << j)
        val += -h * np.vdot(psi, psi[flipped])
    return float(val.real)


def collective_x_matrix(n: int) -> np.ndarray:
    """Matrix of sum_j sigma^x_j in the Dicke basis of N sites (symmetric tridiagonal)."""
    k = np.arange(n)
    off = np.sqrt((k + 1.0) * (n - k))
    mat = np.zeros((n + 1, n + 1))
    mat[k, k + 1] = off
    mat[k + 1, k] = off
    return mat


def target_matrix(spec) -> np.ndarray:
    """Dense sector Hamiltonian -(M_k)^p / N^(p-1) on the diagonal, -h X off it,
    with M_k = N - 2k."""
    n, p = spec.n_sites, spec.p_exponent
    mat = -spec.field * collective_x_matrix(n)
    diag = np.array([-float((n - 2 * k) ** p) for k in range(n + 1)])
    mat[np.diag_indices_from(mat)] = diag / float(n ** (p - 1))
    return mat


def dense_even_gap(spec) -> float:
    """Gap of the reflection-even block, by a dense projector and a full eigh."""
    mat = target_matrix(spec)
    n = spec.n_sites
    half = (n + 1) // 2
    m = half + (1 if n % 2 == 0 else 0)
    proj = np.zeros((n + 1, m))
    for j in range(half):
        proj[j, j] = proj[n - j, j] = 1.0 / np.sqrt(2.0)
    if n % 2 == 0:
        proj[n // 2, m - 1] = 1.0
    w = scipy.linalg.eigh(proj.T @ mat @ proj, eigvals_only=True)
    return float(w[1] - w[0])


def full_target_matrix(n: int, p: int, h: float) -> np.ndarray:
    """Dense 2^N target: -(sum_j sigma^z_j)^p / N^(p-1) - h sum_j sigma^x_j."""
    dim = 2**n
    mags = np.array([n - 2 * n_down(l) for l in range(dim)])
    mat = np.diag(-np.array([float(int(m) ** p) for m in mags]) / n ** (p - 1))
    rows = np.arange(dim)
    for j in range(n):
        mat[rows, rows ^ (1 << j)] -= h
    return mat


def sector_tridiagonal(n: int, p: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The sector target as a tridiagonal, entry by entry from the formulas:
    -(N - 2k)^p / N^(p-1) on the diagonal, -h sqrt((k+1)(N-k)) off it."""
    scale = float(n ** (p - 1))
    diag = np.array([-float((n - 2 * k) ** p) / scale for k in range(n + 1)])
    off = np.array([-h * sqrt((k + 1) * (n - k)) for k in range(n)])
    return diag, off


def sector_energy(spec, state) -> float:
    """<state|H|state> of the N+1 sector amplitudes, H the ``sector_tridiagonal``."""
    diag, off = sector_tridiagonal(spec.n_sites, spec.p_exponent, spec.field)
    state = np.asarray(state, dtype=complex)
    assert state.shape == diag.shape
    h_state = diag * state
    h_state[:-1] += off * state[1:]
    h_state[1:] += off * state[:-1]
    return float(np.vdot(state, h_state).real)


def fidelity(state: np.ndarray, target: np.ndarray) -> float:
    """Squared overlap |<target|state>|^2."""
    return float(abs(np.vdot(target, state)) ** 2)


def block_to_sector(n: int, p: int, block: np.ndarray) -> np.ndarray:
    """The N+1 sector amplitudes of ``dynamics_block`` amplitudes in their
    natural order: the vector itself for odd p; for even p amplitude k is
    block amplitude min(k, N - k), over sqrt(2) from a pair state
    (|k> + |N-k>)/sqrt(2)."""
    if p % 2:
        return block * 1.0
    k = np.arange(n + 1)
    return block[np.minimum(k, n - k)] * np.where(2 * k == n, 1.0, np.sqrt(0.5))


def sector_ground_state(spec) -> np.ndarray:
    """The N+1 sector amplitudes of the target ground state: the block vector
    of ``diagonalize_target``, lifted by ``block_to_sector``."""
    return block_to_sector(spec.n_sites, spec.p_exponent, diagonalize_target(spec).ground)
