"""Exact linear algebra in the maximum-spin (S = N/2) sector.

The fully-connected p-spin Hamiltonian commutes with total spin, and the
dynamics we simulate starts from the fully x-polarized state, so everything
lives in the (N+1)-dimensional Dicke subspace labeled by the magnetization
M_k = N - 2k, with k the number of down spins. In that basis the target is
the tridiagonal ``target_tridiagonal(spec)``.

Everything that does not depend on the field h is built once per (N, p) per
process by the cached ``sector_table``: the exact integers -(M_k)^p, their
float image, the target diagonal and the collective-X off-diagonal, all
read-only. The target, the circuit context, the energy, the gap and the
spectrum read it instead of rebuilding it.

For even p the target, the phase and the mixer also commute with the spin
flip k -> N - k, and |+> is even under it, so the dynamics stays in the
reflection-even block of floor(N/2)+1 states, again tridiagonal. For odd p
it uses the whole sector. ``dynamics_block`` picks that block for any
sector tridiagonal and ``dynamics_lift`` maps its states back to the sector;
the circuit, the dynamical gap and the ground state all work in it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, lgamma, log
from numbers import Integral

import numpy as np
import scipy.linalg

# M^p is carried as an exact Python integer; reject anything that would not
# fit a 128-bit signed phase accumulator.
_MAX_PHASE_BITS = 127
_MAX_PHASE_INT = 2**_MAX_PHASE_BITS
# the largest collective-X eigenvector matrix V (m^2 float64): m <= 11585
_MAX_MIXER_BYTES = 2**30


@dataclass(frozen=True)
class ProblemSpec:
    """The triple (N, p, h) defining the target Hamiltonian."""

    n_sites: int
    p_exponent: int
    field: float = 0.0

    def __post_init__(self):
        # plain ints, so that cache keys and ``sector_table`` see one type
        for name in ("n_sites", "p_exponent"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")
        if self.p_exponent < 2:
            raise ValueError(f"p_exponent must be >= 2, got {self.p_exponent}")
        if isinstance(self.field, bool) or not isfinite(self.field):
            raise ValueError(f"field must be finite and not a bool, got {self.field!r}")
        if self.field < 0:
            raise ValueError(f"field must be >= 0, got {self.field}")
        # N >= 2^(bit_length - 1), so a large p is refused before the exact power
        if (self.n_sites.bit_length() - 1) * self.p_exponent >= _MAX_PHASE_BITS or (
            self.n_sites**self.p_exponent >= _MAX_PHASE_INT
        ):
            raise OverflowError(
                f"N^p = {self.n_sites}^{self.p_exponent} exceeds the supported "
                "128-bit integer width for phase arithmetic"
            )


@dataclass(frozen=True)
class XSpectralDecomposition:
    """Eigendecomposition of the collective-X operator, V diag(lam) V^T."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class SectorTable:
    """The field-independent arrays of the (N, p) sector, all read-only.

    ``hz`` holds the exact integers -(M_k)^p and ``hz_float`` their float
    image; ``target_diag`` is hz / N^(p-1), the diagonal of the target, and
    ``x_off`` the off-diagonal of the collective-X matrix.
    """

    hz: tuple[int, ...]
    hz_float: np.ndarray
    max_abs_hz: int
    target_diag: np.ndarray
    x_off: np.ndarray


@dataclass(frozen=True)
class TargetSpectrum:
    """Extremal eigenvalues and ground state of the sector Hamiltonian, and
    the ``gershgorin_bound`` on its norm that their accuracy is stated in."""

    e_min: float
    e_max: float
    ground_state: np.ndarray
    norm_bound: float


def plus_state(n_sites: int) -> np.ndarray:
    """Fully x-polarized state of N sites; amplitude_k = sqrt(C(N,k)/2^N).

    Log-gamma accumulation keeps the binomial weights finite up to N ~ 1000.
    """
    k = np.arange(n_sites + 1)
    log_amp = 0.5 * (
        lgamma(n_sites + 1)
        - np.array([lgamma(j + 1) + lgamma(n_sites - j + 1) for j in k])
        - n_sites * log(2.0)
    )
    amp = np.exp(log_amp)
    return amp.astype(complex)


def _x_off_diagonal(n: int) -> np.ndarray:
    """Off-diagonal band of the collective-X matrix, entry k = sqrt((k+1)(N-k))."""
    k = np.arange(n)
    return np.sqrt((k + 1.0) * (n - k))


@lru_cache(maxsize=None)
def sector_table(n_sites: int, p: int) -> SectorTable:
    """The cached ``SectorTable`` of N sites and exponent p.

    The diagonal of -(sum_j sigma^z_j)^p has entry k the exact integer
    -(M_k)^p, M_k = N - 2k. ``ProblemSpec`` checks N and p, and that N^p
    fits the phase accumulator, before any caller reaches this table.
    """
    hz = tuple(-((n_sites - 2 * k) ** p) for k in range(n_sites + 1))
    hz_float = np.array([float(v) for v in hz])
    target_diag = hz_float / float(n_sites ** (p - 1))
    x_off = _x_off_diagonal(n_sites)
    for arr in (hz_float, target_diag, x_off):
        arr.setflags(write=False)
    return SectorTable(hz, hz_float, max(abs(v) for v in hz), target_diag, x_off)


def target_tridiagonal(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The sector target Hamiltonian as a tridiagonal (diagonal, off-diagonal).

    The diagonal is -(M_k)^p / N^(p-1), the read-only array of
    ``sector_table``; the off-diagonal is -h times the collective-X
    off-diagonal, a new array.
    """
    table = sector_table(spec.n_sites, spec.p_exponent)
    return table.target_diag, -spec.field * table.x_off


def gershgorin_bound(diag: np.ndarray, off: np.ndarray) -> float:
    """max|d| + 2 max|o|, a bound on the norm of the symmetric tridiagonal
    (d, o), and so on every energy of a normalized state.

    For the sector target it is about N (1 + h), at least N.
    """
    return float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0))


def reflection_even_tridiagonal(diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The reflection-even block of a mirror-symmetric sector tridiagonal.

    ``diag`` (length N+1) and ``off`` (length N) must be symmetric under
    k -> N - k. In the basis (|k> + |N-k>)/sqrt(2), k < N/2, plus |N/2> for
    even N, the block has floor(N/2)+1 states and is again tridiagonal:

    - odd N: diagonal diag[:(N+1)/2] whose last entry gains off[(N-1)/2], the
      coupling of the two middle states; off-diagonal off[:(N-1)/2];
    - even N: diagonal diag[:N/2+1]; off-diagonal off[:N/2] with its last
      entry, the coupling to |N/2>, times sqrt(2).

    Returns new arrays (diagonal, off-diagonal).
    """
    n = off.size
    half = (n + 1) // 2
    if n % 2 == 1:
        d = diag[:half].copy()
        d[-1] += off[half - 1]
        e = off[: half - 1].copy()
    else:
        d = diag[: n // 2 + 1].copy()
        e = off[: n // 2].copy()
        e[-1] *= np.sqrt(2.0)
    return d, e


def dynamics_block(p: int, diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block of a sector tridiagonal that the dynamics from |+> stays in.

    The reflection-even block of ``reflection_even_tridiagonal`` for even p,
    the whole sector (the arrays themselves) for odd p.
    """
    return (diag, off) if p % 2 == 1 else reflection_even_tridiagonal(diag, off)


def dynamics_lift(p: int, n_sites: int) -> tuple[np.ndarray, np.ndarray]:
    """Index and weight that lift a ``dynamics_block`` state to the sector.

    Sector amplitude k is block amplitude index[k] times weight[k]. For even
    p, index[k] = min(k, N - k) and the weight is 1/sqrt(2) from a pair state
    (|k> + |N-k>)/sqrt(2), 1 from |N/2>; for odd p the lift is the identity.
    """
    k = np.arange(n_sites + 1)
    if p % 2 == 1:
        return k, np.ones(n_sites + 1)
    return np.minimum(k, n_sites - k), np.where(2 * k == n_sites, 1.0, np.sqrt(0.5))


@lru_cache(maxsize=None)
def x_spectral_decomposition(n_sites: int, even_parity: bool = False) -> XSpectralDecomposition:
    """Cached eigendecomposition of the collective-X matrix for size N.

    With ``even_parity`` it decomposes the reflection-even block of
    ``reflection_even_tridiagonal`` instead of the whole sector: floor(N/2)+1
    states, eigenvalues N - 2j for even j. Refused with a ValueError, before
    anything is allocated, when V would exceed ``_MAX_MIXER_BYTES``.
    """
    dim = n_sites // 2 + 1 if even_parity else n_sites + 1
    if 8 * dim**2 > _MAX_MIXER_BYTES:
        raise ValueError(
            f"the collective-X eigenvectors of N = {n_sites} (m = {dim} states) "
            f"would take {8 * dim**2} bytes, over the limit of {_MAX_MIXER_BYTES}"
        )
    diag = np.zeros(n_sites + 1)
    off = _x_off_diagonal(n_sites)
    if even_parity:
        diag, off = reflection_even_tridiagonal(diag, off)
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(diag, off)
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(f"collective-X eigensolver failed for N={n_sites}") from exc
    lam.setflags(write=False)
    vec.setflags(write=False)
    return XSpectralDecomposition(eigenvalues=lam, eigenvectors=vec)


def dynamical_gap(spec: ProblemSpec) -> float:
    """Spectral gap relevant for dynamics started from the x-polarized state.

    This is the gap E1 - E0 within ``dynamics_block``. For even p the
    full-sector gap collapses to an exponentially small parity splitting
    below the critical field, but the dynamics never couples the two parity
    sectors, so the gap is taken within the reflection-even block; for odd p
    there is no such symmetry and it is the full-sector gap.

    Either way the block is tridiagonal, and its two lowest eigenvalues come
    from LAPACK bisection (stebz) in O(N). Each is accurate to a few ulp of
    max|d| + 2 max|o|, with d and o the sector diagonal and off-diagonal of
    ``target_tridiagonal``: the Gershgorin bound on the norm. The tests hold
    the gap to 1e-13 times that bound against 40-digit mpmath and against
    dense eigensolvers. The bound is absolute: below the critical field the
    gap can be exponentially small.

    Raises ValueError for N = 1 with even p, whose block has one state.
    """
    d, e = dynamics_block(spec.p_exponent, *target_tridiagonal(spec))
    if d.size < 2:
        raise ValueError(
            f"the dynamics block of N = {spec.n_sites}, p = {spec.p_exponent} "
            "has one state, so there is no gap"
        )
    w = scipy.linalg.eigvalsh_tridiagonal(d, e, select="i", select_range=(0, 1))
    return float(w[1] - w[0])


def diagonalize_target(spec: ProblemSpec) -> TargetSpectrum:
    """Extremal eigenvalues of the sector Hamiltonian and the ground state the
    circuit can reach.

    e_min and e_max are the ends of the full-sector spectrum (for odd N the
    top state is reflection-odd, so the even block would miss e_max), each
    one LAPACK bisection (stebz) in O(N), without eigenvectors. Each is
    accurate to a few ulp of ``norm_bound``, the ``gershgorin_bound`` of the
    sector diagonal and off-diagonal; the tests hold them to 1e-13 times that
    bound against 40-digit mpmath.

    The ground state is the lowest eigenvector of ``dynamics_block``, lifted to
    the sector and signed so that its largest amplitude is positive. For even
    p it is the reflection-even ground state, exactly mirror-symmetric like
    the circuit state: below the critical field the full sector's even and
    odd ground states split by an exponentially small amount, so its lowest
    eigenvector would be an arbitrary mix of the two. For h > 0 the block is
    an irreducible tridiagonal with negative off-diagonal, so its ground
    state is unique and positive (Perron-Frobenius); at h = 0 it is block
    state 0, which for even p lifts to the cat state (|0> + |N>)/sqrt(2).

    The ground state is accurate to about eps ||H|| / gap_block in norm, with
    gap_block the ``dynamical_gap``. For odd p near the critical field that
    gap is exponentially small, so the ground state, and any fidelity taken
    against it, is ill-conditioned there.
    """
    diag, off = target_tridiagonal(spec)
    d, e = dynamics_block(spec.p_exponent, diag, off)
    try:
        e_min, e_max = (
            float(scipy.linalg.eigvalsh_tridiagonal(diag, off, select="i", select_range=(i, i))[0])
            for i in (0, spec.n_sites)
        )
        v = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(0, 0))[1][:, 0]
    except scipy.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"target eigensolver failed for N={spec.n_sites}, "
            f"p={spec.p_exponent}, h={spec.field}"
        ) from exc
    index, weight = dynamics_lift(spec.p_exponent, spec.n_sites)
    ground = v[index] * weight
    if ground[np.argmax(np.abs(ground))] < 0:
        ground = -ground
    ground = ground.astype(complex)
    ground.setflags(write=False)
    return TargetSpectrum(
        e_min=e_min, e_max=e_max, ground_state=ground, norm_bound=gershgorin_bound(diag, off)
    )
