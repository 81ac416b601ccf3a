"""Exact linear algebra in the maximum-spin (S = N/2) sector.

The fully-connected p-spin Hamiltonian commutes with total spin, and the
dynamics we simulate starts from the fully x-polarized state, so everything
lives in the (N+1)-dimensional Dicke subspace labeled by the magnetization
M_k = N - 2k, with k the number of down spins. In that basis the target is
the tridiagonal ``target_tridiagonal(spec)``.

Everything that does not depend on the field h is built once per (N, p) per
process by the cached ``sector_table``: the float image of the exact
integers -(M_k)^p, the target diagonal and the collective-X off-diagonal,
all read-only. The target, the circuit context, the energy, the gap and the
spectrum read it instead of rebuilding it.

For even p the target, the phase and the mixer also commute with the spin
flip k -> N - k, and |+> is even under it, so the dynamics stays in the
reflection-even block of floor(N/2)+1 states, again tridiagonal. For odd p
it uses the whole sector. ``dynamics_block`` picks that block for any
sector tridiagonal; the circuit, the dynamical gap and the ground state all
work in it. ``x_spectral_decomposition`` builds its parity-folded basis once
per (N, parity), from X's closed form: collective X, |+> and the lift to
the sector.

The target's spectra are of symmetric tridiagonals, and ``_tridiagonal_eigh``
is the one path to LAPACK: bisection (dstebz) for eigenvalues selected by
index, inverse iteration (dstein) for their vectors. These are the routines,
with the arguments, that ``scipy.linalg.eigh_tridiagonal`` picks, so the
numbers are the same bit for bit, without its per-call argument handling.
Its guards are kept, as one dot product per array, and the eigenvalue
count is checked too: a non-finite entry, a nonzero LAPACK ``info`` or a
short count raises ``LinAlgError``, which ``dynamical_gap`` passes on and
``diagonalize_target`` raises as ``RuntimeError``. ``ProblemSpec`` refuses
a field large enough to overflow the solvers, so no accepted spec reaches
those guards.

``lapack`` is scipy's compiled extension ``scipy.linalg._flapack``, the
module whose routines ``scipy.linalg.lapack`` re-exports, loaded from its
file by ``_load_flapack``. Importing ``scipy.linalg`` instead would run its
package init, which pulls in numpy.f2py, numpy.testing and numpy.ma, none
of which this package uses: about two thirds of a cold start.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from dataclasses import dataclass
from functools import lru_cache
from math import isfinite
from numbers import Integral, Real
from pathlib import Path

import numpy as np
import scipy
from numpy.linalg import LinAlgError


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the extension ``scipy.linalg._flapack``
    that ``scipy.linalg.lapack`` re-exports, loaded from its file without
    running ``scipy/linalg/__init__.py``.

    The module is registered under its own name, or taken from
    ``sys.modules`` if already there, so a later ``import scipy.linalg``
    shares this one instance. Raises ImportError, naming the directory
    searched, if scipy has no such file.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    where = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = where / f"_flapack{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(f"no compiled extension _flapack in {where}", name=name, path=str(where))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


lapack = _load_flapack()

# M^p is carried as an exact Python integer; reject anything that would not
# fit a 128-bit signed phase accumulator.
_MAX_PHASE_BITS = 127
_MAX_PHASE_INT = 2**_MAX_PHASE_BITS
# F and the recurrence's rows: m <= 11584 (odd p), 9458 (even p, even N), 6688
_MAX_MIXER_BYTES = 2**30
# the largest h (N + 1): see ``ProblemSpec``
_MAX_FIELD_SCALE = 2.0**448
_RECURRENCE_DTYPE = np.longdouble  # the precision of ``x_spectral_decomposition``


@dataclass(frozen=True)
class ProblemSpec:
    """The triple (N, p, h) defining the target Hamiltonian.

    A field with h (N + 1) >= 2^448 is refused with an OverflowError. Every
    off-diagonal entry of the sector target, and of its reflection-even
    block, is at most h (N + 1) / sqrt(2), and LAPACK's bisection (dstebz)
    squares each one, so from h (N + 1) = 2^512.5 on it overflows; inverse
    iteration (dstein) multiplies such squares by further size and growth
    factors, and returned a NaN ground state with info = 0 from about
    h (N + 1) = 2^476 on (p = 3, N = 256 .. 16384, measured). The bound keeps
    every square below 2^896.
    """

    n_sites: int
    p_exponent: int
    field: float = 0.0

    def __post_init__(self):
        # plain ints and a plain float, so that cache keys and ``sector_table``
        # see one type. An exact int or float (not a subclass: bool, np.float64)
        # is one already and skips the ABC checks, which cost more than all
        # the rest of this method
        n, p, field = self.n_sites, self.p_exponent, self.field
        if type(n) is not int or type(p) is not int:
            for name, value in (("n_sites", n), ("p_exponent", p)):
                if isinstance(value, bool) or not isinstance(value, Integral):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
            n, p = int(n), int(p)
            object.__setattr__(self, "n_sites", n)
            object.__setattr__(self, "p_exponent", p)
        if n < 1:
            raise ValueError(f"n_sites must be >= 1, got {n}")
        if p < 2:
            raise ValueError(f"p_exponent must be >= 2, got {p}")
        try:
            real = type(field) is float or (not isinstance(field, bool) and isinstance(field, Real))
            finite = real and isfinite(field)
        except OverflowError:  # an int or a Fraction past the float range
            raise OverflowError(
                f"field must fit a float; this {type(field).__name__} is 2^1024 or more in magnitude"
            ) from None
        if not finite:
            raise ValueError(f"field must be finite, real and not a bool, got {field!r}")
        # + 0.0 turns -0.0 into 0.0, so a zero field has one value, and one seed
        field = float(field) + 0.0
        object.__setattr__(self, "field", field)
        if field < 0:
            raise ValueError(f"field must be >= 0, got {field}")
        # N >= 2^(bit_length - 1), so a large p is refused before the exact power
        if (n.bit_length() - 1) * p >= _MAX_PHASE_BITS or n**p >= _MAX_PHASE_INT:
            raise OverflowError(
                f"N^p = {n}^{p} exceeds the supported 128-bit integer width for phase arithmetic"
            )
        if field * (n + 1) >= _MAX_FIELD_SCALE:
            raise OverflowError(
                f"h (N + 1) = {field} * {n + 1} reaches 2^448, "
                "past which the tridiagonal eigensolvers overflow"
            )


@dataclass(frozen=True)
class XSpectralDecomposition:
    """The basis of a ``dynamics_block``, read-only, parity-folded: block
    amplitude k is stored at ``order[k]`` = (k mod s) h + floor(k/s), so for
    s = 2 even k, then odd k, the shorter half padded by one zero. s = 2
    where prod sigma^z maps the block to itself (odd p; even p at even N):
    it anticommutes with X, so v_-lam = +-D v_lam, D = diag((-1)^k), and
    the (2, h, h) stack ``folded`` F holds, for the h ``eigenvalues``
    lam >= 0 ascending, v_lam's even rows in half 0 and odd rows in half 1,
    each half-column of unit norm; X is lam swap(F^T x), swap exchanging
    the halves. Even p at odd N has s = 1 and F = V[None]. |+> is v_N.
    Sector amplitude k is stored amplitude lift_index[k] times
    lift_weight[k]: of block row min(k, N - k) and 1/sqrt(2) from a pair
    state (|k> + |N-k>)/sqrt(2), 1 from |N/2>, in the block; row k in the
    sector."""

    eigenvalues: np.ndarray
    folded: np.ndarray
    plus: np.ndarray
    order: np.ndarray
    lift_index: np.ndarray
    lift_weight: np.ndarray


@dataclass(frozen=True)
class SectorTable:
    """The field-independent arrays of the (N, p) sector, all read-only.

    ``hz_float`` is the float image of the exact integers -(M_k)^p;
    ``target_diag`` is hz_float / N^(p-1), the diagonal of the target, and
    ``x_off`` the off-diagonal of the collective-X matrix.
    """

    hz_float: np.ndarray
    target_diag: np.ndarray
    x_off: np.ndarray


@dataclass(frozen=True)
class TargetSpectrum:
    """Sector spectrum ends; ``norm_bound`` = max|d| + 2 max|o|, the Gershgorin
    bound on the norm of the sector target (d, o), so on every energy of a
    normalized state, about N (1 + h) and at least N, that their accuracy is
    stated in; and, read-only in ``dynamics_block`` coordinates, the block
    target tridiagonal and its ground state."""

    e_min: float
    e_max: float
    norm_bound: float
    diag: np.ndarray
    off: np.ndarray
    ground: np.ndarray


def _x_off_diagonal(n: int, dtype=float) -> np.ndarray:
    """Off-diagonal band of the collective-X matrix, entry k = sqrt((k+1)(N-k))."""
    k = np.arange(n, dtype=dtype)
    return np.sqrt((k + 1) * (n - k))


@lru_cache(maxsize=None)
def sector_table(n_sites: int, p: int) -> SectorTable:
    """The cached ``SectorTable`` of N sites and exponent p.

    The diagonal of -(sum_j sigma^z_j)^p has entry k the exact integer
    -(M_k)^p, M_k = N - 2k. ``ProblemSpec`` checks N and p, and that N^p
    fits the phase accumulator, before any caller reaches this table.
    """
    # float(-v), not -float(v): the middle state of an even N holds +0.0
    hz_float = np.array([float(-((n_sites - 2 * k) ** p)) for k in range(n_sites + 1)])
    target_diag = hz_float / float(n_sites ** (p - 1))
    x_off = _x_off_diagonal(n_sites)
    for arr in (hz_float, target_diag, x_off):
        arr.setflags(write=False)
    return SectorTable(hz_float, target_diag, x_off)


def target_tridiagonal(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """The sector target Hamiltonian as a tridiagonal (diagonal, off-diagonal).

    The diagonal is -(M_k)^p / N^(p-1), the read-only array of
    ``sector_table``; the off-diagonal is -h times the collective-X
    off-diagonal, a new array.
    """
    table = sector_table(spec.n_sites, spec.p_exponent)
    return table.target_diag, -spec.field * table.x_off


def dynamics_block(p: int, diag: np.ndarray, off: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block of a mirror-symmetric sector tridiagonal that the dynamics
    from |+> stays in: for odd p the whole sector, the arrays themselves; for
    even p the reflection-even block, new arrays (diagonal, off-diagonal).

    ``diag`` (length N+1) and ``off`` (length N) must be symmetric under
    k -> N - k. In the basis (|k> + |N-k>)/sqrt(2), k < N/2, plus |N/2> for
    even N, the even block has floor(N/2)+1 states and is again tridiagonal:

    - odd N: diagonal diag[:(N+1)/2] whose last entry gains off[(N-1)/2], the
      coupling of the two middle states; off-diagonal off[:(N-1)/2];
    - even N: diagonal diag[:N/2+1]; off-diagonal off[:N/2] with its last
      entry, the coupling to |N/2>, times sqrt(2).
    """
    if p % 2 == 1:
        return diag, off
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


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray, index, vectors: bool = True):
    """Eigenvalues lo..hi (from 0), ``index = (lo, hi)``, of the symmetric
    tridiagonal (d, e), ascending, and with ``vectors`` their orthonormal
    eigenvectors as columns: ``(w, v)`` or ``w``. The eigenvalues come from
    bisection, dstebz with range "I" and abstol 0, so each is accurate to a
    few ulp of the Gershgorin bound of (d, e); the vectors from dstein. A 1x1
    matrix is its own spectrum (f2py refuses an empty off-diagonal). Raises
    LinAlgError for a non-finite entry, a nonzero LAPACK ``info``, fewer
    eigenvalues than selected, or a non-finite dstein vector (dstein can
    overflow with info = 0).

    The entry guard is one BLAS dot per array, d.d and e.e, in which NaN and
    inf propagate. So it also refuses finite entries whose squares sum past
    the float range (numpy warns of that overflow first); dstebz squares the
    off-diagonal, so an entry of 2^512 or more is out of its range anyway.
    No ``ProblemSpec`` reaches that: with h (N + 1) < 2^448 and N < 2^64
    both sums stay below 2^960.
    """
    if not (isfinite(d.dot(d)) and isfinite(e.dot(e))):
        raise LinAlgError("the tridiagonal has a non-finite entry, or its squares overflow")
    if d.size == 1:
        w, v = d.copy(), np.ones((1, 1))
    else:
        lo, hi = index
        m, w, iblock, isplit, info = lapack.dstebz(
            d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "B" if vectors else "E"
        )
        if info or m != hi - lo + 1:
            raise LinAlgError(f"dstebz found {m} of eigenvalues {lo}..{hi}, info = {info}")
        w = w[:m]
        if vectors:
            v, info = lapack.dstein(d, e, w, iblock, isplit)
            if info or not np.isfinite(v).all():
                raise LinAlgError(f"dstein failed (info = {info}) or returned a non-finite vector")
            order = np.argsort(w)  # dstebz's block order to ascending
            w, v = w[order], v[:, order]
    return (w, v) if vectors else w


@lru_cache(maxsize=None)
def x_spectral_decomposition(n_sites: int, even_parity: bool, /) -> XSpectralDecomposition:
    """Cached ``XSpectralDecomposition`` of N sites, one entry per (N,
    parity) as both arguments are positional; with ``even_parity`` of the
    reflection-even block, floor(N/2)+1 states. Refused with a ValueError,
    before any allocation, when F and the recurrence exceed ``_MAX_MIXER_BYTES``.

    lam is the integers N - 2j, j spins down along x (even j in the block).
    X v = lam v is the recurrence b_k v_{k+1} = lam v_k - b_{k-1} v_{k-1}:
    in ``_RECURRENCE_DTYPE``, for F's columns at once, from v_0 = 1 up to
    k = N/2 (every column grows that way; one near overflow is scaled by a
    power of two), then mirrored by column j's parity (-1)^j under
    k -> N - k. Each column is normalized, scaled to F's half-columns and
    rounded once to float64, as is |+>, the column of lam = N.

    Error by longdouble: 80-bit (x86-64 Linux) measured F within 0.25 eps of
    sqrt(2) d^{N/2}(pi/2) to N = 65, and to N = 2048 |+> within 0.51 eps
    relative, each F_s^T F_s within 6 eps of I (0 at half 1's lam = 0, whose
    v_lam has no odd rows), |X V - V lam| <= 0.11 eps N for the V F folds.
    IEEE quad (aarch64 Linux) and float64 (Windows; here 76 eps, 12.3 eps N,
    67 eps) unverified.
    """
    n, half, work = n_sites, n_sites // 2, _RECURRENCE_DTYPE
    dim, fold = (half + 1, 2 - n % 2) if even_parity else (n + 1, 2)
    width = -(-dim // fold)
    nbytes = 8 * fold * width**2 + np.dtype(work).itemsize * (half + 2) * width
    if nbytes > _MAX_MIXER_BYTES:
        raise ValueError(
            f"the collective-X basis of N = {n} (m = {dim} states) would take {nbytes} bytes, F of shape "
            f"{(fold, width, width)} and the recurrence's rows, over the limit of {_MAX_MIXER_BYTES}"
        )
    j = np.arange(n - n % 2, -1, -2) if even_parity else np.arange(n, -1, -1)  # lam ascends
    j = j[2 * j <= n] if fold == 2 else j
    lam, parity = (n - 2 * j).astype(float), 1 - 2 * (j % 2)
    b = np.r_[0, _x_off_diagonal(n, work)[:half]]  # b[k] couples k - 1 and k
    limit = np.ldexp(work(1), np.finfo(work).maxexp // 4)
    vec = np.zeros((half + 2, j.size), dtype=work)  # row 0 holds v_{-1} = 0
    vec[1] = 1
    for k, (prev, cur, nxt) in enumerate(zip(vec, vec[1:], vec[2:])):
        np.divide(lam * cur - b[k] * prev, b[k + 1], out=nxt)
        if k % 16 == 15 and (big := np.abs(nxt) > limit).any():
            vec[: k + 3, big] /= limit
    vec, pairs = vec[1:], (n + 1) // 2  # rows k <= N/2, of which k < N/2 have a mirror
    vec[half] *= (parity > 0) | (n % 2 == 1)  # at even N an odd column vanishes there
    vec /= np.sqrt(np.vecdot(vec, vec, axis=0) + np.vecdot(vec[:pairs], vec[:pairs], axis=0))
    vec[:pairs] *= np.sqrt(work(2 if even_parity else 1))  # sqrt(2) on a pair state
    order = np.arange(dim) % fold * width + np.arange(dim) // fold  # where block amplitude k is stored
    k = np.arange(n + 1)
    mirror = np.minimum(k, n - k)  # the recurrence row of sector amplitude k
    index = order[mirror] if even_parity else order
    weight = np.where(even_parity & (2 * k != n), np.sqrt(0.5), 1.0)
    plus, folded = np.zeros(fold * width, dtype=complex), np.zeros((fold, width, width))
    plus[order] = vec[mirror[:dim], -1]
    vec *= np.sqrt(np.where(lam == 0, work(1), work(fold)))  # each half-column of unit norm
    rows = folded.reshape(-1, width)  # row order[k] holds block amplitude k
    for row in range(dim):  # one at a time, no temporary; past N/2 the sector mirrors N - k
        np.multiply(vec[mirror[row]], parity if row > half else 1, out=rows[order[row]])
    for arr in (lam, folded, plus, order, index, weight):
        arr.setflags(write=False)
    return XSpectralDecomposition(lam, folded, plus, order, index, weight)


def dynamical_gap(spec: ProblemSpec) -> float:
    """Spectral gap relevant for dynamics started from the x-polarized state.

    This is the gap E1 - E0 within ``dynamics_block``. For even p the
    full-sector gap collapses to an exponentially small parity splitting
    below the critical field, but the dynamics never couples the two parity
    sectors, so the gap is taken within the reflection-even block; for odd p
    there is no such symmetry and it is the full-sector gap.

    Either way the block is tridiagonal, and its two lowest eigenvalues come
    from one LAPACK bisection (dstebz) in O(N). A call builds the sector
    off-diagonal -h x_off from the cached ``sector_table`` (the diagonal is
    its read-only array) and, for even p, the block's two arrays from those.
    It validates nothing the spec has not: the only check is
    ``_tridiagonal_eigh``'s entry guard, one dot product per array. Each
    eigenvalue is accurate to a few ulp of
    max|d| + 2 max|o|, with d and o the sector diagonal and off-diagonal of
    ``target_tridiagonal``: the Gershgorin bound on the norm. The tests hold
    the gap to 1e-13 times that bound against 40-digit mpmath and against
    dense eigensolvers. The bound is absolute: below the critical field the
    gap can be exponentially small.

    Raises ValueError for N = 1 with even p, whose block has one state, and
    LinAlgError if dstebz fails.
    """
    d, e = dynamics_block(spec.p_exponent, *target_tridiagonal(spec))
    if d.size < 2:
        raise ValueError(
            f"the dynamics block of N = {spec.n_sites}, p = {spec.p_exponent} "
            "has one state, so there is no gap"
        )
    w = _tridiagonal_eigh(d, e, (0, 1), vectors=False)
    return float(w[1] - w[0])


def diagonalize_target(spec: ProblemSpec) -> TargetSpectrum:
    """The spec's ``TargetSpectrum``: the ``dynamics_block`` of the target,
    the ends of the sector spectrum and the ground state the circuit can
    reach, all that the circuit reads of h.

    The ground state is the lowest eigenvector of ``dynamics_block`` (dstebz,
    then inverse iteration, dstein), kept in block coordinates in natural
    order and signed so that its largest amplitude is positive; e_min is its
    eigenvalue. For even p it is the reflection-even ground state, which lifts
    to an exactly mirror-symmetric sector state like the circuit state: below
    the critical field the full sector's even and odd ground states split by
    an exponentially small amount, so its lowest eigenvector would be an
    arbitrary mix of the two. Either way the block holds a ground state of the
    sector, so e_min is the sector's. For h > 0 the sector and the block are
    irreducible tridiagonals with negative off-diagonal, whose ground states
    are unique and positive (Perron-Frobenius), so reflection-even; at h = 0
    it is block state 0, of energy -N, which for even p lifts to the cat state
    (|0> + |N>)/sqrt(2). e_max is the top of the sector, one more bisection
    without eigenvectors: for even p and odd N the top state is
    reflection-odd, so the block would miss it.

    Both ends are accurate to a few ulp of ``norm_bound``, the Gershgorin
    bound max|d| + 2 max|o| of the sector diagonal and off-diagonal; the tests
    hold them to 1e-13 times that bound against 40-digit mpmath, and e_min
    within 2 eps ``norm_bound`` of the sector's own bisection (bit for bit
    for odd p, where the block is the sector). The ground state is within
    about eps ||H|| / ``dynamical_gap`` in norm; for odd p near the critical
    field that gap is exponentially small, so the ground state, and any
    fidelity taken against it, is ill-conditioned there. A LAPACK failure
    raises RuntimeError.
    """
    diag, off = target_tridiagonal(spec)
    d, e = dynamics_block(spec.p_exponent, diag, off)
    try:
        e_max = float(_tridiagonal_eigh(diag, off, (spec.n_sites,) * 2, vectors=False)[0])
        w, v = _tridiagonal_eigh(d, e, (0, 0))
    except LinAlgError as exc:
        raise RuntimeError(
            f"target eigensolver failed for N={spec.n_sites}, "
            f"p={spec.p_exponent}, h={spec.field}"
        ) from exc
    e_min, v = float(w[0]), v[:, 0]
    norm_bound = float(np.max(np.abs(diag)) + 2.0 * np.max(np.abs(off), initial=0.0))
    ground = (-v if v[np.argmax(np.abs(v))] < 0 else v).astype(complex)
    for arr in (d, e, ground):
        arr.setflags(write=False)
    return TargetSpectrum(e_min=e_min, e_max=e_max, norm_bound=norm_bound, diag=d, off=e, ground=ground)
