"""Quasi-Newton minimization of the variational energy.

Dense inverse-Hessian BFGS with a strong-Wolfe line search (bracketing plus
zoom, Nocedal-Wright style), written from scratch so that termination,
iteration counts and determinism are fully under our control. Each run is a
generator of trial points, so the restarts of a multi-start step in
lock-step and share one batched energy/gradient call per round; a single
run is the batch of one.

Every run reports why it stopped (``Termination``, see ``bfgs_minimize``).
An Armijo comparison cannot tell a decrease below the rounding scatter of f
from the scatter itself, so a zoom whose next trial step predicts such a
decrease ends ("roundoff") instead of bisecting on noise until it fails
(compare Shi, Xie, Byrd & Nocedal, SIAM J. Optim. 2022, on BFGS with noisy
function values). A noise-free objective has scatter 0. A run counts as
converged when it stops "grad_tol" or "roundoff". A search that fails
along a quasi-Newton direction, a non-descent one included, is retried once
along -g from the identity: a run gives up only where steepest descent fails.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Integral, Real
from typing import Callable, Literal, Union

import numpy as np

from .engine import QaoaParams, EvaluationRecord, cached_spectrum, energy_and_gradient, evaluate
from .sector import ProblemSpec

# (k, dim) trial points -> their k values and (k, dim) gradients
Objective = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]

# BFGS termination: gradient infinity-norm, iteration cap; strong-Wolfe
# sufficient-decrease and curvature, and the line search's trial budgets
GRAD_TOL = 1e-9
MAX_ITERS = 10000
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
MAX_BRACKET = 30
MAX_ZOOM = 40

Termination = Literal["grad_tol", "roundoff", "line_search_failed", "max_iters"]
_CONVERGED = ("grad_tol", "roundoff")


@dataclass(frozen=True)
class RandomInit:
    """Independent uniform angles in [0, pi] for every component."""

    def sample(self, depth: int, spec: ProblemSpec, seed: int) -> QaoaParams:
        return r_init(depth, seed)

    def tag(self) -> str:
        return "r"


@dataclass(frozen=True)
class LinearInit:
    """Trotterized linear annealing schedule with multiplicative noise."""

    dt: float = 1.0
    noise_amplitude: float = 0.05

    def __post_init__(self):
        _check_schedule(self.dt, self.noise_amplitude)

    def sample(self, depth: int, spec: ProblemSpec, seed: int) -> QaoaParams:
        return l_init(depth, spec, self.dt, self.noise_amplitude, seed)

    def tag(self) -> str:
        return "l"


InitScheme = Union[RandomInit, LinearInit]


@dataclass(frozen=True)
class OptimizationResult:
    params_star: QaoaParams
    record: EvaluationRecord
    n_iters: int
    n_evals: int  # energy/gradient evaluations its own line searches asked for
    termination: Termination
    seed: int

    @property
    def converged(self) -> bool:
        return self.termination in _CONVERGED


@dataclass(frozen=True)
class MultiStartStats:
    mean_residual: float
    std_residual: float
    min_residual: float
    max_residual: float
    mean_iters: float
    n_converged: int
    results: tuple[OptimizationResult, ...]


@dataclass
class BfgsResult:
    x: np.ndarray
    value: float
    grad: np.ndarray
    n_iters: int
    termination: Termination
    n_evals: int  # objective evaluations this run asked for

    @property
    def converged(self) -> bool:
        return self.termination in _CONVERGED


def derive_seed(*keys) -> int:
    """Stable 64-bit seed from a mixed int/float key tuple (order-sensitive).

    An integral key counts by its value mod 2^64, any other real (a numpy
    float32, a Fraction) by the bits of its float value; any other type is
    refused with a TypeError.
    """
    ints = []
    for k in keys:
        if isinstance(k, Integral):
            ints.append(int(k) & 0xFFFFFFFFFFFFFFFF)
        elif isinstance(k, Real):
            ints.append(struct.unpack("<Q", struct.pack("<d", float(k)))[0])
        else:
            raise TypeError(f"a seed key must be a real number, got {k!r}")
    ss = np.random.SeedSequence(ints)
    return int(ss.generate_state(1, np.uint64)[0])


def r_init(depth: int, seed: int) -> QaoaParams:
    """2P independent uniform draws in [0, pi]."""
    _check_count("depth", depth)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, np.pi, size=2 * depth)
    return QaoaParams(gammas=x[:depth], betas=x[depth:])


def l_init(
    depth: int,
    spec: ProblemSpec,
    dt: float = 1.0,
    noise_amplitude: float = 0.05,
    seed: int = 0,
) -> QaoaParams:
    """Linear-schedule start: gamma_m = dt (m/P) / N^(p-1),
    beta_m = dt (1 - (m/P)(1-h)), each entry scaled by (1 + r) with
    r uniform in [-noise_amplitude, +noise_amplitude]."""
    _check_count("depth", depth)
    _check_schedule(dt, noise_amplitude)
    m = np.arange(1, depth + 1) / depth
    gammas = dt * m / spec.n_sites ** (spec.p_exponent - 1)
    betas = dt * (1.0 - m * (1.0 - spec.field))
    if noise_amplitude > 0:
        rng = np.random.default_rng(seed)
        noise = 1.0 + rng.uniform(-noise_amplitude, noise_amplitude, size=2 * depth)
        gammas = gammas * noise[:depth]
        betas = betas * noise[depth:]
    return QaoaParams(gammas=gammas, betas=betas)


def _check_count(name: str, value: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_schedule(dt: float, noise_amplitude: float) -> None:
    if isinstance(dt, bool) or not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt!r}")
    if isinstance(noise_amplitude, bool) or not (
        math.isfinite(noise_amplitude) and noise_amplitude >= 0
    ):
        raise ValueError(f"noise_amplitude must be finite and >= 0, got {noise_amplitude!r}")


def _strong_wolfe(
    x: np.ndarray,
    f0: float,
    g0: np.ndarray,
    direction: np.ndarray,
    noise_floor: float,
):
    """Bracketing + zoom line search, a generator that yields trial points
    and receives (f, g) for each; returns (alpha, f, g), or on failure the
    termination reason: "roundoff" when the zoom's next trial step would
    predict a decrease |alpha g0.d| at or below ``noise_floor``, else
    "line_search_failed"."""
    der0 = float(g0 @ direction)
    if der0 >= 0.0:
        return "line_search_failed"

    def eval_at(alpha):
        f, g = yield x + alpha * direction
        return f, g, float(g @ direction)

    def zoom(a_lo, f_lo, der_lo, a_hi, f_hi):
        for _ in range(MAX_ZOOM):
            # quadratic interpolation with bisection safeguard
            denom = f_hi - f_lo - der_lo * (a_hi - a_lo)
            if abs(denom) > 1e-300:
                a = a_lo - 0.5 * der_lo * (a_hi - a_lo) ** 2 / denom
            else:
                a = 0.5 * (a_lo + a_hi)
            lo, hi = min(a_lo, a_hi), max(a_lo, a_hi)
            span = hi - lo
            if not (lo + 0.05 * span <= a <= hi - 0.05 * span):
                a = 0.5 * (a_lo + a_hi)
            if span <= 1e-16 * max(1.0, abs(a_lo)):
                return "line_search_failed"
            if abs(a * der0) <= noise_floor:
                return "roundoff"
            f, g, der = yield from eval_at(a)
            if f > f0 + WOLFE_C1 * a * der0 or f >= f_lo:
                a_hi, f_hi = a, f
            else:
                if abs(der) <= -WOLFE_C2 * der0:
                    return a, f, g
                if der * (a_hi - a_lo) >= 0:
                    a_hi, f_hi = a_lo, f_lo
                a_lo, f_lo, der_lo = a, f, der
        return "line_search_failed"

    a_prev, f_prev, der_prev = 0.0, f0, der0
    a = 1.0
    for i in range(MAX_BRACKET):
        f, g, der = yield from eval_at(a)
        if f > f0 + WOLFE_C1 * a * der0 or (i > 0 and f >= f_prev):
            return (yield from zoom(a_prev, f_prev, der_prev, a, f))
        if abs(der) <= -WOLFE_C2 * der0:
            return a, f, g
        if der >= 0:
            return (yield from zoom(a, f, der, a_prev, f_prev))
        a_prev, f_prev, der_prev = a, f, der
        a *= 2.0
    return "line_search_failed"


def bfgs_minimize(objective: Objective, x0: np.ndarray, noise_floor: float) -> list[BfgsResult]:
    """Minimize a smooth objective from each of R start points.

    ``x0`` is an (R, dim) array, one start point per row, and a single start
    is the batch of one; returns a list of R results. The objective takes a
    (k, dim) array of k trial points and returns their k values and (k, dim)
    gradients: the R runs step in lock-step, each round evaluating the next
    trial point of every run still going in one call, and a run leaves the
    batch when it stops. A run's path depends only on the values it
    receives; deterministic for a deterministic objective.

    ``noise_floor`` is the rounding scatter of the objective's values, 0 for
    an exact one. Each run stops for one ``Termination`` reason:

    - ``grad_tol``: the gradient's infinity-norm is at most GRAD_TOL;
    - ``roundoff``: a zoom's next trial step predicts a decrease
      |alpha g.d| at or below ``noise_floor``, so its Armijo test would
      compare noise;
    - ``line_search_failed``: the search failed otherwise;
    - ``max_iters``: MAX_ITERS steps were taken.

    The first two count as ``converged``. A search that ends without a
    step along a quasi-Newton direction, a non-descent one included, is
    retried once along -g with the inverse-Hessian estimate reset, and the
    retry's reason is the run's; the run keeps its last iterate. A failed
    search along -g itself is not retried.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 2 or 0 in x0.shape:
        raise ValueError(f"start points must form an (R, dim) array, R, dim >= 1; got shape {x0.shape}")
    if not (math.isfinite(noise_floor) and noise_floor >= 0):
        raise ValueError(f"noise_floor must be finite and >= 0, got {noise_floor!r}")
    runs = [_bfgs(x, noise_floor) for x in x0]
    points = [next(run) for run in runs]
    n_evals = [0] * len(runs)
    results = [None] * len(runs)
    pending = list(range(len(runs)))
    while pending:
        values, grads = objective(np.array([points[i] for i in pending]))
        going = []
        for i, f, g in zip(pending, values, grads):
            n_evals[i] += 1
            try:
                points[i] = runs[i].send((float(f), np.asarray(g, dtype=float)))
                going.append(i)
            except StopIteration as stop:
                results[i] = BfgsResult(*stop.value, n_evals=n_evals[i])
        pending = going
    return results


def _bfgs(x0: np.ndarray, noise_floor: float):
    """One BFGS run as a generator: it yields trial points, receives (f, g)
    for each, and returns (x, f, g, n_iters, termination)."""
    x = np.array(x0, dtype=float)
    f, g = yield x
    hinv = None  # the identity, rescaled at the first curvature update
    n_iters = 0
    if np.max(np.abs(g)) <= GRAD_TOL:
        return x, f, g, n_iters, "grad_tol"

    while n_iters < MAX_ITERS:
        direction = -g if hinv is None else -hinv @ g
        ls = yield from _strong_wolfe(x, f, g, direction, noise_floor)
        if isinstance(ls, str) and hinv is not None:
            # retry once along steepest descent: it descends where a broken
            # estimate does not, and can predict a decrease above the floor
            hinv = None
            direction = -g
            ls = yield from _strong_wolfe(x, f, g, direction, noise_floor)
        if isinstance(ls, str):
            return x, f, g, n_iters, ls
        alpha, f_new, g_new = ls
        s = alpha * direction
        y = g_new - g
        x = x + s
        f, g = f_new, g_new
        n_iters += 1
        if np.max(np.abs(g)) <= GRAD_TOL:
            return x, f, g, n_iters, "grad_tol"
        sy = float(s @ y)
        if sy > 1e-14 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            if hinv is None:
                hinv = (sy / float(y @ y)) * np.eye(x.size)
            rho = 1.0 / sy
            hy = hinv @ y
            hinv = (
                hinv
                - rho * (np.outer(s, hy) + np.outer(hy, s))
                + rho * (1.0 + rho * float(y @ hy)) * np.outer(s, s)
            )
    return x, f, g, n_iters, "max_iters"


def _noise_floor(spec: ProblemSpec) -> float:
    """The rounding scatter of ``energy_and_gradient``'s energy near
    optimized points: 4 eps ||H||, with ||H|| bounded by the spectrum's
    ``norm_bound``.

    Measured as the standard deviation of E(x + d) - E(x) - g.d over 32
    random d of 1e-12 relative size, at points that l-init BFGS reached for
    N in {32, 128, 512, 1024} (p = 2, h = 1; and p = 3, h = 2 for N <= 128)
    and P in {1, 15, P*}. In units of eps norm_bound it was 0.2-0.5 at
    P = 1, 0.8-1.8 at P = 15 and 1.4-2.4 at P* <= 66; it grows with depth,
    to 5.7 at P = 129 and 8 and 25 at P = 258 and 514. So 4 is about twice
    the scatter up to P of a few tens; deeper circuits meet the floor later
    than their scatter would allow. A floor above the scatter cuts searches
    that still make progress: with 16 and 64 in place of 4, the l-init mean
    residual at N=32, p=3, h=2, P=15 (20 restarts) rose from 1.586e-9 by
    0.3% and 11%.
    """
    return 4.0 * np.finfo(float).eps * cached_spectrum(spec).norm_bound


def optimize(
    spec: ProblemSpec,
    depth: int,
    scheme: InitScheme,
    seeds: Sequence[int],
):
    """Run BFGS on the analytic energy/gradient from the scheme's start points.

    One restart per seed, a single one being the batch of one, all run in
    lock-step through one batched ``energy_and_gradient`` call per round;
    returns a tuple of results in the order of ``seeds``.

    Internally the gamma coordinates are rescaled by N^(p-1): the phase layer
    winds as gamma M^p with |M^p| up to N^p, so the raw landscape curvature is
    wildly anisotropic between gamma and beta directions. The rescaling acts
    as a diagonal preconditioner and does not change the reported optimum.

    The line searches stop at the energy's rounding scatter, ``_noise_floor``.
    """
    if not isinstance(seeds, Sequence) or not seeds:
        raise ValueError(f"seeds must be a non-empty sequence, got {type(seeds).__name__} {seeds!r}")
    scale = float(spec.n_sites ** (spec.p_exponent - 1))

    def objective(z):
        x = z.copy()
        x[:, :depth] /= scale
        values, grads = energy_and_gradient(spec, x)
        grads[:, :depth] /= scale
        return values, grads

    z0 = np.array([scheme.sample(depth, spec, s).to_vector() for s in seeds])
    z0[:, :depth] *= scale
    results = []
    for s, res in zip(seeds, bfgs_minimize(objective, z0, _noise_floor(spec))):
        params_star = QaoaParams(gammas=res.x[:depth] / scale, betas=res.x[depth:])
        results.append(OptimizationResult(
            params_star=params_star,
            record=evaluate(spec, params_star),
            n_iters=res.n_iters,
            n_evals=res.n_evals,
            termination=res.termination,
            seed=s,
        ))
    return tuple(results)


def multi_start(
    spec: ProblemSpec,
    depth: int,
    scheme: InitScheme,
    n_restarts: int,
    base_seed: int = 0,
) -> MultiStartStats:
    """Independent seeded restarts, run in lock-step by one ``optimize``
    call; statistics are order-independent."""
    _check_count("n_restarts", n_restarts)
    seeds = [derive_seed(base_seed, i) for i in range(n_restarts)]
    results = optimize(spec, depth, scheme, seeds)
    residuals = np.array([r.record.residual for r in results])
    iters = np.array([r.n_iters for r in results], dtype=float)
    return MultiStartStats(
        mean_residual=float(residuals.mean()),
        std_residual=float(residuals.std()),
        min_residual=float(residuals.min()),
        max_residual=float(residuals.max()),
        mean_iters=float(iters.mean()),
        n_converged=int(sum(r.converged for r in results)),
        results=results,
    )
