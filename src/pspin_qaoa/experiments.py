"""Experiment harness: deterministic parameter sweeps over (N, P, h) grids.

Every sweep is a pure function of its ExperimentConfig; per-task seeds are
derived from (base_seed, N, P, h, restart index) so neither grid order nor
the worker count can change any number in the output tables.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, fields
from functools import partial
from numbers import Integral
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from . import analytic
from .engine import QaoaParams, evaluate
from .optimizer import LinearInit, RandomInit, derive_seed, multi_start
from .sector import ProblemSpec, dynamical_gap

# every experiment kind and the grids it runs over; of every other grid it
# reads one entry at most
EXPERIMENT_KINDS = {
    "scaling": ("n_grid", "depth_grid"),
    "field-sweep": ("h_grid",),
    "iteration-scaling": ("n_grid",),
    "p1-table": ("n_grid",),
    "gap-scaling": ("n_grid",),
}

# residuals below this are treated as exact zeros and never enter log-log fits
ZERO_RESIDUAL = 1e-10

CRITICAL_FIELDS = {2: 2.0, 3: 1.2956}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    p_exponent: int = 2
    n_grid: tuple[int, ...] = (8,)
    depth_grid: tuple[int, ...] = (1,)
    h_grid: tuple[float, ...] = (0.0,)
    scheme: str = "r"  # "r", "l" or "both"
    dt: float = 1.0
    noise_amplitude: float = 0.05
    n_restarts: int = 20
    base_seed: int = 0
    worker_count: int = 1
    out_path: Optional[str] = None
    out_format: str = "csv"

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        for name in ("n_grid", "depth_grid", "h_grid"):
            try:
                grid = tuple(getattr(self, name))
            except TypeError as exc:
                raise ConfigError(f"grids must be lists of numbers: {exc}") from exc
            if not grid:
                raise ConfigError("grids must be non-empty")
            if name not in EXPERIMENT_KINDS[self.kind] and len(grid) > 1:
                raise ConfigError(f"{self.kind} does not sweep {name}; give one entry, got {grid!r}")
            object.__setattr__(self, name, grid)
        if self.out_path is not None and not isinstance(self.out_path, str):
            raise ConfigError(f"out_path must be a string, got {self.out_path!r}")
        if self.scheme not in ("r", "l", "both"):
            raise ConfigError(f"scheme must be 'r', 'l' or 'both', got {self.scheme!r}")
        if self.out_format not in ("csv", "json"):
            raise ConfigError(f"format must be 'csv' or 'json', got {self.out_format!r}")
        for name in ("n_restarts", "worker_count"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.base_seed):
            raise ConfigError(f"base_seed must be an integer, got {self.base_seed!r}")
        for depth in self.depth_grid:
            if not _is_int(depth) or depth < 1:
                raise ConfigError(f"depth_grid entries must be integers >= 1, got {depth!r}")
        # dt and the noise, and every (n, p, h), checked by the rules of the
        # objects they build
        try:
            LinearInit(self.dt, self.noise_amplitude)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        for n in self.n_grid:
            h_values = []
            for h in self.h_grid:
                try:
                    h_values.append(ProblemSpec(n, self.p_exponent, h).field)
                except (TypeError, ValueError, OverflowError) as exc:
                    raise ConfigError(f"grid point N={n!r}, h={h!r}: {exc}") from exc
        # the specs' fields, so that a row's field and seed do not depend on how
        # h was written, and see the value the Hamiltonian sees
        object.__setattr__(self, "h_grid", tuple(h_values))

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config of a JSON object; refuses unknown fields."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class SweepRow:
    n_sites: int
    p_exponent: int
    field: float
    depth: int
    scheme: str
    n_restarts: int
    mean_residual: float
    std_residual: float
    sem_residual: float
    min_residual: float
    max_residual: float
    mean_iters: float
    mean_annealing_time: float
    n_converged: int
    collapse_coordinate: float
    h_critical: float
    status: str = "ok"


@dataclass(frozen=True)
class P1TableRow:
    p_exponent: int
    n_sites: int
    gamma: float
    beta: float
    fidelity: float
    residual: float
    annealing_time: float
    status: str = "ok"


@dataclass(frozen=True)
class GapRow:
    n_sites: int
    p_exponent: int
    h_at_minimum: float
    minimal_gap: float
    status: str = "ok"


def p_star(p: int, n_sites: int) -> int:
    """Critical depth: N/2 + 2 for even p, N + 1 for odd p."""
    return n_sites // 2 + 2 if p % 2 == 0 else n_sites + 1


def collapse_coordinate(p: int, n_sites: int, depth: int) -> float:
    offset = 2 if p % 2 == 0 else 1
    return (depth - offset) / n_sites


def _sweep_task(config: ExperimentConfig, point: dict) -> dict:
    """One grid point: a seeded multi-start; runs in the worker process."""
    n, h, depth = point["n_sites"], point["field"], point["depth"]
    spec = ProblemSpec(n_sites=n, p_exponent=config.p_exponent, field=h)
    scheme = RandomInit() if point["scheme"] == "r" else LinearInit(config.dt, config.noise_amplitude)
    seed = derive_seed(config.base_seed, n, depth, h)
    stats = multi_start(spec, depth, scheme, config.n_restarts, base_seed=seed)
    mean_tau = float(np.mean([r.record.annealing_time for r in stats.results]))
    return {
        "mean_residual": stats.mean_residual,
        "std_residual": stats.std_residual,
        "sem_residual": stats.std_residual / math.sqrt(config.n_restarts),
        "min_residual": stats.min_residual,
        "max_residual": stats.max_residual,
        "mean_iters": stats.mean_iters,
        "mean_annealing_time": mean_tau,
        "n_converged": stats.n_converged,
    }


def _p1_task(config: ExperimentConfig, point: dict) -> dict:
    """Closed-form depth-1 angles pushed through the circuit, h = 0."""
    p, n = config.p_exponent, point["n_sites"]
    pair = analytic.exact_p1_params(p, n)
    if pair is None:
        return {"status": "no closed form (N even)"}
    gamma, beta = pair
    params = QaoaParams(gammas=np.array([gamma]), betas=np.array([beta]))
    record = evaluate(ProblemSpec(n_sites=n, p_exponent=p, field=0.0), params)
    return {
        "gamma": gamma,
        "beta": beta,
        "fidelity": record.fidelity,
        "residual": record.residual,
        "annealing_time": record.annealing_time,
    }


def _gap_task(config: ExperimentConfig, point: dict) -> dict:
    """Minimal spectral gap near the critical field, for one system size."""
    p = config.p_exponent
    h_min, gap = minimal_gap(point["n_sites"], p, CRITICAL_FIELDS.get(p, 1.0))
    return {"h_at_minimum": h_min, "minimal_gap": gap}


def _plan(config: ExperimentConfig) -> tuple[type, Callable[[ExperimentConfig, dict], dict], list[dict]]:
    """The row type, the task and the row keys of every grid point, in row
    order; the task reads the rest of its input from the config. Tables run
    over N. Residual sweeps run, per scheme, depth scans over N and P at the
    first h, field sweeps over h at the first N and P, iteration scans over
    N at depth P*(N)."""
    p = config.p_exponent
    if config.kind == "p1-table":
        return P1TableRow, _p1_task, [{"p_exponent": p, "n_sites": n} for n in sorted(config.n_grid)]
    if config.kind == "gap-scaling":
        return GapRow, _gap_task, [{"n_sites": n, "p_exponent": p} for n in sorted(config.n_grid)]
    n0, depth0, h0 = config.n_grid[0], config.depth_grid[0], config.h_grid[0]
    if config.kind == "scaling":
        grid = [(n, h0, d) for n in sorted(config.n_grid) for d in sorted(config.depth_grid)]
    elif config.kind == "field-sweep":
        grid = [(n0, h, depth0) for h in sorted(config.h_grid)]
    else:
        grid = [(n, h0, p_star(p, n)) for n in sorted(config.n_grid)]
    tags = ("r", "l") if config.scheme == "both" else (config.scheme,)
    return SweepRow, _sweep_task, [
        {"n_sites": n, "p_exponent": p, "field": h, "depth": depth, "scheme": tag,
         "n_restarts": config.n_restarts, "collapse_coordinate": collapse_coordinate(p, n, depth),
         "h_critical": CRITICAL_FIELDS.get(p, math.nan)}
        for tag in tags for n, h, depth in grid
    ]


# the xatol of minimal_gap's first stage, which sets its resolution tol1
_GAP_XATOL = 1e-8


def minimal_gap(n_sites: int, p: int, h_center: float) -> tuple[float, float]:
    """Minimize the dynamically relevant gap over h in [h_center / 2,
    3 h_center / 2]; returns (h_min, gap).

    The first bounded Brent, xatol 1e-8, stops within 2 tol1 of the minimum,
    tol1 = sqrt(2.2e-16) h + xatol / 3, about 2.3e-8 near h = 1.3. The gap
    moves at most 2N per unit of h (X's spectrum is [-N, N]), so a minimal
    gap below about 4 N tol1 may be read off the shoulder of a narrow
    avoided crossing. When the first gap is below 10 times that, a second
    Brent minimizes over the offset u = h - h_1 within +-3 tol1, xatol 1e-14,
    where Brent's relative term sqrt(eps) |u| is negligible, and the smaller
    of the two gaps is returned. Either way no gap is finer than LAPACK's
    floor: each eigenvalue is accurate to a few ulp of the Gershgorin bound
    on the target, about N (1 + h).

    Each step validates a new ``ProblemSpec``, on its fast path for a plain
    int N and p and float h, and calls ``dynamical_gap``, which builds the
    dynamics block from the cached sector table, guards it with one dot
    product per array and makes one dstebz call.
    """

    def gap_at(h):
        return dynamical_gap(ProblemSpec(n_sites, p, float(h)))

    h_min, gap = _bounded_brent(gap_at, 0.5 * h_center, 1.5 * h_center, xatol=_GAP_XATOL)
    tol1 = math.sqrt(2.2e-16) * abs(h_min) + _GAP_XATOL / 3.0
    if gap < 10 * 4 * n_sites * tol1:
        u, narrow = _bounded_brent(lambda u: gap_at(h_min + u), -3 * tol1, 3 * tol1, xatol=1e-14)
        if narrow < gap:
            h_min, gap = h_min + u, narrow
    return h_min, gap


def _bounded_brent(func, lo: float, hi: float, xatol: float, maxfun: int = 500) -> tuple[float, float]:
    """Minimize func over [lo, hi] by Brent's bounded method (Brent 1973,
    fminbound); returns (x, func(x)).

    A port of scipy.optimize.minimize_scalar(method="bounded") with the same
    float operations in the same order, so it makes the same calls and
    returns the same numbers. Each step is parabolic through the three best
    points when that parabola is acceptable, golden-section otherwise, and
    moves at least tol1 = sqrt(2.2e-16) |x| + xatol / 3. It stops when x is
    within 2 tol1 of the bracket's middle, less half its width, or after
    maxfun calls.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return float(xf), float(fx)


def _sign(v: float) -> float:
    """+1 for v >= 0 (zero counts as positive), -1 below."""
    return 1.0 if v >= 0 else -1.0


def fit_scaling_exponent(rows: Sequence[SweepRow]) -> tuple[float, float]:
    """Least-squares slope of log(mean residual) vs log(1 - P/P*).

    Rows with residual below ZERO_RESIDUAL are exact zeros and excluded, as are
    rows outside 0.1 <= P/P* <= 0.9. Refuses underdetermined fits.
    """
    xs, ys = [], []
    for row in rows:
        ps = p_star(row.p_exponent, row.n_sites)
        ratio = row.depth / ps
        if not (0.1 <= ratio <= 0.9):
            continue
        if not np.isfinite(row.mean_residual) or row.mean_residual < ZERO_RESIDUAL:
            continue
        xs.append(math.log(1.0 - ratio))
        ys.append(math.log(row.mean_residual))
    if len(xs) < 3:
        raise ValueError(f"need at least 3 usable rows for the fit, got {len(xs)}")
    coeffs, res, *_ = np.polyfit(xs, ys, 1, full=True)
    fit_residual = float(res[0]) if len(res) else 0.0
    return float(coeffs[0]), fit_residual


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares line through (x, y); returns (slope, r_squared)."""
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), r_squared


def fit_gap_exponent(rows: Sequence[GapRow], p: int) -> tuple[float, float]:
    """Gap-scaling fit: slope of log(gap) vs log(N) for p=2, vs N for p>=3.

    Returns (slope, r_squared).
    """
    usable = [r for r in rows if np.isfinite(r.minimal_gap) and r.minimal_gap > 0]
    if len(usable) < 3:
        raise ValueError("need at least 3 usable rows for the gap fit")
    x = np.array([math.log(r.n_sites) if p == 2 else r.n_sites for r in usable], float)
    y = np.array([math.log(r.minimal_gap) for r in usable])
    return _line_fit(x, y)


def fit_iteration_slope(rows: Sequence[SweepRow]) -> tuple[float, float]:
    """Linear fit of mean iteration count vs N; returns (slope, r_squared)."""
    usable = [r for r in rows if np.isfinite(r.mean_iters)]
    if len(usable) < 3:
        raise ValueError("need at least 3 usable rows for the iteration fit")
    x = np.array([r.n_sites for r in usable], float)
    y = np.array([r.mean_iters for r in usable])
    return _line_fit(x, y)


def run_experiment(config: ExperimentConfig) -> list:
    """Run every grid point of the config (possibly in parallel) and return
    its rows in order. A point that raises keeps its row, flagged, with nan
    for each number it lacks (0 for a count)."""
    row_type, task, points = _plan(config)
    missing = {
        f.name: math.nan if f.type == "float" else 0
        for f in fields(row_type) if f.default is MISSING
    }
    rows = []
    if config.worker_count > 1:
        # imported here: multiprocessing is a cold-start cost a serial run need not pay
        from concurrent.futures import ProcessPoolExecutor

        pool_context = ProcessPoolExecutor(config.worker_count)
    else:
        pool_context = nullcontext()
    with pool_context as pool:
        if pool is None:
            calls = [partial(task, config, keys) for keys in points]
        else:
            calls = [pool.submit(task, config, keys).result for keys in points]
        for keys, call in zip(points, calls):
            try:
                values = call()
            except Exception as exc:  # partial failure: keep the row, flag it
                values = {"status": f"failed: {type(exc).__name__}: {exc}"}
            rows.append(row_type(**{**missing, **keys, **values}))
    return rows


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def emit_results(rows, out_format: str, path, config: Optional[ExperimentConfig] = None):
    """Persist a result table: CSV with a fixed column order, or JSON embedding
    the full config for exact reproduction.

    JSON has no NaN, so the missing numbers of failed or undefined rows are
    written as null; any other non-finite value is refused."""
    if not rows:
        raise ValueError("refusing to emit an empty table")
    path = Path(path)
    columns = [f.name for f in fields(rows[0])]
    try:
        if out_format == "csv":
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(columns)
                for row in rows:
                    data = asdict(row)
                    writer.writerow([_format_value(data[c]) for c in columns])
        elif out_format == "json":
            payload = {
                "config": asdict(config) if config is not None else None,
                "columns": columns,
                "rows": [
                    {k: None if _is_nan(v) else v for k, v in asdict(r).items()}
                    for r in rows
                ],
            }
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
            with open(path, "w") as fh:
                fh.write(text)
        else:
            raise ValueError(f"unknown output format {out_format!r}")
    except OSError as exc:
        raise OSError(f"failed to write results to {path}: {exc}") from exc
    return path

