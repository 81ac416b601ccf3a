"""Correctness gates for the benchmark workloads.

Each gate looks at one pass's grid points and returns how many it checked and
how many failed. A grid point fails when its status is not ``ok``, when its
numbers are out of range, or when a check it takes part in fails: a fit over
several points fails every point in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from pspin_qaoa.experiments import fit_gap_exponent
from pspin_qaoa.sector import ProblemSpec

GAP_P2_EXPONENT = -1.0 / 3.0  # minimal gap ~ N^(-1/3) for p = 2, criterion 11
GAP_P2_TOLERANCE = 0.1
GAP_MIN_R_SQUARED = 0.95
ORACLE_RTOL = 1e-9


@dataclass
class Verdict:
    attempted: int
    failed: int
    residual_mean: float  # quality of the answer; see each gate
    notes: dict = field(default_factory=dict)


def _sweep_row_ok(row) -> bool:
    return (
        row.status == "ok"
        and 0.0 <= row.min_residual <= row.mean_residual <= row.max_residual <= 1.0
    )


def _restart_residuals(starts) -> list[float]:
    return [r.record.residual for _, stats in starts for r in stats.results]


def oracle_energy(spec, params) -> float:
    """<psi|H|psi> of the QAOA state, built without the package's kernels.

    |+> comes from exact binomials. The phase exp(-i gamma hz_k) is reduced
    modulo 2 pi from the exact integer hz_k = -(M_k)^p in 50-digit arithmetic.
    The mixer exp(+i beta X) acts through ``expm_multiply`` on the sparse
    tridiagonal collective-X, never through its eigendecomposition.
    """
    n, p = spec.n_sites, spec.p_exponent
    k = np.arange(n)
    off = np.sqrt((k + 1.0) * (n - k))
    xmat = scipy.sparse.diags([off, off], [-1, 1], format="csr")
    hz = [-((n - 2 * j) ** p) for j in range(n + 1)]
    psi = np.array([math.sqrt(math.comb(n, j) / 2**n) for j in range(n + 1)], dtype=complex)
    with mpmath.workdps(50):
        two_pi = 2 * mpmath.pi
        for gamma, beta in zip(params.gammas, params.betas):
            g = mpmath.mpf(float(gamma))
            angles = np.array([float(mpmath.fmod(g * v, two_pi)) for v in hz])
            psi = psi * np.exp(-1j * angles)
            psi = scipy.sparse.linalg.expm_multiply(1j * float(beta) * xmat, psi)
    diag = np.array(hz, dtype=float) / float(n ** (p - 1))
    h_psi = diag * psi - spec.field * (xmat @ psi)
    return float(np.vdot(psi, h_psi).real)


def check_large_n(rows, starts) -> Verdict:
    """Every point in range, and the energy of every returned optimum within
    ORACLE_RTOL of ``oracle_energy``."""
    by_key = dict(starts)
    bad = 0
    worst = 0.0
    for row in rows:
        stats = by_key.get((row.n_sites, row.p_exponent, row.field, row.depth, row.scheme))
        ok = _sweep_row_ok(row) and stats is not None
        for result in stats.results if stats is not None else ():
            spec = ProblemSpec(row.n_sites, row.p_exponent, row.field)
            reference = oracle_energy(spec, result.params_star)
            error = abs(result.record.energy - reference) / abs(reference)
            worst = max(worst, error)
            ok = ok and error <= ORACLE_RTOL
        bad += not ok
    return Verdict(len(rows), bad, _mean(_restart_residuals(starts)), {"oracle_max_rel_err": worst})


def check_gap_scan(rows_per_config) -> Verdict:
    """Every gap finite and positive; the p = 2 exponent within
    GAP_P2_TOLERANCE of -1/3 and the p = 3 rate negative, both fits with
    r^2 above GAP_MIN_R_SQUARED.

    Its ``residual_mean`` is the relative distance of the p = 2 exponent
    from -1/3: a gap scan has no residual energy, and this is the number an
    eigensolver shortcut would move.
    """
    attempted = bad = 0
    notes = {}
    for rows in rows_per_config:
        p = rows[0].p_exponent
        row_bad = {
            i for i, row in enumerate(rows)
            if row.status != "ok" or not (math.isfinite(row.minimal_gap) and row.minimal_gap > 0)
        }
        try:
            slope, r_squared = fit_gap_exponent(rows, p)
        except ValueError:
            slope, r_squared = math.nan, math.nan
        if p == 2:
            fit_ok = abs(slope - GAP_P2_EXPONENT) <= GAP_P2_TOLERANCE
        else:
            fit_ok = slope < 0
        if not (fit_ok and r_squared > GAP_MIN_R_SQUARED):
            row_bad = set(range(len(rows)))
        notes[f"p{p}_slope"], notes[f"p{p}_r_squared"] = slope, r_squared
        attempted += len(rows)
        bad += len(row_bad)
    error = abs(notes.get("p2_slope", math.nan) - GAP_P2_EXPONENT) / abs(GAP_P2_EXPONENT)
    return Verdict(attempted, bad, error if math.isfinite(error) else 1.0, notes)


def _mean(values) -> float:
    # 1.0 is the worst residual; it stands in when no restart finished
    return float(np.mean(values)) if values else 1.0


def check(workload: str, rows_per_config, starts) -> Verdict:
    if workload == "large_n":
        return check_large_n(rows_per_config[0], starts)
    return check_gap_scan(rows_per_config)
