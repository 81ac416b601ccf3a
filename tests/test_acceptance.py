"""Acceptance suite: one test per headline claim, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole file is a few minutes of compute on a laptop.
"""

import math

import numpy as np

from analytic_oracles import even_p_decomposition, symmetry_group, verify_power_identity
from fullspace import embed_sector_state, full_qaoa_state
from pspin_qaoa.analytic import exact_p1_params
from pspin_qaoa.engine import (
    QaoaParams,
    circuit_context,
    energy,
    energy_and_gradient,
    fidelity,
    qaoa_state,
)
from pspin_qaoa.experiments import (
    ExperimentConfig,
    fit_gap_exponent,
    fit_iteration_slope,
    fit_scaling_exponent,
    run_experiment,
)
from pspin_qaoa.optimizer import RandomInit, LinearInit, derive_seed, multi_start, r_init
from pspin_qaoa.sector import ProblemSpec, diagonalize_target


GOLDEN_FIELD = (math.sqrt(5.0) - 1.0) / 2.0


def report(number: int, label: str, ok: bool, detail: str = "") -> bool:
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}{tail}")
    return ok


def params_of(gammas, betas):
    return QaoaParams(gammas=np.atleast_1d(gammas), betas=np.atleast_1d(betas))


def test_criterion_01_p1_exact_odd_p():
    worst = 1.0
    for p in (3, 5, 7):
        for n in (5, 7, 9, 11):
            spec = ProblemSpec(n, p, 0.0)
            psi = qaoa_state(spec, params_of(np.pi / 4, np.pi / 4))
            worst = min(worst, fidelity(psi, diagonalize_target(spec).ground_state))
    ok = worst >= 1.0 - 1e-12
    assert report(1, "depth-1 exact preparation, odd p", ok, f"min fidelity {worst:.3e}")


def test_criterion_02_p1_exact_even_p():
    # gamma_k comes from the unique decomposition p = 2^(k+1) + n 2^k with
    # 4 | n; for p = 6 that is (k=0, n=4), which is not the representation
    # with the largest k -- no other representation prepares the state.
    worst = 1.0
    for p in (2, 4, 6, 8):
        gamma = even_p_decomposition(p).gamma
        assert exact_p1_params(p, 5) == (gamma, np.pi / 4)
        for n in (5, 7, 9, 11, 13, 15):
            spec = ProblemSpec(n, p, 0.0)
            psi = qaoa_state(spec, params_of(gamma, np.pi / 4))
            worst = min(worst, fidelity(psi, diagonalize_target(spec).ground_state))
    ok = worst >= 1.0 - 1e-12
    assert report(2, "depth-1 exact preparation, even p", ok, f"min fidelity {worst:.3e}")


def test_criterion_03_even_sites_need_depth_2():
    ok = True
    details = []
    for n in (4, 6):
        spec = ProblemSpec(n, 2, 0.0)
        ctx = circuit_context(spec)
        # the cat ground state, in the reflection-even block the even-p
        # context works in
        targ = ctx.ground
        lam, vec = ctx.xdec.eigenvalues, ctx.xdec.eigenvectors
        grid = np.linspace(0.0, np.pi, 256)
        # overlap(gamma, beta) = sum_j conj(t)V_j e^{i beta lam_j} (V^T phi)_j
        t_side = vec.T @ targ.conj()
        mixers = np.exp(1j * np.outer(grid, lam))  # (n_beta, N+1)
        best = 0.0
        for gamma in grid:
            phi = ctx.apply_phase(ctx.plus[:, None], ctx.phase_factors(gamma))[:, 0]
            weights = t_side * (vec.T @ phi)
            best = max(best, float(np.max(np.abs(mixers @ weights) ** 2)))
        stats = multi_start(spec, 2, RandomInit(), n_restarts=10, base_seed=0)
        ok &= best < 1.0 - 1e-3 and stats.min_residual < 1e-10
        details.append(f"N={n}: grid best {best:.4f}, P=2 residual {stats.min_residual:.1e}")
    assert report(3, "even N needs depth 2", ok, "; ".join(details))


def test_criterion_04_critical_depth():
    # P* is where exact preparation becomes reachable, not where every
    # restart finds it: over base seeds 0-99 (1000 restarts a point) 70, 103
    # and 79 restarts at p = 3 and one at p = 2, N = 12 stopped in local
    # minima at P* (residual up to 3e-2), yet the best of each ten was exact.
    # One layer later 4 of 1000 stayed inexact at p = 3, N = 5 and at N = 9,
    # none elsewhere, and no ten held two, so one of ten may miss at P* + 1.
    cases = {2: ((8, 12, 16), lambda n: (n // 2 + 2, n // 2 - 1)),
             3: ((5, 9, 13), lambda n: (n + 1, n - 2))}
    ok = True
    details = []
    for p, (sizes, depths) in cases.items():
        for n in sizes:
            d_star, d_low = depths(n)
            spec = ProblemSpec(n, p, GOLDEN_FIELD)
            at_star = multi_start(spec, d_star, RandomInit(), n_restarts=10, base_seed=0)
            above = multi_start(spec, d_star + 1, RandomInit(), n_restarts=10, base_seed=0)
            below = multi_start(spec, d_low, RandomInit(), n_restarts=10, base_seed=0)
            missed = sum(r.record.residual >= 1e-10 for r in above.results)
            ok &= at_star.min_residual < 1e-10 and missed <= 1 and below.mean_residual > 1e-7
            details.append(
                f"p={p} N={n}: best@P* {at_star.min_residual:.1e}, "
                f"inexact@P*+1 {missed}/10, mean@P*-3 {below.mean_residual:.1e}"
            )
    assert report(
        4, "best restart exact at P*, all but one of ten at P*+1", ok, "; ".join(details)
    )


def test_criterion_05_scaling_exponent():
    cfg = ExperimentConfig(
        kind="scaling", p_exponent=3, n_grid=(13,),
        depth_grid=tuple(range(2, 14)), h_grid=(0.0,), n_restarts=20, base_seed=0,
    )
    rows = run_experiment(cfg)
    b, _ = fit_scaling_exponent(rows)
    ok = 2.5 <= b <= 3.5
    assert report(5, "residual scaling exponent", ok, f"b = {b:.3f}")


def test_criterion_06_linear_init_detects_paramagnet():
    spec = ProblemSpec(32, 3, 2.0)
    linear = multi_start(spec, 15, LinearInit(), n_restarts=20, base_seed=0)
    random = multi_start(spec, 15, RandomInit(), n_restarts=20, base_seed=0)
    ok = linear.mean_residual < 1e-8 and random.mean_residual > 1e-4
    assert report(
        6, "annealing-schedule start beats random above h_c", ok,
        f"l-init {linear.mean_residual:.1e}, r-init {random.mean_residual:.1e}",
    )


def test_criterion_07_gradient_vs_finite_differences():
    # sizes are capped at N^p ~ 150: the central-difference oracle's own
    # truncation error grows as (N^p)^3 * step^2 and would otherwise exceed
    # the 1e-6 comparison tolerance on mixed-frequency components
    size_cap = {2: 12, 3: 5}
    rng = np.random.default_rng(derive_seed(7))
    worst = 0.0
    for trial in range(50):
        p = int(rng.integers(2, 4))
        n = int(rng.integers(2, size_cap[p] + 1))
        h = float(rng.uniform(0.0, 2.0))
        depth = int(rng.integers(1, 9))
        spec = ProblemSpec(n, p, h)
        x = r_init(depth, int(rng.integers(2**63))).to_vector()
        _, (grad,) = energy_and_gradient(spec, x[None])
        for i in range(x.size):
            if abs(grad[i]) <= 1e-8:
                continue
            xp, xm = x.copy(), x.copy()
            xp[i] += 1e-6
            xm[i] -= 1e-6
            fd = (
                energy(spec, qaoa_state(spec, QaoaParams.from_vector(xp)))
                - energy(spec, qaoa_state(spec, QaoaParams.from_vector(xm)))
            ) / 2e-6
            worst = max(worst, abs(grad[i] - fd) / abs(grad[i]))
    ok = worst < 1e-6
    assert report(7, "analytic gradient", ok, f"worst relative error {worst:.2e}")


def test_criterion_08_symmetry_table():
    rng = np.random.default_rng(derive_seed(8))
    worst = 0.0
    cases = [(2, 6), (2, 7), (3, 6), (3, 7), (4, 5)]
    for trial in range(100):
        p, n = cases[trial % len(cases)]
        spec = ProblemSpec(n, p, float(rng.uniform(0.0, 2.0)))
        params = r_init(3, int(rng.integers(2**63)))
        e0 = energy(spec, qaoa_state(spec, params))
        for transform in symmetry_group(p, n):
            mapped = transform.apply(params, component=trial % 3)
            worst = max(worst, abs(energy(spec, qaoa_state(spec, mapped)) - e0))
    ok = worst < 1e-12
    assert report(8, "symmetry-table energy invariance", ok, f"worst drift {worst:.2e}")


def test_criterion_09_power_identity():
    # exhaustive over the identity's domain of validity: n a multiple of 4
    # (n = 0, 4, 8 here).  For other n the claim is arithmetically false
    # (3^4 mod 16 = 1, not 9), so those representations are excluded by
    # even_p_decomposition in the first place.
    checked = 0
    ok = True
    for k in range(7):
        for n in (0, 4, 8):
            for m in range(1, 2 ** (k + 4), 2):
                ok &= verify_power_identity(k, n, m)
                checked += 1
    ok = ok and checked > 3000
    assert report(9, "modular power identity", ok, f"{checked} exhaustive checks")


def test_criterion_10_brute_force_oracle():
    rng = np.random.default_rng(derive_seed(10))
    worst = 1.0
    for trial in range(20):
        n = int(rng.integers(2, 11))
        p = int(rng.integers(2, 5))
        depth = int(rng.integers(1, 5))
        params = r_init(depth, int(rng.integers(2**63)))
        sector = qaoa_state(ProblemSpec(n, p, 0.0), params)
        full = full_qaoa_state(n, p, params.gammas, params.betas)
        worst = min(worst, abs(np.vdot(embed_sector_state(sector, n), full)) ** 2)
    ok = worst >= 1.0 - 1e-10
    assert report(10, "full 2^N tensor-product oracle", ok, f"min overlap {worst:.12f}")


def test_criterion_11_gap_scaling():
    rows2 = run_experiment(
        ExperimentConfig(kind="gap-scaling", p_exponent=2, n_grid=(64, 128, 256, 512))
    )
    expo, _ = fit_gap_exponent(rows2, 2)
    rows3 = run_experiment(
        ExperimentConfig(kind="gap-scaling", p_exponent=3, n_grid=(16, 24, 32, 40, 48, 56, 64))
    )
    rate, r2 = fit_gap_exponent(rows3, 3)
    ok = abs(expo + 1.0 / 3.0) <= 0.1 and r2 > 0.95 and rate < 0
    assert report(
        11, "critical-gap scaling", ok,
        f"p=2 exponent {expo:.3f}; p=3 log-linear r^2 {r2:.4f}",
    )


def test_criterion_12_iteration_scaling():
    cfg = ExperimentConfig(
        kind="iteration-scaling", p_exponent=2, n_grid=(8, 12, 16, 20),
        h_grid=(GOLDEN_FIELD,), n_restarts=20, base_seed=0,
    )
    rows = run_experiment(cfg)
    slope, r2 = fit_iteration_slope(rows)
    ok = slope > 0 and r2 > 0.8
    assert report(
        12, "optimizer iterations grow linearly with N", ok,
        f"slope {slope:.2f} iters/site, r^2 {r2:.3f}",
    )
