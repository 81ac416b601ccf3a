import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from analytic_oracles import params_from_vector
from fullspace import fidelity, sector_ground_state
from pspin_qaoa.engine import energy_and_gradient, qaoa_state
from pspin_qaoa import optimizer
from pspin_qaoa.optimizer import (
    LinearInit,
    RandomInit,
    bfgs_minimize,
    derive_seed,
    l_init,
    multi_start,
    optimize,
    r_init,
)
from pspin_qaoa.sector import ProblemSpec


def quadratic(a):
    a = np.asarray(a, dtype=float)

    def f(x):
        return 0.5 * float(x @ (a * x)), a * x

    return f


def rosenbrock(x):
    val = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
    grad = np.array(
        [
            -400.0 * x[0] * (x[1] - x[0] ** 2) - 2.0 * (1.0 - x[0]),
            200.0 * (x[1] - x[0] ** 2),
        ]
    )
    return val, grad


def rows_of(f):
    """A batch objective from a single-point one, evaluated row by row."""
    def batch(points):
        values, grads = zip(*(f(x) for x in points))
        return np.array(values), np.array(grads)

    return batch


def lone_run(f, x0):
    """One BFGS run of a single-point objective, as a batch of one."""
    (res,) = bfgs_minimize(rows_of(f), np.array([x0], dtype=float), 0.0)
    return res


class TestSeeds:
    def test_deterministic_and_order_sensitive(self):
        assert derive_seed(3, 4, 0.5) == derive_seed(3, 4, 0.5)
        assert derive_seed(3, 4) != derive_seed(4, 3)
        assert derive_seed(0, 1.0) != derive_seed(0, 1.5)

    def test_distinct_restart_streams(self):
        seeds = {derive_seed(7, i) for i in range(100)}
        assert len(seeds) == 100

    @pytest.mark.parametrize("key,value", [
        (np.float32(0.5), 0.5), (Fraction(1, 2), 0.5), (Fraction(4, 2), 2.0),
        (np.float64(0.7), 0.7), (np.int64(3), 3), (np.uint8(200), 200),
    ], ids=repr)
    def test_keys_count_by_value(self, key, value):
        # a real key that is not an integer once lost its fraction: a float32
        # 0.5 derived the seed of 0
        assert derive_seed(1, key) == derive_seed(1, value)

    @pytest.mark.parametrize("key", ["3", None, 1j, Decimal("0.5")], ids=repr)
    def test_refuses_keys_that_are_not_real(self, key):
        with pytest.raises(TypeError, match="real number"):
            derive_seed(1, key)


class TestInits:
    def test_r_init_range_and_determinism(self):
        params = r_init(50, 123)
        x = params.to_vector()
        assert x.size == 100
        assert np.all((x >= 0) & (x <= np.pi))
        np.testing.assert_array_equal(x, r_init(50, 123).to_vector())
        assert not np.array_equal(x, r_init(50, 124).to_vector())

    def test_r_init_mean(self):
        # law of large numbers: mean of uniform [0, pi] draws is pi/2
        x = r_init(20000, 5).to_vector()
        assert abs(x.mean() - np.pi / 2) < 0.02

    def test_l_init_noiseless_values(self):
        spec = ProblemSpec(4, 2, 0.0)
        params = l_init(2, spec, dt=1.0, noise_amplitude=0.0)
        np.testing.assert_allclose(params.gammas, [1 / 8, 1 / 4])
        np.testing.assert_allclose(params.betas, [1 / 2, 0.0])

    def test_l_init_field_dependence(self):
        # at h=1 the beta schedule stays flat at dt
        spec = ProblemSpec(6, 3, 1.0)
        params = l_init(3, spec, dt=0.7, noise_amplitude=0.0)
        np.testing.assert_allclose(params.betas, [0.7, 0.7, 0.7])

    def test_l_init_noise_window(self):
        spec = ProblemSpec(8, 2, 0.5)
        clean = l_init(10, spec, noise_amplitude=0.0)
        noisy = l_init(10, spec, noise_amplitude=0.05, seed=42)
        ratio_g = noisy.gammas / clean.gammas
        ratio_b = noisy.betas / clean.betas
        assert np.all((ratio_g > 0.95) & (ratio_g < 1.05))
        assert np.all((ratio_b > 0.95) & (ratio_b < 1.05))

    def test_scheme_objects(self):
        spec = ProblemSpec(5, 2, 0.0)
        assert RandomInit().tag() == "r"
        assert LinearInit().tag() == "l"
        np.testing.assert_array_equal(
            RandomInit().sample(3, spec, 9).to_vector(), r_init(3, 9).to_vector()
        )
        with pytest.raises(ValueError):
            LinearInit(dt=0.0)

    @pytest.mark.parametrize("dt,noise", [
        (0.0, 0.05), (-1.0, 0.05), (float("nan"), 0.05), (float("inf"), 0.05),
        (1.0, -0.5), (1.0, float("nan")), (1.0, float("inf")), (True, 0.05), (1.0, False),
    ], ids=str)
    def test_schedule_rejects_bad_values(self, dt, noise):
        with pytest.raises(ValueError):
            LinearInit(dt=dt, noise_amplitude=noise)
        with pytest.raises(ValueError):
            l_init(2, ProblemSpec(4, 2), dt=dt, noise_amplitude=noise)

    @pytest.mark.parametrize("depth", [0, -1, 2.5, 2.0, True, np.float64(3.0)], ids=repr)
    def test_rejects_bad_depth(self, depth):
        with pytest.raises(ValueError, match="depth must be an integer"):
            r_init(depth, 0)
        with pytest.raises(ValueError, match="depth must be an integer"):
            l_init(depth, ProblemSpec(4, 2))


class TestBfgs:
    def test_quadratic_bowl(self):
        res = lone_run(quadratic([1.0, 10.0, 100.0]), [1.0, 1.0, 1.0])
        assert res.converged
        assert res.n_iters <= 15
        assert np.max(np.abs(res.x)) < 1e-8

    def test_rosenbrock(self):
        res = lone_run(rosenbrock, [-1.2, 1.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-6)
        assert res.value < 1e-12

    def test_qaoa_landscape_reaches_exact_point(self):
        spec = ProblemSpec(5, 3, 0.0)

        def objective(x):
            return energy_and_gradient(spec, x)

        (res,) = bfgs_minimize(objective, np.array([[0.78, 0.78]]), 0.0)
        np.testing.assert_allclose(res.x, [np.pi / 4, np.pi / 4], atol=1e-8)
        psi = qaoa_state(spec, params_from_vector(res.x))
        assert fidelity(psi, sector_ground_state(spec)) > 1 - 1e-10

    def test_respects_max_iters(self, monkeypatch):
        monkeypatch.setattr(optimizer, "MAX_ITERS", 3)
        res = lone_run(rosenbrock, [-1.2, 1.0])
        assert res.n_iters == 3
        assert not res.converged
        assert res.termination == "max_iters"

    def test_counts_its_own_evaluations(self):
        calls = []

        def counted(x):
            calls.append(x)
            return rosenbrock(x)

        res = lone_run(counted, [-1.2, 1.0])
        assert res.n_evals == len(calls)

    def test_lockstep_runs_match_lone_runs(self):
        # R starts in one call: each run ends where it ends alone, and one
        # round evaluates every run still going, so the rounds number as
        # many as the longest run's own evaluations
        starts = np.array([[-1.2, 1.0], [0.5, 0.5], [2.0, -1.0], [1.0, 1.0]])
        rounds = []

        def batched(points):
            rounds.append(len(points))
            return rows_of(rosenbrock)(points)

        results = bfgs_minimize(batched, starts, 0.0)
        assert len(rounds) == max(r.n_evals for r in results)
        assert sum(rounds) == sum(r.n_evals for r in results)
        assert rounds == sorted(rounds, reverse=True)
        for start, res in zip(starts, results):
            alone = lone_run(rosenbrock, start)
            np.testing.assert_array_equal(res.x, alone.x)
            assert (res.n_iters, res.n_evals, res.converged, res.termination) == (
                alone.n_iters, alone.n_evals, alone.converged, alone.termination)

    @pytest.mark.parametrize("n,p", [(512, 2), (256, 3), (257, 3), (1024, 3)])
    def test_lockstep_circuit_runs_match_lone_runs(self, monkeypatch, n, p):
        # the same on the circuit kernel, bit for bit, at m = 257 (the
        # folded block and the sector, each with a padded odd half),
        # m = 258 (no padding) and m = 1025; six steps per run keep it short
        monkeypatch.setattr(optimizer, "MAX_ITERS", 6)
        spec = ProblemSpec(n, p, 1.0)
        starts = np.array([l_init(2, spec, seed=seed).to_vector() for seed in range(3)])

        def objective(points):
            return energy_and_gradient(spec, points)

        for start, res in zip(starts, bfgs_minimize(objective, starts, 0.0)):
            (alone,) = bfgs_minimize(objective, start[None], 0.0)
            np.testing.assert_array_equal(res.x, alone.x)
            assert (res.n_iters, res.n_evals, res.termination) == (alone.n_iters, alone.n_evals, alone.termination)

    @pytest.mark.parametrize("x0", [[-1.2, 1.0], -1.2, [[[-1.2, 1.0]]], np.zeros((0, 2)), np.zeros((1, 0))],
                             ids=lambda x0: str(np.shape(x0)))
    def test_refuses_anything_but_a_start_array(self, x0):
        # a 1-d start would otherwise run each coordinate as its own restart
        calls = []
        with pytest.raises(ValueError, match=rf"shape {re.escape(str(np.shape(x0)))}"):
            bfgs_minimize(lambda points: calls.append(points), x0, 0.0)
        assert calls == []

    @pytest.mark.parametrize("noise_floor", [-1e-12, float("nan"), float("inf")], ids=repr)
    def test_refuses_a_bad_noise_floor(self, noise_floor):
        calls = []
        with pytest.raises(ValueError, match="noise_floor must be finite"):
            bfgs_minimize(lambda points: calls.append(points), np.ones((1, 2)), noise_floor)
        assert calls == []

    def test_already_at_minimum(self):
        res = lone_run(quadratic([1.0, 1.0]), [0.0, 0.0])
        assert res.converged
        assert res.n_iters == 0

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_line_search_monotone(self, seed):
        # every accepted BFGS step must strictly decrease the objective
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.5, 50.0, size=4)
        values = []

        def tracked(x):
            f, g = quadratic(a)(x)
            return f, g

        x0 = rng.uniform(-2, 2, size=4)
        f_prev = quadratic(a)(x0)[0]
        res = lone_run(tracked, x0)
        assert res.converged
        assert res.value <= f_prev + 1e-15


class TestTermination:
    # one test per reason a run stops; "max_iters" is test_respects_max_iters

    def test_grad_tol(self):
        res = lone_run(quadratic([1.0, 10.0, 100.0]), [1.0, 1.0, 1.0])
        assert res.termination == "grad_tol"
        assert res.converged
        assert np.max(np.abs(res.grad)) <= optimizer.GRAD_TOL

    def test_unresolved_values_do_not_stop_a_descending_run(self):
        # offset by 1e10, f resolves changes of about 1e-6 only while its
        # gradient stays exact: steps that leave f unchanged still descend,
        # so the run goes on to the gradient test at the minimum (a rule
        # that stopped after two unresolved steps left it at max|g| = 6.4e-6)
        def offset(x):
            f, g = rosenbrock(x)
            return 1e10 + f, g

        res = lone_run(offset, [-1.2, 1.0])
        assert res.termination == "grad_tol"
        assert res.converged
        assert np.max(np.abs(res.grad)) <= optimizer.GRAD_TOL
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)

    def test_line_search_failed(self):
        # a gradient of the wrong sign: every descent direction goes uphill
        def uphill(x):
            return float(x @ x), -2.0 * x

        res = lone_run(uphill, [1.0, 1.0])
        assert res.termination == "line_search_failed"
        assert not res.converged
        assert res.n_iters == 0
        np.testing.assert_array_equal(res.x, [1.0, 1.0])

    def test_roundoff_ends_the_run_at_the_noise_floor(self):
        # f carries deterministic noise of amplitude delta and its gradient
        # none, as the QAOA energy carries rounding and its adjoint gradient
        # stays accurate. Once f is within delta of its minimum no Armijo
        # test can see a decrease: with the noise floor at delta the run
        # stops within a few evaluations; with floor 0 a zoom bisects on
        # the noise until MAX_ZOOM = 40 trials fail.
        delta = 1e-8
        a, w = np.array([1.0, 10.0, 100.0]), np.array([0.3, 0.7, 0.1])

        def run(noise_floor):
            exact = []

            def noisy(x):
                q, g = quadratic(a)(x)
                exact.append(q)
                return q + delta * math.sin(1e9 * float(w @ x) + 1.0), g

            (res,) = bfgs_minimize(rows_of(noisy), np.array([[1.0, 1.0, 1.0]]), noise_floor)
            floor_reached = next(i for i, q in enumerate(exact) if q <= delta)
            return res, len(exact) - 1 - floor_reached

        res, evals_after = run(delta)
        assert res.termination == "roundoff"
        assert res.converged
        assert evals_after <= 5
        res, evals_after = run(0.0)
        assert res.termination == "line_search_failed"
        assert evals_after >= 40


class TestRetry:
    # a search that fails along a quasi-Newton direction is retried once
    # along -g from the identity; one along -g itself ends the run

    @pytest.mark.parametrize("scale", [2.0, 2e-9])
    def test_failed_quasi_newton_search_retries_along_minus_g_at_any_scale(self, scale, monkeypatch):
        # the first search along a direction other than exactly -g fails.
        # Whether to retry must not depend on how close that direction is
        # to -g: at 2e-9 every gradient component is below 1e-8
        strong_wolfe = optimizer._strong_wolfe
        steepest = []

        def fail_first_quasi_newton(x, f0, g0, direction, noise_floor):
            steepest.append(np.array_equal(direction, -g0))
            if steepest.count(False) == 1 and not steepest[-1]:
                return "line_search_failed"
            return (yield from strong_wolfe(x, f0, g0, direction, noise_floor))

        monkeypatch.setattr(optimizer, "_strong_wolfe", fail_first_quasi_newton)
        res = lone_run(quadratic([1.0, 2.0, 3.0]), scale * np.ones(3))
        # the identity's search, the failed quasi-Newton one, the retry
        assert steepest[:3] == [True, False, True]
        assert res.termination == "grad_tol"
        assert np.max(np.abs(res.grad)) <= optimizer.GRAD_TOL

    @pytest.mark.parametrize("direction", [[1.0, 0.0], [0.0, 1.0]], ids=["uphill", "orthogonal"])
    def test_line_search_refuses_a_non_descent_direction(self, direction):
        # the retry relies on this: a search along d with g.d >= 0 fails
        # before it asks for a trial point
        search = optimizer._strong_wolfe(
            np.zeros(2), 0.0, np.array([1.0, 0.0]), np.array(direction), 0.0)
        with pytest.raises(StopIteration) as stop:
            next(search)
        assert stop.value.value == "line_search_failed"


class TestOptimize:
    def test_depth1_reaches_global_minimum(self):
        # the depth-1 landscape has many local minima; a handful of random
        # restarts is enough for at least one to land in the global basin
        spec = ProblemSpec(7, 3, 0.0)
        stats = multi_start(spec, 1, RandomInit(), n_restarts=10, base_seed=0)
        assert stats.min_residual < 1e-10
        best = min(stats.results, key=lambda r: r.record.residual)
        assert best.record.fidelity > 1 - 1e-8

    def test_deterministic(self):
        spec = ProblemSpec(9, 2, 0.0)
        (r1,) = optimize(spec, 3, RandomInit(), [11])
        (r2,) = optimize(spec, 3, RandomInit(), [11])
        np.testing.assert_array_equal(
            r1.params_star.to_vector(), r2.params_star.to_vector()
        )
        assert r1.record.residual == r2.record.residual
        assert r1.n_iters == r2.n_iters

    def test_linear_init_deep_circuit(self):
        spec = ProblemSpec(10, 2, 0.0)
        (result,) = optimize(spec, 7, LinearInit(), [0])  # depth = N/2 + 2
        assert result.record.residual < 1e-10

    def test_large_n_stops_at_the_energy_roundoff(self, monkeypatch):
        # the benchmark's large_n point, N=512, p=2, P=4, h=1, with the
        # sweep's two l-init seeds: the gradient test cannot pass there
        # (max|g| stalls near 1e-5), and once the energy is within the noise
        # floor of where it ends, a restart takes at most 20 more evaluations
        # (the slower one took 121 when its searches ran on in the noise)
        spec = ProblemSpec(512, 2, 1.0)
        base_seed = derive_seed(0, 512, 4, 1.0)
        floor = optimizer._noise_floor(spec)
        original = optimizer.energy_and_gradient
        for i in range(2):
            energies = []

            def recorded(spec_, x):
                values, grads = original(spec_, x)
                energies.extend(values)
                return values, grads

            monkeypatch.setattr(optimizer, "energy_and_gradient", recorded)
            (res,) = optimize(spec, 4, LinearInit(), [derive_seed(base_seed, i)])
            assert res.termination == "roundoff"
            assert res.converged
            assert len(energies) == res.n_evals
            settled = next(k for k, e in enumerate(energies) if abs(e - res.record.energy) <= floor)
            assert res.n_evals - 1 - settled <= 20

    @pytest.mark.parametrize("n,p,h", [(64, 2, 0.5), (28, 4, 0.5)])
    def test_exact_optimum_below_critical_field_has_unit_fidelity(self, n, p, h):
        # below h_c the even and odd ground states of the sector split by less
        # than roundoff; the circuit state is reflection-even, so at an exact
        # optimum its fidelity with the even ground state must be 1 (a mix of
        # the two parities read 0.5 and 0.75 here)
        spec = ProblemSpec(n, p, h)
        (result,) = optimize(spec, n // 2 + 2, RandomInit(), [0])  # depth = P*
        assert result.record.residual < 1e-12
        assert result.record.fidelity > 1 - 1e-10


class TestMultiStart:
    def test_statistics_consistency(self):
        spec = ProblemSpec(6, 2, 0.0)
        stats = multi_start(spec, 2, RandomInit(), n_restarts=8, base_seed=1)
        residuals = [r.record.residual for r in stats.results]
        assert stats.min_residual == min(residuals)
        assert stats.max_residual == max(residuals)
        assert abs(stats.mean_residual - np.mean(residuals)) < 1e-15
        assert stats.min_residual <= stats.mean_residual <= stats.max_residual
        assert 0 <= stats.n_converged <= 8

    def test_deterministic_across_runs(self):
        spec = ProblemSpec(5, 3, 0.5)
        s1 = multi_start(spec, 2, RandomInit(), n_restarts=5, base_seed=7)
        s2 = multi_start(spec, 2, RandomInit(), n_restarts=5, base_seed=7)
        assert s1.mean_residual == s2.mean_residual
        assert s1.mean_iters == s2.mean_iters

    def test_restarts_differ(self):
        spec = ProblemSpec(8, 2, 0.0)
        stats = multi_start(spec, 2, RandomInit(), n_restarts=6, base_seed=2)
        starts = {tuple(r.params_star.to_vector().round(12)) for r in stats.results}
        seeds = {r.seed for r in stats.results}
        assert len(seeds) == 6

    def test_restart_alone_matches_restart_in_batch(self):
        # lock-step restarts share every kernel call, yet each one takes the
        # path it takes alone, bit for bit
        spec = ProblemSpec(32, 3, 0.8)  # m = 33: a wide GEMM would round differently
        stats = multi_start(spec, 2, RandomInit(), n_restarts=20, base_seed=3)
        for i, res in enumerate(stats.results):
            (alone,) = optimize(spec, 2, RandomInit(), [derive_seed(3, i)])
            assert (alone.n_iters, alone.n_evals) == (res.n_iters, res.n_evals)
            assert abs(alone.record.residual - res.record.residual) <= 1e-12
            np.testing.assert_array_equal(
                alone.params_star.to_vector(), res.params_star.to_vector())

    def test_one_kernel_call_per_round(self, monkeypatch):
        calls = []
        original = optimizer.energy_and_gradient

        def counted(spec, params):
            calls.append(len(params))
            return original(spec, params)

        monkeypatch.setattr(optimizer, "energy_and_gradient", counted)
        stats = multi_start(ProblemSpec(8, 2, 0.5), 3, LinearInit(), n_restarts=5, base_seed=1)
        assert len(calls) == max(r.n_evals for r in stats.results)
        assert sum(calls) == sum(r.n_evals for r in stats.results)

    def test_seed_sequence_gives_one_result_per_seed(self):
        spec = ProblemSpec(6, 2, 0.5)
        results = optimize(spec, 2, RandomInit(), [4, 5])
        assert isinstance(results, tuple)
        assert [r.seed for r in results] == [4, 5]
        (alone,) = optimize(spec, 2, RandomInit(), [5])
        assert (alone.n_evals, alone.record) == (results[1].n_evals, results[1].record)

    @pytest.mark.parametrize("n_restarts", [0, -2, 2.5, 2.0, True], ids=repr)
    def test_rejects_zero_restarts(self, n_restarts):
        with pytest.raises(ValueError, match="n_restarts must be an integer"):
            multi_start(ProblemSpec(4, 2), 1, RandomInit(), n_restarts=n_restarts)

    @pytest.mark.parametrize("seeds", [5, np.int64(5), [], None, np.array([4, 5])], ids=repr)
    def test_optimize_refuses_anything_but_a_seed_sequence(self, seeds):
        # one seed is the batch of one, [seed]
        with pytest.raises(ValueError, match=f"sequence, got {type(seeds).__name__}"):
            optimize(ProblemSpec(4, 2), 1, RandomInit(), seeds)
