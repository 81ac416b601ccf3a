import argparse
import inspect
import json
import math
import os
import re
import shlex
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings, strategies as st

import pspin_qaoa
from pspin_qaoa import cli as cli_module, engine, experiments, optimizer
from pspin_qaoa.cli import (
    _KIND_BY_COMMAND, build_parser, config_from_args, main as cli_main, parse_grid,
)
from pspin_qaoa.experiments import (
    ConfigError,
    ExperimentConfig,
    GapRow,
    SweepRow,
    collapse_coordinate,
    emit_results,
    fit_gap_exponent,
    fit_iteration_slope,
    fit_scaling_exponent,
    minimal_gap,
    p_star,
    run_experiment,
)
from pspin_qaoa.optimizer import RandomInit, l_init, multi_start
from pspin_qaoa.sector import ProblemSpec, dynamical_gap

SRC = Path(__file__).resolve().parent.parent / "src"
README = SRC.parent / "README.md"


def load_results_json(path):
    """Read back a JSON artifact written by ``emit_results``: its config, or
    None, and its rows as dicts, whose null numbers become nan again."""
    payload = json.loads(Path(path).read_text())
    config = payload["config"]
    rows = [{k: math.nan if v is None else v for k, v in row.items()} for row in payload["rows"]]
    return None if config is None else ExperimentConfig.from_dict(config), rows


def synthetic_rows(b, n_sites=20, p=2, depths=range(2, 11)):
    """Rows following residual = (1 - P/P*)^b exactly."""
    ps = p_star(p, n_sites)
    rows = []
    for depth in depths:
        res = (1.0 - depth / ps) ** b
        rows.append(
            SweepRow(
                n_sites=n_sites, p_exponent=p, field=0.0, depth=depth,
                scheme="r", n_restarts=1, mean_residual=res, std_residual=0.0,
                sem_residual=0.0, min_residual=res, max_residual=res,
                mean_iters=10.0, mean_annealing_time=1.0, n_converged=1,
                collapse_coordinate=collapse_coordinate(p, n_sites, depth),
                h_critical=2.0,
            )
        )
    return rows


def strict_json(text):
    """json.loads that refuses the NaN/Infinity tokens JSON does not define."""

    def reject(token):
        raise ValueError(f"invalid JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="bogus")
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="scaling", n_grid=())
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="scaling", scheme="x")
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="scaling", n_restarts=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "scaling", "typo_field": 1})

    def test_from_dict_coerces_grids(self):
        cfg = ExperimentConfig.from_dict({"kind": "scaling", "n_grid": [4, 6], "depth_grid": [1, 2]})
        assert cfg.n_grid == (4, 6)
        assert cfg.depth_grid == (1, 2)
        cfg = ExperimentConfig.from_dict({"kind": "field-sweep", "h_grid": [0, 1]})
        assert cfg.h_grid == (0.0, 1.0)
        assert all(type(h) is float for h in cfg.h_grid)
        # the constructor makes the same tuples
        assert cfg == ExperimentConfig(kind="field-sweep", h_grid=[0, 1])

    @pytest.mark.parametrize("field,value", [
        ("n_grid", [8.5]), ("n_grid", [8.0]), ("depth_grid", [2.5]), ("n_grid", 8),
        ("h_grid", ["x"]), ("h_grid", [None]),
    ], ids=str)
    def test_from_dict_does_not_truncate(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"kind": "scaling", field: value})

    @pytest.mark.parametrize("field,value", [
        ("p_exponent", 2.5), ("p_exponent", 1), ("p_exponent", True),
        ("n_grid", (8.0,)), ("n_grid", (0,)), ("n_grid", (True,)), ("n_grid", (2**64,)),
        ("depth_grid", (0,)), ("depth_grid", (1.5,)), ("depth_grid", (True,)),
        ("h_grid", (-0.5,)), ("h_grid", (float("nan"),)), ("h_grid", (float("inf"),)),
        ("h_grid", (True,)), ("n_grid", 8), ("h_grid", 0.5),
        # a gap scan runs over N alone, so a second h or depth would be dropped
        ("h_grid", (0.5, 1.0)), ("depth_grid", (2, 3)),
    ], ids=str)
    def test_rejects_bad_grid_entries(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="gap-scaling", **{field: value})

    @pytest.mark.parametrize("kind,field", [
        ("scaling", "h_grid"), ("field-sweep", "n_grid"), ("field-sweep", "depth_grid"),
        ("iteration-scaling", "h_grid"), ("iteration-scaling", "depth_grid"),
        ("p1-table", "h_grid"), ("p1-table", "depth_grid"),
    ], ids="-".join)
    def test_rejects_grids_the_kind_does_not_sweep(self, kind, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(kind=kind, **{field: (8, 12)})

    @pytest.mark.parametrize("field,value", [
        ("dt", -1.0), ("dt", float("nan")), ("dt", float("inf")), ("dt", "1"), ("dt", True),
        ("noise_amplitude", -0.1), ("noise_amplitude", float("nan")),
        ("n_restarts", 2.5), ("n_restarts", True), ("worker_count", True),
        ("worker_count", 0), ("base_seed", 1.5), ("base_seed", True),
        ("out_path", 3), ("out_path", ["x.csv"]),
    ], ids=str)
    def test_rejects_bad_scalar_fields(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(kind="field-sweep", **{field: value})

    def test_h_entries_are_stored_as_floats(self):
        cfg = ExperimentConfig(kind="field-sweep", h_grid=(0, 1), n_restarts=1)
        assert cfg.h_grid == (0.0, 1.0)
        assert all(type(h) is float for h in cfg.h_grid)
        assert cfg == ExperimentConfig(kind="field-sweep", h_grid=(0.0, 1.0), n_restarts=1)

    def test_negative_zero_field_is_zero(self):
        # -0.0 == 0.0, but its sign bit once reached the row and the seed:
        # other restarts, and "-0" in the CSV
        assert math.copysign(1.0, ProblemSpec(8, 2, -0.0).field) == 1.0
        rows = [
            run_experiment(ExperimentConfig(
                kind="field-sweep", n_grid=(8,), depth_grid=(2,), h_grid=(h,), n_restarts=3,
            ))
            for h in (0.0, -0.0)
        ]
        assert [repr(row) for row in rows[0]] == [repr(row) for row in rows[1]]


class TestDepthLaw:
    def test_p_star(self):
        assert p_star(2, 8) == 6
        assert p_star(2, 10) == 7
        assert p_star(3, 8) == 9
        assert p_star(5, 13) == 14

    def test_collapse_coordinate(self):
        assert collapse_coordinate(2, 8, 4) == pytest.approx(0.25)
        assert collapse_coordinate(3, 8, 3) == pytest.approx(0.25)


class TestFits:
    def test_recovers_synthetic_exponent(self):
        slope, fit_res = fit_scaling_exponent(synthetic_rows(3.0))
        assert abs(slope - 3.0) < 1e-6
        assert fit_res < 1e-12

    def test_non_integer_exponent(self):
        slope, _ = fit_scaling_exponent(synthetic_rows(2.71))
        assert abs(slope - 2.71) < 1e-6

    def test_excludes_zero_residuals(self):
        rows = synthetic_rows(3.0)
        # a converged-to-zero row must not poison the fit
        dead = rows[0].__class__(**{**rows[0].__dict__, "mean_residual": 1e-16})
        slope, _ = fit_scaling_exponent(rows + [dead])
        assert abs(slope - 3.0) < 1e-6

    def test_refuses_underdetermined(self):
        with pytest.raises(ValueError):
            fit_scaling_exponent(synthetic_rows(3.0, depths=[4, 5]))

    def test_gap_fit_power_law(self):
        rows = [
            GapRow(n_sites=n, p_exponent=2, h_at_minimum=2.0, minimal_gap=5.0 * n ** (-1 / 3))
            for n in (16, 32, 64, 128)
        ]
        slope, r2 = fit_gap_exponent(rows, 2)
        assert abs(slope + 1 / 3) < 1e-10
        assert r2 > 1 - 1e-12

    def test_gap_fit_exponential(self):
        rows = [
            GapRow(n_sites=n, p_exponent=3, h_at_minimum=1.3, minimal_gap=2.0 * math.exp(-0.05 * n))
            for n in (10, 20, 30, 40)
        ]
        slope, r2 = fit_gap_exponent(rows, 3)
        assert abs(slope + 0.05) < 1e-10
        assert r2 > 1 - 1e-12

    def test_iteration_fit(self):
        rows = []
        for n in (8, 12, 16, 20):
            row = synthetic_rows(3.0, n_sites=n, depths=[2])[0]
            rows.append(row.__class__(**{**row.__dict__, "mean_iters": 2.5 * n + 3.0}))
        slope, r2 = fit_iteration_slope(rows)
        assert abs(slope - 2.5) < 1e-10
        assert r2 > 1 - 1e-12


class TestRunners:
    def test_scaling_rows_and_determinism(self):
        cfg = ExperimentConfig(
            kind="scaling", p_exponent=2, n_grid=(6,), depth_grid=(1, 2, 3),
            h_grid=(0.0,), n_restarts=3, base_seed=5,
        )
        rows1 = run_experiment(cfg)
        rows2 = run_experiment(cfg)
        assert [r.depth for r in rows1] == [1, 2, 3]
        assert all(r.status == "ok" for r in rows1)
        assert rows1 == rows2
        # deeper circuits cannot do worse at the best restart
        assert rows1[2].min_residual <= rows1[0].min_residual + 1e-12

    @pytest.mark.parametrize("base", [
        dict(kind="scaling", p_exponent=2, n_grid=(5, 6), depth_grid=(2,),
             h_grid=(0.0,), n_restarts=2, base_seed=3),
        dict(kind="gap-scaling", p_exponent=2, n_grid=(16, 8)),
        dict(kind="p1-table", p_exponent=2, n_grid=(7, 5, 6)),
        dict(kind="field-sweep", p_exponent=3, n_grid=(5,), depth_grid=(2,),
             h_grid=(0.0, 1.0), scheme="both", n_restarts=2, base_seed=4),
        dict(kind="iteration-scaling", p_exponent=2, n_grid=(4, 6), h_grid=(0.5,),
             n_restarts=2, base_seed=2),
    ], ids=lambda base: base["kind"])
    def test_worker_count_does_not_change_results(self, base):
        serial = run_experiment(ExperimentConfig(**base, worker_count=1))
        parallel = run_experiment(ExperimentConfig(**base, worker_count=2))
        assert serial == parallel
        assert not any(row.status.startswith("failed") for row in serial)

    def test_field_sweep_orders_by_h(self):
        cfg = ExperimentConfig(
            kind="field-sweep", p_exponent=2, n_grid=(6,), depth_grid=(3,),
            h_grid=(1.0, 0.5, 0.0), n_restarts=2, base_seed=1,
        )
        rows = run_experiment(cfg)
        assert [r.field for r in rows] == [0.0, 0.5, 1.0]

    def test_both_schemes_doubles_rows(self):
        cfg = ExperimentConfig(
            kind="field-sweep", p_exponent=2, n_grid=(5,), depth_grid=(2,),
            h_grid=(0.0, 1.0), scheme="both", n_restarts=1,
        )
        rows = run_experiment(cfg)
        assert [r.scheme for r in rows] == ["r", "r", "l", "l"]

    def test_iteration_scaling_uses_critical_depth(self):
        cfg = ExperimentConfig(
            kind="iteration-scaling", p_exponent=2, n_grid=(4, 6),
            h_grid=(0.0,), n_restarts=2,
        )
        rows = run_experiment(cfg)
        assert [r.depth for r in rows] == [p_star(2, 4), p_star(2, 6)]

    def test_p1_table(self):
        cfg = ExperimentConfig(kind="p1-table", p_exponent=3, n_grid=(6, 7))
        rows = run_experiment(cfg)
        by_n = {r.n_sites: r for r in rows}
        assert by_n[6].status == "no closed form (N even)"
        assert math.isnan(by_n[6].fidelity)
        assert by_n[7].status == "ok"
        assert by_n[7].fidelity > 1 - 1e-12
        assert by_n[7].gamma == pytest.approx(np.pi / 4)

    def test_gap_scaling(self):
        cfg = ExperimentConfig(kind="gap-scaling", p_exponent=2, n_grid=(8, 16))
        rows = run_experiment(cfg)
        assert all(r.status == "ok" for r in rows)
        assert rows[1].minimal_gap < rows[0].minimal_gap
        for r in rows:
            assert 1.0 < r.h_at_minimum < 3.0

    def test_gap_scaling_single_site_fails_with_cause(self):
        cfg = ExperimentConfig(kind="gap-scaling", p_exponent=2, n_grid=(1,))
        (row,) = run_experiment(cfg)
        assert row.status.startswith("failed: ValueError: ")
        assert "one state" in row.status
        assert math.isnan(row.minimal_gap)

    def test_single_site_flat_spectrum_sweep_is_exact(self):
        # N = 1, even p, h = 0: the target is -1 times the identity, so every
        # state is a ground state
        cfg = ExperimentConfig(
            kind="field-sweep", p_exponent=2, n_grid=(1,), depth_grid=(2,),
            h_grid=(0.0,), n_restarts=2,
        )
        (row,) = run_experiment(cfg)
        assert row.status == "ok"
        assert row.mean_residual == 0.0 and row.max_residual == 0.0
        stats = multi_start(ProblemSpec(1, 2, 0.0), 2, RandomInit(), 2)
        for r in stats.results:
            assert r.record.residual == 0.0
            assert r.record.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_large_field_sweep_point(self):
        # mid-spectrum energies near 0 carry imaginary roundoff of the size
        # of ||H|| ~ h N, which a check relative to |E| refused
        cfg = ExperimentConfig(
            kind="field-sweep", p_exponent=2, n_grid=(64,), depth_grid=(1,),
            h_grid=(1e6,), n_restarts=2,
        )
        (row,) = run_experiment(cfg)
        assert row.status == "ok"

    def test_sweep_failure_keeps_exception_type(self, monkeypatch):
        def boom(config, point):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(experiments, "_sweep_task", boom)
        cfg = ExperimentConfig(
            kind="scaling", p_exponent=2, n_grid=(4,), depth_grid=(1,),
            h_grid=(0.0,), n_restarts=1,
        )
        (row,) = run_experiment(cfg)
        assert row.status == "failed: ZeroDivisionError: boom"
        assert row.n_converged == 0

    def test_p1_table_failure_keeps_row(self, monkeypatch):
        def boom(config, point):
            raise ZeroDivisionError("boom")

        monkeypatch.setattr(experiments, "_p1_task", boom)
        (row,) = run_experiment(ExperimentConfig(kind="p1-table", p_exponent=3, n_grid=(7,)))
        assert (row.p_exponent, row.n_sites) == (3, 7)
        assert row.status == "failed: ZeroDivisionError: boom"
        for value in (row.gamma, row.beta, row.fidelity, row.residual, row.annealing_time):
            assert math.isnan(value)

    def test_minimal_gap_converges_to_critical_field(self):
        h_min, gap = minimal_gap(64, 2, 2.0)
        assert abs(h_min - 2.0) < 0.3
        assert 0 < gap < 2.0

    @pytest.mark.parametrize("n,p", [(128, 5), (256, 3)])
    def test_minimal_gap_resolves_narrow_crossings(self, n, p):
        # a single Brent stage stops about 2e-8 from the minimum in h and
        # read these gaps 730x and 112x too high from the crossing's shoulder
        h_min, gap = minimal_gap(n, p, experiments.CRITICAL_FIELDS.get(p, 1.0))

        def gap_at(h):
            return dynamical_gap(ProblemSpec(n, p, float(h)))

        # nested scans, each 20x finer around the best point of the last
        best, width = h_min, 1e-7
        for _ in range(5):
            grid = best + np.linspace(-width, width, 201)
            best = grid[np.argmin([gap_at(h) for h in grid])]
            width /= 20
        scan = gap_at(best)
        assert scan < 1e-8
        assert abs(gap - scan) <= 0.01 * scan


def scipy_bounded(func, lo, hi, xatol, maxfun=500):
    """The oracle of ``_bounded_brent``: scipy's bounded Brent, (x, f(x))."""
    res = scipy.optimize.minimize_scalar(
        func, bounds=(lo, hi), method="bounded", options={"xatol": xatol, "maxiter": maxfun}
    )
    return float(res.x), float(res.fun)


def recording(func):
    """func, plus the list of the points it is called at."""
    calls = []

    def wrapped(x):
        calls.append(float(x))
        return func(x)

    return wrapped, calls


SHAPES = {
    "quadratic": lambda c: lambda x: (x - c) ** 2,
    "abs": lambda c: lambda x: abs(x - c),
    "sin": lambda c: lambda x: math.sin(3.0 * x + c),
    "step": lambda c: lambda x: float(x > c),
}


class TestBoundedBrent:
    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.0, max_value=10.0),
        st.floats(min_value=-12.0, max_value=-2.0),
        st.sampled_from(sorted(SHAPES)),
        st.floats(min_value=-0.1, max_value=1.1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scipy(self, lo, width, log_xatol, shape, where):
        # the same calls and the same (x, f) to the bit
        hi, xatol = lo + width, 10.0**log_xatol
        f, calls = recording(SHAPES[shape](lo + where * width))
        g, oracle_calls = recording(SHAPES[shape](lo + where * width))
        assert experiments._bounded_brent(f, lo, hi, xatol) == scipy_bounded(g, lo, hi, xatol)
        assert calls == oracle_calls

    @pytest.mark.parametrize("maxfun", [2, 3, 5])
    def test_stops_at_maxfun(self, maxfun):
        f, calls = recording(SHAPES["sin"](0.3))
        expected = scipy_bounded(f, -4.0, 4.0, 1e-12, maxfun)
        assert len(calls) == maxfun
        calls.clear()
        assert experiments._bounded_brent(f, -4.0, 4.0, 1e-12, maxfun) == expected
        assert len(calls) == maxfun

    @pytest.mark.parametrize("n,p", [(8, 2), (9, 2), (8, 3), (9, 3), (10, 4), (7, 5)])
    def test_minimal_gap_matches_scipy(self, n, p):
        h_center = experiments.CRITICAL_FIELDS.get(p, 1.0)
        expected = scipy_bounded(
            lambda h: dynamical_gap(ProblemSpec(n, p, float(h))),
            0.5 * h_center, 1.5 * h_center, 1e-8,
        )
        assert minimal_gap(n, p, h_center) == expected


def run_fresh(*lines, **env):
    """The standard output lines of ``lines`` run as a program in a fresh
    interpreter that imports pspin_qaoa from this checkout, with the
    environment variables ``env`` on top of this one's."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "\n".join(lines)], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_cold_import_skips_scipy_optimize_and_mpmath():
    # a fresh interpreter: the import cost every CLI run pays, and what a
    # serial gap scan and field sweep import lazily on top of it. LAPACK
    # comes without scipy.linalg's package init, a serial run starts no
    # process pool, and a phase past 2^53 is reduced without mpmath
    lines = run_fresh(
        "import sys, pspin_qaoa, pspin_qaoa.cli",
        "from pspin_qaoa.experiments import ExperimentConfig, run_experiment",
        "rows = run_experiment(ExperimentConfig(kind='gap-scaling', p_exponent=2, n_grid=(8, 16)))",
        "rows += run_experiment(ExperimentConfig(",
        "    kind='field-sweep', n_grid=(8,), depth_grid=(2,), h_grid=(0.5,), scheme='both', n_restarts=1))",
        "print([row.status for row in rows])",
        "from pspin_qaoa.engine import circuit_context",
        "ctx = circuit_context(pspin_qaoa.ProblemSpec(1000, 12, 0.5))",
        "print(1e300 > ctx.exact_gamma, abs(ctx.phase_factors(1e300)).min() > 0.5)",
        "unused = ('scipy.optimize', 'mpmath', 'scipy.linalg', 'concurrent.futures.process')",
        "print(sorted(m for m in unused if m in sys.modules))",
    )
    assert lines == [str(["ok"] * 4), "True True", "[]"]


def test_m_513_does_not_depend_on_the_blas_thread_count():
    # energies and gradients at m = 513, odd p in the whole sector and even
    # p in the block (P = 3, three rows), are bit-identical at 1 and 2
    # OpenBLAS threads: collective X's basis takes no BLAS call, and an
    # (h, h) x (h, 2) GEMM still splits no sum at h <= 513. So are those at
    # m = 1025 where the fold halves the GEMMs to h = 513 (odd p, and even
    # p at even N); unfolded, from h = 1025 on, it does (see the README)
    program = (
        "import hashlib, numpy as np",
        "from pspin_qaoa.engine import energy_and_gradient",
        "from pspin_qaoa.optimizer import r_init",
        "from pspin_qaoa.sector import ProblemSpec",
        "rows = np.array([r_init(3, seed).to_vector() for seed in range(3)])",
        "for n, p in ((512, 3), (1024, 2), (1024, 3), (2048, 2)):",
        "    energies, grads = energy_and_gradient(ProblemSpec(n, p, 0.7), rows)",
        "    print(hashlib.sha256(energies.tobytes() + grads.tobytes()).hexdigest())",
    )
    one, two = (run_fresh(*program, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
    assert len(one) == 4 and one == two


def test_m_1025_agrees_across_blas_thread_counts_within_the_stated_bounds():
    # from h = 1025 (the unfolded block of even p at odd N, N = 2049) the
    # (h, h) x (h, 2) GEMM splits its sums by thread count, so the last bits
    # may move; each run must stay within the bounds that
    # energy_and_gradient states, so two runs may differ by twice them. The
    # folded m = 1025 of N = 1024, p = 3 is held to the same
    for n, p in ((1024, 3), (2049, 2)):
        spec = ProblemSpec(n, p, 0.7)
        rows = np.array([l_init(3, spec, seed=seed).to_vector() for seed in range(2)])
        program = (
            "import json, numpy as np",
            "from pspin_qaoa.engine import energy_and_gradient",
            "from pspin_qaoa.sector import ProblemSpec",
            f"rows = np.array({rows.tolist()!r})",
            f"energies, grads = energy_and_gradient(ProblemSpec({n}, {p}, 0.7), rows)",
            "print(json.dumps([energies.tolist(), grads.tolist()]))",
        )
        (one,), (two,) = (run_fresh(*program, OPENBLAS_NUM_THREADS=threads) for threads in ("1", "2"))
        (e_one, g_one), (e_two, g_two) = (map(np.array, json.loads(line)) for line in (one, two))
        unit = np.finfo(float).eps * engine.cached_spectrum(spec).norm_bound
        phase_term = n**p * np.abs(rows[:, :3]).sum(axis=1)
        assert np.all(np.abs(e_one - e_two) <= 2 * (2 * 3 + phase_term) * unit)
        scale = np.array([float(n**p)] * 3 + [float(n)] * 3)
        assert np.all(np.abs(g_one - g_two) <= 2 * (3 + phase_term[:, None]) * unit * scale)


@pytest.mark.parametrize("first,second", [
    ("pspin_qaoa.sector", "scipy.linalg"), ("scipy.linalg", "pspin_qaoa.sector"),
])
def test_one_lapack_module_whatever_the_import_order(first, second):
    # sector registers the extension under its own name, so scipy.linalg,
    # imported before or after, reads the same module. (Imported after, the
    # package has no attribute _flapack: Python sets a submodule's attribute
    # only when it loads the submodule itself. scipy reads it through
    # scipy.linalg.lapack.)
    lines = run_fresh(
        f"import importlib, sys; importlib.import_module({first!r}); importlib.import_module({second!r})",
        "from pspin_qaoa import sector; import scipy.linalg",
        "flapack = sys.modules['scipy.linalg._flapack']",
        "print(sector.lapack is flapack is scipy.linalg.lapack._flapack)",
        "print(all(getattr(scipy.linalg.lapack, f) is getattr(flapack, f) for f in ('dstebz', 'dstein', 'dstevd')))",
    )
    assert lines == ["True", "True"]


class TestEmit:
    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            kind="scaling", p_exponent=2, n_grid=(5,), depth_grid=(1, 2),
            h_grid=(0.0,), n_restarts=2,
        )
        rows = run_experiment(cfg)
        path = tmp_path / "out.json"
        emit_results(rows, "json", path, cfg)
        cfg2, raw = load_results_json(path)
        assert cfg2 == cfg
        assert len(raw) == len(rows)
        for row, data in zip(rows, raw):
            for key, val in data.items():
                assert getattr(row, key) == val

    def test_json_is_valid_with_nan_rows(self, tmp_path):
        # even N has no closed form: its p1-table row carries nan numbers
        cfg = ExperimentConfig(kind="p1-table", p_exponent=3, n_grid=(6, 7))
        rows = run_experiment(cfg)
        path = tmp_path / "p1.json"
        emit_results(rows, "json", path, cfg)
        payload = strict_json(path.read_text())
        assert payload["rows"][0]["fidelity"] is None
        _, raw = load_results_json(path)
        for row, data in zip(rows, raw):
            for key, val in data.items():
                expected = getattr(row, key)
                if isinstance(expected, float) and math.isnan(expected):
                    assert math.isnan(val)
                else:
                    assert val == expected

    def test_json_failed_row_round_trip(self, tmp_path):
        nan = float("nan")
        row = GapRow(n_sites=8, p_exponent=2, h_at_minimum=nan, minimal_gap=nan,
                     status="failed: boom")
        path = tmp_path / "gap.json"
        emit_results([row], "json", path)
        strict_json(path.read_text())
        _, raw = load_results_json(path)
        assert math.isnan(raw[0]["minimal_gap"])
        assert raw[0]["status"] == "failed: boom"

    def test_json_refuses_infinity(self, tmp_path):
        row = GapRow(n_sites=8, p_exponent=2, h_at_minimum=1.0, minimal_gap=float("inf"))
        path = tmp_path / "inf.json"
        with pytest.raises(ValueError):
            emit_results([row], "json", path)
        assert not path.exists()

    def test_csv_header_and_precision(self, tmp_path):
        rows = synthetic_rows(3.0)
        path = tmp_path / "out.csv"
        emit_results(rows, "csv", path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        assert header[:6] == [
            "n_sites", "p_exponent", "field", "depth", "scheme", "n_restarts",
        ]
        assert len(lines) == 1 + len(rows)
        # 17 significant digits survive the round trip
        first = dict(zip(header, lines[1].split(",")))
        assert float(first["mean_residual"]) == rows[0].mean_residual

    def test_refuses_empty(self, tmp_path):
        with pytest.raises(ValueError):
            emit_results([], "csv", tmp_path / "x.csv")


class TestCli:
    def test_parse_grid(self):
        assert parse_grid("4,6,8", int) == (4, 6, 8)
        assert parse_grid("2:8:2", int) == (2, 4, 6, 8)
        assert parse_grid("0.0:1.0:0.5") == (0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            parse_grid("1:2:3:4", int)
        with pytest.raises(ValueError):
            parse_grid("2:8.5:2", int)
        with pytest.raises(ValueError):
            parse_grid("0:inf:1")

    @pytest.mark.parametrize("text,listed", [
        ("0:1:0.1", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1"),
        ("0.7:1.3:0.3", "0.7,1,1.3"),
        ("1.1:1.5:0.1", "1.1,1.2,1.3,1.4,1.5"),
        ("0:2.5:0.25", "0,0.25,0.5,0.75,1,1.25,1.5,1.75,2,2.25,2.5"),
    ])
    def test_range_equals_comma_list(self, text, listed):
        # each range value is the float its decimal spelling gives
        assert parse_grid(text) == parse_grid(listed)

    def test_scaling_command_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = cli_main(
            [
                "scaling", "--n", "5", "--p-exp", "2", "--depth", "1,2",
                "--h", "0", "--restarts", "2", "--seed", "0",
                "--out", str(out), "--format", "csv",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote 2 rows" in capsys.readouterr().out

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"n_grid": [5], "depth_grid": [1], "h_grid": [0.0], "n_restarts": 5})
        )
        out = tmp_path / "t.json"
        code = cli_main(
            [
                "scaling", "--config", str(cfg_path), "--restarts", "1",
                "--out", str(out), "--format", "json",
            ]
        )
        assert code == 0
        loaded, _ = load_results_json(out)
        assert loaded.n_restarts == 1  # flag beats config file
        assert loaded.n_grid == (5,)

    @pytest.mark.parametrize("content", ["[1, 2]", '"text"', '[["n_grid", [8]]]'])
    def test_config_file_must_hold_an_object(self, content, tmp_path, capsys):
        # a list of pairs would otherwise be read as keys and values
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(content)
        assert cli_main(["gap", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ")
        assert "JSON object" in err

    def test_invalid_config_exit_code(self, capsys):
        assert cli_main(["scaling", "--n", "5", "--scheme", "r", "--restarts", "0"]) == 1
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["scaling", "--n", "0"], ["scaling", "--n", "8.5"], ["gap", "--p-exp", "1"],
        ["field-sweep", "--depth", "0"], ["iters", "--h", "-1"],
        ["field-sweep", "--dt", "nan"], ["field-sweep", "--noise", "-0.1"],
        ["gap", "--workers", "0"],
        ["field-sweep", "--n", "8,12"], ["field-sweep", "--depth", "2,3"],
        ["scaling", "--h", "0,1"], ["iters", "--depth", "2,3"], ["p1-table", "--h", "0,1"],
    ], ids="_".join)
    def test_invalid_grid_exit_code(self, argv, capsys):
        assert cli_main(argv) == 1
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        [], ["bogus"], ["scaling", "--scheme", "z"], ["scaling", "--restarts", "x"],
        ["scaling", "--format", "xml"], ["gap", "--unknown-flag", "1"],
    ], ids=lambda argv: "_".join(argv) or "no-command")
    def test_usage_error_exit_code(self, argv, capsys):
        # exit 2 means failed grid points, so argparse's own exit 2 becomes 1
        assert cli_main(argv) == 1
        assert "usage: pspin-qaoa" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["gap", "--help"]) == 0
        assert "--workers" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "case", ["non-string out_path", "missing directory", "existing directory"]
    )
    def test_bad_out_path_is_refused_before_the_sweep(self, case, tmp_path, monkeypatch, capsys):
        def never(config, point):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr(experiments, "_p1_task", never)
        argv = ["p1-table", "--n", "5", "--p-exp", "2"]
        if case == "non-string out_path":
            cfg_path = tmp_path / "c.json"
            cfg_path.write_text(json.dumps({"out_path": 3}))
            argv += ["--config", str(cfg_path)]
        elif case == "missing directory":
            argv += ["--out", str(tmp_path / "no" / "such" / "x.csv")]
        else:
            argv += ["--out", str(tmp_path)]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith("invalid config: ")

    @pytest.mark.parametrize("error", [OSError("disk full"), ValueError("non-finite value")])
    def test_rows_are_printed_when_the_write_fails(self, error, tmp_path, monkeypatch, capsys):
        def fail(*args):
            raise error

        monkeypatch.setattr(cli_module, "emit_results", fail)
        out = tmp_path / "t.csv"
        assert cli_main(["p1-table", "--n", "5,7", "--p-exp", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert str(error) in captured.err
        assert captured.out.count("status='ok'") == 2
        assert "wrote" not in captured.out and not out.exists()

    def test_p1_table_command(self, capsys):
        code = cli_main(["p1-table", "--n", "5,7", "--p-exp", "2"])
        assert code == 0

    def test_every_subcommand_runs_an_experiment_kind(self):
        (subparsers,) = [
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == set(_KIND_BY_COMMAND)


def readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


class TestReadme:
    """The commands and names the README shows must exist."""

    def test_cli_lines_build_valid_configs(self):
        lines = [
            shlex.split(line, comments=True)
            for block in readme_blocks("sh")
            for line in block.splitlines()
            if line.startswith("pspin-qaoa ")
        ]
        assert len(lines) >= 9
        parser = build_parser()
        for argv in lines:
            args = parser.parse_args(argv[1:])
            # builds the ExperimentConfig, which checks every grid point; runs nothing
            assert config_from_args(args).kind

    def test_library_sketch_imports_exactly_the_exports(self):
        (sketch,) = readme_blocks("python")
        statement = re.search(r"from pspin_qaoa import \(.*?\)", sketch, re.S).group(0)
        namespace = {}
        exec(statement, namespace)
        shown = set(namespace) - {"__builtins__"}
        exported = {
            name for name, value in vars(pspin_qaoa).items()
            if not name.startswith("_") and not inspect.ismodule(value)
        }
        assert shown == exported

    def test_termination_names_are_the_optimizers(self):
        listing = re.search(r"why it stopped \(`termination`\):(.*?)\.\s", README.read_text(), re.S)
        shown = tuple(re.findall(r"`(\w+)`", listing.group(1)))
        assert shown == typing.get_args(optimizer.Termination)
