"""The benchmark in bench/ patches and calls names of the package from
outside it. These tests fail when such a name is renamed or removed, instead
of a benchmark run failing later. They read bench/ and change nothing in it."""

import contextlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from pspin_qaoa import engine, experiments, optimizer, sector
from pspin_qaoa.experiments import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_selftest_passes():
    out = subprocess.run(
        [sys.executable, str(BENCH / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stdout + out.stderr


def test_trace_wrappers_install_count_and_restore():
    tracing = load_bench_module("tracing")

    def patched_names():
        return (
            experiments.dynamical_gap, experiments.minimal_gap, experiments.multi_start,
            optimizer.optimize, optimizer.bfgs_minimize, optimizer.energy_and_gradient,
            engine.CircuitContext.apply_mixer,
        )

    originals = patched_names()
    tracer, recorder = tracing.Tracer(), tracing.Recorder()
    with contextlib.ExitStack() as stack:
        tracer.instrument(stack)
        recorder.install(stack)
        experiments.run_experiment(ExperimentConfig(kind="gap-scaling", p_exponent=2, n_grid=(8, 16)))
        # the optimizer wrappers pass their arguments through to the package
        (row,) = experiments.run_experiment(ExperimentConfig(
            kind="field-sweep", p_exponent=2, n_grid=(4,), depth_grid=(1,),
            h_grid=(0.5,), n_restarts=1,
        ))
    assert tracer.stats["sector.dynamical_gap"].calls > 0
    assert row.status == "ok"
    assert recorder.evals > 0
    for name in ("optimizer.optimize", "optimizer.bfgs_minimize", "optimizer.objective",
                 "engine.energy_and_gradient"):
        assert tracer.stats[name].calls > 0, name
    assert tracer.stats["engine.energy_and_gradient"].calls == recorder.evals
    assert [key for key, _ in recorder.starts] == [(4, 2, 0.5, 1, "r")]
    assert patched_names() == originals
    assert experiments.dynamical_gap is sector.dynamical_gap


def test_workload_caches_fill_and_clear():
    # a cache that bench/workloads.py names but cannot clear would crash
    # only a traced benchmark run
    workloads = load_bench_module("workloads")
    for name in workloads.WORKLOADS:
        workloads.build_caches(workloads.configs(name, 0))
    assert engine.circuit_context.cache_info().currsize > 0
    assert engine.cached_spectrum.cache_info().currsize > 0
    workloads.clear_caches()
    assert engine.circuit_context.cache_info().currsize == 0
    assert engine.cached_spectrum.cache_info().currsize == 0


def test_recorded_evals_count_lockstep_rounds():
    # the restarts of a grid point share each energy/gradient call, so the
    # benchmark's evaluation count is the number of lock-step rounds: the
    # largest count any one restart asked for
    tracing = load_bench_module("tracing")
    tracer, recorder = tracing.Tracer(), tracing.Recorder()
    with contextlib.ExitStack() as stack:
        tracer.instrument(stack)
        recorder.install(stack)
        (row,) = experiments.run_experiment(ExperimentConfig(
            kind="field-sweep", p_exponent=2, n_grid=(8,), depth_grid=(2,),
            h_grid=(0.5,), n_restarts=3,
        ))
    assert row.status == "ok"
    ((_, stats),) = recorder.starts
    assert len(stats.results) == 3
    assert tracer.stats["optimizer.optimize"].calls == 1
    assert recorder.evals == tracer.stats["engine.energy_and_gradient"].calls
    assert recorder.evals == max(r.n_evals for r in stats.results)
