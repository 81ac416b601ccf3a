"""Repository benchmark for pspin_qaoa.

    python3 bench/run.py --workload {large_n,gap_scan} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``.

``--trace 0`` reports the end-to-end metrics. ``setup_s`` is timed cold:
import of ``pspin_qaoa`` plus the workload's cache entries, in a fresh
interpreter, median of SETUP_REPEATS. ``wall_s`` is timed warm: the caches are
filled first, then whole passes (every ``run_experiment`` call of the
workload and its CSV) repeat while the next one is expected to end within
``--seconds``, and the median pass counts. ``--seed`` is recorded; the
workloads have fixed inputs (see workloads.py).

``--trace 1`` reports the per-layer metrics: one untraced pass, then the
caches are cleared and set-up plus one pass run again with every layer's
public functions wrapped (see tracing.py). Both passes must compute the same
fingerprint. Spans go to ``bench/out/``.

The last line of standard output is the JSON result; the lines before it
record the machine, the fingerprint of what was computed and the checks.
"""

import os

# The GEMV reduction order, and with it every BFGS path, depends on the BLAS
# thread count, so it is pinned before numpy is first imported here or in a
# child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "residual_mean": "ratio",
}

PER_LAYER_UNITS = {
    "sector.dynamical_gap.calls": "count",
    "sector.dynamical_gap.self_s": "s",
    "sector.dynamical_gap.mean_ms": "ms",
    "sector.diagonalize_target.self_s": "s",
    "sector.x_spectral_decomposition.self_s": "s",
    "engine.circuit_context.self_s": "s",
    "engine.energy_and_gradient.calls": "count",
    "engine.energy_and_gradient.self_s": "s",
    "engine.energy_and_gradient.mean_ms": "ms",
    "engine.apply_mixer.calls": "count",
    "engine.apply_mixer.self_s": "s",
    "engine.apply_mixer.computed_gbps": "GB/s",
    "engine.apply_phase.calls": "count",
    "engine.apply_phase.self_s": "s",
    "engine.apply_x.self_s": "s",
    "engine.evaluate.self_s": "s",
    "optimizer.bfgs_minimize.self_s": "s",
    "optimizer.iters": "count",
    "optimizer.evals": "count",
    "optimizer.evals_per_iter": "ratio",
    "optimizer.converged_frac": "ratio",
    "optimizer.optimize.p50_ms": "ms",
    "experiments.run_experiment.self_s": "s",
    "experiments.emit_results.self_s": "s",
    "experiments.emit_results.bytes": "bytes",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("large_n", "gap_scan"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import pspin_qaoa from this checkout's src/ and nowhere else."""
    if not (SRC / "pspin_qaoa" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import pspin_qaoa

    if Path(pspin_qaoa.__file__).resolve().parent != SRC / "pspin_qaoa":
        raise SystemExit(f"benchmark: pspin_qaoa imported from {pspin_qaoa.__file__}")


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time the import and the workload's cache set-up."""
    start = time.perf_counter()
    import_package()
    import workloads

    workloads.build_caches(workloads.configs(workload, seed))
    print(repr(time.perf_counter() - start))


def cold_setup_seconds(workload: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Pass:
    seconds: float
    rows: list  # one row list per config
    starts: list  # Recorder.starts
    evals: int
    csv: bytes


def run_pass(configs, recorder, tmpdir: Path) -> Pass:
    from pspin_qaoa import experiments

    recorder.reset()
    paths, rows = [], []
    start = time.perf_counter()
    for i, cfg in enumerate(configs):
        result = experiments.run_experiment(cfg)
        paths.append(experiments.emit_results(result, "csv", tmpdir / f"{i}.csv"))
        rows.append(result)
    seconds = time.perf_counter() - start
    csv = b"".join(Path(p).read_bytes() for p in paths)
    return Pass(seconds, rows, recorder.starts, recorder.evals, csv)


def fingerprint(p: Pass) -> dict:
    """What a pass computed: equal fingerprints mean equal numbers."""
    results = [r for _, stats in p.starts for r in stats.results]
    if results:
        values = [r.record.residual for r in results]
    else:  # gap scans: the minimal gaps
        values = [row.minimal_gap for rows in p.rows for row in rows]
    return {
        "value_sum": float.hex(float(sum(values))),
        "iters": sum(r.n_iters for r in results),
        "evals": p.evals,
        "csv_sha256": hashlib.sha256(p.csv).hexdigest(),
    }


def _blas_build(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"


def _openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    found = {}
    for path in sorted(glob.glob(str(site / "*.libs" / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": _openblas_threads(),
    }


def end_to_end(workload, seed, seconds, configs, recorder, tmpdir):
    import checks
    import workloads

    setup = cold_setup_seconds(workload, seed)
    workloads.build_caches(configs)
    passes = []
    start = time.perf_counter()
    # Stop before a pass would end past ``seconds``, so a run lasts at most
    # ``seconds`` (or one pass) plus set-up and checks.
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(configs, recorder, tmpdir))
    first = passes[0]
    verdict = checks.check(workload, first.rows, first.starts)
    prints = [fingerprint(p) for p in passes]
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": 1.0 - verdict.failed / verdict.attempted,
        "residual_mean": verdict.residual_mean,
    }
    identical = all(fp == prints[0] for fp in prints)
    record = {
        "pass_seconds": [p.seconds for p in passes],
        "setup_seconds": setup,
        "fingerprint": prints[0],
        "passes_identical": identical,
    }
    return verdict, metrics, record, identical


def per_layer(workload, seed, configs, recorder, tmpdir):
    import checks
    import tracing
    import workloads

    workloads.build_caches(configs)
    plain = run_pass(configs, recorder, tmpdir)
    workloads.clear_caches()
    tracer = tracing.Tracer()
    with contextlib.ExitStack() as stack:
        tracer.instrument(stack)
        tracer.wrap("bench.setup", workloads.build_caches)(configs)
        traced = tracer.wrap("bench.pass", run_pass)(configs, recorder, tmpdir)
    tracer.dump(OUT_DIR / f"{workload}-seed{seed}.spans.jsonl")

    verdict = checks.check(workload, traced.rows, traced.starts)
    fp_plain, fp_traced = fingerprint(plain), fingerprint(traced)
    s = tracer.stats
    results = [r for _, stats in traced.starts for r in stats.results]
    optimize_ms = sorted(1e3 * d for d in tracer.durations("optimizer.optimize"))
    mixer = s["engine.apply_mixer"]

    def mean_ms(name):
        return 1e3 * s[name].total_s / s[name].calls if s[name].calls else 0.0

    metrics = {
        "sector.dynamical_gap.calls": s["sector.dynamical_gap"].calls,
        "sector.dynamical_gap.self_s": s["sector.dynamical_gap"].self_s,
        "sector.dynamical_gap.mean_ms": mean_ms("sector.dynamical_gap"),
        "sector.diagonalize_target.self_s": s["sector.diagonalize_target"].self_s,
        "sector.x_spectral_decomposition.self_s": s["sector.x_spectral_decomposition"].self_s,
        "engine.circuit_context.self_s": s["engine.circuit_context"].self_s,
        "engine.energy_and_gradient.calls": s["engine.energy_and_gradient"].calls,
        "engine.energy_and_gradient.self_s": s["engine.energy_and_gradient"].self_s,
        "engine.energy_and_gradient.mean_ms": mean_ms("engine.energy_and_gradient"),
        "engine.apply_mixer.calls": mixer.calls,
        "engine.apply_mixer.self_s": mixer.self_s,
        "engine.apply_mixer.computed_gbps": mixer.bytes / mixer.self_s / 1e9 if mixer.calls else 0.0,
        "engine.apply_phase.calls": s["engine.apply_phase"].calls,
        "engine.apply_phase.self_s": s["engine.apply_phase"].self_s,
        "engine.apply_x.self_s": s["engine.apply_x"].self_s,
        "engine.evaluate.self_s": s["engine.evaluate"].self_s,
        "optimizer.bfgs_minimize.self_s": s["optimizer.bfgs_minimize"].self_s,
        "optimizer.iters": fp_traced["iters"],
        "optimizer.evals": fp_traced["evals"],
        "optimizer.evals_per_iter": fp_traced["evals"] / fp_traced["iters"] if fp_traced["iters"] else 0.0,
        "optimizer.converged_frac": sum(r.converged for r in results) / len(results) if results else 0.0,
        "optimizer.optimize.p50_ms": statistics.median(optimize_ms) if optimize_ms else 0.0,
        "experiments.run_experiment.self_s": s["experiments.run_experiment"].self_s,
        "experiments.emit_results.self_s": s["experiments.emit_results"].self_s,
        "experiments.emit_results.bytes": len(traced.csv),
        "trace.overhead_s": traced.seconds - plain.seconds,
    }
    record = {
        "untraced_pass_seconds": plain.seconds,
        "traced_pass_seconds": traced.seconds,
        "fingerprint": fp_plain,
        "traced_fingerprint": fp_traced,
        "optimize_samples": len(optimize_ms),
    }
    return verdict, metrics, record, fp_plain == fp_traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_package()
    import tracing
    import workloads

    env = environment()
    print("env " + json.dumps(env), flush=True)
    configs = workloads.configs(args.workload, args.seed)
    recorder = tracing.Recorder()
    OUT_DIR.mkdir(exist_ok=True)
    with contextlib.ExitStack() as stack, tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        recorder.install(stack)
        if args.trace:
            verdict, values, record, consistent = per_layer(
                args.workload, args.seed, configs, recorder, Path(tmp)
            )
            units = PER_LAYER_UNITS
        else:
            verdict, values, record, consistent = end_to_end(
                args.workload, args.seed, args.seconds, configs, recorder, Path(tmp)
            )
            units = END_TO_END_UNITS
    correct = verdict.failed == 0 and consistent
    checks_line = {"attempted": verdict.attempted, "failed": verdict.failed,
                   "consistent": consistent, **verdict.notes}
    print("fingerprint " + json.dumps(record["fingerprint"]), flush=True)
    print("checks " + json.dumps(checks_line), flush=True)
    result = {
        "correct": correct,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"env": env, "args": vars(args), "checks": checks_line,
                    "record": record, "result": result}, indent=1) + "\n"
    )
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
