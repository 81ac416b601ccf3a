"""The benchmark's workloads: which sweeps run and which caches they read.

Each workload is a tuple of ``ExperimentConfig``s run serially through
``experiments.run_experiment``. Every workload has fixed inputs: the benchmark
seed is accepted and recorded but chooses nothing (see ``_large_n``). This
module imports nothing but the package, because the set-up probe times its
import.
"""

from __future__ import annotations

from pspin_qaoa import engine, sector
from pspin_qaoa.experiments import ExperimentConfig
from pspin_qaoa.sector import ProblemSpec


def _large_n(seed: int) -> tuple[ExperimentConfig, ...]:
    # ~500 evaluations on 513-amplitude states: the mixer GEMVs dominate.
    # The seed is ignored: two restarts do not average out the start point,
    # and over base seeds 1..10 one pass needed 393 to 682 evaluations, so a
    # seeded pass would time the draw more than the code.
    return (
        ExperimentConfig(
            kind="field-sweep", p_exponent=2, n_grid=(512,), depth_grid=(4,),
            h_grid=(1.0,), scheme="l", n_restarts=2, base_seed=0,
        ),
    )


def _gap_scan(seed: int) -> tuple[ExperimentConfig, ...]:
    # Only sector.dynamical_gap: dense eigh of the reflection-even block for
    # p = 2, eigh_tridiagonal for p = 3. Nothing here is random.
    return (
        ExperimentConfig(
            kind="gap-scaling", p_exponent=2, n_grid=(128, 256, 512, 768, 1024),
        ),
        ExperimentConfig(
            kind="gap-scaling", p_exponent=3, n_grid=tuple(range(16, 129, 8)),
        ),
    )


WORKLOADS = {"large_n": _large_n, "gap_scan": _gap_scan}


def configs(workload: str, seed: int) -> tuple[ExperimentConfig, ...]:
    return WORKLOADS[workload](seed)


def build_caches(configs: tuple[ExperimentConfig, ...]) -> None:
    """Fill the lru caches a sweep reads: the circuit context (and through it
    the collective-X eigendecomposition) and the target spectrum of every
    (N, p, h) the sweep visits. Gap scans read no cache."""
    for cfg in configs:
        if cfg.kind == "gap-scaling":
            continue
        for n in cfg.n_grid:
            for h in cfg.h_grid:
                spec = ProblemSpec(n_sites=n, p_exponent=cfg.p_exponent, field=h)
                engine.circuit_context(spec)
                engine.cached_spectrum(spec)


def clear_caches() -> None:
    """Drop every cache entry ``build_caches`` fills, so it runs cold again.
    Call it before any of these names is patched."""
    engine.circuit_context.cache_clear()
    engine.cached_spectrum.cache_clear()
    sector.x_spectral_decomposition.cache_clear()
