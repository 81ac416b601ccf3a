"""Counters and spans around calls into the package, installed from outside it.

Every wrapper is patched onto the name its caller looks up (``module.name``,
or a method of ``CircuitContext``) and passes arguments and results through
unchanged, so the package is not edited and its results do not move.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from collections import defaultdict
from dataclasses import dataclass


@contextlib.contextmanager
def patched(target, attr: str, replacement):
    """Bind ``target.attr`` to ``replacement`` for the duration of the block."""
    original = getattr(target, attr)
    setattr(target, attr, replacement)
    try:
        yield
    finally:
        setattr(target, attr, original)


class Recorder:
    """What a pass computed: every multi-start result and the number of
    energy/gradient evaluations. Plain bookkeeping with no clock; it stays
    installed in untraced runs, where it adds one Python call per evaluation."""

    def __init__(self):
        self.starts: list[tuple[tuple, object]] = []  # ((n, p, h, depth, scheme), stats)
        self.evals = 0

    def reset(self) -> None:
        self.starts, self.evals = [], 0

    def install(self, stack: contextlib.ExitStack) -> None:
        from pspin_qaoa import experiments, optimizer

        multi_start = experiments.multi_start
        energy_and_gradient = optimizer.energy_and_gradient

        def recorded_multi_start(spec, depth, scheme, *args, **kwargs):
            stats = multi_start(spec, depth, scheme, *args, **kwargs)
            key = (spec.n_sites, spec.p_exponent, spec.field, depth, scheme.tag())
            self.starts.append((key, stats))
            return stats

        def counted_energy_and_gradient(*args, **kwargs):
            self.evals += 1
            return energy_and_gradient(*args, **kwargs)

        stack.enter_context(patched(experiments, "multi_start", recorded_multi_start))
        stack.enter_context(
            patched(optimizer, "energy_and_gradient", counted_energy_and_gradient)
        )


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    bytes: int = 0


class Tracer:
    """Spans with parent links and self time, kept in memory until ``dump``.

    A span's self time is its duration minus the durations of the traced
    calls made inside it. Spans of the ``apply_*`` kernels (``log=False``)
    are only summed per name: one large_n pass makes about 6000 calls of each.
    """

    def __init__(self):
        self.stats: defaultdict[str, LayerStat] = defaultdict(LayerStat)
        self.spans: list[tuple] = []  # (id, parent id, name, start, end, self seconds)
        self._stack: list[list] = []  # open spans: [id, seconds covered by children]
        self._ids = itertools.count()

    def wrap(self, name: str, fn, log: bool = True, nbytes=None):
        """``fn`` recording one span per call; ``nbytes(*args)`` adds to the
        layer's byte count."""
        stat = self.stats[name]
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            frame = [next(ids) if log else -1, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                stat.calls += 1
                stat.total_s += duration
                stat.self_s += own
                if nbytes is not None:
                    stat.bytes += nbytes(*args)
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += duration
                if log:
                    spans.append(
                        (frame[0], parent[0] if parent else None, name, start, end, own)
                    )

        return traced

    def durations(self, name: str) -> list[float]:
        return [end - start for _, _, span_name, start, end, _ in self.spans if span_name == name]

    def instrument(self, stack: contextlib.ExitStack) -> None:
        """Patch the hot-path layers: sector, engine, optimizer, experiments."""
        from pspin_qaoa import engine, experiments, optimizer, sector

        def mixer_bytes(ctx, state, beta):
            # two real (N+1)^2 float64 GEMV reads per call
            return 2 * 8 * (ctx.spec.n_sites + 1) ** 2

        def with_traced_objective(bfgs_minimize):
            def traced_bfgs(objective, *args, **kwargs):
                return bfgs_minimize(self.wrap("optimizer.objective", objective), *args, **kwargs)

            return traced_bfgs

        targets = (
            (experiments, "run_experiment", "experiments.run_experiment", True, None),
            (experiments, "emit_results", "experiments.emit_results", True, None),
            (experiments, "multi_start", "optimizer.multi_start", True, None),
            (experiments, "minimal_gap", "experiments.minimal_gap", True, None),
            (experiments, "dynamical_gap", "sector.dynamical_gap", True, None),
            (sector, "diagonalize_target", "sector.diagonalize_target", True, None),
            (engine, "diagonalize_target", "sector.diagonalize_target", True, None),
            (engine, "x_spectral_decomposition", "sector.x_spectral_decomposition", True, None),
            (optimizer, "optimize", "optimizer.optimize", True, None),
            (optimizer, "energy_and_gradient", "engine.energy_and_gradient", True, None),
            (optimizer, "evaluate", "engine.evaluate", True, None),
            (engine, "circuit_context", "engine.circuit_context", True, None),
            (engine.CircuitContext, "apply_phase", "engine.apply_phase", False, None),
            (engine.CircuitContext, "apply_mixer", "engine.apply_mixer", False, mixer_bytes),
            (engine.CircuitContext, "apply_x", "engine.apply_x", False, None),
        )
        for target, attr, name, log, nbytes in targets:
            wrapped = self.wrap(name, getattr(target, attr), log=log, nbytes=nbytes)
            stack.enter_context(patched(target, attr, wrapped))
        bfgs = optimizer.bfgs_minimize
        traced_bfgs = self.wrap("optimizer.bfgs_minimize", with_traced_objective(bfgs))
        stack.enter_context(patched(optimizer, "bfgs_minimize", traced_bfgs))

    def dump(self, path) -> None:
        """Write a header, every logged span as one JSON array, then the
        per-layer totals."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"columns": ["id", "parent", "name", "start", "end", "self_s"]}))
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            totals = {name: vars(stat) for name, stat in sorted(self.stats.items())}
            fh.write(json.dumps({"totals": totals}) + "\n")
