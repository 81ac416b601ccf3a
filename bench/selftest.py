"""Shows that every benchmark gate is live: clean data passes, and each
corrupted row raises the failed count.

    python3 bench/selftest.py

It also checks that run.py reports exactly the metrics BENCHMARK.json names,
with the same units. Exits 1 on the first mismatch it reports.
"""

import dataclasses
import json
import math
import sys
from types import SimpleNamespace

import run

run.import_package()

import checks  # noqa: E402
from pspin_qaoa import engine, optimizer  # noqa: E402
from pspin_qaoa.experiments import GapRow, SweepRow  # noqa: E402
from pspin_qaoa.sector import ProblemSpec  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def large_n_row(residual):
    return SweepRow(
        n_sites=512, p_exponent=2, field=1.0, depth=4, scheme="l", n_restarts=1,
        mean_residual=residual, std_residual=0.0, sem_residual=0.0,
        min_residual=residual, max_residual=residual, mean_iters=50.0,
        mean_annealing_time=1.0, n_converged=1, collapse_coordinate=0.0, h_critical=math.nan,
    )


def test_large_n():
    spec = ProblemSpec(n_sites=512, p_exponent=2, field=1.0)
    params = optimizer.l_init(4, spec, seed=1)
    result = SimpleNamespace(params_star=params, record=engine.evaluate(spec, params))
    row = large_n_row(result.record.residual)
    key = (512, 2, 1.0, 4, "l")
    good = [(key, SimpleNamespace(results=(result,)))]
    expect(checks.check_large_n([row], good).failed == 0, "large_n: engine energy matches the oracle")
    failed_row = dataclasses.replace(row, status="failed: boom")
    expect(checks.check_large_n([failed_row], good).failed == 1, "large_n: a failed grid point counts")
    record = dataclasses.replace(result.record, energy=result.record.energy * (1 + 1e-7))
    bad = [(key, SimpleNamespace(results=(SimpleNamespace(params_star=params, record=record),)))]
    expect(checks.check_large_n([row], bad).failed == 1, "large_n: an energy off by 1e-7 fails")
    expect(checks.check_large_n([row], []).failed == 1, "large_n: a point with no restarts fails")


def gap_rows(p2_slope=-1 / 3, p3_rate=-0.07):
    p2 = [GapRow(n, 2, 1.0, 3.0 * n**p2_slope) for n in (128, 256, 512, 768, 1024)]
    p3 = [GapRow(n, 3, 1.3, 2.0 * math.exp(p3_rate * n)) for n in range(16, 129, 8)]
    return [p2, p3]


def test_gap_scan():
    expect(checks.check_gap_scan(gap_rows()).failed == 0, "gap_scan: clean rows pass")
    expect(checks.check_gap_scan(gap_rows(p2_slope=-0.6)).failed == 5, "gap_scan: a p=2 exponent of -0.6 fails")
    expect(checks.check_gap_scan(gap_rows(p3_rate=0.01)).failed == 15, "gap_scan: a rising p=3 gap fails")
    rows = gap_rows()
    rows[1][4] = dataclasses.replace(rows[1][4], minimal_gap=math.nan, status="failed: boom")
    expect(checks.check_gap_scan(rows).failed >= 1, "gap_scan: a failed grid point counts")


def test_metric_names():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, units in (("end_to_end", run.END_TO_END_UNITS), ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        expect(declared == units, f"BENCHMARK.json {key} matches run.py")


if __name__ == "__main__":
    test_large_n()
    test_gap_scan()
    test_metric_names()
    sys.exit(1 if FAILURES else 0)
