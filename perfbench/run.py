"""The repository's benchmark: one command, three workloads, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload validation-cell --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
with no instrumentation; ``--trace 1`` is a separate run that installs span
timers around the program's layer boundaries (from this directory only) and
reports the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A failed output
check prints the reason on standard error and exits with status 1; a
checkout without the program's sources exits with status 2.

Seeds: every input is generated from ``--seed``.  Values that must repeat
exactly at a seed (counts and the model-quality figures) are pinned: those
of the seeds in ``pins.json`` are committed, and any other seed's are
recorded in ``.bench_build/perfbench-pins.json`` on first sight and checked
on every later run in the same checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Every workload is serial: numpy's BLAS gets one thread here and in every
# process started from here, so its pool neither spins on the machine's other
# core (the HTTP load generator's, on serving-http) nor adds scheduling noise.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

#: The processors the benchmark may use, read before it pins itself.  Each
#: process it runs is held on one of them: an in-process workload on the
#: last; on serving-http, the server on the last and the load generator on
#: the first, so neither is moved onto the core the other is using.
CPUS = sorted(os.sched_getaffinity(0))

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COMMITTED_PINS = HERE / "pins.json"
CHECKOUT_PINS = ROOT / ".bench_build" / "perfbench-pins.json"
#: Fresh interpreters timed for one set-up figure (median reported).
SETUP_PROBES = 5
#: Share (%) of a public call the layer spans must cover in a traced run;
#: below it, the spans no longer describe where the call's time goes.
COVERAGE_BAR_PCT = 95.0


def _metric_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


# ---------------------------------------------------------------------------
# Pinned values.
# ---------------------------------------------------------------------------


def _same(pinned, value) -> bool:
    if isinstance(pinned, int) and isinstance(value, int):
        return pinned == value
    # Floats are compared to 1e-9 relative, robust to last-bit differences
    # between vectorised math libraries, far below any real change.
    return math.isclose(pinned, value, rel_tol=1e-9, abs_tol=0.0)


def check_pins(key: str, calls: dict) -> None:
    """Compare ``calls`` (call index -> pinned outputs) with earlier runs.

    Values are looked up in ``pins.json`` (committed seeds) and in the
    checkout store; any difference raises :class:`CheckFailed`.  Values
    neither holds are recorded in the checkout store, from which a new
    seed's entries are copied into ``pins.json`` when it is committed.
    """
    from cells import CheckFailed

    committed = json.loads(COMMITTED_PINS.read_text()) if COMMITTED_PINS.exists() else {}
    store = json.loads(CHECKOUT_PINS.read_text()) if CHECKOUT_PINS.exists() else {}
    changed = False
    for index, outputs in calls.items():
        earlier = dict(store.get(key, {}).get(str(index), {}))
        earlier.update(committed.get(key, {}).get(str(index), {}))
        for name, value in outputs.items():
            if name in earlier:
                if not _same(earlier[name], value):
                    raise CheckFailed(
                        f"{key} call {index}: {name} is {value}, pinned {earlier[name]}"
                    )
            else:
                store.setdefault(key, {}).setdefault(str(index), {})[name] = value
                changed = True
    if changed:
        CHECKOUT_PINS.parent.mkdir(parents=True, exist_ok=True)
        temporary = CHECKOUT_PINS.with_suffix(".tmp")
        temporary.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")
        temporary.replace(CHECKOUT_PINS)


# ---------------------------------------------------------------------------
# Workload runs.
# ---------------------------------------------------------------------------


def _probe_seconds(workload: str) -> float:
    """Wall time of a fresh interpreter importing the workload and making a first call."""
    started = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), workload], cwd=ROOT, check=True)
    return time.perf_counter() - started


def run_cell(name: str, seed: int, seconds: float, trace: bool, writes: int | None = None) -> dict:
    from cells import CELLS, check_quality, measure, measure_traced

    os.sched_setaffinity(0, {CPUS[-1]})
    workload = CELLS[name]
    writes = writes or workload.writes
    key = f"{name}/{writes}/{seed}"
    if trace:
        result = measure_traced(workload, seed, seconds, writes)
        metrics = result["metrics"]
        first = result["calls"][0]
        metrics["analysis.consistency_rmse_pct"] = first.get("consistency_rmse_pct", 0.0)
        metrics["faults.recovered_fraction"] = first.get("recovered_fraction", 0.0)
        # analysis.observations and faults.harvested_samples are the call
        # outputs "observations" and "harvested_samples", pinned already.
        pinned = {index: call for index, call in enumerate(result["calls"])}
        pinned[0] = dict(pinned[0], **{
            name: metrics[name]
            for name in (
                "cluster.events",
                "cluster.trace_rows",
                "analytic.ppf_calls",
                "faults.modulated_draws",
            )
        })
        attempted = 2 * len(result["calls"])
        if metrics["trace.coverage_pct"] < COVERAGE_BAR_PCT:
            raise CheckFailed(
                f"layer spans cover {metrics['trace.coverage_pct']:.1f}% of the calls, "
                f"below {COVERAGE_BAR_PCT}%", attempted, 0,
            )
    else:
        # The set-up probes run between the timed calls, so the host's
        # slower and faster spells reach set-up and calls alike.
        probes: list[float] = []

        def probe() -> None:
            if len(probes) < SETUP_PROBES:
                probes.append(_probe_seconds(name))

        result = measure(workload, seed, seconds, writes, between=probe)
        while len(probes) < SETUP_PROBES:
            probe()
        metrics = {name: result[name] for name in (
            "throughput_per_s", "latency_p50_ms", "peak_rss_mb"
        )}
        metrics["setup_s"] = statistics.median(probes)
        pinned = dict(enumerate(result["calls"]))
        attempted = len(result["calls"])
        walls = ", ".join(f"{wall:.3f}" for wall in result["walls"])
        print(f"{name}: {attempted} calls of {writes} writes, wall s: {walls}", file=sys.stderr)
    check_quality(workload, result["calls"], bars=writes == workload.writes)
    check_pins(key, pinned)
    return {"attempted": attempted, "failed": 0, "metrics": metrics}


def run_http(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    import http_load
    from cells import CheckFailed

    os.sched_setaffinity(0, {CPUS[0]})
    sizes = http_load.TINY if tiny else http_load.FULL
    if trace:
        result = http_load.measure_traced(seed, seconds, sizes)
        metrics = result["metrics"]
    else:
        result = http_load.measure(seed, seconds, sizes)
        metrics = {name: result[name] for name in (
            "throughput_per_s", "latency_p50_ms", "peak_rss_mb", "setup_s"
        )}
    attempted = sum(len(rung.samples) for rung in result["rungs"])
    failed = sum(rung.failed for rung in result["rungs"])
    for label, rung in zip(result["labels"], result["rungs"]):
        sent = len(rung.samples)
        print(
            f"serving-http {label}: sent {sent}, succeeded {sent - rung.failed}, "
            f"failed {rung.failed}, round-trip p50 {rung.round_trip_ms(0.5):.3f} ms, "
            f"p50 from due {rung.percentile_ms(0.5):.3f} ms, "
            f"p99 from due {rung.percentile_ms(0.99):.3f} ms",
            file=sys.stderr,
        )
    problems = [p for checker in result["checkers"] for p in checker.problems]
    if problems:
        raise CheckFailed(
            f"{failed} of {attempted} requests failed; first: {problems[0]}", attempted, failed
        )
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object (metrics with units)."""
    end_to_end, per_layer = _metric_units()
    if workload == "serving-http":
        outcome = run_http(seed, seconds, trace, tiny)
    else:
        outcome = run_cell(workload, seed, seconds, trace, 200 if tiny else None)
    units = per_layer if trace else end_to_end
    values = outcome["metrics"]
    missing = sorted(set(units) - set(values))
    # Layers a workload never enters report zero work and zero time.
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    if not trace and missing:
        raise RuntimeError(f"end-to-end metrics not measured: {missing}")
    return {
        "correct": True,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("validation-cell", "hostile-recovery", "serving-http"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="self-test sizes: every phase runs, the figures mean nothing",
    )
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from cells import CheckFailed

    try:
        result = run(
            args.workload, args.seed, float(args.seconds), bool(args.trace),
            tiny=args.tiny,
        )
    except CheckFailed as error:
        print(f"check failed: {error}", file=sys.stderr)
        print(json.dumps({
            "correct": False, "attempted": error.attempted, "failed": error.failed, "metrics": {},
        }))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
