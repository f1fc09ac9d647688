"""Self-test of the benchmark at tiny sizes (about a minute).

Run from the repository root: ``python3 perfbench/selftest.py``.  It checks

* that every workload, untraced and traced, emits every metric named in
  ``BENCHMARK.json`` with its unit, as the last line of standard output;
* that corrupted outputs trip the correctness checks: a model-quality
  figure past its bar, a value that differs from its pin, and a wrong or
  malformed HTTP answer;
* that a directory holding only ``BENCHMARK.json`` and the benchmark exits
  with an error and prints no result.

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import http_load  # noqa: E402
import run  # noqa: E402
from cells import CELLS, CheckFailed, check_quality  # noqa: E402


def expect_check_failure(action, what: str) -> None:
    try:
        action()
    except CheckFailed:
        return
    raise AssertionError(f"a corrupted {what} passed the correctness check")


def check_emission() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
            ]
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True, timeout=300
            )
            assert done.returncode == 0, f"{workload} trace {trace}: {done.stderr}"
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True and result["attempted"] >= 1
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace {trace}: {sorted(set(want) ^ set(got))}"
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), f"{workload} {name} is not finite"
            print(f"ok: {workload} --trace {trace} emits {len(want)} metrics", flush=True)


def check_corruption() -> None:
    validation, recovery = CELLS["validation-cell"], CELLS["hostile-recovery"]
    good = {"observations": 10, "consistency_rmse_pct": 0.5}
    check_quality(validation, [good])
    expect_check_failure(
        lambda: check_quality(validation, [dict(good, consistency_rmse_pct=1.5)]), "RMSE"
    )
    expect_check_failure(
        lambda: check_quality(recovery, [{"observations": 10, "recovered_fraction": 0.3}]),
        "recovered fraction",
    )
    expect_check_failure(
        lambda: check_quality(validation, [dict(good, observations=0)]), "observation count"
    )

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as scratch:
        run.CHECKOUT_PINS = Path(scratch) / "pins.json"
        run.check_pins("selftest/1", {0: {"cluster.events": 7, "rmse": 0.25}})
        run.check_pins("selftest/1", {0: {"cluster.events": 7, "rmse": 0.25}})
        expect_check_failure(
            lambda: run.check_pins("selftest/1", {0: {"cluster.events": 8}}), "pinned count"
        )
        expect_check_failure(
            lambda: run.check_pins("selftest/1", {0: {"rmse": 0.2500001}}), "pinned figure"
        )

    fingerprints = {tenant: f"fp-{tenant}" for tenant in http_load.TENANTS}
    checker = http_load.AnswerChecker(fingerprints, "fp-drift-1")
    request = http_load.predict_request("ymmr", (3, 1, 1))
    answer = {
        "tenant": "ymmr",
        "config": {"n": 3, "r": 1, "w": 1},
        "fingerprint": "fp-ymmr",
        "consistency_at_commit": 0.5,
        "t_visibility_ms": {"0.99": 1.0, "0.999": 2.0},
        "read_latency_ms": {"50.0": 1.0, "95.0": 2.0, "99.0": 3.0, "99.9": 4.0},
        "write_latency_ms": {"50.0": 1.0, "95.0": 2.0, "99.0": 3.0, "99.9": 4.0},
        "degraded": False,
    }

    def sample(body, status=200, req=request):
        return http_load.Sample(req, 0.0, 0.0, 0.001, status, json.dumps(body).encode())

    assert checker.problem(sample(answer)) is None
    for corrupt in (
        dict(answer, fingerprint="fp-other"),
        dict(answer, degraded=True),
        {k: v for k, v in answer.items() if k != "read_latency_ms"},
        dict(answer, consistency_at_commit=0.25),  # differs from the first answer
    ):
        assert checker.problem(sample(corrupt)) is not None, corrupt
    assert checker.problem(sample(answer, status=500)) is not None
    refit = http_load.REFIT
    assert checker.problem(sample({"tenant": "drift", "fingerprint": "fp-drift-1"}, req=refit))
    # The predict probe after a refit that failed on the wire.
    probe = sample(
        dict(answer, tenant="drift", fingerprint="fp-drift-1"),
        req=http_load.predict_request("drift", (3, 1, 1)),
    )
    probe.after_refit = http_load.Sample(refit, 0.0, 0.0, 0.001, 0, b"ConnectionResetError()")
    assert checker.problem(probe) is not None

    # The served answer itself differs from the in-process predictor's.
    from repro.core.quorum import ReplicaConfig
    from repro.serving.service import PredictorService

    checker = http_load.AnswerChecker(fingerprints, "fp-drift-1")
    service = PredictorService()
    for tenant in http_load.STATIC_TENANTS:
        checker.fingerprints[tenant] = service.register_tenant(tenant, http_load.TENANTS[tenant])
        served = service.predict(tenant, ReplicaConfig(3, 1, 1)).to_dict()
        checker.answers[(tenant, (3, 1, 1), served["fingerprint"])] = json.loads(json.dumps(served))
    checker.compare_in_process()
    key = next(iter(checker.answers))
    checker.answers[key]["consistency_at_commit"] += 1e-12
    expect_check_failure(checker.compare_in_process, "served predict answer")
    print("ok: corrupted outputs trip the checks", flush=True)


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
        )
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "validation-cell",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert done.returncode != 0 and not done.stdout.strip(), done.stdout
    print("ok: a directory without the program fails without a result", flush=True)


def main() -> int:
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    check_corruption()
    check_bare_directory()
    check_emission()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
