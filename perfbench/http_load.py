"""The ``serving-http`` workload: an open-loop load on ``pbs-repro serve``.

The server runs in its own process: the CLI's ``serve`` command for the
untraced run, :mod:`traced_server` for the traced one.  This process is the
load generator: at most :data:`CONNECTIONS` requests in flight, one HTTP/1.0
connection per request (the server closes each), sent on a seeded Poisson
schedule whatever the server's pace.  The median latency is each request's
round trip, from sending it to the last byte of the answer.  The tail
(``serving.http_p99_ms``) runs from the time a request was *due*, so a stall
also counts against the requests queued behind it.

Traffic: ``GET predict`` over four tenants (three production fits plus a
``drift`` tenant that learns from observations) × the nine N=3 quorum
shapes; ``GET recommend`` over three SLA targets; ``POST observations``
batches into the drift tenant; and a ``POST refit`` of the drift tenant
every :data:`REFIT_EVERY_S` (the first at :data:`REFIT_FIRST_S`), each
followed at once by a ``predict`` probe whose answer must carry the new
fingerprint.  Every refit retires the drift tenant's cached answers, so
about one request in two hundred misses the cache and queues a Monte Carlo
spot check on the server.

The base rung (:data:`BASE_RATE` requests/s) gives the latency figures and
the throughput.  Its median is not timed from due time: the time a request is
sent late by the generator's own timer wake-up is the generator's cost, and
over six-seed sets it took the median's spread (IQR/median) from 0.07 for the
round trip to 0.20 from due time.  Throughput is requests answered per
CPU-second of the server process over the rung, spot checks and rebuilds
included.  The server serialises Python work on one interpreter lock, so
this is the request rate one core sustains with this mix.  Two alternatives move too much between runs on a 2-core
machine: the highest open-loop rung meeting a p99 limit (by a whole rung,
15-30%) and the completion rate with both connections kept busy (30-60%,
since it also times the generator and whatever else shares the two cores).
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from cells import CheckFailed

ROOT = Path(__file__).resolve().parent.parent
#: The server process runs on the last processor this process may use,
#: read at import, before run.py holds this process on the first.
SERVER_CPU = max(os.sched_getaffinity(0))

#: Tenant name -> production fit it is registered with.
TENANTS = {
    "lnkd-ssd": "LNKD-SSD",
    "lnkd-disk": "LNKD-DISK",
    "ymmr": "YMMR",
    "drift": "LNKD-DISK",
}
#: Tenants never refitted: their answers are checked against in-process ones.
STATIC_TENANTS = ("lnkd-ssd", "lnkd-disk", "ymmr")
DRIFT = "drift"
CONFIGS = tuple((3, r, w) for r in (1, 2, 3) for w in (1, 2, 3))
TARGETS = (
    "read_latency_ms=10&t_visibility_ms=20",
    "read_latency_ms=5&t_visibility_ms=50",
    "read_latency_ms=20&t_visibility_ms=10",
)
#: Mean (ms) of the exponential latencies the drift tenant observes per leg.
LEG_MEANS_MS = {"W": 30.0, "A": 8.0, "R": 8.0, "S": 8.0}
OBSERVATION_BATCH = 64
#: Values per leg sent before timing starts, enough to fill the reservoirs.
PREFILL_PER_LEG = 4_096
#: Share of requests by kind (refits are scheduled apart).
MIX = (("predict", 0.90), ("recommend", 0.06), ("observations", 0.04))

CONNECTIONS = 2
#: The base rung's rate.  An idle processor of a virtual machine wakes
#: slowly and unevenly, and the latency from due time carries that: over
#: six-seed sets the rung's median from due time spread (IQR/median) 0.43
#: at 100 requests/s, 0.07-0.38 at 200, 0.16 at 400 and 0.37 at 800, where
#: queueing took over.
BASE_RATE = 400.0
#: Each refit stalls both connections while the drift environment is rebuilt
#: (about 0.4-1 s).  At 200 requests/s and 6 s apart, 14-17% of a rung's
#: requests queued behind the stalls and the rung's median moved with the
#: stall's length; at 12 s apart they were 3-7%, so the median is the
#: unstalled service and the p99 the stall.  The first refit comes early enough for a short rung to make one.
REFIT_FIRST_S = 2.0
REFIT_EVERY_S = 12.0

PREDICT_KEYS = {
    "tenant",
    "config",
    "fingerprint",
    "consistency_at_commit",
    "t_visibility_ms",
    "read_latency_ms",
    "write_latency_ms",
    "degraded",
}
RECOMMEND_KEYS = {"tenant", "fingerprint", "best", "evaluations"}


# ---------------------------------------------------------------------------
# HTTP plumbing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    kind: str
    method: str
    path: str
    body: bytes = b""
    #: Tenant and (n, r, w) of a predict, for the answer checks.
    tenant: str = ""
    config: tuple = ()
    ingested: int = 0

    def raw(self) -> bytes:
        head = (
            f"{self.method} {self.path} HTTP/1.0\r\nHost: localhost\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(self.body)}\r\n\r\n"
        )
        return head.encode() + self.body


def exchange(port: int, request: Request) -> tuple[int, bytes]:
    """Send one request on a fresh connection; return (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
        sock.sendall(request.raw())
        chunks = []
        while True:
            chunk = sock.recv(65_536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), body


def call_json(port: int, request: Request) -> dict:
    status, body = exchange(port, request)
    if status != 200:
        raise CheckFailed(f"{request.method} {request.path} answered {status}: {body!r}")
    return json.loads(body)


def predict_request(tenant: str, config: tuple) -> Request:
    n, r, w = config
    return Request(
        "predict", "GET", f"/tenants/{tenant}/predict?n={n}&r={r}&w={w}",
        tenant=tenant, config=config,
    )


def recommend_request(tenant: str, target: str) -> Request:
    return Request("recommend", "GET", f"/tenants/{tenant}/recommend?{target}", tenant=tenant)


def observations_request(leg: str, values: list[float]) -> Request:
    body = json.dumps({"leg": leg, "values": values}).encode()
    return Request(
        "observations", "POST", f"/tenants/{DRIFT}/observations", body,
        tenant=DRIFT, ingested=len(values),
    )


REFIT = Request("refit", "POST", f"/tenants/{DRIFT}/refit", tenant=DRIFT)


# ---------------------------------------------------------------------------
# The server process.
# ---------------------------------------------------------------------------


class Server:
    """One server process; ``traced`` selects the span-recording launcher."""

    def __init__(self, traced: bool) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        if traced:
            command = [sys.executable, str(ROOT / "perfbench" / "traced_server.py")]
        else:
            command = [sys.executable, "-m", "repro.cli", "serve", "--port", "0"]
        self.traced = traced
        self.process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            preexec_fn=functools.partial(os.sched_setaffinity, 0, {SERVER_CPU}),
        )
        line = self.process.stdout.readline()
        if "serving on http://" not in line:
            self.stop()
            raise CheckFailed(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server process has used."""
        with open(f"/proc/{self.process.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise CheckFailed("server peak RSS is unavailable")

    def stop(self) -> dict | None:
        """Stop the server and wait for it (idempotent); the traced server
        returns its span report the first time."""
        report = None
        try:
            if self.process.poll() is None and self.traced:
                self.process.stdin.write("stop\n")
                self.process.stdin.flush()
                out, _ = self.process.communicate(timeout=30.0)
                report = json.loads(out.strip().splitlines()[-1])
            elif self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                self.process.communicate(timeout=10.0)
        except (OSError, subprocess.TimeoutExpired):
            pass  # A signal or the pipe was lost: the process is killed below.
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
        return report

    def reset_spans(self) -> None:
        self.process.stdin.write("reset\n")
        self.process.stdin.flush()


def start_ready_server(traced: bool) -> tuple[Server, float, dict]:
    """Launch, wait for ``/healthz``, register the tenants and have each
    answer a first predict; returns the server, the seconds that took and
    the fingerprint each tenant was registered with."""
    started = time.perf_counter()
    server = Server(traced)
    try:
        if call_json(server.port, Request("healthz", "GET", "/healthz")) != {"status": "ok"}:
            raise CheckFailed("/healthz answered unexpectedly")
        fingerprints = {}
        for tenant, fit in TENANTS.items():
            body = json.dumps({"fit": fit}).encode()
            reply = call_json(server.port, Request("register", "POST", f"/tenants/{tenant}", body))
            fingerprints[tenant] = reply["fingerprint"]
        for tenant in TENANTS:
            answer = call_json(server.port, predict_request(tenant, CONFIGS[0]))
            if answer.get("fingerprint") != fingerprints[tenant]:
                raise CheckFailed(f"first predict of {tenant} carries a foreign fingerprint")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, fingerprints


def leg_values(rng: random.Random, leg: str, count: int) -> list[float]:
    return [round(rng.expovariate(1.0 / LEG_MEANS_MS[leg]), 3) for _ in range(count)]


def warm_up(server: Server, rng: random.Random) -> str:
    """Fill the drift reservoirs, refit once and touch every cached answer.

    Returns the drift tenant's fingerprint after the refit.
    """
    for leg in LEG_MEANS_MS:
        for _ in range(PREFILL_PER_LEG // 1_024):
            reply = call_json(server.port, observations_request(leg, leg_values(rng, leg, 1_024)))
            if reply != {"tenant": DRIFT, "ingested": 1_024}:
                raise CheckFailed(f"prefill ingest answered {reply}")
    fingerprint = call_json(server.port, REFIT)["fingerprint"]
    for tenant in TENANTS:
        for config in CONFIGS:
            call_json(server.port, predict_request(tenant, config))
        for target in TARGETS:
            call_json(server.port, recommend_request(tenant, target))
    return fingerprint


# ---------------------------------------------------------------------------
# Schedules and rungs.
# ---------------------------------------------------------------------------


def schedule(rng: random.Random, rate: float, count: int) -> list[tuple[float, Request]]:
    """``count`` Poisson arrivals at ``rate``/s, plus the scheduled refits."""
    items: list[tuple[float, Request]] = []
    due = 0.0
    next_refit = REFIT_FIRST_S
    kinds = [kind for kind, _ in MIX]
    weights = [weight for _, weight in MIX]
    tenants = list(TENANTS)
    while len(items) < count:
        due += rng.expovariate(rate)
        if due >= next_refit:
            items.append((next_refit, REFIT))
            next_refit += REFIT_EVERY_S
        kind = rng.choices(kinds, weights)[0]
        if kind == "predict":
            request = predict_request(rng.choice(tenants), rng.choice(CONFIGS))
        elif kind == "recommend":
            request = recommend_request(rng.choice(tenants), rng.choice(TARGETS))
        else:
            leg = rng.choice(sorted(LEG_MEANS_MS))
            request = observations_request(leg, leg_values(rng, leg, OBSERVATION_BATCH))
        items.append((due, request))
    return items


@dataclass
class Sample:
    request: Request
    due: float
    sent: float
    done: float
    status: int
    body: bytes
    #: For a refit's probe: the refit it follows.
    after_refit: "Sample | None" = None


@dataclass
class Rung:
    samples: list = field(default_factory=list)
    failed: int = 0

    @property
    def latencies_ms(self) -> list[float]:
        """Latency from due time, failed requests counted as infinite."""
        return sorted(
            math.inf if s.status != 200 else (s.done - s.due) * 1000.0 for s in self.samples
        )

    @property
    def round_trips_ms(self) -> list[float]:
        """Time from sending to the answer, failed requests counted as infinite."""
        return sorted(
            math.inf if s.status != 200 else (s.done - s.sent) * 1000.0 for s in self.samples
        )

    def percentile_ms(self, q: float) -> float:
        """The ``q`` quantile of the latency from due time."""
        return nearest_rank(self.latencies_ms, q)

    def round_trip_ms(self, q: float) -> float:
        """The ``q`` quantile of the round trip."""
        return nearest_rank(self.round_trips_ms, q)


def nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q`` quantile of an ascending list by the nearest-rank rule."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_rung(port: int, items: list[tuple[float, Request]]) -> Rung:
    """Send ``items`` on their schedule over at most CONNECTIONS connections."""
    rung = Rung()
    lock = threading.Lock()
    cursor = iter(range(len(items)))
    start = time.perf_counter() + 0.05

    def send(request: Request, due: float) -> Sample:
        sent = time.perf_counter()
        try:
            status, body = exchange(port, request)
        except (OSError, ValueError, IndexError) as error:
            status, body = 0, repr(error).encode()
        return Sample(request, due, sent, time.perf_counter(), status, body)

    def worker() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            offset, request = items[index]
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sample = send(request, due)
            samples = [sample]
            if request is REFIT:
                probe = send(predict_request(DRIFT, CONFIGS[0]), sample.done)
                probe.after_refit = sample
                samples.append(probe)
            with lock:
                rung.samples.extend(samples)

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return rung


# ---------------------------------------------------------------------------
# Answer checks.
# ---------------------------------------------------------------------------


class AnswerChecker:
    """Checks every response; remembers predict answers for the in-process
    comparison and the drift tenant's fingerprints."""

    def __init__(self, fingerprints: dict, drift_fingerprint: str) -> None:
        self.fingerprints = dict(fingerprints)
        self.drift_fingerprints = {fingerprints[DRIFT], drift_fingerprint}
        self.last_drift = drift_fingerprint
        #: (tenant, config, fingerprint) -> first answer body
        self.answers: dict[tuple, dict] = {}
        self.problems: list[str] = []

    def problem(self, sample: Sample) -> str | None:
        """Why ``sample`` is wrong, or ``None`` when it is right."""
        request = sample.request
        if sample.status != 200:
            return f"{request.method} {request.path} answered {sample.status}"
        try:
            payload = json.loads(sample.body)
        except ValueError:
            return f"{request.path} answered with malformed JSON"
        if not isinstance(payload, dict):
            return f"{request.path} answered a non-object"
        if request.kind == "predict":
            return self._predict_problem(request, payload, sample.after_refit)
        if request.kind == "recommend":
            if set(payload) != RECOMMEND_KEYS or payload["tenant"] != request.tenant:
                return f"recommend answer has the wrong shape: {sorted(payload)}"
            if not payload["evaluations"] or not isinstance(payload["evaluations"], list):
                return "recommend answer has no evaluations"
            return None
        if request.kind == "observations":
            expected = {"tenant": DRIFT, "ingested": request.ingested}
            return None if payload == expected else f"ingest answered {payload}"
        if request.kind == "refit":
            fingerprint = payload.get("fingerprint")
            if set(payload) != {"tenant", "fingerprint"} or fingerprint == self.last_drift:
                return f"refit answered {payload}"
            self.drift_fingerprints.add(fingerprint)
            self.last_drift = fingerprint
            return None
        return f"unexpected request kind {request.kind}"

    def _predict_problem(self, request: Request, payload: dict, refit: Sample | None) -> str | None:
        if set(payload) != PREDICT_KEYS or payload["tenant"] != request.tenant:
            return f"predict answer has the wrong shape: {sorted(payload)}"
        n, r, w = request.config
        if payload["config"] != {"n": n, "r": r, "w": w} or payload["degraded"] is not False:
            return f"predict answer is for {payload['config']} (degraded={payload['degraded']})"
        if set(payload["t_visibility_ms"]) != {"0.99", "0.999"}:
            return "predict answer lacks the t-visibility targets"
        if set(payload["read_latency_ms"]) != {"50.0", "95.0", "99.0", "99.9"}:
            return "predict answer lacks the latency percentiles"
        fingerprint = payload["fingerprint"]
        if refit is not None:
            if refit.status != 200:
                return f"the refit before this predict answered {refit.status}"
            if fingerprint != json.loads(refit.body).get("fingerprint"):
                return "the predict after a refit did not carry the new fingerprint"
        elif request.tenant == DRIFT:
            if fingerprint not in self.drift_fingerprints:
                return f"drift predict carries an unknown fingerprint {fingerprint}"
        elif fingerprint != self.fingerprints[request.tenant]:
            return f"{request.tenant} answered under a foreign fingerprint"
        key = (request.tenant, request.config, fingerprint)
        first = self.answers.setdefault(key, payload)
        if first != payload:
            return f"two different answers for {key}"
        return None

    def check(self, rung: Rung) -> None:
        """Count ``rung``'s wrong answers into ``rung.failed``.

        Refits go first, in the order they were answered, so each new
        fingerprint is compared with the one before it and is known before
        any predict that may carry it.
        """
        refits = sorted((s for s in rung.samples if s.request is REFIT), key=lambda s: s.done)
        others = [s for s in rung.samples if s.request is not REFIT]
        for sample in refits + others:
            problem = self.problem(sample)
            if problem is not None:
                rung.failed += 1
                self.problems.append(problem)

    def compare_in_process(self) -> None:
        """Static tenants' answers equal an in-process AnalyticPredictor's."""
        sys.path.insert(0, str(ROOT / "src"))
        from repro.analytic.predictor import AnalyticPredictor
        from repro.core.quorum import ReplicaConfig
        from repro.latency.production import production_fit
        from repro.serving.service import (
            DEFAULT_PERCENTILES,
            DEFAULT_TARGETS,
            PredictorService,
        )

        reference = PredictorService()
        predictors = {}
        for tenant in STATIC_TENANTS:
            fingerprint = reference.register_tenant(tenant, TENANTS[tenant])
            if fingerprint != self.fingerprints[tenant]:
                raise CheckFailed(f"{tenant} was registered under a foreign fingerprint")
            predictors[tenant] = AnalyticPredictor(distributions=production_fit(TENANTS[tenant]))
        compared = 0
        for (tenant, config, _), payload in self.answers.items():
            if tenant not in predictors:
                continue
            result = predictors[tenant].result(ReplicaConfig(*config))
            expected = {
                "consistency_at_commit": result.probability_never_stale(),
                "t_visibility_ms": {str(t): result.t_visibility(t) for t in DEFAULT_TARGETS},
                "read_latency_ms": {
                    str(p): result.read_latency_percentile(p) for p in DEFAULT_PERCENTILES
                },
                "write_latency_ms": {
                    str(p): result.write_latency_percentile(p) for p in DEFAULT_PERCENTILES
                },
            }
            for name, value in expected.items():
                if payload[name] != value:
                    raise CheckFailed(
                        f"served {name} for {tenant} {config} is {payload[name]}, "
                        f"in-process {value}"
                    )
            compared += 1
        if compared < len(STATIC_TENANTS):
            raise CheckFailed(f"only {compared} static predict answers to compare")


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Sizes:
    #: Fewest requests on the base rung.
    base_requests: int
    setup_launches: int


FULL = Sizes(base_requests=1_000, setup_launches=7)
#: For the self-test only: every phase runs, too small to measure anything.
TINY = Sizes(base_requests=1_200, setup_launches=1)


def _fresh_after_refit_ms(rung: Rung) -> float:
    values = [
        (s.done - s.after_refit.done) * 1000.0 for s in rung.samples if s.after_refit is not None
    ]
    if not values:
        raise CheckFailed("the base rung made no refits")
    return statistics.median(values)


def _lag_p99_ms(rung: Rung) -> float:
    return nearest_rank(sorted((s.sent - s.due) * 1000.0 for s in rung.samples), 0.99)


def _stats(port: int) -> dict:
    stats = call_json(port, Request("stats", "GET", "/stats"))
    if not {"tenants", "cache", "spot_checks"} <= set(stats):
        raise CheckFailed(f"/stats answered {sorted(stats)}")
    return stats


def _quiesce(port: int) -> dict:
    """Wait until no spot check is queued or running; return the stats."""
    deadline = time.monotonic() + 60.0
    previous = None
    while True:
        stats = _stats(port)
        checks = stats["spot_checks"]
        if not checks["pending"] and previous == checks["run"]:
            return stats
        if time.monotonic() > deadline:
            raise CheckFailed("spot checks did not drain within 60 s")
        previous = checks["run"]
        time.sleep(0.3)


def _base_rung(port: int, rng: random.Random, seconds: float, sizes: Sizes) -> Rung:
    count = max(sizes.base_requests, int(BASE_RATE * seconds))
    return run_rung(port, schedule(rng, BASE_RATE, count))


def _launch_seconds() -> float:
    """Set-up time of one server launched and stopped."""
    server, elapsed, _ = start_ready_server(traced=False)
    server.stop()
    return elapsed


def measure(seed: int, seconds: float, sizes: Sizes = FULL) -> dict:
    """The untraced run: set-up, then the base rung's latency and throughput.

    The set-up launches are split between before and after the rung, so the
    host's slower and faster spells reach set-up and rung alike.
    """
    setups = [_launch_seconds() for _ in range((sizes.setup_launches - 1) // 2)]
    server, elapsed, fingerprints = start_ready_server(traced=False)
    setups.append(elapsed)
    rng = random.Random(seed)
    try:
        checker = AnswerChecker(fingerprints, warm_up(server, rng))
        _quiesce(server.port)
        cpu_before = server.cpu_seconds()
        base = _base_rung(server.port, rng, seconds, sizes)
        # The spot checks the rung queued are part of its cost.
        _quiesce(server.port)
        cpu_seconds = server.cpu_seconds() - cpu_before
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    setups += [_launch_seconds() for _ in range(sizes.setup_launches - len(setups))]
    checker.check(base)
    checker.compare_in_process()
    return {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss,
        "throughput_per_s": len(base.samples) / cpu_seconds,
        "latency_p50_ms": base.round_trip_ms(0.50),
        "rungs": [base],
        "labels": ["base rung"],
        "checkers": [checker],
    }


def _traced_base_rung(seed: int, seconds: float, sizes: Sizes, traced: bool) -> dict:
    rng = random.Random(seed)
    server, _, fingerprints = start_ready_server(traced)
    report = None
    try:
        checker = AnswerChecker(fingerprints, warm_up(server, rng))
        before = _quiesce(server.port)
        if traced:
            server.reset_spans()
        rung = _base_rung(server.port, rng, seconds, sizes)
        after = _quiesce(server.port)
        report = server.stop()
    finally:
        server.stop()
    if traced and report is None:
        raise CheckFailed("the traced server stopped without its span report")
    checker.check(rung)
    return {"rung": rung, "checker": checker, "before": before, "after": after, "report": report}


def measure_traced(seed: int, seconds: float, sizes: Sizes = FULL) -> dict:
    """The same base rung on the plain server, then on the traced one."""
    plain = _traced_base_rung(seed, seconds / 4.0, sizes, traced=False)
    traced = _traced_base_rung(seed, seconds / 4.0, sizes, traced=True)
    rung, report = traced["rung"], traced["report"]
    before, after = traced["before"], traced["after"]
    spans = report["spans"]

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("calls", 0)

    handled = spans.get("serving.request", {"calls": 0, "total_s": 0.0})
    answered = [s for s in rung.samples if s.status == 200]
    round_trip_ms = statistics.mean((s.done - s.sent) * 1000.0 for s in answered)
    handler_ms = 1000.0 * handled["total_s"] / max(1, handled["calls"])
    hits = after["cache"]["hits"] - before["cache"]["hits"]
    misses = after["cache"]["misses"] - before["cache"]["misses"]
    # The server's CPU time over the rung inside its top-level spans
    # (accepts, connections and spot-check drains, on whichever thread).
    root_cpu = sum(root[2] for root in report["roots"].values())
    metrics = {
        "runtime.gc_s": report["gc_seconds"],
        "runtime.gc_collections": report["gc_collections"],
        "engine.run_s": self_s("engine.run"),
        "engine.runs": calls("engine.run"),
        "engine.trials": report["counts"].get("engine.trials", 0),
        "analytic.env_build_s": self_s("analytic.env_build"),
        "analytic.env_builds": calls("analytic.env_build"),
        "analytic.ppf_calls": report["counts"].get("analytic.ppf_calls", 0),
        "analytic.query_s": self_s("analytic.query"),
        "serving.handler_s": handled["total_s"],
        "serving.http_overhead_ms": round_trip_ms - handler_ms,
        "serving.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.refits": calls("serving.refit"),
        "serving.refit_s": self_s("serving.refit"),
        "serving.spot_checks": after["spot_checks"]["run"] - before["spot_checks"]["run"],
        "serving.failed": plain["rung"].failed + rung.failed,
        "serving.http_p99_ms": plain["rung"].percentile_ms(0.99),
        "serving.fresh_after_refit_ms": _fresh_after_refit_ms(plain["rung"]),
        "serving.gen_lag_ms": _lag_p99_ms(plain["rung"]),
        "trace.coverage_pct": 100.0 * root_cpu / report["cpu_seconds"],
        "trace.overhead_pct": 100.0 * (
            rung.round_trip_ms(0.5) / plain["rung"].round_trip_ms(0.5) - 1.0
        ),
    }
    return {
        "metrics": metrics,
        "rungs": [plain["rung"], rung],
        "labels": ["base rung, plain server", "base rung, traced server"],
        "checkers": [plain["checker"], traced["checker"]],
    }
