"""End-to-end benchmark of the MHETA reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig9-noisy --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md``):

* ``fig9-noisy``  -- regenerate both Figure-9 panels (no-prefetch and
  Jacobi-prefetch) at scale 0.1 under the default noisy emulator;
* ``advise-cold`` -- instrument, build and run all five searchers on
  (app, cluster) pairs, each pass in a fresh interpreter;
* ``serve-mixed`` -- an open-loop mix of predict / verify / search
  queries against a ``repro serve`` process.

Every timed pass runs in a fresh interpreter with no on-disk cache.
With ``--trace 0`` the end-to-end metrics are measured untraced; with
``--trace 1`` the workload also runs with layer wrappers installed
(``tracer.py``) and the per-layer metrics come from those spans and
from counters the program already exposes.  The last line of standard
output is one JSON object; the lines before it print every metric with
its unit and sample statistics.  The benchmark exits non-zero, without
a result, when it cannot run the program.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import loadgen  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402

_now = time.monotonic

#: Seconds any one child interpreter may take before it is killed.
CHILD_TIMEOUT = 150.0
#: Extra interpreters started per batch run only to time set-up.
SETUP_PROBES = 4
#: Servers started per serve run to time set-up (the last one serves).
SERVE_SETUPS = 3

# serve-mixed traffic
SERVE_RATE = 200.0  #: requests/s of the main phase
#: The main phase lasts 1.5 x --seconds (its p99 needs the samples) and
#: each ladder rung 0.1 x --seconds.
MAIN_SHARE = 1.5
RUNG_SHARE = 0.1
VERIFY_EVERY = 40  #: every 40th request is a verify (2.5 %)
SEARCH_EVERY = 500  #: every 500th request is a search (0.2 %)
POOL = 64  #: hot candidates per resident model, drawn Zipf-style
#: Every 4th predict asks about a never-seen candidate.  Those need the
#: model, so they queue behind a verify's emulation, while repeats are
#: answered from the evaluation cache at once; a fixed share keeps the
#: number of queued predicts, and so the p99, from hanging on the seed.
COLD_EVERY = 4
ZIPF_S = 1.1
#: Verify cycle: a never-seen candidate on each model, then a repeat of
#: this cycle's first one (served from the run cache).
VERIFY_CYCLE = ("jacobi/HY1", "cg/IO", "rna/HY2", "lanczos/DC", None)
#: Verified candidates move at most this many rows off an even split,
#: so the cost of their emulations, which sets the predict tail, does not
#: hang on the seed.
VERIFY_MOVE = 16
ALGORITHMS = tuple(tracer.SEARCHERS)
#: Arrival-rate ladder for ``rate_per_s`` (requests/s), rungs three
#: times apart: the server's capacity for this mix (about
#: 550-850/s on a 2-core host) sits well inside one step, so a rung's
#: verdict does not flip with the host's speed.
LADDER = (125.0, 375.0, 1125.0)
SLO_MS = 500.0  #: limit on the predict p99 latency
LATE_LIMIT_MS = 20.0  #: generator lateness p99 above this voids a phase

#: What each shared end-to-end name means on each workload.
MEANING = {
    "fig9-noisy": {
        "wall_s": "both Figure-9 panels",
        "p50_ms": "per (architecture, app) spectrum, median",
        "tail_ms": "per (architecture, app) spectrum",
        "quality_pct": "accuracy_pct: overall Figure-9 accuracy",
        "rate_per_s": "spectra per second",
    },
    "advise-cold": {
        "wall_s": "all (app, cluster) pairs, median pass",
        "p50_ms": "per pair (instrument + build + 5 searches), median",
        "tail_ms": "per pair",
        "quality_pct": "advice_gain_pct: mean predicted gain over Blk",
        "rate_per_s": "pairs advised per second",
    },
    "serve-mixed": {
        "wall_s": "main phase, first due request to last reply",
        "p50_ms": "predict_p50_ms, from the scheduled send time",
        "tail_ms": "predict_p99_ms, from the scheduled send time",
        "quality_pct": "accuracy of served verify answers",
        "rate_per_s": f"max_qps_at_slo: predict p99 <= {SLO_MS:g} ms",
    },
}


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def metric_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json lists."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_pct(n: int) -> Optional[float]:
    """The highest standard percentile with at least ten of ``n``
    samples beyond it (``None`` when there is none)."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return None


def tail(values: Sequence[float]) -> Tuple[Optional[float], float]:
    """:func:`tail_pct` of ``values`` and its value (the maximum when
    there are too few samples)."""
    p = tail_pct(len(values))
    return p, percentile(values, p) if p else max(values)


# -- child processes -------------------------------------------------------------


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _relay(stream) -> None:
    for line in stream:
        sys.stderr.write(line)


@dataclass
class ChildResult:
    setup_s: Optional[float]  #: spawn to ``READY``
    out: Dict[str, Any]  #: the child's final JSON line
    maxrss_mb: float


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc`` (killing it after ``timeout``) and return its
    resource usage."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(args: Sequence[str]) -> ChildResult:
    """Run ``child.py ARGS`` in a fresh interpreter; time its set-up
    (spawn to ``READY``) and return its final JSON line."""
    start = _now()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *map(str, args)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env(), cwd=str(ROOT),
    )
    timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
    timer.start()
    ready = None
    last = None
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = _now() - start
            elif line.startswith("{"):
                last = line
            else:
                sys.stderr.write(line)
    finally:
        timer.cancel()
        usage = _reap(proc, CHILD_TIMEOUT)
        proc.stdout.close()
    if proc.returncode != 0 or last is None:
        raise BenchError(f"child {list(args)} exited with {proc.returncode}")
    return ChildResult(ready, json.loads(last), usage.ru_maxrss / 1024.0)


# -- batch workloads (fig9-noisy, advise-cold) -----------------------------------


def _timed_setups(args: Sequence[str], count: int,
                  probes: List[float]) -> List[float]:
    """Set-up times of ``count`` fresh children, each preceded by a
    speed probe in this process."""
    out = []
    for _ in range(count):
        probes.append(speed.probe())
        out.append(run_child(args).setup_s)
    return out


def _wall(out: Dict[str, Any]) -> float:
    """Host seconds of a pass's timed loop, less its speed probes."""
    return out["wall"][1] - out["wall"][0] - sum(out["probes"])


def batch_workload(task: str, seed: int, seconds: float, trace: bool,
                   workdir: Path) -> "Result":
    if trace:
        return batch_traced(task, seed, workdir)
    setup_probes: List[float] = []
    setups = _timed_setups([f"setup-{task}", seed], SETUP_PROBES,
                           setup_probes)
    passes: List[ChildResult] = []
    walls: List[float] = []
    # As many passes as fit in ``seconds`` (a quarter over at most), by
    # speed-scaled time so the count does not follow the host's speed.
    while not walls or (len(walls) + 1) * statistics.fmean(walls) \
            <= 1.25 * seconds:
        setup_probes.append(speed.probe())
        passes.append(run_child([task, seed]))
        setups.append(passes[-1].setup_s)
        out = passes[-1].out
        walls.append(_wall(out) * speed.scale(out["probes"]))
    res = Result()
    scales = [speed.scale(c.out["probes"]) for c in passes]
    latencies = [x * 1000.0 * f for c, f in zip(passes, scales)
                 for x in c.out["latencies"]]
    quality = [c.out["quality_pct"] for c in passes]
    for c in passes:
        res.attempted += c.out["units"] + c.out["checks_attempted"]
        res.failed += c.out["checks_failed"]
    res.attempted += 1
    if len(set(quality)) != 1:
        res.failed += 1
        print(f"quality differs between passes: {quality}", file=sys.stderr)
    wall = statistics.median(walls)
    setup_scale = speed.scale(setup_probes)
    res.sample("setup_s", [x * setup_scale for x in setups])
    res.sample("wall_s", walls)
    res.sample("p50_ms", latencies, value=statistics.median(latencies))
    # The percentile one pass supports, so it stays put however many
    # passes fit in the run.
    p = tail_pct(passes[0].out["units"])
    res.sample("tail_ms", latencies, value=percentile(latencies, p),
               note=f"p{p:g}")
    res.metrics["quality_pct"] = quality[0]
    res.metrics["rate_per_s"] = passes[0].out["units"] / wall
    res.metrics["peak_rss_mb"] = max(c.maxrss_mb for c in passes)
    if task == "fig9":
        out = passes[0].out
        res.extra["accuracy_all_pct"] = out["accuracy_all_pct"]
        res.extra["accuracy_prefetch_pct"] = out["accuracy_prefetch_pct"]
    res.extra["passes"] = len(passes)
    res.extra["raw_wall_s"] = statistics.median(_wall(c.out) for c in passes)
    res.extra["raw_setup_s"] = statistics.median(setups)
    res.extra["speed_scale"] = statistics.median(scales)
    return res


def _table_stats(spans: List[list]) -> Tuple[float, float]:
    """Sum of table-cache misses and evictions over every model seen
    by a ``core.predict`` span (counters only grow within one model, so
    a drop under a reused object id starts a new model)."""
    last: Dict[int, Tuple[int, int]] = {}
    total = [0, 0]
    for s in sorted(spans, key=lambda s: s[4]):
        attrs = s[5] or {}
        if "model" not in attrs:
            continue
        cur = (attrs["misses"], attrs["evictions"])
        prev = last.get(attrs["model"], (0, 0))
        if cur[0] < prev[0]:
            prev = (0, 0)
        total[0] += cur[0] - prev[0]
        total[1] += cur[1] - prev[1]
        last[attrs["model"]] = cur
    return float(total[0]), float(total[1])


def _span_layers(spans, wall, run_cache, plan_compiles) -> Dict[str, float]:
    """Per-layer metrics of the spans that start inside ``wall``."""
    spans = [s for s in spans if wall[0] <= s[3] <= wall[1]]
    metrics = dict.fromkeys(metric_units("per_layer"), 0.0)
    metrics.update(tracer.layer_metrics(spans))
    metrics.update(tracer.analyse(spans, wall))
    misses, evictions = _table_stats(spans)
    metrics["core.table_misses"] = misses
    metrics["core.table_evictions"] = evictions
    metrics["core.plan_compiles"] = float(plan_compiles)
    metrics["parallel.run_cache_hits"] = float(run_cache["hits"])
    metrics["parallel.run_cache_misses"] = float(run_cache["misses"])
    return metrics


def _load_spans(path: Path) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def batch_traced(task: str, seed: int, workdir: Path) -> "Result":
    plain = run_child([task, seed])
    path = workdir / f"{task}-spans.json"
    traced = run_child([task, seed, path])
    out = traced.out
    res = Result()
    for c in (plain, traced):
        res.attempted += c.out["units"] + c.out["checks_attempted"]
        res.failed += c.out["checks_failed"]
    spans = _load_spans(path)["spans"]
    wall = tuple(out["wall"])
    res.metrics = _span_layers(spans, wall, out["run_cache"],
                               out["plan_compiles"])
    plain_wall = _wall(plain.out) * speed.scale(plain.out["probes"])
    traced_wall = _wall(out) * speed.scale(out["probes"])
    res.metrics["trace.wall_s"] = _wall(out)
    res.metrics["trace.overhead_pct"] = 100.0 * (traced_wall / plain_wall - 1)
    return res


# -- serve-mixed -------------------------------------------------------------------


class Traffic:
    """Seeded open-loop request mix over the resident models."""

    def __init__(self, seed: int, rows: Dict[str, int]) -> None:
        self.rng = random.Random(f"serve-{seed}")
        self.rows = rows
        self.models = sorted(rows)
        self.pools = {m: [self._candidate(rows[m]) for _ in range(POOL)]
                      for m in self.models}
        weights = [1.0 / (k + 1) ** ZIPF_S for k in range(POOL)]
        self.cum = [sum(weights[: k + 1]) for k in range(POOL)]
        self.verifies = 0
        self.verified: set = set()
        self.searches = seed % len(ALGORITHMS)
        self.repeat: Optional[Tuple[str, List[int]]] = None

    def _candidate(self, n_rows: int, nodes: int = 8) -> List[int]:
        """A GEN_BLOCK with per-node shares within +-75 % of even."""
        weights = [self.rng.uniform(0.25, 1.75) for _ in range(nodes)]
        total = sum(weights)
        counts = [max(1, int(n_rows * w / total)) for w in weights]
        counts[counts.index(max(counts))] += n_rows - sum(counts)
        return counts

    def _near_even(self, model: str, nodes: int = 8) -> List[int]:
        """An even split with a few rows moved between two nodes, never
        drawn before in this run: a cold emulation whose cost hardly
        depends on the seed."""
        n_rows = self.rows[model]
        while True:
            counts = [n_rows // nodes + (k < n_rows % nodes)
                      for k in range(nodes)]
            src, dst = self.rng.sample(range(nodes), 2)
            moved = self.rng.randint(1, VERIFY_MOVE)
            counts[src] -= moved
            counts[dst] += moved
            key = (model, tuple(counts))
            if key not in self.verified:
                self.verified.add(key)
                return counts

    @staticmethod
    def _query(op: str, model: str, **fields) -> Dict[str, Any]:
        app, config = model.split("/")
        return {"op": op, "app": app, "config": config, **fields}

    def _next(self, i: int) -> Dict[str, Any]:
        if i % SEARCH_EVERY == SEARCH_EVERY // 2:
            k = self.searches
            self.searches += 1
            return self._query(
                "search", self.models[k % len(self.models)],
                algorithm=ALGORITHMS[k % len(ALGORITHMS)],
            )
        if i % VERIFY_EVERY == VERIFY_EVERY // 2:
            slot = VERIFY_CYCLE[self.verifies % len(VERIFY_CYCLE)]
            self.verifies += 1
            if slot is None:
                model, counts = self.repeat
            else:
                model = slot
                counts = self._near_even(model)
                if slot == VERIFY_CYCLE[0]:
                    self.repeat = (model, counts)
            return self._query("verify", model, counts=counts)
        model = self.rng.choice(self.models)
        if i % COLD_EVERY == 1:
            return self._query("predict", model,
                               counts=self._candidate(self.rows[model]))
        k = self.rng.choices(range(POOL), cum_weights=self.cum)[0]
        return self._query("predict", model, counts=self.pools[model][k])

    def schedule(self, rate: float, seconds: float):
        return [(i / rate, self._next(i)) for i in range(int(rate * seconds))]

    def warmup(self) -> List[Dict[str, Any]]:
        return [self._query("predict", m, dist="blk") for m in self.models]


class Server:
    """One ``repro serve`` process (optionally through the traced
    launcher); set-up runs from spawn until every resident model has
    answered a warm-up predict."""

    def __init__(self, warmup: List[Dict[str, Any]],
                 trace_path: Optional[Path] = None) -> None:
        if trace_path is None:
            argv = [sys.executable, "-m", "repro"]
        else:
            argv = [sys.executable, str(BENCH / "serve_launcher.py"),
                    str(trace_path)]
        argv += ["serve", "--port", "0"]
        start = _now()
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=_env(), cwd=str(ROOT),
        )
        self.usage = None
        try:
            self.host, self.port = self._address()
            self._relay = threading.Thread(
                target=_relay, args=(self.proc.stdout,), daemon=True)
            self._relay.start()
            replies = loadgen.gather(self.host, self.port, warmup)
            if not all(r.get("ok") for r in replies):
                raise BenchError(f"warm-up failed: {replies}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = _now() - start

    def _address(self) -> Tuple[str, int]:
        timer = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            for line in self.proc.stdout:
                if "listening on" in line:
                    host, port = line.split()[-1].rsplit(":", 1)
                    return host, int(port)
                sys.stderr.write(line)
        finally:
            timer.cancel()
        raise BenchError("repro serve exited before listening")

    def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        reply = loadgen.request(self.host, self.port, payload)
        if not reply.get("ok"):
            raise BenchError(f"{payload['op']} failed: {reply}")
        return reply["result"]

    def stop(self):
        """Ask the server to shut down; returns its resource usage."""
        if self.usage is None:
            try:
                loadgen.request(self.host, self.port, {"op": "shutdown"})
            except OSError:
                pass
            self.usage = _reap(self.proc, 30.0)
            self._relay.join(timeout=5.0)
            self.proc.stdout.close()
        return self.usage

    def kill(self) -> None:
        if self.usage is None:
            self.proc.kill()
            self.usage = _reap(self.proc, 30.0)
            self.proc.stdout.close()

    @property
    def cpu_s(self) -> float:
        return self.usage.ru_utime + self.usage.ru_stime


@dataclass
class PhaseStats:
    rate: float
    predict_ms: List[float]
    verify_ms: List[float]
    late_p99_ms: float
    backlog: int
    failed: int
    attempted: int
    start: float  #: monotonic time the schedule started
    end: float  #: monotonic time of the last reply
    answers: List[Dict[str, Any]]

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def predict_p99_ms(self) -> float:
        return percentile(self.predict_ms, 99.0)

    @property
    def valid(self) -> bool:
        """The generator kept to its schedule and the queue it left
        behind drains within the latency limit."""
        return (self.late_p99_ms <= LATE_LIMIT_MS
                and self.backlog <= self.rate * SLO_MS / 1000.0)

    @property
    def meets_slo(self) -> bool:
        """A ladder rung's verdict.  Generator lateness is left out: a
        rung is too short for its p99 lateness to be steady, and at
        these rates the generator keeps up."""
        return (not self.failed and self.predict_p99_ms <= SLO_MS
                and self.backlog <= self.rate * SLO_MS / 1000.0)


def run_phase(server: Server, schedule, rate: float) -> PhaseStats:
    phase = loadgen.run_phase(server.host, server.port, schedule)
    answers = []
    for r in phase.requests:
        if not r.ok:
            print(f"request failed: {r.payload['op']}: {r.error}",
                  file=sys.stderr)
            continue
        result = r.result
        answer = {"op": r.payload["op"], "app": result["app"],
                  "config": result["config"], "counts": result["counts"],
                  "predicted": result["predicted_seconds"]}
        if answer["op"] == "verify":
            answer["actual"] = result["actual_seconds"]
            answer["error_pct"] = result["error_percent"]
        elif answer["op"] == "search":
            answer["evaluations"] = result["evaluations"]
            answer["budget"] = r.payload.get("budget", 150)
        answers.append(answer)
    done = [r.done for r in phase.requests if r.done is not None]
    return PhaseStats(
        rate=rate,
        predict_ms=phase.latencies_ms("predict"),
        verify_ms=phase.latencies_ms("verify"),
        late_p99_ms=1000.0 * percentile(phase.lateness, 99.0),
        backlog=phase.backlog_at_end,
        failed=phase.failed,
        attempted=len(phase.requests),
        start=phase.start,
        end=max(done) if done else _now(),
        answers=answers,
    )


def _check_answers(answers: List[Dict[str, Any]], workdir: Path,
                   res: "Result") -> None:
    path = workdir / "answers.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(answers, fh)
    out = run_child(["serve-check", path]).out
    res.attempted += out["checks_attempted"]
    res.failed += out["checks_failed"]


def _rows() -> Dict[str, int]:
    return run_child(["serve-rows"]).out


def serve_workload(seed: int, seconds: float, trace: bool,
                   workdir: Path) -> "Result":
    rows = _rows()
    if trace:
        return serve_traced(seed, seconds, rows, workdir)
    traffic = Traffic(seed, rows)
    res = Result()
    setups = []
    setup_probes: List[float] = []
    server = None
    try:
        for k in range(SERVE_SETUPS):
            setup_probes.append(speed.probe())
            server = Server(traffic.warmup())
            setups.append(server.setup_s)
            if k < SERVE_SETUPS - 1:
                server.stop()
        main = run_phase(server, traffic.schedule(
            SERVE_RATE, MAIN_SHARE * seconds), SERVE_RATE)
        phases = [main]
        best = 0.0
        for rate in LADDER:
            rung = run_phase(server, traffic.schedule(
                rate, RUNG_SHARE * seconds), rate)
            phases.append(rung)
            res.extra[f"rung_{rate:g}_p99_ms"] = rung.predict_p99_ms
            if not rung.meets_slo:
                break
            best = rate
        stats = server.request({"op": "stats"})
        server.stop()
    finally:
        if server is not None:
            server.kill()
    # Every request, plus the validity and cold-regime checks below.
    res.attempted += sum(p.attempted for p in phases) + 2
    res.failed += sum(p.failed for p in phases)
    if not main.valid:
        res.failed += 1
        print(f"invalid open-loop phase: generator late p99 "
              f"{main.late_p99_ms:.1f} ms, backlog {main.backlog}",
              file=sys.stderr)
    # Cold regime: no disk tier is configured, so none can be read.
    if "sweep_cache" in stats or "run_cache" in stats:
        res.failed += 1
        print("a persistent cache tier is configured", file=sys.stderr)
    _check_answers([a for p in phases for a in p.answers], workdir, res)
    verify_errors = [a["error_pct"] for a in main.answers
                     if a["op"] == "verify"]
    setup_scale = speed.scale(setup_probes)
    res.sample("setup_s", [x * setup_scale for x in setups])
    # Latencies are not speed-scaled: they do not follow the probe (the
    # gather window is a timer, and the model thread and the event loop
    # contend for the interpreter lock), and scaling made them noisier.
    res.metrics["wall_s"] = main.wall_s
    res.sample("p50_ms", main.predict_ms)
    res.sample("tail_ms", main.predict_ms, value=main.predict_p99_ms,
               note="p99")
    res.extra["raw_setup_s"] = statistics.median(setups)
    res.metrics["quality_pct"] = 100.0 - statistics.fmean(verify_errors)
    res.metrics["rate_per_s"] = best
    res.metrics["peak_rss_mb"] = server.usage.ru_maxrss / 1024.0
    res.extra["verify_p50_ms"] = statistics.median(main.verify_ms)
    res.extra["generator_late_p99_ms"] = main.late_p99_ms
    res.extra["backlog_at_end"] = main.backlog
    return res


def serve_traced(seed: int, seconds: float, rows: Dict[str, int],
                 workdir: Path) -> "Result":
    """The main phase twice, on an untraced and a traced server, with
    the same seeded schedule; per-layer numbers from the traced one."""
    res = Result()
    path = workdir / "serve-spans.json"
    runs = []
    for trace_path in (None, path):
        traffic = Traffic(seed, rows)
        server = Server(traffic.warmup(), trace_path=trace_path)
        try:
            phase = run_phase(server, traffic.schedule(
                SERVE_RATE, MAIN_SHARE * seconds), SERVE_RATE)
            stats = server.request({"op": "stats"})
            server.stop()
        finally:
            server.kill()
        runs.append((server, phase, stats))
        res.attempted += phase.attempted
        res.failed += phase.failed + (0 if phase.valid else 1)
    _check_answers([a for _, p, _ in runs for a in p.answers], workdir, res)
    (plain, plain_phase, _), (traced, phase, stats) = runs
    dump = _load_spans(path)
    counters = stats["telemetry"]["counters"]
    res.metrics = _span_layers(
        dump["spans"], (phase.start, phase.end), dump["extra"]["run_cache"],
        dump["extra"]["plan_compiles"])
    requests = counters.get("serve/requests", 0)
    res.metrics.update({
        "serve.coalesced_ratio": counters.get("serve/coalesced", 0)
        / requests if requests else 0.0,
        "serve.batches": float(counters.get("serve/batches", 0)),
        "serve.kernel_evaluations": float(
            counters.get("serve/kernel_evaluations", 0)),
        "serve.eval_cache_hits": float(
            counters.get("serve/eval_cache_hits", 0)),
        "serve.verify_emulated": float(
            counters.get("serve/verify_emulated", 0)),
        "serve.predict_p99_ms": plain_phase.predict_p99_ms,
        "serve.verify_p50_ms": statistics.median(plain_phase.verify_ms),
        "serve.generator_late_p99_ms": plain_phase.late_p99_ms,
        "serve.backlog_at_end": float(plain_phase.backlog),
        "trace.wall_s": phase.wall_s,
        "trace.overhead_pct": 100.0 * (traced.cpu_s / plain.cpu_s - 1.0),
    })
    return res


# -- results -------------------------------------------------------------------------


class Result:
    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: Dict[str, str] = {}
        self.extra: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0

    def sample(self, name: str, values: Sequence[float],
               value: Optional[float] = None, note: str = "") -> None:
        """Record a metric computed from samples (median by default)."""
        values = list(values)
        self.metrics[name] = statistics.median(values) if value is None else value
        p, top = tail(values)
        spread = f"p{p:g} {top:.4g}" if p else f"max {top:.4g}"
        self.notes[name] = (f"{note + ', ' if note else ''}{len(values)} "
                            f"samples, median {statistics.median(values):.4g}, "
                            f"{spread}")


def report(workload: str, units: Dict[str, str], trace: bool,
           res: Result) -> None:
    meaning = {} if trace else MEANING[workload]
    print(f"# {workload} ({'per-layer, traced' if trace else 'end-to-end'})")
    for name, unit in units.items():
        value = res.metrics[name]
        detail = "; ".join(x for x in (meaning.get(name),
                                       res.notes.get(name)) if x)
        print(f"{name:30s} {unit:6s} {value:14.6g}  {detail}")
    for name, value in res.extra.items():
        print(f"{'  ' + name:30s} {'':6s} {value:14.6g}")
    print(f"{'error_rate':30s} {'ratio':6s} "
          f"{res.failed / max(res.attempted, 1):14.6g}  "
          f"{res.failed} failed of {res.attempted} attempted")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig9-noisy", "advise-cold", "serve-mixed"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    trace = bool(args.trace)
    try:
        if args.workload == "serve-mixed":
            res = serve_workload(args.seed, args.seconds, trace, workdir)
        else:
            task = "fig9" if args.workload == "fig9-noisy" else "advise"
            res = batch_workload(task, args.seed, args.seconds, trace,
                                 workdir)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        res.metrics["success_pct"] = (
            100.0 * (res.attempted - res.failed) / max(res.attempted, 1))
    units = metric_units("per_layer" if trace else "end_to_end")
    report(args.workload, units, trace, res)
    print(json.dumps({
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
