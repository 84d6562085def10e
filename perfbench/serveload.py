"""The ``serve`` workload: ``repro serve`` driven from outside.

The schedule: jobs from three tenants, as a Poisson process at
``RATE`` jobs/s conditioned on its count (``RATE * --seconds`` jobs).
Each group of four jobs holds two fresh IR jobs, one alpha-renamed
repeat of the group's first IR job and one mini-C source job (see
``make_schedule`` for what the seed draws).

Untraced run (the end-to-end metrics): a spawned ``python -m repro
serve --workers 2 --cache-dir <fresh dir>`` over stdio, one pipe and
one reader thread, driven as a *closed loop*: the load generator sends
the schedule's jobs in order, each when the previous one is answered,
and a job's latency runs from its send to its answer.  The run makes
a fixed number of passes over the schedule, each on a fresh daemon
and cache, and a job's latency is the median of its passes' scaled
latencies.  The load generator and the daemon are pinned to one core,
and before each send, with the daemon idle, the generator takes a
host-speed probe on that core (``hostspeed``), as the batch workloads
do around their calls.

It is a closed loop because the open loop was not steady.  The host's
cores change speed independently, within seconds; in the open loop at
4 jobs/s a slow stretch also makes the jobs behind it queue, and the
generator cannot observe the core the daemon runs on.  Scaled by the
generator's probes, the open loop's latency p50 spread by 0.16-0.22
(quartile spread over median) over four or five seeds; as the lower
of two replays per job, its p50, p90 and p95 spread by 0.17, 0.24 and
0.29 over four seeds: not within the largest bound the benchmark may
declare.  The open loop stays in the traced run.

Traced run (the per-layer metrics): the same ``ServeConfig``
in-process, driven through ``OptimizeService.handle_line`` (the seam
the loopback client uses) so the wrappers apply, as an *open loop*:
one sender writes each job at its due time, never waiting for
answers, and a job's latency runs from its due time, so a stall also
charges the jobs queued behind it; the generator reports how late it
sent.  It serves the schedule twice, untraced and then traced, each on
a fresh service and cache, which gives the tracing overhead on
identical jobs.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import threading
from time import perf_counter, sleep
from typing import Dict, List

import hostspeed
import measures
import pool
from spans import Recorder, install_layers, self_times

RATE = 4.0
TENANTS = ("alpha", "beta", "gamma")
WORKERS = 2
#: A generator that sends later than this behind schedule fails the run.
LATE_BOUND_MS = 100.0
#: Fresh daemon launches per run whose median is ``setup_s``; the last
#: of them serve the closed-loop passes.
SETUP_LAUNCHES = 15
#: Seconds one closed-loop pass takes on a 2-vCPU host; fixes the pass
#: count for a given ``--seconds``.
PASS_SECONDS = 5.0
#: Longest wait for the answers after the last job was sent.
DRAIN_TIMEOUT = 60.0


class Job:
    def __init__(self, ident, due, fmt, text, name, tenant, ref_ir,
                 origin):
        self.ident = ident
        self.due = due
        self.fmt = fmt
        self.text = text
        self.name = name
        self.tenant = tenant
        #: The IR the output is checked against (the input itself for
        #: IR jobs, the pool's compilation for C jobs).
        self.ref_ir = ref_ir
        #: The pool function this job was made from (names the
        #: difftest vectors, so a renamed repeat runs the same ones).
        self.origin = origin

    def request(self, req_id) -> str:
        params = {
            self.fmt: self.text,
            "name": self.name,
            "tenant": self.tenant,
            "emit_ir": True,
            "metadata": {"bench_id": self.ident},
        }
        return json.dumps(
            {"jsonrpc": "2.0", "id": req_id, "method": "optimize",
             "params": params}
        ) + "\n"


def make_schedule(pool_file: str, index: List[dict], seed: int,
                  seconds: float) -> List[Job]:
    """The job list in arrival order, with due offsets.

    The traffic trace is fixed for a given length: a stratified draw of
    the pool grouped four by four, each group in a fixed order, on one
    fixed realization of the Poisson arrivals.  The seed draws the
    tenants and the repeats' names.  With 120 jobs a run, which jobs
    queue behind a C job decides much of the median: re-drawing the
    arrival bursts or the work per seed moved the latency percentiles
    by 50%, and re-drawing only the order inside each group by 25%,
    which would hide any change to the serving path.
    """
    from repro.bench.structcache import perturb_job
    from repro.driver import FunctionJob

    groups = max(1, round(seconds * RATE / 4))
    content = random.Random("serve-content")
    functions = [e for e in index if e["kind"] == "angha"]
    fresh = pool.stratified_sample(functions, 2 * groups, content)
    taken = {fn["name"] for fn in fresh}
    c_jobs = pool.stratified_sample(
        [fn for fn in functions if fn["name"] not in taken], groups, content
    )
    records = pool.load_records(pool_file, fresh + c_jobs)
    fresh, c_jobs = records[:len(fresh)], records[len(fresh):]

    # A Poisson process conditioned on its count: sorted uniform
    # arrival times, so every run offers exactly RATE jobs per second.
    arrivals = sorted(
        content.uniform(0.0, seconds) for _ in range(4 * groups)
    )
    rng = random.Random(f"serve:{seed}")
    jobs: List[Job] = []
    for g in range(groups):
        first, second, c_fn = fresh[2 * g], fresh[2 * g + 1], c_jobs[g]
        # The repeat (an alpha-renamed copy of ``first``) always comes
        # after its original.
        kinds = ["first", "second", "c", "repeat"]
        content.shuffle(kinds)
        if kinds.index("repeat") < kinds.index("first"):
            a, b = kinds.index("repeat"), kinds.index("first")
            kinds[a], kinds[b] = "first", "repeat"
        for kind in kinds:
            ident = f"s{len(jobs)}"
            due = arrivals[len(jobs)]
            tenant = rng.choice(TENANTS)
            if kind == "c":
                job = Job(ident, due, "c", c_fn["source"], c_fn["name"],
                          tenant, c_fn["ir"], c_fn["name"])
            elif kind == "repeat":
                renamed = perturb_job(
                    FunctionJob(name=first["name"], ir_text=first["ir"]),
                    suffix=f"_r{rng.randrange(1 << 20)}",
                )
                job = Job(ident, due, "ir", renamed.ir_text, renamed.name,
                          tenant, renamed.ir_text, first["name"])
            else:
                fn = first if kind == "first" else second
                job = Job(ident, due, "ir", fn["ir"], fn["name"], tenant,
                          fn["ir"], fn["name"])
            jobs.append(job)
    return jobs


class Exchange:
    """Send times, receive times and answers, keyed by request id."""

    def __init__(self) -> None:
        self.sent: Dict[object, float] = {}
        self.received: Dict[object, float] = {}
        self.answers: Dict[object, dict] = {}
        self.late_ms_max = 0.0
        self.backlog_end = 0
        self._cond = threading.Condition()

    def on_line(self, line: str) -> None:
        stamp = perf_counter()
        message = json.loads(line)
        with self._cond:
            self.received[message.get("id")] = stamp
            self.answers[message.get("id")] = message
            self._cond.notify_all()

    def wait_for(self, ids, timeout: float) -> bool:
        deadline = perf_counter() + timeout
        with self._cond:
            while not all(i in self.answers for i in ids):
                left = deadline - perf_counter()
                if left <= 0:
                    return False
                self._cond.wait(left)
        return True

    def send_schedule(self, jobs: List[Job], write, t0: float) -> None:
        """Open loop: write each job at its due time, never waiting
        for answers."""
        for job in jobs:
            due = t0 + job.due
            wait = due - perf_counter()
            if wait > 0:
                sleep(wait)
            line = job.request(job.ident)
            sent = perf_counter()
            self.sent[job.ident] = sent
            self.late_ms_max = max(self.late_ms_max, 1000 * (sent - due))
            write(line)
        with self._cond:
            self.backlog_end = sum(
                1 for job in jobs if job.ident not in self.answers
            )


def _serve_env(src_root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_root
    return env


class Daemon:
    """One spawned ``repro serve`` process over stdio."""

    def __init__(self, src_root: str, cache_dir: str, log) -> None:
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--workers",
             str(WORKERS), "--cache-dir", cache_dir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log,
            text=True, env=_serve_env(src_root),
        )
        self.exchange = Exchange()
        self._lock = threading.Lock()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            if line.strip():
                self.exchange.on_line(line)

    def write(self, line: str) -> None:
        with self._lock:
            self.process.stdin.write(line)
            self.process.stdin.flush()

    def call(self, req_id: str, method: str, params=None) -> dict:
        self.write(json.dumps({"jsonrpc": "2.0", "id": req_id,
                               "method": method, "params": params or {}})
                   + "\n")
        if not self.exchange.wait_for([req_id], DRAIN_TIMEOUT):
            raise RuntimeError(f"daemon did not answer {method!r}")
        return self.exchange.answers[req_id]

    def warm_up(self, warm: Job) -> float:
        """Ping, then one small job (which starts the worker pool);
        returns seconds from spawn to that job's answer."""
        self.call("ping", "ping")
        self.write(warm.request("warm"))
        if not self.exchange.wait_for(["warm"], DRAIN_TIMEOUT):
            raise RuntimeError("daemon did not answer the warm-up job")
        return self.exchange.received["warm"] - self.started

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self) -> None:
        if self.process.poll() is None:
            try:
                self.call("bye", "shutdown")
            except (RuntimeError, OSError, ValueError):
                pass
        try:
            self.process.stdin.close()
        except OSError:
            pass
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait(timeout=10)
        self._reader.join(timeout=10)


def _warm_job(pool_file: str, index: List[dict]) -> Job:
    """The smallest ``tiny`` function: a job that does almost no work."""
    entry = min(
        (e for e in index if e.get("family") == "tiny"),
        key=lambda e: (e["weight"], e["name"]),
    )
    tiny = pool.load_records(pool_file, [entry])[0]
    return Job("warm", 0.0, "ir", tiny["ir"], tiny["name"], "warm",
               tiny["ir"], tiny["name"])


# --- checks and end-to-end numbers -----------------------------------------


def check_answers(jobs: List[Job], exchange: Exchange) -> dict:
    failures: Dict[str, str] = {}
    before = after = base_steps = rolled_steps = 0
    for job in jobs:
        answer = exchange.answers.get(job.ident)
        if answer is None:
            failures[job.ident] = "no answer"
            continue
        if "error" in answer:
            failures[job.ident] = f"refused: {answer['error']}"
            continue
        result = answer["result"]
        if result.get("status") != "ok":
            failures[job.ident] = f"job error: {result.get('error')}"
            continue
        before += result["size_before"]
        after += result["size_after"]
        ok, details, steps = measures.check_semantics(
            job.ref_ir, result["optimized_ir"], job.name, job.origin
        )
        base_steps += steps[0]
        rolled_steps += steps[1]
        if not ok:
            failures[job.ident] = "; ".join(details)
    return {
        "failures": failures,
        "size_reduction_pct": 100.0 * (before - after) / before if before
        else 0.0,
        "dyn_step_ratio": rolled_steps / base_steps if base_steps else 1.0,
    }


def _latencies(jobs: List[Job], exchange: Exchange, t0: float) -> List[float]:
    return [
        exchange.received[job.ident] - (t0 + job.due)
        for job in jobs
        if job.ident in exchange.received
    ]


def _loadgen_failures(exchange: Exchange) -> Dict[str, str]:
    if exchange.late_ms_max > LATE_BOUND_MS:
        return {
            "loadgen": f"generator ran {exchange.late_ms_max:.1f} ms "
            f"behind schedule (bound {LATE_BOUND_MS:.0f} ms)"
        }
    return {}


def run_daemon(
    pool_file: str, index: List[dict], seed: int, seconds: float,
    src_root: str, scratch: str,
) -> dict:
    """The untraced run: set-up launches, the last ``passes`` of which
    then serve the closed loop, all pinned to one core."""
    jobs = make_schedule(pool_file, index, seed, seconds)
    warm = _warm_job(pool_file, index)
    passes = min(SETUP_LAUNCHES, max(1, int(seconds // PASS_SECONDS)))
    setups: List[float] = []
    served: List[Exchange] = []
    peak_rss_mb: List[float] = []
    #: Send-to-answer seconds, and the probe before each send, in run
    #: order (pass by pass, jobs in schedule order).
    times: List[float] = []
    probes: List[float] = []
    cores = os.sched_getaffinity(0)
    # The daemons inherit the pin.
    os.sched_setaffinity(0, {min(cores)})
    try:
        with open(os.path.join(scratch, "daemon.log"), "w") as log:
            for launch in range(SETUP_LAUNCHES):
                around = [hostspeed.probe() for _ in range(5)]
                daemon = Daemon(
                    src_root, os.path.join(scratch, f"cache{launch}"), log
                )
                try:
                    took = daemon.warm_up(warm)
                    around += [hostspeed.probe() for _ in range(5)]
                    setups.append(took * hostspeed.factor(around))
                    if launch >= SETUP_LAUNCHES - passes:
                        _closed_loop(daemon, jobs, times, probes)
                        served.append(daemon.exchange)
                        peak_rss_mb.append(daemon.peak_rss_mb())
                finally:
                    daemon.close()
    finally:
        os.sched_setaffinity(0, cores)

    failures: Dict[str, str] = {}
    checked = []
    for number, exchange in enumerate(served):
        checked.append(check_answers(jobs, exchange))
        failures.update({f"pass{number}:{k}": v
                         for k, v in checked[-1]["failures"].items()})
    for name in ("size_reduction_pct", "dyn_step_ratio"):
        if len({c[name] for c in checked}) > 1:
            failures[f"passes:{name}"] = "passes disagree"
    scaled = hostspeed.scaled(times, probes)
    latencies = [
        statistics.median(scaled[k::len(jobs)]) for k in range(len(jobs))
    ]
    raw = [statistics.median(times[k::len(jobs)]) for k in range(len(jobs))]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "fn_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_ms_p50": (1000 * statistics.median(latencies), "ms"),
        "job_ms_p90": (1000 * measures.percentile(latencies, 90), "ms"),
        "job_ms_p95": (1000 * measures.percentile(latencies, 95), "ms"),
        "size_reduction_pct": (checked[0]["size_reduction_pct"], "%"),
        "dyn_step_ratio": (checked[0]["dyn_step_ratio"], "ratio"),
        "failed_pct": (
            100.0 * len(failures) / (passes * len(jobs)), "%"),
        "peak_rss_mb": (max(peak_rss_mb), "MB"),
        "host.probe_ms": (1000 * statistics.median(probes), "ms"),
        "raw.fn_per_s": (len(raw) / sum(raw), "1/s"),
        "raw.job_ms_p50": (1000 * statistics.median(raw), "ms"),
        "raw.job_ms_p95": (1000 * measures.percentile(raw, 95), "ms"),
    }
    return {
        "attempted": passes * len(jobs),
        "failures": failures,
        "end_to_end": end_to_end,
        "samples": {
            "jobs": len(jobs),
            "passes": passes,
            "latency_samples": len(latencies),
            "latency_is": "send to answer, closed loop, median scaled "
            "latency per job over the passes",
            "setup_launches": len(setups),
        },
        "deterministic": {
            "size_reduction_pct": checked[0]["size_reduction_pct"],
            "dyn_step_ratio": checked[0]["dyn_step_ratio"],
        },
    }


def _closed_loop(daemon: "Daemon", jobs: List[Job], times: List[float],
                 probes: List[float]) -> None:
    """One pass over the schedule, each job sent when the previous one
    is answered; appends each job's latency and the probe before it."""
    exchange = daemon.exchange
    for job in jobs:
        probes.append(hostspeed.probe())
        sent = perf_counter()
        daemon.write(job.request(job.ident))
        if not exchange.wait_for([job.ident], DRAIN_TIMEOUT):
            raise RuntimeError(f"daemon did not answer {job.ident}")
        times.append(exchange.received[job.ident] - sent)


# --- the traced, in-process run ---------------------------------------------


class _InProcess:
    """A started ``OptimizeService`` plus the exchange it answers into."""

    def __init__(self, cache_dir: str) -> None:
        from repro.serve import OptimizeService, ServeConfig

        self.service = OptimizeService(
            ServeConfig(workers=WORKERS, cache_dir=cache_dir)
        ).start()
        self.exchange = Exchange()

    def write(self, line: str) -> None:
        self.service.handle_line(line, self.exchange.on_line)

    def serve(self, jobs: List[Job], warm: Job) -> float:
        self.write(warm.request("warm"))
        if not self.exchange.wait_for(["warm"], DRAIN_TIMEOUT):
            raise RuntimeError("service did not answer the warm-up job")
        t0 = perf_counter() + 0.05
        self.exchange.send_schedule(jobs, self.write, t0)
        self.exchange.wait_for([job.ident for job in jobs], DRAIN_TIMEOUT)
        return t0

    def stats(self) -> dict:
        self.write(json.dumps({"jsonrpc": "2.0", "id": "stats",
                               "method": "stats"}) + "\n")
        return self.exchange.answers["stats"]["result"]

    def close(self) -> None:
        self.service.stop()


def run_traced(
    pool_file: str, index: List[dict], seed: int, seconds: float,
    scratch: str,
) -> dict:
    jobs = make_schedule(pool_file, index, seed, seconds)
    warm = _warm_job(pool_file, index)

    plain = _InProcess(os.path.join(scratch, "cache-plain"))
    try:
        plain_t0 = plain.serve(jobs, warm)
    finally:
        plain.close()

    spill = os.path.join(scratch, "spans")
    os.makedirs(spill, exist_ok=True)
    recorder = Recorder(spill)
    traced = _InProcess(os.path.join(scratch, "cache-traced"))
    install_layers(recorder)
    try:
        t0 = traced.serve(jobs, warm)
        stats = traced.stats()
    finally:
        recorder.uninstall()
        traced.close()
    spans = recorder.drain() + recorder.read_spills()

    failures: Dict[str, str] = {}
    for label, side in (("untraced", plain), ("traced", traced)):
        checked = check_answers(jobs, side.exchange)
        failures.update(
            {f"{label}:{k}": v for k, v in checked["failures"].items()}
        )
        failures.update(
            {f"{label}:{k}": v
             for k, v in _loadgen_failures(side.exchange).items()}
        )
    executed = [
        r for r in recorder.captured
        if not (r.cache_hit or r.dedupe_hit) and
        dict(r.metadata).get("bench_id") != "warm"
    ]
    per_layer = serve_layers(jobs, traced.exchange, t0, spans, stats,
                             executed)
    per_layer.update(
        measures.trace_overhead(
            _latencies(jobs, traced.exchange, t0),
            _latencies(jobs, plain.exchange, plain_t0),
        )
    )
    return {
        "attempted": 2 * len(jobs),
        "failures": failures,
        "per_layer": per_layer,
        "samples": {"jobs_per_mode": len(jobs), "rate_per_s": RATE},
        "deterministic": {
            "rolag.sched_calls": per_layer["rolag.sched_calls"][0],
            "rolag.attempted": per_layer["rolag.attempted"][0],
            "rolag.rolled": per_layer["rolag.rolled"][0],
        },
    }


def serve_layers(jobs, exchange, t0, spans, stats, executed) -> dict:
    """Split each job's latency along the serve path.

    Cut points, clamped to be monotone: due, sent, admit start/end
    (``Scheduler.offer``), submit start/end (``DriverSession.submit``),
    execute start/end (``optimize_one`` in a pool worker, absent for
    cache hits and dedupe followers), respond start
    (``result_payload``), received.
    """
    by_job: Dict[str, Dict[str, list]] = {}
    self_ms: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, own in self_times(spans):
        job, layer = span[5], span[1]
        if job == "warm":
            continue
        by_job.setdefault(job, {}).setdefault(layer, []).append(span)
        self_ms[layer] = self_ms.get(layer, 0.0) + 1000 * own
        calls[layer] = calls.get(layer, 0) + 1
    count = len(jobs)
    sums = dict.fromkeys(
        ("late", "transport", "admit", "queue", "submit", "dispatch",
         "execute", "respond", "wall"), 0.0
    )
    queued = []
    for job in jobs:
        layers = by_job.get(job.ident, {})
        due = t0 + job.due
        received = exchange.received.get(job.ident)
        if received is None:
            continue

        def first(layer, edge, default):
            found = layers.get(layer)
            return found[0][edge] if found else default

        sent = exchange.sent[job.ident]
        admit = (first("serve.admit", 2, sent), first("serve.admit", 3, sent))
        submit = (first("driver.submit", 2, admit[1]),
                  first("driver.submit", 3, admit[1]))
        execute = (first("driver.execute", 2, submit[1]),
                   first("driver.execute", 3, submit[1]))
        respond = first("serve.respond", 2, execute[1])
        cuts = [due, sent, *admit, *submit, *execute, respond, received]
        for k in range(1, len(cuts)):
            cuts[k] = max(cuts[k], cuts[k - 1])
        seg = [cuts[k + 1] - cuts[k] for k in range(len(cuts) - 1)]
        sums["late"] += seg[0]
        sums["transport"] += seg[1]
        sums["admit"] += seg[2]
        sums["queue"] += seg[3]
        sums["submit"] += seg[4]
        sums["dispatch"] += seg[5] + seg[7]
        sums["execute"] += seg[6]
        sums["respond"] += seg[8]
        sums["wall"] += cuts[-1] - cuts[0]
        queued.append((cuts[3], cuts[6]))
    ms = {k: 1000 * v / count for k, v in sums.items()}
    per_job = {k: v / count for k, v in self_ms.items()}
    # Unclaimed: request decoding before admission, and the driver's
    # own code around the pipeline in the worker.
    other = ms["transport"] + per_job.get("driver.execute", 0.0)
    dispatch = (
        per_job.get("driver.submit", 0.0) + ms["dispatch"]
        - per_job.get("driver.cache_write", 0.0)
    )
    driver = stats.get("driver", {})
    metrics = measures.layer_metrics(count, self_ms, calls, executed)
    metrics.update(
        {
            "driver.other_ms": (other, "ms"),
            "driver.other_pct": (100.0 * other / ms["wall"], "%"),
            "driver.cache_hit_pct": (
                100.0 * driver.get("cache_hits", 0) / count, "%"),
            "driver.dedupe_hits": (driver.get("dedupe_hits", 0) / count,
                                   "count"),
            "driver.dispatch_ms": (max(0.0, dispatch), "ms"),
            "serve.admit_ms": (ms["admit"], "ms"),
            "serve.queue_wait_ms": (ms["queue"], "ms"),
            "serve.execute_ms": (ms["execute"], "ms"),
            "serve.respond_ms": (ms["respond"], "ms"),
            "serve.queue_depth_max": (_max_overlap(queued), "count"),
            "loadgen.late_ms_max": (exchange.late_ms_max, "ms"),
            "loadgen.backlog_end": (exchange.backlog_end, "count"),
        }
    )
    return metrics


def _max_overlap(intervals) -> int:
    """Most intervals open at one instant (admitted, not yet running)."""
    events = sorted(
        [(start, 1) for start, _ in intervals]
        + [(end, -1) for _, end in intervals]
    )
    depth = best = 0
    for _, step in events:
        depth += step
        best = max(best, depth)
    return best
