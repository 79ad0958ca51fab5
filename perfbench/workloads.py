"""One repetition of each workload, each in fresh processes, with its
output checks. Every runner returns a Rep."""

import json
import os
import re
import subprocess
import sys
import threading
import time

import serve_stream
import stats

GOLDEN_DIR = os.path.join("conformance", "golden")
EXPECTED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


class BenchError(Exception):
    """A repetition that could not run to the end."""


class Rep:
    """What one repetition measured and checked."""

    def __init__(self):
        self.setup_s = None
        self.wall_s = None
        self.rss_mb = None
        self.attempted = 0
        self.failed = 0
        self.latencies_ms = []  # client round trip per serve request
        self.model_err_pct = None
        self.spans = []
        self.detail = {}

    def describe(self):
        """A one-line summary for the run's log."""
        detail = dict(self.detail)
        for cls, values in detail.pop("by_class", {}).items():
            detail[f"{cls}_n"] = len(values)
        return (
            f"setup {self.setup_s:.4f} s, wall {self.wall_s:.3f} s, rss {self.rss_mb:.1f} MB, "
            f"{self.failed}/{self.attempted} failed, {json.dumps(detail, sort_keys=True)}"
        )


def vmhwm_kb(pid):
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise BenchError(f"no VmHWM for pid {pid}")


class Watchdog:
    """Kills a child that outlives the run's deadline, so a wedged
    program cannot hang the benchmark."""

    def __init__(self, proc, deadline):
        self.timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        self.timer.daemon = True
        self.timer.start()

    def cancel(self):
        self.timer.cancel()


# One glibc malloc arena: without it, which worker thread first allocates
# decides whether a second arena's pages count towards VmHWM, and the
# peak RSS of the threaded workloads flips between two values.
CHILD_ENV = dict(os.environ, MALLOC_ARENA_MAX="1")


def run_child(argv, deadline, stdin_text=None):
    """Runs a benchmark child; returns (setup_s, ready time, result, spans).

    Set-up is the time from spawning the process to its READY line.
    """
    start = time.monotonic()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        env=CHILD_ENV,
    )
    watchdog = Watchdog(proc, deadline)
    ready = result = None
    spans = []
    try:
        if stdin_text is not None:
            proc.stdin.write(stdin_text)
            proc.stdin.close()
        for line in proc.stdout:
            if line == "READY\n" and ready is None:
                ready = time.monotonic()
            elif line.startswith("SPANS "):
                spans = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or result is None:
        raise BenchError(f"{' '.join(argv)} exited with {code}")
    setup_s = (ready or time.monotonic()) - start
    return setup_s, ready, result, spans


def conformance_argv(bins, jobs, seed):
    del seed  # the conformance session is fixed
    return [bins.perfbench, "conformance", "--jobs", str(jobs), "--golden-dir", GOLDEN_DIR]


def gain_argv(bins, jobs, seed):
    return [bins.perfbench, "gain", "--seed", str(seed), "--jobs", str(jobs)]


def child_setup(argv_fn):
    """Times set-up alone: the child exits at its READY line."""

    def setup(bins, jobs, seed, deadline):
        return run_child(argv_fn(bins, jobs, seed) + ["--setup-only"], deadline)[0]

    return setup


def conformance_rep(bins, jobs, seed, deadline, trace=False):
    argv = conformance_argv(bins, jobs, seed) + (["--trace"] if trace else [])
    setup_s, ready, result, spans = run_child(argv, deadline)
    rep = Rep()
    for figure in result["figures"]:
        rep.attempted += 1
        if figure["violations"] or figure["error"]:
            rep.failed += 1
            sys.stderr.write(f"conformance: {figure['name']} failed {figure}\n")
    rep.wall_s = time.monotonic() - ready
    rep.setup_s = setup_s
    rep.rss_mb = result["vmhwm_kb"] / 1024
    rep.model_err_pct = result["model_rate_err_pct"]
    rep.spans = spans
    rep.detail = {f["name"]: f["secs"] for f in result["figures"]}
    return rep


def gain_rep(bins, jobs, seed, deadline, trace=False):
    argv = gain_argv(bins, jobs, seed) + (["--trace"] if trace else [])
    setup_s, ready, result, spans = run_child(argv, deadline)
    with open(EXPECTED) as f:
        expected = json.load(f)["gain_point"]
    rep = Rep()
    rep.attempted = 2
    problems = []
    identity, random_run = result["identity"], result["random"]
    for key in ("rate_bits", "completions_digest"):
        if identity[key] != expected["identity"][key]:
            problems.append(f"identity {key} {identity[key]} != {expected['identity'][key]}")
    committed = expected["random_by_seed"].get(str(seed))
    if committed:
        for key in ("rate_bits", "completions_digest"):
            if random_run[key] != committed[key]:
                problems.append(f"random {key} {random_run[key]} != {committed[key]}")
    low, high = expected["gain_range"]
    if not low <= result["gain"] <= high:
        problems.append(f"gain {result['gain']} outside [{low}, {high}]")
    for problem in problems:
        sys.stderr.write(f"gain_point: {problem}\n")
    rep.failed = min(2, len(problems))
    rep.wall_s = time.monotonic() - ready
    rep.setup_s = setup_s
    rep.rss_mb = result["vmhwm_kb"] / 1024
    rep.model_err_pct = result["model_rate_err_pct"]
    rep.spans = spans
    rep.detail = {
        "random_digest": (random_run["rate_bits"], random_run["completions_digest"]),
        "gain": result["gain"],
        "identity_s": identity["secs"],
        "random_s": random_run["secs"],
        "bytes_per_node": (result["vmhwm_kb"] - result["rss_start_kb"]) * 1024 / result["nodes"],
    }
    return rep


_ID_OR_CACHED = re.compile(r'"id":"[^"]*",|"cached":(true|false),')


class Daemon:
    """`commloc serve` over its stdin/stdout pipe."""

    def __init__(self, commloc, jobs, deadline):
        self.start = time.monotonic()
        self.proc = subprocess.Popen(
            [commloc, "serve", "--jobs", str(jobs)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            bufsize=1,
            env=CHILD_ENV,
        )
        self.watchdog = Watchdog(self.proc, deadline)

    def send(self, line):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def event(self):
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("daemon closed its output")
        return line.rstrip("\n"), json.loads(line)

    def request(self, line, terminal):
        """Sends one request and reads events up to its terminal event;
        returns every (raw line, event) read."""
        self.send(line)
        events = []
        while True:
            raw, event = self.event()
            events.append((raw, event))
            if event["event"] in terminal or event["event"] == "error":
                return events

    def answer_stats(self):
        """Set-up ends when the daemon answers its first request."""
        events = self.request('{"op":"stats","id":"setup"}', {"stats"})
        if events[-1][1]["event"] != "stats":
            raise BenchError(f"daemon did not answer stats: {events}")
        return time.monotonic()

    def shutdown(self, deadline):
        done = self.request('{"op":"shutdown","id":"end"}', {"done"})[-1][1]
        code = self.proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        leftover = self.proc.stdout.read()
        if done.get("op") != "shutdown" or code != 0 or leftover.strip():
            raise BenchError(f"daemon shutdown: {done}, exit {code}, trailing {leftover!r}")

    def close(self):
        self.watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def serve_rep(bins, jobs, seed, deadline, trace=False):
    stream = serve_stream.generate(seed)
    classes = serve_stream.expected_classes(stream)
    rep = Rep()
    daemon = Daemon(bins.commloc, jobs, deadline)
    try:
        ready = daemon.answer_stats()
        rep.setup_s = ready - daemon.start
        filled = {}
        by_class = {"hit": [], "warm": [], "cold": []}
        cube_points = set()
        for i, (scenario, cls) in enumerate(zip(stream, classes)):
            rid = f"r{i}"
            sent = time.monotonic()
            events = daemon.request(scenario.request(rid), {"done"})
            latency_ms = (time.monotonic() - sent) * 1e3
            rep.attempted += 1
            rep.latencies_ms.append(latency_ms)
            by_class[cls].append(latency_ms)
            if trace:
                rep.spans.append(
                    {"id": i, "parent": None, "layer": "serve", "name": cls,
                     "start_ns": int((sent - daemon.start) * 1e9),
                     "end_ns": int((sent - daemon.start + latency_ms / 1e3) * 1e9)}
                )
            problem = check_request(rid, events, scenario, cls, filled)
            if problem:
                rep.failed += 1
                sys.stderr.write(f"serve_mixed {rid} {scenario}: {problem}\n")
                continue
            if scenario.topology == "cube":
                m = next(e for _, e in events if e["event"] == "result")["measurements"]
                cube_points.add(
                    (m["nodes"], scenario.contexts, m["distance"], m["transaction_rate"])
                )
        final = daemon.request('{"op":"stats","id":"final"}', {"stats"})[-1][1]
        expected_hits = classes.count("hit")
        if (final.get("hits"), final.get("misses"), final.get("collisions")) != (
            expected_hits, len(stream) - expected_hits, 0
        ):
            rep.failed += 1
            sys.stderr.write(f"serve_mixed: unexpected cache stats {final}\n")
        rep.rss_mb = vmhwm_kb(daemon.proc.pid) / 1024
        daemon.shutdown(deadline)
        rep.wall_s = time.monotonic() - ready
    finally:
        daemon.close()
    hits, misses = final["hits"], final["misses"]
    rep.detail = {
        "by_class": by_class,
        "hit_share": hits / (hits + misses),
        "req_p50_ms": stats.median(rep.latencies_ms),
        "req_p90_ms": stats.percentile(rep.latencies_ms, 90),
    }
    points = "".join(f"{n} {c} {d!r} {r!r}\n" for n, c, d, r in sorted(cube_points))
    _, _, result, _ = run_child([bins.perfbench, "model-err"], deadline, stdin_text=points)
    rep.model_err_pct = result["model_rate_err_pct"]
    return rep


def check_request(rid, events, scenario, cls, filled):
    """Exactly one `accepted`, one `result` and one `done` for `rid`, no
    error, the expected cache outcome, and a hit byte-identical to the
    miss that filled it. Returns a problem description or None."""
    kinds = [e["event"] for _, e in events]
    if any(e.get("id") != rid for _, e in events):
        return f"events for another request: {kinds}"
    if [kinds.count(k) for k in ("accepted", "result", "done", "error")] != [1, 1, 1, 0]:
        return f"events {kinds}"
    raw, result = next((r, e) for r, e in events if e["event"] == "result")
    if result["cached"] != (cls == "hit"):
        return f"expected {cls}, daemon reported cached={result['cached']}"
    body = _ID_OR_CACHED.sub("", raw)
    if cls == "hit":
        if body != filled.get(scenario):
            return "hit differs from the miss that filled it"
    else:
        filled[scenario] = body
    return None


def serve_setup(bins, jobs, seed, deadline):
    del seed
    daemon = Daemon(bins.commloc, jobs, deadline)
    try:
        setup_s = daemon.answer_stats() - daemon.start
        daemon.shutdown(deadline)
    finally:
        daemon.close()
    return setup_s


# Workload -> (one repetition, set-up alone).
WORKLOADS = {
    "conformance": (conformance_rep, child_setup(conformance_argv)),
    "gain_point": (gain_rep, child_setup(gain_argv)),
    "serve_mixed": (serve_rep, serve_setup),
}
