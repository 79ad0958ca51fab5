#!/usr/bin/env python3
"""The commloc benchmark: end-to-end metrics per workload, or with
`--trace 1` the per-layer split.

    python3 perfbench/run.py --workload conformance --seed 1 --seconds 20 --trace 0

Run from the repository root. It builds the benchmark child
(`perfbench/`, a package of its own) and the `commloc` binary into
`$CARGO_TARGET_DIR` (default `.bench_build`), then repeats the workload
in fresh processes until `--seconds` have passed, checks every output,
and prints one JSON result as the last line of standard output.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import serve_stream  # noqa: E402
import stats  # noqa: E402
from workloads import WORKLOADS, BenchError, conformance_rep, run_child, serve_rep  # noqa: E402

ROOT = os.path.dirname(HERE)
# Every run must end within this many seconds; children are killed at it.
RUN_LIMIT_S = 170
# Sources the benchmark builds; without them it cannot measure anything.
REQUIRED = ("Cargo.toml", "crates/sim/Cargo.toml", "conformance/golden/fig3.json")
MODEL_FIGURES = ("fig4", "fig5", "fig6", "fig7", "fig8", "fig9")


def metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


class Binaries:
    def __init__(self, target_dir):
        release = os.path.join(target_dir, "release")
        self.perfbench = os.path.join(release, "commloc-perfbench")
        self.commloc = os.path.join(release, "commloc")


def fail(message, code=2):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def build():
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for argv in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "commloc-sim", "--bin", "commloc"],
    ):
        done = subprocess.run(argv, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(argv)}", 3)
    return Binaries(target_dir), target_dir


def host_cores():
    return len(os.sched_getaffinity(0))


def source_commit():
    """The checked-out commit when there is a git repository, else None."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    """SHA-256 over the sources the benchmark builds and reads, so a
    record identifies its code even where there is no git repository."""
    digest = hashlib.sha256()
    paths = ["Cargo.toml", "Cargo.lock", "BENCHMARK.json"]
    for top in ("crates", "src", "conformance", "perfbench"):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d not in ("target", "__pycache__"))
            paths += [os.path.join(base, name) for name in sorted(files)]
    for path in paths:
        if os.path.isfile(path):
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


# Set-ups timed alone after each repetition, so that set-up time is a
# median of many samples spread over the run.
SETUP_PROBES = 5


def repeat(workload, bins, jobs, seed, seconds, deadline):
    """Repetitions for about `seconds`: another one starts only while the
    last one's duration still fits, and at least two always run so that
    each run reports a median."""
    runner, setup = WORKLOADS[workload]
    reps, setups, start = [], [], time.monotonic()
    while True:
        rep_start = time.monotonic()
        reps.append(runner(bins, jobs, seed, deadline))
        rep_s = time.monotonic() - rep_start
        setups.append(reps[-1].setup_s)
        setups += [setup(bins, jobs, seed, deadline) for _ in range(SETUP_PROBES)]
        if len(reps) >= 2 and time.monotonic() - start + rep_s > seconds * 1.05:
            return reps, setups


def end_to_end(reps, setups):
    """The end-to-end metrics and their sample counts."""
    values = {
        "setup_s": stats.median(setups),
        "wall_s": stats.median([r.wall_s for r in reps]),
        "peak_rss_mb": stats.median([r.rss_mb for r in reps]),
        "model_rate_err_pct": stats.median([r.model_err_pct for r in reps]),
    }
    samples = {name: len(reps) for name in values}
    samples["setup_s"] = len(setups)
    return values, samples


def consistent(workload, reps):
    """Repetitions of one seed must agree exactly on deterministic outputs."""
    keys = {rep.model_err_pct for rep in reps}
    if workload == "gain_point":
        keys = {(rep.model_err_pct, rep.detail["random_digest"]) for rep in reps}
    if len(keys) != 1:
        sys.stderr.write(f"{workload}: repetitions disagree: {keys}\n")
        return False
    return True


def self_times(spans):
    """Self time per layer: each span minus the part its children cover."""
    child_ns = {}
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    totals = {}
    for s in spans:
        own = s["end_ns"] - s["start_ns"] - child_ns.get(s["id"], 0)
        totals[s["layer"]] = totals.get(s["layer"], 0) + own
    return {layer: ns / 1e9 for layer, ns in sorted(totals.items())}


def traced(workload, bins, jobs, seed, deadline, target_dir):
    """The per-layer run: the workload traced between two untraced runs
    (the difference is the tracing overhead), the in-process layer
    probes, and one traced conformance session and serve session for
    their layers."""
    runner = WORKLOADS[workload][0]
    plain = runner(bins, jobs, seed, deadline)
    rep = runner(bins, jobs, seed, deadline, trace=True)
    plain_after = runner(bins, jobs, seed, deadline)
    untraced_s = (plain.wall_s + plain_after.wall_s) / 2
    conf = rep if workload == "conformance" else conformance_rep(bins, jobs, seed, deadline, True)
    serve = rep if workload == "serve_mixed" else serve_rep(bins, jobs, seed, deadline, True)

    out_dir = os.path.join(target_dir, "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    requests = os.path.join(out_dir, f"requests-{seed}.txt")
    with open(requests, "w") as f:
        f.writelines(s.probe_line() + "\n" for s in serve_stream.generate(seed))
    _, _, layers, layer_spans = run_child(
        [bins.perfbench, "layers", "--requests", requests, "--trace"], deadline
    )
    _, _, shard, shard_spans = run_child(
        [bins.perfbench, "shard", "--seed", str(seed), "--jobs", str(jobs), "--trace"], deadline
    )
    figs = conf.detail
    by_class = serve.detail["by_class"]
    latencies = serve.latencies_ms
    metrics = dict(layers)
    metrics.update(shard)
    metrics.update(
        {
            "serve.req_p50_ms": stats.median(latencies),
            "serve.req_p90_ms": stats.percentile(latencies, 90),
            "serve.hit_ms": stats.median(by_class["hit"]),
            "serve.warm_ms": stats.median(by_class["warm"]),
            "serve.cold_ms": stats.median(by_class["cold"]),
            "serve.hit_share": serve.detail["hit_share"],
            "conformance.fig3_s": figs["fig3"],
            "conformance.model_figs_s": sum(figs[f] for f in MODEL_FIGURES),
            "conformance.resilience_wave_s": figs["resilience-wave"],
            "conformance.resilience_degradation_s": figs["resilience-degradation"],
            "conformance.topology_gain_s": figs["topology-gain"],
            "trace.overhead_ratio": rep.wall_s / untraced_s,
        }
    )
    spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.json")
    with open(spans_path, "w") as f:
        json.dump({"workload": rep.spans, "layers": layer_spans, "shard": shard_spans}, f)
    print(f"traced {workload}: wall {rep.wall_s:.3f} s, untraced {untraced_s:.3f} s")
    for layer, secs in self_times(rep.spans).items():
        print(f"  self time {layer:<12} {secs:10.4f} s")
    print(f"spans written to {spans_path}")
    reps = list({id(r): r for r in (plain, rep, plain_after, conf, serve)}.values())
    return metrics, reps


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        fail(f"not a commloc checkout (missing {', '.join(missing)})")
    end_to_end_units, per_layer_units = metric_units()
    bins, target_dir = build()
    # The first run in a checkout builds; the limit counts from here.
    deadline = time.monotonic() + RUN_LIMIT_S
    cores = host_cores()
    jobs = min(cores, 2)

    try:
        if args.trace:
            values, reps = traced(args.workload, bins, jobs, args.seed, deadline, target_dir)
            units = per_layer_units
            samples = {}
            correct = True
        else:
            reps, setups = repeat(args.workload, bins, jobs, args.seed, args.seconds, deadline)
            values, samples = end_to_end(reps, setups)
            units = end_to_end_units
            correct = consistent(args.workload, reps)
    except BenchError as e:
        fail(str(e), 4)
    missing = set(units) - set(values)
    if missing:
        fail(f"metrics not measured: {', '.join(sorted(missing))}", 4)
    values = {name: values[name] for name in units}
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    correct = correct and failed == 0

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host_cores": cores,
        "jobs": jobs,
        "commit": source_commit(),
        "source_digest": source_digest(),
        "repetitions": len(reps),
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
    }
    print("record " + json.dumps(record, sort_keys=True))
    for i, rep in enumerate(reps):
        print(f"  repetition {i}: {rep.describe()}")
    for name, value in values.items():
        count = f" (n={samples[name]})" if name in samples else ""
        print(f"  {name:<38} {value:>16.6g} {units[name]}{count}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in values.items()
                },
            }
        )
    )


if __name__ == "__main__":
    main()
