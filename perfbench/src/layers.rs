//! Per-layer probes for the traced run: each one times calls into a
//! single layer's public functions, outside any workload.

use crate::replay::{record, replay};
use crate::span::{ready, status_kb, JsonObject, Tracer};
use commloc_mem::{Addr, MemConfig, MemOp, ProtocolRig};
use commloc_model::MachineConfig;
use commloc_net::{DetRng, NodeId, Topology};
use commloc_proc::{Processor, ThreadProgram};
use commloc_sim::conformance::{REDUCED_WARMUP, REDUCED_WINDOW, SUITE_SEED};
use commloc_sim::{
    mapping_suite, topology_mapping_suite, Machine, Mapping, NamedMapping, NeighborProgram,
    ScenarioKey, ShardedMachine, SimConfig,
};
use std::hint::black_box;
use std::time::Instant;

/// Cycles of the fig5 dense scenario the net and machine probes run.
const FIG5_CYCLES: u64 = REDUCED_WARMUP + REDUCED_WINDOW;

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// The fig5 dense scenario: 8×8 torus, two contexts, the suite's first
/// random mapping.
fn fig5_scenario() -> (SimConfig, Mapping) {
    let config = SimConfig {
        contexts: 2,
        ..SimConfig::default()
    };
    let mapping = suite_mapping(&config, "random-1");
    (config, mapping)
}

fn suite(config: &SimConfig) -> Vec<NamedMapping> {
    match config.resolved_topology() {
        Topology::Cube(torus) => mapping_suite(&torus, SUITE_SEED),
        other => topology_mapping_suite(&other, SUITE_SEED),
    }
}

fn suite_mapping(config: &SimConfig, name: &str) -> Mapping {
    suite(config)
        .into_iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("suite has no mapping `{name}`"))
        .mapping
}

/// `net.*` and `machine.*`: the fig5 injection stream replayed into a
/// standalone fabric, against the monolithic machine on the same
/// scenario.
fn net_and_machine(tracer: &Tracer, out: JsonObject) -> Result<JsonObject, String> {
    let (config, mapping) = fig5_scenario();
    let injections = tracer.span("net", "record_inject_stream", || {
        record(&config, &mapping, FIG5_CYCLES)
    })?;
    let replayed = tracer.span("net", "replay", || replay(&config, &injections))?;
    if replayed.delivered != injections.len() as u64 {
        return Err(format!(
            "replay delivered {} of {} recorded messages",
            replayed.delivered,
            injections.len()
        ));
    }
    let mut machine = Machine::new(&config, &mapping);
    let start = Instant::now();
    tracer
        .span("sim", "Machine::run_network_cycles", || {
            machine.run_network_cycles(replayed.cycles)
        })
        .map_err(|e| format!("fig5 machine: {e}"))?;
    let machine_secs = start.elapsed().as_secs_f64();
    let nodes = config.resolved_topology().compute_nodes() as f64;
    Ok(out
        .num(
            "net.replay_cycles_per_s",
            replayed.cycles as f64 / replayed.secs,
        )
        .num(
            "net.ns_per_flit_move",
            replayed.step_secs * 1e9 / replayed.flit_moves as f64,
        )
        .num(
            "net.inject_ns",
            replayed.inject_secs * 1e9 / replayed.injected as f64,
        )
        .num(
            "net.poll_ns",
            replayed.poll_secs * 1e9 / replayed.delivered as f64,
        )
        .num(
            "machine.node_cycles_per_s",
            nodes * replayed.cycles as f64 / machine_secs,
        )
        .num("machine.fabric_share", replayed.secs / machine_secs))
}

/// `mem.txn_ns`: host time per completed coherence transaction on the
/// idealized-network protocol rig, with reads and writes to a small
/// shared line set so the directory sees sharing and invalidation.
fn mem_txn(tracer: &Tracer) -> f64 {
    const NODES: usize = 16;
    const ROUNDS: usize = 2_000;
    let mut rig = ProtocolRig::new(NODES, 4, MemConfig::default());
    let mut rng = DetRng::new(SUITE_SEED);
    let mut completed = 0usize;
    let start = Instant::now();
    tracer.span("mem", "ProtocolRig", || {
        for _ in 0..ROUNDS {
            for node in 0..NODES {
                let addr = Addr(rng.index(64) as u64);
                let op = if rng.chance(0.25) {
                    MemOp::Write(addr, rng.next_u64())
                } else {
                    MemOp::Read(addr)
                };
                rig.issue(NodeId(node), op);
            }
            let done = rig
                .run_to_quiescence(100_000)
                .expect("protocol rig quiesces");
            completed += done.iter().map(Vec::len).sum::<usize>();
        }
    });
    start.elapsed().as_secs_f64() * 1e9 / completed.max(1) as f64
}

/// `proc.step_ns`: host time per `Processor::step` over two
/// `NeighborProgram` contexts, each memory access completing a fixed
/// latency after issue.
fn proc_step(tracer: &Tracer) -> f64 {
    const STEPS: u64 = 2_000_000;
    const LATENCY: u64 = 40;
    let topology = Topology::cube(2, 8);
    let programs: Vec<Box<dyn ThreadProgram>> = (0..2)
        .map(|ctx| Box::new(NeighborProgram::new(&topology, ctx, 9, 10)) as Box<dyn ThreadProgram>)
        .collect();
    let mut cpu = Processor::new(programs, 11);
    let mut pending: Vec<(u64, usize)> = Vec::new();
    let start = Instant::now();
    tracer.span("proc", "Processor::step", || {
        for cycle in 0..STEPS {
            pending.retain(|&(due, ctx)| {
                if due <= cycle {
                    cpu.complete(ctx, cycle);
                    false
                } else {
                    true
                }
            });
            if let Some(req) = cpu.step() {
                pending.push((cycle + LATENCY, req.context));
            }
        }
    });
    black_box(cpu.stats());
    start.elapsed().as_secs_f64() * 1e9 / STEPS as f64
}

/// `model.solve_us`: one combined-model solve of the paper's machine.
fn model_solve(tracer: &Tracer) -> Result<f64, String> {
    const SOLVES: usize = 20_000;
    let model = MachineConfig::alewife()
        .to_combined_model()
        .map_err(|e| format!("model: {e}"))?;
    let start = Instant::now();
    tracer.span("model", "CombinedModel::solve", || {
        for i in 0..SOLVES {
            let distance = 1.0 + (i % 64) as f64 / 8.0;
            black_box(model.solve(black_box(distance)).expect("solvable"));
        }
    });
    Ok(start.elapsed().as_secs_f64() * 1e6 / SOLVES as f64)
}

/// One serve request's scenario, as `run.py` generated it.
struct Scenario {
    config: SimConfig,
    mapping: String,
    window: u64,
}

/// Parses the request list: one `topology mapping contexts window` line
/// per request.
fn parse_requests(text: &str) -> Result<Vec<Scenario>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            let [topology, mapping, contexts, window] = f[..] else {
                return Err(format!("bad request line `{line}`"));
            };
            let mut config = SimConfig {
                contexts: contexts.parse().map_err(|e| format!("{line}: {e}"))?,
                ..SimConfig::default()
            };
            if topology != "cube" {
                config.topology = Some(Topology::parse(topology, config.dims, config.radix)?);
            }
            Ok(Scenario {
                config,
                mapping: mapping.to_owned(),
                window: window.parse().map_err(|e| format!("{line}: {e}"))?,
            })
        })
        .collect()
}

/// `serve.resolve_ms`, `serve.key_us` and `serve.restore_ms`: the
/// daemon's per-request steps, replayed in process.
fn serve_steps(tracer: &Tracer, requests: &str, out: JsonObject) -> Result<JsonObject, String> {
    /// Requests whose suite resolution is replayed (each rebuilds the
    /// whole suite, as the daemon does for every request).
    const RESOLVED: usize = 24;
    let scenarios = parse_requests(requests)?;
    let mut resolve_ms = Vec::new();
    let mut key_us = Vec::new();
    for scenario in scenarios.iter().take(RESOLVED) {
        let start = Instant::now();
        let suite = tracer.span("serve", "resolve_mappings", || suite(&scenario.config));
        resolve_ms.push(start.elapsed().as_secs_f64() * 1e3);
        let named = suite
            .iter()
            .find(|m| m.name == scenario.mapping)
            .ok_or_else(|| format!("unknown mapping `{}`", scenario.mapping))?;
        const KEYS: u32 = 200;
        let start = Instant::now();
        tracer.span("serve", "ScenarioKey::new", || {
            for _ in 0..KEYS {
                black_box(ScenarioKey::new(
                    &scenario.config,
                    &named.mapping,
                    REDUCED_WARMUP,
                    scenario.window,
                ));
            }
        });
        key_us.push(start.elapsed().as_secs_f64() * 1e6 / f64::from(KEYS));
    }
    let config = SimConfig::default();
    let mut machine = Machine::new(&config, &Mapping::identity(64));
    machine
        .run_network_cycles(REDUCED_WARMUP)
        .map_err(|e| format!("warmup: {e}"))?;
    let snapshot = machine.snapshot();
    let mut restore_ms = Vec::new();
    for _ in 0..15 {
        let start = Instant::now();
        black_box(tracer.span("sim", "MachineSnapshot::restore", || snapshot.restore()));
        restore_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out
        .num("serve.resolve_ms", median(resolve_ms))
        .num("serve.key_us", median(key_us))
        .num("serve.restore_ms", median(restore_ms)))
}

/// Every in-process layer probe; `requests` is the serve stream.
pub fn run(requests: &str, tracer: &Tracer) -> Result<String, String> {
    ready(false);
    let out = net_and_machine(tracer, JsonObject::default())?;
    let out = out
        .num("mem.txn_ns", mem_txn(tracer))
        .num("proc.step_ns", proc_step(tracer))
        .num("model.solve_us", model_solve(tracer)?);
    let out = serve_steps(tracer, requests, out)?;
    Ok(out.render())
}

/// Cycles the shard probe times per configuration, after its own
/// untimed warm-up.
const SHARD_WARMUP: u64 = 300;
const SHARD_CYCLES: u64 = 600;

/// Times `SHARD_CYCLES` cycles of an already warmed machine.
fn time_cycles(run: impl FnOnce(u64) -> Result<(), commloc_sim::SimError>) -> Result<f64, String> {
    let start = Instant::now();
    run(SHARD_CYCLES).map_err(|e| format!("shard probe: {e}"))?;
    Ok(start.elapsed().as_secs_f64())
}

fn sharded_secs(
    config: &SimConfig,
    mapping: &Mapping,
    jobs: usize,
    tracer: &Tracer,
    label: &str,
) -> Result<f64, String> {
    tracer.span("shard", label, || {
        let mut machine = ShardedMachine::new(config, mapping, crate::gain::SHARDS);
        machine.set_jobs(jobs);
        machine
            .run_network_cycles(SHARD_WARMUP)
            .map_err(|e| format!("shard probe warmup: {e}"))?;
        time_cycles(|c| machine.run_network_cycles(c))
    })
}

/// `shard.*`: the gain point's machine on a short window, sharded with
/// `jobs` workers and one worker, and monolithic.
pub fn shard(seed: u64, jobs: usize, tracer: &Tracer) -> Result<String, String> {
    ready(false);
    let config = crate::gain::config();
    let nodes = crate::gain::RADIX * crate::gain::RADIX;
    let identity = Mapping::identity(nodes);
    let random = Mapping::random(nodes, seed);
    let rss_start_kb = status_kb("VmRSS:");
    let id_jobs = sharded_secs(&config, &identity, jobs, tracer, "identity.jobs")?;
    let bytes_per_node =
        (status_kb("VmHWM:").saturating_sub(rss_start_kb) * 1024) as f64 / nodes as f64;
    let id_one = sharded_secs(&config, &identity, 1, tracer, "identity.one_worker")?;
    let rand_jobs = sharded_secs(&config, &random, jobs, tracer, "random.jobs")?;
    let rand_one = sharded_secs(&config, &random, 1, tracer, "random.one_worker")?;
    let mono = tracer.span("sim", "identity.monolithic", || {
        let mut machine = Machine::new(&config, &identity);
        machine
            .run_network_cycles(SHARD_WARMUP)
            .map_err(|e| format!("monolithic warmup: {e}"))?;
        time_cycles(|c| machine.run_network_cycles(c))
    })?;
    let node_cycles = (nodes as u64 * SHARD_CYCLES) as f64;
    Ok(JsonObject::default()
        .num("shard.identity_node_cycles_per_s", node_cycles / id_jobs)
        .num("shard.random_node_cycles_per_s", node_cycles / rand_jobs)
        .num(
            "shard.parallel_speedup",
            (id_one + rand_one) / (id_jobs + rand_jobs),
        )
        .num("shard.overhead", id_one / mono)
        .num("shard.rss_bytes_per_node", bytes_per_node)
        .render())
}
