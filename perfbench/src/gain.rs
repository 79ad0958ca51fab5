//! The `gain_point` workload: the 64×64 point of the measured
//! gain-at-scale curve, identity mapping then a seeded random mapping,
//! on the shard-parallel engine.

use crate::model::{rate_err_pct, Measured};
use crate::span::{digest, ready, status_kb, JsonObject, Tracer};
use commloc_sim::{Mapping, Measurements, ShardedMachine, SimConfig};

pub const RADIX: usize = 64;
pub const SHARDS: usize = 16;
/// The 64×64 row of the gain-at-scale size table.
pub const WARMUP: u64 = 1_500;
pub const WINDOW: u64 = 4_500;

pub fn config() -> SimConfig {
    SimConfig {
        dims: 2,
        radix: RADIX,
        ..SimConfig::default()
    }
}

/// Runs warmup and window on a built machine; returns the measurements
/// and the per-node completion digest.
fn measure(
    machine: &mut ShardedMachine,
    label: &str,
    tracer: &Tracer,
) -> Result<(Measurements, u64), String> {
    tracer
        .span("shard", &format!("{label}.warmup"), || {
            machine.run_network_cycles(WARMUP)
        })
        .map_err(|e| format!("{label} warmup: {e}"))?;
    machine.reset_measurements();
    tracer
        .span("shard", &format!("{label}.window"), || {
            machine.run_network_cycles(WINDOW)
        })
        .map_err(|e| format!("{label} window: {e}"))?;
    let measured = machine.measure();
    Ok((measured, digest(machine.completions_per_node())))
}

fn record(label: &str, m: &Measurements, completions_digest: u64, secs: f64) -> String {
    JsonObject::default()
        .text("mapping", label)
        .num("transaction_rate", m.transaction_rate)
        .text(
            "rate_bits",
            &format!("{:016x}", m.transaction_rate.to_bits()),
        )
        .text("completions_digest", &format!("{completions_digest:016x}"))
        .num("distance", m.distance)
        .num("secs", secs)
        .render()
}

pub fn run(seed: u64, jobs: usize, tracer: &Tracer, setup_only: bool) -> Result<String, String> {
    let config = config();
    let nodes = RADIX * RADIX;
    let rss_start_kb = status_kb("VmRSS:");
    // Set-up: the identity machine is built and ready to step.
    let mut identity = tracer.span("shard", "identity.build", || {
        ShardedMachine::new(&config, &Mapping::identity(nodes), SHARDS)
    });
    identity.set_jobs(jobs);
    ready(setup_only);

    let start = std::time::Instant::now();
    let (id_m, id_digest) = measure(&mut identity, "identity", tracer)?;
    let id_secs = start.elapsed().as_secs_f64();
    drop(identity);

    let start = std::time::Instant::now();
    let mapping = tracer.span("sim", "Mapping::random", || Mapping::random(nodes, seed));
    let mut random = tracer.span("shard", "random.build", || {
        ShardedMachine::new(&config, &mapping, SHARDS)
    });
    random.set_jobs(jobs);
    let (rand_m, rand_digest) = measure(&mut random, "random", tracer)?;
    let rand_secs = start.elapsed().as_secs_f64();

    let hwm_kb = status_kb("VmHWM:");
    let measured = |m: &Measurements| Measured {
        nodes: nodes as f64,
        contexts: config.contexts as u32,
        distance: m.distance,
        sim_rate: m.transaction_rate,
    };
    let model_err = rate_err_pct(&[measured(&id_m), measured(&rand_m)])?;
    Ok(JsonObject::default()
        .raw("identity", &record("identity", &id_m, id_digest, id_secs))
        .raw("random", &record("random", &rand_m, rand_digest, rand_secs))
        .num("model_rate_err_pct", model_err)
        .num("gain", id_m.transaction_rate / rand_m.transaction_rate)
        .int("nodes", nodes as u64)
        .int("vmhwm_kb", hwm_kb)
        .int("rss_start_kb", rss_start_kb)
        .render())
}
