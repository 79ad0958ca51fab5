//! Fabric load recorded from a real machine run, replayed into a
//! standalone fabric: the `net` layer measured under protocol traffic
//! rather than synthetic uniform traffic.

use commloc_net::{Fabric, Message, NodeId, TraceEvent};
use commloc_sim::{Machine, Mapping, SimConfig};
use std::time::Instant;

/// One recorded injection: the cycle its head flit left the source
/// interface, and the message envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub cycle: u64,
    pub src: usize,
    pub dst: usize,
    pub length: u32,
}

/// Runs `config`/`mapping` for `cycles` network cycles with fabric
/// tracing on and returns every `TraceEvent::Inject`, in order.
///
/// # Errors
///
/// A stalled machine, or a trace ring too small to hold every event.
pub fn record(
    config: &SimConfig,
    mapping: &Mapping,
    cycles: u64,
) -> Result<Vec<Injection>, String> {
    let mut traced = config.clone();
    traced.fabric.trace_capacity = 1 << 22;
    let mut machine = Machine::new(&traced, mapping);
    machine
        .run_network_cycles(cycles)
        .map_err(|e| format!("recording run: {e}"))?;
    let trace = machine.trace().ok_or("machine has no trace")?;
    if trace.recorded() != trace.len() as u64 {
        return Err(format!(
            "trace ring overflowed: {} events recorded, {} kept",
            trace.recorded(),
            trace.len()
        ));
    }
    Ok(trace
        .iter()
        .filter_map(|event| match *event {
            TraceEvent::Inject {
                cycle,
                src,
                dst,
                length,
                ..
            } => Some(Injection {
                cycle,
                src: src.0,
                dst: dst.0,
                length,
            }),
            _ => None,
        })
        .collect())
}

/// What a replay measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Cycles stepped up to the last recorded injection cycle.
    pub cycles: u64,
    /// Host seconds for those cycles (injection, stepping and polling).
    pub secs: f64,
    /// Host seconds inside `Fabric::step` over those cycles.
    pub step_secs: f64,
    /// Host seconds inside `Fabric::inject`.
    pub inject_secs: f64,
    /// Host seconds inside the per-cycle `Fabric::poll_delivery` sweep.
    pub poll_secs: f64,
    /// Flit movements over those cycles (`Fabric::activity`).
    pub flit_moves: u64,
    pub injected: u64,
    /// Deliveries, including the ones drained after the last cycle.
    pub delivered: u64,
}

/// Injects every recorded message at its recorded cycle into a fresh
/// fabric built like the machine's, steps, and polls every node each
/// cycle; then drains the fabric so every message can be accounted for.
///
/// # Errors
///
/// A fabric error, or a fabric that fails to drain.
pub fn replay(config: &SimConfig, injections: &[Injection]) -> Result<Replay, String> {
    let topology = config.resolved_topology();
    let nodes = topology.compute_nodes();
    let mut fabric: Fabric<()> = Fabric::new(topology, config.fabric);
    let end = injections.last().map_or(0, |i| i.cycle);
    let mut out = Replay::default();
    let mut next = 0;
    let poll = |fabric: &mut Fabric<()>, delivered: &mut u64| {
        for node in 0..nodes {
            while fabric.poll_delivery(NodeId(node)).is_some() {
                *delivered += 1;
            }
        }
    };
    let start = Instant::now();
    while fabric.cycle() <= end {
        let t0 = Instant::now();
        while next < injections.len() && injections[next].cycle <= fabric.cycle() {
            let i = injections[next];
            fabric.inject(Message::new(NodeId(i.src), NodeId(i.dst), i.length, ()));
            next += 1;
            out.injected += 1;
        }
        let t1 = Instant::now();
        fabric.step().map_err(|e| format!("replay step: {e}"))?;
        let t2 = Instant::now();
        poll(&mut fabric, &mut out.delivered);
        let t3 = Instant::now();
        out.inject_secs += (t1 - t0).as_secs_f64();
        out.step_secs += (t2 - t1).as_secs_f64();
        out.poll_secs += (t3 - t2).as_secs_f64();
    }
    out.secs = start.elapsed().as_secs_f64();
    out.cycles = fabric.cycle();
    out.flit_moves = fabric.activity();
    let drained = fabric
        .run_until_idle(1_000_000)
        .map_err(|e| format!("replay drain: {e}"))?;
    if !drained {
        return Err("replayed fabric did not drain".into());
    }
    poll(&mut fabric, &mut out.delivered);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use commloc_sim::mapping_suite;

    #[test]
    fn replay_delivers_every_recorded_message() {
        let config = SimConfig {
            dims: 2,
            radix: 4,
            contexts: 2,
            ..SimConfig::default()
        };
        let torus = commloc_net::Torus::new(2, 4);
        let mapping = mapping_suite(&torus, 1992)
            .into_iter()
            .find(|m| m.name == "random-1")
            .expect("suite has random-1")
            .mapping;
        let injections = record(&config, &mapping, 3_000).expect("recorded");
        assert!(injections.len() > 100, "{} injections", injections.len());
        assert!(injections.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        let replay = replay(&config, &injections).expect("replayed");
        assert_eq!(replay.injected, injections.len() as u64);
        assert_eq!(replay.delivered, replay.injected);
        assert!(replay.flit_moves > 0);
    }
}
