//! Machine-lockstep differential fuzzing: the active-node engine versus
//! the retained exhaustive reference stepping mode.
//!
//! Each seed draws a random full-machine scenario — torus shape, context
//! count, clock ratio, mapping, retry/timeout configuration, watchdog
//! window, an optional fault plan (including one-off exact-cycle delay
//! events), and an optional migration policy (null or work-stealing) —
//! and runs two [`Machine`]s over it in lockstep: one stepped by the
//! active-node engine ([`Machine::new`]), one by the reference loop
//! ([`Machine::new_reference`]). The checker requires **bit-identical**
//! behavior: completion counts (total and per node), measurements,
//! latency breakdowns, fault logs, and — when the scenario wedges — the
//! watchdog's stall report, down to the trip cycle.
//!
//! This module holds only what is specific to a machine: the scenario,
//! its lockstep driver and its reductions. The fault-plan draw, the
//! divergence check, the greedy fixed-point shrinker and the literal
//! printers are the fabric fuzzer's ([`commloc_net::fuzz`]). Failing
//! seeds shrink to a ready-to-paste repro test; the
//! `commloc fuzz --machine --seeds N` subcommand drives sweeps from CI.

use crate::error::ConfigError;
use crate::machine::{Machine, SimConfig};
use crate::mapping::Mapping;
use crate::resilience::MigrationSpec;
use crate::shard::ShardedMachine;
use crate::workload::Workload;
use commloc_mem::MemConfig;
use commloc_net::check_eq;
use commloc_net::fuzz::{
    edited, fault_expr, shrink_with, topology_expr, Divergence, FaultOdds, FaultSpec, ShrinkOutcome,
};
use commloc_net::{DetRng, FabricConfig, Topology};

/// Domain-separation constant so machine-scenario generation never shares
/// a stream with the fabric fuzzer or the workloads.
const SCENARIO_SALT: u64 = 0x7E57_AC71_0EB1_05ED;

/// Lockstep comparison interval in network cycles: long enough to
/// amortize the checks, short enough to localize a divergence.
const CHECK_INTERVAL: u64 = 128;

/// The machine fuzzer's fault mix: sparser rates than the fabric
/// fuzzer's, with longer scheduled stalls.
const FAULT_ODDS: FaultOdds = FaultOdds {
    plan: 0.4,
    drop: (0.5, 0.01),
    corrupt: (0.3, 0.01),
    stall: (0.3, 0.002),
    stall_window: (10, 120),
    kill: 0.3,
    link_stall: 0.25,
    router_stall: 0.25,
    stall_length: (50, 600),
};

/// Engine labels of the two lockstep comparisons.
const REFERENCE: (&str, &str) = ("active", "reference");
const SHARDED: (&str, &str) = ("active", "sharded");

/// Which thread-to-processor mapping a scenario uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingKind {
    /// Thread `i` on processor `i` (distance 1).
    Identity,
    /// A seeded uniform random permutation (the Eq. 17 regime).
    Random(u64),
    /// Identity perturbed by a seeded number of random swaps.
    Swaps(u64),
}

/// One randomly drawn machine-level differential-test case. All fields
/// are plain data so failing cases can be shrunk and replayed literally.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineScenario {
    /// Seed for the fault stream (the workload itself is deterministic).
    pub seed: u64,
    /// Torus dimensionality (1–3); ignored when `topology` is set.
    pub dims: u32,
    /// Per-dimension radix; ignored when `topology` is set.
    pub radix: usize,
    /// Hardware contexts per processor.
    pub contexts: usize,
    /// Network cycles per processor cycle.
    pub clock_ratio: u32,
    /// Context-switch cost in processor cycles.
    pub switch_cycles: u32,
    /// Computation grain between memory accesses.
    pub work: u32,
    /// Controller timeout (`0` disables retries).
    pub timeout_cycles: u32,
    /// Retry budget per transaction.
    pub max_retries: u32,
    /// Progress-watchdog window (`0` disables it).
    pub watchdog_cycles: u64,
    /// Thread-to-processor mapping.
    pub mapping: MappingKind,
    /// Trace ring capacity on the active engine only (`0` = off);
    /// exercised because tracing must never perturb behavior.
    pub trace_capacity: usize,
    /// Warmup cycles before the measurement reset.
    pub warmup: u64,
    /// Measured cycles after the reset.
    pub window: u64,
    /// Optional fault plan, shared verbatim by both engines.
    pub fault: Option<FaultSpec>,
    /// Optional migration policy (null or work-stealing), built fresh
    /// for each engine from the same spec — the resilience layer's
    /// park/adopt/abandon machinery must stay bit-exact across engines.
    pub migration: Option<MigrationSpec>,
    /// Shard count for a third, shard-parallel engine checked against
    /// the active one (`1` = no sharded engine). Forced to 1 when a
    /// migration policy is drawn — sharded machines do not support
    /// migration, and the checker skips the third engine in that case.
    pub shards: usize,
    /// Explicit non-cube topology (`None` = the cube from `dims`/`radix`).
    /// Scheduled `(dim, direction)`-addressed faults and migration
    /// policies are cube-only and are never drawn alongside this.
    pub topology: Option<Topology>,
    /// The traffic-generating workload both engines run (never a trace:
    /// the fuzzer sticks to the synthetic generators).
    pub workload: Workload,
}

impl MachineScenario {
    /// Draws a scenario deterministically from `seed`: small tori (the
    /// reference engine is intentionally slow), every context count and
    /// clock ratio, identity/swapped/random mappings, with faults,
    /// timeouts, and watchdog windows mixed in half the time.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ SCENARIO_SALT);
        let dims = 1 + rng.index(3) as u32;
        let radix = match dims {
            1 => 4 + rng.index(9), // rings of 4..=12 nodes
            2 => 3 + rng.index(3), // 9..=25 nodes
            _ => 3,                // 27 nodes
        };
        let contexts = [1usize, 2, 4][rng.index(3)];
        let clock_ratio = if rng.chance(0.5) { 1 } else { 2 };
        let switch_cycles = [0u32, 2, 11][rng.index(3)];
        let work = 2 + rng.index(10) as u32;
        let (timeout_cycles, max_retries) = if rng.chance(0.5) {
            (100 + rng.index(500) as u32, 1 + rng.index(6) as u32)
        } else {
            (0, 8)
        };
        let watchdog_cycles = if rng.chance(0.5) {
            1_500 + rng.range_u64(0, 2_500)
        } else {
            0
        };
        let nodes = radix.pow(dims);
        // Three seeds in eight trade the cube for one of the pluggable
        // fabrics, at sizes small enough for the reference engine.
        let topology = match rng.index(8) {
            0..=4 => None,
            5 => Some(Topology::mesh(2 + rng.index(3), 2 + rng.index(3))),
            6 => Some(Topology::fat_tree(2 + rng.index(2), 2)),
            _ => Some(Topology::dragonfly(2 + rng.index(2), 1)),
        };
        // Router count (switches included) for node-addressed faults and
        // shard clamping; compute count only matters for the mapping.
        let routers = topology.as_ref().map_or(nodes, Topology::nodes);
        let workload = match rng.index(6) {
            0..=2 => Workload::Neighbor,
            3 | 4 => Workload::Hotspot {
                targets: 1 + rng.index(3),
            },
            _ => Workload::Transpose,
        };
        let mapping = match rng.index(3) {
            0 => MappingKind::Identity,
            1 => MappingKind::Random(rng.range_u64(1, u64::from(u32::MAX))),
            _ => MappingKind::Swaps(rng.range_u64(1, u64::from(u32::MAX))),
        };
        let trace_capacity = if rng.chance(0.3) { 32 } else { 0 };
        let warmup = rng.range_u64(200, 1_200);
        let window = rng.range_u64(800, 3_000);
        let mut fault = FaultSpec::draw(
            &mut rng,
            &FAULT_ODDS,
            warmup + window,
            routers,
            topology.is_none().then_some(dims),
        );
        // One-off delay events beyond the plan drawn above: a single
        // exact-cycle router stall, the resilience subsystem's injector
        // shape, composed onto whatever ambient faults exist.
        if rng.chance(0.3) {
            let delay = (
                rng.range_u64(1, warmup + window),
                rng.index(routers),
                rng.range_u64(20, 400),
            );
            fault
                .get_or_insert_with(FaultSpec::default)
                .router_stalls
                .push(delay);
        }
        // Migration policies ride along about a third of the time: null
        // (must be invisible) or work-stealing with small budgets and
        // thresholds low enough to fire on ordinary congestion. They are
        // cube-only (the policy view exposes torus coordinates).
        let migration = if topology.is_none() && rng.chance(0.35) {
            Some(MigrationSpec {
                stealing: rng.chance(0.5),
                steal_latency: rng.range_u64(0, 400),
                wedge_threshold: rng.range_u64(200, 1_700),
                max_migrations: rng.range_u64(0, 5),
            })
        } else {
            None
        };
        // The shard-parallel engine rides along on half the
        // migration-free seeds: the scenario then runs a three-way
        // lockstep, active vs reference vs sharded.
        let shards = if migration.is_some() {
            1
        } else {
            [1, 1, 1, 2, 3, 4][rng.index(6)].min(routers)
        };
        Self {
            seed,
            dims,
            radix,
            contexts,
            clock_ratio,
            switch_cycles,
            work,
            timeout_cycles,
            max_retries,
            watchdog_cycles,
            mapping,
            trace_capacity,
            warmup,
            window,
            fault,
            migration,
            shards,
            topology,
            workload,
        }
    }

    /// Number of compute nodes (the mapping's thread count).
    pub fn nodes(&self) -> usize {
        let cube = self.radix.pow(self.dims);
        self.topology.as_ref().map_or(cube, Topology::compute_nodes)
    }

    /// Total router count, switches included (bounds shard counts and
    /// node-addressed fault sites).
    pub fn total_nodes(&self) -> usize {
        let cube = self.radix.pow(self.dims);
        self.topology.as_ref().map_or(cube, Topology::nodes)
    }

    /// The mapping object this scenario describes.
    pub fn build_mapping(&self) -> Mapping {
        let nodes = self.nodes();
        match self.mapping {
            MappingKind::Identity => Mapping::identity(nodes),
            MappingKind::Random(seed) => Mapping::random(nodes, seed),
            MappingKind::Swaps(seed) => Mapping::random_swaps(nodes, nodes / 2, seed),
        }
    }

    /// The simulation configuration, checked by [`SimConfig::validate`],
    /// with tracing enabled only when `traced` (the differential pair runs
    /// traced-active against untraced-reference to prove tracing is
    /// behavior-neutral).
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] of a scenario no machine accepts.
    pub fn sim_config(&self, traced: bool) -> Result<SimConfig, ConfigError> {
        let config = SimConfig {
            dims: self.dims,
            radix: self.radix,
            contexts: self.contexts,
            clock_ratio: self.clock_ratio,
            switch_cycles: self.switch_cycles,
            work: self.work,
            mem: MemConfig {
                timeout_cycles: self.timeout_cycles,
                max_retries: self.max_retries,
                ..MemConfig::default()
            },
            fabric: FabricConfig {
                link_vcs: 4,
                vc_buffer_capacity: 8,
                injection_buffer_capacity: 8,
                trace_capacity: if traced { self.trace_capacity } else { 0 },
            },
            watchdog_cycles: self.watchdog_cycles,
            fault_plan: self.fault.as_ref().map(|spec| spec.build(self.seed)),
            topology: self.topology.clone(),
            workload: self.workload.clone(),
        };
        config.validate()?;
        Ok(config)
    }
}

/// An intentional perturbation of the **reference** machine only — the
/// hook proving the differential checker and shrinker actually fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineMutation {
    /// Lengthen the reference machine's computation grain by one cycle,
    /// desynchronizing every issue schedule.
    SkewWork,
}

/// Statistics from one clean machine-lockstep run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineFuzzReport {
    /// Transactions completed by each engine.
    pub completions: u64,
    /// Network cycles both machines reached.
    pub net_cycles: u64,
    /// Whether the run ended in a (bit-identical) watchdog stall.
    pub stalled: bool,
}

/// Runs one seed's lockstep differential check.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the engines.
pub fn run_seed(seed: u64) -> Result<MachineFuzzReport, Divergence> {
    run_scenario(&MachineScenario::from_seed(seed))
}

/// Runs a scenario's lockstep differential check.
///
/// # Errors
///
/// Returns the first [`Divergence`] between the engines.
pub fn run_scenario(scenario: &MachineScenario) -> Result<MachineFuzzReport, Divergence> {
    run_scenario_mutated(scenario, None)
}

/// [`run_scenario`] with an optional intentional mutation applied to the
/// reference machine — the test hook proving the checker can fail.
/// Production sweeps pass `None`.
///
/// # Errors
///
/// Returns the first [`Divergence`] detected (which, under a mutation,
/// is the expected outcome).
pub fn run_scenario_mutated(
    scenario: &MachineScenario,
    mutation: Option<MachineMutation>,
) -> Result<MachineFuzzReport, Divergence> {
    let config = |traced| {
        scenario.sim_config(traced).map_err(|e| Divergence {
            cycle: None,
            what: format!("invalid scenario: {e}"),
        })
    };
    let mapping = scenario.build_mapping();
    let mut ref_config = config(false)?;
    if mutation == Some(MachineMutation::SkewWork) {
        ref_config.work += 1;
    }
    let active_config = config(true)?;
    let mut active = match scenario.migration {
        Some(spec) => Machine::with_policy(&active_config, &mapping, spec.build()),
        None => Machine::new(&active_config, &mapping),
    };
    let mut reference = match scenario.migration {
        Some(spec) => Machine::new_reference_with_policy(&ref_config, &mapping, spec.build()),
        None => Machine::new_reference(&ref_config, &mapping),
    };
    // The shard-parallel engine joins as a third lockstep participant on
    // sharded draws (untraced config — sharded machines reject tracing;
    // serial driver — worker counts never change results and the sweep
    // itself already fans out across seeds).
    let mut sharded = if scenario.shards > 1 && scenario.migration.is_none() {
        Some(ShardedMachine::new(
            &config(false)?,
            &mapping,
            scenario.shards,
        ))
    } else {
        None
    };

    let mut stalled = false;
    'phases: for (name, cycles) in [("warmup", scenario.warmup), ("window", scenario.window)] {
        let mut left = cycles;
        while left > 0 {
            let chunk = left.min(CHECK_INTERVAL);
            let ra = active.run_network_cycles(chunk);
            let rb = reference.run_network_cycles(chunk);
            let now = Some(active.net_cycle());
            check_eq!(REFERENCE, now;
                ra, rb, format!("{name} step result");
                active.net_cycle(), reference.net_cycle(), "network clock");
            if let Some(shard) = sharded.as_mut() {
                let rs = shard.run_network_cycles(chunk);
                check_eq!(SHARDED, now;
                    ra, rs, format!("{name} step result");
                    active.net_cycle(), shard.net_cycle(), "network clock");
            }
            if ra.is_err() {
                // All engines stalled with the identical report: the run
                // ends here on every side, already proven equal.
                stalled = true;
                break 'phases;
            }
            check_eq!(REFERENCE, now;
                active.completions(), reference.completions(), "completions";
                active.completions_per_node(), reference.completions_per_node(),
                "per-node completions";
                active.measure(), reference.measure(), "measurements";
                active.migrations(), reference.migrations(), "migrations");
            if let Some(shard) = sharded.as_ref() {
                check_eq!(SHARDED, now;
                    active.completions(), shard.completions(), "completions";
                    active.completions_per_node().to_vec(), shard.completions_per_node(),
                    "per-node completions";
                    active.measure(), shard.measure(), "measurements");
            }
            left -= chunk;
        }
        if name == "warmup" {
            active.reset_measurements();
            reference.reset_measurements();
            if let Some(shard) = sharded.as_mut() {
                shard.reset_measurements();
            }
        }
    }

    let end = Some(active.net_cycle());
    check_eq!(REFERENCE, end;
        active.latency_breakdown(), reference.latency_breakdown(), "latency breakdown";
        active.fault_log(), reference.fault_log(), "fault log";
        active.total_iterations(), reference.total_iterations(), "workload iterations";
        active.migrations(), reference.migrations(), "migrations";
        active.migrated_from_nodes(), reference.migrated_from_nodes(), "migrated-from nodes");
    if let Some(shard) = sharded.as_ref() {
        check_eq!(SHARDED, end;
            active.latency_breakdown(), &shard.latency_breakdown(), "latency breakdown";
            active.fault_log().cloned(), shard.fault_log(), "fault log";
            active.total_iterations(), shard.total_iterations(), "workload iterations");
    }
    Ok(MachineFuzzReport {
        completions: active.completions(),
        net_cycles: active.net_cycle(),
        stalled,
    })
}

impl MachineScenario {
    /// Renders a ready-to-paste `#[test]` that replays this scenario
    /// (paste into a crate depending on `commloc-sim` and `commloc-net`).
    pub fn repro_test(&self) -> String {
        format!(
            "#[test]\nfn machine_fuzz_repro_seed_{seed}() {{\n    \
             use commloc_sim::fuzz::{{run_scenario, MachineScenario, MappingKind}};\n    \
             use commloc_sim::{{MigrationSpec, Workload}};\n    \
             use commloc_net::fuzz::FaultSpec;\n    use commloc_net::Direction::{{Minus, Plus}};\n    \
             use commloc_net::Topology;\n    \
             // Used by the fault, migration and topology literals.\n    \
             let _: (Option<FaultSpec>, [_; 2]) = (None, [Minus, Plus]);\n    \
             let _: (Option<MigrationSpec>, Option<Topology>) = (None, None);\n    \
             let scenario = MachineScenario {{\n        seed: {seed},\n        dims: {dims},\n        \
             radix: {radix},\n        contexts: {contexts},\n        clock_ratio: {ratio},\n        \
             switch_cycles: {switch},\n        work: {work},\n        timeout_cycles: {timeout},\n        \
             max_retries: {retries},\n        watchdog_cycles: {watchdog},\n        \
             mapping: MappingKind::{mapping:?},\n        trace_capacity: {tcap},\n        \
             warmup: {warmup},\n        window: {window},\n        fault: {fault},\n        \
             migration: {migration:?},\n        shards: {shards},\n        topology: {topology},\n        \
             workload: Workload::{workload:?},\n    }};\n    \
             run_scenario(&scenario).expect(\"active and reference machines must agree\");\n}}\n",
            seed = self.seed,
            dims = self.dims,
            radix = self.radix,
            contexts = self.contexts,
            ratio = self.clock_ratio,
            switch = self.switch_cycles,
            work = self.work,
            timeout = self.timeout_cycles,
            retries = self.max_retries,
            watchdog = self.watchdog_cycles,
            mapping = self.mapping,
            tcap = self.trace_capacity,
            warmup = self.warmup,
            window = self.window,
            fault = fault_expr(self.fault.as_ref()),
            migration = self.migration,
            shards = self.shards,
            topology = self
                .topology
                .as_ref()
                .map_or_else(|| "None".to_owned(), |t| format!("Some({})", topology_expr(t))),
            workload = self.workload,
        )
    }
}

/// Greedily shrinks a failing machine scenario through the shared
/// fixed-point loop ([`shrink_with`]); the `mutation`, if any, is held
/// constant across candidates.
///
/// Returns `None` if `scenario` does not actually fail.
pub fn shrink(
    scenario: &MachineScenario,
    mutation: Option<MachineMutation>,
) -> Option<ShrinkOutcome<MachineScenario>> {
    shrink_with(
        scenario,
        |s| run_scenario_mutated(s, mutation).err(),
        reductions,
    )
}

/// Candidate single-step reductions, most aggressive first.
fn reductions(s: &MachineScenario) -> Vec<MachineScenario> {
    let mut out = Vec::new();
    if s.window > 400 {
        out.push(edited(s, |c| c.window = (s.window / 2).max(400)));
    }
    if s.warmup > 0 {
        out.push(edited(s, |c| c.warmup = s.warmup / 2));
    }
    if s.fault.is_some() {
        out.push(edited(s, |c| c.fault = None));
    }
    if s.migration.is_some() {
        out.push(edited(s, |c| c.migration = None));
    }
    if let Some(spec) = s.migration {
        if spec.stealing {
            // Weaker than dropping the layer outright: keep the policy
            // machinery in place but make it a guaranteed no-op.
            out.push(edited(s, |c| {
                c.migration = Some(MigrationSpec {
                    stealing: false,
                    ..spec
                })
            }));
        }
    }
    if s.shards > 1 {
        // Drop the sharded engine entirely, then try fewer shards — a
        // boundary-protocol bug often needs only two.
        out.push(edited(s, |c| c.shards = 1));
        if s.shards > 2 {
            out.push(edited(s, |c| c.shards = s.shards - 1));
        }
    }
    if s.watchdog_cycles > 0 {
        out.push(edited(s, |c| c.watchdog_cycles = 0));
    }
    if s.timeout_cycles > 0 {
        out.push(edited(s, |c| c.timeout_cycles = 0));
    }
    if s.contexts > 1 {
        out.push(edited(s, |c| c.contexts = 1));
    }
    if s.mapping != MappingKind::Identity {
        out.push(edited(s, |c| c.mapping = MappingKind::Identity));
    }
    if s.topology.is_some() {
        // Collapse to the cube first; cube-only reductions below assume
        // `dims`/`radix` are live.
        out.push(edited(s, |c| c.topology = None));
    }
    if s.workload != Workload::Neighbor {
        out.push(edited(s, |c| c.workload = Workload::Neighbor));
    }
    if s.topology.is_none() && s.dims > 1 {
        out.push(edited(s, |c| c.dims = s.dims - 1));
    }
    if s.topology.is_none() && s.radix > 3 {
        out.push(edited(s, |c| c.radix = s.radix - 1));
    }
    if s.switch_cycles > 0 {
        out.push(edited(s, |c| c.switch_cycles = 0));
    }
    if s.work > 1 {
        out.push(edited(s, |c| c.work = (s.work / 2).max(1)));
    }
    if s.trace_capacity > 0 {
        out.push(edited(s, |c| c.trace_capacity = 0));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_generation_is_deterministic_and_valid() {
        for seed in 0..200u64 {
            let a = MachineScenario::from_seed(seed);
            let b = MachineScenario::from_seed(seed);
            assert_eq!(a, b, "seed {seed} not deterministic");
            assert!((1..=3).contains(&a.dims));
            assert!(a.nodes() >= 4 && a.nodes() <= 27, "seed {seed}");
            assert!(a.contexts == 1 || a.contexts == 2 || a.contexts == 4);
            assert!(a.clock_ratio == 1 || a.clock_ratio == 2);
            assert!(a.window >= 800);
            if let Err(e) = a.sim_config(true) {
                panic!("seed {seed}: drawn config does not validate: {e}");
            }
            assert!(
                a.shards >= 1 && a.shards <= a.total_nodes(),
                "seed {seed}: shards {} out of range",
                a.shards
            );
            if let Some(m) = a.migration {
                assert!(m.wedge_threshold >= 200, "seed {seed}");
                assert!(m.max_migrations < 5, "seed {seed}");
                assert_eq!(a.shards, 1, "seed {seed}: migration forces one shard");
                assert!(a.topology.is_none(), "seed {seed}: migration is cube-only");
            }
            if let Some(spec) = &a.fault {
                if a.topology.is_some() {
                    assert!(
                        spec.kills.is_empty() && spec.link_stalls.is_empty(),
                        "seed {seed}: (dim, dir) faults are cube-only"
                    );
                }
            }
        }
    }

    #[test]
    fn scenario_space_covers_every_topology_family_and_workload() {
        let scenarios: Vec<MachineScenario> = (0..200u64).map(MachineScenario::from_seed).collect();
        for family in ["cube", "mesh", "fattree", "dragonfly"] {
            assert!(
                scenarios.iter().any(|s| match &s.topology {
                    None => family == "cube",
                    Some(t) => t.family() == family,
                }),
                "no {family} draw in 200 seeds"
            );
        }
        assert!(scenarios
            .iter()
            .any(|s| matches!(s.workload, Workload::Hotspot { .. })));
        assert!(scenarios.iter().any(|s| s.workload == Workload::Transpose));
        assert!(scenarios.iter().any(|s| s.workload == Workload::Neighbor));
        // Non-cube draws must also mix with shards so the three-way
        // lockstep exercises shard boundaries through switch nodes.
        assert!(
            scenarios
                .iter()
                .any(|s| s.topology.is_some() && s.shards > 1),
            "no sharded non-cube draw in 200 seeds"
        );
    }

    #[test]
    fn noncube_scenarios_run_clean() {
        // A few seeds from each non-cube family must hold the lockstep.
        let mut checked = std::collections::BTreeMap::new();
        for seed in 0..400u64 {
            let s = MachineScenario::from_seed(seed);
            let Some(t) = &s.topology else { continue };
            let family = t.family();
            if *checked.get(family).unwrap_or(&0) >= 2 {
                continue;
            }
            *checked.entry(family).or_insert(0) += 1;
            run_seed(seed).unwrap_or_else(|d| panic!("seed {seed} ({family}): {d}"));
            if checked.len() == 3 && checked.values().all(|&n| n >= 2) {
                break;
            }
        }
        assert_eq!(checked.len(), 3, "missing families: {checked:?}");
    }

    #[test]
    fn sharded_scenarios_appear_and_run_clean() {
        // The scenario space must actually contain sharded draws across
        // several shard counts, and a few such seeds must hold the
        // three-way lockstep.
        let drawn: Vec<(u64, usize)> = (0..60u64)
            .map(|s| (s, MachineScenario::from_seed(s).shards))
            .filter(|&(_, k)| k > 1)
            .collect();
        assert!(
            drawn.len() >= 5,
            "expected sharded draws in 60 seeds: {drawn:?}"
        );
        assert!(
            drawn
                .iter()
                .map(|&(_, k)| k)
                .collect::<std::collections::BTreeSet<_>>()
                .len()
                >= 2,
            "expected multiple shard counts: {drawn:?}"
        );
        for &(seed, _) in drawn.iter().take(4) {
            run_seed(seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn migration_scenarios_appear_and_run_clean() {
        // The scenario space must actually contain both policy kinds,
        // and a few such seeds must hold lockstep.
        let drawn: Vec<(u64, MigrationSpec)> = (0..60u64)
            .filter_map(|s| MachineScenario::from_seed(s).migration.map(|m| (s, m)))
            .collect();
        assert!(
            drawn.iter().any(|(_, m)| m.stealing) && drawn.iter().any(|(_, m)| !m.stealing),
            "expected both null and stealing policies in 60 seeds: {drawn:?}"
        );
        for &(seed, _) in drawn.iter().take(4) {
            run_seed(seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn machine_fuzz_sweep_short() {
        // A quick slice of the sweep; CI runs hundreds of seeds through
        // `commloc fuzz --machine`.
        for seed in 0..12u64 {
            run_seed(seed).unwrap_or_else(|d| panic!("seed {seed}: {d}"));
        }
    }

    #[test]
    fn machine_fuzz_repro_seed_5() {
        // Shrunk from sweep seed 5: a 5x5 torus under three shards whose
        // boundaries cut rows mid-way, dense work=1 traffic, and a
        // swapped mapping. Caught the sharded engine losing slab
        // bookkeeping for worms that cross a shard boundary and return.
        let scenario = MachineScenario {
            seed: 5,
            dims: 2,
            radix: 5,
            contexts: 1,
            clock_ratio: 2,
            switch_cycles: 0,
            work: 1,
            timeout_cycles: 0,
            max_retries: 8,
            watchdog_cycles: 0,
            mapping: MappingKind::Swaps(2555218086),
            trace_capacity: 0,
            warmup: 0,
            window: 400,
            fault: None,
            migration: None,
            shards: 3,
            topology: None,
            workload: Workload::Neighbor,
        };
        run_scenario(&scenario).expect("active and sharded machines must agree");
    }

    #[test]
    fn differential_matrix_every_topology_times_traffic() {
        // The cross-scenario gate: every topology family x every traffic
        // generator, three engines each (active, reference, and the
        // shard-parallel machine via `shards: 2`), bit-exact. Unlike the
        // fuzz sweep this matrix is exhaustive and deterministic, so a
        // regression in any single pair fails by name.
        let topologies: [Option<Topology>; 4] = [
            None, // the 3x3 cube spelled through dims/radix
            Some(Topology::mesh(3, 3)),
            Some(Topology::fat_tree(2, 2)),
            Some(Topology::dragonfly(2, 1)),
        ];
        let workloads = [
            Workload::Neighbor,
            Workload::Hotspot { targets: 2 },
            Workload::Transpose,
        ];
        for (ti, topology) in topologies.iter().enumerate() {
            for (wi, workload) in workloads.iter().enumerate() {
                let scenario = MachineScenario {
                    seed: (ti * 16 + wi) as u64,
                    dims: 2,
                    radix: 3,
                    contexts: 2,
                    clock_ratio: 2,
                    switch_cycles: 2,
                    work: 2,
                    timeout_cycles: 0,
                    max_retries: 8,
                    watchdog_cycles: 0,
                    mapping: MappingKind::Random(0xC0FFEE + (ti * 3 + wi) as u64),
                    trace_capacity: 32,
                    warmup: 200,
                    window: 800,
                    fault: None,
                    migration: None,
                    shards: 2,
                    topology: topology.clone(),
                    workload: workload.clone(),
                };
                let label = topology
                    .as_ref()
                    .map_or_else(|| "cube:2x3".to_owned(), Topology::canonical);
                let report = run_scenario(&scenario)
                    .unwrap_or_else(|d| panic!("{label} x {workload:?} diverged: {d}"));
                assert!(
                    report.completions > 0,
                    "{label} x {workload:?} completed no transactions — the pair proves \
                     nothing"
                );
            }
        }
    }

    #[test]
    fn mutation_trips_the_machine_checker() {
        // A longer grain on the reference machine must desynchronize the
        // engines; if the checker cannot see that, it verifies nothing.
        let tripped = (0..4u64).any(|seed| {
            let scenario = MachineScenario::from_seed(seed);
            run_scenario_mutated(&scenario, Some(MachineMutation::SkewWork)).is_err()
        });
        assert!(tripped, "SkewWork never diverged across 4 seeds");
    }

    #[test]
    fn shrinker_minimizes_and_prints_machine_repro() {
        let scenario = MachineScenario::from_seed(1);
        let outcome =
            shrink(&scenario, Some(MachineMutation::SkewWork)).expect("mutated scenario must fail");
        assert!(outcome.scenario.window <= scenario.window);
        let repro = outcome.scenario.repro_test();
        assert!(repro.contains("machine_fuzz_repro_seed_1"));
        assert!(repro.contains("MachineScenario {"));
    }

    #[test]
    fn shrink_returns_none_for_passing_machine_scenario() {
        let scenario = MachineScenario::from_seed(0);
        assert!(shrink(&scenario, None).is_none());
    }
}
