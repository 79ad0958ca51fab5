//! The full-system machine: processors + coherence controllers + fabric.
//!
//! A [`Machine`] wires one Alewife-like node (a block-multithreaded
//! processor and a memory/coherence controller) to each router of a torus
//! fabric and advances everything on a common clock: the fabric ticks
//! every **network cycle**; processors and controllers tick once every
//! `clock_ratio` network cycles (2 in the paper's architecture — network
//! switches are clocked twice as fast as processors).
//!
//! The machine also performs the paper's measurements: average
//! inter-transaction issue time `t_t`, transaction latency `T_t`,
//! inter-message injection time `t_m`, message latency `T_m`, per-hop
//! latency `T_h`, channel utilization, communication distance `d`, and
//! the per-transaction message statistics `g` and `B`.
//!
//! # The active-node engine
//!
//! Stepping is built around an **active-node worklist with cross-layer
//! next-event horizons** (DESIGN.md §4.9). Each processor boundary visits
//! only the nodes that can possibly act — a node is enqueued when the
//! fabric delivers to it, when it has processor or controller work of its
//! own, or when a retry timer fires — and when the worklist is empty and
//! the fabric is drained, [`Machine::run_network_cycles`] fast-forwards
//! the whole machine to the earliest next event (`min` of the run target,
//! the first retry deadline, and the watchdog trip cycle). Each layer
//! contributes its horizon: `Processor::next_wake`,
//! `Controller::next_deadline`, and `Fabric::fast_forward`. The previous
//! exhaustive every-node-every-cycle loop is retained as a reference
//! stepping mode ([`Machine::new_reference`], `reference-engine` feature)
//! and the differential fuzzer asserts bit-identical behavior between the
//! two across random scenarios.

use crate::breakdown::{SpanEvent, SpanLog, TransactionBreakdown};
use crate::error::{ConfigError, SimError, StallKind, StallReport};
use crate::mapping::Mapping;
use crate::resilience::{MigrationPolicy, MigrationRecord, MigrationView};
use crate::workload::{workload_home_map, Workload};
use commloc_mem::{Controller, MemConfig, MemOp, ProtocolMsg, TxnId};
use commloc_net::{
    ActiveSet, BoundaryItem, Fabric, FabricConfig, FabricStats, FaultEvent, FaultLog, FaultPlan,
    LatencyBreakdown, Message, MessageId, NodeId, Topology, Torus, TraceBuffer,
};
use commloc_proc::{Processor, ReissueProgram, ThreadOp, ThreadProgram};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Full-system simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Torus dimensions (the paper's machine: 2).
    pub dims: u32,
    /// Torus radix (the paper's machine: 8, i.e. 64 nodes).
    pub radix: usize,
    /// Hardware contexts per processor (1, 2, or 4 in the paper).
    pub contexts: usize,
    /// Network cycles per processor cycle (2 = network twice as fast).
    pub clock_ratio: u32,
    /// Context-switch time in processor cycles (Sparcle: 11).
    pub switch_cycles: u32,
    /// Computation cycles preceding each memory access ("trivial
    /// computation", small grain).
    pub work: u32,
    /// Memory-system configuration.
    pub mem: MemConfig,
    /// Fabric buffering configuration.
    pub fabric: FabricConfig,
    /// Progress-watchdog window in network cycles: if no flit moves and
    /// no transaction retires for this long, stepping returns
    /// [`SimError::Stalled`] with a diagnostic dump. `0` disables the
    /// watchdog. A healthy machine makes progress every handful of
    /// cycles, so the default window is far above any legitimate quiet
    /// period yet small enough to fail fast under a wedged fabric.
    pub watchdog_cycles: u64,
    /// Fault plan installed into the fabric at construction (`None` = the
    /// perfect network of the paper's calibrated experiments).
    pub fault_plan: Option<FaultPlan>,
    /// Fabric topology. `None` selects the k-ary n-cube torus described
    /// by `dims`/`radix` (the paper's machine); an explicit topology
    /// overrides both.
    pub topology: Option<Topology>,
    /// The workload the processors run (the paper's neighbour
    /// application by default).
    pub workload: Workload,
}

impl SimConfig {
    /// The topology this configuration describes: the explicit
    /// [`SimConfig::topology`], or the torus built from `dims`/`radix`.
    pub fn resolved_topology(&self) -> Topology {
        self.topology
            .clone()
            .unwrap_or_else(|| Topology::cube(self.dims, self.radix))
    }

    /// Checks the scalar fields every machine needs before anything is
    /// built from them: the CLI and serve call this on every config they
    /// accept from outside.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a zero `dims`, `radix`, `contexts`
    /// or `clock_ratio`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let zero = [
            ("dims", self.dims == 0),
            ("radix", self.radix == 0),
            ("contexts", self.contexts == 0),
            ("clock_ratio", self.clock_ratio == 0),
        ];
        match zero.iter().find(|(_, is_zero)| *is_zero) {
            Some(&(field, _)) => Err(ConfigError {
                field,
                reason: "must be at least 1".into(),
            }),
            None => Ok(()),
        }
    }
}

impl Default for SimConfig {
    /// The paper's Section 3 architecture.
    fn default() -> Self {
        Self {
            dims: 2,
            radix: 8,
            contexts: 1,
            clock_ratio: 2,
            switch_cycles: 11,
            work: 10,
            mem: MemConfig::default(),
            fabric: FabricConfig {
                link_vcs: 4,
                vc_buffer_capacity: 16,
                injection_buffer_capacity: 16,
                ..FabricConfig::default()
            },
            watchdog_cycles: 20_000,
            fault_plan: None,
            topology: None,
            workload: Workload::Neighbor,
        }
    }
}

/// One node: processor + controller + transaction bookkeeping.
#[derive(Debug, Clone)]
struct NodeSim {
    cpu: Processor,
    ctrl: Controller,
    /// Outstanding transaction per hardware context.
    ctx_txn: Vec<Option<TxnId>>,
    next_txn: u64,
}

/// A migrating thread in flight to its destination node.
#[derive(Debug, Clone)]
struct StolenThread {
    to: usize,
    program: Box<dyn ThreadProgram>,
}

/// Measurement-window counters for transaction-level statistics.
/// Crate-visible so the sharded driver can sum per-shard windows before
/// building merged [`Measurements`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Window {
    pub(crate) misses: u64,
    pub(crate) sum_txn_latency: u64,
    pub(crate) hits: u64,
}

impl Window {
    /// Component-wise sum, for merging shard windows.
    pub(crate) fn absorb(&mut self, other: &Window) {
        self.misses += other.misses;
        self.sum_txn_latency += other.sum_txn_latency;
        self.hits += other.hits;
    }
}

/// The quantities the paper's validation experiments measure, all in
/// network cycles (rates per network cycle per node).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurements {
    /// Network cycles in the measurement window.
    pub net_cycles: u64,
    /// Machine size `N`.
    pub nodes: usize,
    /// Measured average communication distance `d` (hops).
    pub distance: f64,
    /// Per-node message injection rate `r_m`.
    pub message_rate: f64,
    /// Average inter-message injection time `t_m = 1 / r_m`.
    pub message_interval: f64,
    /// Average message latency `T_m` (enqueue to delivery).
    pub message_latency: f64,
    /// Average per-hop head latency `T_h`.
    pub per_hop_latency: f64,
    /// Mean network channel utilization `rho`.
    pub channel_utilization: f64,
    /// Mean injection-channel utilization.
    pub injection_utilization: f64,
    /// Per-node communication-transaction (miss) rate `r_t`.
    pub transaction_rate: f64,
    /// Average inter-transaction issue time `t_t = 1 / r_t`.
    pub issue_interval: f64,
    /// Average transaction latency `T_t` (issue to completion).
    pub transaction_latency: f64,
    /// Messages per transaction `g`.
    pub messages_per_transaction: f64,
    /// Average message size `B` (flits).
    pub avg_message_size: f64,
    /// Residual-service message size `E[B^2]/E[B]` (flits).
    pub residual_message_size: f64,
    /// Measured computation run length per transaction (`T_r`), in
    /// network cycles. `0.0` is the sentinel for a window with no
    /// misses, in which a run length is undefined.
    pub run_length: f64,
    /// Cache hit fraction among all accesses (diagnostic).
    pub hit_fraction: f64,
}

/// A complete simulated multiprocessor running the torus-neighbour
/// workload.
///
/// # Examples
///
/// ```no_run
/// use commloc_sim::{Machine, Mapping, SimConfig};
///
/// let config = SimConfig::default();
/// let mapping = Mapping::identity(64);
/// let mut machine = Machine::new(&config, &mapping);
/// machine.run_network_cycles(20_000).unwrap(); // warmup
/// machine.reset_measurements();
/// machine.run_network_cycles(50_000).unwrap();
/// let m = machine.measure();
/// assert!(m.distance > 0.9 && m.distance < 1.1);
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: SimConfig,
    fabric: Fabric<ProtocolMsg>,
    /// First global node this machine owns (0 for a whole-torus machine;
    /// a shard of a [`crate::ShardedMachine`] owns `[base, base+len)`).
    /// Per-node vectors are local-indexed; node-facing APIs and fabric
    /// calls use global ids (`base + local`).
    base: usize,
    /// Shard mode: protocol messages issued at a processor boundary are
    /// staged here instead of injected directly, so the sharded driver
    /// can assign globally sequential message ids in shard order —
    /// reproducing the exact id sequence the monolithic machine's
    /// ascending node visits would have produced (fault rolls hash over
    /// message ids, so ids must match bit-for-bit). `None` = monolithic.
    staged: Option<Vec<Message<ProtocolMsg>>>,
    nodes: Vec<NodeSim>,
    net_cycle: u64,
    window_start: u64,
    window: Window,
    txn_issue_cycle: HashMap<u64, u64>,
    /// Outstanding transaction ids in issue order. Issue cycles are
    /// monotone, so the front entry still present in `txn_issue_cycle` is
    /// the oldest outstanding transaction — the watchdog reads it in O(1)
    /// amortized instead of scanning the whole map every cycle.
    txn_issue_order: VecDeque<u64>,
    /// Total transaction completions ever (never reset — watchdog input).
    completed: u64,
    completed_per_node: Vec<u64>,
    /// Progress marker `(fabric activity, completions)` at the last cycle
    /// that showed progress, and that cycle.
    progress_marker: (u64, u64),
    progress_cycle: u64,
    /// Transaction-level span ring, present iff tracing is enabled
    /// (`config.fabric.trace_capacity > 0`).
    spans: Option<SpanLog>,
    /// Nodes with possible work at the next processor boundary (the
    /// active-node worklist).
    active: ActiveSet,
    /// Processor-boundary index at which each node's processor and
    /// controller clocks were last advanced. Dormant nodes accrue "idle
    /// debt" settled lazily on their next visit (or by
    /// [`Machine::reset_measurements`]), since a dormant boundary is
    /// exactly `{cpu: cycles+1/idle+1, ctrl: cycle+1}` for both layers.
    last_stepped: Vec<u64>,
    /// Dormant nodes keyed by the processor-boundary index of their
    /// earliest retry/backoff deadline (controller local cycles coincide
    /// with boundary indices). Stale entries are harmless: a woken node
    /// visit with no due timer is a no-op identical to a reference step.
    timer_wakes: BTreeMap<u64, Vec<u32>>,
    /// Scratch: snapshot of the active set being visited.
    node_scratch: Vec<u32>,
    /// Scratch: drained fabric delivery events.
    event_scratch: Vec<u32>,
    /// Network cycles skipped by machine-level fast-forward jumps
    /// (diagnostic: lets tests and benches assert the quiescent path
    /// actually fired, since its whole point is being unobservable).
    fast_forwarded: u64,
    /// Step with the retained exhaustive every-node loop instead of the
    /// active-node engine (differential testing only).
    reference: bool,
    /// Dynamic re-mapping policy, consulted at every processor boundary
    /// (`None` = the static machine; [`crate::NullPolicy`] is bit-exact
    /// with `None`).
    policy: Option<Box<dyn MigrationPolicy>>,
    /// Migrating threads keyed by the network cycle their steal latency
    /// elapses; each is adopted at the first processor boundary at or
    /// after that cycle.
    arrivals: BTreeMap<u64, Vec<StolenThread>>,
    /// Raw ids of abandoned transactions whose (already unreachable)
    /// completions must be swallowed rather than reported as
    /// [`SimError::UnknownCompletion`].
    abandoned: HashSet<u64>,
    /// Every migration performed, in decision order.
    migrations: Vec<MigrationRecord>,
    /// Nodes a thread has ever migrated away from (sticky; feeds the
    /// stall report and degradation accounting).
    migrated_from: Vec<bool>,
    /// Threads currently assigned to each node (in-flight migrations
    /// count at their destination) — the policy's load view.
    live_threads: Vec<usize>,
}

impl Machine {
    /// Builds the machine for the given mapping, placing one thread of
    /// each of `contexts` application instances on every processor and
    /// homing each thread's state line at its own processor.
    ///
    /// # Panics
    ///
    /// Panics if the mapping size does not match the torus.
    pub fn new(config: &SimConfig, mapping: &Mapping) -> Self {
        Self::new_with_engine(config, mapping, false, None)
    }

    /// Builds the machine with a dynamic re-mapping policy installed
    /// (see [`crate::MigrationPolicy`]): wedged threads may migrate to
    /// other nodes instead of tripping the watchdog. A
    /// [`crate::NullPolicy`] machine behaves bit-exactly like
    /// [`Machine::new`].
    ///
    /// # Panics
    ///
    /// Panics if the mapping size does not match the torus.
    pub fn with_policy(
        config: &SimConfig,
        mapping: &Mapping,
        policy: Box<dyn MigrationPolicy>,
    ) -> Self {
        Self::new_with_engine(config, mapping, false, Some(policy))
    }

    /// Builds a machine that steps with the retained exhaustive
    /// every-node-every-boundary loop instead of the active-node engine.
    /// Differential-testing surface only: the two engines are asserted
    /// bit-identical by the golden-equivalence tests and
    /// `commloc fuzz --machine`.
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn new_reference(config: &SimConfig, mapping: &Mapping) -> Self {
        Self::new_with_engine(config, mapping, true, None)
    }

    /// Reference-engine counterpart of [`Machine::with_policy`]
    /// (differential testing of the migration layer).
    #[cfg(any(test, feature = "reference-engine"))]
    pub fn new_reference_with_policy(
        config: &SimConfig,
        mapping: &Mapping,
        policy: Box<dyn MigrationPolicy>,
    ) -> Self {
        Self::new_with_engine(config, mapping, true, Some(policy))
    }

    fn new_with_engine(
        config: &SimConfig,
        mapping: &Mapping,
        reference: bool,
        policy: Option<Box<dyn MigrationPolicy>>,
    ) -> Self {
        let nodes = config.resolved_topology().nodes();
        Self::new_full(config, mapping, reference, policy, 0, nodes)
    }

    /// Builds the shard owning global nodes `[base, base+owned)` of a
    /// [`crate::ShardedMachine`]: a fabric shard plus processors and
    /// controllers for the owned nodes only, with outgoing protocol
    /// messages staged for driver-ordered injection. The driver is
    /// responsible for zeroing `watchdog_cycles` (stall detection is
    /// centralized) and rejecting tracing and migration policies.
    pub(crate) fn new_shard(
        config: &SimConfig,
        mapping: &Mapping,
        base: usize,
        owned: usize,
    ) -> Self {
        let mut machine = Self::new_full(config, mapping, false, None, base, owned);
        machine.staged = Some(Vec::new());
        machine
    }

    fn new_full(
        config: &SimConfig,
        mapping: &Mapping,
        reference: bool,
        policy: Option<Box<dyn MigrationPolicy>>,
        base: usize,
        owned: usize,
    ) -> Self {
        let mut config = config.clone();
        let topology = config.resolved_topology();
        let fault_plan = config.fault_plan.take();
        let compute = topology.compute_nodes();
        assert_eq!(
            mapping.threads(),
            compute,
            "mapping must cover every compute node"
        );
        assert!(
            policy.is_none() || matches!(topology, Topology::Cube(_)),
            "migration policies require a cube topology, got {}",
            topology.canonical()
        );
        // Invert the mapping: which thread runs on each processor.
        let mut thread_at = vec![usize::MAX; compute];
        for thread in 0..compute {
            thread_at[mapping.processor(thread).0] = thread;
        }
        // One home map shared by every controller through an `Arc`.
        let home = Arc::new(workload_home_map(&topology, mapping, config.contexts));
        // Only fabric routers that host compute get a node sim; fat-tree
        // switches (ids >= compute) relay traffic but run no threads and
        // home no data. Compute nodes always occupy the id prefix, so an
        // owned range's compute portion stays contiguous at its front.
        let owned_compute = (base + owned)
            .min(compute)
            .saturating_sub(base.min(compute));
        let nodes: Vec<NodeSim> = (base..base + owned_compute)
            .map(|n| {
                let programs: Vec<Box<dyn ThreadProgram>> = (0..config.contexts)
                    .map(|instance| {
                        config
                            .workload
                            .program(&topology, instance, thread_at[n], config.work)
                    })
                    .collect();
                NodeSim {
                    cpu: Processor::new(programs, config.switch_cycles),
                    ctrl: Controller::new(NodeId(n), Arc::clone(&home), config.mem),
                    ctx_txn: vec![None; config.contexts],
                    next_txn: 0,
                }
            })
            .collect();
        let node_count = owned_compute;
        // The fabric takes ownership of the topology; everything else
        // reaches it through `Fabric::topology`. Shards get the fault plan
        // restricted to their own nodes, so merged logs reconstruct the
        // monolithic record exactly.
        let fabric = match fault_plan {
            Some(plan) if owned == topology.nodes() => {
                Fabric::with_fault_plan(topology, config.fabric, plan)
            }
            Some(plan) => Fabric::with_fault_plan_shard(
                topology.clone(),
                config.fabric,
                base,
                owned,
                plan.restrict(base, owned),
            ),
            None if owned == topology.nodes() => Fabric::new(topology, config.fabric),
            None => Fabric::new_shard(topology, config.fabric, base, owned),
        };
        // Every node starts with runnable processor work, so the active
        // set begins full.
        let mut active = ActiveSet::new(node_count);
        for n in 0..node_count {
            active.insert(n);
        }
        let contexts = config.contexts;
        Self {
            fabric,
            base,
            staged: None,
            nodes,
            net_cycle: 0,
            window_start: 0,
            window: Window::default(),
            txn_issue_cycle: HashMap::new(),
            txn_issue_order: VecDeque::new(),
            completed: 0,
            completed_per_node: vec![0; node_count],
            progress_marker: (0, 0),
            progress_cycle: 0,
            spans: (config.fabric.trace_capacity > 0)
                .then(|| SpanLog::new(config.fabric.trace_capacity)),
            config,
            active,
            last_stepped: vec![0; node_count],
            timer_wakes: BTreeMap::new(),
            node_scratch: Vec::new(),
            event_scratch: Vec::new(),
            fast_forwarded: 0,
            reference,
            policy,
            arrivals: BTreeMap::new(),
            abandoned: HashSet::new(),
            migrations: Vec::new(),
            migrated_from: vec![false; node_count],
            live_threads: vec![contexts; node_count],
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The machine's torus.
    ///
    /// # Panics
    ///
    /// Panics when the configured topology is not a cube; use
    /// [`Machine::topology`] for topology-agnostic code.
    pub fn torus(&self) -> &Torus {
        self.fabric.torus()
    }

    /// The machine's fabric topology.
    pub fn topology(&self) -> &Topology {
        self.fabric.topology()
    }

    /// Elapsed network cycles.
    pub fn net_cycle(&self) -> u64 {
        self.net_cycle
    }

    /// Advances one network cycle (and, on the clock-ratio boundary, one
    /// processor/controller cycle for every node).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Fabric`] on a fabric inconsistency,
    /// [`SimError::UnknownCompletion`] if a controller completes a
    /// transaction no context was waiting on, and [`SimError::Stalled`]
    /// when the progress watchdog fires (see [`SimConfig::watchdog_cycles`]).
    pub fn step(&mut self) -> Result<(), SimError> {
        self.fabric.step()?;
        self.net_cycle += 1;
        if self
            .net_cycle
            .is_multiple_of(u64::from(self.config.clock_ratio))
        {
            if self.reference {
                self.step_nodes_reference()?;
            } else {
                self.step_nodes_active()?;
            }
            if self.policy.is_some() {
                self.process_migrations();
            }
        }
        self.check_watchdog()
    }

    /// Advances `cycles` network cycles.
    ///
    /// With the active-node engine, fully quiescent stretches — no
    /// messages in flight, every node dormant — are fast-forwarded to the
    /// earliest next-event horizon in O(active components) instead of
    /// being stepped cycle by cycle; the observable behavior (stats,
    /// fault log, watchdog trips, measurements) is bit-identical to
    /// per-cycle stepping.
    ///
    /// # Errors
    ///
    /// Propagates the first error from [`Machine::step`].
    pub fn run_network_cycles(&mut self, cycles: u64) -> Result<(), SimError> {
        let target = self.net_cycle + cycles;
        while self.net_cycle < target {
            if !self.reference {
                self.try_fast_forward(target);
            }
            self.step()?;
        }
        Ok(())
    }

    /// When the whole machine is quiescent, jumps the clock to one cycle
    /// before the earliest next-event horizon; the ordinary [`Machine::step`]
    /// that follows then lands exactly on the horizon cycle and performs
    /// full boundary and watchdog processing there.
    ///
    /// Quiescence means: the fabric is drained (no queued, streaming, or
    /// in-network message — scheduled faults inside the gap are still
    /// fired at their exact cycles by [`Fabric::fast_forward`]) and every
    /// node is dormant. The skipped cycles are provably no-ops: a dormant
    /// boundary touches nothing observable, and the watchdog's progress
    /// marker cannot change while nothing moves, so intermediate checks
    /// only re-derive `stalled_for` values below the trip threshold.
    ///
    /// The horizon is `min` of the run target, the first retry-timer wake
    /// (from [`Controller::next_deadline`]), and the watchdog trip cycle.
    fn try_fast_forward(&mut self, target: u64) {
        if self.fabric.in_flight() != 0 {
            return;
        }
        // Deliveries pushed but not yet polled mean node work at the next
        // boundary: fold the pending events into the worklist first.
        self.fabric.take_delivery_events(&mut self.event_scratch);
        for i in 0..self.event_scratch.len() {
            // Delivery events carry global node ids; the worklist is
            // local-indexed.
            self.active
                .insert(self.event_scratch[i] as usize - self.base);
        }
        if !self.active.is_empty() {
            return;
        }
        let ratio = u64::from(self.config.clock_ratio);
        let mut horizon = target;
        if let Some((&wake, _)) = self.timer_wakes.first_key_value() {
            horizon = horizon.min(wake.saturating_mul(ratio));
        }
        let oldest = self.oldest_outstanding_issue();
        if self.config.watchdog_cycles > 0 {
            // The watchdog trips when `max(net_cycle - progress_cycle,
            // oldest transaction age)` reaches the window — i.e. at
            // exactly `min(progress_cycle, oldest issue) + window`.
            let base = oldest.map_or(self.progress_cycle, |issued| {
                issued.min(self.progress_cycle)
            });
            horizon = horizon.min(base + self.config.watchdog_cycles);
        }
        if let Some(policy) = self.policy.as_ref() {
            // Migration events happen at processor boundaries: the first
            // boundary at or after a steal arrival, and the boundary at
            // which the oldest outstanding transaction's age reaches the
            // wedge threshold. Land on (one cycle before) those exactly.
            let next_boundary = |cycle: u64| cycle.div_ceil(ratio).saturating_mul(ratio);
            if let Some((&due, _)) = self.arrivals.first_key_value() {
                horizon = horizon.min(next_boundary(due.max(self.net_cycle + 1)));
            }
            let threshold = policy.wedge_threshold();
            if threshold != u64::MAX {
                if let Some(issued) = oldest {
                    horizon = horizon.min(next_boundary(issued.saturating_add(threshold)));
                }
            }
        }
        if horizon.saturating_sub(1) <= self.net_cycle {
            return;
        }
        let jumped = self.fabric.fast_forward_to(horizon - 1);
        self.net_cycle += jumped;
        self.fast_forwarded += jumped;
    }

    /// Total network cycles skipped by quiescent fast-forward jumps —
    /// always 0 for the reference engine. Diagnostic only: the jumps are
    /// behaviorally invisible by construction.
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.fast_forwarded
    }

    /// The progress watchdog. Two trip conditions:
    ///
    /// * **Global stall** — the fabric's activity counter stopped
    ///   advancing (no flit moved) and no transaction retired for a full
    ///   window: total deadlock.
    /// * **Stuck transaction** — some transaction has been outstanding
    ///   for longer than a full window. A healthy transaction completes
    ///   in tens-to-hundreds of network cycles even under congestion, so
    ///   an aged one is wedged (e.g. behind a killed link) even while the
    ///   rest of the machine retires normally.
    fn check_watchdog(&mut self) -> Result<(), SimError> {
        let window = self.config.watchdog_cycles;
        let marker = (self.fabric.activity(), self.completed);
        if marker != self.progress_marker {
            self.progress_marker = marker;
            self.progress_cycle = self.net_cycle;
        }
        if window == 0 {
            return Ok(());
        }
        let oldest_txn_age = self
            .oldest_outstanding_issue()
            .map_or(0, |issued| self.net_cycle - issued);
        let stalled_for = (self.net_cycle - self.progress_cycle).max(oldest_txn_age);
        if stalled_for < window {
            return Ok(());
        }
        // A transient fault still in force (or scheduled) explains the
        // quiet period as backpressure; without one, this is a deadlock
        // the machine cannot leave by waiting.
        let kind = match self.fabric.fault_plan() {
            Some(plan) if plan.transient_stall_active(self.net_cycle) => StallKind::Backpressure,
            _ => StallKind::Deadlock,
        };
        let outstanding = self.outstanding_transactions();
        Err(SimError::Stalled(Box::new(StallReport {
            cycle: self.net_cycle,
            stalled_for,
            kind,
            in_flight: self.fabric.in_flight(),
            buffered_flits: self.fabric.buffered_flits(),
            router_occupancy: self.fabric.router_occupancy(),
            outstanding,
            fault_log_tail: self
                .fabric
                .fault_log()
                .map(|log| log.tail(16).to_vec())
                .unwrap_or_default(),
            migrated_from: self.migrated_from_nodes(),
        })))
    }

    /// Nodes with outstanding controller transactions, by global id —
    /// the stall report's dump (shard reports concatenate in shard
    /// order, which is global node order).
    fn outstanding_transactions(&self) -> Vec<(NodeId, usize)> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, node)| node.ctrl.outstanding_transactions() > 0)
            .map(|(n, node)| (NodeId(self.base + n), node.ctrl.outstanding_transactions()))
            .collect()
    }

    /// Issue cycle of the oldest still-outstanding transaction, dropping
    /// completed transactions from the front of the issue-order queue
    /// along the way (issue cycles are monotone, so the first survivor is
    /// the oldest — O(1) amortized).
    fn oldest_outstanding_issue(&mut self) -> Option<u64> {
        while let Some(front) = self.txn_issue_order.front() {
            if self.txn_issue_cycle.contains_key(front) {
                break;
            }
            self.txn_issue_order.pop_front();
        }
        self.txn_issue_order
            .front()
            .and_then(|txn| self.txn_issue_cycle.get(txn))
            .copied()
    }

    /// Resets every statistics window (fabric, controllers, processors,
    /// and transaction counters) — call after warmup.
    pub fn reset_measurements(&mut self) {
        // Settle dormant nodes' lazy idle debt first, so the per-node
        // cycle counters the new window starts from match exhaustive
        // stepping exactly.
        self.settle_idle_debts();
        self.fabric.reset_stats();
        for node in &mut self.nodes {
            node.ctrl.reset_stats();
            node.cpu.reset_stats();
        }
        self.window = Window::default();
        self.window_start = self.net_cycle;
    }

    /// Applies every dormant node's outstanding idle debt: advances its
    /// processor and controller clocks to the latest processor boundary,
    /// exactly as the skipped boundaries would have (each is a pure
    /// `{cycles+1, idle+1}` / `{cycle+1}` tick for a dormant node).
    fn settle_idle_debts(&mut self) {
        // The reference engine steps every node at every boundary, so no
        // debt ever accrues (and `last_stepped` is not maintained there).
        if self.reference {
            return;
        }
        let boundary = self.net_cycle / u64::from(self.config.clock_ratio);
        for (n, node) in self.nodes.iter_mut().enumerate() {
            let debt = boundary - self.last_stepped[n];
            if debt > 0 {
                node.cpu.advance_idle(debt);
                node.ctrl.advance_idle(debt);
                self.last_stepped[n] = boundary;
            }
        }
    }

    /// Settles one node's outstanding idle debt (active engine only):
    /// the migration layer mutates processors and controllers outside
    /// `visit_node`, so the node's clocks must first reach the current
    /// boundary exactly as exhaustive stepping would have them.
    fn settle_node_debt(&mut self, n: usize) {
        if self.reference {
            return;
        }
        let boundary = self.net_cycle / u64::from(self.config.clock_ratio);
        let debt = boundary - self.last_stepped[n];
        if debt > 0 {
            self.nodes[n].cpu.advance_idle(debt);
            self.nodes[n].ctrl.advance_idle(debt);
            self.last_stepped[n] = boundary;
        }
    }

    /// The migration layer's boundary work (runs right after the node
    /// boundary, only when a policy is installed): adopt arriving stolen
    /// threads, then offer wedged contexts to the policy. Parking
    /// abandons the context's outstanding memory operation at its
    /// controller (any in-flight grant is later dropped as stale) and
    /// re-issues it from the destination via a
    /// [`ReissueProgram`] wrapper, so no work is lost or duplicated.
    fn process_migrations(&mut self) {
        let now = self.net_cycle;
        // 1. Adopt threads whose steal latency has elapsed.
        while let Some((&due, _)) = self.arrivals.first_key_value() {
            if due > now {
                break;
            }
            let (_, batch) = self.arrivals.pop_first().expect("peeked entry");
            for stolen in batch {
                self.settle_node_debt(stolen.to);
                let node = &mut self.nodes[stolen.to];
                node.cpu.adopt(stolen.program);
                node.ctx_txn.push(None);
                if !self.reference {
                    self.active.insert(stolen.to);
                }
            }
        }
        // 2. Wedge scan, gated on a cheap oldest-transaction age check
        // so the per-context sweep only runs when something is actually
        // wedged.
        let threshold = self
            .policy
            .as_ref()
            .expect("caller checked a policy exists")
            .wedge_threshold();
        if threshold == u64::MAX {
            return;
        }
        match self.oldest_outstanding_issue() {
            Some(issued) if now - issued >= threshold => {}
            _ => return,
        }
        let mut victims: Vec<(usize, usize, TxnId, u64)> = Vec::new();
        for (n, node) in self.nodes.iter().enumerate() {
            for (ctx, slot) in node.ctx_txn.iter().enumerate() {
                let Some(txn) = *slot else { continue };
                let Some(&issued) = self.txn_issue_cycle.get(&txn.0) else {
                    continue;
                };
                if now - issued >= threshold {
                    victims.push((n, ctx, txn, now - issued));
                }
            }
        }
        if victims.is_empty() {
            return;
        }
        let mut wedged = vec![false; self.nodes.len()];
        for &(n, ..) in &victims {
            wedged[n] = true;
        }
        let mut killed = vec![false; self.nodes.len()];
        if let Some(log) = self.fabric.fault_log() {
            for event in log.events() {
                if let FaultEvent::LinkKilled { node, .. } = event {
                    killed[node.0] = true;
                }
            }
        }
        let torus = self.fabric.torus().clone();
        let mut policy = self.policy.take().expect("caller checked a policy exists");
        for (victim, ctx, txn, age) in victims {
            let view = MigrationView {
                victim,
                context: ctx,
                age,
                cycle: now,
                torus: &torus,
                wedged: &wedged,
                load: &self.live_threads,
                migrated_from: &self.migrated_from,
                killed: &killed,
            };
            let Some(dst) = policy.choose_destination(&view) else {
                continue;
            };
            if dst.0 == victim {
                continue;
            }
            self.settle_node_debt(victim);
            let Some(op) = self.nodes[victim].ctrl.abandon(txn) else {
                continue;
            };
            let program = self.nodes[victim].cpu.park(ctx);
            self.nodes[victim].ctx_txn[ctx] = None;
            self.txn_issue_cycle.remove(&txn.0);
            self.abandoned.insert(txn.0);
            self.migrated_from[victim] = true;
            self.live_threads[victim] -= 1;
            self.live_threads[dst.0] += 1;
            let reissue = match op {
                MemOp::Read(addr) => ThreadOp::Read(addr),
                MemOp::Write(addr, value) => ThreadOp::Write(addr, value),
            };
            let due = now.saturating_add(policy.steal_latency());
            self.arrivals.entry(due).or_default().push(StolenThread {
                to: dst.0,
                program: Box::new(ReissueProgram::new(reissue, program)),
            });
            self.migrations.push(MigrationRecord {
                cycle: now,
                from: NodeId(victim),
                to: dst,
                context: ctx,
                txn: txn.0,
            });
        }
        self.policy = Some(policy);
    }

    /// Every migration performed so far, in decision order.
    pub fn migrations(&self) -> &[MigrationRecord] {
        &self.migrations
    }

    /// Nodes a thread has ever migrated away from, ascending. Sticky by
    /// design: degradation accounting counts a node as a casualty even
    /// if another thread later lands on it.
    pub fn migrated_from_nodes(&self) -> Vec<NodeId> {
        self.migrated_from
            .iter()
            .enumerate()
            .filter(|&(_, &migrated)| migrated)
            .map(|(n, _)| NodeId(n))
            .collect()
    }

    /// Produces the measurement record for the current window.
    pub fn measure(&self) -> Measurements {
        let total_busy: u64 = self.nodes.iter().map(|n| n.cpu.stats().busy_cycles).sum();
        build_measurements(
            self.net_cycle - self.window_start,
            self.nodes.len(),
            self.fabric.stats(),
            &self.window,
            total_busy,
            self.config.clock_ratio,
        )
    }

    /// Total completed workload iterations across all threads
    /// (diagnostic).
    pub fn total_iterations(&self) -> u64 {
        // Iterations are not directly exposed through the trait object;
        // approximate from per-node write transactions: one write per
        // iteration per thread.
        self.nodes
            .iter()
            .map(|n| {
                let s = n.ctrl.stats();
                s.write_misses + s.write_hits
            })
            .sum()
    }

    /// The retained exhaustive stepping loop: every node, every boundary,
    /// in ascending order. The active-node engine must be bit-identical
    /// to this (asserted by the golden-equivalence tests and the
    /// `--machine` differential fuzzer).
    fn step_nodes_reference(&mut self) -> Result<(), SimError> {
        let now = self.net_cycle;
        for n in 0..self.nodes.len() {
            self.visit_node(n, now)?;
        }
        Ok(())
    }

    /// The active-node engine's boundary: folds fabric delivery events
    /// and due retry timers into the worklist, visits only the listed
    /// nodes (ascending, like the exhaustive loop), settles each node's
    /// lazy idle debt before its real step, and updates residency — a
    /// node leaves the worklist when its processor is fully blocked and
    /// its controller dormant, re-entering on a delivery or timer.
    fn step_nodes_active(&mut self) -> Result<(), SimError> {
        let now = self.net_cycle;
        let boundary = now / u64::from(self.config.clock_ratio);
        self.fabric.take_delivery_events(&mut self.event_scratch);
        for i in 0..self.event_scratch.len() {
            // Delivery events carry global node ids; the worklist is
            // local-indexed.
            self.active
                .insert(self.event_scratch[i] as usize - self.base);
        }
        while let Some((&wake, _)) = self.timer_wakes.first_key_value() {
            if wake > boundary {
                break;
            }
            let (_, woken) = self.timer_wakes.pop_first().expect("peeked entry");
            for n in woken {
                self.active.insert(n as usize);
            }
        }
        // Dense boundary: when nearly every node is active (steady-state
        // dense scenarios like fig3/fig5), materializing the worklist
        // costs more than it saves. Visit all nodes ascending — the same
        // interleaving the worklist path and the exhaustive reference
        // produce — and skip only the snapshot.
        let count = self.nodes.len();
        if self.active.len() * 10 >= count * 9 {
            return self.step_nodes_dense(boundary, now);
        }
        let mut worklist = std::mem::take(&mut self.node_scratch);
        self.active.collect_into(&mut worklist);
        let mut result = Ok(());
        for &n in &worklist {
            let n = n as usize;
            // Skipped boundaries were pure idle ticks for both layers;
            // apply them in bulk before the real step.
            let debt = boundary - self.last_stepped[n] - 1;
            if debt > 0 {
                self.nodes[n].cpu.advance_idle(debt);
                self.nodes[n].ctrl.advance_idle(debt);
            }
            self.last_stepped[n] = boundary;
            if let Err(e) = self.visit_node(n, now) {
                result = Err(e);
                break;
            }
            let node = &self.nodes[n];
            if node.cpu.next_wake().is_none() && !node.ctrl.has_pending_work() {
                self.active.remove(n);
                // Controller local cycles coincide with boundary indices,
                // so a deadline is directly the boundary to wake at.
                if let Some(deadline) = node.ctrl.next_deadline() {
                    self.timer_wakes.entry(deadline).or_default().push(n as u32);
                }
            }
        }
        self.node_scratch = worklist;
        result
    }

    /// The worklist path's dense-occupancy bypass: every node is visited
    /// in ascending order without collecting the active set first. A
    /// visit to a dormant node is exactly the idle tick its lazy debt
    /// would have applied, so the extra visits are behaviorally
    /// invisible; residency updates are guarded on actual membership so
    /// dormant non-members don't enqueue duplicate timer wakes.
    fn step_nodes_dense(&mut self, boundary: u64, now: u64) -> Result<(), SimError> {
        for n in 0..self.nodes.len() {
            let debt = boundary - self.last_stepped[n] - 1;
            if debt > 0 {
                self.nodes[n].cpu.advance_idle(debt);
                self.nodes[n].ctrl.advance_idle(debt);
            }
            self.last_stepped[n] = boundary;
            self.visit_node(n, now)?;
            let node = &self.nodes[n];
            if self.active.contains(n)
                && node.cpu.next_wake().is_none()
                && !node.ctrl.has_pending_work()
            {
                self.active.remove(n);
                if let Some(deadline) = node.ctrl.next_deadline() {
                    self.timer_wakes.entry(deadline).or_default().push(n as u32);
                }
            }
        }
        Ok(())
    }

    /// One node's processor boundary: the five phases of the stepping
    /// contract, shared verbatim by both engines.
    fn visit_node(&mut self, n: usize, now: u64) -> Result<(), SimError> {
        // `n` is the local index; everything node-facing (deliveries,
        // span events, transaction ids, message sources) uses the global
        // node id so shard machines replay monolithic decisions exactly.
        let g = self.base + n;
        {
            // 1. Network deliveries reach the controller.
            while let Some(delivery) = self.fabric.poll_delivery(NodeId(g)) {
                if let Some(spans) = self.spans.as_mut() {
                    spans.push(SpanEvent::MsgIn {
                        cycle: now,
                        node: NodeId(g),
                        kind: delivery.message.payload.kind_name(),
                    });
                }
                self.nodes[n].ctrl.deliver(delivery.message.payload);
            }
            let node = &mut self.nodes[n];
            // 2. The controller works.
            node.ctrl.step();
            // 3. Completions unblock contexts.
            while let Some(done) = node.ctrl.poll_completion() {
                let Some(ctx) = node.ctx_txn.iter().position(|t| *t == Some(done.txn)) else {
                    // A completion raced a migration: the thread is gone
                    // and the value will be re-fetched from its new node.
                    if self.abandoned.remove(&done.txn.0) {
                        continue;
                    }
                    return Err(SimError::UnknownCompletion {
                        node: NodeId(g),
                        txn: done.txn.0,
                    });
                };
                node.ctx_txn[ctx] = None;
                node.cpu.complete(ctx, done.value);
                self.completed += 1;
                self.completed_per_node[n] += 1;
                let issued = self.txn_issue_cycle.remove(&done.txn.0);
                if done.miss {
                    self.window.misses += 1;
                    if let Some(issued) = issued {
                        self.window.sum_txn_latency += now - issued;
                    }
                } else {
                    self.window.hits += 1;
                }
                if let Some(spans) = self.spans.as_mut() {
                    spans.push(SpanEvent::Complete {
                        cycle: now,
                        node: NodeId(g),
                        txn: done.txn.0,
                        miss: done.miss,
                        latency: issued.map_or(0, |issued| now - issued),
                    });
                }
            }
            // 4. The processor runs; issues go to the controller.
            if let Some(req) = node.cpu.step() {
                let txn = TxnId(((g as u64) << 32) | node.next_txn);
                node.next_txn += 1;
                node.ctx_txn[req.context] = Some(txn);
                self.txn_issue_cycle.insert(txn.0, now);
                self.txn_issue_order.push_back(txn.0);
                if let Some(spans) = self.spans.as_mut() {
                    spans.push(SpanEvent::Issue {
                        cycle: now,
                        node: NodeId(g),
                        txn: txn.0,
                    });
                }
                node.ctrl.request(txn, req.op);
            }
            // 5. Outgoing protocol messages enter the network — staged in
            // shard mode so the driver can assign globally ordered ids.
            while let Some((dst, msg)) = node.ctrl.take_outgoing() {
                let flits = msg.flits(&self.config.mem);
                if let Some(spans) = self.spans.as_mut() {
                    spans.push(SpanEvent::MsgOut {
                        cycle: now,
                        node: NodeId(g),
                        dst,
                        kind: msg.kind_name(),
                    });
                }
                let message = Message::new(NodeId(g), dst, flits, msg);
                match self.staged.as_mut() {
                    Some(staged) => staged.push(message),
                    None => {
                        self.fabric.inject(message);
                    }
                }
            }
        }
        Ok(())
    }

    /// The fabric's per-message latency component sums and histograms for
    /// the current measurement window.
    pub fn latency_breakdown(&self) -> &LatencyBreakdown {
        self.fabric.breakdown()
    }

    /// Captures the machine's complete state. Restoring the snapshot
    /// yields a machine that continues bit-identically to this one —
    /// every layer (programs, caches, directories, in-flight worms,
    /// fault-plan state, migration policy) is deep-copied, so a settled
    /// post-warmup machine can be snapshotted once and re-run over many
    /// measurement windows (the `commloc serve` warm-start path).
    pub fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            machine: self.clone(),
        }
    }

    /// The fabric's flit-level trace ring (`None` when
    /// [`FabricConfig::trace_capacity`](commloc_net::FabricConfig) is 0).
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.fabric.trace()
    }

    /// The transaction-level span log (`None` when tracing is off).
    pub fn spans(&self) -> Option<&SpanLog> {
        self.spans.as_ref()
    }

    /// Maps the current window's measurements onto the paper's
    /// `T_t = c * T_m + T_f` decomposition, with the measured `T_m`
    /// split into the fabric's six per-message components.
    ///
    /// `critical_path_messages` is the paper's `c` (2 for the
    /// request–reply protocol of the modeled architecture; the model
    /// crate's machine configuration carries the calibrated value).
    pub fn breakdown(&self, critical_path_messages: f64) -> TransactionBreakdown {
        build_breakdown(
            &self.measure(),
            self.fabric.breakdown(),
            critical_path_messages,
        )
    }

    /// The fault log of the installed fault plan, if any.
    pub fn fault_log(&self) -> Option<&FaultLog> {
        self.fabric.fault_log()
    }

    /// Total transaction completions since construction (never reset).
    pub fn completions(&self) -> u64 {
        self.completed
    }

    /// Per-node transaction completions since construction (never reset)
    /// — the disturbance experiments difference these against a baseline
    /// run to localize a fault's impact.
    pub fn completions_per_node(&self) -> &[u64] {
        &self.completed_per_node
    }

    // ---- Shard-driver interface (crate-private) -------------------------
    //
    // A `ShardedMachine` steps its shard machines in lockstep: fabrics
    // first, then a boundary-item exchange, then (on clock-ratio
    // boundaries) the node boundaries, then driver-ordered injection of
    // the staged messages. The watchdog is centralized in the driver.

    /// Advances this shard's fabric one network cycle.
    pub(crate) fn shard_step_fabric(&mut self) -> Result<(), SimError> {
        self.fabric.step()?;
        self.net_cycle += 1;
        Ok(())
    }

    /// Runs this shard's processor boundary (the driver calls it only on
    /// clock-ratio boundaries). Outgoing messages land in the staging
    /// buffer.
    pub(crate) fn shard_step_nodes(&mut self) -> Result<(), SimError> {
        self.step_nodes_active()
    }

    /// Drains cross-shard flits and credits produced by the last fabric
    /// step, appending them to `out` in deterministic engine order.
    pub(crate) fn shard_take_boundary(&mut self, out: &mut Vec<BoundaryItem<ProtocolMsg>>) {
        self.fabric.take_boundary(out);
    }

    /// Accepts one boundary item owned by this shard.
    pub(crate) fn shard_ingest_boundary(&mut self, item: BoundaryItem<ProtocolMsg>) {
        self.fabric.ingest_boundary(item);
    }

    /// Number of staged outgoing messages awaiting injection.
    pub(crate) fn shard_staged_count(&self) -> usize {
        self.staged.as_ref().map_or(0, Vec::len)
    }

    /// Injects the staged messages with sequential ids starting at
    /// `start_id` (the driver computes each shard's start as the running
    /// global count, reproducing monolithic ascending-node id order).
    /// Returns how many messages were injected.
    pub(crate) fn shard_flush_staged(&mut self, start_id: u64) -> u64 {
        let mut staged = self.staged.take().expect("flush on a non-shard machine");
        let mut id = start_id;
        for message in staged.drain(..) {
            self.fabric.inject_with_id(MessageId(id), message);
            id += 1;
        }
        self.staged = Some(staged);
        id - start_id
    }

    /// The centralized watchdog's per-shard inputs: fabric activity
    /// counter, total completions, and the oldest outstanding issue
    /// cycle.
    pub(crate) fn shard_watchdog_inputs(&mut self) -> (u64, u64, Option<u64>) {
        let oldest = self.oldest_outstanding_issue();
        (self.fabric.activity(), self.completed, oldest)
    }

    /// Read access to the shard's fabric, for merged diagnostics.
    pub(crate) fn shard_fabric(&self) -> &Fabric<ProtocolMsg> {
        &self.fabric
    }

    /// Nodes (global ids) with outstanding transactions, for merged
    /// stall reports.
    pub(crate) fn shard_outstanding(&self) -> Vec<(NodeId, usize)> {
        self.outstanding_transactions()
    }

    /// This shard's measurement-window counters.
    pub(crate) fn shard_window(&self) -> Window {
        self.window
    }

    /// Total processor busy cycles across this shard's nodes for the
    /// current window.
    pub(crate) fn shard_busy_cycles(&self) -> u64 {
        self.nodes.iter().map(|n| n.cpu.stats().busy_cycles).sum()
    }
}

/// Builds the paper's measurement record from merged (or single-machine)
/// inputs. Shared by [`Machine::measure`] and the sharded driver so both
/// paths compute the identical floating-point quantities from identical
/// integer sums.
pub(crate) fn build_measurements(
    net_cycles: u64,
    nodes: usize,
    fs: &FabricStats,
    window: &Window,
    total_busy: u64,
    clock_ratio: u32,
) -> Measurements {
    let misses = window.misses.max(1);
    let messages = fs.injected_messages.max(1);
    let hits = window.hits;
    let node_cycles = (net_cycles * nodes as u64).max(1);
    Measurements {
        net_cycles,
        nodes,
        distance: fs.avg_distance(),
        message_rate: fs.injected_messages as f64 / node_cycles as f64,
        message_interval: node_cycles as f64 / messages as f64,
        message_latency: fs.avg_message_latency(),
        per_hop_latency: fs.avg_per_hop_latency(),
        channel_utilization: fs.channel_utilization(),
        injection_utilization: fs.injection_utilization(),
        transaction_rate: window.misses as f64 / node_cycles as f64,
        issue_interval: node_cycles as f64 / misses as f64,
        transaction_latency: window.sum_txn_latency as f64 / misses as f64,
        messages_per_transaction: fs.injected_messages as f64 / misses as f64,
        avg_message_size: fs.avg_message_size(),
        residual_message_size: fs.residual_message_size(),
        // A miss-free window has no defined run length; report the
        // documented `0.0` sentinel instead of dividing the busy
        // cycles by the clamped miss count (which fabricated an
        // enormous bogus value).
        run_length: if window.misses == 0 {
            0.0
        } else {
            total_busy as f64 * f64::from(clock_ratio) / window.misses as f64
        },
        hit_fraction: hits as f64 / (hits + window.misses).max(1) as f64,
    }
}

/// Maps measurements onto the paper's `T_t = c * T_m + T_f`
/// decomposition. Shared by [`Machine::breakdown`] and the sharded
/// driver.
pub(crate) fn build_breakdown(
    m: &Measurements,
    lb: &LatencyBreakdown,
    critical_path_messages: f64,
) -> TransactionBreakdown {
    let n = lb.deliveries.max(1) as f64;
    let message_path = critical_path_messages * m.message_latency;
    TransactionBreakdown {
        transaction_latency: m.transaction_latency,
        message_latency: m.message_latency,
        critical_path_messages,
        message_path,
        fixed_overhead: m.transaction_latency - message_path,
        queue: lb.queue as f64 / n,
        injection: lb.injection as f64 / n,
        free_hop: lb.free_hop as f64 / n,
        contended_hop: lb.contended_hop as f64 / n,
        drain: lb.drain as f64 / n,
        protocol: lb.ejection as f64 / n,
        deliveries: lb.deliveries,
    }
}

/// A frozen copy of a [`Machine`]'s complete state, taken by
/// [`Machine::snapshot`]. Restoring yields an independent machine that
/// runs bit-identically to the original from the capture point; one
/// snapshot can be restored any number of times.
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    machine: Machine,
}

impl MachineSnapshot {
    /// Materializes an independent machine at the captured state.
    pub fn restore(&self) -> Machine {
        self.machine.clone()
    }
}

/// Runs a complete experiment: build, warm up, measure.
///
/// `warmup` and `window` are in network cycles.
///
/// # Errors
///
/// Propagates the first [`SimError`] from stepping (fabric inconsistency,
/// unknown completion, or a watchdog-detected stall).
pub fn run_experiment(
    config: &SimConfig,
    mapping: &Mapping,
    warmup: u64,
    window: u64,
) -> Result<Measurements, SimError> {
    let mut machine = Machine::new(config, mapping);
    machine.run_network_cycles(warmup)?;
    machine.reset_measurements();
    machine.run_network_cycles(window)?;
    Ok(machine.measure())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Mapping;

    fn quick(config: &SimConfig, mapping: &Mapping) -> Measurements {
        run_experiment(config, mapping, 10_000, 30_000).expect("experiment ran")
    }

    #[test]
    fn identity_mapping_measures_one_hop() {
        let m = quick(&SimConfig::default(), &Mapping::identity(64));
        assert!(
            (m.distance - 1.0).abs() < 0.05,
            "identity distance {}",
            m.distance
        );
    }

    #[test]
    fn measured_distance_tracks_mapping() {
        let torus = Torus::new(2, 8);
        for seed in [1, 2] {
            let mapping = Mapping::random(64, seed);
            let expected = mapping.average_neighbor_distance(&torus);
            let m = quick(&SimConfig::default(), &mapping);
            assert!(
                (m.distance - expected).abs() / expected < 0.08,
                "seed {seed}: measured {} expected {expected}",
                m.distance
            );
        }
    }

    #[test]
    fn g_and_b_match_section_3_2() {
        let m = quick(&SimConfig::default(), &Mapping::identity(64));
        // Paper: g = 3.2 messages per transaction, B = 12 flits.
        assert!(
            (m.messages_per_transaction - 3.2).abs() < 0.4,
            "g = {}",
            m.messages_per_transaction
        );
        assert!(
            (m.avg_message_size - 12.0).abs() < 1.5,
            "B = {}",
            m.avg_message_size
        );
    }

    #[test]
    fn rates_and_intervals_are_reciprocal() {
        let m = quick(&SimConfig::default(), &Mapping::identity(64));
        assert!((m.message_rate * m.message_interval - 1.0).abs() < 1e-9);
        assert!((m.transaction_rate * m.issue_interval - 1.0).abs() < 1e-9);
    }

    #[test]
    fn farther_mappings_are_slower() {
        let cfg = SimConfig::default();
        let near = quick(&cfg, &Mapping::identity(64));
        let far = quick(&cfg, &Mapping::random(64, 9));
        assert!(far.distance > near.distance + 2.0);
        assert!(
            far.transaction_rate < near.transaction_rate,
            "far {} !< near {}",
            far.transaction_rate,
            near.transaction_rate
        );
        assert!(far.message_latency > near.message_latency);
    }

    #[test]
    fn more_contexts_issue_faster() {
        let near = Mapping::random(64, 5);
        let base = SimConfig::default();
        let p1 = quick(&base, &near);
        let p2 = quick(
            &SimConfig {
                contexts: 2,
                ..base
            },
            &near,
        );
        assert!(
            p2.transaction_rate > p1.transaction_rate * 1.25,
            "p2 rate {} vs p1 {}",
            p2.transaction_rate,
            p1.transaction_rate
        );
    }

    #[test]
    fn slower_network_hurts_performance() {
        // Table 1's mechanism, observed in the full simulator: halving
        // the network clock (relative to the processors) raises message
        // latencies in processor terms and lowers the transaction rate
        // per processor cycle.
        let mapping = Mapping::random(64, 3);
        let fast = run_experiment(&SimConfig::default(), &mapping, 8_000, 24_000).unwrap();
        let slow_cfg = SimConfig {
            clock_ratio: 1, // network at processor speed (2x slower than base)
            ..SimConfig::default()
        };
        let slow = run_experiment(&slow_cfg, &mapping, 8_000, 24_000).unwrap();
        // Rates are per network cycle; convert to per processor cycle.
        let fast_per_proc = fast.transaction_rate * 2.0;
        let slow_per_proc = slow.transaction_rate * 1.0;
        assert!(
            slow_per_proc < fast_per_proc,
            "slow {slow_per_proc} !< fast {fast_per_proc}"
        );
    }

    #[test]
    fn workload_makes_steady_progress() {
        let mapping = Mapping::identity(64);
        let mut machine = Machine::new(&SimConfig::default(), &mapping);
        machine.run_network_cycles(40_000).unwrap();
        let writes = machine.total_iterations();
        // 64 threads iterating continually: at least a handful each.
        assert!(writes > 64 * 5, "only {writes} iterations in 40k cycles");
        assert!(machine.completions() > 0);
    }

    #[test]
    fn killed_link_trips_the_watchdog_with_diagnostics() {
        use commloc_net::{Direction, FaultPlan};
        let mapping = Mapping::identity(64);
        let config = SimConfig {
            watchdog_cycles: 3_000,
            fault_plan: Some(FaultPlan::new(7).kill_link_at(2_000, 0, 0, Direction::Plus)),
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&config, &mapping);
        let err = machine
            .run_network_cycles(400_000)
            .expect_err("a killed link must wedge the workload");
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err}");
        };
        assert_eq!(report.kind, StallKind::Deadlock);
        assert!(report.stalled_for >= 3_000);
        assert!(!report.outstanding.is_empty(), "no stuck transactions?");
        assert!(
            report
                .fault_log_tail
                .iter()
                .any(|e| matches!(e, commloc_net::FaultEvent::LinkKilled { .. })),
            "fault log tail should show the kill: {:?}",
            report.fault_log_tail
        );
    }

    #[test]
    fn transient_stall_classifies_as_backpressure() {
        use commloc_net::FaultPlan;
        let mapping = Mapping::identity(64);
        // Stall the router far longer than the watchdog window: the
        // watchdog fires mid-stall and must blame backpressure.
        let config = SimConfig {
            watchdog_cycles: 2_000,
            fault_plan: Some(FaultPlan::new(3).stall_router_at(1_000, 27, 50_000)),
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&config, &mapping);
        match machine.run_network_cycles(60_000) {
            Err(SimError::Stalled(report)) => {
                assert_eq!(report.kind, StallKind::Backpressure);
            }
            Err(other) => panic!("unexpected error: {other}"),
            // A single stalled router need not halt *global* progress —
            // but with the whole machine's traffic pattern it should.
            Ok(()) => panic!("expected the stalled router to halt progress"),
        }
    }

    #[test]
    fn miss_free_window_reports_zero_run_length() {
        // A machine that has not stepped has an empty window: no misses,
        // so the run length must be the documented 0.0 sentinel, not a
        // fabricated busy/1 ratio.
        let machine = Machine::new(&SimConfig::default(), &Mapping::identity(64));
        let m = machine.measure();
        assert_eq!(m.run_length, 0.0);
        assert!(m.run_length.is_finite());
    }

    #[test]
    fn breakdown_components_sum_to_measured_latency() {
        let mapping = Mapping::identity(64);
        let mut machine = Machine::new(&SimConfig::default(), &mapping);
        machine.run_network_cycles(5_000).unwrap();
        machine.reset_measurements();
        machine.run_network_cycles(15_000).unwrap();
        let m = machine.measure();
        let b = machine.breakdown(2.0);
        assert!(b.deliveries > 0);
        assert!(
            (b.components_total() - m.message_latency).abs() < 1e-9,
            "components {} != T_m {}",
            b.components_total(),
            m.message_latency
        );
        assert!((b.message_path + b.fixed_overhead - b.transaction_latency).abs() < 1e-9);
        assert!(b.queue >= 0.0 && b.contended_hop >= 0.0);
        // Tracing is off by default: zero overhead, no rings.
        assert!(machine.trace().is_none());
        assert!(machine.spans().is_none());
    }

    #[test]
    fn tracing_records_bounded_spans_and_flit_events() {
        use crate::breakdown::SpanEvent;
        let config = SimConfig {
            fabric: FabricConfig {
                trace_capacity: 512,
                ..SimConfig::default().fabric
            },
            ..SimConfig::default()
        };
        let mut machine = Machine::new(&config, &Mapping::identity(64));
        machine.run_network_cycles(5_000).unwrap();
        let spans = machine.spans().expect("tracing enabled");
        assert!(spans.recorded() > 0);
        assert!(spans.len() <= 512);
        assert!(spans
            .iter()
            .any(|e| matches!(e, SpanEvent::Complete { .. })));
        assert!(spans.iter().any(|e| matches!(e, SpanEvent::MsgOut { .. })));
        let trace = machine.trace().expect("tracing enabled");
        assert!(trace.recorded() > 0);
        assert!(trace.len() <= 512);
    }

    #[test]
    fn same_seed_same_fault_log_and_measurements() {
        use commloc_net::{FaultConfig, FaultPlan};
        let mapping = Mapping::identity(64);
        let run = || {
            let config = SimConfig {
                fault_plan: Some(FaultPlan::new(11).with_config(FaultConfig {
                    drop_rate: 0.0005,
                    corrupt_rate: 0.0005,
                    ..FaultConfig::default()
                })),
                mem: MemConfig {
                    timeout_cycles: 2_000,
                    ..MemConfig::default()
                },
                ..SimConfig::default()
            };
            let mut machine = Machine::new(&config, &mapping);
            machine
                .run_network_cycles(30_000)
                .expect("run survives light faults");
            (machine.fault_log().cloned().unwrap(), machine.measure())
        };
        let (log_a, m_a) = run();
        let (log_b, m_b) = run();
        assert_eq!(log_a, log_b, "fault logs diverged for identical seeds");
        assert_eq!(m_a, m_b, "measurements diverged for identical seeds");
        assert!(!log_a.is_empty(), "no faults injected; test is vacuous");
    }

    /// A small machine for engine-equivalence tests: the reference engine
    /// is O(nodes) per boundary, so 16 nodes keep the lockstep runs fast.
    fn small_config() -> SimConfig {
        SimConfig {
            dims: 2,
            radix: 4,
            ..SimConfig::default()
        }
    }

    #[test]
    fn watchdog_trips_identically_across_engines_on_killed_link() {
        use commloc_net::{Direction, FaultPlan};
        // A killed link wedges transactions routed over it; the fabric
        // never drains, so the active engine cannot fast-forward — the
        // watchdog must still trip at the exact same cycle with the exact
        // same diagnostics as exhaustive stepping.
        let config = SimConfig {
            watchdog_cycles: 3_000,
            fault_plan: Some(FaultPlan::new(7).kill_link_at(1_000, 0, 0, Direction::Plus)),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ea = active
            .run_network_cycles(200_000)
            .expect_err("killed link must wedge the workload");
        let eb = reference
            .run_network_cycles(200_000)
            .expect_err("killed link must wedge the workload");
        assert_eq!(ea, eb, "stall reports must be bit-identical");
        assert_eq!(active.net_cycle(), reference.net_cycle());
        let SimError::Stalled(report) = ea else {
            panic!("expected a stall, got {ea}");
        };
        assert_eq!(report.kind, StallKind::Deadlock);
    }

    #[test]
    fn watchdog_backpressure_classification_matches_across_engines() {
        use commloc_net::FaultPlan;
        let config = SimConfig {
            watchdog_cycles: 2_000,
            fault_plan: Some(FaultPlan::new(3).stall_router_at(1_000, 5, 50_000)),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ra = active.run_network_cycles(60_000);
        let rb = reference.run_network_cycles(60_000);
        assert_eq!(ra, rb, "transient-stall outcomes must match");
        assert_eq!(active.net_cycle(), reference.net_cycle());
        if let Err(SimError::Stalled(report)) = ra {
            assert_eq!(report.kind, StallKind::Backpressure);
        }
    }

    #[test]
    fn fast_forward_through_retry_gaps_is_invisible_and_does_not_false_trip() {
        use commloc_net::{FaultConfig, FaultPlan};
        // Heavy drops + a long retry timeout carve genuine idle gaps: all
        // processors blocked, the fabric drained, the next event a retry
        // deadline. The active engine must jump those gaps (asserted via
        // the diagnostic counter) while the watchdog — window larger than
        // any gap — stays quiet, and every observable stays bit-identical
        // to exhaustive stepping.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 3_000,
                max_retries: 30,
                ..MemConfig::default()
            },
            watchdog_cycles: 40_000,
            fault_plan: Some(FaultPlan::new(23).with_config(FaultConfig {
                drop_rate: 0.15,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ra = active.run_network_cycles(60_000);
        let rb = reference.run_network_cycles(60_000);
        assert_eq!(ra, rb, "retry-gap runs must agree");
        assert!(
            ra.is_ok(),
            "watchdog must not trip inside retry gaps: {ra:?}"
        );
        assert_eq!(active.net_cycle(), reference.net_cycle());
        assert_eq!(active.measure(), reference.measure());
        assert_eq!(active.fault_log(), reference.fault_log());
        assert_eq!(
            active.completions_per_node(),
            reference.completions_per_node()
        );
        assert!(
            active.fast_forwarded_cycles() > 0,
            "no quiescent gap was jumped; the scenario does not exercise fast-forward"
        );
        assert_eq!(reference.fast_forwarded_cycles(), 0);
    }

    #[test]
    fn fast_forward_lands_watchdog_trips_on_the_exact_cycle() {
        use commloc_net::{FaultConfig, FaultPlan};
        // With retries disabled, every dropped message permanently wedges
        // one thread. At a 5% drop rate all 16 single-context nodes wedge
        // within a few thousand cycles — long before the oldest stuck
        // transaction ages past the window — leaving the machine fully
        // quiescent with the watchdog trip as the only future event. The
        // active engine fast-forwards straight to that horizon — and must
        // report the identical cycle and diagnostics as the reference
        // engine grinding through the gap cycle by cycle.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 0,
                ..MemConfig::default()
            },
            watchdog_cycles: 30_000,
            fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                drop_rate: 0.15,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut active = Machine::new(&config, &mapping);
        let mut reference = Machine::new_reference(&config, &mapping);
        let ea = active
            .run_network_cycles(400_000)
            .expect_err("an unretried drop must wedge the machine");
        let eb = reference
            .run_network_cycles(400_000)
            .expect_err("an unretried drop must wedge the machine");
        assert_eq!(ea, eb, "trip cycle and diagnostics must be bit-identical");
        assert_eq!(active.net_cycle(), reference.net_cycle());
        assert!(
            active.fast_forwarded_cycles() > 0,
            "the wedge gap should have been jumped"
        );
    }

    #[test]
    fn wedged_node_with_migration_does_not_trip_the_watchdog() {
        use crate::resilience::WorkStealingPolicy;
        use commloc_net::{FaultConfig, FaultPlan};
        // Without migration this exact scenario trips the watchdog (see
        // `fast_forward_lands_watchdog_trips_on_the_exact_cycle`): with
        // retries disabled, every dropped message permanently wedges one
        // thread. With work stealing enabled, each wedged thread is
        // offered to the policy at age `wedge_threshold` — far below the
        // watchdog window — and re-issues its abandoned operation from a
        // new node, so the machine keeps retiring transactions.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 0,
                ..MemConfig::default()
            },
            watchdog_cycles: 30_000,
            fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let policy = || Box::new(WorkStealingPolicy::new(300, 2_000, 10_000));
        let mut active = Machine::with_policy(&config, &mapping, policy());
        let mut reference = Machine::new_reference_with_policy(&config, &mapping, policy());
        let ra = active.run_network_cycles(60_000);
        let rb = reference.run_network_cycles(60_000);
        assert_eq!(ra, rb, "migration runs must agree across engines");
        assert!(
            ra.is_ok(),
            "migration should keep the wedged machine alive: {ra:?}"
        );
        assert!(
            !active.migrations().is_empty(),
            "the unretried drops should have forced at least one migration"
        );
        assert_eq!(active.migrations(), reference.migrations());
        assert_eq!(active.net_cycle(), reference.net_cycle());
        assert_eq!(active.measure(), reference.measure());
        assert_eq!(
            active.completions_per_node(),
            reference.completions_per_node()
        );
        assert_eq!(
            active.migrated_from_nodes(),
            reference.migrated_from_nodes()
        );
    }

    #[test]
    fn exhausted_migration_budget_trips_and_names_the_migrated_nodes() {
        use crate::resilience::WorkStealingPolicy;
        use commloc_net::{FaultConfig, FaultPlan};
        // A budget of one move: the first wedged context migrates, the
        // next wedged context has no budget left and ages out, and the
        // resulting stall report must name where threads already fled.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 0,
                ..MemConfig::default()
            },
            watchdog_cycles: 20_000,
            fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                drop_rate: 0.05,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let policy = Box::new(WorkStealingPolicy::new(300, 2_000, 1));
        let mut machine = Machine::with_policy(&config, &mapping, policy);
        let err = machine
            .run_network_cycles(400_000)
            .expect_err("budget exhaustion must leave a wedged thread");
        let SimError::Stalled(report) = err else {
            panic!("expected a stall, got {err}");
        };
        assert_eq!(machine.migrations().len(), 1);
        assert_eq!(
            report.migrated_from,
            vec![machine.migrations()[0].from],
            "the report must name the migrated-from node"
        );
    }

    #[test]
    fn migration_layer_conserves_completions_on_fault_free_runs() {
        use crate::resilience::WorkStealingPolicy;
        // Property: on a fault-free machine the stealing policy's wedge
        // threshold (far above any healthy transaction latency) never
        // fires, so a policy-carrying machine must complete exactly the
        // same transactions as the static machine.
        for (mapping, contexts) in [(Mapping::identity(16), 1), (Mapping::random(16, 3), 2)] {
            let config = SimConfig {
                contexts,
                ..small_config()
            };
            let policy = Box::new(WorkStealingPolicy::new(200, 3_000, 1_000));
            let mut dynamic = Machine::with_policy(&config, &mapping, policy);
            let mut static_run = Machine::new(&config, &mapping);
            dynamic.run_network_cycles(30_000).unwrap();
            static_run.run_network_cycles(30_000).unwrap();
            assert!(dynamic.migrations().is_empty(), "no faults, no moves");
            assert_eq!(dynamic.completions(), static_run.completions());
            assert_eq!(
                dynamic.completions_per_node(),
                static_run.completions_per_node()
            );
            assert_eq!(dynamic.measure(), static_run.measure());
        }
    }

    #[test]
    fn null_policy_is_bit_exact_with_the_static_machine() {
        use crate::resilience::NullPolicy;
        use commloc_net::{FaultConfig, FaultPlan};
        // Even under an eventful fault plan, the null policy must leave
        // no trace: identical cycles, measurements, and fault log.
        let config = SimConfig {
            mem: MemConfig {
                timeout_cycles: 2_000,
                ..MemConfig::default()
            },
            fault_plan: Some(FaultPlan::new(19).with_config(FaultConfig {
                drop_rate: 0.002,
                corrupt_rate: 0.001,
                ..FaultConfig::default()
            })),
            ..small_config()
        };
        let mapping = Mapping::identity(16);
        let mut with_null = Machine::with_policy(&config, &mapping, Box::new(NullPolicy));
        let mut without = Machine::new(&config, &mapping);
        let ra = with_null.run_network_cycles(30_000);
        let rb = without.run_network_cycles(30_000);
        assert_eq!(ra, rb);
        assert_eq!(with_null.net_cycle(), without.net_cycle());
        assert_eq!(with_null.measure(), without.measure());
        assert_eq!(with_null.fault_log(), without.fault_log());
        assert!(with_null.migrations().is_empty());
        assert!(with_null.migrated_from_nodes().is_empty());
    }

    #[test]
    fn engines_agree_across_random_fault_plans() {
        use commloc_net::{DetRng, FaultConfig, FaultPlan};
        // Property check over DetRng-drawn fault plans (the machine
        // fuzzer sweeps far wider ranges; this is the always-on slice).
        for seed in 0..4u64 {
            let mut rng = DetRng::new(seed ^ 0xD06_F00D);
            let config = SimConfig {
                mem: MemConfig {
                    timeout_cycles: if rng.chance(0.5) {
                        1_000 + rng.range_u64(0, 2_000) as u32
                    } else {
                        0
                    },
                    max_retries: 1 + rng.range_u64(0, 6) as u32,
                    ..MemConfig::default()
                },
                watchdog_cycles: 30_000,
                fault_plan: Some(FaultPlan::new(seed).with_config(FaultConfig {
                    drop_rate: rng.range_f64(0.0, 0.01),
                    corrupt_rate: rng.range_f64(0.0, 0.005),
                    ..FaultConfig::default()
                })),
                ..small_config()
            };
            let mapping = Mapping::identity(16);
            let mut active = Machine::new(&config, &mapping);
            let mut reference = Machine::new_reference(&config, &mapping);
            let ra = active.run_network_cycles(25_000);
            let rb = reference.run_network_cycles(25_000);
            assert_eq!(ra, rb, "seed {seed}: outcomes diverged");
            assert_eq!(active.net_cycle(), reference.net_cycle(), "seed {seed}");
            assert_eq!(active.measure(), reference.measure(), "seed {seed}");
            assert_eq!(active.fault_log(), reference.fault_log(), "seed {seed}");
        }
    }
}
