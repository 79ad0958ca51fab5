//! `commloc serve`: a long-running scenario service with a canonical
//! result cache (DESIGN.md §4.12).
//!
//! Sweep campaigns (Figure 3/5 grids, conformance gates, interactive
//! exploration) re-run the same scenarios constantly: the same warmed
//! machine under many windows, the same (config, mapping) pair requested
//! by different drivers. This module gives every driver one shared,
//! deterministic backend:
//!
//! * **Canonical keys** ([`ScenarioKey`]): a scenario — resolved
//!   [`SimConfig`] + [`Mapping`] + fault plan + windows — renders to a
//!   canonical string (fixed field order, exact `f64` bit patterns) and
//!   hashes with FNV-1a. Requests that spell the same scenario
//!   differently (reordered JSON keys, explicitly-written default fields)
//!   produce byte-identical canonicals; scenarios that differ anywhere
//!   that matters produce different canonicals. The full canonical string
//!   is stored with each entry and compared on lookup, so even a 64-bit
//!   hash collision can never serve the wrong result — it is counted and
//!   treated as a miss.
//! * **Result cache**: a bounded LRU of measured results. A repeated
//!   scenario returns the stored [`Measurements`] and latency-breakdown
//!   JSON bit-identically, without simulating.
//! * **Warm-start cache**: a bounded LRU of post-warmup
//!   [`MachineSnapshot`]s keyed by the scenario-minus-window prefix.
//!   Re-measuring a warmed machine under a new window restores the
//!   snapshot and runs only the window; determinism makes the result
//!   bit-identical to the cold path.
//! * **A JSON-lines protocol** ([`serve`]): requests in, streamed
//!   `accepted`/`progress`/`result`/`done` events out, over
//!   stdin/stdout, a Unix socket, or TCP. Misses are batched through
//!   [`parallel_map`] under the shared process [`crate::set_job_budget`]
//!   job budget.
//!
//! The suite and conformance drivers ([`crate::conformance`], `commloc
//! suite`) route through [`run_cached_sweep`], so a daemon, a CLI sweep,
//! and a conformance gate all hit the same cache.

use crate::conformance::{REDUCED_WARMUP, REDUCED_WINDOW, SUITE_SEED};
use crate::error::{ConfigError, SimError};
use crate::json::{json_string, Json};
use crate::machine::{Machine, MachineSnapshot, Measurements, SimConfig};
use crate::mapping::{mapping_suite, topology_mapping_suite, Mapping, NamedMapping};
use crate::parallel::{default_jobs, parallel_map};
use crate::workload::Workload;
use commloc_net::{FaultPlan, Topology};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Most network cycles (`warmup + window`) one scenario of a request may
/// run — minutes on the paper's 8x8 machine. Longer requests get an
/// `error` event instead of holding the daemon.
const MAX_SERVE_CYCLES: u64 = 10_000_000;

/// Longest request line the daemon reads, in bytes. A longer line is
/// discarded through its newline and answered with one `error` event.
const MAX_REQUEST_BYTES: usize = 64 * 1024;

/// Default bound on stored results.
const DEFAULT_CACHE_CAPACITY: usize = 256;
/// Default bound on stored warm-start snapshots (each holds a whole
/// machine, so this is kept far smaller than the result bound).
const DEFAULT_WARM_CAPACITY: usize = 16;

/// Configuration of a [`serve`] daemon.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind a Unix socket at this path instead of serving stdin/stdout.
    pub socket: Option<String>,
    /// Bind a TCP listener at this address (e.g. `127.0.0.1:7992`)
    /// instead of serving stdin/stdout.
    pub tcp: Option<String>,
    /// Maximum cached results.
    pub cache_capacity: usize,
    /// Maximum cached warm-start snapshots.
    pub warm_capacity: usize,
    /// Worker threads for batched cache misses.
    pub jobs: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            socket: None,
            tcp: None,
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            warm_capacity: DEFAULT_WARM_CAPACITY,
            jobs: default_jobs(),
        }
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical identity of one scenario: everything that determines its
/// measured result, rendered order-insensitively and default-invariantly.
///
/// Construction reads the *resolved* [`SimConfig`] and [`Mapping`], so
/// two requests that reorder fields or write defaults explicitly
/// canonicalize identically. `f64` fields render as exact bit patterns —
/// no formatting rounding can alias two different configurations. The
/// window is appended last so the prefix before it
/// ([`ScenarioKey::warm_hash`]) identifies the warmed machine shared by
/// every window length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioKey {
    hash: u64,
    warm_hash: u64,
    canonical: String,
    warm_len: usize,
}

impl ScenarioKey {
    /// Canonicalizes `(config, mapping, warmup, window)`.
    ///
    /// The topology renders through [`SimConfig::resolved_topology`] (not
    /// the raw `dims`/`radix` fields), so a cube spelled via `dims`/`radix`
    /// and the same cube spelled via an explicit [`Topology`] alias — and
    /// a mesh request can never be served a cube-cached result. The
    /// workload canonical includes the trace content hash, so two traces
    /// with the same filename but different contents never alias either.
    pub fn new(config: &SimConfig, mapping: &Mapping, warmup: u64, window: u64) -> Self {
        let mut c = format!(
            "topo={};workload={};contexts={};clock_ratio={};switch_cycles={};work={}",
            config.resolved_topology().canonical(),
            config.workload.canonical(),
            config.contexts,
            config.clock_ratio,
            config.switch_cycles,
            config.work,
        );
        let m = &config.mem;
        c.push_str(&format!(
            ";mem={},{},{},{},{},{},{}",
            m.header_flits,
            m.data_flits,
            m.processing_cycles,
            m.memory_cycles,
            m.cache_lines,
            m.timeout_cycles,
            m.max_retries,
        ));
        let f = &config.fabric;
        c.push_str(&format!(
            ";fabric={},{},{},{}",
            f.link_vcs, f.vc_buffer_capacity, f.injection_buffer_capacity, f.trace_capacity,
        ));
        c.push_str(&format!(";watchdog={}", config.watchdog_cycles));
        match &config.fault_plan {
            None => c.push_str(";fault=none"),
            Some(plan) => c.push_str(&format!(";fault={}", plan.canonical_description())),
        }
        c.push_str(";map=");
        for t in 0..mapping.threads() {
            if t > 0 {
                c.push(',');
            }
            c.push_str(&mapping.processor(t).0.to_string());
        }
        c.push_str(&format!(";warmup={warmup}"));
        let warm_len = c.len();
        let warm_hash = fnv1a(c.as_bytes());
        c.push_str(&format!(";window={window}"));
        let hash = fnv1a(c.as_bytes());
        Self {
            hash,
            warm_hash,
            canonical: c,
            warm_len,
        }
    }

    /// The scenario's 64-bit FNV-1a hash (cache index; verified against
    /// [`ScenarioKey::canonical`] on every lookup).
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The full canonical rendering.
    pub fn canonical(&self) -> &str {
        &self.canonical
    }

    /// Hash of the scenario-minus-window prefix: the identity of the
    /// warmed machine this scenario measures.
    pub fn warm_hash(&self) -> u64 {
        self.warm_hash
    }

    /// The scenario-minus-window canonical prefix.
    pub fn warm_canonical(&self) -> &str {
        &self.canonical[..self.warm_len]
    }

    /// Test-only: a key with a forged hash, for exercising the
    /// collision-verification path (real FNV collisions are impractical
    /// to construct in a unit test).
    #[cfg(test)]
    fn forged(hash: u64, canonical: &str) -> Self {
        Self {
            hash,
            warm_hash: hash,
            canonical: canonical.to_string(),
            warm_len: canonical.len(),
        }
    }
}

/// One measured scenario, as returned by [`run_cached_sweep`] and
/// streamed by the daemon.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The mapping's suite name.
    pub name: String,
    /// Average neighbour distance of the mapping (hops).
    pub distance: f64,
    /// The measured experiment (bit-identical on a cache hit).
    pub measured: Measurements,
    /// Six-component latency breakdown as a JSON object
    /// ([`commloc_net::LatencyBreakdown::to_json`]).
    pub breakdown_json: String,
    /// Whether this result came from the cache without simulating.
    pub cached: bool,
}

/// Cache occupancy and traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required simulation.
    pub misses: u64,
    /// Lookups whose 64-bit hash matched a stored entry but whose
    /// canonical string did not (served as misses, never as wrong data).
    pub collisions: u64,
    /// Stored results.
    pub entries: usize,
    /// Stored warm-start snapshots.
    pub warm_entries: usize,
}

/// A stored result.
#[derive(Debug, Clone)]
struct CacheEntry {
    canonical: String,
    measured: Measurements,
    breakdown_json: String,
}

/// A stored warm-start snapshot.
#[derive(Debug, Clone)]
struct WarmEntry {
    canonical: String,
    snapshot: MachineSnapshot,
}

/// The bounded LRU result + warm-start store behind every cached driver.
#[derive(Debug)]
pub(crate) struct ScenarioCache {
    capacity: usize,
    warm_capacity: usize,
    entries: HashMap<u64, CacheEntry>,
    recency: VecDeque<u64>,
    warm: HashMap<u64, WarmEntry>,
    warm_recency: VecDeque<u64>,
    hits: u64,
    misses: u64,
    collisions: u64,
}

impl ScenarioCache {
    pub(crate) fn new(capacity: usize, warm_capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            warm_capacity: warm_capacity.max(1),
            entries: HashMap::new(),
            recency: VecDeque::new(),
            warm: HashMap::new(),
            warm_recency: VecDeque::new(),
            hits: 0,
            misses: 0,
            collisions: 0,
        }
    }

    /// Applies new bounds, evicting least-recently-used entries if the
    /// store is now over-size. Counters are preserved.
    fn configure(&mut self, capacity: usize, warm_capacity: usize) {
        self.capacity = capacity.max(1);
        self.warm_capacity = warm_capacity.max(1);
        while self.entries.len() > self.capacity {
            if let Some(old) = self.recency.pop_front() {
                self.entries.remove(&old);
            }
        }
        while self.warm.len() > self.warm_capacity {
            if let Some(old) = self.warm_recency.pop_front() {
                self.warm.remove(&old);
            }
        }
    }

    fn touch(recency: &mut VecDeque<u64>, hash: u64) {
        recency.retain(|&h| h != hash);
        recency.push_back(hash);
    }

    fn lookup(&mut self, key: &ScenarioKey) -> Option<CacheEntry> {
        match self.entries.get(&key.hash) {
            Some(entry) if entry.canonical == key.canonical => {
                self.hits += 1;
                Self::touch(&mut self.recency, key.hash);
                Some(entry.clone())
            }
            Some(_) => {
                // Same 64-bit hash, different scenario: the stored full
                // key caught it. Never serve the wrong result.
                self.collisions += 1;
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: &ScenarioKey, measured: Measurements, breakdown_json: &str) {
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key.hash) {
            if let Some(old) = self.recency.pop_front() {
                self.entries.remove(&old);
            }
        }
        self.entries.insert(
            key.hash,
            CacheEntry {
                canonical: key.canonical.clone(),
                measured,
                breakdown_json: breakdown_json.to_string(),
            },
        );
        Self::touch(&mut self.recency, key.hash);
    }

    fn warm_lookup(&mut self, key: &ScenarioKey) -> Option<MachineSnapshot> {
        match self.warm.get(&key.warm_hash) {
            Some(entry) if entry.canonical == key.warm_canonical() => {
                Self::touch(&mut self.warm_recency, key.warm_hash);
                Some(entry.snapshot.clone())
            }
            _ => None,
        }
    }

    fn warm_insert(&mut self, key: &ScenarioKey, snapshot: MachineSnapshot) {
        if self.warm.len() >= self.warm_capacity && !self.warm.contains_key(&key.warm_hash) {
            if let Some(old) = self.warm_recency.pop_front() {
                self.warm.remove(&old);
            }
        }
        self.warm.insert(
            key.warm_hash,
            WarmEntry {
                canonical: key.warm_canonical().to_string(),
                snapshot,
            },
        );
        Self::touch(&mut self.warm_recency, key.warm_hash);
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            collisions: self.collisions,
            entries: self.entries.len(),
            warm_entries: self.warm.len(),
        }
    }
}

/// The process-wide cache shared by the daemon, `commloc suite`, and the
/// conformance drivers.
fn global_cache() -> &'static Mutex<ScenarioCache> {
    static CACHE: OnceLock<Mutex<ScenarioCache>> = OnceLock::new();
    CACHE.get_or_init(|| {
        Mutex::new(ScenarioCache::new(
            DEFAULT_CACHE_CAPACITY,
            DEFAULT_WARM_CAPACITY,
        ))
    })
}

/// Lock helper: the cache is plain data, so a panicked holder leaves a
/// consistent (if slightly stale) store — recover rather than wedge the
/// daemon.
fn lock(cache: &Mutex<ScenarioCache>) -> std::sync::MutexGuard<'_, ScenarioCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Traffic and occupancy counters of the process-wide cache.
pub fn cache_stats() -> CacheStats {
    lock(global_cache()).stats()
}

/// Runs one scenario against `cache`: result-cache check is the caller's
/// job; this is the miss path (warm-start if a snapshot exists, else cold
/// warmup + snapshot insert), ending with a result-cache insert.
fn compute_scenario(
    config: &SimConfig,
    mapping: &Mapping,
    key: &ScenarioKey,
    warmup: u64,
    window: u64,
    cache: &Mutex<ScenarioCache>,
) -> Result<(Measurements, String), SimError> {
    let warm = lock(cache).warm_lookup(key);
    let mut machine = match warm {
        Some(snapshot) => snapshot.restore(),
        None => {
            let mut machine = Machine::new(config, mapping);
            machine.run_network_cycles(warmup)?;
            machine.reset_measurements();
            lock(cache).warm_insert(key, machine.snapshot());
            machine
        }
    };
    machine.run_network_cycles(window)?;
    let measured = machine.measure();
    let breakdown_json = machine.latency_breakdown().to_json();
    lock(cache).insert(key, measured, &breakdown_json);
    Ok((measured, breakdown_json))
}

/// Per-scenario completion callback `(input index, name, was cache hit)`;
/// sweep workers invoke it concurrently, so it must be `Sync`.
type ProgressFn<'a> = &'a (dyn Fn(usize, &str, bool) + Sync);

/// [`run_cached_sweep`] against an explicit cache, with an optional
/// completion callback — the daemon streams progress from it.
fn run_cached_sweep_with(
    config: &SimConfig,
    mappings: &[NamedMapping],
    warmup: u64,
    window: u64,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
    progress: Option<ProgressFn<'_>>,
) -> Result<Vec<ScenarioResult>, SimError> {
    let keys: Vec<ScenarioKey> = mappings
        .iter()
        .map(|named| ScenarioKey::new(config, &named.mapping, warmup, window))
        .collect();
    let mut results: Vec<Option<ScenarioResult>> = mappings.iter().map(|_| None).collect();
    let mut miss_indices: Vec<usize> = Vec::new();
    {
        let mut store = lock(cache);
        for (i, (named, key)) in mappings.iter().zip(&keys).enumerate() {
            match store.lookup(key) {
                Some(entry) => {
                    results[i] = Some(ScenarioResult {
                        name: named.name.clone(),
                        distance: named.distance,
                        measured: entry.measured,
                        breakdown_json: entry.breakdown_json,
                        cached: true,
                    });
                }
                None => miss_indices.push(i),
            }
        }
    }
    if let Some(callback) = progress {
        for (i, slot) in results.iter().enumerate() {
            if slot.is_some() {
                callback(i, &mappings[i].name, true);
            }
        }
    }
    let computed = parallel_map(&miss_indices, jobs, |&i| {
        let named = &mappings[i];
        let out = compute_scenario(config, &named.mapping, &keys[i], warmup, window, cache);
        if out.is_ok() {
            if let Some(callback) = progress {
                callback(i, &named.name, false);
            }
        }
        out.map(|(measured, breakdown_json)| ScenarioResult {
            name: named.name.clone(),
            distance: named.distance,
            measured,
            breakdown_json,
            cached: false,
        })
    });
    for (&i, result) in miss_indices.iter().zip(computed) {
        results[i] = Some(result?);
    }
    Ok(results
        .into_iter()
        .map(|slot| slot.expect("every sweep slot filled"))
        .collect())
}

/// Runs one experiment per mapping through the process-wide result and
/// warm-start caches, fanning misses across `jobs` threads (under the
/// shared job budget). Results are in input order and bit-identical to
/// [`crate::run_sweep`] — repeated scenarios are served from the cache
/// without simulating.
///
/// # Errors
///
/// Returns the first failing experiment's error (by input order).
pub fn run_cached_sweep(
    config: &SimConfig,
    mappings: &[NamedMapping],
    warmup: u64,
    window: u64,
    jobs: usize,
) -> Result<Vec<ScenarioResult>, SimError> {
    run_cached_sweep_with(config, mappings, warmup, window, jobs, global_cache(), None)
}

/// Serializes `m` as a JSON object. Non-finite ratios map to the same
/// 0.0 degenerate-window sentinel as [`Measurements::to_csv_row`]; every
/// present field parses as a finite number (the CI smoke gate checks).
fn measurements_json(m: &Measurements) -> String {
    fn finite(x: f64) -> f64 {
        if x.is_finite() {
            x
        } else {
            0.0
        }
    }
    let mut out = format!("{{\"net_cycles\":{},\"nodes\":{}", m.net_cycles, m.nodes);
    for (name, value) in [
        ("distance", m.distance),
        ("message_rate", m.message_rate),
        ("message_interval", m.message_interval),
        ("message_latency", m.message_latency),
        ("per_hop_latency", m.per_hop_latency),
        ("channel_utilization", m.channel_utilization),
        ("injection_utilization", m.injection_utilization),
        ("transaction_rate", m.transaction_rate),
        ("issue_interval", m.issue_interval),
        ("transaction_latency", m.transaction_latency),
        ("messages_per_transaction", m.messages_per_transaction),
        ("avg_message_size", m.avg_message_size),
        ("residual_message_size", m.residual_message_size),
        ("run_length", m.run_length),
        ("hit_fraction", m.hit_fraction),
    ] {
        out.push_str(&format!(",\"{name}\":{:?}", finite(value)));
    }
    out.push('}');
    out
}

/// A parsed daemon request.
#[derive(Debug)]
struct Request {
    op: String,
    id: Option<String>,
    config: SimConfig,
    seed: u64,
    warmup: u64,
    window: u64,
    /// Mapping suite names (`run`: exactly one; `sweep`: one or more, or
    /// empty meaning the whole suite).
    mappings: Vec<String>,
}

/// Every key a request may carry (flat object; scenario fields default to
/// the paper's architecture and the reduced conformance windows).
const REQUEST_KEYS: &[&str] = &[
    "op",
    "id",
    "mapping",
    "mappings",
    "dims",
    "radix",
    "topology",
    "traffic",
    "contexts",
    "clock_ratio",
    "switch_cycles",
    "work",
    "watchdog",
    "seed",
    "warmup",
    "window",
    "fault_seed",
    "drop_rate",
    "corrupt_rate",
    "stall_rate",
    "stall_window",
];

/// Checks a request's cycle budget: `warmup + window` must not overflow
/// or exceed [`MAX_SERVE_CYCLES`].
fn check_cycle_budget(warmup: u64, window: u64) -> Result<(), ConfigError> {
    let reason = match warmup.checked_add(window) {
        Some(total) if total <= MAX_SERVE_CYCLES => return Ok(()),
        Some(total) => format!(
            "warmup + window = {total} cycles exceeds the serve budget of {MAX_SERVE_CYCLES}"
        ),
        None => format!("warmup {warmup} + window {window} overflows"),
    };
    Err(ConfigError {
        field: "window",
        reason,
    })
}

/// A request integer narrowed into its config field's type.
fn narrowed<T: TryFrom<u64>>(field: &'static str, value: Result<u64, String>) -> Result<T, String> {
    ConfigError::narrow(field, value?).map_err(|e| e.to_string())
}

fn parse_request(line: &str) -> Result<Request, String> {
    let doc = Json::parse(line)?;
    for (key, _) in doc.as_object()? {
        if !REQUEST_KEYS.contains(&key.as_str()) {
            return Err(format!(
                "unknown key `{key}` (known keys: {})",
                REQUEST_KEYS.join(", ")
            ));
        }
    }
    let get = |name: &str| doc.field(name).expect("checked object");
    let op = match get("op") {
        Some(v) => v.as_string()?,
        None => return Err("missing `op` (run, sweep, stats, shutdown)".into()),
    };
    let id = get("id").map(Json::as_string).transpose()?;
    let u64_field = |name: &str, default: u64| -> Result<u64, String> {
        get(name).map_or(Ok(default), |v| {
            v.as_u64().map_err(|e| format!("{name}: {e}"))
        })
    };
    let rate_field = |name: &str| -> Result<f64, String> {
        let rate = get(name).map_or(Ok(0.0), |v| {
            v.as_number().map_err(|e| format!("{name}: {e}"))
        })?;
        if (0.0..=1.0).contains(&rate) {
            Ok(rate)
        } else {
            Err(format!("{name}: {rate} is not a probability in [0, 1]"))
        }
    };
    // Narrowed with a range check: a silent wrap would alias another
    // scenario (and its cache entry).
    let defaults = SimConfig::default();
    let mut config = SimConfig {
        dims: narrowed("dims", u64_field("dims", u64::from(defaults.dims)))?,
        radix: narrowed("radix", u64_field("radix", defaults.radix as u64))?,
        contexts: narrowed("contexts", u64_field("contexts", defaults.contexts as u64))?,
        clock_ratio: narrowed(
            "clock_ratio",
            u64_field("clock_ratio", u64::from(defaults.clock_ratio)),
        )?,
        switch_cycles: narrowed(
            "switch_cycles",
            u64_field("switch_cycles", u64::from(defaults.switch_cycles)),
        )?,
        work: narrowed("work", u64_field("work", u64::from(defaults.work)))?,
        watchdog_cycles: u64_field("watchdog", defaults.watchdog_cycles)?,
        ..defaults
    };
    config.validate().map_err(|e| e.to_string())?;
    if let Some(v) = get("topology") {
        let spec = v.as_string().map_err(|e| format!("topology: {e}"))?;
        config.topology = Some(
            Topology::parse(&spec, config.dims, config.radix)
                .map_err(|e| format!("topology: {e}"))?,
        );
    }
    if let Some(v) = get("traffic") {
        let spec = v.as_string().map_err(|e| format!("traffic: {e}"))?;
        config.workload = Workload::parse(&spec).map_err(|e| format!("traffic: {e}"))?;
    }
    let drop_rate = rate_field("drop_rate")?;
    let corrupt_rate = rate_field("corrupt_rate")?;
    let stall_rate = rate_field("stall_rate")?;
    let has_fault = [
        "fault_seed",
        "drop_rate",
        "corrupt_rate",
        "stall_rate",
        "stall_window",
    ]
    .iter()
    .any(|k| get(k).is_some());
    if has_fault {
        let mut plan = FaultPlan::new(u64_field("fault_seed", 0)?)
            .with_drop_rate(drop_rate)
            .with_corrupt_rate(corrupt_rate);
        let stall_window = u64_field("stall_window", 64)?;
        plan = plan.with_stall_rate(stall_rate, stall_window);
        config.fault_plan = Some(plan);
    }
    let mut mappings = Vec::new();
    if let Some(v) = get("mapping") {
        mappings.push(v.as_string().map_err(|e| format!("mapping: {e}"))?);
    }
    if let Some(v) = get("mappings") {
        for item in v.as_array().map_err(|e| format!("mappings: {e}"))? {
            mappings.push(item.as_string().map_err(|e| format!("mappings: {e}"))?);
        }
    }
    let warmup = u64_field("warmup", REDUCED_WARMUP)?;
    let window = u64_field("window", REDUCED_WINDOW)?;
    check_cycle_budget(warmup, window).map_err(|e| e.to_string())?;
    Ok(Request {
        op,
        id,
        config,
        seed: u64_field("seed", SUITE_SEED)?,
        warmup,
        window,
        mappings,
    })
}

/// Resolves request mapping names against the suite for this config's
/// topology (the torus-specific suite on cubes, the topology-generic one
/// otherwise). Empty `specs` means the whole suite.
fn resolve_mappings(
    config: &SimConfig,
    seed: u64,
    specs: &[String],
) -> Result<Vec<NamedMapping>, String> {
    let topology = config.resolved_topology();
    let suite = match &topology {
        Topology::Cube(torus) => mapping_suite(torus, seed),
        _ => topology_mapping_suite(&topology, seed),
    };
    if specs.is_empty() {
        return Ok(suite);
    }
    specs
        .iter()
        .map(|spec| {
            suite
                .iter()
                .find(|named| &named.name == spec)
                .cloned()
                .ok_or_else(|| {
                    let known: Vec<&str> = suite.iter().map(|n| n.name.as_str()).collect();
                    format!("unknown mapping `{spec}` (suite: {})", known.join(", "))
                })
        })
        .collect()
}

/// The identity segment shared by every event of one request.
fn id_prefix(id: &Option<String>) -> String {
    match id {
        Some(id) => format!("\"id\":{},", json_string(id)),
        None => String::new(),
    }
}

fn stats_json(stats: &CacheStats) -> String {
    format!(
        "\"hits\":{},\"misses\":{},\"collisions\":{},\"entries\":{},\"warm_entries\":{}",
        stats.hits, stats.misses, stats.collisions, stats.entries, stats.warm_entries,
    )
}

/// Writes one event line (locking the shared writer; the daemon streams
/// from worker threads).
fn emit<W: Write>(writer: &Mutex<W>, line: &str) -> Result<(), String> {
    let mut w = writer.lock().unwrap_or_else(PoisonError::into_inner);
    writeln!(w, "{line}")
        .and_then(|()| w.flush())
        .map_err(|e| format!("write: {e}"))
}

/// Handles one request line. `Ok(false)` means a clean shutdown request.
fn handle_request<W: Write + Send>(
    line: &str,
    writer: &Mutex<W>,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
) -> Result<bool, String> {
    let request = match parse_request(line) {
        Ok(request) => request,
        Err(message) => {
            emit(
                writer,
                &format!(
                    "{{\"event\":\"error\",\"message\":{}}}",
                    json_string(&message)
                ),
            )?;
            return Ok(true);
        }
    };
    let id = id_prefix(&request.id);
    match request.op.as_str() {
        "stats" => {
            let stats = lock(cache).stats();
            emit(
                writer,
                &format!("{{\"event\":\"stats\",{id}{}}}", stats_json(&stats)),
            )?;
            Ok(true)
        }
        "shutdown" => {
            emit(
                writer,
                &format!("{{\"event\":\"done\",{id}\"op\":\"shutdown\"}}"),
            )?;
            Ok(false)
        }
        op @ ("run" | "sweep") => {
            if op == "run" && request.mappings.len() != 1 {
                emit(
                    writer,
                    &format!(
                        "{{\"event\":\"error\",{id}\"message\":\"op `run` needs exactly one `mapping`\"}}"
                    ),
                )?;
                return Ok(true);
            }
            let mappings = match resolve_mappings(&request.config, request.seed, &request.mappings)
            {
                Ok(mappings) => mappings,
                Err(message) => {
                    emit(
                        writer,
                        &format!(
                            "{{\"event\":\"error\",{id}\"message\":{}}}",
                            json_string(&message)
                        ),
                    )?;
                    return Ok(true);
                }
            };
            emit(
                writer,
                &format!(
                    "{{\"event\":\"accepted\",{id}\"op\":\"{op}\",\"scenarios\":{}}}",
                    mappings.len()
                ),
            )?;
            let total = mappings.len();
            let done = std::sync::atomic::AtomicUsize::new(0);
            let progress = |_: usize, name: &str, cached: bool| {
                let completed = 1 + done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let _ = emit(
                    writer,
                    &format!(
                        "{{\"event\":\"progress\",{id}\"completed\":{completed},\"total\":{total},\
                         \"name\":{},\"cached\":{cached}}}",
                        json_string(name)
                    ),
                );
            };
            let outcome = run_cached_sweep_with(
                &request.config,
                &mappings,
                request.warmup,
                request.window,
                jobs,
                cache,
                Some(&progress),
            );
            match outcome {
                Err(error) => emit(
                    writer,
                    &format!(
                        "{{\"event\":\"error\",{id}\"message\":{}}}",
                        json_string(&error.to_string())
                    ),
                )?,
                Ok(results) => {
                    for r in &results {
                        emit(
                            writer,
                            &format!(
                                "{{\"event\":\"result\",{id}\"name\":{},\"distance\":{:?},\
                                 \"cached\":{},\"measurements\":{},\"breakdown\":{}}}",
                                json_string(&r.name),
                                r.distance,
                                r.cached,
                                measurements_json(&r.measured),
                                r.breakdown_json,
                            ),
                        )?;
                    }
                    let stats = lock(cache).stats();
                    emit(
                        writer,
                        &format!(
                            "{{\"event\":\"done\",{id}\"op\":\"{op}\",\"scenarios\":{},{}}}",
                            results.len(),
                            stats_json(&stats)
                        ),
                    )?;
                }
            }
            Ok(true)
        }
        other => {
            emit(
                writer,
                &format!(
                    "{{\"event\":\"error\",{id}\"message\":{}}}",
                    json_string(&format!(
                        "unknown op `{other}` (run, sweep, stats, shutdown)"
                    ))
                ),
            )?;
            Ok(true)
        }
    }
}

/// Reads the next line of `reader` into `line` (without its newline),
/// keeping at most [`MAX_REQUEST_BYTES`] bytes: the rest of a longer
/// line is read and dropped. Returns the line's full length, or `None` at
/// end of input.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
) -> std::io::Result<Option<usize>> {
    line.clear();
    let mut length = 0;
    loop {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Ok((length > 0).then_some(length));
        }
        let (chunk, used, done) = match available.iter().position(|&b| b == b'\n') {
            Some(end) => (&available[..end], end + 1, true),
            None => (available, available.len(), false),
        };
        let room = MAX_REQUEST_BYTES.saturating_sub(line.len());
        line.extend_from_slice(&chunk[..chunk.len().min(room)]);
        length += chunk.len();
        reader.consume(used);
        if done {
            return Ok(Some(length));
        }
    }
}

/// Serves JSON-lines requests from `reader`, streaming events to
/// `writer`, until EOF or a `shutdown` request. `Ok(false)` = shutdown
/// was requested (listeners stop accepting), `Ok(true)` = plain EOF.
fn handle_stream<R: BufRead, W: Write + Send>(
    mut reader: R,
    writer: W,
    jobs: usize,
    cache: &Mutex<ScenarioCache>,
) -> Result<bool, String> {
    let writer = Mutex::new(writer);
    let mut bytes = Vec::new();
    while let Some(length) =
        read_bounded_line(&mut reader, &mut bytes).map_err(|e| format!("read: {e}"))?
    {
        let problem = if length > MAX_REQUEST_BYTES {
            format!("request line of {length} bytes exceeds the limit of {MAX_REQUEST_BYTES}")
        } else {
            match std::str::from_utf8(&bytes) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => {
                    if !handle_request(line.trim(), &writer, jobs, cache)? {
                        return Ok(false);
                    }
                    continue;
                }
                Err(e) => format!("request line is not UTF-8: {e}"),
            }
        };
        emit(
            &writer,
            &format!(
                "{{\"event\":\"error\",\"message\":{}}}",
                json_string(&problem)
            ),
        )?;
    }
    Ok(true)
}

/// Runs the scenario daemon until a `shutdown` request (or, in
/// stdin/stdout mode, EOF).
///
/// Transports: stdin/stdout by default; a Unix socket
/// ([`ServeOptions::socket`]) or TCP listener ([`ServeOptions::tcp`])
/// otherwise, serving connections one at a time (requests are batched
/// sweeps — fairness across concurrent clients is not a goal).
///
/// # Errors
///
/// Returns a description of the first transport error (bind/accept/IO);
/// malformed requests are reported to the client as `error` events and do
/// not stop the daemon.
pub fn serve(options: &ServeOptions) -> Result<(), String> {
    lock(global_cache()).configure(options.cache_capacity, options.warm_capacity);
    let cache = global_cache();
    match (&options.socket, &options.tcp) {
        (Some(_), Some(_)) => Err("--socket and --tcp are mutually exclusive".into()),
        (Some(path), None) => {
            let listener = std::os::unix::net::UnixListener::bind(path)
                .map_err(|e| format!("bind {path}: {e}"))?;
            for stream in listener.incoming() {
                let stream = stream.map_err(|e| format!("accept: {e}"))?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                if !handle_stream(reader, stream, options.jobs, cache)? {
                    break;
                }
            }
            let _ = std::fs::remove_file(path);
            Ok(())
        }
        (None, Some(addr)) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            for stream in listener.incoming() {
                let stream = stream.map_err(|e| format!("accept: {e}"))?;
                let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
                if !handle_stream(reader, stream, options.jobs, cache)? {
                    break;
                }
            }
            Ok(())
        }
        (None, None) => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            handle_stream(stdin.lock(), stdout, options.jobs, cache).map(|_| ())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_experiment;
    use commloc_net::Torus;

    fn small_key(window: u64) -> ScenarioKey {
        ScenarioKey::new(&SimConfig::default(), &Mapping::identity(64), 1_000, window)
    }

    #[test]
    fn key_is_order_insensitive_and_default_invariant() {
        // One request spells nothing out; the other writes every default
        // explicitly, in scrambled key order. Same scenario, same key.
        let terse = parse_request(r#"{"op":"run","mapping":"identity"}"#).unwrap();
        let explicit = parse_request(
            r#"{"window":18000,"dims":2,"mapping":"identity","radix":8,"op":"run",
               "warmup":6000,"clock_ratio":2,"contexts":1,"switch_cycles":11,
               "work":10,"watchdog":20000,"seed":1992}"#,
        )
        .unwrap();
        let mapping = Mapping::identity(64);
        let a = ScenarioKey::new(&terse.config, &mapping, terse.warmup, terse.window);
        let b = ScenarioKey::new(&explicit.config, &mapping, explicit.warmup, explicit.window);
        assert_eq!(a, b, "reordered/explicit-default requests must alias");
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn differing_mapping_config_or_fault_changes_the_key() {
        let config = SimConfig::default();
        let identity = ScenarioKey::new(&config, &Mapping::identity(64), 1_000, 4_000);
        let random = ScenarioKey::new(&config, &Mapping::random(64, 7), 1_000, 4_000);
        assert_ne!(identity.canonical(), random.canonical());

        let faulted = SimConfig {
            fault_plan: Some(FaultPlan::new(9).with_drop_rate(0.01)),
            ..SimConfig::default()
        };
        let with_fault = ScenarioKey::new(&faulted, &Mapping::identity(64), 1_000, 4_000);
        assert_ne!(identity.canonical(), with_fault.canonical());

        // Fault plans differing only in seed, or only in one scheduled
        // event, never alias.
        let reseeded = SimConfig {
            fault_plan: Some(FaultPlan::new(10).with_drop_rate(0.01)),
            ..SimConfig::default()
        };
        let with_reseed = ScenarioKey::new(&reseeded, &Mapping::identity(64), 1_000, 4_000);
        assert_ne!(with_fault.canonical(), with_reseed.canonical());
        let scheduled = SimConfig {
            fault_plan: Some(
                FaultPlan::new(9)
                    .with_drop_rate(0.01)
                    .stall_router_at(500, 12, 300),
            ),
            ..SimConfig::default()
        };
        let with_schedule = ScenarioKey::new(&scheduled, &Mapping::identity(64), 1_000, 4_000);
        assert_ne!(with_fault.canonical(), with_schedule.canonical());
    }

    #[test]
    fn topology_and_traffic_split_the_key() {
        // A 4x4 cube and a 4x4 mesh have the same node count and the same
        // default dims/radix fields — only the topology distinguishes
        // them. A cached cube result must never be served for the mesh.
        let mapping = Mapping::identity(16);
        let cube = SimConfig {
            dims: 2,
            radix: 4,
            ..SimConfig::default()
        };
        let mesh = SimConfig {
            topology: Some(Topology::mesh(4, 4)),
            ..cube.clone()
        };
        let cube_key = ScenarioKey::new(&cube, &mapping, 1_000, 4_000);
        let mesh_key = ScenarioKey::new(&mesh, &mapping, 1_000, 4_000);
        assert_ne!(cube_key.canonical(), mesh_key.canonical());
        assert_ne!(cube_key.warm_canonical(), mesh_key.warm_canonical());

        // An explicitly-spelled cube aliases the dims/radix spelling.
        let explicit = SimConfig {
            topology: Some(Topology::cube(2, 4)),
            ..cube.clone()
        };
        assert_eq!(
            cube_key.canonical(),
            ScenarioKey::new(&explicit, &mapping, 1_000, 4_000).canonical()
        );

        // The traffic pattern splits the key too.
        let transpose = SimConfig {
            workload: Workload::Transpose,
            ..cube.clone()
        };
        assert_ne!(
            cube_key.canonical(),
            ScenarioKey::new(&transpose, &mapping, 1_000, 4_000).canonical()
        );
    }

    #[test]
    fn window_splits_the_key_but_not_the_warm_prefix() {
        let short = small_key(4_000);
        let long = small_key(9_000);
        assert_ne!(short.hash(), long.hash());
        assert_eq!(short.warm_hash(), long.warm_hash());
        assert_eq!(short.warm_canonical(), long.warm_canonical());
    }

    #[test]
    fn unknown_request_keys_are_rejected() {
        let err = parse_request(r#"{"op":"run","mapping":"identity","radiks":8}"#).unwrap_err();
        assert!(err.contains("radiks"), "error must name the bad key: {err}");
        assert!(
            parse_request(r#"{"op":"run","mapping":"identity","drop_rate":1.5}"#).is_err(),
            "out-of-range probability must be rejected"
        );
    }

    #[test]
    fn hash_collisions_are_verified_not_served() {
        let mut cache = ScenarioCache::new(8, 2);
        let real = small_key(4_000);
        let m = run_experiment(&SimConfig::default(), &Mapping::identity(64), 500, 1_500).unwrap();
        cache.insert(&real, m, "{}");
        // A forged key with the same hash but a different canonical
        // string: the full-key check refuses it.
        let impostor = ScenarioKey::forged(real.hash(), "something else entirely");
        assert!(cache.lookup(&impostor).is_none());
        let stats = cache.stats();
        assert_eq!(stats.collisions, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 0);
        // The genuine key still hits.
        assert!(cache.lookup(&real).is_some());
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn result_cache_is_a_bounded_lru() {
        let mut cache = ScenarioCache::new(2, 2);
        let m = run_experiment(&SimConfig::default(), &Mapping::identity(64), 500, 1_500).unwrap();
        let keys: Vec<ScenarioKey> = (1..=3).map(|w| small_key(w * 1_000)).collect();
        cache.insert(&keys[0], m, "{}");
        cache.insert(&keys[1], m, "{}");
        // Touch the older entry so the *other* one is the LRU victim.
        assert!(cache.lookup(&keys[0]).is_some());
        cache.insert(&keys[2], m, "{}");
        assert_eq!(cache.stats().entries, 2);
        assert!(
            cache.lookup(&keys[1]).is_none(),
            "LRU entry must be evicted"
        );
        assert!(cache.lookup(&keys[0]).is_some());
        assert!(cache.lookup(&keys[2]).is_some());
    }

    #[test]
    fn warm_restore_is_bit_identical_to_cold_run() {
        let config = SimConfig::default();
        let mapping = Mapping::identity(64);
        let cold = run_experiment(&config, &mapping, 1_500, 4_000).unwrap();
        let mut machine = Machine::new(&config, &mapping);
        machine.run_network_cycles(1_500).unwrap();
        machine.reset_measurements();
        let snapshot = machine.snapshot();
        // Two independent restores, both bit-identical to the cold path.
        for _ in 0..2 {
            let mut warm = snapshot.restore();
            warm.run_network_cycles(4_000).unwrap();
            assert_eq!(warm.measure(), cold);
        }
    }

    #[test]
    fn cached_sweep_hits_are_bit_identical_and_warm_starts_match() {
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let config = SimConfig::default();
        let torus = Torus::new(config.dims, config.radix);
        let mappings: Vec<NamedMapping> = mapping_suite(&torus, SUITE_SEED)
            .into_iter()
            .take(2)
            .collect();

        let first =
            run_cached_sweep_with(&config, &mappings, 1_500, 4_000, 2, &cache, None).unwrap();
        assert!(first.iter().all(|r| !r.cached));
        // Uncached reference: byte- and bit-level agreement.
        for r in &first {
            let named = mappings.iter().find(|m| m.name == r.name).unwrap();
            let reference = run_experiment(&config, &named.mapping, 1_500, 4_000).unwrap();
            assert_eq!(r.measured, reference);
        }

        // Exact repeat: served from cache, bit-identical payloads.
        let second =
            run_cached_sweep_with(&config, &mappings, 1_500, 4_000, 2, &cache, None).unwrap();
        assert!(second.iter().all(|r| r.cached));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.measured, b.measured);
            assert_eq!(a.breakdown_json, b.breakdown_json);
        }

        // New window over the same warmup: a warm start (no fresh warmup
        // simulation), still bit-identical to the cold path.
        let warm =
            run_cached_sweep_with(&config, &mappings, 1_500, 2_500, 2, &cache, None).unwrap();
        for r in &warm {
            assert!(!r.cached);
            let named = mappings.iter().find(|m| m.name == r.name).unwrap();
            let reference = run_experiment(&config, &named.mapping, 1_500, 2_500).unwrap();
            assert_eq!(r.measured, reference, "warm start must be bit-exact");
        }
        assert_eq!(cache.lock().unwrap().stats().warm_entries, 2);
    }

    #[test]
    fn protocol_streams_results_and_serves_repeats_from_cache() {
        let cache = Mutex::new(ScenarioCache::new(8, 4));
        let request = r#"{"op":"run","id":"r1","mapping":"identity","warmup":1500,"window":4000}"#;
        let input = format!("{request}\n{request}\n{{\"op\":\"shutdown\"}}\n");
        let mut output = Vec::new();
        let eof = handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap();
        assert!(!eof, "shutdown must stop the stream");

        let text = String::from_utf8(output).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let results: Vec<&str> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"result\""))
            .copied()
            .collect();
        assert_eq!(results.len(), 2);
        assert!(results[0].contains("\"cached\":false"));
        assert!(results[1].contains("\"cached\":true"));
        // The measured payload (everything from `measurements` on) is
        // byte-identical between the cold run and the cache hit.
        let payload =
            |line: &str| line[line.find("\"measurements\"").expect("payload")..].to_string();
        assert_eq!(payload(results[0]), payload(results[1]));
        // Every line is parseable JSON with finite numbers throughout.
        for line in &lines {
            let doc = Json::parse(line).expect("well-formed event");
            fn all_finite(v: &Json) {
                match v {
                    Json::Number(n) => assert!(n.is_finite(), "non-finite streamed field"),
                    Json::Object(fields) => fields.iter().for_each(|(_, v)| all_finite(v)),
                    Json::Array(items) => items.iter().for_each(all_finite),
                    _ => {}
                }
            }
            all_finite(&doc);
        }
        // The final done event reports the cache traffic.
        let done = lines
            .iter()
            .rfind(|l| l.contains("\"event\":\"done\"") && l.contains("\"hits\""))
            .expect("done event with stats");
        assert!(done.contains("\"hits\":1"), "one repeat must hit: {done}");
    }

    #[test]
    fn protocol_reports_bad_requests_without_dying() {
        let cache = Mutex::new(ScenarioCache::new(4, 2));
        let input = concat!(
            "{\"op\":\"run\",\"mapping\":\"no-such-mapping\",\"warmup\":100,\"window\":100}\n",
            "not json at all\n",
            "{\"op\":\"frobnicate\"}\n",
            "{\"op\":\"stats\"}\n",
        );
        let mut output = Vec::new();
        let eof = handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap();
        assert!(eof, "EOF (not shutdown) ends the stream");
        let text = String::from_utf8(output).unwrap();
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("\"event\":\"error\""))
                .count(),
            3,
            "each bad request gets its own error event: {text}"
        );
        assert!(
            text.contains("\"event\":\"stats\""),
            "daemon must survive: {text}"
        );
    }

    /// Runs `request` then `stats` through the protocol and returns the
    /// first output line (which must be an error) after asserting the
    /// daemon answered the second.
    fn rejected_request(request: &str) -> String {
        let cache = Mutex::new(ScenarioCache::new(4, 2));
        let input = format!("{request}\n{{\"op\":\"stats\"}}\n");
        let mut output = Vec::new();
        handle_stream(input.as_bytes(), &mut output, 1, &cache).unwrap();
        let text = String::from_utf8(output).unwrap();
        let mut lines = text.lines();
        let first = lines.next().unwrap_or_default().to_string();
        assert!(first.contains("\"event\":\"error\""), "{request}: {text}");
        assert_eq!(text.matches("\"event\":\"error\"").count(), 1, "{text}");
        assert!(
            lines
                .next()
                .is_some_and(|l| l.contains("\"event\":\"stats\"")),
            "daemon must survive {request}: {text}"
        );
        first
    }

    #[test]
    fn zero_contexts_is_an_error_event_not_a_crash() {
        let err = rejected_request(
            r#"{"op":"run","contexts":0,"mapping":"identity","warmup":100,"window":100}"#,
        );
        assert!(err.contains("contexts"), "error must name the field: {err}");
        for field in ["radix", "dims", "clock_ratio"] {
            let err = rejected_request(&format!(
                r#"{{"op":"run","{field}":0,"mapping":"identity","warmup":100,"window":100}}"#
            ));
            assert!(err.contains(field), "error must name {field}: {err}");
        }
    }

    #[test]
    fn oversized_fields_are_rejected_not_wrapped() {
        // 2^32 + 2 used to wrap to `dims: 2` and hit the 2-D cache entry.
        let err = rejected_request(
            r#"{"op":"run","dims":4294967298,"mapping":"identity","warmup":100,"window":100}"#,
        );
        assert!(
            err.contains("dims") && err.contains("out of range"),
            "{err}"
        );
        assert!(parse_request(r#"{"op":"run","work":4294967296}"#).is_err());
    }

    #[test]
    fn cycle_budgets_are_error_events_not_hangs() {
        // `window` alone is a valid u64, but the run would never end;
        // with the default warmup it also overflows.
        for request in [
            r#"{"op":"run","mapping":"identity","window":18446744073709551615}"#,
            r#"{"op":"run","mapping":"identity","warmup":0,"window":10000001}"#,
            r#"{"op":"sweep","warmup":9000000,"window":2000000}"#,
        ] {
            let err = rejected_request(request);
            assert!(err.contains("window"), "error must name the field: {err}");
        }
        assert!(check_cycle_budget(u64::MAX, 1).is_err());
        assert!(check_cycle_budget(0, MAX_SERVE_CYCLES).is_ok());
    }

    #[test]
    fn oversized_request_lines_are_error_events() {
        // The line is read through its newline but not kept; the daemon
        // answers it once and serves the next request.
        let padding = "x".repeat(MAX_REQUEST_BYTES);
        let err = rejected_request(&format!(r#"{{"op":"stats","id":"{padding}"}}"#));
        assert!(err.contains("exceeds the limit"), "{err}");
        let err = rejected_request(&"y".repeat(3 * MAX_REQUEST_BYTES + 7));
        assert!(
            err.contains(&(3 * MAX_REQUEST_BYTES + 7).to_string()),
            "{err}"
        );
        // Invalid UTF-8 is an error event too, not a dropped connection.
        let cache = Mutex::new(ScenarioCache::new(4, 2));
        let mut output = Vec::new();
        let input = b"{\"op\":\"st\xffats\"}\n{\"op\":\"stats\"}\n";
        handle_stream(&input[..], &mut output, 1, &cache).unwrap();
        let text = String::from_utf8(output).unwrap();
        assert_eq!(text.matches("\"event\":\"error\"").count(), 1, "{text}");
        assert!(text.contains("\"event\":\"stats\""), "{text}");
    }

    #[test]
    fn bounded_lines_match_line_splitting() {
        let text = "a\r\n\nbc\n  \nlast";
        let mut reader = text.as_bytes();
        let mut line = Vec::new();
        let mut got = Vec::new();
        while let Some(length) = read_bounded_line(&mut reader, &mut line).unwrap() {
            assert_eq!(length, line.len());
            got.push(String::from_utf8(line.clone()).unwrap());
        }
        let expected: Vec<String> = text.split('\n').map(str::to_owned).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn oversized_machines_are_error_events_not_hangs() {
        // 1000^7 overflows the node count; 2^32 + 1 contexts fits `usize`
        // but would allocate billions of contexts per node.
        for (request, field) in [
            (r#"{"op":"run","dims":7,"radix":1000}"#, "dims"),
            (r#"{"op":"run","contexts":4294967297}"#, "contexts"),
        ] {
            let err = rejected_request(request);
            assert!(err.contains(field), "error must name {field}: {err}");
        }
    }
}
