//! Machine-level engine performance harness.
//!
//! Measures the full-system simulator's throughput in **simulated
//! network cycles per wall-clock second** under the active-node engine,
//! compares it against the retained exhaustive reference stepping mode
//! (`Machine::new_reference` — the golden model the equivalence tests and
//! `commloc fuzz --machine` check bit-for-bit), and writes the record to
//! `BENCH_machine.json` at the repository root.
//!
//! Scenario mix: dense conformance-figure workloads where the active set
//! stays full (the engine must not regress — every node really is busy
//! every boundary), and idle-heavy fault scenarios where the wins live:
//! retry-backoff gaps the engine fast-forwards, and a wedged machine
//! whose only future event is the watchdog trip horizon.
//!
//! Regression gate: if a committed `BENCH_machine.json` exists and the
//! environment sets `COMMLOC_PERF_ENFORCE=1`, the harness exits non-zero
//! when any scenario's cycles/sec drops more than 50% below the committed
//! figure (looser than the fabric bench's 20% — full-machine wall-clock
//! varies much more run to run, and the engine's failure modes all cost
//! well over 2x somewhere).
//!
//! Run with: `cargo bench --bench machine`

use commloc_mem::MemConfig;
use commloc_net::{FaultConfig, FaultPlan};
use commloc_sim::{Machine, Mapping, MigrationSpec, SimConfig};
use std::path::PathBuf;

struct Scenario {
    name: &'static str,
    config: SimConfig,
    mapping: Mapping,
    /// Migration policy spec, built fresh per engine (`None` = static
    /// machine without the resilience layer).
    migration: Option<MigrationSpec>,
    /// Network-cycle run bound; fault scenarios may trip the watchdog
    /// earlier (identically on both engines).
    cycles: u64,
}

struct Outcome {
    name: &'static str,
    cycles: u64,
    wall_secs: f64,
    cycles_per_sec: f64,
    completions: u64,
    fast_forwarded: u64,
    reference_cycles_per_sec: f64,
    speedup: f64,
}

fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            // Figure 3 regime: single-context dense traffic on the
            // paper's 8x8 machine; the active set stays essentially full,
            // so this gates the engine's bookkeeping overhead.
            name: "fig3_dense_identity_8x8",
            config: SimConfig::default(),
            mapping: Mapping::identity(64),
            migration: None,
            cycles: 30_000,
        },
        Scenario {
            // Figure 5 regime: multithreaded (2 contexts) with the random
            // mapping — the conformance suite's heaviest dense scenario.
            name: "fig5_dense_random_8x8",
            config: SimConfig {
                contexts: 2,
                ..SimConfig::default()
            },
            mapping: Mapping::random(64, 1992),
            migration: None,
            cycles: 30_000,
        },
        Scenario {
            // Heavy drops with long retry timeouts carve quiescent gaps
            // (all processors blocked until a retry deadline) that the
            // engine fast-forwards in O(1) per gap.
            name: "retry_backoff_gaps_4x4",
            config: SimConfig {
                dims: 2,
                radix: 4,
                mem: MemConfig {
                    timeout_cycles: 8_000,
                    max_retries: 30,
                    ..MemConfig::default()
                },
                watchdog_cycles: 60_000,
                fault_plan: Some(FaultPlan::new(23).with_config(FaultConfig {
                    drop_rate: 0.05,
                    ..FaultConfig::default()
                })),
                ..SimConfig::default()
            },
            mapping: Mapping::identity(16),
            migration: None,
            cycles: 120_000,
        },
        Scenario {
            // Unretried drops wedge every thread; once the machine is
            // fully quiescent the only future event is the watchdog trip,
            // a few hundred thousand cycles out — one fast-forward jump
            // for the active engine, a grind for the reference one.
            name: "wedged_watchdog_horizon_4x4",
            config: SimConfig {
                dims: 2,
                radix: 4,
                mem: MemConfig {
                    timeout_cycles: 0,
                    ..MemConfig::default()
                },
                watchdog_cycles: 300_000,
                fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                    drop_rate: 0.05,
                    ..FaultConfig::default()
                })),
                ..SimConfig::default()
            },
            mapping: Mapping::identity(16),
            migration: None,
            cycles: 400_000,
        },
        Scenario {
            // Resilience regime: unretried drops continuously wedge
            // threads while the work-stealing policy migrates them away
            // — gates the policy layer's boundary scan, park/adopt
            // machinery, and the extra fast-forward clamps it installs.
            name: "resilience_migration_4x4",
            config: SimConfig {
                dims: 2,
                radix: 4,
                mem: MemConfig {
                    timeout_cycles: 0,
                    ..MemConfig::default()
                },
                watchdog_cycles: 100_000,
                fault_plan: Some(FaultPlan::new(41).with_config(FaultConfig {
                    drop_rate: 0.05,
                    ..FaultConfig::default()
                })),
                ..SimConfig::default()
            },
            mapping: Mapping::identity(16),
            migration: Some(MigrationSpec {
                stealing: true,
                steal_latency: 300,
                wedge_threshold: 2_000,
                max_migrations: 10_000,
            }),
            cycles: 120_000,
        },
    ]
}

/// Runs one engine over the scenario; returns wall seconds plus the
/// observables the harness cross-checks between engines.
fn run_engine(s: &Scenario, reference: bool) -> (f64, u64, u64, u64) {
    let mut machine = match (reference, s.migration) {
        (true, Some(spec)) => {
            Machine::new_reference_with_policy(&s.config, &s.mapping, spec.build())
        }
        (true, None) => Machine::new_reference(&s.config, &s.mapping),
        (false, Some(spec)) => Machine::with_policy(&s.config, &s.mapping, spec.build()),
        (false, None) => Machine::new(&s.config, &s.mapping),
    };
    let start = std::time::Instant::now();
    // Watchdog trips are expected in the fault scenarios; the engines
    // must agree on the outcome either way (asserted by the caller via
    // net_cycle/completions — the full report equality lives in the
    // equivalence tests and fuzzer).
    let _ = machine.run_network_cycles(s.cycles);
    (
        start.elapsed().as_secs_f64(),
        machine.net_cycle(),
        machine.completions(),
        machine.fast_forwarded_cycles(),
    )
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn render_json(outcomes: &[Outcome]) -> String {
    let mut out = format!(
        "{{\n  \"bench\": \"machine\",\n  \"unit\": \"simulated_network_cycles_per_sec\",\n  \
         \"host_cores\": {},\n  \"scenarios\": [\n",
        commloc_bench::host_cores()
    );
    for (i, o) in outcomes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"cycles\": {}, \"wall_secs\": {:.3}, \
             \"cycles_per_sec\": {:.0}, \"completions\": {}, \"fast_forwarded_cycles\": {}, \
             \"reference_cycles_per_sec\": {:.0}, \"speedup_vs_reference\": {:.2}}}{}\n",
            o.name,
            o.cycles,
            o.wall_secs,
            o.cycles_per_sec,
            o.completions,
            o.fast_forwarded,
            o.reference_cycles_per_sec,
            o.speedup,
            if i + 1 < outcomes.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Pulls `"cycles_per_sec": <value>` for `name` out of a committed
/// baseline without a JSON dependency: scenario objects are one per line
/// in the format this harness writes.
fn baseline_cycles_per_sec(baseline: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\": \"{name}\"");
    let line = baseline.lines().find(|l| l.contains(&needle))?;
    let rest = line.split("\"cycles_per_sec\": ").nth(1)?;
    rest.split(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

fn main() {
    let root = repo_root();
    let baseline_path = root.join("BENCH_machine.json");
    let baseline = std::fs::read_to_string(&baseline_path).ok();

    let mut outcomes = Vec::new();
    println!("=== Machine engine throughput (simulated network cycles / second) ===\n");
    for scenario in scenarios() {
        let (secs, net_cycles, completions, fast_forwarded) = run_engine(&scenario, false);
        let (ref_secs, ref_net_cycles, ref_completions, _) = run_engine(&scenario, true);
        assert_eq!(
            net_cycles, ref_net_cycles,
            "{}: engines disagree on elapsed cycles",
            scenario.name
        );
        assert_eq!(
            completions, ref_completions,
            "{}: engines disagree on completed transactions",
            scenario.name
        );
        let cycles_per_sec = net_cycles as f64 / secs;
        let reference_cycles_per_sec = net_cycles as f64 / ref_secs;
        let speedup = cycles_per_sec / reference_cycles_per_sec;
        println!(
            "{:<28} {:>12.0} cyc/s  (reference {:>10.0} cyc/s, speedup {:>6.1}x, \
             {} completions, {} cycles fast-forwarded)",
            scenario.name,
            cycles_per_sec,
            reference_cycles_per_sec,
            speedup,
            completions,
            fast_forwarded
        );
        outcomes.push(Outcome {
            name: scenario.name,
            cycles: net_cycles,
            wall_secs: secs,
            cycles_per_sec,
            completions,
            fast_forwarded,
            reference_cycles_per_sec,
            speedup,
        });
    }

    let mut regressed = Vec::new();
    if let Some(baseline) = &baseline {
        println!();
        for o in &outcomes {
            let Some(committed) = baseline_cycles_per_sec(baseline, o.name) else {
                continue;
            };
            let ratio = o.cycles_per_sec / committed;
            println!(
                "vs committed baseline: {:<28} {:>6.2}x ({:.0} -> {:.0} cyc/s)",
                o.name, ratio, committed, o.cycles_per_sec
            );
            // Half the committed throughput, not the fabric bench's 20%:
            // full-machine runs on shared CI hosts vary up to ~45% run to
            // run (the dense scenarios are memory-system bound), while
            // every failure mode this gate exists for — fast-forward not
            // firing, worklist bookkeeping blowing up — costs well over
            // 2x on at least one scenario.
            if ratio < 0.5 {
                regressed.push(format!(
                    "{}: {:.0} cyc/s is {:.0}% below the committed {:.0} cyc/s",
                    o.name,
                    o.cycles_per_sec,
                    (1.0 - ratio) * 100.0,
                    committed
                ));
            }
        }
    }

    std::fs::write(&baseline_path, render_json(&outcomes)).expect("write BENCH_machine.json");
    println!("\nwrote {}", baseline_path.display());

    if !regressed.is_empty() {
        eprintln!("\nperformance regression (>50% below committed baseline):");
        for r in &regressed {
            eprintln!("  {r}");
        }
        if std::env::var("COMMLOC_PERF_ENFORCE").as_deref() == Ok("1") {
            std::process::exit(1);
        }
        eprintln!("  (set COMMLOC_PERF_ENFORCE=1 to fail the run)");
    }
}
