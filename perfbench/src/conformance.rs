//! The `conformance` workload: one reduced conformance session, every
//! figure gated against its golden table and its own paper claims.

use crate::span::{ready, status_kb, JsonObject, Tracer};
use commloc_sim::conformance::figures::{load_golden, self_check, ConformanceRun, FIGURES};
use commloc_sim::conformance::GoldenTable;
use std::path::Path;

/// Largest |model − sim| / sim transaction-rate error over the fig4 rows,
/// in percent.
fn model_rate_err_pct(fig4: &GoldenTable) -> f64 {
    fig4.rows
        .iter()
        .filter_map(|row| Some((row.value("sim_rate")?, row.value("model_rate")?)))
        .map(|(sim, model)| ((model - sim) / sim).abs() * 100.0)
        .fold(0.0, f64::max)
}

pub fn run(
    golden_dir: &Path,
    jobs: usize,
    tracer: &Tracer,
    setup_only: bool,
) -> Result<String, String> {
    // Set-up: every golden table loaded and the session created.
    let goldens: Vec<GoldenTable> = tracer.span("conformance", "load_goldens", || {
        FIGURES
            .iter()
            .map(|figure| load_golden(golden_dir, figure))
            .collect::<Result<_, _>>()
    })?;
    let mut session = ConformanceRun::new(jobs);
    ready(setup_only);

    let mut figures = Vec::new();
    let mut model_err = 0.0;
    for (name, golden) in FIGURES.iter().zip(&goldens) {
        let start = std::time::Instant::now();
        let outcome = tracer.span("conformance", name, || session.figure(name));
        let secs = start.elapsed().as_secs_f64();
        let (violations, error) = match outcome {
            Ok(table) => {
                let mut violations = tracer.span("conformance", "compare_against", || {
                    table.compare_against(golden)
                });
                violations.extend(tracer.span("conformance", "self_check", || self_check(&table)));
                for v in &violations {
                    eprintln!("{name}: {v}");
                }
                if *name == "fig4" {
                    model_err = model_rate_err_pct(&table);
                }
                (violations.len(), String::new())
            }
            Err(e) => (1, e),
        };
        figures.push(
            JsonObject::default()
                .text("name", name)
                .num("secs", secs)
                .int("violations", violations as u64)
                .text("error", &error)
                .render(),
        );
    }
    Ok(JsonObject::default()
        .raw("figures", &format!("[{}]", figures.join(",")))
        .num("model_rate_err_pct", model_err)
        .int("vmhwm_kb", status_kb("VmHWM:"))
        .render())
}
