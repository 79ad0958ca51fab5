//! Model-against-simulation error for workloads without a calibrated
//! model: the paper's machine description, solved at each measured
//! distance.

use commloc_model::MachineConfig;

/// One measured scenario: machine size, contexts, average distance and
/// the simulated per-node transaction rate.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub nodes: f64,
    pub contexts: u32,
    pub distance: f64,
    pub sim_rate: f64,
}

/// Largest |model − sim| / sim transaction-rate error, in percent.
///
/// # Errors
///
/// A model that cannot be built or solved at a measured point.
pub fn rate_err_pct(points: &[Measured]) -> Result<f64, String> {
    points.iter().try_fold(0.0f64, |worst, p| {
        let model = MachineConfig::alewife()
            .with_nodes(p.nodes)
            .with_contexts(p.contexts)
            .to_combined_model()
            .and_then(|m| m.solve(p.distance))
            .map_err(|e| format!("model at d = {}: {e}", p.distance))?;
        Ok(worst.max(((model.transaction_rate - p.sim_rate) / p.sim_rate).abs() * 100.0))
    })
}

/// Parses `nodes contexts distance sim_rate` lines.
pub fn parse(text: &str) -> Result<Vec<Measured>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let f: Vec<f64> = line
                .split_whitespace()
                .map(str::parse)
                .collect::<Result<_, _>>()
                .map_err(|e| format!("`{line}`: {e}"))?;
            let [nodes, contexts, distance, sim_rate] = f[..] else {
                return Err(format!("`{line}`: expected four numbers"));
            };
            Ok(Measured {
                nodes,
                contexts: contexts as u32,
                distance,
                sim_rate,
            })
        })
        .collect()
}
