//! Benchmark child process: one workload repetition or one layer probe
//! per invocation, so no in-process result cache carries over between
//! repetitions. `perfbench/run.py` spawns it and reads its `READY`,
//! `SPANS` and `RESULT` lines.
//!
//! ```text
//! commloc-perfbench conformance --jobs J --golden-dir DIR [--trace] [--setup-only]
//! commloc-perfbench gain --seed S --jobs J [--trace] [--setup-only]
//! commloc-perfbench layers --requests FILE [--trace]
//! commloc-perfbench shard --seed S --jobs J [--trace]
//! commloc-perfbench model-err < POINTS
//! ```

mod conformance;
mod gain;
mod layers;
mod model;
mod replay;
mod span;

use span::Tracer;
use std::collections::HashMap;
use std::path::Path;

fn parse(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut options = HashMap::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
        if key == "trace" || key == "setup-only" {
            options.insert(key.to_owned(), String::new());
        } else {
            let value = iter
                .next()
                .ok_or_else(|| format!("--{key} needs a value"))?;
            options.insert(key.to_owned(), value.clone());
        }
    }
    Ok(options)
}

fn number(options: &HashMap<String, String>, key: &str) -> Result<u64, String> {
    options
        .get(key)
        .ok_or_else(|| format!("missing --{key}"))?
        .parse()
        .map_err(|e| format!("--{key}: {e}"))
}

fn run(args: &[String]) -> Result<String, String> {
    let (command, rest) = args.split_first().ok_or("missing subcommand")?;
    let options = parse(rest)?;
    let tracer = Tracer::new(options.contains_key("trace"));
    let setup_only = options.contains_key("setup-only");
    let jobs = || -> Result<usize, String> {
        let jobs = number(&options, "jobs")? as usize;
        commloc_sim::set_job_budget(jobs);
        Ok(jobs)
    };
    let result = match command.as_str() {
        "conformance" => {
            let dir = options.get("golden-dir").ok_or("missing --golden-dir")?;
            conformance::run(Path::new(dir), jobs()?, &tracer, setup_only)?
        }
        "gain" => gain::run(number(&options, "seed")?, jobs()?, &tracer, setup_only)?,
        "layers" => {
            let path = options.get("requests").ok_or("missing --requests")?;
            let requests =
                std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            layers::run(&requests, &tracer)?
        }
        "model-err" => {
            let mut text = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut text)
                .map_err(|e| format!("read stdin: {e}"))?;
            let err = model::rate_err_pct(&model::parse(&text)?)?;
            span::JsonObject::default()
                .num("model_rate_err_pct", err)
                .render()
        }
        "shard" => layers::shard(number(&options, "seed")?, jobs()?, &tracer)?,
        other => return Err(format!("unknown subcommand `{other}`")),
    };
    tracer.emit();
    Ok(result)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(result) => println!("RESULT {result}"),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(1);
        }
    }
}
