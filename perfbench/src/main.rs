//! `mps-perfbench`: one benchmark for the repository's four user-facing
//! paths — the paper grid, the hazard grid, the online stream and the
//! serve daemon — with end-to-end metrics from untraced runs and a
//! per-layer split from traced runs. See `README.md` beside this crate.
//!
//! ```text
//! mps-perfbench --workload <paper-grid|hazard-grid|online-stream|serve-mixed>
//!               [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--spans FILE]
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. Exits 1 if
//! an output check fails, 2 on a usage error. Nothing is written outside
//! a per-run scratch directory unless `--out` or `--spans` names a file.

mod grid;
mod layers;
mod online;
mod report;
mod serve;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{json_number, json_str, Outcome};

pub const WORKLOADS: &[&str] = &["paper-grid", "hazard-grid", "online-stream", "serve-mixed"];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// Full report (provenance, checks, metrics) as JSON.
    pub out: Option<PathBuf>,
    /// Traced runs: every span as JSON lines.
    pub spans: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2011,
        seconds: Duration::from_secs(10),
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Duration::from_secs_f64(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "--spans" => args.spans = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Machine and run provenance, as a JSON object.
fn provenance(args: &Args) -> String {
    format!(
        r#"{{"workload": {}, "seed": {}, "seconds": {}, "trace": {}, "nproc": {}, "cpu": {}, "commit": {}}}"#,
        json_str(&args.workload),
        args.seed,
        json_number(args.seconds.as_secs_f64()),
        u8::from(args.trace),
        util::nproc(),
        json_str(&util::cpu_model()),
        json_str(&util::git_commit()),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mps-perfbench: {e}");
            eprintln!(
                "usage: mps-perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--spans FILE]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    let mut out: Outcome = match args.workload.as_str() {
        "paper-grid" => grid::run(grid::Kind::Paper, &args),
        "hazard-grid" => grid::run(grid::Kind::Hazard, &args),
        "online-stream" => online::run(&args),
        "serve-mixed" => serve::run(&args),
        _ => unreachable!("workload validated by parse_args"),
    };
    out.check(out.attempted >= 1, || {
        "the run attempted no operation".to_string()
    });
    let metrics = out.metrics(args.trace);
    for (name, value, _) in &metrics {
        out.check(value.is_finite(), || format!("metric {name} is not finite"));
    }

    let prov = provenance(&args);
    println!("# provenance {prov}");
    for note in &out.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    for e in out.errors.iter().take(10) {
        eprintln!("FAIL: {e}");
    }
    if out.errors.len() > 10 {
        eprintln!("FAIL: ... and {} more", out.errors.len() - 10);
    }
    let result = out.result_json(args.trace);
    if let Some(path) = &args.out {
        let checks: Vec<String> = out.errors.iter().map(|e| json_str(e)).collect();
        let report = format!(
            "{{\"schema\": \"mps-perfbench/v1\", \"provenance\": {prov}, \"errors\": [{}], \"result\": {result}}}\n",
            checks.join(", ")
        );
        if let Err(e) = std::fs::write(path, report) {
            eprintln!("mps-perfbench: writing {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{result}");
    if out.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
