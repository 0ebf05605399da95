//! The metric registry and the run's outcome: output checks, counts of
//! attempted and failed operations, and metric values.
//!
//! `BENCHMARK.json` names exactly the metrics of [`END_TO_END`] and
//! [`PER_LAYER`], which the gated workloads (`paper-grid`, `hazard-grid`)
//! report: an untraced run every end-to-end metric, a traced run every
//! per-layer metric, zero for a layer the workload never enters. The
//! ungated `serve-mixed` also reports the request metrics of
//! [`SERVE_ONLY`].

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("work_per_s", "items/s"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dag.corpus_s", "s"),
    ("exp.harness_build_s", "s"),
    ("sched.schedule_us", "us"),
    ("sched.schedule_calls", "count"),
    ("sched.rescue_us", "us"),
    ("sched.rescue_calls", "count"),
    ("sched.alloc_corpus_ms", "ms"),
    ("sim.simulate_us", "us"),
    ("sim.simulate_calls", "count"),
    ("testbed.execute_us", "us"),
    ("testbed.execute_calls", "count"),
    ("testbed.execute_disturbed_us", "us"),
    ("testbed.execute_disturbed_calls", "count"),
    ("faults.retries", "count"),
    ("faults.crashes", "count"),
    ("faults.rescued_tasks", "count"),
    ("des.solve_ns", "ns"),
    ("des.churn_events_per_s", "events/s"),
    ("des.timer_events_per_s", "events/s"),
    ("online.run_s", "s"),
    ("online.events", "count"),
    ("online.admitted", "count"),
    ("online.jobs_per_s", "jobs/s"),
    ("online.plan_cache_entries", "count"),
    ("online.plan_hit_ratio", "ratio"),
    ("online.des_high_water", "count"),
    ("journal.append_us", "us"),
    ("journal.sync_us", "us"),
    ("journal.recover_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.decode_us", "us"),
    ("bench.cells_reproduced", "count"),
    ("bench.trace_overhead", "ratio"),
];

/// `(name, unit)` of the request metrics only `serve-mixed` reports, in
/// traced and untraced runs alike.
pub const SERVE_ONLY: &[(&str, &str)] = &[
    ("serve.latency_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.schedule_p50_ms", "ms"),
    ("serve.simulate_p50_ms", "ms"),
    ("serve.replay_p50_ms", "ms"),
    ("serve.resumed_ratio", "ratio"),
    ("serve.shed", "count"),
    ("bench.lag_ms", "ms"),
];

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (grid cells, arrived jobs, or requests).
    pub attempted: u64,
    /// Operations that failed (failed cells, shed jobs, or failed
    /// requests).
    pub failed: u64,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
    /// Informational lines printed ahead of the result.
    pub notes: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    /// Sets a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .chain(SERVE_ONLY)
                .any(|(n, _)| *n == name),
            "metric {name} is not registered"
        );
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The metrics a run reports: every end-to-end metric untraced, every
    /// per-layer metric traced, layers the run never entered reading zero;
    /// then any `serve-mixed` request metric the run set.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let registry = if traced { PER_LAYER } else { END_TO_END };
        let serve = SERVE_ONLY
            .iter()
            .filter(|(name, _)| self.metrics.contains_key(name));
        registry
            .iter()
            .chain(serve)
            .map(|&(name, unit)| (name, self.metrics.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    }

    /// The one-line JSON result.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, value, unit)| {
                format!(
                    r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                    json_number(value)
                )
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.errors.is_empty(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` in its shortest round-trip form (JSON has no NaN).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the metrics the gated workloads
    /// report, with their units, and of the workloads the binary accepts
    /// only the two grids: `online-stream` and `serve-mixed` do not repeat
    /// closely enough to gate a change (see README.md).
    #[test]
    fn benchmark_json_matches_the_registry() {
        const GATED: [&str; 2] = ["paper-grid", "hazard-grid"];
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, _) in SERVE_ONLY {
            let entry = format!(r#"{{"name": "{name}""#);
            assert!(!json.contains(&entry), "BENCHMARK.json lists {entry}");
        }
        let listed = json.matches(r#""unit": "#).count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "unregistered metrics listed"
        );
        for w in crate::WORKLOADS {
            let listed = json.contains(&format!(r#"{{"name": "{w}""#));
            assert_eq!(listed, GATED.contains(w), "workload {w} listing");
        }
        assert_eq!(json.matches(r#""why": "#).count(), GATED.len());
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut out = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        out.set("setup_s", 0.5);
        let line = out.result_json(false);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"#));
        assert!(line.contains(r#""setup_s": {"value": 0.5, "unit": "s"}"#));
        assert_eq!(line.matches(r#""unit""#).count(), END_TO_END.len());
    }
}
