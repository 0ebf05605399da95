//! Scheduling benchmark: allocation microbench over the full paper
//! corpus. A full run rewrites the committed `BENCH_SCHED.json` at the
//! repo root; a quick run writes its report under the cargo target dir.
//! Grid wall time is the `grid` bench's job.
//!
//! One *pass* is the entire paper allocation workload: 54 corpus DAGs ×
//! 3 performance models (analytic, profile, empirical) × 3 algorithms
//! (CPA, HCPA, MCPA) = 486 allocations. The reference side runs the
//! frozen pre-rework `allocate_ref`; the engine side reuses a single
//! `AllocationEngine` (memoized τ-table, incremental bottom levels,
//! O(1) area accumulators) across every allocation, exactly as
//! `Scheduler::schedule` drives it. Before timing, every (DAG, model,
//! algorithm) combination is checked bit-identical between the two.
//!
//! Run with `cargo bench --bench sched` (full) or
//! `cargo bench --bench sched -- --quick` (smoke mode for CI: same
//! measurements, fewer passes). See BENCH.md for
//! methodology and the JSON schema.

use std::time::Instant;

use mps_core::dag::{Dag, TaskId};
use mps_core::model::{AnalyticModel, PerfModel};
use mps_core::sched::{
    allocate_ref, AllocationConfig, AllocationEngine, Cpa, Hcpa, Mcpa, Scheduler,
};
use mps_exp::Harness;

/// The corpus workload, fully materialized: every (DAG, model, algorithm)
/// cell as `(dag, config, model, kernel-agnostic τ inputs)`. τ closures are
/// rebuilt per call from `(dag, model)` so both sides pay the same closure
/// cost and only the allocation algorithm differs.
struct Workload {
    harness: Harness,
    cluster_size: usize,
    configs: [AllocationConfig; 3],
}

impl Workload {
    fn new() -> Self {
        let harness = Harness::new(2011);
        let cluster = harness.testbed.nominal_cluster();
        let algos: [&dyn Scheduler; 3] = [&Cpa, &Hcpa, &Mcpa];
        let configs = [
            algos[0].allocation_config(&cluster),
            algos[1].allocation_config(&cluster),
            algos[2].allocation_config(&cluster),
        ];
        Workload {
            harness,
            cluster_size: cluster.node_count(),
            configs,
        }
    }

    /// Run one full pass with `alloc`, returning the number of allocations
    /// performed and a checksum (sum of all allocated processor counts) so
    /// the optimizer cannot elide the work.
    fn pass<F>(&self, mut alloc: F) -> (usize, usize)
    where
        F: FnMut(&Dag, usize, &AllocationConfig, &dyn Fn(TaskId, usize) -> f64) -> Vec<usize>,
    {
        let analytic = AnalyticModel::paper_jvm();
        let models: [&dyn PerfModel; 3] = [
            &analytic,
            &self.harness.profile_model,
            &self.harness.empirical_model,
        ];
        let mut count = 0usize;
        let mut checksum = 0usize;
        for g in self.harness.corpus().iter() {
            for model in models {
                let tau = |t: TaskId, p: usize| {
                    let kernel = g.dag.task(t).kernel;
                    model.task_time(kernel, p) + model.startup_overhead(p)
                };
                for config in &self.configs {
                    let a = alloc(&g.dag, self.cluster_size, config, &tau);
                    checksum += a.iter().sum::<usize>();
                    count += 1;
                }
            }
        }
        (count, checksum)
    }

    /// Every corpus cell must be bit-identical between the reference and
    /// the engine before we bother timing either.
    fn verify_identical(&self) -> usize {
        let mut engine = AllocationEngine::new();
        let mut checked = 0usize;
        let analytic = AnalyticModel::paper_jvm();
        let models: [&dyn PerfModel; 3] = [
            &analytic,
            &self.harness.profile_model,
            &self.harness.empirical_model,
        ];
        for g in self.harness.corpus().iter() {
            for model in models {
                let tau = |t: TaskId, p: usize| {
                    let kernel = g.dag.task(t).kernel;
                    model.task_time(kernel, p) + model.startup_overhead(p)
                };
                for config in &self.configs {
                    let want = allocate_ref(&g.dag, self.cluster_size, config, tau);
                    let got = engine.allocate(&g.dag, self.cluster_size, config, tau);
                    assert_eq!(got, want, "allocation mismatch on {}", g.name());
                    checked += 1;
                }
            }
        }
        checked
    }
}

fn bench_ref(w: &Workload, passes: usize) -> (f64, usize) {
    let (count, c) = w.pass(|d, n, cfg, tau| allocate_ref(d, n, cfg, tau));
    std::hint::black_box(c);
    let t = Instant::now();
    let mut sink = 0usize;
    for _ in 0..passes {
        let (_, c) = w.pass(|d, n, cfg, tau| allocate_ref(d, n, cfg, tau));
        sink += c;
    }
    std::hint::black_box(sink);
    (t.elapsed().as_secs_f64() * 1e3 / passes as f64, count)
}

fn bench_engine(w: &Workload, passes: usize) -> (f64, usize) {
    let mut engine = AllocationEngine::new();
    let (count, c) = w.pass(|d, n, cfg, tau| engine.allocate(d, n, cfg, tau));
    std::hint::black_box(c);
    let t = Instant::now();
    let mut sink = 0usize;
    for _ in 0..passes {
        let (_, c) = w.pass(|d, n, cfg, tau| engine.allocate(d, n, cfg, tau));
        sink += c;
    }
    std::hint::black_box(sink);
    (t.elapsed().as_secs_f64() * 1e3 / passes as f64, count)
}

struct Report {
    mode: &'static str,
    allocs_per_pass: usize,
    ref_ms: f64,
    eng_ms: f64,
}

/// Pre-rework numbers, captured on this container at the pre-rework
/// commit. The pre-rework `allocate` is frozen verbatim as `allocate_ref`,
/// so its timing at the current commit *is* the honest "before" for the
/// allocation microbench. It anchors the before/after trajectory in
/// `BENCH_SCHED.json`; see BENCH.md.
const BASELINE_JSON: &str = r#"{
    "commit": "1c93098",
    "alloc_corpus": {"allocs_per_pass": 486, "ref_ms_per_pass": 55.102, "engine_ms_per_pass": 55.102, "speedup": 1.00}
  }"#;

fn emit_json(r: &Report) {
    let json = format!(
        r#"{{
  "schema": "mps-bench-sched/v1",
  "mode": "{mode}",
  "alloc_corpus": {{"allocs_per_pass": {apc}, "ref_ms_per_pass": {rms:.3}, "engine_ms_per_pass": {ems:.3}, "speedup": {spd:.2}}},
  "baseline": {base}
}}
"#,
        mode = r.mode,
        apc = r.allocs_per_pass,
        rms = r.ref_ms,
        ems = r.eng_ms,
        spd = r.ref_ms / r.eng_ms,
        base = BASELINE_JSON,
    );
    let path = mps_bench::report_path(
        "BENCH_SCHED.json",
        r.mode == "full",
        env!("CARGO_TARGET_TMPDIR"),
    );
    std::fs::write(&path, &json).expect("write BENCH_SCHED.json");
    println!("{json}");
    println!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `cargo test --benches` runs without `--bench`: smoke-run only.
    let smoke = !args.iter().any(|a| a == "--bench");
    let passes = if smoke {
        1
    } else if quick {
        3
    } else {
        20
    };

    let w = Workload::new();
    let checked = w.verify_identical();
    println!("identity/corpus: {checked} allocations bit-identical (ref vs engine)");

    let (ref_ms, allocs_per_pass) = bench_ref(&w, passes);
    println!("alloc/ref/corpus: {ref_ms:.3} ms/pass ({allocs_per_pass} allocations)");
    let (eng_ms, _) = bench_engine(&w, passes);
    println!(
        "alloc/engine/corpus: {eng_ms:.3} ms/pass ({:.2}x)",
        ref_ms / eng_ms
    );

    if smoke {
        // Smoke numbers are not worth a report.
        println!("sched bench: ok (smoke test, pass --bench to measure)");
        return;
    }

    emit_json(&Report {
        mode: if quick { "quick" } else { "full" },
        allocs_per_pass,
        ref_ms,
        eng_ms,
    });
}
