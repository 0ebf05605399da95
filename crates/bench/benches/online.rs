//! Streaming-engine throughput benchmark: sustained DES events per
//! second of the online scheduling loop. A full run rewrites the
//! committed `BENCH_ONLINE.json` at the repo root; quick and smoke runs
//! write theirs under the cargo target dir.
//!
//! The measured unit is one *streaming run*: a seeded Poisson arrival
//! process drawing paper-corpus DAGs, admission control, moldable
//! allocation, and per-task completion ticks, driven to a fixed event
//! horizon on a single core (`OnlineEngine::run`). Warm passes reuse the
//! engine's slabs, plan cache, and prebuilt sub-clusters — exactly how
//! the sweep driver and the daemon hit it.
//!
//! Every pass carries the engine's own FNV-1a trace digest and must
//! match the cold pass — a perf number from a nondeterministic run would
//! be meaningless, so divergence aborts the bench. Full mode also runs
//! half the horizon and asserts the DES high-water mark does not grow
//! with the horizon: memory must plateau, or "bounded memory" is a lie.
//!
//! Run with `cargo bench --bench online` (full: 1M-event horizon) or
//! `cargo bench --bench online -- --quick` (CI smoke). In quick mode,
//! `--check-against BENCH_ONLINE.json` (relative paths resolve against
//! the repo root) turns the run into a regression guard: the job fails
//! if the fresh quick wall time exceeds 2x the committed `quick_ref`
//! wall time. See BENCH.md.

use std::time::Instant;

use mps_core::dag::Dag;
use mps_core::online::{ArrivalSpec, OnlineAlgo, OnlineConfig, OnlineEngine, OnlineOutcome};
use mps_core::prelude::{paper_corpus, PAPER_CORPUS_SEED};

#[derive(Clone)]
struct OnlineFigures {
    arrival: String,
    horizon_events: u64,
    events: u64,
    completed: u64,
    passes: usize,
    cold_wall_s: f64,
    warm_wall_s: f64,
    events_per_s: f64,
    jobs_per_s: f64,
    p99_ms: f64,
    des_high_water: usize,
    job_slots: usize,
    digest: u64,
}

/// Cold pass plus `passes` warm passes at the same config; every pass
/// must produce the identical trace digest.
fn bench_online(engine: &mut OnlineEngine<'_>, cfg: &OnlineConfig, passes: usize) -> OnlineFigures {
    let t = Instant::now();
    let cold = engine.run(cfg).expect("cold streaming run");
    let cold_wall_s = t.elapsed().as_secs_f64();

    let mut warm_total = 0.0;
    let mut last: OnlineOutcome = cold.clone();
    for pass in 0..passes {
        let t = Instant::now();
        let warm = engine.run(cfg).expect("warm streaming run");
        warm_total += t.elapsed().as_secs_f64();
        assert_eq!(
            warm.run.trace_digest, cold.run.trace_digest,
            "warm pass {pass} diverged from the cold run"
        );
        last = warm;
    }
    let warm_wall_s = warm_total / passes as f64;
    OnlineFigures {
        arrival: cold.run.arrival.clone(),
        horizon_events: cfg.horizon_events,
        events: cold.run.events,
        completed: cold.run.completed,
        passes,
        cold_wall_s,
        warm_wall_s,
        events_per_s: cold.run.events as f64 / warm_wall_s,
        jobs_per_s: cold.run.completed as f64 / warm_wall_s,
        p99_ms: cold.run.latency_p99_ms,
        des_high_water: last.high_water.des_high_water,
        job_slots: last.high_water.job_slots,
        digest: cold.run.trace_digest,
    }
}

fn config(horizon: u64) -> OnlineConfig {
    // The "busy" load level of the repro sweep: ~60% cluster utilization,
    // no steady-state shedding, so the loop exercises claim/release and
    // completion ticks rather than the admission fast-reject path.
    let mut cfg = OnlineConfig::new(ArrivalSpec::Poisson { rate: 0.04 }, OnlineAlgo::Hcpa);
    cfg.seed = 2011;
    cfg.horizon_events = horizon;
    cfg.max_width = 8;
    cfg
}

fn render_online(f: &OnlineFigures) -> String {
    format!(
        r#"{{"arrival": "{}", "horizon_events": {}, "events": {}, "completed": {}, "passes": {}, "cold_wall_s": {:.4}, "warm_wall_s": {:.4}, "events_per_s": {:.0}, "jobs_per_s": {:.0}, "p99_ms": {:.3}, "des_high_water": {}, "job_slots": {}, "digest": "{:016x}"}}"#,
        f.arrival,
        f.horizon_events,
        f.events,
        f.completed,
        f.passes,
        f.cold_wall_s,
        f.warm_wall_s,
        f.events_per_s,
        f.jobs_per_s,
        f.p99_ms,
        f.des_high_water,
        f.job_slots,
        f.digest,
    )
}

fn emit_json(mode: &str, online: &OnlineFigures, quick_ref: &OnlineFigures, plateau: &str) {
    let json = format!(
        r#"{{
  "schema": "mps-bench-online/v1",
  "mode": "{mode}",
  "online": {},
  "plateau": {plateau},
  "quick_ref": {}
}}
"#,
        render_online(online),
        render_online(quick_ref),
    );
    let path = mps_bench::report_path(
        "BENCH_ONLINE.json",
        mode == "full",
        env!("CARGO_TARGET_TMPDIR"),
    );
    std::fs::write(&path, &json).expect("write BENCH_ONLINE.json");
    println!("{json}");
    println!("wrote {}", path.display());
}

/// Minimal field extraction for the regression guard: the first
/// `"warm_wall_s": <num>` after the `"quick_ref"` key of a committed
/// `BENCH_ONLINE.json`. Hand-rolled so the bench stays dependency-free.
fn committed_quick_wall(json: &str) -> Option<f64> {
    let tail = &json[json.find("\"quick_ref\"")?..];
    let tail = &tail[tail.find("\"warm_wall_s\":")? + "\"warm_wall_s\":".len()..];
    let end = tail.find([',', '}'])?;
    tail[..end].trim().parse().ok()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `cargo test --benches` runs without `--bench`: smoke-run only.
    let smoke = !args.iter().any(|a| a == "--bench");
    let check_against = args.iter().position(|a| a == "--check-against").map(|i| {
        args.get(i + 1)
            .expect("--check-against needs a path")
            .clone()
    });

    const QUICK: (u64, usize) = (150_000, 2); // horizon, passes
    let (mode, horizon, passes) = if smoke {
        ("smoke", 30_000, 1)
    } else if quick {
        ("quick", QUICK.0, QUICK.1)
    } else {
        ("full", 1_000_000, 3)
    };

    let t = Instant::now();
    let corpus: Vec<Dag> = paper_corpus(PAPER_CORPUS_SEED)
        .into_iter()
        .map(|g| g.dag)
        .collect();
    let mut engine = OnlineEngine::new(&corpus).expect("streaming engine");
    println!("corpus + engine build: {:.4} s", t.elapsed().as_secs_f64());

    let online = bench_online(&mut engine, &config(horizon), passes);
    println!(
        "online/{mode}: {} events, cold {:.4} s, warm {:.4} s/pass ({} passes, {:.0} events/s, {:.0} jobs/s, digest {:016x})",
        online.events,
        online.cold_wall_s,
        online.warm_wall_s,
        online.passes,
        online.events_per_s,
        online.jobs_per_s,
        online.digest,
    );

    // Memory plateau: the DES high-water mark at half the horizon must
    // already be the steady-state mark — growth with the horizon would
    // mean per-event leakage, and the bounded-memory claim dies here.
    let plateau = if mode == "full" {
        let half = bench_online(&mut engine, &config(horizon / 2), 1);
        println!(
            "plateau: des high water {} @ {}ev vs {} @ {}ev, job slots {} vs {}",
            half.des_high_water,
            half.events,
            online.des_high_water,
            online.events,
            half.job_slots,
            online.job_slots,
        );
        assert!(
            online.des_high_water <= half.des_high_water.max(64),
            "DES high water grew with the horizon: {} @ half vs {} @ full",
            half.des_high_water,
            online.des_high_water,
        );
        format!(
            r#"{{"half_horizon_high_water": {}, "full_horizon_high_water": {}, "plateaued": true}}"#,
            half.des_high_water, online.des_high_water
        )
    } else {
        "null".to_string()
    };

    // Full mode also measures the quick configuration so the committed
    // JSON carries the reference number CI guards against; quick and
    // smoke runs *are* that configuration (close enough for an artifact).
    let quick_ref = if mode == "full" {
        let q = bench_online(&mut engine, &config(QUICK.0), QUICK.1);
        println!(
            "online/quick_ref: {} events, warm {:.4} s/pass",
            q.events, q.warm_wall_s
        );
        q
    } else {
        online.clone()
    };

    emit_json(mode, &online, &quick_ref, &plateau);

    if let Some(path) = check_against {
        let committed = std::fs::read_to_string(mps_bench::repo_path(&path))
            .unwrap_or_else(|e| panic!("read committed baseline {path}: {e}"));
        let reference = committed_quick_wall(&committed)
            .unwrap_or_else(|| panic!("no quick_ref.warm_wall_s in {path}"));
        let budget = reference * 2.0;
        println!(
            "regression guard: quick wall {:.4} s vs committed {reference:.4} s (budget {budget:.4} s)",
            online.warm_wall_s
        );
        if online.warm_wall_s > budget {
            eprintln!(
                "FAIL: quick online wall {:.4} s exceeds 2x the committed reference {reference:.4} s",
                online.warm_wall_s
            );
            std::process::exit(1);
        }
    }
}
