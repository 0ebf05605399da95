//! DES-core benchmark: solver microbench and engine event throughput. A
//! full run rewrites the committed `BENCH_DES.json` at the repo root; a
//! quick run writes its report under the cargo target dir. Grid wall time
//! is the `grid` bench's job.
//!
//! Run with `cargo bench --bench des` (full) or
//! `cargo bench --bench des -- --quick` (smoke mode for CI: same
//! measurements, much smaller workloads). See BENCH.md for methodology and
//! the JSON schema.

use std::time::Instant;

use mps_core::des::{
    max_min_fair_rates_ref, ActivitySpec, Completion, Demand, Engine, SolverWorkspace,
};

/// 32-resource / 64-activity sharing problem: every activity touches three
/// resources (same shape as the `components` solver bench), which makes the
/// bottleneck iteration traverse realistic cross-resource coupling.
const SOLVER_RESOURCES: usize = 32;
const SOLVER_ACTIVITIES: usize = 64;

fn solver_problem() -> (Vec<f64>, Vec<Demand>) {
    let caps = vec![125.0e6; SOLVER_RESOURCES];
    let demands: Vec<Demand> = (0..SOLVER_ACTIVITIES)
        .map(|i| Demand {
            weights: vec![
                (i % SOLVER_RESOURCES, 1.0e6),
                ((i * 7 + 3) % SOLVER_RESOURCES, 2.0e6),
                ((i * 13 + 1) % SOLVER_RESOURCES, 0.5e6),
            ],
            bound: if i % 5 == 0 { 40.0 } else { f64::INFINITY },
        })
        .collect();
    (caps, demands)
}

fn bench_solver_ref(iters: usize) -> f64 {
    let (caps, demands) = solver_problem();
    // Warm-up.
    let r = reference_solve(&caps, &demands);
    std::hint::black_box(r);
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(reference_solve(&caps, &demands));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_solver_incremental(iters: usize) -> f64 {
    let (caps, demands) = solver_problem();
    let mut solve = incremental_solver();
    std::hint::black_box(solve(&caps, &demands));
    let t = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(solve(&caps, &demands));
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// The reference (from-scratch) solver.
fn reference_solve(caps: &[f64], demands: &[Demand]) -> f64 {
    let rates = solver_ref_entry(caps, demands);
    rates.iter().sum()
}

/// `max_min_fair_rates_ref` is the frozen copy of the pre-rework algorithm
/// (HashMaps of remaining capacities, per-iteration demand rebuilds); the
/// closure below reuses one `SolverWorkspace` across calls, which is
/// exactly how the engine drives it.
fn solver_ref_entry(caps: &[f64], demands: &[Demand]) -> Vec<f64> {
    max_min_fair_rates_ref(caps, demands).expect("solver failed")
}

fn incremental_solver() -> impl FnMut(&[f64], &[Demand]) -> f64 {
    let mut ws = SolverWorkspace::new();
    move |caps: &[f64], demands: &[Demand]| {
        let rates = ws.solve(caps, demands).expect("solver failed");
        rates.iter().sum::<f64>()
    }
}

/// Engine churn: 32 resources, 64 live activities; every completion is
/// immediately replaced, so the engine stays at a steady 64-activity load
/// while `target_events` completions stream through.
fn bench_engine_churn(target_events: usize) -> f64 {
    let mut e = Engine::new();
    let res: Vec<_> = (0..SOLVER_RESOURCES)
        .map(|_| e.add_resource(125.0e6))
        .collect();
    let start_one = |e: &mut Engine, i: usize| {
        let amount = 1.0e6 * (1.0 + (i % 17) as f64);
        e.start(
            ActivitySpec::new(amount)
                .on(res[i % SOLVER_RESOURCES], 1.0e4)
                .on(res[(i * 7 + 3) % SOLVER_RESOURCES], 2.0e4)
                .on(res[(i * 13 + 1) % SOLVER_RESOURCES], 0.5e4),
        )
        .expect("start");
    };
    for i in 0..SOLVER_ACTIVITIES {
        start_one(&mut e, i);
    }
    let mut next = SOLVER_ACTIVITIES;
    let mut events = 0usize;
    let t = Instant::now();
    while events < target_events {
        let step = e.step().expect("step").expect("not idle");
        for c in &step.completed {
            if matches!(c, Completion::Activity(_)) {
                events += 1;
                start_one(&mut e, next);
                next += 1;
            }
        }
    }
    events as f64 / t.elapsed().as_secs_f64()
}

/// Timer fast path: a storm of timers fires while 64 long-running
/// activities sit at unchanged rates — no start/finish perturbs the
/// sharing problem, so an incremental engine can skip the solve entirely.
fn bench_timer_path(timers: usize) -> f64 {
    let mut e = Engine::new();
    let res: Vec<_> = (0..SOLVER_RESOURCES)
        .map(|_| e.add_resource(125.0e6))
        .collect();
    for i in 0..SOLVER_ACTIVITIES {
        e.start(
            ActivitySpec::new(1.0e18)
                .on(res[i % SOLVER_RESOURCES], 1.0e4)
                .on(res[(i * 7 + 3) % SOLVER_RESOURCES], 2.0e4),
        )
        .expect("start");
    }
    for i in 0..timers {
        e.schedule_timer(1.0e-6 * (i + 1) as f64).expect("timer");
    }
    let mut fired = 0usize;
    let t = Instant::now();
    while fired < timers {
        let step = e.step().expect("step").expect("not idle");
        fired += step
            .completed
            .iter()
            .filter(|c| matches!(c, Completion::Timer(_)))
            .count();
    }
    fired as f64 / t.elapsed().as_secs_f64()
}

struct Report {
    mode: &'static str,
    solver_ref_ns: f64,
    solver_inc_ns: f64,
    churn_events: usize,
    churn_eps: f64,
    timer_events: usize,
    timer_eps: f64,
}

/// Pre-refactor numbers, captured on this container at the seed commit
/// with `cargo bench --bench des` (full mode, HashMap-keyed engine and
/// from-scratch solver). They anchor the before/after trajectory in
/// `BENCH_DES.json`; see BENCH.md.
const BASELINE_JSON: &str = r#"{
    "commit": "294e5cb",
    "solver_32r_64a": {"ref_ns_per_solve": 13905.5, "incremental_ns_per_solve": 13603.4, "speedup": 1.02},
    "engine_churn_32r_64a": {"events_per_sec": 38105},
    "timer_path_32r_64a": {"events_per_sec": 3703}
  }"#;

fn emit_json(r: &Report) {
    let speedup = r.solver_ref_ns / r.solver_inc_ns;
    let json = format!(
        r#"{{
  "schema": "mps-bench-des/v1",
  "mode": "{mode}",
  "solver_32r_64a": {{"ref_ns_per_solve": {sref:.1}, "incremental_ns_per_solve": {sinc:.1}, "speedup": {spd:.2}}},
  "engine_churn_32r_64a": {{"events": {cev}, "events_per_sec": {ceps:.0}}},
  "timer_path_32r_64a": {{"events": {tev}, "events_per_sec": {teps:.0}}},
  "baseline": {base}
}}
"#,
        mode = r.mode,
        sref = r.solver_ref_ns,
        sinc = r.solver_inc_ns,
        spd = speedup,
        cev = r.churn_events,
        ceps = r.churn_eps,
        tev = r.timer_events,
        teps = r.timer_eps,
        base = BASELINE_JSON,
    );
    let path = mps_bench::report_path(
        "BENCH_DES.json",
        r.mode == "full",
        env!("CARGO_TARGET_TMPDIR"),
    );
    std::fs::write(&path, &json).expect("write BENCH_DES.json");
    println!("{json}");
    println!("wrote {}", path.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `cargo test --benches` runs without `--bench`: smoke-run only.
    let smoke = !args.iter().any(|a| a == "--bench");
    let (solver_iters, churn_events, timer_events) = if smoke {
        (10, 200, 200)
    } else if quick {
        (2_000, 5_000, 5_000)
    } else {
        (20_000, 60_000, 60_000)
    };

    let solver_ref_ns = bench_solver_ref(solver_iters);
    println!("solver/ref/32r_64a: {solver_ref_ns:.1} ns/solve");
    let solver_inc_ns = bench_solver_incremental(solver_iters);
    println!(
        "solver/incremental/32r_64a: {solver_inc_ns:.1} ns/solve ({:.2}x)",
        solver_ref_ns / solver_inc_ns
    );

    let churn_eps = bench_engine_churn(churn_events);
    println!("engine/churn/32r_64a: {churn_eps:.0} events/s ({churn_events} events)");
    let timer_eps = bench_timer_path(timer_events);
    println!("engine/timers/32r_64a: {timer_eps:.0} events/s ({timer_events} timers)");

    if smoke {
        // Smoke numbers are not worth a report.
        println!("des bench: ok (smoke test, pass --bench to measure)");
        return;
    }

    emit_json(&Report {
        mode: if quick { "quick" } else { "full" },
        solver_ref_ns,
        solver_inc_ns,
        churn_events,
        churn_eps,
        timer_events,
        timer_eps,
    });
}
