//! The `paper-grid` and `hazard-grid` workloads: the 324-cell paper
//! evaluation (54 DAGs × {analytic, profile, empirical} × {HCPA, MCPA},
//! 3 testbed repeats per cell) through `Harness::run_grid_with_workers`,
//! plain or under random faults plus timed disturbances with rescue
//! rescheduling.
//!
//! The traced run replays every cell on one thread through the public
//! calls of `sched`, `sim` and `testbed`, with a span around each call,
//! and reports layer self times only after the replay has reproduced
//! every batched cell bit for bit.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mps_core::dag::{paper_corpus, GeneratedDag, PAPER_CORPUS_SEED};
use mps_core::faults::{DisturbReport, DisturbancePlan, FaultPlan, RecoveryPolicy};
use mps_core::platform::{ClusterSpec, HostId};
use mps_core::sched::{AllocKey, AllocationEngine, Hcpa, Mcpa, Schedule, Scheduler};
use mps_core::sim::{DisturbSetup, ExecPolicy, ExecSlab, Simulator};
use mps_exp::{
    grid_health, CellOutcome, CellResult, DisturbConfig, GridHealth, Harness, SimVariant,
};

use crate::report::Outcome;
use crate::trace::{SpanId, Tracer};
use crate::util::{fnv64, grid_hash, median, nproc, peak_rss_mb, quantile, ScratchDir};
use crate::Args;

/// Testbed repeats per cell, as in the paper.
const REPEATS: u64 = 3;
/// Cells in one pass.
const CELLS: usize = 324;
/// Pinned paper-grid hash at seed 2011.
const PAPER_HASH_2011: u64 = 0xb0ec_1012_ae9a_fe8c;
/// Hazard-grid health at seed 2011: (disturbed cells, rescue re-plans,
/// task retries).
const HAZARD_2011: (usize, u64, u32) = (322, 372, 1176);

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Paper,
    Hazard,
}

/// Seed of the hazard grid's fault and disturbance plans. The plans stay
/// the same at every workload seed, which picks the testbed noise: plan
/// seeds differ by up to 2x in recovery work per pass, which would make
/// throughput incomparable across seeds.
const PLAN_SEED: u64 = 2011;

/// The workload's harness. The hazard grid raises the per-task retry
/// budget from 3 to 6 so that no cell exhausts it: the workload measures
/// the recovery paths, and every cell stays a measurement.
fn harness(kind: Kind, seed: u64) -> Harness {
    let h = Harness::new(seed);
    match kind {
        Kind::Paper => h,
        Kind::Hazard => h
            .with_fault_plan(FaultPlan::random(PLAN_SEED, 1.0, 32, 120.0))
            .with_exec_policy(ExecPolicy {
                max_retries: 6,
                ..ExecPolicy::default()
            })
            .with_disturbance(DisturbConfig::new(
                DisturbancePlan::with_intensity(PLAN_SEED, 1.0),
                RecoveryPolicy::Rescue,
            )),
    }
}

/// Set-up timings: corpus generation plus the harness build (profiling
/// plus the empirical fit). A set-up runs before every timed pass, so
/// the median samples the same machine as the passes do.
#[derive(Default)]
struct Setups {
    corpus_s: Vec<f64>,
    harness_s: Vec<f64>,
    total_s: Vec<f64>,
}

impl Setups {
    fn run(&mut self, kind: Kind, seed: u64) -> Harness {
        let t = Instant::now();
        let corpus = paper_corpus(PAPER_CORPUS_SEED);
        std::hint::black_box(&corpus);
        let c = t.elapsed().as_secs_f64();
        let h = harness(kind, seed);
        let all = t.elapsed().as_secs_f64();
        self.corpus_s.push(c);
        self.harness_s.push(all - c);
        self.total_s.push(all);
        h
    }

    fn record(&self, out: &mut Outcome) {
        out.set("setup_s", median(&self.total_s));
        out.set("dag.corpus_s", median(&self.corpus_s));
        out.set("exp.harness_build_s", median(&self.harness_s));
    }
}

/// Output checks on one batched pass against the first pass.
struct PassCheck {
    hash: u64,
    health: GridHealth,
}

impl PassCheck {
    fn first(kind: Kind, seed: u64, cells: &[CellResult], out: &mut Outcome) -> Self {
        let hash = grid_hash(cells);
        let health = grid_health(cells);
        out.check(cells.len() == CELLS, || {
            format!("grid pass returned {} cells, expected {CELLS}", cells.len())
        });
        if seed == 2011 {
            match kind {
                Kind::Paper => out.check(hash == PAPER_HASH_2011, || {
                    format!(
                        "paper-grid hash {hash:016x} at seed 2011, pinned {PAPER_HASH_2011:016x}"
                    )
                }),
                Kind::Hazard => {
                    let got = (health.disturbed, health.rescues, health.retries);
                    out.check(got == HAZARD_2011, || {
                        format!("hazard-grid (disturbed, rescues, retries) {got:?} at seed 2011, pinned {HAZARD_2011:?}")
                    });
                }
            }
        }
        out.note(format!("grid hash {hash:016x}, health {health:?}"));
        PassCheck { hash, health }
    }

    fn again(&self, pass: usize, cells: &[CellResult], out: &mut Outcome) -> GridHealth {
        let hash = grid_hash(cells);
        let health = grid_health(cells);
        out.check(hash == self.hash, || {
            format!(
                "pass {pass} hashed {hash:016x}, first pass {:016x}",
                self.hash
            )
        });
        out.check(health == self.health, || {
            format!(
                "pass {pass} health {health:?} differs from the first pass {:?}",
                self.health
            )
        });
        health
    }
}

/// Counts failed cells (no measurement) as failed operations.
fn tally(out: &mut Outcome, health: &GridHealth) {
    out.attempted += CELLS as u64;
    out.failed += (health.failed + health.quarantined) as u64;
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let h = setups.run(kind, args.seed);
    let workers = nproc();
    let cold = h.run_grid_with_workers(REPEATS, workers);
    let first = PassCheck::first(kind, args.seed, &cold, &mut out);
    tally(&mut out, &first.health);
    if args.trace {
        traced(kind, &h, &cold, &first, &mut setups, args, &mut out);
    } else {
        let mut pass_s = Vec::new();
        let start = Instant::now();
        while pass_s.len() < 5 || start.elapsed() < args.seconds {
            drop(setups.run(kind, args.seed));
            let t = Instant::now();
            let cells = h.run_grid_with_workers(REPEATS, workers);
            pass_s.push(t.elapsed().as_secs_f64());
            let health = first.again(pass_s.len(), &cells, &mut out);
            tally(&mut out, &health);
        }
        let rates: Vec<f64> = pass_s.iter().map(|s| CELLS as f64 / s).collect();
        out.note(format!(
            "{} warm passes on {workers} workers, pass p10/p25/p50/p75 {:.2}/{:.2}/{:.2}/{:.2} ms",
            pass_s.len(),
            quantile(&pass_s, 0.10) * 1e3,
            quantile(&pass_s, 0.25) * 1e3,
            median(&pass_s) * 1e3,
            quantile(&pass_s, 0.75) * 1e3,
        ));
        out.set("work_per_s", median(&rates));
        out.set("peak_rss_mb", peak_rss_mb());
    }
    setups.record(&mut out);
    out
}

/// The per-worker state the batched grid keeps warm, owned by the replay.
#[derive(Default)]
struct Slabs {
    engine: AllocationEngine,
    sim: ExecSlab,
    testbed: ExecSlab,
}

/// Replays one grid pass on this thread, a span around every call into a
/// layer, and returns the cells in canonical order.
fn replay_pass(h: &Harness, slabs: &mut Slabs, tracer: &RefCell<Tracer>) -> Vec<CellResult> {
    let corpus = h.corpus();
    let mut cells = Vec::with_capacity(CELLS);
    for g in corpus.iter() {
        let dag_key = fnv64(g.name().as_bytes());
        for (vi, variant) in SimVariant::ALL.into_iter().enumerate() {
            // HCPA and MCPA of one (DAG, model) share the engine's τ-table,
            // as they do in the batched grid.
            let key = AllocKey {
                dag: dag_key,
                model: vi as u64,
            };
            for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
                let id = cells.len() as u32;
                cells.push(replay_cell(h, g, variant, algo, key, slabs, tracer, id));
            }
        }
    }
    cells.sort_by(|a, b| {
        (a.dag.as_str(), a.variant.name(), a.algo.as_str()).cmp(&(
            b.dag.as_str(),
            b.variant.name(),
            b.algo.as_str(),
        ))
    });
    cells
}

#[allow(clippy::too_many_arguments)]
fn replay_cell(
    h: &Harness,
    g: &GeneratedDag,
    variant: SimVariant,
    algo: &dyn Scheduler,
    key: AllocKey,
    slabs: &mut Slabs,
    tracer: &RefCell<Tracer>,
    id: u32,
) -> CellResult {
    let begin = |name, parent: Option<SpanId>| tracer.borrow_mut().begin(name, parent, id);
    let end = |span| tracer.borrow_mut().end(span);
    let Slabs {
        engine,
        sim: sim_slab,
        testbed: testbed_slab,
    } = slabs;
    let model = h.model_of(variant);
    let nominal = h.nominal_cluster();
    let mut cell = CellResult {
        dag: g.name(),
        n: g.params.matrix_size,
        variant,
        algo: algo.name().to_string(),
        sim_makespan: 0.0,
        real_makespan: 0.0,
        real_runs: Vec::new(),
        outcome: CellOutcome::Full,
    };
    let cell_span = begin("exp.cell", None);

    let s = begin("sched.schedule", Some(cell_span));
    let schedule = algo.schedule_with_keyed_engine(&g.dag, nominal, model.as_ref(), engine, key);
    end(s);

    let s = begin("sim.simulate", Some(cell_span));
    let simulated = Simulator::new(nominal.clone(), model.as_ref())
        .simulate_with_slab(sim_slab, &g.dag, &schedule);
    end(s);
    match simulated {
        Ok(result) => cell.sim_makespan = result.makespan,
        Err(e) => {
            cell.outcome = CellOutcome::Failed {
                error: format!("simulation: {e}"),
            };
            end(cell_span);
            return cell;
        }
    }

    let (mut failed_runs, mut retries) = (0usize, 0u32);
    let mut first_error: Option<String> = None;
    let mut report = DisturbReport::default();
    for r in 0..REPEATS {
        let run_seed = g.seed.wrapping_add(r);
        let run = match &h.disturb {
            None => {
                let s = begin("testbed.execute", Some(cell_span));
                let run = h.testbed.execute_prevalidated_with_slab(
                    testbed_slab,
                    &g.dag,
                    &schedule,
                    run_seed,
                );
                end(s);
                run
            }
            Some(cfg) => {
                let s = begin("testbed.execute_disturbed", Some(cell_span));
                // The rescue re-planner of the batched grid: schedule the
                // whole DAG on an m-node sub-cluster with the cell's model,
                // then map host j back to survivor j.
                let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
                    let rs = begin("sched.rescue", Some(s));
                    let mut spec = ClusterSpec::bayreuth();
                    spec.nodes = survivors.len();
                    let planned = spec.build().ok().map(|sub| {
                        let mut plan =
                            algo.schedule_with_engine(&g.dag, &sub, model.as_ref(), engine);
                        for st in &mut plan.tasks {
                            for host in &mut st.hosts {
                                *host = survivors[host.index()];
                            }
                        }
                        plan
                    });
                    end(rs);
                    planned
                };
                let mut run_report = DisturbReport::default();
                let run = h.testbed.execute_disturbed_prevalidated_with_slab(
                    testbed_slab,
                    &g.dag,
                    &schedule,
                    run_seed,
                    h.fault_plan.as_ref(),
                    &h.policy,
                    DisturbSetup {
                        plan: &cfg.plan,
                        recovery: cfg.recovery,
                        rescue_overhead: cfg.rescue_overhead,
                        replan: Some(&mut replan),
                    },
                    &mut run_report,
                );
                end(s);
                report.absorb(&run_report);
                run
            }
        };
        match run {
            Ok(res) => {
                retries += res.total_retries();
                cell.real_runs.push(res.makespan);
            }
            Err(e) => {
                failed_runs += 1;
                first_error.get_or_insert_with(|| e.to_string());
            }
        }
    }
    end(cell_span);

    // The harness's outcome ladder: no runs → Failed; a disturbance fired
    // → Disturbed; lost runs or retries → Degraded; else Full.
    if cell.real_runs.is_empty() {
        cell.outcome = CellOutcome::Failed {
            error: first_error.unwrap_or_else(|| "no runs".into()),
        };
        return cell;
    }
    cell.real_makespan = cell.real_runs.iter().sum::<f64>() / cell.real_runs.len() as f64;
    if report.fired() > 0 || report.rescues > 0 {
        cell.outcome = CellOutcome::Disturbed {
            failed_runs,
            retries,
            report,
        };
    } else if failed_runs > 0 || retries > 0 {
        cell.outcome = CellOutcome::Degraded {
            failed_runs,
            retries,
        };
    }
    cell
}

/// Span names of the replay and the per-layer metrics they feed:
/// `(span, self-time metric, call-count metric)`.
const LAYER_SPANS: &[(&str, &str, &str)] = &[
    (
        "sched.schedule",
        "sched.schedule_us",
        "sched.schedule_calls",
    ),
    ("sched.rescue", "sched.rescue_us", "sched.rescue_calls"),
    ("sim.simulate", "sim.simulate_us", "sim.simulate_calls"),
    (
        "testbed.execute",
        "testbed.execute_us",
        "testbed.execute_calls",
    ),
    (
        "testbed.execute_disturbed",
        "testbed.execute_disturbed_us",
        "testbed.execute_disturbed_calls",
    ),
];

fn traced(
    kind: Kind,
    h: &Harness,
    batched: &[CellResult],
    first: &PassCheck,
    setups: &mut Setups,
    args: &Args,
    out: &mut Outcome,
) {
    let share = |f: f64| Duration::from_secs_f64(args.seconds.as_secs_f64() * f);

    // Traced replay passes, alternating with untraced single-worker
    // passes (the base of the tracing overhead) so both see the same
    // machine; every replay must reproduce the batched grid.
    let tracer = RefCell::new(Tracer::new());
    let mut slabs = Slabs::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut per_pass: BTreeMap<&str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut reproduced = usize::MAX;
    let mut replay_health = GridHealth::default();
    let t = Instant::now();
    while traced_s.len() < 3 || t.elapsed() < share(0.75) {
        drop(setups.run(kind, args.seed));
        let u = Instant::now();
        let cells = h.run_grid_with_workers(REPEATS, 1);
        untraced_s.push(u.elapsed().as_secs_f64());
        let health = first.again(untraced_s.len(), &cells, out);
        tally(out, &health);

        let mark = tracer.borrow().len();
        let p = Instant::now();
        let cells = replay_pass(h, &mut slabs, &tracer);
        traced_s.push(p.elapsed().as_secs_f64());
        let same = cells
            .iter()
            .zip(batched)
            .filter(|(a, b)| format!("{a:?}") == format!("{b:?}"))
            .count();
        reproduced = reproduced.min(same);
        replay_health = grid_health(&cells);
        tally(out, &replay_health);
        for (name, (self_ns, calls)) in tracer.borrow().self_times(mark) {
            per_pass
                .entry(name)
                .or_default()
                .push((self_ns as f64 / 1e3, calls as f64));
        }
    }
    out.check(reproduced == CELLS && batched.len() == CELLS, || {
        format!(
            "traced replay reproduced {reproduced}/{} batched cells",
            batched.len()
        )
    });
    out.set("bench.cells_reproduced", reproduced as f64);

    // Layer numbers only from a replay that matched the batched grid.
    if out.errors.is_empty() {
        for (span, us_metric, calls_metric) in LAYER_SPANS {
            let Some(values) = per_pass.get(span) else {
                continue;
            };
            let us: Vec<f64> = values.iter().map(|v| v.0).collect();
            let calls: Vec<f64> = values.iter().map(|v| v.1).collect();
            out.set(us_metric, median(&us));
            out.set(calls_metric, median(&calls));
        }
        let pass_us = median(&traced_s) * 1e6;
        let shares: Vec<String> = per_pass
            .iter()
            .map(|(name, v)| {
                let us = median(&v.iter().map(|x| x.0).collect::<Vec<_>>());
                format!("{name} {:.1}%", 100.0 * us / pass_us)
            })
            .collect();
        out.note(format!(
            "traced pass {:.2} ms over {} passes; self-time shares: {}",
            pass_us / 1e3,
            traced_s.len(),
            shares.join(", ")
        ));
        out.set("faults.retries", replay_health.retries as f64);
        out.set("faults.crashes", replay_health.crashes as f64);
        out.set("faults.rescued_tasks", replay_health.rescued_tasks as f64);
        out.set(
            "bench.trace_overhead",
            median(&traced_s) / median(&untraced_s),
        );
    }
    if kind == Kind::Hazard {
        out.note(format!("replay health {replay_health:?}"));
    }

    match ScratchDir::new("grid") {
        Ok(dir) => crate::layers::measure(out, h, args.seed, batched, dir.path(), share(0.25)),
        Err(e) => out.check(false, || format!("scratch directory: {e}")),
    }
    if let Some(path) = &args.spans {
        if let Err(e) = tracer.borrow().write_jsonl(path) {
            out.check(false, || {
                format!("writing spans to {}: {e}", path.display())
            });
        }
    }
}
