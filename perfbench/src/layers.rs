//! Single-layer measurements taken in traced runs, each timed from outside
//! around calls into one crate's public functions: the max-min fair
//! solver and the DES engine (`des`), the allocation engine over the
//! paper corpus (`sched`), the streaming engine (`online`), the campaign
//! journal (`journal`), and the daemon's frame codec (`serve`). Every
//! measurement is the median over repeated batches within its share of
//! the run.

use std::path::Path;
use std::time::{Duration, Instant};

use mps_core::dag::{Dag, TaskId};
use mps_core::des::{ActivitySpec, Completion, Demand, Engine, SolverWorkspace};
use mps_core::journal::{self, JournalHeader, JournalWriter, FORMAT_V1};
use mps_core::model::{AnalyticModel, PerfModel};
use mps_core::sched::{AllocationConfig, AllocationEngine, Cpa, Hcpa, Mcpa, Scheduler};
use mps_core::serve::{recv_msg, send_msg, ServerFrame};
use mps_exp::{CellResult, Harness};

use crate::report::Outcome;
use crate::util::median;

/// Runs `batch` until `slice` has elapsed (at least three times) and
/// returns the median of its results.
fn batches(slice: Duration, mut batch: impl FnMut() -> f64) -> f64 {
    let t = Instant::now();
    let mut values = Vec::new();
    while values.len() < 3 || t.elapsed() < slice {
        values.push(batch());
    }
    median(&values)
}

const RESOURCES: usize = 32;
const ACTIVITIES: usize = 64;

/// The 32-resource, 64-activity sharing problem of the DES benchmarks.
fn solver_problem() -> (Vec<f64>, Vec<Demand>) {
    let caps = vec![125.0e6; RESOURCES];
    let demands = (0..ACTIVITIES)
        .map(|i| Demand {
            weights: vec![
                (i % RESOURCES, 1.0e6),
                ((i * 7 + 3) % RESOURCES, 2.0e6),
                ((i * 13 + 1) % RESOURCES, 0.5e6),
            ],
            bound: if i % 5 == 0 { 40.0 } else { f64::INFINITY },
        })
        .collect();
    (caps, demands)
}

/// `des.solve_ns`: one `max_min_fair_rates` solve with a reused workspace.
fn des_solve_ns(slice: Duration) -> f64 {
    let (caps, demands) = solver_problem();
    let mut ws = SolverWorkspace::new();
    const SOLVES: usize = 2000;
    batches(slice, || {
        let t = Instant::now();
        for _ in 0..SOLVES {
            let rates = ws.solve(&caps, &demands).expect("solvable problem");
            std::hint::black_box(rates);
        }
        t.elapsed().as_nanos() as f64 / SOLVES as f64
    })
}

/// `des.churn_events_per_s`: activity completions per second while every
/// completion starts a replacement, so each step re-solves the sharing.
fn des_churn_events_per_s(slice: Duration) -> f64 {
    const EVENTS: usize = 20_000;
    batches(slice, || {
        let mut e = Engine::new();
        let res: Vec<_> = (0..RESOURCES).map(|_| e.add_resource(125.0e6)).collect();
        let start = |e: &mut Engine, i: usize| {
            let amount = 1.0e6 * (1.0 + (i % 17) as f64);
            e.start(
                ActivitySpec::new(amount)
                    .on(res[i % RESOURCES], 1.0e4)
                    .on(res[(i * 7 + 3) % RESOURCES], 2.0e4)
                    .on(res[(i * 13 + 1) % RESOURCES], 0.5e4),
            )
            .expect("start activity");
        };
        for i in 0..ACTIVITIES {
            start(&mut e, i);
        }
        let mut next = ACTIVITIES;
        let mut events = 0usize;
        let t = Instant::now();
        while events < EVENTS {
            let step = e.step().expect("step").expect("engine not idle");
            for c in &step.completed {
                if matches!(c, Completion::Activity(_)) {
                    events += 1;
                    start(&mut e, next);
                    next += 1;
                }
            }
        }
        events as f64 / t.elapsed().as_secs_f64()
    })
}

/// `des.timer_events_per_s`: timer firings per second with long-running
/// activities in the background, the online engine's event path.
fn des_timer_events_per_s(slice: Duration) -> f64 {
    const TIMERS: usize = 20_000;
    batches(slice, || {
        let mut e = Engine::new();
        let res: Vec<_> = (0..RESOURCES).map(|_| e.add_resource(125.0e6)).collect();
        for i in 0..ACTIVITIES {
            e.start(
                ActivitySpec::new(1.0e18)
                    .on(res[i % RESOURCES], 1.0e4)
                    .on(res[(i * 7 + 3) % RESOURCES], 2.0e4),
            )
            .expect("start activity");
        }
        for i in 0..TIMERS {
            e.schedule_timer(1.0e-6 * (i + 1) as f64).expect("timer");
        }
        let mut fired = 0usize;
        let t = Instant::now();
        while fired < TIMERS {
            let step = e.step().expect("step").expect("engine not idle");
            fired += step
                .completed
                .iter()
                .filter(|c| matches!(c, Completion::Timer(_)))
                .count();
        }
        fired as f64 / t.elapsed().as_secs_f64()
    })
}

/// `sched.alloc_corpus_ms`: the paper's allocation workload, 54 DAGs × 3
/// models × {CPA, HCPA, MCPA} = 486 `AllocationEngine::allocate` calls on
/// one warm engine.
fn sched_alloc_corpus_ms(h: &Harness, slice: Duration) -> (f64, usize) {
    let cluster = h.nominal_cluster();
    let configs: Vec<AllocationConfig> = [&Cpa as &dyn Scheduler, &Hcpa, &Mcpa]
        .iter()
        .map(|a| a.allocation_config(cluster))
        .collect();
    let analytic = AnalyticModel::paper_jvm();
    let models: [&dyn PerfModel; 3] = [&analytic, &h.profile_model, &h.empirical_model];
    let dags: Vec<Dag> = h.corpus().iter().map(|g| g.dag.clone()).collect();
    let mut engine = AllocationEngine::new();
    let mut calls = 0;
    let ms = batches(slice, || {
        calls = 0;
        let t = Instant::now();
        for dag in &dags {
            for model in models {
                let tau = |task: TaskId, p: usize| {
                    let kernel = dag.task(task).kernel;
                    model.task_time(kernel, p) + model.startup_overhead(p)
                };
                for config in &configs {
                    let a = engine.allocate(dag, cluster.node_count(), config, tau);
                    std::hint::black_box(a);
                    calls += 1;
                }
            }
        }
        t.elapsed().as_secs_f64() * 1e3
    });
    (ms, calls)
}

/// The grid's cells as journal records: `(key, payload)` with the payload
/// encoded exactly as the daemon journals and streams it.
fn cell_records(cells: &[CellResult], repeats: u64) -> Vec<(String, String)> {
    cells
        .iter()
        .map(|c| {
            (
                c.key(repeats),
                serde_json::to_string(c).expect("cell results serialize"),
            )
        })
        .collect()
}

/// `journal.append_us` (per record), `journal.sync_us` (per `fdatasync`)
/// and `journal.recover_us` (per full read-back) over a temp journal of
/// real encoded cells.
fn journal_us(records: &[(String, String)], dir: &Path, slice: Duration) -> (f64, f64, f64) {
    let path = dir.join("layer.jl");
    let header = JournalHeader {
        format: FORMAT_V1.to_string(),
        campaign: "perfbench".to_string(),
        seed: 0,
        repeats: 3,
        cells_expected: records.len() as u64,
        config_digest: String::new(),
        isolation: "inproc".to_string(),
        request: String::new(),
    };
    let (mut append, mut sync, mut recover) = (Vec::new(), Vec::new(), Vec::new());
    let t = Instant::now();
    while append.len() < 3 || t.elapsed() < slice {
        let mut w = JournalWriter::create_overwrite(&path, &header).expect("create journal");
        let a = Instant::now();
        for (key, payload) in records {
            w.append_record(key, payload).expect("append record");
        }
        append.push(a.elapsed().as_secs_f64() * 1e6 / records.len() as f64);
        let s = Instant::now();
        w.sync().expect("sync journal");
        sync.push(s.elapsed().as_secs_f64() * 1e6);
        drop(w);
        let r = Instant::now();
        let back = journal::recover(&path).expect("recover journal");
        recover.push(r.elapsed().as_secs_f64() * 1e6);
        assert_eq!(back.records.len(), records.len(), "journal lost records");
    }
    let _ = std::fs::remove_file(&path);
    (median(&append), median(&sync), median(&recover))
}

/// `serve.encode_us` / `serve.decode_us`: one `send_msg` / `recv_msg` of a
/// streamed cell frame, in memory. Returns false in the third slot if a
/// decoded frame differs from the one encoded.
fn codec_us(records: &[(String, String)], slice: Duration) -> (f64, f64, bool) {
    let frames: Vec<ServerFrame> = records
        .iter()
        .enumerate()
        .map(|(i, (key, payload))| ServerFrame::Cell {
            id: i as u64,
            key: key.clone(),
            payload: payload.clone(),
        })
        .collect();
    let mut wire = Vec::new();
    let mut round_trips = true;
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let t = Instant::now();
    while enc.len() < 3 || t.elapsed() < slice {
        wire.clear();
        let e = Instant::now();
        for f in &frames {
            send_msg(&mut wire, f).expect("encode frame");
        }
        enc.push(e.elapsed().as_secs_f64() * 1e6 / frames.len() as f64);
        let d = Instant::now();
        let mut r = wire.as_slice();
        let mut decoded = Vec::with_capacity(frames.len());
        while let Some(f) = recv_msg::<_, ServerFrame>(&mut r).expect("decode frame") {
            decoded.push(f);
        }
        dec.push(d.elapsed().as_secs_f64() * 1e6 / frames.len() as f64);
        round_trips &= decoded == frames;
    }
    (median(&enc), median(&dec), round_trips)
}

/// Runs every single-layer measurement within `budget` and records it.
pub fn measure(
    out: &mut Outcome,
    h: &Harness,
    seed: u64,
    cells: &[CellResult],
    dir: &Path,
    budget: Duration,
) {
    let slice = budget / 7;
    out.set("des.solve_ns", des_solve_ns(slice));
    out.set("des.churn_events_per_s", des_churn_events_per_s(slice));
    out.set("des.timer_events_per_s", des_timer_events_per_s(slice));
    let (ms, calls) = sched_alloc_corpus_ms(h, slice);
    out.check(calls == 486, || {
        format!("allocation corpus made {calls} calls, expected 486")
    });
    out.set("sched.alloc_corpus_ms", ms);
    crate::online::measure_layer(out, seed, slice);
    let records = cell_records(cells, 3);
    let (append, sync, recover) = journal_us(&records, dir, slice);
    out.set("journal.append_us", append);
    out.set("journal.sync_us", sync);
    out.set("journal.recover_us", recover);
    let (enc, dec, round_trips) = codec_us(&records, slice);
    out.check(round_trips, || {
        "a cell frame did not survive encode/decode".to_string()
    });
    out.set("serve.encode_us", enc);
    out.set("serve.decode_us", dec);
}
