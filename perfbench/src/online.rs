//! The `online-stream` workload: `OnlineEngine::run` on one thread with
//! Poisson arrivals at 0.04 jobs/s, HCPA, jobs at most 8 hosts wide and a
//! 1M-event horizon, repeated as warm passes on one engine. The DES timer
//! heap, admission and the plan cache do the work; the L07 solver and the
//! testbed are never entered.
//!
//! The same stream is the `online.*` layer measurement of every traced
//! run ([`measure_layer`]), so the gated grid workloads report it too.

use std::time::{Duration, Instant};

use mps_core::dag::{paper_corpus, Dag, PAPER_CORPUS_SEED};
use mps_core::online::{ArrivalSpec, OnlineAlgo, OnlineConfig, OnlineEngine, OnlineOutcome};
use mps_exp::Harness;

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{median, peak_rss_mb, quantile, ScratchDir};
use crate::Args;

/// Pinned trace digest of the 1M-event run at seed 2011.
const DIGEST_2011: u64 = 0x0d91_dd50_ef35_2c1e;
const HORIZON: u64 = 1_000_000;

fn config(seed: u64) -> OnlineConfig {
    let mut cfg = OnlineConfig::new(ArrivalSpec::Poisson { rate: 0.04 }, OnlineAlgo::Hcpa);
    cfg.seed = seed;
    cfg.horizon_events = HORIZON;
    cfg.max_width = 8;
    cfg
}

fn corpus() -> Vec<Dag> {
    paper_corpus(PAPER_CORPUS_SEED)
        .into_iter()
        .map(|g| g.dag)
        .collect()
}

/// Checks the cold pass against the pinned digest at seed 2011.
fn check_first(out: &mut Outcome, seed: u64, first: &OnlineOutcome) {
    let d = first.run.trace_digest;
    out.check(seed != 2011 || d == DIGEST_2011, || {
        format!("online digest {d:016x} at seed 2011, pinned {DIGEST_2011:016x}")
    });
}

/// Checks a pass against the first one.
fn check_pass(out: &mut Outcome, first: &OnlineOutcome, o: &OnlineOutcome, pass: usize) {
    out.check(o.run == first.run, || {
        format!(
            "pass {pass} digest {:016x} differs from the first pass {:016x}",
            o.run.trace_digest, first.run.trace_digest
        )
    });
}

/// Tallies a pass's jobs: arrivals attempted, shed jobs failed.
fn tally(out: &mut Outcome, o: &OnlineOutcome) {
    out.attempted += o.run.arrivals;
    out.failed += o.run.shed;
}

/// The `online.*` layer metrics of a traced run, on any workload: a cold
/// pass on a fresh engine, whose `OnlineOutcome` gives the counts and the
/// plan cache, then warm passes for `slice`, whose median gives the time.
/// Every pass must equal the first.
pub fn measure_layer(out: &mut Outcome, seed: u64, slice: Duration) {
    let cfg = config(seed);
    let dags = corpus();
    let mut engine = OnlineEngine::new(&dags).expect("streaming engine");
    let first = engine.run(&cfg).expect("cold streaming run");
    check_first(out, seed, &first);
    let mut run_s = Vec::new();
    let t = Instant::now();
    while run_s.len() < 3 || t.elapsed() < slice {
        let p = Instant::now();
        let o = engine.run(&cfg).expect("warm streaming run");
        run_s.push(p.elapsed().as_secs_f64());
        check_pass(out, &first, &o, run_s.len());
    }
    let run_s = median(&run_s);
    let r = &first.run;
    out.set("online.run_s", run_s);
    out.set("online.events", r.events as f64);
    out.set("online.admitted", r.admitted as f64);
    out.set("online.jobs_per_s", r.completed as f64 / run_s);
    let entries = first.high_water.plan_cache_entries as f64;
    out.set("online.plan_cache_entries", entries);
    // One plan lookup per admitted job; each cache entry was a miss.
    out.set(
        "online.plan_hit_ratio",
        1.0 - entries / (r.admitted as f64).max(1.0),
    );
    out.set(
        "online.des_high_water",
        first.high_water.des_high_water as f64,
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let cfg = config(args.seed);

    // Set-up: corpus generation plus engine construction. One more runs
    // before every timed pass, so the median samples the same machine as
    // the passes do.
    let (mut corpus_s, mut total_s) = (Vec::new(), Vec::new());
    let mut setup = || {
        let t = Instant::now();
        let c = corpus();
        corpus_s.push(t.elapsed().as_secs_f64());
        std::hint::black_box(OnlineEngine::new(&c).expect("streaming engine"));
        total_s.push(t.elapsed().as_secs_f64());
    };
    setup();
    let dags = corpus();
    let mut engine = OnlineEngine::new(&dags).expect("streaming engine");

    let first = engine.run(&cfg).expect("cold streaming run");
    check_first(&mut out, args.seed, &first);
    tally(&mut out, &first);
    out.note(format!(
        "digest {:016x}, {} events, {} arrivals, {} shed, high water {:?}",
        first.run.trace_digest,
        first.run.events,
        first.run.arrivals,
        first.run.shed,
        first.high_water
    ));

    // Warm passes; in a traced run every other pass carries a span.
    let mut tracer = Tracer::new();
    let (mut plain_s, mut spanned_s) = (Vec::new(), Vec::new());
    let budget = if args.trace {
        args.seconds.mul_f64(0.75)
    } else {
        args.seconds
    };
    let start = Instant::now();
    while plain_s.len() < 3 || start.elapsed() < budget {
        setup();
        let spanned = args.trace && plain_s.len() > spanned_s.len();
        let span = spanned.then(|| tracer.begin("online.run", None, spanned_s.len() as u32));
        let t = Instant::now();
        let o = engine.run(&cfg).expect("warm streaming run");
        let s = t.elapsed().as_secs_f64();
        if let Some(span) = span {
            tracer.end(span);
            spanned_s.push(s);
        } else {
            plain_s.push(s);
        }
        check_pass(&mut out, &first, &o, plain_s.len() + spanned_s.len());
        tally(&mut out, &o);
    }
    out.set("setup_s", median(&total_s));
    out.set("dag.corpus_s", median(&corpus_s));
    let run_s = median(&plain_s);
    out.note(format!(
        "{} warm passes, pass p10/p25/p50/p75 {:.2}/{:.2}/{:.2}/{:.2} ms",
        plain_s.len(),
        quantile(&plain_s, 0.10) * 1e3,
        quantile(&plain_s, 0.25) * 1e3,
        run_s * 1e3,
        quantile(&plain_s, 0.75) * 1e3
    ));

    if args.trace {
        out.set("bench.trace_overhead", median(&spanned_s) / run_s);
        let h = Harness::new(args.seed);
        let cells = h.run_grid_with_workers(3, 1);
        match ScratchDir::new("online") {
            Ok(dir) => crate::layers::measure(
                &mut out,
                &h,
                args.seed,
                &cells,
                dir.path(),
                args.seconds
                    .saturating_sub(start.elapsed())
                    .max(Duration::from_secs(1)),
            ),
            Err(e) => out.check(false, || format!("scratch directory: {e}")),
        }
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write_jsonl(path) {
                out.check(false, || {
                    format!("writing spans to {}: {e}", path.display())
                });
            }
        }
    } else {
        out.set("work_per_s", first.run.events as f64 / run_s);
        out.set("peak_rss_mb", peak_rss_mb());
    }
    out
}
