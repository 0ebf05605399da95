//! Determinism regression for the streaming-workload sweep: the event
//! trace and every SLO number must be a pure function of (seed, arrival
//! spec, horizon, admission cap, width) — never of the memory-sampling
//! batch size or the worker count.
//!
//! `OnlineSweepReport::trace()` renders each run's `Debug` form, which
//! round-trips every f64 bit, so string equality here is bit equality of
//! the whole level × algorithm run matrix. This is the same string the
//! CI smoke job diffs across two daemon-less runs. The last test pins the
//! 1M-event stream's trace digest.

use mps_exp::{run_online_sweep, OnlineOpts};

fn opts() -> OnlineOpts {
    OnlineOpts {
        arrivals: vec!["0.02".to_string(), "mmpp@0.3:0.02:10:40".to_string()],
        horizon_events: 30_000,
        seed: 2011,
        admission_cap: 32,
        max_width: 8,
        batch: 256,
        workers: 1,
    }
}

#[test]
fn sweep_trace_is_invariant_to_batch_size_and_worker_count() {
    let reference = run_online_sweep(&opts(), |_| {}).expect("reference sweep");
    let reference_trace = reference.trace();
    assert!(
        reference_trace.contains("winner"),
        "trace misses verdicts: {reference_trace}"
    );

    for (batch, workers) in [(1, 1), (7, 3), (4096, 2)] {
        let mut o = opts();
        o.batch = batch;
        o.workers = workers;
        let report = run_online_sweep(&o, |_| {}).expect("variant sweep");
        assert_eq!(
            report.trace(),
            reference_trace,
            "trace diverged at batch={batch} workers={workers}"
        );
        assert_eq!(report.stable, reference.stable);
    }
}

#[test]
fn repeated_sweeps_share_every_trace_digest() {
    let a = run_online_sweep(&opts(), |_| {}).expect("first sweep");
    let b = run_online_sweep(&opts(), |_| {}).expect("second sweep");
    let digests = |r: &mps_exp::OnlineSweepReport| -> Vec<(u64, u64)> {
        r.levels
            .iter()
            .map(|l| (l.hcpa.run.trace_digest, l.mcpa.run.trace_digest))
            .collect()
    };
    assert_eq!(digests(&a), digests(&b));
    assert_eq!(a.trace(), b.trace());
}

#[test]
fn a_different_seed_changes_the_trace() {
    let a = run_online_sweep(&opts(), |_| {}).expect("seeded sweep");
    let mut o = opts();
    o.seed = 2012;
    let b = run_online_sweep(&o, |_| {}).expect("reseeded sweep");
    assert_ne!(
        a.trace(),
        b.trace(),
        "different seeds must draw different arrival streams"
    );
}

/// The pinned 1M-event stream: Poisson arrivals at 0.04 jobs/s, HCPA,
/// jobs at most 8 hosts wide, seed 2011 — the configuration perfbench's
/// `online-stream` workload checks against the same digest.
#[test]
fn the_online_stream_digest_is_pinned() {
    use mps_core::dag::{paper_corpus, Dag, PAPER_CORPUS_SEED};
    use mps_core::online::{ArrivalSpec, OnlineAlgo, OnlineConfig, OnlineEngine};
    let dags: Vec<Dag> = paper_corpus(PAPER_CORPUS_SEED)
        .into_iter()
        .map(|g| g.dag)
        .collect();
    let mut cfg = OnlineConfig::new(ArrivalSpec::Poisson { rate: 0.04 }, OnlineAlgo::Hcpa);
    cfg.seed = 2011;
    cfg.horizon_events = 1_000_000;
    cfg.max_width = 8;
    let outcome = OnlineEngine::new(&dags)
        .expect("engine")
        .run(&cfg)
        .expect("streaming run");
    assert_eq!(
        format!("{:016x}", outcome.run.trace_digest),
        "0d91dd50ef352c1e"
    );
}
