//! The `serve-mixed` workload: an in-process `mps-serve` daemon over the
//! durable backend (`ServeBackend::with_state_dir`) on a Unix socket in a
//! fresh per-run scratch directory, driven over one connection by an
//! open-loop generator with a seeded mix of requests:
//!
//! * `Schedule` (light compute) — 40 %;
//! * `Simulate`, one full cell with 3 testbed repeats — 45 %;
//! * `SubsetGrid` over the first DAG (6 cells), journaled — 15 %. Half are
//!   fresh and are computed and written; the other half resubmit an
//!   earlier fresh request and are replayed from its journal, and must
//!   stream bytes identical to the first submission.
//!
//! Latency is timed from the moment each request was due to be sent, so a
//! stall also charges the requests queued behind it.

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mps_core::dag::{paper_corpus, PAPER_CORPUS_SEED};
use mps_core::online::SplitMix;
use mps_core::serve::{
    recv_msg, send_msg, ClientFrame, ServeError, Server, ServerConfig, ServerExit, ServerFrame,
    WorkRequest, WorkSummary, PROTO_VERSION,
};
use mps_exp::{Harness, ServeBackend};

use crate::report::Outcome;
use crate::trace::Tracer;
use crate::util::{fnv64, fnv_fold, median, peak_rss_mb, quantile, ScratchDir};
use crate::Args;

/// Offered load, requests per second: about a third of the capacity this
/// mix measured (1800–2300 req/s on a 2-vCPU Xeon VM, see README.md), so
/// the daemon keeps up even while the machine runs slow.
const RATE_PER_S: f64 = 600.0;
/// Set-ups (daemon start through `HelloAck`) timed per run.
const SETUP_REPS: usize = 21;
/// Largest tolerated generator lateness (p99) before the run is invalid.
const MAX_LAG_MS: f64 = 25.0;
/// Corpus DAGs the requests draw from.
const DAGS: u64 = 54;
const VARIANTS: [&str; 3] = ["analytic", "profile", "empirical"];
const ALGOS: [&str; 2] = ["HCPA", "MCPA"];

#[derive(Clone, Copy, PartialEq, Debug)]
enum Kind {
    Schedule,
    Simulate,
    FreshGrid,
    Resubmit(usize),
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Schedule => "schedule",
            Kind::Simulate => "simulate",
            Kind::FreshGrid => "fresh grid",
            Kind::Resubmit(_) => "resubmitted grid",
        }
    }
}

struct Request {
    /// Offset from the start of the open loop at which it is due.
    due: Duration,
    kind: Kind,
    work: WorkRequest,
}

/// The seeded open-loop schedule: Poisson arrivals at `rate` over
/// `seconds`, with the request mix of the module docs.
fn plan(seed: u64, rate: f64, seconds: f64) -> Vec<Request> {
    let mut rng = SplitMix::new(seed ^ 0x5E_4E_3E_2E);
    let mut t = 0.0;
    let mut reqs: Vec<Request> = Vec::new();
    let mut fresh: Vec<(usize, f64)> = Vec::new();
    let mut grids = 0usize;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            break;
        }
        let pick = rng.unit();
        let dag = (rng.next_u64() % DAGS) as usize;
        let variant = VARIANTS[(rng.next_u64() % 3) as usize].to_string();
        let algo = ALGOS[(rng.next_u64() % 2) as usize].to_string();
        let (kind, work) = if pick < 0.4 {
            (Kind::Schedule, WorkRequest::Schedule { dag, variant, algo })
        } else if pick < 0.85 {
            let work = WorkRequest::Simulate {
                dag,
                variant,
                algo,
                repeats: 3,
                disturb: None,
            };
            (Kind::Simulate, work)
        } else {
            grids += 1;
            // A resubmission names a fresh request due at least a second
            // earlier, so its first run has normally finished.
            let eligible = fresh.partition_point(|&(_, due)| due <= t - 1.0);
            if grids.is_multiple_of(2) && eligible > 0 {
                let (orig, _) = fresh[(rng.next_u64() % eligible as u64) as usize];
                (Kind::Resubmit(orig), reqs[orig].work.clone())
            } else {
                fresh.push((reqs.len(), t));
                // An empty disturbance plan that only names a seed: the
                // cells are computed undisturbed, while the distinct
                // request text gives every fresh request its own journal.
                let work = WorkRequest::SubsetGrid {
                    take: 1,
                    repeats: 3,
                    disturb: Some(format!("seed={}", fresh.len())),
                };
                (Kind::FreshGrid, work)
            }
        };
        reqs.push(Request {
            due: Duration::from_secs_f64(t),
            kind,
            work,
        });
    }
    reqs
}

/// A running daemon and a handshaken connection to it.
struct Daemon {
    handle: JoinHandle<Result<ServerExit, ServeError>>,
    stream: UnixStream,
}

/// Starts a daemon with its state and socket under `dir` and connects to
/// it. This is the set-up a user pays: corpus, harness (profiling plus
/// the empirical fit), backend, and daemon start through `HelloAck`.
fn start(seed: u64, dir: &Path) -> Result<Daemon, String> {
    std::hint::black_box(paper_corpus(PAPER_CORPUS_SEED));
    let backend = ServeBackend::new(Harness::new(seed)).with_state_dir(dir.join("state"));
    let cfg = ServerConfig {
        server: "perfbench".to_string(),
        queue_capacity: 256,
        read_timeout: None,
        ..ServerConfig::default()
    };
    let server = Server::new(Arc::new(backend), cfg);
    let socket: PathBuf = dir.join("d.sock");
    let bind = socket.clone();
    let handle = std::thread::spawn(move || server.run_unix(&bind));
    // Connect as soon as the socket exists: the daemon's accept loop
    // sleeps 5 ms whenever it finds no pending connection, and a client
    // that arrives during that sleep would time the poll, not the start.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut stream = loop {
        match UnixStream::connect(&socket) {
            Ok(s) => break s,
            Err(e) if Instant::now() >= deadline => return Err(format!("connect: {e}")),
            Err(_) => std::thread::yield_now(),
        }
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("socket timeout: {e}"))?;
    send_msg(
        &mut stream,
        &ClientFrame::Hello {
            proto: PROTO_VERSION.to_string(),
            client: "perfbench".to_string(),
        },
    )
    .map_err(|e| format!("hello: {e}"))?;
    match recv_msg::<_, ServerFrame>(&mut stream) {
        Ok(Some(ServerFrame::HelloAck { .. })) => Ok(Daemon { handle, stream }),
        other => Err(format!("handshake: {other:?}")),
    }
}

/// Drains the daemon and waits for it to exit. Returns the exit and
/// whether the `DrainStarted` acknowledgement arrived: the daemon starts
/// its shutdown before it writes the acknowledgement, so the connection
/// can close first.
fn stop(mut d: Daemon) -> Result<(ServerExit, bool), String> {
    send_msg(&mut d.stream, &ClientFrame::Drain { id: u64::MAX }).map_err(|e| e.to_string())?;
    let acked = loop {
        match recv_msg::<_, ServerFrame>(&mut d.stream) {
            Ok(Some(ServerFrame::DrainStarted { .. })) => break true,
            Ok(Some(_)) => continue,
            Ok(None) | Err(_) => break false,
        }
    };
    let exit = d
        .handle
        .join()
        .map_err(|_| "daemon thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    Ok((exit, acked))
}

/// What the client saw of one request.
#[derive(Default, Clone)]
struct Seen {
    done_at: Option<Instant>,
    ok: bool,
    shed: bool,
    /// FNV-1a over every streamed `(key, payload)`, in order.
    stream_hash: u64,
    cells: u64,
    summary: Option<WorkSummary>,
}

struct LoopResult {
    seen: Vec<Seen>,
    lag_ms: Vec<f64>,
    start: Instant,
}

/// Runs the open loop: a generator thread sends each request when due on
/// the write half, this thread reads every reply frame.
fn open_loop(stream: &UnixStream, reqs: &[Request]) -> Result<LoopResult, String> {
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let done: Vec<AtomicBool> = reqs.iter().map(|_| AtomicBool::new(false)).collect();
    let mut seen = vec![Seen::default(); reqs.len()];
    for s in &mut seen {
        s.stream_hash = fnv64(&[]);
    }
    let start = Instant::now();
    std::thread::scope(|scope| {
        let generator = scope.spawn(|| -> Result<Vec<f64>, String> {
            let mut lag_ms = Vec::with_capacity(reqs.len());
            for (id, r) in reqs.iter().enumerate() {
                let due = start + r.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                if let Kind::Resubmit(orig) = r.kind {
                    // A resubmission must not race its original's journal.
                    while !done[orig].load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
                let frame = ClientFrame::Submit {
                    id: id as u64,
                    work: r.work.clone(),
                    deadline_ms: None,
                };
                send_msg(&mut writer, &frame).map_err(|e| format!("submit {id}: {e}"))?;
            }
            Ok(lag_ms)
        });
        let mut outstanding = reqs.len();
        let mut failure = None;
        while outstanding > 0 {
            let frame = match recv_msg::<_, ServerFrame>(&mut reader) {
                Ok(Some(f)) => f,
                other => {
                    failure = Some(format!("reading replies: {other:?}"));
                    break;
                }
            };
            let now = Instant::now();
            let id = match &frame {
                ServerFrame::Accepted { id }
                | ServerFrame::Cell { id, .. }
                | ServerFrame::Done { id, .. }
                | ServerFrame::Overloaded { id, .. }
                | ServerFrame::Failed { id, .. }
                | ServerFrame::Draining { id } => *id as usize,
                other => {
                    failure = Some(format!("unexpected frame {other:?}"));
                    break;
                }
            };
            let Some(s) = seen.get_mut(id).filter(|s| s.done_at.is_none()) else {
                failure = Some(format!("reply for unknown or finished request {id}"));
                break;
            };
            match frame {
                ServerFrame::Cell { key, payload, .. } => {
                    // Key and payload, each closed by a separator byte.
                    let h = fnv_fold(fnv_fold(s.stream_hash, key.as_bytes()), &[0xff]);
                    s.stream_hash = fnv_fold(fnv_fold(h, payload.as_bytes()), &[0xff]);
                    s.cells += 1;
                    continue;
                }
                ServerFrame::Accepted { .. } => continue,
                ServerFrame::Done { summary, .. } => {
                    s.ok = true;
                    s.summary = Some(summary);
                }
                ServerFrame::Overloaded { .. } => s.shed = true,
                _ => {}
            }
            s.done_at = Some(now);
            done[id].store(true, Ordering::Release);
            outstanding -= 1;
        }
        if let Some(f) = failure {
            // Unblock the generator if it waits on a resubmission.
            for d in &done {
                d.store(true, Ordering::Release);
            }
            let _ = generator.join();
            return Err(f);
        }
        let lag_ms = generator
            .join()
            .map_err(|_| "generator panicked".to_string())??;
        Ok(LoopResult {
            seen,
            lag_ms,
            start,
        })
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let dir = match ScratchDir::new("serve") {
        Ok(d) => d,
        Err(e) => {
            out.check(false, || format!("scratch directory: {e}"));
            return out;
        }
    };

    // Set-up, timed SETUP_REPS times, each daemon in its own directory.
    let mut setup_s = Vec::new();
    let mut lost_acks = 0u32;
    let mut daemon = None;
    for i in 0..SETUP_REPS {
        let sub = dir.path().join(format!("d{i}"));
        if let Err(e) = std::fs::create_dir(&sub) {
            out.check(false, || format!("daemon directory: {e}"));
            return out;
        }
        let t = Instant::now();
        let d = match start(args.seed, &sub) {
            Ok(d) => d,
            Err(e) => {
                out.check(false, || format!("daemon start: {e}"));
                return out;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPS {
            match stop(d) {
                Ok((_, acked)) => lost_acks += u32::from(!acked),
                Err(e) => {
                    out.check(false, || format!("daemon drain: {e}"));
                    return out;
                }
            }
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("at least one set-up");
    out.set("setup_s", median(&setup_s));

    let reqs = plan(args.seed, RATE_PER_S, args.seconds.as_secs_f64());
    let result = open_loop(&daemon.stream, &reqs);
    let exit = stop(daemon);
    let r = match result {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("open loop: {e}"));
            return out;
        }
    };
    match exit {
        Ok((x, acked)) => {
            lost_acks += u32::from(!acked);
            out.note(format!("daemon exit {x:?}"));
        }
        Err(e) => out.check(false, || format!("daemon exit: {e}")),
    }
    if lost_acks > 0 {
        out.note(format!(
            "{lost_acks} of {} drains lost DrainStarted: the daemon closed the connection first",
            SETUP_REPS
        ));
    }
    assess(&mut out, &reqs, &r, args);
    if args.trace {
        let mut tracer = Tracer::new();
        for (id, s) in r.seen.iter().enumerate() {
            if let Some(done_at) = s.done_at {
                tracer.record("serve.request", r.start + reqs[id].due, done_at, id as u32);
            }
        }
        let h = Harness::new(args.seed);
        let cells = h.run_grid_with_workers(3, 1);
        crate::layers::measure(
            &mut out,
            &h,
            args.seed,
            &cells,
            dir.path(),
            args.seconds.mul_f64(0.25),
        );
        if let Some(path) = &args.spans {
            if let Err(e) = tracer.write_jsonl(path) {
                out.check(false, || {
                    format!("writing spans to {}: {e}", path.display())
                });
            }
        }
    }
    out
}

/// Output checks and metrics of one open-loop run.
fn assess(out: &mut Outcome, reqs: &[Request], r: &LoopResult, args: &Args) {
    let mut latency_ms = Vec::with_capacity(reqs.len());
    let (mut shed, mut failed) = (0u64, 0u64);
    let (mut resumed, mut grid_cells) = (0u64, 0u64);
    let mut last_done = r.start;
    for (id, (req, s)) in reqs.iter().zip(&r.seen).enumerate() {
        let done_at = s.done_at.expect("every request finished");
        last_done = last_done.max(done_at);
        latency_ms.push(done_at.duration_since(r.start + req.due).as_secs_f64() * 1e3);
        shed += u64::from(s.shed);
        failed += u64::from(!s.ok);
        if !s.ok {
            continue;
        }
        let summary = s.summary.clone().unwrap_or_default();
        let want_cells = match req.kind {
            Kind::Schedule | Kind::Simulate => 1,
            Kind::FreshGrid | Kind::Resubmit(_) => 6,
        };
        out.check(s.cells == want_cells && summary.cells == want_cells, || {
            format!(
                "request {id} ({:?}) streamed {} cells, expected {want_cells}",
                req.kind, s.cells
            )
        });
        match req.kind {
            Kind::FreshGrid => {
                grid_cells += summary.cells;
                resumed += summary.resumed;
                out.check(summary.computed == 6, || {
                    format!(
                        "fresh grid request {id} computed {} cells",
                        summary.computed
                    )
                });
            }
            // A resubmission replays only if its original ran.
            Kind::Resubmit(orig) if r.seen[orig].ok => {
                grid_cells += summary.cells;
                resumed += summary.resumed;
                out.check(summary.resumed == 6, || {
                    format!("resubmitted request {id} resumed {} cells", summary.resumed)
                });
                out.check(s.stream_hash == r.seen[orig].stream_hash, || {
                    format!("resubmitted request {id} streamed bytes unlike its original {orig}")
                });
            }
            Kind::Resubmit(_) | Kind::Schedule | Kind::Simulate => {}
        }
    }
    out.attempted += reqs.len() as u64;
    out.failed += failed;
    let span_s = last_done.duration_since(r.start).as_secs_f64();
    let lag_p99 = quantile(&r.lag_ms, 0.99);
    out.check(lag_p99 <= MAX_LAG_MS, || {
        format!("generator fell behind: p99 lateness {lag_p99:.2} ms > {MAX_LAG_MS} ms")
    });
    out.check(reqs.len() >= 1000, || {
        format!("only {} requests; the tail needs at least 1000", reqs.len())
    });
    let p50_of = |label: &str| {
        let lat: Vec<f64> = reqs
            .iter()
            .zip(&latency_ms)
            .filter(|(q, _)| q.kind.label() == label)
            .map(|(_, l)| *l)
            .collect();
        (lat.len(), quantile(&lat, 0.5))
    };
    let by_kind: Vec<String> = ["schedule", "simulate", "fresh grid", "resubmitted grid"]
        .iter()
        .map(|&label| {
            let (n, p50) = p50_of(label);
            format!("{n} {label} p50 {p50:.3} ms")
        })
        .collect();
    out.note(format!(
        "{} requests at {}/s open loop ({}); latency p50/p90/p99 {:.3}/{:.3}/{:.3} ms; lag p50 {:.3} ms, p99 {lag_p99:.3} ms; {shed} shed",
        reqs.len(),
        RATE_PER_S,
        by_kind.join(", "),
        quantile(&latency_ms, 0.5),
        quantile(&latency_ms, 0.9),
        quantile(&latency_ms, 0.99),
        quantile(&r.lag_ms, 0.5),
    ));
    out.set("serve.latency_p50_ms", quantile(&latency_ms, 0.5));
    out.set("serve.latency_p99_ms", quantile(&latency_ms, 0.99));
    out.set("serve.schedule_p50_ms", p50_of("schedule").1);
    out.set("serve.simulate_p50_ms", p50_of("simulate").1);
    out.set("serve.replay_p50_ms", p50_of("resubmitted grid").1);
    out.set(
        "serve.resumed_ratio",
        resumed as f64 / grid_cells.max(1) as f64,
    );
    out.set("serve.shed", shed as f64);
    out.set("bench.lag_ms", lag_p99);
    if !args.trace {
        out.set("work_per_s", (reqs.len() as u64 - failed) as f64 / span_s);
        out.set("peak_rss_mb", peak_rss_mb());
    }
}
