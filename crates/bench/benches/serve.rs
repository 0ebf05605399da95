//! Load-generation bench for the `mps-serve` daemon. A full run rewrites
//! the committed `BENCH_SERVE.json` at the repo root; a quick run writes
//! its report under the cargo target dir.
//!
//! Everything runs through the real stack — `ServeBackend` over a real
//! `Harness`, the daemon on a real Unix socket, the typed client — so the
//! numbers include protocol framing, checksummed envelopes, and admission
//! control, not just backend compute:
//!
//! * **sustained** — one connection issuing `Schedule` requests
//!   back-to-back; reports throughput and p50/p99 round-trip latency.
//!   The warm per-thread allocation engine means steady-state latency is
//!   the amortized cost a long-lived daemon actually delivers.
//! * **grid** — one `SubsetGrid` request; reports streamed cells/s.
//! * **overload** — a pipelined burst at several times queue capacity
//!   against a deliberately tiny queue; reports the shed rate and checks
//!   every verdict is typed (`Accepted` | `Overloaded`), never a stall.
//!
//! Run with `cargo bench --bench serve` (full) or
//! `cargo bench --bench serve -- --quick` (CI smoke). See BENCH.md.

#[cfg(unix)]
mod unix_bench {
    use std::path::PathBuf;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use mps_core::journal::RunControl;
    use mps_core::serve::client::connect_unix;
    use mps_core::serve::{
        ClientFrame, RequestOutcome, Server, ServerConfig, ServerExit, ServerFrame, WorkRequest,
    };
    use mps_exp::{Harness, ServeBackend};

    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("mps-bench-serve-{}-{tag}.sock", std::process::id()))
    }

    fn start(
        backend: &Arc<ServeBackend>,
        cfg: ServerConfig,
        socket: PathBuf,
    ) -> std::thread::JoinHandle<ServerExit> {
        let backend: Arc<ServeBackend> = Arc::clone(backend);
        let server = Server::new(backend, cfg);
        std::thread::spawn(move || server.run_unix(&socket).expect("daemon run"))
    }

    fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
        if sorted_ms.is_empty() {
            return 0.0;
        }
        let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
        sorted_ms[idx]
    }

    pub struct Report {
        pub mode: &'static str,
        pub schedule_requests: usize,
        pub schedule_qps: f64,
        pub schedule_p50_ms: f64,
        pub schedule_p99_ms: f64,
        pub grid_take: usize,
        pub grid_cells: u64,
        pub grid_cells_per_s: f64,
        pub offered: usize,
        pub admitted: usize,
        pub shed: usize,
    }

    pub fn run(mode: &'static str, schedule_n: usize, grid_take: usize, burst: usize) -> Report {
        let backend = Arc::new(ServeBackend::new(Harness::new(2011)));

        // Sustained single-cell latency + one streamed grid request.
        let socket = socket_path("sustained");
        let handle = start(&backend, ServerConfig::default(), socket.clone());
        let (mut c, _) = connect_unix(&socket, "bench", Duration::from_secs(10)).expect("connect");
        let variants = ["analytic", "profile", "empirical"];
        let algos = ["HCPA", "MCPA"];
        let mut lat_ms = Vec::with_capacity(schedule_n);
        let t0 = Instant::now();
        for i in 0..schedule_n {
            let work = WorkRequest::Schedule {
                dag: i % 8,
                variant: variants[i % variants.len()].to_string(),
                algo: algos[i % algos.len()].to_string(),
            };
            let t = Instant::now();
            let outcome = c
                .request(i as u64, &work, None, &mut |_, _| {})
                .expect("schedule request");
            assert!(matches!(outcome, RequestOutcome::Done(_)), "{outcome:?}");
            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        let sustained_s = t0.elapsed().as_secs_f64();
        lat_ms.sort_by(|a, b| a.total_cmp(b));

        let mut grid_cells = 0u64;
        let t = Instant::now();
        let outcome = c
            .request(
                u64::MAX,
                &WorkRequest::SubsetGrid {
                    take: grid_take,
                    repeats: 1,
                    disturb: None,
                },
                None,
                &mut |_, _| grid_cells += 1,
            )
            .expect("grid request");
        let grid_s = t.elapsed().as_secs_f64();
        assert!(matches!(outcome, RequestOutcome::Done(_)), "{outcome:?}");
        c.drain(0).expect("drain");
        handle.join().expect("daemon thread");

        // Overload: a pipelined burst against a tiny queue must shed with
        // typed verdicts, and every admitted request must still finish.
        let socket = socket_path("overload");
        let cfg = ServerConfig {
            queue_capacity: 2,
            executors: 1,
            ctrl: RunControl::unlimited().with_throttle(Duration::from_millis(2)),
            ..ServerConfig::default()
        };
        let handle = start(&backend, cfg, socket.clone());
        let (mut c, _) = connect_unix(&socket, "burst", Duration::from_secs(10)).expect("connect");
        for id in 0..burst as u64 {
            c.send_raw(&ClientFrame::Submit {
                id,
                work: WorkRequest::SubsetGrid {
                    take: 1,
                    repeats: 1,
                    disturb: None,
                },
                deadline_ms: None,
            })
            .expect("pipelined submit");
        }
        let (mut admitted, mut shed, mut done) = (0usize, 0usize, 0usize);
        let mut verdicts = 0usize;
        while verdicts < burst || done < admitted {
            match c.recv_raw().expect("burst frame") {
                Some(ServerFrame::Accepted { .. }) => {
                    admitted += 1;
                    verdicts += 1;
                }
                Some(ServerFrame::Overloaded { retry_after_ms, .. }) => {
                    assert!(retry_after_ms >= 50, "hint below floor: {retry_after_ms}");
                    shed += 1;
                    verdicts += 1;
                }
                Some(ServerFrame::Done { .. }) | Some(ServerFrame::Failed { .. }) => done += 1,
                Some(ServerFrame::Cell { .. }) => {}
                other => panic!("unexpected frame: {other:?}"),
            }
        }
        c.drain(0).expect("drain");
        handle.join().expect("daemon thread");

        Report {
            mode,
            schedule_requests: schedule_n,
            schedule_qps: schedule_n as f64 / sustained_s,
            schedule_p50_ms: percentile(&lat_ms, 0.50),
            schedule_p99_ms: percentile(&lat_ms, 0.99),
            grid_take,
            grid_cells,
            grid_cells_per_s: grid_cells as f64 / grid_s,
            offered: burst,
            admitted,
            shed,
        }
    }

    pub fn emit_json(r: &Report) {
        let json = format!(
            r#"{{
  "schema": "mps-bench-serve/v1",
  "mode": "{mode}",
  "sustained": {{"requests": {n}, "qps": {qps:.1}, "p50_ms": {p50:.3}, "p99_ms": {p99:.3}}},
  "grid": {{"take": {take}, "cells": {cells}, "cells_per_s": {cps:.1}}},
  "overload": {{"offered": {off}, "admitted": {adm}, "shed": {shd}, "shed_rate": {rate:.2}}}
}}
"#,
            mode = r.mode,
            n = r.schedule_requests,
            qps = r.schedule_qps,
            p50 = r.schedule_p50_ms,
            p99 = r.schedule_p99_ms,
            take = r.grid_take,
            cells = r.grid_cells,
            cps = r.grid_cells_per_s,
            off = r.offered,
            adm = r.admitted,
            shd = r.shed,
            rate = r.shed as f64 / r.offered as f64,
        );
        let path = mps_bench::report_path(
            "BENCH_SERVE.json",
            r.mode == "full",
            env!("CARGO_TARGET_TMPDIR"),
        );
        std::fs::write(&path, &json).expect("write BENCH_SERVE.json");
        println!("{json}");
        println!("wrote {}", path.display());
    }
}

#[cfg(unix)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `cargo test --benches` runs without `--bench`: smoke-run only.
    let smoke = !args.iter().any(|a| a == "--bench");
    let (mode, schedule_n, grid_take, burst) = if smoke {
        ("smoke", 10, 1, 6)
    } else if quick {
        ("quick", 60, 2, 8)
    } else {
        ("full", 400, 4, 12)
    };
    let r = unix_bench::run(mode, schedule_n, grid_take, burst);
    println!(
        "serve/sustained: {:.1} req/s, p50 {:.3} ms, p99 {:.3} ms ({} requests)",
        r.schedule_qps, r.schedule_p50_ms, r.schedule_p99_ms, r.schedule_requests
    );
    println!(
        "serve/grid: {} cells in one request, {:.1} cells/s",
        r.grid_cells, r.grid_cells_per_s
    );
    println!(
        "serve/overload: {} offered, {} admitted, {} shed",
        r.offered, r.admitted, r.shed
    );
    if !smoke {
        unix_bench::emit_json(&r);
    }
}

#[cfg(not(unix))]
fn main() {
    println!("serve bench requires a Unix platform (Unix-domain sockets)");
}
