//! Grid throughput benchmark: end-to-end wall time of the batched
//! structure-of-arrays grid path. A full run rewrites the committed
//! `BENCH_GRID.json` at the repo root; quick and smoke runs write theirs
//! under the cargo target dir.
//!
//! The measured unit is one *grid pass*: every (DAG, variant, algorithm)
//! cell of the paper evaluation through `Harness::run_grid` /
//! `Harness::run_subset` — allocation, simulation, and testbed execution
//! per cell, results in canonical order. Warm passes reuse the
//! per-worker slabs (memoized τ-tables, parked cross-cell caches, solver
//! arenas), which is exactly how campaign drivers hit the harness.
//!
//! Every pass is hashed (FNV-1a over the `Debug` rendering, which
//! round-trips f64 bits) and must match the cold pass — a perf number
//! from a nondeterministic grid would be meaningless, so divergence
//! aborts the bench.
//!
//! Run with `cargo bench --bench grid` (full: 54-DAG grid, 3 repeats) or
//! `cargo bench --bench grid -- --quick` (CI smoke: subset grid). In
//! quick mode, `--check-against BENCH_GRID.json` (relative paths resolve
//! against the repo root) turns the run into a regression guard: the job fails if the fresh quick wall
//! time exceeds 2x the committed `quick_ref` wall time. See BENCH.md.

use std::time::Instant;

use mps_exp::{CellResult, Harness};

/// Order-sensitive FNV-1a over the `Debug` rendering of the cell set.
/// f64 `Debug` output round-trips, so equal hashes mean bit-equal grids.
fn grid_hash(cells: &[CellResult]) -> u64 {
    let bytes = format!("{cells:?}");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[derive(Clone)]
struct GridFigures {
    dags: usize,
    repeats: u64,
    cells: usize,
    workers: usize,
    passes: usize,
    cold_wall_s: f64,
    warm_wall_s: f64,
    cells_per_s: f64,
    hash: u64,
}

/// Cold pass plus `passes` warm passes over `subset` DAGs (`0` = the
/// full 54-DAG corpus); every pass must hash identically.
fn bench_grid(h: &Harness, subset: usize, repeats: u64, passes: usize) -> GridFigures {
    let workers = Harness::default_workers();
    let run = || {
        if subset == 0 {
            h.run_grid(repeats)
        } else {
            h.run_subset(subset, repeats)
        }
    };
    let t = Instant::now();
    let cold = run();
    let cold_wall_s = t.elapsed().as_secs_f64();
    let hash = grid_hash(&cold);
    let cells = cold.len();

    let t = Instant::now();
    for pass in 0..passes {
        let warm = run();
        assert_eq!(
            grid_hash(&warm),
            hash,
            "warm pass {pass} diverged from the cold grid"
        );
    }
    let warm_total = t.elapsed().as_secs_f64();
    let warm_wall_s = warm_total / passes as f64;
    GridFigures {
        dags: if subset == 0 { 54 } else { subset },
        repeats,
        cells,
        workers,
        passes,
        cold_wall_s,
        warm_wall_s,
        cells_per_s: cells as f64 / warm_wall_s,
        hash,
    }
}

/// Warm full-grid wall time at the pre-batch commit, measured on the dev
/// container (global `Mutex<Vec>` result collection, per-cell allocation
/// engines, per-cell cluster/corpus rebuilds). Anchors the before/after
/// trajectory; see BENCH.md for the machine caveats.
const BASELINE_JSON: &str = r#"{
    "commit": "b8e0131",
    "grid": {"dags": 54, "repeats": 3, "warm_wall_s": 0.181}
  }"#;

fn render_grid(f: &GridFigures) -> String {
    format!(
        r#"{{"dags": {}, "repeats": {}, "cells": {}, "workers": {}, "passes": {}, "cold_wall_s": {:.4}, "warm_wall_s": {:.4}, "cells_per_s": {:.0}, "hash": "{:016x}"}}"#,
        f.dags,
        f.repeats,
        f.cells,
        f.workers,
        f.passes,
        f.cold_wall_s,
        f.warm_wall_s,
        f.cells_per_s,
        f.hash,
    )
}

fn emit_json(mode: &str, grid: &GridFigures, quick_ref: &GridFigures) {
    let json = format!(
        r#"{{
  "schema": "mps-bench-grid/v1",
  "mode": "{mode}",
  "grid": {},
  "quick_ref": {},
  "baseline": {BASELINE_JSON}
}}
"#,
        render_grid(grid),
        render_grid(quick_ref),
    );
    let path = mps_bench::report_path(
        "BENCH_GRID.json",
        mode == "full",
        env!("CARGO_TARGET_TMPDIR"),
    );
    std::fs::write(&path, &json).expect("write BENCH_GRID.json");
    println!("{json}");
    println!("wrote {}", path.display());
}

/// Minimal field extraction for the regression guard: the first
/// `"warm_wall_s": <num>` after the `"quick_ref"` key of a committed
/// `BENCH_GRID.json`. Hand-rolled so the bench stays dependency-free.
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

    const QUICK: (usize, u64, usize) = (12, 2, 3); // subset, repeats, passes
    let (mode, subset, repeats, passes) = if smoke {
        ("smoke", 4, 1, 1)
    } else if quick {
        ("quick", QUICK.0, QUICK.1, QUICK.2)
    } else {
        ("full", 0, 3, 10)
    };

    let t = Instant::now();
    let h = Harness::new(2011);
    println!("harness build: {:.4} s", t.elapsed().as_secs_f64());

    let grid = bench_grid(&h, subset, repeats, passes);
    println!(
        "grid/{mode}: {} cells, cold {:.4} s, warm {:.4} s/pass ({} passes, {:.0} cells/s, hash {:016x})",
        grid.cells, grid.cold_wall_s, grid.warm_wall_s, grid.passes, grid.cells_per_s, grid.hash,
    );

    // Full mode also measures the quick configuration so the committed
    // JSON carries the reference number CI guards against; quick and
    // smoke runs *are* that configuration (close enough for an artifact).
    let quick_ref = if mode == "full" {
        let q = bench_grid(&h, QUICK.0, QUICK.1, QUICK.2);
        println!(
            "grid/quick_ref: {} cells, warm {:.4} s/pass",
            q.cells, q.warm_wall_s
        );
        q
    } else {
        grid.clone()
    };

    emit_json(mode, &grid, &quick_ref);

    if let Some(path) = check_against {
        let committed = std::fs::read_to_string(mps_bench::repo_path(&path))
            .unwrap_or_else(|e| panic!("read committed baseline {path}: {e}"));
        let reference = committed_quick_wall(&committed)
            .unwrap_or_else(|| panic!("no quick_ref.warm_wall_s in {path}"));
        let budget = reference * 2.0;
        println!(
            "regression guard: quick wall {:.4} s vs committed {reference:.4} s (budget {budget:.4} s)",
            grid.warm_wall_s
        );
        if grid.warm_wall_s > budget {
            eprintln!(
                "FAIL: quick grid wall {:.4} s exceeds 2x the committed reference {reference:.4} s",
                grid.warm_wall_s
            );
            std::process::exit(1);
        }
    }
}
