//! Criterion benchmark crate; see the `benches/` directory: `figures` (one bench per table/figure), `components` (microbenches), `ablations` (scaling and design-choice sweeps).
//!
//! The custom-harness benches (`des`, `sched`, `grid`, `online`, `serve`)
//! write JSON reports through [`report_path`]: only a full run rewrites
//! the committed `BENCH_*.json` at the repo root; quick and smoke runs
//! write under the cargo target dir, so they never touch the tree.

use std::path::{Path, PathBuf};

/// The repository root (two levels above this crate).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Where a bench writes its JSON report `file`: the committed copy at the
/// repo root when `full`, otherwise `scratch` — the bench's
/// `CARGO_TARGET_TMPDIR`, a directory inside the cargo target dir.
pub fn report_path(file: &str, full: bool, scratch: &str) -> PathBuf {
    if full {
        repo_root().join(file)
    } else {
        Path::new(scratch).join(file)
    }
}

/// Resolves a path given on a bench's command line. Cargo runs benches
/// from the package directory, so a relative path is taken relative to
/// the repo root: `--check-against BENCH_GRID.json` names the committed
/// file.
pub fn repo_path(arg: &str) -> PathBuf {
    repo_root().join(arg)
}
