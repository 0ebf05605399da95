//! Criterion benchmark crate; see the `benches/` directory: `figures` (one bench per table/figure), `components` (microbenches), `ablations` (scaling and design-choice sweeps).
//!
//! The end-to-end benchmark of the grid, hazard, online and daemon paths
//! is `perfbench/` (see `perfbench/README.md`); its committed reference
//! numbers are `BENCH.json` at the repository root.
