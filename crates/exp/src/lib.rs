//! # mps-exp — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation against
//! the emulated testbed. See the `repro` binary:
//!
//! ```text
//! cargo run -p mps-exp --bin repro -- all          # everything
//! cargo run -p mps-exp --bin repro -- fig1         # one figure
//! cargo run -p mps-exp --bin repro -- table2
//! cargo run -p mps-exp --bin repro -- --json out/  # also dump JSON
//! ```

#![warn(missing_docs)]

pub mod ablation;
pub mod campaign;
pub mod chaos;
pub mod disturb;
pub mod figures;
pub mod journaled;
pub mod online;
pub mod runner;
pub mod serve_backend;
pub mod supervised;

pub use campaign::{CampaignManifest, CampaignOpts, CampaignReport, PointSummary};
pub use chaos::{ChaosOpts, ChaosReport};
pub use disturb::{run_disturb_sweep, DisturbPoint, DisturbSweepOpts, DisturbSweepReport};
pub use journaled::{Executor, GridStatus, JournaledGrid};
pub use online::{run_online_sweep, OnlineLevel, OnlineOpts, OnlineSweepReport, OnlineWall};
pub use runner::{
    cell_key, grid_health, paired_relative_makespans, parse_poison_spec, CellOutcome, CellResult,
    DisturbConfig, GridHealth, Harness, PoisonAction, PoisonRule, SimVariant, ERROR_PCT_SENTINEL,
};
pub use serve_backend::ServeBackend;
pub use supervised::{SuperviseOpts, WorkerCommand};
