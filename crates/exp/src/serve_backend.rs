//! The production [`Backend`] behind `repro serve`: executes
//! `mps-proto/v1` work requests against a [`Harness`].
//!
//! A `SubsetGrid` request is a `serve[..N]` campaign on the one campaign
//! pipeline (`Harness::run_pipeline`); the configuration picks its
//! journal and its executor.
//!
//! * **Ephemeral** (no state dir): cells are computed and streamed,
//!   nothing touches disk. A killed daemon loses in-flight work.
//! * **Journaled** (state dir): every `SubsetGrid` request gets a
//!   write-ahead journal named by the FNV-64 of its request JSON + the
//!   harness config digest, and each cell is appended before it is
//!   streamed, so a kill loses at most the cell in flight. A resubmitted
//!   request *replays* the journaled prefix byte-for-byte and computes
//!   only the remainder; a restarted daemon finishes interrupted
//!   journals at startup ([`ServeBackend::recover`]) because the journal
//!   header carries the verbatim request.
//! * **Executor**: cells run inline on the executor thread (in-process,
//!   one worker), or, with a worker command, in supervised child
//!   processes — a poison request is quarantined cell by cell instead of
//!   taking the daemon down.
//!
//! Cell payloads are exactly the bytes the journal stores, so a client
//! cannot tell a replayed cell from a freshly computed one.

use std::path::PathBuf;

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::RecoveryPolicy;
use mps_core::journal::{self, fnv64, RunControl};
use mps_core::online::{OnlineAlgo, OnlineConfig, OnlineEngine};
use mps_core::sched::Scheduler;
use mps_core::serve::{Backend, ServeError, WorkRequest, WorkSummary};

use crate::journaled::{Campaign, Executor, JournaledGrid};
use crate::runner::{
    algo_of, cell_key, subset, CellOutcome, CellResult, DisturbConfig, Harness, SimVariant,
};
use crate::supervised::{SuperviseOpts, WorkerCommand};

/// Hard cap on the event horizon a client can request from the daemon
/// (~20 s of single-core work): streaming runs share the executor pool
/// with grid work, so one request must not pin an executor indefinitely.
const MAX_SERVED_HORIZON: u64 = 20_000_000;

/// A request's own disturbance plan, crashes rescued (the daemon serves a
/// measurement if the surviving platform permits one); `None`, also for
/// an empty plan, falls back to the daemon's startup plan.
fn request_disturbance(desc: Option<&str>) -> Result<Option<DisturbConfig>, ServeError> {
    let Some(desc) = desc else { return Ok(None) };
    let cfg = DisturbConfig::parse(desc, RecoveryPolicy::Rescue)
        .map_err(|e| backend_err(format!("bad disturbance plan: {e}")))?;
    Ok(cfg.active())
}

/// Folds one cell's disturbance outcome into a request summary.
fn tally_disturb(summary: &mut WorkSummary, cell: &CellResult) {
    if let CellOutcome::Disturbed { report, .. } = &cell.outcome {
        summary.disturbed += 1;
        summary.rescues += report.rescues;
    }
}

/// A [`Harness`]-backed executor for daemon work requests.
pub struct ServeBackend {
    harness: Harness,
    corpus: std::sync::Arc<Vec<GeneratedDag>>,
    state_dir: Option<PathBuf>,
    worker: Option<(WorkerCommand, SuperviseOpts)>,
}

impl ServeBackend {
    /// An ephemeral backend: no journals, no recovery.
    pub fn new(harness: Harness) -> Self {
        let corpus = harness.corpus();
        ServeBackend {
            harness,
            corpus,
            state_dir: None,
            worker: None,
        }
    }

    /// Journals every `SubsetGrid` request under `dir` (created if
    /// missing), enabling resume-on-resubmit and startup recovery.
    pub fn with_state_dir(mut self, dir: PathBuf) -> Self {
        self.state_dir = Some(dir);
        self
    }

    /// Runs grid cells in supervised worker processes.
    pub fn with_worker(mut self, cmd: WorkerCommand, opts: SuperviseOpts) -> Self {
        self.worker = Some((cmd, opts));
        self
    }

    /// The journal path for a `SubsetGrid` request: content-addressed by
    /// request JSON + harness config digest, so an identical resubmission
    /// resumes its own journal and a different config never collides.
    fn journal_path(&self, dir: &std::path::Path, work_json: &str) -> PathBuf {
        let id = fnv64(format!("{}|{}", work_json, self.harness.config_digest()).as_bytes());
        dir.join(format!("req-{id:016x}.jl"))
    }

    fn resolve(&self, dag: usize, variant: &str, algo: &str) -> Result<Resolved<'_>, ServeError> {
        let g = self.corpus.get(dag).ok_or_else(|| ServeError::Backend {
            reason: format!(
                "dag index {dag} out of range (corpus has {})",
                self.corpus.len()
            ),
        })?;
        let variant = SimVariant::ALL
            .into_iter()
            .find(|v| v.name() == variant)
            .ok_or_else(|| ServeError::Backend {
                reason: format!("unknown variant {variant:?} (analytic|profile|empirical)"),
            })?;
        let algo: &dyn Scheduler = match algo {
            "HCPA" => algo_of(0),
            "MCPA" => algo_of(1),
            other => {
                return Err(ServeError::Backend {
                    reason: format!("unknown algorithm {other:?} (HCPA|MCPA)"),
                })
            }
        };
        Ok(Resolved { g, variant, algo })
    }

    /// One-cell requests: compute, stream, summarize.
    fn run_single(
        &self,
        work: &WorkRequest,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        let mut summary = WorkSummary {
            status: "complete".to_string(),
            ..WorkSummary::default()
        };
        match work {
            WorkRequest::Schedule { dag, variant, algo } => {
                let r = self.resolve(*dag, variant, algo)?;
                let schedule = self
                    .harness
                    .schedule_only(r.g, r.variant, r.algo)
                    .map_err(|reason| ServeError::Backend { reason })?;
                let key = format!(
                    "schedule/{}/n{}/{}/{}",
                    r.g.name(),
                    r.g.params.matrix_size,
                    r.variant.name(),
                    r.algo.name()
                );
                let payload = encode(&schedule)?;
                emit(&key, &payload);
            }
            WorkRequest::Simulate {
                dag,
                variant,
                algo,
                repeats,
                disturb,
            } => {
                let r = self.resolve(*dag, variant, algo)?;
                let cfg = request_disturbance(disturb.as_deref())?;
                let cell = self.harness.run_one_caught(
                    r.g,
                    r.variant,
                    r.algo,
                    *repeats,
                    cfg.as_ref().or(self.harness.disturb.as_ref()),
                );
                let key = cell_key(
                    &r.g.name(),
                    r.g.params.matrix_size,
                    r.variant,
                    r.algo.name(),
                    *repeats,
                );
                if cell.outcome.crash_report().is_some() {
                    summary.quarantined = 1;
                }
                tally_disturb(&mut summary, &cell);
                let payload = encode(&cell)?;
                emit(&key, &payload);
            }
            WorkRequest::Online {
                arrival,
                horizon_events,
                seed,
                admission,
                algo,
            } => {
                let spec =
                    crate::online::parse_arrival(arrival).map_err(|e| ServeError::Backend {
                        reason: format!("bad arrival spec: {e}"),
                    })?;
                let algo = OnlineAlgo::parse(algo).map_err(backend_err)?;
                // A streaming run is one admitted request, so its horizon
                // is capped: a million-event run takes around a second,
                // and nothing a client says should pin an executor for
                // minutes.
                let horizon = (*horizon_events).clamp(1, MAX_SERVED_HORIZON);
                let mut cfg = OnlineConfig::new(spec, algo);
                cfg.seed = *seed;
                cfg.horizon_events = horizon;
                cfg.admission_cap = *admission as usize;
                cfg.max_width = 8;
                let dags: Vec<mps_core::dag::Dag> =
                    self.corpus.iter().map(|g| g.dag.clone()).collect();
                let mut engine = OnlineEngine::new(&dags).map_err(backend_err)?;
                let outcome = engine.run(&cfg).map_err(backend_err)?;
                let key = format!(
                    "online/{}/{}/seed{}/h{}",
                    cfg.arrival,
                    algo.name(),
                    cfg.seed,
                    horizon
                );
                let payload = encode(&outcome.run)?;
                emit(&key, &payload);
            }
            WorkRequest::SubsetGrid { .. } => unreachable!("grid handled by caller"),
        }
        summary.cells = 1;
        summary.computed = 1;
        Ok(summary)
    }

    /// A `SubsetGrid` request: the `serve[..N]` campaign over the first
    /// `take` DAGs on this daemon's executor, journaled when there is a
    /// state dir, streaming every replayed and computed cell to `emit`.
    fn run_grid(
        &self,
        work: &WorkRequest,
        take: usize,
        repeats: u64,
        disturb: Option<&str>,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        let cfg = request_disturbance(disturb)?;
        let (executor, isolation) = match &self.worker {
            // Worker processes get their plan via startup flags; a
            // per-request plan cannot reach them.
            Some(_) if cfg.is_some() => {
                return Err(backend_err(
                    "per-request disturbance plans require in-process cell \
                     execution (this daemon runs --isolation process; pass \
                     --disturb at daemon startup instead)",
                ))
            }
            Some((command, opts)) => (Executor::Process(command, opts), "process"),
            None => (Executor::InProc { workers: 1 }, "serve"),
        };
        let work_json = encode(work)?;
        let path = match &self.state_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir).map_err(backend_err)?;
                Some(self.journal_path(dir, &work_json))
            }
            None => None,
        };
        let corpus = subset(&self.corpus, Some(take));
        let name = format!("serve[..{}]", corpus.len());
        let campaign = Campaign {
            corpus,
            header: self
                .harness
                .grid_header(&name, corpus.len(), repeats, isolation, &work_json),
            journal: path.as_deref().map(|p| (p, p.exists())),
            disturb: cfg.as_ref().or(self.harness.disturb.as_ref()),
        };
        let grid = self
            .harness
            .run_pipeline(&campaign, executor, ctrl, &mut |key, payload| {
                emit(key, payload);
            })
            .map_err(backend_err)?;
        Ok(summarize(&grid))
    }
}

struct Resolved<'a> {
    g: &'a GeneratedDag,
    variant: SimVariant,
    algo: &'a dyn Scheduler,
}

fn encode<T: serde::Serialize>(value: &T) -> Result<String, ServeError> {
    serde_json::to_string(value).map_err(|e| ServeError::Backend {
        reason: format!("encode payload: {e}"),
    })
}

fn backend_err<E: std::fmt::Display>(e: E) -> ServeError {
    ServeError::Backend {
        reason: e.to_string(),
    }
}

fn summarize(grid: &JournaledGrid) -> WorkSummary {
    let mut summary = WorkSummary {
        cells: (grid.resumed + grid.computed) as u64,
        resumed: grid.resumed as u64,
        computed: grid.computed as u64,
        quarantined: grid.quarantined as u64,
        status: grid.status.label().to_string(),
        ..WorkSummary::default()
    };
    for cell in &grid.cells {
        tally_disturb(&mut summary, cell);
    }
    summary
}

impl Backend for ServeBackend {
    fn execute(
        &self,
        work: &WorkRequest,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError> {
        match work {
            WorkRequest::Schedule { .. }
            | WorkRequest::Simulate { .. }
            | WorkRequest::Online { .. } => self.run_single(work, emit),
            WorkRequest::SubsetGrid {
                take,
                repeats,
                disturb,
            } => self.run_grid(work, *take, *repeats, disturb.as_deref(), ctrl, emit),
        }
    }

    /// Startup crash recovery: finish every journal in the state dir
    /// whose manifest is missing or not `complete`, reconstructing the
    /// work from the request JSON in the journal header. Returns how
    /// many journals were completed.
    fn recover(&self) -> Result<u64, ServeError> {
        let Some(dir) = &self.state_dir else {
            return Ok(0);
        };
        if !dir.exists() {
            return Ok(0);
        }
        let mut finished = 0u64;
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
            .map_err(backend_err)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "jl"))
            .collect();
        paths.sort();
        for path in paths {
            let env = &**self.harness.io_env();
            if let Some(m) = journal::read_manifest_in(env, &path).map_err(backend_err)? {
                if m.status == "complete" {
                    continue;
                }
            }
            let rec = journal::recover_in(env, &path).map_err(backend_err)?;
            let Some(header) = rec.header else { continue };
            if header.request.is_empty() {
                continue;
            }
            let work: WorkRequest =
                serde_json::from_str(&header.request).map_err(|e| ServeError::Backend {
                    reason: format!("{}: unparseable request in header: {e}", path.display()),
                })?;
            self.execute(&work, &RunControl::unlimited(), &mut |_, _| true)?;
            finished += 1;
        }
        Ok(finished)
    }
}
