//! The one campaign pipeline: crash-safe, resumable grids.
//!
//! `Harness::run_pipeline` owns the lifecycle of every grid with resume
//! provenance — `repro grid` under either isolation mode, the campaign
//! sweep, the chaos soak and both daemon tiers. It opens or resumes the
//! campaign's optional write-ahead journal (`mps-journal`), replays the
//! resumed records to its observer, and hands the pending cells to one
//! of two executors: [`Executor::InProc`], the in-process cell driver,
//! or [`Executor::Process`], the supervised worker pool
//! ([`crate::supervised`]). Either feeds one sink on the calling thread
//! that encodes each cell, appends it to the journal as one checksummed
//! JSON line keyed by [`cell_key`](crate::runner::cell_key), streams it
//! to the observer and collects it. The pipeline then syncs the journal
//! and writes the manifest.
//!
//! Re-running against an existing journal skips the cells already on
//! disk, so a campaign killed by a crash, an OOM, a Ctrl-C, or a
//! wall-clock budget resumes from its last durable cell — under either
//! executor, whichever wrote the journal. A kill loses the cells in
//! flight plus any finished cells not yet appended. Because cell
//! computation is deterministic and the merged grid is canonically
//! sorted, the resumed grid is identical to an uninterrupted run with
//! the same configuration.

use std::collections::HashSet;
use std::path::Path;

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::io::IoEnv;
use mps_core::journal::{
    self as journal, JournalError, JournalHeader, JournalWriter, Manifest, RunControl, StopReason,
    FORMAT_V1, MANIFEST_FORMAT_V1,
};
use mps_core::MpsError;

use crate::runner::{
    pending_specs, sort_cells_canonical, subset, CellResult, DisturbConfig, Harness, CELLS_PER_DAG,
};
use crate::supervised::{drive_processes, SuperviseOpts, WorkerCommand};

/// How a journaled campaign run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridStatus {
    /// Every cell of the campaign is durable in the journal.
    Complete,
    /// Stopped early by cancellation (Ctrl-C, SIGTERM, or programmatic);
    /// in-flight cells were drained to the journal first.
    Interrupted,
    /// Stopped early because the wall-clock budget expired; the journal
    /// holds a clean checkpoint.
    DeadlineExpired,
}

impl GridStatus {
    /// The status string recorded in the journal manifest.
    pub fn label(self) -> &'static str {
        match self {
            GridStatus::Complete => "complete",
            GridStatus::Interrupted => "interrupted",
            GridStatus::DeadlineExpired => "deadline",
        }
    }
}

/// Outcome of a journaled grid run: the merged (resumed + newly computed)
/// cells plus provenance counters.
#[derive(Debug)]
pub struct JournaledGrid {
    /// All cells durable in the journal, canonically sorted.
    pub cells: Vec<CellResult>,
    /// How the run ended.
    pub status: GridStatus,
    /// Cells loaded from the journal instead of recomputed.
    pub resumed: usize,
    /// Cells computed (and journaled) by this run.
    pub computed: usize,
    /// Cells still missing (0 iff `status == Complete`).
    pub pending: usize,
    /// Cells (resumed + computed) that crashed, timed out, or were
    /// quarantined as poison — present in the journal as crash reports,
    /// not measurements.
    pub quarantined: usize,
    /// Torn-tail bytes discarded during recovery (0 on a clean journal).
    pub salvage_dropped_bytes: u64,
}

/// Where a campaign's pending cells are computed.
#[derive(Debug, Clone, Copy)]
pub enum Executor<'a> {
    /// The in-process cell driver on `workers` threads, the calling
    /// thread among them.
    InProc {
        /// Worker threads.
        workers: usize,
    },
    /// Supervised child worker processes, launched by the command under
    /// the pool policy: poison cells are quarantined instead of taking
    /// the campaign down.
    Process(&'a WorkerCommand, &'a SuperviseOpts),
}

/// One campaign's inputs to [`Harness::run_pipeline`].
pub(crate) struct Campaign<'a> {
    /// The corpus slice whose cells make up the campaign.
    pub corpus: &'a [GeneratedDag],
    /// The journal header: campaign name, repeats and expected cells
    /// also when there is no journal.
    pub header: JournalHeader,
    /// The journal and whether to resume it; `None` runs ephemeral.
    pub journal: Option<(&'a Path, bool)>,
    /// The disturbance plan of in-process cells (process workers carry
    /// their own, from their flags).
    pub disturb: Option<&'a DisturbConfig>,
}

/// A resumed journal record: its key, its payload bytes and the cell.
type Record = (String, String, CellResult);

/// Recovers an existing journal (salvaging every intact cell and
/// truncating any torn tail) or starts a fresh one. Returns the salvaged
/// records, the writer positioned for appends, and how many torn-tail
/// bytes were dropped.
fn open_grid_journal(
    env: &dyn IoEnv,
    path: &Path,
    header: &JournalHeader,
    resume: bool,
) -> Result<(Vec<Record>, JournalWriter, u64), JournalError> {
    if !(resume && path.exists()) {
        // `create` refuses to clobber an existing journal.
        return Ok((Vec::new(), JournalWriter::create_in(env, path, header)?, 0));
    }
    let (rec, w) = journal::open_resume_in(env, path)?;
    let Some(h) = &rec.header else {
        // Even the header was torn: the journal is equivalent to empty —
        // start over in place.
        drop(w);
        let w = JournalWriter::create_overwrite_in(env, path, header)?;
        return Ok((Vec::new(), w, rec.dropped_bytes));
    };
    h.check_matches(header)?;
    let mut records = Vec::with_capacity(rec.records.len());
    for (i, (key, payload)) in rec.records.into_iter().enumerate() {
        let cell: CellResult =
            serde_json::from_str(&payload).map_err(|e| JournalError::Corrupt {
                line: i + 2,
                reason: format!("record {key}: {e}"),
            })?;
        records.push((key, payload, cell));
    }
    Ok((records, w, rec.dropped_bytes))
}

/// Writes the manifest (when there is a journal) and assembles the
/// merged, canonically sorted grid.
fn finalize_grid(
    env: &dyn IoEnv,
    path: Option<&Path>,
    header: &JournalHeader,
    resumed: Vec<CellResult>,
    computed: Vec<CellResult>,
    salvage_dropped_bytes: u64,
    ctrl: &RunControl,
) -> Result<JournaledGrid, JournalError> {
    let (n_resumed, n_computed) = (resumed.len(), computed.len());
    let total_done = n_resumed + n_computed;
    let expected = header.cells_expected;
    let status = if total_done as u64 == expected {
        GridStatus::Complete
    } else {
        match ctrl.should_stop() {
            Some(StopReason::DeadlineExpired) => GridStatus::DeadlineExpired,
            _ => GridStatus::Interrupted,
        }
    };
    let mut cells = resumed;
    cells.extend(computed);
    sort_cells_canonical(&mut cells);
    let quarantined = cells
        .iter()
        .filter(|c| c.outcome.crash_report().is_some())
        .count();
    if let Some(path) = path {
        journal::write_manifest_in(
            env,
            path,
            &Manifest {
                format: MANIFEST_FORMAT_V1.to_string(),
                campaign: header.campaign.clone(),
                records: total_done as u64,
                expected,
                status: status.label().to_string(),
                quarantined: quarantined as u64,
            },
        )?;
    }
    Ok(JournaledGrid {
        cells,
        status,
        resumed: n_resumed,
        computed: n_computed,
        pending: expected as usize - total_done,
        quarantined,
        salvage_dropped_bytes,
    })
}

impl Harness {
    /// The journal header of a grid campaign over `dags` corpus DAGs.
    /// `isolation` names the executor (`inproc`, `serve`, `process`);
    /// `request` is the verbatim daemon work request (empty for batch
    /// campaigns).
    pub(crate) fn grid_header(
        &self,
        campaign: &str,
        dags: usize,
        repeats: u64,
        isolation: &str,
        request: &str,
    ) -> JournalHeader {
        JournalHeader {
            format: FORMAT_V1.to_string(),
            campaign: campaign.to_string(),
            seed: self.testbed.base_seed,
            repeats,
            cells_expected: (dags * CELLS_PER_DAG) as u64,
            config_digest: self.config_digest(),
            isolation: isolation.to_string(),
            request: request.to_string(),
        }
    }

    /// Runs `campaign` on `executor`: opens or resumes its journal (if
    /// any), replays the resumed records to `on_cell(key, payload_json)`,
    /// computes the pending cells, and for each appends it to the journal
    /// before passing it to `on_cell` — so a streamed payload is the
    /// journal's own bytes. `ctrl` converts signals and deadlines into a
    /// graceful drain; the journal is synced and the manifest records the
    /// checkpoint.
    pub(crate) fn run_pipeline(
        &self,
        campaign: &Campaign<'_>,
        executor: Executor<'_>,
        ctrl: &RunControl,
        on_cell: &mut dyn FnMut(&str, &str),
    ) -> Result<JournaledGrid, MpsError> {
        let Campaign {
            corpus,
            header,
            journal,
            disturb,
        } = campaign;
        let repeats = header.repeats;
        let env = self.io_env().clone();
        let (records, mut writer, dropped) = match *journal {
            Some((path, resume)) => {
                let (records, writer, dropped) = open_grid_journal(&*env, path, header, resume)?;
                (records, Some(writer), dropped)
            }
            None => (Vec::new(), None, 0),
        };
        for (key, payload, _) in &records {
            on_cell(key, payload);
        }
        let done: HashSet<&str> = records.iter().map(|(key, ..)| key.as_str()).collect();
        let pending = pending_specs(corpus, &done, repeats);
        let mut computed = Vec::new();
        let mut sink = |key: String, cell: CellResult| -> Result<(), MpsError> {
            let payload = serde_json::to_string(&cell).map_err(|e| JournalError::Serde {
                what: "cell result",
                err: e.to_string(),
            })?;
            if let Some(w) = writer.as_mut() {
                w.append_record(&key, &payload)?;
            }
            on_cell(&key, &payload);
            computed.push(cell);
            Ok(())
        };
        let ran = match executor {
            Executor::InProc { workers } => self.drive_cells(
                corpus, &pending, repeats, workers, *disturb, ctrl, &mut sink,
            ),
            Executor::Process(command, opts) => {
                drive_processes(corpus, &pending, repeats, command, opts, ctrl, &mut sink)
            }
        };
        // What landed is made durable also when the executor failed; its
        // error is the one reported.
        let synced = writer.as_mut().map_or(Ok(()), JournalWriter::sync);
        ran?;
        synced?;
        let resumed = records.into_iter().map(|(.., cell)| cell).collect();
        let path = journal.map(|(path, _)| path);
        Ok(finalize_grid(
            &*env, path, header, resumed, computed, dropped, ctrl,
        )?)
    }

    /// Runs the paper grid — or its first `n` DAGs for `subset = Some(n)` —
    /// on `executor` with write-ahead journaling to `path`: every
    /// completed cell is appended to the journal, cells already present in
    /// it are skipped, and `ctrl` converts signals/deadlines into a
    /// graceful drain (in-flight cells finish, the journal syncs, the
    /// manifest records the checkpoint). The campaign is `paper-grid`, or
    /// `paper-grid[..N]` for a subset, under either executor, so a
    /// journal started under one resumes under the other.
    ///
    /// Pass `resume = true` to continue an existing journal; creating a
    /// fresh journal over an existing file is a typed error.
    pub fn run_grid_campaign(
        &self,
        subset_dags: Option<usize>,
        path: &Path,
        repeats: u64,
        resume: bool,
        executor: Executor<'_>,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, MpsError> {
        let corpus = self.corpus();
        let corpus = subset(&corpus, subset_dags);
        let name = match subset_dags {
            None => "paper-grid".to_string(),
            Some(_) => format!("paper-grid[..{}]", corpus.len()),
        };
        let isolation = match executor {
            Executor::InProc { .. } => "inproc",
            Executor::Process(..) => "process",
        };
        let campaign = Campaign {
            corpus,
            header: self.grid_header(&name, corpus.len(), repeats, isolation, ""),
            journal: Some((path, resume)),
            disturb: self.disturb.as_ref(),
        };
        self.run_pipeline(&campaign, executor, ctrl, &mut |_, _| {})
    }

    /// [`Harness::run_grid_campaign`] on the in-process executor with
    /// `workers` threads, whose only failures are journal errors.
    pub fn run_grid_journaled(
        &self,
        subset: Option<usize>,
        path: &Path,
        repeats: u64,
        workers: usize,
        resume: bool,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, JournalError> {
        let executor = Executor::InProc { workers };
        self.run_grid_campaign(subset, path, repeats, resume, executor, ctrl)
            .map_err(|e| match e {
                MpsError::Journal(e) => e,
                e => unreachable!("the in-process executor failed outside its journal: {e}"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::time::Duration;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mps-journaled-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("grid.jl")
    }

    #[test]
    fn journaled_grid_equals_in_memory_grid_and_resumes_to_noop() {
        let h = Harness::new(7);
        let path = scratch("equal");
        let plain = h.run_subset(2, 1);

        let first = h
            .run_grid_journaled(Some(2), &path, 1, 3, false, &RunControl::unlimited())
            .unwrap();
        assert_eq!(first.status, GridStatus::Complete);
        assert_eq!(first.resumed, 0);
        assert_eq!(first.computed, plain.len());
        assert_eq!(first.pending, 0);
        assert_eq!(first.cells, plain, "journaled grid must match run_subset");

        // Resuming a complete journal recomputes nothing.
        let again = h
            .run_grid_journaled(Some(2), &path, 1, 3, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(again.status, GridStatus::Complete);
        assert_eq!(again.computed, 0);
        assert_eq!(again.resumed, plain.len());
        assert_eq!(again.cells, plain, "resume round-trips bitwise");

        let m = journal::read_manifest(&path).unwrap().unwrap();
        assert!(m.is_complete());
        assert_eq!(m.records, plain.len() as u64);
    }

    #[test]
    fn refusing_to_clobber_an_existing_journal() {
        let h = Harness::new(7);
        let path = scratch("clobber");
        h.run_grid_journaled(Some(1), &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();
        assert!(matches!(
            h.run_grid_journaled(Some(1), &path, 1, 2, false, &RunControl::unlimited()),
            Err(JournalError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn expired_deadline_checkpoints_and_resume_completes() {
        let h = Harness::new(7);
        let path = scratch("deadline");
        // A deadline in the past: no new cell starts, the journal is a
        // clean (empty) checkpoint.
        let ctrl = RunControl::unlimited().with_deadline_in(Duration::ZERO);
        let stopped = h
            .run_grid_journaled(Some(2), &path, 1, 3, false, &ctrl)
            .unwrap();
        assert_eq!(stopped.status, GridStatus::DeadlineExpired);
        assert_eq!(stopped.computed, 0);
        assert_eq!(stopped.pending, 12);
        let m = journal::read_manifest(&path).unwrap().unwrap();
        assert_eq!(m.status, "deadline");

        let finished = h
            .run_grid_journaled(Some(2), &path, 1, 3, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(finished.status, GridStatus::Complete);
        assert_eq!(finished.cells, h.run_subset(2, 1));
    }

    #[test]
    fn cancellation_drains_and_resume_completes_identically() {
        let h = Harness::new(7);
        let path = scratch("cancel");
        let token = mps_core::journal::CancelToken::new();
        token.cancel(); // latched before the run: drains immediately
        let ctrl = RunControl::unlimited().with_cancel(token);
        let stopped = h
            .run_grid_journaled(Some(2), &path, 1, 3, false, &ctrl)
            .unwrap();
        assert_eq!(stopped.status, GridStatus::Interrupted);
        assert_eq!(
            journal::read_manifest(&path).unwrap().unwrap().status,
            "interrupted"
        );

        let finished = h
            .run_grid_journaled(Some(2), &path, 1, 3, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(finished.status, GridStatus::Complete);
        assert_eq!(finished.cells, h.run_subset(2, 1));
    }

    #[test]
    fn resume_under_a_different_config_is_rejected() {
        let h = Harness::new(7);
        let path = scratch("mismatch");
        h.run_grid_journaled(Some(1), &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();

        // Different base seed.
        let other = Harness::new(8);
        assert!(matches!(
            other.run_grid_journaled(Some(1), &path, 1, 2, true, &RunControl::unlimited()),
            Err(JournalError::HeaderMismatch { field: "seed", .. })
        ));
        // Different repeat block.
        assert!(matches!(
            h.run_grid_journaled(Some(1), &path, 2, 2, true, &RunControl::unlimited()),
            Err(JournalError::HeaderMismatch {
                field: "repeats",
                ..
            })
        ));
        // Different fault configuration (digest).
        let faulty = Harness::new(7).with_fault_plan(
            mps_core::faults::FaultPlan::builder(3)
                .task_failure(0.01)
                .build(),
        );
        assert!(matches!(
            faulty.run_grid_journaled(Some(1), &path, 1, 2, true, &RunControl::unlimited()),
            Err(JournalError::HeaderMismatch {
                field: "config_digest",
                ..
            })
        ));
    }

    #[test]
    fn tampered_tail_is_dropped_and_recomputed() {
        let h = Harness::new(7);
        let path = scratch("tamper");
        let full = h
            .run_grid_journaled(Some(1), &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();
        assert_eq!(full.status, GridStatus::Complete);

        // Flip one byte inside the last record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let last_line_start = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let target = last_line_start + 40;
        bytes[target] = if bytes[target] == b'7' { b'8' } else { b'7' };
        std::fs::write(&path, &bytes).unwrap();

        let resumed = h
            .run_grid_journaled(Some(1), &path, 1, 2, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(resumed.status, GridStatus::Complete);
        assert!(resumed.salvage_dropped_bytes > 0, "tail must be dropped");
        assert_eq!(resumed.computed, 1, "exactly the damaged cell re-runs");
        assert_eq!(resumed.cells, full.cells, "recomputation is bitwise");
    }

    /// Regression for the in-process safety net end to end: a poisoned
    /// (panicking) cell becomes a durable `crashed` journal record, the
    /// campaign still completes, the manifest counts the quarantine, and
    /// a resume skips the poison cell instead of re-panicking on it.
    #[test]
    fn poisoned_cell_is_journaled_and_resume_skips_it() {
        use crate::runner::{PoisonAction, PoisonRule};
        let h = Harness::new(7).with_poison(vec![PoisonRule {
            needle: "analytic/HCPA".to_string(),
            action: PoisonAction::Panic,
        }]);
        let path = scratch("poison");
        let first = h
            .run_grid_journaled(Some(1), &path, 1, 2, false, &RunControl::unlimited())
            .unwrap();
        assert_eq!(first.status, GridStatus::Complete);
        assert_eq!(first.computed, 6, "poison cell still gets a record");
        assert_eq!(first.quarantined, 1);
        let poisoned: Vec<_> = first
            .cells
            .iter()
            .filter(|c| c.outcome.crash_report().is_some())
            .collect();
        assert_eq!(poisoned.len(), 1);
        assert!(matches!(
            poisoned[0].outcome,
            crate::runner::CellOutcome::Crashed { .. }
        ));

        let m = journal::read_manifest(&path).unwrap().unwrap();
        assert!(m.is_complete());
        assert_eq!(m.quarantined, 1);

        // Resume recomputes nothing — in particular it does NOT retry the
        // poison cell (which would panic again).
        let again = h
            .run_grid_journaled(Some(1), &path, 1, 2, true, &RunControl::unlimited())
            .unwrap();
        assert_eq!(again.computed, 0);
        assert_eq!(again.resumed, 6);
        assert_eq!(again.quarantined, 1);
        assert_eq!(again.cells, first.cells, "resume round-trips bitwise");
    }
}
