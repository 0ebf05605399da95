//! Crash-safe, resumable grid campaigns.
//!
//! [`Harness::run_grid_journaled`] runs the one in-process cell driver
//! with a journal as its sink: every completed [`CellResult`] is appended
//! to a write-ahead journal (`mps-journal`) on the calling thread, one
//! checksummed JSON line per cell, keyed by
//! [`cell_key`](crate::runner::cell_key). There is no writer thread: the
//! calling thread is one of the workers and appends its own cells plus
//! whatever the other workers have queued between its cells. Re-running
//! against an existing journal skips the cells already on disk, so a
//! campaign killed by a crash, an OOM, a Ctrl-C, or a wall-clock budget
//! resumes from its last durable cell. A kill loses the cells in flight
//! plus any finished cells still queued behind the caller's current
//! cell. Because cell computation is deterministic and the merged grid
//! is canonically sorted, the resumed grid is identical to an
//! uninterrupted run with the same configuration.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use mps_core::dag::gen::GeneratedDag;
use mps_core::faults::io::IoEnv;
use mps_core::journal::{
    self as journal, JournalError, JournalHeader, JournalWriter, Manifest, RunControl, StopReason,
    FORMAT_V1, MANIFEST_FORMAT_V1,
};

use crate::runner::{
    pending_specs, sort_cells_canonical, subset, CellResult, Harness, CELLS_PER_DAG,
};

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
    /// The journal path.
    pub journal: PathBuf,
}

/// What [`open_grid_journal`] recovers: the salvaged `(key, cell)`
/// records, the writer positioned for appends, and how many torn-tail
/// bytes were dropped.
pub(crate) type OpenedJournal = (Vec<(String, CellResult)>, JournalWriter, u64);

/// Recovers an existing journal (salvaging every intact cell and
/// truncating any torn tail) or starts a fresh one. Shared between the
/// in-process and process-isolated grid drivers.
pub(crate) fn open_grid_journal(
    env: &dyn IoEnv,
    path: &Path,
    header: &JournalHeader,
    resume: bool,
) -> Result<OpenedJournal, JournalError> {
    if resume && path.exists() {
        let (rec, w) = journal::open_resume_in(env, path)?;
        match &rec.header {
            Some(h) => {
                h.check_matches(header)?;
                let mut cells = Vec::with_capacity(rec.records.len());
                for (i, (key, payload)) in rec.records.iter().enumerate() {
                    let cell: CellResult =
                        serde_json::from_str(payload).map_err(|e| JournalError::Corrupt {
                            line: i + 2,
                            reason: format!("record {key}: {e}"),
                        })?;
                    cells.push((key.clone(), cell));
                }
                Ok((cells, w, rec.dropped_bytes))
            }
            // Even the header was torn: the journal is equivalent to
            // empty — start over in place.
            None => {
                drop(w);
                let w = JournalWriter::create_overwrite_in(env, path, header)?;
                Ok((Vec::new(), w, rec.dropped_bytes))
            }
        }
    } else {
        // `create` refuses to clobber an existing journal.
        Ok((Vec::new(), JournalWriter::create_in(env, path, header)?, 0))
    }
}

/// The paper-grid campaign over the first `take` corpus DAGs (all of
/// them for `None`): its corpus slice and its journal campaign name —
/// `paper-grid`, or `paper-grid[..N]` for a subset — shared by every
/// isolation mode, so a journal started under one resumes under another.
pub(crate) fn paper_campaign(
    corpus: &[GeneratedDag],
    take: Option<usize>,
) -> (&[GeneratedDag], String) {
    let dags = subset(corpus, take);
    let name = match take {
        None => "paper-grid".to_string(),
        Some(_) => format!("paper-grid[..{}]", dags.len()),
    };
    (dags, name)
}

/// Writes the manifest (when there is a journal) and assembles the
/// merged, canonically sorted grid. Shared final step of every grid
/// driver with resume provenance.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finalize_grid(
    env: &dyn IoEnv,
    path: Option<&Path>,
    campaign: &str,
    expected: u64,
    resumed_cells: Vec<(String, CellResult)>,
    new_cells: Vec<(String, CellResult)>,
    salvage_dropped_bytes: u64,
    ctrl: &RunControl,
) -> Result<JournaledGrid, JournalError> {
    let resumed = resumed_cells.len();
    let computed = new_cells.len();
    let total_done = resumed + computed;
    let status = if total_done as u64 == expected {
        GridStatus::Complete
    } else {
        match ctrl.should_stop() {
            Some(StopReason::DeadlineExpired) => GridStatus::DeadlineExpired,
            _ => GridStatus::Interrupted,
        }
    };
    let mut cells: Vec<CellResult> = resumed_cells
        .into_iter()
        .chain(new_cells)
        .map(|(_, c)| c)
        .collect();
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
                campaign: campaign.to_string(),
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
        resumed,
        computed,
        pending: expected as usize - total_done,
        quarantined,
        salvage_dropped_bytes,
        journal: path.map(Path::to_path_buf).unwrap_or_default(),
    })
}

impl Harness {
    /// The journal header of a grid campaign over `dags` corpus DAGs.
    /// `isolation` names the driver (`inproc`, `serve`, `process`);
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

    /// Runs the paper grid — or its first `n` DAGs for `subset = Some(n)` —
    /// with write-ahead journaling: every completed cell is appended to
    /// the journal, cells already present in it are skipped, and `ctrl`
    /// converts signals/deadlines into a graceful drain (in-flight cells
    /// finish, the journal syncs, the manifest records the checkpoint).
    ///
    /// Pass `resume = true` to continue an existing journal; creating a
    /// fresh journal over an existing file is a typed error.
    pub fn run_grid_journaled(
        &self,
        subset: Option<usize>,
        path: &Path,
        repeats: u64,
        workers: usize,
        resume: bool,
        ctrl: &RunControl,
    ) -> Result<JournaledGrid, JournalError> {
        let corpus = self.corpus();
        let (corpus, campaign) = paper_campaign(&corpus, subset);
        let header = self.grid_header(&campaign, corpus.len(), repeats, "inproc", "");
        let env = self.io_env().clone();
        let (resumed_cells, mut writer, salvage_dropped_bytes) =
            open_grid_journal(&*env, path, &header, resume)?;

        let done: HashSet<&str> = resumed_cells.iter().map(|(k, _)| k.as_str()).collect();
        let pending = pending_specs(corpus, &done, repeats);
        let mut new_cells = Vec::new();
        self.drive_cells(
            corpus,
            &pending,
            repeats,
            workers,
            self.disturb.as_ref(),
            ctrl,
            &mut |key, cell| {
                let payload = serde_json::to_string(&cell).map_err(|e| JournalError::Serde {
                    what: "cell result",
                    err: e.to_string(),
                })?;
                writer.append_record(&key, &payload)?;
                new_cells.push((key, cell));
                Ok(())
            },
        )?;
        writer.sync()?;

        finalize_grid(
            &*env,
            Some(path),
            &campaign,
            header.cells_expected,
            resumed_cells,
            new_cells,
            salvage_dropped_bytes,
            ctrl,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
