//! Determinism regression: the batched slab-reusing grid path must stay
//! byte-identical to the pre-batch per-cell reference path.
//!
//! `Harness::run_one_reference` keeps the original cold semantics: fresh
//! allocation engine, fresh simulator/executor state per cell. The grid
//! drivers instead run `run_one_with_slab` over per-worker warm slabs
//! (memoized τ-tables, reused solver arenas, parked cross-cell caches).
//! These tests pin the batching contract: for any worker count, with or
//! without a fault plan, the batched grid's `Debug` rendering — which
//! round-trips every f64 bit — equals the reference rendering, and poison
//! cells are quarantined without disturbing their neighbours. They also
//! pin the full paper grid and the hazard grid (faults, retries,
//! disturbances and rescue at once) to fixed hashes, the oracle any
//! change to the executor must keep, and hold every other in-process
//! grid driver — the journaled grid and the ephemeral and journaled
//! daemon streams — to the in-memory grid.

use mps_core::faults::{DisturbancePlan, FaultPlan, RecoveryPolicy};
use mps_core::platform::HostId;
use mps_core::sched::{Hcpa, Mcpa, Scheduler};
use mps_core::sim::ExecPolicy;
use mps_exp::{parse_poison_spec, CellResult, DisturbConfig, Harness, SimVariant};

const TAKE: usize = 10;
const REPEATS: u64 = 2;

/// Reference grid over the first `take` corpus DAGs: every cell through
/// the cold per-cell path, sorted into the canonical (dag, variant, algo)
/// order the grid drivers promise.
fn reference_cells(h: &Harness, take: usize, repeats: u64) -> Vec<CellResult> {
    let corpus = h.corpus();
    let mut cells = Vec::new();
    for g in corpus.iter().take(take) {
        for variant in SimVariant::ALL {
            for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
                cells.push(h.run_one_reference(g, variant, algo, repeats));
            }
        }
    }
    sorted(cells)
}

/// `Debug` output of f64 round-trips (shortest representation that parses
/// back to the same bits), so string equality here is bit equality of
/// every makespan, run list, and outcome.
fn render(cells: &[CellResult]) -> String {
    format!("{cells:?}")
}

#[test]
fn batched_grid_is_byte_identical_to_reference_for_any_worker_count() {
    let h = Harness::new(2011);
    let reference = render(&reference_cells(&h, TAKE, REPEATS));
    for workers in [1, 2, Harness::default_workers()] {
        let batched = render(&h.run_subset_with_workers(TAKE, REPEATS, workers));
        assert_eq!(
            batched, reference,
            "batched grid diverged from per-cell reference at workers={workers}"
        );
    }
}

#[test]
fn batched_grid_matches_reference_under_a_fault_plan() {
    let plan = FaultPlan::builder(3)
        .node_crash(HostId(0), 0.0, 50.0)
        .task_failure(0.02)
        .node_slowdown(HostId(2), 10.0, 1.5)
        .build();
    let h = Harness::new(7)
        .with_fault_plan(plan)
        .with_exec_policy(ExecPolicy {
            max_retries: 4,
            ..ExecPolicy::default()
        });
    let reference = render(&reference_cells(&h, TAKE, REPEATS));
    for workers in [1, 2] {
        let batched = render(&h.run_subset_with_workers(TAKE, REPEATS, workers));
        assert_eq!(
            batched, reference,
            "faulty batched grid diverged from reference at workers={workers}"
        );
    }
}

#[test]
fn zero_intensity_disturbance_is_byte_identical_to_the_plain_grid() {
    // The determinism guard for the disturbance subsystem: an intensity-0
    // plan generates no events and `with_disturbance` drops it entirely,
    // so the grid is byte-identical to a harness that never heard of
    // disturbances, at any worker count.
    let plain = Harness::new(2011);
    let reference = render(&reference_cells(&plain, TAKE, REPEATS));
    let zero = Harness::new(2011).with_disturbance(DisturbConfig::new(
        DisturbancePlan::with_intensity(2011, 0.0),
        RecoveryPolicy::Rescue,
    ));
    assert!(
        zero.disturb.is_none(),
        "an empty disturbance plan must be dropped, not carried"
    );
    for workers in [1, 2, Harness::default_workers()] {
        let batched = render(&zero.run_subset_with_workers(TAKE, REPEATS, workers));
        assert_eq!(
            batched, reference,
            "zero-intensity grid diverged from the plain grid at workers={workers}"
        );
    }
}

#[test]
fn poison_cells_are_quarantined_without_disturbing_neighbours() {
    // The reference harness has no poison; the batched harness poisons one
    // cell. Every other cell must still be byte-identical, and the
    // poisoned cell must surface as a crash-family outcome under its
    // canonical key (its crash report embeds wall time, so only the
    // key/label is comparable).
    let clean = Harness::new(2011);
    let reference = reference_cells(&clean, TAKE, REPEATS);
    let needle = format!("{}/n{}/analytic/HCPA", reference[0].dag, reference[0].n);
    let poisoned_h =
        Harness::new(2011).with_poison(parse_poison_spec(&format!("{needle}=panic")).unwrap());
    for workers in [1, 2] {
        let cells = poisoned_h.run_subset_with_workers(TAKE, REPEATS, workers);
        assert_eq!(cells.len(), reference.len());
        let mut crashed = 0usize;
        for (got, want) in cells.iter().zip(&reference) {
            let key = got.key(REPEATS);
            if key.contains(&needle) {
                crashed += 1;
                assert!(
                    !got.succeeded(),
                    "poisoned cell {key} reported success at workers={workers}"
                );
                assert_eq!(key, want.key(REPEATS));
            } else {
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "non-poisoned cell {key} diverged at workers={workers}"
                );
            }
        }
        assert_eq!(crashed, 1, "exactly one cell should match the poison rule");
    }
}

/// FNV-1a-64 over the grid's `Debug` rendering: one number for every f64
/// bit of every cell.
fn grid_hash(cells: &[CellResult]) -> u64 {
    mps_core::journal::fnv64(render(cells).as_bytes())
}

#[test]
fn the_paper_grid_hash_is_pinned() {
    let h = Harness::new(2011);
    for workers in [1, 2] {
        let hash = grid_hash(&h.run_grid_with_workers(3, workers));
        assert_eq!(
            hash, 0xb0ec_1012_ae9a_fe8c,
            "paper grid hashed {hash:016x} at workers={workers}"
        );
    }
}

#[test]
fn the_hazard_grid_hash_and_health_are_pinned() {
    // Random faults with retries plus timed disturbances under rescue:
    // every recovery path of the executor runs somewhere in this grid.
    let h = Harness::new(2011)
        .with_fault_plan(FaultPlan::random(2011, 1.0, 32, 120.0))
        .with_exec_policy(ExecPolicy {
            max_retries: 6,
            ..ExecPolicy::default()
        })
        .with_disturbance(DisturbConfig::new(
            DisturbancePlan::with_intensity(2011, 1.0),
            RecoveryPolicy::Rescue,
        ));
    let cells = h.run_grid_with_workers(3, 2);
    let hash = grid_hash(&cells);
    assert_eq!(
        hash, 0x5caa_d507_7ba8_cc81,
        "hazard grid hashed {hash:016x}"
    );
    let health = mps_exp::grid_health(&cells);
    assert_eq!(
        (
            health.disturbed,
            health.rescues,
            health.rescued_tasks,
            health.crashes,
            health.retries
        ),
        (322, 372, 874, 551, 1176),
        "{health:?}"
    );
}

/// Canonical (dag, variant, algo) order, the order every grid API returns.
fn sorted(mut cells: Vec<CellResult>) -> Vec<CellResult> {
    cells.sort_by(|a, b| {
        a.dag
            .cmp(&b.dag)
            .then_with(|| a.variant.name().cmp(b.variant.name()))
            .then_with(|| a.algo.cmp(&b.algo))
    });
    cells
}

/// Streams one `SubsetGrid` request through a serve backend, returning
/// the `(key, payload)` pairs in stream order and the request summary.
fn serve_grid(
    backend: &mps_exp::ServeBackend,
    take: usize,
    repeats: u64,
) -> (Vec<(String, String)>, mps_core::serve::WorkSummary) {
    use mps_core::serve::{Backend, WorkRequest};
    let work = WorkRequest::SubsetGrid {
        take,
        repeats,
        disturb: None,
    };
    let mut stream = Vec::new();
    let summary = backend
        .execute(
            &work,
            &mps_core::journal::RunControl::unlimited(),
            &mut |k, p| {
                stream.push((k.to_string(), p.to_string()));
                true
            },
        )
        .expect("subset grid request");
    (stream, summary)
}

fn parse_stream(stream: &[(String, String)]) -> Vec<CellResult> {
    sorted(
        stream
            .iter()
            .map(|(_, p)| serde_json::from_str(p).expect("cell payload parses"))
            .collect(),
    )
}

#[test]
fn every_in_process_driver_matches_the_in_memory_grid() {
    const SUBSET: usize = 2;
    const REPEATS: u64 = 1;
    let dir = std::env::temp_dir().join(format!("mps-grid-drivers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ctrl = mps_core::journal::RunControl::unlimited();

    let h = Harness::new(7);
    let want = render(&h.run_subset_with_workers(SUBSET, REPEATS, 1));
    for workers in [1, 2] {
        assert_eq!(
            render(&h.run_subset_with_workers(SUBSET, REPEATS, workers)),
            want,
            "in-memory grid at workers={workers}"
        );
        let path = dir.join(format!("grid-w{workers}.jl"));
        let journaled = h
            .run_grid_journaled(Some(SUBSET), &path, REPEATS, workers, false, &ctrl)
            .unwrap();
        assert_eq!(
            render(&journaled.cells),
            want,
            "journaled grid at workers={workers}"
        );
    }

    // Ephemeral daemon: the streamed cells, parsed back, are the grid.
    let ephemeral = mps_exp::ServeBackend::new(Harness::new(7));
    let (stream, summary) = serve_grid(&ephemeral, SUBSET, REPEATS);
    assert_eq!(
        render(&parse_stream(&stream)),
        want,
        "ephemeral daemon grid"
    );
    assert_eq!((summary.computed, summary.resumed), (12, 0));
    assert_eq!(summary.status, "complete");

    // Journaled daemon: same cells, streamed as the journal's own bytes,
    // and a resubmission replays the stream byte for byte.
    let state = dir.join("state");
    let durable = mps_exp::ServeBackend::new(Harness::new(7)).with_state_dir(state.clone());
    let (first, summary) = serve_grid(&durable, SUBSET, REPEATS);
    assert_eq!(render(&parse_stream(&first)), want, "journaled daemon grid");
    assert_eq!((summary.computed, summary.resumed), (12, 0));
    let journal = std::fs::read_dir(&state)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|x| x == "jl"))
        .expect("request journal");
    let records = mps_core::journal::recover(&journal).unwrap().records;
    assert_eq!(first, records, "streamed payloads are the journal's bytes");
    let (again, summary) = serve_grid(&durable, SUBSET, REPEATS);
    assert_eq!((summary.computed, summary.resumed), (0, 12));
    assert_eq!(again, first, "resubmission replays byte for byte");
    let _ = std::fs::remove_dir_all(&dir);
}
