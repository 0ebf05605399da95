//! S4: property test — for *any* seeded I/O chaos plan, a journaled
//! subset run either completes with the exact uninterrupted-run grid, or
//! fails typed and resumes (against the real disk) to a byte-identical
//! grid. No plan may panic, wedge, or lose a durable cell.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;

use mps_core::faults::io::{ChaosIo, IoFaultPlan};
use mps_core::journal::RunControl;
use mps_exp::journaled::GridStatus;
use mps_exp::runner::Harness;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mps-chaos-props-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("grid.jl")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_chaos_plan_completes_or_resumes_byte_identically(
        seed in 0u64..1_000_000,
        intensity in 0.0f64..1.5,
    ) {
        let path = scratch(&format!("s{seed}-i{}", (intensity * 1000.0) as u64));
        let plan = IoFaultPlan::with_intensity(intensity);
        let chaos = ChaosIo::new(seed, plan);

        // The ground truth: the same grid with no journal at all.
        let baseline = Harness::new(7).run_subset(1, 1);
        let baseline_json = serde_json::to_string(&baseline).unwrap();

        let chaotic = Harness::new(7).with_io_env(Arc::new(chaos.clone()));
        // workers=1: a single journal-writer order makes the chaos op
        // sequence (and thus the injected faults) fully deterministic.
        match chaotic.run_grid_journaled(Some(1), &path, 1, 1, false, &RunControl::unlimited()) {
            Ok(grid) => {
                prop_assert_eq!(grid.status, GridStatus::Complete);
                let got = serde_json::to_string(&grid.cells).unwrap();
                prop_assert_eq!(got, baseline_json.clone());
            }
            Err(err) => {
                // Typed failure, and the plan really did inject something.
                let shown = err.to_string();
                prop_assert!(!shown.is_empty());
                prop_assert!(
                    chaos.injected().total() >= 1,
                    "failed with {} but injected nothing", shown
                );
            }
        }

        // Whatever happened above, a real-disk resume finishes the grid
        // and the result is byte-identical to the uninterrupted run.
        let real = Harness::new(7);
        let resumed = real
            .run_grid_journaled(Some(1), &path, 1, 1, path.exists(), &RunControl::unlimited())
            .unwrap();
        prop_assert_eq!(resumed.status, GridStatus::Complete);
        prop_assert_eq!(resumed.pending, 0);
        let got = serde_json::to_string(&resumed.cells).unwrap();
        prop_assert_eq!(got, baseline_json);
    }
}
