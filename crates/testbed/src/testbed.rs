//! The emulated execution environment ("the experiment").
//!
//! [`Testbed::execute`] plays the role of the paper's real cluster run: it
//! executes a schedule with the **hidden ground-truth** quantities
//! (including run-to-run noise) on a network derated to realistic TCP
//! efficiency. The same execution engine as the simulators is used
//! (`mps-sim::executor`), so any makespan difference comes from the
//! *quantities*, which is precisely the effect the paper studies.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rand_distr::{Distribution, LogNormal};

use mps_dag::{Dag, TaskId};
use mps_faults::{DisturbReport, FaultModel, FaultPlan, ScriptedFaults};
use mps_kernels::Kernel;
use mps_platform::{Cluster, ClusterSpec, HostId};
use mps_sched::Schedule;
use mps_sim::{
    execute_prevalidated, validate_schedule, DisturbSetup, ExecError, ExecPolicy, ExecSlab,
    ExecutionModel, ExecutionResult, TaskExecution,
};

use crate::ground_truth::GroundTruth;

/// Relative run-to-run noise (log-normal σ) of task executions.
pub const TASK_NOISE_SIGMA: f64 = 0.035;
/// Relative noise of startup measurements.
pub const STARTUP_NOISE_SIGMA: f64 = 0.08;
/// Relative noise of redistribution overhead measurements.
pub const REDIST_NOISE_SIGMA: f64 = 0.06;

/// The emulated cluster + runtime environment.
#[derive(Debug, Clone)]
pub struct Testbed {
    truth: GroundTruth,
    cluster: Cluster,
    /// Base seed: every execution/measurement derives its noise stream
    /// from this plus a caller-provided run seed.
    pub base_seed: u64,
}

impl Testbed {
    /// The emulated Bayreuth cluster (32 nodes), with network bandwidth
    /// derated by the ground truth's TCP efficiency.
    pub fn bayreuth(base_seed: u64) -> Self {
        Self::with_truth(GroundTruth::bayreuth(), base_seed)
    }

    /// A testbed over an explicit ground truth.
    pub fn with_truth(truth: GroundTruth, base_seed: u64) -> Self {
        let mut spec = ClusterSpec::bayreuth();
        spec.link_bandwidth *= truth.network_efficiency;
        spec.backbone_bandwidth *= truth.network_efficiency;
        Testbed {
            truth,
            cluster: spec.build().expect("derated spec is valid"),
            base_seed,
        }
    }

    /// The *nominal* platform a simulator would be configured with
    /// (undeterated network) — what the paper's authors typed into their
    /// SimGrid platform file.
    pub fn nominal_cluster(&self) -> Cluster {
        Cluster::bayreuth()
    }

    /// The hidden truth — test-only introspection. Simulation code must
    /// not call this; use the measurement APIs.
    pub fn ground_truth(&self) -> &GroundTruth {
        &self.truth
    }

    /// The emulated (derated) platform the testbed executes on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    fn rng_for(&self, stream: u64, run: u64) -> StdRng {
        StdRng::seed_from_u64(
            self.base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(stream)
                .rotate_left(17)
                .wrapping_add(run),
        )
    }

    /// Executes a schedule "for real" and reports the measured result.
    /// Deterministic in `(self.base_seed, run_seed)`.
    pub fn execute(
        &self,
        dag: &Dag,
        schedule: &Schedule,
        run_seed: u64,
    ) -> Result<ExecutionResult, ExecError> {
        validate_schedule(dag, &self.cluster, schedule)?;
        self.execute_prevalidated_with_slab(&mut ExecSlab::new(), dag, schedule, run_seed)
    }

    /// [`Testbed::execute`] reusing a caller-owned [`ExecSlab`], skipping
    /// the schedule-validation pass. Bit-identical to [`Testbed::execute`]
    /// **provided** the caller has already validated `schedule` against
    /// `dag` and a 32-node cluster (validation only consults the node
    /// count, so validating against the nominal cluster covers the derated
    /// one). The harness validates once per cell and then runs the same
    /// schedule once in the simulator and several times here.
    pub fn execute_prevalidated_with_slab(
        &self,
        slab: &mut ExecSlab,
        dag: &Dag,
        schedule: &Schedule,
        run_seed: u64,
    ) -> Result<ExecutionResult, ExecError> {
        self.execute_disturbed_prevalidated_with_slab(
            slab,
            dag,
            schedule,
            run_seed,
            None,
            &ExecPolicy::default(),
            DisturbSetup::none(),
            &mut DisturbReport::default(),
        )
    }

    /// [`Testbed::execute`] under an injected [`FaultPlan`]: the run plays
    /// out with the same hidden ground-truth quantities, but nodes crash,
    /// slow down, and links degrade as the plan scripts. Retries, backoff,
    /// and the watchdog come from `policy`. Deterministic in
    /// `(self.base_seed, run_seed, plan)`.
    pub fn execute_with_faults(
        &self,
        dag: &Dag,
        schedule: &Schedule,
        run_seed: u64,
        plan: &FaultPlan,
        policy: &ExecPolicy,
    ) -> Result<ExecutionResult, ExecError> {
        validate_schedule(dag, &self.cluster, schedule)?;
        self.execute_disturbed_prevalidated_with_slab(
            &mut ExecSlab::new(),
            dag,
            schedule,
            run_seed,
            Some(plan),
            policy,
            DisturbSetup::none(),
            &mut DisturbReport::default(),
        )
    }

    /// The testbed's one run path: [`Testbed::execute`] under timed
    /// platform disturbances, where hosts crash, slow down, and links
    /// degrade mid-run as `setup.plan` scripts, and crashes trigger
    /// `setup.recovery` (see [`DisturbSetup`]). When `faults` is given,
    /// launch-failure / straggler injection composes with the
    /// disturbances. Every other `execute*` method is this one with no
    /// faults and/or [`DisturbSetup::none`]. Skips schedule validation
    /// (same caller contract as
    /// [`Testbed::execute_prevalidated_with_slab`]). Deterministic in
    /// `(self.base_seed, run_seed, plans)`; `report` accrues fired and
    /// recovery counters even when the run fails typed.
    #[allow(clippy::too_many_arguments)]
    pub fn execute_disturbed_prevalidated_with_slab(
        &self,
        slab: &mut ExecSlab,
        dag: &Dag,
        schedule: &Schedule,
        run_seed: u64,
        faults: Option<&FaultPlan>,
        policy: &ExecPolicy,
        setup: DisturbSetup<'_>,
        report: &mut DisturbReport,
    ) -> Result<ExecutionResult, ExecError> {
        let mut model = TestbedRun {
            faults: faults.map(|plan| ScriptedFaults::new(plan.clone())),
            ..TestbedRun::new(&self.truth, self.rng_for(0xE0EC, run_seed))
        };
        execute_prevalidated(
            slab,
            dag,
            &self.cluster,
            schedule,
            &mut model,
            policy,
            setup,
            report,
        )
    }

    /// One timed run of a single kernel at allocation `p` (the §VI
    /// brute-force profiling primitive). Includes startup overhead, as a
    /// stopwatch around a TGrid task launch would.
    pub fn time_task_once(&self, kernel: Kernel, p: usize, trial: u64) -> f64 {
        let mut rng = self.rng_for(0x5A5C ^ kernel.n() as u64 ^ ((p as u64) << 40), trial);
        let noise = LogNormal::new(0.0, TASK_NOISE_SIGMA).expect("valid sigma");
        self.truth.task_time_mean(kernel, p) * noise.sample(&mut rng)
    }

    /// One no-op task launch measurement (Figure 3's primitive).
    pub fn time_startup_once(&self, p: usize, trial: u64) -> f64 {
        let mut rng = self.rng_for(0x57A7 ^ ((p as u64) << 32), trial);
        let noise = LogNormal::new(0.0, STARTUP_NOISE_SIGMA).expect("valid sigma");
        self.truth.startup_mean(p) * noise.sample(&mut rng)
    }

    /// One empty-matrix redistribution measurement (Figure 4's primitive).
    pub fn time_redistribution_once(&self, p_src: usize, p_dst: usize, trial: u64) -> f64 {
        let mut rng = self.rng_for(
            0x4ED1 ^ ((p_src as u64) << 32) ^ ((p_dst as u64) << 16),
            trial,
        );
        let noise = LogNormal::new(0.0, REDIST_NOISE_SIGMA).expect("valid sigma");
        self.truth.redist_mean(p_src, p_dst) * noise.sample(&mut rng)
    }
}

/// The per-run execution model: ground truth + fresh noise, plus the
/// run's injected faults, if any.
///
/// The noise distributions are built once per run, not per sample — the
/// parameters are constants, and sampling depends only on the RNG state,
/// so the drawn values are unchanged.
struct TestbedRun<'a> {
    truth: &'a GroundTruth,
    rng: StdRng,
    task_noise: LogNormal,
    startup_noise: LogNormal,
    redist_noise: LogNormal,
    faults: Option<ScriptedFaults>,
}

impl<'a> TestbedRun<'a> {
    fn new(truth: &'a GroundTruth, rng: StdRng) -> Self {
        TestbedRun {
            truth,
            rng,
            task_noise: LogNormal::new(0.0, TASK_NOISE_SIGMA).expect("valid sigma"),
            startup_noise: LogNormal::new(0.0, STARTUP_NOISE_SIGMA).expect("valid sigma"),
            redist_noise: LogNormal::new(0.0, REDIST_NOISE_SIGMA).expect("valid sigma"),
            faults: None,
        }
    }
}

impl ExecutionModel for TestbedRun<'_> {
    fn task_execution(&mut self, _task: TaskId, kernel: Kernel, hosts: &[HostId]) -> TaskExecution {
        let t =
            self.truth.task_time_mean(kernel, hosts.len()) * self.task_noise.sample(&mut self.rng);
        TaskExecution::Fixed(t)
    }

    fn startup_overhead(&mut self, _task: TaskId, p: usize) -> f64 {
        self.truth.startup_mean(p) * self.startup_noise.sample(&mut self.rng)
    }

    fn redist_overhead(&mut self, p_src: usize, p_dst: usize) -> f64 {
        self.truth.redist_mean(p_src, p_dst) * self.redist_noise.sample(&mut self.rng)
    }

    fn fault_model(&mut self) -> Option<&mut dyn FaultModel> {
        self.faults.as_mut().map(|f| f as &mut dyn FaultModel)
    }

    fn fixed_tasks_only(&self) -> bool {
        true
    }
}

/// The emulated Cray XT4 / PDGEMM environment of Figure 2 (right): a
/// well-tuned BLAS on a fast machine, so the analytic model errs by only
/// ≈ 10–20 % — but still errs.
#[derive(Debug, Clone, Copy)]
pub struct CrayPdgemmEnv {
    /// Measured machine rate (flops/s) — the paper's 4165.3 MFLOPS.
    pub flops_per_sec: f64,
    /// Seed of the deviation pattern.
    pub machine_seed: u64,
}

impl Default for CrayPdgemmEnv {
    fn default() -> Self {
        CrayPdgemmEnv {
            flops_per_sec: 4165.3e6,
            machine_seed: 0,
        }
    }
}

impl CrayPdgemmEnv {
    /// "Measured" PDGEMM execution time for an `n × n` multiplication on
    /// `p` cores: the analytic time times a structured deviation whose
    /// average magnitude oscillates around 10 % and peaks near 20 %.
    pub fn measured_time(&self, n: usize, p: usize) -> f64 {
        let analytic = 2.0 * (n as f64).powi(3) / (p as f64 * self.flops_per_sec);
        let dev = crate::ground_truth::hash_noise(&[self.machine_seed, 0xC4A1, n as u64, p as u64]);
        // Mean |dev| of a uniform [-1,1] is 0.5 → scale 0.2 gives ~10 %
        // average error, ~20 % max.
        analytic * (1.0 + 0.2 * dev)
    }

    /// The analytic prediction `2n³/p / rate`.
    pub fn analytic_time(&self, n: usize, p: usize) -> f64 {
        2.0 * (n as f64).powi(3) / (p as f64 * self.flops_per_sec)
    }
}

#[cfg(test)]
impl Testbed {
    /// Test-only alias (exercises `with_truth`).
    fn bayreyth_alias_for_test() -> Self {
        Testbed::with_truth(GroundTruth::bayreuth(), 2024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_dag::gen::{paper_corpus, PAPER_CORPUS_SEED};
    use mps_model::{AnalyticModel, PerfModel};
    use mps_sched::{Hcpa, Scheduler};

    #[test]
    fn execution_is_reproducible_per_seed() {
        let tb = Testbed::bayreuth(42);
        let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
        let model = AnalyticModel::paper_jvm();
        let schedule = Hcpa.schedule(&g.dag, &tb.nominal_cluster(), &model);
        let a = tb.execute(&g.dag, &schedule, 1).unwrap();
        let b = tb.execute(&g.dag, &schedule, 1).unwrap();
        assert_eq!(a, b);
        let c = tb.execute(&g.dag, &schedule, 2).unwrap();
        assert_ne!(a.makespan, c.makespan);
        // Noise is small: runs agree within ~20 %.
        assert!((a.makespan - c.makespan).abs() / a.makespan < 0.2);
    }

    #[test]
    fn faulty_execution_is_reproducible_and_slower() {
        let tb = Testbed::bayreuth(42);
        let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
        let model = AnalyticModel::paper_jvm();
        let schedule = Hcpa.schedule(&g.dag, &tb.nominal_cluster(), &model);
        let healthy = tb.execute(&g.dag, &schedule, 1).unwrap();
        let plan = FaultPlan::builder(7)
            .node_crash(HostId(0), 0.0, healthy.makespan * 0.2)
            .node_slowdown(HostId(1), 0.0, 1.5)
            .build();
        let policy = ExecPolicy {
            max_retries: 8,
            ..ExecPolicy::default()
        };
        let a = tb
            .execute_with_faults(&g.dag, &schedule, 1, &plan, &policy)
            .unwrap();
        let b = tb
            .execute_with_faults(&g.dag, &schedule, 1, &plan, &policy)
            .unwrap();
        assert_eq!(a, b, "same seed + plan must be bit-identical");
        assert!(
            a.makespan > healthy.makespan,
            "faults should slow the run: {} vs {}",
            a.makespan,
            healthy.makespan
        );
        // An empty plan reproduces the healthy run exactly.
        let clean = tb
            .execute_with_faults(&g.dag, &schedule, 1, &FaultPlan::none(), &policy)
            .unwrap();
        assert_eq!(clean, healthy);
    }

    #[test]
    fn unsurvivable_fault_plan_yields_a_typed_error() {
        let tb = Testbed::bayreuth(42);
        let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
        let model = AnalyticModel::paper_jvm();
        let schedule = Hcpa.schedule(&g.dag, &tb.nominal_cluster(), &model);
        let plan = FaultPlan::builder(7).task_failure(1.0).build();
        let policy = ExecPolicy {
            max_retries: 1,
            ..ExecPolicy::default()
        };
        let err = tb
            .execute_with_faults(&g.dag, &schedule, 1, &plan, &policy)
            .unwrap_err();
        assert!(
            matches!(err, ExecError::TaskFailed { attempts: 2, .. }),
            "{err:?}"
        );
    }

    #[test]
    fn disturbed_execution_rescues_deterministically() {
        use mps_faults::{DisturbancePlan, RecoveryPolicy};
        use mps_sched::ScheduledTask;

        let tb = Testbed::bayreuth(42);
        let g = &paper_corpus(PAPER_CORPUS_SEED)[0];
        let model = AnalyticModel::paper_jvm();
        let schedule = Hcpa.schedule(&g.dag, &tb.nominal_cluster(), &model);
        let healthy = tb.execute(&g.dag, &schedule, 1).unwrap();
        // Crash a host mid-run; the rescue re-plan serializes everything
        // unfinished onto the first survivor.
        let plan = DisturbancePlan::builder(3)
            .crash(HostId(0), healthy.makespan * 0.3)
            .build();
        let dag = &g.dag;
        let run = || {
            let mut slab = ExecSlab::new();
            let mut report = DisturbReport::default();
            let mut replan = |survivors: &[HostId]| {
                let h = survivors[0];
                Some(mps_sched::Schedule {
                    algorithm: "rescue".into(),
                    tasks: dag
                        .task_ids()
                        .map(|t| ScheduledTask {
                            task: t,
                            hosts: vec![h],
                            est_start: 0.0,
                            est_finish: 1.0,
                        })
                        .collect(),
                    est_makespan: 1.0,
                })
            };
            let r = tb.execute_disturbed_prevalidated_with_slab(
                &mut slab,
                dag,
                &schedule,
                1,
                None,
                &ExecPolicy::default(),
                DisturbSetup {
                    plan: &plan,
                    recovery: RecoveryPolicy::Rescue,
                    rescue_overhead: 0.5,
                    replan: Some(&mut replan),
                },
                &mut report,
            );
            (r.unwrap(), report)
        };
        let (a, report_a) = run();
        let (b, report_b) = run();
        assert_eq!(a, b, "disturbed runs must be bit-identical per seed");
        assert_eq!(report_a, report_b);
        assert_eq!(report_a.crashes, 1);
        assert_eq!(report_a.rescues, 1);
        assert!(report_a.rescued_tasks >= 1);
        assert!(
            a.makespan > healthy.makespan,
            "losing a host cannot be free: {} vs {}",
            a.makespan,
            healthy.makespan
        );
        // An empty plan through the disturbed entry point reproduces the
        // healthy execution exactly.
        let mut slab = ExecSlab::new();
        let mut report = DisturbReport::default();
        let clean = tb
            .execute_disturbed_prevalidated_with_slab(
                &mut slab,
                dag,
                &schedule,
                1,
                None,
                &ExecPolicy::default(),
                DisturbSetup {
                    plan: &DisturbancePlan::none(),
                    recovery: RecoveryPolicy::Rescue,
                    rescue_overhead: 0.5,
                    replan: None,
                },
                &mut report,
            )
            .unwrap();
        assert_eq!(clean, healthy);
        assert_eq!(report.fired(), 0);
    }

    #[test]
    fn testbed_makespan_exceeds_analytic_simulation() {
        // The central premise: the experiment is much slower than the
        // analytic simulator predicts (underestimated task times + missing
        // overheads).
        let tb = Testbed::bayreuth(42);
        let model = AnalyticModel::paper_jvm();
        let sim = mps_sim::Simulator::new(tb.nominal_cluster(), model);
        let mut ratios = Vec::new();
        for g in paper_corpus(PAPER_CORPUS_SEED).iter().take(6) {
            let out = sim.schedule_and_simulate(&g.dag, &Hcpa).unwrap();
            let real = tb.execute(&g.dag, &out.schedule, 7).unwrap();
            assert!(
                real.makespan > out.result.makespan,
                "{}: real {} vs sim {}",
                g.name(),
                real.makespan,
                out.result.makespan
            );
            ratios.push(real.makespan / out.result.makespan);
        }
        let mean = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(mean > 1.3, "mean underestimation ratio {mean}: {ratios:?}");
    }

    #[test]
    fn measurement_primitives_are_reproducible_and_noisy() {
        let tb = Testbed::bayreuth(1);
        let k = Kernel::MatMul { n: 2000 };
        assert_eq!(tb.time_task_once(k, 4, 0), tb.time_task_once(k, 4, 0));
        assert_ne!(tb.time_task_once(k, 4, 0), tb.time_task_once(k, 4, 1));
        let mean = tb.ground_truth().task_time_mean(k, 4);
        for trial in 0..10 {
            let t = tb.time_task_once(k, 4, trial);
            assert!(
                (t / mean - 1.0).abs() < 0.25,
                "trial {trial}: {t} vs {mean}"
            );
        }
    }

    #[test]
    fn startup_measurements_average_to_the_curve() {
        let tb = Testbed::bayreuth(9);
        for p in [1usize, 8, 32] {
            let mean_meas: f64 = (0..40).map(|t| tb.time_startup_once(p, t)).sum::<f64>() / 40.0;
            let truth = tb.ground_truth().startup_mean(p);
            assert!(
                (mean_meas / truth - 1.0).abs() < 0.08,
                "p={p}: {mean_meas} vs {truth}"
            );
        }
    }

    #[test]
    fn redistribution_measurements_follow_p_dst() {
        let tb = Testbed::bayreuth(5);
        let avg = |p_src: usize, p_dst: usize| -> f64 {
            (0..10)
                .map(|t| tb.time_redistribution_once(p_src, p_dst, t))
                .sum::<f64>()
                / 10.0
        };
        assert!(avg(8, 32) > avg(8, 2));
    }

    #[test]
    fn cray_env_matches_figure_2_error_band() {
        let env = CrayPdgemmEnv::default();
        let mut errors = Vec::new();
        for n in [1024usize, 2048, 4096] {
            for p in 1..=32usize {
                let pred = env.analytic_time(n, p);
                let meas = env.measured_time(n, p);
                errors.push(((pred - meas) / meas).abs());
            }
        }
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        let max = errors.iter().copied().fold(0.0, f64::max);
        assert!(
            (0.05..=0.15).contains(&mean),
            "mean error {mean} should oscillate around 10 %"
        );
        assert!(max <= 0.27, "max error {max} should stay near 20 %");
    }

    #[test]
    fn derated_network_is_slower_than_nominal() {
        let tb = Testbed::bayreuth(0);
        let nominal = tb.nominal_cluster();
        let real = tb.cluster();
        let t_nominal = nominal.p2p_transfer_time(HostId(0), HostId(1), 32.0e6);
        let t_real = real.p2p_transfer_time(HostId(0), HostId(1), 32.0e6);
        assert!(t_real > 1.2 * t_nominal);
    }

    #[test]
    fn profile_model_built_from_truth_tracks_execution() {
        // A model that knows the exact means should track testbed makespans
        // closely (noise only) — the §VI result in miniature.
        let tb = Testbed::bayreyth_alias_for_test();
        let g = &paper_corpus(PAPER_CORPUS_SEED)[4];
        let truth = *tb.ground_truth();
        #[derive(Clone)]
        struct Oracle(GroundTruth);
        impl PerfModel for Oracle {
            fn name(&self) -> &'static str {
                "oracle"
            }
            fn task_time(&self, kernel: Kernel, p: usize) -> f64 {
                self.0.task_time_mean(kernel, p)
            }
            fn startup_overhead(&self, p: usize) -> f64 {
                self.0.startup_mean(p)
            }
            fn redist_overhead(&self, p_src: usize, p_dst: usize) -> f64 {
                self.0.redist_mean(p_src, p_dst)
            }
        }
        let sim = mps_sim::Simulator::new(tb.cluster().clone(), Oracle(truth));
        let out = sim.schedule_and_simulate(&g.dag, &Hcpa).unwrap();
        let real = tb.execute(&g.dag, &out.schedule, 3).unwrap();
        let rel = ((out.result.makespan - real.makespan) / real.makespan).abs();
        assert!(rel < 0.10, "oracle sim should be within 10 %: {rel}");
    }
}
