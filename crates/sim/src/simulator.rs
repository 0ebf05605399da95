//! The three simulator versions: a [`PerfModel`] plugged into the shared
//! schedule executor.
//!
//! `Simulator::schedule_and_simulate` reproduces the paper's §V-A pipeline:
//! the simulator receives a DAG and an algorithm, computes the schedule
//! (under its own model), and reports the simulated makespan. The schedule
//! is then handed to the execution environment (the emulated testbed) for
//! the "experiment" side of each figure.

use mps_dag::{Dag, TaskId};
use mps_faults::DisturbReport;
use mps_kernels::Kernel;
use mps_model::PerfModel;
use mps_platform::{Cluster, HostId};
use mps_sched::{AllocKey, AllocationEngine, Schedule, Scheduler};

use crate::executor::{
    execute, execute_prevalidated, validate_schedule, DisturbSetup, ExecError, ExecPolicy,
    ExecSlab, ExecutionModel, ExecutionResult, TaskExecution,
};

/// Adapter: a deterministic [`PerfModel`] as an [`ExecutionModel`].
#[derive(Debug, Clone)]
pub struct ModelExecution<M> {
    model: M,
}

impl<M: PerfModel> ModelExecution<M> {
    /// Wraps a performance model.
    pub fn new(model: M) -> Self {
        ModelExecution { model }
    }
}

impl<M: PerfModel> ExecutionModel for ModelExecution<M> {
    fn task_execution(&mut self, _task: TaskId, kernel: Kernel, hosts: &[HostId]) -> TaskExecution {
        if self.model.simulate_task_analytically() {
            TaskExecution::Analytic
        } else {
            TaskExecution::Fixed(self.model.task_time(kernel, hosts.len()))
        }
    }

    fn startup_overhead(&mut self, _task: TaskId, p: usize) -> f64 {
        self.model.startup_overhead(p)
    }

    fn redist_overhead(&mut self, p_src: usize, p_dst: usize) -> f64 {
        self.model.redist_overhead(p_src, p_dst)
    }

    fn fixed_tasks_only(&self) -> bool {
        !self.model.simulate_task_analytically()
    }
}

/// A simulator: platform + performance model.
#[derive(Debug, Clone)]
pub struct Simulator<M> {
    cluster: Cluster,
    model: M,
}

/// The result of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOutcome {
    /// The schedule that was simulated.
    pub schedule: Schedule,
    /// The simulated execution.
    pub result: ExecutionResult,
}

impl<M: PerfModel + Clone> Simulator<M> {
    /// Builds a simulator.
    pub fn new(cluster: Cluster, model: M) -> Self {
        Simulator { cluster, model }
    }

    /// The model's name (`analytic`, `profile`, `empirical`).
    pub fn model_name(&self) -> &'static str {
        self.model.name()
    }

    /// The platform.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Simulates an existing schedule.
    pub fn simulate(&self, dag: &Dag, schedule: &Schedule) -> Result<ExecutionResult, ExecError> {
        let mut exec_model = ModelExecution::new(&self.model);
        execute(dag, &self.cluster, schedule, &mut exec_model)
    }

    /// [`Simulator::simulate`] reusing a caller-owned [`ExecSlab`]:
    /// bit-identical results, but the L07 simulator and executor buffers
    /// stay warm across calls instead of being rebuilt per execution.
    pub fn simulate_with_slab(
        &self,
        slab: &mut ExecSlab,
        dag: &Dag,
        schedule: &Schedule,
    ) -> Result<ExecutionResult, ExecError> {
        validate_schedule(dag, &self.cluster, schedule)?;
        let mut exec_model = ModelExecution::new(&self.model);
        execute_prevalidated(
            slab,
            dag,
            &self.cluster,
            schedule,
            &mut exec_model,
            &ExecPolicy::default(),
            DisturbSetup::none(),
            &mut DisturbReport::default(),
        )
    }

    /// The full §V-A pipeline: schedule with `algorithm` under this model,
    /// then simulate the schedule.
    pub fn schedule_and_simulate(
        &self,
        dag: &Dag,
        algorithm: &dyn Scheduler,
    ) -> Result<SimOutcome, ExecError> {
        let mut engine = AllocationEngine::new();
        self.schedule_and_simulate_with_engine(dag, algorithm, &mut engine)
    }

    /// [`Simulator::schedule_and_simulate`] reusing a caller-owned
    /// [`AllocationEngine`] — bit-identical results (the engine resets per
    /// call), but a warm engine skips the per-request buffer allocations.
    pub fn schedule_and_simulate_with_engine(
        &self,
        dag: &Dag,
        algorithm: &dyn Scheduler,
        engine: &mut AllocationEngine,
    ) -> Result<SimOutcome, ExecError> {
        let schedule = algorithm.schedule_with_engine(dag, &self.cluster, &self.model, engine);
        let result = self.simulate(dag, &schedule)?;
        Ok(SimOutcome { schedule, result })
    }

    /// The fully warmed pipeline: schedule with a caller-owned
    /// [`AllocationEngine`] and simulate in a caller-owned [`ExecSlab`].
    /// Bit-identical to [`Simulator::schedule_and_simulate`].
    pub fn schedule_and_simulate_with_slabs(
        &self,
        dag: &Dag,
        algorithm: &dyn Scheduler,
        engine: &mut AllocationEngine,
        slab: &mut ExecSlab,
    ) -> Result<SimOutcome, ExecError> {
        let schedule = algorithm.schedule_with_engine(dag, &self.cluster, &self.model, engine);
        let result = self.simulate_with_slab(slab, dag, &schedule)?;
        Ok(SimOutcome { schedule, result })
    }

    /// [`Simulator::schedule_and_simulate_with_slabs`] with an
    /// [`AllocKey`]: consecutive calls sharing the key (same DAG, same
    /// model) carry the engine's τ-table across algorithms — bit-identical
    /// outcomes, fewer model evaluations. See
    /// [`mps_sched::AllocationEngine::allocate_keyed`] for the key
    /// contract.
    pub fn schedule_and_simulate_keyed(
        &self,
        dag: &Dag,
        algorithm: &dyn Scheduler,
        key: AllocKey,
        engine: &mut AllocationEngine,
        slab: &mut ExecSlab,
    ) -> Result<SimOutcome, ExecError> {
        let schedule =
            algorithm.schedule_with_keyed_engine(dag, &self.cluster, &self.model, engine, key);
        let result = self.simulate_with_slab(slab, dag, &schedule)?;
        Ok(SimOutcome { schedule, result })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_dag::gen::{paper_corpus, PAPER_CORPUS_SEED};
    use mps_dag::Dag;
    use mps_model::{AnalyticModel, EmpiricalModel};
    use mps_sched::{Hcpa, Mcpa, ScheduledTask};

    fn single_task_dag(n: usize) -> Dag {
        Dag::new(vec![Kernel::MatMul { n }], &[]).unwrap()
    }

    #[test]
    fn analytic_simulation_of_single_serial_task() {
        let dag = single_task_dag(2000);
        let sim = Simulator::new(Cluster::bayreuth(), AnalyticModel::paper_jvm());
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![ScheduledTask {
                task: TaskId(0),
                hosts: vec![HostId(0)],
                est_start: 0.0,
                est_finish: 64.0,
            }],
            est_makespan: 64.0,
        };
        let r = sim.simulate(&dag, &schedule).unwrap();
        // 2·2000³ / 250 MFlop/s = 64 s, no overheads.
        assert!((r.makespan - 64.0).abs() < 1e-6, "makespan {}", r.makespan);
    }

    #[test]
    fn analytic_parallel_task_includes_ring_communication() {
        let dag = single_task_dag(2000);
        let sim = Simulator::new(Cluster::bayreuth(), AnalyticModel::paper_jvm());
        let hosts: Vec<HostId> = (0..8).map(HostId).collect();
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![ScheduledTask {
                task: TaskId(0),
                hosts,
                est_start: 0.0,
                est_finish: 8.0,
            }],
            est_makespan: 8.0,
        };
        let r = sim.simulate(&dag, &schedule).unwrap();
        // CPU-bound at 8 s (see mps-l07 tests); ring comm fits beneath.
        assert!(r.makespan >= 8.0);
        assert!(r.makespan < 8.1, "makespan {}", r.makespan);
    }

    #[test]
    fn empirical_simulation_charges_overheads() {
        let dag = single_task_dag(2000);
        let sim = Simulator::new(Cluster::bayreuth(), EmpiricalModel::table_ii());
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![ScheduledTask {
                task: TaskId(0),
                hosts: vec![HostId(0)],
                est_start: 0.0,
                est_finish: 1.0,
            }],
            est_makespan: 1.0,
        };
        let r = sim.simulate(&dag, &schedule).unwrap();
        // Table II: task time 239.44/2 + 3.43 ≈ 123.15, startup 0.68.
        let expect = 239.44 / 2.0 + 3.43 + 0.68;
        assert!(
            (r.makespan - expect).abs() < 1e-6,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn chain_with_redistribution() {
        // t0 (2 hosts) -> t1 (1 host): redistribution moves half the matrix
        // from the non-shared host.
        let dag = Dag::new(
            vec![Kernel::MatMul { n: 2000 }, Kernel::MatAdd { n: 2000 }],
            &[(TaskId(0), TaskId(1))],
        )
        .unwrap();
        let sim = Simulator::new(Cluster::bayreuth(), AnalyticModel::paper_jvm());
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![
                ScheduledTask {
                    task: TaskId(0),
                    hosts: vec![HostId(0), HostId(1)],
                    est_start: 0.0,
                    est_finish: 32.0,
                },
                ScheduledTask {
                    task: TaskId(1),
                    hosts: vec![HostId(0)],
                    est_start: 32.0,
                    est_finish: 40.5,
                },
            ],
            est_makespan: 40.5,
        };
        let r = sim.simulate(&dag, &schedule).unwrap();
        // t0: compute 2n³/2 = 8e9 flops/host → 32 s; ring comm (2 hosts)
        // fits under it? Edge bytes: (p−1)·(n²/p)·8 = 16 MB each way; the
        // backbone carries 32 MB → 0.256 s < 32 s, so t0 = 32 s + latency.
        // redist to host 0: host 1's half (16 MB) over the network ≈
        // 0.128 s + latency. t1: (2000/4)·(2000²/1) flops = 2e9 → 8 s.
        let expect = 32.0 + 0.128 + 8.0;
        assert!(
            (r.makespan - expect).abs() < 0.01,
            "makespan {} vs {expect}",
            r.makespan
        );
        // Spans are ordered.
        assert!(r.task_spans[0].1 <= r.task_spans[1].0 + 1e-9);
    }

    #[test]
    fn full_pipeline_on_corpus_dags() {
        let cluster = Cluster::bayreuth();
        for model_name in ["analytic", "empirical"] {
            for g in paper_corpus(PAPER_CORPUS_SEED).iter().take(6) {
                let outcome = match model_name {
                    "analytic" => Simulator::new(cluster.clone(), AnalyticModel::paper_jvm())
                        .schedule_and_simulate(&g.dag, &Hcpa)
                        .unwrap(),
                    _ => Simulator::new(cluster.clone(), EmpiricalModel::table_ii())
                        .schedule_and_simulate(&g.dag, &Hcpa)
                        .unwrap(),
                };
                assert!(outcome.result.makespan > 0.0);
                assert!(outcome.result.makespan.is_finite());
                // Every task ran.
                assert!(outcome
                    .result
                    .task_spans
                    .iter()
                    .all(|&(s, f)| f >= s && f > 0.0));
            }
        }
    }

    #[test]
    fn hcpa_vs_mcpa_relative_makespans_are_finite_on_corpus() {
        let cluster = Cluster::bayreuth();
        let sim = Simulator::new(cluster, AnalyticModel::paper_jvm());
        let mut diffs = 0;
        for g in paper_corpus(PAPER_CORPUS_SEED).iter().take(10) {
            let h = sim.schedule_and_simulate(&g.dag, &Hcpa).unwrap();
            let m = sim.schedule_and_simulate(&g.dag, &Mcpa).unwrap();
            let rel = (h.result.makespan - m.result.makespan) / m.result.makespan;
            assert!(rel.is_finite());
            if rel.abs() > 1e-9 {
                diffs += 1;
            }
        }
        assert!(diffs > 0, "the two algorithms should differ somewhere");
    }

    #[test]
    fn empty_dag_executes_trivially() {
        let dag = Dag::new(vec![], &[]).unwrap();
        let sim = Simulator::new(Cluster::bayreuth(), AnalyticModel::paper_jvm());
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![],
            est_makespan: 0.0,
        };
        let r = sim.simulate(&dag, &schedule).unwrap();
        assert_eq!(r.makespan, 0.0);
    }

    #[test]
    fn invalid_schedule_is_rejected() {
        let dag = single_task_dag(2000);
        let sim = Simulator::new(Cluster::bayreuth(), AnalyticModel::paper_jvm());
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![],
            est_makespan: 0.0,
        };
        assert!(matches!(
            sim.simulate(&dag, &schedule).unwrap_err(),
            ExecError::InvalidSchedule(_)
        ));
    }
}
