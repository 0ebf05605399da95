//! Event-driven schedule execution on the L07 platform.
//!
//! Shared by the three simulator versions *and* the emulated testbed: the
//! only difference between them is the [`ExecutionModel`] that supplies
//! task durations and overheads. Execution semantics follow the paper's
//! TGrid module (§III): tasks run in the schedule's order on their assigned
//! processor sets; when a task finishes, its output matrix is redistributed
//! to each successor's processor set (point-to-point transfers computed
//! from the 1-D block overlap); a task starts once
//!
//! 1. it is at the head of the queue of **every** host it uses (hosts
//!    execute their assigned tasks in schedule order), and
//! 2. the redistribution of every predecessor's output has completed.
//!
//! Task startup overhead (JVM spawning) and redistribution protocol
//! overhead (subnet-manager registration) are charged as fixed latencies;
//! data transfers flow through the L07 network model and contend on links.
//!
//! There is one execution loop, [`execute_prevalidated`]. Both hazard
//! models reach it: a [`FaultPlan`](mps_faults::FaultPlan) through
//! [`ExecutionModel::fault_model`] (launch failures with retry/backoff,
//! stragglers, launch-sampled slowdowns, degraded links), and a timed
//! [`DisturbancePlan`] through [`DisturbSetup`] (crashes, slow and degrade
//! windows, the recovery ladder). A healthy run is the same loop with no
//! fault model and an empty plan, which fires nothing.

use std::collections::HashMap;

use mps_dag::{Dag, TaskId};
use mps_des::{EngineError, Watchdog};
use mps_faults::{
    DisturbReport, Disturbance, DisturbancePlan, FaultModel, RecoveryPolicy, TaskDisposition,
};
use mps_kernels::{BlockDist1D, RedistPlan};
use mps_l07::{L07Error, L07Sim, PTaskCompletion, PTaskId, PTaskSpec};
use mps_platform::{Cluster, HostId};
use mps_sched::Schedule;

/// How one task's execution is simulated.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskExecution {
    /// Analytic: per-rank flop counts and the kernel's internal
    /// communication matrix go through the L07 engine (the §IV simulator).
    Analytic,
    /// A fixed wall-clock duration (profile/empirical models and the
    /// testbed's measured ground truth).
    Fixed(f64),
}

/// Supplies the concrete quantities for one execution run.
///
/// `&mut self` so stochastic environments (the testbed) can draw fresh
/// noise per task.
pub trait ExecutionModel {
    /// Execution mode/duration for a task on its host set.
    fn task_execution(
        &mut self,
        task: TaskId,
        kernel: mps_kernels::Kernel,
        hosts: &[HostId],
    ) -> TaskExecution;

    /// Startup overhead (seconds) charged before the task's execution.
    fn startup_overhead(&mut self, task: TaskId, p: usize) -> f64;

    /// Redistribution protocol overhead (seconds) for an edge from a
    /// `p_src`-processor producer to a `p_dst`-processor consumer.
    fn redist_overhead(&mut self, p_src: usize, p_dst: usize) -> f64;

    /// The fault environment this model executes under, if any.
    ///
    /// `None` (the default) means a healthy machine: every launch runs at
    /// full speed and links carry their nominal bytes, so the executor
    /// consults the model once per task and per edge. Implementations
    /// that emulate an unreliable environment (see `mps-testbed`) return a
    /// [`FaultModel`], and the executor consults it at every launch
    /// attempt and redistribution.
    fn fault_model(&mut self) -> Option<&mut dyn FaultModel> {
        None
    }

    /// True when [`ExecutionModel::task_execution`] never returns
    /// [`TaskExecution::Analytic`], so every task holding link weights in
    /// the simulator is a redistribution. The executor then lets the
    /// backbone alone carry redistribution weights on a healthy star whose
    /// backbone is its narrowest link (see [`execute_prevalidated`]). The
    /// default, `false`, is always safe.
    fn fixed_tasks_only(&self) -> bool {
        false
    }
}

/// Resilience policy for [`execute_with_policy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecPolicy {
    /// Retries allowed per task after its first attempt; exceeding the
    /// budget fails the execution with [`ExecError::TaskFailed`].
    pub max_retries: u32,
    /// Initial retry backoff (seconds of simulated time); attempt `k`
    /// waits `backoff_base · 2^k`, capped at [`ExecPolicy::backoff_cap`].
    pub backoff_base: f64,
    /// Upper bound on a single backoff wait (seconds).
    pub backoff_cap: f64,
    /// Optional divergence watchdog installed on the DES engine; trips
    /// as [`ExecError::Timeout`].
    pub watchdog: Option<Watchdog>,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            max_retries: 3,
            backoff_base: 0.5,
            backoff_cap: 30.0,
            watchdog: None,
        }
    }
}

/// Execution outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionResult {
    /// Application makespan (seconds).
    pub makespan: f64,
    /// Per-task `(start, finish)` times, indexed by task id. Start includes
    /// the startup overhead phase (of the first attempt, under faults).
    pub task_spans: Vec<(f64, f64)>,
    /// Per-task count of failed launch attempts that were retried
    /// (all-zero on a healthy machine).
    pub task_retries: Vec<u32>,
}

impl ExecutionResult {
    /// Total retries across all tasks.
    pub fn total_retries(&self) -> u32 {
        self.task_retries.iter().sum()
    }
}

/// Execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The schedule failed validation against the DAG/platform.
    InvalidSchedule(String),
    /// The underlying simulator failed.
    Sim(L07Error),
    /// The execution deadlocked or stopped progressing (should be
    /// impossible for valid schedules; reported defensively instead of
    /// hanging).
    Stalled {
        /// Tasks that never finished.
        unstarted: usize,
    },
    /// The [`Watchdog`] tripped: execution overran its simulated-time
    /// horizon or step budget.
    Timeout {
        /// Simulated time when the watchdog fired.
        time: f64,
    },
    /// A task exhausted its retry budget under injected faults.
    TaskFailed {
        /// The failing task.
        task: TaskId,
        /// Attempts made (first launch + retries).
        attempts: u32,
    },
    /// A host crash stranded unfinished work and the active
    /// [`RecoveryPolicy`] could not (or would not) repair the schedule.
    HostFailed {
        /// The crashed host.
        host: HostId,
        /// Unfinished tasks placed on it when it failed.
        stranded: usize,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::InvalidSchedule(e) => write!(f, "invalid schedule: {e}"),
            ExecError::Sim(e) => write!(f, "simulation error: {e}"),
            ExecError::Stalled { unstarted } => {
                write!(f, "execution stalled with {unstarted} unfinished tasks")
            }
            ExecError::Timeout { time } => {
                write!(f, "execution watchdog timed out at t={time}")
            }
            ExecError::TaskFailed { task, attempts } => {
                write!(f, "task {task} failed after {attempts} attempts")
            }
            ExecError::HostFailed { host, stranded } => {
                write!(f, "host {host} failed with {stranded} unfinished tasks")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<L07Error> for ExecError {
    fn from(e: L07Error) -> Self {
        match e {
            L07Error::Engine(EngineError::Timeout { time, .. }) => ExecError::Timeout { time },
            other => ExecError::Sim(other),
        }
    }
}

/// Wraps any [`ExecutionModel`] with a scripted fault environment.
///
/// Delegates every quantity to `inner` and exposes `faults` through
/// [`ExecutionModel::fault_model`], so the executor applies the plan's
/// crashes, slowdowns, launch failures, and link degradations on top of
/// the inner model's timings.
#[derive(Debug, Clone)]
pub struct FaultyExecution<M> {
    inner: M,
    faults: mps_faults::ScriptedFaults,
}

impl<M: ExecutionModel> FaultyExecution<M> {
    /// Wraps `inner` with the fault environment described by `faults`.
    pub fn new(inner: M, faults: mps_faults::ScriptedFaults) -> Self {
        FaultyExecution { inner, faults }
    }

    /// The wrapped model.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: ExecutionModel> ExecutionModel for FaultyExecution<M> {
    fn task_execution(
        &mut self,
        task: TaskId,
        kernel: mps_kernels::Kernel,
        hosts: &[HostId],
    ) -> TaskExecution {
        self.inner.task_execution(task, kernel, hosts)
    }

    fn startup_overhead(&mut self, task: TaskId, p: usize) -> f64 {
        self.inner.startup_overhead(task, p)
    }

    fn redist_overhead(&mut self, p_src: usize, p_dst: usize) -> f64 {
        self.inner.redist_overhead(p_src, p_dst)
    }

    fn fault_model(&mut self) -> Option<&mut dyn FaultModel> {
        Some(&mut self.faults)
    }

    fn fixed_tasks_only(&self) -> bool {
        self.inner.fixed_tasks_only()
    }
}

/// Configuration of the timed platform disturbances one execution runs
/// under.
pub struct DisturbSetup<'a> {
    /// The scripted platform disturbances.
    pub plan: &'a DisturbancePlan,
    /// Reaction to crashes that strand unfinished tasks.
    pub recovery: RecoveryPolicy,
    /// Simulated seconds charged to every re-planned task before it may
    /// relaunch — the re-plan's cost, accounted as virtual time.
    pub rescue_overhead: f64,
    /// Under [`RecoveryPolicy::Rescue`], produces a replacement schedule
    /// over the surviving hosts (in *original* host-id space, placed only
    /// on the given survivors). `None` / a `None` return fails the
    /// execution typed.
    #[allow(clippy::type_complexity)]
    pub replan: Option<&'a mut dyn FnMut(&[HostId]) -> Option<Schedule>>,
}

impl DisturbSetup<'_> {
    /// An undisturbed platform: the empty plan, which fires nothing, so
    /// the recovery settings are never consulted.
    pub fn none() -> Self {
        static EMPTY: DisturbancePlan = DisturbancePlan {
            seed: 0,
            events: Vec::new(),
        };
        DisturbSetup {
            plan: &EMPTY,
            recovery: RecoveryPolicy::FailFast,
            rescue_overhead: 0.0,
            replan: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Waiting,
    /// A launch attempt failed; the task sits out its backoff delay.
    Backoff,
    Running,
    Done,
}

/// What an in-flight simulator activity means to the executor.
#[derive(Debug, Clone, Copy)]
enum Meaning {
    TaskRun(TaskId),
    /// A failed attempt waiting out its startup + backoff charge.
    Backoff(TaskId),
    Redist {
        src: TaskId,
        succ: TaskId,
    },
}

/// One expanded plan boundary: the instant an event starts or stops
/// affecting the platform.
#[derive(Debug, Clone, Copy)]
struct Boundary {
    time: f64,
    event: usize,
    opening: bool,
}

/// The live simulator activities of one run. Activity ids count up
/// densely from zero within a run, so Vecs indexed by
/// [`PTaskId::index`] replace a hash map.
#[derive(Debug, Default)]
struct InFlight {
    meaning: Vec<Option<Meaning>>,
    ids: Vec<PTaskId>,
}

impl InFlight {
    fn clear(&mut self) {
        self.meaning.clear();
        self.ids.clear();
    }

    fn insert(&mut self, id: PTaskId, m: Meaning) {
        let idx = id.index();
        debug_assert_eq!(idx, self.meaning.len(), "activity ids must be dense");
        if idx >= self.meaning.len() {
            self.meaning.resize(idx + 1, None);
            self.ids.resize(idx + 1, id);
        }
        self.meaning[idx] = Some(m);
        self.ids[idx] = id;
    }

    /// Removes and returns the meaning of a completed activity.
    fn take(&mut self, id: PTaskId) -> Option<Meaning> {
        self.meaning.get_mut(id.index()).and_then(Option::take)
    }

    /// Cancels every live activity `hit` selects.
    fn cancel_where(&mut self, sim: &mut L07Sim, mut hit: impl FnMut(Meaning) -> bool) {
        for idx in 0..self.meaning.len() {
            if let Some(m) = self.meaning[idx] {
                if hit(m) {
                    sim.cancel(self.ids[idx]);
                    self.meaning[idx] = None;
                }
            }
        }
    }
}

/// Per-run bookkeeping of the execution loop. Repair under a crash
/// rewrites placements, order and queues, so they live here rather than
/// being read off the schedule.
#[derive(Debug, Default)]
struct RunState {
    placements: Vec<Vec<HostId>>,
    /// Dispatch order (the schedule's, until a rescue replaces it).
    order: Vec<TaskId>,
    /// Per-host task queues in dispatch order.
    queue: Vec<Vec<TaskId>>,
    queue_head: Vec<usize>,
    /// Incoming redistributions still pending per task.
    pending: Vec<usize>,
    state: Vec<TaskState>,
    spans: Vec<(f64, f64)>,
    attempts: Vec<u32>,
    launched: Vec<bool>,
    /// Earliest launch of a re-planned task (the rescue overhead).
    gate: Vec<f64>,
    crashed: Vec<bool>,
    in_flight: InFlight,
    boundaries: Vec<Boundary>,
    src_idx: Vec<usize>,
    dst_idx: Vec<usize>,
}

/// Clears `v` (keeping capacity) and refills it with `len` copies of `x`.
fn refill<T: Clone>(v: &mut Vec<T>, len: usize, x: T) {
    v.clear();
    v.resize(len, x);
}

/// Clears every inner vector (keeping capacity) and sets the outer length.
fn reset_nested<T>(v: &mut Vec<Vec<T>>, len: usize) {
    for inner in v.iter_mut() {
        inner.clear();
    }
    v.resize_with(len, Vec::new);
}

impl RunState {
    fn reset(&mut self, dag: &Dag, n_hosts: usize, schedule: &Schedule, plan: &DisturbancePlan) {
        let n_tasks = dag.len();
        reset_nested(&mut self.placements, n_tasks);
        reset_nested(&mut self.queue, n_hosts);
        self.order.clear();
        for st in &schedule.tasks {
            self.placements[st.task.index()].extend_from_slice(&st.hosts);
            self.order.push(st.task);
            for h in &st.hosts {
                self.queue[h.index()].push(st.task);
            }
        }
        refill(&mut self.queue_head, n_hosts, 0);
        self.pending.clear();
        self.pending
            .extend(dag.task_ids().map(|t| dag.predecessors(t).len()));
        refill(&mut self.state, n_tasks, TaskState::Waiting);
        // Handed to the result, so allocated fresh.
        self.spans = vec![(0.0, 0.0); n_tasks];
        self.attempts = vec![0; n_tasks];
        refill(&mut self.launched, n_tasks, false);
        refill(&mut self.gate, n_tasks, 0.0);
        refill(&mut self.crashed, n_hosts, false);
        self.in_flight.clear();

        // Expand the plan into time-ordered boundaries.
        self.boundaries.clear();
        for (i, e) in plan.events.iter().enumerate() {
            let (from, to) = match *e {
                Disturbance::Crash { at, .. } => (at, None),
                Disturbance::Slow { from, to, .. } | Disturbance::Degrade { from, to, .. } => {
                    (from, Some(to))
                }
            };
            self.boundaries.push(Boundary {
                time: from,
                event: i,
                opening: true,
            });
            if let Some(to) = to {
                self.boundaries.push(Boundary {
                    time: to,
                    event: i,
                    opening: false,
                });
            }
        }
        self.boundaries.sort_by(|a, b| {
            a.time
                .total_cmp(&b.time)
                .then(a.opening.cmp(&b.opening))
                .then(a.event.cmp(&b.event))
        });
    }
}

/// Reusable executor state: the L07 simulator plus every per-run buffer,
/// kept warm across executions.
///
/// Building a fresh [`L07Sim`] (cluster clone + ~100 DES resources) and
/// re-allocating queue/state vectors per execution dominates short runs.
/// A slab amortizes all of it: the simulator is [`L07Sim::reset`] between
/// runs (bit-identical to a fresh build), the loop's bookkeeping is reset
/// in place and keeps its capacity, and redistribution plans — a pure
/// function of `(n, p_src, p_dst)` for the vanilla block distributions the
/// executor uses — are memoized.
///
/// Results are byte-identical to a fresh slab for any sequence of
/// executions; a slab is plain reusable scratch, not a semantic cache.
#[derive(Debug, Default)]
pub struct ExecSlab {
    /// Rebuilt only when the cluster changes between runs.
    sim: Option<L07Sim>,
    plan_cache: HashMap<(usize, usize, usize), RedistPlan>,
    completions: Vec<PTaskCompletion>,
    run_state: RunState,
}

impl ExecSlab {
    /// An empty slab; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Checks `schedule` against `dag` and `cluster`, as the validating entry
/// points do before executing.
pub fn validate_schedule(
    dag: &Dag,
    cluster: &Cluster,
    schedule: &Schedule,
) -> Result<(), ExecError> {
    schedule
        .validate(dag, cluster)
        .map_err(|e| ExecError::InvalidSchedule(e.to_string()))
}

/// Executes `schedule` for `dag` on `cluster` under `model` with the
/// default [`ExecPolicy`].
pub fn execute(
    dag: &Dag,
    cluster: &Cluster,
    schedule: &Schedule,
    model: &mut dyn ExecutionModel,
) -> Result<ExecutionResult, ExecError> {
    execute_with_policy(dag, cluster, schedule, model, &ExecPolicy::default())
}

/// Validates, then executes `schedule` for `dag` on `cluster` under
/// `model` and `policy` on an undisturbed platform, with a fresh slab.
///
/// When `model` exposes a [`FaultModel`], every task-launch attempt is
/// first submitted to it: a failed attempt charges the startup overhead
/// plus an exponential-backoff wait (both as *simulated* time, while the
/// task's hosts stay claimed) and is retried up to
/// [`ExecPolicy::max_retries`] times before the execution fails with
/// [`ExecError::TaskFailed`]. Redistribution flows are scaled by the fault
/// model's link-degradation factors.
pub fn execute_with_policy(
    dag: &Dag,
    cluster: &Cluster,
    schedule: &Schedule,
    model: &mut dyn ExecutionModel,
    policy: &ExecPolicy,
) -> Result<ExecutionResult, ExecError> {
    validate_schedule(dag, cluster, schedule)?;
    execute_prevalidated(
        &mut ExecSlab::new(),
        dag,
        cluster,
        schedule,
        model,
        policy,
        DisturbSetup::none(),
        &mut DisturbReport::default(),
    )
}

/// Executes `schedule` on `slab`'s warm simulator while the platform is
/// disturbed per `setup.plan`, reacting to crashes with `setup.recovery`
/// and to `model`'s fault environment (see [`execute_with_policy`]) with
/// `policy`. A healthy run passes [`DisturbSetup::none`].
///
/// The caller promises `validate_schedule(dag, cluster, schedule)` holds —
/// e.g. the schedule came straight from a scheduler, or one validation
/// covers many executions of the same schedule (the harness runs each
/// schedule once in the simulator and three times on the testbed).
///
/// Disturbance mechanics:
///
/// * every plan boundary (crash instant, window start/end) becomes an
///   engine timer, so the simulator observably stops exactly there;
/// * `Slow` / `Degrade` windows rescale the affected CPU/link capacities
///   through [`Engine::set_capacity`](mps_des::Engine::set_capacity) —
///   in-flight analytic work and transfers stretch mid-run; fixed-duration
///   tasks sample the compound factor of their hosts at launch;
/// * a `Crash` retires the host's resources, cancels every in-flight
///   activity touching it, and triggers the recovery ladder:
///   [`FailFast`](RecoveryPolicy::FailFast) surfaces
///   [`ExecError::HostFailed`]; [`RetryElsewhere`](RecoveryPolicy::RetryElsewhere)
///   patches the stranded tasks' placements onto the lowest-index
///   surviving hosts; [`Rescue`](RecoveryPolicy::Rescue) asks
///   `setup.replan` for a fresh schedule of the surviving platform and
///   adopts its placements and order for every unfinished, not-currently-
///   running task. Repaired tasks pay `setup.rescue_overhead` as extra
///   (virtual) launch latency, and redistributions from finished
///   predecessors are re-issued toward the new placements.
///
/// `report` accrues fired-event and recovery counters even when the
/// execution fails, so callers can assert "failed typed *because* a
/// disturbance fired". An empty plan sets no timer and fires nothing.
///
/// Redistributions take one of two paths, decided once per run. A healthy
/// run — empty plan, no fault model — keeps every placement as the
/// validated schedule made it, so each redistribution streams straight
/// from its cached plan into the simulator
/// ([`L07Sim::submit_transfers`]). When moreover the model has
/// [`ExecutionModel::fixed_tasks_only`] and the backbone is the
/// platform's narrowest link ([`L07Sim::backbone_is_narrowest`]), the
/// backbone is the only link a redistribution can be bound by, and it
/// carries their weights alone; completion times are the same bit for
/// bit. Every other run aggregates each redistribution's flows per host
/// pair (substituting crashed source hosts and scaling by link
/// degradation) and submits them on every link of their routes.
#[allow(clippy::too_many_arguments)]
pub fn execute_prevalidated(
    slab: &mut ExecSlab,
    dag: &Dag,
    cluster: &Cluster,
    schedule: &Schedule,
    model: &mut dyn ExecutionModel,
    policy: &ExecPolicy,
    mut setup: DisturbSetup<'_>,
    report: &mut DisturbReport,
) -> Result<ExecutionResult, ExecError> {
    let n_tasks = dag.len();
    if n_tasks == 0 {
        return Ok(ExecutionResult {
            makespan: 0.0,
            task_spans: Vec::new(),
            task_retries: Vec::new(),
        });
    }

    let ExecSlab {
        sim: sim_slot,
        plan_cache,
        completions,
        run_state,
    } = slab;
    let rebuild = match sim_slot {
        Some(s) => s.cluster() != cluster,
        None => true,
    };
    if rebuild {
        *sim_slot = Some(L07Sim::new(cluster.clone()));
    } else {
        sim_slot.as_mut().expect("checked above").reset();
    }
    let sim = sim_slot.as_mut().expect("just ensured");
    sim.set_watchdog(policy.watchdog);

    run_state.reset(dag, cluster.node_count(), schedule, setup.plan);
    // Pin an engine timer at each boundary, so steps land exactly on
    // disturbance instants.
    for b in &run_state.boundaries {
        if b.time > 0.0 {
            sim.schedule_timer(b.time)?;
        }
    }
    let healthy = setup.plan.events.is_empty() && model.fault_model().is_none();
    let redist_path = if healthy {
        RedistPath::Streamed {
            backbone_only: model.fixed_tasks_only() && sim.backbone_is_narrowest(),
        }
    } else {
        RedistPath::Aggregated
    };
    let mut run = Run {
        sim,
        model,
        plan_cache,
        dag,
        policy,
        plan: setup.plan,
        redist_path,
        st: run_state,
    };
    let mut next_boundary = 0usize;
    let mut done_count = 0usize;
    loop {
        // Apply every boundary due at (or before) the current instant,
        // then launch whatever became eligible.
        let now = run.sim.now();
        while let Some(&b) = run.st.boundaries.get(next_boundary) {
            if b.time > now + 1e-9 {
                break;
            }
            next_boundary += 1;
            run.apply_boundary(b, now, &mut setup, report)?;
        }
        run.try_start()?;

        if !run.sim.next_completions_into(completions)? {
            return Err(ExecError::Stalled {
                unstarted: run
                    .st
                    .state
                    .iter()
                    .filter(|&&s| s != TaskState::Done)
                    .count(),
            });
        }
        for &c in completions.iter() {
            match run.st.in_flight.take(c.task) {
                Some(Meaning::TaskRun(t)) => {
                    run.finish(t, c.time)?;
                    done_count += 1;
                }
                Some(Meaning::Backoff(t)) => {
                    // Backoff elapsed: the task becomes eligible again and
                    // re-attempts on the next launch pass (its hosts were
                    // never released).
                    run.st.state[t.index()] = TaskState::Waiting;
                }
                Some(Meaning::Redist { succ, .. }) => {
                    run.st.pending[succ.index()] -= 1;
                }
                None => unreachable!("unknown completion"),
            }
        }
        if done_count == n_tasks {
            break;
        }
    }

    let spans = std::mem::take(&mut run.st.spans);
    let makespan = spans.iter().map(|&(_, f)| f).fold(0.0_f64, f64::max);
    Ok(ExecutionResult {
        makespan,
        task_spans: spans,
        task_retries: std::mem::take(&mut run.st.attempts),
    })
}

fn touches_crashed(hosts: &[HostId], crashed: &[bool]) -> bool {
    hosts.iter().any(|h| crashed[h.index()])
}

/// How [`Run::issue_redist`] submits a redistribution.
#[derive(Debug, Clone, Copy)]
enum RedistPath {
    /// Rank-to-rank transfers streamed into the simulator as they are:
    /// placements are injective and no host has crashed, so no host pair
    /// repeats and nothing needs aggregating.
    Streamed { backbone_only: bool },
    /// Flows aggregated per host pair, after crashed-source substitution
    /// and link-degradation scaling.
    Aggregated,
}

/// True when no host appears twice.
fn distinct(hosts: &[HostId]) -> bool {
    hosts
        .iter()
        .enumerate()
        .all(|(i, h)| !hosts[..i].contains(h))
}

/// One execution in progress: the warm simulator, the model, and the
/// slab's per-run bookkeeping.
struct Run<'a> {
    sim: &'a mut L07Sim,
    model: &'a mut dyn ExecutionModel,
    plan_cache: &'a mut HashMap<(usize, usize, usize), RedistPlan>,
    dag: &'a Dag,
    policy: &'a ExecPolicy,
    plan: &'a DisturbancePlan,
    redist_path: RedistPath,
    st: &'a mut RunState,
}

impl Run<'_> {
    /// Launch pass: starts every waiting task that heads all its host
    /// queues and has all its inputs. Fixed-duration tasks sample the
    /// plan's compound slowdown of their hosts at launch (the same
    /// launch-sampled semantics `FaultPlan` node slowdowns use), and a
    /// re-planned task waits out its `gate` (the rescue overhead, as
    /// virtual time) before its attempt starts.
    fn try_start(&mut self) -> Result<(), ExecError> {
        let now = self.sim.now();
        let st = &mut *self.st;
        for &t in &st.order {
            let i = t.index();
            if st.state[i] != TaskState::Waiting || st.pending[i] > 0 {
                continue;
            }
            let hosts = &st.placements[i];
            let at_head = hosts
                .iter()
                .all(|h| st.queue[h.index()].get(st.queue_head[h.index()]) == Some(&t));
            if !at_head {
                continue;
            }
            let kernel = self.dag.task(t).kernel;
            let p = hosts.len();
            // Every attempt — successful or not — pays the startup
            // overhead; a re-planned task first waits out its gate.
            let startup = self.model.startup_overhead(t, p) + (st.gate[i] - now).max(0.0);
            if !st.launched[i] {
                st.launched[i] = true;
                st.spans[i].0 = now;
            }
            let disposition = match self.model.fault_model() {
                Some(fm) => fm.task_disposition(t, hosts, st.attempts[i], now),
                None => TaskDisposition::Run { slowdown: 1.0 },
            };
            let slowdown = match disposition {
                TaskDisposition::Fail { retry_after } => {
                    let attempt = st.attempts[i];
                    if attempt >= self.policy.max_retries {
                        return Err(ExecError::TaskFailed {
                            task: t,
                            attempts: attempt + 1,
                        });
                    }
                    st.attempts[i] = attempt + 1;
                    // The failed attempt is charged as simulated time: its
                    // startup overhead plus the backoff wait (or the time
                    // until a crashed host recovers, whichever is longer).
                    // The task's hosts stay claimed throughout.
                    let backoff = (self.policy.backoff_base * 2.0_f64.powi(attempt as i32))
                        .min(self.policy.backoff_cap);
                    let mut spec =
                        PTaskSpec::new().with_extra_latency(startup + backoff.max(retry_after));
                    if self.sim.tracing_enabled() {
                        spec = spec.with_label(format!("backoff-{i}-{attempt}"));
                    }
                    let id = self.sim.submit(spec)?;
                    st.in_flight.insert(id, Meaning::Backoff(t));
                    st.state[i] = TaskState::Backoff;
                    continue;
                }
                TaskDisposition::Run { slowdown } => slowdown.max(1.0),
            };
            let mut spec = match self.model.task_execution(t, kernel, hosts) {
                TaskExecution::Analytic => {
                    // Host slowdowns reach analytic tasks through the
                    // engine's scaled capacities — no launch-time factor.
                    // The ring's flows are the kernel's communication
                    // matrix's non-zeros, in its row-major order.
                    let flops = kernel.flops_per_proc(p) * slowdown;
                    let ring = kernel.ring_bytes_per_rank(p);
                    let mut spec =
                        PTaskSpec::compute_uniform(hosts, flops).with_extra_latency(startup);
                    if ring > 0.0 {
                        spec.flows
                            .extend((0..p).map(|i| (hosts[i], hosts[(i + 1) % p], ring)));
                    }
                    spec
                }
                TaskExecution::Fixed(duration) => {
                    let disturb_factor = hosts
                        .iter()
                        .map(|h| self.plan.slow_factor(h.index(), now))
                        .fold(1.0, f64::max);
                    PTaskSpec::new()
                        .with_extra_latency(startup + duration.max(0.0) * slowdown * disturb_factor)
                }
            };
            if self.sim.tracing_enabled() {
                spec = spec.with_label(format!("task-{i}"));
            }
            let id = self.sim.submit(spec)?;
            st.in_flight.insert(id, Meaning::TaskRun(t));
            st.state[i] = TaskState::Running;
        }
        Ok(())
    }

    /// `t` finished at `time`: release its host queues and start the
    /// redistribution of its output to every successor.
    fn finish(&mut self, t: TaskId, time: f64) -> Result<(), ExecError> {
        let st = &mut *self.st;
        st.state[t.index()] = TaskState::Done;
        st.spans[t.index()].1 = time;
        for h in &st.placements[t.index()] {
            debug_assert_eq!(
                st.queue[h.index()][st.queue_head[h.index()]],
                t,
                "queue discipline violated"
            );
            st.queue_head[h.index()] += 1;
        }
        let dag = self.dag;
        for &succ in dag.successors(t) {
            self.issue_redist(t, succ)?;
        }
        Ok(())
    }

    /// Submits the redistribution for DAG edge `src → succ` using the
    /// tasks' *current* placements, along the run's [`RedistPath`]. The
    /// plans are pure functions of `(n, p_src, p_dst)` — both sides always
    /// use vanilla block distributions — so they are memoized in the slab.
    /// Crashed source hosts are substituted by the source's first surviving
    /// host (the durable-replication assumption: a finished task's output
    /// can be re-served from any surviving rank); when no source host
    /// survives at all, the data re-materializes at the destination
    /// instantly and only the protocol overhead is charged.
    fn issue_redist(&mut self, src: TaskId, succ: TaskId) -> Result<(), ExecError> {
        let st = &mut *self.st;
        let src_hosts = &st.placements[src.index()];
        let dst_hosts = &st.placements[succ.index()];
        let mut overhead = self.model.redist_overhead(src_hosts.len(), dst_hosts.len());
        let label = self
            .sim
            .tracing_enabled()
            .then(|| format!("redist-{}-{}", src.index(), succ.index()));
        let Some(survivor) = src_hosts.iter().find(|h| !st.crashed[h.index()]) else {
            // Every source rank is gone: instantaneous re-materialization.
            let mut spec = PTaskSpec::new().with_extra_latency(overhead);
            spec.label = label;
            let id = self.sim.submit(spec)?;
            st.in_flight.insert(id, Meaning::Redist { src, succ });
            return Ok(());
        };
        let n = self.dag.task(src).kernel.n();
        let plan = self
            .plan_cache
            .entry((n, src_hosts.len(), dst_hosts.len()))
            .or_insert_with(|| {
                RedistPlan::compute(
                    &BlockDist1D::vanilla(n, src_hosts.len()),
                    &BlockDist1D::vanilla(n, dst_hosts.len()),
                )
            });
        let id = match self.redist_path {
            RedistPath::Streamed { backbone_only } => {
                debug_assert!(distinct(src_hosts) && distinct(dst_hosts));
                let flows = plan
                    .transfers()
                    .iter()
                    .map(|t| (src_hosts[t.src_rank], dst_hosts[t.dst_rank], t.bytes));
                self.sim
                    .submit_transfers(flows, overhead, backbone_only, label)?
            }
            RedistPath::Aggregated => {
                st.src_idx.clear();
                st.src_idx.extend(src_hosts.iter().map(|h| {
                    if st.crashed[h.index()] {
                        survivor.index()
                    } else {
                        h.index()
                    }
                }));
                st.dst_idx.clear();
                st.dst_idx.extend(dst_hosts.iter().map(|h| h.index()));
                let mut flows: Vec<(HostId, HostId, f64)> = plan
                    .network_transfers(&st.src_idx, &st.dst_idx)
                    .into_iter()
                    .map(|(s, d, b)| (HostId(s), HostId(d), b))
                    .collect();
                // Degraded links carry more effective bytes; the protocol
                // overhead stretches with the worst link.
                if let Some(fm) = self.model.fault_model() {
                    let now = self.sim.now();
                    let mut worst = 1.0_f64;
                    for (s, d, b) in &mut flows {
                        let factor = fm.link_factor(*s, *d, now).max(1.0);
                        *b *= factor;
                        worst = worst.max(factor);
                    }
                    overhead *= worst;
                }
                let mut spec = PTaskSpec::transfers(flows).with_extra_latency(overhead);
                spec.label = label;
                self.sim.submit(spec)?
            }
        };
        st.in_flight.insert(id, Meaning::Redist { src, succ });
        Ok(())
    }

    /// Applies one plan boundary at `now`.
    fn apply_boundary(
        &mut self,
        b: Boundary,
        now: f64,
        setup: &mut DisturbSetup<'_>,
        report: &mut DisturbReport,
    ) -> Result<(), ExecError> {
        let n_hosts = self.st.crashed.len();
        match self.plan.events[b.event] {
            Disturbance::Slow { host, .. } => {
                if b.opening {
                    report.slows += 1;
                }
                if host < n_hosts {
                    let factor = self.plan.slow_factor(host, now).max(1.0);
                    self.sim.set_host_factor(HostId(host), factor)?;
                }
            }
            Disturbance::Degrade { link, .. } => {
                if b.opening {
                    report.degrades += 1;
                }
                if link < n_hosts {
                    let factor = self.plan.link_factor(link, now).max(1.0);
                    self.sim.set_link_factor(HostId(link), factor)?;
                }
            }
            Disturbance::Crash { host, .. } => {
                if host < n_hosts && !self.st.crashed[host] {
                    self.crash(host, now, setup, report)?;
                }
            }
        }
        Ok(())
    }

    /// `host` fails permanently at `now`: cancel what touches it, then
    /// repair the run per `setup.recovery`.
    fn crash(
        &mut self,
        host: usize,
        now: f64,
        setup: &mut DisturbSetup<'_>,
        report: &mut DisturbReport,
    ) -> Result<(), ExecError> {
        let dag = self.dag;
        let n_tasks = dag.len();
        let n_hosts = self.st.crashed.len();
        self.st.crashed[host] = true;
        report.crashes += 1;
        self.sim.crash_host(HostId(host))?;

        // Who is stranded: unfinished tasks placed on a dead host, plus
        // in-flight redistributions whose endpoints touch one.
        let st = &mut *self.st;
        let affected: Vec<TaskId> = st
            .order
            .iter()
            .copied()
            .filter(|t| {
                st.state[t.index()] != TaskState::Done
                    && touches_crashed(&st.placements[t.index()], &st.crashed)
            })
            .collect();
        let mut cancelled_redists: Vec<(TaskId, TaskId)> = Vec::new();
        st.in_flight.cancel_where(self.sim, |m| match m {
            Meaning::TaskRun(t) | Meaning::Backoff(t) => {
                let hit = touches_crashed(&st.placements[t.index()], &st.crashed);
                if hit {
                    st.state[t.index()] = TaskState::Waiting;
                    st.attempts[t.index()] += 1;
                }
                hit
            }
            Meaning::Redist { src, succ } => {
                let hit = touches_crashed(&st.placements[src.index()], &st.crashed)
                    || touches_crashed(&st.placements[succ.index()], &st.crashed);
                if hit {
                    cancelled_redists.push((src, succ));
                }
                hit
            }
        });
        if affected.is_empty() && cancelled_redists.is_empty() {
            return Ok(());
        }

        let survivors: Vec<HostId> = (0..n_hosts)
            .filter(|&h| !st.crashed[h])
            .map(HostId)
            .collect();
        let failed = || ExecError::HostFailed {
            host: HostId(host),
            stranded: affected.len(),
        };
        if survivors.is_empty() || setup.recovery == RecoveryPolicy::FailFast {
            return Err(failed());
        }

        // Repair placements (and, under Rescue, the order).
        let mut changed = vec![false; n_tasks];
        match setup.recovery {
            RecoveryPolicy::FailFast => unreachable!("handled above"),
            RecoveryPolicy::RetryElsewhere => {
                for &t in &affected {
                    let old = &st.placements[t.index()];
                    let mut keep: Vec<HostId> = old
                        .iter()
                        .copied()
                        .filter(|h| !st.crashed[h.index()])
                        .collect();
                    for &s in &survivors {
                        if keep.len() == old.len() {
                            break;
                        }
                        if !keep.contains(&s) {
                            keep.push(s);
                        }
                    }
                    if keep.len() < old.len() {
                        return Err(failed());
                    }
                    st.placements[t.index()] = keep;
                    changed[t.index()] = true;
                    report.retried_tasks += 1;
                }
            }
            RecoveryPolicy::Rescue => {
                let Some(replan) = setup.replan.as_mut() else {
                    return Err(failed());
                };
                let Some(rescue) = replan(&survivors) else {
                    return Err(failed());
                };
                // Running/backoff tasks on surviving hosts keep their
                // placement and precede everything else; every waiting
                // task adopts the rescue schedule's placement and order.
                let mut new_order: Vec<TaskId> = st
                    .order
                    .iter()
                    .copied()
                    .filter(|t| {
                        matches!(st.state[t.index()], TaskState::Running | TaskState::Backoff)
                    })
                    .collect();
                let mut adopted = 0u64;
                for rt in &rescue.tasks {
                    let t = rt.task;
                    if st.state[t.index()] != TaskState::Waiting {
                        continue;
                    }
                    if rt.hosts.is_empty() || touches_crashed(&rt.hosts, &st.crashed) {
                        return Err(failed());
                    }
                    if st.placements[t.index()] != rt.hosts {
                        changed[t.index()] = true;
                    }
                    st.placements[t.index()] = rt.hosts.clone();
                    new_order.push(t);
                    adopted += 1;
                }
                // Defensive: a waiting task the rescue schedule somehow
                // omitted keeps its old placement (it must still be off
                // the dead hosts).
                for &t in &st.order {
                    if st.state[t.index()] == TaskState::Waiting && !new_order.contains(&t) {
                        if touches_crashed(&st.placements[t.index()], &st.crashed) {
                            return Err(failed());
                        }
                        new_order.push(t);
                    }
                }
                st.order = new_order;
                report.rescues += 1;
                report.rescued_tasks += adopted;
            }
        }

        // Re-planned tasks wait out the re-plan cost.
        let rescued = setup.recovery == RecoveryPolicy::Rescue;
        for (t, &moved) in changed.iter().enumerate() {
            if moved || (rescued && st.state[t] == TaskState::Waiting) {
                st.gate[t] = st.gate[t].max(now + setup.rescue_overhead);
            }
        }

        // Rebuild the host queues over the unfinished tasks in the
        // (possibly new) dispatch order. Running tasks come first in
        // `order`, so they sit at their hosts' heads.
        reset_nested(&mut st.queue, n_hosts);
        refill(&mut st.queue_head, n_hosts, 0);
        for &t in &st.order {
            if st.state[t.index()] != TaskState::Done {
                for h in &st.placements[t.index()] {
                    st.queue[h.index()].push(t);
                }
            }
        }

        // Data plane repair: a task whose placement changed needs every
        // predecessor's output again at its new hosts; cancelled transfers
        // to unchanged placements are simply re-issued.
        for t in dag.task_ids() {
            if self.st.state[t.index()] == TaskState::Done || !changed[t.index()] {
                continue;
            }
            // A transfer still in flight into `t` targets its old
            // placement and would double-count against the reset
            // `pending` once the repair re-issues it below.
            self.st.in_flight.cancel_where(
                self.sim,
                |m| matches!(m, Meaning::Redist { succ, .. } if succ == t),
            );
            self.st.pending[t.index()] = dag.predecessors(t).len();
            for &pred in dag.predecessors(t) {
                if self.st.state[pred.index()] == TaskState::Done {
                    self.issue_redist(pred, t)?;
                }
            }
        }
        for &(src, succ) in &cancelled_redists {
            if !changed[succ.index()] && self.st.state[succ.index()] != TaskState::Done {
                self.issue_redist(src, succ)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_kernels::Kernel;
    use mps_model::AnalyticModel;
    use mps_sched::{Hcpa, Schedule, ScheduledTask, Scheduler};

    /// Instrumented model: counts calls, returns fixed quantities.
    struct Counting {
        task_calls: usize,
        startup_calls: usize,
        redist_calls: usize,
        duration: f64,
        startup: f64,
        redist: f64,
    }

    impl Counting {
        fn new(duration: f64, startup: f64, redist: f64) -> Self {
            Counting {
                task_calls: 0,
                startup_calls: 0,
                redist_calls: 0,
                duration,
                startup,
                redist,
            }
        }
    }

    impl ExecutionModel for Counting {
        fn task_execution(
            &mut self,
            _task: TaskId,
            _kernel: Kernel,
            _hosts: &[HostId],
        ) -> TaskExecution {
            self.task_calls += 1;
            TaskExecution::Fixed(self.duration)
        }
        fn startup_overhead(&mut self, _task: TaskId, _p: usize) -> f64 {
            self.startup_calls += 1;
            self.startup
        }
        fn redist_overhead(&mut self, _p_src: usize, _p_dst: usize) -> f64 {
            self.redist_calls += 1;
            self.redist
        }
    }

    fn diamond() -> Dag {
        Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 4],
            &[
                (TaskId(0), TaskId(1)),
                (TaskId(0), TaskId(2)),
                (TaskId(1), TaskId(3)),
                (TaskId(2), TaskId(3)),
            ],
        )
        .unwrap()
    }

    fn schedule_for(dag: &Dag, cluster: &Cluster) -> Schedule {
        Hcpa.schedule(dag, cluster, &AnalyticModel::paper_jvm())
    }

    #[test]
    fn model_is_consulted_once_per_task_and_edge() {
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let schedule = schedule_for(&dag, &cluster);
        let mut model = Counting::new(1.0, 0.5, 0.1);
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        assert_eq!(model.task_calls, 4);
        assert_eq!(model.startup_calls, 4);
        assert_eq!(model.redist_calls, 4, "one per DAG edge");
        assert!(r.makespan > 0.0);
    }

    #[test]
    fn makespan_decomposes_for_a_serial_chain() {
        // Chain of 3 on one host: makespan = Σ (startup + duration) +
        // redistribution overheads between stages (transfers are local).
        let dag = Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 3],
            &[(TaskId(0), TaskId(1)), (TaskId(1), TaskId(2))],
        )
        .unwrap();
        let cluster = Cluster::bayreuth();
        let mk = |t: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(0)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0), mk(1), mk(2)],
            est_makespan: 30.0,
        };
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        let expected = 3.0 * (2.0 + 0.5) + 2.0 * 0.25;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {}",
            r.makespan
        );
    }

    #[test]
    fn zero_duration_tasks_still_flow_through_dependencies() {
        // All tasks co-located on the same host set: every redistribution
        // is local, so with zero model quantities the whole run collapses
        // to (near) zero time.
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let hosts: Vec<HostId> = (0..4).map(HostId).collect();
        let mk = |t: usize| ScheduledTask {
            task: TaskId(t),
            hosts: hosts.clone(),
            est_start: t as f64,
            est_finish: t as f64 + 1.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0), mk(1), mk(2), mk(3)],
            est_makespan: 4.0,
        };
        let mut model = Counting::new(0.0, 0.0, 0.0);
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        assert!(r.makespan < 1e-9, "makespan {}", r.makespan);
        for &(s, f) in &r.task_spans {
            assert!(f >= s);
        }
    }

    #[test]
    fn spans_respect_dependencies_under_any_positive_quantities() {
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let schedule = schedule_for(&dag, &cluster);
        for (d, su, re) in [(1.0, 0.0, 0.0), (0.5, 2.0, 0.0), (3.0, 0.1, 1.5)] {
            let mut model = Counting::new(d, su, re);
            let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
            for t in dag.task_ids() {
                for &pred in dag.predecessors(t) {
                    assert!(
                        r.task_spans[t.index()].0 >= r.task_spans[pred.index()].1 - 1e-9,
                        "task {t} started before {pred} finished (d={d} su={su} re={re})"
                    );
                }
            }
        }
    }

    #[test]
    fn nan_duration_is_clamped_not_propagated() {
        let dag = Dag::new(vec![Kernel::MatAdd { n: 2000 }], &[]).unwrap();
        let cluster = Cluster::bayreuth();
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
        struct NanModel;
        impl ExecutionModel for NanModel {
            fn task_execution(&mut self, _t: TaskId, _k: Kernel, _h: &[HostId]) -> TaskExecution {
                TaskExecution::Fixed(f64::NAN)
            }
            fn startup_overhead(&mut self, _t: TaskId, _p: usize) -> f64 {
                0.0
            }
            fn redist_overhead(&mut self, _s: usize, _d: usize) -> f64 {
                0.0
            }
        }
        let r = execute(&dag, &cluster, &schedule, &mut NanModel).unwrap();
        assert!(r.makespan.is_finite());
    }

    // ---- fault injection & resilience ----------------------------------

    use mps_faults::{FaultPlan, ScriptedFaults};

    fn chain_dag() -> Dag {
        Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 3],
            &[(TaskId(0), TaskId(1)), (TaskId(1), TaskId(2))],
        )
        .unwrap()
    }

    fn chain_schedule(hosts: &[usize]) -> Schedule {
        let hs: Vec<HostId> = hosts.iter().map(|&i| HostId(i)).collect();
        let mk = |t: usize| ScheduledTask {
            task: TaskId(t),
            hosts: hs.clone(),
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0), mk(1), mk(2)],
            est_makespan: 30.0,
        }
    }

    fn faulty(plan: FaultPlan) -> FaultyExecution<Counting> {
        FaultyExecution::new(Counting::new(2.0, 0.5, 0.25), ScriptedFaults::new(plan))
    }

    #[test]
    fn empty_plan_reproduces_the_healthy_execution_exactly() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let mut model = faulty(FaultPlan::none());
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        assert_eq!(baseline, r);
        assert_eq!(r.total_retries(), 0);
    }

    #[test]
    fn crash_window_delays_execution_via_retries() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        // Host 0 is down from the start for 4 s: task 0's first attempt
        // fails and retries after the node recovers.
        let plan = FaultPlan::builder(1)
            .node_crash(HostId(0), 0.0, 4.0)
            .build();
        let mut model = faulty(plan);
        let policy = ExecPolicy {
            max_retries: 5,
            ..ExecPolicy::default()
        };
        let r = execute_with_policy(&dag, &cluster, &schedule, &mut model, &policy).unwrap();
        assert!(r.task_retries[0] >= 1, "retries: {:?}", r.task_retries);
        assert!(
            r.makespan >= baseline.makespan + 4.0 - 1e-9,
            "makespan {} vs baseline {} + outage",
            r.makespan,
            baseline.makespan
        );
        // Later tasks are pushed back but unaffected otherwise.
        assert_eq!(r.task_retries[1], 0);
        assert_eq!(r.task_retries[2], 0);
    }

    #[test]
    fn certain_launch_failure_exhausts_the_retry_budget() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut model = faulty(FaultPlan::builder(1).task_failure(1.0).build());
        let policy = ExecPolicy {
            max_retries: 2,
            ..ExecPolicy::default()
        };
        let err = execute_with_policy(&dag, &cluster, &schedule, &mut model, &policy).unwrap_err();
        assert_eq!(
            err,
            ExecError::TaskFailed {
                task: TaskId(0),
                attempts: 3
            }
        );
    }

    #[test]
    fn backoff_grows_exponentially_and_is_charged_as_virtual_time() {
        // Two forced failures then success: makespan = healthy makespan
        // + 2 extra startup charges + backoff (0.5 + 1.0).
        struct FailTwice;
        impl FaultModel for FailTwice {
            fn task_disposition(
                &mut self,
                task: TaskId,
                _hosts: &[HostId],
                attempt: u32,
                _now: f64,
            ) -> TaskDisposition {
                if task == TaskId(0) && attempt < 2 {
                    TaskDisposition::Fail { retry_after: 0.0 }
                } else {
                    TaskDisposition::Run { slowdown: 1.0 }
                }
            }
            fn link_factor(&mut self, _s: HostId, _d: HostId, _n: f64) -> f64 {
                1.0
            }
        }
        struct Wrapper {
            inner: Counting,
            faults: FailTwice,
        }
        impl ExecutionModel for Wrapper {
            fn task_execution(&mut self, t: TaskId, k: Kernel, h: &[HostId]) -> TaskExecution {
                self.inner.task_execution(t, k, h)
            }
            fn startup_overhead(&mut self, t: TaskId, p: usize) -> f64 {
                self.inner.startup_overhead(t, p)
            }
            fn redist_overhead(&mut self, s: usize, d: usize) -> f64 {
                self.inner.redist_overhead(s, d)
            }
            fn fault_model(&mut self) -> Option<&mut dyn FaultModel> {
                Some(&mut self.faults)
            }
        }
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let mut model = Wrapper {
            inner: Counting::new(2.0, 0.5, 0.25),
            faults: FailTwice,
        };
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        assert_eq!(r.task_retries, vec![2, 0, 0]);
        let expected = baseline.makespan + 2.0 * 0.5 + (0.5 + 1.0);
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} expected {expected}",
            r.makespan
        );
    }

    #[test]
    fn stragglers_and_slowdowns_stretch_the_makespan() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let mut model = faulty(FaultPlan::builder(1).straggler(TaskId(1), 3.0).build());
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        // Task 1's 2 s execution becomes 6 s.
        assert!((r.makespan - (baseline.makespan + 4.0)).abs() < 1e-9);
        let mut model = faulty(
            FaultPlan::builder(1)
                .node_slowdown(HostId(0), 0.0, 2.0)
                .build(),
        );
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        // Every task doubles: 3 × 2 s extra.
        assert!((r.makespan - (baseline.makespan + 6.0)).abs() < 1e-9);
    }

    #[test]
    fn link_degradation_slows_cross_host_redistribution() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        // Alternate hosts so every redistribution crosses the network.
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 0), mk(1, 1), mk(2, 0)],
            est_makespan: 30.0,
        };
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = FaultPlan::builder(1)
            .link_degrade(HostId(1), 0.0, 1.0e9, 4.0)
            .build();
        let mut model = faulty(plan);
        let r = execute(&dag, &cluster, &schedule, &mut model).unwrap();
        assert!(
            r.makespan > baseline.makespan + 1e-6,
            "degraded {} vs healthy {}",
            r.makespan,
            baseline.makespan
        );
    }

    #[test]
    fn watchdog_horizon_converts_runaway_executions_into_timeouts() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let policy = ExecPolicy {
            watchdog: Some(mps_des::Watchdog::horizon(1.0)),
            ..ExecPolicy::default()
        };
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let err = execute_with_policy(&dag, &cluster, &schedule, &mut model, &policy).unwrap_err();
        assert!(matches!(err, ExecError::Timeout { .. }), "{err:?}");
        // A generous horizon lets the same execution finish.
        let policy = ExecPolicy {
            watchdog: Some(mps_des::Watchdog::horizon(1.0e6)),
            ..ExecPolicy::default()
        };
        let mut model = Counting::new(2.0, 0.5, 0.25);
        assert!(execute_with_policy(&dag, &cluster, &schedule, &mut model, &policy).is_ok());
    }

    // ---- timed disturbances & reactive repair ---------------------------

    #[allow(clippy::too_many_arguments, clippy::type_complexity)]
    fn run_disturbed<'a>(
        dag: &Dag,
        cluster: &Cluster,
        schedule: &Schedule,
        model: &mut dyn ExecutionModel,
        plan: &'a DisturbancePlan,
        recovery: RecoveryPolicy,
        rescue_overhead: f64,
        replan: Option<&'a mut dyn FnMut(&[HostId]) -> Option<Schedule>>,
    ) -> (Result<ExecutionResult, ExecError>, DisturbReport) {
        let mut slab = ExecSlab::new();
        let mut report = DisturbReport::default();
        let setup = DisturbSetup {
            plan,
            recovery,
            rescue_overhead,
            replan,
        };
        let r = validate_schedule(dag, cluster, schedule).and_then(|()| {
            execute_prevalidated(
                &mut slab,
                dag,
                cluster,
                schedule,
                model,
                &ExecPolicy::default(),
                setup,
                &mut report,
            )
        });
        (r, report)
    }

    #[test]
    fn zero_event_plan_matches_the_undisturbed_execution_exactly() {
        let dag = diamond();
        let cluster = Cluster::bayreuth();
        let schedule = schedule_for(&dag, &cluster);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = DisturbancePlan::none();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        assert_eq!(r.unwrap(), baseline);
        assert_eq!(report.fired(), 0);
    }

    #[test]
    fn a_slow_window_stretches_fixed_tasks_launched_inside_it() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        // Host 0 runs at half speed for the whole execution: each 2 s
        // task takes 4 s; startup and redistribution overheads are
        // protocol time and stay put.
        let plan = DisturbancePlan::builder(1)
            .slow(HostId(0), 0.0, 100.0, 2.0)
            .build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        let r = r.unwrap();
        let expected = 3.0 * (0.5 + 4.0) + 2.0 * 0.25;
        assert!(
            (r.makespan - expected).abs() < 1e-9,
            "makespan {} expected {expected}",
            r.makespan
        );
        assert_eq!(report.slows, 1);
        assert_eq!(report.crashes, 0);
    }

    #[test]
    fn a_crash_fails_fast_with_a_typed_host_failure() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        // Timeline on host 0: task 0 spans [0, 2.5]; the crash at t=3
        // strands task 1 (running) and task 2 (waiting).
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        match r {
            Err(ExecError::HostFailed { host, stranded }) => {
                assert_eq!(host, HostId(0));
                assert_eq!(stranded, 2);
            }
            other => panic!("expected HostFailed, got {other:?}"),
        }
        // The report still records the fired crash on the error path.
        assert_eq!(report.crashes, 1);
        assert!(report.fired() >= 1);
    }

    #[test]
    fn retry_elsewhere_moves_stranded_tasks_to_surviving_hosts() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::RetryElsewhere,
            0.0,
            None,
        );
        let r = r.unwrap();
        assert!(
            r.makespan > baseline.makespan,
            "a mid-run crash cannot be free: {} vs {}",
            r.makespan,
            baseline.makespan
        );
        // Task 1 was running when the host died: one burned attempt.
        assert!(r.task_retries[1] >= 1, "retries {:?}", r.task_retries);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.retried_tasks, 2, "tasks 1 and 2 were stranded");
        assert_eq!(report.rescues, 0);
        for t in dag.task_ids() {
            for &pred in dag.predecessors(t) {
                assert!(r.task_spans[t.index()].0 >= r.task_spans[pred.index()].1 - 1e-9);
            }
        }
    }

    #[test]
    fn rescue_replans_onto_survivors_and_charges_the_overhead() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let mut replans = 0usize;
        let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
            replans += 1;
            assert!(!survivors.contains(&HostId(0)));
            let h = survivors[0];
            let mk = |t: usize| ScheduledTask {
                task: TaskId(t),
                hosts: vec![h],
                est_start: t as f64,
                est_finish: t as f64 + 1.0,
            };
            Some(Schedule {
                algorithm: "rescue".into(),
                tasks: vec![mk(0), mk(1), mk(2)],
                est_makespan: 3.0,
            })
        };
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::Rescue,
            5.0,
            Some(&mut replan),
        );
        let r = r.unwrap();
        assert_eq!(replans, 1);
        assert_eq!(report.rescues, 1);
        assert_eq!(report.rescued_tasks, 2, "tasks 1 and 2 were re-planned");
        // The re-plan is charged as virtual time: the rescued tasks start
        // no earlier than crash + overhead, so the makespan covers the
        // gate plus both remaining tasks.
        let floor = 3.0 + 5.0 + 2.0 * (0.5 + 2.0);
        assert!(
            r.makespan >= floor - 1e-9,
            "makespan {} below rescue floor {floor}",
            r.makespan
        );
        for t in dag.task_ids() {
            for &pred in dag.predecessors(t) {
                assert!(r.task_spans[t.index()].0 >= r.task_spans[pred.index()].1 - 1e-9);
            }
        }
    }

    #[test]
    fn rescue_without_a_replan_hook_fails_typed() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::Rescue,
            5.0,
            None,
        );
        assert!(matches!(r, Err(ExecError::HostFailed { .. })), "{r:?}");
        assert_eq!(report.crashes, 1);
    }

    #[test]
    fn a_crash_on_an_idle_host_is_counted_but_harmless() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let schedule = chain_schedule(&[0]);
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        // Host 7 never appears in the schedule.
        let plan = DisturbancePlan::builder(1).crash(HostId(7), 1.0).build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        let r = r.unwrap();
        assert!((r.makespan - baseline.makespan).abs() < 1e-9);
        assert_eq!(report.crashes, 1);
        assert_eq!(report.retried_tasks, 0);
    }

    #[test]
    fn degrade_windows_stretch_cross_host_redistribution() {
        let dag = chain_dag();
        let cluster = Cluster::bayreuth();
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 0), mk(1, 1), mk(2, 0)],
            est_makespan: 30.0,
        };
        let mut healthy = Counting::new(2.0, 0.5, 0.25);
        let baseline = execute(&dag, &cluster, &schedule, &mut healthy).unwrap();
        let plan = DisturbancePlan::builder(1)
            .degrade(HostId(1), 0.0, 100.0, 50.0)
            .build();
        let mut model = Counting::new(2.0, 0.5, 0.25);
        let (r, report) = run_disturbed(
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &plan,
            RecoveryPolicy::FailFast,
            0.0,
            None,
        );
        let r = r.unwrap();
        assert!(
            r.makespan > baseline.makespan + 1e-6,
            "degraded {} vs healthy {}",
            r.makespan,
            baseline.makespan
        );
        assert_eq!(report.degrades, 1);
    }

    /// [`Counting`] that may declare [`ExecutionModel::fixed_tasks_only`].
    struct Declared {
        inner: Counting,
        fixed_only: bool,
    }

    impl ExecutionModel for Declared {
        fn task_execution(&mut self, t: TaskId, k: Kernel, h: &[HostId]) -> TaskExecution {
            self.inner.task_execution(t, k, h)
        }
        fn startup_overhead(&mut self, t: TaskId, p: usize) -> f64 {
            self.inner.startup_overhead(t, p)
        }
        fn redist_overhead(&mut self, s: usize, d: usize) -> f64 {
            self.inner.redist_overhead(s, d)
        }
        fn fixed_tasks_only(&self) -> bool {
            self.fixed_only
        }
    }

    #[test]
    fn backbone_only_weights_never_hide_a_binding_private_link() {
        // Chain 0 → 1 → 2 on hosts 0, 1, 0: both 32 MB redistributions
        // cross the network. A fixed-task model's run must equal the
        // full-weight run wherever a private link can bind: under a
        // degrade window, and on a platform whose backbone is wider than
        // its links.
        let dag = chain_dag();
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 0), mk(1, 1), mk(2, 0)],
            est_makespan: 30.0,
        };
        let run = |cluster: &Cluster, plan: &DisturbancePlan, fixed_only: bool| {
            let mut model = Declared {
                inner: Counting::new(2.0, 0.5, 0.25),
                fixed_only,
            };
            let (r, _) = run_disturbed(
                &dag,
                cluster,
                &schedule,
                &mut model,
                plan,
                RecoveryPolicy::FailFast,
                0.0,
                None,
            );
            r.unwrap()
        };

        let star = Cluster::bayreuth();
        let healthy = run(&star, &DisturbancePlan::default(), true);
        assert_eq!(healthy, run(&star, &DisturbancePlan::default(), false));
        let degraded = DisturbancePlan::builder(1)
            .degrade(HostId(1), 0.0, 100.0, 50.0)
            .build();
        let stretched = run(&star, &degraded, true);
        assert!(
            stretched.makespan > healthy.makespan + 1.0,
            "degraded {} vs healthy {}",
            stretched.makespan,
            healthy.makespan
        );
        assert_eq!(stretched, run(&star, &degraded, false));

        let mut spec = mps_platform::ClusterSpec::bayreuth();
        spec.backbone_bandwidth *= 10.0;
        let wide = spec.build().unwrap();
        let link_bound = run(&wide, &DisturbancePlan::default(), true);
        assert_eq!(link_bound, run(&wide, &DisturbancePlan::default(), false));
        assert_eq!(link_bound, healthy, "the links bind as the backbone did");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mps_dag::{generate, DagGenParams};
    use mps_model::{AnalyticModel, EmpiricalModel, PerfModel};
    use mps_sched::{Hcpa, Mcpa, Scheduler};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For arbitrary generated DAGs and both algorithms, execution under
        /// a deterministic model yields finite makespans, dependency-ordered
        /// spans, and a makespan at least the longest single task.
        #[test]
        fn execution_invariants(
            tasks in 1usize..14,
            width_exp in 1u32..4,
            ratio in 0.0f64..1.0,
            seed in 0u64..3000,
            use_empirical in any::<bool>(),
        ) {
            let params = DagGenParams {
                tasks,
                input_matrices: 2usize.pow(width_exp),
                add_ratio: ratio,
                matrix_size: 2000,
            };
            let dag = generate(&params, seed);
            let cluster = Cluster::bayreuth();
            for algo in [&Hcpa as &dyn Scheduler, &Mcpa] {
                let (schedule, result) = if use_empirical {
                    let model = EmpiricalModel::table_ii();
                    let schedule = algo.schedule(&dag, &cluster, &model);
                    let mut exec = crate::simulator::ModelExecution::new(model);
                    let result = execute(&dag, &cluster, &schedule, &mut exec).unwrap();
                    (schedule, result)
                } else {
                    let model = AnalyticModel::paper_jvm();
                    let schedule = algo.schedule(&dag, &cluster, &model);
                    let mut exec = crate::simulator::ModelExecution::new(model);
                    let result = execute(&dag, &cluster, &schedule, &mut exec).unwrap();
                    (schedule, result)
                };
                prop_assert!(result.makespan.is_finite() && result.makespan >= 0.0);
                // Dependencies respected.
                for t in dag.task_ids() {
                    let (s, f) = result.task_spans[t.index()];
                    prop_assert!(f >= s - 1e-9);
                    for &pred in dag.predecessors(t) {
                        prop_assert!(s >= result.task_spans[pred.index()].1 - 1e-9);
                    }
                }
                // The makespan covers every span.
                for &(_, f) in &result.task_spans {
                    prop_assert!(result.makespan >= f - 1e-9);
                }
                // Host-exclusivity: tasks sharing a host never overlap.
                for a in &schedule.tasks {
                    for b in &schedule.tasks {
                        if a.task >= b.task {
                            continue;
                        }
                        let share = a.hosts.iter().any(|h| b.hosts.contains(h));
                        if share {
                            let (sa, fa) = result.task_spans[a.task.index()];
                            let (sb, fb) = result.task_spans[b.task.index()];
                            prop_assert!(
                                fa <= sb + 1e-9 || fb <= sa + 1e-9,
                                "overlap: {:?} vs {:?}",
                                (sa, fa),
                                (sb, fb)
                            );
                        }
                    }
                }
                // The model is consulted at least once per task; makespan is
                // bounded below by the longest single task duration.
                let longest = dag
                    .task_ids()
                    .map(|t| {
                        let p = schedule
                            .placement(t)
                            .expect("placed")
                            .p();
                        if use_empirical {
                            EmpiricalModel::table_ii().task_time(dag.task(t).kernel, p)
                        } else {
                            AnalyticModel::paper_jvm().task_time(dag.task(t).kernel, p)
                        }
                    })
                    .fold(0.0_f64, f64::max);
                prop_assert!(result.makespan >= longest * 0.999);
            }
        }
    }
}

#[cfg(test)]
mod repro_review {
    use super::*;
    use mps_faults::{DisturbReport, DisturbancePlan, RecoveryPolicy};
    use mps_kernels::Kernel;
    use mps_sched::{Schedule, ScheduledTask};

    struct PerTask;
    impl ExecutionModel for PerTask {
        fn task_execution(&mut self, task: TaskId, _k: Kernel, _h: &[HostId]) -> TaskExecution {
            TaskExecution::Fixed(if task.index() == 2 { 10.0 } else { 2.0 })
        }
        fn startup_overhead(&mut self, _t: TaskId, _p: usize) -> f64 {
            0.5
        }
        fn redist_overhead(&mut self, _s: usize, _d: usize) -> f64 {
            1.0
        }
    }

    #[test]
    fn stale_redist_after_rescue_replan() {
        // A(0) -> B(1); C(2) independent, long-running on host 0.
        let dag = Dag::new(
            vec![Kernel::MatAdd { n: 2000 }; 3],
            &[(TaskId(0), TaskId(1))],
        )
        .unwrap();
        let cluster = Cluster::bayreuth();
        let mk = |t: usize, h: usize| ScheduledTask {
            task: TaskId(t),
            hosts: vec![HostId(h)],
            est_start: t as f64 * 10.0,
            est_finish: (t + 1) as f64 * 10.0,
        };
        let schedule = Schedule {
            algorithm: "manual".into(),
            tasks: vec![mk(0, 1), mk(1, 2), mk(2, 0)],
            est_makespan: 1.0,
        };
        // A spans [0, 2.5]; redist A->B in flight from 2.5; crash host 0
        // at 3.0 strands C; rescue moves B to host 3 and C to host 1.
        let plan = DisturbancePlan::builder(1).crash(HostId(0), 3.0).build();
        let mut replan = |survivors: &[HostId]| -> Option<Schedule> {
            assert!(!survivors.contains(&HostId(0)));
            Some(Schedule {
                algorithm: "rescue".into(),
                tasks: vec![mk(1, 3), mk(2, 1)],
                est_makespan: 1.0,
            })
        };
        let mut slab = ExecSlab::new();
        let mut report = DisturbReport::default();
        let mut model = PerTask;
        let r = execute_prevalidated(
            &mut slab,
            &dag,
            &cluster,
            &schedule,
            &mut model,
            &ExecPolicy::default(),
            DisturbSetup {
                plan: &plan,
                recovery: RecoveryPolicy::Rescue,
                rescue_overhead: 0.0,
                replan: Some(&mut replan),
            },
            &mut report,
        );
        eprintln!("result: {r:?} report: {report:?}");
        r.unwrap();
    }
}
