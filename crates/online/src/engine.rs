//! The streaming scheduling engine: a seeded arrival process feeding
//! moldable CPA-family allocation over the incremental DES, sustained
//! over million-event horizons with bounded memory.
//!
//! # Execution model
//!
//! One DES resource per cluster host (capacity 1.0). A job — a DAG drawn
//! from the shared corpus — claims an *exclusive* subset of free hosts
//! (moldable: `min(free, max_width)` lowest-indexed hosts), runs its
//! precomputed plan as a single activity spanning the claimed resources
//! (weight 1.0 each, amount = plan makespan, so the solo-rate fast path
//! yields `duration == makespan` with no solver involvement), and returns
//! the hosts at completion. Per-task completion ticks are modelled as
//! timers at each task's plan-relative finish time, so the event stream
//! carries task-level granularity at timer-path cost.
//!
//! # The allocation-free argument
//!
//! Steady state performs no unbounded work per event:
//!
//! * **Plans are memoized** per `(dag, width)` for the run's algorithm —
//!   at most `|corpus| × hosts` entries (54 × 32 here). Cache hits make
//!   dispatch O(width); misses run the real CPA/HCPA/MCPA pipeline on a
//!   warm [`AllocationEngine`] whose τ-table is keyed per DAG, so even
//!   misses at new widths reuse every model evaluation.
//! * **Job state lives in a slab** (`Vec` + free-list) whose slots retain
//!   their host-`Vec` capacity across reuse; the activity→job map is a
//!   `HashMap` bounded by inflight jobs, inserted and removed in pairs.
//! * **The DES hot path** ([`Engine::step_into`]) is allocation-free
//!   warm, and the dominant event class (timers) never touches the
//!   sharing solver.
//! * **Metrics are fixed-size**: latency goes through the P² sketch
//!   ([`QuantileSketch`], five markers per quantile), counters are
//!   scalars. Nothing grows with the horizon.
//!
//! # Determinism
//!
//! A run is a pure function of [`OnlineConfig`]: arrivals come from a
//! seeded splitmix64 stream, plans are deterministic, and the DES breaks
//! ties on monotone ids. The returned [`OnlineRun`] (and its FNV trace
//! digest folded over every event) is byte-identical across repeats,
//! batch sizes, and worker counts; wall-clock measurements are the
//! caller's business and never contaminate the deterministic report.

use std::collections::{HashMap, VecDeque};

use mps_dag::Dag;
use mps_des::{ActivitySpec, Completion, Engine, ResourceId};
use mps_model::AnalyticModel;
use mps_platform::{Cluster, ClusterSpec};
use mps_sched::{AllocKey, AllocationEngine, Cpa, Hcpa, Mcpa, Scheduler};
use mps_stats::QuantileSketch;
use serde::{Deserialize, Serialize};

use crate::admission::{Admission, AdmissionController};
use crate::arrival::{ArrivalProcess, ArrivalSpec};
use crate::OnlineError;

/// Which allocator drives job planning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OnlineAlgo {
    /// Radulescu & van Gemund's CPA.
    Cpa,
    /// Heterogeneous CPA.
    Hcpa,
    /// Modified CPA.
    Mcpa,
}

impl OnlineAlgo {
    /// Canonical name (matches the scheduler's `name()`).
    pub fn name(self) -> &'static str {
        match self {
            OnlineAlgo::Cpa => "CPA",
            OnlineAlgo::Hcpa => "HCPA",
            OnlineAlgo::Mcpa => "MCPA",
        }
    }

    /// Parses a case-insensitive algorithm name.
    pub fn parse(s: &str) -> Result<Self, OnlineError> {
        match s.trim().to_ascii_uppercase().as_str() {
            "CPA" => Ok(OnlineAlgo::Cpa),
            "HCPA" => Ok(OnlineAlgo::Hcpa),
            "MCPA" => Ok(OnlineAlgo::Mcpa),
            other => Err(OnlineError::Config(format!(
                "unknown algorithm {other:?} (want CPA, HCPA, or MCPA)"
            ))),
        }
    }

    fn scheduler(self) -> &'static dyn Scheduler {
        match self {
            OnlineAlgo::Cpa => &Cpa,
            OnlineAlgo::Hcpa => &Hcpa,
            OnlineAlgo::Mcpa => &Mcpa,
        }
    }
}

/// Configuration for one streaming run.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineConfig {
    /// Arrival process.
    pub arrival: ArrivalSpec,
    /// Seed for the arrival stream (job times and corpus draws).
    pub seed: u64,
    /// Stop admitting arrivals once this many DES events have been
    /// processed; the run then drains to idle.
    pub horizon_events: u64,
    /// Admission cap on backlog + inflight jobs (0 sheds everything).
    pub admission_cap: usize,
    /// Widest host subset a job may claim (clamped to the cluster).
    pub max_width: usize,
    /// Steps between memory-footprint samples (flush granularity only —
    /// never affects the event trace). 0 means every step.
    pub batch: usize,
    /// Planning algorithm.
    pub algo: OnlineAlgo,
}

impl OnlineConfig {
    /// A config with the crate's defaults: 1M-event horizon, admission
    /// cap 64, full-width moldability, per-256-step sampling.
    pub fn new(arrival: ArrivalSpec, algo: OnlineAlgo) -> Self {
        OnlineConfig {
            arrival,
            seed: 0,
            horizon_events: 1_000_000,
            admission_cap: 64,
            max_width: usize::MAX,
            batch: 256,
            algo,
        }
    }
}

/// The deterministic outcome of a run. Every field is a pure function of
/// the [`OnlineConfig`]; the `Debug` rendering round-trips f64 bits, so
/// string equality of two reports is bit equality of two runs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OnlineRun {
    /// Arrival spec, in grammar form.
    pub arrival: String,
    /// Algorithm name.
    pub algo: String,
    /// Seed the run used.
    pub seed: u64,
    /// Configured horizon.
    pub horizon_events: u64,
    /// DES events actually processed (≥ horizon unless the drain was short).
    pub events: u64,
    /// Jobs that arrived while the horizon was open.
    pub arrivals: u64,
    /// Jobs admitted past the controller.
    pub admitted: u64,
    /// Jobs shed with a retry hint.
    pub shed: u64,
    /// Retry hint attached to the last shed, simulated ms (0 if none).
    pub last_retry_hint_ms: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Simulated end time, seconds.
    pub sim_seconds: f64,
    /// Busy host-seconds ÷ (hosts × sim time): cluster utilization.
    pub utilization: f64,
    /// Job sojourn (admission → completion), simulated ms.
    pub latency_mean_ms: f64,
    /// Median sojourn.
    pub latency_p50_ms: f64,
    /// 99th-percentile sojourn (P² estimate).
    pub latency_p99_ms: f64,
    /// 99.9th-percentile sojourn (P² estimate).
    pub latency_p999_ms: f64,
    /// Deepest backlog observed.
    pub max_backlog: usize,
    /// Most jobs inflight at once.
    pub max_inflight: usize,
    /// FNV-1a digest folded over every event (kind, id, time bits) —
    /// two runs with equal digests executed the same event trace.
    pub trace_digest: u64,
}

/// Peak sizes of the growable structures, sampled every `batch` steps.
/// Reported *alongside* [`OnlineRun`], never inside it: the sampling
/// cadence is a flush knob, so these may legitimately differ between
/// batch sizes while the event trace stays identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct OnlineHighWater {
    /// DES activity-slab slots.
    pub des_slab_slots: usize,
    /// DES timer-heap entries.
    pub des_timer_heap: usize,
    /// Largest of all DES structure high-waters.
    pub des_high_water: usize,
    /// Job-slab slots (inflight jobs).
    pub job_slots: usize,
    /// Plan-cache entries at the end of the run (monotone, exact).
    pub plan_cache_entries: usize,
}

/// A run's full result.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct OnlineOutcome {
    /// The deterministic report.
    pub run: OnlineRun,
    /// Memory high-water marks (cadence-dependent, see type docs).
    pub high_water: OnlineHighWater,
}

/// A memoized job plan for one `(dag, width)` under the run's algorithm.
#[derive(Debug, Clone)]
struct JobPlan {
    /// Estimated makespan on `width` dedicated hosts, seconds.
    makespan: f64,
    /// Σ over tasks of `(est_finish − est_start) × p`: busy host-seconds.
    busy_host_seconds: f64,
    /// Plan-relative task finish times, for per-task completion ticks.
    task_finishes: Vec<f64>,
}

/// One inflight job's state. Slots are reused via a free-list and keep
/// their `hosts` capacity across reuse.
#[derive(Debug, Default)]
struct JobSlot {
    live: bool,
    admit_time: f64,
    busy_host_seconds: f64,
    hosts: Vec<u32>,
}

/// A job admitted but not yet dispatched.
#[derive(Debug, Clone, Copy)]
struct Pending {
    dag: u32,
    admit_time: f64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The reusable streaming engine. Construction is cheap; the value of
/// keeping one alive across runs is the warm plan cache, τ-tables, and
/// grown buffers — all of which are bit-identical to a cold start.
pub struct OnlineEngine<'c> {
    corpus: &'c [Dag],
    model: AnalyticModel,
    cluster_nodes: usize,
    /// Sub-clusters by width, built lazily (`[m]` is an m-node platform).
    subclusters: Vec<Option<Cluster>>,
    alloc: AllocationEngine,
    /// Plan memo: (algo, dag index, width) → plan.
    plans: HashMap<(OnlineAlgo, u32, u32), JobPlan>,
    des: Engine,
    resources: Vec<ResourceId>,
    // --- per-run scratch, kept warm across runs ---
    completions: Vec<Completion>,
    jobs: Vec<JobSlot>,
    free_jobs: Vec<u32>,
    backlog: VecDeque<Pending>,
    host_free: Vec<bool>,
    act2job: HashMap<u64, u32>,
}

impl<'c> OnlineEngine<'c> {
    /// An engine over `corpus` on the paper's 32-node cluster.
    pub fn new(corpus: &'c [Dag]) -> Result<Self, OnlineError> {
        Self::with_cluster_spec(corpus, ClusterSpec::bayreuth())
    }

    /// An engine over `corpus` on an arbitrary cluster spec.
    pub fn with_cluster_spec(corpus: &'c [Dag], spec: ClusterSpec) -> Result<Self, OnlineError> {
        if corpus.is_empty() {
            return Err(OnlineError::Config("corpus is empty".into()));
        }
        let nodes = spec.nodes;
        if nodes == 0 {
            return Err(OnlineError::Config("cluster has no nodes".into()));
        }
        let mut subclusters: Vec<Option<Cluster>> = vec![None; nodes + 1];
        // Width-m jobs plan against an m-node copy of the platform.
        for (m, slot) in subclusters.iter_mut().enumerate().skip(1) {
            let mut sub = spec.clone();
            sub.nodes = m;
            *slot = Some(
                sub.build()
                    .map_err(|e| OnlineError::Config(format!("bad cluster spec: {e}")))?,
            );
        }
        let mut des = Engine::new();
        let resources = (0..nodes).map(|_| des.add_resource(1.0)).collect();
        Ok(OnlineEngine {
            corpus,
            model: AnalyticModel::paper_jvm(),
            cluster_nodes: nodes,
            subclusters,
            alloc: AllocationEngine::new(),
            plans: HashMap::new(),
            des,
            resources,
            completions: Vec::new(),
            jobs: Vec::new(),
            free_jobs: Vec::new(),
            backlog: VecDeque::new(),
            host_free: vec![true; nodes],
            act2job: HashMap::new(),
        })
    }

    /// Number of hosts in the live cluster.
    pub fn hosts(&self) -> usize {
        self.cluster_nodes
    }

    /// Plans `(dag, width)` under `algo`, memoized. τ is keyed per DAG
    /// (it does not depend on the width), so even a cache miss at a new
    /// width reuses every model evaluation for that DAG.
    fn plan(&mut self, algo: OnlineAlgo, dag: u32, width: u32) -> &JobPlan {
        self.plans.entry((algo, dag, width)).or_insert_with(|| {
            let d = &self.corpus[dag as usize];
            let cluster = self.subclusters[width as usize]
                .as_ref()
                .expect("widths 1..=nodes are prebuilt");
            let key = AllocKey {
                dag: dag as u64,
                model: 0, // one model per engine
            };
            let schedule = algo.scheduler().schedule_with_keyed_engine(
                d,
                cluster,
                &self.model,
                &mut self.alloc,
                key,
            );
            let busy: f64 = schedule
                .tasks
                .iter()
                .map(|t| (t.est_finish - t.est_start) * t.p() as f64)
                .sum();
            let mut finishes: Vec<f64> = schedule.tasks.iter().map(|t| t.est_finish).collect();
            finishes.sort_by(f64::total_cmp);
            JobPlan {
                makespan: schedule.est_makespan.max(f64::MIN_POSITIVE),
                busy_host_seconds: busy,
                task_finishes: finishes,
            }
        })
    }

    /// Runs one streaming horizon. Deterministic: see the module docs.
    pub fn run(&mut self, cfg: &OnlineConfig) -> Result<OnlineOutcome, OnlineError> {
        if cfg.horizon_events == 0 {
            return Err(OnlineError::Config("horizon must be > 0 events".into()));
        }
        // Reset per-run state; capacity in every buffer survives.
        self.des.reset();
        self.completions.clear();
        self.jobs.clear();
        self.free_jobs.clear();
        self.backlog.clear();
        self.act2job.clear();
        for f in &mut self.host_free {
            *f = true;
        }
        let mut free_hosts = self.cluster_nodes;
        let max_width = cfg.max_width.clamp(1, self.cluster_nodes);
        let sample_every = cfg.batch.max(1) as u64;

        let mut arrivals = ArrivalProcess::new(cfg.arrival, cfg.seed);
        let mut admission = AdmissionController::new(cfg.admission_cap);
        let mut latency = QuantileSketch::new();
        let mut digest = FNV_OFFSET;
        digest = fnv(digest, cfg.seed);
        digest = fnv(digest, cfg.horizon_events);

        let mut events: u64 = 0;
        let mut steps: u64 = 0;
        let mut arrived: u64 = 0;
        let mut completed: u64 = 0;
        let mut last_hint: u64 = 0;
        let mut busy_committed = 0.0_f64;
        let mut max_backlog = 0usize;
        let mut max_inflight = 0usize;
        let mut hw = OnlineHighWater::default();

        // Arm the first arrival. The arrival timer is the only timer we
        // track by id — every other timer is a per-task completion tick.
        let mut arrival_timer = Some(
            self.des
                .schedule_timer(arrivals.next_delay())
                .map_err(OnlineError::Engine)?
                .raw(),
        );

        loop {
            let stepped = self
                .des
                .step_into(&mut self.completions)
                .map_err(OnlineError::Engine)?;
            let Some(now) = stepped else {
                // Engine idle. Anything still backlogged is dispatchable
                // (hosts must all be free), so an empty engine means done.
                debug_assert!(self.backlog.is_empty());
                break;
            };
            steps += 1;
            events += self.completions.len() as u64;
            digest = fnv(digest, now.to_bits());

            // Borrow dance: completions are drained into locals so the
            // handlers below can take &mut self freely.
            let mut arrival_fired = false;
            for i in 0..self.completions.len() {
                match self.completions[i] {
                    Completion::Timer(t) if Some(t.raw()) == arrival_timer => {
                        digest = fnv(digest, 1);
                        digest = fnv(digest, t.raw());
                        arrival_fired = true;
                    }
                    Completion::Timer(t) => {
                        // Per-task completion tick: pure event, no state.
                        digest = fnv(digest, 2);
                        digest = fnv(digest, t.raw());
                    }
                    Completion::Activity(a) => {
                        digest = fnv(digest, 3);
                        digest = fnv(digest, a.raw());
                        let slot = self
                            .act2job
                            .remove(&a.raw())
                            .expect("every activity belongs to a job");
                        let job = &mut self.jobs[slot as usize];
                        debug_assert!(job.live);
                        job.live = false;
                        for &h in &job.hosts {
                            debug_assert!(!self.host_free[h as usize]);
                            self.host_free[h as usize] = true;
                        }
                        free_hosts += job.hosts.len();
                        busy_committed += job.busy_host_seconds;
                        let sojourn_ms = (now - job.admit_time) * 1000.0;
                        admission.finish(sojourn_ms);
                        latency.observe(sojourn_ms);
                        completed += 1;
                        self.free_jobs.push(slot);
                    }
                }
            }

            if arrival_fired {
                arrival_timer = None;
                if events < cfg.horizon_events {
                    // The dag draw precedes the admission test so the
                    // arrival stream is invariant to shed decisions.
                    let dag = arrivals.next_dag(self.corpus.len()) as u32;
                    arrived += 1;
                    match admission.offer(self.backlog.len(), self.act2job.len()) {
                        Admission::Admitted => {
                            self.backlog.push_back(Pending {
                                dag,
                                admit_time: now,
                            });
                        }
                        Admission::Shed { retry_after_ms } => {
                            last_hint = retry_after_ms;
                            digest = fnv(digest, retry_after_ms);
                        }
                    }
                    arrival_timer = Some(
                        self.des
                            .schedule_timer(arrivals.next_delay())
                            .map_err(OnlineError::Engine)?
                            .raw(),
                    );
                }
            }

            // Dispatch everything dispatchable: moldable jobs take
            // min(free, max_width) lowest-indexed free hosts, so one free
            // host suffices and the backlog drains whenever capacity does.
            while !self.backlog.is_empty() && free_hosts > 0 {
                let pending = self.backlog.pop_front().expect("checked non-empty");
                let width = free_hosts.min(max_width) as u32;
                let (makespan, busy, n_ticks) = {
                    let plan = self.plan(cfg.algo, pending.dag, width);
                    (
                        plan.makespan,
                        plan.busy_host_seconds,
                        plan.task_finishes.len(),
                    )
                };
                let slot = match self.free_jobs.pop() {
                    Some(s) => s,
                    None => {
                        self.jobs.push(JobSlot::default());
                        (self.jobs.len() - 1) as u32
                    }
                };
                let job = &mut self.jobs[slot as usize];
                job.live = true;
                job.admit_time = pending.admit_time;
                job.busy_host_seconds = busy;
                job.hosts.clear();
                // Claim ascending host indices: resource ids were created
                // in host order, so the spec hits the solo-rate fast path.
                let mut spec = ActivitySpec::new(makespan);
                for (h, free) in self.host_free.iter_mut().enumerate() {
                    if job.hosts.len() as u32 == width {
                        break;
                    }
                    if *free {
                        *free = false;
                        job.hosts.push(h as u32);
                        spec = spec.on(self.resources[h], 1.0);
                    }
                }
                debug_assert_eq!(job.hosts.len() as u32, width);
                free_hosts -= width as usize;
                let act = self.des.start(spec).map_err(OnlineError::Engine)?;
                self.act2job.insert(act.raw(), slot);
                // Per-task completion ticks at plan-relative finishes.
                for i in 0..n_ticks {
                    let delay = self.plans[&(cfg.algo, pending.dag, width)].task_finishes[i];
                    self.des
                        .schedule_timer(delay)
                        .map_err(OnlineError::Engine)?;
                }
            }

            max_backlog = max_backlog.max(self.backlog.len());
            max_inflight = max_inflight.max(self.act2job.len());
            if steps.is_multiple_of(sample_every) {
                let fp = self.des.memory_footprint();
                hw.des_slab_slots = hw.des_slab_slots.max(fp.slab_slots);
                hw.des_timer_heap = hw.des_timer_heap.max(fp.timer_heap);
                hw.des_high_water = hw.des_high_water.max(fp.high_water());
                hw.job_slots = hw.job_slots.max(self.jobs.len());
            }
        }

        // Final exact samples (cadence-independent: the run is over).
        let fp = self.des.memory_footprint();
        hw.des_slab_slots = hw.des_slab_slots.max(fp.slab_slots);
        hw.des_timer_heap = hw.des_timer_heap.max(fp.timer_heap);
        hw.des_high_water = hw.des_high_water.max(fp.high_water());
        hw.job_slots = hw.job_slots.max(self.jobs.len());
        hw.plan_cache_entries = self.plans.len();

        let sim_seconds = self.des.now();
        let utilization = if sim_seconds > 0.0 {
            busy_committed / (self.cluster_nodes as f64 * sim_seconds)
        } else {
            0.0
        };
        digest = fnv(digest, events);
        digest = fnv(digest, completed);
        digest = fnv(digest, sim_seconds.to_bits());
        digest = fnv(digest, utilization.to_bits());
        digest = fnv(digest, latency.p99().to_bits());

        Ok(OnlineOutcome {
            run: OnlineRun {
                arrival: cfg.arrival.to_string(),
                algo: cfg.algo.name().to_string(),
                seed: cfg.seed,
                horizon_events: cfg.horizon_events,
                events,
                arrivals: arrived,
                admitted: admission.admitted(),
                shed: admission.shed(),
                last_retry_hint_ms: last_hint,
                completed,
                sim_seconds,
                utilization,
                latency_mean_ms: latency.mean(),
                latency_p50_ms: latency.p50(),
                latency_p99_ms: latency.p99(),
                latency_p999_ms: latency.p999(),
                max_backlog,
                max_inflight,
                trace_digest: digest,
            },
            high_water: hw,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_dag::gen::{paper_corpus, PAPER_CORPUS_SEED};

    fn small_cfg(algo: OnlineAlgo) -> OnlineConfig {
        OnlineConfig {
            arrival: ArrivalSpec::parse("poisson@0.5").unwrap(),
            seed: 7,
            horizon_events: 20_000,
            admission_cap: 32,
            max_width: 8,
            batch: 64,
            algo,
        }
    }

    #[test]
    fn run_reaches_horizon_and_accounts_jobs() {
        let corpus: Vec<_> = paper_corpus(PAPER_CORPUS_SEED)
            .into_iter()
            .map(|g| g.dag)
            .collect();
        let mut engine = OnlineEngine::new(&corpus).unwrap();
        let out = engine.run(&small_cfg(OnlineAlgo::Hcpa)).unwrap();
        let r = &out.run;
        assert!(r.events >= r.horizon_events, "{} events", r.events);
        assert!(r.completed > 0);
        assert_eq!(r.arrivals, r.admitted + r.shed);
        // Drain invariant: everything admitted eventually completes.
        assert_eq!(r.completed, r.admitted);
        assert!(r.sim_seconds > 0.0);
        assert!(
            r.utilization > 0.0 && r.utilization <= 1.0,
            "{}",
            r.utilization
        );
        assert!(r.latency_p99_ms >= r.latency_p50_ms);
        assert!(out.high_water.plan_cache_entries > 0);
    }

    #[test]
    fn repeat_runs_are_bit_identical_and_batch_invariant() {
        let corpus: Vec<_> = paper_corpus(PAPER_CORPUS_SEED)
            .into_iter()
            .map(|g| g.dag)
            .collect();
        let mut engine = OnlineEngine::new(&corpus).unwrap();
        let mut cfg = small_cfg(OnlineAlgo::Mcpa);
        let a = engine.run(&cfg).unwrap();
        // Warm engine, same config.
        let b = engine.run(&cfg).unwrap();
        assert_eq!(format!("{:?}", a.run), format!("{:?}", b.run));
        // Cold engine.
        let mut cold = OnlineEngine::new(&corpus).unwrap();
        let c = cold.run(&cfg).unwrap();
        assert_eq!(format!("{:?}", a.run), format!("{:?}", c.run));
        // Batch size changes sampling cadence only.
        cfg.batch = 1;
        let d = cold.run(&cfg).unwrap();
        assert_eq!(format!("{:?}", a.run), format!("{:?}", d.run));
    }

    #[test]
    fn overload_sheds_with_hints() {
        let corpus: Vec<_> = paper_corpus(PAPER_CORPUS_SEED)
            .into_iter()
            .map(|g| g.dag)
            .collect();
        let mut engine = OnlineEngine::new(&corpus).unwrap();
        let cfg = OnlineConfig {
            arrival: ArrivalSpec::parse("poisson@50").unwrap(),
            seed: 3,
            horizon_events: 20_000,
            admission_cap: 8,
            max_width: 4,
            batch: 64,
            algo: OnlineAlgo::Hcpa,
        };
        let out = engine.run(&cfg).unwrap();
        assert!(out.run.shed > 0, "overload must shed");
        assert!(out.run.last_retry_hint_ms >= 50);
        assert!(out.run.max_backlog <= 8);
    }

    #[test]
    fn zero_admission_cap_completes_nothing() {
        let corpus: Vec<_> = paper_corpus(PAPER_CORPUS_SEED)
            .into_iter()
            .map(|g| g.dag)
            .collect();
        let mut engine = OnlineEngine::new(&corpus).unwrap();
        let mut cfg = small_cfg(OnlineAlgo::Cpa);
        cfg.admission_cap = 0;
        cfg.horizon_events = 1000;
        let out = engine.run(&cfg).unwrap();
        assert_eq!(out.run.admitted, 0);
        assert_eq!(out.run.completed, 0);
        assert_eq!(out.run.shed, out.run.arrivals);
    }

    #[test]
    fn memory_stays_bounded_relative_to_inflight() {
        let corpus: Vec<_> = paper_corpus(PAPER_CORPUS_SEED)
            .into_iter()
            .map(|g| g.dag)
            .collect();
        let mut engine = OnlineEngine::new(&corpus).unwrap();
        let cfg = OnlineConfig {
            arrival: ArrivalSpec::parse("mmpp@20:0.2:5:20").unwrap(),
            seed: 9,
            horizon_events: 50_000,
            admission_cap: 16,
            max_width: 4,
            batch: 1,
            algo: OnlineAlgo::Hcpa,
        };
        let out = engine.run(&cfg).unwrap();
        let half = engine
            .run(&OnlineConfig {
                horizon_events: cfg.horizon_events / 2,
                ..cfg
            })
            .unwrap();
        // 16 admitted jobs max, ≤10 task ticks each, plus one arrival
        // timer: the slab and heaps must stay in that ballpark, not grow
        // with the 50k-event horizon — doubling it leaves the DES high
        // water where half the horizon put it.
        assert!(
            out.high_water.job_slots <= 16,
            "job slab {} > admission cap",
            out.high_water.job_slots
        );
        assert!(
            out.high_water.des_high_water < 1024,
            "DES footprint {} not bounded by inflight",
            out.high_water.des_high_water
        );
        assert!(
            out.high_water.des_high_water <= half.high_water.des_high_water.max(64),
            "DES high water grew with the horizon: {} @ half vs {} @ full",
            half.high_water.des_high_water,
            out.high_water.des_high_water
        );
    }
}
