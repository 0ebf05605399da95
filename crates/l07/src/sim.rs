//! The L07 simulator: platform resources + parallel-task submission.
//!
//! Maps a [`mps_platform::Cluster`] onto DES resources (one CPU per
//! host, one resource per private-link direction, one for the backbone) and
//! turns [`PTaskSpec`]s into single fluid activities:
//!
//! * each participating host CPU is consumed with weight = that host's flop
//!   amount;
//! * each link on the route of each flow is consumed with weight = the
//!   flow's byte count (flows sharing a link contend there, reproducing
//!   SimGrid's link-contention behaviour cited in §IV);
//! * the whole task advances with a **single progress rate** — computation
//!   and communication are coupled, exactly like `Ptask_L07`;
//! * network latency is charged once, as the maximum route latency over the
//!   task's flows (plus any caller-provided extra latency).

use mps_des::{ActivityId, ActivitySpec, Completion, Engine, EngineError, ResourceId};
use mps_platform::{Cluster, HostId, LinkId};

use crate::ptask::PTaskSpec;

/// Errors raised by the L07 simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum L07Error {
    /// A task referenced a host outside the platform.
    UnknownHost(HostId),
    /// A numeric field was negative or NaN.
    InvalidNumber {
        /// Which quantity was invalid.
        context: &'static str,
    },
    /// The DES engine failed.
    Engine(EngineError),
}

impl std::fmt::Display for L07Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            L07Error::UnknownHost(h) => write!(f, "unknown host {h}"),
            L07Error::InvalidNumber { context } => write!(f, "invalid number in {context}"),
            L07Error::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for L07Error {}

impl From<EngineError> for L07Error {
    fn from(e: EngineError) -> Self {
        L07Error::Engine(e)
    }
}

/// Identifier of a submitted parallel task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PTaskId(ActivityId);

impl PTaskId {
    /// Dense raw index of this task (see [`ActivityId::raw`]): within one
    /// simulator lifetime (or between [`L07Sim::reset`] calls) ids count up
    /// from zero, so callers can use this as a direct index into per-task
    /// side tables instead of a `HashMap`.
    pub fn index(self) -> usize {
        self.0.raw() as usize
    }
}

/// A completion event: which task finished and when.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PTaskCompletion {
    /// The completed task.
    pub task: PTaskId,
    /// Simulated completion time (seconds).
    pub time: f64,
}

/// The parallel-task simulator.
#[derive(Debug)]
pub struct L07Sim {
    engine: Engine,
    cluster: Cluster,
    cpu: Vec<ResourceId>,
    up: Vec<ResourceId>,
    down: Vec<ResourceId>,
    backbone: ResourceId,
    /// Every engine resource in id order (`cpu`, `up`, `down`, backbone);
    /// maps the raw indices used by the dense submit scratch back to ids.
    resources: Vec<ResourceId>,
    /// Dense per-resource weight accumulator reused across submissions.
    /// Always all-zero between calls to [`L07Sim::submit`].
    weight_acc: Vec<f64>,
    /// Raw indices of the resources touched by the current submission, in
    /// first-touch order.
    touched: Vec<usize>,
    /// See [`L07Sim::backbone_is_narrowest`].
    backbone_narrowest: bool,
    /// Reused by [`L07Sim::next_completions_into`] so steady-state stepping
    /// does not allocate.
    step_scratch: Vec<Completion>,
}

impl L07Sim {
    /// Builds a simulator over a cluster platform.
    pub fn new(cluster: Cluster) -> Self {
        let mut engine = Engine::new();
        let n = cluster.node_count();
        let cpu: Vec<ResourceId> = (0..n)
            .map(|i| engine.add_resource(cluster.host_speed(HostId(i))))
            .collect();
        let up: Vec<ResourceId> = (0..n)
            .map(|i| engine.add_resource(cluster.link_props(LinkId::Up(i)).bandwidth))
            .collect();
        let down: Vec<ResourceId> = (0..n)
            .map(|i| engine.add_resource(cluster.link_props(LinkId::Down(i)).bandwidth))
            .collect();
        let backbone = engine.add_resource(cluster.link_props(LinkId::Backbone).bandwidth);
        let resources: Vec<ResourceId> = cpu
            .iter()
            .chain(&up)
            .chain(&down)
            .copied()
            .chain(std::iter::once(backbone))
            .collect();
        let weight_acc = vec![0.0; resources.len()];
        let bb = cluster.link_props(LinkId::Backbone).bandwidth;
        let backbone_narrowest = (0..n).all(|i| {
            bb <= cluster.link_props(LinkId::Up(i)).bandwidth
                && bb <= cluster.link_props(LinkId::Down(i)).bandwidth
        });
        L07Sim {
            engine,
            cluster,
            cpu,
            up,
            down,
            backbone,
            resources,
            weight_acc,
            touched: Vec::new(),
            backbone_narrowest,
            step_scratch: Vec::new(),
        }
    }

    /// Rewinds to time zero with no tasks, keeping the platform mapping and
    /// every internal buffer allocation. Task ids restart from zero, so a
    /// reset simulator produces bit-identical results to a freshly built
    /// one — this is what lets executor slabs reuse one `L07Sim` across
    /// many runs instead of paying [`L07Sim::new`] per execution.
    pub fn reset(&mut self) {
        self.engine.reset();
        self.step_scratch.clear();
    }

    /// Enables DES trace recording.
    pub fn enable_tracing(&mut self) {
        self.engine.enable_tracing();
    }

    /// True when DES trace recording is enabled. Callers can skip building
    /// task labels entirely when it is not.
    pub fn tracing_enabled(&self) -> bool {
        self.engine.tracing_enabled()
    }

    /// Installs a divergence [`Watchdog`](mps_des::Watchdog) on the
    /// underlying engine; `None` disables it.
    pub fn set_watchdog(&mut self, watchdog: Option<mps_des::Watchdog>) {
        self.engine.set_watchdog(watchdog);
    }

    /// Enables resource-utilization metering (CPUs and links). Call before
    /// submitting tasks.
    pub fn enable_usage_metering(&mut self) {
        self.engine.enable_usage_metering();
    }

    /// Mean utilization of every host CPU over the simulated horizon
    /// (`None` unless metering was enabled).
    pub fn cpu_utilization(&self) -> Option<Vec<f64>> {
        let usage = self.engine.resource_usage()?;
        Some(
            self.cpu
                .iter()
                .map(|r| usage[r.index()].utilization())
                .collect(),
        )
    }

    /// Mean utilization of the backbone link (`None` unless metering was
    /// enabled).
    pub fn backbone_utilization(&self) -> Option<f64> {
        let usage = self.engine.resource_usage()?;
        Some(usage[self.backbone.index()].utilization())
    }

    /// The recorded trace.
    pub fn trace(&self) -> &mps_des::Trace {
        self.engine.trace()
    }

    /// The platform.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// True when the as-built backbone bandwidth is at most every private
    /// link's — the platform half of the condition under which
    /// [`L07Sim::submit_transfers`]'s backbone-only weights are exact.
    pub fn backbone_is_narrowest(&self) -> bool {
        self.backbone_narrowest
    }

    /// Current simulated time (seconds).
    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    /// Number of unfinished tasks.
    pub fn live_tasks(&self) -> usize {
        self.engine.live_activities()
    }

    /// True when no task is pending.
    pub fn is_idle(&self) -> bool {
        self.engine.is_idle()
    }

    fn resource_of_link(&self, link: LinkId) -> ResourceId {
        match link {
            LinkId::Up(i) => self.up[i],
            LinkId::Down(i) => self.down[i],
            LinkId::Backbone => self.backbone,
        }
    }

    /// Adds `w` (> 0) to the dense weight scratch for `r`, recording the
    /// first touch so the scratch can be drained and re-zeroed cheaply.
    fn accumulate_weight(&mut self, r: ResourceId, w: f64) {
        let i = r.index();
        if self.weight_acc[i] == 0.0 {
            self.touched.push(i);
        }
        self.weight_acc[i] += w;
    }

    /// Clears the dense weight scratch without starting a task.
    fn discard_weights(&mut self) {
        for &i in &self.touched {
            self.weight_acc[i] = 0.0;
        }
        self.touched.clear();
    }

    fn check_flow(&self, (s, d, b): (HostId, HostId, f64)) -> Result<(), L07Error> {
        let n = self.cluster.node_count();
        if s.index() >= n {
            return Err(L07Error::UnknownHost(s));
        }
        if d.index() >= n {
            return Err(L07Error::UnknownHost(d));
        }
        if b.is_nan() || b < 0.0 {
            return Err(L07Error::InvalidNumber {
                context: "flow bytes",
            });
        }
        Ok(())
    }

    /// Weighs one flow onto every link of its route — only the backbone
    /// with `backbone_only` — and folds its route latency into
    /// `max_latency`. Local and empty flows touch nothing.
    fn accumulate_flow(
        &mut self,
        (s, d, b): (HostId, HostId, f64),
        backbone_only: bool,
        max_latency: &mut f64,
    ) {
        if s == d || b <= 0.0 {
            return;
        }
        if backbone_only {
            self.accumulate_weight(self.backbone, b);
        } else {
            for link in self.cluster.route_links(s, d) {
                self.accumulate_weight(self.resource_of_link(link), b);
            }
        }
        *max_latency = max_latency.max(self.cluster.route_latency(s, d));
    }

    /// Starts one activity over the accumulated weights (in resource
    /// order) and drains the scratch.
    fn start_accumulated(
        &mut self,
        latency: f64,
        rate_bound: f64,
        label: Option<String>,
    ) -> Result<PTaskId, L07Error> {
        self.touched.sort_unstable();
        let mut sorted: Vec<(ResourceId, f64)> = Vec::with_capacity(self.touched.len());
        for &i in &self.touched {
            sorted.push((self.resources[i], self.weight_acc[i]));
            self.weight_acc[i] = 0.0;
        }
        self.touched.clear();

        let mut act = ActivitySpec::new(1.0)
            .with_latency(latency)
            .with_rate_bound(rate_bound);
        act.weights = sorted;
        if let Some(label) = label {
            act = act.with_label(label);
        }
        let id = self.engine.start(act)?;
        Ok(PTaskId(id))
    }

    /// Submits a parallel task; it starts consuming resources immediately.
    pub fn submit(&mut self, spec: PTaskSpec) -> Result<PTaskId, L07Error> {
        let n = self.cluster.node_count();
        for &(h, f) in &spec.comp {
            if h.index() >= n {
                return Err(L07Error::UnknownHost(h));
            }
            if f.is_nan() || f < 0.0 {
                return Err(L07Error::InvalidNumber {
                    context: "computation amount",
                });
            }
        }
        for &flow in &spec.flows {
            self.check_flow(flow)?;
        }
        if spec.extra_latency.is_nan() || spec.extra_latency < 0.0 {
            return Err(L07Error::InvalidNumber {
                context: "extra latency",
            });
        }

        // Accumulate per-resource weights: the task progresses from 0 to 1,
        // so weights are the full amounts. The dense `weight_acc` scratch
        // keyed by resource index applies the exact same sequence of `+=`
        // per resource as a map keyed by `ResourceId` would, so the sums
        // are bit-identical — only the container changed. Every contribution
        // is strictly positive (zero amounts are skipped), so a zero slot
        // means "untouched".
        debug_assert!(self.touched.is_empty());
        for &(h, f) in &spec.comp {
            if f > 0.0 {
                self.accumulate_weight(self.cpu[h.index()], f);
            }
        }
        let mut max_route_latency = 0.0_f64;
        for &flow in &spec.flows {
            self.accumulate_flow(flow, false, &mut max_route_latency);
        }
        self.start_accumulated(
            max_route_latency + spec.extra_latency,
            spec.rate_bound,
            spec.label,
        )
    }

    /// Submits a communication-only task — the task
    /// `submit(PTaskSpec::transfers(flows).with_extra_latency(extra_latency))`
    /// would start, label included — streamed from `flows` without
    /// building a spec.
    ///
    /// With `backbone_only`, each flow weighs the backbone alone. On the
    /// star every cross-host flow crosses `Up(s), Backbone, Down(d)`, so a
    /// transfer's weight on a private link is a sub-sum, in the same flow
    /// order, of its weight on the backbone, and a link's total load never
    /// exceeds the backbone's. When every task holding link weights is a
    /// transfer, the platform has [`L07Sim::backbone_is_narrowest`] and no
    /// capacity has been changed, the backbone binds first and max-min
    /// freezes every transfer there in one round: dropping the private-link
    /// weights leaves every rate, and so every completion time, the same
    /// bit for bit. Those conditions are the caller's to keep.
    pub fn submit_transfers(
        &mut self,
        flows: impl IntoIterator<Item = (HostId, HostId, f64)>,
        extra_latency: f64,
        backbone_only: bool,
        label: Option<String>,
    ) -> Result<PTaskId, L07Error> {
        debug_assert!(!backbone_only || self.backbone_narrowest);
        if extra_latency.is_nan() || extra_latency < 0.0 {
            return Err(L07Error::InvalidNumber {
                context: "extra latency",
            });
        }
        debug_assert!(self.touched.is_empty());
        let mut max_route_latency = 0.0_f64;
        for flow in flows {
            if let Err(e) = self.check_flow(flow) {
                self.discard_weights();
                return Err(e);
            }
            self.accumulate_flow(flow, backbone_only, &mut max_route_latency);
        }
        self.start_accumulated(max_route_latency + extra_latency, f64::INFINITY, label)
    }

    /// Advances to the next completion(s). `None` when idle.
    pub fn next_completions(&mut self) -> Result<Option<Vec<PTaskCompletion>>, L07Error> {
        let mut out = Vec::new();
        match self.next_completions_into(&mut out)? {
            true => Ok(Some(out)),
            false => Ok(None),
        }
    }

    /// Allocation-free variant of [`L07Sim::next_completions`]: fills `out`
    /// (cleared first) with the next batch of completions and returns
    /// `false` when the simulator is idle. `out` may legitimately come back
    /// empty on a `true` return if the step only fired engine timers.
    pub fn next_completions_into(
        &mut self,
        out: &mut Vec<PTaskCompletion>,
    ) -> Result<bool, L07Error> {
        out.clear();
        let mut scratch = std::mem::take(&mut self.step_scratch);
        let stepped = self.engine.step_into(&mut scratch);
        let time = self.engine.now();
        for c in &scratch {
            if let Completion::Activity(id) = c {
                out.push(PTaskCompletion {
                    task: PTaskId(*id),
                    time,
                });
            }
        }
        self.step_scratch = scratch;
        Ok(stepped?.is_some())
    }

    /// Crashes a host at the current simulated time: its CPU and both
    /// private-link directions are retired from the platform. Tasks still
    /// consuming those resources stall (typed, via the engine) unless the
    /// caller [`cancel`](L07Sim::cancel)s them — which is exactly what the
    /// disturbed executor does before re-planning.
    pub fn crash_host(&mut self, h: HostId) -> Result<(), L07Error> {
        let i = h.index();
        if i >= self.cluster.node_count() {
            return Err(L07Error::UnknownHost(h));
        }
        self.engine.retire_resource(self.cpu[i]);
        self.engine.retire_resource(self.up[i]);
        self.engine.retire_resource(self.down[i]);
        Ok(())
    }

    /// True once [`L07Sim::crash_host`] removed the host.
    pub fn host_is_crashed(&self, h: HostId) -> bool {
        self.engine.is_retired(self.cpu[h.index()])
    }

    /// Scales a host's CPU to `base_speed / factor` (`factor == 1.0`
    /// restores the exact as-built capacity). No-op on crashed hosts.
    pub fn set_host_factor(&mut self, h: HostId, factor: f64) -> Result<(), L07Error> {
        let i = h.index();
        if i >= self.cluster.node_count() {
            return Err(L07Error::UnknownHost(h));
        }
        if factor.is_nan() || factor < 1.0 {
            return Err(L07Error::InvalidNumber {
                context: "slowdown factor",
            });
        }
        let r = self.cpu[i];
        let base = self.engine.base_capacity(r);
        self.engine.set_capacity(r, base / factor)?;
        Ok(())
    }

    /// Scales both private-link directions of a host to
    /// `base_bandwidth / factor` (`factor == 1.0` restores exactly).
    /// No-op on crashed hosts.
    pub fn set_link_factor(&mut self, h: HostId, factor: f64) -> Result<(), L07Error> {
        let i = h.index();
        if i >= self.cluster.node_count() {
            return Err(L07Error::UnknownHost(h));
        }
        if factor.is_nan() || factor < 1.0 {
            return Err(L07Error::InvalidNumber {
                context: "degrade factor",
            });
        }
        for r in [self.up[i], self.down[i]] {
            let base = self.engine.base_capacity(r);
            self.engine.set_capacity(r, base / factor)?;
        }
        Ok(())
    }

    /// Cancels a live task without reporting a completion; returns `false`
    /// when it already finished or was cancelled (idempotent).
    pub fn cancel(&mut self, task: PTaskId) -> bool {
        self.engine.cancel(task.0)
    }

    /// Schedules an engine wake-up `delay` seconds from now. The matching
    /// step returns `true` from [`L07Sim::next_completions_into`] with an
    /// empty batch — the disturbed executor uses this to observe the
    /// simulator exactly at disturbance times.
    pub fn schedule_timer(&mut self, delay: f64) -> Result<(), L07Error> {
        self.engine.schedule_timer(delay)?;
        Ok(())
    }

    /// Runs a single task to completion on an otherwise idle simulator and
    /// returns its duration. Convenience for model validation.
    pub fn run_single(&mut self, spec: PTaskSpec) -> Result<f64, L07Error> {
        let start = self.now();
        let id = self.submit(spec)?;
        loop {
            match self.next_completions()? {
                None => return Err(L07Error::Engine(EngineError::Stalled { time: self.now() })),
                Some(completions) => {
                    if let Some(c) = completions.iter().find(|c| c.task == id) {
                        return Ok(c.time - start);
                    }
                }
            }
        }
    }

    /// Runs everything currently submitted to completion; returns the final
    /// simulated time.
    pub fn run_to_idle(&mut self) -> Result<f64, L07Error> {
        while self.next_completions()?.is_some() {}
        Ok(self.now())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_platform::units::GBPS;
    use mps_platform::ClusterSpec;

    fn sim() -> L07Sim {
        L07Sim::new(Cluster::bayreuth())
    }

    fn hosts(ids: &[usize]) -> Vec<HostId> {
        ids.iter().map(|&i| HostId(i)).collect()
    }

    #[test]
    fn uniform_compute_task_time() {
        // 2·2000³ flops over 4 hosts at 250 MFlop/s: 16 s.
        let mut s = sim();
        let h = hosts(&[0, 1, 2, 3]);
        let flops = 2.0 * 2000.0_f64.powi(3) / 4.0;
        let t = s.run_single(PTaskSpec::compute_uniform(&h, flops)).unwrap();
        assert!((t - 16.0).abs() < 1e-9);
    }

    #[test]
    fn imbalanced_compute_is_limited_by_the_largest_share() {
        // L07 couples all components: the task finishes when the slowest
        // host finishes.
        let mut s = sim();
        let h = hosts(&[0, 1]);
        let t = s
            .run_single(PTaskSpec::compute(&h, &[500.0e6, 250.0e6]))
            .unwrap();
        assert!((t - 2.0).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn p2p_transfer_time_matches_platform_formula() {
        let mut s = sim();
        let t = s
            .run_single(PTaskSpec::p2p(HostId(0), HostId(1), 125.0e6))
            .unwrap();
        // 3 links à 100 µs + 125 MB / 125 MB/s.
        assert!((t - (3.0e-4 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn local_flow_costs_nothing() {
        let mut s = sim();
        let t = s
            .run_single(PTaskSpec::p2p(HostId(0), HostId(0), 1.0e9))
            .unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn two_transfers_contend_on_the_backbone() {
        // Different host pairs, so only the backbone is shared: each flow
        // gets half the backbone bandwidth.
        let mut s = sim();
        s.submit(PTaskSpec::p2p(HostId(0), HostId(1), 125.0e6))
            .unwrap();
        s.submit(PTaskSpec::p2p(HostId(2), HostId(3), 125.0e6))
            .unwrap();
        let t = s.run_to_idle().unwrap();
        assert!((t - (3.0e-4 + 2.0)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn wider_backbone_removes_contention() {
        let mut spec = ClusterSpec::bayreuth();
        spec.backbone_bandwidth = 10.0 * GBPS;
        let mut s = L07Sim::new(spec.build().unwrap());
        s.submit(PTaskSpec::p2p(HostId(0), HostId(1), 125.0e6))
            .unwrap();
        s.submit(PTaskSpec::p2p(HostId(2), HostId(3), 125.0e6))
            .unwrap();
        let t = s.run_to_idle().unwrap();
        assert!((t - (3.0e-4 + 1.0)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn coupled_compute_and_communication() {
        // A task that computes 250 Mflop on one host (1 s alone) and moves
        // 250 MB over the network (2 s alone at 125 MB/s): the coupled L07
        // rate is bound by the slower component → 2 s (+ latency).
        let mut s = sim();
        let mut spec = PTaskSpec::compute(&hosts(&[0]), &[250.0e6]);
        spec.flows.push((HostId(0), HostId(1), 250.0e6));
        let t = s.run_single(spec).unwrap();
        assert!((t - (3.0e-4 + 2.0)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn ring_pattern_contends_on_private_links() {
        // 2-host ring: two flows 0→1 and 1→0. Each private link direction
        // carries one flow; backbone carries both: backbone is the
        // bottleneck at 125 MB/s for 2 × B bytes.
        let mut s = sim();
        let spec = PTaskSpec::transfers(vec![
            (HostId(0), HostId(1), 125.0e6),
            (HostId(1), HostId(0), 125.0e6),
        ]);
        let t = s.run_single(spec).unwrap();
        assert!((t - (3.0e-4 + 2.0)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn extra_latency_is_charged_once() {
        let mut s = sim();
        let spec = PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6).with_extra_latency(0.7);
        let t = s.run_single(spec).unwrap();
        assert!((t - 1.7).abs() < 1e-9);
    }

    #[test]
    fn empty_task_completes_instantly() {
        let mut s = sim();
        let t = s.run_single(PTaskSpec::new()).unwrap();
        assert_eq!(t, 0.0);
    }

    #[test]
    fn unknown_host_is_rejected() {
        let mut s = sim();
        let err = s
            .submit(PTaskSpec::compute_uniform(&hosts(&[40]), 1.0))
            .unwrap_err();
        assert_eq!(err, L07Error::UnknownHost(HostId(40)));
    }

    #[test]
    fn negative_flow_is_rejected() {
        let mut s = sim();
        let err = s
            .submit(PTaskSpec::p2p(HostId(0), HostId(1), -5.0))
            .unwrap_err();
        assert!(matches!(err, L07Error::InvalidNumber { .. }));
    }

    #[test]
    fn compute_tasks_on_same_host_share_the_cpu() {
        let mut s = sim();
        s.submit(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        s.submit(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        let t = s.run_to_idle().unwrap();
        assert!((t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compute_tasks_on_distinct_hosts_run_concurrently() {
        let mut s = sim();
        s.submit(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        s.submit(PTaskSpec::compute_uniform(&hosts(&[1]), 250.0e6))
            .unwrap();
        let t = s.run_to_idle().unwrap();
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scale_mm_task_on_8_hosts() {
        // Full MM task with ring communication at n = 2000, p = 8:
        // compute: 2n³/8 per host = 2 Gflop → 8 s at 250 MFlop/s.
        // comm: each ring edge carries 7 · (n²/8) · 8 B = 28 MB. Each
        // private link direction carries one edge; the backbone carries all
        // eight (224 MB at 125 MB/s = 1.792 s if alone).
        // Coupled rate: CPU needs 8 s, network needs max(28/125, 224/125)
        // → CPU-bound at 8 s (+ 300 µs latency).
        let mut s = sim();
        let h = hosts(&[0, 1, 2, 3, 4, 5, 6, 7]);
        let n = 2000.0_f64;
        let per_host = 2.0 * n.powi(3) / 8.0;
        let edge_bytes = 7.0 * (n * n / 8.0) * 8.0;
        let mut spec = PTaskSpec::compute_uniform(&h, per_host);
        for i in 0..8usize {
            spec.flows
                .push((HostId(i), HostId((i + 1) % 8), edge_bytes));
        }
        let t = s.run_single(spec).unwrap();
        assert!((t - (8.0 + 3.0e-4)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn utilization_metering_reports_busy_cpus() {
        let mut s = sim();
        s.enable_usage_metering();
        // Saturate host 0 for the whole run; host 1 stays idle.
        s.submit(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        s.run_to_idle().unwrap();
        let cpu = s.cpu_utilization().unwrap();
        assert!((cpu[0] - 1.0).abs() < 1e-9, "host 0 busy: {}", cpu[0]);
        assert_eq!(cpu[1], 0.0);
        assert_eq!(s.backbone_utilization().unwrap(), 0.0);
    }

    #[test]
    fn backbone_utilization_tracks_transfers() {
        let mut s = sim();
        s.enable_usage_metering();
        s.submit(PTaskSpec::p2p(HostId(0), HostId(1), 125.0e6))
            .unwrap();
        s.run_to_idle().unwrap();
        // The transfer saturates the backbone for essentially the whole
        // horizon (minus the latency phase).
        let bb = s.backbone_utilization().unwrap();
        assert!(bb > 0.99, "backbone {bb}");
    }

    #[test]
    fn reset_reproduces_bit_identical_results() {
        // One workload with coupled compute + contending flows, executed on
        // a fresh simulator and again on the same simulator after reset():
        // completion times must match to the bit, and task ids must restart.
        fn run(s: &mut L07Sim) -> Vec<(usize, u64)> {
            let h = hosts(&[0, 1, 2, 3]);
            let mut spec = PTaskSpec::compute(&h, &[4.0e8, 3.0e8, 2.0e8, 1.0e8]);
            for i in 0..4usize {
                spec.flows.push((HostId(i), HostId((i + 1) % 4), 7.0e7));
            }
            s.submit(spec).unwrap();
            s.submit(PTaskSpec::p2p(HostId(5), HostId(6), 1.25e8))
                .unwrap();
            s.submit(PTaskSpec::compute_uniform(&hosts(&[1]), 2.5e8))
                .unwrap();
            let mut out = Vec::new();
            while let Some(batch) = s.next_completions().unwrap() {
                for c in batch {
                    out.push((c.task.index(), c.time.to_bits()));
                }
            }
            out
        }
        let mut fresh = sim();
        let first = run(&mut fresh);
        assert!(!first.is_empty());
        fresh.reset();
        assert!(fresh.is_idle());
        assert_eq!(fresh.now(), 0.0);
        let second = run(&mut fresh);
        assert_eq!(first, second);
        // Ids restarted from zero, like a freshly built simulator.
        assert_eq!(second.iter().map(|&(i, _)| i).min(), Some(0));
    }

    #[test]
    fn slowing_a_host_stretches_its_compute_task() {
        // 250 Mflop at 250 MFlop/s → 1 s; halfway through, slow the host
        // 2×: the remaining 125 Mflop take 1 s more → finishes at 1.5 s.
        let mut s = sim();
        s.submit(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        s.schedule_timer(0.5).unwrap();
        let mut out = Vec::new();
        assert!(s.next_completions_into(&mut out).unwrap());
        assert!(out.is_empty(), "timer step reports no tasks");
        s.set_host_factor(HostId(0), 2.0).unwrap();
        let t = s.run_to_idle().unwrap();
        assert!((t - 1.5).abs() < 1e-9, "t = {t}");
        // Factor 1.0 restores the exact base capacity.
        s.set_host_factor(HostId(0), 1.0).unwrap();
        s.submit(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        let t2 = s.run_to_idle().unwrap();
        assert!((t2 - t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degrading_links_stretches_transfers() {
        // 125 MB over a degraded (2×) private link: the up/down links drop
        // to 62.5 MB/s and become the bottleneck below the backbone.
        let mut s = sim();
        s.set_link_factor(HostId(0), 2.0).unwrap();
        s.set_link_factor(HostId(1), 2.0).unwrap();
        let t = s
            .run_single(PTaskSpec::p2p(HostId(0), HostId(1), 125.0e6))
            .unwrap();
        assert!((t - (3.0e-4 + 2.0)).abs() < 1e-6, "t = {t}");
    }

    #[test]
    fn crashing_a_host_stalls_its_tasks_typed_and_cancel_recovers() {
        let mut s = sim();
        let victim = s
            .submit(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        s.submit(PTaskSpec::compute_uniform(&hosts(&[1]), 125.0e6))
            .unwrap();
        s.schedule_timer(0.1).unwrap();
        let mut out = Vec::new();
        s.next_completions_into(&mut out).unwrap();
        s.crash_host(HostId(0)).unwrap();
        assert!(s.host_is_crashed(HostId(0)));
        // The survivor on host 1 still completes; afterwards the victim
        // stalls typed.
        let mut err = None;
        loop {
            match s.next_completions() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(
            matches!(err, Some(L07Error::Engine(EngineError::Stalled { .. }))),
            "expected typed stall, got {err:?}"
        );
        // Cancelling the stranded task unblocks the simulator.
        assert!(s.cancel(victim));
        assert!(s.is_idle());
        // And reset() revives the platform for the next run.
        s.reset();
        assert!(!s.host_is_crashed(HostId(0)));
        let t = s
            .run_single(PTaskSpec::compute_uniform(&hosts(&[0]), 250.0e6))
            .unwrap();
        assert!((t - 1.0).abs() < 1e-9);
    }

    #[test]
    fn streamed_transfers_start_the_same_task_as_a_transfer_spec() {
        // Repeated pairs, a local flow and an empty one, next to a
        // contending transfer: same completion instants, bit for bit.
        let flows = vec![
            (HostId(0), HostId(1), 3.0e7),
            (HostId(0), HostId(2), 1.1e7),
            (HostId(3), HostId(3), 9.0e7),
            (HostId(0), HostId(1), 2.0e7),
            (HostId(4), HostId(1), 0.0),
        ];
        let run = |streamed: Option<bool>| -> Vec<(usize, u64)> {
            let mut s = sim();
            s.submit(PTaskSpec::p2p(HostId(5), HostId(6), 1.25e8))
                .unwrap();
            match streamed {
                None => s.submit(PTaskSpec::transfers(flows.clone()).with_extra_latency(0.3)),
                Some(backbone_only) => {
                    s.submit_transfers(flows.iter().copied(), 0.3, backbone_only, None)
                }
            }
            .unwrap();
            let mut out = Vec::new();
            while let Some(batch) = s.next_completions().unwrap() {
                out.extend(batch.iter().map(|c| (c.task.index(), c.time.to_bits())));
            }
            out
        };
        let spec = run(None);
        assert_eq!(spec.len(), 2);
        assert_eq!(run(Some(false)), spec);
        assert_eq!(run(Some(true)), spec);
    }

    #[test]
    fn a_rejected_streamed_flow_leaves_no_weight_behind() {
        let mut s = sim();
        let bad = [(HostId(0), HostId(1), 5.0e7), (HostId(0), HostId(40), 1.0)];
        let err = s
            .submit_transfers(bad.iter().copied(), 0.0, false, None)
            .unwrap_err();
        assert_eq!(err, L07Error::UnknownHost(HostId(40)));
        let nan = [
            (HostId(0), HostId(1), 5.0e7),
            (HostId(2), HostId(3), f64::NAN),
        ];
        assert!(matches!(
            s.submit_transfers(nan.iter().copied(), 0.0, true, None),
            Err(L07Error::InvalidNumber { .. })
        ));
        // The next task sees clean scratch: 125 MB alone on the route.
        let t = s
            .run_single(PTaskSpec::p2p(HostId(0), HostId(1), 125.0e6))
            .unwrap();
        assert!((t - (3.0e-4 + 1.0)).abs() < 1e-9, "t = {t}");
    }

    #[test]
    fn backbone_is_narrowest_reads_the_as_built_bandwidths() {
        assert!(sim().backbone_is_narrowest());
        let mut spec = ClusterSpec::bayreuth();
        spec.backbone_bandwidth = 0.5 * GBPS;
        assert!(L07Sim::new(spec.build().unwrap()).backbone_is_narrowest());
        spec.backbone_bandwidth = 10.0 * GBPS;
        assert!(!L07Sim::new(spec.build().unwrap()).backbone_is_narrowest());
    }

    #[test]
    fn live_task_count() {
        let mut s = sim();
        assert!(s.is_idle());
        s.submit(PTaskSpec::compute_uniform(&hosts(&[0]), 1.0))
            .unwrap();
        assert_eq!(s.live_tasks(), 1);
        s.run_to_idle().unwrap();
        assert!(s.is_idle());
    }
}
