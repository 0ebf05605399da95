//! # mps-l07 — SimGrid-like `Ptask_L07` parallel-task simulation
//!
//! A from-scratch reimplementation of the parallel-task model the paper's
//! simulators are built on (§IV): a parallel task is a computation vector
//! (flops per host) plus a communication pattern (bytes per host pair),
//! advancing as one fluid activity whose rate is set by bottleneck max-min
//! fair sharing over host CPUs and network links — with full link
//! contention on the star-topology cluster.
//!
//! Documented deviations from SimGrid's implementation (see DESIGN.md §5.1):
//! network latency is charged once per task as the maximum route latency
//! over its flows (SimGrid folds latencies into the same linear system);
//! no TCP-effect corrections (`Ptask_L07` has none either).
//!
//! ```
//! use mps_l07::{L07Sim, PTaskSpec};
//! use mps_platform::{Cluster, HostId};
//!
//! let mut sim = L07Sim::new(Cluster::bayreuth());
//! // A 4-host data-parallel task of 4 Gflop total:
//! let hosts: Vec<HostId> = (0..4).map(HostId).collect();
//! let t = sim.run_single(PTaskSpec::compute_uniform(&hosts, 1.0e9)).unwrap();
//! assert!((t - 4.0).abs() < 1e-9); // 1 Gflop / 250 MFlop/s per host
//! ```

#![warn(missing_docs)]

pub mod ptask;
pub mod sim;

pub use ptask::PTaskSpec;
pub use sim::{L07Error, L07Sim, PTaskCompletion, PTaskId};

#[cfg(test)]
mod proptests {
    use super::*;
    use mps_platform::{Cluster, HostId};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A uniform compute task's duration is total/(p·speed) regardless of
        /// which hosts are chosen.
        #[test]
        fn uniform_compute_duration(
            p in 1usize..32,
            offset in 0usize..32,
            gflops in 0.01f64..100.0,
        ) {
            let cluster = Cluster::bayreuth();
            let hosts: Vec<HostId> = (0..p)
                .map(|i| HostId((i + offset) % cluster.node_count()))
                .collect();
            // Distinct hosts only (duplicates double CPU weight).
            let mut dedup = hosts.clone();
            dedup.sort();
            dedup.dedup();
            prop_assume!(dedup.len() == hosts.len());

            let per_host = gflops * 1.0e9 / p as f64;
            let mut sim = L07Sim::new(cluster);
            let t = sim
                .run_single(PTaskSpec::compute_uniform(&hosts, per_host))
                .unwrap();
            let expected = per_host / 250.0e6;
            prop_assert!((t - expected).abs() <= expected * 1e-9 + 1e-12);
        }

        /// Transfer durations are monotone in payload size.
        #[test]
        fn transfer_monotone_in_bytes(a in 1.0f64..1e9, b in 1.0f64..1e9) {
            let (small, big) = if a <= b { (a, b) } else { (b, a) };
            let mut sim = L07Sim::new(Cluster::bayreuth());
            let t_small = sim.run_single(PTaskSpec::p2p(HostId(0), HostId(1), small)).unwrap();
            let mut sim = L07Sim::new(Cluster::bayreuth());
            let t_big = sim.run_single(PTaskSpec::p2p(HostId(0), HostId(1), big)).unwrap();
            prop_assert!(t_small <= t_big + 1e-12);
        }

        /// k parallel flows through the backbone take k times as long as one
        /// (per-flow fair share), when private links are not the bottleneck.
        #[test]
        fn backbone_fair_share(k in 1usize..8) {
            let bytes = 125.0e6;
            let mut sim = L07Sim::new(Cluster::bayreuth());
            for i in 0..k {
                sim.submit(PTaskSpec::p2p(HostId(2 * i), HostId(2 * i + 1), bytes))
                    .unwrap();
            }
            let t = sim.run_to_idle().unwrap();
            let expected = 3.0e-4 + k as f64 * bytes / 125.0e6;
            prop_assert!((t - expected).abs() < 1e-6, "k={} t={}", k, t);
        }
    }
}

#[cfg(test)]
mod backbone_only_props {
    use super::*;
    use mps_kernels::{vanilla_plan, RedistPlan};
    use mps_platform::{Cluster, HostId};
    use proptest::collection;
    use proptest::prelude::*;

    /// One redistribution: a vanilla plan over injective placements,
    /// submitted at `offset` with a protocol overhead.
    struct Redist {
        plan: RedistPlan,
        src: Vec<HostId>,
        dst: Vec<HostId>,
        overhead: f64,
        offset: f64,
    }

    /// `k` distinct hosts of the 32-node star, drawn from `seed`.
    fn placement(k: usize, seed: u64) -> Vec<HostId> {
        let mut hosts: Vec<usize> = (0..32).collect();
        let mut x = seed | 1;
        for i in (1..hosts.len()).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            hosts.swap(i, (x % (i as u64 + 1)) as usize);
        }
        hosts[..k].iter().map(|&h| HostId(h)).collect()
    }

    #[derive(Clone, Copy)]
    enum Path {
        /// `PTaskSpec::transfers` over `RedistPlan::network_transfers`.
        Spec,
        /// `submit_transfers` with full or backbone-only weights.
        Stream { backbone_only: bool },
    }

    /// Submits every redistribution at its offset, steps to idle, and
    /// returns every completion as `(task, time bits)`.
    fn run(redists: &[Redist], path: Path) -> Vec<(usize, u64)> {
        let mut sim = L07Sim::new(Cluster::bayreuth());
        assert!(sim.backbone_is_narrowest());
        for r in redists {
            if r.offset > 0.0 {
                sim.schedule_timer(r.offset).unwrap();
            }
        }
        let mut submitted = vec![false; redists.len()];
        let (mut out, mut log) = (Vec::new(), Vec::new());
        loop {
            let now = sim.now();
            for (i, r) in redists.iter().enumerate() {
                if submitted[i] || r.offset > now {
                    continue;
                }
                submitted[i] = true;
                let flows = r
                    .plan
                    .transfers()
                    .iter()
                    .map(|t| (r.src[t.src_rank], r.dst[t.dst_rank], t.bytes));
                match path {
                    Path::Spec => {
                        let src: Vec<usize> = r.src.iter().map(|h| h.index()).collect();
                        let dst: Vec<usize> = r.dst.iter().map(|h| h.index()).collect();
                        let flows = r
                            .plan
                            .network_transfers(&src, &dst)
                            .into_iter()
                            .map(|(s, d, b)| (HostId(s), HostId(d), b))
                            .collect();
                        sim.submit(PTaskSpec::transfers(flows).with_extra_latency(r.overhead))
                            .unwrap();
                    }
                    Path::Stream { backbone_only } => {
                        sim.submit_transfers(flows, r.overhead, backbone_only, None)
                            .unwrap();
                    }
                }
            }
            if !sim.next_completions_into(&mut out).unwrap() {
                break;
            }
            log.extend(out.iter().map(|c| (c.task.index(), c.time.to_bits())));
        }
        assert!(submitted.iter().all(|&s| s), "every redistribution ran");
        log
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Backbone-only weights are exact on the paper's star: random
        /// redistribution sets — random plans over random injective
        /// placements, started at random offsets — complete at the same
        /// instants, bit for bit, as through full-weight
        /// `PTaskSpec::transfers`, and so do full-weight streamed ones.
        #[test]
        fn backbone_only_redistributions_complete_bit_for_bit(
            raw in collection::vec(
                (16usize..3001, 1usize..33, 1usize..33, any::<u64>(), 0u32..6, 0.0f64..0.5),
                1..9,
            ),
        ) {
            let redists: Vec<Redist> = raw
                .iter()
                .map(|&(n, p_src, p_dst, seed, offset, overhead)| Redist {
                    plan: vanilla_plan(n, p_src, p_dst),
                    src: placement(p_src, seed),
                    dst: placement(p_dst, seed.rotate_left(29) ^ 0x9E37_79B9_7F4A_7C15),
                    overhead,
                    offset: f64::from(offset) * 0.07,
                })
                .collect();
            let full = run(&redists, Path::Spec);
            prop_assert!(!full.is_empty());
            prop_assert_eq!(&run(&redists, Path::Stream { backbone_only: false }), &full);
            prop_assert_eq!(&run(&redists, Path::Stream { backbone_only: true }), &full);
        }
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;
    use mps_platform::{ClusterSpec, HostId};

    #[test]
    fn heterogeneous_hosts_compute_at_their_own_speeds() {
        let mut spec = ClusterSpec::bayreuth();
        spec.nodes = 2;
        let cluster = spec.with_speed_factors(vec![1.0, 2.0]).build().unwrap();
        // Same flop amount on each host: the slow host is the L07
        // bottleneck for a coupled parallel task.
        let mut sim = L07Sim::new(cluster.clone());
        let t = sim
            .run_single(PTaskSpec::compute_uniform(&[HostId(0), HostId(1)], 250.0e6))
            .unwrap();
        assert!((t - 1.0).abs() < 1e-9, "slow host bound: {t}");

        // A task on the fast host alone finishes in half the time.
        let mut sim = L07Sim::new(cluster);
        let t = sim
            .run_single(PTaskSpec::compute_uniform(&[HostId(1)], 250.0e6))
            .unwrap();
        assert!((t - 0.5).abs() < 1e-9, "fast host: {t}");
    }
}
