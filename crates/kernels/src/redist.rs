//! Data-redistribution planning between 1-D block distributions.
//!
//! When a task's output matrix (distributed over `p_src` processors) feeds a
//! successor task (running on `p_dst` possibly different processors), the
//! columns must be re-partitioned. The paper's execution framework (TGrid)
//! performs this with point-to-point messages computed from the overlapping
//! intervals of the two distributions (§IV-2); the simulator encodes the
//! same information as a `Ptask_L07` communication matrix.
//!
//! This module computes that plan *exactly*: which source rank sends how
//! many bytes to which destination rank, and — given the physical hosts
//! backing each rank — which transfers actually cross the network.

use crate::cost::ELEMENT_BYTES;
use crate::dist::BlockDist1D;

/// One point-to-point transfer of a redistribution plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transfer {
    /// Source local rank (within the producer's allocation).
    pub src_rank: usize,
    /// Destination local rank (within the consumer's allocation).
    pub dst_rank: usize,
    /// Number of matrix columns moved.
    pub columns: usize,
    /// Payload size in bytes.
    pub bytes: f64,
}

/// A complete redistribution plan between two 1-D block distributions of the
/// same `n × n` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct RedistPlan {
    n: usize,
    p_src: usize,
    p_dst: usize,
    transfers: Vec<Transfer>,
}

impl RedistPlan {
    /// Computes the full overlap plan between `src` and `dst` distributions
    /// of an `n × n` matrix (column count `n` in both).
    ///
    /// Every `(src_rank, dst_rank)` pair with a non-empty column overlap
    /// yields one transfer; pairs without overlap are omitted.
    pub fn compute(src: &BlockDist1D, dst: &BlockDist1D) -> Self {
        assert_eq!(src.n(), dst.n(), "distributions must cover the same matrix");
        let n = src.n();
        let mut transfers = Vec::new();
        // Both distributions are sorted contiguous blocks, so a merge scan
        // would be O(p_src + p_dst); the quadratic loop keeps the code
        // obviously correct and is negligible at p ≤ 32.
        for s in 0..src.p() {
            for d in 0..dst.p() {
                let cols = src.overlap(s, dst, d);
                if cols > 0 {
                    transfers.push(Transfer {
                        src_rank: s,
                        dst_rank: d,
                        columns: cols,
                        bytes: cols as f64 * n as f64 * ELEMENT_BYTES,
                    });
                }
            }
        }
        RedistPlan {
            n,
            p_src: src.p(),
            p_dst: dst.p(),
            transfers,
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Source allocation size.
    pub fn p_src(&self) -> usize {
        self.p_src
    }

    /// Destination allocation size.
    pub fn p_dst(&self) -> usize {
        self.p_dst
    }

    /// All transfers (non-empty overlaps only).
    pub fn transfers(&self) -> &[Transfer] {
        &self.transfers
    }

    /// Total bytes moved between ranks (including rank pairs that may later
    /// be mapped to the same physical host).
    pub fn total_bytes(&self) -> f64 {
        self.transfers.iter().map(|t| t.bytes).sum()
    }

    /// The `p_src × p_dst` communication matrix in bytes — the paper's
    /// `Ptask_L07` redistribution-task input.
    pub fn comm_matrix(&self) -> Vec<Vec<f64>> {
        let mut m = vec![vec![0.0; self.p_dst]; self.p_src];
        for t in &self.transfers {
            m[t.src_rank][t.dst_rank] += t.bytes;
        }
        m
    }

    /// Bytes that actually cross the network when source rank `i` runs on
    /// host `src_hosts[i]` and destination rank `j` on `dst_hosts[j]`:
    /// transfers between co-located ranks are local memory copies.
    ///
    /// Returns `(src_host, dst_host, bytes)` triples for distinct-host
    /// pairs, aggregated per host pair: pairs in order of first
    /// appearance, each pair's bytes summed in transfer order. One pass
    /// over the transfers, finding each pair's entry in a dense table
    /// indexed by host ids.
    pub fn network_transfers(
        &self,
        src_hosts: &[usize],
        dst_hosts: &[usize],
    ) -> Vec<(usize, usize, f64)> {
        assert_eq!(src_hosts.len(), self.p_src, "src host map size");
        assert_eq!(dst_hosts.len(), self.p_dst, "dst host map size");
        let rows = src_hosts.iter().max().map_or(0, |&h| h + 1);
        let cols = dst_hosts.iter().max().map_or(0, |&h| h + 1);
        let mut slot = vec![usize::MAX; rows * cols];
        let mut agg: Vec<(usize, usize, f64)> = Vec::new();
        for t in &self.transfers {
            let sh = src_hosts[t.src_rank];
            let dh = dst_hosts[t.dst_rank];
            if sh == dh {
                continue;
            }
            let k = sh * cols + dh;
            if slot[k] == usize::MAX {
                slot[k] = agg.len();
                agg.push((sh, dh, t.bytes));
            } else {
                agg[slot[k]].2 += t.bytes;
            }
        }
        agg
    }
}

/// Convenience: plan between two **vanilla** distributions, as the paper's
/// kernels use.
pub fn vanilla_plan(n: usize, p_src: usize, p_dst: usize) -> RedistPlan {
    RedistPlan::compute(
        &BlockDist1D::vanilla(n, p_src),
        &BlockDist1D::vanilla(n, p_dst),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_redistribution_is_all_diagonal() {
        let plan = vanilla_plan(100, 4, 4);
        for t in plan.transfers() {
            assert_eq!(t.src_rank, t.dst_rank);
        }
        assert!((plan.total_bytes() - 100.0 * 100.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn every_column_is_moved_exactly_once() {
        for &(n, ps, pd) in &[
            (100usize, 4usize, 8usize),
            (100, 8, 4),
            (97, 3, 7),
            (2000, 16, 32),
            (3000, 32, 5),
            (10, 1, 10),
        ] {
            let plan = vanilla_plan(n, ps, pd);
            let cols: usize = plan.transfers().iter().map(|t| t.columns).sum();
            assert_eq!(cols, n, "n={n} {ps}->{pd}");
            let expected_bytes = n as f64 * n as f64 * 8.0;
            assert!((plan.total_bytes() - expected_bytes).abs() < 1e-6);
        }
    }

    #[test]
    fn split_in_two_halves() {
        let plan = vanilla_plan(100, 1, 2);
        let m = plan.comm_matrix();
        assert!((m[0][0] - 50.0 * 100.0 * 8.0).abs() < 1e-9);
        assert!((m[0][1] - 50.0 * 100.0 * 8.0).abs() < 1e-9);
    }

    #[test]
    fn gather_to_one() {
        let plan = vanilla_plan(100, 4, 1);
        let m = plan.comm_matrix();
        for row in &m {
            assert!((row[0] - 25.0 * 100.0 * 8.0).abs() < 1e-9);
        }
    }

    #[test]
    fn comm_matrix_shape() {
        let plan = vanilla_plan(60, 3, 5);
        let m = plan.comm_matrix();
        assert_eq!(m.len(), 3);
        assert_eq!(m[0].len(), 5);
    }

    #[test]
    fn every_rank_pair_overlap_matches_dist_overlap() {
        let src = BlockDist1D::vanilla(97, 5);
        let dst = BlockDist1D::vanilla(97, 3);
        let plan = RedistPlan::compute(&src, &dst);
        for t in plan.transfers() {
            assert_eq!(t.columns, src.overlap(t.src_rank, &dst, t.dst_rank));
        }
    }

    #[test]
    fn network_transfers_skip_co_located_ranks() {
        // src ranks on hosts [0, 1]; dst ranks on hosts [0, 1]: the
        // diagonal transfers are local.
        let plan = vanilla_plan(100, 2, 2);
        let net = plan.network_transfers(&[0, 1], &[0, 1]);
        assert!(net.is_empty(), "identity on same hosts is all-local");

        // Cross mapping: everything crosses the network.
        let net = plan.network_transfers(&[0, 1], &[1, 0]);
        assert_eq!(net.len(), 2);
        let total: f64 = net.iter().map(|&(_, _, b)| b).sum();
        assert!((total - plan.total_bytes()).abs() < 1e-9);
    }

    #[test]
    fn network_transfers_aggregate_per_host_pair() {
        // Two src ranks on the same host sending to one dst host.
        let plan = vanilla_plan(100, 2, 1);
        let net = plan.network_transfers(&[5, 5], &[9]);
        assert_eq!(net.len(), 1);
        assert_eq!(net[0].0, 5);
        assert_eq!(net[0].1, 9);
        assert!((net[0].2 - plan.total_bytes()).abs() < 1e-9);
    }

    #[test]
    fn network_transfers_keep_first_appearance_order_and_summation_order() {
        // Oracle: the quadratic scan that looks every pair up in the output
        // so far. Repeated hosts on both sides force aggregation.
        fn scan(plan: &RedistPlan, src: &[usize], dst: &[usize]) -> Vec<(usize, usize, u64)> {
            let mut agg: Vec<(usize, usize, f64)> = Vec::new();
            for t in plan.transfers() {
                let (sh, dh) = (src[t.src_rank], dst[t.dst_rank]);
                if sh == dh {
                    continue;
                }
                match agg.iter_mut().find(|(a, b, _)| *a == sh && *b == dh) {
                    Some(e) => e.2 += t.bytes,
                    None => agg.push((sh, dh, t.bytes)),
                }
            }
            agg.into_iter()
                .map(|(a, b, x)| (a, b, x.to_bits()))
                .collect()
        }
        for &(n, src, dst) in &[
            (97usize, &[5usize, 5, 7, 5][..], &[9usize, 5, 9][..]),
            (1000, &[0, 1, 2, 3, 4, 5, 6], &[6, 6, 1, 0, 2]),
            (3001, &[3, 1, 3, 1, 3], &[1, 3, 1, 3, 1, 3, 1, 3]),
        ] {
            let plan = vanilla_plan(n, src.len(), dst.len());
            let got: Vec<(usize, usize, u64)> = plan
                .network_transfers(src, dst)
                .into_iter()
                .map(|(a, b, x)| (a, b, x.to_bits()))
                .collect();
            assert_eq!(got, scan(&plan, src, dst), "n={n} {src:?} -> {dst:?}");
        }
    }

    #[test]
    #[should_panic(expected = "src host map size")]
    fn network_transfers_validates_host_maps() {
        let plan = vanilla_plan(10, 2, 2);
        plan.network_transfers(&[0], &[0, 1]);
    }

    #[test]
    fn empty_matrix_protocol_measurement_shape() {
        // The paper measures redistribution overhead with a "mostly empty"
        // matrix where each processor still sends ≥ 1 byte. Our plan for a
        // tiny matrix (n = p_src·p_dst) guarantees every src rank appears.
        let plan = vanilla_plan(64, 8, 8);
        let mut src_seen = [false; 8];
        for t in plan.transfers() {
            src_seen[t.src_rank] = true;
        }
        assert!(src_seen.iter().all(|&s| s));
    }
}
