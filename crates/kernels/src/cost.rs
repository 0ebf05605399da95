//! Analytic cost models for the paper's computational kernels.
//!
//! The paper's tasks are parallel **matrix multiplications** and **matrix
//! additions** on `n × n` double-precision matrices with a 1-D column-block
//! distribution (§IV-1):
//!
//! * multiplication: each of the `p` processors executes `2n³/p` flops and
//!   sends `n²/p` elements per communication step (ring rotation of the
//!   column blocks, `p − 1` steps);
//! * addition: `n²/p` flops, no communication. Because that is negligible in
//!   practice, the paper *artificially repeats each addition `n/4` times*,
//!   for a total of `(n/4)·(n²/p)` flops — still 8× cheaper than a
//!   multiplication, preserving distinct CCRs.
//!
//! These quantities instantiate the `Ptask_L07` computation vector and
//! communication matrix, exactly as §IV does.

use serde::{Deserialize, Serialize};

use crate::dist::BlockDist1D;

/// Bytes per double-precision element.
pub const ELEMENT_BYTES: f64 = 8.0;

/// A computational kernel instance (task type + problem size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kernel {
    /// 1-D parallel matrix multiplication of two `n × n` matrices.
    MatMul {
        /// Matrix dimension.
        n: usize,
    },
    /// 1-D parallel matrix addition, artificially repeated `n/4` times.
    MatAdd {
        /// Matrix dimension.
        n: usize,
    },
}

impl Kernel {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        match *self {
            Kernel::MatMul { n } | Kernel::MatAdd { n } => n,
        }
    }

    /// Short display name (`mm`/`ma`).
    pub fn short_name(&self) -> &'static str {
        match self {
            Kernel::MatMul { .. } => "mm",
            Kernel::MatAdd { .. } => "ma",
        }
    }

    /// Total flop count across all processors (analytic model).
    pub fn total_flops(&self) -> f64 {
        let n = self.n() as f64;
        match self {
            Kernel::MatMul { .. } => 2.0 * n * n * n,
            // Repeated n/4 times: (n/4) · n².
            Kernel::MatAdd { .. } => (n / 4.0) * n * n,
        }
    }

    /// Analytic per-processor flop count for an allocation of `p`
    /// processors (uniform split — the analytic model ignores the vanilla
    /// distribution's imbalance; that is one of its flaws).
    pub fn flops_per_proc(&self, p: usize) -> f64 {
        assert!(p >= 1);
        self.total_flops() / p as f64
    }

    /// Analytic communication matrix for an allocation of `p` processors:
    /// `bytes[i][j]` transferred from local rank `i` to local rank `j`
    /// during the kernel (intra-task communication).
    ///
    /// Multiplication uses a ring rotation: over the `p − 1` steps, rank `i`
    /// sends its `n²/p`-element block to rank `(i+1) mod p` each step.
    /// Addition communicates nothing.
    pub fn comm_matrix(&self, p: usize) -> Vec<Vec<f64>> {
        let bytes = self.ring_bytes_per_rank(p);
        let mut m = vec![vec![0.0; p]; p];
        if bytes != 0.0 {
            for (i, row) in m.iter_mut().enumerate() {
                row[(i + 1) % p] = bytes;
            }
        }
        m
    }

    /// The one non-zero entry of each [`comm_matrix`](Kernel::comm_matrix)
    /// row: the bytes rank `i` sends to rank `(i + 1) mod p` over the whole
    /// kernel, `(p − 1)` steps of an `n²/p`-element block. Zero when the
    /// kernel does not communicate (addition, or `p = 1`).
    pub fn ring_bytes_per_rank(&self, p: usize) -> f64 {
        assert!(p >= 1);
        match self {
            Kernel::MatMul { n } if p > 1 => {
                let n = *n as f64;
                let per_step = (n * n / p as f64) * ELEMENT_BYTES;
                per_step * (p - 1) as f64
            }
            _ => 0.0,
        }
    }

    /// Total bytes moved by the kernel's internal communication: the sum
    /// of the [`comm_matrix`](Kernel::comm_matrix), added up rank by rank
    /// in the same order, without building it.
    pub fn total_comm_bytes(&self, p: usize) -> f64 {
        let bytes = self.ring_bytes_per_rank(p);
        (0..p).map(|_| bytes).sum()
    }

    /// Computation-to-communication ratio at allocation `p` (flops per
    /// byte; infinite for communication-free kernels).
    pub fn ccr(&self, p: usize) -> f64 {
        let bytes = self.total_comm_bytes(p);
        if bytes == 0.0 {
            f64::INFINITY
        } else {
            self.total_flops() / bytes
        }
    }

    /// Ideal (analytic) execution time at allocation `p` on processors of
    /// the given flop rate, ignoring communication: `total/(p·rate)`.
    pub fn ideal_time(&self, p: usize, flops_per_sec: f64) -> f64 {
        self.flops_per_proc(p) / flops_per_sec
    }

    /// Per-processor flop vector that accounts for the **vanilla** 1-D
    /// block imbalance (used by the testbed's ground truth, not by the
    /// analytic simulator).
    pub fn imbalanced_flops(&self, p: usize) -> Vec<f64> {
        let n = self.n();
        let dist = BlockDist1D::vanilla(n, p);
        let total = self.total_flops();
        (0..p)
            .map(|r| total * dist.block_len(r) as f64 / n as f64)
            .collect()
    }

    /// Bytes of one full `n × n` matrix.
    pub fn matrix_bytes(&self) -> f64 {
        let n = self.n() as f64;
        n * n * ELEMENT_BYTES
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}(n={})", self.short_name(), self.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_flops_match_paper() {
        let k = Kernel::MatMul { n: 2000 };
        assert!((k.total_flops() - 1.6e10).abs() < 1.0);
        assert!((k.flops_per_proc(8) - 2.0e9).abs() < 1.0);
    }

    #[test]
    fn matadd_flops_match_adjusted_model() {
        // (n/4) · n² = 500 · 4e6 = 2e9 for n = 2000.
        let k = Kernel::MatAdd { n: 2000 };
        assert!((k.total_flops() - 2.0e9).abs() < 1.0);
    }

    #[test]
    fn mm_to_ma_flop_ratio_is_8() {
        for n in [2000usize, 3000] {
            let mm = Kernel::MatMul { n };
            let ma = Kernel::MatAdd { n };
            assert!((mm.total_flops() / ma.total_flops() - 8.0).abs() < 1e-12);
        }
    }

    #[test]
    fn addition_has_no_communication() {
        let k = Kernel::MatAdd { n: 2000 };
        assert_eq!(k.total_comm_bytes(8), 0.0);
        assert!(k.ccr(8).is_infinite());
    }

    #[test]
    fn multiplication_ring_communication() {
        let k = Kernel::MatMul { n: 2000 };
        let m = k.comm_matrix(4);
        // per step: (2000²/4)·8 = 8 MB; 3 steps = 24 MB on each ring edge.
        assert!((m[0][1] - 24.0e6).abs() < 1.0);
        assert!((m[3][0] - 24.0e6).abs() < 1.0);
        assert_eq!(m[0][2], 0.0);
        assert_eq!(m[0][0], 0.0);
    }

    #[test]
    fn ring_bytes_are_the_comm_matrix_entries_and_sum_bit_for_bit() {
        for n in [97usize, 2000, 3000] {
            for k in [Kernel::MatMul { n }, Kernel::MatAdd { n }] {
                for p in 1..=32 {
                    let m = k.comm_matrix(p);
                    let ring = k.ring_bytes_per_rank(p);
                    for (i, row) in m.iter().enumerate() {
                        for (j, &b) in row.iter().enumerate() {
                            let want = if ring != 0.0 && j == (i + 1) % p {
                                ring
                            } else {
                                0.0
                            };
                            assert_eq!(b.to_bits(), want.to_bits(), "{k} p={p} [{i}][{j}]");
                        }
                    }
                    let matrix_sum: f64 = m.iter().flat_map(|row| row.iter()).sum();
                    assert_eq!(k.total_comm_bytes(p).to_bits(), matrix_sum.to_bits());
                }
            }
        }
    }

    #[test]
    fn single_processor_mm_has_no_communication() {
        let k = Kernel::MatMul { n: 2000 };
        assert_eq!(k.total_comm_bytes(1), 0.0);
    }

    #[test]
    fn ideal_time_at_paper_rate() {
        // 2 · 2000³ / 250 MFlop/s = 64 s serial.
        let k = Kernel::MatMul { n: 2000 };
        assert!((k.ideal_time(1, 250.0e6) - 64.0).abs() < 1e-9);
        assert!((k.ideal_time(32, 250.0e6) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn ccr_varies_with_kernel_as_the_paper_requires() {
        // The paper controls CCR by mixing additions and multiplications.
        let mm = Kernel::MatMul { n: 2000 };
        let ma = Kernel::MatAdd { n: 2000 };
        assert!(mm.ccr(8) < ma.ccr(8));
    }

    #[test]
    fn imbalanced_flops_sum_to_total() {
        for &(n, p) in &[(2000usize, 7usize), (3000, 16), (3000, 13)] {
            for k in [Kernel::MatMul { n }, Kernel::MatAdd { n }] {
                let v = k.imbalanced_flops(p);
                let sum: f64 = v.iter().sum();
                assert!(
                    (sum - k.total_flops()).abs() < k.total_flops() * 1e-12,
                    "{k} p={p}"
                );
            }
        }
    }

    #[test]
    fn imbalanced_flops_reflect_vanilla_remainder() {
        let k = Kernel::MatMul { n: 3000 };
        let v = k.imbalanced_flops(16);
        assert!(v[15] > v[0], "last rank carries the remainder");
    }

    #[test]
    fn matrix_bytes_match_paper_sizes() {
        assert!((Kernel::MatMul { n: 2000 }.matrix_bytes() - 32.0e6).abs() < 1.0);
        assert!((Kernel::MatAdd { n: 3000 }.matrix_bytes() - 72.0e6).abs() < 1.0);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(Kernel::MatMul { n: 2000 }.to_string(), "mm(n=2000)");
        assert_eq!(Kernel::MatAdd { n: 3000 }.to_string(), "ma(n=3000)");
    }

    #[test]
    fn serde_roundtrip() {
        let k = Kernel::MatMul { n: 2000 };
        let s = serde_json::to_string(&k).unwrap();
        let back: Kernel = serde_json::from_str(&s).unwrap();
        assert_eq!(k, back);
    }
}
