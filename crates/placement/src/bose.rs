//! Bose's Steiner-triple-system construction and the paper's Theorem 2:
//! an efficient, capacity-respecting placement of `Θ(cn)` guest VMs on
//! `n ≡ 3 mod 6` machines with per-machine capacity `c ≤ (n−1)/2`.
//!
//! Nodes are `Q × {0, 1, 2}` for a quasigroup `Q` of order `2v+1`
//! (`n = 6v + 3`). The triangle groups are:
//!
//! * `G_0` — the `2v+1` "vertical" triangles `{(a,0), (a,1), (a,2)}`;
//! * `G_t` (`1 <= t <= v`) — the `n` triangles
//!   `{(a_i, ℓ), (a_j, ℓ), (a_i ∘ a_j, ℓ+1 mod 3)}` with `j = i + t`.
//!
//! All triangles across all groups are pairwise edge-disjoint; `G_0` visits
//! each node once, each full `G_t` visits each node exactly three times.

use crate::quasigroup::Quasigroup;
use crate::triangle::{NodeId, Triangle};

/// The node `(a, ℓ)` of the Bose construction mapped to a flat index.
fn node(a: usize, level: usize, q: usize) -> NodeId {
    debug_assert!(level < 3 && a < q);
    NodeId(level * q + a)
}

/// Parameters of a Bose placement over `n = 6v + 3` machines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoseSystem {
    v: usize,
    q: usize, // 2v + 1
}

impl BoseSystem {
    /// Creates the system for a cloud of `n` machines.
    ///
    /// # Errors
    ///
    /// Returns `Err` unless `n ≡ 3 (mod 6)` and `n >= 9` (the construction
    /// needs `v >= 1`).
    pub fn new(n: usize) -> Result<Self, BoseError> {
        if n % 6 != 3 {
            return Err(BoseError::BadModulus { n });
        }
        if n < 9 {
            return Err(BoseError::TooSmall { n });
        }
        let v = (n - 3) / 6;
        Ok(BoseSystem { v, q: 2 * v + 1 })
    }

    /// The number of machines `n = 6v + 3`.
    pub fn n(&self) -> usize {
        3 * self.q
    }

    /// The parameter `v` with `n = 6v + 3`.
    pub fn v(&self) -> usize {
        self.v
    }

    /// The group `G_0`: `n/3` vertical triangles visiting each node once.
    pub fn group_zero(&self) -> Vec<Triangle> {
        (0..self.q)
            .map(|a| Triangle::new(node(a, 0, self.q), node(a, 1, self.q), node(a, 2, self.q)))
            .collect()
    }

    /// The group `G_t` for `1 <= t <= v`: `n` triangles visiting each node
    /// exactly three times.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside `1..=v`.
    pub fn group(&self, t: usize) -> Vec<Triangle> {
        assert!(t >= 1 && t <= self.v, "group index must be in 1..=v");
        let g = Quasigroup::new(self.q);
        let mut out = Vec::with_capacity(3 * self.q);
        for level in 0..3 {
            for i in 0..self.q {
                let j = (i + t) % self.q;
                out.push(Triangle::new(
                    node(i, level, self.q),
                    node(j, level, self.q),
                    node(g.mul(i, j), (level + 1) % 3, self.q),
                ));
            }
        }
        out
    }

    /// The `v = (n−3)/6` triangles from `G_v` that visit each node at most
    /// once (used for the `c ≡ 2 mod 3` case of Theorem 2): the paper's
    /// `{(a_i, 0), (a_{i+v}, 0), (a_i ∘ a_{i+v}, 1)}` for `0 <= i <= v−1`.
    pub fn partial_group_v(&self) -> Vec<Triangle> {
        let g = Quasigroup::new(self.q);
        (0..self.v)
            .map(|i| {
                let j = i + self.v;
                Triangle::new(
                    node(i, 0, self.q),
                    node(j, 0, self.q),
                    node(g.mul(i, j), 1, self.q),
                )
            })
            .collect()
    }

    /// Theorem 2's placement for per-machine capacity `c`.
    ///
    /// Places `k` guest VMs where
    /// * `c ≡ 0 or 1 (mod 3)`: `k = cn/3`;
    /// * `c ≡ 2 (mod 3)`: `k = (c−1)n/3 + (n−3)/6`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if `c` is zero or exceeds `(n−1)/2`.
    pub fn theorem2_placement(&self, c: usize) -> Result<Vec<Triangle>, BoseError> {
        let n = self.n();
        if c == 0 || c > (n - 1) / 2 {
            return Err(BoseError::BadCapacity { c, n });
        }
        let mut placement = Vec::new();
        match c % 3 {
            0 => {
                for t in 1..=c / 3 {
                    placement.extend(self.group(t));
                }
            }
            1 => {
                placement.extend(self.group_zero());
                for t in 1..=(c - 1) / 3 {
                    placement.extend(self.group(t));
                }
            }
            _ => {
                placement.extend(self.group_zero());
                for t in 1..=(c - 2) / 3 {
                    placement.extend(self.group(t));
                }
                placement.extend(self.partial_group_v());
            }
        }
        Ok(placement)
    }

    /// The guest count Theorem 2 promises for capacity `c`.
    pub fn theorem2_count(&self, c: usize) -> usize {
        let n = self.n();
        match c % 3 {
            0 | 1 => c * n / 3,
            _ => (c - 1) * n / 3 + (n - 3) / 6,
        }
    }
}

/// Why a Bose construction or placement request is invalid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoseError {
    /// `n` is not ≡ 3 (mod 6).
    BadModulus {
        /// The offered machine count.
        n: usize,
    },
    /// `n < 9`, so `v = 0` and there are no `G_t` groups.
    TooSmall {
        /// The offered machine count.
        n: usize,
    },
    /// Capacity outside `1..=(n−1)/2`.
    BadCapacity {
        /// The requested capacity.
        c: usize,
        /// The machine count.
        n: usize,
    },
}

impl std::fmt::Display for BoseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoseError::BadModulus { n } => {
                write!(f, "bose construction needs n ≡ 3 (mod 6), got {n}")
            }
            BoseError::TooSmall { n } => write!(f, "bose construction needs n >= 9, got {n}"),
            BoseError::BadCapacity { c, n } => {
                write!(f, "capacity {c} outside 1..=(n-1)/2 for n={n}")
            }
        }
    }
}

impl std::error::Error for BoseError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangle::validate_placement;
    use std::collections::BTreeMap;

    #[test]
    fn construction_rejects_bad_n() {
        assert!(BoseSystem::new(10).is_err());
        assert!(BoseSystem::new(3).is_err());
        assert!(BoseSystem::new(9).is_ok());
        assert!(BoseSystem::new(15).is_ok());
        assert!(BoseSystem::new(21).is_ok());
    }

    #[test]
    fn group_sizes_match_paper() {
        let sys = BoseSystem::new(15).unwrap(); // v = 2, q = 5
        assert_eq!(sys.group_zero().len(), 5); // 2v + 1
        assert_eq!(sys.group(1).len(), 15); // n
        assert_eq!(sys.group(2).len(), 15);
        assert_eq!(sys.partial_group_v().len(), 2); // v
    }

    #[test]
    fn all_groups_edge_disjoint() {
        for &n in &[9usize, 15, 21, 27] {
            let sys = BoseSystem::new(n).unwrap();
            let mut all = sys.group_zero();
            for t in 1..=sys.v() {
                all.extend(sys.group(t));
            }
            validate_placement(&all, n, n).expect("groups pairwise edge-disjoint");
        }
    }

    #[test]
    fn group_zero_visits_each_node_once() {
        let sys = BoseSystem::new(15).unwrap();
        let mut count: BTreeMap<usize, usize> = BTreeMap::new();
        for tri in sys.group_zero() {
            for nd in tri.nodes() {
                *count.entry(nd.0).or_insert(0) += 1;
            }
        }
        assert_eq!(count.len(), 15);
        assert!(count.values().all(|&c| c == 1));
    }

    #[test]
    fn full_groups_visit_each_node_thrice() {
        let sys = BoseSystem::new(21).unwrap();
        for t in 1..=sys.v() {
            let mut count: BTreeMap<usize, usize> = BTreeMap::new();
            for tri in sys.group(t) {
                for nd in tri.nodes() {
                    *count.entry(nd.0).or_insert(0) += 1;
                }
            }
            assert_eq!(count.len(), 21, "G_{t}");
            assert!(count.values().all(|&c| c == 3), "G_{t}: {count:?}");
        }
    }

    #[test]
    fn partial_group_visits_nodes_at_most_once() {
        for &n in &[15usize, 21, 27, 33] {
            let sys = BoseSystem::new(n).unwrap();
            let mut count: BTreeMap<usize, usize> = BTreeMap::new();
            for tri in sys.partial_group_v() {
                for nd in tri.nodes() {
                    *count.entry(nd.0).or_insert(0) += 1;
                }
            }
            assert!(count.values().all(|&c| c == 1), "n={n}: {count:?}");
        }
    }

    #[test]
    fn theorem2_counts_and_validity_all_capacity_classes() {
        for &n in &[9usize, 15, 21, 33] {
            let sys = BoseSystem::new(n).unwrap();
            for c in 1..=(n - 1) / 2 {
                let placement = sys.theorem2_placement(c).expect("valid capacity");
                assert_eq!(
                    placement.len(),
                    sys.theorem2_count(c),
                    "n={n} c={c}: count mismatch"
                );
                validate_placement(&placement, n, c).unwrap_or_else(|e| panic!("n={n} c={c}: {e}"));
            }
        }
    }

    #[test]
    fn theorem2_scales_as_cn_over_3() {
        let sys = BoseSystem::new(33).unwrap();
        // c ≡ 0, 1 give exactly cn/3.
        assert_eq!(sys.theorem2_count(3), 33);
        assert_eq!(sys.theorem2_count(4), 44);
        // c ≡ 2 gives (c-1)n/3 + (n-3)/6.
        assert_eq!(sys.theorem2_count(5), 4 * 33 / 3 + 5);
    }

    #[test]
    fn theorem2_beats_isolation() {
        // Θ(cn) vs n: even modest capacity multiplies utilization.
        let sys = BoseSystem::new(21).unwrap();
        let c = 7;
        assert!(sys.theorem2_count(c) > 2 * 21);
    }

    #[test]
    fn theorem2_rejects_bad_capacity() {
        let sys = BoseSystem::new(9).unwrap();
        assert!(sys.theorem2_placement(0).is_err());
        assert!(sys.theorem2_placement(5).is_err()); // (9-1)/2 = 4
        assert!(sys.theorem2_placement(4).is_ok());
    }
}
