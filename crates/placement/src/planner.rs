//! The operator-facing placement planner: accepts guest VMs one at a time
//! and assigns each a replica triangle satisfying the StopWatch
//! coresidency constraints, using the Theorem 2 schedule when the cloud
//! shape allows it and incremental greedy search otherwise.

use crate::bose::BoseSystem;
use crate::packing::max_triangle_packing;
use crate::triangle::{Edge, NodeId, PlacementError, Triangle};
use std::collections::BTreeSet;

/// How the planner chooses triangles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Consume the precomputed Theorem 2 (Bose) schedule; requires
    /// `n ≡ 3 mod 6`, `n >= 9`.
    Bose,
    /// Incremental first-fit greedy search; works for any `n >= 3`.
    Greedy,
}

/// An online replica-placement planner for a StopWatch cloud.
///
/// # Examples
///
/// ```
/// use placement::planner::{PlacementPlanner, Strategy};
/// let mut p = PlacementPlanner::new(9, 4, Strategy::Bose).unwrap();
/// let first = p.place_vm().expect("room for at least one VM");
/// assert_eq!(first.nodes().len(), 3);
/// // Fill the cloud: Theorem 2 promises cn/3 = 12 VMs for n=9, c=4.
/// let total = 1 + p.place_all();
/// assert_eq!(total, 12);
/// ```
#[derive(Debug, Clone)]
pub struct PlacementPlanner {
    n: usize,
    capacity: usize,
    used_edges: BTreeSet<Edge>,
    load: Vec<usize>,
    placed: Vec<Triangle>,
    schedule: Vec<Triangle>, // precomputed (Bose) or empty (greedy)
    next_scheduled: usize,
    strategy: Strategy,
}

impl PlacementPlanner {
    /// Creates a planner for `n` machines of per-machine capacity
    /// `capacity` guests.
    ///
    /// # Errors
    ///
    /// Returns an error string when the strategy's preconditions fail
    /// (Bose needs `n ≡ 3 mod 6`, `n >= 9`, `1 <= capacity <= (n-1)/2`;
    /// greedy needs `n >= 3`, `capacity >= 1`).
    pub fn new(n: usize, capacity: usize, strategy: Strategy) -> Result<Self, String> {
        if capacity == 0 {
            return Err("capacity must be at least 1".into());
        }
        let schedule = match strategy {
            Strategy::Bose => {
                let sys = BoseSystem::new(n).map_err(|e| e.to_string())?;
                sys.theorem2_placement(capacity)
                    .map_err(|e| e.to_string())?
            }
            Strategy::Greedy => {
                if n < 3 {
                    return Err("need at least 3 machines".into());
                }
                Vec::new()
            }
        };
        Ok(PlacementPlanner {
            n,
            capacity,
            used_edges: BTreeSet::new(),
            load: vec![0; n],
            placed: Vec::new(),
            schedule,
            next_scheduled: 0,
            strategy,
        })
    }

    /// Machines in the cloud.
    pub fn machines(&self) -> usize {
        self.n
    }

    /// Per-machine guest capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// VMs placed so far.
    pub fn placed(&self) -> &[Triangle] {
        &self.placed
    }

    /// Places the next guest VM, returning its replica triangle, or `None`
    /// when no valid placement remains.
    pub fn place_vm(&mut self) -> Option<Triangle> {
        let tri = match self.strategy {
            Strategy::Bose => {
                let tri = *self.schedule.get(self.next_scheduled)?;
                self.next_scheduled += 1;
                tri
            }
            Strategy::Greedy => self.find_greedy()?,
        };
        debug_assert!(self.admissible(&tri), "planner produced invalid triangle");
        for e in tri.edges() {
            self.used_edges.insert(e);
        }
        for nd in tri.nodes() {
            self.load[nd.0] += 1;
        }
        self.placed.push(tri);
        Some(tri)
    }

    /// Places VMs until the cloud is full; returns how many were placed by
    /// this call.
    pub fn place_all(&mut self) -> usize {
        let mut placed = 0;
        while self.place_vm().is_some() {
            placed += 1;
        }
        placed
    }

    fn admissible(&self, tri: &Triangle) -> bool {
        tri.nodes().iter().all(|nd| self.load[nd.0] < self.capacity)
            && tri.edges().iter().all(|e| !self.used_edges.contains(e))
    }

    fn find_greedy(&self) -> Option<Triangle> {
        // First-fit over node triples, preferring lightly loaded nodes: sort
        // node ids by load, then scan triples in that order.
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by_key(|&i| (self.load[i], i));
        let avail: Vec<usize> = order
            .into_iter()
            .filter(|&i| self.load[i] < self.capacity)
            .collect();
        for ai in 0..avail.len() {
            for bi in ai + 1..avail.len() {
                let (a, b) = (avail[ai], avail[bi]);
                if self.used_edges.contains(&Edge::new(NodeId(a), NodeId(b))) {
                    continue;
                }
                for &c in avail.iter().skip(bi + 1) {
                    let tri = Triangle::new(NodeId(a), NodeId(b), NodeId(c));
                    if self.admissible(&tri) {
                        return Some(tri);
                    }
                }
            }
        }
        None
    }

    /// Fraction of machine slots occupied: `3·VMs / (n·capacity)`.
    pub fn utilization(&self) -> f64 {
        3.0 * self.placed.len() as f64 / (self.n * self.capacity) as f64
    }

    /// Ratio of guests hosted versus the "one guest per isolated machine"
    /// baseline the paper compares against (Sec. VIII).
    pub fn speedup_vs_isolation(&self) -> f64 {
        self.placed.len() as f64 / self.n as f64
    }

    /// The Theorem 1 upper bound on VM count for this cloud, ignoring
    /// capacity.
    pub fn packing_bound(&self) -> usize {
        max_triangle_packing(self.n)
    }

    /// Re-validates the full current placement (defense in depth; the
    /// planner maintains the invariants incrementally).
    ///
    /// # Errors
    ///
    /// Returns the first constraint violation, if any.
    pub fn validate(&self) -> Result<(), PlacementError> {
        crate::triangle::validate_placement(&self.placed, self.n, self.capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bose_planner_reaches_theorem2_count() {
        for (n, c) in [(9usize, 4usize), (15, 7), (21, 3), (21, 10)] {
            let mut p = PlacementPlanner::new(n, c, Strategy::Bose).unwrap();
            let placed = p.place_all();
            let sys = BoseSystem::new(n).unwrap();
            assert_eq!(placed, sys.theorem2_count(c), "n={n} c={c}");
            p.validate().expect("valid");
        }
    }

    #[test]
    fn greedy_planner_works_for_any_n() {
        for n in [5usize, 8, 10, 13, 20] {
            let c = ((n - 1) / 2).max(1);
            let mut p = PlacementPlanner::new(n, c, Strategy::Greedy).unwrap();
            let placed = p.place_all();
            assert!(placed > 0, "n={n}");
            p.validate().expect("valid");
        }
    }

    #[test]
    fn greedy_close_to_bose_on_bose_shapes() {
        let n = 15;
        let c = 7;
        let mut bose = PlacementPlanner::new(n, c, Strategy::Bose).unwrap();
        let mut greedy = PlacementPlanner::new(n, c, Strategy::Greedy).unwrap();
        let kb = bose.place_all();
        let kg = greedy.place_all();
        assert!(kg * 10 >= kb * 6, "greedy {kg} below 60% of bose {kb}");
    }

    #[test]
    fn utilization_math() {
        let mut p = PlacementPlanner::new(9, 4, Strategy::Bose).unwrap();
        p.place_all();
        // 12 VMs * 3 replicas / (9 * 4) slots = 1.0
        assert!((p.utilization() - 1.0).abs() < 1e-12);
        assert!((p.speedup_vs_isolation() - 12.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn place_vm_is_incremental() {
        let mut p = PlacementPlanner::new(9, 2, Strategy::Greedy).unwrap();
        let mut seen = Vec::new();
        while let Some(t) = p.place_vm() {
            seen.push(t);
            p.validate().expect("valid after every placement");
        }
        assert_eq!(seen.len(), p.placed().len());
    }

    #[test]
    fn capacity_one_limits_to_disjoint_triangles() {
        let mut p = PlacementPlanner::new(9, 1, Strategy::Greedy).unwrap();
        let placed = p.place_all();
        assert_eq!(placed, 3); // 9 nodes / 3 per triangle
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(PlacementPlanner::new(10, 2, Strategy::Bose).is_err());
        assert!(PlacementPlanner::new(9, 0, Strategy::Greedy).is_err());
        assert!(PlacementPlanner::new(2, 1, Strategy::Greedy).is_err());
        assert!(PlacementPlanner::new(9, 5, Strategy::Bose).is_err());
    }

    #[test]
    fn packing_bound_exposed() {
        let p = PlacementPlanner::new(9, 4, Strategy::Bose).unwrap();
        assert_eq!(p.packing_bound(), 12);
    }
}
