//! Theorem 1 (maximum edge-disjoint triangle packings of K_n, after
//! Horsley) and a practical greedy packer for arbitrary `n` and capacity.

use crate::triangle::{Edge, NodeId, Triangle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The exact maximum number of pairwise edge-disjoint triangles in K_n
/// (paper Theorem 1, a corollary of Horsley 2011).
///
/// * odd `n`: the largest `k` with `3k <= C(n,2)` and `C(n,2) − 3k ∉ {1,2}`;
/// * even `n`: the largest `k` with `3k <= C(n,2) − n/2`.
///
/// # Examples
///
/// ```
/// use placement::packing::max_triangle_packing;
/// assert_eq!(max_triangle_packing(3), 1);   // one triangle
/// assert_eq!(max_triangle_packing(7), 7);   // Steiner triple system S(2,3,7)
/// assert_eq!(max_triangle_packing(9), 12);  // S(2,3,9)
/// ```
pub fn max_triangle_packing(n: usize) -> usize {
    if n < 3 {
        return 0;
    }
    let pairs = n * (n - 1) / 2;
    if n % 2 == 1 {
        let mut k = pairs / 3;
        while k > 0 && matches!(pairs - 3 * k, 1 | 2) {
            k -= 1;
        }
        k
    } else {
        (pairs - n / 2) / 3
    }
}

/// Number of guests a cloud of `n` nodes can run *without* StopWatch when
/// isolating each guest on its own machine — the baseline Sec. VIII
/// compares against.
pub fn isolation_capacity(n: usize) -> usize {
    n
}

/// Greedy edge-disjoint triangle packing under a per-node capacity.
///
/// Works for any `n` (the Bose construction in [`crate::bose`] needs
/// `n ≡ 3 mod 6`); deterministic for a given `seed`. Uses randomized
/// multi-pass greedy: repeatedly scans candidate triangles in shuffled
/// order, placing each whose three edges are unused and whose nodes all
/// have spare capacity.
///
/// Returns the triangles placed; the result is always a valid placement but
/// only approximates the optimum.
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn greedy_packing(n: usize, capacity: usize, seed: u64) -> Vec<Triangle> {
    assert!(capacity > 0, "capacity must be positive");
    if n < 3 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used: BTreeSet<Edge> = BTreeSet::new();
    let mut load = vec![0usize; n];
    let mut placed = Vec::new();

    // Candidate order: all triangles for modest n; node-sampled otherwise.
    if n <= 64 {
        let mut candidates = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    candidates.push(Triangle::new(NodeId(a), NodeId(b), NodeId(c)));
                }
            }
        }
        // Multiple shuffled passes; later passes can fill gaps opened by
        // capacity interactions.
        for _ in 0..3 {
            shuffle(&mut candidates, &mut rng);
            for &tri in &candidates {
                try_place(tri, capacity, &mut used, &mut load, &mut placed);
            }
        }
    } else {
        // For large n, sample random triangles; expected coverage is high
        // after ~n^2 attempts per pass.
        let attempts = 20 * n * n;
        for _ in 0..attempts {
            let a = rng.random_range(0..n);
            let b = rng.random_range(0..n);
            let c = rng.random_range(0..n);
            if a == b || b == c || a == c {
                continue;
            }
            let tri = Triangle::new(NodeId(a), NodeId(b), NodeId(c));
            try_place(tri, capacity, &mut used, &mut load, &mut placed);
        }
    }
    placed
}

fn shuffle<T>(xs: &mut [T], rng: &mut StdRng) {
    for i in (1..xs.len()).rev() {
        let j = rng.random_range(0..=i);
        xs.swap(i, j);
    }
}

fn try_place(
    tri: Triangle,
    capacity: usize,
    used: &mut BTreeSet<Edge>,
    load: &mut [usize],
    placed: &mut Vec<Triangle>,
) -> bool {
    if tri.nodes().iter().any(|nd| load[nd.0] >= capacity) {
        return false;
    }
    if tri.edges().iter().any(|e| used.contains(e)) {
        return false;
    }
    for e in tri.edges() {
        used.insert(e);
    }
    for nd in tri.nodes() {
        load[nd.0] += 1;
    }
    placed.push(tri);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triangle::validate_placement;

    #[test]
    fn theorem1_small_values() {
        // C(n,2)/3 with the leave conditions.
        assert_eq!(max_triangle_packing(0), 0);
        assert_eq!(max_triangle_packing(2), 0);
        assert_eq!(max_triangle_packing(3), 1);
        assert_eq!(max_triangle_packing(4), 1); // C=6, minus n/2=2 -> 4/3 -> 1
        assert_eq!(max_triangle_packing(5), 2); // C=10: 3k<=10, leave 10-9=1 bad -> k=2 (leave 4)
        assert_eq!(max_triangle_packing(6), 4); // C=15-3=12 -> 4
        assert_eq!(max_triangle_packing(7), 7); // STS(7)
        assert_eq!(max_triangle_packing(9), 12); // STS(9)
        assert_eq!(max_triangle_packing(13), 26); // STS(13)
    }

    #[test]
    fn theorem1_quadratic_growth() {
        // Θ(n²) guests vs Θ(n) for isolation (the paper's utilization
        // argument).
        let n = 99;
        let k = max_triangle_packing(n);
        assert!(k >= n * (n - 1) / 6 - 2);
        assert!(k > 10 * isolation_capacity(n));
    }

    #[test]
    fn theorem1_leave_conditions() {
        // n=5: C(5,2)=10. k=3 would leave 1 edge (forbidden); k=2 leaves 4.
        assert_eq!(max_triangle_packing(5), 2);
        // n=11: C=55. k=18 leaves 1 (forbidden); k=17 leaves 4.
        assert_eq!(max_triangle_packing(11), 17);
    }

    #[test]
    fn greedy_is_valid_and_dense() {
        for &n in &[7usize, 9, 12, 15, 21] {
            let cap = (n - 1) / 2;
            let placed = greedy_packing(n, cap, 1);
            validate_placement(&placed, n, cap).expect("greedy placement valid");
            let bound = max_triangle_packing(n);
            assert!(
                placed.len() * 10 >= bound * 7,
                "n={n}: greedy {} far below bound {bound}",
                placed.len()
            );
        }
    }

    #[test]
    fn greedy_respects_small_capacity() {
        let placed = greedy_packing(9, 1, 7);
        validate_placement(&placed, 9, 1).expect("valid");
        // With capacity 1 each node appears at most once: at most n/3 VMs.
        assert!(placed.len() <= 3);
        assert!(!placed.is_empty());
    }

    #[test]
    fn greedy_deterministic_per_seed() {
        assert_eq!(greedy_packing(12, 3, 42), greedy_packing(12, 3, 42));
    }

    #[test]
    fn greedy_large_n_sampled_path() {
        let placed = greedy_packing(70, 3, 3);
        validate_placement(&placed, 70, 3).expect("valid");
        assert!(placed.len() > 40, "got {}", placed.len());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn greedy_zero_capacity_panics() {
        greedy_packing(9, 0, 1);
    }
}
