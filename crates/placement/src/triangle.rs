//! Nodes, triangles, and placement validity.
//!
//! StopWatch's placement constraint (paper Sec. VIII): the three replicas of
//! each guest VM form a *triangle* in the complete graph K_n over cloud
//! machines, and the triangles of distinct VMs must be pairwise
//! **edge-disjoint** — two VMs may share at most one machine, so each
//! replica coresides with nonoverlapping sets of (replicas of) other VMs.

use std::collections::BTreeMap;
use std::fmt;

/// A cloud machine, identified by index in `0..n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// An unordered pair of distinct nodes (an edge of K_n).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge(NodeId, NodeId);

impl Edge {
    /// Creates the edge `{a, b}` (stored in sorted order).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "self-loop is not an edge");
        if a < b {
            Edge(a, b)
        } else {
            Edge(b, a)
        }
    }

    /// The two endpoints in sorted order.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (self.0, self.1)
    }
}

/// The placement of one guest VM's three replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triangle {
    nodes: [NodeId; 3],
}

impl Triangle {
    /// Creates a triangle over three distinct nodes (stored sorted).
    ///
    /// # Panics
    ///
    /// Panics if any two nodes coincide.
    pub fn new(a: NodeId, b: NodeId, c: NodeId) -> Self {
        assert!(
            a != b && b != c && a != c,
            "triangle nodes must be distinct"
        );
        let mut nodes = [a, b, c];
        nodes.sort_unstable();
        Triangle { nodes }
    }

    /// The three member nodes, sorted.
    pub fn nodes(&self) -> [NodeId; 3] {
        self.nodes
    }

    /// The three edges of the triangle.
    pub fn edges(&self) -> [Edge; 3] {
        let [a, b, c] = self.nodes;
        [Edge::new(a, b), Edge::new(b, c), Edge::new(a, c)]
    }

    /// `true` when the node is one of the triangle's corners.
    pub fn contains(&self, n: NodeId) -> bool {
        self.nodes.contains(&n)
    }

    /// `true` when this triangle shares an edge (two nodes) with `other`.
    pub fn shares_edge(&self, other: &Triangle) -> bool {
        let shared = self
            .nodes
            .iter()
            .filter(|n| other.nodes.contains(n))
            .count();
        shared >= 2
    }
}

impl fmt::Display for Triangle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{{}, {}, {}}}",
            self.nodes[0], self.nodes[1], self.nodes[2]
        )
    }
}

/// Why a proposed placement violates the StopWatch constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlacementError {
    /// A node index is `>= n`.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// The number of machines.
        n: usize,
    },
    /// Two VM triangles share an edge, i.e. two machines host replicas of
    /// both VMs.
    SharedEdge {
        /// Index of the first VM in the placement list.
        first: usize,
        /// Index of the second VM in the placement list.
        second: usize,
        /// The shared machine pair.
        edge: Edge,
    },
    /// A machine hosts more replicas than its capacity.
    OverCapacity {
        /// The overloaded machine.
        node: NodeId,
        /// Replicas placed there.
        load: usize,
        /// The per-machine capacity.
        capacity: usize,
    },
}

impl fmt::Display for PlacementError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlacementError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for {n} machines")
            }
            PlacementError::SharedEdge {
                first,
                second,
                edge,
            } => {
                let (a, b) = edge.endpoints();
                write!(
                    f,
                    "VMs #{first} and #{second} share machine pair ({a}, {b})"
                )
            }
            PlacementError::OverCapacity {
                node,
                load,
                capacity,
            } => write!(
                f,
                "machine {node} hosts {load} replicas, capacity {capacity}"
            ),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Checks a full placement against the StopWatch constraints: nodes in
/// range, pairwise edge-disjoint triangles, and per-machine capacity.
///
/// # Errors
///
/// Returns the first violation found.
///
/// # Examples
///
/// ```
/// use placement::triangle::{validate_placement, NodeId, Triangle};
/// let t = |a, b, c| Triangle::new(NodeId(a), NodeId(b), NodeId(c));
/// // Sharing one machine is fine; sharing two is not.
/// assert!(validate_placement(&[t(0, 1, 2), t(0, 3, 4)], 5, 2).is_ok());
/// assert!(validate_placement(&[t(0, 1, 2), t(0, 1, 3)], 5, 2).is_err());
/// ```
pub fn validate_placement(
    placement: &[Triangle],
    n: usize,
    capacity: usize,
) -> Result<(), PlacementError> {
    let mut edge_owner: BTreeMap<Edge, usize> = BTreeMap::new();
    let mut load: BTreeMap<NodeId, usize> = BTreeMap::new();
    for (idx, tri) in placement.iter().enumerate() {
        for node in tri.nodes() {
            if node.0 >= n {
                return Err(PlacementError::NodeOutOfRange { node, n });
            }
            let l = load.entry(node).or_insert(0);
            *l += 1;
            if *l > capacity {
                return Err(PlacementError::OverCapacity {
                    node,
                    load: *l,
                    capacity,
                });
            }
        }
        for e in tri.edges() {
            if let Some(&first) = edge_owner.get(&e) {
                return Err(PlacementError::SharedEdge {
                    first,
                    second: idx,
                    edge: e,
                });
            }
            edge_owner.insert(e, idx);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(a: usize, b: usize, c: usize) -> Triangle {
        Triangle::new(NodeId(a), NodeId(b), NodeId(c))
    }

    #[test]
    fn triangle_normalizes_order() {
        assert_eq!(t(3, 1, 2), t(1, 2, 3));
        assert_eq!(t(3, 1, 2).nodes(), [NodeId(1), NodeId(2), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn degenerate_triangle_panics() {
        t(1, 1, 2);
    }

    #[test]
    fn edges_are_the_three_pairs() {
        let edges = t(0, 1, 2).edges();
        assert!(edges.contains(&Edge::new(NodeId(0), NodeId(1))));
        assert!(edges.contains(&Edge::new(NodeId(1), NodeId(2))));
        assert!(edges.contains(&Edge::new(NodeId(0), NodeId(2))));
    }

    #[test]
    fn shares_edge_semantics() {
        assert!(t(0, 1, 2).shares_edge(&t(0, 1, 3)));
        assert!(!t(0, 1, 2).shares_edge(&t(0, 3, 4)));
        assert!(t(0, 1, 2).shares_edge(&t(0, 1, 2)));
    }

    #[test]
    fn validate_catches_shared_edge() {
        let err = validate_placement(&[t(0, 1, 2), t(1, 2, 3)], 4, 4).unwrap_err();
        match err {
            PlacementError::SharedEdge { first, second, .. } => {
                assert_eq!((first, second), (0, 1));
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn validate_catches_capacity() {
        // Node 0 used twice with capacity 1.
        let err = validate_placement(&[t(0, 1, 2), t(0, 3, 4)], 5, 1).unwrap_err();
        assert!(matches!(err, PlacementError::OverCapacity { node, .. } if node == NodeId(0)));
    }

    #[test]
    fn validate_catches_out_of_range() {
        let err = validate_placement(&[t(0, 1, 9)], 5, 3).unwrap_err();
        assert!(matches!(err, PlacementError::NodeOutOfRange { node, .. } if node == NodeId(9)));
    }

    #[test]
    fn empty_placement_is_valid() {
        assert!(validate_placement(&[], 3, 1).is_ok());
    }

    #[test]
    fn error_display_is_informative() {
        let err = validate_placement(&[t(0, 1, 2), t(0, 1, 3)], 5, 2).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("share machine pair"), "{msg}");
    }
}
