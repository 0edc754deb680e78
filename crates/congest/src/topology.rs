//! Communication graphs.
//!
//! A [`Topology`] is an immutable simple undirected graph stored in CSR
//! (compressed sparse row) form: adjacency lists are contiguous and sorted,
//! so `neighbors()` is a slice and membership tests are binary searches.

use crate::error::CongestError;
use crate::node::NodeId;

/// An immutable simple undirected communication graph.
///
/// Build one with [`Topology::from_edges`] or a shape constructor
/// ([`Topology::ring`], [`Topology::grid`], [`Topology::complete_bipartite`],
/// [`Topology::bipartite`]), then hand it to [`crate::Network::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// CSR row offsets, length `num_nodes + 1`.
    offsets: Vec<u32>,
    /// Concatenated sorted adjacency lists.
    adjacency: Vec<NodeId>,
}

impl Topology {
    /// Builds a topology over `num_nodes` nodes from an undirected edge list.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::SelfLoop`], [`CongestError::DuplicateEdge`],
    /// or [`CongestError::NodeOutOfRange`] if the edge list is not a simple
    /// graph over `0..num_nodes`.
    pub fn from_edges(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
    ) -> Result<Self, CongestError> {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); num_nodes];
        for (a, b) in edges {
            if a == b {
                return Err(CongestError::SelfLoop { id: a });
            }
            for id in [a, b] {
                if id.index() >= num_nodes {
                    return Err(CongestError::NodeOutOfRange { id, num_nodes });
                }
            }
            adj[a.index()].push(b);
            adj[b.index()].push(a);
        }
        let mut offsets = Vec::with_capacity(num_nodes + 1);
        let mut adjacency = Vec::new();
        offsets.push(0u32);
        for (i, mut list) in adj.into_iter().enumerate() {
            list.sort_unstable();
            if let Some(w) = list.windows(2).find(|w| w[0] == w[1]) {
                return Err(CongestError::DuplicateEdge { a: NodeId::new(i as u32), b: w[0] });
            }
            adjacency.extend_from_slice(&list);
            offsets.push(adjacency.len() as u32);
        }
        Ok(Topology { offsets, adjacency })
    }

    /// A cycle on `n ≥ 3` nodes.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::InvalidTopology`] for `n < 3`.
    pub fn ring(n: usize) -> Result<Self, CongestError> {
        if n < 3 {
            return Err(CongestError::InvalidTopology {
                reason: format!("ring needs at least 3 nodes, got {n}"),
            });
        }
        let edges = (0..n).map(|i| (NodeId::new(i as u32), NodeId::new(((i + 1) % n) as u32)));
        Self::from_edges(n, edges)
    }

    /// A `rows × cols` 4-neighbor grid.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::InvalidTopology`] if either dimension is zero.
    pub fn grid(rows: usize, cols: usize) -> Result<Self, CongestError> {
        if rows == 0 || cols == 0 {
            return Err(CongestError::InvalidTopology {
                reason: format!("grid dimensions must be positive, got {rows}x{cols}"),
            });
        }
        let id = |r: usize, c: usize| NodeId::new((r * cols + c) as u32);
        let mut edges = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        Self::from_edges(rows * cols, edges)
    }

    /// Complete bipartite graph: nodes `0..left` on one side,
    /// `left..left+right` on the other, every cross pair adjacent.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::InvalidTopology`] if either side is empty.
    pub fn complete_bipartite(left: usize, right: usize) -> Result<Self, CongestError> {
        if left == 0 || right == 0 {
            return Err(CongestError::InvalidTopology {
                reason: format!(
                    "complete bipartite graph needs both sides non-empty, got {left}/{right}"
                ),
            });
        }
        let mut edges = Vec::with_capacity(left * right);
        for a in 0..left {
            for b in 0..right {
                edges.push((NodeId::new(a as u32), NodeId::new((left + b) as u32)));
            }
        }
        Self::from_edges(left + right, edges)
    }

    /// Bipartite graph from explicit cross pairs `(left_index, right_index)`;
    /// node ids are `left` nodes `0..left` then `right` nodes
    /// `left..left+right`.
    ///
    /// # Errors
    ///
    /// Propagates simple-graph violations from [`Topology::from_edges`] and
    /// rejects out-of-range side indices.
    pub fn bipartite(
        left: usize,
        right: usize,
        pairs: impl IntoIterator<Item = (usize, usize)>,
    ) -> Result<Self, CongestError> {
        let num_nodes = left + right;
        let mut edges = Vec::new();
        for (a, b) in pairs {
            if a >= left {
                return Err(CongestError::NodeOutOfRange {
                    id: NodeId::new(a as u32),
                    num_nodes: left,
                });
            }
            if b >= right {
                return Err(CongestError::NodeOutOfRange {
                    id: NodeId::new(b as u32),
                    num_nodes: right,
                });
            }
            edges.push((NodeId::new(a as u32), NodeId::new((left + b) as u32)));
        }
        Self::from_edges(num_nodes, edges)
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len() / 2
    }

    /// The sorted neighbor list of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn neighbors(&self, id: NodeId) -> &[NodeId] {
        let lo = self.offsets[id.index()] as usize;
        let hi = self.offsets[id.index() + 1] as usize;
        &self.adjacency[lo..hi]
    }

    /// Degree of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn degree(&self, id: NodeId) -> usize {
        self.neighbors(id).len()
    }

    /// Maximum degree over all nodes (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes()).map(|i| self.degree(NodeId::new(i as u32))).max().unwrap_or(0)
    }

    /// Whether `a` and `b` are adjacent.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        if a.index() >= self.num_nodes() {
            return false;
        }
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Whether the graph is connected (vacuously true for a single node).
    pub fn is_connected(&self) -> bool {
        let n = self.num_nodes();
        if n == 0 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Iterates over all undirected edges `(a, b)` with `a < b`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        (0..self.num_nodes()).flat_map(move |i| {
            let a = NodeId::new(i as u32);
            self.neighbors(a).iter().copied().filter(move |&b| a < b).map(move |b| (a, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_structure() {
        let t = Topology::ring(5).unwrap();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_edges(), 5);
        assert_eq!(t.neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(4)]);
        assert!(t.are_neighbors(NodeId::new(2), NodeId::new(3)));
        assert!(!t.are_neighbors(NodeId::new(0), NodeId::new(2)));
        assert_eq!(t.max_degree(), 2);
    }

    #[test]
    fn ring_too_small() {
        assert!(matches!(Topology::ring(2), Err(CongestError::InvalidTopology { .. })));
    }

    #[test]
    fn grid_structure() {
        let t = Topology::grid(3, 4).unwrap();
        assert_eq!(t.num_nodes(), 12);
        // 3 rows * 3 horizontal + 2 * 4 vertical = 9 + 8.
        assert_eq!(t.num_edges(), 17);
        assert_eq!(t.max_degree(), 4);
        // Corner has degree 2.
        assert_eq!(t.degree(NodeId::new(0)), 2);
    }

    #[test]
    fn grid_rejects_zero_dimension() {
        assert!(Topology::grid(0, 3).is_err());
        assert!(Topology::grid(3, 0).is_err());
    }

    #[test]
    fn complete_bipartite_structure() {
        let t = Topology::complete_bipartite(2, 3).unwrap();
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_edges(), 6);
        assert_eq!(t.degree(NodeId::new(0)), 3);
        assert_eq!(t.degree(NodeId::new(4)), 2);
        // No edges within a side.
        assert!(!t.are_neighbors(NodeId::new(0), NodeId::new(1)));
        assert!(!t.are_neighbors(NodeId::new(2), NodeId::new(3)));
    }

    #[test]
    fn bipartite_with_pairs() {
        let t = Topology::bipartite(2, 2, vec![(0, 0), (1, 1), (0, 1)]).unwrap();
        assert_eq!(t.num_edges(), 3);
        assert!(t.are_neighbors(NodeId::new(0), NodeId::new(2)));
        assert!(t.are_neighbors(NodeId::new(0), NodeId::new(3)));
        assert!(t.are_neighbors(NodeId::new(1), NodeId::new(3)));
        assert!(!t.are_neighbors(NodeId::new(1), NodeId::new(2)));
    }

    #[test]
    fn bipartite_rejects_out_of_range() {
        assert!(Topology::bipartite(2, 2, vec![(2, 0)]).is_err());
        assert!(Topology::bipartite(2, 2, vec![(0, 5)]).is_err());
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let n0 = NodeId::new(0);
        let n1 = NodeId::new(1);
        assert!(matches!(
            Topology::from_edges(2, vec![(n0, n0)]),
            Err(CongestError::SelfLoop { .. })
        ));
        assert!(matches!(
            Topology::from_edges(2, vec![(n0, n1), (n1, n0)]),
            Err(CongestError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn rejects_out_of_range_edge() {
        let e = Topology::from_edges(2, vec![(NodeId::new(0), NodeId::new(5))]);
        assert!(matches!(e, Err(CongestError::NodeOutOfRange { .. })));
    }

    #[test]
    fn edges_iterator_covers_each_edge_once() {
        let t = Topology::grid(2, 3).unwrap();
        let edges: Vec<_> = t.edges().collect();
        assert_eq!(edges.len(), t.num_edges());
        for (a, b) in edges {
            assert!(a < b);
            assert!(t.are_neighbors(a, b));
        }
    }

    #[test]
    fn connectivity_detection() {
        assert!(Topology::ring(6).unwrap().is_connected());
        assert!(Topology::grid(3, 4).unwrap().is_connected());
        assert!(Topology::complete_bipartite(2, 3).unwrap().is_connected());
        // Two disjoint edges: disconnected.
        let t = Topology::from_edges(
            4,
            vec![(NodeId::new(0), NodeId::new(1)), (NodeId::new(2), NodeId::new(3))],
        )
        .unwrap();
        assert!(!t.is_connected());
        // Isolated node: disconnected.
        let t = Topology::from_edges(3, vec![(NodeId::new(0), NodeId::new(1))]).unwrap();
        assert!(!t.is_connected());
    }

    #[test]
    fn empty_graph_is_fine() {
        let t = Topology::from_edges(3, Vec::new()).unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 0);
        assert_eq!(t.max_degree(), 0);
    }
}
