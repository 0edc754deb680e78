//! Communication graphs.
//!
//! A [`Topology`] is an immutable simple undirected graph stored in CSR
//! (compressed sparse row) form: adjacency lists are contiguous and sorted,
//! so `neighbors()` is a slice and membership tests are binary searches.

use crate::error::CongestError;
use crate::node::NodeId;

/// An immutable simple undirected communication graph.
///
/// Build one with [`Topology::from_edges`], from ascending rows with
/// [`Topology::from_sorted_rows`], or with a shape constructor
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

    /// Builds a topology from its adjacency rows in CSR form: node `u`'s
    /// neighbors are `adjacency[offsets[u]..offsets[u + 1]]`, so
    /// `offsets` has one more entry than there are nodes. For callers that
    /// already hold ascending rows, this skips [`Topology::from_edges`]'
    /// per-node lists and sorts: the rows are checked, not rebuilt, in
    /// `O(links)`.
    ///
    /// # Errors
    ///
    /// Returns [`CongestError::InvalidTopology`] if `offsets` is not a
    /// non-decreasing table from 0 to `adjacency.len()`, a row descends, or
    /// a neighbor `v` of `u` does not list `u`;
    /// [`CongestError::DuplicateEdge`] for a repeated neighbor,
    /// [`CongestError::SelfLoop`] for a node listing itself, and
    /// [`CongestError::NodeOutOfRange`] for an id past the last node.
    pub fn from_sorted_rows(
        offsets: Vec<u32>,
        adjacency: Vec<NodeId>,
    ) -> Result<Self, CongestError> {
        let invalid = |reason: String| Err(CongestError::InvalidTopology { reason });
        let end = u32::try_from(adjacency.len()).ok();
        if offsets.first() != Some(&0) || offsets.last().copied() != end || !offsets.is_sorted() {
            return invalid(format!(
                "row offsets must rise from 0 to {}, got {offsets:?}",
                adjacency.len()
            ));
        }
        let num_nodes = offsets.len() - 1;
        let rows = || {
            offsets.windows(2).enumerate().map(|(u, row)| {
                (NodeId::new(u as u32), &adjacency[row[0] as usize..row[1] as usize])
            })
        };
        for (a, row) in rows() {
            let mut prev: Option<NodeId> = None;
            for &b in row {
                if b.index() >= num_nodes {
                    return Err(CongestError::NodeOutOfRange { id: b, num_nodes });
                }
                if b == a {
                    return Err(CongestError::SelfLoop { id: a });
                }
                match prev {
                    Some(p) if p == b => return Err(CongestError::DuplicateEdge { a, b }),
                    Some(p) if p > b => {
                        return invalid(format!("row of node {a} descends from {p} to {b}"))
                    }
                    _ => prev = Some(b),
                }
            }
        }
        // Symmetry: per node, the next entry of its row still to be
        // matched by a reverse entry. Nodes are visited in ascending order
        // and rows ascend, so every row is matched front to back; as each
        // entry consumes one, all rows end fully matched or a check fails.
        let mut unmatched = offsets[..num_nodes].to_vec();
        for (a, row) in rows() {
            for &b in row {
                let k = &mut unmatched[b.index()];
                if *k == offsets[b.index() + 1] || adjacency[*k as usize] != a {
                    return invalid(format!("node {a} lists {b}, but {b} does not list {a}"));
                }
                *k += 1;
            }
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

    /// Row form of the path `0 - 1 - 2`, with `row1` as node 1's row.
    fn path_rows(row1: &[u32]) -> Result<Topology, CongestError> {
        let adjacency: Vec<NodeId> =
            [1].iter().chain(row1).chain(&[1]).map(|&v| NodeId::new(v)).collect();
        let end = adjacency.len() as u32;
        Topology::from_sorted_rows(vec![0, 1, end - 1, end], adjacency)
    }

    #[test]
    fn sorted_rows_build_the_same_graph_as_the_edge_list() {
        let edges = [(0, 1), (1, 2)].map(|(a, b)| (NodeId::new(a), NodeId::new(b)));
        assert_eq!(path_rows(&[0, 2]).unwrap(), Topology::from_edges(3, edges).unwrap());
        let empty = Topology::from_sorted_rows(vec![0, 0, 0], Vec::new()).unwrap();
        assert_eq!(empty, Topology::from_edges(2, Vec::new()).unwrap());
    }

    #[test]
    fn sorted_rows_reject_a_descending_row() {
        match path_rows(&[2, 0]).unwrap_err() {
            CongestError::InvalidTopology { reason } => assert!(reason.contains("descends")),
            err => panic!("expected a descending-row error, got {err:?}"),
        }
    }

    #[test]
    fn sorted_rows_reject_a_repeated_neighbor() {
        let err = path_rows(&[0, 0, 2]).unwrap_err();
        assert_eq!(err, CongestError::DuplicateEdge { a: NodeId::new(1), b: NodeId::new(0) });
    }

    #[test]
    fn sorted_rows_reject_an_out_of_range_id() {
        let err = path_rows(&[0, 2, 3]).unwrap_err();
        assert_eq!(err, CongestError::NodeOutOfRange { id: NodeId::new(3), num_nodes: 3 });
    }

    #[test]
    fn sorted_rows_reject_self_loops_one_way_edges_and_bad_offsets() {
        let err = path_rows(&[0, 1, 2]).unwrap_err();
        assert_eq!(err, CongestError::SelfLoop { id: NodeId::new(1) });
        // Node 1 lists only 0, but 2 lists 1.
        match path_rows(&[0]).unwrap_err() {
            CongestError::InvalidTopology { reason } => assert!(reason.contains("does not list")),
            err => panic!("expected a one-way edge error, got {err:?}"),
        }
        for offsets in [vec![], vec![1, 1], vec![0, 1], vec![0, 2, 1, 2]] {
            let adjacency = vec![NodeId::new(1), NodeId::new(0)];
            let err = Topology::from_sorted_rows(offsets, adjacency).unwrap_err();
            assert!(matches!(err, CongestError::InvalidTopology { .. }), "{err:?}");
        }
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
