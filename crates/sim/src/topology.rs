//! Cluster topology: which ranks share a node.
//!
//! The paper's cluster packs 16 ranks per node; whether two ranks share a
//! node decides whether their messages ride the shared-memory path or the
//! fabric — the distinction behind the local/remote split of Fig. 6c.

/// A flat nodes × ranks-per-node topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    /// Total MPI ranks.
    pub num_ranks: usize,
    /// Ranks packed per node (16 in the paper's cluster).
    pub ranks_per_node: usize,
}

impl Topology {
    /// Build a topology; ranks fill nodes in order, the last node may be
    /// partially filled.
    pub fn new(num_ranks: usize, ranks_per_node: usize) -> Topology {
        assert!(num_ranks > 0 && ranks_per_node > 0);
        Topology {
            num_ranks,
            ranks_per_node,
        }
    }

    /// The paper's configuration: 16 ranks per node.
    pub fn paper(num_ranks: usize) -> Topology {
        Topology::new(num_ranks, 16)
    }

    /// Number of (possibly partially filled) nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.num_ranks.div_ceil(self.ranks_per_node)
    }

    /// Node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.num_ranks);
        rank / self.ranks_per_node
    }

    /// Do two ranks share a node (shared-memory communication)?
    #[inline]
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }

    /// Ranks hosted on `node`.
    pub fn ranks_on_node(&self, node: usize) -> std::ops::Range<usize> {
        let start = node * self.ranks_per_node;
        let end = ((node + 1) * self.ranks_per_node).min(self.num_ranks);
        start..end
    }
}

/// Mapping from the job's *logical* nodes to *physical* machines, with an
/// overprovisioned spare pool — the paper's §IV-A operational answer to
/// fail-slow hardware ("overprovisioned nodes... failing nodes were
/// automatically pruned from runs and blacklisted").
///
/// Logical node ids (what [`Topology::node_of`] returns) stay stable for the
/// whole run; pruning a faulty machine re-hosts its logical node onto a
/// spare *physical* machine, so fault state — which is attached to physical
/// machines — stops applying to those ranks. The state migration this
/// implies is charged by the simulator as fabric traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeMap {
    /// Physical machine hosting each logical node.
    phys: Vec<usize>,
    /// Primary machine count; physical ids `>= primary` are spares.
    primary: usize,
    /// Unused spare machine ids, lowest first.
    pool: Vec<usize>,
}

impl NodeMap {
    /// Identity map over `num_nodes` machines with `spares` extra machines
    /// held in reserve (physical ids `num_nodes..num_nodes + spares`).
    pub fn with_spares(num_nodes: usize, spares: usize) -> NodeMap {
        NodeMap {
            phys: (0..num_nodes).collect(),
            primary: num_nodes,
            // Reversed so `pop` hands out the lowest spare id first.
            pool: (num_nodes..num_nodes + spares).rev().collect(),
        }
    }

    /// Identity map with no spares.
    pub fn identity(num_nodes: usize) -> NodeMap {
        NodeMap::with_spares(num_nodes, 0)
    }

    /// Physical machine hosting logical `node`.
    #[inline]
    pub fn physical(&self, node: usize) -> usize {
        self.phys[node]
    }

    /// Has `node` been re-hosted onto a spare?
    #[inline]
    pub fn rehosted(&self, node: usize) -> bool {
        self.phys[node] >= self.primary
    }

    /// Spare machines still available.
    pub fn spares_left(&self) -> usize {
        self.pool.len()
    }

    /// Is every logical node still on its original machine?
    pub fn is_identity(&self) -> bool {
        self.phys.iter().enumerate().all(|(l, &p)| l == p)
    }

    /// Blacklist `node`'s current machine and re-host the node on the next
    /// spare. Returns the spare's physical id, or `None` when the pool is
    /// exhausted or the node is already on a spare (spares are assumed
    /// healthy; a second flag would be workload imbalance, not hardware).
    pub fn rehost(&mut self, node: usize) -> Option<usize> {
        if self.rehosted(node) {
            return None;
        }
        let spare = self.pool.pop()?;
        self.phys[node] = spare;
        Some(spare)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_mapping() {
        let t = Topology::paper(48);
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(15), 0);
        assert_eq!(t.node_of(16), 1);
        assert!(t.same_node(17, 31));
        assert!(!t.same_node(15, 16));
    }

    #[test]
    fn partial_last_node() {
        let t = Topology::new(20, 16);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.ranks_on_node(1), 16..20);
        assert_eq!(t.ranks_on_node(0), 0..16);
    }

    #[test]
    fn single_rank_cluster() {
        let t = Topology::new(1, 16);
        assert_eq!(t.num_nodes(), 1);
        assert!(t.same_node(0, 0));
    }

    #[test]
    fn node_map_rehosts_onto_spares_in_order() {
        let mut m = NodeMap::with_spares(4, 2);
        assert!(m.is_identity());
        assert_eq!(m.spares_left(), 2);
        for n in 0..4 {
            assert_eq!(m.physical(n), n);
            assert!(!m.rehosted(n));
        }
        assert_eq!(m.rehost(2), Some(4));
        assert_eq!(m.physical(2), 4);
        assert!(m.rehosted(2) && !m.is_identity());
        // A node already on a spare is not re-hosted again.
        assert_eq!(m.rehost(2), None);
        assert_eq!(m.spares_left(), 1);
        assert_eq!(m.rehost(0), Some(5));
        // Pool exhausted.
        assert_eq!(m.rehost(1), None);
        assert_eq!(m.spares_left(), 0);
        // Untouched nodes still map to themselves.
        assert_eq!(m.physical(1), 1);
        assert_eq!(m.physical(3), 3);
    }
}
