//! Vertex → node sharding.
//!
//! Wukong+S "scales by partitioning the initially stored data into a large
//! number of shards across multiple nodes and dispatching streams to
//! different nodes" (§3). Both the persistent and transient stores use the
//! *same* sharding, which co-locates a stream's timeless and timing data
//! (§4.1). A key lives on the node that owns its vertex; index-vertex keys
//! are hashed by predicate so the index load spreads across the cluster.

use wukong_rdf::{Dir, Key, Triple, Vid};

/// Deterministic assignment of vertices (and keys) to cluster nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    nodes: u16,
}

impl ShardMap {
    /// Creates a shard map over `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(nodes: u16) -> Self {
        assert!(nodes > 0, "a shard map needs at least one node");
        ShardMap { nodes }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> u16 {
        self.nodes
    }

    /// The node owning vertex `v`.
    ///
    /// Fibonacci-hash the ID so consecutive generator IDs spread evenly.
    pub fn node_of_vertex(&self, v: Vid) -> u16 {
        (fib_hash(v.0) % self.nodes as u64) as u16
    }

    /// The node owning `key`.
    ///
    /// Normal keys follow their vertex; index-vertex keys are spread by
    /// predicate and direction so that no single node owns every index.
    pub fn node_of_key(&self, key: Key) -> u16 {
        if key.is_index() {
            (fib_hash(key.raw()) % self.nodes as u64) as u16
        } else {
            self.node_of_vertex(key.vid())
        }
    }

    /// A predicate testing whether `node` owns a key — the per-node
    /// ownership filter each parallel ingest task applies to its
    /// sub-batch. Two different nodes' filters are disjoint (a key has
    /// exactly one owner), which is what makes concurrent per-node
    /// application race-free by construction.
    pub fn owner_filter(&self, node: u16) -> impl Fn(Key) -> bool + '_ {
        move |k| self.node_of_key(k) == node
    }

    /// The nodes a triple's four potential key updates land on, sorted
    /// and deduplicated, without allocating: the first `len` entries of
    /// the returned array (1 ≤ `len` ≤ 4).
    ///
    /// Injection must route one triple to every node that owns one of its
    /// keys; dispatch calls this once per tuple.
    pub fn owners_of_triple(&self, t: &Triple) -> ([u16; 4], usize) {
        if self.nodes == 1 {
            return ([0; 4], 1);
        }
        let mut nodes = [
            self.node_of_key(t.out_key()),
            self.node_of_key(t.in_key()),
            self.node_of_key(Key::index(t.p, Dir::Out)),
            self.node_of_key(Key::index(t.p, Dir::In)),
        ];
        nodes.sort_unstable();
        let mut len = 1;
        for i in 1..4 {
            if nodes[i] != nodes[len - 1] {
                nodes[len] = nodes[i];
                len += 1;
            }
        }
        (nodes, len)
    }

    /// [`ShardMap::owners_of_triple`] as a `Vec`.
    pub fn nodes_of_triple(&self, t: &Triple) -> Vec<u16> {
        let (nodes, len) = self.owners_of_triple(t);
        nodes[..len].to_vec()
    }
}

fn fib_hash(x: u64) -> u64 {
    x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::Pid;

    #[test]
    fn single_node_owns_everything() {
        let m = ShardMap::new(1);
        assert_eq!(m.node_of_vertex(Vid(12345)), 0);
        assert_eq!(m.node_of_key(Key::index(Pid(3), Dir::In)), 0);
    }

    #[test]
    fn assignment_is_deterministic_and_in_range() {
        let m = ShardMap::new(8);
        for i in 0..1000 {
            let n = m.node_of_vertex(Vid(i));
            assert!(n < 8);
            assert_eq!(n, m.node_of_vertex(Vid(i)));
        }
    }

    #[test]
    fn distribution_is_roughly_even() {
        let m = ShardMap::new(4);
        let mut counts = [0usize; 4];
        for i in 0..10_000 {
            counts[m.node_of_vertex(Vid(i)) as usize] += 1;
        }
        for &c in &counts {
            assert!(c > 1_500, "skewed shard: {counts:?}");
        }
    }

    #[test]
    fn normal_key_follows_vertex() {
        let m = ShardMap::new(8);
        let k = Key::new(Vid(42), Pid(3), Dir::Out);
        assert_eq!(m.node_of_key(k), m.node_of_vertex(Vid(42)));
    }

    #[test]
    fn triple_routing_covers_all_keys() {
        let m = ShardMap::new(8);
        let t = Triple::new(Vid(1), Pid(2), Vid(3));
        let nodes = m.nodes_of_triple(&t);
        assert!(nodes.contains(&m.node_of_key(t.out_key())));
        assert!(nodes.contains(&m.node_of_key(t.in_key())));
        assert!(nodes.contains(&m.node_of_key(Key::index(Pid(2), Dir::In))));
        assert!(nodes.len() <= 4);
    }

    /// The allocating implementation `owners_of_triple` replaced.
    fn nodes_of_triple_oracle(m: &ShardMap, t: &Triple) -> Vec<u16> {
        let mut nodes = vec![
            m.node_of_key(t.out_key()),
            m.node_of_key(t.in_key()),
            m.node_of_key(Key::index(t.p, Dir::Out)),
            m.node_of_key(Key::index(t.p, Dir::In)),
        ];
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }

    #[test]
    fn owners_of_triple_matches_the_allocating_oracle() {
        for nodes in 1..=9u16 {
            let m = ShardMap::new(nodes);
            for i in 0..2_000u64 {
                let t = Triple::new(Vid(i * 7 + 1), Pid(i % 11 + 1), Vid(i * 13 + 5));
                let want = nodes_of_triple_oracle(&m, &t);
                let (owners, len) = m.owners_of_triple(&t);
                assert_eq!(&owners[..len], want.as_slice(), "{nodes} nodes, {t:?}");
                assert_eq!(m.nodes_of_triple(&t), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_rejected() {
        let _ = ShardMap::new(0);
    }

    #[test]
    fn owner_filters_partition_the_key_space() {
        let m = ShardMap::new(4);
        let filters: Vec<_> = (0..4).map(|n| m.owner_filter(n)).collect();
        for i in 0..500 {
            for key in [
                Key::new(Vid(i), Pid(i % 7), Dir::Out),
                Key::index(Pid(i % 7), Dir::In),
            ] {
                let owners = filters.iter().filter(|f| f(key)).count();
                assert_eq!(owners, 1, "every key has exactly one owner");
            }
        }
    }
}
