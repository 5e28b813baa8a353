//! The Dispatcher (§3, Fig. 5): batch → per-node sub-batches.
//!
//! A timeless tuple updates up to four store keys, which may live on
//! different nodes, so it is routed to every node owning one of them.
//! Timing tuples update only the two data keys of the transient store
//! (no index vertices). Both stores use the same sharding, co-locating a
//! stream's timing and timeless data (§4.1).

use crate::adaptor::{payload_checksum, Batch};
use wukong_obs::BatchId;
use wukong_rdf::StreamTuple;
use wukong_store::ShardMap;

/// The slice of one batch destined for one node.
#[derive(Debug, Clone)]
pub struct SubBatch {
    /// Causal identity of the parent batch, carried through injection
    /// into the store install so traces can join on it.
    pub batch: BatchId,
    /// Destination node.
    pub node: u16,
    /// The tuples the node must apply (a tuple may appear in several
    /// nodes' sub-batches when its keys span nodes).
    pub tuples: Vec<StreamTuple>,
    /// [`payload_checksum`] of `tuples`, computed at dispatch and
    /// verified at store install — the message-site integrity check.
    pub checksum: u64,
}

impl SubBatch {
    /// Wire size for dispatch cost accounting.
    pub fn wire_bytes(&self) -> usize {
        self.tuples.len() * std::mem::size_of::<StreamTuple>()
    }

    /// Whether `tuples` still matches the dispatch-time checksum.
    pub fn verify(&self) -> bool {
        self.checksum == payload_checksum(&self.tuples)
    }
}

/// Splits `batch` into per-node sub-batches under `shards`.
///
/// Every node receives a (possibly empty) sub-batch so that empty batches
/// still advance every node's local VTS.
pub fn dispatch(batch: &Batch, shards: &ShardMap) -> Vec<SubBatch> {
    let id = batch.id();
    let nodes = shards.nodes() as usize;
    if nodes == 1 {
        // One node owns every key: the sub-batch *is* the batch, so it
        // is one copy and carries the batch's own checksum (same payload;
        // a batch corrupted after sealing still fails `SubBatch::verify`).
        return vec![SubBatch {
            batch: id,
            node: 0,
            tuples: batch.tuples.clone(),
            checksum: batch.checksum,
        }];
    }
    // A tuple reaches at most four nodes.
    let reserve = (batch.tuples.len() * 4)
        .div_ceil(nodes)
        .min(batch.tuples.len());
    let mut subs: Vec<SubBatch> = (0..shards.nodes())
        .map(|n| SubBatch {
            batch: id,
            node: n,
            tuples: Vec::with_capacity(reserve),
            checksum: 0,
        })
        .collect();
    for tup in &batch.tuples {
        // Both kinds route to every node owning one of the triple's keys:
        // timeless tuples update index vertices in the persistent store,
        // timing tuples maintain the per-slice predicate index in the
        // transient store (both live with the index key's owner).
        let (owners, len) = shards.owners_of_triple(&tup.triple);
        for &n in &owners[..len] {
            subs[n as usize].tuples.push(*tup);
        }
    }
    for sub in &mut subs {
        sub.checksum = payload_checksum(&sub.tuples);
    }
    subs
}

#[cfg(test)]
mod tests {
    use super::*;
    use wukong_rdf::{Pid, StreamId, Triple, Vid};

    fn batch(tuples: Vec<StreamTuple>) -> Batch {
        Batch::sealed(StreamId(0), 100, tuples, 0)
    }

    /// The general per-tuple routing `dispatch` used before its
    /// single-node shortcut and allocation-free owner lookup.
    fn dispatch_oracle(batch: &Batch, shards: &ShardMap) -> Vec<(u16, Vec<StreamTuple>)> {
        let mut subs: Vec<(u16, Vec<StreamTuple>)> =
            (0..shards.nodes()).map(|n| (n, Vec::new())).collect();
        for tup in &batch.tuples {
            for n in shards.nodes_of_triple(&tup.triple) {
                subs[n as usize].1.push(*tup);
            }
        }
        subs
    }

    #[test]
    fn dispatch_matches_general_routing_at_every_cluster_size() {
        let mut rng = proptest::TestRng::for_test("dispatch_routing");
        for nodes in 1..=8u16 {
            let shards = ShardMap::new(nodes);
            for _ in 0..8 {
                let tuples: Vec<StreamTuple> = (0..rng.usize_in(0, 300))
                    .map(|_| {
                        let t = Triple::new(
                            Vid(rng.below(40) + 1),
                            Pid(rng.below(6) + 1),
                            Vid(rng.below(40) + 100),
                        );
                        if rng.chance(1, 4) {
                            StreamTuple::timing(t, 90)
                        } else {
                            StreamTuple::timeless(t, 90)
                        }
                    })
                    .collect();
                let b = batch(tuples);
                let subs = dispatch(&b, &shards);
                let want = dispatch_oracle(&b, &shards);
                assert_eq!(subs.len(), want.len());
                for (sub, (node, tuples)) in subs.iter().zip(&want) {
                    assert_eq!(sub.node, *node);
                    assert_eq!(&sub.tuples, tuples, "{nodes} nodes, node {node}");
                    assert_eq!(sub.batch, b.id());
                    // Holds for the single node's reused batch checksum too.
                    assert_eq!(sub.checksum, payload_checksum(&sub.tuples));
                }
            }
        }
    }

    #[test]
    fn single_node_gets_everything_once() {
        let shards = ShardMap::new(1);
        let b = batch(vec![
            StreamTuple::timeless(Triple::new(Vid(1), Pid(2), Vid(3)), 50),
            StreamTuple::timing(Triple::new(Vid(4), Pid(5), Vid(6)), 60),
        ]);
        let subs = dispatch(&b, &shards);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].tuples.len(), 2);
    }

    #[test]
    fn every_node_receives_a_subbatch() {
        let shards = ShardMap::new(4);
        let subs = dispatch(&batch(vec![]), &shards);
        assert_eq!(subs.len(), 4);
        assert!(subs.iter().all(|s| s.tuples.is_empty()));
    }

    #[test]
    fn timeless_tuple_reaches_all_owning_nodes() {
        let shards = ShardMap::new(8);
        let t = Triple::new(Vid(11), Pid(2), Vid(37));
        let b = batch(vec![StreamTuple::timeless(t, 50)]);
        let subs = dispatch(&b, &shards);
        for owner in shards.nodes_of_triple(&t) {
            assert!(
                subs[owner as usize].tuples.iter().any(|x| x.triple == t),
                "node {owner} missing its tuple"
            );
        }
    }

    #[test]
    fn subbatch_checksums_verify_and_detect_flips() {
        let shards = ShardMap::new(4);
        let b = batch(vec![
            StreamTuple::timeless(Triple::new(Vid(1), Pid(2), Vid(3)), 50),
            StreamTuple::timing(Triple::new(Vid(4), Pid(5), Vid(6)), 60),
            StreamTuple::timeless(Triple::new(Vid(7), Pid(8), Vid(9)), 70),
        ]);
        assert!(b.verify());
        let mut subs = dispatch(&b, &shards);
        assert!(subs.iter().all(SubBatch::verify));
        let sub = subs.iter_mut().find(|s| !s.tuples.is_empty()).unwrap();
        sub.tuples[0].triple.o.0 ^= 1 << 17;
        assert!(!sub.verify(), "single-bit flip must break the checksum");
        sub.tuples[0].triple.o.0 ^= 1 << 17;
        assert!(sub.verify());
    }

    #[test]
    fn timing_tuple_reaches_all_owning_nodes() {
        let shards = ShardMap::new(8);
        let t = Triple::new(Vid(11), Pid(2), Vid(37));
        let b = batch(vec![StreamTuple::timing(t, 50)]);
        let subs = dispatch(&b, &shards);
        let holders: Vec<u16> = subs
            .iter()
            .filter(|s| !s.tuples.is_empty())
            .map(|s| s.node)
            .collect();
        assert_eq!(holders, shards.nodes_of_triple(&t));
    }
}
