//! Encoding a bandwidth-bounded graph as a descriptor (Lemma 3.2).
//!
//! Any *k*-node-bandwidth-bounded graph (with its natural node order) can
//! be written as a *k*-graph descriptor. The encoder walks the nodes in
//! order, keeps an ID for every node that still has edges to the future,
//! and recycles the ID of a node as soon as its last incident edge has been
//! listed — the constructive content of the paper's induction proof.

use crate::symbol::{Descriptor, IdNum, Symbol};
use scv_graph::ConstraintGraph;
use std::fmt;

/// Errors raised by the encoder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EncodeError {
    /// The graph's bandwidth exceeds `k`: no free ID was available when a
    /// node had to be introduced.
    BandwidthExceeded {
        /// The node (0-based) that could not be assigned an ID.
        node: usize,
        /// The bound that was requested.
        k: u32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::BandwidthExceeded { node, k } => {
                write!(
                    f,
                    "node {} needs an ID but the graph is not {k}-bandwidth bounded",
                    node + 1
                )
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Encode `g` as a *k*-graph descriptor. Fails with
/// [`EncodeError::BandwidthExceeded`] iff `g.bandwidth() > k`.
///
/// Every node gets exactly one ID (the single-ID form of the Lemma 3.2
/// proof); the multi-ID `add-ID` mechanism is used by the observer, not by
/// this whole-graph encoder. Edge emission order matches the paper's
/// examples: when node `v` is introduced, all edges between `v` and earlier
/// nodes are listed, ordered by the earlier endpoint (in-edge before
/// out-edge on a tie).
pub fn encode(g: &ConstraintGraph, k: u32) -> Result<Descriptor, EncodeError> {
    let _t = scv_telemetry::timer(scv_telemetry::Phase::DescriptorEncode);
    let n = g.node_count();
    let mut d = Descriptor::new(k);
    // last_touch[u] = largest node index adjacent to u (or u if none):
    // after processing node last_touch[u], u's ID can be recycled.
    let mut last_touch: Vec<usize> = (0..n).collect();
    for (u, v, _) in g.edges() {
        let m = u.max(v);
        last_touch[u] = last_touch[u].max(m);
        last_touch[v] = last_touch[v].max(m);
    }
    // Free-ID pool, smallest first (so examples match the paper).
    let mut free: Vec<IdNum> = (1..=k + 1).rev().collect();
    let mut id_of: Vec<Option<IdNum>> = vec![None; n];

    for v in 0..n {
        let Some(id) = free.pop() else {
            return Err(EncodeError::BandwidthExceeded { node: v, k });
        };
        id_of[v] = Some(id);
        d.symbols.push(Symbol::Node {
            id,
            label: Some(g.label(v)),
        });

        // A self-loop is listed immediately after the node itself.
        if let Some(ann) = g.edge(v, v) {
            d.symbols.push(Symbol::Edge {
                from: id,
                to: id,
                label: Some(ann),
            });
        }

        // Edges between v and earlier nodes, ordered by earlier endpoint.
        let mut incident: Vec<(usize, bool)> = Vec::new(); // (other, is_in_edge)
        for &u in g.in_sources(v) {
            let u = u as usize;
            if u < v {
                incident.push((u, true));
            }
        }
        for &(t, _) in g.out_edges(v) {
            let t = t as usize;
            if t < v {
                incident.push((t, false));
            }
        }
        incident.sort_by_key(|&(u, is_in)| (u, !is_in));
        for (u, is_in) in incident {
            let uid = id_of[u].expect("earlier node with a future edge keeps its ID");
            let (from, to, ann) = if is_in {
                (uid, id, g.edge(u, v).expect("in-edge exists"))
            } else {
                (id, uid, g.edge(v, u).expect("out-edge exists"))
            };
            d.symbols.push(Symbol::Edge {
                from,
                to,
                label: Some(ann),
            });
        }

        // Recycle IDs of nodes whose last incident edge has now been listed
        // (including v itself if it has no future edges). Self-loops are
        // covered: a self-loop contributes last_touch[v] = v.
        for u in (0..=v).rev() {
            if last_touch[u] == v {
                if let Some(uid) = id_of[u].take() {
                    free.push(uid);
                }
            }
        }
        // Prefer to hand out the smallest free ID next.
        free.sort_unstable_by(|a, b| b.cmp(a));
    }
    debug_assert!(d.ids_in_range());
    Ok(d)
}

/// The "naive approach" of §3.2: number all nodes consecutively and never
/// recycle IDs — an `(n-1)`-graph descriptor whose IDs are the 1-based node
/// numbers.
pub fn naive_descriptor(g: &ConstraintGraph) -> Descriptor {
    let n = g.node_count();
    let mut d = Descriptor::new((n.max(1) - 1) as u32);
    for v in 0..n {
        d.symbols.push(Symbol::Node {
            id: (v + 1) as IdNum,
            label: Some(g.label(v)),
        });
        if let Some(ann) = g.edge(v, v) {
            d.symbols
                .push(Symbol::edge((v + 1) as IdNum, (v + 1) as IdNum, ann));
        }
        let mut incident: Vec<(usize, bool)> = Vec::new();
        for &u in g.in_sources(v) {
            let u = u as usize;
            if u < v {
                incident.push((u, true));
            }
        }
        for &(t, _) in g.out_edges(v) {
            let t = t as usize;
            if t < v {
                incident.push((t, false));
            }
        }
        incident.sort_by_key(|&(u, is_in)| (u, !is_in));
        for (u, is_in) in incident {
            let (from, to, ann) = if is_in {
                (u + 1, v + 1, g.edge(u, v).expect("in-edge exists"))
            } else {
                (v + 1, u + 1, g.edge(v, u).expect("out-edge exists"))
            };
            d.symbols
                .push(Symbol::edge(from as IdNum, to as IdNum, ann));
        }
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use scv_graph::EdgeSet;
    use scv_types::{BlockId, Op, ProcId, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }
    fn ld(p: u8, b: u8, v: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value(v))
    }

    fn figure3_graph() -> ConstraintGraph {
        let mut g = ConstraintGraph::with_nodes([
            st(1, 1, 1),
            ld(2, 1, 1),
            st(1, 1, 2),
            ld(2, 1, 1),
            ld(2, 1, 2),
        ]);
        g.add_edge(0, 1, EdgeSet::INH);
        g.add_edge(0, 2, EdgeSet::PO_STO);
        g.add_edge(0, 3, EdgeSet::INH);
        g.add_edge(1, 3, EdgeSet::PO);
        g.add_edge(3, 2, EdgeSet::FORCED);
        g.add_edge(2, 4, EdgeSet::INH);
        g.add_edge(3, 4, EdgeSet::PO);
        g
    }

    #[test]
    fn naive_descriptor_matches_paper() {
        let g = figure3_graph();
        let d = naive_descriptor(&g);
        assert_eq!(
            d.to_string(),
            "1, ST(P1,B1,1), 2, LD(P2,B1,1), (1,2), inh, 3, ST(P1,B1,2), (1,3), po-STo, \
             4, LD(P2,B1,1), (1,4), inh, (2,4), po, (4,3), forced, \
             5, LD(P2,B1,2), (3,5), inh, (4,5), po"
        );
    }

    #[test]
    fn bandwidth3_descriptor_matches_paper() {
        let g = figure3_graph();
        let d = encode(&g, 3).unwrap();
        assert_eq!(
            d.to_string(),
            "1, ST(P1,B1,1), 2, LD(P2,B1,1), (1,2), inh, 3, ST(P1,B1,2), (1,3), po-STo, \
             4, LD(P2,B1,1), (1,4), inh, (2,4), po, (4,3), forced, \
             1, LD(P2,B1,2), (3,1), inh, (4,1), po"
        );
    }

    #[test]
    fn encode_below_bandwidth_fails() {
        let g = figure3_graph();
        assert_eq!(g.bandwidth(), 3);
        assert!(matches!(
            encode(&g, 2),
            Err(EncodeError::BandwidthExceeded { k: 2, .. })
        ));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let g = figure3_graph();
        for k in 3..=6 {
            let d = encode(&g, k).unwrap();
            let (dg, stats) = decode(&d).unwrap();
            let g2 = dg.to_constraint_graph().unwrap();
            assert_eq!(g2, g, "roundtrip at k={k}");
            assert!(stats.max_active <= (k + 1) as usize);
        }
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = ConstraintGraph::new();
        let d = encode(&g, 0).unwrap();
        assert!(d.symbols.is_empty());
        let (dg, _) = decode(&d).unwrap();
        assert_eq!(dg.node_count(), 0);
    }

    #[test]
    fn self_loop_roundtrip() {
        let mut g = ConstraintGraph::with_nodes([st(1, 1, 1)]);
        g.add_edge(0, 0, EdgeSet::FORCED);
        let d = encode(&g, 1).unwrap();
        let (dg, _) = decode(&d).unwrap();
        assert_eq!(dg.edges, vec![(0, 0, EdgeSet::FORCED)]);
        assert!(!dg.is_acyclic());
    }

    #[test]
    fn long_chain_needs_only_k1() {
        let mut g = ConstraintGraph::with_nodes((0..200).map(|_| st(1, 1, 1)));
        for i in 0..199 {
            g.add_edge(i, i + 1, EdgeSet::PO);
        }
        let d = encode(&g, 1).unwrap();
        let (dg, stats) = decode(&d).unwrap();
        assert_eq!(dg.node_count(), 200);
        assert_eq!(dg.edges.len(), 199);
        assert!(dg.is_acyclic());
        assert!(stats.max_active <= 2);
    }
}
