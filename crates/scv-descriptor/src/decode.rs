//! Decoding a descriptor back into a whole graph.
//!
//! This materializes the graph `G` represented by a descriptor string per
//! the formal definition in §3.2: nodes in descriptor order, with an edge
//! `(i,j)` for every edge descriptor `(I,I')` whose IDs resolve to `i` and
//! `j` under the prefix ID-sets. Used to cross-check the streaming encoder,
//! observer, and checkers against whole-graph reference algorithms.

use crate::idtable::IdTable;
use crate::symbol::{Descriptor, Symbol};
use scv_graph::{ConstraintGraph, EdgeSet};
use scv_types::Op;
use std::fmt;

/// A decoded graph: node labels may be absent and edges may be unlabeled,
/// unlike [`ConstraintGraph`] which requires both.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct DecodedGraph {
    /// Node labels in descriptor order (`None` = unlabeled node).
    pub labels: Vec<Option<Op>>,
    /// Edges `(from, to, annotations)`; the annotation set may be empty.
    pub edges: Vec<(usize, usize, EdgeSet)>,
}

impl DecodedGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.labels.len()
    }

    /// Is the graph acyclic? (Kahn's algorithm.)
    pub fn is_acyclic(&self) -> bool {
        let n = self.labels.len();
        let mut indeg = vec![0u32; n];
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for &(u, v, _) in &self.edges {
            adj[u].push(v as u32);
            indeg[v] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = stack.pop() {
            seen += 1;
            for &v in &adj[u] {
                let v = v as usize;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        seen == n
    }

    /// Convert to a [`ConstraintGraph`]; requires every node labeled and
    /// every edge to carry at least one annotation.
    pub fn to_constraint_graph(&self) -> Result<ConstraintGraph, DecodeError> {
        let mut labels = Vec::with_capacity(self.labels.len());
        for (i, l) in self.labels.iter().enumerate() {
            labels.push(l.ok_or(DecodeError::UnlabeledNode(i))?);
        }
        let mut g = ConstraintGraph::with_nodes(labels);
        for &(u, v, a) in &self.edges {
            if a.is_empty() {
                return Err(DecodeError::UnlabeledEdge(u, v));
            }
            g.add_edge(u, v, a);
        }
        Ok(g)
    }
}

/// Statistics gathered while decoding, for bandwidth experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DecodeStats {
    /// Maximum number of simultaneously active nodes observed.
    pub max_active: usize,
    /// Total number of symbols processed.
    pub symbols: usize,
}

/// Errors raised while decoding a descriptor.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// An edge descriptor mentioned an ID not currently held by any node.
    DanglingEdge { position: usize },
    /// An ID outside `1..=k+1`.
    IdOutOfRange { position: usize },
    /// [`DecodedGraph::to_constraint_graph`]: node without a label.
    UnlabeledNode(usize),
    /// [`DecodedGraph::to_constraint_graph`]: edge without annotations.
    UnlabeledEdge(usize, usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::DanglingEdge { position } => {
                write!(
                    f,
                    "edge descriptor at symbol {position} references an unassigned ID"
                )
            }
            DecodeError::IdOutOfRange { position } => {
                write!(f, "symbol {position} uses an ID outside 1..=k+1")
            }
            DecodeError::UnlabeledNode(i) => write!(f, "node {} has no label", i + 1),
            DecodeError::UnlabeledEdge(u, v) => {
                write!(f, "edge ({},{}) has no annotations", u + 1, v + 1)
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Decode a descriptor into the graph it represents, together with
/// decoding statistics.
pub fn decode(d: &Descriptor) -> Result<(DecodedGraph, DecodeStats), DecodeError> {
    let _t = scv_telemetry::timer(scv_telemetry::Phase::DescriptorDecode);
    let mut table = IdTable::new(d.k);
    let mut g = DecodedGraph::default();
    let mut stats = DecodeStats::default();
    let in_range = |id: u32| id >= 1 && id <= d.k + 1;
    for (pos, sym) in d.symbols.iter().enumerate() {
        stats.symbols += 1;
        if !in_range(sym.min_id()) || !in_range(sym.max_id()) {
            return Err(DecodeError::IdOutOfRange { position: pos });
        }
        match *sym {
            Symbol::Node { id, label } => {
                table.define_node(id);
                g.labels.push(label);
            }
            Symbol::AddId { of, add } => {
                table.add_id(of, add);
            }
            Symbol::Edge { from, to, label } => {
                let (Some(u), Some(v)) = (table.lookup(from), table.lookup(to)) else {
                    return Err(DecodeError::DanglingEdge { position: pos });
                };
                // Merge annotations with an existing parallel edge, as
                // ConstraintGraph does.
                let ann = label.unwrap_or(EdgeSet::EMPTY);
                if let Some(e) = g.edges.iter_mut().find(|(a, b, _)| (*a, *b) == (u, v)) {
                    e.2 |= ann;
                } else {
                    g.edges.push((u, v, ann));
                }
            }
        }
        stats.max_active = stats.max_active.max(table.active_count());
    }
    Ok((g, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use scv_types::{BlockId, ProcId, Value};

    fn st(p: u8, b: u8, v: u8) -> Op {
        Op::store(ProcId(p), BlockId(b), Value(v))
    }
    fn ld(p: u8, b: u8, v: u8) -> Op {
        Op::load(ProcId(p), BlockId(b), Value(v))
    }

    /// The paper's 3-bandwidth descriptor for Figure 3 (§3.2).
    fn figure3_descriptor() -> Descriptor {
        let mut d = Descriptor::new(3);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, ld(2, 1, 1)),
            Symbol::edge(1, 2, EdgeSet::INH),
            Symbol::node(3, st(1, 1, 2)),
            Symbol::edge(1, 3, EdgeSet::PO_STO),
            Symbol::node(4, ld(2, 1, 1)),
            Symbol::edge(1, 4, EdgeSet::INH),
            Symbol::edge(2, 4, EdgeSet::PO),
            Symbol::edge(4, 3, EdgeSet::FORCED),
            Symbol::node(1, ld(2, 1, 2)), // ID 1 recycled for node 5
            Symbol::edge(3, 1, EdgeSet::INH),
            Symbol::edge(4, 1, EdgeSet::PO),
        ];
        d
    }

    #[test]
    fn figure3_descriptor_decodes_to_figure3_graph() {
        let d = figure3_descriptor();
        let (g, stats) = decode(&d).unwrap();
        assert_eq!(g.node_count(), 5);
        let cg = g.to_constraint_graph().unwrap();
        assert_eq!(cg.edge(0, 1), Some(EdgeSet::INH));
        assert_eq!(cg.edge(0, 2), Some(EdgeSet::PO_STO));
        assert_eq!(cg.edge(0, 3), Some(EdgeSet::INH));
        assert_eq!(cg.edge(1, 3), Some(EdgeSet::PO));
        assert_eq!(cg.edge(3, 2), Some(EdgeSet::FORCED));
        assert_eq!(cg.edge(2, 4), Some(EdgeSet::INH));
        assert_eq!(cg.edge(3, 4), Some(EdgeSet::PO));
        assert_eq!(cg.edge_count(), 7);
        assert!(cg.is_acyclic());
        // At most 4 = k+1 nodes were ever active.
        assert!(stats.max_active <= 4);
    }

    #[test]
    fn figure3_descriptor_renders_like_paper() {
        let d = figure3_descriptor();
        assert_eq!(
            d.to_string(),
            "1, ST(P1,B1,1), 2, LD(P2,B1,1), (1,2), inh, 3, ST(P1,B1,2), (1,3), po-STo, \
             4, LD(P2,B1,1), (1,4), inh, (2,4), po, (4,3), forced, \
             1, LD(P2,B1,2), (3,1), inh, (4,1), po"
        );
    }

    #[test]
    fn add_id_routes_edges_to_aliased_node() {
        // Node 0 gains alias 2; an edge (2,3) then targets node 0's alias.
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::Node { id: 1, label: None },
            Symbol::AddId { of: 1, add: 2 },
            Symbol::Node { id: 3, label: None },
            Symbol::Edge {
                from: 3,
                to: 2,
                label: None,
            },
        ];
        let (g, _) = decode(&d).unwrap();
        assert_eq!(g.edges, vec![(1, 0, EdgeSet::EMPTY)]);
    }

    #[test]
    fn dangling_edge_detected() {
        let mut d = Descriptor::new(2);
        d.symbols = vec![
            Symbol::Node { id: 1, label: None },
            Symbol::Edge {
                from: 1,
                to: 2,
                label: None,
            },
        ];
        assert_eq!(decode(&d), Err(DecodeError::DanglingEdge { position: 1 }));
    }

    #[test]
    fn id_out_of_range_detected() {
        let mut d = Descriptor::new(1);
        d.symbols = vec![Symbol::Node { id: 3, label: None }];
        assert_eq!(decode(&d), Err(DecodeError::IdOutOfRange { position: 0 }));
    }

    #[test]
    fn unlabeled_conversion_errors() {
        let mut d = Descriptor::new(1);
        d.symbols = vec![Symbol::Node { id: 1, label: None }];
        let (g, _) = decode(&d).unwrap();
        assert_eq!(g.to_constraint_graph(), Err(DecodeError::UnlabeledNode(0)));

        let mut d = Descriptor::new(1);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(1, 1, 2)),
            Symbol::Edge {
                from: 1,
                to: 2,
                label: None,
            },
        ];
        let (g, _) = decode(&d).unwrap();
        assert_eq!(
            g.to_constraint_graph(),
            Err(DecodeError::UnlabeledEdge(0, 1))
        );
    }

    #[test]
    fn parallel_edge_annotations_merge() {
        let mut d = Descriptor::new(1);
        d.symbols = vec![
            Symbol::node(1, st(1, 1, 1)),
            Symbol::node(2, st(1, 1, 2)),
            Symbol::edge(1, 2, EdgeSet::PO),
            Symbol::edge(1, 2, EdgeSet::STO),
        ];
        let (g, _) = decode(&d).unwrap();
        assert_eq!(g.edges, vec![(0, 1, EdgeSet::PO_STO)]);
    }

    #[test]
    fn cyclic_decoded_graph_detected() {
        let mut d = Descriptor::new(1);
        d.symbols = vec![
            Symbol::Node { id: 1, label: None },
            Symbol::Node { id: 2, label: None },
            Symbol::Edge {
                from: 1,
                to: 2,
                label: None,
            },
            Symbol::Edge {
                from: 2,
                to: 1,
                label: None,
            },
        ];
        let (g, _) = decode(&d).unwrap();
        assert!(!g.is_acyclic());
    }

    #[test]
    fn max_active_tracks_bandwidth() {
        let d = figure3_descriptor();
        let (_, stats) = decode(&d).unwrap();
        // Nodes 1..4 are simultaneously active before ID 1 is recycled.
        assert_eq!(stats.max_active, 4);
    }
}
