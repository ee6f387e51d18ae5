//! Counterexample explanation support: cycle finding and annotated DOT
//! rendering over *raw* edge lists, as produced by decoding a descriptor
//! prefix.
//!
//! Rather than a fully-labeled [`crate::ConstraintGraph`], these
//! functions take the partial graphs that arise when explaining a
//! rejection: a descriptor prefix cut at the offending symbol can mention
//! nodes whose labels were recycled away and edges that carry no
//! annotation. Edge styles follow §3.1 of
//! the paper (program order solid, ST order bold, inheritance dashed,
//! forced dotted); the rejecting cycle is overlaid in red.

use crate::edge::EdgeSet;
use scv_types::Op;
use std::fmt::Write;

/// Find a directed cycle in a graph given as an edge list over nodes
/// `0..n`, in the same format as [`crate::ConstraintGraph::find_cycle`]:
/// the first node is repeated at the end (`[v, ..., v]`), or `None` if
/// the graph is acyclic. Parallel edges and self-loops are handled.
pub fn find_cycle_in(n: usize, edges: &[(usize, usize, EdgeSet)]) -> Option<Vec<usize>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &(u, v, _) in edges {
        adj[u].push(v as u32);
    }
    let mut color = vec![WHITE; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = GRAY;
        while let Some(&mut (u, ref mut cursor)) = stack.last_mut() {
            if *cursor < adj[u].len() {
                let v = adj[u][*cursor] as usize;
                *cursor += 1;
                match color[v] {
                    WHITE => {
                        color[v] = GRAY;
                        parent[v] = u;
                        stack.push((v, 0));
                    }
                    GRAY => {
                        // Back edge u -> v closes the cycle v ->* u -> v.
                        let mut path = Vec::new();
                        let mut cur = u;
                        while cur != v {
                            path.push(cur);
                            cur = parent[cur];
                        }
                        path.reverse();
                        let mut cycle = Vec::with_capacity(path.len() + 2);
                        cycle.push(v);
                        cycle.extend(path);
                        cycle.push(v);
                        return Some(cycle);
                    }
                    _ => {}
                }
            } else {
                color[u] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

fn edge_style(ann: EdgeSet) -> &'static str {
    if ann.contains(EdgeSet::STO) {
        "bold"
    } else if ann.contains(EdgeSet::PO) {
        "solid"
    } else if ann.contains(EdgeSet::INH) {
        "dashed"
    } else {
        "dotted"
    }
}

/// Render a partially-labeled constraint graph in Graphviz DOT syntax,
/// highlighting `cycle` (a [`find_cycle_in`]-format node sequence) in
/// red. Nodes are numbered 1-based as in the paper; unlabeled nodes
/// render as `?` (their label symbol lies outside the decoded window).
pub fn annotated_dot(
    labels: &[Option<Op>],
    edges: &[(usize, usize, EdgeSet)],
    cycle: Option<&[usize]>,
) -> String {
    let on_cycle = |u: usize, v: usize| -> bool {
        cycle.is_some_and(|c| c.windows(2).any(|w| w[0] == u && w[1] == v))
    };
    let cycle_nodes: Vec<usize> = cycle.map(|c| c.to_vec()).unwrap_or_default();
    let mut out = String::new();
    out.push_str("digraph constraint_graph {\n");
    out.push_str("  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n");
    for (v, op) in labels.iter().enumerate() {
        let (text, shape) = match op {
            Some(op) => (
                format!("{}: {}", v + 1, op),
                if op.is_store() { "box" } else { "ellipse" },
            ),
            None => (format!("{}: ?", v + 1), "box"),
        };
        let highlight = if cycle_nodes.contains(&v) {
            ", color=red, penwidth=2"
        } else {
            ""
        };
        writeln!(
            out,
            "  n{} [label=\"{text}\", shape={shape}{highlight}];",
            v + 1
        )
        .expect("write to string");
    }
    for &(u, v, ann) in edges {
        let label = if ann.is_empty() {
            String::new()
        } else {
            ann.to_string()
        };
        let highlight = if on_cycle(u, v) {
            ", color=red, penwidth=2"
        } else {
            ""
        };
        writeln!(
            out,
            "  n{} -> n{} [label=\"{label}\", style={}{highlight}];",
            u + 1,
            v + 1,
            edge_style(ann),
        )
        .expect("write to string");
    }
    out.push_str("}\n");
    out
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

    #[test]
    fn acyclic_edge_list_has_no_cycle() {
        let edges = vec![(0, 1, EdgeSet::PO), (1, 2, EdgeSet::PO)];
        assert_eq!(find_cycle_in(3, &edges), None);
    }

    #[test]
    fn cycle_found_with_first_node_repeated() {
        let edges = vec![
            (0, 1, EdgeSet::PO),
            (1, 2, EdgeSet::INH),
            (2, 0, EdgeSet::FORCED),
        ];
        let cycle = find_cycle_in(3, &edges).expect("cyclic");
        assert_eq!(cycle.first(), cycle.last());
        assert!(cycle.len() >= 3);
        for w in cycle.windows(2) {
            assert!(
                edges.iter().any(|&(u, v, _)| (u, v) == (w[0], w[1])),
                "cycle step {w:?} is not an edge"
            );
        }
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let edges = vec![(1, 1, EdgeSet::EMPTY)];
        assert_eq!(find_cycle_in(2, &edges), Some(vec![1, 1]));
    }

    #[test]
    fn dot_tolerates_unlabeled_nodes_and_empty_annotations() {
        let labels = vec![Some(st(1, 1, 1)), None];
        let edges = vec![(0, 1, EdgeSet::EMPTY)];
        let dot = annotated_dot(&labels, &edges, None);
        assert!(dot.contains("n1 [label=\"1: ST(P1,B1,1)\", shape=box]"));
        assert!(dot.contains("n2 [label=\"2: ?\", shape=box]"));
        assert!(dot.contains("n1 -> n2 [label=\"\", style=dotted]"));
        assert!(!dot.contains("color=red"));
    }

    #[test]
    fn cycle_edges_and_nodes_render_red() {
        let labels = vec![Some(st(1, 1, 1)), Some(ld(2, 1, 1)), Some(st(1, 1, 2))];
        let edges = vec![
            (0, 1, EdgeSet::PO),
            (1, 2, EdgeSet::INH),
            (2, 1, EdgeSet::FORCED),
        ];
        let cycle = find_cycle_in(3, &edges).expect("cyclic");
        let dot = annotated_dot(&labels, &edges, Some(&cycle));
        // The 1->2 edge is off-cycle; both cycle edges are red.
        assert!(dot.contains("n1 -> n2 [label=\"po\", style=solid];"));
        assert!(dot.contains("n2 -> n3 [label=\"inh\", style=dashed, color=red, penwidth=2];"));
        assert!(dot.contains("n3 -> n2 [label=\"forced\", style=dotted, color=red, penwidth=2];"));
        assert!(
            dot.contains("n2 [label=\"2: LD(P2,B1,1)\", shape=ellipse, color=red, penwidth=2];")
        );
    }
}
