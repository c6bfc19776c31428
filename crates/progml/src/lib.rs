//! # gbm-progml
//!
//! ProGraML-style heterogeneous program graphs built from LIR modules
//! (Cummins et al., reimplemented for the GraphBinMatch reproduction).
//!
//! Following the paper (§III-B/C):
//!
//! * **node kinds** — `Instruction`, `Variable`, `Constant`;
//! * **edge kinds** — `Control` (instruction order / branch targets), `Data`
//!   (operand → instruction, instruction → result), `Call` (call site →
//!   callee entry, callee returns → call site);
//! * every node carries `text` (the opcode or type — what the original
//!   ProGraML uses) and `full_text` (the complete rendered instruction —
//!   what GraphBinMatch found works better, Table VIII);
//! * every edge carries a `position` (operand index / successor index),
//!   which the model embeds as an edge feature.
//!
//! ```
//! use gbm_frontends::{compile, SourceLang};
//! use gbm_progml::{build_graph, EdgeKind, NodeKind};
//!
//! let m = compile(SourceLang::MiniC, "t", "int main() { print(1); return 0; }").unwrap();
//! let g = build_graph(&m);
//! assert!(g.num_nodes() > 0);
//! assert!(g.edges.iter().any(|e| e.kind == EdgeKind::Control));
//! assert!(g.nodes.iter().any(|n| n.kind == NodeKind::Constant));
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;

use gbm_lir::{Function, InstKind, Module, Operand, Ty};

/// Heterogeneous node kind.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeKind {
    /// An LIR instruction.
    Instruction,
    /// An SSA value (parameter or instruction result).
    Variable,
    /// A literal constant or global address.
    Constant,
}

impl NodeKind {
    /// All kinds, in feature-index order.
    pub const ALL: [NodeKind; 3] = [
        NodeKind::Instruction,
        NodeKind::Variable,
        NodeKind::Constant,
    ];

    /// Dense index for embeddings.
    pub fn index(&self) -> usize {
        match self {
            NodeKind::Instruction => 0,
            NodeKind::Variable => 1,
            NodeKind::Constant => 2,
        }
    }
}

/// Heterogeneous edge relation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Control flow between instructions.
    Control,
    /// Dataflow: operand → instruction, instruction → result variable.
    Data,
    /// Interprocedural: call site ⇄ callee.
    Call,
}

impl EdgeKind {
    /// All relations, in model order.
    pub const ALL: [EdgeKind; 3] = [EdgeKind::Control, EdgeKind::Data, EdgeKind::Call];

    /// Dense index for the hetero-convolution.
    pub fn index(&self) -> usize {
        match self {
            EdgeKind::Control => 0,
            EdgeKind::Data => 1,
            EdgeKind::Call => 2,
        }
    }
}

/// Which node attribute feeds the tokenizer (the Table VIII ablation).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeTextMode {
    /// Opcode / type name only (original ProGraML).
    Text,
    /// Complete rendered instruction (GraphBinMatch's choice).
    FullText,
}

/// A graph node.
#[derive(Clone, Debug)]
pub struct Node {
    /// Node kind.
    pub kind: NodeKind,
    /// Short attribute: opcode for instructions, type for values.
    pub text: String,
    /// Full attribute: rendered instruction / typed value text.
    pub full_text: String,
}

impl Node {
    /// The attribute string under the given mode.
    pub fn text_for(&self, mode: NodeTextMode) -> &str {
        match mode {
            NodeTextMode::Text => &self.text,
            NodeTextMode::FullText => &self.full_text,
        }
    }
}

/// A directed, typed, positioned edge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// Relation.
    pub kind: EdgeKind,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Operand / successor position.
    pub position: u32,
}

/// A whole-module program graph.
#[derive(Clone, Debug, Default)]
pub struct ProgramGraph {
    /// Nodes, densely indexed.
    pub nodes: Vec<Node>,
    /// Edges in insertion order.
    pub edges: Vec<Edge>,
}

impl ProgramGraph {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Edge count per relation.
    pub fn edge_counts(&self) -> [usize; 3] {
        let mut c = [0usize; 3];
        for e in &self.edges {
            c[e.kind.index()] += 1;
        }
        c
    }

    /// `(sources, destinations, positions)` for one relation — the layout the
    /// GNN's gather/scatter kernels consume.
    pub fn relation(&self, kind: EdgeKind) -> (Vec<u32>, Vec<u32>, Vec<u32>) {
        let mut src = Vec::new();
        let mut dst = Vec::new();
        let mut pos = Vec::new();
        for e in &self.edges {
            if e.kind == kind {
                src.push(e.src);
                dst.push(e.dst);
                pos.push(e.position);
            }
        }
        (src, dst, pos)
    }

    /// Structural sanity: all endpoints in range, instruction nodes exist.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.nodes.len() as u32;
        for (i, e) in self.edges.iter().enumerate() {
            if e.src >= n || e.dst >= n {
                return Err(format!(
                    "edge {i} out of range: {} -> {} (n={n})",
                    e.src, e.dst
                ));
            }
        }
        Ok(())
    }
}

/// Builds the heterogeneous program graph for a module.
pub fn build_graph(m: &Module) -> ProgramGraph {
    let mut g = ProgramGraph::default();
    // constants deduplicated module-wide by rendered text
    let mut const_nodes: HashMap<String, u32> = HashMap::new();
    // call wiring: function name -> entry instruction node; ret nodes per fn
    let mut entry_of: HashMap<&str, u32> = HashMap::new();
    let mut rets_of: HashMap<&str, Vec<u32>> = HashMap::new();
    let mut call_sites: Vec<(u32, String)> = Vec::new();

    for f in &m.functions {
        if f.is_declaration() {
            continue;
        }
        build_function(
            m,
            f,
            &mut g,
            &mut const_nodes,
            &mut entry_of,
            &mut rets_of,
            &mut call_sites,
        );
    }

    // interprocedural call edges
    for (site, callee) in call_sites {
        if let Some(&entry) = entry_of.get(callee.as_str()) {
            g.edges.push(Edge {
                kind: EdgeKind::Call,
                src: site,
                dst: entry,
                position: 0,
            });
            for &ret in rets_of.get(callee.as_str()).into_iter().flatten() {
                g.edges.push(Edge {
                    kind: EdgeKind::Call,
                    src: ret,
                    dst: site,
                    position: 0,
                });
            }
        }
    }
    debug_assert!(g.validate().is_ok());
    g
}

#[allow(clippy::too_many_arguments)]
fn build_function<'m>(
    m: &'m Module,
    f: &'m Function,
    g: &mut ProgramGraph,
    const_nodes: &mut HashMap<String, u32>,
    entry_of: &mut HashMap<&'m str, u32>,
    rets_of: &mut HashMap<&'m str, Vec<u32>>,
    call_sites: &mut Vec<(u32, String)>,
) {
    let types = f.value_types();

    // variable nodes for params and instruction results
    let mut var_node: HashMap<u32, u32> = HashMap::new();
    let mut var_for = |g: &mut ProgramGraph, v: u32| -> u32 {
        *var_node.entry(v).or_insert_with(|| {
            let ty = types.get(v as usize).cloned().flatten().unwrap_or(Ty::I64);
            let id = g.nodes.len() as u32;
            g.nodes.push(Node {
                kind: NodeKind::Variable,
                text: ty.to_string(),
                full_text: format!("{ty} %{v}"),
            });
            id
        })
    };

    let mut const_for = |g: &mut ProgramGraph, op: &Operand| -> u32 {
        let (text, full) = match op {
            Operand::ConstInt { value, ty } => (ty.to_string(), format!("{ty} {value}")),
            Operand::ConstF64(x) => ("double".to_string(), format!("double {x}")),
            Operand::Global(name) => {
                let ty = m
                    .globals
                    .iter()
                    .find(|gl| &gl.name == name)
                    .map(|gl| gl.ty.clone().ptr().to_string())
                    .unwrap_or_else(|| "i8*".to_string());
                (ty.clone(), format!("{ty} @{name}"))
            }
            Operand::Undef(ty) => (ty.to_string(), format!("{ty} undef")),
            Operand::Value(_) => unreachable!("values are variable nodes"),
        };
        *const_nodes.entry(full.clone()).or_insert_with(|| {
            let id = g.nodes.len() as u32;
            g.nodes.push(Node {
                kind: NodeKind::Constant,
                text,
                full_text: full,
            });
            id
        })
    };

    // instruction nodes, per block
    let mut inst_node: HashMap<(u32, usize), u32> = HashMap::new();
    for block in &f.blocks {
        for (i, inst) in block.insts.iter().enumerate() {
            let id = g.nodes.len() as u32;
            g.nodes.push(Node {
                kind: NodeKind::Instruction,
                text: inst.kind.opcode().to_string(),
                full_text: gbm_lir::print_inst(m, f, &types, inst),
            });
            inst_node.insert((block.id.0, i), id);
        }
    }
    if let Some(&entry) = inst_node.get(&(0, 0)) {
        entry_of.insert(f.name.as_str(), entry);
    }

    for block in &f.blocks {
        for (i, inst) in block.insts.iter().enumerate() {
            let me = inst_node[&(block.id.0, i)];
            // data edges: operands in
            for (pos, op) in inst.kind.operands().into_iter().enumerate() {
                let src = match op {
                    Operand::Value(v) => var_for(g, v.0),
                    other => const_for(g, other),
                };
                g.edges.push(Edge {
                    kind: EdgeKind::Data,
                    src,
                    dst: me,
                    position: pos as u32,
                });
            }
            // data edge: result out
            if let Some(r) = inst.result {
                let dst = var_for(g, r.0);
                g.edges.push(Edge {
                    kind: EdgeKind::Data,
                    src: me,
                    dst,
                    position: 0,
                });
            }
            // control edges
            match &inst.kind {
                InstKind::Br { target } => {
                    let dst = inst_node[&(target.0, 0)];
                    g.edges.push(Edge {
                        kind: EdgeKind::Control,
                        src: me,
                        dst,
                        position: 0,
                    });
                }
                InstKind::CondBr {
                    then_bb, else_bb, ..
                } => {
                    let t = inst_node[&(then_bb.0, 0)];
                    g.edges.push(Edge {
                        kind: EdgeKind::Control,
                        src: me,
                        dst: t,
                        position: 0,
                    });
                    let e = inst_node[&(else_bb.0, 0)];
                    g.edges.push(Edge {
                        kind: EdgeKind::Control,
                        src: me,
                        dst: e,
                        position: 1,
                    });
                }
                InstKind::Ret { .. } => {
                    rets_of.entry(f.name.as_str()).or_default().push(me);
                }
                InstKind::Call { callee, .. } => {
                    call_sites.push((me, callee.clone()));
                }
                _ => {}
            }
            // fallthrough control edge
            if i + 1 < block.insts.len() {
                let next = inst_node[&(block.id.0, i + 1)];
                g.edges.push(Edge {
                    kind: EdgeKind::Control,
                    src: me,
                    dst: next,
                    position: 0,
                });
            }
        }
    }
}

/// Convenience: per-graph statistics used by dataset reports (Table VII).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GraphStats {
    /// Node count.
    pub nodes: usize,
    /// Edge count.
    pub edges: usize,
    /// Control edges.
    pub control: usize,
    /// Data edges.
    pub data: usize,
    /// Call edges.
    pub call: usize,
}

impl GraphStats {
    /// Computes stats for a graph.
    pub fn of(g: &ProgramGraph) -> GraphStats {
        let [control, data, call] = g.edge_counts();
        GraphStats {
            nodes: g.num_nodes(),
            edges: g.num_edges(),
            control,
            data,
            call,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gbm_frontends::{compile, SourceLang};

    fn c_graph(src: &str) -> ProgramGraph {
        let m = compile(SourceLang::MiniC, "t", src).unwrap();
        build_graph(&m)
    }

    #[test]
    fn nodes_of_all_kinds_appear() {
        let g = c_graph("int main() { int x = 2 + 3; print(x); return x; }");
        g.validate().unwrap();
        let kinds: Vec<NodeKind> = g.nodes.iter().map(|n| n.kind).collect();
        assert!(kinds.contains(&NodeKind::Instruction));
        assert!(kinds.contains(&NodeKind::Variable));
        assert!(kinds.contains(&NodeKind::Constant));
    }

    #[test]
    fn data_edges_carry_operand_positions() {
        let g = c_graph("int f(int a, int b) { return a - b; }");
        // find the sub instruction and its two incoming data edges
        let sub = g
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Instruction && n.text == "sub")
            .expect("sub node") as u32;
        let mut positions: Vec<u32> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Data && e.dst == sub)
            .map(|e| e.position)
            .collect();
        positions.sort();
        assert_eq!(positions, vec![0, 1]);
    }

    #[test]
    fn control_edges_follow_branches() {
        let g = c_graph("int f(int a) { if (a > 0) { return 1; } return 0; }");
        let br = g
            .nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.kind == NodeKind::Instruction && n.full_text.starts_with("br i1"))
            .expect("condbr")
            .0 as u32;
        let succ: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Control && e.src == br)
            .collect();
        assert_eq!(succ.len(), 2);
        assert_eq!(
            succ.iter().map(|e| e.position).max(),
            Some(1),
            "then=0, else=1"
        );
    }

    #[test]
    fn call_edges_connect_caller_and_callee() {
        let g = c_graph("int sq(int x) { return x * x; } int main() { return sq(4); }");
        let calls: Vec<&Edge> = g
            .edges
            .iter()
            .filter(|e| e.kind == EdgeKind::Call)
            .collect();
        // exactly one call-site→entry edge; one return edge per `ret` in the
        // callee (lowering leaves a dead default-return block, so ≥ 1)
        let entries = calls.iter().filter(|e| e.dst != calls[0].src).count();
        assert!(entries >= 1, "{calls:?}");
        let to_entry: Vec<&&Edge> = calls
            .iter()
            .filter(|e| g.nodes[e.dst as usize].full_text.contains("alloca"))
            .collect();
        assert_eq!(to_entry.len(), 1, "one call-in edge: {calls:?}");
        assert!(calls.len() >= 2, "call-in plus at least one return edge");
    }

    #[test]
    fn intrinsic_calls_have_no_call_edges_but_keep_text() {
        let g = c_graph("int main() { print(1); return 0; }");
        assert_eq!(g.edge_counts()[EdgeKind::Call.index()], 0);
        assert!(g
            .nodes
            .iter()
            .any(|n| n.full_text.contains("call void @rt_print_i64")));
    }

    #[test]
    fn full_text_vs_text_modes() {
        let g = c_graph("int f(int a) { return a + 1; }");
        let add = g
            .nodes
            .iter()
            .find(|n| n.kind == NodeKind::Instruction && n.text == "add")
            .unwrap();
        assert_eq!(add.text_for(NodeTextMode::Text), "add");
        assert!(add.text_for(NodeTextMode::FullText).contains("add i64"));
    }

    #[test]
    fn constants_are_deduplicated() {
        let g = c_graph("int f() { return 5 + 5; }");
        let fives = g
            .nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Constant && n.full_text == "i64 5")
            .count();
        assert_eq!(fives, 1);
    }

    #[test]
    fn java_graph_dwarfs_c_graph_for_same_task() {
        // Fig. 4: Java 330 nodes / 660 edges vs C++ 65 / 115 for one task
        let c = c_graph(
            "int main() { int s = 0; for (int i = 0; i < 10; i++) { s += i; } print(s); return 0; }",
        );
        let jm = compile(
            SourceLang::MiniJava,
            "j",
            "class Main { public static void main(String[] args) {
                int s = 0;
                for (int i = 0; i < 10; i++) { s += i; }
                System.out.println(s);
            } }",
        )
        .unwrap();
        let j = build_graph(&jm);
        assert!(
            j.num_nodes() as f64 > c.num_nodes() as f64 * 2.0,
            "java {} vs c {}",
            j.num_nodes(),
            c.num_nodes()
        );
        assert!(j.num_edges() > c.num_edges());
    }

    #[test]
    fn decompiled_graph_differs_from_source_graph() {
        let m = compile(
            SourceLang::MiniC,
            "t",
            "int main() { int s = 0; for (int i = 0; i < 5; i++) { s += i * i; } return s; }",
        )
        .unwrap();
        let src_g = build_graph(&m);
        let obj = gbm_binary::compile_to_binary(
            &m,
            gbm_binary::Compiler::Clang,
            gbm_binary::OptLevel::O0,
        )
        .unwrap();
        let dec = gbm_binary::decompile::decompile(&obj);
        let dec_g = build_graph(&dec);
        assert_ne!(src_g.num_nodes(), dec_g.num_nodes());
        dec_g.validate().unwrap();
    }

    #[test]
    fn relation_extraction_matches_edge_counts() {
        let g = c_graph("int f(int a) { if (a > 1) { return a; } return 1; }");
        let [c, d, k] = g.edge_counts();
        assert_eq!(g.relation(EdgeKind::Control).0.len(), c);
        assert_eq!(g.relation(EdgeKind::Data).0.len(), d);
        assert_eq!(g.relation(EdgeKind::Call).0.len(), k);
        assert_eq!(c + d + k, g.num_edges());
    }

    #[test]
    fn stats_shape() {
        let g = c_graph("int main() { return 0; }");
        let s = GraphStats::of(&g);
        assert_eq!(s.nodes, g.num_nodes());
        assert_eq!(s.control + s.data + s.call, s.edges);
    }
}
