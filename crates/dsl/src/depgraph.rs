//! Dependency graphs over one loop iteration (Fig. 3 of the paper).
//!
//! A [`DepGraph`] is built from a *normalized* statement list (usually the
//! body of the chunk loop). Its nodes are the data-parallel operations —
//! `let`-bound skeletons plus `write`/`scatter` sinks — and its edges are
//! the dataflow dependencies between them. Mutable-variable updates and
//! control flow are excluded, exactly as in the paper's Fig. 3 ("excluding
//! updating mutable variables and control-flow").
//!
//! Each node carries a cost, seeded from [`Expr::static_cost`] and
//! replaceable with measured per-operation profile data — the input the
//! §III-B greedy partitioner ([`crate::partition`]) ranks nodes by.

use std::collections::HashMap;

use crate::ast::{Expr, OpClass, Stmt};
use crate::printer::print_expr;

/// Index of a node in its graph.
pub type NodeId = usize;

/// One data-parallel operation in the graph.
#[derive(Debug, Clone)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Display label, e.g. `map (\x -> 2 * x)` or `write v`.
    pub label: String,
    /// Coarse class (drives partitioning heuristics).
    pub class: OpClass,
    /// The variable this node binds (sinks bind none).
    pub output: Option<String>,
    /// Variable names consumed (array-valued dataflow only).
    pub inputs: Vec<String>,
    /// Buffer the node reads from or writes to, when applicable.
    pub buffer: Option<String>,
    /// Cost estimate (static, or measured once profiling data exists).
    pub cost: f64,
    /// The expression (for `let` nodes) — the partitioner's consumer (the
    /// JIT) needs it to build fragments.
    pub expr: Option<Expr>,
    /// For `write`/`scatter` sinks: the position/index expression the VM
    /// evaluates when performing the buffer write.
    pub write_pos: Option<Expr>,
}

/// The dependency graph of one iteration.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    nodes: Vec<Node>,
    /// For each node, ids of nodes producing its inputs.
    producers: Vec<Vec<NodeId>>,
    /// For each node, ids of nodes consuming its output.
    consumers: Vec<Vec<NodeId>>,
}

impl DepGraph {
    /// Build the graph from (normalized) statements.
    ///
    /// `let` bindings whose expression is a skeleton become nodes; `write`
    /// and `scatter` statements become sink nodes; scalar assignments,
    /// `if`/`loop`/`break` are skipped (they stay with the interpreter).
    /// Nested `let` bodies are walked recursively.
    pub fn from_stmts(stmts: &[Stmt]) -> DepGraph {
        let mut g = DepGraph::default();
        g.walk(stmts);
        g.link();
        g
    }

    fn walk(&mut self, stmts: &[Stmt]) {
        for s in stmts {
            match s {
                Stmt::Let { name, expr, body } => {
                    if expr.op_class() != OpClass::Scalar {
                        self.push_node(
                            expr_label(expr),
                            expr.op_class(),
                            Some(name.clone()),
                            array_inputs(expr),
                            buffer_of(expr),
                            expr.static_cost(),
                            Some(expr.clone()),
                            None,
                        );
                    }
                    self.walk(body);
                }
                Stmt::Write { target, value, pos } => {
                    self.push_node(
                        format!("write {target}"),
                        OpClass::Write,
                        None,
                        expr_vars(value),
                        Some(target.clone()),
                        1.0,
                        None,
                        Some(pos.clone()),
                    );
                }
                Stmt::Scatter {
                    target,
                    indices,
                    value,
                    ..
                } => {
                    let mut inputs = expr_vars(indices);
                    inputs.extend(expr_vars(value));
                    self.push_node(
                        format!("scatter {target}"),
                        OpClass::Random,
                        None,
                        inputs,
                        Some(target.clone()),
                        4.0,
                        None,
                        Some(indices.clone()),
                    );
                }
                Stmt::Loop(body) => self.walk(body),
                Stmt::If { then, els, .. } => {
                    self.walk(then);
                    self.walk(els);
                }
                Stmt::Assign { .. } | Stmt::DeclareMut { .. } | Stmt::Break | Stmt::ExprStmt(_) => {
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_node(
        &mut self,
        label: String,
        class: OpClass,
        output: Option<String>,
        inputs: Vec<String>,
        buffer: Option<String>,
        cost: f64,
        expr: Option<Expr>,
        write_pos: Option<Expr>,
    ) {
        let id = self.nodes.len();
        self.nodes.push(Node {
            id,
            label,
            class,
            output,
            inputs,
            buffer,
            cost,
            expr,
            write_pos,
        });
    }

    fn link(&mut self) {
        let by_output: HashMap<&str, NodeId> = self
            .nodes
            .iter()
            .filter_map(|n| n.output.as_deref().map(|o| (o, n.id)))
            .collect();
        self.producers = vec![Vec::new(); self.nodes.len()];
        self.consumers = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for input in &n.inputs {
                if let Some(&p) = by_output.get(input.as_str()) {
                    if p != n.id {
                        self.producers[n.id].push(p);
                        self.consumers[p].push(n.id);
                    }
                }
            }
        }
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Ids of nodes producing `id`'s inputs.
    pub fn producers(&self, id: NodeId) -> &[NodeId] {
        &self.producers[id]
    }

    /// Ids of nodes consuming `id`'s output.
    pub fn consumers(&self, id: NodeId) -> &[NodeId] {
        &self.consumers[id]
    }

    /// Undirected neighborhood (producers ∪ consumers).
    pub fn neighbors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = self.producers[id].clone();
        for &c in &self.consumers[id] {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// Replace node costs, e.g. with measured profile data keyed by the
    /// bound variable name (sinks are keyed by `write <buffer>`).
    pub fn apply_costs(&mut self, costs: &HashMap<String, f64>) {
        for n in &mut self.nodes {
            let key = n.output.clone().unwrap_or_else(|| n.label.clone());
            if let Some(&c) = costs.get(&key) {
                n.cost = c;
            }
        }
    }

    /// The smallest superset of `ids` that can run as **one function at
    /// the position of its first member** — which is how the engine
    /// executes a compiled region. Such a set may consume from outside only
    /// values produced *before* that position; node ids are assigned in
    /// document order, so every outside producer of a member must have an
    /// id below the set's smallest id. The closure therefore pulls in every
    /// later producer a member needs, transitively.
    ///
    /// A closed set is in particular convex (it contains every node on a
    /// path between two of its members): a path that leaves the set
    /// re-enters it through an outside producer that descends from a
    /// member, hence lies after the first member. A set that is not closed
    /// would read a value its own outputs feed — the previous chunk's, not
    /// this chunk's.
    pub fn fusable_closure(&self, ids: &[NodeId]) -> Vec<NodeId> {
        let mut set = ids.to_vec();
        let Some(&first) = set.iter().min() else {
            return set;
        };
        let mut next = 0;
        while next < set.len() {
            for &p in &self.producers[set[next]] {
                if p > first && !set.contains(&p) {
                    set.push(p);
                }
            }
            next += 1;
        }
        set
    }

    /// True when `ids` is its own [`DepGraph::fusable_closure`].
    pub fn is_fusable(&self, ids: &[NodeId]) -> bool {
        self.fusable_closure(ids).len() == ids.len()
    }

    /// Distinct external inputs + outputs of a node set — the §III-B
    /// "inputs/intermediates per function" count the TLB heuristic bounds.
    pub fn io_count(&self, ids: &[NodeId]) -> usize {
        let in_set = |id: NodeId| ids.contains(&id);
        let mut names: Vec<&str> = Vec::new();
        for &id in ids {
            let n = &self.nodes[id];
            // External inputs: consumed vars produced outside the set.
            for input in &n.inputs {
                let produced_inside = self.producers[id]
                    .iter()
                    .any(|&p| in_set(p) && self.nodes[p].output.as_deref() == Some(input));
                if !produced_inside && !names.contains(&input.as_str()) {
                    names.push(input);
                }
            }
            // Buffers read/written count as IO.
            if let Some(b) = &n.buffer {
                if !names.contains(&b.as_str()) {
                    names.push(b);
                }
            }
            // Outputs consumed outside the set.
            if let Some(o) = &n.output {
                let escapes =
                    self.consumers[id].iter().any(|&c| !in_set(c)) || self.consumers[id].is_empty();
                if escapes && !names.contains(&o.as_str()) {
                    names.push(o);
                }
            }
        }
        names.len()
    }
}

/// Variables referenced from *scalar* positions of a statement list: loop
/// counters (`i := i + len(a)`), `if` conditions, read/write positions,
/// fold initializers and captured lambda scalars. A region-bound variable
/// appearing here must escape any compiled fragment even when no graph
/// node consumes it — the interpreter needs its value.
pub fn scalar_uses(stmts: &[Stmt]) -> std::collections::HashSet<String> {
    let mut out = std::collections::HashSet::new();
    collect_scalar_uses(stmts, &mut out);
    out
}

fn collect_scalar_uses(stmts: &[Stmt], out: &mut std::collections::HashSet<String>) {
    for s in stmts {
        match s {
            Stmt::Assign { expr, .. } | Stmt::ExprStmt(expr) => {
                out.extend(expr.free_vars());
            }
            Stmt::Let { expr, body, .. } => {
                collect_expr_scalar_uses(expr, out);
                collect_scalar_uses(body, out);
            }
            Stmt::Write { pos, .. } => out.extend(pos.free_vars()),
            Stmt::Scatter { .. } | Stmt::DeclareMut { .. } | Stmt::Break => {}
            Stmt::Loop(body) => collect_scalar_uses(body, out),
            Stmt::If { cond, then, els } => {
                out.extend(cond.free_vars());
                collect_scalar_uses(then, out);
                collect_scalar_uses(els, out);
            }
        }
    }
}

fn collect_expr_scalar_uses(e: &Expr, out: &mut std::collections::HashSet<String>) {
    match e {
        Expr::Read { pos, len, .. } => {
            out.extend(pos.free_vars());
            if let Some(l) = len {
                out.extend(l.free_vars());
            }
        }
        Expr::Fold { init, .. } => out.extend(init.free_vars()),
        Expr::Gen { len, .. } => out.extend(len.free_vars()),
        Expr::Map { f, .. } | Expr::Filter { p: f, .. } => {
            // Captured (non-parameter) scalars inside lambda bodies.
            for v in f.body.free_vars() {
                if !f.params.contains(&v) {
                    out.insert(v);
                }
            }
        }
        Expr::Len(inner) => out.extend(inner.free_vars()),
        _ => {}
    }
}

fn expr_label(e: &Expr) -> String {
    match e {
        Expr::Map { f, .. } => format!("map (\\{} -> …)", f.params.join(" ")),
        Expr::Filter { .. } => "filter".to_string(),
        Expr::Fold { r, .. } => format!("fold {}", r.name()),
        Expr::Read { data, .. } => format!("read {data}"),
        Expr::Gather { data, .. } => format!("gather {data}"),
        Expr::Gen { .. } => "gen".to_string(),
        Expr::Condense(_) => "condense".to_string(),
        Expr::Merge { kind, .. } => format!("merge {}", kind.name()),
        other => print_expr(other),
    }
}

/// Array-valued variable inputs of a skeleton (scalar counters excluded:
/// read positions and fold inits do not create dataflow edges).
fn array_inputs(e: &Expr) -> Vec<String> {
    match e {
        Expr::Map { inputs, .. } | Expr::Filter { inputs, .. } => {
            inputs.iter().flat_map(expr_vars).collect()
        }
        Expr::Fold { input, .. } | Expr::Condense(input) => expr_vars(input),
        Expr::Gather { indices, .. } => expr_vars(indices),
        Expr::Merge { left, right, .. } => {
            let mut v = expr_vars(left);
            v.extend(expr_vars(right));
            v
        }
        Expr::Read { .. } | Expr::Gen { .. } => Vec::new(),
        _ => Vec::new(),
    }
}

fn expr_vars(e: &Expr) -> Vec<String> {
    match e {
        Expr::Var(v) => vec![v.clone()],
        _ => Vec::new(),
    }
}

/// The buffer a `read`/`gather` touches (writes record theirs at node
/// construction).
fn buffer_of(e: &Expr) -> Option<String> {
    match e {
        Expr::Read { data, .. } | Expr::Gather { data, .. } => Some(data.clone()),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;

    /// The Fig. 2 loop body's graph: read, map, filter, condense,
    /// write v, write w.
    fn fig2_graph() -> DepGraph {
        let p = programs::fig2_example();
        let body = programs::loop_body(&p).unwrap();
        DepGraph::from_stmts(body)
    }

    #[test]
    fn fig2_nodes_and_edges() {
        let g = fig2_graph();
        assert_eq!(g.len(), 6);
        let by_label: HashMap<&str, NodeId> =
            g.nodes().iter().map(|n| (n.label.as_str(), n.id)).collect();
        let read = by_label["read some_data"];
        let map = by_label["map (\\x -> …)"];
        let filter = by_label["filter"];
        let condense = by_label["condense"];
        let wv = by_label["write v"];
        let ww = by_label["write w"];
        assert_eq!(g.producers(map), &[read]);
        assert!(g.consumers(map).contains(&filter));
        assert!(g.consumers(map).contains(&wv));
        assert_eq!(g.producers(condense), &[filter]);
        assert_eq!(g.producers(ww), &[condense]);
        assert_eq!(g.consumers(ww), &[] as &[NodeId]);
        // Undirected neighborhood of map covers read, filter, write v.
        let nb = g.neighbors(map);
        assert!(nb.contains(&read) && nb.contains(&filter) && nb.contains(&wv));
    }

    #[test]
    fn control_flow_and_mut_updates_excluded() {
        let g = fig2_graph();
        for n in g.nodes() {
            assert!(
                !n.label.contains(":="),
                "mutable updates must not be nodes: {}",
                n.label
            );
        }
    }

    #[test]
    fn io_counts() {
        let g = fig2_graph();
        let by_label: HashMap<&str, NodeId> =
            g.nodes().iter().map(|n| (n.label.as_str(), n.id)).collect();
        let read = by_label["read some_data"];
        let map = by_label["map (\\x -> …)"];
        let wv = by_label["write v"];
        // {read, map, write v}: buffers some_data + v, output a escapes (to
        // filter) → 3 names.
        assert_eq!(g.io_count(&[read, map, wv]), 3);
        // {map} alone: input `input`, output `a` → 2.
        assert_eq!(g.io_count(&[map]), 2);
    }

    #[test]
    fn apply_costs_overrides() {
        let mut g = fig2_graph();
        let mut costs = HashMap::new();
        costs.insert("a".to_string(), 100.0); // map binds `a`
        costs.insert("write v".to_string(), 9.0);
        g.apply_costs(&costs);
        let map = g
            .nodes()
            .iter()
            .find(|n| n.output.as_deref() == Some("a"))
            .unwrap();
        assert_eq!(map.cost, 100.0);
        let wv = g.nodes().iter().find(|n| n.label == "write v").unwrap();
        assert_eq!(wv.cost, 9.0);
    }

    #[test]
    fn empty_graph() {
        let g = DepGraph::from_stmts(&[]);
        assert!(g.is_empty());
        assert_eq!(g.io_count(&[]), 0);
    }
}
