//! Fragment builder: partitioned region → trace IR.
//!
//! Consumes a [`Region`] produced by the §III-B greedy partitioner and the
//! normalized expressions stored on the dependency-graph nodes, and emits a
//! [`Fragment`]: the trace plus the wiring the VM needs to splice it into
//! interpretation (which buffers to read before the trace, which to write
//! after — "directly plugged into the interpreter").
//!
//! Unsupported shapes (merges, gathers, gens, string ops, captured scalar
//! variables, multiple filters, regions that are not
//! [fusable](DepGraph::is_fusable)) return [`JitError::Unsupported`]; the VM
//! then interprets that region — the paper's "the remaining nodes can
//! either be compiled or interpreted".

use std::collections::HashMap;
use std::collections::HashSet;

use adaptvm_dsl::ast::{Expr, Lambda, OpClass, ScalarOp};
use adaptvm_dsl::depgraph::{DepGraph, NodeId};
use adaptvm_dsl::partition::Region;
use adaptvm_kernels::map::hash_str;
use adaptvm_storage::scalar::{Scalar, ScalarType};

use crate::error::JitError;
use crate::ir::{FilterCheck, LaneType, OutputSpec, Src, TraceIr, TraceOp};

/// Register budget per fragment (fragments wider than this should have been
/// stopped by the TLB heuristic long before).
pub const REG_BUDGET: usize = 256;

/// A buffer read the VM performs before invoking a trace; the result is a
/// trace input.
#[derive(Debug, Clone)]
pub struct ReadSpec {
    /// Variable the read binds.
    pub var: String,
    /// Source buffer.
    pub buffer: String,
    /// Position expression (scalar; evaluated by the VM per iteration).
    pub pos: adaptvm_dsl::ast::Expr,
    /// Optional explicit length expression.
    pub len: Option<adaptvm_dsl::ast::Expr>,
    /// The variable escapes the region (a node outside it or a scalar
    /// statement uses it, or an in-region write stores it): the VM binds
    /// a copy of the chunk after the trace. The trace itself reads the
    /// chunk in place and never outputs it.
    pub escapes: bool,
}

/// A buffer write the VM performs after a trace.
#[derive(Debug, Clone)]
pub struct WriteSpec {
    /// Target buffer.
    pub buffer: String,
    /// Variable holding the values (a trace output or external binding).
    pub value_var: String,
    /// Position expression (scalar; evaluated by the VM per iteration).
    pub pos: adaptvm_dsl::ast::Expr,
}

/// A compiled-fragment description plus its VM wiring.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The (unoptimized) trace.
    pub ir: TraceIr,
    /// Buffer reads the VM performs before invoking the trace.
    pub reads: Vec<ReadSpec>,
    /// Buffer writes the VM performs after the trace.
    pub writes: Vec<WriteSpec>,
    /// The region's node ids (for bookkeeping/explain output).
    pub node_ids: Vec<NodeId>,
}

impl Fragment {
    /// The code-cache key of this fragment: the trace's fingerprint
    /// extended over the VM wiring (which buffers are read into which
    /// inputs, which outputs are written where). A cached trace carries
    /// that wiring, so two fragments may share one only when it agrees too.
    pub fn fingerprint(&self) -> u64 {
        let wired = format!(
            "{:x}{:?}{:?}",
            self.ir.fingerprint(),
            self.reads,
            self.writes
        );
        hash_str(&wired) as u64
    }
}

#[derive(Debug, Clone)]
struct VarRef {
    src: Src,
    guarded: bool,
}

/// Build a fragment from a region.
///
/// `scalar_uses` lists variables referenced by non-node statements (loop
/// counters, `len(x)` …) — any region binding in this set must escape.
/// `type_hints` supplies element types for inputs/outputs (from the type
/// checker); missing entries default to the lane type.
pub fn build_fragment(
    g: &DepGraph,
    region: &Region,
    scalar_uses: &HashSet<String>,
    type_hints: &HashMap<String, ScalarType>,
) -> Result<Fragment, JitError> {
    if !g.is_fusable(&region.nodes) {
        return Err(JitError::Unsupported(
            "region consumes a value produced after its first node".into(),
        ));
    }
    let order = topo_order(g, &region.nodes);
    let in_region = |id: NodeId| region.nodes.contains(&id);

    let mut var_map: HashMap<String, VarRef> = HashMap::new();
    let mut inputs: Vec<String> = Vec::new();
    let mut reads: Vec<ReadSpec> = Vec::new();
    let mut writes: Vec<WriteSpec> = Vec::new();
    let mut pre_ops: Vec<TraceOp> = Vec::new();
    let mut post_ops: Vec<TraceOp> = Vec::new();
    let mut filter: Option<FilterCheck> = None;
    let mut filter_binding: Option<(String, String)> = None; // (bound var, flow var)
    let mut outputs: Vec<OutputSpec> = Vec::new();
    let mut next_reg = 0usize;
    let mut needed: Vec<String> = Vec::new(); // vars that must be outputs
    let mut fold_vars: HashSet<String> = HashSet::new();

    // Resolve an atom to a source; unknown vars become external inputs.
    let resolve = |atom: &Expr,
                   var_map: &mut HashMap<String, VarRef>,
                   inputs: &mut Vec<String>|
     -> Result<VarRef, JitError> {
        match atom {
            Expr::Const(Scalar::F64(v)) => Ok(VarRef {
                src: Src::ConstF(*v),
                guarded: false,
            }),
            Expr::Const(s) => match s.as_i64() {
                Some(v) => Ok(VarRef {
                    src: Src::ConstI(v),
                    guarded: false,
                }),
                None => match s {
                    Scalar::Bool(b) => Ok(VarRef {
                        src: Src::ConstI(*b as i64),
                        guarded: false,
                    }),
                    other => Err(JitError::Unsupported(format!("constant {other:?}"))),
                },
            },
            Expr::Var(v) => {
                if let Some(r) = var_map.get(v) {
                    return Ok(r.clone());
                }
                // External array input.
                let idx = inputs.len();
                inputs.push(v.clone());
                let r = VarRef {
                    src: Src::Input(idx),
                    guarded: false,
                };
                var_map.insert(v.clone(), r.clone());
                Ok(r)
            }
            other => Err(JitError::Unsupported(format!(
                "non-atomic operand {other:?} (normalize first)"
            ))),
        }
    };

    // Resolve one argument of a normalized single-op lambda body.
    let resolve_lambda_arg = |arg: &Expr,
                              f: &Lambda,
                              actuals: &[Expr],
                              var_map: &mut HashMap<String, VarRef>,
                              inputs: &mut Vec<String>|
     -> Result<VarRef, JitError> {
        match arg {
            Expr::Var(p) => match f.params.iter().position(|x| x == p) {
                Some(i) => resolve(&actuals[i], var_map, inputs),
                None => Err(JitError::Unsupported(format!(
                    "captured scalar {p} in lambda"
                ))),
            },
            Expr::Const(_) => resolve(arg, var_map, inputs),
            other => Err(JitError::Unsupported(format!(
                "non-normalized lambda arg {other:?}"
            ))),
        }
    };

    for &id in &order {
        let node = g.node(id);
        match node.class {
            OpClass::Read => {
                let expr = node
                    .expr
                    .as_ref()
                    .ok_or_else(|| JitError::Unresolved("read node without expression".into()))?;
                let (buffer, pos, len) = match expr {
                    Expr::Read { data, pos, len } => (
                        data.clone(),
                        pos.as_ref().clone(),
                        len.as_ref().map(|l| l.as_ref().clone()),
                    ),
                    _ => return Err(JitError::Unresolved("read node shape".into())),
                };
                let var = node
                    .output
                    .clone()
                    .ok_or_else(|| JitError::Unresolved("read without binding".into()))?;
                let idx = inputs.len();
                inputs.push(var.clone());
                reads.push(ReadSpec {
                    var: var.clone(),
                    buffer,
                    pos,
                    len,
                    escapes: false,
                });
                var_map.insert(
                    var,
                    VarRef {
                        src: Src::Input(idx),
                        guarded: false,
                    },
                );
            }
            OpClass::Map => {
                let (f, actuals) = match node.expr.as_ref() {
                    Some(Expr::Map { f, inputs }) => (f, inputs.as_slice()),
                    Some(Expr::Gen { .. }) => {
                        return Err(JitError::Unsupported("gen in fragment".into()))
                    }
                    _ => return Err(JitError::Unresolved("map node shape".into())),
                };
                let var = node
                    .output
                    .clone()
                    .ok_or_else(|| JitError::Unresolved("map without binding".into()))?;
                let vr = match f.body.as_ref() {
                    // Identity / constant lambdas alias their operand.
                    Expr::Var(_) | Expr::Const(_) => {
                        resolve_lambda_arg(&f.body, f, actuals, &mut var_map, &mut inputs)?
                    }
                    Expr::Apply(op, args) => {
                        let mut srcs = Vec::with_capacity(args.len());
                        let mut guarded = false;
                        for a in args {
                            let r = resolve_lambda_arg(a, f, actuals, &mut var_map, &mut inputs)?;
                            guarded |= r.guarded;
                            srcs.push(r.src);
                        }
                        let dst = next_reg;
                        next_reg += 1;
                        if next_reg > REG_BUDGET {
                            return Err(JitError::TooWide {
                                needed: next_reg,
                                budget: REG_BUDGET,
                            });
                        }
                        let top = TraceOp {
                            op: *op,
                            dst,
                            args: srcs,
                        };
                        if guarded {
                            post_ops.push(top);
                        } else {
                            pre_ops.push(top);
                        }
                        VarRef {
                            src: Src::Reg(dst),
                            guarded,
                        }
                    }
                    other => {
                        return Err(JitError::Unsupported(format!(
                            "non-normalized lambda body {other:?}"
                        )))
                    }
                };
                var_map.insert(var, vr);
            }
            OpClass::Filter => {
                if filter.is_some() {
                    return Err(JitError::Unsupported("second filter in fragment".into()));
                }
                let (p, actuals) = match node.expr.as_ref() {
                    Some(Expr::Filter { p, inputs }) => (p, inputs.as_slice()),
                    _ => return Err(JitError::Unresolved("filter node shape".into())),
                };
                let flow_name = match actuals.first() {
                    Some(Expr::Var(v)) => v.clone(),
                    _ => {
                        return Err(JitError::Unsupported(
                            "filter flow must be a variable".into(),
                        ))
                    }
                };
                // Ensure the flow is resolvable (it may be an external input).
                let flow_ref = resolve(&Expr::Var(flow_name.clone()), &mut var_map, &mut inputs)?;
                let (op, lhs, rhs) = match p.body.as_ref() {
                    Expr::Apply(op, args) if op.is_comparison() && args.len() == 2 => {
                        let l =
                            resolve_lambda_arg(&args[0], p, actuals, &mut var_map, &mut inputs)?;
                        let r =
                            resolve_lambda_arg(&args[1], p, actuals, &mut var_map, &mut inputs)?;
                        (*op, l.src, r.src)
                    }
                    other => {
                        return Err(JitError::Unsupported(format!("filter predicate {other:?}")))
                    }
                };
                filter = Some(FilterCheck { op, lhs, rhs });
                let var = node
                    .output
                    .clone()
                    .ok_or_else(|| JitError::Unresolved("filter without binding".into()))?;
                filter_binding = Some((var.clone(), flow_name));
                // The filtered flow: same physical lanes, guarded.
                var_map.insert(
                    var,
                    VarRef {
                        src: flow_ref.src,
                        guarded: true,
                    },
                );
            }
            OpClass::Condense => {
                let input = match node.expr.as_ref() {
                    Some(Expr::Condense(inner)) => inner.as_ref().clone(),
                    _ => return Err(JitError::Unresolved("condense node shape".into())),
                };
                let var = node
                    .output
                    .clone()
                    .ok_or_else(|| JitError::Unresolved("condense without binding".into()))?;
                let r = resolve(&input, &mut var_map, &mut inputs)?;
                // Condensing an unguarded flow is the identity; a guarded
                // flow stays guarded (compaction happens at output time).
                var_map.insert(var, r);
            }
            OpClass::Fold => {
                let (ff, init, input) = match node.expr.as_ref() {
                    Some(Expr::Fold { r, init, input }) => (*r, init.as_ref(), input.as_ref()),
                    _ => return Err(JitError::Unresolved("fold node shape".into())),
                };
                let init = match init {
                    Expr::Const(s) => s.clone(),
                    _ => {
                        return Err(JitError::Unsupported(
                            "fold init must be a constant in fragments".into(),
                        ))
                    }
                };
                let var = node
                    .output
                    .clone()
                    .ok_or_else(|| JitError::Unresolved("fold without binding".into()))?;
                let r = resolve(input, &mut var_map, &mut inputs)?;
                outputs.push(OutputSpec::Fold {
                    name: var.clone(),
                    f: ff,
                    init,
                    src: r.src,
                    guarded: r.guarded,
                });
                fold_vars.insert(var);
            }
            OpClass::Write => {
                let buffer = node
                    .buffer
                    .clone()
                    .ok_or_else(|| JitError::Unresolved("write without buffer".into()))?;
                let value = node
                    .inputs
                    .first()
                    .cloned()
                    .ok_or_else(|| JitError::Unsupported("write of a constant".into()))?;
                let pos = node
                    .write_pos
                    .clone()
                    .ok_or_else(|| JitError::Unresolved("write without position".into()))?;
                writes.push(WriteSpec {
                    buffer,
                    value_var: value.clone(),
                    pos,
                });
                needed.push(value);
            }
            OpClass::Merge | OpClass::Random | OpClass::StringOp | OpClass::Scalar => {
                return Err(JitError::Unsupported(format!(
                    "{:?} node in fragment",
                    node.class
                )))
            }
        }
    }

    // Escaping bindings: consumed outside the region, used by scalar
    // statements, or needed by an in-region write. An escaping read is
    // bound by the VM from its chunk, not copied through the trace.
    for &id in &region.nodes {
        let node = g.node(id);
        let Some(var) = node.output.clone() else {
            continue;
        };
        let escapes = g.consumers(id).iter().any(|&c| !in_region(c))
            || scalar_uses.contains(&var)
            || needed.contains(&var);
        if !escapes || fold_vars.contains(&var) {
            continue;
        }
        if let Some(read) = reads.iter_mut().find(|r| r.var == var) {
            read.escapes = true;
            continue;
        }
        if let Some((fvar, flow)) = &filter_binding {
            if *fvar == var {
                outputs.push(OutputSpec::Sel {
                    name: var.clone(),
                    flow: flow.clone(),
                });
                continue;
            }
        }
        let r = var_map
            .get(&var)
            .ok_or_else(|| JitError::Unresolved(var.clone()))?
            .clone();
        outputs.push(OutputSpec::Array {
            name: var.clone(),
            src: r.src,
            compacted: r.guarded,
            out_ty: *type_hints.get(&var).unwrap_or(&ScalarType::I64),
        });
    }

    // Lane selection: floats anywhere force f64 lanes.
    let mut lane = LaneType::I64;
    let float_hint = |v: &String| type_hints.get(v) == Some(&ScalarType::F64);
    if inputs.iter().any(float_hint)
        || pre_ops
            .iter()
            .chain(post_ops.iter())
            .any(|o| o.op == ScalarOp::Sqrt || o.args.iter().any(|a| matches!(a, Src::ConstF(_))))
        || outputs.iter().any(|o| match o {
            OutputSpec::Array { out_ty, .. } => *out_ty == ScalarType::F64,
            OutputSpec::Fold { init, .. } => init.scalar_type() == ScalarType::F64,
            OutputSpec::Sel { .. } => false,
        })
    {
        lane = LaneType::F64;
    }
    if lane == LaneType::F64 {
        if let Some(bad) = pre_ops
            .iter()
            .chain(post_ops.iter())
            .find(|o| o.op == ScalarOp::Hash)
        {
            return Err(JitError::LaneConflict(format!(
                "{:?} requires integer lanes but fragment is float",
                bad.op
            )));
        }
    }
    // Patch array output types that defaulted to I64 in a float fragment.
    if lane == LaneType::F64 {
        for o in &mut outputs {
            if let OutputSpec::Array { name, out_ty, .. } = o {
                if !type_hints.contains_key(name) {
                    *out_ty = ScalarType::F64;
                }
            }
        }
    }

    if outputs.is_empty() && !reads.iter().any(|r| r.escapes) {
        return Err(JitError::Unsupported("fragment produces no outputs".into()));
    }

    Ok(Fragment {
        ir: TraceIr {
            lane,
            inputs,
            n_regs: next_reg,
            pre_ops,
            filter,
            post_ops,
            outputs,
        },
        reads,
        writes,
        node_ids: region.nodes.clone(),
    })
}

/// Topologically order the region's nodes (producers before consumers).
fn topo_order(g: &DepGraph, nodes: &[NodeId]) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(nodes.len());
    let mut placed = vec![false; g.len()];
    let in_set = |id: NodeId, nodes: &[NodeId]| nodes.contains(&id);
    while order.len() < nodes.len() {
        let mut progressed = false;
        for &id in nodes {
            if placed[id] {
                continue;
            }
            let ready = g
                .producers(id)
                .iter()
                .all(|&p| !in_set(p, nodes) || placed[p]);
            if ready {
                placed[id] = true;
                order.push(id);
                progressed = true;
            }
        }
        if !progressed {
            // Cycle (cannot happen for well-formed programs); bail with the
            // remaining nodes in id order to keep the builder total.
            for &id in nodes {
                if !placed[id] {
                    placed[id] = true;
                    order.push(id);
                }
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::execute;
    use crate::passes::optimize;
    use adaptvm_dsl::depgraph::scalar_uses;
    use adaptvm_dsl::partition::{partition, PartitionConfig};
    use adaptvm_dsl::programs;
    use adaptvm_storage::array::Array;
    use adaptvm_storage::scalar::Scalar;

    fn fig2_fragments() -> (DepGraph, Vec<Fragment>) {
        let p = programs::fig2_example();
        let body = programs::loop_body(&p).unwrap();
        let g = DepGraph::from_stmts(body);
        let parts = partition(&g, &PartitionConfig::default());
        let uses = scalar_uses(body);
        let frags = parts
            .regions
            .iter()
            .map(|r| build_fragment(&g, r, &uses, &HashMap::new()).unwrap())
            .collect();
        (g, frags)
    }

    #[test]
    fn fig2_region1_compiles_to_map_trace() {
        let (_, frags) = fig2_fragments();
        // One fragment reads some_data and writes v; the other writes w.
        let map_frag = frags
            .iter()
            .find(|f| !f.reads.is_empty())
            .expect("read+map+write fragment");
        assert_eq!(map_frag.reads[0].buffer, "some_data");
        assert_eq!(map_frag.writes.len(), 1);
        assert_eq!(map_frag.writes[0].buffer, "v");
        assert_eq!(map_frag.writes[0].value_var, "a");
        // a escapes (filter consumes it + len(a) in the counter update).
        assert!(map_frag.ir.outputs.iter().any(|o| o.name() == "a"));
        // Executes: a = 2*x.
        let x = Array::from(vec![1i64, -2]);
        let r = execute(&map_frag.ir, &[&x], None).unwrap();
        assert_eq!(r.arrays[0].1, Array::from(vec![2i64, -4]));
    }

    #[test]
    fn fig2_region2_compiles_to_filter_trace() {
        let (_, frags) = fig2_fragments();
        let filter_frag = frags
            .iter()
            .find(|f| f.ir.filter.is_some())
            .expect("filter fragment");
        // Consumes the external `a`, writes w from b.
        assert_eq!(filter_frag.ir.inputs, vec!["a".to_string()]);
        assert_eq!(filter_frag.writes.len(), 1);
        assert_eq!(filter_frag.writes[0].buffer, "w");
        assert_eq!(filter_frag.writes[0].value_var, "b");
        // b is compacted.
        let b_out = filter_frag
            .ir
            .outputs
            .iter()
            .find(|o| o.name() == "b")
            .unwrap();
        assert!(matches!(
            b_out,
            OutputSpec::Array {
                compacted: true,
                ..
            }
        ));
        let a = Array::from(vec![2i64, -4, 6]);
        let r = execute(&filter_frag.ir, &[&a], None).unwrap();
        let (_, b) = r.arrays.iter().find(|(n, _)| n == "b").expect("b output");
        assert_eq!(*b, Array::from(vec![2i64, 6]));
    }

    #[test]
    fn whole_pipeline_region_fuses_everything() {
        // One region covering the entire Fig. 2 body (max_io high, no
        // barrier restrictions) → one trace: dense a, sel t, compacted b.
        let p = programs::fig2_example();
        let body = programs::loop_body(&p).unwrap();
        let g = DepGraph::from_stmts(body);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        let uses = scalar_uses(body);
        let frag = build_fragment(&g, &region, &uses, &HashMap::new()).unwrap();
        assert_eq!(frag.reads.len(), 1);
        assert_eq!(frag.writes.len(), 2);
        let x = Array::from(vec![1i64, -2, 3, -4]);
        let (ir, _) = optimize(frag.ir);
        let r = execute(&ir, &[&x], None).unwrap();
        let a = &r.arrays.iter().find(|(n, _)| n == "a").unwrap().1;
        let b = &r.arrays.iter().find(|(n, _)| n == "b").unwrap().1;
        assert_eq!(*a, Array::from(vec![2i64, -4, 6, -8]));
        assert_eq!(*b, Array::from(vec![2i64, 6]));
    }

    #[test]
    fn filter_sum_region_builds_guarded_fold() {
        let p = programs::filter_sum(0, 1000);
        let body = programs::loop_body(&p).unwrap();
        let g = DepGraph::from_stmts(body);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        let uses = scalar_uses(body);
        let frag = build_fragment(&g, &region, &uses, &HashMap::new()).unwrap();
        let fold = frag
            .ir
            .outputs
            .iter()
            .find(|o| matches!(o, OutputSpec::Fold { .. }))
            .expect("fold output");
        assert!(matches!(fold, OutputSpec::Fold { guarded: true, .. }));
        // Semantics: sum of 2*x for x>0.
        let x = Array::from(vec![5i64, -3, 2]);
        let r = execute(&frag.ir, &[&x], None).unwrap();
        let s = r.scalars.iter().find(|(n, _)| n == "s").unwrap();
        assert_eq!(s.1, Scalar::I64(14));
    }

    #[test]
    fn unsupported_shapes_error() {
        use adaptvm_dsl::parser::parse_program;
        // Merge in region.
        let p = parse_program(
            "let a = read 0 xs in { let b = read 0 ys in { let m = merge union a b in { write out 0 m } } }",
        )
        .unwrap();
        let g = DepGraph::from_stmts(&p.stmts);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        let err = build_fragment(&g, &region, &HashSet::new(), &HashMap::new()).unwrap_err();
        assert!(matches!(err, JitError::Unsupported(_)));
        // Captured scalar in lambda.
        let p = parse_program(
            "mut alpha\nalpha := 2\nlet a = read 0 xs in { let m = map (\\x -> alpha * x) a in { write out 0 m } }",
        )
        .unwrap();
        let g = DepGraph::from_stmts(&p.stmts);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        let err = build_fragment(&g, &region, &HashSet::new(), &HashMap::new()).unwrap_err();
        assert!(matches!(err, JitError::Unsupported(_)));
        // A region that skips a node between two of its members (read and
        // write without the map): it would write the previous chunk's `m`.
        let p = parse_program(
            "let a = read 0 xs in { let m = map (\\x -> 2 * x) a in { write out 0 m } }",
        )
        .unwrap();
        let g = DepGraph::from_stmts(&p.stmts);
        let region = Region {
            nodes: vec![0, 2],
            seed: 0,
            cost: 0.0,
        };
        let err = build_fragment(&g, &region, &HashSet::new(), &HashMap::new()).unwrap_err();
        assert!(matches!(err, JitError::Unsupported(_)));
    }

    #[test]
    fn float_lane_inference() {
        use adaptvm_dsl::parser::parse_program;
        let p = parse_program(
            "let a = read 0 xs in { let h = map (\\x -> sqrt(x)) a in { write out 0 h } }",
        )
        .unwrap();
        let g = DepGraph::from_stmts(&p.stmts);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        let frag = build_fragment(&g, &region, &HashSet::new(), &HashMap::new()).unwrap();
        assert_eq!(frag.ir.lane, LaneType::F64);
        // Output type defaults to f64 in float fragments.
        assert!(frag.ir.outputs.iter().any(|o| matches!(
            o,
            OutputSpec::Array {
                out_ty: ScalarType::F64,
                ..
            }
        )));
    }

    #[test]
    fn type_hints_narrow_outputs() {
        let p = programs::fig2_example();
        let body = programs::loop_body(&p).unwrap();
        let g = DepGraph::from_stmts(body);
        let region = Region {
            nodes: (0..g.len()).collect(),
            seed: 0,
            cost: 0.0,
        };
        let mut hints = HashMap::new();
        hints.insert("a".to_string(), ScalarType::I16);
        let uses = scalar_uses(body);
        let frag = build_fragment(&g, &region, &uses, &hints).unwrap();
        let x = Array::from(vec![3i64]);
        let r = execute(&frag.ir, &[&x], None).unwrap();
        let a = &r.arrays.iter().find(|(n, _)| n == "a").unwrap().1;
        assert_eq!(a.scalar_type(), ScalarType::I16);
    }
}
