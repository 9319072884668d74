//! Greedy dependency-graph partitioning (§III-B, Fig. 3).
//!
//! The paper's algorithm, verbatim: *"Starting with an initially empty set
//! of functions R, we go over the graph and select the most expensive node
//! (operation). From this node we greedily add neighbor nodes until one of
//! our heuristic constraints is violated. … All newly marked nodes belong
//! to one function f and we add f to R. Afterwards, we go to the next
//! expensive (unvisited) node and do the same. This ends when either a
//! threshold is reached or no nodes can be visited. The remaining nodes can
//! either be compiled or interpreted."*
//!
//! Heuristic constraints (§III-B):
//! * **TLB width** — at most `max_io` distinct inputs/intermediates per
//!   function, "whereas n depends on the size of the Translation look-aside
//!   buffer. This prevents TLB thrashing in the generated functions."
//! * **Barrier operations** — "we do not allow to include some operations
//!   inside functions, such as `filter`s" and non-trivial string operations.
//!   Note Fig. 3 *does* show `filter → condense → write w` as one
//!   compilable function: a barrier operation may **seed** (head) a region
//!   and grow downstream, but may never be pulled *into* a region grown
//!   from elsewhere. [`BarrierMode`] makes the stricter reading available.
//!
//! One constraint is not a heuristic but a validity condition: a region is
//! one function called where its first member stood, so it may only consume
//! values produced before that point ([`DepGraph::is_fusable`]; in
//! particular it contains every node on a path between two of its members).
//! A neighbor therefore joins together with the later producers it needs,
//! or not at all.

use std::collections::HashSet;

use crate::ast::OpClass;
use crate::depgraph::{DepGraph, NodeId};

/// How barrier operations (filters, string ops) participate in regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarrierMode {
    /// A barrier node may seed its own region and grow downstream
    /// (reproduces Fig. 3). The default.
    SeedOnly,
    /// Barrier nodes are never part of any region (strict reading of the
    /// §III-B text); they stay interpreted.
    Exclude,
}

/// Configuration of the greedy partitioner.
///
/// The adaptive VM uses the partition to decide the *shape* of its hot
/// plan. When the regions tile the loop body (nothing is left to the
/// interpreter), it compiles the whole body as one trace instead of one
/// trace per region. So `max_io`, `barriers` and `barrier_mode` shape the
/// plan only for bodies that do not tile, because of `excluded` nodes,
/// `max_regions` or `min_region_cost`. The TLB-width reason for splitting
/// does not carry over to this engine: its traces run packed IR over
/// chunk-sized vectors, not generated machine code streaming whole
/// columns, and on Q6 the one whole-body trace measured faster than the
/// regions `max_io` cuts it into.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    /// Maximum distinct inputs + intermediates + buffers per function
    /// (the TLB-size heuristic). Splits only bodies that do not tile; see
    /// above.
    pub max_io: usize,
    /// Operation classes treated as barriers.
    pub barriers: HashSet<OpClass>,
    /// Operation classes never compiled at all (always interpreted).
    pub excluded: HashSet<OpClass>,
    /// Stop after this many regions (the paper's "threshold").
    pub max_regions: usize,
    /// Regions with total cost below this stay interpreted (compiling them
    /// cannot pay off).
    pub min_region_cost: f64,
    /// Barrier behaviour.
    pub barrier_mode: BarrierMode,
}

impl Default for PartitionConfig {
    fn default() -> PartitionConfig {
        PartitionConfig {
            max_io: 8,
            barriers: [OpClass::Filter].into_iter().collect(),
            excluded: [OpClass::StringOp].into_iter().collect(),
            max_regions: 16,
            min_region_cost: 0.0,
            barrier_mode: BarrierMode::SeedOnly,
        }
    }
}

impl PartitionConfig {
    /// A config with a specific TLB width.
    pub fn with_max_io(max_io: usize) -> PartitionConfig {
        PartitionConfig {
            max_io,
            ..PartitionConfig::default()
        }
    }
}

/// One compilable function: a connected set of nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Member nodes, in the order they were added (seed first).
    pub nodes: Vec<NodeId>,
    /// The seed (most expensive node at selection time).
    pub seed: NodeId,
    /// Total cost of the members.
    pub cost: f64,
}

impl Region {
    /// Member count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the region is empty (never produced by the partitioner).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// The partitioner's result: compilable regions plus the interpreted rest.
#[derive(Debug, Clone, Default)]
pub struct Partitioning {
    /// Compilable functions, in discovery order.
    pub regions: Vec<Region>,
    /// Nodes left to the interpreter.
    pub interpreted: Vec<NodeId>,
}

impl Partitioning {
    /// The region containing `id`, if any.
    pub fn region_of(&self, id: NodeId) -> Option<usize> {
        self.regions.iter().position(|r| r.nodes.contains(&id))
    }
}

/// Run the greedy partitioning of §III-B.
pub fn partition(g: &DepGraph, cfg: &PartitionConfig) -> Partitioning {
    let mut visited = vec![false; g.len()];
    let mut result = Partitioning::default();
    // A node a region grown from elsewhere may pull in.
    let joinable = |n: NodeId, visited: &[bool]| {
        let class = &g.node(n).class;
        !visited[n] && !cfg.barriers.contains(class) && !cfg.excluded.contains(class)
    };

    loop {
        if result.regions.len() >= cfg.max_regions {
            break;
        }
        // "Select the most expensive (unvisited) node." Ties break on the
        // lower id for determinism.
        let seed = match g
            .nodes()
            .iter()
            .filter(|n| !visited[n.id] && !cfg.excluded.contains(&n.class))
            .max_by(|a, b| {
                a.cost
                    .partial_cmp(&b.cost)
                    .expect("costs are finite")
                    .then(b.id.cmp(&a.id))
            }) {
            Some(n) => n.id,
            None => break,
        };
        let seed_is_barrier = cfg.barriers.contains(&g.node(seed).class);
        if seed_is_barrier && cfg.barrier_mode == BarrierMode::Exclude {
            visited[seed] = true;
            result.interpreted.push(seed);
            continue;
        }

        visited[seed] = true;
        let mut region = vec![seed];

        // "From this node we greedily add neighbor nodes until one of our
        // heuristic constraints is violated."
        loop {
            let mut candidates: Vec<NodeId> = Vec::new();
            for &m in &region {
                let nbrs: Vec<NodeId> = if seed_is_barrier {
                    // A barrier-seeded region grows downstream only: the
                    // barrier heads the function, nothing is computed
                    // before it.
                    g.consumers(m).to_vec()
                } else {
                    g.neighbors(m)
                };
                for nb in nbrs {
                    if joinable(nb, &visited) && !region.contains(&nb) && !candidates.contains(&nb)
                    {
                        candidates.push(nb);
                    }
                }
            }
            // Most expensive candidate first (greedy), ties on lower id.
            candidates.sort_by(|&a, &b| {
                g.node(b)
                    .cost
                    .partial_cmp(&g.node(a).cost)
                    .expect("costs are finite")
                    .then(a.cmp(&b))
            });
            let mut grew = false;
            for cand in candidates {
                let mut attempt = region.clone();
                attempt.push(cand);
                // The candidate brings along every producer it needs that
                // runs after the region's first member — all of which must
                // be free to join.
                let attempt = g.fusable_closure(&attempt);
                let joining = &attempt[region.len()..];
                let free = joining[1..].iter().all(|&n| joinable(n, &visited));
                if free && g.io_count(&attempt) <= cfg.max_io {
                    for &n in joining {
                        visited[n] = true;
                    }
                    region = attempt;
                    grew = true;
                    break; // re-derive the frontier
                }
            }
            if !grew {
                break;
            }
        }

        let cost: f64 = region.iter().map(|&id| g.node(id).cost).sum();
        if !region.is_empty() && cost >= cfg.min_region_cost {
            result.regions.push(Region {
                seed,
                nodes: region,
                cost,
            });
        } else {
            result.interpreted.extend(region);
        }
    }

    for n in g.nodes() {
        if !visited[n.id] {
            result.interpreted.push(n.id);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::programs;
    use std::collections::HashMap;

    fn fig2_graph() -> DepGraph {
        let p = programs::fig2_example();
        DepGraph::from_stmts(programs::loop_body(&p).unwrap())
    }

    fn labels(g: &DepGraph, ids: &[NodeId]) -> Vec<String> {
        let mut v: Vec<String> = ids.iter().map(|&i| g.node(i).label.clone()).collect();
        v.sort();
        v
    }

    /// The headline Fig. 3 test: the Fig. 2 iteration partitions into
    /// exactly the two compilable functions the paper draws.
    #[test]
    fn fig3_partition() {
        let g = fig2_graph();
        let parts = partition(&g, &PartitionConfig::default());
        assert_eq!(parts.regions.len(), 2, "{parts:?}");
        assert!(parts.interpreted.is_empty());
        let mut regions: Vec<Vec<String>> =
            parts.regions.iter().map(|r| labels(&g, &r.nodes)).collect();
        regions.sort();
        assert_eq!(
            regions,
            vec![
                vec![
                    "condense".to_string(),
                    "filter".to_string(),
                    "write w".to_string()
                ],
                vec![
                    "map (\\x -> …)".to_string(),
                    "read some_data".to_string(),
                    "write v".to_string()
                ],
            ]
        );
    }

    #[test]
    fn fig3_filter_heads_its_region() {
        let g = fig2_graph();
        let parts = partition(&g, &PartitionConfig::default());
        let filter_region = parts
            .regions
            .iter()
            .find(|r| labels(&g, &r.nodes).contains(&"filter".to_string()))
            .unwrap();
        assert_eq!(g.node(filter_region.seed).label, "filter");
        assert_eq!(filter_region.nodes[0], filter_region.seed);
    }

    #[test]
    fn exclude_mode_interprets_filters() {
        let g = fig2_graph();
        let cfg = PartitionConfig {
            barrier_mode: BarrierMode::Exclude,
            ..PartitionConfig::default()
        };
        let parts = partition(&g, &cfg);
        let interpreted = labels(&g, &parts.interpreted);
        assert!(
            interpreted.contains(&"filter".to_string()),
            "{interpreted:?}"
        );
        // No region contains the filter.
        for r in &parts.regions {
            assert!(!labels(&g, &r.nodes).contains(&"filter".to_string()));
        }
    }

    #[test]
    fn tlb_constraint_limits_region_width() {
        let g = fig2_graph();
        // max_io = 2 is too narrow to fuse read+map+write (3 names).
        let parts = partition(&g, &PartitionConfig::with_max_io(2));
        for r in &parts.regions {
            assert!(g.io_count(&r.nodes) <= 2, "region too wide: {r:?}");
        }
        // Wider budget merges more.
        let wide = partition(&g, &PartitionConfig::with_max_io(16));
        let max_region = wide.regions.iter().map(Region::len).max().unwrap();
        let max_narrow = parts.regions.iter().map(Region::len).max().unwrap();
        assert!(max_region >= max_narrow);
    }

    #[test]
    fn max_regions_threshold_stops_early() {
        let g = fig2_graph();
        let cfg = PartitionConfig {
            max_regions: 1,
            ..PartitionConfig::default()
        };
        let parts = partition(&g, &cfg);
        assert_eq!(parts.regions.len(), 1);
        // Everything else is interpreted.
        assert_eq!(parts.regions[0].len() + parts.interpreted.len(), g.len());
    }

    #[test]
    fn min_region_cost_falls_back_to_interpretation() {
        let g = fig2_graph();
        let cfg = PartitionConfig {
            min_region_cost: 1e9,
            ..PartitionConfig::default()
        };
        let parts = partition(&g, &cfg);
        assert!(parts.regions.is_empty());
        assert_eq!(parts.interpreted.len(), g.len());
    }

    #[test]
    fn profile_costs_change_seeding() {
        let mut g = fig2_graph();
        // Make the condense hugely expensive; it must become a seed.
        let mut costs = HashMap::new();
        costs.insert("b".to_string(), 1000.0); // condense binds b
        g.apply_costs(&costs);
        let parts = partition(&g, &PartitionConfig::default());
        let seeds: Vec<String> = parts
            .regions
            .iter()
            .map(|r| g.node(r.seed).label.clone())
            .collect();
        assert!(seeds.contains(&"condense".to_string()), "{seeds:?}");
    }

    #[test]
    fn every_node_is_placed_exactly_once() {
        let g = fig2_graph();
        for max_io in [1, 2, 3, 4, 8, 64] {
            let parts = partition(&g, &PartitionConfig::with_max_io(max_io));
            let mut seen = vec![0usize; g.len()];
            for r in &parts.regions {
                for &n in &r.nodes {
                    seen[n] += 1;
                }
            }
            for &n in &parts.interpreted {
                seen[n] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "max_io={max_io}: {seen:?}");
        }
    }

    /// The normalized TPC-H Q6 loop body (16 nodes: four reads, the
    /// predicate maps `_t0`…`_t8`, the filter `t`, the product `r`, the
    /// fold `s`).
    fn q6_graph() -> DepGraph {
        use crate::normalize::normalize_program;
        use crate::parser::parse_program;
        let p = parse_program(
            "mut i\nmut rev\ni := 0\nrev := 0.0\nloop {\n\
             let price = read i l_price in { let disc = read i l_disc in {\n\
             let qty = read i l_qty in { let ship = read i l_ship in {\n\
             let t = filter (\\p s d q -> s >= 1000 && s < 1365 && d >= 0.05 && d <= 0.07 && q < 24) price ship disc qty in {\n\
             let r = map (\\p d -> p * d) t disc in { let s = fold sum 0.0 r in {\n\
             rev := rev + s\ni := i + len(price) } } } } } } }\n\
             if i >= 16384 then { break }\n}\nwrite revenue 0 rev\n",
        )
        .unwrap();
        let p = normalize_program(&p);
        DepGraph::from_stmts(programs::loop_body(&p).unwrap())
    }

    fn node_named(g: &DepGraph, name: &str) -> NodeId {
        let binds = |n: &&crate::depgraph::Node| n.output.as_deref() == Some(name);
        g.nodes().iter().find(binds).unwrap().id
    }

    /// Regression: with wall-clock profile costs, a predicate map sometimes
    /// measures above the filter and seeds first. Its region then reached
    /// `r`/`s` through `disc` without the (barrier) filter between them —
    /// a function that consumes `t`, which its own mask output feeds. The
    /// costs below are one such measured profile.
    #[test]
    fn q6_regions_never_consume_what_they_feed() {
        let mut g = q6_graph();
        assert_eq!(g.len(), 16);
        let costs: HashMap<String, f64> = [
            ("price", 485.0),
            ("disc", 386.0),
            ("qty", 346.0),
            ("ship", 340.0),
            ("_t0", 1720.0), // the noisy sample: above the filter
            ("_t1", 657.0),
            ("_t2", 315.0),
            ("_t3", 583.0),
            ("_t4", 293.0),
            ("_t5", 567.0),
            ("_t6", 275.0),
            ("_t7", 626.0),
            ("_t8", 291.0),
            ("t", 1577.0),
            ("r", 580.0),
            ("s", 130.0),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        g.apply_costs(&costs);
        let id = |name: &str| node_named(&g, name);
        let parts = partition(&g, &PartitionConfig::default());
        assert_eq!(g.node(parts.regions[0].seed).output.as_deref(), Some("_t0"));
        for r in &parts.regions {
            assert!(g.is_fusable(&r.nodes), "{r:?}");
        }
        // `r` and `s` sit behind the filter, in the filter's region.
        let filter_region = parts.region_of(id("t")).unwrap();
        assert_eq!(parts.region_of(id("r")), Some(filter_region));
        assert_eq!(parts.region_of(id("s")), Some(filter_region));
        // The same partition the common (filter-seeds-first) profile gives.
        let mut sizes: Vec<usize> = parts.regions.iter().map(Region::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![1, 3, 12], "{parts:?}");
        assert!(parts.interpreted.is_empty());
    }

    #[test]
    fn fusable_sets_take_outside_values_only_from_before_their_first_member() {
        let g = q6_graph();
        let id = |name: &str| node_named(&g, name);
        // Non-convex: disc → _t3 → … → t → r leaves and re-enters the set.
        assert!(!g.is_fusable(&[id("disc"), id("r"), id("s")]));
        // Convex, but `_t8` also needs `_t6`, computed after `qty` is read.
        assert!(!g.is_fusable(&[id("qty"), id("_t7"), id("_t8")]));
        assert!(g.is_fusable(&[id("_t7"), id("_t8")]));
        assert!(g.is_fusable(&[id("t"), id("r"), id("s")]));
        assert!(g.is_fusable(&(0..g.len()).collect::<Vec<_>>()));
        assert!(g.is_fusable(&[]));
    }

    #[test]
    fn string_ops_always_interpreted() {
        use crate::parser::parse_program;
        let p = parse_program(
            "let a = read 0 names in { let l = map (\\s -> strlen(s)) a in { write out 0 l } }",
        )
        .unwrap();
        let g = DepGraph::from_stmts(&p.stmts);
        let parts = partition(&g, &PartitionConfig::default());
        let interp = labels(&g, &parts.interpreted);
        assert!(
            interp.iter().any(|l| l.starts_with("map")),
            "string map should be interpreted: {interp:?}"
        );
    }

    #[test]
    fn empty_graph_partitions_empty() {
        let g = DepGraph::from_stmts(&[]);
        let parts = partition(&g, &PartitionConfig::default());
        assert!(parts.regions.is_empty());
        assert!(parts.interpreted.is_empty());
    }
}
