//! `vm_cold` — the paper's break-even regime. Every operation compiles
//! DSL text (`Workload::compile`) and runs it once, sequentially, under
//! `Strategy::Adaptive` with a fresh `VmConfig` (so a fresh code cache)
//! over 16 chunks: the `dsl` front end, the `jit` compile and the
//! interpreted first chunks dominate; steady-state kernels do little.
//! The same `vm`/`jit` layers as `q6_adaptive`, used the opposite way:
//! compiling earlier or harder wins there and loses here.

use adaptvm::dsl::oracle::{Oracle, OracleBuffers};
use adaptvm::dsl::ScalarOp;
use adaptvm::relational::workload::Workload;
use adaptvm::storage::{gen, Array, Scalar, ScalarType, DEFAULT_CHUNK};
use adaptvm::vm::{Buffers, Strategy, Vm, VmConfig};

use super::{Closed, Env, OpCtx, OpOutcome, VmCounts};
use crate::probes::{FilterMapFold, ProbeInputs, ProgramProbe, ScalarLoop};

pub const CHUNKS: usize = 16;
/// `key` is uniform over `0..KEY_DOMAIN`; `key < k` keeps k‰ of the rows.
const KEY_DOMAIN: i64 = 1000;
/// Predicate constants cycled per operation: 1 %, 50 %, 99 % selectivity.
const CUTS: [i64; 3] = [10, 500, 990];

const SCHEMA: [(&str, ScalarType); 4] = [
    ("price", ScalarType::F64),
    ("disc", ScalarType::F64),
    ("key", ScalarType::I64),
    ("revenue", ScalarType::F64),
];

/// A Q6-shaped filter → map → fold chunk loop.
fn source(rows: usize, cut: i64) -> String {
    format!(
        r#"
        mut i
        mut rev
        i := 0
        rev := 0.0
        loop {{
          let p = read i price in {{
            let d = read i disc in {{
              let k = read i key in {{
                let t = filter (\a b -> b < {cut}) p k in {{
                  let r = map (\a b -> a * b) t d in {{
                    let s = fold sum 0.0 r in {{
                      rev := rev + s
                      i := i + len(p)
                    }}
                  }}
                }}
              }}
            }}
          }}
          if i >= {rows} then {{ break }}
        }}
        write revenue 0 rev
        "#
    )
}

pub struct VmCold {
    rows: usize,
    price: Array,
    disc: Array,
    key: Array,
    /// One DSL text and one oracle answer (bit pattern) per cut.
    variants: Vec<(String, u64)>,
}

impl VmCold {
    pub fn setup(env: Env) -> Result<VmCold, String> {
        let rows = env.scaled(CHUNKS * DEFAULT_CHUNK).max(DEFAULT_CHUNK);
        let price = gen::uniform_f64(rows, 900.0, 105_000.0, env.seed);
        let disc = gen::uniform_f64(rows, 0.0, 0.1, env.seed.wrapping_add(1));
        let key = gen::uniform_i64(rows, 0, KEY_DOMAIN - 1, env.seed.wrapping_add(2));
        let mut variants = Vec::new();
        for cut in CUTS {
            let text = source(rows, cut);
            let workload = Workload::compile(&text, &SCHEMA).map_err(|e| format!("{e}"))?;
            let buffers = OracleBuffers::new()
                .with_input("price", price.clone())
                .with_input("disc", disc.clone())
                .with_input("key", key.clone());
            let out = Oracle::new(DEFAULT_CHUNK)
                .run(workload.program(), buffers)
                .map_err(|e| format!("dsl oracle: {e}"))?;
            let answer = revenue_of(out.output("revenue"))
                .ok_or("dsl oracle produced no f64 revenue output")?;
            variants.push((text, answer.to_bits()));
        }
        Ok(VmCold {
            rows,
            price,
            disc,
            key,
            variants,
        })
    }

    fn config() -> VmConfig {
        VmConfig {
            strategy: Strategy::Adaptive,
            ..VmConfig::default()
        }
    }
}

fn revenue_of(a: Option<&Array>) -> Option<f64> {
    a.and_then(Array::as_f64).and_then(|v| v.first().copied())
}

impl Closed for VmCold {
    fn rows_per_op(&self) -> u64 {
        self.rows as u64
    }

    fn op(&self, i: u64, ctx: &mut OpCtx<'_>) -> OpOutcome {
        let (text, expected_bits) = &self.variants[(i % CUTS.len() as u64) as usize];
        let compiled = ctx.call("dsl", "Workload::compile", || {
            Workload::compile(text, &SCHEMA)
        });
        let workload = match compiled {
            Ok(w) => w,
            Err(e) => return OpOutcome::failed(&format!("vm_cold compile: {e}")),
        };
        // What `Workload::run_seq` does, keeping the `RunReport` it drops.
        let _scope = ctx.trace.map(|t| t.enter());
        let run = ctx.call("vm", "Vm::run", || {
            let buffers = Buffers::new()
                .with_input("price", self.price.clone())
                .with_input("disc", self.disc.clone())
                .with_input("key", self.key.clone());
            Vm::new(VmCold::config()).run(workload.program(), buffers)
        });
        match run {
            Ok((out, report))
                if revenue_of(out.output("revenue")).map(f64::to_bits) == Some(*expected_bits) =>
            {
                OpOutcome {
                    ok: true,
                    vm: Some(VmCounts {
                        trace_executions: report.trace_executions,
                        native_executions: report.native_trace_executions,
                    }),
                    ..OpOutcome::default()
                }
            }
            Ok(_) => OpOutcome::failed("vm_cold revenue differs from the DSL oracle"),
            Err(e) => OpOutcome::failed(&format!("vm_cold run: {e}")),
        }
    }

    fn morsel_layer(&self) -> &'static str {
        "vm"
    }

    fn probe_inputs(&self) -> ProbeInputs<'_> {
        // Probes run on the 50 % variant.
        let cut = CUTS[1];
        let text = &self.variants[1].0;
        let program = Workload::compile(text, &SCHEMA)
            .expect("compiled during set-up")
            .program()
            .clone();
        ProbeInputs {
            scan: vec![&self.price, &self.disc, &self.key],
            kernels: Some(FilterMapFold {
                conjuncts: vec![(ScalarOp::Lt, &self.key, Scalar::I64(cut))],
                map: (&self.price, &self.disc),
            }),
            scalar_loop: Some(ScalarLoop::Cold {
                price: self.price.as_f64().expect("f64 price"),
                disc: self.disc.as_f64().expect("f64 disc"),
                key: self.key.as_i64().expect("i64 key"),
                cut,
            }),
            program: Some(ProgramProbe {
                program,
                inputs: vec![
                    ("price", &self.price),
                    ("disc", &self.disc),
                    ("key", &self.key),
                ],
            }),
            dsl: Some((text.clone(), SCHEMA.to_vec())),
            ..ProbeInputs::default()
        }
    }
}
