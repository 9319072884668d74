//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! adaptvm-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--layers] [--smoke]
//! adaptvm-benchmark aa    [--seed N] [--seconds S]
//! adaptvm-benchmark check
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics` (every end-to-end
//! metric, or with `--trace 1` every per-layer metric). Without
//! `--workload`, each workload runs in a child process of its own, so
//! set-up time and peak memory are per workload.

mod e2e;
mod json;
mod layers;
mod openloop;
mod probes;
mod spans;
mod spec;
mod stats;
mod validate;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use workloads::Env;

/// `--seconds` of each child of `check`: long enough for every part of a
/// traced run to execute once, short enough for CI.
const CHECK_SECONDS: f64 = 0.5;

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    layers: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS,
        trace: false,
        layers: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::is_workload(name) {
                    return Err(format!("unknown workload {name}"));
                }
                out.workload = Some(name.to_string());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = s;
            }
            "--trace" => {
                out.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--layers" => out.layers = true,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// `benchmark/out`, created: span files and spill runs go here, so the
/// benchmark reads and writes only inside its checkout.
fn out_dir() -> PathBuf {
    let in_cwd = PathBuf::from("benchmark");
    let base = if in_cwd.join("Cargo.toml").is_file() {
        in_cwd
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    };
    let dir = base.join("out");
    std::fs::create_dir_all(dir.join("tmp")).expect("create benchmark/out/tmp");
    dir
}

/// Cores the engine may use: `min(nproc, 4)`.
fn cores() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Worker threads of every executor under measurement: one core is left
/// to the load generator, the compile server and whatever else the box
/// runs. With as many workers as cores, every wake-up of another thread
/// preempts a worker, and the run measures the scheduler (`q6_adaptive`
/// then spread by a third between runs of the same code).
fn workers() -> usize {
    cores().saturating_sub(1).max(1)
}

/// The result line the contract asks for.
fn result_line(metrics: &[(&'static str, f64)], attempted: u64, failed: u64) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value)| {
            let unit = spec::unit_of(name).expect("metric is in the spec");
            (
                name.to_string(),
                Value::Obj(vec![
                    ("value".into(), Value::Num(*value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]),
            )
        })
        .collect();
    Value::Obj(vec![
        ("correct".into(), Value::Bool(failed == 0)),
        ("attempted".into(), Value::Num(attempted as f64)),
        ("failed".into(), Value::Num(failed as f64)),
        ("metrics".into(), Value::Obj(metrics)),
    ])
    .render()
}

/// Measure one workload in this process.
fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    let out = out_dir();
    // The engine's spill directories go under the system temp dir, which
    // must be inside the checkout. Set before any thread exists.
    std::env::set_var(
        "TMPDIR",
        out.join("tmp").canonicalize().map_err(|e| e.to_string())?,
    );
    let env = Env {
        seed: args.seed,
        workers: workers(),
        cores: cores(),
        smoke: args.smoke,
    };
    let plan = e2e::Plan::new(args.seconds, args.smoke);
    println!(
        "# {workload}: seed {}, {} workers, {} s{}",
        env.seed,
        env.workers,
        args.seconds,
        if args.smoke { ", smoke" } else { "" }
    );
    let line = if args.trace {
        let layers = layers::run(workload, env, plan)?;
        println!("# self time per operation, by layer:");
        for (layer, ms) in &layers.self_time_ranking {
            println!("#   {layer:<12} {ms:>12.4} ms");
        }
        for (name, value) in &layers.metrics {
            println!(
                "{name:<36} {value:>16.4} {}",
                spec::unit_of(name).unwrap_or("")
            );
        }
        let path = out.join(format!("{workload}.trace.json"));
        std::fs::write(&path, layers.recorder.chrome_trace())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans: {}", path.display());
        result_line(&layers.metrics, layers.attempted, layers.failed)
    } else {
        let e2e = e2e::run(workload, env, plan)?;
        println!("# samples per round: {:?}", e2e.samples_per_round);
        println!("# p50 per round, ms: {:.4?}", e2e.p50_per_round);
        println!("# p95 per round, ms: {:.4?}", e2e.p95_per_round);
        for (name, value) in &e2e.metrics {
            println!(
                "{name:<36} {value:>16.4} {}",
                spec::unit_of(name).unwrap_or("")
            );
        }
        result_line(&e2e.metrics, e2e.attempted, e2e.failed)
    };
    println!("{line}");
    Ok(())
}

/// One workload's result, parsed back from a child's last line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildResult {
    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Run one workload in a child process and wait for it.
fn spawn_run(workload: &str, args: &Args, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.arg("run")
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("child printed nothing")?;
    let v = json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    validate::result_shape(&v).map_err(|e| format!("{workload}: result line: {e}"))?;
    let num = |key: &str| v.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64;
    Ok(ChildResult {
        correct: v.get("correct").and_then(Value::as_bool).unwrap_or(false),
        attempted: num("attempted"),
        failed: num("failed"),
        metrics: v
            .get("metrics")
            .and_then(Value::as_obj)
            .unwrap_or(&[])
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn command_output(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn print_context(args: &Args) {
    println!(
        "# commit {}, {}, nproc {}, workers {}, native tier {}, seed {}, {} s per run",
        command_output("git", &["rev-parse", "--short", "HEAD"]),
        command_output("rustc", &["--version"]),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        workers(),
        if adaptvm::vm::native_available() {
            "available"
        } else {
            "unavailable"
        },
        args.seed,
        args.seconds,
    );
}

/// Metrics × workloads.
fn print_table(names: &[&'static str], results: &[(&'static str, ChildResult)]) {
    print!("{:<36} {:<7}", "metric", "unit");
    for (workload, _) in results {
        print!(" {workload:>14}");
    }
    println!();
    for name in names {
        print!("{name:<36} {:<7}", spec::unit_of(name).unwrap_or(""));
        for (_, r) in results {
            match r.get(name) {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "-"),
            }
        }
        println!();
    }
}

/// Layer separation the committed baseline must show; `(workload, what,
/// holds)`. Checked on full-size traced runs only.
fn expectations(workload: &str, r: &ChildResult) -> Vec<(String, bool)> {
    let v = |name: &str| r.get(name).unwrap_or(f64::NAN);
    let mut out = Vec::new();
    let jit_counters = [
        "jit.compiles",
        "jit.cache_hits",
        "jit.async_submits",
        "jit.deopts",
        "jit.native_installs",
        "jit.native_deopts",
        "jit.trace_executions",
        "jit.native_executions",
    ];
    match workload {
        "q1_scan" | "q9_join" | "q18_resident" | "q18_spill" => out.push((
            "every jit.* counter is 0".to_string(),
            jit_counters.iter().all(|c| v(c) == 0.0),
        )),
        "vm_cold" => out.push((
            "jit.compiles ≥ 1 per operation".to_string(),
            v("jit.compiles") >= 1.0,
        )),
        _ => {}
    }
    match workload {
        "q18_resident" => out.push((
            "no spill byte is written".to_string(),
            v("storage.spill_bytes_written") == 0.0,
        )),
        "q18_spill" => out.push((
            "partitions both stay resident and spill".to_string(),
            v("storage.spill_bytes_written") > 0.0
                && v("parallel.budget_charges") > 0.0
                && v("parallel.budget_refusals") > 0.0
                && v("relational.partitions_spilled") >= 1.0,
        )),
        "serve_mix" => out.push(("serve.refused is 0".to_string(), v("serve.refused") == 0.0)),
        _ => {}
    }
    out
}

/// Every workload, each in its own child process.
fn run_all(args: &Args) -> Result<bool, String> {
    print_context(args);
    let mut ok = true;
    let mut e2e_results = Vec::new();
    let mut layer_results = Vec::new();
    for (workload, _) in spec::WORKLOADS {
        let r = spawn_run(workload, args, false)?;
        println!(
            "# {workload}: {} attempted, {} failed",
            r.attempted, r.failed
        );
        ok &= r.correct;
        e2e_results.push((workload, r));
        if args.layers {
            let r = spawn_run(workload, args, true)?;
            ok &= r.correct;
            layer_results.push((workload, r));
        }
    }
    let e2e_names: Vec<&'static str> = spec::END_TO_END.iter().map(|m| m.0).collect();
    println!();
    print_table(&e2e_names, &e2e_results);
    print!("{:<36} {:<7}", "failed_share", "ratio");
    for (_, r) in &e2e_results {
        print!(" {:>14.4}", r.failed as f64 / r.attempted.max(1) as f64);
    }
    println!();
    if args.layers {
        let layer_names: Vec<&'static str> = spec::PER_LAYER.iter().map(|m| m.0).collect();
        println!();
        print_table(&layer_names, &layer_results);
        println!();
        for (workload, r) in &layer_results {
            let top = spec::SPAN_LAYERS
                .iter()
                .filter(|(layer, _)| *layer != "bench")
                .map(|(layer, metric)| (layer, r.get(metric).unwrap_or(0.0)))
                .max_by(|a, b| a.1.total_cmp(&b.1));
            if let Some((layer, ms)) = top {
                println!(
                    "# {workload}: top layer by self time is {layer} ({ms:.3} ms per operation)"
                );
            }
            if !args.smoke {
                for (what, holds) in expectations(workload, r) {
                    println!(
                        "# {workload}: {what}: {}",
                        if holds { "ok" } else { "VIOLATED" }
                    );
                    ok &= holds;
                }
            }
        }
    }
    Ok(ok)
}

/// Two end-to-end passes of the same code, in opposite workload order:
/// every metric × workload must agree within the metric's own bound.
/// Then two traced runs per closed-loop workload: the counters that must
/// repeat exactly are compared, the spread of the others is shown.
fn run_aa(args: &Args) -> Result<bool, String> {
    print_context(args);
    let mut ok = true;
    let forward: Vec<&'static str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    let mut a = Vec::new();
    for w in &forward {
        a.push((*w, spawn_run(w, args, false)?));
    }
    let mut b = Vec::new();
    for w in forward.iter().rev() {
        b.push((*w, spawn_run(w, args, false)?));
    }
    b.reverse();
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "second", "gap", "bound"
    );
    for ((workload, ra), (_, rb)) in a.iter().zip(&b) {
        ok &= ra.correct && rb.correct;
        for (name, _, _, bound) in spec::END_TO_END {
            let (va, vb) = (ra.get(name).unwrap_or(0.0), rb.get(name).unwrap_or(0.0));
            let gap = stats::relative_gap(va, vb);
            let within = gap <= bound;
            ok &= within;
            println!(
                "{workload:<14} {name:<16} {va:>14.4} {vb:>14.4} {gap:>8.4} {bound:>6.2}{}",
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    println!();
    for workload in forward.iter().filter(|w| **w != "serve_mix") {
        let first = spawn_run(workload, args, true)?;
        let second = spawn_run(workload, args, true)?;
        for name in spec::EXACT_COUNTERS {
            let (va, vb) = (first.get(name), second.get(name));
            let same = va == vb;
            ok &= same;
            println!(
                "{workload:<14} {name:<32} {:>14} {:>14}  {}",
                va.unwrap_or(f64::NAN),
                vb.unwrap_or(f64::NAN),
                if same { "repeats" } else { "DIFFERS" }
            );
        }
        // Background compilation makes these timing-dependent.
        for (name, ..) in spec::PER_LAYER.iter().filter(|m| m.0.starts_with("jit.")) {
            let (va, vb) = (
                first.get(name).unwrap_or(0.0),
                second.get(name).unwrap_or(0.0),
            );
            if va != 0.0 || vb != 0.0 {
                println!(
                    "{workload:<14} {name:<32} {va:>14.4} {vb:>14.4}  spread {:.4}",
                    stats::relative_gap(va, vb)
                );
            }
        }
    }
    Ok(ok)
}

/// Validate `BENCHMARK.json` against the spec and the contract's limits,
/// then every workload's emitted result (smoke size) against it.
fn run_check() -> Result<bool, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let manifest = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    validate::manifest(&manifest)?;
    let args = Args {
        workload: None,
        seed: 1,
        seconds: CHECK_SECONDS,
        trace: false,
        layers: true,
        smoke: true,
    };
    for (workload, _) in spec::WORKLOADS {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = spawn_run(workload, &args, trace)?;
            let expected = validate::metric_names(&manifest, key);
            let got: Vec<&str> = r.metrics.iter().map(|(n, _)| n.as_str()).collect();
            if expected != got {
                return Err(format!(
                    "{workload} --trace {}: emitted metrics differ from BENCHMARK.json {key}",
                    u8::from(trace)
                ));
            }
            if !r.correct {
                return Err(format!(
                    "{workload}: {} of {} failed",
                    r.failed, r.attempted
                ));
            }
        }
        println!("{workload}: ok");
    }
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: adaptvm-benchmark run|aa|check [options] (see benchmark/README.md)");
        return ExitCode::from(2);
    };
    let outcome = parse_args(rest).and_then(|args| match command.as_str() {
        "run" => match &args.workload {
            Some(w) => run_one(w, &args).map(|()| true),
            None => run_all(&args),
        },
        "aa" => run_aa(&args),
        "check" => run_check(),
        other => Err(format!("unknown command {other}")),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
