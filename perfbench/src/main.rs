//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tb-stencil-charm --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One invocation runs one workload and prints, as the last line of
//! standard output, a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Lines before it, each starting
//! with `#`, give the provenance of the run and each metric's detail.
//!
//! The process is an orchestrator. Every machine boots in a child
//! process of its own (`--child probe|run`), because the wire
//! transports re-execute the binary per rank and replay every earlier
//! machine of the process:
//!
//! * `--trace 0`: [`SETUP_PROBES`] probe children each prepare the
//!   workload, boot its machine to the first barrier and tear it down
//!   (`setup_s` is the median time to the barrier), then one run child
//!   measures for `--seconds`.
//! * `--trace 1`: an untraced and a traced run child split `--seconds`;
//!   the traced one reports the layer counters, and the pair gives the
//!   cost of tracing itself.
//!
//! See `README.md` beside this file for the workloads, the metrics and
//! which end-to-end metric each layer metric should move.

mod ccs;
mod common;
mod stats;
mod stream;
mod tb;

use common::{Budget, Ctx, Outcome};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// PEs of every workload's machine.
pub const NPROC: usize = 2;
/// Set-up probes per `--trace 0` invocation.
pub const SETUP_PROBES: usize = 21;
/// Every invocation ends within this long; children still running
/// after it are killed and the invocation fails.
const DEADLINE: Duration = Duration::from_secs(170);

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub transport: &'static str,
    pub run: fn(&Ctx) -> Outcome,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "tb-stencil-charm",
        transport: "inproc",
        run: |c| tb::run(c, tb::STENCIL_CHARM),
    },
    Workload {
        name: "tb-butterfly-tsm-shm",
        transport: "shmring",
        run: |c| tb::run(c, tb::BUTTERFLY_TSM_SHM),
    },
    Workload {
        name: "lossy-stream-socket",
        transport: "socket",
        run: stream::run,
    },
    Workload {
        name: "ccs-echo",
        transport: "inproc",
        run: ccs::run,
    },
];

/// A reported metric: name, unit, and which direction is better.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// Printed by `--trace 0` runs.
pub const END_TO_END: [Metric; 5] = [
    m("ops_per_s", "1/s", true),
    m("latency_p50_us", "us", false),
    m("latency_tail_us", "us", false),
    m("setup_s", "s", false),
    m("peak_rss_mib", "MiB", false),
];

/// Printed by `--trace 1` runs; 0 where a workload does not load the
/// layer.
pub const PER_LAYER: [Metric; 18] = [
    m("taskbench.oracle_us_per_task", "us", false),
    m("taskbench.msgs_per_task", "count", false),
    m("taskbench.bytes_per_task", "B", false),
    m("core.handler_busy_frac", "frac", true),
    m("core.batch_drained_mean", "count", true),
    m("core.idle_spins_per_batch", "count", false),
    m("msg.pool_hit_frac", "frac", true),
    m("threads.stack_pool_miss_frac", "frac", false),
    m("threads.direct_handoff_frac", "frac", true),
    m("machine.send_ns_p50", "ns", false),
    m("machine.barrier_us_p50", "us", false),
    m("net.retx_per_drop", "count", false),
    m("net.delivered_per_tx", "frac", true),
    m("net.dedup_per_msg", "count", false),
    m("ccs.inbound_us_p50", "us", false),
    m("ccs.outbound_us_p50", "us", false),
    m("trace.overhead_frac", "frac", false),
    m("trace.dropped_records", "count", false),
];

/// A command line, parsed and checked.
#[derive(Debug, Clone)]
struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `Some(probe)` in a child process.
    child: Option<bool>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut kv: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {k:?}"))?;
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(key, v);
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let name = get("workload")?;
    let workload = WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {names:?}")
    })?;
    let seed = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let trace = match get("trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
    };
    let child = match kv.get("child").copied() {
        None => None,
        Some("probe") => Some(true),
        Some("run") => Some(false),
        Some(c) => return Err(format!("--child must be probe or run, not {c:?}")),
    };
    for k in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "child"].contains(k) {
            return Err(format!("unknown flag --{k}"));
        }
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        child,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match args.child {
        Some(probe) => {
            let out = (args.workload.run)(&Ctx {
                seed: args.seed,
                probe,
                traced: args.trace,
                budget: Budget::Time(Duration::from_secs_f64(args.seconds)),
                small: false,
            });
            for (k, v) in &out.values {
                println!("PBOUT {k} {v}");
            }
            ExitCode::SUCCESS
        }
        None => match orchestrate(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Run one child process and collect its `PBOUT` values.
fn child(
    args: &Args,
    probe: bool,
    trace: bool,
    seconds: f64,
    t0: Instant,
) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        args.workload.name,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
        "--child",
        if probe { "probe" } else { "run" },
    ])
    .stdin(Stdio::null())
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    let mut proc = cmd.spawn().map_err(|e| format!("spawn child: {e}"))?;
    let mut stdout = proc.stdout.take().expect("piped child stdout");
    // Read on a thread so a chatty child cannot block on a full pipe
    // while this one polls for its exit.
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let status = loop {
        match proc.try_wait() {
            Ok(Some(st)) => break st,
            Ok(None) if t0.elapsed() >= DEADLINE => {
                let _ = proc.kill();
                let _ = proc.wait();
                let _ = reader.join();
                return Err(format!("child run exceeded {DEADLINE:?}; killed"));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => return Err(format!("wait for child: {e}")),
        }
    };
    let text = reader.join().map_err(|_| "child stdout reader panicked")?;
    if !status.success() {
        return Err(format!("child run failed: {status}"));
    }
    let mut out = Outcome::default();
    for l in text.lines() {
        let mut f = l.split_whitespace();
        if let (Some("PBOUT"), Some(k), Some(v)) = (f.next(), f.next(), f.next()) {
            let v: f64 = v.parse().map_err(|e| format!("child value {l:?}: {e}"))?;
            out.set(k, v);
        }
    }
    Ok(out)
}

/// Trimmed output of a short command, or "unknown". Git stops its
/// search at the working directory, so a checkout that is not itself a
/// repository reports "unknown", not an enclosing repository's commit.
fn command_line(cmd: &str, args: &[&str]) -> String {
    let mut c = Command::new(cmd);
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        c.env("GIT_CEILING_DIRECTORIES", parent);
    }
    c.args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", NPROC.to_string()),
        (
            "host_cpus",
            std::thread::available_parallelism()
                .map(|n| n.get().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        ),
        ("transport", args.workload.transport.to_string()),
        ("commit", command_line("git", &["rev-parse", "HEAD"])),
        ("rustc", command_line("rustc", &["--version"])),
    ]
}

fn orchestrate(args: &Args) -> Result<(), String> {
    let t0 = Instant::now();
    for (k, v) in provenance(args) {
        println!("# provenance {k}: {v}");
    }
    let mut metrics: Vec<(&Metric, f64)> = Vec::new();
    let mut runs: Vec<Outcome> = Vec::new();
    if !args.trace {
        let (mut setup, mut teardown) = (Vec::new(), Vec::new());
        for _ in 0..SETUP_PROBES {
            let p = child(args, true, false, args.seconds, t0)?;
            setup.push(p.get("setup_s").ok_or("probe reported no setup_s")?);
            teardown.extend(p.get("teardown_s"));
        }
        let run = child(args, false, false, args.seconds, t0)?;
        let need = |k: &str| {
            run.get(k)
                .ok_or_else(|| format!("{} reported no {k}", args.workload.name))
        };
        for metric in &END_TO_END {
            let v = match metric.name {
                "setup_s" => stats::median(&setup).expect("at least one probe"),
                "latency_p50_us" => need("lat_p50_us")?,
                "latency_tail_us" => need("lat_tail_us")?,
                name => need(name)?,
            };
            metrics.push((metric, v));
        }
        println!(
            "# latency: p50 of {} samples; tail: median over {} blocks of each block's p{}",
            run.get("lat_n").unwrap_or(0.0),
            run.get("lat_blocks").unwrap_or(0.0),
            run.get("lat_tail_pct").unwrap_or(0.0),
        );
        println!(
            "# setup: median of {} probes; teardown (not in setup_s): median {:.4} s",
            setup.len(),
            stats::median(&teardown).unwrap_or(0.0)
        );
        runs.push(run);
    } else {
        let plain = child(args, false, false, args.seconds / 2.0, t0)?;
        let traced = child(args, false, true, args.seconds / 2.0, t0)?;
        let overhead = match (plain.get("ops_per_s"), traced.get("ops_per_s")) {
            (Some(p), Some(t)) if p > 0.0 => 1.0 - t / p,
            _ => return Err("a run reported no ops_per_s".into()),
        };
        for metric in &PER_LAYER {
            let v = match metric.name {
                "trace.overhead_frac" => overhead,
                n => traced.get(n).unwrap_or(0.0),
            };
            metrics.push((metric, v));
        }
        runs.push(plain);
        runs.push(traced);
    }
    let attempted: f64 = runs.iter().map(|r| r.get("attempted").unwrap_or(0.0)).sum();
    let failed: f64 = runs.iter().map(|r| r.get("failed").unwrap_or(0.0)).sum();
    if let Some((m, v)) = metrics.iter().find(|(_, v)| !v.is_finite()) {
        return Err(format!("{} is {v}", m.name));
    }
    for (metric, v) in &metrics {
        println!(
            "# {:<30} {:>16.4} {:<6} ({} is better)",
            metric.name,
            v,
            metric.unit,
            if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            }
        );
    }
    println!("# failed_ops_frac: {}", common::ratio(failed, attempted));
    let attempted = attempted as u64;
    let failed = failed as u64;
    println!("{}", render(attempted.max(1), failed, &metrics));
    Ok(())
}

/// The result line.
fn render(attempted: u64, failed: u64, metrics: &[(&Metric, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_and_workload_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name));
        for n in names {
            assert!(valid_name(n), "{n:?} does not match [A-Za-z0-9_.-]+");
            assert!(seen.insert(n), "{n:?} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {:?}",
                m.unit
            );
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return; // the benchmark directory alone, without the repository
        };
        let quoted = |n: &str| format!("\"name\": \"{n}\"");
        let listed = text.matches("\"name\":").count();
        let ours = END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len();
        assert_eq!(
            listed, ours,
            "BENCHMARK.json names {listed}, the code {ours}"
        );
        for n in END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
        {
            assert!(text.contains(&quoted(n)), "BENCHMARK.json lacks {n:?}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let a = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        assert!(a("--workload ccs-echo --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(a("--workload nope --seed 3 --seconds 10 --trace 1").is_err());
        assert!(a("--workload ccs-echo --seed x --seconds 10 --trace 1").is_err());
        assert!(a("--workload ccs-echo --seed 3 --seconds 0 --trace 1").is_err());
        assert!(a("--workload ccs-echo --seed 3 --seconds 10 --trace 2").is_err());
        assert!(a("--workload ccs-echo --seed 3 --seconds 10").is_err());
        assert!(a("--workload ccs-echo --seed 3 --seconds 10 --trace 0 --x 1").is_err());
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let line = render(10, 0, &[(&END_TO_END[0], 1.5), (&END_TO_END[3], 0.25)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    fn small(seed: u64, traced: bool, ops: u64) -> Ctx {
        Ctx {
            seed,
            probe: false,
            traced,
            budget: Budget::Count(ops),
            small: true,
        }
    }

    /// Every workload at reduced size on a second seed: no failures.
    fn run_small(name: &str) -> Outcome {
        let w = WORKLOADS.iter().find(|w| w.name == name).expect("workload");
        let out = (w.run)(&small(7, false, 4));
        assert!(out.get("attempted").unwrap_or(0.0) > 0.0, "{name}: {out:?}");
        assert_eq!(out.get("failed"), Some(0.0), "{name}: {out:?}");
        for k in ["ops_per_s", "lat_p50_us", "setup_s", "peak_rss_mib"] {
            assert!(
                out.get(k).is_some_and(|v| v > 0.0),
                "{name}: {k} in {out:?}"
            );
        }
        out
    }

    #[test]
    fn tb_stencil_charm_small() {
        run_small("tb-stencil-charm");
    }

    #[test]
    fn tb_butterfly_tsm_shm_small() {
        run_small("tb-butterfly-tsm-shm");
    }

    #[test]
    fn lossy_stream_socket_small() {
        let out = run_small("lossy-stream-socket");
        assert!(out.get("stream_msgs").is_some_and(|n| n > 0.0));
    }

    #[test]
    fn ccs_echo_small() {
        run_small("ccs-echo");
    }

    #[test]
    fn probes_boot_and_tear_down() {
        let mut ctx = small(7, false, 1);
        ctx.probe = true;
        for name in ["tb-stencil-charm", "ccs-echo"] {
            let w = WORKLOADS.iter().find(|w| w.name == name).expect("workload");
            let out = (w.run)(&ctx);
            assert!(
                out.get("setup_s").is_some_and(|v| v > 0.0),
                "{name}: {out:?}"
            );
            assert_eq!(out.get("attempted").unwrap_or(0.0), 0.0, "{name}");
        }
    }

    /// Tracing observes the run; it must not change the work done.
    #[test]
    fn traced_and_untraced_runs_do_identical_work() {
        for (name, ops) in [("tb-stencil-charm", 3), ("ccs-echo", 3)] {
            let w = WORKLOADS.iter().find(|w| w.name == name).expect("workload");
            let plain = (w.run)(&small(11, false, ops));
            let traced = (w.run)(&small(11, true, ops));
            // Attempted operations are tasks on Task Bench and requests
            // on CCS; logical messages count every send the machine made.
            for k in ["attempted", "logical_msgs"] {
                assert_eq!(plain.get(k), traced.get(k), "{name}: {k}");
            }
            assert!(traced
                .get("core.handler_busy_frac")
                .is_some_and(|v| v > 0.0));
            assert_eq!(traced.get("trace.dropped_records"), Some(0.0));
        }
    }
}
