//! Task Bench workload matrix: per-task overhead curves for the
//! Converse execution layers over generated dependency graphs.
//!
//! One driver walks `pattern × grain × payload × PEs × layer ×
//! transport` (see `converse-taskbench` for the generator and the
//! layer adapters) and reports **per-task overhead**: aggregate
//! PE-time per task minus the task's own busy-work grain. As the grain
//! shrinks toward zero the curve exposes what the runtime itself
//! costs per task — the Task Bench methodology, pointed at the
//! Charm-style chare layer and the tSM thread layer side by side.
//!
//! Every cell **validates before it reports**: each task's output is a
//! hash chained over its predecessors' transmitted payload bytes, and
//! a machine-wide allreduce compares against the generator's serial
//! oracle — so a wrong schedule, a lost dependency, or a truncated
//! payload fails the bench loudly rather than producing a fast number.
//!
//! Results land in `BENCH_taskbench.json`; fresh overheads are gated
//! against the checked-in baseline (3× + 50 µs slack — per-task
//! overheads are tens of µs and jittery on shared/oversubscribed
//! hosts, and the gate exists to catch order-of-magnitude runtime
//! regressions, not scheduler weather). Set
//! `TASKBENCH_GATE=off` to re-baseline, `TASKBENCH_SMOKE=1` for the
//! reduced CI matrix (subset of cells, 1 rep, no JSON rewrite).
//!
//! ```sh
//! cargo run --release -p converse-bench --bin taskbench
//! cargo run --release -p converse-bench --bin taskbench -- --list-patterns
//! cargo run --release -p converse-bench --bin taskbench -- --dry-run
//! ```

use converse_machine::{run_with, MachineConfig, Transport};
use converse_taskbench::exec::{assert_machine_valid, Layer, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use std::sync::Arc;
use std::time::Instant;

/// Graph shape of every measured cell: identical in full and smoke
/// runs, so smoke rows stay comparable with the checked-in baseline.
const WIDTH: usize = 8;
const STEPS: usize = 12;
const SEED: u64 = 1996;
const GRAINS: [u64; 3] = [0, 1_000, 10_000];
const PAYLOADS: [usize; 3] = [16, 1024, 65536];
const SCALE_PES: [usize; 4] = [1, 2, 4, 8];
const MATRIX_PES: usize = 8;

struct Row {
    kind: &'static str,
    layer: &'static str,
    pattern: &'static str,
    pes: usize,
    transport: &'static str,
    grain_ns: u64,
    payload_bytes: usize,
    tasks: usize,
    elapsed_ns: u64,
    per_task_ns: f64,
    overhead_ns: f64,
}

/// One validated measurement: run `pattern` on `layer`, `reps` times in
/// one machine, take the fastest rep. The elapsed window is the
/// adapter call itself (registration + barriers + execution), timed on
/// PE 0 between machine-wide barriers; every rep validates machine-wide
/// before its time can count.
#[allow(clippy::too_many_arguments)] // one arg per matrix axis
fn cell(
    layer: Layer,
    pattern: Pattern,
    pes: usize,
    transport: Transport,
    grain_ns: u64,
    payload_bytes: usize,
    reps: usize,
    kind: &'static str,
) -> Row {
    let graph = Arc::new(TaskGraph::generate(GraphSpec {
        pattern,
        seed: SEED,
        width: WIDTH,
        steps: STEPS,
    }));
    let g = graph.clone();
    let report = run_with(
        MachineConfig::new(pes)
            .transport(transport)
            .capture_output(),
        move |pe| {
            let opts = RunOpts {
                grain_ns,
                payload_bytes,
                ..RunOpts::default()
            };
            let mut best = u64::MAX;
            // One untimed warmup rep: the first tSM run on a fresh
            // machine pays for every thread stack the pool will later
            // recycle (~1 ms/task cold vs ~60 µs warm), which would
            // otherwise dominate single-rep smoke cells.
            for rep in 0..reps + 1 {
                pe.barrier();
                let t0 = Instant::now();
                let summary = layer.run(pe, &g, &opts);
                let dt = t0.elapsed().as_nanos() as u64;
                // No number leaves a cell unvalidated: exactly-once
                // execution + dependency-order hashes, machine-wide.
                assert_machine_valid(pe, &g, &summary, opts.payload_bytes);
                if rep > 0 {
                    best = best.min(dt);
                }
            }
            if pe.my_pe() == 0 {
                pe.cmi_printf(format!("CELL_NS {best}"));
            }
        },
    );
    let elapsed_ns: u64 = report
        .output
        .iter()
        .find_map(|l| l.strip_prefix("CELL_NS "))
        .expect("CELL_NS line in captured output")
        .trim()
        .parse()
        .expect("numeric CELL_NS");
    let tasks = graph.num_tasks();
    // Aggregate PE-time per task: with `width == pes` one task per PE
    // per level, this reduces to elapsed/levels = grain + overhead.
    let per_task_ns = elapsed_ns as f64 * pes as f64 / tasks as f64;
    Row {
        kind,
        layer: layer.label(),
        pattern: pattern.label(),
        pes,
        transport: match transport {
            Transport::InProcess => "inproc",
            Transport::Socket => "socket",
            Transport::ShmRing => "shmring",
        },
        grain_ns,
        payload_bytes,
        tasks,
        elapsed_ns,
        per_task_ns,
        overhead_ns: per_task_ns - grain_ns as f64,
    }
}

fn print_row(quiet: bool, r: &Row) {
    if !quiet {
        println!(
            "{:>8} {:>6} {:>10} {:>3} {:>7} {:>9} {:>8} {:>6} {:>12.0} {:>12.0}",
            r.kind,
            r.layer,
            r.pattern,
            r.pes,
            r.transport,
            r.grain_ns,
            r.payload_bytes,
            r.tasks,
            r.per_task_ns,
            r.overhead_ns
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-patterns") {
        for p in Pattern::ALL {
            println!("{}", p.label());
        }
        return;
    }
    if args.iter().any(|a| a == "--dry-run") {
        // Generate + structurally validate every pattern at every
        // matrix shape, no machine runs — the graph-generation path CI
        // exercises even where benches are skipped.
        let mut graphs = 0usize;
        let mut tasks = 0usize;
        for pattern in Pattern::ALL {
            for seed in [1u64, 7, 1996] {
                for (w, s) in [(WIDTH, STEPS), (4, 6), (16, 3)] {
                    let g = TaskGraph::generate(GraphSpec {
                        pattern,
                        seed,
                        width: w,
                        steps: s,
                    });
                    g.validate_structure()
                        .unwrap_or_else(|e| panic!("{} seed {seed} {w}x{s}: {e}", pattern.label()));
                    graphs += 1;
                    tasks += g.num_tasks();
                }
            }
        }
        println!("dry run: {graphs} graphs generated and validated ({tasks} tasks)");
        return;
    }
    if let Some(a) = args.first() {
        eprintln!("unknown argument {a}; flags: --list-patterns, --dry-run");
        std::process::exit(2);
    }

    // Socket-transport workers re-execute this main() up to the run
    // they were spawned for; replayed measurements are side-effects,
    // not results, so they stay silent.
    let quiet = converse_machine::in_socket_worker();
    let gate_on = std::env::var("TASKBENCH_GATE")
        .map(|v| v != "off")
        .unwrap_or(true);
    let smoke = std::env::var("TASKBENCH_SMOKE")
        .map(|v| v == "1")
        .unwrap_or(false);
    let baseline = std::fs::read_to_string("BENCH_taskbench.json").ok();
    let reps = if smoke { 3 } else { 5 };

    if !quiet {
        println!(
            "task bench matrix: width {WIDTH}, steps {STEPS}, seed {SEED}{}\n",
            if smoke { " (smoke subset)" } else { "" }
        );
        println!(
            "{:>8} {:>6} {:>10} {:>3} {:>7} {:>9} {:>8} {:>6} {:>12} {:>12}",
            "kind",
            "layer",
            "pattern",
            "pes",
            "transp",
            "grain_ns",
            "payload",
            "tasks",
            "per_task_ns",
            "overhead_ns"
        );
    }
    let mut rows: Vec<Row> = Vec::new();

    // Transport axis first: socket/shmring workers re-exec this binary
    // and replay earlier wire calls in-process, so the cheap wire cells
    // must precede the heavy in-process matrix, not follow it.
    if !smoke {
        for layer in Layer::ALL {
            let r = cell(
                layer,
                Pattern::Stencil1D,
                4,
                Transport::Socket,
                0,
                16,
                1,
                "socket",
            );
            print_row(quiet, &r);
            rows.push(r);
        }
        for layer in Layer::ALL {
            let r = cell(
                layer,
                Pattern::Stencil1D,
                4,
                Transport::ShmRing,
                0,
                16,
                1,
                "shmring",
            );
            print_row(quiet, &r);
            rows.push(r);
        }
    }

    // The gated core: pattern × grain × layer at 8 PEs, in-process.
    let patterns: &[Pattern] = if smoke {
        &[Pattern::Stencil1D, Pattern::Butterfly]
    } else {
        &Pattern::ALL
    };
    let grains: &[u64] = if smoke { &[0, 10_000] } else { &GRAINS };
    for layer in Layer::ALL {
        for &pattern in patterns {
            for &grain_ns in grains {
                let r = cell(
                    layer,
                    pattern,
                    MATRIX_PES,
                    Transport::InProcess,
                    grain_ns,
                    16,
                    reps,
                    "matrix",
                );
                print_row(quiet, &r);
                rows.push(r);
            }
        }
    }

    if !smoke {
        // Message-size axis: the payload is hashed end-to-end by every
        // consumer, so this prices real byte movement, not headers.
        for layer in Layer::ALL {
            for &payload_bytes in &PAYLOADS[1..] {
                let r = cell(
                    layer,
                    Pattern::Stencil1D,
                    MATRIX_PES,
                    Transport::InProcess,
                    0,
                    payload_bytes,
                    reps,
                    "payload",
                );
                print_row(quiet, &r);
                rows.push(r);
            }
        }
        // PE-count axis at a fixed 1 µs grain.
        for layer in Layer::ALL {
            for &pes in &SCALE_PES {
                let r = cell(
                    layer,
                    Pattern::Stencil1D,
                    pes,
                    Transport::InProcess,
                    1_000,
                    16,
                    reps,
                    "scale",
                );
                print_row(quiet, &r);
                rows.push(r);
            }
        }
    }

    // Regression gate on the core matrix rows: per-task overhead vs
    // the checked-in baseline at 2x + 25 µs slack.
    let mut gate_failed = false;
    if let Some(text) = &baseline {
        for (layer, pattern, grain, base) in baseline_rows(text) {
            let Some(fresh) = rows
                .iter()
                .find(|r| {
                    r.kind == "matrix"
                        && r.layer == layer
                        && r.pattern == pattern
                        && r.grain_ns == grain
                })
                .map(|r| r.overhead_ns)
            else {
                continue; // smoke runs measure a subset
            };
            if fresh > base * 3.0 + 50_000.0 {
                eprintln!(
                    "GATE: {layer}/{pattern}@{grain}ns overhead {fresh:.0} ns > baseline \
                     {base:.0} ns by >3x + 50 µs"
                );
                gate_failed = true;
            } else if !quiet {
                println!("gate ok: {layer}/{pattern}@{grain}ns {fresh:.0} ns (baseline {base:.0})");
            }
        }
    } else if !quiet {
        println!("no checked-in BENCH_taskbench.json baseline; gate skipped (first run)");
    }

    if gate_failed {
        if gate_on {
            eprintln!("taskbench regression gate FAILED (set TASKBENCH_GATE=off to re-baseline)");
            std::process::exit(1);
        } else if !quiet {
            println!("gate failures ignored: TASKBENCH_GATE=off");
        }
    }

    // Only a passing (or explicitly ungated) run may rewrite the
    // checked-in baseline the gate compares against.
    if !smoke {
        std::fs::write("BENCH_taskbench.json", render_json(&rows))
            .expect("write BENCH_taskbench.json");
        if !quiet {
            println!("\nwrote BENCH_taskbench.json ({} rows)", rows.len());
        }
    }
}

/// Hand-rolled JSON — the workspace is offline, so no serde.
fn render_json(rows: &[Row]) -> String {
    let mut s = format!(
        "{{\n  \"bench\": \"taskbench\",\n  \"shape\": {{\"width\": {WIDTH}, \"steps\": {STEPS}, \"seed\": {SEED}}},\n  \"results\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"kind\": \"{}\", \"layer\": \"{}\", \"pattern\": \"{}\", \"pes\": {}, \"transport\": \"{}\", \"grain_ns\": {}, \"payload_bytes\": {}, \"tasks\": {}, \"elapsed_ns\": {}, \"per_task_ns\": {:.0}, \"overhead_ns\": {:.0}}}{}\n",
            r.kind,
            r.layer,
            r.pattern,
            r.pes,
            r.transport,
            r.grain_ns,
            r.payload_bytes,
            r.tasks,
            r.elapsed_ns,
            r.per_task_ns,
            r.overhead_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Pull (layer, pattern, grain_ns, overhead_ns) out of the baseline's
/// `"kind": "matrix"` rows with a line scan — same idiom as the other
/// gated benches.
fn baseline_rows(text: &str) -> Vec<(String, String, u64, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if !line.contains("\"kind\": \"matrix\"") {
            continue;
        }
        let grab = |key: &str| -> Option<String> {
            let at = line.find(&format!("\"{key}\":"))?;
            let rest = line[at + key.len() + 3..].trim_start();
            let end = rest.find([',', '}'])?;
            Some(rest[..end].trim().trim_matches('"').to_string())
        };
        let (Some(layer), Some(pattern), Some(grain), Some(overhead)) = (
            grab("layer"),
            grab("pattern"),
            grab("grain_ns"),
            grab("overhead_ns"),
        ) else {
            continue;
        };
        if let (Ok(grain), Ok(overhead)) = (grain.parse(), overhead.parse()) {
            out.push((layer, pattern, grain, overhead));
        }
    }
    out
}
