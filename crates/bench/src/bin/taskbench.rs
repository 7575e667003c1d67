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
//! Fresh matrix overheads are gated (`converse_bench::report`) against
//! the checked-in `BENCH_taskbench.json` at 3× + 50 µs slack — per-task
//! overheads are tens of µs and jittery on shared/oversubscribed
//! hosts, and the gate exists to catch order-of-magnitude runtime
//! regressions, not scheduler weather. `BENCH_SMOKE=1` runs the
//! reduced CI matrix (subset of cells, 3 reps).
//!
//! ```sh
//! cargo run --release -p converse-bench --bin taskbench
//! cargo run --release -p converse-bench --bin taskbench -- --list-patterns
//! cargo run --release -p converse-bench --bin taskbench -- --dry-run
//! ```

use converse_bench::report::{self, Better, Bound, Report, Row};
use converse_bench::transport_label;
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

/// One validated measurement, pushed as elapsed, per-task and overhead
/// rows: run `pattern` on `layer`, `reps` times in one machine, take the
/// fastest rep. The elapsed window is the
/// adapter call itself (registration + barriers + execution), timed on
/// PE 0 between machine-wide barriers; every rep validates machine-wide
/// before its time can count.
#[allow(clippy::too_many_arguments)] // one arg per matrix axis
fn cell(
    out: &mut Report,
    layer: Layer,
    pattern: Pattern,
    pes: usize,
    transport: Transport,
    grain_ns: u64,
    payload_bytes: usize,
    reps: usize,
    kind: &'static str,
) {
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
    let row = |metric, value| {
        Row::new(kind, metric, "ns", Better::Lower, value)
            .with("layer", layer.label())
            .with("pattern", pattern.label())
            .with("pes", pes)
            .with("transport", transport_label(transport))
            .with("grain_ns", grain_ns)
            .with("payload_bytes", payload_bytes)
            .with("tasks", tasks)
            .with("width", WIDTH)
            .with("steps", STEPS)
            .with("seed", SEED)
    };
    out.push(row("elapsed", elapsed_ns as f64));
    out.push(row("per_task", per_task_ns));
    out.push(row("overhead", per_task_ns - grain_ns as f64));
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

    let smoke = report::smoke();
    let reps = if smoke { 3 } else { 5 };
    let mut report = Report::new(
        "taskbench",
        &format!(
            "task bench matrix: width {WIDTH}, steps {STEPS}, seed {SEED}{}",
            if smoke { " (smoke subset)" } else { "" }
        ),
    );

    // Transport axis first: socket/shmring workers re-exec this binary
    // and replay earlier wire calls in-process, so the cheap wire cells
    // must precede the heavy in-process matrix, not follow it.
    if !smoke {
        for layer in Layer::ALL {
            cell(
                &mut report,
                layer,
                Pattern::Stencil1D,
                4,
                Transport::Socket,
                0,
                16,
                1,
                "socket",
            );
        }
        for layer in Layer::ALL {
            cell(
                &mut report,
                layer,
                Pattern::Stencil1D,
                4,
                Transport::ShmRing,
                0,
                16,
                1,
                "shmring",
            );
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
                cell(
                    &mut report,
                    layer,
                    pattern,
                    MATRIX_PES,
                    Transport::InProcess,
                    grain_ns,
                    16,
                    reps,
                    "matrix",
                );
            }
        }
    }

    if !smoke {
        // Message-size axis: the payload is hashed end-to-end by every
        // consumer, so this prices real byte movement, not headers.
        for layer in Layer::ALL {
            for &payload_bytes in &PAYLOADS[1..] {
                cell(
                    &mut report,
                    layer,
                    Pattern::Stencil1D,
                    MATRIX_PES,
                    Transport::InProcess,
                    0,
                    payload_bytes,
                    reps,
                    "payload",
                );
            }
        }
        // PE-count axis at a fixed 1 µs grain.
        for layer in Layer::ALL {
            for &pes in &SCALE_PES {
                cell(
                    &mut report,
                    layer,
                    Pattern::Stencil1D,
                    pes,
                    Transport::InProcess,
                    1_000,
                    16,
                    reps,
                    "scale",
                );
            }
        }
    }

    // Regression gate on the core matrix rows: per-task overhead vs
    // the checked-in baseline at 3x + 50 µs slack.
    report.bound(Bound::Baseline {
        rows: |r| r.case == "matrix" && r.metric == "overhead",
        factor: 3.0,
        slack: 50_000.0,
    });
    report.finish();
}
