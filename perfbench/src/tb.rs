//! The Task Bench workloads: repeated validated runs of one generated
//! dependency graph shape on one execution layer.
//!
//! Each repetition generates a fresh graph (its seed derived from the
//! workload seed and the repetition number), executes it, and checks
//! it the way the `taskbench` crate defines correctness: every PE runs
//! `PeSummary::validate` against the serial oracle, and an allreduce of
//! (executed count, output-hash fold, local failures) is compared with
//! the oracle's machine-wide fold. A repetition that fails either check
//! counts all of its tasks as failed. The timed window of a repetition
//! covers execution and validation, so the oracle's cost is part of
//! the reported task rate.

use crate::common::{
    boot_barrier, finish_pe, mix, put, put_latency, time_barriers, trace_room, wall_ns, Ctx, Lines,
    Ops, Outcome,
};
use crate::stats;
use converse_machine::{run_with, Pe, Transport};
use converse_taskbench::exec::{Layer, RunOpts};
use converse_taskbench::{GraphSpec, Pattern, TaskGraph};
use converse_trace::MemorySink;
use std::sync::Arc;
use std::time::Instant;

/// One Task Bench workload: graph shape, layer, transport and edge size.
#[derive(Debug, Clone, Copy)]
pub struct TbSpec {
    pub pattern: Pattern,
    pub width: usize,
    /// Timesteps per repetition graph.
    pub steps: usize,
    /// Timesteps under the reduced test sizes.
    pub small_steps: usize,
    pub layer: Layer,
    pub transport: Transport,
    /// Bytes carried by every dependency edge.
    pub payload: usize,
}

/// `tb-stencil-charm`: per-message overhead through the Charm group
/// layer on the in-process transport.
pub const STENCIL_CHARM: TbSpec = TbSpec {
    pattern: Pattern::Stencil1D,
    width: 8,
    steps: 1000,
    small_steps: 16,
    layer: Layer::Charm,
    transport: Transport::InProcess,
    payload: 16,
};

/// `tb-butterfly-tsm-shm`: payload-bound tSM threads across processes
/// over shared-memory rings.
pub const BUTTERFLY_TSM_SHM: TbSpec = TbSpec {
    pattern: Pattern::Butterfly,
    width: 8,
    steps: 24,
    small_steps: 8,
    layer: Layer::Tsm,
    transport: Transport::ShmRing,
    payload: 64 * 1024,
};

impl TbSpec {
    fn graph_spec(&self, ctx: &Ctx, rep: u64) -> GraphSpec {
        GraphSpec {
            pattern: self.pattern,
            seed: mix(ctx.seed, rep),
            width: self.width,
            steps: if ctx.small {
                self.small_steps
            } else {
                self.steps
            },
        }
    }
}

/// Run the workload in this process; see the module docs.
pub fn run(ctx: &Ctx, spec: TbSpec) -> Outcome {
    let t0_wall = wall_ns();
    let sink = ctx.sink();
    let cfg = ctx.machine(&sink).transport(spec.transport);
    let (c, s) = (ctx.clone(), sink.clone());
    let report = run_with(cfg, move |pe| entry(pe, &c, spec, &s));
    let lines = Lines::parse(&report);
    let mut out = Outcome::default();
    out.common(ctx, t0_wall, &report, &lines);
    let ok = lines.sum("tasks_ok");
    let failed = lines.sum("tasks_failed");
    out.set("attempted", ok + failed);
    out.set("failed", failed);
    if let Some(r) = lines.one("tasks_per_s") {
        out.set("ops_per_s", r);
    }
    if ctx.traced {
        let tasks = (ok + failed).max(1.0);
        out.set(
            "taskbench.msgs_per_task",
            report.total_msgs() as f64 / tasks,
        );
        out.set(
            "taskbench.bytes_per_task",
            report.total_bytes() as f64 / tasks,
        );
        out.set(
            "taskbench.oracle_us_per_task",
            oracle_us_per_task(ctx, spec),
        );
    }
    out
}

/// Median time of `TaskGraph::expected_outputs` on the first
/// repetition's graph, per task. Runs after the machine has stopped.
fn oracle_us_per_task(ctx: &Ctx, spec: TbSpec) -> f64 {
    let graph = TaskGraph::generate(spec.graph_spec(ctx, 0));
    let us: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(graph.expected_outputs(std::hint::black_box(spec.payload)));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us).unwrap_or(0.0) / graph.num_tasks() as f64
}

/// What PE 0 learns from one repetition.
struct Rep {
    seconds: f64,
    tasks: u64,
    ok: bool,
}

/// Execute and validate one repetition graph. Collective.
fn one_rep(pe: &Pe, ops: &Ops, spec: TbSpec, opts: &RunOpts, graph: GraphSpec) -> Rep {
    let graph = Arc::new(TaskGraph::generate(graph));
    pe.barrier();
    let t0 = Instant::now();
    let summary = spec.layer.run(pe, &graph, opts);
    let local_bad = u64::from(summary.validate(&graph, opts.payload_bytes).is_err());
    let (count, fold) = summary.fold();
    let sums = ops.all(pe, ops.sum, &[count, local_bad]);
    let folded = ops.all(pe, ops.xor, &[fold])[0];
    let tasks = graph.num_tasks() as u64;
    // PE 0 alone checks the machine-wide fold; the others' verdict is
    // not used.
    let ok = pe.my_pe() != 0
        || (sums[1] == 0 && sums[0] == tasks && folded == graph.expected_fold(opts.payload_bytes));
    Rep {
        seconds: t0.elapsed().as_secs_f64(),
        tasks,
        ok,
    }
}

fn entry(pe: &Pe, ctx: &Ctx, spec: TbSpec, sink: &Option<Arc<MemorySink>>) {
    let ops = Ops::register(pe);
    let opts = RunOpts {
        payload_bytes: spec.payload,
        ..RunOpts::default()
    };
    boot_barrier(pe);
    if ctx.probe {
        finish_pe(pe, sink);
        return;
    }
    time_barriers(pe);
    let (mut ok_tasks, mut bad_tasks) = (0u64, 0u64);
    let mut tally = |r: &Rep| {
        if r.ok {
            ok_tasks += r.tasks
        } else {
            bad_tasks += r.tasks
        }
    };
    // Warm-up repetition: validated and counted, not timed. It fills
    // the thread-stack and buffer pools, and sizes the traced phase.
    tally(&one_rep(pe, &ops, spec, &opts, spec.graph_spec(ctx, 0)));
    let room = trace_room(pe, &ops, sink, 1);
    let mut rates = Vec::new();
    let mut lat_us = Vec::new();
    let t0 = Instant::now();
    let mut done = 0u64;
    loop {
        let go = pe.bcast_bytes(
            0,
            (pe.my_pe() == 0).then(|| vec![u8::from(ctx.budget.more(t0, done) && done < room)]),
        );
        if go[0] == 0 {
            break;
        }
        let r = one_rep(pe, &ops, spec, &opts, spec.graph_spec(ctx, done + 1));
        done += 1;
        tally(&r);
        if r.ok {
            rates.push(r.tasks as f64 / r.seconds);
        }
        lat_us.push(r.seconds * 1e6);
    }
    if pe.my_pe() == 0 {
        put(pe, "tasks_ok", ok_tasks as f64);
        put(pe, "tasks_failed", bad_tasks as f64);
        if let Some(m) = stats::median(&rates) {
            put(pe, "tasks_per_s", m);
        }
        put_latency(pe, vec![lat_us]);
    }
    finish_pe(pe, sink);
}
