//! What every workload shares: the run context, the per-PE report
//! lines PEs send back through captured `cmi_printf` output, and the
//! counters read at the end of a PE's entry function.
//!
//! A PE reports `PB <pe> <key> <value>` lines. On the in-process
//! transport they land in the launcher's `RunReport::output` directly;
//! on the wire transports each worker process's lines arrive with its
//! exit report, so the same parser serves both.

use crate::stats;
use converse_machine::coll::CombinerId;
use converse_machine::{MachineConfig, Pe, RunReport};
use converse_trace::{MemorySink, Summary, TraceSink};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Trace records each PE's `MemorySink` may hold. The sink drops its
/// oldest record (a linear shift) once full, so traced phases stop
/// before they reach [`TRACE_FILL`] of this.
pub const TRACE_CAPACITY: usize = 1 << 20;
/// Share of [`TRACE_CAPACITY`] a traced phase may fill.
pub const TRACE_FILL: f64 = 0.8;
/// Timed barriers at the start of every measured run.
pub const BARRIER_SAMPLES: usize = 200;

/// How long a workload's open-ended phase runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Until this much time has passed.
    Time(Duration),
    /// Exactly this many operations (graphs, messages, requests).
    Count(u64),
}

impl Budget {
    /// Whether an open-ended phase that started at `t0` and completed
    /// `done` operations may start another.
    pub fn more(&self, t0: Instant, done: u64) -> bool {
        match *self {
            Budget::Time(d) => t0.elapsed() < d,
            Budget::Count(n) => done < n,
        }
    }
}

/// One run of one workload, as a child process sees it.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Boot, reach the first barrier, tear down — measure nothing.
    pub probe: bool,
    /// Attach a `MemorySink` and report per-layer counters.
    pub traced: bool,
    /// The open-ended phase of the workload.
    pub budget: Budget,
    /// Reduced sizes for the benchmark's own tests.
    pub small: bool,
}

impl Ctx {
    /// The machine configuration every workload starts from: 2 PEs,
    /// captured output and, when traced, a fresh `MemorySink`.
    pub fn machine(&self, sink: &Option<Arc<MemorySink>>) -> MachineConfig {
        let cfg = MachineConfig::new(crate::NPROC).capture_output();
        match sink {
            Some(s) => cfg.trace(s.clone() as Arc<dyn TraceSink>),
            None => cfg,
        }
    }

    /// The trace sink for this run (`None` untraced).
    pub fn sink(&self) -> Option<Arc<MemorySink>> {
        self.traced
            .then(|| MemorySink::new(crate::NPROC, TRACE_CAPACITY))
    }
}

/// Wall-clock nanoseconds since the Unix epoch — comparable across the
/// processes of one host, unlike `Instant`.
pub fn wall_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Peak resident set of this process in KiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Print one report line from a PE.
pub fn put(pe: &Pe, key: &str, value: f64) {
    pe.cmi_printf(format!("PB {} {key} {value}", pe.my_pe()));
}

/// Combiners every workload registers first, in this order, on every
/// PE: element-wise sum, minimum and exclusive-or of `u64` vectors.
pub struct Ops {
    pub sum: CombinerId,
    pub min: CombinerId,
    pub xor: CombinerId,
}

fn u64s(bytes: &[u8]) -> Vec<u64> {
    bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

fn bytes_of(v: &[u64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

impl Ops {
    pub fn register(pe: &Pe) -> Ops {
        let zip = |f: fn(u64, u64) -> u64| {
            move |a: &[u8], b: &[u8]| {
                let out: Vec<u64> = u64s(a)
                    .into_iter()
                    .zip(u64s(b))
                    .map(|(x, y)| f(x, y))
                    .collect();
                bytes_of(&out)
            }
        };
        Ops {
            sum: pe.register_combiner(zip(u64::wrapping_add)),
            min: pe.register_combiner(zip(u64::min)),
            xor: pe.register_combiner(zip(|x, y| x ^ y)),
        }
    }

    /// Machine-wide element-wise reduction of `v` under `op`.
    pub fn all(&self, pe: &Pe, op: CombinerId, v: &[u64]) -> Vec<u64> {
        u64s(&pe.allreduce_bytes(bytes_of(v), op))
    }
}

/// Collective: how many more operations a traced phase may run before
/// some PE's sink fills to [`TRACE_FILL`], judged from the records the
/// `done` operations so far produced. Untraced runs take part in the
/// same collective (and get `u64::MAX`), so both do identical work.
pub fn trace_room(pe: &Pe, ops: &Ops, sink: &Option<Arc<MemorySink>>, done: u64) -> u64 {
    let mine = match sink {
        Some(s) => {
            let used = s.records(pe.my_pe()).len() as f64;
            let per_op = (used / done.max(1) as f64).max(1.0);
            let room = TRACE_CAPACITY as f64 * TRACE_FILL - used;
            (room / per_op).max(0.0) as u64
        }
        None => u64::MAX,
    };
    ops.all(pe, ops.min, &[mine])[0]
}

/// Time [`BARRIER_SAMPLES`] barriers; PE 0 reports the median.
pub fn time_barriers(pe: &Pe) {
    let mut us = Vec::with_capacity(BARRIER_SAMPLES);
    for _ in 0..BARRIER_SAMPLES {
        let t0 = Instant::now();
        pe.barrier();
        us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    if pe.my_pe() == 0 {
        put(pe, "barrier_us_p50", stats::median(&us).unwrap_or(0.0));
    }
}

/// First barrier of every entry: PE 0 stamps the end of boot.
pub fn boot_barrier(pe: &Pe) {
    pe.barrier();
    if pe.my_pe() == 0 {
        put(pe, "boot_wall_ns", wall_ns() as f64);
    }
}

/// PE 0 reports a latency distribution; see [`latency_lines`].
pub fn put_latency(pe: &Pe, blocks: Vec<Vec<f64>>) {
    for (k, v) in latency_lines(blocks) {
        put(pe, k, v);
    }
}

/// The report lines of a latency distribution sampled in blocks: the
/// median of all samples, and as the tail the median over blocks of
/// each block's [`stats::tail`] (blocks of one size share one tail
/// percentile). A burst of host noise then moves one block's tail, not
/// the reported one.
pub fn latency_lines(blocks: Vec<Vec<f64>>) -> Vec<(&'static str, f64)> {
    let all = stats::sorted(blocks.concat());
    if all.is_empty() {
        return vec![("lat_n", 0.0)];
    }
    let mut out = vec![
        ("lat_n", all.len() as f64),
        ("lat_blocks", blocks.len() as f64),
        ("lat_p50_us", stats::nearest_rank(&all, 50.0).0),
    ];
    let tails: Vec<stats::Pctl> = blocks
        .into_iter()
        .filter_map(|b| stats::tail(&stats::sorted(b)))
        .collect();
    let values: Vec<f64> = tails.iter().map(|t| t.value).collect();
    if let (Some(v), Some(pct)) = (
        stats::median(&values),
        tails.iter().map(|t| t.pct).reduce(f64::min),
    ) {
        out.push(("lat_tail_us", v));
        out.push(("lat_tail_pct", pct));
    }
    out
}

/// The last thing every PE does: report the layer counters it can
/// read, its process's peak RSS on the wire transports, and the wall
/// time its entry ended (the start of teardown).
pub fn finish_pe(pe: &Pe, sink: &Option<Arc<MemorySink>>) {
    let pool = pe.msg_pool_stats();
    put(pe, "pool_hits", pool.hits as f64);
    put(pe, "pool_misses", pool.misses as f64);
    let cth = converse_threads::CthRuntime::get(pe);
    let stacks = cth.stack_pool_stats();
    put(pe, "stack_hits", stacks.hits as f64);
    put(pe, "stack_misses", stacks.misses as f64);
    put(pe, "switches", cth.switches() as f64);
    put(pe, "direct_handoffs", cth.direct_handoffs() as f64);
    if let Some(s) = sink {
        let row =
            Summary::from_records(pe.num_pes(), &s.records(pe.my_pe())).pes[pe.my_pe()].clone();
        put(pe, "busy_frac", row.utilization);
        put(pe, "sched_batches", row.sched_batches as f64);
        put(pe, "batch_drained", row.batch_drained as f64);
        put(pe, "idle_spins", row.idle_spins as f64);
        put(pe, "trace_dropped", s.dropped() as f64);
    }
    if pe.transport_name() != "inproc" {
        put(pe, "rss_kib", peak_rss_kib() as f64);
    }
    put(pe, "end_wall_ns", wall_ns() as f64);
}

/// Report lines parsed back out of a run's captured output.
#[derive(Debug, Default)]
pub struct Lines(BTreeMap<String, Vec<f64>>);

impl Lines {
    pub fn parse(report: &RunReport) -> Lines {
        let mut m: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for l in &report.output {
            let mut it = l.split_whitespace();
            if it.next() != Some("PB") {
                continue;
            }
            let (Some(_pe), Some(k), Some(v)) = (it.next(), it.next(), it.next()) else {
                continue;
            };
            if let Ok(v) = v.parse::<f64>() {
                m.entry(k.to_string()).or_default().push(v);
            }
        }
        Lines(m)
    }

    /// Every value reported under `key`.
    pub fn all(&self, key: &str) -> &[f64] {
        self.0.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Sum of the values under `key` (0 when absent).
    pub fn sum(&self, key: &str) -> f64 {
        self.all(key).iter().sum()
    }

    /// The first value under `key`.
    pub fn one(&self, key: &str) -> Option<f64> {
        self.all(key).first().copied()
    }

    /// Largest value under `key`.
    pub fn max(&self, key: &str) -> Option<f64> {
        self.all(key).iter().copied().reduce(f64::max)
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// What one child run measured. Serialized as `PBOUT <key> <value>`
/// lines for the parent process.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    pub values: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, key: &str, v: f64) {
        self.values.insert(key.to_string(), v);
    }

    pub fn get(&self, key: &str) -> Option<f64> {
        self.values.get(key).copied()
    }

    /// Fill in what every workload measures the same way: set-up time,
    /// peak RSS, the latency lines, and the layer counters shared by
    /// all workloads (core, msg, threads, machine, net).
    pub fn common(&mut self, ctx: &Ctx, t0_wall: u64, report: &RunReport, lines: &Lines) {
        // Set-up is preparation and boot up to the first barrier.
        // Teardown (last PE exit to `run_with` returning) is reported
        // apart: on the wire transports the launcher reaps its workers
        // on a 10 ms poll, so it reads either ~1 ms or ~11 ms, and a
        // median over probes flips between the two.
        let done = wall_ns() as f64;
        let boot = lines.one("boot_wall_ns").unwrap_or(done);
        let end = lines.max("end_wall_ns").unwrap_or(done);
        self.set("setup_s", (boot - t0_wall as f64).max(0.0) / 1e9);
        self.set("teardown_s", (done - end).max(0.0) / 1e9);
        let rss_kib = peak_rss_kib() as f64 + lines.sum("rss_kib");
        self.set("peak_rss_mib", rss_kib / 1024.0);
        for k in [
            "lat_n",
            "lat_blocks",
            "lat_p50_us",
            "lat_tail_us",
            "lat_tail_pct",
        ] {
            if let Some(v) = lines.one(k) {
                self.set(k, v);
            }
        }
        self.set("logical_msgs", report.total_msgs() as f64);
        if !ctx.traced {
            return;
        }
        let hits = lines.sum("pool_hits");
        self.set(
            "msg.pool_hit_frac",
            ratio(hits, hits + lines.sum("pool_misses")),
        );
        let sh = lines.sum("stack_hits");
        let sm = lines.sum("stack_misses");
        self.set("threads.stack_pool_miss_frac", ratio(sm, sh + sm));
        self.set(
            "threads.direct_handoff_frac",
            ratio(lines.sum("direct_handoffs"), lines.sum("switches")),
        );
        let busy = lines.all("busy_frac");
        self.set(
            "core.handler_busy_frac",
            ratio(busy.iter().sum(), busy.len() as f64),
        );
        let batches = lines.sum("sched_batches");
        self.set(
            "core.batch_drained_mean",
            ratio(lines.sum("batch_drained"), batches),
        );
        self.set(
            "core.idle_spins_per_batch",
            ratio(lines.sum("idle_spins"), batches),
        );
        self.set(
            "machine.barrier_us_p50",
            lines.one("barrier_us_p50").unwrap_or(0.0),
        );
        let f = &report.fault_stats;
        let msgs = report.total_msgs() as f64;
        self.set(
            "net.retx_per_drop",
            ratio(f.retransmitted as f64, f.dropped as f64),
        );
        // No fault plane installed: every message crossed the link once.
        let per_tx = if f.transmissions == 0 {
            1.0
        } else {
            msgs / f.transmissions as f64
        };
        self.set("net.delivered_per_tx", per_tx);
        self.set("net.dedup_per_msg", ratio(f.dedup_dropped as f64, msgs));
        self.set("trace.dropped_records", lines.sum("trace_dropped"));
    }
}

/// SplitMix64 of `a` salted with `b`: derives per-repetition and
/// per-message inputs from the workload seed.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
