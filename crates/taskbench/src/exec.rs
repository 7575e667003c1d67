//! Execution engines: run a [`TaskGraph`] over a live machine and prove
//! the schedule correct.
//!
//! Three adapters share one bookkeeping core ([`RunState`]), differing
//! only in which Converse layer carries the dependency edges:
//!
//! * [`run_graph_raw`] — one machine handler per run; every edge is one
//!   generalized message (self-edges included), optionally on a named
//!   delivery channel. The floor the layered adapters are compared
//!   against, and the engine the chaos matrix uses to pin guarantee
//!   semantics (an at-most-once channel must *fail* validation under
//!   drops).
//! * [`run_graph_charm`] — a [`GroupChare`] branch per PE; every edge
//!   is an asynchronous group-entry invocation through the scheduler
//!   queue, the §3.3 message-driven idiom.
//! * [`run_graph_tsm`] — one tSM thread per local task, blocking in
//!   `tSMReceive` per dependency; edges are tagged tSM messages and the
//!   §3.2.2 thread/scheduler composition does the sequencing.
//!
//! Every adapter returns a [`PeSummary`] whose
//! [`validate`](PeSummary::validate) checks, per local task,
//! exactly-once execution and the dependency-order output hash against
//! the generator's serial oracle; [`assert_machine_valid`] adds a
//! machine-wide collective check (task count + XOR hash fold). A cell
//! of the workload matrix only reports a number after this passes.
//!
//! **Lockstep requirement.** Like every Converse registration API, the
//! adapters register handlers/combiners/group kinds and must therefore
//! be called in the same order on every PE of the machine.

use crate::{expand_payload, finish_output, TaskGraph};
use converse_charm::{Charm, GroupChare, GroupId, GroupKind};
use converse_core::{csd_scheduler_until_idle, schedule_until};
use converse_ldb::LdbPolicy;
use converse_machine::{Channel, Message, Pe};
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::{HandlerId, Priority};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to run a graph: the non-structural axes of the matrix cell.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Busy-work per task, in nanoseconds (the grain axis). `0` = pure
    /// overhead measurement.
    pub grain_ns: u64,
    /// Transmitted payload bytes per dependency edge (the message-size
    /// axis). Every byte is hashed by the consumer, so the size is
    /// semantically load-bearing, not padding.
    pub payload_bytes: usize,
    /// Named delivery channel for dependency messages (raw engine
    /// only). `None` = the default exactly-once channel.
    pub channel: Option<String>,
    /// Bounded-progress mode: instead of blocking until completion
    /// (and tripping the machine watchdog on a wedged run), pump the
    /// scheduler and give up after this long, letting
    /// [`PeSummary::validate`] report the incompleteness. The chaos
    /// matrix runs lossy at-most-once cells this way.
    pub give_up: Option<Duration>,
    /// Relocatable-execution mode (raw engine only): a ready task is
    /// not executed inline by its owner but packaged — serial id plus
    /// received dependency payloads — into a *stealable* self-addressed
    /// READY message, so an idle PE's work stealing
    /// (`MachineConfig::steal`) can relocate the execution. The thief
    /// fans the successor edges out itself and returns a non-stealable
    /// CREDIT to the owner, which keeps all exactly-once accounting.
    /// Termination switches to a DONE/ALL_DONE convergecast on PE 0,
    /// since a PE whose own tasks finished may still owe execution of
    /// stolen work.
    pub steal: bool,
    /// In steal mode, the percentage of READY messages routed to PE 0
    /// instead of the owner (deterministic per serial id) — the skew
    /// knob that manufactures the hotspot `steal_bench` measures.
    /// `0` = every READY stays on its owner.
    pub steal_to0_pct: u8,
    /// Spend the grain in `thread::sleep` instead of a busy spin. On
    /// hosts with fewer cores than PEs a spinning hotspot monopolizes
    /// the core and stealing cannot be observed; sleeping yields it.
    pub sleep_grain: bool,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            grain_ns: 0,
            payload_bytes: 16,
            channel: None,
            give_up: None,
            steal: false,
            steal_to0_pct: 0,
            sleep_grain: false,
        }
    }
}

/// Spin for `ns` nanoseconds of busy-work — the task "computation".
/// Deliberately clock-bounded rather than iteration-bounded so the
/// grain axis means the same thing on every host.
pub fn busy_spin(ns: u64) {
    if ns == 0 {
        return;
    }
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// What one PE observed executing its share of a graph.
#[derive(Debug, Clone)]
pub struct PeSummary {
    /// Serial ids of the tasks this PE owns.
    pub local: Vec<u32>,
    /// Execution count per local task (parallel to `local`); anything
    /// but 1 fails validation.
    pub execs: Vec<u32>,
    /// Output hash per local task (parallel to `local`); `None` = the
    /// task never ran.
    pub outputs: Vec<Option<u64>>,
    /// Protocol violations observed at runtime (dependency arriving
    /// for an already-executed task, over-complete dependency sets…).
    pub violations: Vec<String>,
    /// True when the run hit [`RunOpts::give_up`] before completing.
    pub gave_up: bool,
}

impl PeSummary {
    /// Check exactly-once execution and every output hash against the
    /// generator's serial oracle; `payload_bytes` must match the
    /// [`RunOpts`] of the run. Returns the first violation.
    pub fn validate(&self, graph: &TaskGraph, payload_bytes: usize) -> Result<(), String> {
        if let Some(v) = self.violations.first() {
            return Err(format!("protocol violation: {v}"));
        }
        let expected = graph.expected_outputs(payload_bytes);
        for (i, &serial) in self.local.iter().enumerate() {
            let id = graph.task_of_serial(serial);
            if self.execs[i] != 1 {
                return Err(format!(
                    "task ({},{}) executed {} times (want exactly once){}",
                    id.step,
                    id.index,
                    self.execs[i],
                    if self.gave_up { " — run gave up" } else { "" }
                ));
            }
            match self.outputs[i] {
                Some(h) if h == expected[serial as usize] => {}
                Some(h) => {
                    return Err(format!(
                        "task ({},{}) hash {h:#x} != expected {:#x} — dependency order or \
                         payload integrity broken",
                        id.step, id.index, expected[serial as usize]
                    ))
                }
                None => {
                    return Err(format!(
                        "task ({},{}) executed but recorded no output",
                        id.step, id.index
                    ))
                }
            }
        }
        Ok(())
    }

    /// XOR-fold of this PE's recorded outputs plus its executed-task
    /// count — the per-PE contribution to the machine-wide check.
    pub fn fold(&self) -> (u64, u64) {
        let count = self.execs.iter().map(|&e| e as u64).sum();
        let fold = self.outputs.iter().flatten().fold(0u64, |a, &b| a ^ b);
        (count, fold)
    }
}

/// Machine-wide validation: local per-task validation on every PE plus
/// an allreduce of (executed count, XOR hash fold) checked against the
/// generator's oracle — so a task double-executed on the wrong PE (a
/// placement bug the local check cannot see) still fails. Collective:
/// every PE of the machine must call it.
pub fn assert_machine_valid(pe: &Pe, graph: &TaskGraph, summary: &PeSummary, payload_bytes: usize) {
    if let Err(e) = summary.validate(graph, payload_bytes) {
        panic!("PE {}: taskbench validation failed: {e}", pe.my_pe());
    }
    let op = pe.register_combiner(|a, b| {
        let (ca, fa) = split_fold(a);
        let (cb, fb) = split_fold(b);
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&(ca + cb).to_le_bytes());
        out.extend_from_slice(&(fa ^ fb).to_le_bytes());
        out
    });
    let (count, fold) = summary.fold();
    let mut mine = Vec::with_capacity(16);
    mine.extend_from_slice(&count.to_le_bytes());
    mine.extend_from_slice(&fold.to_le_bytes());
    let all = pe.allreduce_bytes(mine, op);
    let (total, folded) = split_fold(&all);
    assert_eq!(
        total,
        graph.num_tasks() as u64,
        "machine-wide executed-task count is wrong"
    );
    assert_eq!(
        folded,
        graph.expected_fold(payload_bytes),
        "machine-wide output-hash fold diverged from the generator's oracle"
    );
}

fn split_fold(bytes: &[u8]) -> (u64, u64) {
    let c = u64::from_le_bytes(bytes[..8].try_into().expect("16-byte fold"));
    let f = u64::from_le_bytes(bytes[8..16].try_into().expect("16-byte fold"));
    (c, f)
}

/// Received dependency payloads of one task: `(src_serial, payload)`.
type Preds = Vec<(u32, Vec<u8>)>;

/// Edge fan-out function: `(pe, dst_pe, dst_serial, src_serial,
/// payload)` — how an engine carries one dependency edge.
type Emit = dyn Fn(&Pe, usize, u32, u32, &[u8]);

/// Shared bookkeeping for one graph run on one PE.
struct RunState {
    graph: Arc<TaskGraph>,
    grain_ns: u64,
    payload_bytes: usize,
    /// Dependency payloads received so far, per local not-yet-ready
    /// task serial.
    waiting: Mutex<HashMap<u32, Preds>>,
    /// Execution count per task serial (only local entries used).
    execs: Vec<AtomicU32>,
    /// Output hash per executed local task.
    outputs: Mutex<HashMap<u32, u64>>,
    /// Local tasks still to execute.
    remaining: AtomicUsize,
    /// Runtime protocol violations (validated later, not panicked on —
    /// the chaos matrix *wants* to observe failures).
    violations: Mutex<Vec<String>>,
    /// The raw engine's dependency handler (set after registration).
    dep_h: AtomicU32,
    /// Delivery channel for raw-engine edges (`Channel` encoded, or
    /// `u64::MAX` for the default).
    channel: Mutex<Option<Channel>>,
    /// Relocatable-execution mode (see [`RunOpts::steal`]).
    steal: bool,
    /// READY-to-PE0 skew percentage ([`RunOpts::steal_to0_pct`]).
    steal_to0_pct: u8,
    /// Sleep the grain instead of spinning ([`RunOpts::sleep_grain`]).
    sleep_grain: bool,
    /// Steal-protocol handlers (set after registration, raw engine).
    ready_h: AtomicU32,
    credit_h: AtomicU32,
    done_h: AtomicU32,
    all_done_h: AtomicU32,
    /// This PE reported its local completion to PE 0 already.
    done_sent: AtomicBool,
    /// DONE reports seen (meaningful on PE 0 only).
    dones: AtomicUsize,
    /// PE 0 declared the whole machine finished.
    all_done: AtomicBool,
}

impl RunState {
    fn new(graph: Arc<TaskGraph>, opts: &RunOpts, pe: &Pe) -> Arc<RunState> {
        let local = graph.local_serials(pe.my_pe(), pe.num_pes());
        Arc::new(RunState {
            execs: (0..graph.num_tasks()).map(|_| AtomicU32::new(0)).collect(),
            remaining: AtomicUsize::new(local.len()),
            graph,
            grain_ns: opts.grain_ns,
            payload_bytes: opts.payload_bytes,
            waiting: Mutex::new(HashMap::new()),
            outputs: Mutex::new(HashMap::new()),
            violations: Mutex::new(Vec::new()),
            dep_h: AtomicU32::new(u32::MAX),
            channel: Mutex::new(None),
            steal: opts.steal,
            steal_to0_pct: opts.steal_to0_pct,
            sleep_grain: opts.sleep_grain,
            ready_h: AtomicU32::new(u32::MAX),
            credit_h: AtomicU32::new(u32::MAX),
            done_h: AtomicU32::new(u32::MAX),
            all_done_h: AtomicU32::new(u32::MAX),
            done_sent: AtomicBool::new(false),
            dones: AtomicUsize::new(0),
            all_done: AtomicBool::new(false),
        })
    }

    /// Spend one task's grain: a clock-bounded busy spin, or a sleep
    /// when the run opted into yielding the core.
    fn grain_wait(&self) {
        if self.sleep_grain && self.grain_ns > 0 {
            std::thread::sleep(Duration::from_nanos(self.grain_ns));
        } else {
            busy_spin(self.grain_ns);
        }
    }

    /// Record one dependency arrival for local task `dst`; when the
    /// set completes, execute and fan out through `emit`.
    fn on_dep(&self, pe: &Pe, dst: u32, src: u32, payload: Vec<u8>, emit: &Emit) {
        let id = self.graph.task_of_serial(dst);
        if self.execs[dst as usize].load(Ordering::Acquire) > 0 {
            self.violations.lock().push(format!(
                "dependency {src}→{dst} arrived after task ({},{}) already executed",
                id.step, id.index
            ));
            return;
        }
        let need = self.graph.deps(id).len();
        let ready = {
            let mut w = self.waiting.lock();
            let entry = w.entry(dst).or_default();
            entry.push((src, payload));
            if entry.len() == need {
                w.remove(&dst)
            } else {
                if entry.len() > need {
                    self.violations.lock().push(format!(
                        "task ({},{}) has {} of {need} dependencies — duplicates on the wire",
                        id.step,
                        id.index,
                        entry.len()
                    ));
                }
                None
            }
        };
        if let Some(preds) = ready {
            if self.steal {
                self.emit_ready(pe, dst, preds);
            } else {
                self.execute(pe, dst, preds, emit);
            }
        }
    }

    /// Run one ready task: grain busy-work, chained output hash,
    /// exactly-once accounting, successor fan-out.
    fn execute(&self, pe: &Pe, serial: u32, mut preds: Preds, emit: &Emit) {
        self.grain_wait();
        let out = finish_output(self.graph.spec.seed, serial, &mut preds);
        self.execs[serial as usize].fetch_add(1, Ordering::AcqRel);
        self.outputs.lock().insert(serial, out);
        self.remaining.fetch_sub(1, Ordering::AcqRel);
        let id = self.graph.task_of_serial(serial);
        let succs = self.graph.successors(id);
        if succs.is_empty() {
            return;
        }
        let payload = expand_payload(out, self.payload_bytes);
        for s in succs {
            let dst_pe = self.graph.owner(*s, pe.num_pes());
            emit(pe, dst_pe, self.graph.serial(*s), serial, &payload);
        }
    }

    /// Execute this PE's dependency-free tasks (the level-0 sources —
    /// and under `Pattern::Trivial`, everything).
    fn run_sources(&self, pe: &Pe, emit: &Emit) {
        for serial in self.graph.local_serials(pe.my_pe(), pe.num_pes()) {
            if self
                .graph
                .deps(self.graph.task_of_serial(serial))
                .is_empty()
            {
                if self.steal {
                    self.emit_ready(pe, serial, Vec::new());
                } else {
                    self.execute(pe, serial, Vec::new(), emit);
                }
            }
        }
    }

    /// Pump the scheduler until all local tasks ran, or (in bounded
    /// mode) until the give-up deadline. Returns whether it gave up.
    fn await_completion(&self, pe: &Pe, give_up: Option<Duration>) -> bool {
        match give_up {
            None => {
                schedule_until(pe, || self.remaining.load(Ordering::Acquire) == 0);
                false
            }
            Some(d) => {
                let deadline = Instant::now() + d;
                while self.remaining.load(Ordering::Acquire) > 0 {
                    csd_scheduler_until_idle(pe);
                    if Instant::now() >= deadline {
                        return true;
                    }
                    std::thread::yield_now();
                }
                false
            }
        }
    }

    fn summarize(&self, pe: &Pe, gave_up: bool) -> PeSummary {
        let local = self.graph.local_serials(pe.my_pe(), pe.num_pes());
        let outputs = self.outputs.lock();
        PeSummary {
            execs: local
                .iter()
                .map(|&s| self.execs[s as usize].load(Ordering::Acquire))
                .collect(),
            outputs: local.iter().map(|&s| outputs.get(&s).copied()).collect(),
            local,
            violations: self.violations.lock().clone(),
            gave_up,
        }
    }

    // ---- relocatable-execution (steal) protocol, raw engine only ----

    /// One dependency edge as a raw machine message (the body of the
    /// raw engine's emit function, shared with the stolen-execution
    /// path, which fans successors out from whatever PE ran the task).
    fn send_dep(&self, pe: &Pe, dst_pe: usize, dst: u32, src: u32, payload: &[u8]) {
        let h = HandlerId(self.dep_h.load(Ordering::Acquire));
        let body = Packer::new().u32(dst).u32(src).bytes(payload).finish();
        let msg = Message::new(h, &body);
        match *self.channel.lock() {
            Some(c) => pe.sync_send_and_free_on(dst_pe, c, msg),
            None => pe.sync_send_and_free(dst_pe, msg),
        }
    }

    /// Package a ready task as a stealable READY message: serial id
    /// plus every received dependency payload — everything an arbitrary
    /// PE needs to execute it. Routed to PE 0 for `steal_to0_pct`% of
    /// serials (a deterministic draw), otherwise back to this PE.
    fn emit_ready(&self, pe: &Pe, serial: u32, preds: Preds) {
        let mut p = Packer::new().u32(serial).u32(preds.len() as u32);
        for (src, bytes) in &preds {
            p = p.u32(*src).bytes(bytes);
        }
        let h = HandlerId(self.ready_h.load(Ordering::Acquire));
        let mut msg = Message::new(h, &p.finish());
        msg.mark_stealable();
        let skewed = crate::fnv1a(&serial.to_le_bytes()) % 100 < self.steal_to0_pct as u64;
        let dst = if skewed { 0 } else { pe.my_pe() };
        pe.sync_send_and_free(dst, msg);
    }

    /// Execute a READY message wherever it landed — owner, skew target,
    /// or thief. Computes the chained hash, fans successor edges out
    /// directly, and returns the result to the owner as a non-stealable
    /// CREDIT; no local accounting happens here.
    fn on_ready(&self, pe: &Pe, payload: &[u8]) {
        let mut u = Unpacker::new(payload);
        let serial = u.u32().expect("taskbench ready: serial");
        let n = u.u32().expect("taskbench ready: pred count") as usize;
        let mut preds: Preds = Vec::with_capacity(n);
        for _ in 0..n {
            let src = u.u32().expect("taskbench ready: pred serial");
            preds.push((
                src,
                u.bytes().expect("taskbench ready: pred payload").to_vec(),
            ));
        }
        self.grain_wait();
        let out = finish_output(self.graph.spec.seed, serial, &mut preds);
        let id = self.graph.task_of_serial(serial);
        let succs = self.graph.successors(id);
        if !succs.is_empty() {
            let payload = expand_payload(out, self.payload_bytes);
            for s in succs {
                let dst_pe = self.graph.owner(*s, pe.num_pes());
                self.send_dep(pe, dst_pe, self.graph.serial(*s), serial, &payload);
            }
        }
        let owner = self.graph.owner(id, pe.num_pes());
        let h = HandlerId(self.credit_h.load(Ordering::Acquire));
        let body = Packer::new().u32(serial).u64(out).finish();
        pe.sync_send_and_free(owner, Message::new(h, &body));
    }

    /// Owner-side accounting for one executed task. The last credit
    /// reports this PE's completion to PE 0.
    fn on_credit(&self, pe: &Pe, payload: &[u8]) {
        let mut u = Unpacker::new(payload);
        let serial = u.u32().expect("taskbench credit: serial");
        let out = u.u64().expect("taskbench credit: output");
        self.execs[serial as usize].fetch_add(1, Ordering::AcqRel);
        self.outputs.lock().insert(serial, out);
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.send_done(pe);
        }
    }

    /// Tell PE 0 this PE's local tasks all completed (at most once).
    fn send_done(&self, pe: &Pe) {
        if self.done_sent.swap(true, Ordering::AcqRel) {
            return;
        }
        let h = HandlerId(self.done_h.load(Ordering::Acquire));
        pe.sync_send_and_free(0, Message::new(h, &[]));
    }

    /// PE 0: count completions; the machine-wide last one releases
    /// every PE from the termination pump.
    fn on_done(&self, pe: &Pe) {
        if self.dones.fetch_add(1, Ordering::AcqRel) + 1 == pe.num_pes() {
            let h = HandlerId(self.all_done_h.load(Ordering::Acquire));
            for dst in 0..pe.num_pes() {
                pe.sync_send_and_free(dst, Message::new(h, &[]));
            }
        }
    }

    /// Steal-mode completion pump: a PE keeps scheduling until PE 0
    /// declares the whole machine done — its own `remaining` hitting
    /// zero is not enough, because stolen or skewed READY messages for
    /// *other* PEs' tasks may still land here and must be executed.
    fn await_all_done(&self, pe: &Pe, give_up: Option<Duration>) -> bool {
        match give_up {
            None => {
                schedule_until(pe, || self.all_done.load(Ordering::Acquire));
                false
            }
            Some(d) => {
                let deadline = Instant::now() + d;
                while !self.all_done.load(Ordering::Acquire) {
                    csd_scheduler_until_idle(pe);
                    if Instant::now() >= deadline {
                        return true;
                    }
                    std::thread::yield_now();
                }
                false
            }
        }
    }
}

// ---- raw machine-layer engine -------------------------------------------

/// Emit function of the raw engine: every edge (self-edges included) is
/// one generalized message to the destination task's owner, on the
/// configured delivery channel.
fn raw_emit(state: &Arc<RunState>) -> impl Fn(&Pe, usize, u32, u32, &[u8]) {
    let state = state.clone();
    move |pe, dst_pe, dst, src, payload| state.send_dep(pe, dst_pe, dst, src, payload)
}

/// Execute `graph` with dependency edges as plain machine-layer
/// messages. Collective: every PE calls it (in lockstep with any other
/// registration activity) and gets back its own [`PeSummary`].
///
/// With [`RunOpts::steal`] set, execution rides relocatable READY
/// messages (see the option's docs); the steal-protocol handlers are
/// registered unconditionally so the registration order is identical
/// whether or not a given run opts in.
pub fn run_graph_raw(pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
    let state = RunState::new(graph.clone(), opts, pe);
    *state.channel.lock() = opts.channel.as_deref().map(|n| pe.channel(n));
    let st = state.clone();
    let dep_h = pe.register_handler(move |pe, msg| {
        let mut u = Unpacker::new(msg.payload());
        let dst = u.u32().expect("taskbench dep: dst");
        let src = u.u32().expect("taskbench dep: src");
        let payload = u.bytes().expect("taskbench dep: payload").to_vec();
        st.on_dep(pe, dst, src, payload, &raw_emit(&st));
    });
    state.dep_h.store(dep_h.0, Ordering::Release);
    let st = state.clone();
    let ready_h = pe.register_handler(move |pe, msg| st.on_ready(pe, msg.payload()));
    state.ready_h.store(ready_h.0, Ordering::Release);
    let st = state.clone();
    let credit_h = pe.register_handler(move |pe, msg| st.on_credit(pe, msg.payload()));
    state.credit_h.store(credit_h.0, Ordering::Release);
    let st = state.clone();
    let done_h = pe.register_handler(move |pe, _msg| st.on_done(pe));
    state.done_h.store(done_h.0, Ordering::Release);
    let st = state.clone();
    let all_done_h =
        pe.register_handler(move |_pe, _msg| st.all_done.store(true, Ordering::Release));
    state.all_done_h.store(all_done_h.0, Ordering::Release);
    pe.barrier();
    state.run_sources(pe, &raw_emit(&state));
    let gave_up = if opts.steal {
        // A PE that owns nothing (or whose credits all landed already)
        // must still report in for global termination.
        if state.remaining.load(Ordering::Acquire) == 0 {
            state.send_done(pe);
        }
        state.await_all_done(pe, opts.give_up)
    } else {
        state.await_completion(pe, opts.give_up)
    };
    pe.barrier();
    state.summarize(pe, gave_up)
}

// ---- Charm-layer adapter ------------------------------------------------

/// Group entry points of the Charm adapter's per-PE branch.
const EP_DEP: u32 = 0;

/// PE-local adapter state: the branch kind, registered once per PE, and
/// the slot the branch resolves its current run's state through (group
/// construction happens asynchronously, so the state cannot ride the
/// constructor payload).
struct CharmRunSlot {
    kind: GroupKind,
    run: Mutex<Option<(Arc<RunState>, GroupId)>>,
}

/// The per-PE branch: receives dependency invocations and runs ready
/// tasks; fan-out goes back through [`Charm::send_group`], so every
/// edge — self-edges included — is a scheduler-queued asynchronous
/// method invocation, exactly the Charm discipline.
struct TaskBranch {
    state: Arc<RunState>,
}

fn charm_emit(state: &Arc<RunState>, gid: GroupId) -> impl Fn(&Pe, usize, u32, u32, &[u8]) {
    let _ = state;
    move |pe, dst_pe, dst, src, payload| {
        let body = Packer::new().u32(dst).u32(src).bytes(payload).finish();
        Charm::get(pe).send_group(pe, gid, dst_pe, EP_DEP, &body, Priority::None);
    }
}

impl GroupChare for TaskBranch {
    fn new(pe: &Pe, gid: GroupId, _payload: &[u8]) -> Self {
        let slot = pe
            .try_local::<CharmRunSlot>()
            .expect("taskbench charm run state missing");
        let state = slot
            .run
            .lock()
            .as_ref()
            .filter(|(_, g)| *g == gid)
            .map(|(s, _)| s.clone())
            .expect("taskbench branch created for a run that is not current");
        TaskBranch { state }
    }

    fn entry(&mut self, pe: &Pe, gid: GroupId, ep: u32, payload: &[u8]) {
        assert_eq!(ep, EP_DEP, "unknown taskbench group entry {ep}");
        let mut u = Unpacker::new(payload);
        let dst = u.u32().expect("taskbench charm dep: dst");
        let src = u.u32().expect("taskbench charm dep: src");
        let bytes = u.bytes().expect("taskbench charm dep: payload").to_vec();
        self.state
            .on_dep(pe, dst, src, bytes, &charm_emit(&self.state, gid));
    }
}

/// Execute `graph` on the Charm layer: one group branch per PE, one
/// asynchronous entry invocation per dependency edge. Collective.
pub fn run_graph_charm(pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
    assert!(
        opts.channel.is_none(),
        "named delivery channels are a raw-engine option; Charm sends ride the default channel"
    );
    assert!(
        !opts.steal,
        "relocatable READY execution is a raw-engine option"
    );
    let charm = Charm::install(pe, LdbPolicy::Direct);
    let slot = pe.local(|| CharmRunSlot {
        kind: charm.register_group::<TaskBranch>(),
        run: Mutex::new(None),
    });
    let state = RunState::new(graph.clone(), opts, pe);
    pe.barrier();
    // PE 0 creates the group; the id reaches everyone synchronously via
    // the broadcast collective (which only processes machine-internal
    // messages, so the asynchronous create cannot race past it).
    let gid_bytes = pe.bcast_bytes(
        0,
        (pe.my_pe() == 0).then(|| {
            let gid = charm.create_group(pe, slot.kind, &[]);
            gid.0.to_le_bytes().to_vec()
        }),
    );
    let gid = GroupId(u64::from_le_bytes(
        gid_bytes.as_slice().try_into().expect("8-byte group id"),
    ));
    *slot.run.lock() = Some((state.clone(), gid));
    pe.barrier();
    state.run_sources(pe, &charm_emit(&state, gid));
    let gave_up = state.await_completion(pe, opts.give_up);
    pe.barrier();
    // Past the final barrier every PE is done with this run, so its
    // branch (which holds the run's state) can go.
    *slot.run.lock() = None;
    charm.release_group_branch(gid);
    state.summarize(pe, gave_up)
}

// ---- tSM-layer adapter --------------------------------------------------

/// Execute `graph` on the tSM layer: one thread object per local task,
/// each blocking in `tSMReceive` once per dependency (tag = consumer's
/// serial id), computing, then `tSMSend`-ing to every successor's
/// owner. The §3.2.2 message-manager + thread + scheduler composition
/// does all sequencing; the adapter never touches the waiting map.
/// Collective.
pub fn run_graph_tsm(pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
    assert!(
        opts.channel.is_none(),
        "named delivery channels are a raw-engine option; tSM sends ride the default channel"
    );
    assert!(
        !opts.steal,
        "relocatable READY execution is a raw-engine option"
    );
    assert!(
        graph.num_tasks() < i32::MAX as usize,
        "tSM tags are i32 task serials"
    );
    converse_sm::Sm::install(pe);
    let state = RunState::new(graph.clone(), opts, pe);
    pe.barrier();
    for serial in state.graph.local_serials(pe.my_pe(), pe.num_pes()) {
        let st = state.clone();
        converse_sm::tsm::create(pe, move |pe| {
            let id = st.graph.task_of_serial(serial);
            let need = st.graph.deps(id).len();
            let mut preds: Vec<(u32, Vec<u8>)> = Vec::with_capacity(need);
            for _ in 0..need {
                let m = converse_sm::tsm::receive(pe, serial as i32);
                let mut u = Unpacker::new(&m.data);
                let src = u.u32().expect("taskbench tsm dep: src");
                preds.push((src, u.bytes().expect("taskbench tsm dep: payload").to_vec()));
            }
            busy_spin(st.grain_ns);
            let out = finish_output(st.graph.spec.seed, serial, &mut preds);
            st.execs[serial as usize].fetch_add(1, Ordering::AcqRel);
            st.outputs.lock().insert(serial, out);
            let succs = st.graph.successors(id);
            if !succs.is_empty() {
                let payload = expand_payload(out, st.payload_bytes);
                for s in succs {
                    let dst_pe = st.graph.owner(*s, pe.num_pes());
                    let body = Packer::new().u32(serial).bytes(&payload).finish();
                    converse_sm::tsm::send(pe, dst_pe, st.graph.serial(*s) as i32, &body);
                }
            }
            st.remaining.fetch_sub(1, Ordering::AcqRel);
        });
    }
    let gave_up = state.await_completion(pe, opts.give_up);
    pe.barrier();
    state.summarize(pe, gave_up)
}

/// The execution layers of the matrix, for drivers that walk them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// [`run_graph_charm`].
    Charm,
    /// [`run_graph_tsm`].
    Tsm,
}

impl Layer {
    /// Both layers, in canonical matrix order.
    pub const ALL: [Layer; 2] = [Layer::Charm, Layer::Tsm];

    /// Stable label for tables and JSON.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Charm => "charm",
            Layer::Tsm => "tsm",
        }
    }

    /// Parse a CLI spelling.
    pub fn parse(s: &str) -> Option<Layer> {
        Layer::ALL.iter().copied().find(|l| l.label() == s)
    }

    /// Run `graph` on this layer (see the layer's function docs).
    pub fn run(self, pe: &Pe, graph: &Arc<TaskGraph>, opts: &RunOpts) -> PeSummary {
        match self {
            Layer::Charm => run_graph_charm(pe, graph, opts),
            Layer::Tsm => run_graph_tsm(pe, graph, opts),
        }
    }
}
