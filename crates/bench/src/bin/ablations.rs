//! Design-choice ablations (DESIGN.md §3): what each choice the paper
//! argues for costs on this implementation, one report row per number.
//!
//! * `queue` — need-based cost at the queue (§3, guideline 2): ns per
//!   message through each queueing strategy. A language that never
//!   prioritizes should pay the FIFO price, not the bit-vector price.
//! * `msgmgr` — Cmm linear scan vs hash index (§3.2.1), by occupancy
//!   and retrieval pattern: ns per message, put and get.
//! * `ldb` — 256 uneven seeds born on PE 0 of a 4-PE machine under each
//!   seed balancer (§3.3.1): drain time and placement imbalance
//!   (max/avg executions per PE).
//! * `coll` — EMI barrier and allreduce latency vs machine size, the
//!   spanning-tree operations of §3.1.3.
//! * `charm_fib` — a fib(18) chare tree on 4 PEs per seed balancer:
//!   makespan and chares/s through deposit → balance → schedule →
//!   construct → invoke.
//! * `fiber_switch`, `create_run_exit` — the thread-object constants
//!   `threads_e2e` does not cover: the raw `converse-fiber` switch (the
//!   floor under the fiber backend) and create + first resume + exit
//!   per backend.
//!
//! Gates (`converse_bench::report`): the orderings EXPERIMENTS.md
//! states, each a same-run ratio with floor 1.0 — priority keys cost
//! more than the zero lane; Direct > Spray > Random, Central in seed
//! imbalance; 16-PE collectives slower than 2-PE; a hand-off thread
//! cycle slower than a fiber one. There is no checked-in baseline;
//! rows land in `target/bench/ablations.json`.
//!
//! ```sh
//! cargo run --release -p converse-bench --bin ablations
//! ```

use converse_bench::report::{pctl, Better, Bound, Report, Row};
use converse_bench::run_timed_with;
use converse_charm::{Chare, ChareId, Charm};
use converse_core::{csd_exit_scheduler, csd_scheduler, MachineConfig, Message, Pe, Quiescence};
use converse_ldb::{Ldb, LdbPolicy};
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::{BitVecPrio, HandlerId, Priority};
use converse_msgmgr::{IndexedMsgManager, MsgManager, TagMailbox, WILDCARD};
use converse_queue::{CsdQueue, FifoQueue, LifoQueue, QueueingMode, SchedulingQueue};
use converse_threads::{cth_create, cth_resume, CthBackend};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timed repetitions per micro-benchmark row; the row is their median.
const SAMPLES: usize = 21;

/// Median over [`SAMPLES`] runs of `f` (after one warm-up), in ns per
/// `per` operations.
fn median_ns(per: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    pctl(&mut ns, 0.5)
}

/// Gate "`slower` measures at least `faster`" as a same-run ratio.
fn ordering(report: &mut Report, slower: &str, faster: &str) {
    report.bound(Bound::Ratio {
        num: slower.into(),
        den: faster.into(),
        floor: 1.0,
        hard: false,
    });
}

fn queue(report: &mut Report) {
    const BATCH: usize = 1024;
    let plain: Vec<Message> = (0..BATCH)
        .map(|_| Message::new(HandlerId(0), &[0; 16]))
        .collect();
    let int_prio: Vec<Message> = (0..BATCH)
        .map(|i| {
            let p = Priority::Int((i as i32 * 2654435761u32 as i32).wrapping_mul(97));
            Message::with_priority(HandlerId(0), &p, &[0; 16])
        })
        .collect();
    let bv_prio: Vec<Message> = (0..BATCH)
        .map(|i| {
            let p = (0..10).fold(BitVecPrio::root(), |p, level| {
                p.child((i >> level) & 1 == 1)
            });
            Message::with_priority(HandlerId(0), &Priority::BitVec(p), &[0; 16])
        })
        .collect();
    type Make = fn() -> Box<dyn SchedulingQueue>;
    let (fifo, lifo, csd): (Make, Make, Make) = (
        || Box::new(FifoQueue::new()),
        || Box::new(LifoQueue::new()),
        || Box::new(CsdQueue::new()),
    );
    use QueueingMode::{Fifo, PrioFifo, PrioLifo};
    let cases: [(&str, &str, Make, &[Message], QueueingMode); 6] = [
        ("fifo_queue", "plain", fifo, &plain, Fifo),
        ("lifo_queue", "plain", lifo, &plain, Fifo),
        ("csd_queue", "zero_lane", csd, &plain, Fifo),
        ("csd_queue", "int_prio", csd, &int_prio, PrioFifo),
        ("csd_queue", "bitvec_prio", csd, &bv_prio, PrioFifo),
        ("csd_queue", "int_prio_lifo", csd, &int_prio, PrioLifo),
    ];
    let mut ids = Vec::new();
    for (queue, msgs_kind, make, msgs, mode) in cases {
        let ns = median_ns(BATCH, || {
            let mut q = make();
            for m in msgs {
                q.enqueue(m.clone(), mode);
            }
            while let Some(m) = q.dequeue() {
                black_box(m.len());
            }
        });
        let row = Row::new("queue", "transit", "ns/msg", Better::Lower, ns)
            .with("queue", queue)
            .with("msgs", msgs_kind);
        ids.push(report.push(row));
    }
    // Priority keys cost more than the zero lane.
    ordering(report, &ids[3], &ids[2]);
    ordering(report, &ids[4], &ids[2]);
}

fn msgmgr(report: &mut Report) {
    type Make = fn() -> Box<dyn TagMailbox>;
    let managers: [(&str, Make); 2] = [
        ("scan", || Box::new(MsgManager::new())),
        ("indexed", || Box::new(IndexedMsgManager::new())),
    ];
    let tags = |i: usize| [(i % 64) as i32, (i % 7) as i32];
    for occupancy in [16usize, 256, 4096] {
        for (manager, make) in managers {
            for retrieval in ["exact", "wildcard"] {
                let ns = median_ns(occupancy, || {
                    let mut mm = make();
                    for i in 0..occupancy {
                        mm.put(&tags(i), vec![0u8; 32]);
                    }
                    for i in 0..occupancy {
                        let pattern = match retrieval {
                            "exact" => tags(i),
                            _ => [WILDCARD, WILDCARD],
                        };
                        black_box(mm.get(&pattern).expect("stored message present"));
                    }
                });
                let row = Row::new("msgmgr", "put_get", "ns/msg", Better::Lower, ns)
                    .with("occupancy", occupancy)
                    .with("manager", manager)
                    .with("retrieval", retrieval);
                report.push(row);
            }
        }
    }
}

/// Drain 256 uneven seeds born on PE 0 of a 4-PE machine under
/// `policy`; returns (ns, max/avg executions per PE).
fn drain_seeds(policy: LdbPolicy) -> (f64, f64) {
    const SEEDS: usize = 256;
    const PES: usize = 4;
    let counts: Arc<Vec<AtomicU64>> = Arc::new((0..PES).map(|_| AtomicU64::new(0)).collect());
    let c2 = counts.clone();
    let elapsed = Arc::new(AtomicU64::new(0));
    let e2 = elapsed.clone();
    converse_core::run(PES, move |pe| {
        let qd = Quiescence::install(pe);
        let ldb = Ldb::install(pe, policy);
        let (c, qd2) = (c2.clone(), qd.clone());
        let work = pe.register_handler(move |pe, msg| {
            // Uneven grains: busy-work proportional to the seed's index.
            let grain = msg.payload()[0] as u64;
            let mut acc = 0u64;
            for i in 0..grain * 500 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            black_box(acc);
            c[pe.my_pe()].fetch_add(1, Ordering::Relaxed);
            qd2.msg_processed(1);
        });
        let stop = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
        pe.barrier();
        if pe.my_pe() == 0 {
            let t0 = Instant::now();
            for i in 0..SEEDS {
                qd.msg_created(1);
                ldb.deposit(pe, Message::new(work, &[(i % 16) as u8]));
            }
            qd.start(pe, Message::new(stop, b""));
            csd_scheduler(pe, -1);
            e2.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
            pe.sync_broadcast(&Message::new(stop, b""));
        } else {
            csd_scheduler(pe, -1);
        }
        pe.barrier();
    });
    let counts: Vec<u64> = counts.iter().map(|c| c.load(Ordering::SeqCst)).collect();
    let max = *counts.iter().max().expect("pes") as f64;
    let avg = counts.iter().sum::<u64>() as f64 / PES as f64;
    (elapsed.load(Ordering::SeqCst) as f64, max / avg)
}

fn ldb(report: &mut Report) {
    let policies = [
        ("direct", LdbPolicy::Direct),
        ("random", LdbPolicy::Random { seed: 42 }),
        (
            "spray",
            LdbPolicy::Spray {
                threshold: 4,
                max_hops: 4,
            },
        ),
        ("central", LdbPolicy::Central),
        ("2choice", LdbPolicy::TwoChoices { seed: 42 }),
    ];
    let mut imbalance = Vec::new();
    for (name, policy) in policies {
        let (mut ns, mut ratio): (Vec<f64>, Vec<f64>) = (0..5).map(|_| drain_seeds(policy)).unzip();
        let row = |metric, unit, value| {
            Row::new("ldb", metric, unit, Better::Lower, value)
                .with("policy", name)
                .with("pes", 4)
                .with("seeds", 256)
        };
        report.push(row("drain", "ns", pctl(&mut ns, 0.5)));
        imbalance.push(report.push(row("imbalance", "max/avg", pctl(&mut ratio, 0.5))));
    }
    // Direct serializes on PE 0, Random and Central spread the seeds,
    // Spray sits between.
    ordering(report, &imbalance[0], &imbalance[2]);
    ordering(report, &imbalance[2], &imbalance[1]);
    ordering(report, &imbalance[2], &imbalance[3]);
}

/// ns per barrier (`allreduce` false) or per i64-sum allreduce on an
/// `n`-PE machine, over 200 rounds.
fn collective_ns(n: usize, allreduce: bool) -> f64 {
    const ROUNDS: u64 = 200;
    let total = Arc::new(AtomicU64::new(0));
    let t2 = total.clone();
    converse_core::run(n, move |pe| {
        let sum = pe.register_combiner(|a, b| {
            let x = i64::from_le_bytes(a.try_into().expect("8-byte operand"));
            let y = i64::from_le_bytes(b.try_into().expect("8-byte operand"));
            (x + y).to_le_bytes().to_vec()
        });
        pe.barrier(); // warm-up and alignment
        let t0 = Instant::now();
        for r in 0..ROUNDS {
            if allreduce {
                black_box(pe.allreduce_bytes((r as i64).to_le_bytes().to_vec(), sum));
            } else {
                pe.barrier();
            }
        }
        if pe.my_pe() == 0 {
            t2.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        }
    });
    total.load(Ordering::SeqCst) as f64 / ROUNDS as f64
}

fn coll(report: &mut Report) {
    for (op, allreduce) in [("barrier", false), ("allreduce", true)] {
        let mut ids = Vec::new();
        for pes in [2usize, 4, 8, 16] {
            let row = Row::new(
                "coll",
                op,
                "ns",
                Better::Lower,
                collective_ns(pes, allreduce),
            );
            ids.push(report.push(row.with("pes", pes)));
        }
        // Latency grows with tree depth.
        ordering(report, &ids[3], &ids[0]);
    }
}

struct Fib {
    pending: u8,
    acc: u64,
    parent: Option<ChareId>,
    root_report: Option<u32>,
}

impl Chare for Fib {
    fn new(pe: &Pe, self_id: ChareId, payload: &[u8]) -> Self {
        let mut u = Unpacker::new(payload);
        let n = u.u64().expect("n");
        let kind = u.u32().expect("kind");
        let (parent, root_report) = if u.u8().expect("flag") == 1 {
            (ChareId::decode(u.raw(16).expect("id")), None)
        } else {
            (None, Some(u.u32().expect("report")))
        };
        let mut me = Fib {
            pending: 0,
            acc: 0,
            parent,
            root_report,
        };
        if n < 2 {
            me.finish(pe, n);
        } else {
            for k in [n - 1, n - 2] {
                let child = Packer::new().u64(k).u32(kind).u8(1).raw(&self_id.encode());
                let kind = converse_charm::ChareKind(kind);
                Charm::get(pe).create(pe, kind, &child.finish(), Priority::None);
                me.pending += 1;
            }
        }
        me
    }

    fn entry(&mut self, pe: &Pe, _id: ChareId, _ep: u32, payload: &[u8]) {
        self.acc += u64::from_le_bytes(payload.try_into().expect("value"));
        self.pending -= 1;
        if self.pending == 0 {
            self.finish(pe, self.acc);
        }
    }
}

impl Fib {
    fn finish(&mut self, pe: &Pe, value: u64) {
        match (self.parent, self.root_report) {
            (Some(p), _) => Charm::get(pe).send(pe, p, 0, &value.to_le_bytes(), Priority::None),
            (None, Some(h)) => {
                pe.sync_send_and_free(0, Message::new(HandlerId(h), &value.to_le_bytes()))
            }
            _ => unreachable!("a root fib chare carries its report handler"),
        }
    }
}

/// Run fib(n) on 4 PEs under `policy`; returns (ns, chares built).
fn fib_run(n: u64, policy: LdbPolicy) -> (f64, u64) {
    let elapsed = Arc::new(AtomicU64::new(0));
    let chares = Arc::new(AtomicU64::new(0));
    let (e2, c2) = (elapsed.clone(), chares.clone());
    converse_core::run(4, move |pe| {
        let charm = Charm::install(pe, policy);
        let kind = charm.register::<Fib>();
        let report = pe.register_handler(|pe, msg| {
            black_box(msg.payload());
            Charm::get(pe).exit_all(pe);
        });
        pe.barrier();
        let t0 = Instant::now();
        if pe.my_pe() == 0 {
            let payload = Packer::new().u64(n).u32(kind.0).u8(0).u32(report.0);
            charm.create(pe, kind, &payload.finish(), Priority::None);
        }
        csd_scheduler(pe, -1);
        if pe.my_pe() == 0 {
            e2.store(t0.elapsed().as_nanos() as u64, Ordering::SeqCst);
        }
        c2.fetch_add(
            charm.chares_created.load(Ordering::Relaxed),
            Ordering::SeqCst,
        );
        pe.barrier();
    });
    (
        elapsed.load(Ordering::SeqCst) as f64,
        chares.load(Ordering::SeqCst),
    )
}

fn charm_fib(report: &mut Report) {
    let policies = [
        ("direct", LdbPolicy::Direct),
        ("random", LdbPolicy::Random { seed: 2 }),
        (
            "spray",
            LdbPolicy::Spray {
                threshold: 8,
                max_hops: 3,
            },
        ),
    ];
    for (name, policy) in policies {
        let (ns, chares) = fib_run(18, policy);
        let row = |metric, unit, better, value| {
            Row::new("charm_fib", metric, unit, better, value)
                .with("n", 18)
                .with("pes", 4)
                .with("policy", name)
        };
        report.push(row("makespan", "ns", Better::Lower, ns));
        report.push(row(
            "rate",
            "chares/s",
            Better::Higher,
            chares as f64 / (ns / 1e9),
        ));
    }
}

/// The raw converse-fiber switch, nothing else on the path: ns per
/// switch (each resume is two switches, in and out).
#[cfg(all(target_arch = "x86_64", unix))]
fn fiber_switch(report: &mut Report) {
    const ITERS: u64 = 1_000_000;
    let mut f = converse_fiber::Fiber::new(64 * 1024, |h| {
        for _ in 0..ITERS {
            h.yield_now();
        }
    });
    let t0 = Instant::now();
    while f.resume() {}
    let ns = t0.elapsed().as_nanos() as f64 / (2 * ITERS) as f64;
    report.push(Row::new("fiber_switch", "switch", "ns", Better::Lower, ns));
}

#[cfg(not(all(target_arch = "x86_64", unix)))]
fn fiber_switch(_report: &mut Report) {}

/// Create + first resume + exit of a fresh thread, per backend (fiber:
/// a pooled-stack fiber; hand-off: an OS thread spawn).
fn create_run_exit(report: &mut Report) {
    let mut ids = Vec::new();
    for &backend in CthBackend::available() {
        // The hand-off constants are 2–3 orders slower; keep its
        // iteration budget proportionate.
        let iters: u32 = match backend {
            CthBackend::Fiber => 2_000,
            CthBackend::Handoff => 100,
        };
        let cfg = MachineConfig::new(1).thread_backend(backend.to_config());
        let d = run_timed_with(cfg, move |pe| {
            let t0 = Instant::now();
            for _ in 0..iters {
                cth_resume(pe, &cth_create(pe, |_pe| {}));
            }
            Some(t0.elapsed())
        });
        let ns = d.as_nanos() as f64 / iters as f64;
        let row = Row::new("create_run_exit", "cycle", "ns", Better::Lower, ns);
        ids.push(report.push(row.with("backend", backend.label())));
    }
    if let [fiber, handoff] = &ids[..] {
        ordering(report, handoff, fiber);
    }
}

fn main() {
    let mut report = Report::new(
        "ablations",
        "design-choice ablations: queue, msgmgr, ldb, coll, charm_fib, thread object",
    );
    queue(&mut report);
    msgmgr(&mut report);
    ldb(&mut report);
    coll(&mut report);
    charm_fib(&mut report);
    fiber_switch(&mut report);
    create_run_exit(&mut report);
    report.finish();
}
