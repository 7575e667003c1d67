//! End-to-end thread-path scorecard (paper §5's thread-overhead table).
//!
//! The fiber backend's claim is that the paper's ~100 ns-class context
//! switch survives **integration**: not just the raw register switch
//! (see the `ablations` bin) but the full paths a threaded
//! runtime actually exercises — Csd-scheduled wakeups, tSM blocking
//! produce/consume round-trips, and N-thread ping rings. Each workload
//! runs on both backends; each row names its backend in the `backend`
//! param:
//!
//! * `csd_wakeup` — suspend-to-scheduler, resume-by-generalized-message:
//!   the path tSM receives take. Acceptance: fiber p50 ≤ 1 µs.
//! * `tsm_roundtrip` — two tSM threads ping-ponging tagged messages
//!   through blocking `trecv`: the §3.2.2 produce/consume pattern.
//!   Acceptance: fiber ≥ 5× faster than hand-off.
//! * `ring_switch` — N threads yielding in a ring, N ∈ {2, 16, 128}:
//!   suspension must cost a constant independent of thread count.
//!
//! Backends are sampled in **alternating** runs (one fresh machine per
//! sample) so slow machine-state drift biases both the same way; each
//! row reports the median of its samples.
//!
//! Gates (`converse_bench::report`): fiber `csd_wakeup` p50 at most
//! 25% above the checked-in `BENCH_threads.json`; the two acceptance
//! floors above are hard bounds no flag waives.
//!
//! ```sh
//! cargo run --release -p converse-bench --bin threads_e2e
//! ```

use converse_bench::report::{pctl, Better, Bound, Report, Row};
use converse_bench::run_timed_with;
use converse_core::MachineConfig;
use converse_sm::{Sm, ANY};
use converse_threads::{cth_awaken, cth_create, cth_resume, cth_yield, CthBackend, CthRuntime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Median over this many alternating-backend samples per row.
const SAMPLES: usize = 9;
/// Ring sizes for the N-thread rotation rows.
const RING_THREADS: [u64; 3] = [2, 16, 128];

fn cfg(backend: CthBackend) -> MachineConfig {
    MachineConfig::new(1).thread_backend(backend.to_config())
}

/// Iteration budget per sample: the hand-off backend's constants are
/// 2–3 orders slower, so it gets a proportionately smaller budget.
fn budget(backend: CthBackend, fiber_iters: u64) -> u64 {
    match backend {
        CthBackend::Fiber => fiber_iters,
        CthBackend::Handoff => (fiber_iters / 25).max(64),
    }
}

/// One sample of the Csd-scheduled wakeup path: a thread under the Csd
/// strategy yields `iters` times; every wakeup is a generalized message
/// through the scheduler queue. Returns ns per wakeup.
fn csd_wakeup_sample(backend: CthBackend) -> u64 {
    let iters = budget(backend, 20_000);
    let d = run_timed_with(cfg(backend), move |pe| {
        let rt = CthRuntime::get(pe);
        let done = Arc::new(AtomicU64::new(0));
        let d2 = done.clone();
        rt.spawn_scheduled(pe, move |pe| {
            for _ in 0..iters {
                cth_yield(pe);
            }
            d2.store(1, Ordering::SeqCst);
            converse_core::csd_exit_scheduler(pe);
        });
        let t0 = Instant::now();
        converse_core::csd_scheduler(pe, -1);
        assert_eq!(done.load(Ordering::SeqCst), 1);
        Some(t0.elapsed())
    });
    d.as_nanos() as u64 / iters
}

/// One sample of the tSM produce/consume round-trip: a producer thread
/// sends a tagged message and blocks for the ack; a consumer thread
/// blocks for the request and acks it. Both receives are `trecv` —
/// suspend under the Csd strategy, awaken from the message handler.
/// Returns ns per round-trip.
fn tsm_roundtrip_sample(backend: CthBackend) -> u64 {
    let iters = budget(backend, 4_000);
    let d = run_timed_with(cfg(backend), move |pe| {
        let sm = Sm::install(pe);
        const REQ: i32 = 1;
        const ACK: i32 = 2;
        let sm_c = sm.clone();
        sm.tspawn(pe, move |pe| {
            for _ in 0..iters {
                let m = sm_c.trecv(pe, REQ, ANY);
                sm_c.send(pe, 0, ACK, &m.data);
            }
        });
        let sm_p = sm.clone();
        sm.tspawn(pe, move |pe| {
            for i in 0..iters {
                sm_p.send(pe, 0, REQ, &i.to_le_bytes());
                let m = sm_p.trecv(pe, ACK, ANY);
                assert_eq!(m.data, i.to_le_bytes());
            }
            converse_core::csd_exit_scheduler(pe);
        });
        let t0 = Instant::now();
        converse_core::csd_scheduler(pe, -1);
        Some(t0.elapsed())
    });
    d.as_nanos() as u64 / iters
}

/// One sample of the N-thread ping ring: `threads` threads in the
/// default ready pool, each yielding `laps` times — the pool rotates
/// them in FIFO order, so every switch is a direct handoff to the next
/// ring member. Returns ns per switch.
fn ring_switch_sample(backend: CthBackend, threads: u64) -> u64 {
    let laps = budget(backend, 25_000 / threads.max(1)).max(8);
    let total = threads * laps;
    let d = run_timed_with(cfg(backend), move |pe| {
        let ts: Vec<_> = (0..threads)
            .map(|_| {
                cth_create(pe, move |pe| {
                    for _ in 0..laps {
                        cth_yield(pe);
                    }
                })
            })
            .collect();
        for t in &ts[1..] {
            cth_awaken(pe, t);
        }
        let t0 = Instant::now();
        cth_resume(pe, &ts[0]);
        assert!(ts.iter().all(|t| t.is_exited()));
        Some(t0.elapsed())
    });
    d.as_nanos() as u64 / total
}

/// Collect `SAMPLES` per backend in alternating order and return the
/// per-backend medians as `(handoff_p50, fiber_p50)`.
fn measure_pair(mut sample: impl FnMut(CthBackend) -> u64) -> (f64, f64) {
    let mut fiber = Vec::with_capacity(SAMPLES);
    let mut handoff = Vec::with_capacity(SAMPLES);
    // Warm-up: one throwaway sample per backend (allocator, page cache).
    sample(CthBackend::Fiber);
    sample(CthBackend::Handoff);
    for s in 0..SAMPLES {
        if s % 2 == 0 {
            fiber.push(sample(CthBackend::Fiber) as f64);
            handoff.push(sample(CthBackend::Handoff) as f64);
        } else {
            handoff.push(sample(CthBackend::Handoff) as f64);
            fiber.push(sample(CthBackend::Fiber) as f64);
        }
    }
    (pctl(&mut handoff, 0.5), pctl(&mut fiber, 0.5))
}

fn main() {
    if !CthBackend::fiber_supported() {
        // The scorecard is a fiber-vs-handoff comparison; without the
        // fiber backend there is nothing to compare or to gate.
        println!("threads_e2e: fiber backend unsupported on this target; skipping");
        return;
    }
    let mut report = Report::new(
        "threads",
        "thread path end-to-end: hand-off backend vs fiber backend",
    );
    let mut push = |case, threads, (handoff, fiber)| {
        let row = |backend, value| {
            Row::new(case, "p50", "ns", Better::Lower, value)
                .with("threads", threads)
                .with("backend", backend)
        };
        let handoff = report.push(row("handoff", handoff));
        (handoff, report.push(row("fiber", fiber)))
    };
    let (_, wakeup) = push("csd_wakeup", 1, measure_pair(csd_wakeup_sample));
    let (tsm_handoff, tsm_fiber) = push("tsm_roundtrip", 2, measure_pair(tsm_roundtrip_sample));
    for threads in RING_THREADS {
        push(
            "ring_switch",
            threads,
            measure_pair(|b| ring_switch_sample(b, threads)),
        );
    }

    // Acceptance: the integrated fiber wakeup stays in the paper's
    // sub-microsecond class, and the threaded-receive round-trip beats
    // the portable fallback by at least 5x.
    report.bound(Bound::Limit {
        row: wakeup,
        limit: 1_000.0,
    });
    report.bound(Bound::Ratio {
        num: tsm_handoff,
        den: tsm_fiber,
        floor: 5.0,
        hard: true,
    });
    report.bound(Bound::Baseline {
        rows: |r| r.case == "csd_wakeup" && r.param("backend") == Some("fiber"),
        factor: 1.25,
        slack: 0.0,
    });
    report.finish();
}
