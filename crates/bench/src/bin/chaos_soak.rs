//! Chaos soak: the acceptance run for the fault-injection plane.
//!
//! Boots a 4-PE machine under the canonical adversarial plan — 20% drop,
//! 10% duplication, 30% of copies delayed up to 4 slots — and pushes
//! 10k+ logical messages through it. The reliability sublayer must
//! deliver **every** message exactly once (count and checksum verified),
//! and the wire overhead (transmission attempts per logical message)
//! must stay at or below 3×. One soak per seed in the CI matrix.
//!
//! Rows follow the shared report schema (`converse_bench::report`);
//! the checked-in `BENCH_chaos.json` is reference data, not gated —
//! the run's own assertions are the gate.
//!
//! ```sh
//! cargo run --release -p converse-bench --bin chaos_soak
//! ```

use converse_bench::report::{Better, Report, Row};
use converse_core::{csd_exit_scheduler, csd_scheduler, MachineConfig, Message};
use converse_machine::{FaultPlan, FaultStats, LinkFaults};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PES: usize = 4;
/// Messages each PE sends to each of the other PEs: 4 × 3 × 834 = 10008
/// logical messages, clearing the 10k acceptance floor.
const PER_LINK: u64 = 834;
const SEEDS: [u64; 3] = [1, 7, 1996];

struct SoakResult {
    logical: u64,
    delivered: u64,
    stats: FaultStats,
    overhead: f64,
    elapsed: Duration,
}

fn soak(seed: u64) -> SoakResult {
    let plan = FaultPlan::new(seed)
        .faults(LinkFaults {
            drop: 0.2,
            dup: 0.1,
            delay: 0.3,
            max_delay_slots: 4,
        })
        .retransmit(Duration::from_micros(600), Duration::from_millis(8))
        .tick(Duration::from_micros(250));

    let delivered = Arc::new(AtomicU64::new(0));
    let checksum = Arc::new(AtomicU64::new(0));
    let (d2, c2) = (delivered.clone(), checksum.clone());
    let expect_per_pe = PER_LINK * (PES as u64 - 1);

    let started = Instant::now();
    let report = converse_core::run_with(MachineConfig::new(PES).faults(plan), move |pe| {
        let d3 = d2.clone();
        let c3 = c2.clone();
        let local = Arc::new(AtomicU64::new(0));
        let h = pe.register_handler(move |pe, msg| {
            c3.fetch_add(
                u64::from_le_bytes(msg.payload().try_into().unwrap()),
                Ordering::Relaxed,
            );
            d3.fetch_add(1, Ordering::Relaxed);
            if local.fetch_add(1, Ordering::Relaxed) + 1 == expect_per_pe {
                csd_exit_scheduler(pe);
            }
        });
        pe.barrier();
        let me = pe.my_pe() as u64;
        for k in 0..PER_LINK {
            for other in 0..PES {
                if other == pe.my_pe() {
                    continue;
                }
                // Globally unique tag so the checksum catches loss and
                // duplication alike.
                let tag = me * 1_000_000 + other as u64 * 10_000 + k;
                pe.sync_send_and_free(other, Message::new(h, &tag.to_le_bytes()));
            }
        }
        csd_scheduler(pe, -1);
        pe.barrier();
    });

    let logical = report.total_msgs();
    let stats = report.fault_stats;
    let got = delivered.load(Ordering::Relaxed);
    let want = expect_per_pe * PES as u64;
    assert_eq!(got, want, "seed {seed}: lost or duplicated deliveries");
    let mut sum = 0u64;
    for src in 0..PES as u64 {
        for dst in 0..PES as u64 {
            if src == dst {
                continue;
            }
            for k in 0..PER_LINK {
                sum += src * 1_000_000 + dst * 10_000 + k;
            }
        }
    }
    assert_eq!(
        checksum.load(Ordering::Relaxed),
        sum,
        "seed {seed}: payload checksum mismatch (duplicate or corruption)"
    );
    let overhead = stats.overhead_ratio(logical);
    assert!(
        overhead <= 3.0,
        "seed {seed}: retransmit overhead {overhead:.2}x exceeds the 3x budget"
    );
    SoakResult {
        logical,
        delivered: got,
        stats,
        overhead,
        elapsed: started.elapsed(),
    }
}

fn main() {
    let mut report = Report::new(
        "chaos",
        &format!("chaos soak: {PES} PEs, drop 0.2 / dup 0.1 / delay<=4 slots"),
    );
    for seed in SEEDS {
        let r = soak(seed);
        let row = |metric, unit, better, value: f64| {
            Row::new("soak", metric, unit, better, value)
                .with("seed", seed)
                .with("pes", PES)
                .with("drop", 0.2)
                .with("dup", 0.1)
                .with("delay", 0.3)
                .with("max_delay_slots", 4)
        };
        use Better::{Higher, Lower};
        report.push(row("logical_msgs", "msgs", Higher, r.logical as f64));
        report.push(row("delivered", "msgs", Higher, r.delivered as f64));
        report.push(row(
            "wire_transmissions",
            "msgs",
            Lower,
            r.stats.transmissions as f64,
        ));
        report.push(row("dropped", "msgs", Lower, r.stats.dropped as f64));
        report.push(row("duplicated", "msgs", Lower, r.stats.duplicated as f64));
        report.push(row("delayed", "msgs", Lower, r.stats.delayed as f64));
        report.push(row(
            "retransmitted",
            "msgs",
            Lower,
            r.stats.retransmitted as f64,
        ));
        report.push(row(
            "dedup_dropped",
            "msgs",
            Lower,
            r.stats.dedup_dropped as f64,
        ));
        report.push(row("overhead_ratio", "x", Lower, r.overhead));
        report.push(row("elapsed", "ms", Lower, r.elapsed.as_millis() as f64));
    }
    report.finish();
}
