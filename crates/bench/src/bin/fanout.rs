//! Fan-out throughput per delivery guarantee under a lossy wire.
//!
//! One sender fans `MSGS` small messages to every other PE of a 2/4/8
//! PE interconnect under a drop-0.2 fault plan, once per guarantee:
//!
//! * **exactly-once** — the sustained rate is bounded by retransmit
//!   round trips: every dropped message must be re-sent and the run
//!   only ends when the last one lands.
//! * **at-most-once** — drops are shed, not repaired: the rate is the
//!   raw send rate, and delivered counts what survived.
//! * **latest-value-wins** — newer values supersede queued/in-flight
//!   ones; the run ends when every receiver holds the final value.
//!
//! The point of the QoS layer in one number: what does the exactly-once
//! guarantee *cost* on a lossy wire, per fan-out width? Rates are
//! gated (`converse_bench::report`) against the checked-in
//! `BENCH_fanout.json` at 25% tolerance. The acceptance floor —
//! at-most-once ≥ 2× the exactly-once rate at 8 PEs — is a hard bound
//! no flag waives.
//!
//! ```sh
//! cargo run --release -p converse-bench --bin fanout
//! ```

use converse_bench::report::{Better, Bound, Report, Row};
use converse_msg::MsgBlock;
use converse_net::{Channel, CmiTransport, Delivery, FaultPlan, Interconnect, LinkFaults};
use std::time::{Duration, Instant};

/// Messages fanned to each receiver, per guarantee.
const MSGS: u64 = 2000;
const FLEETS: [usize; 3] = [2, 4, 8];
/// The EO end-of-burst marker rides the default channel.
const DONE: u64 = u64::MAX;

fn plan() -> FaultPlan {
    FaultPlan::new(42)
        .faults(LinkFaults {
            drop: 0.2,
            dup: 0.0,
            delay: 0.0,
            max_delay_slots: 0,
        })
        .retransmit(Duration::from_micros(600), Duration::from_millis(8))
        .tick(Duration::from_micros(250))
}

struct Fanout {
    msgs_per_sec: f64,
    delivered: u64,
    superseded: u64,
}

fn payload(v: u64) -> MsgBlock {
    MsgBlock::copy_from(&v.to_le_bytes())
}

fn value(p: &converse_net::Packet) -> u64 {
    u64::from_le_bytes(p.bytes().try_into().expect("8-byte payload"))
}

/// Fan `MSGS` messages from PE 0 to every other PE over `delivery`,
/// and measure the sustained logical-publish rate until the
/// guarantee's own completion condition holds on every receiver.
#[allow(clippy::needless_range_loop)] // dst indexes both the net and `finished`
fn fanout(pes: usize, delivery: Delivery) -> Fanout {
    let net = Interconnect::with_config(pes, converse_net::DeliveryMode::Fifo, Some(plan()), None);
    let chan = Channel::new(5, delivery);
    let started = Instant::now();
    for i in 0..MSGS {
        let b = payload(i);
        for dst in 1..pes {
            net.send_block_on(0, dst, b.share(), chan);
        }
    }
    // End-of-burst marker on the default exactly-once channel: it
    // cannot outrun the burst (per-link FIFO between sequenced
    // streams is not guaranteed, but its own delivery is), and it
    // gives the at-most-once run a finish line drops cannot erase.
    for dst in 1..pes {
        net.send(0, dst, payload(DONE));
    }

    let logical = MSGS * (pes as u64 - 1);
    let mut delivered = 0u64;
    let mut finished = vec![false; pes];
    finished[0] = true;
    let elapsed = loop {
        let mut all_done = true;
        for dst in 1..pes {
            while let Some(p) = net.mailbox_of(dst).try_recv() {
                let v = value(&p);
                match delivery {
                    // EO finish line: every logical message arrived.
                    Delivery::ExactlyOnce => {
                        if v != DONE {
                            delivered += 1;
                        }
                    }
                    // AMO finish line: the EO marker arrived.
                    Delivery::AtMostOnce => {
                        if v == DONE {
                            finished[dst] = true;
                        } else {
                            delivered += 1;
                        }
                    }
                    // LVW finish line: the final value arrived.
                    Delivery::LatestValueWins => {
                        if v == MSGS - 1 {
                            finished[dst] = true;
                        }
                        if v != DONE {
                            delivered += 1;
                        }
                    }
                }
            }
            let done = match delivery {
                Delivery::ExactlyOnce => delivered == logical,
                _ => finished[dst],
            };
            all_done &= done;
        }
        if all_done {
            break started.elapsed();
        }
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "{} fan-out at {pes} PEs never finished (delivered {delivered}/{logical})",
            delivery.label()
        );
        std::thread::yield_now();
    };

    let stats = net.fault_stats();
    net.close();
    match delivery {
        Delivery::ExactlyOnce => assert_eq!(delivered, logical, "exactly-once lost messages"),
        Delivery::AtMostOnce => {
            // At drop 0.2 a loss-free 2000-message run is implausible;
            // the gap is the point of the guarantee. (Retransmissions
            // are not zero: the end-of-burst marker rides the reliable
            // default channel.)
            assert!(
                delivered < logical,
                "at-most-once shed nothing under drop 0.2"
            );
        }
        Delivery::LatestValueWins => {
            assert!(delivered <= logical, "latest-value-wins duplicated")
        }
    }
    Fanout {
        msgs_per_sec: logical as f64 / elapsed.as_secs_f64(),
        delivered,
        superseded: stats.superseded,
    }
}

fn main() {
    let mut report = Report::new(
        "fanout",
        "fan-out under drop 0.2: logical publishes/sec per guarantee",
    );
    let mut rate8 = Vec::new();
    for pes in FLEETS {
        for d in [
            Delivery::ExactlyOnce,
            Delivery::AtMostOnce,
            Delivery::LatestValueWins,
        ] {
            let r = fanout(pes, d);
            let row = |metric, unit, better, value| {
                Row::new("fanout", metric, unit, better, value)
                    .with("guarantee", d.label())
                    .with("pes", pes)
                    .with("drop", 0.2)
                    .with("msgs_per_receiver", MSGS)
            };
            let rate = report.push(row("rate", "msgs/s", Better::Higher, r.msgs_per_sec));
            report.push(row("delivered", "msgs", Better::Higher, r.delivered as f64));
            report.push(row(
                "superseded",
                "msgs",
                Better::Lower,
                r.superseded as f64,
            ));
            if pes == 8 {
                rate8.push(rate);
            }
        }
    }
    // The acceptance floor: shedding drops must beat repairing them by
    // at least 2x at the widest fan-out.
    report.bound(Bound::Ratio {
        num: rate8[1].clone(),
        den: rate8[0].clone(),
        floor: 2.0,
        hard: true,
    });
    report.bound(Bound::Baseline {
        rows: |r| r.metric == "rate",
        factor: 1.25,
        slack: 0.0,
    });
    report.finish();
}
