//! Wire-transport overhead scorecard: the real wire (socket and
//! shared-memory rings) vs the in-process interconnect, same programs,
//! same machine shapes.
//!
//! Two shapes per transport:
//!
//! * `rtt` p50 / p99 — 2-PE 16 B ping-pong round-trip latency.
//!   Measured *inside* the entry function (on the socket transport that
//!   is a real worker process) and reported through captured
//!   `cmi_printf` output, so the measurement path is identical on both
//!   transports.
//! * `fanin` — (P−1)→1 16 B delivery throughput at 2/4/8 PEs: every
//!   other PE streams at PE 0, which times draining the full count.
//!
//! Each row names its transport in the `transport` param. Gates
//! (`converse_bench::report`): the shared-memory rings exist to beat
//! the hub socket, so ring RTT p50 must be at most 1/3 of socket and
//! 8-PE ring fan-in at least 4x socket, same run; and every socket and
//! shmring row must stay within 25% of the checked-in
//! `BENCH_wire.json` (RTT not above, fan-in not below).
//!
//! ```sh
//! cargo run --release -p converse-bench --bin net_wire
//! ```

use converse_bench::report::{pctl, Better, Bound, Report, Row};
use converse_bench::transport_label;
use converse_core::{csd_exit_scheduler, csd_scheduler};
use converse_machine::{run_with, MachineConfig, Message, Transport};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const PAYLOAD: usize = 16;
const RTT_WARMUP: u64 = 200;
const RTT_SAMPLES: usize = 2_000;
const FANIN_PES: [usize; 3] = [2, 4, 8];
/// Messages per sender in the fan-in runs. Modest on purpose: each
/// socket-transport run re-executes this binary per rank, and each
/// worker replays every *earlier* run in-process to reach its call
/// site, so total work grows with the square of the run count.
const FANIN_MSGS: u64 = 20_000;

/// 2-PE ping-pong; PE 0 reports "RTT_NS <p50> <p99>" through the
/// captured console.
fn rtt_entry(pe: &converse_machine::Pe) {
    let pong = pe.register_handler(|_, _| {});
    let ping = pe.register_handler(|_, _| {});
    pe.barrier();
    let payload = [0x5A_u8; PAYLOAD];
    if pe.my_pe() == 0 {
        for _ in 0..RTT_WARMUP {
            pe.sync_send_and_free(1, Message::new(ping, &payload));
            pe.get_specific_msg(pong);
        }
        let mut samples = Vec::with_capacity(RTT_SAMPLES);
        for _ in 0..RTT_SAMPLES {
            let t0 = Instant::now();
            pe.sync_send_and_free(1, Message::new(ping, &payload));
            pe.get_specific_msg(pong);
            samples.push(t0.elapsed().as_nanos() as f64);
        }
        pe.cmi_printf(format!(
            "RTT_NS {} {}",
            pctl(&mut samples, 0.50),
            pctl(&mut samples, 0.99)
        ));
    } else {
        for _ in 0..RTT_WARMUP as usize + RTT_SAMPLES {
            pe.get_specific_msg(ping);
            pe.sync_send_and_free(0, Message::new(pong, &payload));
        }
    }
    pe.barrier();
}

/// (P−1)→1 fan-in; PE 0 reports "FANIN <msgs_per_sec>".
fn fanin_entry(pe: &converse_machine::Pe) {
    let n = pe.num_pes();
    let got = Arc::new(AtomicU64::new(0));
    let g2 = got.clone();
    let total = FANIN_MSGS * (n as u64 - 1);
    let sink = pe.register_handler(move |pe, _msg| {
        if g2.fetch_add(1, Ordering::Relaxed) + 1 == total {
            csd_exit_scheduler(pe);
        }
    });
    pe.barrier();
    if pe.my_pe() == 0 {
        let t0 = Instant::now();
        csd_scheduler(pe, -1);
        let dt = t0.elapsed();
        assert_eq!(got.load(Ordering::Relaxed), total);
        pe.cmi_printf(format!(
            "FANIN {:.1}",
            total as f64 / dt.as_secs_f64().max(1e-9)
        ));
    } else {
        let payload = [0x5A_u8; PAYLOAD];
        for _ in 0..FANIN_MSGS {
            pe.sync_send_and_free(0, Message::new(sink, &payload));
        }
    }
    pe.barrier();
}

/// Run `entry` on `pes` PEs over `transport` and return the first
/// captured line starting with `tag`, split into f64 fields.
fn run_and_parse(
    pes: usize,
    transport: Transport,
    tag: &str,
    entry: fn(&converse_machine::Pe),
) -> Vec<f64> {
    let report = run_with(
        MachineConfig::new(pes)
            .transport(transport)
            .capture_output(),
        entry,
    );
    let line = report
        .output
        .iter()
        .find(|l| l.starts_with(tag))
        .unwrap_or_else(|| panic!("no {tag} line in captured output: {:?}", report.output))
        .clone();
    line.split_whitespace()
        .skip(1)
        .map(|f| f.parse().expect("numeric bench field"))
        .collect()
}

fn main() {
    let mut report = Report::new(
        "wire",
        "16 B round-trip and (P-1)->1 fan-in: in-process vs socket vs shmring",
    );
    let transports = [Transport::InProcess, Transport::Socket, Transport::ShmRing];
    let row = |case, pes, t, metric, unit, better, value| {
        Row::new(case, metric, unit, better, value)
            .with("pes", pes)
            .with("payload_bytes", PAYLOAD)
            .with("transport", transport_label(t))
    };
    let mut rtt_p50 = Vec::new();
    for t in transports {
        let rtt = run_and_parse(2, t, "RTT_NS", rtt_entry);
        rtt_p50.push(report.push(row("rtt", 2, t, "p50", "ns", Better::Lower, rtt[0])));
        report.push(row("rtt", 2, t, "p99", "ns", Better::Lower, rtt[1]));
    }
    let mut fanin = Vec::new();
    for pes in FANIN_PES {
        for t in transports {
            let rate = run_and_parse(pes, t, "FANIN", fanin_entry)[0];
            fanin.push(report.push(row("fanin", pes, t, "rate", "msgs/s", Better::Higher, rate)));
        }
    }
    let [.., sock8, shm8] = &fanin[..] else {
        unreachable!("three transports per fan-in width")
    };
    report.bound(Bound::Ratio {
        num: rtt_p50[1].clone(),
        den: rtt_p50[2].clone(),
        floor: 3.0,
        hard: false,
    });
    report.bound(Bound::Ratio {
        num: shm8.clone(),
        den: sock8.clone(),
        floor: 4.0,
        hard: false,
    });
    report.bound(Bound::Baseline {
        rows: |r| r.param("transport") != Some("inproc"),
        factor: 1.25,
        slack: 0.0,
    });
    report.finish();
}
