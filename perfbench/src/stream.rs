//! `lossy-stream-socket`: raw CMI messages between two worker
//! processes over `Transport::Socket`, under a seeded 2% drop plan.
//!
//! After a warm-up, PE 0 runs rounds for the whole budget, each with
//! two phases, so a burst of host noise lands in one round rather than
//! in one whole metric:
//!
//! 1. **Ping-pong.** A closed loop of [`RTT_BLOCK`] 16-byte round trips
//!    from PE 0 to PE 1 and back; each pong must echo its ping byte for
//!    byte.
//! 2. **Stream.** [`CHUNK`] 16-byte messages one way, each carrying its
//!    sequence number and seeded filler. PE 1 checks exactly-once,
//!    in-order delivery by the sequence number and returns a credit
//!    every [`CREDIT_EVERY`] messages; PE 0 keeps at most [`WINDOW`]
//!    messages in flight. A marker ends the chunk, and PE 1 answers with
//!    the count it received and the violations it saw.
//!
//! The stream rate is the median chunk rate, and the latency tail the
//! median over rounds of each block's tail.

use crate::common::{
    boot_barrier, finish_pe, mix, put, put_latency, time_barriers, trace_room, wall_ns, Ctx, Lines,
    Ops, Outcome,
};
use crate::stats;
use converse_machine::{run_with, FaultPlan, HandlerId, Message, Pe, Transport};
use converse_trace::MemorySink;
use std::sync::Arc;
use std::time::Instant;

/// Drop probability of every link. At 5% one round trip in ten loses
/// a message, which puts p90 and p99 of the round trip on the edges
/// between retransmission modes, and a 256-deep stream window falls
/// into a retransmit storm whose rate varies twofold between seeds. At
/// 2% the p99 sits well inside the one-retransmission mode, so host
/// preemption that adds spurious retransmissions does not push it into
/// the next mode.
pub const DROP: f64 = 0.02;
/// Timed ping-pong round trips per round (p99 each; and the reduced
/// test size).
pub const RTT_BLOCK: usize = 1_000;
const RTT_BLOCK_SMALL: usize = 20;
/// Untimed round trips before the first round.
const RTT_WARMUP: usize = 200;
/// Stream messages per round (and the reduced test size).
pub const CHUNK: u64 = 4096;
const CHUNK_SMALL: u64 = 16;
/// PE 1 returns one credit per this many stream messages.
pub const CREDIT_EVERY: u64 = 8;
/// Stream messages PE 0 may have sent beyond the last credit.
pub const WINDOW: u64 = 32;
/// Second word of a credit; a chunk report carries the violation
/// count there instead.
const CREDIT: u64 = u64::MAX;
/// Sequence number of the end-of-chunk marker.
const END: u64 = u64::MAX;

fn payload(seed: u64, seq: u64) -> [u8; 16] {
    let mut b = [0u8; 16];
    b[..8].copy_from_slice(&seq.to_le_bytes());
    b[8..].copy_from_slice(&mix(seed, seq).to_le_bytes());
    b
}

fn word(bytes: &[u8], i: usize) -> u64 {
    bytes
        .get(i * 8..i * 8 + 8)
        .map(|w| u64::from_le_bytes(w.try_into().expect("8-byte word")))
        .unwrap_or(u64::MAX)
}

fn words(a: u64, b: u64) -> [u8; 16] {
    let mut m = [0u8; 16];
    m[..8].copy_from_slice(&a.to_le_bytes());
    m[8..].copy_from_slice(&b.to_le_bytes());
    m
}

/// Run the workload in this process; see the module docs.
pub fn run(ctx: &Ctx) -> Outcome {
    let t0_wall = wall_ns();
    let sink = ctx.sink();
    let cfg = ctx
        .machine(&sink)
        .transport(Transport::Socket)
        .faults(FaultPlan::lossy(ctx.seed, DROP, 0.0, 0.0, 0));
    let (c, s) = (ctx.clone(), sink.clone());
    let report = run_with(cfg, move |pe| entry(pe, &c, &s));
    let lines = Lines::parse(&report);
    let mut out = Outcome::default();
    out.common(ctx, t0_wall, &report, &lines);
    let pings = lines.sum("pings");
    let sent = lines.sum("stream_sent");
    let failed = lines.sum("ping_failed") + lines.sum("stream_failed");
    out.set("attempted", pings + sent);
    out.set("failed", failed);
    out.set("stream_msgs", sent);
    if let Some(r) = lines.one("stream_msgs_per_s") {
        out.set("ops_per_s", r);
    }
    if ctx.traced {
        out.set(
            "machine.send_ns_p50",
            lines.one("send_ns_p50").unwrap_or(0.0),
        );
    }
    out
}

struct Handlers {
    ping: HandlerId,
    pong: HandlerId,
    data: HandlerId,
    credit: HandlerId,
    /// PE 0 to PE 1 before each round: 1 to run it, 0 to stop.
    round: HandlerId,
}

fn entry(pe: &Pe, ctx: &Ctx, sink: &Option<Arc<MemorySink>>) {
    let ops = Ops::register(pe);
    // Messages are taken with `get_specific_msg`, never dispatched.
    let h = Handlers {
        ping: pe.register_handler(|_, _| {}),
        pong: pe.register_handler(|_, _| {}),
        data: pe.register_handler(|_, _| {}),
        credit: pe.register_handler(|_, _| {}),
        round: pe.register_handler(|_, _| {}),
    };
    boot_barrier(pe);
    if ctx.probe {
        finish_pe(pe, sink);
        return;
    }
    time_barriers(pe);
    let (block, chunk) = if ctx.small {
        (RTT_BLOCK_SMALL, CHUNK_SMALL)
    } else {
        (RTT_BLOCK, CHUNK)
    };
    let mut s = Side::default();
    ping_pong(pe, ctx, &h, &mut s, RTT_WARMUP);
    let t0 = Instant::now();
    let (mut rounds, mut max_rounds) = (0u64, u64::MAX);
    loop {
        let go = if pe.my_pe() == 0 {
            let go = rounds < max_rounds && (rounds == 0 || ctx.budget.more(t0, rounds));
            pe.sync_send_and_free(1, Message::new(h.round, &words(u64::from(go), 0)));
            go
        } else {
            word(pe.get_specific_msg(h.round).payload(), 0) == 1
        };
        if !go {
            break;
        }
        let us = ping_pong(pe, ctx, &h, &mut s, block);
        s.blocks.push(us);
        if pe.my_pe() == 0 {
            stream_send(pe, ctx, &h, &mut s, chunk);
        } else {
            stream_recv(pe, ctx, &h, &mut s);
        }
        rounds += 1;
        if rounds == 1 {
            max_rounds = trace_room(pe, &ops, sink, 1).saturating_add(1);
        }
    }
    if pe.my_pe() == 0 {
        put(pe, "pings", s.pings as f64);
        put(pe, "ping_failed", s.ping_failed as f64);
        put(pe, "stream_sent", s.sent as f64);
        put(pe, "stream_failed", s.stream_failed as f64);
        if let Some(rate) = stats::median(&s.chunk_rates) {
            put(pe, "stream_msgs_per_s", rate);
        }
        if ctx.traced {
            let sorted = stats::sorted(std::mem::take(&mut s.send_ns));
            if !sorted.is_empty() {
                put(pe, "send_ns_p50", stats::nearest_rank(&sorted, 50.0).0);
            }
        }
        put_latency(pe, std::mem::take(&mut s.blocks));
    }
    finish_pe(pe, sink);
}

/// What one side of the link has counted so far.
#[derive(Default)]
struct Side {
    pings: u64,
    ping_failed: u64,
    blocks: Vec<Vec<f64>>,
    /// Stream messages sent (PE 0) or the next expected (PE 1).
    sent: u64,
    /// Credits PE 0 has seen, or messages PE 1 has received.
    credited: u64,
    /// Exactly-once or order violations (PE 1), or PE 0's total of
    /// reported violations and missing messages.
    stream_failed: u64,
    chunk_rates: Vec<f64>,
    send_ns: Vec<f64>,
}

/// `n` round trips; PE 0 returns their times in µs.
fn ping_pong(pe: &Pe, ctx: &Ctx, h: &Handlers, s: &mut Side, n: usize) -> Vec<f64> {
    let mut us = Vec::new();
    if pe.my_pe() == 0 {
        us.reserve(n);
        for _ in 0..n {
            let body = payload(ctx.seed, s.pings);
            let t0 = Instant::now();
            pe.sync_send_and_free(1, Message::new(h.ping, &body));
            let pong = pe.get_specific_msg(h.pong);
            us.push(t0.elapsed().as_secs_f64() * 1e6);
            s.pings += 1;
            if pong.payload() != body {
                s.ping_failed += 1;
            }
        }
    } else {
        for _ in 0..n {
            let ping = pe.get_specific_msg(h.ping);
            pe.sync_send_and_free(0, Message::new(h.pong, ping.payload()));
        }
    }
    us
}

/// PE 0: one chunk of the stream, then the end-of-chunk exchange.
fn stream_send(pe: &Pe, ctx: &Ctx, h: &Handlers, s: &mut Side, chunk: u64) {
    let t0 = Instant::now();
    let end = s.sent + chunk;
    while s.sent < end {
        while s.sent - s.credited >= WINDOW {
            s.credited = word(pe.get_specific_msg(h.credit).payload(), 0);
        }
        let msg = Message::new(h.data, &payload(ctx.seed, s.sent));
        if ctx.traced {
            let t = Instant::now();
            pe.sync_send_and_free(1, msg);
            s.send_ns.push(t.elapsed().as_nanos() as f64);
        } else {
            pe.sync_send_and_free(1, msg);
        }
        s.sent += 1;
    }
    pe.sync_send_and_free(1, Message::new(h.data, &words(END, s.sent)));
    // Late credits may precede the chunk report.
    let (received, violations) = loop {
        let m = pe.get_specific_msg(h.credit);
        if word(m.payload(), 1) != CREDIT {
            break (word(m.payload(), 0), word(m.payload(), 1));
        }
    };
    s.chunk_rates
        .push(chunk as f64 / t0.elapsed().as_secs_f64());
    s.credited = received;
    s.stream_failed = violations + s.sent.abs_diff(received);
}

/// PE 1: receive one chunk and report on it.
fn stream_recv(pe: &Pe, ctx: &Ctx, h: &Handlers, s: &mut Side) {
    loop {
        let m = pe.get_specific_msg(h.data);
        let seq = word(m.payload(), 0);
        if seq == END {
            let report = words(s.credited, s.stream_failed);
            pe.sync_send_and_free(0, Message::new(h.credit, &report));
            return;
        }
        // Exactly once and in order: every message is the next one, and
        // carries the filler its sequence number implies.
        if seq != s.sent || m.payload() != payload(ctx.seed, seq) {
            s.stream_failed += 1;
        }
        s.sent = seq.wrapping_add(1);
        s.credited += 1;
        if s.credited.is_multiple_of(CREDIT_EVERY) {
            pe.sync_send_and_free(0, Message::new(h.credit, &words(s.credited, CREDIT)));
        }
    }
}
