//! `ccs-echo`: requests from outside the machine, through the CCS
//! front end, to an echo handler on a 2-PE in-process machine.
//!
//! One client thread on one connection, after a warm-up, alternates
//! two phases for the whole budget, so a burst of host noise lands in
//! one round rather than in one whole metric:
//!
//! 1. **Closed loop.** One request in flight, a block of
//!    [`LAT_BLOCK`] timed round trips, alternating destination PEs.
//! 2. **Pipelined.** A window of [`WINDOW`] requests in flight on the
//!    same connection, for a chunk of [`CHUNK`] requests.
//!
//! The request rate is the median chunk rate, and the latency tail the
//! median over [`TAIL_BLOCK`]-sample blocks of each block's tail.
//!
//! Every reply must carry status OK and echo its request's seeded
//! payload byte for byte. When traced, the echo handler stamps its
//! entry and the moment it replies (client and machine share one
//! process, so one clock), splitting each closed-loop round trip into
//! its inbound and outbound halves.

use crate::common::{
    boot_barrier, finish_pe, latency_lines, mix, time_barriers, wall_ns, Ctx, Lines, Outcome,
    TRACE_CAPACITY, TRACE_FILL,
};
use crate::stats;
use converse_ccs::{self as ccs, CcsClient, CcsRegistry, CcsServer, CcsServerConfig};
use converse_core::{csd_exit_scheduler, csd_scheduler};
use converse_machine::{run_with, Message, Pe};
use converse_trace::MemorySink;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Request payload bytes: an 8-byte request number and seeded filler.
pub const PAYLOAD: usize = 64;
/// Timed closed-loop round trips per round (and the reduced size).
pub const LAT_BLOCK: usize = 1_000;
const LAT_BLOCK_SMALL: usize = 20;
/// Closed-loop samples per tail block, so the tail is p90. The p99 of
/// a CCS round trip on a 2-CPU host measures scheduler preemption more
/// than the CCS path: its median over 1000-sample blocks ranged
/// 41–140 µs over ten runs, the p90 stays within a few percent.
pub const TAIL_BLOCK: usize = 100;
/// Pipelined requests per round (and the reduced size).
pub const CHUNK: usize = 8_192;
const CHUNK_SMALL: usize = 64;
/// Untimed round trips before the first round.
const WARMUP: usize = 500;
/// Requests in flight in the pipelined phase.
pub const WINDOW: usize = 32;

fn request(seed: u64, i: u64) -> Vec<u8> {
    let mut b = Vec::with_capacity(PAYLOAD);
    b.extend_from_slice(&i.to_le_bytes());
    let mut x = mix(seed, i);
    while b.len() < PAYLOAD {
        x = mix(x, b.len() as u64);
        b.extend_from_slice(&x.to_le_bytes());
    }
    b.truncate(PAYLOAD);
    b
}

/// The one clock client and handlers share.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Handler-side stamps of traced closed-loop requests:
/// `(request number, handler entry ns, reply ns)`.
type Stamps = Arc<Mutex<Vec<(u64, u64, u64)>>>;

/// What the client thread measured.
#[derive(Default)]
struct ClientResult {
    attempted: u64,
    failed: u64,
    /// Closed-loop round trips, in blocks of [`TAIL_BLOCK`].
    lat_us: Vec<Vec<f64>>,
    /// `(request number, client send ns, client receive ns)`.
    sends: Vec<(u64, u64, u64)>,
    /// Pipelined requests per second, one chunk per round.
    chunk_rates: Vec<f64>,
}

/// Run the workload in this process; see the module docs.
pub fn run(ctx: &Ctx) -> Outcome {
    let t0_wall = wall_ns();
    let sink = ctx.sink();
    let registry = CcsRegistry::new();
    let server = CcsServer::new(
        registry.clone(),
        CcsServerConfig {
            max_inflight: WINDOW,
            request_timeout: Duration::from_secs(30),
            ..CcsServerConfig::default()
        },
    );
    let handle = server.handle();
    let stamps: Stamps = Arc::default();
    let client = (!ctx.probe).then(|| {
        let (c, s) = (ctx.clone(), sink.clone());
        std::thread::spawn(move || {
            let addr = handle
                .wait_addr(Duration::from_secs(10))
                .expect("CCS server bound");
            drive(&c, addr, &s)
        })
    });
    let cfg = ctx.machine(&sink).attach(Box::new(server));
    let (c, s, st) = (ctx.clone(), sink.clone(), stamps.clone());
    let report = run_with(cfg, move |pe| entry(pe, &c, &registry, &s, &st));
    let lines = Lines::parse(&report);
    let mut out = Outcome::default();
    let mut r = client
        .map(|t| t.join().expect("CCS client thread"))
        .unwrap_or_default();
    out.common(ctx, t0_wall, &report, &lines);
    for (k, v) in latency_lines(std::mem::take(&mut r.lat_us)) {
        out.set(k, v);
    }
    out.set("attempted", r.attempted as f64);
    out.set("failed", r.failed as f64);
    if let Some(rate) = stats::median(&r.chunk_rates) {
        out.set("ops_per_s", rate);
    }
    if ctx.traced {
        let (inbound, outbound) = split(&r.sends, &stamps.lock().expect("stamps lock"));
        out.set("ccs.inbound_us_p50", inbound);
        out.set("ccs.outbound_us_p50", outbound);
    }
    out
}

/// Median inbound (client send → handler entry) and outbound (handler
/// reply → client receive) times, in µs.
fn split(sends: &[(u64, u64, u64)], stamps: &[(u64, u64, u64)]) -> (f64, f64) {
    let by_req: std::collections::HashMap<u64, (u64, u64)> =
        stamps.iter().map(|&(i, a, b)| (i, (a, b))).collect();
    let (mut inb, mut outb) = (Vec::new(), Vec::new());
    for &(i, sent, got) in sends {
        if let Some(&(entry, reply)) = by_req.get(&i) {
            inb.push(entry.saturating_sub(sent) as f64 / 1e3);
            outb.push(got.saturating_sub(reply) as f64 / 1e3);
        }
    }
    (
        stats::median(&inb).unwrap_or(0.0),
        stats::median(&outb).unwrap_or(0.0),
    )
}

fn entry(
    pe: &Pe,
    ctx: &Ctx,
    registry: &CcsRegistry,
    sink: &Option<Arc<MemorySink>>,
    stamps: &Stamps,
) {
    let traced = ctx.traced;
    let st = stamps.clone();
    registry.register(pe, "echo", move |pe, msg| {
        let entered = if traced { now_ns() } else { 0 };
        let token = ccs::current_token(pe).expect("echo runs under the CCS gateway");
        if traced {
            let i = u64::from_le_bytes(msg.payload()[..8].try_into().expect("request number"));
            st.lock().expect("stamps lock").push((i, entered, now_ns()));
        }
        ccs::send_reply(pe, token, msg.payload());
    });
    let exit_h = pe.register_handler(|pe, _| csd_exit_scheduler(pe));
    registry.register(pe, "exit", move |pe, _| {
        pe.sync_broadcast_all(&Message::new(exit_h, b""));
    });
    boot_barrier(pe);
    if !ctx.probe {
        time_barriers(pe);
        csd_scheduler(pe, -1);
    }
    finish_pe(pe, sink);
}

/// The client's connection and what it has measured so far.
struct Conn<'a> {
    ctx: &'a Ctx,
    c: CcsClient,
    r: ClientResult,
    /// Number of the next request.
    next: u64,
}

impl Conn<'_> {
    /// Send request `i` without waiting.
    fn submit(&mut self, i: u64) -> Result<ccs::CcsTicket, ccs::CcsError> {
        let body = request(self.ctx.seed, i);
        self.c.submit("echo", (i as usize) % crate::NPROC, &body)
    }

    /// Count a reply: status OK and a byte-equal echo of request `i`.
    fn check(&mut self, i: u64, reply: Result<ccs::Reply, ccs::CcsError>) {
        self.r.attempted += 1;
        let good =
            matches!(&reply, Ok(rep) if rep.is_ok() && rep.payload == request(self.ctx.seed, i));
        if !good {
            self.r.failed += 1;
        }
    }

    /// `n` round trips with one request in flight; `timed` keeps them
    /// as one latency block.
    fn closed_loop(&mut self, n: usize, timed: bool) {
        let mut us = Vec::with_capacity(n);
        for _ in 0..n {
            let i = self.next;
            self.next += 1;
            let (t0, sent) = (Instant::now(), now_ns());
            let reply = self.submit(i).and_then(|t| self.c.wait(t));
            let (dt, got) = (t0.elapsed(), now_ns());
            self.check(i, reply);
            us.push(dt.as_secs_f64() * 1e6);
            if timed && self.ctx.traced {
                self.r.sends.push((i, sent, got));
            }
        }
        if timed {
            self.r
                .lat_us
                .extend(us.chunks(TAIL_BLOCK).map(<[f64]>::to_vec));
        }
    }

    /// `n` requests with [`WINDOW`] in flight; keeps the completion rate.
    fn pipelined(&mut self, n: usize) {
        let mut inflight: VecDeque<(u64, ccs::CcsTicket)> = VecDeque::with_capacity(WINDOW);
        let t0 = Instant::now();
        for _ in 0..n {
            if inflight.len() == WINDOW {
                let (i, t) = inflight.pop_front().expect("full window");
                let reply = self.c.wait(t);
                self.check(i, reply);
            }
            let i = self.next;
            self.next += 1;
            match self.submit(i) {
                Ok(t) => inflight.push_back((i, t)),
                Err(e) => self.check(i, Err(e)),
            }
        }
        for (i, t) in inflight {
            let reply = self.c.wait(t);
            self.check(i, reply);
        }
        self.r
            .chunk_rates
            .push(n as f64 / t0.elapsed().as_secs_f64());
    }
}

/// The client: warm up, alternate closed-loop blocks and pipelined
/// chunks, exit.
fn drive(ctx: &Ctx, addr: std::net::SocketAddr, sink: &Option<Arc<MemorySink>>) -> ClientResult {
    let mut c = CcsClient::connect(addr).expect("connect to CCS server");
    c.set_timeout(Some(Duration::from_secs(60)))
        .expect("set client timeout");
    // Names register as PEs boot: retry until every PE answers.
    for pe in 0..crate::NPROC {
        while c.call("echo", pe, &request(ctx.seed, 0)).is_err() {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let (block, chunk) = if ctx.small {
        (LAT_BLOCK_SMALL, CHUNK_SMALL)
    } else {
        (LAT_BLOCK, CHUNK)
    };
    let mut s = Conn {
        ctx,
        c,
        r: ClientResult::default(),
        next: 1,
    };
    s.closed_loop(WARMUP, false);
    let t0 = Instant::now();
    let (mut rounds, mut max_rounds) = (0u64, u64::MAX);
    while rounds < max_rounds && (rounds == 0 || ctx.budget.more(t0, rounds)) {
        s.closed_loop(block, true);
        s.pipelined(chunk);
        rounds += 1;
        if let (1, Some(sink)) = (rounds, sink) {
            // A traced run stops before the PEs' trace sinks fill.
            let used = (0..crate::NPROC)
                .map(|p| sink.records(p).len())
                .max()
                .unwrap_or(0) as f64;
            let per_round = used / s.next as f64 * (block + chunk) as f64;
            let room = (TRACE_CAPACITY as f64 * TRACE_FILL - used) / per_round.max(1.0);
            max_rounds = 1 + room.max(0.0) as u64;
        }
    }
    // Fire and forget: the machine exits before it could reply.
    let _ = s.c.submit("exit", 0, b"");
    s.r
}
