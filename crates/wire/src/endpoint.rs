//! The worker-side transport endpoint: one rank's view of the socket or
//! shared-memory machine. It encodes [`converse_net::reliable`] actions
//! as frames (transmits as DATA, acks as ACK) and delivers arrivals into
//! the one [`Mailbox`] of its own rank.

use crate::{connect, kind, PushOutcome, ShmPlane, WireOptions, WireStream};
use converse_msg::{write_frame, FrameHeader, MsgBlock};
use converse_net::reliable::{Chans, Receiver, Sender, Sink, Tally, Wire};
use converse_net::{
    Channel, CmiTransport, Delivery, DeliveryMode, FaultPlan, Mailbox, Packet, TransportKind,
};
use converse_trace::{Event, FaultKind, StealPhase, TraceSink};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Record one trace event per this many wire frames.
const FRAME_SAMPLE: u64 = 32;

/// The wire [`Sink`] for one peer and channel. Acks go out at once and
/// never block. Transmitted copies are written only after the send-link
/// lock drops (a blocking ring write under it could deadlock against
/// the peer's ack path): a tick collects them in `out`; on the send path
/// every copy carries the block being sent, so they are only counted.
struct PeerSink<'a> {
    ep: &'a WireEndpoint,
    peer: usize,
    channel: Channel,
    out: Option<&'a mut Vec<(Channel, u64, MsgBlock)>>,
    copies: usize,
}

impl<'a> PeerSink<'a> {
    fn new(ep: &'a WireEndpoint, peer: usize, channel: Channel) -> Self {
        PeerSink {
            ep,
            peer,
            channel,
            out: None,
            copies: 0,
        }
    }
}

impl Sink for PeerSink<'_> {
    fn transmit(&mut self, seq: u64, block: &MsgBlock) {
        match &mut self.out {
            Some(out) => out.push((self.channel, seq, block.share())),
            None => self.copies += 1,
        }
    }

    /// Into the local mailbox with the channel tag and the wire's seq,
    /// so a latest-value-wins arrival supersedes older queued values
    /// exactly as in-process.
    fn deliver(&mut self, seq: u64, block: MsgBlock) {
        self.ep.mailbox.push(self.peer, self.channel, seq, block);
    }

    fn ack(&mut self, selective: u64, cumulative: u64) {
        let ep = self.ep;
        let h = FrameHeader::new(kind::ACK, ep.rank as u32, self.peer as u32, selective)
            .on_channel(self.channel.id, self.channel.delivery.as_u8());
        // This runs on the reader or shm poller thread (see `emit`).
        ep.emit(h, &cumulative.to_le_bytes(), false);
    }

    /// Every tally of this endpoint is charged to its own rank; the
    /// link reads `peer → me` for a dedup drop, `me → peer` otherwise.
    fn count(&mut self, tally: Tally, seq: u64, n: u64) {
        let (me, peer) = (self.ep.rank, self.peer);
        let (src, dst) = match tally {
            Tally::Fault(FaultKind::DedupDrop) => (peer, me),
            _ => (me, peer),
        };
        self.ep.mailbox.tally(tally, n, src, dst, seq);
    }
}

/// Callback invoked (once) when the endpoint aborts — the machine
/// layer uses it to flip its shared panicked flag.
pub type AbortHook = Box<dyn Fn(&str) + Send + Sync>;

/// One rank's end of the socket or shared-memory machine. See the
/// module docs.
pub struct WireEndpoint {
    rank: usize,
    n: usize,
    /// This rank's mailbox, armed with the plan's stall windows for it.
    mailbox: Mailbox,
    writer: Mutex<WireStream>,
    /// Shared-memory ring data plane, when this endpoint runs the
    /// `shmring` transport. Peer-addressed frames go through the rings
    /// and the hub socket is demoted to control plane (bootstrap,
    /// teardown, crash detection) plus a fallback path for frames too
    /// large for a ring.
    shm: Option<ShmPlane>,
    plan: Option<FaultPlan>,
    send_links: Vec<Mutex<Chans<Sender>>>,
    recv_links: Vec<Mutex<Chans<Receiver>>>,
    /// Counts every frame written or read — the trace sampling key.
    frames: AtomicU64,
    /// Set while the teardown flush runs: the core's ticks flush.
    finishing: AtomicBool,
    /// Set once no further wire activity is expected (FIN, abort, or
    /// hub loss); reader/pump threads exit and write errors go quiet.
    shutdown: AtomicBool,
    fin: Mutex<bool>,
    fin_cv: Condvar,
    aborted: Mutex<Option<String>>,
    on_abort: Mutex<Option<AbortHook>>,
    /// Uptime-ns when the oldest unanswered STEAL_REQ left this rank
    /// (0 = none); closed out by the first DONATE arrival to time the
    /// request→donate steal leg.
    steal_req_at: AtomicU64,
}

impl WireEndpoint {
    /// Connect rank `rank` of an `n`-PE machine to the hub at `addr`,
    /// speak HELLO, and block until the hub's GO (the startup barrier).
    /// Returns with the reader (and, under a plan, the retransmit pump)
    /// running. With `shm` installed the endpoint runs the `shmring`
    /// transport: a dedicated poller thread consumes this rank's
    /// inbound rings and the hub socket carries control traffic only.
    #[allow(clippy::too_many_arguments)] // one arg per transport concern
    pub fn connect(
        rank: usize,
        n: usize,
        addr: &str,
        delivery: DeliveryMode,
        plan: Option<FaultPlan>,
        opts: &WireOptions,
        trace: Arc<dyn TraceSink>,
        shm: Option<ShmPlane>,
    ) -> io::Result<Arc<WireEndpoint>> {
        assert!(rank < n, "rank {rank} out of range for {n} PEs");
        if let Some(p) = &plan {
            p.validate(n);
        }
        let stream = connect(addr, opts.connect_timeout)?;
        write_frame(
            &mut stream.try_clone()?,
            FrameHeader::new(kind::HELLO, rank as u32, 0, 0),
            b"",
        )?;
        let mut reader = stream.try_clone()?;
        // The GO may lag while slower siblings exec and connect; give
        // it the whole bootstrap window.
        stream.set_read_timeout(Some(opts.accept_timeout + opts.connect_timeout))?;
        match converse_msg::read_frame(&mut reader)? {
            Some((h, _)) if h.kind == kind::GO => {}
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("wire: expected GO from hub, got {other:?}"),
                ))
            }
        }
        stream.set_read_timeout(None)?;

        let ep = Arc::new(WireEndpoint {
            rank,
            n,
            mailbox: Mailbox::new(
                rank,
                n,
                delivery,
                plan.as_ref(),
                Instant::now(),
                Some(trace),
            ),
            writer: Mutex::new(stream),
            shm,
            send_links: (0..n).map(|_| Mutex::default()).collect(),
            recv_links: (0..n).map(|_| Mutex::default()).collect(),
            plan,
            frames: AtomicU64::new(0),
            finishing: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            fin: Mutex::new(false),
            fin_cv: Condvar::new(),
            aborted: Mutex::new(None),
            on_abort: Mutex::new(None),
            steal_req_at: AtomicU64::new(0),
        });

        let rd = ep.clone();
        spawn(format!("wire-ep{rank}"), move || rd.reader_loop(reader));
        if ep.plan.is_some() {
            let pump = ep.clone();
            spawn(format!("wire-pump{rank}"), move || pump.pump_loop());
        }
        if ep.shm.is_some() {
            let po = ep.clone();
            spawn(format!("wire-shm{rank}"), move || {
                let plane = po.shm.as_ref().expect("shm plane");
                plane.poll_loop(&po.shutdown, |h, payload| {
                    po.trace_frame(h.kind, h.src as usize, payload.len(), false);
                    po.on_frame(h, payload);
                });
            });
        }
        Ok(ep)
    }

    /// Install the machine layer's abort reaction (e.g. marking the
    /// run panicked so blocked contexts unwind). Called with the abort
    /// message when a peer panics or the hub connection is lost.
    pub fn set_abort_hook(&self, f: AbortHook) {
        *self.on_abort.lock() = Some(f);
    }

    /// The abort message, if a peer failure reached this worker.
    pub fn aborted(&self) -> Option<String> {
        self.aborted.lock().clone()
    }

    // ---- frame output ---------------------------------------------------

    fn trace_frame(&self, kind_byte: u8, peer: usize, bytes: usize, sent: bool) {
        let count = self.frames.fetch_add(1, Ordering::Relaxed);
        if count.is_multiple_of(FRAME_SAMPLE) {
            self.mailbox.record(Event::WireFrame {
                kind: kind::name(kind_byte),
                peer,
                bytes,
                sent,
            });
        }
    }

    /// Write one frame to the hub. Errors are quiet once the endpoint
    /// is shutting down; otherwise they mean the hub vanished and the
    /// run is over for this worker.
    fn write(&self, header: FrameHeader, payload: &[u8]) {
        let r = write_frame(&mut *self.writer.lock(), header, payload);
        match r {
            Ok(()) => self.trace_frame(header.kind, header.dst as usize, payload.len(), true),
            Err(_) => {
                if !self.shutdown.load(Ordering::Acquire) {
                    self.abort_local("wire: hub connection lost (write)");
                }
            }
        }
    }

    /// Route one peer-addressed frame onto the data plane: the shared
    /// ring to `header.dst` when this is an shmring endpoint, the hub
    /// socket otherwise.
    ///
    /// `may_block` is the full-ring policy. App, pump and reader
    /// threads wait for the consumer to drain (the remote poller is
    /// always draining, so waiting is forward progress — the mirror of
    /// blocking in a full socket buffer). The shm **poller** thread
    /// must never wait: it is the drain for the opposite direction,
    /// and two pollers parked on each other's full rings would
    /// deadlock — so its frames (ACKs, donations) try the ring and
    /// spill to the hub socket, which still forwards every data kind.
    /// Oversized frames (> one ring) always take the hub path.
    fn emit(&self, header: FrameHeader, payload: &[u8], may_block: bool) {
        if let Some(shm) = &self.shm {
            let dst = header.dst as usize;
            if dst != self.rank && dst < self.n {
                match shm.push(dst, header, payload, may_block, &self.shutdown) {
                    PushOutcome::Sent => {
                        self.trace_frame(header.kind, dst, payload.len(), true);
                        return;
                    }
                    PushOutcome::Shutdown => return,
                    PushOutcome::TooBig | PushOutcome::Full => {}
                }
            }
        }
        self.write(header, payload);
    }

    fn data_header(&self, dst: usize, channel: Channel, seq: u64) -> FrameHeader {
        FrameHeader::new(kind::DATA, self.rank as u32, dst as u32, seq)
            .on_channel(channel.id, channel.delivery.as_u8())
    }

    fn wire<'a>(&self, plan: &'a FaultPlan, dst: usize) -> Wire<'a> {
        Wire {
            plan,
            src: self.rank,
            dst,
            now: Instant::now(),
            flush: self.finishing.load(Ordering::Acquire),
        }
    }

    /// Send one message: unsequenced on a clean wire (and on loopback,
    /// which is never faulted), through the sender half of the core to
    /// a remote rank under a plan.
    fn wire_send(&self, dst: usize, channel: Channel, block: MsgBlock) {
        self.mailbox.count_send(block.len());
        let lvw = channel.delivery == Delivery::LatestValueWins;
        let (seq, copies) = match &self.plan {
            Some(plan) if dst != self.rank => {
                let mut sink = PeerSink::new(self, dst, channel);
                let mut link = self.send_links[dst].lock();
                let seq = link
                    .get(channel)
                    .send(&self.wire(plan, dst), &block, &mut sink);
                (seq, sink.copies)
            }
            // Even on a clean wire a LVW value needs a real seq so the
            // receiving mailbox can supersede queued values.
            _ if lvw => (self.send_links[dst].lock().get(channel).stamp(), 1),
            _ => (0, 1),
        };
        if dst == self.rank {
            return self.mailbox.push(dst, channel, seq, block);
        }
        for _ in 0..copies {
            self.emit(self.data_header(dst, channel, seq), block.as_slice(), true);
        }
    }

    // ---- frame input ----------------------------------------------------

    fn reader_loop(self: Arc<Self>, mut stream: WireStream) {
        loop {
            match converse_msg::read_frame(&mut stream) {
                Ok(Some((h, payload))) => {
                    self.trace_frame(h.kind, h.src as usize, payload.len(), false);
                    match h.kind {
                        kind::ABORT => {
                            let msg = String::from_utf8_lossy(payload.as_slice()).into_owned();
                            self.shutdown.store(true, Ordering::Release);
                            self.abort_local(&format!("wire: aborted by peer: {msg}"));
                            return;
                        }
                        kind::FIN => {
                            self.shutdown.store(true, Ordering::Release);
                            let mut f = self.fin.lock();
                            *f = true;
                            self.fin_cv.notify_all();
                            return;
                        }
                        _ => self.on_frame(h, payload),
                    }
                }
                Ok(None) | Err(_) => {
                    if !self.shutdown.swap(true, Ordering::AcqRel) {
                        self.abort_local("wire: hub connection lost");
                    }
                    return;
                }
            }
        }
    }

    /// Dispatch one data-plane frame. Shared by the hub reader thread
    /// (socket transport, plus the shmring fallback path) and the shm
    /// poller thread — the sublayers above cannot tell which wire
    /// carried the frame. ABORT/FIN are control plane and stay in
    /// `reader_loop`.
    fn on_frame(&self, h: FrameHeader, payload: MsgBlock) {
        match h.kind {
            kind::DATA => self.on_data(h, payload),
            kind::ACK => self.on_ack(h, payload.as_slice()),
            kind::INJECT => self.inject_local(payload),
            kind::STALL => {
                let ns = u64_le(payload.as_slice());
                self.mailbox.stall_for(Duration::from_nanos(ns));
            }
            kind::STEAL_REQ => self.on_steal_req(h, payload.as_slice()),
            kind::DONATE => {
                // First donation since our last STEAL_REQ closes the
                // request→donate latency leg (recorded thief-side).
                let t0 = self.steal_req_at.swap(0, Ordering::AcqRel);
                if t0 != 0 {
                    let now = self.mailbox.uptime().as_nanos() as u64;
                    self.mailbox.record(Event::StealLatency {
                        phase: StealPhase::ReqToDonate,
                        ns: now.saturating_sub(t0),
                    });
                }
                // Only default-channel packets are stealable.
                let p = Packet {
                    src: h.src as usize,
                    channel: Channel::DEFAULT,
                    seq: 0,
                    block: payload,
                };
                self.mailbox.splice([p]);
            }
            _ => {}
        }
    }

    /// A DATA frame: straight into the mailbox on a clean wire, through
    /// the receiver half of the core under a plan. The header carries
    /// the channel id and guarantee, so no receiver-side registry is
    /// needed.
    fn on_data(&self, h: FrameHeader, block: MsgBlock) {
        let src = h.src as usize;
        let channel = Channel::new(h.channel, Delivery::from_u8(h.guarantee));
        let mut sink = PeerSink::new(self, src, channel);
        match self.plan {
            None => sink.deliver(h.seq, block),
            Some(_) => self.recv_links[src]
                .lock()
                .get(channel)
                .arrival(h.seq, block, &mut sink),
        }
    }

    /// Serve an idle peer's steal request (runs on this rank's reader
    /// thread — the victim side of the distributed steal protocol).
    /// Extract up to the requested batch of stealable packets from the
    /// local staged list and donate each as its own DONATE frame, `src`
    /// rewritten to the donated message's original sender so the thief
    /// delivers it with truthful provenance. On this transport the
    /// `Event::Steal` record lands on the victim — the donation is
    /// asynchronous and only the victim knows the batch size.
    fn on_steal_req(&self, h: FrameHeader, payload: &[u8]) {
        let thief = h.src as usize;
        let max = u64_le(payload) as usize;
        if thief == self.rank || max == 0 {
            return;
        }
        let stolen = self.mailbox.steal_take(max);
        if stolen.is_empty() {
            return;
        }
        let batch = stolen.len();
        for p in stolen {
            // Non-blocking for the same reason as ACKs: the victim
            // side runs on reader/poller threads.
            self.emit(
                FrameHeader::new(kind::DONATE, p.src as u32, thief as u32, 0),
                p.block.as_slice(),
                false,
            );
        }
        self.mailbox.record(Event::Steal {
            victim: self.rank,
            thief,
            batch,
        });
    }

    /// An ACK frame echoes the channel of the DATA it confirms; an ack
    /// for a channel with no sender state is a no-op.
    fn on_ack(&self, h: FrameHeader, payload: &[u8]) {
        if let Some(tx) = self.send_links[h.src as usize].lock().find(h.channel) {
            tx.ack(h.seq, u64_le(payload));
        }
    }

    /// Record an abort, run the machine layer's hook, and wake anything
    /// blocked on the mailbox.
    fn abort_local(&self, msg: &str) {
        {
            let mut a = self.aborted.lock();
            if a.is_some() {
                return;
            }
            *a = Some(msg.to_string());
        }
        if let Some(hook) = &*self.on_abort.lock() {
            hook(msg);
        }
        self.mailbox.close();
    }

    /// An external message for this rank: counted as injected, never as
    /// a send.
    fn inject_local(&self, block: MsgBlock) {
        self.mailbox.count_inject(block.len());
        self.mailbox.push(self.rank, Channel::DEFAULT, 0, block);
    }

    // ---- retransmit pump ------------------------------------------------

    fn pump_loop(self: Arc<Self>) {
        let plan = self.plan.as_ref().expect("pump requires a plan");
        let mut out = Vec::new();
        while !self.shutdown.load(Ordering::Acquire) {
            std::thread::sleep(plan.tick);
            for dst in (0..self.n).filter(|&dst| dst != self.rank) {
                let wire = self.wire(plan, dst);
                for tx in self.send_links[dst].lock().iter_mut() {
                    let mut sink = PeerSink::new(&self, dst, tx.channel());
                    sink.out = Some(&mut out);
                    tx.tick(&wire, &mut sink);
                }
                for (channel, seq, block) in out.drain(..) {
                    self.emit(self.data_header(dst, channel, seq), block.as_slice(), true);
                }
            }
        }
    }

    // ---- teardown protocol ----------------------------------------------

    /// Drive every sender half idle (every remote send confirmed
    /// delivered, no copy held) before exiting; ticks flush meanwhile.
    /// Returns false if `deadline` passed first.
    pub fn flush(&self, deadline: Instant) -> bool {
        if self.plan.is_none() {
            return true;
        }
        self.finishing.store(true, Ordering::Release);
        loop {
            let clean = self
                .send_links
                .iter()
                .all(|l| l.lock().iter_mut().all(|tx| tx.idle()));
            if clean {
                return true;
            }
            if Instant::now() >= deadline || self.shutdown.load(Ordering::Acquire) {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Send the clean-completion EXIT frame carrying this worker's
    /// report bytes.
    pub fn send_exit(&self, report: &[u8]) {
        self.write(FrameHeader::new(kind::EXIT, self.rank as u32, 0, 0), report);
    }

    /// Send the panic ABORT frame (the hub fans it out to the peers).
    pub fn send_abort(&self, msg: &str) {
        self.write(
            FrameHeader::new(kind::ABORT, self.rank as u32, 0, 0),
            msg.as_bytes(),
        );
    }

    /// Wait for the hub's FIN (all ranks exited). Returns false on
    /// timeout or if the run aborted instead.
    pub fn wait_fin(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut f = self.fin.lock();
        while !*f {
            if self.aborted.lock().is_some() {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.fin_cv.wait_for(&mut f, deadline - now);
        }
        true
    }
}

fn spawn(name: String, f: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .name(name)
        .spawn(f)
        .expect("spawn wire thread");
}

fn u64_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    let n = bytes.len().min(8);
    buf[..n].copy_from_slice(&bytes[..n]);
    u64::from_le_bytes(buf)
}

impl CmiTransport for WireEndpoint {
    fn num_pes(&self) -> usize {
        self.n
    }

    fn kind(&self) -> TransportKind {
        match self.shm {
            Some(_) => TransportKind::ShmRing,
            None => TransportKind::Socket,
        }
    }

    fn send_block_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel) {
        debug_assert_eq!(src, self.rank, "a wire endpoint sends only as its own rank");
        self.wire_send(dst, channel, block);
    }

    fn inject_block(&self, dst: usize, block: MsgBlock) {
        if dst == self.rank {
            self.inject_local(block);
        } else {
            self.emit(
                FrameHeader::new(kind::INJECT, self.rank as u32, dst as u32, 0),
                block.as_slice(),
                true,
            );
        }
    }

    fn mailbox(&self, pe: usize) -> Option<&Mailbox> {
        (pe == self.rank).then_some(&self.mailbox)
    }

    fn stall_for(&self, pe: usize, dur: Duration) {
        if pe == self.rank {
            self.mailbox.stall_for(dur);
        } else {
            self.emit(
                FrameHeader::new(kind::STALL, self.rank as u32, pe as u32, 0),
                &(dur.as_nanos() as u64).to_le_bytes(),
                true,
            );
        }
    }

    /// Distributed steal: fire an asynchronous STEAL_REQ at the victim
    /// and return 0 — donated packets arrive later as DONATE frames.
    /// A local victim (only possible with `num_pes == 1`) is a no-op.
    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize {
        debug_assert_eq!(
            thief, self.rank,
            "a wire endpoint steals only for its own rank"
        );
        if victim == self.rank || max == 0 {
            return 0;
        }
        // Stamp the request so the first DONATE back closes the
        // request→donate latency leg (oldest pending request wins).
        let now = self.mailbox.uptime().as_nanos() as u64;
        let _ =
            self.steal_req_at
                .compare_exchange(0, now.max(1), Ordering::AcqRel, Ordering::Relaxed);
        self.emit(
            FrameHeader::new(kind::STEAL_REQ, self.rank as u32, victim as u32, 0),
            &(max as u64).to_le_bytes(),
            true,
        );
        0
    }
}
