//! The simulated parallel machine under Converse.
//!
//! The paper evaluates Converse on five physical machines (networks of
//! ATM-connected HPs, Cray T3D, Myrinet-connected Suns with the FM
//! package, IBM SP-1, Intel Paragon running SUNMOS). None of those exist
//! here, so this crate provides the substitute substrate:
//!
//! * [`Interconnect`] — an in-process machine with one [`Mailbox`] per
//!   logical processor (PE). Sends are byte-block deliveries into the
//!   destination mailbox; receivers poll or block. Per-(source,
//!   destination) FIFO order holds by default, but the MMI deliberately
//!   does **not** promise ordering (paper §3.1.3 criticizes MPI for
//!   paying for it), so an optional seeded [`DeliveryMode::Reorder`] mode
//!   scrambles arrival order to let tests verify nothing above depends
//!   on it.
//! * [`FaultPlan`] — a deterministic adversarial wire: seeded per-link
//!   drop/duplication/delay plus scripted PE stall and crash windows.
//!   The sans-IO [`reliable`] core masks it on every transport, so the
//!   machine layer keeps its per-channel guarantees over a lossy net,
//!   and one seed replays one schedule regardless of interleaving.
//! * [`NetModel`] — an analytic wire-time model: `α` per-message latency,
//!   `β` per-byte cost, per-packet cost, and an optional packetization
//!   copy threshold (the T3D's 16 KB copy jump, §5.1). Benchmarks combine
//!   the *measured* software path time on the real Rust code with this
//!   model's wire time, reproducing the figures' shape.

pub mod fault;
pub mod mailbox;
pub mod model;
pub mod qos;
pub mod reliable;
pub mod transport;

pub use fault::{FaultPlan, FaultStats, LinkFaults, StallWindow};
pub use mailbox::{Mailbox, PeLoad, PeTraffic};
pub use model::NetModel;
pub use qos::{Channel, Delivery};
pub use transport::{CmiTransport, TransportKind};

use converse_msg::MsgBlock;
use converse_trace::{FaultKind, TraceSink};
use parking_lot::Mutex;
use reliable::{Chans, Receiver, Sender, Sink, Tally, Wire};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// A message block in flight, tagged with its source PE.
///
/// The block is the *same* refcounted buffer the sender built — a send
/// moves (or shares) it, never copies it. Broadcast packets on
/// different PEs alias one backing allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Sending PE.
    pub src: usize,
    /// The delivery channel this packet travelled on, including its
    /// guarantee tag. Legacy sends use [`Channel::DEFAULT`]
    /// (channel 0, exactly-once).
    pub channel: Channel,
    /// Per-(link, channel) sequence number stamped by the QoS layer.
    ///
    /// **Convention (both transports):** sequenced streams number from
    /// `1`; `seq == 0` marks the *unsequenced fast path* — no
    /// [`FaultPlan`] installed and the channel needs no supersede
    /// bookkeeping, so the reliable wire carries the packet with no
    /// sublayer state at all. `LatestValueWins` channels are always
    /// sequenced (the supersede scan keys on `seq`), even on a clean
    /// wire.
    pub seq: u64,
    /// The generalized-message block.
    pub block: MsgBlock,
}

impl Packet {
    /// The wire bytes (the block's contents).
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        self.block.as_slice()
    }
}

/// Delivery-order policy of the interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeliveryMode {
    /// Per-(src,dst) FIFO, like most real interconnects.
    #[default]
    Fifo,
    /// Adversarial: each arriving packet is inserted at a seeded-random
    /// position among the last `window` queued packets. Every packet
    /// remains immediately receivable (no liveness loss), but FIFO order
    /// is broken. Used by tests of order-independence.
    Reorder {
        /// RNG seed (deterministic scrambling for reproducible tests).
        seed: u64,
        /// How far back an arrival may be inserted.
        window: usize,
    },
}

impl From<Channel> for (Sender, Receiver) {
    fn from(channel: Channel) -> Self {
        (channel.into(), channel.into())
    }
}

/// Reliability state of one directed link: both halves of every
/// channel's [`reliable`] core under one mutex. Acknowledgment is a
/// direct state update, applied after each core call.
///
/// Lock order: a link mutex may be held while taking a mailbox mutex,
/// never the reverse.
#[derive(Default)]
struct LinkState {
    chans: Chans<(Sender, Receiver)>,
    /// Acks the receiver half issued during one core call (a buffer
    /// kept for its capacity).
    acks: Vec<(u64, u64)>,
}

impl LinkState {
    /// Run one core call on the sender half of `channel` (of every
    /// channel when `None`) with the in-process sink, applying the acks
    /// each call produced right after it.
    fn drive(
        &mut self,
        net: &Interconnect,
        (src, dst): (usize, usize),
        channel: Option<Channel>,
        mut call: impl FnMut(&mut Sender, &mut Local),
    ) {
        let LinkState { chans, acks } = self;
        let mut run = |(tx, rx): &mut (Sender, Receiver)| {
            let mut sink = Local {
                net,
                src,
                dst,
                channel: tx.channel(),
                rx: Some(rx),
                acks: &mut *acks,
            };
            call(tx, &mut sink);
            for (selective, cumulative) in acks.drain(..) {
                tx.ack(selective, cumulative);
            }
        };
        match channel {
            Some(channel) => run(chans.get(channel)),
            None => chans.iter_mut().for_each(run),
        }
    }
}

/// The in-process [`Sink`]: a transmitted copy reaches the receiver
/// half at once; acks queue for the sender half.
struct Local<'a> {
    net: &'a Interconnect,
    src: usize,
    dst: usize,
    channel: Channel,
    rx: Option<&'a mut Receiver>,
    acks: &'a mut Vec<(u64, u64)>,
}

impl Sink for Local<'_> {
    fn transmit(&mut self, seq: u64, block: &MsgBlock) {
        let rx = self.rx.take().expect("receiver half");
        rx.arrival(seq, block.share(), self);
        self.rx = Some(rx);
    }

    fn deliver(&mut self, seq: u64, block: MsgBlock) {
        // Mailbox lock nests inside the link lock (never reversed),
        // keeping the seq→mailbox order atomic per link.
        self.net.boxes[self.dst].push(self.src, self.channel, seq, block);
    }

    fn ack(&mut self, selective: u64, cumulative: u64) {
        self.acks.push((selective, cumulative));
    }

    /// Dedup drops are charged to the receiver, everything else to the
    /// sender.
    fn count(&mut self, tally: Tally, seq: u64, n: u64) {
        let pe = match tally {
            Tally::Fault(FaultKind::DedupDrop) => self.dst,
            _ => self.src,
        };
        self.net.boxes[pe].tally(tally, n, self.src, self.dst, seq);
    }
}

/// The simulated machine: `n` processors connected all-to-all — one
/// [`Mailbox`] per PE plus the per-link reliability state.
///
/// Cloneable via `Arc`; every PE thread holds the same instance.
pub struct Interconnect {
    boxes: Vec<Mailbox>,
    /// Installed adversarial schedule, if any. `None` = reliable wire,
    /// zero-overhead fast path.
    plan: Option<FaultPlan>,
    /// Per-directed-link reliability state, indexed `src * n + dst`.
    /// Only touched when a plan is installed or a latest-value-wins
    /// channel needs its per-link stamp.
    links: Vec<Mutex<LinkState>>,
}

impl Interconnect {
    /// Build a machine with `n` PEs and FIFO delivery.
    pub fn new(n: usize) -> Arc<Self> {
        Self::with_config(n, DeliveryMode::Fifo, None, None)
    }

    /// Build a machine with an explicit delivery mode, an optional
    /// fault plan, and an optional trace sink for `Event::Fault`
    /// records (see [`Mailbox::tally`]). Installing a plan spawns the
    /// background pump thread that releases fault-delayed packets and
    /// drives retransmission; the pump holds only a `Weak` reference
    /// and exits once the machine closes or is dropped.
    pub fn with_config(
        n: usize,
        mode: DeliveryMode,
        plan: Option<FaultPlan>,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Arc<Self> {
        assert!(n > 0, "a machine needs at least one PE");
        if let Some(p) = &plan {
            p.validate(n);
        }
        let epoch = Instant::now();
        let net = Arc::new(Interconnect {
            boxes: (0..n)
                .map(|pe| Mailbox::new(pe, n, mode, plan.as_ref(), epoch, trace.clone()))
                .collect(),
            links: (0..n * n)
                .map(|_| Mutex::new(LinkState::default()))
                .collect(),
            plan,
        });
        if let Some(tick) = net.plan.as_ref().map(|p| p.tick) {
            let weak: Weak<Interconnect> = Arc::downgrade(&net);
            std::thread::Builder::new()
                .name("net-fault-pump".into())
                .spawn(move || loop {
                    std::thread::sleep(tick);
                    let Some(net) = weak.upgrade() else { return };
                    net.pump_tick();
                    if net.is_closed() {
                        // One more sweep with `closed` observed: a
                        // flushing tick releases every held copy so late
                        // receivers can still drain their mailboxes.
                        net.pump_tick();
                        return;
                    }
                })
                .expect("spawn net-fault-pump");
        }
        net
    }

    /// PE `pe`'s mailbox (panics when out of range).
    #[inline]
    pub fn mailbox_of(&self, pe: usize) -> &Mailbox {
        &self.boxes[pe]
    }

    /// True once [`CmiTransport::close`] has run.
    pub fn is_closed(&self) -> bool {
        self.boxes[0].is_closed()
    }

    /// Transmit a block over link `src → dst` on `channel`: straight
    /// into the mailbox when no plan is installed (seq 0, except
    /// LatestValueWins which always sequences — its supersede scan keys
    /// on `seq`), otherwise through the [`reliable`] core.
    #[inline]
    fn transmit(&self, src: usize, dst: usize, channel: Channel, block: MsgBlock) {
        let lvw = channel.delivery == Delivery::LatestValueWins;
        if self.plan.is_none() && !lvw {
            return self.boxes[dst].push(src, channel, 0, block);
        }
        let mut link = self.links[src * self.boxes.len() + dst].lock();
        match &self.plan {
            Some(plan) => {
                let wire = self.wire(plan, src, dst);
                link.drive(self, (src, dst), Some(channel), |tx, sink| {
                    tx.send(&wire, &block, sink);
                });
            }
            // The push stays under the link lock so stamps land in
            // stamp order.
            None => {
                let seq = link.chans.get(channel).0.stamp();
                self.boxes[dst].push(src, channel, seq, block);
            }
        }
    }

    fn wire<'a>(&self, plan: &'a FaultPlan, src: usize, dst: usize) -> Wire<'a> {
        Wire {
            plan,
            src,
            dst,
            now: Instant::now(),
            flush: self.is_closed(),
        }
    }

    /// One pump pass over every channel of every link: release due
    /// (or, once closed, all) held copies and retransmit overdue ones.
    fn pump_tick(&self) {
        let Some(plan) = &self.plan else { return };
        let n = self.boxes.len();
        for (li, link) in self.links.iter().enumerate() {
            let (src, dst) = (li / n, li % n);
            let wire = self.wire(plan, src, dst);
            link.lock()
                .drive(self, (src, dst), None, |tx, sink| tx.tick(&wire, sink));
        }
    }

    /// Deliver a message block from `src` into `dst`'s mailbox on the
    /// default (exactly-once) channel. The block **moves** — no copy is
    /// taken; share it first to keep a handle. Never blocks; the
    /// simulated wire has unbounded buffering, like the
    /// reliable-delivery abstraction the MMI exposes.
    #[inline]
    pub fn send(&self, src: usize, dst: usize, block: impl Into<MsgBlock>) {
        self.send_block_on(src, dst, block.into(), Channel::DEFAULT);
    }
}

impl CmiTransport for Interconnect {
    #[inline]
    fn num_pes(&self) -> usize {
        self.boxes.len()
    }

    fn kind(&self) -> TransportKind {
        TransportKind::InProc
    }

    /// Channel ordering is per `(link, channel)` — messages on
    /// different channels of one link may interleave arbitrarily.
    #[inline]
    fn send_block_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel) {
        self.boxes[src].count_send(block.len());
        self.transmit(src, dst, channel, block);
    }

    /// The packet's `src` reads as `dst` itself (there is no external
    /// PE id) so per-(src,dst) FIFO stays well-defined. It is subject to
    /// the same [`DeliveryMode`] scrambling — and the same fault plane —
    /// as native sends.
    #[inline]
    fn inject_block(&self, dst: usize, block: MsgBlock) {
        self.boxes[dst].count_inject(block.len());
        self.transmit(dst, dst, Channel::DEFAULT, block);
    }

    /// Every PE's mailbox lives in this address space.
    #[inline]
    fn mailbox(&self, pe: usize) -> Option<&Mailbox> {
        self.boxes.get(pe)
    }

    /// Arm a stall window for `pe` covering the next `dur` of uptime.
    /// Usable with or without a fault plan — this is how tests stall a
    /// PE *after* boot-time barriers have completed.
    fn stall_for(&self, pe: usize, dur: Duration) {
        assert!(pe < self.num_pes(), "stall_for: PE {pe} out of range");
        self.boxes[pe].stall_for(dur);
    }

    /// Move up to `max` stealable packets from `victim`'s staged list
    /// into `thief`'s mailbox; returns how many moved. The two mailbox
    /// locks are never held at once.
    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize {
        if victim == thief {
            return 0;
        }
        self.boxes[thief].splice(self.boxes[victim].steal_take(max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use converse_trace::Event;

    #[test]
    fn send_then_recv() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![1, 2, 3]);
        let p = net.mailbox_of(1).try_recv().unwrap();
        assert_eq!(p.src, 0);
        assert_eq!(p.bytes(), vec![1, 2, 3]);
        assert!(net.mailbox_of(1).try_recv().is_none());
    }

    #[test]
    fn self_send_works() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![9]);
        assert_eq!(net.mailbox_of(0).try_recv().unwrap().bytes(), vec![9]);
    }

    #[test]
    fn fifo_per_pair_order() {
        let net = Interconnect::new(2);
        for i in 0..10u8 {
            net.send(0, 1, vec![i]);
        }
        for i in 0..10u8 {
            assert_eq!(net.mailbox_of(1).try_recv().unwrap().bytes(), vec![i]);
        }
    }

    #[test]
    fn broadcast_excl_skips_sender() {
        let net = Interconnect::new(4);
        net.broadcast_block(1, vec![7u8].into(), false);
        assert!(net.mailbox_of(1).try_recv().is_none());
        for pe in [0, 2, 3] {
            assert_eq!(net.mailbox_of(pe).try_recv().unwrap().bytes(), vec![7]);
        }
    }

    #[test]
    fn broadcast_all_includes_sender() {
        let net = Interconnect::new(3);
        net.broadcast_block(0, vec![8u8].into(), true);
        for pe in 0..3 {
            assert_eq!(net.mailbox_of(pe).try_recv().unwrap().bytes(), vec![8]);
        }
    }

    #[test]
    fn blocking_recv_wakes_on_send() {
        let net = Interconnect::new(2);
        let net2 = net.clone();
        let h = std::thread::spawn(move || net2.mailbox_of(1).recv_timeout(Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        net.send(0, 1, vec![42]);
        let p = h.join().unwrap().unwrap();
        assert_eq!(p.bytes(), vec![42]);
    }

    #[test]
    fn recv_timeout_expires() {
        let net = Interconnect::new(1);
        let t0 = Instant::now();
        assert!(net
            .mailbox_of(0)
            .recv_timeout(Duration::from_millis(30))
            .is_none());
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn close_wakes_blocked_receiver() {
        let net = Interconnect::new(1);
        let net2 = net.clone();
        let h =
            std::thread::spawn(move || net2.mailbox_of(0).recv_timeout(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        net.close();
        assert!(h.join().unwrap().is_none());
    }

    #[test]
    fn closed_machine_still_drains_mailbox() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![5]);
        net.close();
        assert_eq!(
            net.mailbox_of(0)
                .recv_timeout(Duration::from_millis(10))
                .unwrap()
                .bytes(),
            vec![5]
        );
        assert!(net
            .mailbox_of(0)
            .recv_timeout(Duration::from_millis(10))
            .is_none());
    }

    #[test]
    fn reorder_mode_delivers_everything() {
        let net =
            Interconnect::with_config(2, DeliveryMode::Reorder { seed: 7, window: 8 }, None, None);
        let n = 100u8;
        for i in 0..n {
            net.send(0, 1, vec![i]);
        }
        let mut got: Vec<u8> = (0..n)
            .map(|_| net.mailbox_of(1).try_recv().unwrap().bytes()[0])
            .collect();
        assert!(net.mailbox_of(1).try_recv().is_none());
        let in_order = got.windows(2).all(|w| w[0] < w[1]);
        assert!(!in_order, "reorder mode should scramble order");
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn reorder_is_deterministic_per_seed() {
        let run = |seed| {
            let net =
                Interconnect::with_config(2, DeliveryMode::Reorder { seed, window: 4 }, None, None);
            for i in 0..20u8 {
                net.send(0, 1, vec![i]);
            }
            (0..20)
                .map(|_| net.mailbox_of(1).try_recv().unwrap().bytes()[0])
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn traffic_counters() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![0; 100]);
        net.send(0, 1, vec![0; 50]);
        net.mailbox_of(1).try_recv();
        let t0 = net.mailbox_of(0).traffic();
        assert_eq!(t0.msgs_sent, 2);
        assert_eq!(t0.bytes_sent, 150);
        assert_eq!(net.mailbox_of(1).traffic().msgs_recv, 1);
        assert_eq!(net.mailbox_of(1).traffic().msgs_sent, 0);
    }

    #[test]
    #[should_panic(expected = "at least one PE")]
    fn zero_pes_rejected() {
        let _ = Interconnect::new(0);
    }

    #[test]
    fn pending_counts() {
        let net = Interconnect::new(2);
        assert_eq!(net.mailbox_of(1).pending(), 0);
        net.send(0, 1, vec![1]);
        net.send(0, 1, vec![2]);
        assert_eq!(net.mailbox_of(1).pending(), 2);
        net.mailbox_of(1).try_recv();
        assert_eq!(net.mailbox_of(1).pending(), 1);
    }

    #[test]
    fn inject_and_load_snapshot() {
        let net = Interconnect::new(3);
        net.inject_block(2, vec![1, 2, 3].into());
        net.send(0, 2, vec![4]);
        let snap = net.load_snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[2].pe, 2);
        assert_eq!(snap[2].queued, 2);
        assert_eq!(snap[0].traffic.msgs_sent, 1);
        // Injected traffic is accounted separately: it must not inflate
        // the destination's own send counters.
        assert_eq!(snap[2].traffic.msgs_sent, 0);
        assert_eq!(snap[2].traffic.bytes_sent, 0);
        assert_eq!(snap[2].traffic.msgs_injected, 1);
        assert_eq!(snap[2].traffic.bytes_injected, 3);
        let sum = |f: fn(&PeLoad) -> u64| snap.iter().map(f).sum::<u64>();
        assert_eq!(sum(|l| l.traffic.msgs_sent), 1);
        assert_eq!(sum(|l| l.traffic.msgs_injected), 1);
        // The injected packet still reads as coming from the destination
        // itself (there is no external PE id).
        assert_eq!(net.mailbox_of(2).try_recv().unwrap().src, 2);
        assert_eq!(net.mailbox_of(2).load().queued, 1);
    }

    #[test]
    fn broadcast_is_one_allocation_and_all_packets_alias() {
        let net = Interconnect::new(8);
        let block = MsgBlock::copy_from(&[9u8; 777]);
        let src_ptr = block.as_ptr();
        let takes = converse_msg::pool::stats().takes();
        net.broadcast_block(0, block, true);
        assert_eq!(
            converse_msg::pool::stats().takes(),
            takes,
            "broadcast must be refcount bumps only — zero further allocations"
        );
        for pe in 0..8 {
            let p = net.mailbox_of(pe).try_recv().unwrap();
            assert_eq!(p.bytes(), &[9u8; 777][..]);
            assert_eq!(
                p.block.as_ptr(),
                src_ptr,
                "PE {pe}'s packet must alias the sender's allocation"
            );
        }
    }

    #[test]
    fn send_moves_block_without_copy() {
        let net = Interconnect::new(2);
        let block = MsgBlock::copy_from(b"zero copy");
        let ptr = block.as_ptr();
        net.send(0, 1, block);
        assert_eq!(net.mailbox_of(1).try_recv().unwrap().block.as_ptr(), ptr);
    }

    #[test]
    fn wait_returns_when_message_arrives() {
        let net = Interconnect::new(2);
        let net2 = net.clone();
        let h = std::thread::spawn(move || {
            net2.mailbox_of(1).wait(Duration::from_secs(5), 0);
            net2.mailbox_of(1).pending()
        });
        std::thread::sleep(Duration::from_millis(20));
        net.send(0, 1, vec![1]);
        assert_eq!(h.join().unwrap(), 1);
    }

    // ---- fault plane + reliability sublayer ---------------------------

    /// A plan with timing tight enough for unit tests.
    fn fast_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .retransmit(Duration::from_micros(500), Duration::from_millis(5))
            .tick(Duration::from_micros(200))
    }

    fn chaos_net(plan: FaultPlan, n: usize) -> Arc<Interconnect> {
        Interconnect::with_config(n, DeliveryMode::Fifo, Some(plan), None)
    }

    /// Drain `count` packets for `pe`, panicking if the net stops
    /// producing them.
    fn drain(net: &Interconnect, pe: usize, count: usize) -> Vec<Packet> {
        (0..count)
            .map(|i| {
                net.mailbox_of(pe)
                    .recv_timeout(Duration::from_secs(10))
                    .unwrap_or_else(|| panic!("packet {i}/{count} never arrived"))
            })
            .collect()
    }

    #[test]
    fn lossy_link_still_delivers_exactly_once_in_order() {
        let plan = fast_plan(0xBAD5EED).faults(LinkFaults {
            drop: 0.5,
            dup: 0.3,
            delay: 0.5,
            max_delay_slots: 3,
        });
        let net = chaos_net(plan, 2);
        let n = 200u32;
        for i in 0..n {
            net.send(0, 1, i.to_le_bytes().to_vec());
        }
        let got = drain(&net, 1, n as usize);
        for (i, p) in got.iter().enumerate() {
            assert_eq!(
                u32::from_le_bytes(p.bytes().try_into().unwrap()),
                i as u32,
                "payloads must arrive exactly once, in per-link order"
            );
        }
        // Exactly once: nothing further may surface, even after giving
        // straggler duplicates time to be pumped out of limbo.
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            net.mailbox_of(1).try_recv().is_none(),
            "duplicate escaped dedup"
        );
        let s = net.fault_stats();
        assert!(
            s.dropped > 0 && s.retransmitted > 0,
            "plan was exercised: {s:?}"
        );
        assert!(
            s.duplicated > 0 && s.dedup_dropped > 0,
            "dup path exercised: {s:?}"
        );
        net.close();
    }

    #[test]
    fn clean_plan_is_invisible_but_counts_transmissions() {
        let net = chaos_net(fast_plan(1), 2);
        for i in 0..50u8 {
            net.send(0, 1, vec![i]);
        }
        for i in 0..50u8 {
            assert_eq!(net.mailbox_of(1).try_recv().unwrap().bytes(), vec![i]);
        }
        let s = net.fault_stats();
        assert_eq!(s.transmissions, 50);
        assert_eq!(s.dropped + s.duplicated + s.delayed + s.dedup_dropped, 0);
        net.close();
    }

    #[test]
    fn delayed_packets_surface_in_order_after_pump() {
        // Every packet delayed: nothing is immediately receivable, but
        // the pump releases limbo copies and order still holds.
        let plan = fast_plan(3).faults(LinkFaults {
            drop: 0.0,
            dup: 0.0,
            delay: 1.0,
            max_delay_slots: 2,
        });
        let net = chaos_net(plan, 2);
        for i in 0..20u8 {
            net.send(0, 1, vec![i]);
        }
        assert!(
            net.mailbox_of(1).try_recv().is_none(),
            "all copies should sit in limbo"
        );
        let got = drain(&net, 1, 20);
        let payloads: Vec<u8> = got.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(payloads, (0..20).collect::<Vec<_>>());
        // ≥, not ==: spurious retransmits of limbo-held packets get
        // delayed again by the same plan.
        assert!(net.fault_stats().delayed >= 20);
        net.close();
    }

    #[test]
    fn identical_seeds_produce_identical_fault_traces() {
        // Satellite regression: two identically-seeded runs emit the
        // same trace event sequence. A dup-only plan keeps every fault
        // decision on the sender's thread (no pump involvement), so the
        // full per-PE sequence is deterministic.
        let run = |seed: u64| {
            let sink = converse_trace::MemorySink::new(2, 4096);
            let plan = fast_plan(seed).faults(LinkFaults {
                drop: 0.0,
                dup: 0.5,
                delay: 0.0,
                max_delay_slots: 0,
            });
            let net = Interconnect::with_config(
                2,
                DeliveryMode::Fifo,
                Some(plan),
                Some(sink.clone() as Arc<dyn TraceSink>),
            );
            for i in 0..100u32 {
                net.send(0, 1, i.to_le_bytes().to_vec());
            }
            let _ = drain(&net, 1, 100);
            net.close();
            let events: Vec<Event> = (0..2)
                .flat_map(|pe| sink.records(pe))
                .map(|r| r.event)
                .collect();
            assert!(!events.is_empty(), "dup plan must emit fault events");
            events
        };
        assert_eq!(run(42), run(42), "same seed must replay the same schedule");
        assert_ne!(run(42), run(43), "different seeds must diverge");
    }

    #[test]
    fn stall_window_blocks_recv_until_it_passes() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![7]);
        net.stall_for(1, Duration::from_millis(60));
        assert!(net.mailbox_of(1).stalled());
        assert!(
            net.mailbox_of(1).try_recv().is_none(),
            "stalled PE must not pop"
        );
        assert!(
            net.mailbox_of(1)
                .recv_timeout(Duration::from_millis(10))
                .is_none(),
            "blocking recv must not pop inside the window"
        );
        // Queue keeps filling underneath.
        net.send(0, 1, vec![8]);
        assert_eq!(net.mailbox_of(1).pending(), 2);
        assert!(net.mailbox_of(1).load().stalled);
        // After the window, everything drains in order.
        let p = net
            .mailbox_of(1)
            .recv_timeout(Duration::from_secs(5))
            .unwrap();
        assert_eq!(p.bytes(), vec![7]);
        assert!(!net.mailbox_of(1).stalled());
        assert_eq!(net.mailbox_of(1).try_recv().unwrap().bytes(), vec![8]);
    }

    #[test]
    fn crash_window_never_recovers_but_close_overrides() {
        let plan = fast_plan(5).crash(0, Duration::ZERO);
        let net = chaos_net(plan, 1);
        net.send(0, 0, vec![1]);
        assert!(net.mailbox_of(0).stalled());
        assert!(net
            .mailbox_of(0)
            .recv_timeout(Duration::from_millis(30))
            .is_none());
        // Teardown must still be able to drain the mailbox.
        net.close();
        assert!(!net.mailbox_of(0).stalled());
        assert_eq!(
            net.mailbox_of(0)
                .recv_timeout(Duration::from_millis(100))
                .unwrap()
                .bytes(),
            vec![1]
        );
    }

    #[test]
    fn reliability_composes_with_reorder_mode() {
        // Reliability reassembles per-link sequence; reorder mode then
        // scrambles mailbox order on purpose. Exactly-once must still
        // hold: every payload surfaces once.
        let plan = fast_plan(9).faults(LinkFaults {
            drop: 0.3,
            dup: 0.2,
            delay: 0.3,
            max_delay_slots: 2,
        });
        let net = Interconnect::with_config(
            2,
            DeliveryMode::Reorder {
                seed: 11,
                window: 6,
            },
            Some(plan),
            None,
        );
        let n = 100u32;
        for i in 0..n {
            net.send(0, 1, i.to_le_bytes().to_vec());
        }
        let mut got: Vec<u32> = drain(&net, 1, n as usize)
            .iter()
            .map(|p| u32::from_le_bytes(p.bytes().try_into().unwrap()))
            .collect();
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            net.mailbox_of(1).try_recv().is_none(),
            "duplicate escaped dedup"
        );
        got.sort_unstable();
        assert_eq!(got, (0..n).collect::<Vec<_>>());
        net.close();
    }

    #[test]
    #[should_panic(expected = "no liveness")]
    fn plan_with_total_loss_rejected_at_boot() {
        let _ = chaos_net(FaultPlan::lossy(1, 1.0, 0.0, 0.0, 0), 2);
    }

    // ---- per-channel delivery guarantees ------------------------------

    const AMO: Channel = Channel::new(7, Delivery::AtMostOnce);
    const LVW: Channel = Channel::new(9, Delivery::LatestValueWins);

    #[test]
    fn at_most_once_never_duplicates_never_retransmits() {
        let plan = fast_plan(0xA0).faults(LinkFaults {
            drop: 0.3,
            dup: 0.5,
            delay: 0.3,
            max_delay_slots: 2,
        });
        let net = chaos_net(plan, 2);
        let n = 200u32;
        for i in 0..n {
            net.send_block_on(0, 1, i.to_le_bytes().to_vec().into(), AMO);
        }
        // Let the pump flush every limbo copy, then take what arrived.
        std::thread::sleep(Duration::from_millis(50));
        let mut out = Vec::new();
        net.mailbox_of(1).drain(&mut out, usize::MAX);
        let got: Vec<u32> = out
            .iter()
            .map(|p| u32::from_le_bytes(p.bytes().try_into().unwrap()))
            .collect();
        assert!(!got.is_empty(), "a 30% drop plan must let most through");
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "at-most-once delivery must be strictly monotonic (no dups, no stale): {got:?}"
        );
        assert!(
            (got.len() as u32) < n,
            "drops must be real losses on an at-most-once channel"
        );
        let s = net.fault_stats();
        assert_eq!(s.retransmitted, 0, "at-most-once never retransmits: {s:?}");
        assert!(s.dropped > 0 && s.duplicated > 0, "plan exercised: {s:?}");
        assert!(
            s.dedup_dropped > 0,
            "duplicate copies must die at the monotonic floor: {s:?}"
        );
        net.close();
    }

    #[test]
    fn latest_value_wins_converges_to_final_value() {
        let plan = fast_plan(0x1A7E57).faults(LinkFaults {
            drop: 0.4,
            dup: 0.2,
            delay: 0.4,
            max_delay_slots: 3,
        });
        let net = chaos_net(plan, 2);
        let n = 100u32;
        for i in 0..n {
            net.send_block_on(0, 1, i.to_le_bytes().to_vec().into(), LVW);
        }
        // The last value is retransmitted until acked, so it must
        // surface; everything before it is best-effort but monotonic.
        let mut got: Vec<u32> = Vec::new();
        loop {
            let p = net
                .mailbox_of(1)
                .recv_timeout(Duration::from_secs(10))
                .expect("final value must converge");
            got.push(u32::from_le_bytes(p.bytes().try_into().unwrap()));
            if *got.last().unwrap() == n - 1 {
                break;
            }
        }
        assert!(
            got.windows(2).all(|w| w[0] < w[1]),
            "suffix-consistent: values strictly increase: {got:?}"
        );
        // Nothing may surface after the final value (stale copies die
        // at the floor).
        std::thread::sleep(Duration::from_millis(20));
        assert!(
            net.mailbox_of(1).try_recv().is_none(),
            "stale value escaped the floor"
        );
        let s = net.fault_stats();
        assert!(
            s.superseded > 0,
            "rapid-fire sends must supersede in-flight values: {s:?}"
        );
        net.close();
    }

    #[test]
    fn lvw_supersedes_queued_values_on_clean_wire() {
        // No fault plan at all: supersede still applies to values
        // queued in the destination inbox.
        let net = Interconnect::new(2);
        for i in 0..5u8 {
            net.send_block_on(0, 1, vec![i].into(), LVW);
        }
        assert_eq!(
            net.mailbox_of(1).pending(),
            1,
            "older queued values must be dropped"
        );
        let p = net.mailbox_of(1).try_recv().unwrap();
        assert_eq!(p.bytes(), vec![4]);
        assert_eq!(p.channel, LVW);
        assert!(p.seq > 0, "LVW packets are always sequenced");
        assert_eq!(net.fault_stats().superseded, 4);
    }

    #[test]
    fn channels_are_independent_sequenced_streams() {
        // A clean plan sequences every channel independently from 1 and
        // stays invisible; the default channel keeps its exact contract
        // next to AMO traffic on the same link.
        let net = chaos_net(fast_plan(2), 2);
        for i in 0..10u8 {
            net.send(0, 1, vec![i]);
            net.send_block_on(0, 1, vec![100 + i].into(), AMO);
        }
        let mut def = Vec::new();
        let mut amo = Vec::new();
        for _ in 0..20 {
            let p = net
                .mailbox_of(1)
                .recv_timeout(Duration::from_secs(5))
                .unwrap();
            if p.channel.id == 0 {
                def.push(p.bytes()[0]);
                assert_eq!(p.channel, Channel::DEFAULT);
            } else {
                amo.push(p.bytes()[0]);
                assert_eq!(p.channel, AMO);
            }
        }
        assert_eq!(def, (0..10).collect::<Vec<_>>());
        assert_eq!(amo, (100..110).collect::<Vec<_>>());
        let s = net.fault_stats();
        assert_eq!(s.transmissions, 20);
        assert_eq!(s.dropped + s.duplicated + s.delayed + s.dedup_dropped, 0);
        net.close();
    }

    // ---- two-list mailbox + batched drain -----------------------------

    #[test]
    fn drain_moves_everything_in_order() {
        let net = Interconnect::new(2);
        for i in 0..50u8 {
            net.send(0, 1, vec![i]);
        }
        let mut out = Vec::new();
        assert_eq!(net.mailbox_of(1).drain(&mut out, usize::MAX), 50);
        let payloads: Vec<u8> = out.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(payloads, (0..50).collect::<Vec<_>>());
        assert_eq!(net.mailbox_of(1).pending(), 0);
        assert_eq!(net.mailbox_of(1).traffic().msgs_recv, 50);
        assert_eq!(net.mailbox_of(1).drain(&mut out, usize::MAX), 0);
    }

    #[test]
    fn bounded_drain_leaves_remainder_ahead_of_new_arrivals() {
        let net = Interconnect::new(2);
        for i in 0..10u8 {
            net.send(0, 1, vec![i]);
        }
        let mut out = Vec::new();
        assert_eq!(net.mailbox_of(1).drain(&mut out, 4), 4);
        assert_eq!(net.mailbox_of(1).pending(), 6);
        // New mail lands behind the staged remainder: delivery order is
        // unchanged by where a bounded drain stopped.
        for i in 10..13u8 {
            net.send(0, 1, vec![i]);
        }
        // Mix single pops and a final drain; the order must read 0..13.
        out.push(net.mailbox_of(1).try_recv().unwrap());
        net.mailbox_of(1).drain(&mut out, usize::MAX);
        let payloads: Vec<u8> = out.iter().map(|p| p.bytes()[0]).collect();
        assert_eq!(payloads, (0..13).collect::<Vec<_>>());
    }

    #[test]
    fn drain_respects_stall_window() {
        let net = Interconnect::new(2);
        net.send(0, 1, vec![1]);
        net.stall_for(1, Duration::from_millis(50));
        let mut out = Vec::new();
        assert_eq!(
            net.mailbox_of(1).drain(&mut out, usize::MAX),
            0,
            "stalled PE must not drain"
        );
        assert!(out.is_empty());
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(net.mailbox_of(1).drain(&mut out, usize::MAX), 1);
    }

    #[test]
    fn bounded_drain_of_zero_is_a_noop() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![1]);
        let mut out = Vec::new();
        assert_eq!(net.mailbox_of(0).drain(&mut out, 0), 0);
        assert_eq!(net.mailbox_of(0).pending(), 1);
    }

    /// A message-shaped byte block (8-byte header) tagged `tag`, with
    /// the stealable flag set or cleared.
    fn flagged(tag: u8, stealable: bool) -> Vec<u8> {
        let mut b = vec![0u8; converse_msg::HEADER_BYTES + 1];
        if stealable {
            b[6] = converse_msg::FLAG_STEALABLE as u8;
        }
        b[converse_msg::HEADER_BYTES] = tag;
        b
    }

    fn tag_of(p: &Packet) -> u8 {
        p.bytes()[converse_msg::HEADER_BYTES]
    }

    #[test]
    fn steal_takes_only_flagged_staged_packets_in_order() {
        let net = Interconnect::new(2);
        net.send(0, 1, flagged(0, false)); // dummy, consumed by the drain
        for (tag, s) in [(1, true), (2, false), (3, true), (4, false), (5, true)] {
            net.send(0, 1, flagged(tag, s));
        }
        // Bounded drain of one packet swaps the rest into staged.
        let mut out = Vec::new();
        assert_eq!(net.mailbox_of(1).drain(&mut out, 1), 1);
        assert_eq!(net.mailbox_of(1).load().staged, 5);

        assert_eq!(net.steal_from(1, 0, 8), 3);
        // Thief sees the stolen packets in their original arrival order,
        // with the original source preserved.
        for want in [1, 3, 5] {
            let p = net.mailbox_of(0).try_recv().expect("stolen packet");
            assert_eq!(p.src, 0);
            assert_eq!(tag_of(&p), want);
        }
        // Victim keeps the unflagged packets, still in order.
        assert_eq!(net.mailbox_of(1).load().staged, 2);
        for want in [2, 4] {
            assert_eq!(
                tag_of(&net.mailbox_of(1).try_recv().expect("survivor")),
                want
            );
        }
    }

    #[test]
    fn steal_skips_non_default_channels_and_caps_batch() {
        let net = Interconnect::new(2);
        let ch = Channel {
            id: 3,
            delivery: Delivery::ExactlyOnce,
        };
        net.send(0, 1, flagged(0, false));
        net.send_block_on(0, 1, flagged(9, true).into(), ch); // flagged but channelled
        for tag in [1, 2, 3] {
            net.send(0, 1, flagged(tag, true));
        }
        let mut out = Vec::new();
        net.mailbox_of(1).drain(&mut out, 1);
        // Batch cap of 2: the two *newest* stealable default-channel
        // packets move; the channelled one never does.
        assert_eq!(net.steal_from(1, 0, 2), 2);
        assert_eq!(tag_of(&net.mailbox_of(0).try_recv().unwrap()), 2);
        assert_eq!(tag_of(&net.mailbox_of(0).try_recv().unwrap()), 3);
        assert_eq!(tag_of(&net.mailbox_of(1).try_recv().unwrap()), 9);
        assert_eq!(tag_of(&net.mailbox_of(1).try_recv().unwrap()), 1);
    }

    #[test]
    fn steal_never_touches_the_inbox() {
        let net = Interconnect::new(2);
        for tag in 0..4 {
            net.send(0, 1, flagged(tag, true));
        }
        // Nothing drained yet: everything is still in the inbox.
        assert_eq!(net.mailbox_of(1).load().staged, 0);
        assert_eq!(net.steal_from(1, 0, 8), 0);
        assert_eq!(net.mailbox_of(1).pending(), 4);
        assert_eq!(net.steal_from(1, 1, 8), 0); // self-steal is a no-op
    }

    #[test]
    fn publish_load_roundtrip_and_backlog() {
        let net = Interconnect::new(2);
        let l0 = net.mailbox_of(0).load();
        assert_eq!((l0.run_queue, l0.occupancy_pm, l0.staged), (0, 0, 0));
        net.mailbox_of(0).publish_load(7, 512);
        net.send(1, 0, vec![0u8; 9]);
        let l = net.mailbox_of(0).load();
        assert_eq!(l.run_queue, 7);
        assert_eq!(l.occupancy_pm, 512);
        assert_eq!(l.queued, 1);
        assert_eq!(l.backlog(), 8);
        // Occupancy is clamped to per-mille range.
        net.mailbox_of(0).publish_load(0, 5000);
        assert_eq!(net.mailbox_of(0).load().occupancy_pm, 1000);
    }

    #[test]
    fn swap_drain_sees_concurrent_enqueues_exactly_once() {
        // The satellite's race test: a sender pushes while the receiver
        // swap-drains in a tight loop. Every payload must surface exactly
        // once, in per-link FIFO order, regardless of where each swap
        // cuts the stream.
        let net = Interconnect::new(2);
        let n: u32 = 20_000;
        let sender = {
            let net = net.clone();
            std::thread::spawn(move || {
                for i in 0..n {
                    net.send(0, 1, i.to_le_bytes().to_vec());
                }
            })
        };
        let mut got: Vec<u32> = Vec::with_capacity(n as usize);
        let mut batch = Vec::new();
        while got.len() < n as usize {
            if net.mailbox_of(1).drain(&mut batch, usize::MAX) == 0 {
                std::hint::spin_loop();
                continue;
            }
            got.extend(
                batch
                    .drain(..)
                    .map(|p| u32::from_le_bytes(p.bytes().try_into().unwrap())),
            );
        }
        sender.join().unwrap();
        assert_eq!(got, (0..n).collect::<Vec<_>>(), "exactly once, in order");
        assert_eq!(net.mailbox_of(1).pending(), 0);
        assert_eq!(net.mailbox_of(1).traffic().msgs_recv, n as u64);
    }

    #[test]
    fn broadcast_packets_hold_exactly_p_references() {
        // Pre-staged broadcast: the original handle is dropped before the
        // appends, so P delivered packets are the only owners — refcount
        // is exactly P, proving 1 allocation + P bumps survived the
        // two-list mailbox rework.
        let p_count = 6;
        let net = Interconnect::new(p_count);
        net.broadcast_block(0, MsgBlock::copy_from(&[3u8; 64]), true);
        let packets: Vec<Packet> = (0..p_count)
            .map(|pe| net.mailbox_of(pe).try_recv().unwrap())
            .collect();
        for p in &packets {
            assert_eq!(p.block.ref_count(), p_count);
        }
        drop(packets);
    }

    #[test]
    fn spin_wait_notices_mail_within_budget() {
        let net = Interconnect::new(1);
        net.send(0, 0, vec![1]);
        // Mail already queued: the spin loop returns on its first probe.
        assert_eq!(net.mailbox_of(0).wait(Duration::from_secs(1), 1000), 0);
        net.mailbox_of(0).try_recv();
        // Empty mailbox: the budget burns out, then the park path runs
        // (bounded here by the timeout) and the call reports `spin`.
        let t0 = Instant::now();
        assert_eq!(net.mailbox_of(0).wait(Duration::from_millis(20), 64), 64);
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }
}
