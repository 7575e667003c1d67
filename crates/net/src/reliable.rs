//! The reliability core: one sans-IO state machine under every transport.
//!
//! Each (directed link, channel) pair has a [`Sender`] and a
//! [`Receiver`]. Neither does I/O, takes a lock or reads a clock. The
//! transport feeds them four inputs:
//!
//! * [`Sender::send`] — sequence a new message and make its first wire
//!   attempt;
//! * [`Receiver::arrival`] — a copy of `seq` reached the receiver;
//! * [`Sender::ack`] — the receiver has `selective` and everything
//!   below `cumulative`;
//! * [`Sender::tick`] — time passed: release due held copies and
//!   retransmit overdue ones.
//!
//! They write their outputs into a caller-supplied [`Sink`] — transmit
//! a copy now, deliver to the mailbox, acknowledge, count (and trace) a
//! transmission or a [`FaultKind`] — so nothing is allocated per
//! message. A copy the fault plane delays is held inside the sender
//! (counted as [`FaultKind::Delay`]) until a `tick` at or after its due
//! time.
//!
//! The core also owns the fault-plane attempt: the stateless
//! [`link_draw`] drop/dup/delay decisions, salted per channel, so one
//! seed gives one schedule on every transport. Two behaviours follow
//! from having one core:
//!
//! * an ack retires held (delayed) copies of the seqs it confirms;
//! * a flushing tick releases every held copy, never delays a new one,
//!   and keeps retransmitting until everything is acknowledged.

use crate::fault::{link_draw, unit, SALT_DELAY, SALT_DELAY_SLOTS, SALT_DROP, SALT_DUP};
use crate::{Channel, Delivery, FaultPlan, FaultStats};
use converse_msg::MsgBlock;
use converse_trace::FaultKind;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// What a [`Sink`] is asked to count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tally {
    /// A wire transmission: an original, a duplicate or a retransmission.
    Transmission,
    /// A fault-plane or reliability event.
    Fault(FaultKind),
}

/// Where the core writes its outputs. Each transport supplies one.
pub trait Sink {
    /// Put one copy of `seq` on the wire to the receiver now.
    fn transmit(&mut self, seq: u64, block: &MsgBlock);
    /// Hand `block` to the receiver's mailbox (in sequence order on an
    /// exactly-once channel).
    fn deliver(&mut self, seq: u64, block: MsgBlock);
    /// Tell the sender that `selective` arrived and that everything
    /// below `cumulative` was delivered.
    fn ack(&mut self, selective: u64, cumulative: u64);
    /// Count (and trace) `n` occurrences of `tally` concerning `seq`.
    fn count(&mut self, tally: Tally, seq: u64, n: u64);
}

/// The fault-plane and reliability counters every transport keeps.
#[derive(Default)]
pub struct FaultCounters {
    transmissions: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
    retransmitted: AtomicU64,
    dedup_dropped: AtomicU64,
    superseded: AtomicU64,
}

impl FaultCounters {
    /// Add `n` to the counter `tally` names.
    pub fn add(&self, tally: Tally, n: u64) {
        let cell = match tally {
            Tally::Transmission => &self.transmissions,
            Tally::Fault(FaultKind::Drop) => &self.dropped,
            Tally::Fault(FaultKind::Duplicate) => &self.duplicated,
            Tally::Fault(FaultKind::Delay) => &self.delayed,
            Tally::Fault(FaultKind::Retransmit) => &self.retransmitted,
            Tally::Fault(FaultKind::DedupDrop) => &self.dedup_dropped,
            Tally::Fault(FaultKind::Supersede) => &self.superseded,
        };
        cell.fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time copy of every counter.
    pub fn snapshot(&self) -> FaultStats {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        FaultStats {
            transmissions: get(&self.transmissions),
            dropped: get(&self.dropped),
            duplicated: get(&self.duplicated),
            delayed: get(&self.delayed),
            retransmitted: get(&self.retransmitted),
            dedup_dropped: get(&self.dedup_dropped),
            superseded: get(&self.superseded),
        }
    }
}

/// One instant on one directed link, as the sender sees it.
#[derive(Clone, Copy)]
pub struct Wire<'a> {
    /// The installed plan: fault draws and retransmit timing.
    pub plan: &'a FaultPlan,
    /// Sending PE.
    pub src: usize,
    /// Receiving PE.
    pub dst: usize,
    /// The caller's clock reading.
    pub now: Instant,
    /// Teardown flush: held copies release at once and no new copy is
    /// delayed.
    pub flush: bool,
}

/// A transmitted, not yet acknowledged message.
struct InFlight {
    block: MsgBlock,
    attempt: u32,
    due: Instant,
}

/// A fault-delayed copy waiting for its release time.
struct Held {
    seq: u64,
    block: MsgBlock,
    due: Instant,
}

/// Sender half of one channel of a directed link. Sequenced streams
/// number from 1; `seq == 0` is the unsequenced clean path that never
/// enters the core (see [`crate::Packet::seq`]).
///
/// What it keeps depends on the channel's [`Delivery`]: exactly-once
/// buffers every message until acked; at-most-once keeps only the
/// sequence counter and never retransmits; latest-value-wins keeps at
/// most one message, and a newer send supersedes it.
pub struct Sender {
    channel: Channel,
    next_seq: u64,
    unacked: BTreeMap<u64, InFlight>,
    limbo: Vec<Held>,
}

impl From<Channel> for Sender {
    fn from(channel: Channel) -> Sender {
        Sender {
            channel,
            next_seq: 1,
            unacked: BTreeMap::new(),
            limbo: Vec::new(),
        }
    }
}

impl Sender {
    /// The channel this half serves.
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// Take the next sequence number without keeping any state: the
    /// clean-wire latest-value-wins path, whose inbox supersede keys on
    /// `seq`.
    pub fn stamp(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Sequence `block`, keep what its guarantee needs for
    /// retransmission, and make the first wire attempt. Returns the seq.
    pub fn send(&mut self, wire: &Wire, block: &MsgBlock, sink: &mut impl Sink) -> u64 {
        let seq = self.stamp();
        if self.channel.delivery == Delivery::LatestValueWins {
            let purged = (self.unacked.len() + self.limbo.len()) as u64;
            self.unacked.clear();
            self.limbo.clear();
            if purged > 0 {
                sink.count(Tally::Fault(FaultKind::Supersede), seq, purged);
            }
        }
        if self.channel.delivery != Delivery::AtMostOnce {
            let due = wire.now + wire.plan.rto;
            let block = block.share();
            self.unacked.insert(
                seq,
                InFlight {
                    block,
                    attempt: 1,
                    due,
                },
            );
        }
        attempt(wire, self.channel, &mut self.limbo, seq, 1, block, sink);
        seq
    }

    /// The receiver has `selective` and everything below `cumulative`:
    /// stop retransmitting them and drop their held copies.
    pub fn ack(&mut self, selective: u64, cumulative: u64) {
        self.unacked.remove(&selective);
        while let Some(e) = self.unacked.first_entry() {
            if *e.key() >= cumulative {
                break;
            }
            e.remove();
        }
        self.limbo
            .retain(|h| h.seq >= cumulative && h.seq != selective);
    }

    /// Release held copies that are due (all of them when flushing) in
    /// sequence order, then retransmit overdue messages with capped
    /// exponential backoff.
    pub fn tick(&mut self, wire: &Wire, sink: &mut impl Sink) {
        self.limbo.sort_by_key(|h| h.seq);
        self.limbo.retain(|h| {
            let due = wire.flush || h.due <= wire.now;
            if due {
                sink.transmit(h.seq, &h.block);
            }
            !due
        });
        let plan = wire.plan;
        for (&seq, inf) in self.unacked.iter_mut() {
            if inf.due > wire.now {
                continue;
            }
            inf.attempt += 1;
            let backoff = plan.rto * (1u32 << (inf.attempt - 1).min(10));
            inf.due = wire.now + backoff.min(plan.rto_cap);
            sink.count(Tally::Fault(FaultKind::Retransmit), seq, 1);
            attempt(
                wire,
                self.channel,
                &mut self.limbo,
                seq,
                inf.attempt,
                &inf.block,
                sink,
            );
        }
    }

    /// True when nothing awaits an ack or a release.
    pub fn idle(&self) -> bool {
        self.unacked.is_empty() && self.limbo.is_empty()
    }
}

/// One attempt to put `seq` on the wire through the fault plane: it may
/// be dropped, duplicated, or (per copy) held back. Draws are salted
/// per channel so every channel sees its own decision stream (channel
/// 0's is the pre-QoS one), and per copy for the delay decisions.
fn attempt(
    wire: &Wire,
    channel: Channel,
    limbo: &mut Vec<Held>,
    seq: u64,
    attempt: u32,
    block: &MsgBlock,
    sink: &mut impl Sink,
) {
    let Wire { plan, src, dst, .. } = *wire;
    let f = plan.faults_for(src, dst);
    let co = channel.id as u64 * 4096;
    let draw = |salt: u64| link_draw(plan.seed, src, dst, seq, attempt, salt + co);
    sink.count(Tally::Transmission, seq, 1);
    if f.drop > 0.0 && unit(draw(SALT_DROP)) < f.drop {
        sink.count(Tally::Fault(FaultKind::Drop), seq, 1);
        return;
    }
    let copies: u64 = if f.dup > 0.0 && unit(draw(SALT_DUP)) < f.dup {
        sink.count(Tally::Transmission, seq, 1);
        sink.count(Tally::Fault(FaultKind::Duplicate), seq, 1);
        2
    } else {
        1
    };
    for copy in 0..copies {
        let delayed = !wire.flush
            && f.delay > 0.0
            && f.max_delay_slots > 0
            && unit(draw(SALT_DELAY + copy * 16)) < f.delay;
        if delayed {
            let slots = 1 + draw(SALT_DELAY_SLOTS + copy * 16) as usize % f.max_delay_slots;
            sink.count(Tally::Fault(FaultKind::Delay), seq, 1);
            let due = wire.now + plan.tick * slots as u32;
            limbo.push(Held {
                seq,
                block: block.share(),
                due,
            });
        } else {
            sink.transmit(seq, block);
        }
    }
}

/// Receiver half of one channel of a directed link. Exactly-once
/// deduplicates and reassembles into sequence; at-most-once and
/// latest-value-wins keep a monotonic floor, so nothing surfaces twice
/// and a stale value never overtakes a newer one.
pub struct Receiver {
    delivery: Delivery,
    /// Next seq to deliver (exactly-once), or the delivery floor.
    expected: u64,
    /// Arrived ahead of a gap (exactly-once only).
    ooo: BTreeMap<u64, MsgBlock>,
}

impl From<Channel> for Receiver {
    fn from(channel: Channel) -> Receiver {
        Receiver {
            delivery: channel.delivery,
            expected: 1,
            ooo: BTreeMap::new(),
        }
    }
}

impl Receiver {
    /// A copy of `seq` arrived: deliver what is now deliverable, count
    /// a duplicate, and acknowledge. Duplicates are acknowledged too —
    /// the retransmission that produced one still waits for
    /// confirmation. At-most-once keeps no sender state, so it is never
    /// acknowledged.
    pub fn arrival(&mut self, seq: u64, block: MsgBlock, sink: &mut impl Sink) {
        if seq < self.expected || self.ooo.contains_key(&seq) {
            sink.count(Tally::Fault(FaultKind::DedupDrop), seq, 1);
        } else if self.delivery != Delivery::ExactlyOnce {
            self.expected = seq + 1;
            sink.deliver(seq, block);
        } else if seq == self.expected {
            sink.deliver(seq, block);
            self.expected += 1;
            while let Some(b) = self.ooo.remove(&self.expected) {
                sink.deliver(self.expected, b);
                self.expected += 1;
            }
        } else {
            self.ooo.insert(seq, block);
        }
        if self.delivery != Delivery::AtMostOnce {
            sink.ack(seq, self.expected);
        }
    }
}

/// Per-channel state of one directed link: channel 0 inline, so the
/// default channel never touches the map; other channels are created
/// on first use and kept in id order.
pub struct Chans<T> {
    chan0: T,
    extra: BTreeMap<u32, T>,
}

impl<T: From<Channel>> Default for Chans<T> {
    fn default() -> Self {
        Chans {
            chan0: Channel::DEFAULT.into(),
            extra: BTreeMap::new(),
        }
    }
}

impl<T: From<Channel>> Chans<T> {
    /// The state for `channel`, created on first use.
    pub fn get(&mut self, channel: Channel) -> &mut T {
        if channel.id == 0 {
            &mut self.chan0
        } else {
            self.extra
                .entry(channel.id)
                .or_insert_with(|| channel.into())
        }
    }
}

impl<T> Chans<T> {
    /// Existing state by channel id (an ack never creates state).
    pub fn find(&mut self, id: u32) -> Option<&mut T> {
        if id == 0 {
            Some(&mut self.chan0)
        } else {
            self.extra.get_mut(&id)
        }
    }

    /// Every channel's state, channel 0 first, then in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        std::iter::once(&mut self.chan0).chain(self.extra.values_mut())
    }
}

#[cfg(test)]
mod tests {
    //! Two endpoints driven through a seeded in-test link on a virtual
    //! clock: no threads, no sleeps, every run a pure function of its
    //! seed. Seeds 1/7/1996 always run, plus `CHAOS_SEED` when set.

    use super::*;
    use crate::LinkFaults;
    use std::collections::BTreeSet;
    use std::time::Duration;

    const MSGS: u64 = 200;
    const STEP: Duration = Duration::from_micros(100);

    fn seeds() -> Vec<u64> {
        let mut seeds = vec![1, 7, 1996];
        if let Some(s) = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            seeds.push(s);
        }
        seeds
    }

    /// Records one endpoint's outputs and folds them, in order, into a
    /// hash of the action sequence.
    #[derive(Default)]
    struct Rec {
        hash: u64,
        transmits: Vec<(u64, MsgBlock)>,
        acks: Vec<(u64, u64)>,
        delivered: Vec<u64>,
        retransmits: u64,
    }

    impl Rec {
        fn mix(&mut self, words: &[u64]) {
            for w in words {
                self.hash = (self.hash ^ w).wrapping_mul(0x100_0000_01B3);
            }
        }
    }

    impl Sink for Rec {
        fn transmit(&mut self, seq: u64, block: &MsgBlock) {
            self.mix(&[1, seq]);
            self.transmits.push((seq, block.share()));
        }

        fn deliver(&mut self, seq: u64, block: MsgBlock) {
            let v = u64::from_le_bytes(block.as_slice().try_into().unwrap());
            self.mix(&[2, seq, v]);
            self.delivered.push(v);
        }

        fn ack(&mut self, selective: u64, cumulative: u64) {
            self.mix(&[3, selective, cumulative]);
            self.acks.push((selective, cumulative));
        }

        fn count(&mut self, tally: Tally, seq: u64, n: u64) {
            let code = match tally {
                Tally::Transmission => 100,
                Tally::Fault(kind) => kind as u64,
            };
            self.mix(&[4, code, seq, n]);
            if tally == Tally::Fault(FaultKind::Retransmit) {
                self.retransmits += n;
            }
        }
    }

    #[derive(Clone)]
    enum Frame {
        Data(u64, MsgBlock),
        Ack(u64, u64),
    }

    /// A seeded lossy link carrying frames both ways: each frame may be
    /// dropped or duplicated, and every copy lands up to 7 steps late,
    /// so frames also reorder.
    struct Link {
        rng: u64,
        flight: Vec<(u64, Frame)>,
    }

    impl Link {
        fn next(&mut self) -> u64 {
            self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (self.rng ^ (self.rng >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn put(&mut self, step: u64, frame: Frame) {
            if self.next().is_multiple_of(10) {
                return;
            }
            let copies = if self.next().is_multiple_of(10) { 2 } else { 1 };
            for _ in 0..copies {
                let due = step + self.next() % 8;
                self.flight.push((due, frame.clone()));
            }
        }

        fn take_due(&mut self, step: u64) -> Vec<Frame> {
            let (due, later) = std::mem::take(&mut self.flight)
                .into_iter()
                .partition(|(at, _)| *at <= step);
            self.flight = later;
            due.into_iter().map(|(_, f)| f).collect()
        }
    }

    /// Stream `MSGS` values from a sender to a receiver on one channel
    /// until the link is quiet, checking after every step that
    /// `unacked` never holds more than sent minus acknowledged.
    /// Returns the (sender, receiver) records.
    fn run(seed: u64, delivery: Delivery) -> (Rec, Rec) {
        let plan = FaultPlan::new(seed)
            .faults(LinkFaults {
                drop: 0.1,
                dup: 0.1,
                delay: 0.2,
                max_delay_slots: 3,
            })
            .retransmit(STEP * 5, STEP * 40)
            .tick(STEP);
        let channel = Channel::new(1, delivery);
        let (mut tx, mut rx) = (Sender::from(channel), Receiver::from(channel));
        let (mut a, mut b) = (Rec::default(), Rec::default());
        let mut link = Link {
            rng: seed,
            flight: Vec::new(),
        };
        let t0 = Instant::now();
        let (mut sent, mut cum, mut selective) = (0u64, 1u64, BTreeSet::new());
        for step in 0..100_000u64 {
            let wire = Wire {
                plan: &plan,
                src: 0,
                dst: 1,
                now: t0 + STEP * step as u32,
                flush: false,
            };
            if sent < MSGS && link.next().is_multiple_of(2) {
                tx.send(&wire, &MsgBlock::copy_from(&sent.to_le_bytes()), &mut a);
                sent += 1;
            }
            tx.tick(&wire, &mut a);
            for (seq, block) in std::mem::take(&mut a.transmits) {
                link.put(step, Frame::Data(seq, block));
            }
            for frame in link.take_due(step) {
                match frame {
                    Frame::Data(seq, block) => rx.arrival(seq, block, &mut b),
                    Frame::Ack(s, c) => {
                        a.mix(&[5, s, c]);
                        tx.ack(s, c);
                        cum = cum.max(c);
                        selective.insert(s);
                    }
                }
            }
            for (s, c) in std::mem::take(&mut b.acks) {
                link.put(step, Frame::Ack(s, c));
            }
            let acked = cum - 1 + selective.range(cum..).count() as u64;
            assert!(
                tx.unacked.len() as u64 <= sent - acked.min(sent),
                "seed {seed} {delivery:?} step {step}: {} unacked, {sent} sent, {acked} acked",
                tx.unacked.len()
            );
            if sent == MSGS && tx.idle() && link.flight.is_empty() {
                return (a, b);
            }
        }
        panic!("seed {seed} {delivery:?}: the link never went quiet");
    }

    #[test]
    fn exactly_once_delivers_each_message_once_in_order() {
        for seed in seeds() {
            let (a, b) = run(seed, Delivery::ExactlyOnce);
            assert_eq!(b.delivered, (0..MSGS).collect::<Vec<_>>(), "seed {seed}");
            assert!(a.retransmits > 0, "seed {seed}: losses were never repaired");
        }
    }

    #[test]
    fn at_most_once_never_duplicates_never_retransmits() {
        for seed in seeds() {
            let (a, b) = run(seed, Delivery::AtMostOnce);
            assert!(!b.delivered.is_empty(), "seed {seed}: nothing got through");
            assert!(
                b.delivered.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: duplicated or reordered: {:?}",
                b.delivered
            );
            assert!((b.delivered.len() as u64) < MSGS, "seed {seed}: no loss?");
            assert_eq!(a.retransmits, 0, "seed {seed}");
        }
    }

    #[test]
    fn latest_value_wins_converges_on_the_last_value() {
        for seed in seeds() {
            let (_, b) = run(seed, Delivery::LatestValueWins);
            assert!(
                b.delivered.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: went backwards: {:?}",
                b.delivered
            );
            assert_eq!(b.delivered.last(), Some(&(MSGS - 1)), "seed {seed}");
        }
    }

    #[test]
    fn unacked_never_exceeds_sent_minus_acked() {
        // `run` checks the bound after every step.
        for seed in seeds() {
            for d in [Delivery::ExactlyOnce, Delivery::LatestValueWins] {
                run(seed, d);
            }
        }
    }

    #[test]
    fn same_seed_gives_the_same_action_sequence() {
        let hashes = |seed| {
            let (a, b) = run(seed, Delivery::ExactlyOnce);
            (a.hash, b.hash)
        };
        for seed in seeds() {
            assert_eq!(hashes(seed), hashes(seed), "seed {seed}");
            assert_ne!(hashes(seed), hashes(seed + 1), "seed {seed}");
        }
    }

    #[test]
    fn an_ack_retires_held_copies() {
        let plan = FaultPlan::new(1).faults(LinkFaults {
            drop: 0.0,
            dup: 0.0,
            delay: 1.0,
            max_delay_slots: 3,
        });
        let mut tx = Sender::from(Channel::DEFAULT);
        let mut out = Rec::default();
        let now = Instant::now();
        let wire = Wire {
            plan: &plan,
            src: 0,
            dst: 1,
            now,
            flush: false,
        };
        tx.send(&wire, &MsgBlock::copy_from(&7u64.to_le_bytes()), &mut out);
        assert!(out.transmits.is_empty(), "the only copy is held");
        tx.ack(1, 2);
        assert!(tx.idle(), "the ack retired the held copy");
        let flush = Wire {
            now: now + Duration::from_secs(1),
            flush: true,
            ..wire
        };
        tx.tick(&flush, &mut out);
        assert!(out.transmits.is_empty(), "nothing left to release");
    }

    #[test]
    fn a_flushing_tick_releases_held_copies_and_keeps_retransmitting() {
        let plan = FaultPlan::new(1).faults(LinkFaults {
            drop: 0.0,
            dup: 0.0,
            delay: 1.0,
            max_delay_slots: 3,
        });
        let mut tx = Sender::from(Channel::DEFAULT);
        let mut out = Rec::default();
        let now = Instant::now();
        let wire = Wire {
            plan: &plan,
            src: 0,
            dst: 1,
            now,
            flush: false,
        };
        tx.send(&wire, &MsgBlock::copy_from(&7u64.to_le_bytes()), &mut out);
        let flush = Wire {
            now: now + plan.rto,
            flush: true,
            ..wire
        };
        tx.tick(&flush, &mut out);
        // The held copy is released and the overdue retransmission goes
        // out at once: a flush never delays.
        assert_eq!(out.transmits.len(), 2);
        assert_eq!(out.retransmits, 1);
        assert!(!tx.idle(), "still waiting for the ack");
    }
}
