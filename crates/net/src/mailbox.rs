//! One PE's inbound side, shared by every transport.
//!
//! A [`Mailbox`] is everything a receiving PE needs: the two-list
//! inbox/staged queue, latest-value-wins supersede and reorder
//! insertion, stall windows, traffic, fault and published-load cells,
//! the steal take/splice, and the closed-flag wakeup behind the
//! spin-then-park wait. The in-process [`crate::Interconnect`] is `n`
//! mailboxes plus its links; a wire endpoint holds exactly one, for its
//! own rank, and delivers arrivals into it with the wire's own seq.

use crate::fault::{link_draw, SALT_REORDER};
use crate::reliable::{FaultCounters, Tally};
use crate::{Channel, Delivery, DeliveryMode, FaultPlan, FaultStats, Packet, StallWindow};
use converse_msg::MsgBlock;
use converse_trace::{Event, FaultKind, TraceSink};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a stalled PE naps between checks of its stall window, and
/// the wait-slice a receiver uses while any of its windows is armed.
const STALL_SLICE: Duration = Duration::from_millis(2);

/// Per-PE traffic counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PeTraffic {
    /// Messages sent by this PE.
    pub msgs_sent: u64,
    /// Payload bytes sent by this PE.
    pub bytes_sent: u64,
    /// Messages received (popped) by this PE.
    pub msgs_recv: u64,
    /// External messages injected *into* this PE (CCS and other
    /// front-ends). Accounted separately from `msgs_sent` so external
    /// request volume never skews a PE's send-side load.
    pub msgs_injected: u64,
    /// Bytes injected into this PE from outside the machine.
    pub bytes_injected: u64,
}

/// Point-in-time load view of one PE: cumulative traffic plus the
/// instantaneous mailbox depth and the load sample the PE itself
/// publishes ([`Mailbox::publish_load`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PeLoad {
    /// The PE this snapshot describes.
    pub pe: usize,
    /// Cumulative send/receive counters.
    pub traffic: PeTraffic,
    /// Packets delivered but not yet retrieved (whole mailbox depth:
    /// inbox + staged).
    pub queued: usize,
    /// The staged (receiver-private) share of `queued` — the portion an
    /// idle PE is allowed to steal from (see [`Mailbox::steal_take`]).
    pub staged: usize,
    /// Scheduler run-queue depth as last published by the PE itself;
    /// zero until first publish.
    pub run_queue: usize,
    /// Exponential-moving-average busy fraction in per-mille (0..=1000)
    /// as last published by the PE; zero until first publish.
    pub occupancy_pm: u32,
    /// True while the PE is inside a [`StallWindow`] (scripted by the
    /// fault plan or armed at runtime): it is not retrieving messages,
    /// so routing new work to it only deepens its queue.
    pub stalled: bool,
}

impl PeLoad {
    /// Undispatched work visible for this PE: mailbox depth plus the
    /// published scheduler run-queue depth. The victim-selection and
    /// routing metric — cumulative traffic says who *was* busy, backlog
    /// says who is behind *now*.
    #[inline]
    pub fn backlog(&self) -> usize {
        self.queued + self.run_queue
    }
}

#[derive(Default)]
struct TrafficCell {
    msgs_sent: AtomicU64,
    bytes_sent: AtomicU64,
    msgs_recv: AtomicU64,
    msgs_injected: AtomicU64,
    bytes_injected: AtomicU64,
}

/// Advance a single-writer stat counter without a lock-prefixed RMW.
///
/// `msgs_sent`/`bytes_sent` are only ever advanced by the owning PE's
/// own thread (sends originate on the sending PE) and `msgs_recv` only
/// by the receiving PE's thread, so a plain load/store pair suffices on
/// the message hot path; readers are monitoring snapshots that tolerate
/// staleness. `msgs_injected`/`bytes_injected` keep `fetch_add` — they
/// are fed by external front-end threads with no single-writer
/// discipline.
#[inline]
fn bump(counter: &AtomicU64, by: u64) {
    counter.store(counter.load(Ordering::Relaxed) + by, Ordering::Relaxed);
}

/// One PE's mailbox, built as **two lists** so the delivery hot path is
/// low-contention:
///
/// * `inbox` — senders append here under a short lock. This is the only
///   lock the send path ever touches, and it is held just long enough
///   for one push.
/// * `staged` — the receiver's private list. When it runs dry, the
///   receiver swaps the *entire* inbox into it under one short inbox
///   lock acquisition and then drains it without any further sender
///   contention: one lock op amortized over N messages instead of N+1.
///
/// Only the receiving PE touches `staged` (a thief's steal aside), so
/// its mutex is all but uncontended. Queue depth is published through
/// two length mirrors, `inbox_len` and `staged_len`, each written with
/// a plain store while its list's lock is held — **never** a
/// read-modify-write. Depth reads (`pending`, load snapshots, the idle
/// spin loop) are two plain atomic loads.
///
/// Layout is pinned (`repr(C, align(64))`) so the per-message hot path
/// — `inbox_len`, `staged_len`, the `inbox` mutex word + its inline
/// `VecDeque` header, and the condvar — all sit on the first cache line
/// (8+8+40+8 = 64 bytes); everything else lives behind it, touched only
/// when a drain stages, a stall is armed, or a monitor reads. The
/// alignment also keeps neighbouring PEs' mailboxes from false-sharing
/// a line.
#[repr(C, align(64))]
pub struct Mailbox {
    /// Length of `inbox`; written only under the `inbox` lock.
    inbox_len: AtomicUsize,
    /// Length of `staged`; written only under the `staged` lock.
    staged_len: AtomicUsize,
    inbox: Mutex<VecDeque<Packet>>,
    /// Paired with the `inbox` mutex: senders signal arrivals here.
    cv: Condvar,
    staged: Mutex<VecDeque<Packet>>,
    /// The PE this mailbox belongs to.
    pe: usize,
    mode: DeliveryMode,
    /// Per-source delivery count, the deterministic key of the reorder
    /// position draw; advanced only under the `inbox` lock. Empty under
    /// FIFO delivery.
    arrivals: Box<[AtomicU64]>,
    traffic: TrafficCell,
    /// Self-published scheduler load sample (single writer: the PE).
    run_queue: AtomicUsize,
    occupancy_pm: AtomicU32,
    /// Stall windows: the plan's scripted ones for this PE plus any
    /// armed at runtime via [`Mailbox::stall_for`].
    stalls: Mutex<Vec<StallWindow>>,
    /// Fast-path guard: true once any stall window exists.
    has_stalls: AtomicBool,
    /// Uptime ns of the oldest unmeasured spliced (stolen/donated)
    /// batch, 0 = none — consumed by the scheduler to time
    /// splice→first-run.
    steal_mark: AtomicU64,
    /// Fault-plane and reliability events charged to this PE.
    faults: FaultCounters,
    /// Set once at shutdown so blocked receivers wake and observe it.
    closed: AtomicBool,
    epoch: Instant,
    trace: Option<Arc<dyn TraceSink>>,
}

impl Mailbox {
    /// The mailbox of PE `pe` in a `num_pes` machine booted at `epoch`,
    /// armed with `plan`'s stall and crash windows for `pe`. `trace`
    /// (if enabled) receives [`Mailbox::record`]s on `pe`.
    pub fn new(
        pe: usize,
        num_pes: usize,
        mode: DeliveryMode,
        plan: Option<&FaultPlan>,
        epoch: Instant,
        trace: Option<Arc<dyn TraceSink>>,
    ) -> Mailbox {
        let stalls: Vec<StallWindow> = plan
            .iter()
            .flat_map(|p| p.stalls.iter().filter(|w| w.pe == pe).copied())
            .collect();
        let sources = match mode {
            DeliveryMode::Fifo => 0,
            DeliveryMode::Reorder { .. } => num_pes,
        };
        Mailbox {
            inbox_len: AtomicUsize::new(0),
            staged_len: AtomicUsize::new(0),
            inbox: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            staged: Mutex::new(VecDeque::new()),
            pe,
            mode,
            arrivals: (0..sources).map(|_| AtomicU64::new(0)).collect(),
            traffic: TrafficCell::default(),
            run_queue: AtomicUsize::new(0),
            occupancy_pm: AtomicU32::new(0),
            has_stalls: AtomicBool::new(!stalls.is_empty()),
            stalls: Mutex::new(stalls),
            steal_mark: AtomicU64::new(0),
            faults: FaultCounters::default(),
            closed: AtomicBool::new(false),
            epoch,
            trace: trace.filter(|t| t.enabled()),
        }
    }

    /// Time since the machine booted — the base for `CmiTimer` and the
    /// clock stall windows are measured on. On a distributed transport
    /// each process measures from its own boot; the startup barrier
    /// keeps the skew to connection-setup time.
    #[inline]
    pub fn uptime(&self) -> Duration {
        self.epoch.elapsed()
    }

    // ---- delivery ---------------------------------------------------------

    /// Deliver one packet from `src`: on a latest-value-wins channel,
    /// first drop queued older values of the same `(src, channel)`;
    /// then insert per the delivery mode. `seq` is the sender's
    /// per-(link, channel) sequence number (0 on the unsequenced path).
    #[inline]
    pub fn push(&self, src: usize, channel: Channel, seq: u64, block: MsgBlock) {
        let p = Packet {
            src,
            channel,
            seq,
            block,
        };
        self.insert(p, true);
    }

    /// The inbox lock is held only for the insert itself; the wakeup is
    /// signalled after it drops (safe: waiters re-check under the lock
    /// before parking). `counted` arrivals advance the per-source
    /// reorder key; spliced packets draw at key 0 without advancing it.
    #[inline]
    fn insert(&self, p: Packet, counted: bool) {
        {
            let mut q = self.inbox.lock();
            if p.channel.delivery == Delivery::LatestValueWins {
                // A queued older value is dead the moment a newer one
                // lands. Only the inbox is scanned — packets already
                // swapped onto the receiver's staged list are past the
                // supersede horizon (taking the staged lock here would
                // invert the receiver's lock order).
                let before = q.len();
                q.retain(|o| !(o.src == p.src && o.channel.id == p.channel.id && o.seq < p.seq));
                let purged = (before - q.len()) as u64;
                if purged > 0 {
                    let supersede = Tally::Fault(FaultKind::Supersede);
                    self.tally(supersede, purged, p.src, self.pe, p.seq);
                }
            }
            match self.mode {
                DeliveryMode::Fifo => q.push_back(p),
                DeliveryMode::Reorder { seed, window } => {
                    let arrival = if counted {
                        let cell = &self.arrivals[p.src];
                        let a = cell.load(Ordering::Relaxed);
                        cell.store(a + 1, Ordering::Relaxed);
                        a
                    } else {
                        0
                    };
                    // The scramble window covers the not-yet-swapped
                    // part of the queue (the inbox); anything already
                    // staged on the receiver's side is out of reach.
                    let w = window.min(q.len());
                    let draw = link_draw(seed, p.src, self.pe, arrival, 0, SALT_REORDER);
                    let pos = q.len() - (draw as usize % (w + 1));
                    q.insert(pos, p);
                }
            }
            self.inbox_len.store(q.len(), Ordering::Release);
        }
        self.cv.notify_one();
    }

    // ---- retrieval --------------------------------------------------------

    /// Non-blocking receive of the next packet in delivery order; `None`
    /// when nothing is queued or the PE is stalled. Fast paths: a single
    /// inbox lock when nothing is staged (the common single-message
    /// case). Bulk consumers should use [`Mailbox::drain`].
    #[inline]
    pub fn try_recv(&self) -> Option<Packet> {
        if self.stalled() {
            return None;
        }
        // Staged packets (swapped out of the inbox earlier) are older
        // than anything still in the inbox and must drain first.
        let p = if self.staged_len.load(Ordering::Acquire) > 0 {
            let mut staged = self.staged.lock();
            let p = staged.pop_front();
            self.staged_len.store(staged.len(), Ordering::Release);
            p
        } else {
            let mut q = self.inbox.lock();
            let p = q.pop_front();
            if p.is_some() {
                self.inbox_len.store(q.len(), Ordering::Release);
            }
            p
        };
        if p.is_some() {
            bump(&self.traffic.msgs_recv, 1);
        }
        p
    }

    /// Batched receive: move up to `max` queued packets into `out`
    /// (preserving delivery order) and return how many moved. The whole
    /// inbox is swapped out under one short lock acquisition; the
    /// remainder beyond `max` stays staged, still ahead of anything
    /// later in delivery order. Yields nothing while the PE is stalled.
    #[inline]
    pub fn drain(&self, out: &mut impl Extend<Packet>, max: usize) -> usize {
        if max == 0 || self.stalled() || self.pending() == 0 {
            return 0;
        }
        let mut staged = self.staged.lock();
        if staged.len() < max {
            let mut inbox = self.inbox.lock();
            if staged.is_empty() {
                // Swap rather than drain: the old staged buffer's
                // capacity becomes the new inbox, so steady state
                // recycles two deques with zero allocation.
                std::mem::swap(&mut *staged, &mut *inbox);
            } else {
                staged.extend(inbox.drain(..));
            }
            self.inbox_len.store(inbox.len(), Ordering::Release);
        }
        let n = staged.len().min(max);
        out.extend(staged.drain(..n));
        self.staged_len.store(staged.len(), Ordering::Release);
        drop(staged);
        if n > 0 {
            bump(&self.traffic.msgs_recv, n as u64);
        }
        n
    }

    /// Spin-then-park idle wait: spin up to `spin` iterations on the
    /// lock-free depth (so mail landing within the budget is noticed
    /// without a condvar wakeup), then park until the mailbox is
    /// non-empty, it closes, or `timeout` expires. Returns the spin
    /// iterations consumed (`spin` when the call parked). With stall
    /// windows armed it parks at once — a stalled PE must not burn a
    /// core polling mail it cannot read — and mail it is forbidden to
    /// read is not a wake condition.
    pub fn wait(&self, timeout: Duration, spin: u32) -> u32 {
        if spin > 0 && !self.has_stalls.load(Ordering::Acquire) {
            for i in 0..spin {
                if self.pending() > 0 || self.is_closed() {
                    return i;
                }
                std::hint::spin_loop();
            }
        }
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return spin;
            }
            if self.stalled() {
                std::thread::sleep(STALL_SLICE.min(deadline - now));
                continue;
            }
            let mut q = self.inbox.lock();
            // Depth covers staged packets too: a receiver that left
            // mail staged must not park on it.
            if !q.is_empty() || self.staged_len.load(Ordering::Acquire) > 0 || self.is_closed() {
                return spin;
            }
            let wake = if self.has_stalls.load(Ordering::Acquire) {
                (now + STALL_SLICE).min(deadline)
            } else {
                deadline
            };
            if self.cv.wait_until(&mut q, wake).timed_out() && wake == deadline {
                return spin;
            }
        }
    }

    /// Blocking receive with timeout. `None` on timeout, or once the
    /// mailbox is closed and drained. Never pops inside a stall window.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Packet> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(p) = self.try_recv() {
                return Some(p);
            }
            let now = Instant::now();
            if now >= deadline || self.is_closed() {
                return None;
            }
            self.wait(deadline - now, 0);
        }
    }

    /// Queued (undelivered) packets, inbox + staged: two atomic reads,
    /// safe to poll from monitoring paths at any rate.
    #[inline]
    pub fn pending(&self) -> usize {
        self.inbox_len.load(Ordering::Acquire) + self.staged_len.load(Ordering::Acquire)
    }

    // ---- stalls and shutdown ----------------------------------------------

    /// True while the PE sits inside a stall window. A stalled PE's
    /// receive paths yield nothing (its mailbox keeps filling). A closed
    /// mailbox overrides every stall so teardown can drain.
    #[inline]
    pub fn stalled(&self) -> bool {
        if !self.has_stalls.load(Ordering::Acquire) || self.is_closed() {
            return false;
        }
        let t = self.uptime();
        self.stalls
            .lock()
            .iter()
            .any(|w| t >= w.from && w.to.is_none_or(|to| t < to))
    }

    /// Arm a stall window covering the next `dur` of uptime. Packets
    /// keep queuing; the receive paths return nothing until it passes.
    pub fn stall_for(&self, dur: Duration) {
        let from = self.uptime();
        self.stalls.lock().push(StallWindow {
            pe: self.pe,
            from,
            to: Some(from + dur),
        });
        self.has_stalls.store(true, Ordering::Release);
    }

    /// Mark the mailbox closed and wake every blocked receiver. Receives
    /// drain the remaining packets, then return nothing; stall windows
    /// stop applying.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        // Hold the lock so a receiver between its check and its wait
        // cannot miss the notification.
        let _q = self.inbox.lock();
        self.cv.notify_all();
    }

    /// True once [`Mailbox::close`] has run.
    #[inline]
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    // ---- counters ---------------------------------------------------------

    /// Count one message of `bytes` sent by this PE (called on its own
    /// thread only).
    #[inline]
    pub fn count_send(&self, bytes: usize) {
        bump(&self.traffic.msgs_sent, 1);
        bump(&self.traffic.bytes_sent, bytes as u64);
    }

    /// Count one external message of `bytes` injected into this PE
    /// (from any thread). Injected traffic is never counted as a send.
    pub fn count_inject(&self, bytes: usize) {
        let t = &self.traffic;
        t.msgs_injected.fetch_add(1, Ordering::Relaxed);
        t.bytes_injected.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Cumulative traffic counters.
    pub fn traffic(&self) -> PeTraffic {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let t = &self.traffic;
        PeTraffic {
            msgs_sent: get(&t.msgs_sent),
            bytes_sent: get(&t.bytes_sent),
            msgs_recv: get(&t.msgs_recv),
            msgs_injected: get(&t.msgs_injected),
            bytes_injected: get(&t.bytes_injected),
        }
    }

    /// Charge `n` occurrences of `tally` on link `src → dst` (`seq`
    /// names the packet) to this PE; a fault kind is also traced as an
    /// `Event::Fault` on this PE.
    pub fn tally(&self, tally: Tally, n: u64, src: usize, dst: usize, seq: u64) {
        self.faults.add(tally, n);
        if let Tally::Fault(kind) = tally {
            self.record(Event::Fault {
                kind,
                src,
                dst,
                seq,
            });
        }
    }

    /// Record `event` on this PE's trace; a no-op when tracing is off.
    pub fn record(&self, event: Event) {
        if let Some(t) = &self.trace {
            t.record(self.pe, self.uptime().as_nanos() as u64, event);
        }
    }

    /// The fault-plane and reliability counters charged to this PE.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults.snapshot()
    }

    /// Publish the PE's own scheduler sample: run-queue depth and EMA
    /// busy fraction in per-mille (clamped to 1000). Single writer (the
    /// PE), so plain stores suffice.
    pub fn publish_load(&self, run_queue: usize, occupancy_pm: u32) {
        self.run_queue.store(run_queue, Ordering::Relaxed);
        self.occupancy_pm
            .store(occupancy_pm.min(1000), Ordering::Relaxed);
    }

    /// Live load snapshot: traffic, depth, published sample and stall
    /// state. The reads are not mutually atomic, which is fine for the
    /// monitoring and balancing uses this serves.
    pub fn load(&self) -> PeLoad {
        PeLoad {
            pe: self.pe,
            traffic: self.traffic(),
            queued: self.pending(),
            staged: self.staged_len.load(Ordering::Acquire),
            run_queue: self.run_queue.load(Ordering::Relaxed),
            occupancy_pm: self.occupancy_pm.load(Ordering::Relaxed),
            stalled: self.stalled(),
        }
    }

    // ---- work stealing ----------------------------------------------------

    /// Extract up to `max` *stealable* packets from the staged list,
    /// preserving relative FIFO order of both the stolen packets and the
    /// survivors.
    ///
    /// Only the staged list is touched — never the inbox, where the
    /// reliability core's ordered/deduplicated stream lands — and only
    /// packets that are (a) flag-tagged relocatable by their sender
    /// ([`converse_msg::FLAG_STEALABLE`]) and (b) on the default channel
    /// qualify. Non-default channels carry per-channel delivery
    /// guarantees (ordering, LVW supersede) that a relocation would
    /// silently break, so their packets stay put regardless of the flag.
    pub fn steal_take(&self, max: usize) -> Vec<Packet> {
        let mut stolen = Vec::new();
        if max == 0 {
            return stolen;
        }
        let mut staged = self.staged.lock();
        // Walk back-to-front so removals don't shift unvisited indices;
        // newest work is taken first, which also leaves the oldest
        // (soonest-executed) packets with their owner.
        let mut i = staged.len();
        while i > 0 && stolen.len() < max {
            i -= 1;
            let p = &staged[i];
            if p.channel.id == 0 && converse_msg::peek_stealable(p.block.as_slice()) {
                stolen.push(staged.remove(i).expect("index in range"));
            }
        }
        self.staged_len.store(staged.len(), Ordering::Release);
        drop(staged);
        // Collected newest-first; restore original arrival order.
        stolen.reverse();
        stolen
    }

    /// Insert stolen or donated packets and return how many. They
    /// re-enter on the unsequenced (`seq == 0`) path: they already
    /// cleared the reliability core at the victim. The splice instant
    /// is marked (the oldest pending mark kept) so the scheduler can
    /// time splice→first-run.
    pub fn splice(&self, stolen: impl IntoIterator<Item = Packet>) -> usize {
        let mut n = 0;
        for p in stolen {
            self.insert(Packet { seq: 0, ..p }, false);
            n += 1;
        }
        if n > 0 {
            let now = (self.uptime().as_nanos() as u64).max(1);
            let _ = self
                .steal_mark
                .compare_exchange(0, now, Ordering::AcqRel, Ordering::Relaxed);
        }
        n
    }

    /// Take-and-clear the splice mark: the uptime ns at which the oldest
    /// not-yet-measured spliced batch entered, or 0 when none is pending.
    pub fn take_steal_mark(&self) -> u64 {
        if self.steal_mark.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        self.steal_mark.swap(0, Ordering::AcqRel)
    }
}
