//! The lock-free SPSC ring data plane over a [`ShmRegion`].
//!
//! One directed byte ring per ordered PE pair. Records are the exact
//! socket frame encoding — `[u32 body][kind·src·dst·seq·channel·
//! guarantee][payload]` — copied in with wrap-around, so the
//! seq/ack/retransmit sublayer, the QoS guarantees and the
//! STEAL_REQ/DONATE protocol run bit-identically over rings and
//! sockets.
//!
//! **Ordering contract.** `head` is written only by the producer
//! process, `tail` only by the consumer; both are monotonic byte
//! counts. A record is published by storing `head` with `Release`
//! *after* the byte copies; the consumer observes it with one
//! `Acquire` load. Records publish whole (head never advances into a
//! half-written record), so a consumer that sees ≥ 4 available bytes
//! always sees the complete record they prefix. Each side caches the
//! peer's index and re-reads it only when the cached value says the
//! ring is full (producer) or empty (consumer) — the one atomic load
//! amortizes over a whole batch of records.
//!
//! **Idle policy.** The consumer spins `idle_spin` sweeps (the same
//! knob the scheduler's idle loop uses — zero on single-core hosts),
//! then re-checks under the doorbell protocol and parks in
//! `futex_wait`. Producers bump the doorbell counter after every
//! publish and issue the wake syscall only when the waiter flag is up,
//! so a draining consumer costs the producer one shared-memory
//! increment per record and no syscalls. The flag/counter pair closes
//! the sleep race: the consumer re-checks the counter after raising
//! the flag, and the kernel re-checks it once more inside `futex_wait`.

use crate::region::ShmRegion;
use converse_msg::{FrameHeader, MsgBlock, FRAME_HEADER_BYTES};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-ring length-prefix bytes (mirrors the socket framing).
const LEN_PREFIX: usize = 4;

/// How a ring push ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Record published (doorbell rung).
    Sent,
    /// Record can never fit this ring; caller must fall back to the
    /// control-plane socket.
    TooBig,
    /// Non-blocking push found insufficient free space right now.
    Full,
    /// The endpoint shut down while waiting for space.
    Shutdown,
}

/// Producer-side cache for one outbound ring.
struct SendSide {
    /// Last observed consumer index; refreshed only when the cached
    /// value implies the ring is full.
    cached_tail: u64,
}

/// One rank's handle on the shared ring plane: producer role on every
/// `rank → dst` ring, consumer role on every `src → rank` ring.
pub struct ShmPlane {
    region: Arc<ShmRegion>,
    rank: usize,
    n: usize,
    idle_spin: u32,
    /// The cross-process structure is SPSC, but several local threads
    /// produce (app sends, retransmit pump, ACKs off the poller) — a
    /// short per-destination mutex serializes them onto the single
    /// producer role. Finer than the socket's one global writer lock.
    send: Vec<Mutex<SendSide>>,
}

impl ShmPlane {
    pub fn new(region: Arc<ShmRegion>, rank: usize, idle_spin: u32) -> ShmPlane {
        let n = region.num_pes();
        assert!(rank < n);
        ShmPlane {
            region,
            rank,
            n,
            idle_spin,
            send: (0..n)
                .map(|_| Mutex::new(SendSide { cached_tail: 0 }))
                .collect(),
        }
    }

    /// Publish one frame into the `rank → dst` ring.
    ///
    /// `block` selects the producer's full-ring policy: app/pump
    /// threads wait for the consumer to drain (spin → yield → short
    /// sleep, bailing on shutdown); the poller thread must never wait —
    /// it *is* the drain for the opposite direction, and two pollers
    /// blocked on each other's full rings would deadlock — so it uses
    /// `block = false` and lets the caller fall back to the hub socket.
    pub fn push(
        &self,
        dst: usize,
        header: FrameHeader,
        payload: &[u8],
        block: bool,
        shutdown: &AtomicBool,
    ) -> PushOutcome {
        debug_assert_ne!(dst, self.rank, "loopback never touches the rings");
        let total = LEN_PREFIX + FRAME_HEADER_BYTES + payload.len();
        let ring = self.region.ring(self.rank, dst);
        if total > ring.cap {
            return PushOutcome::TooBig;
        }
        let mut side = if block {
            self.send[dst].lock()
        } else {
            match self.send[dst].try_lock() {
                Some(g) => g,
                // A blocked producer holds the lock; don't pile up
                // behind it from the poller thread.
                None => return PushOutcome::Full,
            }
        };
        // Producer owns head: a relaxed load reads our own last store.
        let head = ring.head.load(Ordering::Relaxed);
        if head + total as u64 - side.cached_tail > ring.cap as u64 {
            let mut spins = 0u32;
            loop {
                side.cached_tail = ring.tail.load(Ordering::Acquire);
                if head + total as u64 - side.cached_tail <= ring.cap as u64 {
                    break;
                }
                if !block {
                    return PushOutcome::Full;
                }
                if shutdown.load(Ordering::Acquire) {
                    return PushOutcome::Shutdown;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else if spins < 256 {
                    std::thread::yield_now();
                } else {
                    // The consumer is a live poller unless its process
                    // died — in which case shutdown arrives via the
                    // control plane and the check above fires.
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
        }
        let mut prefix = [0u8; LEN_PREFIX + FRAME_HEADER_BYTES];
        let body = (FRAME_HEADER_BYTES + payload.len()) as u32;
        prefix[..LEN_PREFIX].copy_from_slice(&body.to_le_bytes());
        prefix[LEN_PREFIX..].copy_from_slice(&header.to_bytes());
        unsafe {
            ring.write_at(head, &prefix);
            ring.write_at(head + prefix.len() as u64, payload);
        }
        ring.head.store(head + total as u64, Ordering::Release);
        drop(side);
        let db = self.region.doorbell(dst);
        db.counter.fetch_add(1, Ordering::SeqCst);
        if db.waiters.load(Ordering::SeqCst) != 0 {
            crate::futex::futex_wake_all(db.counter);
        }
        PushOutcome::Sent
    }

    /// Consume one record off the `src → rank` ring, if any.
    /// `cached_head` is the consumer's amortization state for this
    /// ring (starts at 0).
    fn pop(&self, src: usize, cached_head: &mut u64) -> Option<(FrameHeader, MsgBlock)> {
        let ring = self.region.ring(src, self.rank);
        // Consumer owns tail: relaxed reads our own last store.
        let tail = ring.tail.load(Ordering::Relaxed);
        if *cached_head == tail {
            *cached_head = ring.head.load(Ordering::Acquire);
            if *cached_head == tail {
                return None;
            }
        }
        // Whole-record publication: ≥ 4 available bytes ⇒ the full
        // record is published.
        let mut prefix = [0u8; LEN_PREFIX + FRAME_HEADER_BYTES];
        unsafe { ring.read_at(tail, &mut prefix) };
        let body = u32::from_le_bytes(prefix[..LEN_PREFIX].try_into().unwrap()) as usize;
        debug_assert!(
            (FRAME_HEADER_BYTES..=ring.cap).contains(&body),
            "shm ring corrupt: body {body}"
        );
        let header = FrameHeader::from_bytes(prefix[LEN_PREFIX..].try_into().unwrap());
        let payload_len = body - FRAME_HEADER_BYTES;
        let mut block = MsgBlock::alloc(payload_len);
        if payload_len > 0 {
            unsafe { ring.read_at(tail + prefix.len() as u64, block.make_mut()) };
        }
        ring.tail
            .store(tail + (LEN_PREFIX + body) as u64, Ordering::Release);
        Some((header, block))
    }

    /// Drain inbound rings until `shutdown`, handing each record to
    /// `on_frame`. Runs on the endpoint's dedicated poller thread (the
    /// single consumer of every `* → rank` ring).
    pub fn poll_loop(
        &self,
        shutdown: &AtomicBool,
        mut on_frame: impl FnMut(FrameHeader, MsgBlock),
    ) {
        // After the pure spins run out, cede the core between sweeps
        // for a while before parking: during an active exchange the
        // next record arrives within a few scheduling quanta, and
        // catching it on a yield-return sweep skips the whole
        // futex-wake round trip (producer syscall + consumer wakeup).
        // An idle machine pays ~256 cheap yields per 50 ms park.
        const YIELD_SWEEPS: u32 = 256;
        let mut cached = vec![0u64; self.n];
        let db = self.region.doorbell(self.rank);
        let mut spins = 0u32;
        let mut yields = 0u32;
        while !shutdown.load(Ordering::Acquire) {
            let mut got = false;
            for (src, head) in cached.iter_mut().enumerate() {
                if src == self.rank {
                    continue;
                }
                while let Some((h, b)) = self.pop(src, head) {
                    on_frame(h, b);
                    got = true;
                }
            }
            if got {
                spins = 0;
                yields = 0;
                continue;
            }
            if spins < self.idle_spin {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            if yields < YIELD_SWEEPS {
                yields += 1;
                std::thread::yield_now();
                continue;
            }
            spins = 0;
            yields = 0;
            // Doorbell protocol: snapshot, re-sweep, raise the waiter
            // flag, re-check, park. See the module docs for why this
            // has no lost-wakeup window.
            let v = db.counter.load(Ordering::SeqCst);
            let mut again = false;
            for (src, head) in cached.iter_mut().enumerate() {
                if src == self.rank {
                    continue;
                }
                if let Some((h, b)) = self.pop(src, head) {
                    on_frame(h, b);
                    again = true;
                }
            }
            if again {
                continue;
            }
            db.waiters.store(1, Ordering::SeqCst);
            if db.counter.load(Ordering::SeqCst) == v && !shutdown.load(Ordering::Acquire) {
                // Bounded park: shutdown is a process-local flag no
                // doorbell rings for.
                crate::futex::futex_wait(db.counter, v, Duration::from_millis(50));
            }
            db.waiters.store(0, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: usize = 4096;
    /// Prefix + header bytes every record carries.
    const OVERHEAD: usize = LEN_PREFIX + FRAME_HEADER_BYTES;

    /// Rank 0 (producer on ring 0 → 1) and rank 1 (its consumer) over
    /// one 4096-byte-ring region, in this process.
    fn planes() -> (ShmPlane, ShmPlane) {
        let region = Arc::new(ShmRegion::create(2, CAP).expect("memfd region"));
        (
            ShmPlane::new(region.clone(), 0, 0),
            ShmPlane::new(region, 1, 0),
        )
    }

    fn header(i: u64) -> FrameHeader {
        FrameHeader::new(3, 0, 1, i).on_channel(i as u32 % 5, (i % 3) as u8)
    }

    fn payload(i: u64, len: usize) -> Vec<u8> {
        (0..len).map(|b| (i as usize * 31 + b) as u8).collect()
    }

    fn push(p: &ShmPlane, i: u64, len: usize, block: bool) -> PushOutcome {
        p.push(
            1,
            header(i),
            &payload(i, len),
            block,
            &AtomicBool::new(false),
        )
    }

    /// Pop one record and check it is record `i` of `len` bytes, byte
    /// for byte.
    fn expect(c: &ShmPlane, cached: &mut u64, i: u64, len: usize) {
        let (h, b) = c.pop(0, cached).expect("a published record");
        assert_eq!(h, header(i));
        assert_eq!(b.as_slice(), &payload(i, len)[..], "record {i}");
    }

    /// Ring 0 → 1's monotonic (head, tail).
    fn indices(p: &ShmPlane) -> (u64, u64) {
        let ring = p.region.ring(0, 1);
        (
            ring.head.load(Ordering::Relaxed),
            ring.tail.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn fifo_is_byte_exact_across_many_wraps() {
        let (p, c) = planes();
        let mut cached = 0;
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut len = |i: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(i);
            (state >> 33) as usize % 700
        };
        // Up to three records in flight, so the ring wraps many times
        // with records at every alignment.
        let lens: Vec<usize> = (0..600).map(&mut len).collect();
        let mut popped = 0;
        for (i, &n) in lens.iter().enumerate() {
            assert_eq!(push(&p, i as u64, n, false), PushOutcome::Sent);
            if i >= 2 {
                expect(&c, &mut cached, popped as u64, lens[popped]);
                popped += 1;
            }
        }
        while popped < lens.len() {
            expect(&c, &mut cached, popped as u64, lens[popped]);
            popped += 1;
        }
        assert!(c.pop(0, &mut cached).is_none(), "nothing beyond the last");
        let (head, tail) = indices(&p);
        assert_eq!(head, tail);
        assert!(head > 20 * CAP as u64, "the ring wrapped: {head}");
    }

    #[test]
    fn fifo_holds_with_a_concurrent_producer() {
        /// Releases a producer blocked on a full ring when the
        /// consumer's assertions fail, so the test fails, not hangs.
        struct Release<'a>(&'a AtomicBool);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
            }
        }
        let (p, c) = planes();
        const N: u64 = 5_000;
        let len = |i: u64| (i % 300) as usize;
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..N {
                    match p.push(1, header(i), &payload(i, len(i)), true, &stop) {
                        PushOutcome::Sent => {}
                        PushOutcome::Shutdown => return,
                        other => panic!("push {i}: {other:?}"),
                    }
                }
            });
            let _release = Release(&stop);
            let mut cached = 0;
            let mut i = 0;
            while i < N {
                match c.pop(0, &mut cached) {
                    Some((h, b)) => {
                        assert_eq!(h, header(i));
                        assert_eq!(b.as_slice(), &payload(i, len(i))[..]);
                        i += 1;
                    }
                    None => std::hint::spin_loop(),
                }
            }
        });
    }

    #[test]
    fn records_straddling_the_ring_end_read_back_intact() {
        // First the prefix straddles the end (head 10 bytes short of
        // it), then only the payload does (head 40 bytes short).
        for short in [10usize, 40] {
            let (p, c) = planes();
            let mut cached = 0;
            let first = CAP - short - OVERHEAD;
            assert_eq!(push(&p, 0, first, false), PushOutcome::Sent);
            expect(&c, &mut cached, 0, first);
            assert_eq!(indices(&p).0 as usize, CAP - short);
            assert_eq!(push(&p, 1, 100, false), PushOutcome::Sent);
            expect(&c, &mut cached, 1, 100);
            let end = (CAP - short + OVERHEAD + 100) as u64;
            assert_eq!(indices(&p), (end, end), "the record crossed the end");
        }
    }

    #[test]
    fn exact_fit_is_sent_and_one_byte_more_is_not() {
        let (p, c) = planes();
        let mut cached = 0;
        // A record exactly one ring long.
        assert_eq!(push(&p, 0, CAP - OVERHEAD, false), PushOutcome::Sent);
        assert_eq!(push(&p, 1, 0, false), PushOutcome::Full, "the ring is full");
        expect(&c, &mut cached, 0, CAP - OVERHEAD);
        // A record exactly filling the space another leaves free.
        assert_eq!(push(&p, 1, 500, false), PushOutcome::Sent);
        let rest = CAP - (OVERHEAD + 500) - OVERHEAD;
        assert_eq!(push(&p, 2, rest + 1, false), PushOutcome::Full);
        assert_eq!(push(&p, 2, rest, false), PushOutcome::Sent);
        expect(&c, &mut cached, 1, 500);
        expect(&c, &mut cached, 2, rest);
    }

    #[test]
    fn full_ring_refuses_a_non_blocking_push_until_drained() {
        let (p, c) = planes();
        let mut cached = 0;
        let mut sent = 0;
        while push(&p, sent, 200, false) == PushOutcome::Sent {
            sent += 1;
        }
        assert_eq!(sent as usize, CAP / (OVERHEAD + 200));
        assert_eq!(push(&p, sent, 200, false), PushOutcome::Full);
        expect(&c, &mut cached, 0, 200);
        assert_eq!(push(&p, sent, 200, false), PushOutcome::Sent);
        for i in 1..=sent {
            expect(&c, &mut cached, i, 200);
        }
        assert!(c.pop(0, &mut cached).is_none());
    }

    #[test]
    fn a_record_larger_than_the_ring_is_too_big() {
        let (p, c) = planes();
        let mut cached = 0;
        assert_eq!(push(&p, 0, CAP - OVERHEAD + 1, true), PushOutcome::TooBig);
        assert_eq!(indices(&p), (0, 0), "nothing was written");
        assert!(c.pop(0, &mut cached).is_none());
    }
}
