//! The CMI transport abstraction.
//!
//! The paper's portability claim rests on the machine interface being a
//! narrow waist: everything above it (scheduler, threads, languages)
//! talks to the wire through one small surface, so swapping the wire
//! never touches the layers above. [`CmiTransport`] is that surface in
//! this runtime. Two implementations exist:
//!
//! * [`crate::Interconnect`] — the in-process machine (threads sharing
//!   one address space, mailboxes in memory, the fast/test path).
//! * `converse_wire::WireEndpoint` — one PE per OS process, frames over
//!   real sockets (TCP loopback or Unix-domain) or shared-memory rings,
//!   the production-shape path.
//!
//! Both deliver into the same [`Mailbox`] type, so everything on the
//! receiving side — retrieval, waiting, stalls, load cells, steal
//! splicing — is one implementation reached through
//! [`CmiTransport::mailbox`]. The trait is object-safe on purpose: a
//! `Pe` holds an `Arc<dyn CmiTransport>` and never knows which wire it
//! is on. Observations of *other* PEs degrade on distributed transports
//! (documented per method): callers get a conservative answer, never a
//! wrong protocol.

use crate::{Channel, FaultStats, Mailbox, PeLoad};
use converse_msg::MsgBlock;
use std::time::Duration;

/// Which wire a transport is, and the shape contract that follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportKind {
    /// Every PE is a thread of one process ([`crate::Interconnect`]).
    InProc,
    /// PEs are processes exchanging frames through a socket hub.
    Socket,
    /// PEs are processes exchanging frames through shared-memory rings.
    ShmRing,
}

impl TransportKind {
    /// Short name for diagnostics and traces: `"inproc"`, `"socket"`
    /// or `"shmring"`.
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::InProc => "inproc",
            TransportKind::Socket => "socket",
            TransportKind::ShmRing => "shmring",
        }
    }

    /// True when every PE shares one address space: a P-way broadcast
    /// shares one allocation (refcount bumps only), every PE's
    /// [`Mailbox`] and load are observable, and steals move packets in
    /// place. False when other PEs live in other processes — broadcast
    /// destinations receive copies, remote loads read as zeros (use
    /// gossiped samples), and steals are asynchronous requests.
    pub fn shares_memory(self) -> bool {
        self == TransportKind::InProc
    }
}

/// The machine-interface transport contract: what one PE needs from the
/// wire.
///
/// Methods take explicit PE indices because the in-process transport
/// serves every PE from one object; a distributed endpoint serves
/// exactly one local PE and either degrades (observations of remote
/// PEs) or routes through the wire (remote `stall_for`, `steal_from`).
pub trait CmiTransport: Send + Sync {
    /// Number of processors in the machine (`CmiNumPe`).
    fn num_pes(&self) -> usize;

    /// Which wire this is; [`TransportKind::shares_memory`] is the
    /// broadcast-allocation and remote-visibility contract.
    fn kind(&self) -> TransportKind;

    /// Deliver `block` from `src` into `dst`'s mailbox on an explicit
    /// delivery channel ([`Channel::DEFAULT`] is exactly-once); the
    /// channel's [`Channel::delivery`] guarantee governs loss,
    /// duplication, and supersession. Both transports honor the same
    /// per-channel semantics (the conformance suite keeps them from
    /// drifting). Never blocks.
    fn send_block_on(&self, src: usize, dst: usize, block: MsgBlock, channel: Channel);

    /// Deliver a block into `dst`'s mailbox from *outside* the machine
    /// (external front-ends such as CCS). Counted as injected traffic,
    /// not as a send.
    fn inject_block(&self, dst: usize, block: MsgBlock);

    /// Broadcast to every PE, `src` included only when `include_self`
    /// (`CmiSyncBroadcast` / `CmiSyncBroadcastAll`). In-process this is
    /// one allocation plus one refcount bump per destination; across
    /// processes each remote destination receives its own copy off the
    /// wire. Assert against [`TransportKind::shares_memory`], never a
    /// hard-coded count.
    ///
    /// All per-destination shares are minted before the first send, so
    /// no inbox lock is held while another share is made, and the
    /// original handle is dropped before the sends: in-process a P-way
    /// broadcast is exactly 1 allocation + P live references.
    fn broadcast_block(&self, src: usize, block: MsgBlock, include_self: bool) {
        let shares: Vec<(usize, MsgBlock)> = (0..self.num_pes())
            .filter(|&dst| include_self || dst != src)
            .map(|dst| (dst, block.share()))
            .collect();
        drop(block);
        for (dst, b) in shares {
            self.send_block_on(src, dst, b, Channel::DEFAULT);
        }
    }

    /// `pe`'s mailbox, when it lives in this process: every PE
    /// in-process, only the endpoint's own rank on a distributed
    /// transport (`None` for the others). Retrieval, waiting, depth,
    /// the local stall probe, load publishing and the steal splice mark
    /// all go through it.
    fn mailbox(&self, pe: usize) -> Option<&Mailbox>;

    /// Arm a stall window for `pe` covering the next `dur`. On a
    /// distributed transport a remote target is routed over the wire
    /// (best-effort, asynchronous arming).
    fn stall_for(&self, pe: usize, dur: Duration);

    /// Move up to `max` stealable packets from `victim`'s staged list
    /// into `thief`'s mailbox, returning how many moved *synchronously*.
    /// Shared-memory transports steal in place; distributed transports
    /// send an asynchronous steal request over the wire and return 0 —
    /// donated packets arrive later as ordinary deliveries.
    fn steal_from(&self, victim: usize, thief: usize, max: usize) -> usize;

    /// Close every local mailbox, waking all blocked receivers (an
    /// in-process fault pump then runs one final flushing tick).
    fn close(&self) {
        (0..self.num_pes())
            .filter_map(|pe| self.mailbox(pe))
            .for_each(Mailbox::close);
    }

    /// Snapshot of every PE's load, in PE order. Distributed transports
    /// degrade for remote ranks: counters and depths read zero, stalled
    /// reads false.
    fn load_snapshot(&self) -> Vec<PeLoad> {
        (0..self.num_pes())
            .map(|pe| {
                self.mailbox(pe).map_or(
                    PeLoad {
                        pe,
                        ..PeLoad::default()
                    },
                    Mailbox::load,
                )
            })
            .collect()
    }

    /// Fault-plane and reliability counters summed over the local
    /// mailboxes (this process's view on a distributed transport).
    fn fault_stats(&self) -> FaultStats {
        (0..self.num_pes())
            .filter_map(|pe| self.mailbox(pe))
            .map(Mailbox::fault_stats)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Interconnect;
    use std::sync::Arc;

    #[test]
    fn interconnect_serves_the_trait_surface() {
        let net = Interconnect::new(2);
        let t: Arc<dyn CmiTransport> = net;
        assert_eq!(t.num_pes(), 2);
        assert_eq!(t.kind().name(), "inproc");
        assert!(t.kind().shares_memory());
        let mb = |pe| t.mailbox(pe).expect("every PE is local in-process");
        t.send_block_on(0, 1, MsgBlock::copy_from(b"via trait"), Channel::DEFAULT);
        let p = mb(1).try_recv().expect("delivered");
        assert_eq!(p.src, 0);
        assert_eq!(p.bytes(), b"via trait");
        assert_eq!(p.channel, Channel::DEFAULT);
        let qos = Channel::new(3, crate::Delivery::AtMostOnce);
        t.send_block_on(0, 1, MsgBlock::copy_from(b"qos"), qos);
        let p = mb(1).try_recv().expect("qos channel delivered");
        assert_eq!(p.channel, qos);
        t.broadcast_block(0, MsgBlock::copy_from(b"b"), true);
        let mut out = std::collections::VecDeque::new();
        assert_eq!(mb(0).drain(&mut out, 8), 1);
        assert_eq!(mb(1).drain(&mut out, 8), 1);
        assert!(t.mailbox(2).is_none());
        assert_eq!(t.load_snapshot().len(), 2);
        assert_eq!(t.load_snapshot()[0].traffic.msgs_sent, 4);
        t.close();
        assert!(mb(0).is_closed() && mb(1).is_closed());
    }
}
