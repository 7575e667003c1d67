//! **Chare groups** (branch-office chares): one representative object on
//! every PE, addressed collectively or per-PE.
//!
//! Charm's group construct is the natural expression of per-processor
//! services (load monitors, caches, reduction clients) in the
//! message-driven world. A group is created by broadcasting its
//! constructor; because every PE derives the same [`GroupId`] from the
//! creator's (PE, sequence) pair, the id is valid machine-wide
//! immediately — creation is asynchronous and fire-and-forget like chare
//! creation, but the handle is known to the creator up front.
//!
//! Invocations go through the scheduler queue with their priority, the
//! same two-handler idiom the point-to-point chare path uses.

use crate::Charm;
use converse_core::csd;
use converse_machine::{HandlerId, Message, Pe};
use converse_msg::pack::{Packer, Unpacker};
use converse_msg::Priority;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index of a registered group-chare type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupKind(pub u32);

/// Machine-wide identity of a group: derived from (creator PE, creator
/// sequence), so the creator knows it synchronously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub u64);

impl GroupId {
    fn new(creator: usize, seq: u64) -> GroupId {
        GroupId(((creator as u64) << 40) | seq)
    }
}

/// A per-PE group representative ("branch").
pub trait GroupChare: Send + 'static {
    /// Construct this PE's branch. Runs once on every PE.
    fn new(pe: &Pe, gid: GroupId, payload: &[u8]) -> Self
    where
        Self: Sized;

    /// An asynchronous invocation delivered to this branch.
    fn entry(&mut self, pe: &Pe, gid: GroupId, ep: u32, payload: &[u8]);
}

type GroupCtor = Arc<dyn Fn(&Pe, GroupId, &[u8]) -> Box<dyn GroupChare> + Send + Sync>;

/// Per-PE group runtime state (owned by [`Charm`]).
pub struct GroupState {
    create_h: HandlerId,
    invoke_h: HandlerId,
    exec_h: HandlerId,
    ctors: Mutex<Vec<GroupCtor>>,
    branches: Mutex<HashMap<u64, Option<Box<dyn GroupChare>>>>,
    /// Invocations that raced ahead of their group's create broadcast
    /// (possible for third-party senders); replayed at construction.
    early: Mutex<HashMap<u64, Vec<Message>>>,
    next_seq: AtomicU64,
}

impl GroupState {
    /// Register the group handlers (called from `Charm::install`, fixed
    /// order).
    pub(crate) fn install_handlers(pe: &Pe) -> GroupState {
        let create_h = pe.register_handler(|pe, msg| {
            let charm = Charm::get(pe);
            let mut u = Unpacker::new(msg.payload());
            let gid = GroupId(u.u64().expect("group create: gid"));
            let kind = u.u32().expect("group create: kind");
            let payload = u.bytes().expect("group create: payload");
            charm.groups.construct(pe, gid, GroupKind(kind), payload);
        });
        let exec_h = pe.register_handler(|pe, msg| {
            let charm = Charm::get(pe);
            charm.groups.execute(pe, &msg);
        });
        let invoke_h = pe.register_handler(|pe, mut msg| {
            let charm = Charm::get(pe);
            msg.set_handler(charm.groups.exec_h);
            csd::csd_enqueue_prio(pe, msg);
        });
        GroupState {
            create_h,
            invoke_h,
            exec_h,
            ctors: Mutex::new(Vec::new()),
            branches: Mutex::new(HashMap::new()),
            early: Mutex::new(HashMap::new()),
            next_seq: AtomicU64::new(1),
        }
    }

    fn construct(&self, pe: &Pe, gid: GroupId, kind: GroupKind, payload: &[u8]) {
        let ctor = self
            .ctors
            .lock()
            .get(kind.0 as usize)
            .cloned()
            .unwrap_or_else(|| panic!("PE {}: unregistered group kind {kind:?}", pe.my_pe()));
        pe.trace_event(converse_trace::Event::ObjectCreate {
            kind: kind.0 | 0x8000_0000,
        });
        let branch = ctor(pe, gid, payload);
        let prev = self.branches.lock().insert(gid.0, Some(branch));
        assert!(
            prev.is_none(),
            "PE {}: group {gid:?} created twice",
            pe.my_pe()
        );
        Charm::get(pe).quiescence().msg_processed(1);
        // Replay any invocations that arrived before the create.
        let early = self.early.lock().remove(&gid.0);
        if let Some(msgs) = early {
            for m in msgs {
                csd::csd_enqueue_prio(pe, m);
            }
        }
    }

    fn execute(&self, pe: &Pe, msg: &Message) {
        let mut u = Unpacker::new(msg.payload());
        let gid = u.u64().expect("group exec: gid");
        let ep = u.u32().expect("group exec: ep");
        let payload = u.bytes().expect("group exec: payload");
        let mut branch = {
            let mut t = self.branches.lock();
            match t.get_mut(&gid) {
                Some(b) => b
                    .take()
                    .unwrap_or_else(|| panic!("PE {}: reentrant group entry on {gid}", pe.my_pe())),
                None => {
                    // A third-party send raced ahead of the create
                    // broadcast: hold it until the branch exists.
                    self.early.lock().entry(gid).or_default().push(msg.clone());
                    return;
                }
            }
        };
        branch.entry(pe, GroupId(gid), ep, payload);
        if let Some(b) = self.branches.lock().get_mut(&gid) {
            *b = Some(branch);
        }
        Charm::get(pe).quiescence().msg_processed(1);
    }

    /// Number of live branches on this PE.
    pub fn local_branches(&self) -> usize {
        self.branches.lock().len()
    }
}

impl Charm {
    /// Register group-chare type `T` (same order on every PE!).
    pub fn register_group<T: GroupChare>(&self) -> GroupKind {
        let mut c = self.groups.ctors.lock();
        c.push(Arc::new(|pe, gid, payload| {
            Box::new(T::new(pe, gid, payload)) as Box<dyn GroupChare>
        }));
        GroupKind((c.len() - 1) as u32)
    }

    /// Create a group: every PE (including this one) constructs a branch
    /// asynchronously. The returned id is usable immediately for sends —
    /// per-(src,dst) FIFO delivery guarantees the create precedes them
    /// at every PE.
    pub fn create_group(&self, pe: &Pe, kind: GroupKind, payload: &[u8]) -> GroupId {
        let seq = self.groups.next_seq.fetch_add(1, Ordering::Relaxed);
        let gid = GroupId::new(pe.my_pe(), seq);
        self.quiescence().msg_created(pe.num_pes() as u64);
        let body = Packer::new().u64(gid.0).u32(kind.0).bytes(payload).finish();
        pe.sync_broadcast_all(&Message::new(self.groups.create_h, &body));
        gid
    }

    /// Invoke entry `ep` on the branch of `gid` living on `target_pe`.
    pub fn send_group(
        &self,
        pe: &Pe,
        gid: GroupId,
        target_pe: usize,
        ep: u32,
        payload: &[u8],
        prio: Priority,
    ) {
        self.quiescence().msg_created(1);
        let body = Packer::new().u64(gid.0).u32(ep).bytes(payload).finish();
        let msg = Message::with_priority(self.groups.invoke_h, &prio, &body);
        pe.sync_send_and_free(target_pe, msg);
    }

    /// Invoke entry `ep` on **every** branch of `gid` (self included).
    pub fn broadcast_group(&self, pe: &Pe, gid: GroupId, ep: u32, payload: &[u8], prio: Priority) {
        self.quiescence().msg_created(pe.num_pes() as u64);
        let body = Packer::new().u64(gid.0).u32(ep).bytes(payload).finish();
        let msg = Message::with_priority(self.groups.invoke_h, &prio, &body);
        pe.sync_broadcast_all(&msg);
    }

    /// Number of live group branches on this PE.
    pub fn local_group_branches(&self) -> usize {
        self.groups.local_branches()
    }

    /// Destroy this PE's branch of `gid`, and any invocations held for
    /// it. Local: call it on every PE once no invocation of the group
    /// is in flight. Returns false if no branch lived here.
    pub fn release_group_branch(&self, gid: GroupId) -> bool {
        self.groups.early.lock().remove(&gid.0);
        self.groups.branches.lock().remove(&gid.0).is_some()
    }

    /// Number of group kinds registered on this PE.
    pub fn group_kinds(&self) -> usize {
        self.groups.ctors.lock().len()
    }
}
