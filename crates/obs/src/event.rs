//! Compact binary event records.
//!
//! The flight recorder stores one [`EventRecord`] per event: a 24-byte
//! POD with a microsecond timestamp, a one-byte kind tag and three
//! kind-specific `u32` operands. Decoding into something human-readable
//! happens only at export time; the hot path never formats or allocates.

/// What happened. The operand meaning per kind is documented on each
/// variant as `(a, b, c)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// An `exchange` call started. `(tick, due_peers, 0)`.
    ExchangeBegin = 0,
    /// An `exchange` call finished. `(tick, updates_sent, updates_applied)`.
    ExchangeEnd = 1,
    /// A rendezvous wait started. `(tick, outstanding_peers, 0)`.
    RendezvousWaitBegin = 2,
    /// A rendezvous wait completed. `(tick, 0, 0)`.
    RendezvousWaitEnd = 3,
    /// Two diffs to one object were merged in place. `(object, 0, 0)`.
    DiffMerge = 4,
    /// A lock acquisition was requested. `(object, mode: 0=read 1=write, 0)`.
    LockAcquire = 5,
    /// A lock was granted to this node. `(object, mode, 0)`.
    LockGrant = 6,
    /// A lock was released. `(object, 0, 0)`.
    LockRelease = 7,
    /// A message left this endpoint. `(peer, class: 0=control 1=data, wire_len)`.
    Send = 8,
    /// A message was delivered to this endpoint. `(peer, class, wire_len)`.
    Recv = 9,
    /// A blocking wait timed out and triggered the resync path.
    /// `(silent_rounds, 0, 0)`.
    Resync = 10,
    /// The reliability layer retransmitted one message. `(peer, seq_lo32, 0)`.
    Retransmit = 11,
    /// The fault layer acted on a message.
    /// `(bits: 1=drop 2=dup 4=delay, 0, 0)`.
    FaultInjected = 12,
    /// A membership view change was applied. `(epoch, joined, left)`.
    ViewChange = 13,
    /// A state snapshot was pushed to a late joiner.
    /// `(peer, encoded_bytes, epoch)`.
    SnapshotSend = 14,
    /// A late joiner installed a snapshot. `(donor, objects, epoch)`.
    SnapshotInstall = 15,
    /// A transport-level peer disconnect was observed. `(peer, 0, 0)`.
    PeerDown = 16,
    /// A batched transport flush: several frames to one peer left in a
    /// single write. `(peer, msgs_in_batch, wire_bytes)`. Emitted *in
    /// addition to* the per-message `Send` events.
    BatchSend = 17,
    /// This node spawned a helper thread, or another node's worker thread
    /// was spawned on this node's behalf. `(child, role, 0)` where `child`
    /// is the spawned node/thread id and `role` tags the thread's job
    /// (see `THREAD_ROLE_*`). The spawn happens-before everything the
    /// child records.
    ThreadSpawn = 18,
    /// This node joined a previously spawned thread. `(child, role, 0)`.
    /// Everything the child recorded happens-before the join.
    ThreadJoin = 19,
    /// A shared object was read through the runtime. `(object, version_lo32, 0)`.
    ObjectRead = 20,
    /// A shared object was written through the runtime.
    /// `(object, version_lo32, bytes)`.
    ObjectWrite = 21,
    /// A completed tick's recovery image was written to stable storage.
    /// `(tick, app_state_bytes, 0)`.
    ImageWrite = 22,
    // 23 (a write-ahead log's replay) is retired: recorded logs may hold
    // it. Do not reuse it.
    /// A crashed process finished local recovery and is rejoining.
    /// `(node, epoch, 0)`.
    Recover = 24,
}

/// One past the highest kind number: the size of the per-kind counter
/// array, whose retired slots stay zero.
pub const KIND_COUNT: usize = 25;

// `ThreadSpawn`/`ThreadJoin` roles 1 (a reactor poll thread) and 2 (a
// transport dialer thread) are retired: recorded logs may hold them.
/// `ThreadSpawn`/`ThreadJoin` role operand: a test/application worker
/// running another node's endpoint (the operand `a` is that node's id).
pub const THREAD_ROLE_WORKER: u32 = 3;

impl EventKind {
    /// Every kind in use, in ascending order of its `u8` value.
    pub const ALL: [EventKind; KIND_COUNT - 1] = [
        EventKind::ExchangeBegin,
        EventKind::ExchangeEnd,
        EventKind::RendezvousWaitBegin,
        EventKind::RendezvousWaitEnd,
        EventKind::DiffMerge,
        EventKind::LockAcquire,
        EventKind::LockGrant,
        EventKind::LockRelease,
        EventKind::Send,
        EventKind::Recv,
        EventKind::Resync,
        EventKind::Retransmit,
        EventKind::FaultInjected,
        EventKind::ViewChange,
        EventKind::SnapshotSend,
        EventKind::SnapshotInstall,
        EventKind::PeerDown,
        EventKind::BatchSend,
        EventKind::ThreadSpawn,
        EventKind::ThreadJoin,
        EventKind::ObjectRead,
        EventKind::ObjectWrite,
        EventKind::ImageWrite,
        EventKind::Recover,
    ];

    /// Stable lower-case name used by exporters and dumps.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ExchangeBegin => "exchange_begin",
            EventKind::ExchangeEnd => "exchange_end",
            EventKind::RendezvousWaitBegin => "rendezvous_wait_begin",
            EventKind::RendezvousWaitEnd => "rendezvous_wait_end",
            EventKind::DiffMerge => "diff_merge",
            EventKind::LockAcquire => "lock_acquire",
            EventKind::LockGrant => "lock_grant",
            EventKind::LockRelease => "lock_release",
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Resync => "resync",
            EventKind::Retransmit => "retransmit",
            EventKind::FaultInjected => "fault",
            EventKind::ViewChange => "view_change",
            EventKind::SnapshotSend => "snapshot_send",
            EventKind::SnapshotInstall => "snapshot_install",
            EventKind::PeerDown => "peer_down",
            EventKind::BatchSend => "batch_send",
            EventKind::ThreadSpawn => "thread_spawn",
            EventKind::ThreadJoin => "thread_join",
            EventKind::ObjectRead => "object_read",
            EventKind::ObjectWrite => "object_write",
            EventKind::ImageWrite => "image_write",
            EventKind::Recover => "recover",
        }
    }
}

/// Fault bit for a dropped message (`FaultInjected` operand `a`).
pub const FAULT_DROP: u32 = 1;
/// Fault bit for a duplicated message.
pub const FAULT_DUP: u32 = 2;
/// Fault bit for a delayed (held-back) message.
pub const FAULT_DELAY: u32 = 4;

/// One recorded event: timestamp, kind, three operands.
///
/// Timestamps are microseconds on the owning endpoint's clock — virtual
/// time under the simulator, monotonic wall time on real transports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// Microseconds since the transport epoch.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
    /// First operand (see [`EventKind`]).
    pub a: u32,
    /// Second operand.
    pub b: u32,
    /// Third operand.
    pub c: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_dense_and_named() {
        // Every number below `KIND_COUNT` but the retired 23, in order.
        let numbers: Vec<usize> = EventKind::ALL.iter().map(|&kind| kind as usize).collect();
        assert_eq!(numbers, (0..KIND_COUNT).filter(|&i| i != 23).collect::<Vec<_>>());
        assert!(EventKind::ALL.iter().all(|kind| !kind.name().is_empty()));
    }

    #[test]
    fn record_is_compact() {
        assert!(std::mem::size_of::<EventRecord>() <= 24);
    }
}
