//! Stable storage for crash runs: the write-ahead journal a process keeps
//! while alive and re-opens when it restarts.
//!
//! The [`Journal`] wraps the `sdso-dur` byte pair (WAL + snapshot image)
//! the driver holds across a process's incarnations, the way a disk
//! outlives a reboot. It exists only when the run's plan has crashes —
//! static and churn runs journal nothing and pay nothing.

use sdso_core::{DsoError, Epoch, Obs, SdsoRuntime};
use sdso_dur::{DurRecord, DurStore, MemSink, SnapshotImage};
use sdso_net::{Endpoint, NodeId, SimSpan};
use sdso_obs::EventKind;

use crate::driver::GameCore;

/// Checkpoint cadence: fold the WAL into a snapshot image every this many
/// ticks, bounding replay length to one checkpoint interval.
const CHECKPOINT_EVERY: u64 = 8;

fn dur_err(e: std::io::Error) -> DsoError {
    DsoError::ProtocolViolation(format!("durable store failure: {e}"))
}

/// One process's stable storage; every method is a no-op on a run without
/// crashes.
pub(crate) struct Journal(Option<DurStore<MemSink>>);

/// What a restarted incarnation learned from stable storage.
pub(crate) struct Recovered {
    /// The newest tag-0 application record ([`GameCore::encode`] bytes).
    pub(crate) app: Vec<u8>,
    /// Logical-clock frontier.
    pub(crate) time: u64,
    /// Lamport frontier.
    pub(crate) lamport: u64,
    /// WAL records replayed.
    pub(crate) records: u64,
    /// Bytes of torn tail the replay discarded.
    pub(crate) truncated: u64,
}

impl Journal {
    /// Empty storage when the plan has crashes, none otherwise.
    pub(crate) fn new(crashes_planned: bool) -> Self {
        Journal(crashes_planned.then(DurStore::in_memory))
    }

    /// Logs the identity this process holds in `epoch`.
    pub(crate) fn ident(&mut self, me: NodeId, epoch: Epoch) -> Result<(), DsoError> {
        let Some(store) = &mut self.0 else { return Ok(()) };
        store.append(&DurRecord::Ident { node: me, epoch: epoch.0 }).map_err(dur_err)
    }

    /// Logs one completed tick: the clock frontier, the full (small) game
    /// state as the tag-0 application record, and — on the checkpoint
    /// cadence — a WAL-truncating snapshot image.
    pub(crate) fn tick<E: Endpoint>(
        &mut self,
        rt: &SdsoRuntime<E>,
        core: &GameCore,
        tick: u64,
        obs: &Obs,
    ) -> Result<(), DsoError> {
        let Some(store) = &mut self.0 else { return Ok(()) };
        let (time, lamport) = (rt.logical_now().as_ticks(), rt.lamport());
        store.append(&DurRecord::Tick { time, lamport }).map_err(dur_err)?;
        let state = core.encode();
        obs.record(rt.now().as_micros(), EventKind::WalAppend, tick as u32, state.len() as u32, 0);
        store.append(&DurRecord::App { tag: 0, bytes: state }).map_err(dur_err)?;
        if tick % CHECKPOINT_EVERY == 0 {
            let image = SnapshotImage {
                node: rt.node_id(),
                epoch: rt.membership().epoch().0,
                time,
                lamport,
                objects: Vec::new(),
                app: core.encode(),
            };
            store.checkpoint(&image).map_err(dur_err)?;
        }
        Ok(())
    }

    /// Re-opens the stable byte pair after a crash — the WAL's
    /// whole-record prefix replays over the newest checkpoint image — and
    /// validates the recovered identity.
    pub(crate) fn reopen(&mut self, me: NodeId) -> Result<Recovered, DsoError> {
        let violation = |why: String| DsoError::ProtocolViolation(why);
        let store =
            self.0.take().ok_or_else(|| violation("no stable storage to recover from".into()))?;
        let (wal, snap) = store.into_bytes();
        let (store, image) = DurStore::from_bytes(wal, snap).map_err(dur_err)?;
        self.0 = Some(store);
        let (node, _epoch) = image
            .ident()
            .ok_or_else(|| violation("recovered storage holds no identity record".into()))?;
        if node != me {
            return Err(violation(format!(
                "recovered identity {node} does not match process {me}"
            )));
        }
        let app = image
            .app_state(0)
            .ok_or_else(|| violation("recovered storage holds no game state".into()))?
            .to_vec();
        let (time, lamport) = image.frontier();
        Ok(Recovered {
            app,
            time,
            lamport,
            records: image.records.len() as u64,
            truncated: image.truncated_bytes,
        })
    }
}

/// Counts one completed recovery in the node's metrics registry.
pub(crate) fn record_recovery(obs: &Obs, records: u64, downtime: SimSpan) {
    obs.registry().counter("dso.recovery.recoveries").add(1);
    obs.registry().counter("dso.recovery.wal_replayed").add(records);
    obs.registry().counter("dso.recovery.downtime_micros").add(downtime.as_micros());
}
