//! The one real-socket transport, as a type.

/// Names the real-socket transport a cluster builder constructs. There is
/// one — the reactor (`reactor::ReactorMesh`, every unix) — so this type
/// has one value. It survives only because the frozen `benchmark/` crate
/// calls `local_cluster(TransportKind::default(), n)`; ROADMAP item 2
/// deletes it, with `local_cluster`'s argument, in the next `benchmark` PR.
///
/// Simulated and in-memory transports are not named here: they are chosen
/// structurally (by calling into `sdso-sim` or
/// [`memory::MemoryHub`](crate::memory::MemoryHub)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TransportKind;
