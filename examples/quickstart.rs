//! Quickstart: two processes share objects through S-DSO.
//!
//! Each process registers the same shared objects, writes its own, and
//! performs one synchronous exchange (BSYNC-style every-tick schedule).
//! After the rendezvous both replicas contain both writes.
//!
//! Run with: `cargo run -p sdso-harness --example quickstart`

use sdso_core::{DsoConfig, EveryTick, ObjectId, SdsoRuntime, SendMode};
use sdso_net::{Endpoint, NetError};
use sdso_sim::{NetworkModel, SimCluster};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two processes on the simulator's instant network, each on a thread
    // of its own.
    let outcome = SimCluster::new(2, NetworkModel::instant()).run(|ep| -> Result<_, NetError> {
        let me = ep.node_id();
        let mut runtime = SdsoRuntime::new(ep, DsoConfig::paper());

        // Everything is declared shared once, at initialisation — S-DSO
        // has no unshare (paper §3.1).
        runtime.share(ObjectId(0), b"....".to_vec())?;
        runtime.share(ObjectId(1), b"....".to_vec())?;
        runtime.init_schedule(&mut EveryTick)?;

        // Each process writes its own object...
        let text: &[u8] = if me == 0 { b"ping" } else { b"pong" };
        runtime.write(ObjectId(u32::from(me)), 0, text)?;

        // ...and exchanges with whoever is due (here: the other side).
        let report = runtime.exchange(SendMode::Multicast, &mut EveryTick)?;
        assert_eq!(report.peers, [1 - me]);
        let tick = report.time;

        Ok(format!(
            "process {me}: obj0={:?} obj1={:?} after tick {}",
            String::from_utf8_lossy(runtime.read(ObjectId(0))?),
            String::from_utf8_lossy(runtime.read(ObjectId(1))?),
            tick,
        ))
    })?;

    for line in outcome.into_results()? {
        println!("{line}");
    }
    println!("both replicas converged: obj0=ping obj1=pong everywhere");
    Ok(())
}
