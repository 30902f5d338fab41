use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use sdso_net::{FaultInjector, FaultPlan, NetError, NetMetricsSnapshot, NodeId, SimInstant};

use crate::endpoint::SimEndpoint;
use crate::error::SimError;
use crate::explore::DeliveryOracle;
use crate::model::NetworkModel;
use crate::scheduler::Scheduler;

/// A fixed-size virtual-time cluster.
///
/// [`SimCluster::run`] spawns one OS thread per node, hands each a
/// [`SimEndpoint`], and executes the supplied closure on every node to
/// completion. The run is deterministic: identical closures and model
/// produce identical results, clocks, and metrics on every execution.
#[derive(Debug)]
pub struct SimCluster {
    n: usize,
    model: NetworkModel,
    faults: Option<FaultPlan>,
    oracle: Option<Arc<dyn DeliveryOracle>>,
}

/// Everything one node produced during a run.
#[derive(Debug)]
pub struct NodeOutcome<T> {
    /// The closure's return value, or the error that stopped the node.
    pub result: Result<T, SimError>,
    /// The node's virtual clock when its closure returned.
    pub finished_at: SimInstant,
    /// The node's traffic counters.
    pub metrics: NetMetricsSnapshot,
}

/// The collected results of a cluster run, indexed by node id.
#[derive(Debug)]
pub struct ClusterOutcome<T> {
    /// One outcome per node.
    pub nodes: Vec<NodeOutcome<T>>,
}

impl<T> ClusterOutcome<T> {
    /// The latest per-node finish time — the virtual makespan of the run.
    pub fn makespan(&self) -> SimInstant {
        self.nodes.iter().map(|n| n.finished_at).max().unwrap_or(SimInstant::ZERO)
    }

    /// Cluster-wide traffic totals.
    pub fn total_metrics(&self) -> NetMetricsSnapshot {
        self.nodes.iter().fold(NetMetricsSnapshot::default(), |acc, n| acc.merged(&n.metrics))
    }

    /// Returns the per-node results, failing on the first node error.
    ///
    /// # Errors
    ///
    /// Returns the lowest-numbered node's error if any node failed.
    pub fn into_results(self) -> Result<Vec<T>, SimError> {
        self.nodes.into_iter().map(|n| n.result).collect()
    }
}

impl SimCluster {
    /// Creates a cluster of `n` nodes over `model`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds `NodeId::MAX`.
    pub fn new(n: usize, model: NetworkModel) -> Self {
        assert!(n > 0, "cluster must have at least one node");
        assert!(n <= usize::from(NodeId::MAX), "cluster too large");
        SimCluster { n, model, faults: None, oracle: None }
    }

    /// Installs a fault plan: every send is judged against it, in global
    /// virtual-time order, so a given `(plan, workload)` pair replays its
    /// drops, duplicates, delays, and partitions bit-identically.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Installs a delivery-choice oracle: whenever two or more senders race
    /// a message into one receiver, the oracle picks which is dequeued
    /// first. Used by the schedule explorer to enumerate interleavings.
    pub fn with_oracle(mut self, oracle: Arc<dyn DeliveryOracle>) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Runs `f` on every node (in parallel threads, serialised in virtual
    /// time) and collects per-node outcomes.
    ///
    /// The closure receives the node's endpoint; its `Result` becomes the
    /// node's [`NodeOutcome::result`]. A panicking node is reported as
    /// [`SimError::NodePanic`] without poisoning the other nodes (they will
    /// observe a deadlock if they depended on it).
    ///
    /// # Errors
    ///
    /// Node-level failures are reported per node inside [`ClusterOutcome`];
    /// this method itself only fails if a worker thread cannot be joined.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses a node its thread.
    #[expect(
        clippy::expect_used,
        reason = "one thread per node: callers size a cluster far below the process's thread limit"
    )]
    pub fn run<T, F>(&self, f: F) -> Result<ClusterOutcome<T>, SimError>
    where
        T: Send + 'static,
        F: Fn(SimEndpoint) -> Result<T, NetError> + Send + Sync + 'static,
    {
        let scheduler = Arc::new(Scheduler::new(self.n, self.model));
        if let Some(plan) = &self.faults {
            scheduler.set_faults(FaultInjector::new(plan.clone()));
        }
        if let Some(oracle) = &self.oracle {
            scheduler.set_oracle(Arc::clone(oracle));
        }
        let f = Arc::new(f);

        /// Marks the node done even if the closure panics, so surviving
        /// nodes can detect the resulting deadlock instead of hanging.
        struct DoneGuard {
            scheduler: Arc<Scheduler>,
            id: usize,
        }
        impl Drop for DoneGuard {
            fn drop(&mut self) {
                self.scheduler.mark_done(self.id);
            }
        }

        let handles: Vec<_> = (0..self.n)
            .map(|id| {
                let scheduler = Arc::clone(&scheduler);
                let f = Arc::clone(&f);
                std::thread::Builder::new()
                    .name(format!("sim-node-{id}"))
                    .spawn(move || {
                        let endpoint = SimEndpoint::new(
                            id as NodeId,
                            scheduler.num_nodes(),
                            Arc::clone(&scheduler),
                        );
                        let metrics = endpoint.metrics_handle();
                        let guard = DoneGuard { scheduler: Arc::clone(&scheduler), id };
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(endpoint)));
                        drop(guard);
                        let finished_at = SimInstant::from_micros(scheduler.now(id));
                        let result = match outcome {
                            Ok(Ok(v)) => Ok(v),
                            Ok(Err(e)) => Err(SimError::Net(e)),
                            Err(panic) => Err(SimError::NodePanic {
                                node: id as u16,
                                message: panic_message(&*panic),
                            }),
                        };
                        NodeOutcome { result, finished_at, metrics: metrics.snapshot() }
                    })
                    .expect("spawn sim node thread")
            })
            .collect();

        #[expect(
            clippy::disallowed_methods,
            reason = "the run ends by joining its node threads; each has finished or panicked"
        )]
        let nodes = handles
            .into_iter()
            .enumerate()
            .map(|(id, h)| {
                h.join().unwrap_or_else(|panic| NodeOutcome {
                    result: Err(SimError::NodePanic {
                        node: id as u16,
                        message: panic_message(&*panic),
                    }),
                    finished_at: SimInstant::ZERO,
                    metrics: NetMetricsSnapshot::default(),
                })
            })
            .collect();
        Ok(ClusterOutcome { nodes })
    }
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_net::{Endpoint, MsgClass, Payload};

    #[test]
    fn ring_run_is_deterministic() {
        fn run_once() -> (u64, Vec<u64>) {
            let outcome = SimCluster::new(4, NetworkModel::paper_testbed())
                .run(|mut ep| {
                    let n = ep.num_nodes() as NodeId;
                    let next = (ep.node_id() + 1) % n;
                    for round in 0..5u8 {
                        ep.send(next, Payload::data(vec![round; 256]))?;
                        let _ = ep.recv()?;
                    }
                    Ok(ep.now().as_micros())
                })
                .unwrap();
            let clocks: Vec<u64> =
                outcome.nodes.iter().map(|n| n.result.as_ref().copied().unwrap()).collect();
            (outcome.makespan().as_micros(), clocks)
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "virtual-time runs must be bit-identical");
        assert!(a.0 > 0);
    }

    #[test]
    fn metrics_are_collected_per_node() {
        let outcome = SimCluster::new(3, NetworkModel::instant())
            .run(|mut ep| {
                if ep.node_id() == 0 {
                    ep.broadcast(&Payload::control(vec![1]))?;
                } else {
                    let _ = ep.recv()?;
                }
                Ok(())
            })
            .unwrap();
        assert_eq!(outcome.nodes[0].metrics.control_sent.msgs, 2);
        assert_eq!(outcome.nodes[1].metrics.control_recv.msgs, 1);
        assert_eq!(outcome.total_metrics().total_sent(), 2);
        let _ = MsgClass::Control;
    }

    #[test]
    fn deadlock_is_reported_not_hung() {
        let outcome = SimCluster::new(2, NetworkModel::instant())
            .run(|mut ep| {
                let _ = ep.recv()?; // nobody ever sends
                Ok(())
            })
            .unwrap();
        for node in &outcome.nodes {
            assert!(matches!(node.result, Err(SimError::Net(NetError::Deadlock(_)))));
        }
    }

    #[test]
    fn panicking_node_is_isolated() {
        let outcome = SimCluster::new(2, NetworkModel::instant())
            .run(|mut ep| {
                if ep.node_id() == 0 {
                    panic!("injected fault");
                }
                let _ = ep.recv()?;
                Ok(())
            })
            .unwrap();
        assert!(matches!(
            &outcome.nodes[0].result,
            Err(SimError::NodePanic { node: 0, message }) if message.contains("injected")
        ));
        // Node 1 waited for a message that will never come: deadlock.
        assert!(outcome.nodes[1].result.is_err());
    }

    #[test]
    fn virtual_makespan_is_independent_of_host_speed() {
        let outcome = SimCluster::new(2, NetworkModel::paper_testbed())
            .run(|mut ep| {
                if ep.node_id() == 0 {
                    // Host-side sleep must not show up in virtual time.
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    ep.send(1, Payload::data(vec![0u8; 2048]))?;
                } else {
                    let _ = ep.recv()?;
                }
                Ok(ep.now().as_micros())
            })
            .unwrap();
        let receiver_clock = *outcome.nodes[1].result.as_ref().unwrap();
        // send cpu (700) + tx (~1639) + latency (1000) + recv cpu (700).
        assert!((3_900..4_200).contains(&receiver_clock), "got {receiver_clock}");
    }

    #[test]
    fn recv_deadline_times_out_in_virtual_time() {
        let outcome = SimCluster::new(2, NetworkModel::instant())
            .run(|mut ep| {
                // Nobody sends: both nodes wait out their deadlines instead
                // of deadlocking, and their clocks land exactly on them.
                let got = ep.recv_deadline(sdso_net::SimSpan::from_micros(500))?;
                assert!(got.is_none());
                Ok(ep.now().as_micros())
            })
            .unwrap();
        for node in &outcome.nodes {
            assert_eq!(*node.result.as_ref().unwrap(), 500);
        }
    }

    #[test]
    fn recv_deadline_delivers_early_messages() {
        let outcome = SimCluster::new(2, NetworkModel::paper_testbed())
            .run(|mut ep| {
                if ep.node_id() == 0 {
                    ep.send(1, Payload::data(vec![7u8; 64]))?;
                    Ok(0)
                } else {
                    let msg = ep.recv_deadline(sdso_net::SimSpan::from_millis(100))?;
                    Ok(u64::from(msg.expect("arrives well before deadline").payload.bytes[0]))
                }
            })
            .unwrap();
        assert_eq!(*outcome.nodes[1].result.as_ref().unwrap(), 7);
        // The wait ended at the arrival, not the deadline.
        assert!(outcome.nodes[1].finished_at.as_micros() < 100_000);
    }

    #[test]
    fn fault_plan_drops_replay_bit_identically() {
        fn run_once() -> (u64, u64, u64) {
            let plan = sdso_net::FaultPlan::new(0xC0FFEE).with_drop(0.3);
            let outcome = SimCluster::new(2, NetworkModel::instant())
                .with_faults(plan)
                .run(|mut ep| {
                    if ep.node_id() == 0 {
                        for i in 0..100u8 {
                            ep.send(1, Payload::data(vec![i]))?;
                        }
                        Ok(0)
                    } else {
                        let mut got = 0u64;
                        while ep.recv_deadline(sdso_net::SimSpan::from_millis(5))?.is_some() {
                            got += 1;
                        }
                        Ok(got)
                    }
                })
                .unwrap();
            let drops = outcome.total_metrics().drops_injected;
            let got = *outcome.nodes[1].result.as_ref().unwrap();
            (drops, got, outcome.makespan().as_micros())
        }
        let a = run_once();
        let b = run_once();
        assert_eq!(a, b, "same plan + workload must replay identically");
        assert!(a.0 > 0, "a 30% plan over 100 sends drops something");
        assert_eq!(a.0 + a.1, 100, "every message is dropped or delivered");
    }

    #[test]
    fn partition_severs_then_heals_in_virtual_time() {
        // Partition [0] vs [1] active for the first 10ms of virtual time.
        let plan = sdso_net::FaultPlan::new(1).with_partition(
            vec![0],
            SimInstant::ZERO,
            SimInstant::from_micros(10_000),
        );
        let outcome = SimCluster::new(2, NetworkModel::instant())
            .with_faults(plan)
            .run(|mut ep| {
                if ep.node_id() == 0 {
                    ep.send(1, Payload::data(vec![1]))?; // severed
                    ep.advance(sdso_net::SimSpan::from_millis(20));
                    ep.send(1, Payload::data(vec![2]))?; // healed
                    Ok(0)
                } else {
                    let msg = ep.recv_deadline(sdso_net::SimSpan::from_millis(100))?;
                    Ok(u64::from(msg.expect("post-heal message arrives").payload.bytes[0]))
                }
            })
            .unwrap();
        assert_eq!(*outcome.nodes[1].result.as_ref().unwrap(), 2);
        assert_eq!(outcome.total_metrics().drops_injected, 1);
    }

    #[test]
    fn into_results_surfaces_errors() {
        let outcome = SimCluster::new(2, NetworkModel::instant())
            .run(|mut ep| if ep.node_id() == 0 { ep.recv().map(|_| ()) } else { Ok(()) })
            .unwrap();
        assert!(outcome.into_results().is_err());
    }
}
