//! One cell: one workload × one protocol, run in this process through the
//! library's public entry points — `run_node` on a `SimCluster` or on a
//! loopback `local_cluster` — optionally with every endpoint wrapped in
//! [`TimedEndpoint`].
//!
//! A cell plays several *worlds*: the same configuration on maps placed
//! from different seeds, each on a fresh cluster. How fast a protocol runs
//! depends on where the obstacles send the tanks (between maps,
//! `secs_per_mod` varies by 4 % for 16-node EC and by 10 % for 2-node
//! MSYNC2, and more ticks on one map do not average that out), so a cell
//! reports `secs_per_mod` per world and the workload's run takes one value
//! over all of them (`Workload::over_worlds`).

use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::Instant;

use sdso_game::{run_node, NodeStats, Protocol, Scenario};
use sdso_harness::transports::local_cluster;
use sdso_net::{Endpoint, NetError, TransportKind};
use sdso_sim::{NetworkModel, SimCluster};

use crate::affinity::{pin_this_thread, Pin};
use crate::timed::{Span, SpanSink, TimedEndpoint};
use crate::workload::{warmup_ticks, Workload};

/// How a cell's tick count is chosen.
#[derive(Debug, Clone, Copy)]
pub enum Sizing {
    /// Exactly this many ticks per world.
    Ticks(u64),
    /// `wall2-*` only: as many ticks per world as the tick rate of the
    /// cell's warm-up world says make the cell last this many seconds.
    Seconds(f64),
}

/// One world of a cell: one cluster run to completion.
pub struct World {
    /// Per-process statistics, indexed by node id.
    pub per_node: Vec<NodeStats>,
    /// Per-process run time in the workload's time base, seconds.
    pub node_secs: Vec<f64>,
    /// When the last node thread began to run: the end of set-up. What
    /// follows on that thread is `run_node` — on `wall2-*` after the
    /// benchmark has placed the thread on its CPU and all are released
    /// together, which is the benchmark's doing and no part of set-up
    /// (moving a thread to the other vCPU takes 0.1–4 ms here).
    pub entered: Instant,
    /// Host seconds the nodes ran for, until the last one returned.
    pub host_secs: f64,
    /// Per-node spans (traced cells only).
    pub spans: Option<Vec<Vec<Span>>>,
}

/// Everything one cell produced.
pub struct CellOutcome {
    /// Ticks per world.
    pub ticks: u64,
    pub worlds: Vec<World>,
    /// Host seconds from the start of the process ([`process_start`]) to
    /// the last node thread of the cell's first cluster running: argument
    /// parsing, scenario generation, `SimCluster::new` or the loopback
    /// mesh connect, thread spawns.
    pub setup_s: f64,
}

/// The first call's instant; `main` makes that call before anything else.
pub fn process_start() -> Instant {
    static START: OnceLock<Instant> = OnceLock::new();
    *START.get_or_init(Instant::now)
}

/// The seed of a cell's `world`-th map: a SplitMix64 step per world, so
/// neighbouring `--seed`s share no map.
fn world_seed(seed: u64, world: u64) -> u64 {
    let mut z = seed.wrapping_add(world.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sinks(n: usize, traced: bool) -> Option<Vec<SpanSink>> {
    traced.then(|| (0..n).map(|_| Arc::new(Mutex::new(Vec::new()))).collect())
}

fn drain(sinks: Option<Vec<SpanSink>>) -> Option<Vec<Vec<Span>>> {
    sinks.map(|sinks| {
        sinks
            .iter()
            .map(|s| std::mem::take(&mut *s.lock().expect("span sink poisoned by a node panic")))
            .collect()
    })
}

/// Runs one node, through the decorator when a sink is given.
fn node<E: Endpoint>(
    endpoint: E,
    scenario: &Scenario,
    protocol: Protocol,
    sink: Option<SpanSink>,
) -> Result<NodeStats, NetError> {
    match sink {
        Some(sink) => run_node(TimedEndpoint::new(endpoint, sink), scenario, protocol),
        None => run_node(endpoint, scenario, protocol),
    }
    .map_err(NetError::from)
}

/// Runs the cell.
///
/// # Errors
///
/// The first node error, as text.
pub fn run_cell(
    workload: Workload,
    protocol: Protocol,
    seed: u64,
    worlds: std::ops::Range<u64>,
    sizing: Sizing,
    traced: bool,
    pin: Pin,
) -> Result<CellOutcome, String> {
    let started = process_start();
    let scenario = |world: u64, ticks: u64| workload.scenario(world_seed(seed, world), ticks);
    let mut first_entered = None;
    let ticks = match (workload.model, sizing) {
        (Some(_), Sizing::Ticks(ticks)) => ticks,
        (Some(_), Sizing::Seconds(_)) => {
            return Err("virtual-time cells are sized in ticks, not seconds".to_owned());
        }
        (None, _) => {
            // Untimed warm-up on a fresh cluster of the same kind: fills
            // allocator and socket caches, and gives the tick rate.
            let warm_ticks = warmup_ticks(protocol);
            let warm = run_wall(&scenario(worlds.start, warm_ticks), protocol, false, pin)?;
            first_entered = Some(warm.entered);
            match sizing {
                Sizing::Ticks(ticks) => ticks,
                Sizing::Seconds(secs) => {
                    let rate = warm_ticks as f64 / warm.host_secs;
                    ((rate * secs / worlds.clone().count() as f64) as u64).max(1)
                }
            }
        }
    };
    let worlds: Vec<World> = worlds
        .map(|world| {
            let scenario = scenario(world, ticks);
            match workload.model {
                Some(model) => run_sim(&scenario, protocol, model(), traced),
                None => run_wall(&scenario, protocol, traced, pin),
            }
        })
        .collect::<Result<_, _>>()?;
    let first_entered =
        first_entered.or(worlds.first().map(|w| w.entered)).ok_or("a cell plays a world")?;
    Ok(CellOutcome { ticks, worlds, setup_s: first_entered.duration_since(started).as_secs_f64() })
}

fn run_sim(
    scenario: &Scenario,
    protocol: Protocol,
    model: NetworkModel,
    traced: bool,
) -> Result<World, String> {
    let n = usize::from(scenario.teams);
    let sinks = sinks(n, traced);
    let (node_sinks, node_scenario) = (sinks.clone(), scenario.clone());
    // The simulator starts the node threads itself.
    let entered = Arc::new(Mutex::new(Instant::now()));
    let entered_by_nodes = Arc::clone(&entered);
    let outcome = SimCluster::new(n, model).run(move |ep| {
        {
            let mut latest = entered_by_nodes.lock().expect("no node panics holding it");
            *latest = (*latest).max(Instant::now());
        }
        let sink = node_sinks.as_ref().map(|s| Arc::clone(&s[usize::from(ep.node_id())]));
        node(ep, &node_scenario, protocol, sink)
    });
    let entered = *entered.lock().expect("no node panics holding it");
    let host_secs = entered.elapsed().as_secs_f64();
    let per_node =
        outcome.and_then(|o| o.into_results()).map_err(|e| format!("{protocol}: {e}"))?;
    Ok(World {
        node_secs: per_node.iter().map(|s| s.exec_time.as_secs_f64()).collect(),
        per_node,
        entered,
        host_secs,
        spans: drain(sinks),
    })
}

/// Connects a loopback mesh and starts one thread per node; all are
/// released into `run_node` together.
fn run_wall(
    scenario: &Scenario,
    protocol: Protocol,
    traced: bool,
    pin: Pin,
) -> Result<World, String> {
    let n = usize::from(scenario.teams);
    let sinks = sinks(n, traced);
    let endpoints = local_cluster(TransportKind::default(), n).map_err(|e| format!("mesh: {e}"))?;
    let barrier = Barrier::new(n + 1);
    let (results, host_secs) = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(id, ep)| {
                let sink = sinks.as_ref().map(|s| Arc::clone(&s[id]));
                let barrier = &barrier;
                scope.spawn(move || {
                    let entered = Instant::now();
                    if pin == Pin::PerNode && !pin_this_thread(id) {
                        eprintln!("sdso-benchmark: could not pin node {id} to a CPU");
                    }
                    barrier.wait();
                    // Wall seconds on the benchmark's own clock, from the
                    // release to this node's `run_node` return.
                    let start = Instant::now();
                    let stats = node(ep, scenario, protocol, sink);
                    (stats, start.elapsed().as_secs_f64(), entered)
                })
            })
            .collect();
        barrier.wait();
        let released = Instant::now();
        let results: Vec<_> =
            handles.into_iter().map(|h| h.join().expect("a node thread panicked")).collect();
        (results, released.elapsed().as_secs_f64())
    });
    let mut per_node = Vec::with_capacity(n);
    let mut node_secs = Vec::with_capacity(n);
    let mut last_entered = None;
    for (stats, secs, entered) in results {
        per_node.push(stats.map_err(|e| format!("{protocol}: {e}"))?);
        node_secs.push(secs);
        last_entered = last_entered.max(Some(entered));
    }
    let entered = last_entered.ok_or("a cluster has nodes")?;
    Ok(World { per_node, node_secs, entered, host_secs, spans: drain(sinks) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdso_sim::NetworkModel;

    #[test]
    fn the_decorator_changes_nothing_the_game_can_see() {
        let workload = Workload {
            name: "test",
            why: "",
            teams: 4,
            model: Some(NetworkModel::paper_testbed),
            all_on: false,
            block_bytes: 64,
            worlds: 2,
            rounds: 1,
        };
        for protocol in [Protocol::Msync2, Protocol::Entry] {
            let plain =
                run_cell(workload, protocol, 7, 0..2, Sizing::Ticks(40), false, Pin::One).unwrap();
            let timed =
                run_cell(workload, protocol, 7, 0..2, Sizing::Ticks(40), true, Pin::One).unwrap();
            assert!(plain.worlds.iter().all(|w| w.spans.is_none()));
            assert!(timed.worlds.iter().all(|w| w.spans.as_ref().map(Vec::len) == Some(4)));
            let nodes = |cell: &'_ CellOutcome| -> Vec<NodeStats> {
                cell.worlds.iter().flat_map(|w| w.per_node.clone()).collect()
            };
            assert_eq!(nodes(&plain).len(), 8);
            for (a, b) in nodes(&plain).iter().zip(&nodes(&timed)) {
                assert_eq!(
                    (a.modifications, a.score, a.net.total_sent(), a.exec_time),
                    (b.modifications, b.score, b.net.total_sent(), b.exec_time),
                    "{protocol} node {}",
                    a.node
                );
                assert_eq!(a.final_world, b.final_world, "{protocol} node {}", a.node);
            }
        }
    }

    #[test]
    fn a_wall_cell_sized_in_seconds_runs_about_that_long_on_real_sockets() {
        let workload = Workload::by_name("wall2-paper").unwrap();
        let cell =
            run_cell(workload, Protocol::Bsync, 7, 0..16, Sizing::Seconds(0.3), true, Pin::PerNode)
                .unwrap();
        assert_eq!(cell.worlds.len(), 16);
        let host_secs: f64 = cell.worlds.iter().map(|w| w.host_secs).sum();
        assert!((0.1..1.0).contains(&host_secs), "{host_secs} s");
        assert!(cell.worlds.iter().flat_map(|w| &w.per_node).all(|s| s.ticks == cell.ticks));
        assert!(cell.setup_s > 0.0);
        let spans: Vec<_> = cell.worlds.iter().flat_map(|w| w.spans.clone().unwrap()).collect();
        crate::timed::layer_split(&spans, cell.ticks).unwrap();
    }
}
