//! Longer-horizon gameplay behaviour under the real protocols: combat,
//! scoring cycles, and range effects — run on the virtual-time cluster.

use sdso_game::{run_node, Protocol, Scenario};
use sdso_sim::{NetworkModel, SimCluster};

fn play(scenario: &Scenario, protocol: Protocol) -> Vec<sdso_game::NodeStats> {
    let s = scenario.clone();
    SimCluster::new(usize::from(scenario.teams), NetworkModel::paper_testbed())
        .run(move |ep| run_node(ep, &s, protocol).map_err(sdso_net::NetError::from))
        .unwrap()
        .into_results()
        .unwrap()
}

#[test]
fn combat_happens_when_ranges_overlap() {
    // With range 3 and several teams converging on the goal, tanks must
    // eventually sight and fire at each other.
    let scenario = Scenario::paper(4, 3).with_ticks(250);
    for protocol in [Protocol::Bsync, Protocol::Msync2] {
        let stats = play(&scenario, protocol);
        let shots: u64 = stats.iter().map(|s| s.shots).sum();
        assert!(shots > 0, "{protocol}: no shots in 250 ticks at range 3");
    }
}

#[test]
fn damage_is_conserved_across_processes() {
    // Every death implies at least tank_hp incoming hits or a bomb; the
    // global death count must stay plausible relative to global shots and
    // bombs (an upper bound, not an exact identity, since shots miss).
    let scenario = Scenario::paper(4, 3).with_ticks(250);
    let stats = play(&scenario, Protocol::Bsync);
    let shots: u64 = stats.iter().map(|s| s.shots).sum();
    let deaths: u64 = stats.iter().map(|s| s.deaths).sum();
    let bombs = scenario.bombs() as u64;
    assert!(
        deaths <= shots / u64::from(Scenario::TANK_HP) + bombs,
        "{deaths} deaths cannot be explained by {shots} shots and {bombs} bombs"
    );
}

#[test]
fn scoring_cycles_repeat_over_long_runs() {
    // Goal → patrol → goal: over 600 ticks some team should score more
    // than once, proving the respawn/patrol cycle doesn't wedge.
    let scenario = Scenario::paper(3, 1).with_ticks(600);
    let stats = play(&scenario, Protocol::Msync2);
    let total_goals: u64 = stats.iter().map(|s| s.goals).sum();
    assert!(total_goals >= 2, "only {total_goals} goal visits in 600 ticks");
}

#[test]
fn wider_range_means_more_ec_traffic() {
    // The paper's 5-lock vs 13-lock effect, as a regression guard.
    let base = Scenario::paper(4, 1).with_ticks(80);
    let wide = Scenario::paper(4, 3).with_ticks(80);
    let narrow_msgs: u64 = play(&base, Protocol::Entry).iter().map(|s| s.net.total_sent()).sum();
    let wide_msgs: u64 = play(&wide, Protocol::Entry).iter().map(|s| s.net.total_sent()).sum();
    assert!(
        wide_msgs > narrow_msgs * 2,
        "range 3 EC ({wide_msgs}) should far exceed range 1 ({narrow_msgs})"
    );
}

#[test]
fn bsync_range_has_little_effect_on_traffic() {
    // BSYNC broadcasts regardless of range: its message count is a
    // function of ticks and processes only.
    let base = Scenario::paper(4, 1).with_ticks(80);
    let wide = Scenario::paper(4, 3).with_ticks(80);
    let narrow: u64 = play(&base, Protocol::Bsync).iter().map(|s| s.net.total_sent()).sum();
    let wide_msgs: u64 = play(&wide, Protocol::Bsync).iter().map(|s| s.net.total_sent()).sum();
    let ratio = wide_msgs as f64 / narrow as f64;
    assert!(
        (0.9..1.1).contains(&ratio),
        "BSYNC traffic should be range-insensitive: {narrow} vs {wide_msgs}"
    );
}

#[test]
fn all_protocols_survive_a_two_team_duel() {
    // Smallest cluster, long horizon, both ranges: a soak across every
    // protocol family.
    for range in [1u16, 3] {
        let scenario = Scenario::paper(2, range).with_ticks(300);
        for protocol in Protocol::ALL {
            let stats = play(&scenario, protocol);
            assert_eq!(stats.len(), 2, "{protocol} range {range}");
            assert!(stats.iter().all(|s| s.ticks == 300));
        }
    }
}
