//! The wire-compression benchmark behind `perf wire` (`BENCH_6.json`).
//!
//! One scenario, a sweep over link speeds × the paper's four protocols,
//! each cell run twice: once on the v1 absolute wire format and once with
//! the full bandwidth diet ([`sdso_core::WireConfig::compressed`] —
//! negotiated varint/run-length codec v2, XOR-delta against the link
//! shadow, batch dedup). Frames are modelled at payload size
//! (`frame_wire_len: None`): the paper's fixed 2048-byte frames would
//! pad every message to the same size and mask exactly the savings this
//! suite exists to measure.
//!
//! What is gated, and how, follows the split the other baselines use:
//!
//! * **`bytes_per_tick`** (v1 and v2) and **`total_msgs`** are exact
//!   virtual-time measurements — the simulator is deterministic, so any
//!   drift beyond ±tolerance is a protocol or codec change, not noise.
//!   Compression changes the message flow in exactly two ways, and the
//!   suite asserts the equation per cell: a negotiated link sends each
//!   rendezvous as one frame instead of two (`dso.rendezvous_fused`), and
//!   negotiation costs one `CodecOffer` per directed link —
//!   `v2_msgs == v1_msgs − fused + offers`, data messages unchanged.
//! * **`exchange_us`** (mean per-process exchange time) is virtual time
//!   too, gated ±tolerance; it is where the link-speed sweep shows up —
//!   the per-message stack cost dominates every link, so it follows the
//!   frame count, not the byte count (EXPERIMENTS.md Ext. H).
//! * **The reduction contract** is enforced fresh on every `record` and
//!   `check`: MSYNC2 must ship at least [`WIRE_REDUCTION_FLOOR`] fewer
//!   bytes per tick compressed than absolute (worst link taken), and no
//!   cell may ship *more* bytes compressed than absolute beyond the
//!   negotiation-overhead allowance.
//! * **Bit identity** is asserted inside the suite itself: for every
//!   cell the v1 and v2 runs must produce identical per-node
//!   modification counts and scores. A codec that decodes to anything
//!   but the exact bytes the v1 path would have delivered changes game
//!   outcomes and fails the run outright.

use sdso_core::WireConfig;
use sdso_game::{Protocol, Scenario};
use sdso_harness::{run_experiment, RunSummary};
use sdso_sim::NetworkModel;

use crate::json::{obj, Json};

/// Bumped when the report layout changes incompatibly.
pub const WIRE_SCHEMA_VERSION: u64 = 1;

/// Minimum MSYNC2 bytes-per-tick reduction (compressed vs absolute) the
/// suite enforces fresh, as a fraction: 0.40 = the compressed run must
/// ship at least 40% fewer bytes per tick.
pub const WIRE_REDUCTION_FLOOR: f64 = 0.40;

/// Codec negotiation costs one `CodecOffer` per link plus the per-frame
/// version byte; a compressed run may exceed the absolute run's bytes by
/// at most this relative allowance before the contract flags it.
const WIRE_INFLATION_ALLOWANCE: f64 = 0.02;

/// Teams (= processes) the committed baseline is recorded at.
pub const WIRE_DEFAULT_TEAMS: u16 = 4;

/// Ticks per process the committed baseline is recorded at.
pub const WIRE_DEFAULT_TICKS: u64 = 120;

/// Block payload size for the sweep. Larger than the paper's 64 bytes on
/// purpose: the game rewrites whole blocks whose content barely changes
/// between ticks (~1% of the world's bytes are genuinely dirty per
/// tick), which is exactly the regime where XOR-delta + zero-RLE pays.
const WIRE_BLOCK_BYTES: usize = 256;

/// The link sweep: name → calibrated [`NetworkModel`] preset.
fn links() -> [(&'static str, NetworkModel); 4] {
    [
        ("10M", NetworkModel::paper_testbed()),
        ("100M", NetworkModel::fast_ethernet()),
        ("1G", NetworkModel::modern_lan()),
        ("10G", NetworkModel::datacenter()),
    ]
}

/// One (link, protocol) result: the v1/v2 pair.
#[derive(Debug, Clone, PartialEq)]
pub struct WireCell {
    /// Link preset name (`10M`, `100M`, `1G`, `10G`).
    pub link: String,
    /// Protocol name (`BSYNC`, `MSYNC`, `MSYNC2`, `EC`).
    pub protocol: String,
    /// Modelled wire bytes per tick on the v1 absolute format. Exact;
    /// gated.
    pub v1_bytes_per_tick: f64,
    /// Modelled wire bytes per tick with the full bandwidth diet. Exact;
    /// gated.
    pub v2_bytes_per_tick: f64,
    /// Mean per-process exchange time on v1, virtual microseconds (zero
    /// for EC, which never exchanges). Gated.
    pub v1_exchange_us: f64,
    /// Mean per-process exchange time compressed, virtual microseconds.
    /// Gated.
    pub v2_exchange_us: f64,
    /// Cluster-wide message count of the v1 run. The v2 run's count is
    /// this less its fused rendezvous plus the one-off `CodecOffer` per
    /// directed link (asserted by the suite). Exact; gated.
    pub total_msgs: u64,
}

impl WireCell {
    /// Fractional bytes-per-tick reduction of v2 over v1 (0.4 = 40%
    /// fewer bytes; negative means the compressed run shipped more).
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.v1_bytes_per_tick == 0.0 {
            return 0.0;
        }
        1.0 - self.v2_bytes_per_tick / self.v1_bytes_per_tick
    }
}

/// A full wire-compression report (`BENCH_6.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct WireReport {
    /// Schema version ([`WIRE_SCHEMA_VERSION`]).
    pub schema: u64,
    /// Teams the sweep ran with.
    pub teams: u64,
    /// Ticks per process.
    pub ticks: u64,
    /// Block payload bytes.
    pub block_bytes: u64,
    /// Worst-link MSYNC2 bytes-per-tick reduction measured on the
    /// recording run. Recorded for the log; `record` and `check` both
    /// re-derive it fresh from their own cells.
    pub msync2_reduction: f64,
    /// One cell per (link, protocol).
    pub cells: Vec<WireCell>,
}

impl WireReport {
    /// Serializes the report as pretty-printed JSON.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                obj(vec![
                    ("link", Json::Str(c.link.clone())),
                    ("protocol", Json::Str(c.protocol.clone())),
                    ("v1_bytes_per_tick", Json::Num(c.v1_bytes_per_tick)),
                    ("v2_bytes_per_tick", Json::Num(c.v2_bytes_per_tick)),
                    ("v1_exchange_us", Json::Num(c.v1_exchange_us)),
                    ("v2_exchange_us", Json::Num(c.v2_exchange_us)),
                    ("total_msgs", Json::Num(c.total_msgs as f64)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Num(self.schema as f64)),
            ("teams", Json::Num(self.teams as f64)),
            ("ticks", Json::Num(self.ticks as f64)),
            ("block_bytes", Json::Num(self.block_bytes as f64)),
            ("msync2_reduction", Json::Num(self.msync2_reduction)),
            ("cells", Json::Arr(cells)),
        ])
        .pretty()
    }

    /// Parses a report previously written by
    /// [`WireReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or missing field.
    pub fn parse(text: &str) -> Result<WireReport, String> {
        let root = Json::parse(text)?;
        let num = |key: &str| -> Result<f64, String> {
            root.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric `{key}`"))
        };
        let schema = num("schema")? as u64;
        let teams = num("teams")? as u64;
        let ticks = num("ticks")? as u64;
        let block_bytes = num("block_bytes")? as u64;
        let msync2_reduction = num("msync2_reduction")?;
        let raw_cells = root
            .get("cells")
            .and_then(Json::as_array)
            .ok_or_else(|| "missing `cells` array".to_owned())?;
        let mut cells = Vec::with_capacity(raw_cells.len());
        for (i, c) in raw_cells.iter().enumerate() {
            let field = |key: &str| -> Result<f64, String> {
                c.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("cell {i}: missing numeric `{key}`"))
            };
            let text_field = |key: &str| -> Result<String, String> {
                c.get(key)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("cell {i}: missing `{key}`"))
            };
            cells.push(WireCell {
                link: text_field("link")?,
                protocol: text_field("protocol")?,
                v1_bytes_per_tick: field("v1_bytes_per_tick")?,
                v2_bytes_per_tick: field("v2_bytes_per_tick")?,
                v1_exchange_us: field("v1_exchange_us")?,
                v2_exchange_us: field("v2_exchange_us")?,
                total_msgs: field("total_msgs")? as u64,
            });
        }
        Ok(WireReport { schema, teams, ticks, block_bytes, msync2_reduction, cells })
    }

    /// Compares `current` against this baseline: every gated metric
    /// within ±`tolerance` relative per (link, protocol) cell; no cells
    /// may appear or vanish. The reduction floor is NOT checked here —
    /// [`WireReport::contract_violations`] enforces it fresh on both
    /// `record` and `check` (the shard/crash pattern). Returns
    /// human-readable violations; empty means pass.
    #[must_use]
    pub fn compare(&self, current: &WireReport, tolerance: f64) -> Vec<String> {
        let mut violations = Vec::new();
        if self.schema != current.schema {
            violations.push(format!(
                "schema changed: baseline {} vs current {}",
                self.schema, current.schema
            ));
            return violations;
        }
        if self.teams != current.teams
            || self.ticks != current.ticks
            || self.block_bytes != current.block_bytes
        {
            violations.push(format!(
                "shape mismatch: baseline {} teams × {} ticks × {}B blocks vs \
                 current {} × {} × {}B",
                self.teams,
                self.ticks,
                self.block_bytes,
                current.teams,
                current.ticks,
                current.block_bytes
            ));
            return violations;
        }
        for base in &self.cells {
            let key = format!("{} {}", base.link, base.protocol);
            let Some(cur) =
                current.cells.iter().find(|c| c.link == base.link && c.protocol == base.protocol)
            else {
                violations.push(format!("[{key}] cell missing from current run"));
                continue;
            };
            for (metric, b, c) in [
                ("v1_bytes_per_tick", base.v1_bytes_per_tick, cur.v1_bytes_per_tick),
                ("v2_bytes_per_tick", base.v2_bytes_per_tick, cur.v2_bytes_per_tick),
                ("v1_exchange_us", base.v1_exchange_us, cur.v1_exchange_us),
                ("v2_exchange_us", base.v2_exchange_us, cur.v2_exchange_us),
                ("total_msgs", base.total_msgs as f64, cur.total_msgs as f64),
            ] {
                if !within_rel(b, c, tolerance) {
                    violations.push(format!(
                        "[{key}] {metric}: baseline {b:.1} vs current {c:.1} (>±{:.0}%)",
                        tolerance * 100.0
                    ));
                }
            }
        }
        for cur in &current.cells {
            if !self.cells.iter().any(|b| b.link == cur.link && b.protocol == cur.protocol) {
                violations.push(format!(
                    "[{} {}] new cell not in baseline; re-record BENCH_6.json",
                    cur.link, cur.protocol
                ));
            }
        }
        violations
    }

    /// The compression contract, enforced fresh on `record` and `check`
    /// (the sim is deterministic, so these are exact — any breach is a
    /// real change):
    ///
    /// * MSYNC2's bytes-per-tick reduction, on its *worst* link, must
    ///   reach [`WIRE_REDUCTION_FLOOR`];
    /// * no cell may ship more compressed bytes than absolute beyond
    ///   the negotiation-overhead allowance.
    #[must_use]
    pub fn contract_violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let msync2_worst = self
            .cells
            .iter()
            .filter(|c| c.protocol == "MSYNC2")
            .map(WireCell::reduction)
            .fold(f64::INFINITY, f64::min);
        if msync2_worst < WIRE_REDUCTION_FLOOR {
            violations.push(format!(
                "[MSYNC2] worst-link bytes/tick reduction {:.1}% below the {:.0}% floor",
                msync2_worst * 100.0,
                WIRE_REDUCTION_FLOOR * 100.0
            ));
        }
        for c in &self.cells {
            if c.v2_bytes_per_tick > c.v1_bytes_per_tick * (1.0 + WIRE_INFLATION_ALLOWANCE) {
                violations.push(format!(
                    "[{} {}] compressed run ships MORE bytes than absolute: \
                     {:.1} vs {:.1} per tick",
                    c.link, c.protocol, c.v2_bytes_per_tick, c.v1_bytes_per_tick
                ));
            }
        }
        violations
    }

    /// Worst-link MSYNC2 reduction derived from the cells.
    #[must_use]
    pub fn derived_msync2_reduction(&self) -> f64 {
        self.cells
            .iter()
            .filter(|c| c.protocol == "MSYNC2")
            .map(WireCell::reduction)
            .fold(f64::INFINITY, f64::min)
    }
}

/// `b` within ±`tol` relative of `a` (exact zeros must match).
fn within_rel(a: f64, b: f64, tol: f64) -> bool {
    if a == 0.0 {
        return b == 0.0;
    }
    ((b - a) / a).abs() <= tol
}

/// The sweep scenario: paper world, payload-sized frames, fat blocks.
fn wire_scenario(teams: u16, ticks: u64) -> Scenario {
    let mut scenario =
        Scenario::paper(teams, 1).with_ticks(ticks).with_block_bytes(WIRE_BLOCK_BYTES);
    // Payload-sized frames: fixed 2048-byte frames would pad every
    // message identically and hide the codec's savings.
    scenario.frame_wire_len = None;
    scenario
}

/// Per-node `(modifications, score)` — the outcome fingerprint two runs
/// must share if (and only if) every frame decoded to identical bytes.
fn outcomes(summary: &RunSummary) -> Vec<(u64, i64)> {
    summary.per_node.iter().map(|s| (s.modifications, s.score)).collect()
}

/// Runs the full sweep at a given shape and assembles the report.
/// Progress lines go to stderr like the other suites'.
///
/// # Errors
///
/// Returns run errors, and fails outright if any compressed run's game
/// outcome diverges from its absolute twin (decode bit-identity broken)
/// or its message count is not the twin's less the fused rendezvous plus
/// the codec offers.
pub fn run_wire_suite_with(teams: u16, ticks: u64) -> Result<WireReport, String> {
    let scenario = wire_scenario(teams, ticks);
    let mut cells = Vec::new();
    for (link, model) in links() {
        for protocol in Protocol::PAPER {
            let run = |wire: WireConfig| -> Result<RunSummary, String> {
                run_experiment(&scenario.clone().with_wire(wire), protocol, model)
                    .map_err(|e| format!("{} {} : {e}", link, protocol.name()))
            };
            let v1 = run(WireConfig::v1())?;
            let v2 = run(WireConfig::compressed())?;
            if outcomes(&v1) != outcomes(&v2) {
                return Err(format!(
                    "[{link} {}] compressed run diverged from absolute run: \
                     decode is not bit-identical ({:?} vs {:?})",
                    protocol.name(),
                    outcomes(&v1),
                    outcomes(&v2)
                ));
            }
            // Compression removes one SYNC per fused rendezvous and adds
            // at most one CodecOffer per directed link (lazy negotiation),
            // none under EC, which never exchanges. Nothing else may
            // change how many messages flow, and no data message at all.
            let fused: u64 = v2.per_node.iter().map(|s| s.dso.rendezvous_fused).sum();
            let offer_budget = match protocol {
                Protocol::Entry => 0,
                _ => u64::from(teams) * (u64::from(teams) - 1),
            };
            let offers = (v2.total_messages() + fused).checked_sub(v1.total_messages());
            if offers.is_none_or(|offers| offers > offer_budget)
                || v2.data_messages() != v1.data_messages()
            {
                return Err(format!(
                    "[{link} {}] compression changed the message flow: {} ({} data) vs {} \
                     ({} data) with {fused} fused rendezvous (negotiation may add at most \
                     {offer_budget})",
                    protocol.name(),
                    v1.total_messages(),
                    v1.data_messages(),
                    v2.total_messages(),
                    v2.data_messages()
                ));
            }
            let cell = WireCell {
                link: link.to_owned(),
                protocol: protocol.name().to_owned(),
                v1_bytes_per_tick: v1.total_bytes() as f64 / ticks as f64,
                v2_bytes_per_tick: v2.total_bytes() as f64 / ticks as f64,
                v1_exchange_us: v1.avg_exchange_secs() * 1e6,
                v2_exchange_us: v2.avg_exchange_secs() * 1e6,
                total_msgs: v1.total_messages(),
            };
            eprintln!(
                "  {link:>4} {:<6}: {:>8.0} -> {:>8.0} B/tick ({:+.1}%), \
                 exchange {:>8.0} -> {:>8.0} us",
                cell.protocol,
                cell.v1_bytes_per_tick,
                cell.v2_bytes_per_tick,
                -cell.reduction() * 100.0,
                cell.v1_exchange_us,
                cell.v2_exchange_us,
            );
            cells.push(cell);
        }
    }
    let mut report = WireReport {
        schema: WIRE_SCHEMA_VERSION,
        teams: u64::from(teams),
        ticks,
        block_bytes: WIRE_BLOCK_BYTES as u64,
        msync2_reduction: 0.0,
        cells,
    };
    report.msync2_reduction = report.derived_msync2_reduction();
    eprintln!(
        "  MSYNC2 worst-link reduction: {:.1}% (floor {:.0}%)",
        report.msync2_reduction * 100.0,
        WIRE_REDUCTION_FLOOR * 100.0
    );
    Ok(report)
}

/// Runs the sweep at the committed baseline's shape.
///
/// # Errors
///
/// See [`run_wire_suite_with`].
pub fn run_wire_suite() -> Result<WireReport, String> {
    run_wire_suite_with(WIRE_DEFAULT_TEAMS, WIRE_DEFAULT_TICKS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(link: &str, protocol: &str, v1: f64, v2: f64) -> WireCell {
        WireCell {
            link: link.into(),
            protocol: protocol.into(),
            v1_bytes_per_tick: v1,
            v2_bytes_per_tick: v2,
            v1_exchange_us: 1500.0,
            v2_exchange_us: 900.0,
            total_msgs: 4000,
        }
    }

    fn report() -> WireReport {
        WireReport {
            schema: WIRE_SCHEMA_VERSION,
            teams: 4,
            ticks: 120,
            block_bytes: 256,
            msync2_reduction: 0.5,
            cells: vec![
                cell("10M", "MSYNC2", 10_000.0, 5_000.0),
                cell("10G", "MSYNC2", 10_000.0, 5_000.0),
                cell("10M", "EC", 8_000.0, 8_000.0),
            ],
        }
    }

    #[test]
    fn report_round_trips_through_json() {
        let r = report();
        let parsed = WireReport::parse(&r.to_json_string()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn compare_accepts_identical_and_small_drift() {
        let base = report();
        let mut cur = report();
        assert!(base.compare(&cur, 0.25).is_empty());
        cur.cells[0].v2_bytes_per_tick = 5_500.0; // +10%, inside ±25%
        assert!(base.compare(&cur, 0.25).is_empty());
    }

    #[test]
    fn compare_flags_drift_shape_and_cell_set_changes() {
        let base = report();
        let mut cur = report();
        cur.cells[0].v1_bytes_per_tick = 20_000.0;
        cur.cells[1].total_msgs = 8_000;
        let violations = base.compare(&cur, 0.25);
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations.iter().any(|v| v.contains("v1_bytes_per_tick")));
        assert!(violations.iter().any(|v| v.contains("total_msgs")));

        let mut wrong_shape = report();
        wrong_shape.ticks = 60;
        assert_eq!(base.compare(&wrong_shape, 0.25).len(), 1);

        let mut extra = report();
        extra.cells.push(cell("1G", "BSYNC", 1.0, 1.0));
        assert!(base.compare(&extra, 0.25).iter().any(|v| v.contains("new cell")));
    }

    #[test]
    fn contract_enforces_reduction_floor_and_no_inflation() {
        assert!(report().contract_violations().is_empty());

        let mut weak = report();
        weak.cells[1].v2_bytes_per_tick = 9_000.0; // 10% < 40% floor
        let violations = weak.contract_violations();
        assert!(violations.iter().any(|v| v.contains("below the 40% floor")), "{violations:?}");

        let mut inflated = report();
        inflated.cells[2].v2_bytes_per_tick = 9_000.0; // EC grew 12.5%
        let violations = inflated.contract_violations();
        assert!(violations.iter().any(|v| v.contains("MORE bytes")), "{violations:?}");
    }

    #[test]
    fn small_sweep_compresses_and_stays_bit_identical() {
        // A tiny shape keeps this a unit test; CI runs the recorded
        // 4-team 120-tick shape via `perf wire`. Bit identity and the
        // message-count contract are asserted inside the suite itself.
        let report = run_wire_suite_with(2, 40).unwrap();
        assert_eq!(report.cells.len(), 16, "4 links × 4 protocols");
        assert!(
            report.msync2_reduction >= WIRE_REDUCTION_FLOOR,
            "MSYNC2 reduction {:.1}% under the floor even at the test shape",
            report.msync2_reduction * 100.0
        );
        let bytes_of = |link: &str, proto: &str, v2: bool| {
            let c = report
                .cells
                .iter()
                .find(|c| c.link == link && c.protocol == proto)
                .expect("cell present");
            if v2 {
                c.v2_bytes_per_tick
            } else {
                c.v1_bytes_per_tick
            }
        };
        // Bytes are link-independent (the sweep varies timing, not
        // behaviour): 10M and 10G must agree exactly.
        for proto in ["BSYNC", "MSYNC", "MSYNC2", "EC"] {
            assert_eq!(bytes_of("10M", proto, false), bytes_of("10G", proto, false), "{proto} v1");
            assert_eq!(bytes_of("10M", proto, true), bytes_of("10G", proto, true), "{proto} v2");
        }
    }
}
