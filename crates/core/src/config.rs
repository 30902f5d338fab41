use sdso_net::SimSpan;

/// Retransmission tuning for the runtime's optional reliability layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// The seed and the floor of each link's retransmission timeout. A
    /// link times its own round trips and waits SRTT + max(4·RTTVAR, `rto`)
    /// for an ack before it retransmits (the paper's `resync` path,
    /// triggered by a timeout instead of hanging on a lost rendezvous
    /// message); before its first sample it estimates as if that sample
    /// had been `rto`, and every expiry doubles the wait (six times at
    /// most) until a fresh frame is acknowledged. Half of `rto` is also the
    /// slack of a delayed ack: an owed ack waits for a frame to ride on
    /// that much longer than acks on its link have usually taken, before it
    /// travels alone — inside the floor the peer's timeout allows on top of
    /// those very latencies, so a delayed ack is never mistaken for a loss.
    pub rto: SimSpan,
    /// Consecutive unanswered rounds tolerated before a blocking wait
    /// fails with [`crate::DsoError::Timeout`]: retransmission rounds on
    /// one link with no fresh frame acknowledged in between, or idle
    /// rounds — nothing unacknowledged, nothing arriving, each twice as
    /// long as the last.
    pub max_retries: u32,
}

impl Default for RetryConfig {
    /// A 20 ms floor: several round trips of a LAN, and short next to the
    /// 42 ms a 16-node exchange takes on the paper's 10 Mbps testbed — the
    /// estimator, not the default, is what adapts a link to its network.
    fn default() -> Self {
        RetryConfig { rto: SimSpan::from_millis(20), max_retries: 50 }
    }
}

/// Wire-compression tunables (codec v2; see `ARCHITECTURE.md` §14).
///
/// Everything here defaults to **on** ([`WireConfig::compressed`]): every
/// link sends each rendezvous with data as one compressed frame, from its
/// first. The wire is a setting of the run, not of a link: every node of a
/// run must be built from the same `WireConfig`, and a compressed frame
/// that reaches a [`WireConfig::v1`] node is a protocol violation. The
/// paper's v1 frames still carry a batch the codec cannot take (a run past
/// the decoder's budget) and an empty batch's lone SYNC.
/// [`WireConfig::v1`] is also the reference the paper's figures are
/// reproduced on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireConfig {
    /// Send every rendezvous batch in codec v2 (varint/run-length diff
    /// encoding), the SYNC on board, and accept such frames. It also
    /// coalesces the updates to one object inside each outgoing batch
    /// before framing (a buffered slot update and a current-interval update
    /// to the same object become one update), on every link.
    pub codec_v2: bool,
}

impl Default for WireConfig {
    fn default() -> Self {
        WireConfig::compressed()
    }
}

impl WireConfig {
    /// Everything off — the v1 wire format, byte-for-byte.
    pub fn v1() -> Self {
        WireConfig { codec_v2: false }
    }

    /// The full bandwidth diet: v2 codec, batch dedup.
    pub fn compressed() -> Self {
        WireConfig { codec_v2: true }
    }
}

/// Tunables of the S-DSO runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsoConfig {
    /// When set, every message's *modelled* wire size is padded up to this
    /// many bytes. The paper's system exchanged fixed-size frames: "the
    /// average data size is the same as the average control message size;
    /// both are 2048 bytes". `None` models variable-size frames.
    pub frame_wire_len: Option<u32>,
    /// Merge multiple diffs to one object into a single diff per slot (the
    /// paper's optimisation). Disable only for the ablation study.
    pub merge_diffs: bool,
    /// When set, every message is sequenced per link and retransmitted on
    /// timeout until acknowledged, giving in-order exactly-once delivery
    /// over lossy transports. `None` (the paper's configuration — its
    /// testbed network did not lose messages) adds zero wire or metric
    /// overhead.
    pub reliability: Option<RetryConfig>,
    /// Wire-compression layer (codec v2, batch dedup). Defaults to all-on;
    /// [`WireConfig::v1`] reproduces the v1 wire format byte-for-byte.
    pub wire: WireConfig,
}

impl DsoConfig {
    /// The paper's configuration: 2048-byte frames, diff merging on.
    pub fn paper() -> Self {
        DsoConfig {
            frame_wire_len: Some(2048),
            merge_diffs: true,
            reliability: None,
            wire: WireConfig::default(),
        }
    }

    /// Compact frames (wire size = encoded size), diff merging on.
    pub fn compact() -> Self {
        DsoConfig {
            frame_wire_len: None,
            merge_diffs: true,
            reliability: None,
            wire: WireConfig::default(),
        }
    }

    /// Returns a copy with a different frame size.
    pub fn with_frame_wire_len(mut self, len: Option<u32>) -> Self {
        self.frame_wire_len = len;
        self
    }

    /// Returns a copy with diff merging switched.
    pub fn with_merge_diffs(mut self, merge: bool) -> Self {
        self.merge_diffs = merge;
        self
    }

    /// Returns a copy with the reliability layer switched.
    pub fn with_reliability(mut self, reliability: Option<RetryConfig>) -> Self {
        self.reliability = reliability;
        self
    }

    /// Returns a copy with the wire-compression layer configured.
    pub fn with_wire(mut self, wire: WireConfig) -> Self {
        self.wire = wire;
        self
    }
}

impl Default for DsoConfig {
    fn default() -> Self {
        DsoConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_reported_frame_size() {
        let c = DsoConfig::paper();
        assert_eq!(c.frame_wire_len, Some(2048));
        assert!(c.merge_diffs);
        assert_eq!(DsoConfig::default(), c);
    }

    #[test]
    fn builders_modify_single_fields() {
        let c = DsoConfig::paper().with_frame_wire_len(None).with_merge_diffs(false);
        assert_eq!(c.frame_wire_len, None);
        assert!(!c.merge_diffs);
        assert_eq!(c.reliability, None);
        let r = c.with_reliability(Some(RetryConfig::default()));
        assert_eq!(r.reliability.unwrap().max_retries, 50);
    }

    #[test]
    fn wire_compression_defaults_on_and_v1_is_all_off() {
        assert_eq!(WireConfig::default(), WireConfig::compressed());
        assert_eq!(DsoConfig::paper().wire, WireConfig::compressed());
        assert_eq!(DsoConfig::compact().wire, WireConfig::default());
        let on = WireConfig::compressed();
        assert!(on.codec_v2);
        let c = DsoConfig::paper().with_wire(WireConfig::v1());
        assert!(!c.wire.codec_v2);
    }
}
