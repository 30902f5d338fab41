use std::fmt;

use sdso_net::{NetError, NodeId, SimSpan};

use crate::object::ObjectId;

/// Errors produced by the S-DSO runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum DsoError {
    /// A transport-level failure.
    Net(NetError),
    /// An operation referenced an object never registered with `share`.
    UnknownObject(ObjectId),
    /// An object id was registered with `share` twice.
    AlreadyShared(ObjectId),
    /// A write fell outside an object's bounds.
    OutOfBounds {
        /// The object written.
        object: ObjectId,
        /// Write start offset.
        offset: u32,
        /// Write length.
        len: usize,
        /// The object's size.
        size: usize,
    },
    /// A peer violated the exchange protocol (e.g. a message stamped in the
    /// logical past, or an unexpected message kind during a rendezvous).
    ProtocolViolation(String),
    /// A reliability-layer blocking wait exhausted its retry budget: a
    /// link went that many retransmission rounds unanswered, or as many
    /// idle rounds passed without hearing anything from the network.
    Timeout {
        /// Consecutive unanswered rounds before giving up.
        retries: u32,
    },
    /// A send found the reliability layer's window to `peer` full: that
    /// many frames are sent and unacknowledged, so the peer has stopped
    /// acknowledging (or consuming) and queueing more would only grow
    /// memory. Raised by the send path instead of buffering without limit.
    WindowFull {
        /// The peer whose link is full.
        peer: NodeId,
        /// Frames held unacknowledged on the link.
        unacked: usize,
    },
    /// A bounded rendezvous wait ran out of budget with peers still owing
    /// their `(data, SYNC)` pair, and the caller had no membership-level
    /// escalation left (e.g. removing them would empty the group). The
    /// crash-tolerant protocols normally convert this condition into a
    /// view change instead of surfacing it.
    PeerUnresponsive {
        /// The peers that never completed the rendezvous.
        peers: Vec<NodeId>,
        /// How long the bounded wait was willing to wait.
        waited: SimSpan,
    },
}

impl fmt::Display for DsoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DsoError::Net(e) => write!(f, "transport error: {e}"),
            DsoError::UnknownObject(id) => write!(f, "object {id} was never shared"),
            DsoError::AlreadyShared(id) => write!(f, "object {id} already shared"),
            DsoError::OutOfBounds { object, offset, len, size } => write!(
                f,
                "write of {len} bytes at offset {offset} exceeds object {object} of {size} bytes"
            ),
            DsoError::ProtocolViolation(msg) => write!(f, "protocol violation: {msg}"),
            DsoError::Timeout { retries } => {
                write!(f, "gave up after {retries} retransmission rounds with no incoming traffic")
            }
            DsoError::WindowFull { peer, unacked } => {
                write!(f, "send window to peer {peer} is full: {unacked} frames unacknowledged")
            }
            DsoError::PeerUnresponsive { peers, waited } => {
                write!(f, "peers {peers:?} unresponsive after a {waited:?} bounded rendezvous")
            }
        }
    }
}

impl std::error::Error for DsoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DsoError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetError> for DsoError {
    fn from(e: NetError) -> Self {
        DsoError::Net(e)
    }
}

impl From<DsoError> for NetError {
    /// Lowers a runtime error onto the transport error type (protocol
    /// details flatten into a codec-error message). Exists so cluster
    /// closures whose signature is `Result<T, NetError>` can use `?` on
    /// runtime calls instead of hand-rolling this match at every site.
    fn from(e: DsoError) -> Self {
        match e {
            DsoError::Net(net) => net,
            other => NetError::Codec(format!("protocol failure: {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_specific() {
        let e = DsoError::OutOfBounds { object: ObjectId(3), offset: 10, len: 4, size: 8 };
        let s = e.to_string();
        assert!(s.contains("10") && s.contains('4') && s.contains('8'));
        assert!(DsoError::UnknownObject(ObjectId(9)).to_string().contains('9'));
    }
}
