use std::fmt;

/// Errors produced by transports and codecs in this crate.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// A peer id was outside the cluster, or a node tried to message itself.
    InvalidPeer {
        /// The offending peer id.
        peer: u16,
        /// Number of nodes in the cluster.
        cluster: usize,
    },
    /// The peer (or the whole hub/mesh) has shut down; no more messages can
    /// flow in the indicated direction.
    Disconnected,
    /// A frame or message failed to decode.
    Codec(String),
    /// An underlying I/O error (reactor transport only).
    Io(std::io::Error),
    /// The virtual-time scheduler detected that every node is blocked with no
    /// message in flight — a distributed deadlock in the protocol under test.
    Deadlock(String),
    /// A per-peer send queue exceeded its configured byte budget: the peer is
    /// not draining (dead, or slower than the sender) and accepting more
    /// would grow memory without bound. The message was *not* enqueued.
    Backpressure {
        /// The peer whose queue is full.
        peer: u16,
        /// Bytes currently queued for that peer.
        queued: usize,
        /// The configured queue budget in bytes.
        limit: usize,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidPeer { peer, cluster } => {
                write!(f, "invalid peer id {peer} for cluster of {cluster} nodes")
            }
            NetError::Disconnected => write!(f, "transport disconnected"),
            NetError::Codec(msg) => write!(f, "codec error: {msg}"),
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Deadlock(detail) => write!(f, "distributed deadlock: {detail}"),
            NetError::Backpressure { peer, queued, limit } => {
                write!(f, "send queue for peer {peer} is full ({queued} of {limit} bytes)")
            }
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::InvalidPeer { .. }
            | NetError::Disconnected
            | NetError::Codec(_)
            | NetError::Deadlock(_)
            | NetError::Backpressure { .. } => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = NetError::InvalidPeer { peer: 9, cluster: 4 };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('4'));
        let e = NetError::Codec("truncated".into());
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error as _;
        let e = NetError::from(std::io::Error::other("boom"));
        assert!(e.source().is_some());
    }
}
