use std::fmt;

use sdso_net::NetError;

/// Errors produced by the virtual-time cluster.
#[derive(Debug)]
#[non_exhaustive]
pub enum SimError {
    /// A node's closure returned a transport error.
    Net(NetError),
    /// A node's closure panicked; the payload's `Display` is captured when
    /// possible.
    NodePanic {
        /// Which node panicked.
        node: u16,
        /// Panic message, if it was a `&str`/`String` payload.
        message: String,
    },
    /// Every live node was blocked in `recv` with no message in flight: the
    /// protocol under test deadlocked. Contains per-node diagnostics.
    Deadlock(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Net(e) => write!(f, "transport error: {e}"),
            SimError::NodePanic { node, message } => {
                write!(f, "node {node} panicked: {message}")
            }
            SimError::Deadlock(detail) => write!(f, "distributed deadlock: {detail}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Net(e) => Some(e),
            SimError::NodePanic { .. } | SimError::Deadlock(_) => None,
        }
    }
}

impl From<NetError> for SimError {
    fn from(e: NetError) -> Self {
        SimError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_node_for_panics() {
        let e = SimError::NodePanic { node: 5, message: "boom".into() };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains("boom"));
    }
}
