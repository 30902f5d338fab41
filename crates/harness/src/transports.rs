//! Building real-socket clusters by [`TransportKind`].
//!
//! The runtime is written against the [`Endpoint`] trait and does not care
//! which transport carries its frames; deployment and test code picks one
//! via [`DsoConfig::transport`](sdso_core::DsoConfig). This module is the
//! single place that turns that config knob into live endpoints, so
//! experiments, integration tests, and the bench harness all construct
//! clusters the same way.
//!
//! [`TransportKind::TcpReactor`] maps to the event-driven reactor mesh
//! (Linux only — one poll loop per endpoint, run on the endpoint owner's
//! thread inside its calls, see `sdso_net::reactor`);
//! [`TransportKind::Tcp`] maps to the thread-per-peer `TcpMesh` fallback.
//! On non-Linux hosts asking for the reactor is an error rather than a
//! silent substitution, so CI jobs that gate reactor behaviour cannot pass
//! vacuously.

use sdso_net::tcp::TcpMesh;
use sdso_net::{Endpoint, NetError, TransportKind};

/// An owned, boxed endpoint: what [`local_cluster`] hands back so callers
/// can treat both transports uniformly.
pub type BoxedTransport = Box<dyn Endpoint + Send>;

/// Builds an `n`-node full-mesh cluster on loopback using the requested
/// transport.
///
/// # Errors
///
/// Returns transport setup errors, and [`NetError::Io`] when
/// [`TransportKind::TcpReactor`] is requested on a platform without the
/// reactor.
pub fn local_cluster(kind: TransportKind, n: usize) -> Result<Vec<BoxedTransport>, NetError> {
    match kind {
        TransportKind::Tcp => {
            Ok(TcpMesh::local(n)?.into_iter().map(|e| Box::new(e) as BoxedTransport).collect())
        }
        TransportKind::TcpReactor => reactor_cluster(n),
    }
}

#[cfg(target_os = "linux")]
fn reactor_cluster(n: usize) -> Result<Vec<BoxedTransport>, NetError> {
    use sdso_net::reactor::ReactorMesh;
    Ok(ReactorMesh::local(n)?.into_iter().map(|e| Box::new(e) as BoxedTransport).collect())
}

#[cfg(not(target_os = "linux"))]
fn reactor_cluster(_n: usize) -> Result<Vec<BoxedTransport>, NetError> {
    Err(NetError::Io(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the tcp-reactor transport requires Linux (epoll)",
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threaded_cluster_builds_and_echoes() {
        let mut eps = local_cluster(TransportKind::Tcp, 2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, sdso_net::Payload::control(vec![9u8])).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(&got.payload.bytes[..], &[9u8]);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn reactor_cluster_builds_and_echoes() {
        let mut eps = local_cluster(TransportKind::TcpReactor, 2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, sdso_net::Payload::control(vec![9u8])).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(&got.payload.bytes[..], &[9u8]);
    }

    #[test]
    fn default_kind_builds_on_this_platform() {
        let eps = local_cluster(TransportKind::default(), 3).unwrap();
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[2].node_id(), 2);
        assert_eq!(eps[0].num_nodes(), 3);
    }
}
