//! Building real-socket clusters.
//!
//! The runtime is written against the [`Endpoint`] trait and does not care
//! which transport carries its frames. This module is the single place that
//! turns "a cluster on loopback" into live endpoints, so experiments,
//! integration tests, and the bench harness all construct clusters the same
//! way: over the reactor mesh (one `poll(2)` loop per endpoint, run on the
//! endpoint owner's thread inside its calls, see `sdso_net::reactor`), which
//! exists on every unix. Elsewhere building a cluster is an error rather
//! than a silent substitution, so CI jobs that gate reactor behaviour
//! cannot pass vacuously.

use sdso_net::{Endpoint, NetError, TransportKind};

/// An owned, boxed endpoint: what [`local_cluster`] hands back.
pub type BoxedTransport = Box<dyn Endpoint + Send>;

/// Builds an `n`-node full-mesh cluster on loopback. `TransportKind` has
/// one value, the reactor; the argument stays until the `benchmark/` crate
/// that passes it stops doing so.
///
/// # Errors
///
/// Returns transport setup errors, and [`NetError::Io`] with `Unsupported`
/// on a platform without the reactor (anything but unix).
pub fn local_cluster(_kind: TransportKind, n: usize) -> Result<Vec<BoxedTransport>, NetError> {
    reactor_cluster(n)
}

#[cfg(unix)]
fn reactor_cluster(n: usize) -> Result<Vec<BoxedTransport>, NetError> {
    use sdso_net::reactor::ReactorMesh;
    Ok(ReactorMesh::local(n)?.into_iter().map(|e| Box::new(e) as BoxedTransport).collect())
}

#[cfg(not(unix))]
fn reactor_cluster(_n: usize) -> Result<Vec<BoxedTransport>, NetError> {
    Err(NetError::Io(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the reactor transport requires a unix poll(2)",
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cluster's endpoints are `Send`: each can move to a thread of its
    /// own, and since a link makes progress inside its owner's calls, two
    /// owners on two threads still carry an echo both ways.
    #[cfg(unix)]
    #[test]
    fn threaded_cluster_builds_and_echoes() {
        let mut eps = local_cluster(TransportKind, 2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        let echo = std::thread::spawn(move || {
            let got = b.recv().unwrap();
            assert_eq!(got.from, 0);
            b.send(got.from, got.payload).unwrap();
        });
        a.send(1, sdso_net::Payload::control(vec![9u8])).unwrap();
        let got = a.recv().unwrap();
        assert_eq!(got.from, 1);
        assert_eq!(&got.payload.bytes[..], &[9u8]);
        echo.join().unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn reactor_cluster_builds_and_echoes() {
        let mut eps = local_cluster(TransportKind, 2).unwrap();
        let mut b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        a.send(1, sdso_net::Payload::control(vec![9u8])).unwrap();
        let got = b.recv().unwrap();
        assert_eq!(got.from, 0);
        assert_eq!(&got.payload.bytes[..], &[9u8]);
    }

    #[cfg(unix)]
    #[test]
    fn default_kind_builds_on_this_platform() {
        let eps = local_cluster(TransportKind, 3).unwrap();
        assert_eq!(eps.len(), 3);
        assert_eq!(eps[2].node_id(), 2);
        assert_eq!(eps[0].num_nodes(), 3);
    }
}
