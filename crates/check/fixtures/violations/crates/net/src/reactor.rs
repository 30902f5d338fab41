//! Fixture: blocking constructs in the poll turn (must trip
//! `no-blocking-in-reactor` three ways: a direct sleep, a lock guard held
//! across `poll`, and a blocking receive reached through a helper in
//! another file).

impl Reactor {
    fn turn(&mut self, timeout: Option<Duration>) {
        let guard = self.shared.peer_events.lock();
        self.poller.wait(&mut self.events, timeout);
        drop(guard);
        std::thread::sleep(Duration::from_millis(5));
        drain_commands_slowly(&self.cmd_rx);
    }
}
