//! Fixture: the bug-removed twin of the violations reactor.rs — no lock at
//! all (the reactor declares none), the channel is drained nonblockingly,
//! and nothing blocks but `poll` (must lint clean).

impl Reactor {
    fn turn(&mut self, timeout: Option<Duration>) {
        self.peer_events.clear();
        self.poller.wait(&mut self.events, timeout);
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            self.dispatch(cmd);
        }
    }

    fn dispatch(&mut self, cmd: Command) {
        self.pending.push(cmd);
    }
}
