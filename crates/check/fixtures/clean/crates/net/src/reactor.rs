//! Fixture: the bug-removed twin of the violations reactor.rs — the lock
//! guard drops before `epoll_wait`, the channel is drained nonblockingly,
//! and nothing sleeps (must lint clean).

impl Reactor {
    fn turn(&mut self, timeout: Option<Duration>) {
        {
            let mut guard = self.shared.peer_events.lock();
            guard.clear();
        }
        self.poller.wait(&mut self.events, timeout);
        while let Ok(cmd) = self.cmd_rx.try_recv() {
            self.dispatch(cmd);
        }
    }

    fn dispatch(&mut self, cmd: Command) {
        self.pending.push(cmd);
    }
}
