//! Fixture: helper with a blocking channel receive, reachable from the
//! reactor's `turn` across files (part of the `no-blocking-in-reactor`
//! fixture).

pub fn drain_commands_slowly(rx: &Receiver<Command>) {
    while let Ok(cmd) = rx.recv() {
        dispatch(cmd);
    }
}
