//! The soaks' one trace hook (`soak.rs`, `integration_reactor_soak.rs`).
//! When `SDSO_TRACE_DIR` names a directory, a soak writes its merged
//! flight-recorder trace (Chrome/Perfetto JSON) there as `<soak>.json`,
//! win or lose, and, when it recorded every event, its raw per-node event
//! log — the `sdso-check race` input — as `<soak>.events.json`. CI uploads
//! the directory when a soak fails. A file includes it with
//! `#[path = "common/trace.rs"] mod trace;`.

use std::path::PathBuf;

use sdso_obs::ObsSet;

/// The directory `SDSO_TRACE_DIR` names, if it names one.
pub fn trace_dir() -> Option<PathBuf> {
    std::env::var_os("SDSO_TRACE_DIR").filter(|dir| !dir.is_empty()).map(PathBuf::from)
}

/// Writes `obs`'s trace, and its event log when `events`, into the trace
/// directory under the soak's name. Best-effort: a failed write must not
/// mask the soak's verdict.
pub fn write_trace(soak: &str, obs: &ObsSet, events: bool) {
    let Some(dir) = trace_dir() else { return };
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join(format!("{soak}.json")), obs.chrome_trace());
    if events {
        let _ = std::fs::write(dir.join(format!("{soak}.events.json")), obs.event_log());
    }
}
