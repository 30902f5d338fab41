//! Fixture: out-of-scope helper that panics; reached from
//! `crates/protocols/src/cross_panic.rs` (part of the cross-file
//! `no-panic` fixture). This file is outside the scope that
//! `crates/protocols/src/lib.rs` denies, so only the reachability pass
//! can see it.

pub fn decode_update_header(bytes: &[u8]) -> Update {
    let tag = bytes.first().unwrap();
    Update::from_tag(*tag)
}
