//! Fixture: the deny that puts this crate in the `no-panic` scope; the
//! cross-file pass reads it as the scope's boundary.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod cross_panic;
