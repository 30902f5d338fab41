//! Fixture: FFI module without a `## Safety audit` table (must trip
//! `unsafe-audit` once). Its undocumented `unsafe` block is
//! `clippy::undocumented_unsafe_blocks`'s to flag.

extern "C" {
    fn eventfd(initval: u32, flags: i32) -> i32;
}

pub fn make_eventfd() -> i32 {
    unsafe { eventfd(0, 0) }
}
