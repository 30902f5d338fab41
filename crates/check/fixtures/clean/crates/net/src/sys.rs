//! Fixture: the bug-removed twin of the violations sys.rs — FFI with its
//! audit table (must lint clean), and a `// SAFETY:` comment on its
//! `unsafe` block, as `clippy::undocumented_unsafe_blocks` asks.
//!
//! ## Safety audit
//!
//! | entry point | contract |
//! | `eventfd` | flags are valid `EFD_*` bits; returns -1 or an owned fd |

extern "C" {
    fn eventfd(initval: u32, flags: i32) -> i32;
}

pub fn make_eventfd() -> i32 {
    // SAFETY: eventfd has no pointer arguments; any initval/flags values
    // are accepted or rejected by the kernel via -1/errno.
    unsafe { eventfd(0, 0) }
}
