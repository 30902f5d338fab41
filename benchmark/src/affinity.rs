//! CPU placement of a cell's threads.

/// Where a cell's threads may run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    /// The whole process on the first CPU it is allowed on.
    One,
    /// Node *i*'s application thread on the *i*-th allowed CPU (modulo
    /// their number); transport threads stay wherever the scheduler puts
    /// them.
    PerNode,
    /// No placement at all.
    Free,
}

impl Pin {
    pub fn name(self) -> &'static str {
        match self {
            Pin::One => "one",
            Pin::PerNode => "per-node",
            Pin::Free => "free",
        }
    }
}

impl std::str::FromStr for Pin {
    type Err = ();
    fn from_str(s: &str) -> Result<Pin, ()> {
        [Pin::One, Pin::PerNode, Pin::Free].into_iter().find(|p| p.name() == s).ok_or(())
    }
}

/// Pins the calling thread — and every thread it starts later — to the
/// `nth` CPU (modulo their number) it is allowed on. Returns whether that
/// worked.
#[cfg(target_os = "linux")]
pub fn pin_this_thread(nth: usize) -> bool {
    // sdso-ffi: glibc's CPU-affinity calls, with the mask as 64-bit words.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `size` bytes,
    // and pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let allowed: Vec<usize> =
        (0..64 * mask.len()).filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1).collect();
    if allowed.is_empty() {
        return false;
    }
    let cpu = allowed[nth % allowed.len()];
    mask = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly `size` bytes that the
    // call only reads.
    unsafe { sched_setaffinity(0, size, mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_this_thread(_nth: usize) -> bool {
    false
}
