//! The Linux calls the benchmark needs and `std` does not expose:
//! `ppoll`, to wait for a socket with a nanosecond deadline,
//! `prctl(PR_SET_TIMERSLACK)`, so that deadline is not pushed back by
//! the default 50 µs timer slack, and `clock_gettime`, to read this
//! process's CPU time to the nanosecond. All come from the C library
//! `std` already links.

use std::os::fd::RawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const PR_SET_TIMERSLACK: i32 = 29;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds of this process, all threads, to the
/// nanosecond (`/proc/<pid>/stat` counts in 10 ms ticks).
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live `#[repr(C)]` local matching the kernel's
    // `struct timespec` on 64-bit Linux; the call writes only it.
    unsafe {
        clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts);
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Block until `fd` is readable (or writable, with `write`) or
/// `timeout` passes. Errors and signals count as a wake-up: callers
/// retry their nonblocking I/O either way.
pub fn wait_io(fd: RawFd, write: bool, timeout: Duration) {
    let mut pfd = PollFd {
        fd,
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `pfd` and `ts` are live, `#[repr(C)]` locals matching the
    // kernel's `struct pollfd` and `struct timespec` on 64-bit Linux for
    // the whole call; `nfds = 1` covers exactly the one `pollfd`; a null
    // sigmask leaves the signal mask unchanged. The glibc wrapper does
    // not write through `timeout`.
    unsafe {
        ppoll(&mut pfd, 1, &ts, std::ptr::null());
    }
}

/// Set the calling thread's timer slack to 1 ns, so short sleeps and
/// poll deadlines fire on time instead of up to 50 µs late.
pub fn tight_timer_slack() {
    // SAFETY: `PR_SET_TIMERSLACK` reads one `unsigned long` argument,
    // passed here as a `u64`, and changes only a scheduling attribute
    // of the calling thread.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}
