//! The one unsafe module in the workspace: hand-declared glibc bindings
//! for the reactor (`epoll`, `eventfd`) and process-CPU accounting.
//!
//! The build is hermetic — no crates.io, so no `libc`/`mio` — which
//! means the handful of syscall wrappers the readiness loop needs are
//! declared here directly against the C ABI. The policy (DESIGN.md §11)
//! is that **all** `unsafe` lives behind this module's safe wrappers:
//! every other crate keeps `#![forbid(unsafe_code)]`, and `beware-runtime`
//! itself is `#![deny(unsafe_code)]` with an allowance for this module
//! only. Every unsafe block carries a `// SAFETY:` argument.
//!
//! Constants are taken from the Linux UAPI headers
//! (`<sys/epoll.h>`, `<sys/eventfd.h>`, `<bits/time.h>`); they are ABI,
//! not configuration, and have been stable since the syscalls were
//! introduced.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_uint, c_void};

// epoll_ctl ops.
pub const EPOLL_CTL_ADD: c_int = 1;
pub const EPOLL_CTL_DEL: c_int = 2;
pub const EPOLL_CTL_MOD: c_int = 3;

// epoll event mask bits.
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

/// `EPOLL_CLOEXEC` / `EFD_CLOEXEC` are both `O_CLOEXEC`.
const CLOEXEC: c_int = 0o2000000;
/// `EFD_NONBLOCK` is `O_NONBLOCK`.
const EFD_NONBLOCK: c_int = 0o4000;

/// `CLOCK_PROCESS_CPUTIME_ID` from `<bits/time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `struct epoll_event`. The kernel packs it on x86-64 (the 32-bit
/// layout, kept for binary compatibility); other architectures use
/// natural alignment.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Debug)]
pub struct EpollEvent {
    /// Readiness mask (`EPOLLIN | …`).
    pub events: u32,
    /// Caller-owned cookie; we store the registration token.
    pub data: u64,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
    fn clock_gettime(clockid: c_int, tp: *mut Timespec) -> c_int;
}

/// Create an epoll instance (close-on-exec). Returns the owning fd.
pub fn sys_epoll_create() -> io::Result<RawFd> {
    // SAFETY: epoll_create1 takes a flags integer and returns a new fd
    // or -1; no pointers are passed.
    let fd = unsafe { epoll_create1(CLOEXEC) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

/// Add / modify / delete `fd` in epoll instance `epfd` with the given
/// event mask and token cookie.
pub fn sys_epoll_ctl(epfd: RawFd, op: c_int, fd: RawFd, mask: u32, token: u64) -> io::Result<()> {
    let mut ev = EpollEvent { events: mask, data: token };
    // SAFETY: `ev` is a live, properly laid out epoll_event for the
    // duration of the call; the kernel copies it (or, for DEL, ignores
    // it) and does not retain the pointer.
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// Wait for readiness on `epfd` into `events`, with `timeout_ms` (-1 to
/// block). Returns the number of events filled in. `EINTR` surfaces as
/// zero events — the caller's loop re-derives its deadline anyway.
pub fn sys_epoll_wait(
    epfd: RawFd,
    events: &mut [EpollEvent],
    timeout_ms: c_int,
) -> io::Result<usize> {
    let cap = c_int::try_from(events.len()).unwrap_or(c_int::MAX);
    // SAFETY: the events pointer is valid for `cap` elements, which is
    // exactly what the kernel is told it may fill.
    let n = unsafe { epoll_wait(epfd, events.as_mut_ptr(), cap, timeout_ms) };
    if n < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(n as usize)
}

/// Create a nonblocking eventfd (the wakeup doorbell).
pub fn sys_eventfd() -> io::Result<RawFd> {
    // SAFETY: eventfd takes two integers and returns a new fd or -1.
    let fd = unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(fd)
}

/// Bump an eventfd counter by 1. A full counter (`EAGAIN`) means the
/// doorbell is already ringing, which is success for a waker.
pub fn sys_eventfd_signal(fd: RawFd) {
    let one: u64 = 1;
    // SAFETY: writes exactly 8 bytes from a live u64; eventfd requires
    // an 8-byte write.
    let rc = unsafe { write(fd, (&one as *const u64).cast(), 8) };
    debug_assert!(
        rc == 8 || io::Error::last_os_error().kind() == io::ErrorKind::WouldBlock,
        "eventfd write failed: {:?}",
        io::Error::last_os_error()
    );
}

/// Drain an eventfd counter (reset the doorbell). `EAGAIN` (nothing
/// pending) is fine.
pub fn sys_eventfd_drain(fd: RawFd) {
    let mut count: u64 = 0;
    // SAFETY: reads exactly 8 bytes into a live u64; eventfd requires
    // an 8-byte read.
    let _ = unsafe { read(fd, (&mut count as *mut u64).cast(), 8) };
}

/// Close an fd owned by the reactor (epoll instance or eventfd — never
/// a socket; sockets stay owned by their `TcpStream`s).
pub fn sys_close(fd: RawFd) {
    // SAFETY: the caller owns `fd` and never uses it again (both call
    // sites are Drop impls).
    let _ = unsafe { close(fd) };
}

/// CPU time this process has consumed (user + system), from
/// `CLOCK_PROCESS_CPUTIME_ID`.
pub fn sys_process_cpu_time() -> Option<std::time::Duration> {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a live, properly laid out timespec the kernel
    // fills in.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 || ts.tv_sec < 0 {
        return None;
    }
    Some(std::time::Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32))
}
