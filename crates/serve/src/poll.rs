//! A minimal `poll(2)` shim over raw libc, in the same spirit as the
//! workspace's other dependency shims: the workspace is offline, so there is
//! no `mio`/`tokio`/`libc` crate to lean on — but `std` already links the
//! platform C library, so declaring the one symbol we need is enough.
//!
//! Only what the evented server uses is wrapped: readable/writable/error
//! readiness on a set of file descriptors with a millisecond timeout, plus a
//! best-effort `RLIMIT_NOFILE` raise so thousand-connection sweeps do not
//! trip the default soft descriptor limit.  Everything is `cfg(unix)`; on
//! other platforms there is no serving core, and `Server::bind` fails with
//! `io::ErrorKind::Unsupported`.

#![cfg(unix)]

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// Readable readiness (`POLLIN`).
pub(crate) const POLLIN: i16 = 0x001;
/// Writable readiness (`POLLOUT`).
pub(crate) const POLLOUT: i16 = 0x004;
/// Error condition (`POLLERR`; only ever returned in `revents`).
pub(crate) const POLLERR: i16 = 0x008;
/// Peer hung up (`POLLHUP`; only ever returned in `revents`).
pub(crate) const POLLHUP: i16 = 0x010;
/// Invalid descriptor (`POLLNVAL`; only ever returned in `revents`).
pub(crate) const POLLNVAL: i16 = 0x020;

/// One entry in a poll set: a file descriptor, the events of interest, and
/// (after [`poll`]) the events that fired.  Layout-compatible with the C
/// `struct pollfd` on every unix libc, which is what makes the direct FFI
/// call sound.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Interest in `events` (a mask of [`POLLIN`] / [`POLLOUT`]; error and
    /// hang-up conditions are always reported) on `fd`.
    pub(crate) fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the descriptor has readable data (or a pending hang-up /
    /// error, which a read will surface as EOF or an error — exactly what
    /// the caller's read path wants to observe).
    pub(crate) fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) != 0
    }

    /// Whether any registered or error condition fired.
    pub(crate) fn ready(&self) -> bool {
        self.revents != 0
    }
}

mod sys {
    #[allow(non_camel_case_types)]
    pub(crate) type nfds_t = std::os::raw::c_ulong;

    extern "C" {
        pub(crate) fn poll(
            fds: *mut super::PollFd,
            nfds: nfds_t,
            timeout: std::os::raw::c_int,
        ) -> i32;
    }
}

/// Waits until at least one descriptor in `fds` is ready or `timeout`
/// elapses (`None` = wait forever).  Returns the number of ready entries;
/// `0` means the timeout fired.  `EINTR` is retried internally.
pub(crate) fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: std::os::raw::c_int = match timeout {
        // Round up so a 100µs deadline does not busy-spin as timeout 0.
        Some(t) => t
            .as_millis()
            .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
            .min(i32::MAX as u128) as std::os::raw::c_int,
        None => -1,
    };
    loop {
        for fd in fds.iter_mut() {
            fd.revents = 0;
        }
        let rc = unsafe { sys::poll(fds.as_mut_ptr(), fds.len() as sys::nfds_t, timeout_ms) };
        if rc >= 0 {
            return Ok(rc as usize);
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

#[cfg(target_os = "linux")]
mod rlimit {
    #[repr(C)]
    pub(crate) struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    pub(crate) const RLIMIT_NOFILE: std::os::raw::c_int = 7;

    extern "C" {
        pub(crate) fn getrlimit(resource: std::os::raw::c_int, rlim: *mut Rlimit) -> i32;
        pub(crate) fn setrlimit(resource: std::os::raw::c_int, rlim: *const Rlimit) -> i32;
    }
}

/// Best-effort raise of the soft open-file limit to at least `want`
/// descriptors (clamped to the hard limit).  Returns the resulting soft
/// limit, or `None` when it cannot be determined.  A thousand pipelined
/// connections needs ~2× that many descriptors in one process (client and
/// server ends both count when loadgen drives a local daemon), which
/// overruns the common 1024-descriptor default soft limit.
pub fn raise_nofile_limit(want: u64) -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let mut limit = rlimit::Rlimit { cur: 0, max: 0 };
        if unsafe { rlimit::getrlimit(rlimit::RLIMIT_NOFILE, &mut limit) } != 0 {
            return None;
        }
        if limit.cur < want && limit.cur < limit.max {
            let raised = rlimit::Rlimit {
                cur: want.min(limit.max),
                max: limit.max,
            };
            if unsafe { rlimit::setrlimit(rlimit::RLIMIT_NOFILE, &raised) } == 0 {
                limit.cur = raised.cur;
            }
        }
        Some(limit.cur)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = want;
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn poll_reports_readable_after_a_write_and_times_out_when_idle() {
        let (mut a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        // Idle: a short timeout elapses with nothing ready.
        let n = poll(&mut fds, Some(Duration::from_millis(10))).unwrap();
        assert_eq!(n, 0);
        assert!(!fds[0].ready());
        // One byte in flight: readable fires well before the timeout.
        a.write_all(&[42]).unwrap();
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].readable());
        assert_eq!(fds[0].revents & POLLOUT, 0);
    }

    #[test]
    fn poll_reports_writable_on_a_fresh_socket_and_hangup_after_peer_drop() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLOUT)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_ne!(fds[0].revents & POLLOUT, 0);
        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        // Peer gone surfaces as readable (a read will observe EOF).
        assert!(fds[0].readable());
    }

    #[test]
    fn raise_nofile_limit_reports_a_usable_limit_on_linux() {
        if cfg!(target_os = "linux") {
            let limit = raise_nofile_limit(256).expect("linux exposes RLIMIT_NOFILE");
            assert!(limit >= 256 || limit > 0);
        }
    }
}
