//! The acceptor under descriptor exhaustion.
//!
//! When `accept(2)` fails with `EMFILE`, the waiting connection stays in the
//! listen backlog and the listener stays readable.  A reactor that simply
//! retried on its next readiness pass would spin a core for as long as the
//! process is out of descriptors.  This test exhausts the descriptor table,
//! measures the process's CPU time over one idle second, then restores the
//! limit and checks that the waiting client is served.
//!
//! It lives in a file of its own because `RLIMIT_NOFILE` applies to the
//! whole process: a test running beside it would hit the lowered limit too.

#![cfg(target_os = "linux")]

use iqft_serve::{Client, ClientConfig, Server, ServerConfig};
use seg_engine::SegmentPlan;
use std::fs::File;
use std::time::Duration;

/// `EMFILE`: the process's descriptor table is full.
const EMFILE: i32 = 24;

mod sys {
    use std::os::raw::{c_int, c_long};

    #[repr(C)]
    #[derive(Debug, Clone, Copy)]
    pub struct Rlimit {
        pub cur: u64,
        pub max: u64,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct Timeval {
        pub sec: c_long,
        pub usec: c_long,
    }

    /// `struct rusage`: user and system time, then fourteen `long` counters.
    #[repr(C)]
    pub struct Rusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub rest: [c_long; 14],
    }

    pub const RLIMIT_NOFILE: c_int = 7;
    pub const RUSAGE_SELF: c_int = 0;

    extern "C" {
        pub fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> i32;
        pub fn setrlimit(resource: c_int, rlim: *const Rlimit) -> i32;
        pub fn getrusage(who: c_int, usage: *mut Rusage) -> i32;
    }
}

fn nofile_limit() -> sys::Rlimit {
    let mut limit = sys::Rlimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a live, writable `struct rlimit` for the call.
    assert_eq!(unsafe { sys::getrlimit(sys::RLIMIT_NOFILE, &mut limit) }, 0);
    limit
}

fn set_nofile_limit(limit: sys::Rlimit) {
    // SAFETY: `limit` is a live `struct rlimit` the call only reads.
    assert_eq!(unsafe { sys::setrlimit(sys::RLIMIT_NOFILE, &limit) }, 0);
}

/// User plus system CPU time of the whole process, every thread included.
fn process_cpu_time() -> Duration {
    let zero = sys::Timeval { sec: 0, usec: 0 };
    let mut usage = sys::Rusage {
        utime: zero,
        stime: zero,
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` for the call.
    assert_eq!(unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut usage) }, 0);
    let micros = |t: sys::Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(usage.utime) + micros(usage.stime))
}

fn highest_open_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs lists this process's descriptors")
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .expect("some descriptor is open")
}

#[test]
fn exhausted_descriptors_do_not_spin_the_acceptor() {
    let server =
        Server::bind("127.0.0.1:0", ServerConfig::new(SegmentPlan::default())).expect("bind");
    let addr = server.local_addr().to_string();
    let mut control = Client::open(&ClientConfig::new(addr.clone())).expect("control connect");
    control.ping().expect("ping");

    // Lower the soft limit to a little above the highest descriptor in use,
    // then fill every free slot below it.
    let original = nofile_limit();
    set_nofile_limit(sys::Rlimit {
        cur: highest_open_fd() + 16,
        max: original.max,
    });
    let mut filler = Vec::new();
    loop {
        match File::open("/dev/null") {
            Ok(file) => filler.push(file),
            Err(e) => {
                assert_eq!(e.raw_os_error(), Some(EMFILE), "{e}");
                break;
            }
        }
    }
    // Free exactly one slot and dial into it.  The connection completes in
    // the kernel's backlog, but the server's accept(2) then fails with
    // EMFILE, and so does the next dial.
    filler.pop();
    let waiting_config =
        ClientConfig::new(addr.clone()).with_reply_deadline(Duration::from_secs(10));
    let mut waiting = Client::open(&waiting_config).expect("dial the last free descriptor");
    let err = Client::open(&ClientConfig::new(addr)).expect_err("the table is full");
    assert_eq!(err.raw_os_error(), Some(EMFILE), "{err}");

    let before = process_cpu_time();
    std::thread::sleep(Duration::from_secs(1));
    let burned = process_cpu_time() - before;

    // Give the descriptors back before asserting, so a failure cannot leave
    // the rest of the test starved.
    set_nofile_limit(original);
    drop(filler);
    assert!(
        burned < Duration::from_millis(250),
        "the acceptor burned {burned:?} of CPU over one idle second"
    );
    waiting
        .ping()
        .expect("the waiting client is served once descriptors are free");
    let stats = control.stats().expect("stats");
    assert_eq!(stats.connections_total, 2, "{stats:?}");
    control.shutdown().expect("shutdown");
    server.join();
}
