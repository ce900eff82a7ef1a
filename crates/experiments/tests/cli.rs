//! Exit codes of the `iqft-experiments` binary for flags it refuses.

use std::io::Read as _;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Runs the binary with `args` and returns its exit code and stderr.  A run
/// still going after 60 s is killed and fails the test, so a flag that is
/// wrongly accepted by `serve` cannot leave a daemon blocking the suite.
fn run(args: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_iqft-experiments"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on the binary") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{args:?} still running after 60 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .expect("stderr is piped")
        .read_to_string(&mut stderr)
        .expect("stderr is UTF-8");
    (status.code(), stderr)
}

/// The whole-plan flag is retired, `auto` spec included: `serve` and
/// `throughput` refuse it as an unknown flag with exit code 2 before doing
/// any work.
#[test]
fn plan_auto_is_refused_with_exit_code_2() {
    for command in ["serve", "throughput"] {
        let (code, stderr) = run(&[command, "--addr", "127.0.0.1:0", "--plan", "auto"]);
        assert_eq!(code, Some(2), "{command}: {stderr}");
        assert!(
            stderr.starts_with("unknown flag --plan\nusage: "),
            "{command}: {stderr}"
        );
    }
}
