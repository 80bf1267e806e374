//! A fiber's stack ends in a guard page: a logical thread that recurses
//! without bound faults there (SIGSEGV) instead of running on into
//! whatever lies below its stack. The overflow kills the process, so the
//! test re-runs its own binary as a child to overflow in, and judges how
//! the child died.

#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use std::hint::black_box;
use std::os::unix::process::ExitStatusExt;
use std::process::Command;

use tm_sim::{MachineConfig, Sim};

/// Set in the child's environment: overflow instead of spawning.
const CHILD: &str = "TM_SIM_FIBER_GUARD_CHILD";

const SIGSEGV: i32 = 11;

/// A kilobyte of stack a frame, without end.
fn recurse(depth: u64) -> u64 {
    let frame = black_box([depth as u8; 1024]);
    if black_box(true) {
        recurse(depth + 1) + u64::from(frame[depth as usize % 1024])
    } else {
        0
    }
}

#[test]
fn a_fiber_that_overflows_its_stack_faults_on_the_guard_page() {
    if std::env::var_os(CHILD).is_some() {
        let sim = Sim::new(MachineConfig::tiny_test());
        sim.run(2, |ctx| {
            if ctx.tid() == 1 {
                black_box(recurse(0));
            }
        });
        return; // Not reached: the parent fails a child that exits 0.
    }
    let exe = std::env::current_exe().expect("the test binary's path");
    // `ulimit -c 0`: the expected fault leaves no core file behind.
    let child = Command::new("sh")
        .args(["-c", "ulimit -c 0 && exec \"$@\"", "sh"])
        .arg(exe)
        .args([
            "a_fiber_that_overflows_its_stack_faults_on_the_guard_page",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env(CHILD, "1")
        .env("TM_SIM_EXEC", "fibers")
        .output()
        .expect("run the child");
    let stderr = String::from_utf8_lossy(&child.stderr);
    assert_eq!(
        child.status.signal(),
        Some(SIGSEGV),
        "the child ended with {}, not a fault on the guard page: {stderr}",
        child.status
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}
