//! What the benchmark reads from the host: `/proc` counters, the machine
//! description recorded beside every result, and the environment check.

use tm_obs::json::Json;

/// Environment variables that change what the stack under test executes
/// (executor backend, workload scale, tracing, injected sweep faults). A
/// number measured with one of them set is not comparable with any other,
/// so the benchmark refuses to run.
pub const FORBIDDEN_ENV: [&str; 4] = ["TM_SIM_EXEC", "TM_SCALE", "TM_TRACE", "TM_SWEEP_FAULT"];

/// The first forbidden variable that is set, if any.
pub fn forbidden_env_set() -> Option<&'static str> {
    FORBIDDEN_ENV
        .into_iter()
        .find(|k| std::env::var_os(k).is_some())
}

extern "C" {
    /// glibc's `mallopt(3)`.
    fn mallopt(param: i32, value: i32) -> i32;
    /// `personality(2)`.
    fn personality(persona: std::ffi::c_ulong) -> i32;
}
/// `personality(2)`: ask without changing; do not randomise addresses.
const PERSONALITY_QUERY: std::ffi::c_ulong = 0xffff_ffff;
const ADDR_NO_RANDOMIZE: i32 = 0x004_0000;

/// Start this program again with address-space randomisation off, unless
/// it already is (as in every child of a process that did this).
///
/// Where the kernel puts the stack, the heap and the binary decides which
/// of the simulator's arrays collide in the host's caches, for the whole
/// life of the process: ten runs of `backend-mix` at one seed read 0.748 or
/// 0.778 s and 10.27 to 10.45 MB with randomisation on, 0.742 to 0.755 s
/// and 10.449 MB every time with it off. A sandbox that refuses the call
/// leaves the run as it is, only noisier.
pub fn fix_address_space() {
    use std::os::unix::process::CommandExt;
    // SAFETY: `personality` reads or sets one word of this process's kernel
    // state and touches no memory.
    let now = unsafe { personality(PERSONALITY_QUERY) };
    if now < 0 || now & ADDR_NO_RANDOMIZE != 0 {
        return;
    }
    // SAFETY: as above.
    if unsafe { personality((now | ADDR_NO_RANDOMIZE) as std::ffi::c_ulong) } < 0 {
        return;
    }
    if let Ok(exe) = std::env::current_exe() {
        // The flag survives `exec`, so the new image takes the early return.
        // `exec` only comes back on failure; the run then goes on here.
        let _ = std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .exec();
    }
}
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;

/// Make glibc's malloc serve every block from the heap and never hand the
/// heap's top back to the kernel.
///
/// Left alone it decides by the size of the last big block freed whether
/// to map big blocks afresh, and by what happens to sit at the top of the
/// heap whether to trim it; with the simulator's multi-megabyte cache
/// arrays allocated per cell, that made the same `mc-explore` pass take
/// 0.44 s or 1.19 s (half of it in the kernel) from one run to the next.
/// Pinned, no cell waits for the kernel once the heap has grown. What a
/// fresh, unpinned process pays is measured apart (`host.sys_share`).
pub fn pin_heap() {
    // SAFETY: `mallopt` only stores two integers in glibc's allocator
    // state, under its own lock; both parameters are documented ones and
    // 32 MiB is the largest mmap threshold glibc accepts.
    let ok = unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1
    };
    assert!(ok, "glibc refused the heap settings");
}

/// `VmHWM` (peak resident set, KiB) out of `/proc/<pid>/status` text.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// `(utime, stime)` in clock ticks out of `/proc/<pid>/stat` text. The
/// command name (field 2) may itself contain spaces and parentheses, so
/// fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = stat.get(stat.rfind(')')? + 1..)?;
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Peak resident set of this process in MiB (`VmHWM` counts KiB).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_kb(&status).expect("VmHWM line in /proc/self/status") as f64 / 1024.0
}

/// `(utime, stime)` ticks consumed by this process so far.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("utime/stime in /proc/self/stat")
}

/// Kernel share of the CPU time spent between two [`cpu_ticks`] readings
/// (0 when the interval is shorter than one tick).
pub fn sys_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let user = after.0.saturating_sub(before.0);
    let sys = after.1.saturating_sub(before.1);
    if user + sys == 0 {
        0.0
    } else {
        sys as f64 / (user + sys) as f64
    }
}

/// The machine a result was measured on, recorded in every document.
pub fn describe() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim)
        .to_string();
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        ("nproc".into(), Json::u64(nproc as u64)),
        ("cpu_model".into(), Json::str(model)),
        (
            "loadavg_at_start".into(),
            Json::str(load.split(' ').take(3).collect::<Vec<_>>().join(" ")),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_parses_from_status_text() {
        let status =
            "Name:\ttm-benchmark\nVmPeak:\t  204800 kB\nVmHWM:\t  137216 kB\nVmRSS:\t   9000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(137_216));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn stat_ticks_survive_hostile_command_names() {
        // Field 2 is "(a) b)" — spaces and parentheses inside the name.
        let stat = "4242 (a) b)) S 1 4242 4242 0 -1 4194304 977 0 0 0 251 47 0 0 20 0 1 0 \
                    123456 1000000 200 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 0 0 0";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((251, 47)));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parenthesis at all"), None);
    }

    #[test]
    fn sys_share_of_an_interval() {
        assert_eq!(sys_share((100, 10), (130, 20)), 0.25);
        assert_eq!(sys_share((5, 5), (5, 5)), 0.0);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_mb() > 0.0);
        let (u, s) = cpu_ticks();
        assert!(u + s < u64::MAX);
    }
}
