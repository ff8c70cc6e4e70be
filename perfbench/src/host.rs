//! Host probes read from `/proc`, and the CPU-affinity and socket knobs
//! the benchmark needs that `std` does not expose.

use std::time::{Duration, Instant};

/// Peak resident set (`VmHWM`) of process `pid` (`"self"` for this one),
/// in MB; 0 when unreadable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's `VmHWM` to its current resident set, so memory
/// used to generate inputs does not count as the system's peak.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Aggregate CPU tick counters from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    steal: u64,
}

impl CpuTicks {
    /// Reads the `cpu` line.
    pub fn now() -> CpuTicks {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already counted in user.
        let total = fields.iter().take(8).sum();
        CpuTicks { total, steal: fields.get(7).copied().unwrap_or(0) }
    }

    /// Share of CPU time stolen by the hypervisor since `earlier`, in %.
    pub fn steal_pct_since(&self, earlier: &CpuTicks) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}

/// TCP sockets in TIME_WAIT in this network namespace.
pub fn timewait_sockets() -> u64 {
    let sockstat = std::fs::read_to_string("/proc/net/sockstat").unwrap_or_default();
    sockstat
        .lines()
        .find(|l| l.starts_with("TCP:"))
        .and_then(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            f.iter().position(|&x| x == "tw").and_then(|i| f.get(i + 1)?.parse().ok())
        })
        .unwrap_or(0)
}

/// Waits until no TIME_WAIT socket is left (they expire after 60 s on
/// Linux), at most `limit`. Returns the count seen first.
pub fn wait_for_timewait_clear(limit: Duration) -> u64 {
    let first = timewait_sockets();
    let deadline = Instant::now() + limit;
    while timewait_sockets() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(250));
    }
    first
}

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_ulong, c_void};

    pub const SOL_SOCKET: c_int = 1;
    pub const SO_LINGER: c_int = 13;
    /// `cpu_set_t` is 1024 bits.
    pub const CPU_SET_WORDS: usize = 16;

    #[repr(C)]
    pub struct Linger {
        pub l_onoff: c_int,
        pub l_linger: c_int,
    }

    extern "C" {
        pub fn setsockopt(
            fd: c_int,
            level: c_int,
            name: c_int,
            value: *const c_void,
            len: u32,
        ) -> c_int;
        pub fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
        pub fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
    }
}

/// The CPUs this process may run on, ascending.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0 as std::os::raw::c_ulong; sys::CPU_SET_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes.
    if unsafe { sys::sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    let bits = std::os::raw::c_ulong::BITS as usize;
    (0..sys::CPU_SET_WORDS * bits).filter(|&c| mask[c / bits] >> (c % bits) & 1 == 1).collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pins the calling thread to `cpu`. Threads and processes it starts
/// afterwards inherit the pin.
///
/// The benchmark runs on one CPU with the server it starts: a request then
/// never waits for a cross-CPU wake-up of a halted virtual CPU, which on a
/// shared host was the largest source of run-to-run variance (with the
/// generator and the server on separate CPUs, p50 and `max_rps` spread
/// several times as much).
#[cfg(target_os = "linux")]
pub fn pin(cpu: usize) -> bool {
    let bits = std::os::raw::c_ulong::BITS as usize;
    if cpu >= sys::CPU_SET_WORDS * bits {
        return false;
    }
    let mut one = [0 as std::os::raw::c_ulong; sys::CPU_SET_WORDS];
    one[cpu / bits] = 1 << (cpu % bits);
    // SAFETY: `one` is a readable buffer of exactly the size passed.
    unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin(_cpu: usize) -> bool {
    false
}

/// Makes closing `stream` send RST instead of FIN, so the connection
/// leaves no TIME_WAIT socket on either side: one request per connection
/// would otherwise leave thousands that slow the next run.
#[cfg(target_os = "linux")]
pub fn close_with_reset(stream: &std::net::TcpStream) {
    use std::os::fd::AsRawFd;
    let linger = sys::Linger { l_onoff: 1, l_linger: 0 };
    // SAFETY: the fd is open for the borrow of `stream`, and the option
    // value points at a live `struct linger` whose exact size is passed.
    unsafe {
        sys::setsockopt(
            stream.as_raw_fd(),
            sys::SOL_SOCKET,
            sys::SO_LINGER,
            (&linger as *const sys::Linger).cast(),
            std::mem::size_of::<sys::Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
pub fn close_with_reset(_stream: &std::net::TcpStream) {}
