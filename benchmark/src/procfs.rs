//! Process-level counters read from `/proc/self`, sampled before and
//! after a phase. Missing files or fields read as zero: the numbers are
//! per-layer evidence, never gated.

/// One reading of the process's counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of all threads but the keep-awake
    /// spinner, ms (`/proc/self/stat`).
    pub cpu_ms: f64,
    /// Voluntary context switches summed over the threads alive now
    /// (`/proc/self/task/*/status`): the client and the host's
    /// long-lived threads. A thread that has exited — the live engine's
    /// per-query worker — takes its count with it.
    pub vol_ctx_switches: u64,
    /// `read(2)`-family syscalls (`/proc/self/io` `syscr`). Linux does
    /// not count `recv(2)`/`send(2)` there, and std's sockets use those,
    /// so today's blocking socket path reads as zero in all three.
    pub read_syscalls: u64,
    /// `write(2)`-family syscalls (`syscw`): WAL appends, checkpoints.
    pub write_syscalls: u64,
    /// Bytes passed to `write(2)`-family syscalls (`wchar`).
    pub write_bytes: u64,
}

fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// User + system CPU time in the text of a `stat` file (a process's or
/// a task's), ms, at the kernel's fixed 100 ticks per second.
pub fn cpu_ms_of(stat: &str) -> f64 {
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of those.
    let ticks: u64 = stat
        .rsplit_once(')')
        .map(|(_, rest)| {
            rest.split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|t| t.parse::<u64>().ok())
                .sum()
        })
        .unwrap_or(0);
    ticks as f64 * 10.0
}

impl ProcSample {
    /// Reads the counters now. `idle_spinner_ms` is CPU time to leave
    /// out: the keep-awake thread burns whatever the workload leaves.
    pub fn now(idle_spinner_ms: f64) -> ProcSample {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        let vol_ctx_switches = std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
            .map(|task| {
                let status = std::fs::read_to_string(task.path().join("status"));
                field(&status.unwrap_or_default(), "voluntary_ctxt_switches:")
            })
            .sum();
        let io = read("/proc/self/io");
        ProcSample {
            cpu_ms: cpu_ms_of(&read("/proc/self/stat")) - idle_spinner_ms,
            vol_ctx_switches,
            read_syscalls: field(&io, "syscr:"),
            write_syscalls: field(&io, "syscw:"),
            write_bytes: field(&io, "wchar:"),
        }
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            cpu_ms: self.cpu_ms - earlier.cpu_ms,
            vol_ctx_switches: self
                .vol_ctx_switches
                .saturating_sub(earlier.vol_ctx_switches),
            read_syscalls: self.read_syscalls - earlier.read_syscalls,
            write_syscalls: self.write_syscalls - earlier.write_syscalls,
            write_bytes: self.write_bytes - earlier.write_bytes,
        }
    }
}

/// Peak resident set size of the process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    field(&status, "VmHWM:") as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_and_missing_ones_read_zero() {
        let text = "syscr: 12\nsyscw: 7\nVmHWM:\t  2048 kB\n";
        assert_eq!(field(text, "syscr:"), 12);
        assert_eq!(field(text, "VmHWM:"), 2048);
        assert_eq!(field(text, "wchar:"), 0);
    }

    #[test]
    fn cpu_time_is_utime_plus_stime_after_the_command_name() {
        let stat = "7 (a b) c) S 1 7 7 0 -1 4194560 120 0 0 0 31 12 0 0 20 0 3 0";
        assert_eq!(cpu_ms_of(stat), 430.0);
        assert_eq!(cpu_ms_of("garbage"), 0.0);
    }

    #[test]
    fn a_live_sample_moves_forward() {
        let a = ProcSample::now(0.0);
        std::fs::write("/dev/null", b"x").unwrap();
        let d = ProcSample::now(0.0).since(&a);
        assert!(d.write_syscalls >= 1);
        assert!(peak_rss_mib() > 0.0);
    }
}
