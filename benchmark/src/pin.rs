//! The measurement rig's two scheduling rules.
//!
//! *One CPU.* The whole benchmark runs on one CPU so that the live
//! engine's worker thread and its coordinator always share a core. On a
//! shared 2-vCPU box the same query otherwise has two latency modes,
//! depending on whether the two threads land on one CPU or two.
//!
//! *A CPU that never halts.* Whenever every thread blocks (an fsync, a
//! socket receive) a virtual CPU halts, and how long the hypervisor
//! takes to run it again depends on the host's other tenants, not on
//! the program: the same `durable_grouping` query took 5.6 ms or 8.2 ms
//! with the host quiet or busy, against 5.4 ms or 6.7 ms with the CPU
//! kept awake. [`KeepAwake`] is the `idle=poll` a dedicated rig would
//! boot with.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

/// A CPU affinity mask as `sched_{get,set}affinity` exchange it.
#[derive(Clone, Copy)]
pub struct CpuSet([u64; MASK_WORDS]);

/// Linux's `SCHED_IDLE` policy: runs only when nothing else wants the
/// CPU, and is preempted as soon as anything does.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

impl CpuSet {
    /// The calling thread's allowed set, or `None` if the kernel refuses.
    pub fn current() -> Option<CpuSet> {
        let mut set = CpuSet([0; MASK_WORDS]);
        // SAFETY: `set.0` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread; the call writes at
        // most `cpusetsize` bytes into it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Applies this set to the calling thread; threads it spawns later
    /// inherit it. Returns whether the kernel accepted it.
    pub fn apply(&self) -> bool {
        // SAFETY: `self.0` is a live buffer of exactly the size passed
        // and the call only reads it; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }

    /// Number of CPUs in the set.
    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The highest-numbered CPU in the set.
    pub fn highest(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .rev()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + 63 - w.leading_zeros() as usize)
    }

    /// The set holding only `cpu`.
    pub fn single(cpu: usize) -> CpuSet {
        let mut set = CpuSet([0; MASK_WORDS]);
        set.0[cpu / 64] = 1 << (cpu % 64);
        set
    }
}

/// What pinning did, for the run's header line.
pub struct Pinning {
    /// Whether the process is confined to one CPU.
    pub pinned: bool,
    /// The CPU it is confined to (meaningful when `pinned`).
    pub cpu: usize,
    /// CPUs the process was allowed before pinning.
    pub nproc: usize,
    /// The set to restore for the unpinned comparison run.
    pub original: Option<CpuSet>,
}

/// Pins the calling (main) thread — and so every thread spawned after —
/// to the highest-numbered CPU of its allowed set. The highest CPU is
/// the one least likely to take interrupts and other tenants' default
/// placements.
pub fn pin_to_highest_cpu() -> Pinning {
    let original = CpuSet::current();
    let target = original.and_then(|s| s.highest());
    let pinned = target.is_some_and(|cpu| CpuSet::single(cpu).apply());
    Pinning {
        pinned,
        cpu: target.unwrap_or(0),
        nproc: original.map_or(0, |s| s.count()),
        original,
    }
}

/// A thread of scheduling class `SCHED_IDLE` that spins on the CPU it
/// was spawned on until dropped, so that CPU never halts. It takes no
/// time from the workload: the kernel preempts the idle class the
/// moment any other thread becomes runnable.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
    /// The spinner's `/proc/<pid>/task/<tid>`, if procfs names it.
    task_dir: Option<PathBuf>,
}

impl KeepAwake {
    /// Starts the spinner on the calling thread's CPU set. `None` if the
    /// kernel refuses the idle class: a spinner of normal priority would
    /// take half the CPU from the workload.
    pub fn start() -> Option<KeepAwake> {
        let stop = Arc::new(AtomicBool::new(false));
        let (started_tx, started_rx) = mpsc::channel();
        let spinner = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let priority = 0i32;
                // SAFETY: `sched_param` is one `int` (`sched_priority`),
                // which the idle class requires to be 0; the call only
                // reads it; pid 0 names the calling thread.
                let accepted = unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 };
                let task_dir = std::fs::read_link("/proc/thread-self")
                    .ok()
                    .map(|task| Path::new("/proc").join(task));
                // The receiver outlives this send: `start` blocks on it.
                let _ = started_tx.send((accepted, task_dir));
                // `stop` publishes no other data.
                while accepted && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        };
        let (accepted, task_dir) = started_rx.recv().unwrap_or((false, None));
        let awake = KeepAwake {
            stop,
            spinner: Some(spinner),
            task_dir,
        };
        // Dropping `awake` on refusal joins the already-finished thread.
        accepted.then_some(awake)
    }

    /// CPU time the spinner has burnt so far, ms: what a reading of the
    /// whole process's CPU time must leave out. Zero if procfs does not
    /// say.
    pub fn cpu_ms(&self) -> f64 {
        self.task_dir
            .as_ref()
            .and_then(|dir| std::fs::read_to_string(dir.join("stat")).ok())
            .map_or(0.0, |stat| crate::procfs::cpu_ms_of(&stat))
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_sets_name_their_highest_member() {
        let set = CpuSet::single(70);
        assert_eq!((set.count(), set.highest()), (1, Some(70)));
        assert_eq!(CpuSet([0; MASK_WORDS]).highest(), None);
    }

    #[test]
    fn the_spinner_stops_when_dropped() {
        // Refused or accepted, `start` must not leave a thread behind:
        // dropping joins it, so a spinner that ignored `stop` hangs here.
        drop(KeepAwake::start());
    }
}
