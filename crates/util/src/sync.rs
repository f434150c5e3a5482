//! Low-level synchronisation primitives shared by the parallel
//! executors (`edgelet-sim` windows, `edgelet-live` rounds).
//!
//! The window protocols are generation-counted barriers: a coordinator
//! bumps a counter to open work, workers bump another to report
//! completion. Busy-spinning on those counters burns a full core per
//! waiter — catastrophic when the host has fewer cores than threads
//! (an oversubscribed CI box turns every barrier into a scheduler
//! fight). [`EpochGate`] keeps the lock-free fast path for the moment
//! the counter is already past the target, spins briefly for the
//! near-miss case, and then parks on a condvar so waiting threads cost
//! nothing until the counter actually moves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// How long a waiter spins before parking. Long enough to cover the
/// common "the other side is a few instructions away" window, short
/// enough that an oversubscribed host degrades to plain blocking.
const SPINS_BEFORE_PARK: u32 = 64;

/// A monotone `u64` counter threads can advance and park on.
///
/// `wait_min(target)` returns as soon as the counter is `>= target`;
/// `add(n)` advances it and wakes every parked waiter. Advancing takes
/// the internal mutex, so a waiter that observed a stale value and went
/// to park cannot miss the wakeup (the store and the notify happen
/// under the same lock the waiter re-checks under).
#[derive(Debug, Default)]
pub struct EpochGate {
    value: AtomicU64,
    gate: Mutex<()>,
    cv: Condvar,
}

impl EpochGate {
    /// Current counter value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    /// Advances the counter by `n` and wakes all waiters. Returns the
    /// new value.
    pub fn add(&self, n: u64) -> u64 {
        let _g = lock(&self.gate);
        let v = self.value.fetch_add(n, Ordering::AcqRel) + n;
        self.cv.notify_all();
        v
    }

    /// Waits until the counter reaches `min`: lock-free check, a short
    /// spin, then a condvar park. Returns the observed value.
    pub fn wait_min(&self, min: u64) -> u64 {
        let mut spins = 0u32;
        loop {
            let v = self.value.load(Ordering::Acquire);
            if v >= min {
                return v;
            }
            if spins >= SPINS_BEFORE_PARK {
                break;
            }
            spins += 1;
            std::hint::spin_loop();
        }
        let mut g = lock(&self.gate);
        loop {
            let v = self.value.load(Ordering::Acquire);
            if v >= min {
                return v;
            }
            g = self.cv.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_returns_immediately_when_already_past() {
        let g = EpochGate::default();
        assert_eq!(g.add(3), 3);
        assert_eq!(g.wait_min(2), 3);
        assert_eq!(g.wait_min(3), 3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn parked_waiter_wakes_on_add() {
        let g = Arc::new(EpochGate::default());
        let waiter = {
            let g = g.clone();
            std::thread::spawn(move || g.wait_min(1))
        };
        // The waiter may or may not have parked yet; add() must wake it
        // either way.
        std::thread::yield_now();
        g.add(1);
        assert_eq!(waiter.join().unwrap(), 1);
    }

    #[test]
    fn many_waiters_one_release() {
        let g = Arc::new(EpochGate::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let g = g.clone();
                std::thread::spawn(move || g.wait_min(5))
            })
            .collect();
        for _ in 0..5 {
            g.add(1);
        }
        for h in handles {
            assert!(h.join().unwrap() >= 5);
        }
    }

    #[test]
    fn generation_protocol_round_trips() {
        // Coordinator/worker handshake: open generations one at a time,
        // worker acknowledges through a second gate.
        let open = Arc::new(EpochGate::default());
        let done = Arc::new(EpochGate::default());
        let worker = {
            let (open, done) = (open.clone(), done.clone());
            std::thread::spawn(move || {
                for seen in 0..100u64 {
                    open.wait_min(seen + 1);
                    done.add(1);
                }
            })
        };
        for gen in 0..100u64 {
            open.add(1);
            done.wait_min(gen + 1);
        }
        worker.join().unwrap();
        assert_eq!(done.get(), 100);
    }
}
