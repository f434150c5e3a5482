//! The reproduction's two measuring instruments, each with one entry
//! point:
//!
//! * [`experiments`] — the paper's figures and §3.3 claims as the E1–E14
//!   registry behind the `experiments` binary. EXPERIMENTS.md is its
//!   committed record: it holds each table, and `tests/experiments.rs`
//!   fails when one moves.
//! * [`report`] — the wall-clock micro-suites behind `bench_report`.
//!   They explain a move of `benchmark/`'s numbers; they carry no claim,
//!   so no record of them is committed.
//!
//! This file holds what both share: the standard queries and the
//! seed-parallel [`sweep`].

pub mod experiments;
pub mod report;

use edgelet_core::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Standard survey query used across experiments: count + mean BMI by sex
/// and overall, over the 65+ population.
pub fn survey_spec(platform: &mut Platform, c: usize) -> QuerySpec {
    census_like(
        platform,
        Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
        c,
    )
}

/// Standard unfiltered variant (every contributor eligible) for sweeps
/// where bucket starvation must not confound the measurement.
pub fn census_spec(platform: &mut Platform, c: usize) -> QuerySpec {
    census_like(platform, Predicate::True, c)
}

fn census_like(platform: &mut Platform, filter: Predicate, c: usize) -> QuerySpec {
    platform.grouping_query(
        filter,
        c,
        &[&["sex"], &[]],
        vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
    )
}

/// Outcome counters for repeated runs of one configuration.
#[derive(Debug, Clone, Default)]
pub struct SweepPoint {
    /// Trials run.
    pub trials: usize,
    /// Runs where the querier got a result before the deadline.
    pub completed: usize,
    /// Runs meeting the structural validity criterion.
    pub valid: usize,
    /// Mean messages per run.
    pub mean_messages: f64,
    /// Mean bytes per run.
    pub mean_bytes: f64,
    /// Mean virtual completion seconds (completed runs only).
    pub mean_completion_secs: f64,
    /// Mean overcollection degree planned.
    pub mean_m: f64,
}

/// Runs seeds `0..trials` of one configuration in parallel and
/// aggregates. `make_run` builds a platform and executes one query.
///
/// Each run lands in its seed's slot and the slots are folded in seed
/// order once every thread has joined, so the result is a function of
/// the seeds alone — not of the core count or of which thread finished
/// first (float addition does not commute bit for bit).
pub fn sweep<F>(trials: usize, make_run: F) -> SweepPoint
where
    F: Fn(u64) -> RunResult + Sync,
{
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(trials.max(1));
    let mut runs: Vec<Option<RunResult>> = vec![None; trials];
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let seed = next.fetch_add(1, Ordering::Relaxed);
                        if seed >= trials {
                            break mine;
                        }
                        mine.push((seed, make_run(seed as u64)));
                    }
                })
            })
            .collect();
        for worker in workers {
            for (seed, run) in worker.join().expect("a sweep trial panicked") {
                runs[seed] = Some(run);
            }
        }
    });

    let mut point = SweepPoint {
        trials,
        ..SweepPoint::default()
    };
    let mut completion_sum = 0.0f64;
    for run in runs.iter().flatten() {
        if run.report.completed {
            point.completed += 1;
            completion_sum += run.report.completion_secs.unwrap_or(0.0);
        }
        if run.report.valid {
            point.valid += 1;
        }
        point.mean_messages += run.report.messages_sent as f64;
        point.mean_bytes += run.report.bytes_sent as f64;
        point.mean_m += run.plan.m as f64;
    }
    if trials > 0 {
        point.mean_messages /= trials as f64;
        point.mean_bytes /= trials as f64;
        point.mean_m /= trials as f64;
    }
    if point.completed > 0 {
        point.mean_completion_secs = completion_sum / point.completed as f64;
    }
    point
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_run(seed: u64) -> RunResult {
        let mut p = Platform::build(PlatformConfig {
            seed,
            contributors: 600,
            processors: 40,
            network: NetworkProfile::Internet,
            ..PlatformConfig::default()
        });
        let spec = census_spec(&mut p, 100);
        p.run_query(
            &spec,
            &PrivacyConfig::none().with_max_tuples(50),
            &ResilienceConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn sweep_aggregates_across_seeds() {
        let point = sweep(4, one_run);
        assert_eq!(point.trials, 4);
        assert_eq!(point.completed, 4);
        assert_eq!(point.valid, 4);
        assert!(point.mean_messages > 0.0);
        assert!(point.mean_completion_secs > 0.0);
    }

    /// The pinned tables print `mean t (s)`, so the parallel sweep must
    /// equal a plain loop over the same seeds bit for bit.
    #[test]
    fn parallel_sweep_equals_a_sequential_fold_in_seed_order() {
        const TRIALS: usize = 6;
        let point = sweep(TRIALS, one_run);
        let (mut secs, mut msgs) = (0.0f64, 0.0f64);
        for seed in 0..TRIALS as u64 {
            let report = one_run(seed).report;
            secs += report.completion_secs.expect("a lossless crowd completes");
            msgs += report.messages_sent as f64;
        }
        assert_eq!(
            point.mean_completion_secs.to_bits(),
            (secs / TRIALS as f64).to_bits()
        );
        assert_eq!(
            point.mean_messages.to_bits(),
            (msgs / TRIALS as f64).to_bits()
        );
    }
}
