//! Runs the micro-suites of [`edgelet_bench::report`] and prints each as
//! `median [q1–q3]`.
//!
//! ```text
//! cargo run --release -p edgelet-bench --bin bench_report
//! cargo run --release -p edgelet-bench --bin bench_report -- --suite store/ --out /tmp/store.json
//! ```
//!
//! `--suite <prefix>` runs only the suites whose name starts with the
//! prefix; `--out <path>` also writes the results as JSON
//! (`edgelet-bench-report/v2`). Nothing is compared and nothing gates: a
//! performance claim is judged on `benchmark/` (docs/PERF.md).

use edgelet_bench::report::{self, Suite};

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!("usage: bench_report [--suite <prefix>] [--out <path>]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut prefix = String::new();
    let mut out: Option<String> = None;
    while let Some(arg) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage_error(&format!("{arg} requires a value")))
        };
        match arg.as_str() {
            "--suite" => prefix = value(),
            "--out" => out = Some(value()),
            other => usage_error(&format!("unknown argument: {other}")),
        }
    }
    let all = report::suites();
    let selected: Vec<&Suite> = all.iter().filter(|s| s.name.starts_with(&prefix)).collect();
    if selected.is_empty() {
        let known: Vec<&str> = all.iter().map(|s| s.name).collect();
        usage_error(&format!(
            "--suite {prefix} matches no suite; known suites: {}",
            known.join(", ")
        ));
    }

    println!(
        "bench_report: median [q1–q3] of {} samples per suite, rev {}, {} logical cpu(s)",
        report::SAMPLES,
        report::git_revision(),
        report::available_parallelism()
    );
    let results: Vec<_> = selected
        .iter()
        .map(|suite| {
            let r = suite.run();
            println!(
                "{:<60} {:>13.1} ns [{:.1}–{:.1}]  shards {}  workers {}  {}  {} {:.1}",
                r.name,
                r.median_ns,
                r.q1_ns,
                r.q3_ns,
                r.shards,
                r.workers,
                r.transport,
                r.throughput.0,
                r.throughput.1
            );
            r
        })
        .collect();
    if let Some(path) = out {
        std::fs::write(&path, report::to_json(&results)).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("wrote {path}");
    }
}
