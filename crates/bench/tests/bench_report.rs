//! `bench_report`'s argument edges, through the binary itself. What the
//! suites measure is unit-tested in `report.rs`; running them here would
//! put wall-clock work in tier-1.

use edgelet_bench::report::suites;
use std::process::Command;

fn bench_report(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_report"))
        .args(args)
        .output()
        .expect("spawn bench_report");
    let text = |bytes| String::from_utf8(bytes).expect("utf-8");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn an_unmatched_suite_prefix_exits_nonzero_listing_the_known_suites() {
    let (code, stdout, stderr) = bench_report(&["--suite", "nomatch"]);
    assert_eq!(code, Some(2));
    assert!(stdout.is_empty(), "nothing is measured: {stdout}");
    assert!(
        stderr.contains("--suite nomatch matches no suite"),
        "{stderr}"
    );
    for suite in suites() {
        assert!(
            stderr.contains(suite.name),
            "{} not in {stderr}",
            suite.name
        );
    }
}
