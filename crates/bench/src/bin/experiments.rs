//! Regenerates the paper's figures and §3.3 claims (E1–E14).
//!
//! ```text
//! cargo run --release -p edgelet-bench --bin experiments
//! cargo run --release -p edgelet-bench --bin experiments -- --only E3,E10
//! ```
//!
//! Each table printed here is the fenced block under the same heading in
//! EXPERIMENTS.md; `cargo test -p edgelet-bench --test experiments` fails
//! when the two differ.

use edgelet_bench::experiments::{Experiment, EXPERIMENTS};

fn usage_error(message: &str) -> ! {
    let known: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    eprintln!("{message}");
    eprintln!("usage: experiments [--only <id>[,<id>...]]");
    eprintln!("known experiments: {}", known.join(", "));
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = match args.as_slice() {
        [] => EXPERIMENTS.iter().collect(),
        [flag, ids] if flag == "--only" => ids
            .split(',')
            .map(|id| {
                EXPERIMENTS
                    .iter()
                    .find(|e| e.id == id)
                    .unwrap_or_else(|| usage_error(&format!("unknown experiment: {id}")))
            })
            .collect(),
        _ => usage_error(&format!("unexpected arguments: {}", args.join(" "))),
    };
    for e in selected {
        println!("## {} — {}\n", e.id, e.title);
        println!("{}", (e.run)().render());
        println!("{}\n", e.claim);
    }
}
