//! Implementation of the `edgelet` command-line tool.
//!
//! Subcommands mirror the two parts of the demonstration (§3.2):
//!
//! * `edgelet plan …` — Part 1: configure privacy/resiliency knobs and
//!   inspect the resulting QEP (and its predicted cost) without running;
//! * `edgelet run …` — Part 2: execute on a simulated crowd and report
//!   completion, validity, accuracy and liability;
//! * `edgelet analyze …` — run the static plan/config analyzer and report
//!   diagnostics (text or `--format json`), exiting nonzero on errors;
//! * `edgelet dataset …` — emit the synthetic health data as CSV.
//!
//! The argument parser is hand-rolled (no external dependency) and unit
//! tested here: each subcommand takes the flags it knows out of one
//! consuming reader (`args::Flags`) and a flag nobody took is refused
//! by name, on the command line and in a world spec off a socket alike.
//! `main.rs` is a thin shell around [`run_cli`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub(crate) mod net;

use edgelet_util::Result;

/// Entry point: parses `argv` (without the program name) and executes.
/// Returns the text to print on success.
pub fn run_cli(argv: &[String]) -> Result<String> {
    run_cli_with_status(argv).map(|(text, _)| text)
}

/// Like [`run_cli`], but also returns the process exit status the tool
/// should use: nonzero when `analyze` found `Error`-severity diagnostics.
pub fn run_cli_with_status(argv: &[String]) -> Result<(String, i32)> {
    let cmd = args::parse(argv)?;
    commands::execute_with_status(cmd)
}

pub use edgelet_core as core_api;
use edgelet_core::util as edgelet_util;
