//! EXPERIMENTS.md is the golden record of E1–E14: the fenced block under
//! each `## E<k> — <title>` heading must be, cell for cell, the table the
//! registry entry renders. There is no second golden file and no bless
//! switch — a table that moved is pasted into the document by hand, next
//! to the prose that has to be reread against it.

use edgelet_bench::experiments::EXPERIMENTS;
use std::process::Command;

const DOC: &str = include_str!("../../../EXPERIMENTS.md");

/// Every `## ` section of EXPERIMENTS.md as `(heading, fenced blocks)`;
/// the text before the first heading is the section `""`.
fn sections() -> Vec<(&'static str, Vec<String>)> {
    let mut out = vec![("", Vec::new())];
    let mut open: Option<String> = None;
    for line in DOC.lines() {
        if line.starts_with("```") {
            match open.take() {
                Some(block) => out.last_mut().expect("starts non-empty").1.push(block),
                None => open = Some(String::new()),
            }
        } else if let Some(block) = &mut open {
            block.push_str(line);
            block.push('\n');
        } else if let Some(heading) = line.strip_prefix("## ") {
            out.push((heading, Vec::new()));
        }
    }
    assert!(open.is_none(), "EXPERIMENTS.md ends inside a fenced block");
    out
}

/// The one fenced block under the heading of experiment `id`.
fn pinned_table(id: &str) -> String {
    let mut blocks = sections()
        .into_iter()
        .filter(|(heading, _)| heading.split(' ').next() == Some(id))
        .flat_map(|(_, blocks)| blocks);
    let table = blocks
        .next()
        .unwrap_or_else(|| panic!("no fenced block under `## {id}`"));
    assert!(blocks.next().is_none(), "two fenced blocks under `## {id}`");
    table
}

fn experiments_bin(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("spawn experiments")
}

#[test]
fn registry_and_document_list_e1_to_e14_in_order() {
    let ids: Vec<String> = EXPERIMENTS.iter().map(|e| e.id.to_string()).collect();
    let expected: Vec<String> = (1..=14).map(|k| format!("E{k}")).collect();
    assert_eq!(ids, expected);

    // One heading each, carrying the registry's title, in registry order
    // — and nothing else in the document poses as an experiment.
    let numbered = |heading: &str| {
        heading
            .strip_prefix('E')
            .is_some_and(|rest| rest.starts_with(|c: char| c.is_ascii_digit()))
    };
    let headings: Vec<&str> = sections()
        .into_iter()
        .map(|(heading, _)| heading)
        .filter(|h| numbered(h))
        .collect();
    let expected: Vec<String> = EXPERIMENTS
        .iter()
        .map(|e| format!("{} — {}", e.id, e.title))
        .collect();
    assert_eq!(headings, expected);
    for e in &EXPERIMENTS {
        pinned_table(e.id); // exactly one fenced block
    }
}

#[test]
fn every_table_matches_experiments_md() {
    let mut stale = String::new();
    for e in &EXPERIMENTS {
        let rendered = (e.run)().render();
        let pinned = pinned_table(e.id);
        if rendered != pinned {
            stale.push_str(&format!(
                "\n`## {id}` in EXPERIMENTS.md pins\n\n{pinned}\nbut {id} now renders\n\n{rendered}\n\
                 If the change is intended, paste the table printed by\n    \
                 cargo run --release -p edgelet-bench --bin experiments -- --only {id}\n\
                 into the fenced block under `## {id}` and reread that section's prose.\n",
                id = e.id
            ));
        }
    }
    assert!(stale.is_empty(), "{stale}");
}

#[test]
fn only_selects_by_id_and_prints_the_pinned_table() {
    let out = experiments_bin(&["--only", "E2"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    assert!(stdout.starts_with("## E2 — Figure 3: overcollection degree\n"));
    assert!(stdout.contains(&pinned_table("E2")), "{stdout}");
    assert_eq!(stdout.matches("\n## E").count(), 0, "{stdout}");
}

#[test]
fn only_rejects_an_unknown_id_listing_the_known_ones() {
    let out = experiments_bin(&["--only", "E2,E99"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing runs before the ids check out"
    );
    let stderr = String::from_utf8(out.stderr).expect("utf-8");
    assert!(stderr.contains("unknown experiment: E99"), "{stderr}");
    let known = "E1, E2, E3, E4, E5, E6, E7, E8, E9, E10, E11, E12, E13, E14";
    assert!(stderr.contains(known), "{stderr}");
}
