//! Structural pass: DAG shape and wiring (`E001`–`E005`).
//!
//! The workspace's one structure check: it collects *every* violation
//! instead of stopping at the first, and reports each under a stable
//! diagnostic code. (The device-collision invariant lives in the
//! [liability pass](super::liability) as `E030`, since it is a bound, not
//! a shape property.)

use crate::diagnostic::{codes, Diagnostic};
use edgelet_query::{OperatorRole, QueryPlan};
use std::collections::{BTreeMap, BTreeSet};

/// Runs the structural checks, appending findings to `out`.
pub fn check(plan: &QueryPlan, out: &mut Vec<Diagnostic>) {
    let total = plan.total_partitions();

    // E001: exactly one Snapshot Builder per partition, covering 0..n+m.
    let mut builders: BTreeSet<u64> = BTreeSet::new();
    for op in &plan.operators {
        if let OperatorRole::SnapshotBuilder { partition } = op.role {
            if !builders.insert(partition.raw()) {
                out.push(Diagnostic::error(
                    codes::BUILDER_COVERAGE,
                    format!("operator {}", op.id),
                    format!("duplicate snapshot builder for partition {partition}"),
                ));
            }
        }
    }
    if builders.len() as u64 != total || builders.last() != Some(&total.saturating_sub(1)) {
        out.push(
            Diagnostic::error(
                codes::BUILDER_COVERAGE,
                "plan.operators",
                format!(
                    "snapshot builders cover {} partitions, expected 0..{total}",
                    builders.len()
                ),
            )
            .with_help("every partition needs exactly one Snapshot Builder"),
        );
    }

    // E002: exactly one Computer per (partition, attr group), full grid,
    // and aggregate assignment aligned with the groups.
    let groups = plan.attr_groups.len() as u32;
    let mut computers: BTreeSet<(u64, u32)> = BTreeSet::new();
    for op in &plan.operators {
        if let OperatorRole::Computer {
            partition,
            attr_group,
        } = op.role
        {
            if attr_group >= groups {
                out.push(Diagnostic::error(
                    codes::COMPUTER_GRID,
                    format!("operator {}", op.id),
                    format!("computer references unknown attr group g{attr_group}"),
                ));
            } else if !computers.insert((partition.raw(), attr_group)) {
                out.push(Diagnostic::error(
                    codes::COMPUTER_GRID,
                    format!("operator {}", op.id),
                    format!("duplicate computer for ({partition}, g{attr_group})"),
                ));
            }
        }
    }
    let expected_cells = total * u64::from(groups);
    if (computers.len() as u64) != expected_cells {
        out.push(
            Diagnostic::error(
                codes::COMPUTER_GRID,
                "plan.operators",
                format!(
                    "computer grid has {} cells, expected {expected_cells}",
                    computers.len()
                ),
            )
            .with_help("each partition needs one Computer per vertical attribute group"),
        );
    }
    if !plan.attr_group_aggregates.is_empty()
        && plan.attr_group_aggregates.len() != plan.attr_groups.len()
    {
        out.push(Diagnostic::error(
            codes::COMPUTER_GRID,
            "plan.attr_group_aggregates",
            format!(
                "aggregate assignment has {} entries for {} attr groups",
                plan.attr_group_aggregates.len(),
                plan.attr_groups.len()
            ),
        ));
    }

    // E003: combiner replicas contiguous from 0, exactly one querier.
    let mut replicas: Vec<u32> = plan
        .operators
        .iter()
        .filter_map(|o| match o.role {
            OperatorRole::Combiner { replica } => Some(replica),
            _ => None,
        })
        .collect();
    replicas.sort_unstable();
    if replicas.first() != Some(&0) {
        out.push(
            Diagnostic::error(
                codes::COMBINER_ARITY,
                "plan.operators",
                "missing primary combiner (replica 0)",
            )
            .with_help("the Computing Combiner primary must exist; backups are replicas 1.."),
        );
    } else if replicas.iter().enumerate().any(|(i, r)| *r != i as u32) {
        out.push(Diagnostic::error(
            codes::COMBINER_ARITY,
            "plan.operators",
            format!("combiner replica indices not contiguous: {replicas:?}"),
        ));
    }
    let queriers = plan
        .operators_where(|r| matches!(r, OperatorRole::Querier))
        .len();
    if queriers != 1 {
        out.push(Diagnostic::error(
            codes::COMBINER_ARITY,
            "plan.operators",
            format!("expected exactly one querier, found {queriers}"),
        ));
    }

    // E004: edges reference existing operators and respect the stage
    // order builder -> computer -> combiner -> querier.
    let role_of: BTreeMap<u64, &OperatorRole> = plan
        .operators
        .iter()
        .map(|o| (o.id.raw(), &o.role))
        .collect();
    for (a, b) in &plan.edges {
        let (ra, rb) = match (role_of.get(&a.raw()), role_of.get(&b.raw())) {
            (Some(ra), Some(rb)) => (ra, rb),
            _ => {
                out.push(Diagnostic::error(
                    codes::EDGE_ORDER,
                    format!("edge ({a}, {b})"),
                    "edge references unknown operators",
                ));
                continue;
            }
        };
        let ok = matches!(
            (ra, rb),
            (
                OperatorRole::SnapshotBuilder { .. },
                OperatorRole::Computer { .. }
            ) | (OperatorRole::Computer { .. }, OperatorRole::Combiner { .. })
                | (OperatorRole::Combiner { .. }, OperatorRole::Querier)
        );
        if !ok {
            out.push(
                Diagnostic::error(
                    codes::EDGE_ORDER,
                    format!("edge ({a}, {b})"),
                    format!(
                        "edge {} -> {} violates the QEP stage order",
                        ra.label(),
                        rb.label()
                    ),
                )
                .with_help("dataflow must run builder -> computer -> combiner -> querier"),
            );
        }
    }

    // E005: contributor buckets match the partition count.
    if plan.contributors.len() as u64 != total {
        out.push(Diagnostic::error(
            codes::CONTRIBUTOR_BUCKETS,
            "plan.contributors",
            format!(
                "{} contributor buckets for {total} partitions",
                plan.contributors.len()
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnostic::has_errors;
    use crate::testutil::good_plan;

    fn codes_of(plan: &QueryPlan) -> Vec<&'static str> {
        let mut out = Vec::new();
        check(plan, &mut out);
        out.iter().map(|d| d.code).collect()
    }

    #[test]
    fn good_plan_is_clean() {
        let (plan, _, _) = good_plan();
        let mut out = Vec::new();
        check(&plan, &mut out);
        assert!(!has_errors(&out), "{out:?}");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn missing_builder_is_e001() {
        let (mut plan, _, _) = good_plan();
        let idx = plan
            .operators
            .iter()
            .position(|o| matches!(o.role, OperatorRole::SnapshotBuilder { .. }))
            .unwrap();
        plan.operators.remove(idx);
        assert!(codes_of(&plan).contains(&codes::BUILDER_COVERAGE));
    }

    #[test]
    fn missing_computer_is_e002() {
        let (mut plan, _, _) = good_plan();
        let idx = plan
            .operators
            .iter()
            .position(|o| matches!(o.role, OperatorRole::Computer { .. }))
            .unwrap();
        plan.operators.remove(idx);
        assert!(codes_of(&plan).contains(&codes::COMPUTER_GRID));
    }

    #[test]
    fn duplicate_computer_is_e002() {
        let (mut plan, _, _) = good_plan();
        let comp = plan
            .operators
            .iter()
            .find(|o| matches!(o.role, OperatorRole::Computer { .. }))
            .unwrap()
            .clone();
        plan.operators.push(comp);
        assert!(codes_of(&plan).contains(&codes::COMPUTER_GRID));
    }

    #[test]
    fn missing_primary_combiner_is_e003() {
        let (mut plan, _, _) = good_plan();
        plan.operators
            .retain(|o| !matches!(o.role, OperatorRole::Combiner { replica: 0 }));
        let found = codes_of(&plan);
        assert!(found.contains(&codes::COMBINER_ARITY), "{found:?}");
    }

    #[test]
    fn backwards_edge_is_e004() {
        let (mut plan, _, _) = good_plan();
        let (a, b) = plan.edges[0];
        plan.edges.push((b, a));
        assert!(codes_of(&plan).contains(&codes::EDGE_ORDER));
    }

    #[test]
    fn bucket_mismatch_is_e005() {
        let (mut plan, _, _) = good_plan();
        plan.contributors.pop();
        assert!(codes_of(&plan).contains(&codes::CONTRIBUTOR_BUCKETS));
    }

    #[test]
    fn multiple_violations_all_reported() {
        let (mut plan, _, _) = good_plan();
        plan.contributors.pop();
        let (a, b) = plan.edges[0];
        plan.edges.push((b, a));
        let found = codes_of(&plan);
        assert!(found.contains(&codes::CONTRIBUTOR_BUCKETS));
        assert!(found.contains(&codes::EDGE_ORDER));
    }
}
