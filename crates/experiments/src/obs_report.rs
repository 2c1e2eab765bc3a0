//! Parse, render, and diff `refocus-obs` summary JSON breakdowns.
//!
//! The obs layer exports a versioned summary (`refocus-obs-summary/v2`)
//! whose embedded `refocus-obs-breakdown/v1` section carries every
//! attribution-ledger cell — per-layer × per-component joules, cycles,
//! and bytes (DESIGN.md §11). This module is the engine behind the
//! `refocus obs` subcommand: it validates the schema, renders the cells as
//! paper-style breakdown tables (one pivot table per family, components
//! as columns), and diffs two runs cell-by-cell with a configurable
//! relative-regression threshold.
//!
//! Only ledger cells participate in a diff: they are deterministic
//! functions of the workload (the conservation tests pin them
//! bit-exact across thread counts), whereas spans and histograms carry
//! wall-clock timings that legitimately differ between runs.

use crate::render::{fmt_f, Table};
use refocus_arch::attribution::ENERGY_COMPONENTS;
use serde_json::{parse_value_str, Value};

/// One attribution-ledger cell as exported in the breakdown section.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Row key (e.g. `"ReFOCUS-FB/AlexNet/000:conv1"`).
    pub row: String,
    /// Component within the row (e.g. `"adc"`).
    pub component: String,
    /// Cell kind: `"sum_f64"`, `"sum_u64"`, or `"gauge_f64"`.
    pub kind: String,
    /// Cell value (u64 sums are exact in an f64 up to 2^53; ledger
    /// byte/cycle counts stay far below that).
    pub value: f64,
}

/// One counter family of the breakdown (e.g. `"energy.joules"`).
#[derive(Debug, Clone, PartialEq)]
pub struct Family {
    /// Family name.
    pub name: String,
    /// Cells in (row, component) order.
    pub cells: Vec<Cell>,
}

/// One exported histogram with its exact-percentile fields.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Scalar name.
    pub name: String,
    /// Observation count.
    pub count: u64,
    /// Mean value.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Whether the percentiles are exact (no reservoir downsampling).
    pub exact: bool,
}

/// A parsed and schema-validated obs summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Outer schema tag (`refocus-obs-summary/v2`).
    pub schema: String,
    /// Breakdown schema tag (`refocus-obs-breakdown/v1`).
    pub breakdown_schema: String,
    /// Worker threads that contributed.
    pub threads: u64,
    /// Session duration.
    pub duration_ns: u64,
    /// Span/counter events dropped to the ring cap.
    pub dropped_events: u64,
    /// Ledger timeline samples dropped to the buffer cap.
    pub dropped_ledger_samples: u64,
    /// Exported histograms.
    pub histograms: Vec<Histogram>,
    /// Ledger families in name order.
    pub families: Vec<Family>,
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn field_num(map: &Value, key: &str, ctx: &str) -> Result<f64, String> {
    map.get(key)
        .and_then(num)
        .ok_or_else(|| format!("{ctx}: missing numeric field '{key}'"))
}

fn field_str(map: &Value, key: &str, ctx: &str) -> Result<String, String> {
    match map.get(key) {
        Some(Value::Str(s)) => Ok(s.clone()),
        _ => Err(format!("{ctx}: missing string field '{key}'")),
    }
}

fn field_seq<'v>(map: &'v Value, key: &str, ctx: &str) -> Result<&'v [Value], String> {
    match map.get(key) {
        Some(Value::Seq(items)) => Ok(items),
        _ => Err(format!("{ctx}: missing array field '{key}'")),
    }
}

/// Parses and validates one summary JSON document.
///
/// # Errors
///
/// Returns a description of the first schema violation: not JSON, an
/// unrecognized schema tag, or a missing/mistyped field.
pub fn parse_summary(text: &str) -> Result<Summary, String> {
    let root = parse_value_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = field_str(&root, "schema", "summary")?;
    if !schema.starts_with("refocus-obs-summary/") {
        return Err(format!("unrecognized summary schema '{schema}'"));
    }
    let breakdown = root
        .get("breakdown")
        .ok_or("summary: missing 'breakdown' section (schema < v2?)")?;
    let breakdown_schema = field_str(breakdown, "schema", "breakdown")?;
    if !breakdown_schema.starts_with("refocus-obs-breakdown/") {
        return Err(format!(
            "unrecognized breakdown schema '{breakdown_schema}'"
        ));
    }

    let mut histograms = Vec::new();
    for (i, h) in field_seq(&root, "histograms", "summary")?
        .iter()
        .enumerate()
    {
        let ctx = format!("histograms[{i}]");
        histograms.push(Histogram {
            name: field_str(h, "name", &ctx)?,
            count: field_num(h, "count", &ctx)? as u64,
            mean: field_num(h, "mean", &ctx)?,
            p50: field_num(h, "p50", &ctx)?,
            p95: field_num(h, "p95", &ctx)?,
            p99: field_num(h, "p99", &ctx)?,
            exact: matches!(h.get("exact"), Some(Value::Bool(true))),
        });
    }

    let mut families = Vec::new();
    for (i, f) in field_seq(breakdown, "families", "breakdown")?
        .iter()
        .enumerate()
    {
        let ctx = format!("families[{i}]");
        let name = field_str(f, "name", &ctx)?;
        let mut cells = Vec::new();
        for (j, c) in field_seq(f, "cells", &ctx)?.iter().enumerate() {
            let ctx = format!("{ctx}.cells[{j}]");
            let kind = field_str(c, "kind", &ctx)?;
            if !matches!(kind.as_str(), "sum_f64" | "sum_u64" | "gauge_f64") {
                return Err(format!("{ctx}: unknown cell kind '{kind}'"));
            }
            cells.push(Cell {
                row: field_str(c, "row", &ctx)?,
                component: field_str(c, "component", &ctx)?,
                kind,
                value: field_num(c, "value", &ctx)?,
            });
        }
        families.push(Family { name, cells });
    }

    Ok(Summary {
        schema,
        breakdown_schema,
        threads: field_num(&root, "threads", "summary")? as u64,
        duration_ns: field_num(&root, "duration_ns", "summary")? as u64,
        dropped_events: field_num(&root, "dropped_events", "summary")? as u64,
        dropped_ledger_samples: field_num(&root, "dropped_ledger_samples", "summary")? as u64,
        histograms,
        families,
    })
}

/// Column order for a family: the canonical paper taxonomy for the
/// energy family, first-seen order otherwise.
fn component_columns(family: &Family) -> Vec<String> {
    if family.name == "energy.joules" {
        return ENERGY_COMPONENTS
            .iter()
            .map(|(id, _)| id.to_string())
            .collect();
    }
    let mut cols = Vec::new();
    for cell in &family.cells {
        if !cols.contains(&cell.component) {
            cols.push(cell.component.clone());
        }
    }
    cols
}

/// Human column label: the paper's component name where one exists.
fn column_label(family: &Family, component: &str) -> String {
    if family.name == "energy.joules" {
        if let Some((_, label)) = ENERGY_COMPONENTS.iter().find(|(id, _)| *id == component) {
            return (*label).to_string();
        }
    }
    component.to_string()
}

/// Renders one family as a pivot table: rows × components, with a
/// per-column total row for summed kinds.
pub fn family_table(family: &Family) -> Table {
    let columns = component_columns(family);
    let mut headers: Vec<String> = vec!["row".into()];
    headers.extend(columns.iter().map(|c| column_label(family, c)));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut table = Table::new(family.name.clone(), &header_refs);

    let mut rows: Vec<&str> = Vec::new();
    for cell in &family.cells {
        if rows.last() != Some(&cell.row.as_str()) && !rows.contains(&cell.row.as_str()) {
            rows.push(&cell.row);
        }
    }
    let mut totals = vec![0.0f64; columns.len()];
    let mut summed = vec![false; columns.len()];
    for row in rows {
        let mut line = vec![row.to_string()];
        for (i, col) in columns.iter().enumerate() {
            match family
                .cells
                .iter()
                .find(|c| c.row == *row && c.component == *col)
            {
                Some(cell) => {
                    if cell.kind.starts_with("sum") {
                        totals[i] += cell.value;
                        summed[i] = true;
                    }
                    line.push(fmt_cell(cell.kind.as_str(), cell.value));
                }
                None => line.push("-".into()),
            }
        }
        table.push_row(line);
    }
    if summed.iter().any(|&s| s) {
        let kind_of = |i: usize| {
            family
                .cells
                .iter()
                .find(|c| c.component == columns[i])
                .map_or("sum_f64", |c| c.kind.as_str())
        };
        let mut line = vec!["TOTAL".to_string()];
        for (i, _) in columns.iter().enumerate() {
            line.push(if summed[i] {
                fmt_cell(kind_of(i), totals[i])
            } else {
                "-".into()
            });
        }
        table.push_row(line);
    }
    table
}

/// Integer cells print as integers; everything else compactly.
fn fmt_cell(kind: &str, value: f64) -> String {
    if kind == "sum_u64" {
        format!("{value:.0}")
    } else {
        fmt_f(value)
    }
}

/// Renders the whole summary: header line, per-family pivot tables,
/// then the histogram percentiles.
pub fn render(summary: &Summary) -> String {
    let mut out = format!(
        "obs summary {} (breakdown {}): {} thread(s), {:.3} ms, {} dropped event(s), {} dropped ledger sample(s)\n",
        summary.schema,
        summary.breakdown_schema,
        summary.threads,
        summary.duration_ns as f64 / 1e6,
        summary.dropped_events,
        summary.dropped_ledger_samples,
    );
    for family in &summary.families {
        out.push('\n');
        out.push_str(&family_table(family).render());
    }
    if !summary.histograms.is_empty() {
        let mut t = Table::new(
            "scalar distributions",
            &["name", "count", "mean", "p50", "p95", "p99", "exact"],
        );
        for h in &summary.histograms {
            t.push_row(vec![
                h.name.clone(),
                h.count.to_string(),
                fmt_f(h.mean),
                fmt_f(h.p50),
                fmt_f(h.p95),
                fmt_f(h.p99),
                h.exact.to_string(),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }
    out
}

/// One per-cell difference between two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Family name.
    pub family: String,
    /// Row key.
    pub row: String,
    /// Component.
    pub component: String,
    /// Value in the baseline run.
    pub base: f64,
    /// Value in the new run.
    pub new: f64,
}

impl DiffRow {
    /// Absolute delta, new − base.
    pub fn abs_delta(&self) -> f64 {
        self.new - self.base
    }

    /// Relative delta against the baseline (absolute delta when the
    /// baseline is zero, so a 0 → x change never divides by zero).
    pub fn rel_delta(&self) -> f64 {
        if self.base == 0.0 {
            self.abs_delta()
        } else {
            self.abs_delta() / self.base
        }
    }
}

/// The result of diffing two summaries' ledger cells.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Cells present in both runs whose values differ.
    pub changed: Vec<DiffRow>,
    /// Structural mismatches: cells present in exactly one run.
    pub structural: Vec<String>,
    /// Cells compared in total.
    pub compared: usize,
}

impl DiffReport {
    /// Whether the diff passes at `threshold`: no structural
    /// mismatches and every changed cell's |relative delta| within it.
    pub fn is_clean(&self, threshold: f64) -> bool {
        self.structural.is_empty()
            && self
                .changed
                .iter()
                .all(|d| d.rel_delta().abs() <= threshold)
    }
}

/// Diffs the deterministic ledger cells of two runs, matching by
/// (family, row, component). Timing data (spans, histograms) is
/// deliberately excluded.
pub fn diff(base: &Summary, new: &Summary) -> DiffReport {
    let mut report = DiffReport {
        changed: Vec::new(),
        structural: Vec::new(),
        compared: 0,
    };
    let find = |s: &Summary, family: &str, row: &str, component: &str| -> Option<Cell> {
        s.families.iter().find(|f| f.name == family).and_then(|f| {
            f.cells
                .iter()
                .find(|c| c.row == row && c.component == component)
                .cloned()
        })
    };
    for family in &base.families {
        for cell in &family.cells {
            match find(new, &family.name, &cell.row, &cell.component) {
                Some(other) => {
                    report.compared += 1;
                    if other.value != cell.value {
                        report.changed.push(DiffRow {
                            family: family.name.clone(),
                            row: cell.row.clone(),
                            component: cell.component.clone(),
                            base: cell.value,
                            new: other.value,
                        });
                    }
                }
                None => report.structural.push(format!(
                    "only in baseline: {}[{} / {}]",
                    family.name, cell.row, cell.component
                )),
            }
        }
    }
    for family in &new.families {
        for cell in &family.cells {
            if find(base, &family.name, &cell.row, &cell.component).is_none() {
                report.structural.push(format!(
                    "only in new run: {}[{} / {}]",
                    family.name, cell.row, cell.component
                ));
            }
        }
    }
    report
}

/// Renders a diff as a table plus structural notes.
pub fn render_diff(report: &DiffReport, threshold: f64) -> String {
    let mut out = format!(
        "{} cell(s) compared, {} changed, {} structural mismatch(es), threshold {}%\n",
        report.compared,
        report.changed.len(),
        report.structural.len(),
        threshold * 100.0,
    );
    if !report.changed.is_empty() {
        let mut t = Table::new(
            "changed cells",
            &[
                "family",
                "row",
                "component",
                "base",
                "new",
                "abs delta",
                "rel delta",
            ],
        );
        for d in &report.changed {
            t.push_row(vec![
                d.family.clone(),
                d.row.clone(),
                d.component.clone(),
                fmt_f(d.base),
                fmt_f(d.new),
                fmt_f(d.abs_delta()),
                format!("{:+.3}%", d.rel_delta() * 100.0),
            ]);
        }
        out.push('\n');
        out.push_str(&t.render());
    }
    for s in &report.structural {
        out.push_str(&format!("structural: {s}\n"));
    }
    out.push_str(if report.is_clean(threshold) {
        "diff: PASS\n"
    } else {
        "diff: FAIL\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_json() -> String {
        r#"{
  "schema": "refocus-obs-summary/v2",
  "enabled": true,
  "duration_ns": 1000000,
  "threads": 2,
  "dropped_events": 0,
  "dropped_ledger_samples": 0,
  "spans": [],
  "counters": [],
  "histograms": [
    {"name": "x", "count": 3, "sum": 6, "mean": 2, "min": 1, "max": 3, "p50": 2, "p95": 3, "p99": 3, "exact": true}
  ],
  "breakdown": {
    "schema": "refocus-obs-breakdown/v1",
    "families": [
      {
        "name": "energy.joules",
        "cells": [
          {"row": "FB/AlexNet/000:conv1", "component": "adc", "kind": "sum_f64", "value": 0.5},
          {"row": "FB/AlexNet/000:conv1", "component": "laser", "kind": "sum_f64", "value": 1.5},
          {"row": "FB/AlexNet/001:conv2", "component": "adc", "kind": "sum_f64", "value": 0.25}
        ]
      },
      {
        "name": "memory.bytes",
        "cells": [
          {"row": "FB/AlexNet/000:conv1", "component": "dram", "kind": "sum_u64", "value": 4096}
        ]
      }
    ]
  }
}"#
        .to_string()
    }

    #[test]
    fn parses_and_renders_sample() {
        let summary = parse_summary(&sample_json()).expect("parses");
        assert_eq!(summary.schema, "refocus-obs-summary/v2");
        assert_eq!(summary.families.len(), 2);
        assert_eq!(summary.histograms.len(), 1);
        let text = render(&summary);
        // Paper-taxonomy column labels and per-layer rows.
        assert!(text.contains("ADC"), "{text}");
        assert!(text.contains("laser"), "{text}");
        assert!(text.contains("000:conv1"), "{text}");
        assert!(text.contains("TOTAL"), "{text}");
        assert!(text.contains("memory.bytes"), "{text}");
        assert!(text.contains("p95"), "{text}");
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(parse_summary("not json").is_err());
        assert!(parse_summary("{\"schema\": \"something-else/v1\"}").is_err());
        // v1 documents (no breakdown section) are rejected with a hint.
        let err = parse_summary("{\"schema\": \"refocus-obs-summary/v1\"}").unwrap_err();
        assert!(err.contains("breakdown"), "{err}");
        let bad_kind = sample_json().replace("sum_u64", "bogus");
        assert!(parse_summary(&bad_kind).unwrap_err().contains("bogus"));
    }

    #[test]
    fn self_diff_is_clean() {
        let summary = parse_summary(&sample_json()).expect("parses");
        let report = diff(&summary, &summary);
        assert_eq!(report.compared, 4);
        assert!(report.changed.is_empty());
        assert!(report.is_clean(0.0));
        assert!(render_diff(&report, 0.0).contains("diff: PASS"));
    }

    #[test]
    fn diff_flags_changes_and_structure() {
        let base = parse_summary(&sample_json()).expect("parses");
        let changed_json = sample_json()
            .replace("\"value\": 0.5", "\"value\": 0.55")
            .replace("001:conv2", "001:conv2b");
        let new = parse_summary(&changed_json).expect("parses");
        let report = diff(&base, &new);
        assert_eq!(report.changed.len(), 1);
        let d = &report.changed[0];
        assert!((d.rel_delta() - 0.1).abs() < 1e-12);
        // The renamed row shows up from both sides.
        assert_eq!(report.structural.len(), 2);
        assert!(!report.is_clean(1.0));
        // Within threshold but structurally different still fails.
        let text = render_diff(&report, 0.2);
        assert!(text.contains("diff: FAIL"), "{text}");
    }

    #[test]
    fn threshold_gates_relative_deltas() {
        let base = parse_summary(&sample_json()).expect("parses");
        let new = parse_summary(&sample_json().replace("\"value\": 0.5", "\"value\": 0.505"))
            .expect("parses");
        let report = diff(&base, &new);
        assert!(report.is_clean(0.02));
        assert!(!report.is_clean(0.001));
    }
}
