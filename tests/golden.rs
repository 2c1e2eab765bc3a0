//! The checked-in outputs of the `refocus` binary, regenerated through the
//! library the way `src/main.rs` prints them and compared byte for byte.
//! Any change that moves a printed digit fails here; a JSON mismatch names
//! the first JSON path that differs.
//!
//! After a deliberate change of output, regenerate the files with:
//!
//! ```text
//! cargo run --release --bin refocus -- report > tests/golden/report.txt
//! cargo run --release --bin refocus -- report --json > tests/golden/report.json
//! cargo run --release --bin refocus -- sim --variant fb --suite --json > tests/golden/sim_fb_suite.json
//! cargo run --release --bin refocus -- fault-study --json > tests/golden/fault_study.json
//! ```

use refocus::arch::campaign::RunBudget;
use refocus::arch::config::AcceleratorConfig;
use refocus::arch::simulator::simulate_suite;
use refocus::experiments::{all_experiments, fault_study};
use refocus::nn::models;
use serde_json::Value;
use std::path::Path;

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// Pretty JSON plus the newline `println!` adds, as `refocus … --json`
/// prints it.
fn printed(json: Result<String, serde_json::Error>) -> String {
    format!("{}\n", json.expect("serializes"))
}

/// The first line on which `want` and `got` differ, if any.
fn first_line_difference(want: &str, got: &str) -> Option<String> {
    let (mut want_lines, mut got_lines) = (want.lines(), got.lines());
    for line in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (None, None) => return None,
            (w, g) if w != g => {
                return Some(format!("line {line}: golden {w:?}, now {g:?}"));
            }
            _ => {}
        }
    }
    unreachable!()
}

/// The first JSON path (`$.a[3].b`) at which `want` and `got` differ.
fn first_json_difference(path: &str, want: &Value, got: &Value) -> Option<String> {
    match (want, got) {
        (Value::Map(w), Value::Map(g)) => {
            let keys = |m: &[(String, Value)]| m.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            if keys(w) != keys(g) {
                return Some(format!("{path}: keys {:?}, now {:?}", keys(w), keys(g)));
            }
            w.iter()
                .zip(g)
                .find_map(|((k, w), (_, g))| first_json_difference(&format!("{path}.{k}"), w, g))
        }
        (Value::Seq(w), Value::Seq(g)) => {
            if w.len() != g.len() {
                return Some(format!("{path}: {} items, now {}", w.len(), g.len()));
            }
            w.iter()
                .zip(g)
                .enumerate()
                .find_map(|(i, (w, g))| first_json_difference(&format!("{path}[{i}]"), w, g))
        }
        (w, g) if w != g => Some(format!("{path}: golden {w:?}, now {g:?}")),
        _ => None,
    }
}

fn assert_golden_text(name: &str, got: &str) {
    let want = golden(name);
    if want != got {
        let at = first_line_difference(&want, got).unwrap_or_else(|| "line endings".into());
        panic!("{name} differs from the golden output at {at}");
    }
}

fn assert_golden_json(name: &str, got: &str) {
    let want = golden(name);
    if want == got {
        return;
    }
    let parse = |text: &str, what: &str| {
        serde_json::parse_value_str(text).unwrap_or_else(|e| panic!("{what} {name}: {e}"))
    };
    let at = first_json_difference("$", &parse(&want, "golden"), &parse(got, "regenerated"))
        .or_else(|| first_line_difference(&want, got).map(|at| format!("formatting, {at}")))
        .unwrap_or_else(|| "line endings".into());
    panic!("{name} differs from the golden output at {at}");
}

#[test]
fn report_text_is_golden() {
    let text: String = all_experiments().iter().map(|e| format!("{e}\n")).collect();
    assert_golden_text("report.txt", &text);
}

#[test]
fn report_json_is_golden() {
    assert_golden_json(
        "report.json",
        &printed(serde_json::to_string_pretty(&all_experiments())),
    );
}

#[test]
fn fb_suite_json_is_golden() {
    let suite = simulate_suite(
        &models::evaluation_suite(),
        &AcceleratorConfig::refocus_fb(),
    )
    .expect("the suite simulates");
    assert_golden_json(
        "sim_fb_suite.json",
        &printed(serde_json::to_string_pretty(&suite)),
    );
}

#[test]
fn fault_study_json_is_golden() {
    let report = fault_study::campaign()
        .run_budgeted(&RunBudget::default())
        .expect("the campaign runs");
    assert_golden_json(
        "fault_study.json",
        &printed(serde_json::to_string_pretty(&report)),
    );
}

#[test]
fn json_difference_names_the_path() {
    let want = serde_json::parse_value_str(r#"{"a": [1, {"b": 2.5}], "c": null}"#).unwrap();
    let got = serde_json::parse_value_str(r#"{"a": [1, {"b": 2.6}], "c": null}"#).unwrap();
    let at = first_json_difference("$", &want, &got).expect("they differ");
    assert!(at.starts_with("$.a[1].b: "), "{at}");
    assert_eq!(first_json_difference("$", &want, &want), None);
}
