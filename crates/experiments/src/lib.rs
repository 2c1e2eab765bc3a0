//! # refocus-experiments
//!
//! Regenerates **every table and figure** of the ReFOCUS paper from the
//! simulator, printing the same rows/series the paper reports with the
//! paper's values alongside. One module per artifact:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`sec2_2`] | §2.2 JTC-vs-GPU conversion-count example |
//! | [`table1`] | Table 1 — delay-line length/area/loss |
//! | [`table2`] | Table 2 — area & FPS/mm² for 1 vs 2 wavelengths |
//! | [`table4`] | Table 4 — delay-length design-space sweep |
//! | [`table5`] | Table 5 — feedback-buffer laser power & dynamic range |
//! | [`table6`] | Table 6 — component power/area constants |
//! | [`table7`] | Table 7 — reuse achieved by each optimization |
//! | [`fig3`]  | Fig. 3 — baseline power & area breakdowns |
//! | [`fig7`]  | Fig. 7 — alternating OS-IS dataflow trace |
//! | [`fig8`]  | Fig. 8 — ReFOCUS-FF/FB power breakdowns |
//! | [`fig9`]  | Fig. 9 — ReFOCUS area breakdown |
//! | [`fig10`] | Fig. 10 — FPS/W vs cumulative optimizations |
//! | [`fig11`] | Fig. 11 — ReFOCUS vs PhotoFourier (5 CNNs) |
//! | [`fig12`] | Fig. 12 — vs digital accelerators (ResNet-50) |
//! | [`fig13`] | Fig. 13 — vs photonic/digital/RRAM (3 CNNs) |
//! | [`sec7_3`] | §7.3 — weight sharing + channel reordering |
//! | [`ablations`] | extensions: slow light (§7.5), batching, WDM walk-off (§4.2.3), HBM3 (§7.3) |
//! | [`fault_study`] | extension: fault-injection campaign (error vs severity) |
//! | [`summary`] | headline reproduction scorecard |
//! | [`obs_report`] | extension: render/diff attribution-ledger breakdowns |
//!
//! The root package's `refocus` binary prints everything with `refocus
//! report [--experiment fig11] [--json]`, runs the fault campaign with
//! `refocus fault-study`, and renders and diffs the obs summary JSON a
//! traced run exports: `refocus obs render|diff`.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ablations;
pub mod fault_study;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig3;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod obs_report;
pub mod render;
pub mod sec2_2;
pub mod sec7_3;
pub mod summary;
pub mod table1;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;

pub use render::{Experiment, Table};

/// One registry entry: an experiment's id and title, and the function
/// that computes it.
#[derive(Debug)]
pub struct Entry {
    /// Stable identifier (`"table4"`, `"fig11"`, …).
    pub id: &'static str,
    /// Human title, as the computed [`Experiment`] carries it.
    pub title: &'static str,
    /// Computes the experiment.
    pub run: fn() -> Experiment,
}

/// Every experiment, in paper order. Listing or looking one up runs
/// nothing; only [`Entry::run`] computes.
#[rustfmt::skip]
pub const REGISTRY: [Entry; 19] = [
    entry("sec2_2", "Sec. 2.2: JTC conversions vs GPU MACs", sec2_2::run),
    entry("table1", "Table 1: optical delay line geometry", table1::run),
    entry("table2", "Table 2: WDM lens sharing", table2::run),
    entry("fig3", "Fig. 3: baseline power and area breakdowns", fig3::run),
    entry("fig7", "Fig. 7: alternating OS-IS dataflow trace", fig7::run),
    entry("table4", "Table 4: delay-line design-space exploration", table4::run),
    entry("table5", "Table 5: feedback-buffer laser power & dynamic range", table5::run),
    entry("table6", "Table 6: component power and area", table6::run),
    entry("table7", "Table 7: reuse achieved by each optimization", table7::run),
    entry("fig8", "Fig. 8: ReFOCUS power breakdowns", fig8::run),
    entry("fig9", "Fig. 9: ReFOCUS area breakdown", fig9::run),
    entry("fig10", "Fig. 10: FPS/W vs cumulative optimizations (ResNet-34)", fig10::run),
    entry("fig11", "Fig. 11: ReFOCUS vs PhotoFourier", fig11::run),
    entry("fig12", "Fig. 12: vs digital accelerators (ResNet-50)", fig12::run),
    entry("fig13", "Fig. 13: vs photonic / digital / RRAM accelerators", fig13::run),
    entry("sec7_3", "Sec. 7.3: DRAM, weight sharing, channel reordering", sec7_3::run),
    entry("ablations", "Extensions: slow light, batching, WDM walk-off, HBM3", ablations::run),
    entry("fault_study", "Extension: fault-injection campaign", fault_study::run),
    entry("summary", "Reproduction scorecard", summary::run),
];

const fn entry(id: &'static str, title: &'static str, run: fn() -> Experiment) -> Entry {
    Entry { id, title, run }
}

/// Computes every experiment, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    REGISTRY.iter().map(|e| (e.run)()).collect()
}

/// Computes the experiment with id `id` (e.g. `"fig11"`, `"table4"`), and
/// only that one.
pub fn experiment_by_id(id: &str) -> Option<Experiment> {
    REGISTRY.iter().find(|e| e.id == id).map(|e| (e.run)())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_experiments_render() {
        let all = all_experiments();
        assert_eq!(all.len(), 19);
        for e in &all {
            let text = e.render();
            assert!(text.contains(&e.title), "{}", e.id);
            assert!(!e.tables.is_empty(), "{} has no tables", e.id);
        }
    }

    #[test]
    fn lookup_by_id() {
        assert!(experiment_by_id("fig11").is_some());
        assert!(experiment_by_id("table4").is_some());
        assert!(experiment_by_id("nope").is_none());
    }

    #[test]
    fn registry_ids_and_titles_match_what_each_run_returns() {
        for entry in &REGISTRY {
            let e = (entry.run)();
            assert_eq!((e.id.as_str(), e.title.as_str()), (entry.id, entry.title));
        }
    }

    #[test]
    fn ids_are_unique() {
        let all = all_experiments();
        let mut ids: Vec<&str> = all.iter().map(|e| e.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }
}
