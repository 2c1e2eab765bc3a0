//! `paper_report`: full `all_experiments()` passes rendered the way the
//! `report` binary prints them, plus `experiment_by_id` lookups.

use crate::sys::{self, Metrics, SplitMix, Tally};
use crate::{host, Workload};
use refocus_experiments as ex;
use refocus_experiments::Experiment;
use refocus_nn::reorder::{anneal_channel_order, synthetic_assignments, AnnealingSchedule};
use refocus_nn::tensor::Tensor4;
use refocus_nn::weight_sharing::SharedWeights;
use std::collections::BTreeMap;
use std::hint::black_box;

/// Full report passes in one timed round.
const PASSES: usize = 4;
/// Ids looked up one at a time in each round.
const LOOKUPS: [&str; 4] = ["table1", "table4", "fig11", "fault_study"];

/// Every experiment module, called one at a time for the per-experiment
/// times.
const MODULES: [fn() -> Experiment; 19] = [
    ex::sec2_2::run,
    ex::table1::run,
    ex::table2::run,
    ex::fig3::run,
    ex::fig7::run,
    ex::table4::run,
    ex::table5::run,
    ex::table6::run,
    ex::table7::run,
    ex::fig8::run,
    ex::fig9::run,
    ex::fig10::run,
    ex::fig11::run,
    ex::fig12::run,
    ex::fig13::run,
    ex::sec7_3::run,
    ex::ablations::run,
    ex::fault_study::run,
    ex::summary::run,
];

pub struct Report {
    /// Rendered text of every experiment by id, from a reference pass.
    reference: BTreeMap<String, String>,
    /// `LOOKUPS` in seeded order.
    lookups: Vec<&'static str>,
    seed: u64,
}

pub struct Pass {
    experiments: Vec<Experiment>,
    texts: Vec<String>,
    render_secs: f64,
}

pub struct Rounds {
    passes: Vec<Pass>,
    lookups: Vec<(&'static str, Option<String>, f64)>,
}

/// Renders an experiment the way the `report` binary prints it.
fn render(e: &Experiment) -> String {
    format!("{e}\n")
}

/// Every table has rows and no cell reads as a non-finite number.
fn well_formed(e: &Experiment) -> bool {
    let finite = |cell: &String| {
        cell.split_whitespace().all(|tok| {
            let t = tok
                .trim_matches(|c: char| !c.is_ascii_alphanumeric())
                .to_ascii_lowercase();
            !matches!(t.as_str(), "nan" | "inf" | "infinity")
        })
    };
    !e.tables.is_empty()
        && e.tables
            .iter()
            .all(|t| !t.rows.is_empty() && t.rows.iter().flatten().all(finite))
}

impl Workload for Report {
    const NAME: &'static str = "paper_report";
    const THREADS: usize = 1;
    const KERNEL: host::Kernel = host::Kernel::Branchy;
    type Output = Rounds;

    fn setup(seed: u64) -> Self {
        let reference = ex::all_experiments()
            .iter()
            .map(|e| (e.id.clone(), render(e)))
            .collect();
        let mut lookups = LOOKUPS.to_vec();
        SplitMix::new(seed).shuffle(&mut lookups);
        Report {
            reference,
            lookups,
            seed,
        }
    }

    fn round(&mut self) -> Rounds {
        let passes = (0..PASSES)
            .map(|_| {
                let experiments = {
                    let _span = refocus_obs::span("bench.experiments.all_experiments");
                    ex::all_experiments()
                };
                host::tick();
                let (texts, render_secs) = sys::timed(|| {
                    let _span = refocus_obs::span("bench.experiments.render");
                    experiments.iter().map(render).collect()
                });
                Pass {
                    experiments,
                    texts,
                    render_secs,
                }
            })
            .collect();
        let lookups = self
            .lookups
            .iter()
            .map(|&id| {
                let (text, secs) = sys::timed(|| {
                    let _span = refocus_obs::span("bench.experiments.experiment_by_id");
                    ex::experiment_by_id(id).map(|e| render(&e))
                });
                host::tick();
                (id, text, secs)
            })
            .collect();
        Rounds { passes, lookups }
    }

    fn check(&self, out: &Rounds) -> Tally {
        let mut tally = Tally::default();
        for pass in &out.passes {
            tally.add_work("experiments", pass.texts.len() as u64);
            if pass.texts.len() != self.reference.len() {
                tally.op(false, || {
                    format!("{} experiments in a pass", pass.texts.len())
                });
            }
            for (e, text) in pass.experiments.iter().zip(&pass.texts) {
                let well_formed = well_formed(e);
                let same = self.reference.get(&e.id) == Some(text);
                tally.op(well_formed && same, || {
                    format!(
                        "{}: well formed={well_formed} same as reference={same}",
                        e.id
                    )
                });
            }
        }
        for (id, text, _) in &out.lookups {
            tally.add_work("lookups", 1);
            let same = text.is_some() && self.reference.get(*id) == text.as_ref();
            tally.op(same, || {
                format!("experiment_by_id({id}) differs from the full pass")
            });
        }
        tally
    }

    fn layer_metrics(
        &mut self,
        untraced: &Rounds,
        _wall: f64,
        _cpu: f64,
        _traced: &refocus_obs::Report,
        m: &mut Metrics,
    ) -> Tally {
        let mut tally = Tally::default();
        let passes = untraced.passes.len() as f64;
        let render: f64 = untraced.passes.iter().map(|p| p.render_secs).sum();
        m.set("report.render_ms", render * 1e3 / passes, "ms");
        let lookups: f64 = untraced.lookups.iter().map(|l| l.2).sum();
        m.set(
            "report.by_id_ms",
            lookups * 1e3 / untraced.lookups.len() as f64,
            "ms",
        );
        for run in MODULES {
            let (e, secs) = sys::timed(run);
            tally.op(well_formed(&e), || format!("{} is not well formed", e.id));
            m.set(format!("experiment.{}_ms", e.id), secs * 1e3, "ms");
        }

        // The two kernels that dominate sec7_3, on seeded inputs of its
        // sizes.
        let mut rng = SplitMix::new(self.seed ^ 0x7365_6337_5f33_0000);
        let weights = Tensor4::random(128, 128, 3, 3, -1.0, 1.0, rng.next_u64());
        let (shared, secs) =
            sys::timed(|| SharedWeights::cluster(&weights, 256, 2, rng.next_u64()));
        tally.op(shared.is_ok(), || "weight-sharing clustering failed".into());
        m.set("weight_sharing.cluster_ms", secs * 1e3, "ms");
        let assignments = synthetic_assignments(64, 64, 16, rng.next_u64());
        let (order, secs) = sys::timed(|| {
            anneal_channel_order(&assignments, AnnealingSchedule::default(), rng.next_u64())
        });
        tally.op(order.is_ok(), || "channel reordering failed".into());
        black_box(order.ok());
        m.set("reorder.anneal_ms", secs * 1e3, "ms");
        tally
    }
}
