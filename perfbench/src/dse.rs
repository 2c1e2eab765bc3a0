//! `analytic_dse`: `simulate_suite` on the five evaluation CNNs at every
//! valid design point of a Table 4-style grid, visited in seeded order,
//! plus the Table 4 `dse::sweep` for both buffer variants.

use crate::sys::{self, Metrics, SplitMix, Tally};
use crate::{host, Workload};
use refocus_arch::area::area_breakdown;
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::dataflow::network_traffic;
use refocus_arch::dse::{
    self, design_point, max_rfcus, Variant, PHOTONIC_AREA_BUDGET_MM2, TABLE4_DELAY_CYCLES,
};
use refocus_arch::energy::EnergyModel;
use refocus_arch::perf::NetworkPerf;
use refocus_arch::simulator::{simulate, simulate_suite, SuiteReport};
use refocus_memsim::buffers::{BufferParams, DataBuffers, DataflowCase};
use refocus_memsim::hierarchy::Hierarchy;
use refocus_nn::layer::Network;
use refocus_nn::models;
use std::hint::black_box;

/// Passes over the whole grid in one timed round.
const PASSES: usize = 9;
const WAVELENGTHS: [usize; 4] = [1, 2, 3, 4];
const BATCHES: [usize; 4] = [1, 2, 4, 8];
const VARIANTS: [Variant; 2] = [Variant::FeedForward, Variant::FeedBack];

/// Modeled (cycles, joules, FPS) of one network at one design point.
type Modeled = (u64, f64, f64);

pub struct Dse {
    suite: Vec<Network>,
    /// Every valid design point, in canonical grid order.
    points: Vec<AcceleratorConfig>,
    /// Indices into `points`, one seeded visiting order per pass.
    orders: Vec<Vec<usize>>,
    /// A pass in grid order made at set-up; every later pass must equal
    /// it.
    reference: Pass,
}

pub struct Pass {
    /// Per design point (canonical order): the modeled numbers of every
    /// network, or why the suite was incomplete.
    modeled: Vec<Result<Vec<Modeled>, String>>,
}

pub struct Rounds {
    passes: Vec<Pass>,
    sweeps: Vec<Result<dse::SweepReport, String>>,
    sweep_secs: f64,
}

fn modeled(
    suite: &Result<SuiteReport, refocus_arch::error::SimError>,
    networks: usize,
) -> Result<Vec<Modeled>, String> {
    match suite {
        Ok(s) if s.is_complete() && s.reports.len() == networks => Ok(s
            .reports
            .iter()
            .map(|r| (r.perf.total_cycles, r.metrics.energy_j, r.metrics.fps))
            .collect()),
        Ok(s) => Err(format!("incomplete suite: {:?}", s.failed)),
        Err(e) => Err(e.to_string()),
    }
}

fn net_key(net: &Network) -> String {
    net.name().to_ascii_lowercase().replace('-', "")
}

impl Dse {
    fn pass(&self, order: &[usize]) -> Pass {
        let mut modeled_by_point = vec![Err(String::from("not visited")); self.points.len()];
        for &i in order {
            let suite = {
                let _span = refocus_obs::span("bench.simulator.simulate_suite");
                simulate_suite(&self.suite, &self.points[i])
            };
            host::tick();
            modeled_by_point[i] = modeled(&suite, self.suite.len());
        }
        Pass {
            modeled: modeled_by_point,
        }
    }
}

impl Workload for Dse {
    const NAME: &'static str = "analytic_dse";
    const THREADS: usize = 1;
    const KERNEL: host::Kernel = host::Kernel::Arithmetic;
    type Output = Rounds;

    fn setup(seed: u64) -> Self {
        let mut points = Vec::new();
        for variant in VARIANTS {
            for m in TABLE4_DELAY_CYCLES {
                for rfcus in 1..=max_rfcus(variant, m, PHOTONIC_AREA_BUDGET_MM2) {
                    for wavelengths in WAVELENGTHS {
                        for batch in BATCHES {
                            for include_dram in [false, true] {
                                let cfg = AcceleratorConfig {
                                    wavelengths,
                                    batch,
                                    include_dram,
                                    ..design_point(variant, m, rfcus)
                                };
                                if cfg.validate().is_ok() {
                                    points.push(cfg);
                                }
                            }
                        }
                    }
                }
            }
        }
        let mut rng = SplitMix::new(seed ^ 0x6473_6500_0000_0000);
        let orders = (0..PASSES)
            .map(|_| {
                let mut order: Vec<usize> = (0..points.len()).collect();
                rng.shuffle(&mut order);
                order
            })
            .collect();
        let mut dse = Dse {
            suite: models::evaluation_suite(),
            reference: Pass {
                modeled: Vec::new(),
            },
            points,
            orders,
        };
        let grid_order: Vec<usize> = (0..dse.points.len()).collect();
        dse.reference = dse.pass(&grid_order);
        dse
    }

    fn round(&mut self) -> Rounds {
        let passes = self.orders.iter().map(|order| self.pass(order)).collect();
        let (sweeps, sweep_secs) = sys::timed(|| {
            let tables = models::dse_suite();
            VARIANTS
                .iter()
                .map(|&v| {
                    let _span = refocus_obs::span("bench.dse.sweep");
                    dse::sweep(v, &tables).map_err(|e| e.to_string())
                })
                .collect()
        });
        Rounds {
            passes,
            sweeps,
            sweep_secs,
        }
    }

    fn for_trace(&mut self) {
        // The attribution ledger records every layer of every point.
        self.orders.truncate(1);
    }

    fn check(&self, out: &Rounds) -> Tally {
        let mut tally = Tally::default();
        for pass in &out.passes {
            tally.add_work("design_points", pass.modeled.len() as u64);
            for (i, (m, r)) in pass.modeled.iter().zip(&self.reference.modeled).enumerate() {
                tally.op(m.is_ok() && m == r, || {
                    let why = m
                        .as_ref()
                        .err()
                        .map_or("differs from the reference pass", |e| e);
                    format!("{}: {why}", self.points[i].name)
                });
            }
        }
        for sweep in &out.sweeps {
            tally.add_work("sweeps", 1);
            let complete = sweep
                .as_ref()
                .is_ok_and(|s| s.is_complete() && s.rows.len() == TABLE4_DELAY_CYCLES.len());
            tally.op(complete, || format!("incomplete Table 4 sweep: {sweep:?}"));
        }
        tally
    }

    fn report_lines(&self) -> Vec<String> {
        // Sums over the grid in grid order: the same for every seed.
        let pass = &self.reference;
        self.suite
            .iter()
            .enumerate()
            .map(|(n, net)| {
                let (mut cycles, mut joules, mut fps) = (0u64, 0.0f64, 0.0f64);
                for m in pass.modeled.iter().flatten() {
                    cycles += m[n].0;
                    joules += m[n].1;
                    fps += m[n].2;
                }
                format!(
                    "model {} points={} cycles={cycles} joules={joules:?} fps={fps:?}",
                    net_key(net),
                    pass.modeled.len()
                )
            })
            .collect()
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
        m.set("dse.sweep_ms", untraced.sweep_secs * 1e3, "ms");

        // The modeled numbers must not depend on the thread count.
        let two = refocus_par::with_threads(2, || self.pass(&self.orders[0]));
        for (i, (a, b)) in self.reference.modeled.iter().zip(&two.modeled).enumerate() {
            tally.op(a.is_ok() && a == b, || {
                format!(
                    "{}: modeled numbers differ at 1 and 2 threads",
                    self.points[i].name
                )
            });
        }

        let cfg = AcceleratorConfig::refocus_fb();
        let us = |s: f64| s * 1e6;
        for net in &self.suite {
            let secs = sys::per_call_seconds(9, 50, || {
                black_box(simulate(black_box(net), &cfg)).expect("the shipped design simulates");
            });
            m.set(format!("simulator.{}_us", net_key(net)), us(secs), "us");
        }
        let suite_at = |threads: usize| {
            refocus_par::with_threads(threads, || {
                sys::per_call_seconds(9, 30, || {
                    black_box(simulate_suite(&self.suite, &cfg)).expect("non-empty suite");
                })
            })
        };
        let one = suite_at(1);
        m.set("simulator.suite_us", us(one), "us");
        m.set("par.suite_2t_over_1t", suite_at(2) / one, "ratio");

        let perfs: Vec<NetworkPerf> = self
            .suite
            .iter()
            .map(|n| NetworkPerf::analyze(n, &cfg).expect("the shipped design maps"))
            .collect();
        let per_call = |f: &mut dyn FnMut()| us(sys::per_call_seconds(9, 50, f));
        m.set(
            "perf.analyze_us",
            per_call(&mut || {
                for n in &self.suite {
                    black_box(NetworkPerf::analyze(black_box(n), &cfg)).expect("maps");
                }
            }),
            "us",
        );
        m.set(
            "energy.network_us",
            per_call(&mut || {
                let model = EnergyModel::new(&cfg);
                for (n, p) in self.suite.iter().zip(&perfs) {
                    black_box(model.network_energy(black_box(n), p));
                }
            }),
            "us",
        );
        m.set(
            "area.breakdown_us",
            per_call(&mut || {
                black_box(area_breakdown(black_box(&cfg)));
            }),
            "us",
        );
        m.set(
            "dataflow.traffic_us",
            per_call(&mut || {
                for (n, p) in self.suite.iter().zip(&perfs) {
                    black_box(network_traffic(black_box(n), p, &cfg));
                }
            }),
            "us",
        );
        let traffic: Vec<_> = self
            .suite
            .iter()
            .zip(&perfs)
            .map(|(n, p)| network_traffic(n, p, &cfg))
            .collect();
        let hierarchy = Hierarchy::new(Some(DataBuffers::size(
            DataflowCase::NextFilter,
            &BufferParams::refocus(512, 512, 15),
        )));
        m.set(
            "memsim.energy_us",
            per_call(&mut || {
                for t in &traffic {
                    black_box(hierarchy.total_energy(black_box(t)));
                }
            }),
            "us",
        );

        // An empty two-item region: the pool's fixed cost per fan-out.
        let items = [0u8; 2];
        let region = refocus_par::with_threads(2, || {
            sys::per_call_seconds(9, 200, || {
                black_box(refocus_par::par_map(&items, |&x| x));
            })
        });
        m.set("par.region_us", us(region), "us");
        tally
    }
}
