//! Thread-count invariance of the parallel simulator paths.
//!
//! The parallel runtime's contract (see DESIGN.md) is that results are
//! *bit-identical* at every thread count: work items derive any random
//! state purely from their index, never from execution order. These
//! tests pin that contract for each parallelized fan-out — the optical
//! convolution (clean, faulted, and quantized with faults), the fault
//! campaign grid, the DSE sweep, and the suite simulator — by running
//! each at 1, 2, and 8 threads and comparing outputs exactly.

use refocus_arch::campaign::{FaultCampaign, Workload};
use refocus_arch::config::AcceleratorConfig;
use refocus_arch::dse::{sweep, Variant};
use refocus_arch::functional::OpticalExecutor;
use refocus_arch::simulator::simulate_suite;
use refocus_nn::models;
use refocus_nn::tensor::{Tensor3, Tensor4};
use refocus_photonics::faults::{FaultInjector, FaultSpec};
use refocus_photonics::jtc::Jtc;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `f` at each thread count and asserts every result equals the
/// single-threaded one.
fn assert_invariant<T, F>(what: &str, f: F)
where
    T: PartialEq + std::fmt::Debug,
    F: Fn() -> T,
{
    let reference = refocus_par::with_threads(1, &f);
    for &threads in &THREAD_COUNTS[1..] {
        let got = refocus_par::with_threads(threads, &f);
        assert_eq!(
            got, reference,
            "{what}: {threads}-thread run diverged from serial"
        );
    }
}

fn fault_spec() -> FaultSpec {
    FaultSpec::none()
        .with_stuck_weights(0.05, 0.25)
        .with_dead_pixel_rate(0.05)
        .with_laser_drift(0.005, 0.1)
}

#[test]
fn clean_conv2d_is_thread_count_invariant() {
    let input = Tensor3::random(3, 10, 10, 0.0, 1.0, 1);
    let weights = Tensor4::random(5, 3, 3, 3, -1.0, 1.0, 2);
    assert_invariant("clean conv2d", || {
        let exec = OpticalExecutor::ideal();
        exec.conv2d(&input, &weights, 1, 1).unwrap().data().to_vec()
    });
}

#[test]
fn strided_multi_tile_conv2d_is_thread_count_invariant() {
    // Stride 2 on a 128-waveguide tile: fifteen passes of one strided
    // output row each, spread over several blocks of shared spectra.
    let input = Tensor3::random(3, 30, 30, 0.0, 1.0, 31);
    let weights = Tensor4::random(5, 3, 3, 3, -1.0, 1.0, 32);
    let config = AcceleratorConfig {
        tile: 128,
        ..AcceleratorConfig::refocus_ff()
    };
    assert_invariant("strided multi-tile conv2d", || {
        let exec = OpticalExecutor::new(&config, Jtc::ideal());
        let out = exec.conv2d(&input, &weights, 2, 1).unwrap();
        (out.data().to_vec(), exec.passes())
    });
}

#[test]
fn faulted_conv2d_is_thread_count_invariant() {
    let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 3);
    let weights = Tensor4::random(6, 2, 3, 3, -1.0, 1.0, 4);
    assert_invariant("faulted conv2d", || {
        let exec = OpticalExecutor::ideal().with_faults(FaultInjector::new(fault_spec(), 9));
        exec.conv2d(&input, &weights, 1, 1).unwrap().data().to_vec()
    });
}

#[test]
fn quantized_faulted_conv2d_is_thread_count_invariant() {
    // The converters run the layer pass by pass, each output channel
    // walking its own drift stream.
    let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 5);
    let weights = Tensor4::random(4, 2, 3, 3, -1.0, 1.0, 6);
    assert_invariant("quantized faulted conv2d", || {
        let injector = FaultInjector::new(fault_spec(), 11);
        let exec = OpticalExecutor::quantized().with_faults(injector);
        exec.conv2d(&input, &weights, 1, 1).unwrap().data().to_vec()
    });
}

#[test]
fn consecutive_conv2d_calls_stay_invariant() {
    // Epoch reservation is the only sequential fault-state step; two
    // back-to-back layers must replay identically at any thread count.
    let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 7);
    let weights = Tensor4::random(4, 2, 3, 3, -1.0, 1.0, 8);
    assert_invariant("two-layer faulted conv2d", || {
        let exec = OpticalExecutor::ideal().with_faults(FaultInjector::new(fault_spec(), 21));
        let first = exec.conv2d(&input, &weights, 1, 1).unwrap();
        let second = exec.conv2d(&input, &weights, 1, 1).unwrap();
        (first.data().to_vec(), second.data().to_vec())
    });
}

#[test]
fn fault_campaign_is_thread_count_invariant() {
    let campaign = FaultCampaign::new(AcceleratorConfig::refocus_fb(), fault_spec())
        .with_severities(&[0.0, 1.0, 4.0])
        .with_seeds(&[1, 2])
        .with_workload(Workload {
            height: 6,
            width: 6,
            out_channels: 2,
            ..Workload::default()
        });
    assert_invariant("fault campaign", || campaign.run().unwrap());
}

#[test]
fn dse_sweep_is_thread_count_invariant() {
    let suite = [models::resnet18()];
    assert_invariant("DSE sweep", || {
        sweep(Variant::FeedForward, &suite).expect("sweep completes")
    });
}

#[test]
fn simulate_suite_is_thread_count_invariant() {
    let suite = models::evaluation_suite();
    let cfg = AcceleratorConfig::refocus_fb();
    assert_invariant("suite simulation", || {
        let report = simulate_suite(&suite, &cfg).unwrap();
        report
            .reports
            .iter()
            .map(|r| {
                (
                    r.network_name.clone(),
                    r.metrics.fps.to_bits(),
                    r.metrics.energy_j.to_bits(),
                )
            })
            .collect::<Vec<_>>()
    });
}

#[test]
fn pass_accounting_is_thread_count_invariant() {
    let input = Tensor3::random(2, 8, 8, 0.0, 1.0, 11);
    let weights = Tensor4::random(4, 2, 3, 3, -1.0, 1.0, 12);
    assert_invariant("pass accounting", || {
        let exec = OpticalExecutor::ideal();
        exec.conv2d(&input, &weights, 1, 1).unwrap();
        exec.passes()
    });
}
