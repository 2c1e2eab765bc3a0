//! The paper's headline claims, asserted end to end through the public API.

use refocus::prelude::*;

fn suite_metrics(config: &AcceleratorConfig) -> (f64, f64, f64) {
    let s = simulate_suite(&models::evaluation_suite(), config).unwrap();
    (
        s.geomean_fps(),
        s.geomean_fps_per_watt(),
        s.geomean_fps_per_mm2(),
    )
}

#[test]
fn abstract_headline_2x_throughput() {
    let (base_fps, _, _) = suite_metrics(&AcceleratorConfig::photofourier_baseline());
    let (fb_fps, _, _) = suite_metrics(&AcceleratorConfig::refocus_fb());
    let ratio = fb_fps / base_fps;
    assert!(
        (1.85..2.1).contains(&ratio),
        "throughput ratio = {ratio} (paper 2x)"
    );
}

#[test]
fn abstract_headline_energy_efficiency() {
    let (_, base, _) = suite_metrics(&AcceleratorConfig::photofourier_baseline());
    let (_, fb, _) = suite_metrics(&AcceleratorConfig::refocus_fb());
    let ratio = fb / base;
    assert!(
        (1.7..3.4).contains(&ratio),
        "FPS/W ratio = {ratio} (paper 2.2x)"
    );
}

#[test]
fn abstract_headline_area_efficiency() {
    let (_, _, base) = suite_metrics(&AcceleratorConfig::photofourier_baseline());
    let (_, _, fb) = suite_metrics(&AcceleratorConfig::refocus_fb());
    let ratio = fb / base;
    assert!(
        (1.15..1.65).contains(&ratio),
        "FPS/mm2 ratio = {ratio} (paper 1.36x)"
    );
}

#[test]
fn section_6_1_average_powers() {
    let ff = simulate_suite(
        &models::evaluation_suite(),
        &AcceleratorConfig::refocus_ff(),
    )
    .unwrap()
    .mean_power_w();
    let fb = simulate_suite(
        &models::evaluation_suite(),
        &AcceleratorConfig::refocus_fb(),
    )
    .unwrap()
    .mean_power_w();
    assert!((ff - 14.0).abs() < 3.5, "FF = {ff} W (paper 14.0)");
    assert!((fb - 10.8).abs() < 3.0, "FB = {fb} W (paper 10.8)");
    assert!(ff > fb, "FF must draw more than FB");
}

#[test]
fn section_6_1_area_numbers() {
    let r = simulate(&models::resnet50(), &AcceleratorConfig::refocus_fb()).unwrap();
    assert!((r.area.total().value() - 171.1).abs() < 6.0);
    assert!((r.area.photonic().value() - 135.7).abs() < 2.0);
}

#[test]
fn photonic_advantage_over_digital_accelerators() {
    // §6.3 / Fig. 12: 5.6x - 24.5x FPS/W over digital accelerators on
    // ResNet-50 (we assert the same order of magnitude).
    let r = simulate(&models::resnet50(), &AcceleratorConfig::refocus_fb()).unwrap();
    let ours = r.metrics.fps_per_watt();
    for acc in refocus::arch::baselines::fig12_accelerators() {
        let theirs = acc.on("ResNet-50").unwrap().fps_per_watt;
        let adv = ours / theirs;
        assert!(adv > 2.0, "{}: advantage {adv}", acc.name);
        assert!(adv < 60.0, "{}: advantage {adv} too large", acc.name);
    }
}

#[test]
fn up_to_25x_over_albireo_and_145x_over_holylight() {
    use refocus::experiments::fig13::max_advantage_over;
    let albireo = max_advantage_over("Albireo");
    let holylight = max_advantage_over("HolyLight-m");
    assert!((10.0..60.0).contains(&albireo), "albireo = {albireo}");
    assert!(
        (60.0..400.0).contains(&holylight),
        "holylight = {holylight}"
    );
}

#[test]
fn table4_rfcu_row_via_public_api() {
    use refocus::arch::dse::{max_rfcus, Variant, PHOTONIC_AREA_BUDGET_MM2, TABLE4_DELAY_CYCLES};
    let want = [25usize, 24, 23, 21, 18, 11];
    for (&m, &n) in TABLE4_DELAY_CYCLES.iter().zip(&want) {
        assert_eq!(
            max_rfcus(Variant::FeedBack, m, PHOTONIC_AREA_BUDGET_MM2),
            n,
            "M = {m}"
        );
    }
}

#[test]
fn table5_reproduced_exactly() {
    use refocus::photonics::buffer::FeedbackBuffer;
    use refocus::photonics::units::GigaHertz;
    let paper = [
        (1u32, 2.05),
        (3, 2.56),
        (7, 3.05),
        (15, 3.87),
        (31, 5.96),
        (63, 13.7),
    ];
    for (r, want) in paper {
        let buf = FeedbackBuffer::with_optimal_split(r, 16, GigaHertz::new(10.0)).unwrap();
        let got = buf.relative_laser_power();
        assert!((got - want).abs() / want < 0.02, "R={r}: {got} vs {want}");
    }
}

#[test]
fn every_paper_artifact_regenerates() {
    let all = refocus::experiments::all_experiments();
    assert_eq!(all.len(), 19);
    for e in &all {
        assert!(!e.render().is_empty(), "{}", e.id);
    }
}
