//! Golden pass reports: every report field the pipeline publishes, pinned
//! for the seven BENCH_10 panels on the standard box and on two edited
//! boxes.
//!
//! The fixture `golden/pass_reports.txt` was recorded before the
//! class-granular prune (dominance over bill-group rows, mask sweeps) and
//! must never be re-recorded to make a pipeline change pass: a pruning
//! change that alters a single count, bucket or digest is a behaviour
//! change, not a refactor.

use bios_biochem::Analyte;
use bios_explore::{explore, ExploreOutcome, ExploreSpec};
use bios_platform::{ExecPolicy, PanelSpec, TargetSpec};
use bios_units::{Molar, Seconds};
use std::fmt::Write;

/// The seven BENCH_10 panels.
fn panels() -> Vec<(&'static str, PanelSpec)> {
    let of = |analytes: &[Analyte]| {
        analytes
            .iter()
            .map(|&a| TargetSpec::typical(a))
            .collect::<PanelSpec>()
    };
    let mut tight = PanelSpec::paper_fig4();
    tight.push(TargetSpec::typical(Analyte::Glucose).with_lod(Molar::from_micromolar(290.0)));
    vec![
        ("fig4-biointerface", PanelSpec::paper_fig4()),
        (
            "metabolic-trio",
            of(&[Analyte::Glucose, Analyte::Lactate, Analyte::Cholesterol]),
        ),
        ("neuro-pair", of(&[Analyte::Glutamate, Analyte::Lactate])),
        (
            "p450-pair",
            of(&[Analyte::Benzphetamine, Analyte::Aminopyrine]),
        ),
        ("tight-lod-fig4", tight),
        ("glucose-only", of(&[Analyte::Glucose])),
        (
            "oxidase-quartet",
            of(&[
                Analyte::Glucose,
                Analyte::Lactate,
                Analyte::Glutamate,
                Analyte::Cholesterol,
            ]),
        ),
    ]
}

/// The standard box and two edits of it. `no-400` is BENCH_10's
/// incremental edit. `odd-axes` makes every fiber length a non-multiple
/// of 64 (5 oversampling × 7 area values), reorders preferences, drops a
/// nanostructure and tightens the session budget so the schedule pass
/// refutes more.
fn boxes(panel: &PanelSpec) -> Vec<(&'static str, ExploreSpec)> {
    let standard = ExploreSpec::standard(panel.clone());
    let mut no_400 = standard.clone();
    no_400.space.area_pct.retain(|&a| a != 400);
    let mut odd = standard.clone();
    odd.space.nanostructures.remove(1);
    odd.space.preferences.reverse();
    odd.space.adc_bits = (7..=15).collect();
    odd.space.oversampling = vec![1, 3, 8, 27, 100];
    odd.space.area_pct = vec![30, 60, 100, 150, 225, 300, 380];
    odd.session_budget = Seconds::new(600.0);
    vec![
        ("standard", standard),
        ("no-400", no_400),
        ("odd-axes", odd),
    ]
}

fn render(out: &mut String, panel: &str, space: &str, o: &ExploreOutcome) {
    let _ = writeln!(
        out,
        "{panel} / {space}: points={} statically_rejected={} band={} digest={:016x}",
        o.total_points,
        o.statically_rejected,
        o.band.len(),
        o.frontier_digest
    );
    for r in &o.reports {
        let _ = writeln!(
            out,
            "  {} in={} out={} classes_evaluated={}",
            r.pass, r.points_in, r.points_out, r.classes_evaluated
        );
        for b in &r.rejects {
            let _ = writeln!(
                out,
                "    {:?} classes={} points={}",
                b.reason, b.classes, b.points
            );
        }
    }
}

/// Renders every panel on every box under `policy` and compares it with
/// the fixture line by line.
fn check_golden(policy: ExecPolicy) {
    let mut got = String::new();
    for (panel_name, panel) in panels() {
        for (space_name, spec) in boxes(&panel) {
            let outcome = explore(&spec, policy).expect("a BENCH_10 panel explores");
            render(&mut got, panel_name, space_name, &outcome);
        }
    }
    let want = include_str!("golden/pass_reports.txt");
    if got != want {
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "{policy:?}: first differing line is {}", i + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "line count");
    }
}

#[test]
fn pass_reports_match_the_recorded_golden() {
    check_golden(ExecPolicy::Auto);
}

/// The nanostructure blocks run one per item: a single worker and two
/// workers must both reproduce the fixture.
#[test]
fn pass_reports_match_the_golden_sequentially_and_on_two_threads() {
    check_golden(ExecPolicy::Sequential);
    check_golden(ExecPolicy::Threads(2));
}
