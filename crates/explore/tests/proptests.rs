//! Property-based tests pinning the class-factored pipeline to per-point
//! ground truth: every class-table entry against the per-point closed
//! forms, exact-frontier-vs-brute-force on random subsampled spaces, the
//! Dominated bucket against per-point counts (tie-heavy single-target
//! panels included), pass-order independence, exec-policy independence,
//! and the bit-coupling of the surrogate to the core analytic model.

use bios_biochem::Analyte;
use bios_electrochem::Nanostructure;
use bios_explore::{
    afe_incompatibility, brute_force_band, cost_scalar, evaluate_static, explore,
    explore_with_manager, session_time_s, surrogate_lod, worst_margin, ClassTables, ExploreOutcome,
    ExplorePoint, ExploreSpace, ExploreSpec, PanelContext, PassId, PassManager, RejectReason,
};
use bios_platform::{
    predict_lod, required_lod, DesignPoint, ExecPolicy, PanelSpec, ProbePreference, ReadoutSharing,
    TargetSpec,
};
use bios_units::Seconds;
use proptest::prelude::*;
use std::collections::BTreeSet;

const SENSABLE: [Analyte; 8] = [
    Analyte::Glucose,
    Analyte::Lactate,
    Analyte::Glutamate,
    Analyte::Cholesterol,
    Analyte::Benzphetamine,
    Analyte::Aminopyrine,
    Analyte::Clozapine,
    Analyte::Lidocaine,
];

fn arbitrary_panel() -> impl Strategy<Value = PanelSpec> {
    prop::collection::vec(0usize..SENSABLE.len(), 1..5).prop_map(move |idxs| {
        idxs.into_iter()
            .map(|i| TargetSpec::typical(SENSABLE[i]))
            .collect()
    })
}

/// A random subsampled space of one to four nanostructure blocks (the
/// pipeline's fan-out items) and at most 1 152 points. Blocks of 1 to
/// 288 ranks start at every word offset, so the per-block alive sets and
/// their rank offsets are exercised unaligned. The properties still skip
/// spaces above 4 096 points, the size the O(n²) brute-force oracle is
/// budgeted for in CI (its hard cap is 65 536).
fn arbitrary_space() -> impl Strategy<Value = ExploreSpace> {
    let nano = prop::collection::vec(0usize..4, 1..5);
    let sharing = 0usize..3; // 0 = shared, 1 = dedicated, 2 = both
    let chopcds = 0usize..4; // two bools: singleton or both, per axis
    let bits = prop::collection::vec(6u8..17, 1..3);
    let prefs = 0usize..3;
    let ovs = prop::collection::vec(0usize..10, 1..3);
    let area = prop::collection::vec(1u32..17, 1..4);
    ((nano, sharing, chopcds), (bits, prefs), (ovs, area)).prop_map(
        |((nano, sharing, chopcds), (mut bits, prefs), (ovs, mut area))| {
            let all_nano = [
                Nanostructure::None,
                Nanostructure::GoldNanoparticles,
                Nanostructure::CobaltOxide,
                Nanostructure::CarbonNanotubes,
            ];
            let all_ovs = [1u16, 2, 4, 8, 16, 32, 64, 128, 256, 512];
            let mut nanos: Vec<Nanostructure> = nano.into_iter().map(|i| all_nano[i]).collect();
            nanos.sort();
            nanos.dedup();
            bits.sort_unstable();
            bits.dedup();
            let mut ovs: Vec<u16> = ovs.into_iter().map(|i| all_ovs[i]).collect();
            ovs.sort_unstable();
            ovs.dedup();
            area.sort_unstable();
            area.dedup();
            ExploreSpace {
                nanostructures: nanos,
                sharing: match sharing {
                    0 => vec![ReadoutSharing::Shared],
                    1 => vec![ReadoutSharing::Dedicated],
                    _ => vec![ReadoutSharing::Shared, ReadoutSharing::Dedicated],
                },
                chopper: if chopcds & 1 == 0 {
                    vec![false, true]
                } else {
                    vec![true]
                },
                cds: if chopcds & 2 == 0 {
                    vec![false, true]
                } else {
                    vec![false]
                },
                adc_bits: bits,
                preferences: match prefs {
                    0 => vec![ProbePreference::MinimizeElectrodes],
                    1 => vec![
                        ProbePreference::PreferOxidase,
                        ProbePreference::PreferCytochrome,
                    ],
                    _ => vec![
                        ProbePreference::MinimizeElectrodes,
                        ProbePreference::PreferOxidase,
                        ProbePreference::PreferCytochrome,
                    ],
                },
                oversampling: ovs,
                area_pct: area.into_iter().map(|k| k * 25).collect(),
            }
        },
    )
}

fn arbitrary_spec() -> impl Strategy<Value = ExploreSpec> {
    (arbitrary_panel(), arbitrary_space(), 0usize..3).prop_map(|(panel, space, b)| ExploreSpec {
        panel,
        space,
        session_budget: Seconds::new([300.0, 1800.0, 7200.0][b]),
    })
}

/// A single-target panel over a space with both sharing options and all
/// three preferences: on one working electrode, sharing and preference
/// often give bit-identical bills, so many points share each
/// `(cost, margin)` pair.
fn tie_heavy_spec() -> impl Strategy<Value = ExploreSpec> {
    (0usize..SENSABLE.len(), arbitrary_spec()).prop_map(|(t, spec)| ExploreSpec {
        panel: [TargetSpec::typical(SENSABLE[t])].into_iter().collect(),
        space: ExploreSpace {
            sharing: vec![ReadoutSharing::Shared, ReadoutSharing::Dedicated],
            preferences: vec![
                ProbePreference::MinimizeElectrodes,
                ProbePreference::PreferOxidase,
                ProbePreference::PreferCytochrome,
            ],
            ..spec.space
        },
        ..spec
    })
}

/// The Dominated bucket computed per point, the way
/// [`brute_force_band`] evaluates the space: `(distinct dominated
/// (cost, margin) bit pairs, dominated points)`, where a dominated point
/// is a feasible point outside the band.
fn per_point_dominated(spec: &ExploreSpec, band: &[(u64, f64, f64)]) -> (u64, u64) {
    let cx = PanelContext::for_spec(spec).expect("context");
    let in_band: BTreeSet<u64> = band.iter().map(|&(rank, _, _)| rank).collect();
    let budget_s = spec.session_budget.value();
    let mut pairs = BTreeSet::new();
    let mut points = 0u64;
    for (rank, point) in spec.space.iter().enumerate() {
        let sk = cx
            .skeleton(point.base.preference, point.base.sharing, point.base.cds)
            .expect("skeleton");
        let eval = evaluate_static(&spec.panel, &sk, budget_s, &point).expect("static eval");
        if eval.reject.is_none() && !in_band.contains(&(rank as u64)) {
            points += 1;
            pairs.insert((eval.cost.to_bits(), eval.margin.to_bits()));
        }
    }
    (pairs.len() as u64, points)
}

/// The Dominance pass's `(classes, points)`; `(0, 0)` without a bucket.
fn dominated_bucket(outcome: &ExploreOutcome) -> (u64, u64) {
    let report = outcome
        .reports
        .iter()
        .find(|r| r.pass == PassId::Dominance.name())
        .expect("dominance ran");
    match report.rejects.as_slice() {
        [] => (0, 0),
        [bucket] => {
            assert_eq!(bucket.reason, RejectReason::Dominated);
            (bucket.classes, bucket.points)
        }
        more => panic!("dominance has {} buckets", more.len()),
    }
}

/// The `k`-th permutation of the four passes (factorial number system).
fn permutation(k: usize) -> [PassId; 4] {
    let mut pool = PassId::STANDARD.to_vec();
    let mut out = [PassId::Dominance; 4];
    let mut k = k % 24;
    let mut radix = 6; // 3!
    for (slot, item) in out.iter_mut().enumerate() {
        let idx = k / radix;
        *item = pool.remove(idx);
        k %= radix;
        if slot < 2 {
            radix /= 3 - slot;
        } else {
            radix = 1;
        }
    }
    out
}

proptest! {
    // Over half the random panels name a target without a calibration
    // row, which fails the table build; the extra cases keep the number
    // of fully checked tables up. Each case is cheap (≤ a few hundred
    // points, no simulation).
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every class-table entry equals the per-point closed forms bit for
    /// bit, at every point of its class's fiber (the class representative
    /// included) — rejected classes too, not just the surviving band.
    #[test]
    fn class_tables_match_per_point_closed_forms(spec in arbitrary_spec()) {
        if spec.space.len() > 4096 {
            return Ok(());
        }
        let Ok(cx) = PanelContext::for_spec(&spec) else {
            // The builder rejects the panel; explore fails the same way.
            prop_assert!(explore(&spec, ExecPolicy::Sequential).is_err());
            return Ok(());
        };
        let tables = match ClassTables::build(&spec, &cx) {
            Ok(tables) => tables,
            Err(e) => {
                // A target without a calibration row: the per-point closed
                // forms and the pipeline refuse the panel too.
                let point = spec.space.point_at(0).expect("non-empty space");
                prop_assert!(worst_margin(&spec.panel, &point).is_err(), "tables err {}", e);
                prop_assert!(explore(&spec, ExecPolicy::Sequential).is_err());
                return Ok(());
            }
        };
        for (rank, point) in spec.space.iter().enumerate() {
            let entry = tables.entry(rank as u64).expect("rank in range");
            let margin = worst_margin(&spec.panel, &point).expect("margin");
            prop_assert_eq!(entry.margin.to_bits(), margin.to_bits(), "rank {}", rank);
            let mut lod_culprit = None;
            for target in spec.panel.targets() {
                let lod = surrogate_lod(target.analyte, &point).expect("lod");
                if required_lod(target).expect("requirement").value() / lod < 1.0 {
                    lod_culprit = Some(target.analyte);
                    break;
                }
            }
            prop_assert_eq!(entry.lod_culprit, lod_culprit, "rank {}", rank);
            let afe = afe_incompatibility(
                &spec.panel,
                point.base.nanostructure,
                point.base.adc_bits,
            )
            .expect("afe");
            prop_assert_eq!(entry.afe_culprit, afe, "rank {}", rank);
            let sk = cx
                .skeleton(point.base.preference, point.base.sharing, point.base.cds)
                .expect("skeleton");
            prop_assert_eq!(
                entry.session_s.to_bits(),
                session_time_s(&sk, point.oversampling).to_bits(),
                "rank {}", rank
            );
            prop_assert_eq!(
                entry.cost.to_bits(),
                cost_scalar(&sk, &point).to_bits(),
                "rank {}", rank
            );
        }
        prop_assert!(tables.entry(spec.space.len()).is_none());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The class-factored pipeline reproduces the per-point brute-force
    /// frontier exactly: same ranks, same cost bits, same margin bits.
    #[test]
    fn pipeline_band_equals_brute_force(spec in arbitrary_spec()) {
        if spec.space.len() > 4096 {
            return Ok(());
        }
        let outcome = match explore(&spec, ExecPolicy::Sequential) {
            Ok(o) => o,
            Err(e) => {
                // A panel the platform builder rejects must be rejected
                // identically by the oracle (both fail in context build).
                prop_assert!(brute_force_band(&spec).is_err(), "pipeline err {e} but oracle ok");
                return Ok(());
            }
        };
        let oracle = brute_force_band(&spec).expect("oracle");
        prop_assert_eq!(outcome.band.len(), oracle.len());
        for (d, &(rank, cost, margin)) in outcome.band.iter().zip(oracle.iter()) {
            prop_assert_eq!(d.rank, rank);
            prop_assert_eq!(d.surrogate_cost.to_bits(), cost.to_bits());
            prop_assert_eq!(d.surrogate_margin.to_bits(), margin.to_bits());
        }
        prop_assert_eq!(
            outcome.statically_rejected + outcome.band.len() as u64,
            outcome.total_points
        );
    }

    /// The Dominated bucket equals its per-point definition: `points` is
    /// feasible minus band, `classes` the distinct dominated `(cost,
    /// margin)` bit pairs — on random spaces and on tie-heavy
    /// single-target ones, where sharing and preference give
    /// bit-identical bills.
    #[test]
    fn dominated_bucket_matches_per_point_counts(
        random in arbitrary_spec(),
        tied in tie_heavy_spec(),
    ) {
        for spec in [random, tied] {
            if spec.space.len() > 4096 {
                continue;
            }
            let Ok(outcome) = explore(&spec, ExecPolicy::Sequential) else {
                prop_assert!(brute_force_band(&spec).is_err());
                continue;
            };
            let oracle = brute_force_band(&spec).expect("oracle");
            prop_assert_eq!(dominated_bucket(&outcome), per_point_dominated(&spec, &oracle));
        }
    }

    /// Any permutation of the pruning passes yields the same surviving set
    /// and the same frontier digest.
    #[test]
    fn pass_order_is_irrelevant(spec in arbitrary_spec(), k in 0usize..24) {
        if spec.space.len() > 4096 {
            return Ok(());
        }
        let standard = match explore(&spec, ExecPolicy::Sequential) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        let permuted = explore_with_manager(
            &spec,
            &PassManager::with_order(&permutation(k)).expect("order"),
            ExecPolicy::Sequential,
        )
        .expect("permuted run");
        prop_assert_eq!(standard.frontier_digest, permuted.frontier_digest);
        prop_assert_eq!(&standard.band, &permuted.band);
        prop_assert_eq!(standard.statically_rejected, permuted.statically_rejected);
    }

    /// Exec policy never changes the answer: the per-block prune and its
    /// merge are bit-identical for any thread count, under any pass
    /// order — every report must agree, not only the band.
    #[test]
    fn exec_policy_is_irrelevant(spec in arbitrary_spec(), k in 0usize..24) {
        if spec.space.len() > 4096 {
            return Ok(());
        }
        let manager = PassManager::with_order(&permutation(k)).expect("order");
        let seq = match explore_with_manager(&spec, &manager, ExecPolicy::Sequential) {
            Ok(o) => o,
            Err(_) => return Ok(()),
        };
        for threads in [2, 3] {
            let par = explore_with_manager(&spec, &manager, ExecPolicy::Threads(threads))
                .expect("threads run");
            prop_assert_eq!(seq.frontier_digest, par.frontier_digest);
            prop_assert_eq!(&seq.band, &par.band);
            prop_assert_eq!(&seq.reports, &par.reports);
        }
    }

    /// At the reference coordinates (oversampling 1, area 100%) the
    /// surrogate is the core analytic model, bit for bit.
    #[test]
    fn surrogate_is_bit_coupled_to_predict_lod(
        t in 0usize..SENSABLE.len(),
        n in 0usize..4,
        sharing in 0usize..2,
        chopper in 0usize..2,
        cds in 0usize..2,
        bits in 6u8..17,
        pf in 0usize..3,
    ) {
        let base = DesignPoint {
            nanostructure: [
                Nanostructure::None,
                Nanostructure::GoldNanoparticles,
                Nanostructure::CobaltOxide,
                Nanostructure::CarbonNanotubes,
            ][n],
            sharing: if sharing == 0 {
                ReadoutSharing::Shared
            } else {
                ReadoutSharing::Dedicated
            },
            chopper: chopper == 1,
            cds: cds == 1,
            adc_bits: bits,
            preference: [
                ProbePreference::MinimizeElectrodes,
                ProbePreference::PreferOxidase,
                ProbePreference::PreferCytochrome,
            ][pf],
        };
        let point = ExplorePoint { base, oversampling: 1, area_pct: 100 };
        match predict_lod(SENSABLE[t], &base) {
            Ok(core) => {
                let here = surrogate_lod(SENSABLE[t], &point).expect("surrogate");
                prop_assert_eq!(core.value().to_bits(), here.to_bits());
            }
            Err(_) => {
                // No probe can sense this analyte under this preference:
                // the surrogate must refuse the same coordinates.
                prop_assert!(surrogate_lod(SENSABLE[t], &point).is_err());
            }
        }
    }
}

/// On a glucose-only panel every `(sharing, preference)` pair of a
/// `(chopper, cds, adc_bits)` class prices the same, so dominated points
/// outnumber their distinct `(cost, margin)` pairs; the bucket still
/// equals the per-point count.
#[test]
fn single_target_ties_are_counted_by_multiplicity() {
    let mut spec = ExploreSpec::standard(
        [TargetSpec::typical(Analyte::Glucose)]
            .into_iter()
            .collect(),
    );
    spec.space.adc_bits = vec![12, 16];
    spec.space.oversampling = vec![1, 8];
    spec.space.area_pct = vec![50, 100, 200];
    let outcome = explore(&spec, ExecPolicy::Sequential).expect("explore");
    let oracle = brute_force_band(&spec).expect("oracle");
    let (classes, points) = dominated_bucket(&outcome);
    assert_eq!((classes, points), per_point_dominated(&spec, &oracle));
    assert!(
        points > classes,
        "{points} dominated points in {classes} pairs"
    );
}
