//! Pipeline driver, frontier digest and the brute-force oracle.

use bios_platform::{try_par_map, ExecPolicy};

use crate::context::PanelContext;
use crate::error::ExploreError;
use crate::hash::Fnv;
use crate::model::evaluate_static;
use crate::passes::{merge_blocks, prune_block, PassManager, PassReport, Pruned};
use crate::shard::{partition, score_band, ScoredDesign};
use crate::space::ExploreSpec;
use crate::tables::{ClassTables, SharedTables};

/// Everything one exploration run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreOutcome {
    /// Points in the full space.
    pub total_points: u64,
    /// One report per pass, in run order, plus the scoring summary the
    /// caller derives from the fields below.
    pub reports: Vec<PassReport>,
    /// Points statically rejected before any simulation.
    pub statically_rejected: u64,
    /// `statically_rejected / total_points`.
    pub rejection_ratio: f64,
    /// Shards the surviving band partitioned into.
    pub shard_count: u64,
    /// Shards replayed from the content-hash cache during this run.
    pub replayed_shards: u64,
    /// FNV-1a digest of the scored band — two runs that agree here agree
    /// on every rank, coordinate and metric bit.
    pub frontier_digest: u64,
    /// The surviving exact Pareto band, scored and fully simulated,
    /// rank-ascending.
    pub band: Vec<ScoredDesign>,
}

/// Digest of a scored band: every rank, coordinate and metric bit.
pub fn band_digest(band: &[ScoredDesign]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(band.len() as u64);
    for d in band {
        h.write_u64(d.rank);
        h.write_f64(d.point.base.nanostructure.roughness_factor());
        h.write_u8(crate::context::sharing_ordinal(d.point.base.sharing));
        h.write_bool(d.point.base.chopper);
        h.write_bool(d.point.base.cds);
        h.write_u8(d.point.base.adc_bits);
        h.write_u8(crate::context::pref_ordinal(d.point.base.preference));
        h.write_u64(u64::from(d.point.oversampling));
        h.write_u64(u64::from(d.point.area_pct));
        h.write_f64(d.surrogate_cost);
        h.write_f64(d.surrogate_margin);
        h.write_f64(d.session_s);
        h.write_bool(d.simulated.feasible);
        h.write_f64(d.simulated.worst_lod_margin);
        h.write_f64(d.simulated.cost.scalar());
    }
    h.finish()
}

/// Runs `manager`'s pipeline over `spec`: prune, partition, score.
///
/// The prune is one [`try_par_map`] item per nanostructure block under
/// `policy`: each item builds the block's tables, runs every pass over
/// the block's contiguous rank range and ranks its dominance rows down to
/// a local skyline; a short sequential merge settles dominance across
/// blocks and sums the blocks' shares of each report. The band's shards
/// are then scored on the calling thread. The outcome is the same bits
/// under every policy.
pub fn explore_with_manager(
    spec: &ExploreSpec,
    manager: &PassManager,
    policy: ExecPolicy,
) -> Result<ExploreOutcome, ExploreError> {
    spec.validate()?;
    let cx = PanelContext::for_spec(spec)?;
    let shared = SharedTables::build(spec, &cx)?;
    let order = manager.order();
    let blocks = try_par_map(policy, &spec.space.nanostructures, |n, _| {
        prune_block(spec, &shared, n, order)
    })?;
    let pruned = merge_blocks(spec, &shared, order, blocks);
    let total_points = spec.space.len();
    let surviving = pruned.surviving();
    let shards = partition(spec, pruned.alive_ranks())?;
    let Pruned {
        reports,
        tables: blocks,
        ..
    } = pruned;
    let tables = ClassTables { shared, blocks };
    let (band, replayed_shards) = score_band(spec, &tables, &shards)?;
    let statically_rejected = total_points - surviving;
    Ok(ExploreOutcome {
        total_points,
        reports,
        statically_rejected,
        rejection_ratio: if total_points == 0 {
            0.0
        } else {
            statically_rejected as f64 / total_points as f64
        },
        shard_count: shards.len() as u64,
        replayed_shards,
        frontier_digest: band_digest(&band),
        band,
    })
}

/// The standard pipeline at the standard order.
pub fn explore(spec: &ExploreSpec, policy: ExecPolicy) -> Result<ExploreOutcome, ExploreError> {
    explore_with_manager(spec, &PassManager::standard(), policy)
}

/// Largest space the brute-force oracle accepts (it is O(n²)).
pub const BRUTE_FORCE_CAP: u64 = 65_536;

/// The reference semantics, computed the slow way: evaluate the full
/// static predicate at *every* point, then O(n²) Pareto filtering with
/// the same tie rules as [`bios_platform::pareto_front`]. Returns
/// `(rank, cost, margin)` of every survivor, rank-ascending. Exists so
/// proptests can pin the pipeline's class-factored answer to a
/// per-point ground truth; refuses spaces above [`BRUTE_FORCE_CAP`].
pub fn brute_force_band(spec: &ExploreSpec) -> Result<Vec<(u64, f64, f64)>, ExploreError> {
    spec.validate()?;
    if spec.space.len() > BRUTE_FORCE_CAP {
        return Err(ExploreError::invalid(
            "space",
            format!("brute-force oracle is capped at {BRUTE_FORCE_CAP} points"),
        ));
    }
    let cx = PanelContext::for_spec(spec)?;
    let budget_s = spec.session_budget.value();
    let mut feasible = Vec::new();
    for (rank, point) in spec.space.iter().enumerate() {
        let sk = cx.skeleton(point.base.preference, point.base.sharing, point.base.cds)?;
        let eval = evaluate_static(&spec.panel, &sk, budget_s, &point)?;
        if eval.reject.is_none() {
            feasible.push((rank as u64, eval.cost, eval.margin));
        }
    }
    let mut band = Vec::new();
    for (k, &(rank, cost, margin)) in feasible.iter().enumerate() {
        let dominated = feasible
            .iter()
            .enumerate()
            .any(|(j, &(_, c, m))| j != k && c <= cost && m >= margin && (c < cost || m > margin));
        if !dominated {
            band.push((rank, cost, margin));
        }
    }
    Ok(band)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::ExploreSpace;
    use bios_biochem::Analyte;
    use bios_platform::{PanelSpec, TargetSpec};

    fn small_spec() -> ExploreSpec {
        let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
        spec.space = ExploreSpace {
            nanostructures: vec![
                bios_electrochem::Nanostructure::CarbonNanotubes,
                bios_electrochem::Nanostructure::None,
            ],
            adc_bits: vec![10, 14, 16],
            oversampling: vec![1, 16],
            area_pct: vec![100, 400],
            ..ExploreSpace::standard_box()
        };
        spec
    }

    #[test]
    fn pipeline_matches_brute_force_on_a_small_space() {
        let spec = small_spec();
        let outcome = explore(&spec, ExecPolicy::Sequential).expect("pipeline");
        let oracle = brute_force_band(&spec).expect("oracle");
        let got: Vec<(u64, u64, u64)> = outcome
            .band
            .iter()
            .map(|d| {
                (
                    d.rank,
                    d.surrogate_cost.to_bits(),
                    d.surrogate_margin.to_bits(),
                )
            })
            .collect();
        let want: Vec<(u64, u64, u64)> = oracle
            .iter()
            .map(|&(r, c, m)| (r, c.to_bits(), m.to_bits()))
            .collect();
        assert_eq!(got, want);
        assert_eq!(
            outcome.statically_rejected,
            outcome.total_points - outcome.band.len() as u64
        );
    }

    #[test]
    fn rerun_is_bit_identical_and_replays_shards() {
        // The shard cache is process-global and tests run in parallel, so
        // no test clears it; a cold run instead needs shard keys no other
        // test can insert, i.e. a panel no other test explores.
        let spec = ExploreSpec {
            panel: [Analyte::Glutamate, Analyte::Cholesterol]
                .into_iter()
                .map(TargetSpec::typical)
                .collect(),
            ..small_spec()
        };
        let cold = explore(&spec, ExecPolicy::Sequential).expect("cold");
        let warm = explore(&spec, ExecPolicy::Sequential).expect("warm");
        assert_eq!(cold.frontier_digest, warm.frontier_digest);
        assert_eq!(cold.band, warm.band);
        assert!(cold.shard_count > 0);
        assert_eq!(warm.replayed_shards, warm.shard_count);
        assert_eq!(cold.replayed_shards, 0);
    }

    #[test]
    fn pass_order_does_not_change_the_band() {
        use crate::passes::PassId;
        let spec = small_spec();
        let standard = explore(&spec, ExecPolicy::Sequential).expect("standard");
        let reversed = explore_with_manager(
            &spec,
            &PassManager::with_order(&[
                PassId::Dominance,
                PassId::SessionSchedule,
                PassId::AfeRange,
                PassId::LodFeasibility,
            ])
            .expect("order"),
            ExecPolicy::Sequential,
        )
        .expect("reversed");
        assert_eq!(standard.frontier_digest, reversed.frontier_digest);
        assert_eq!(standard.band, reversed.band);
    }
}
