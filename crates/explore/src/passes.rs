//! The pruning pass pipeline.
//!
//! Structured like a compiler: a [`PassManager`] runs typed passes over the
//! rank space, each pass proving points *out* instead of evaluating points
//! in. Three design rules make the pipeline auditable and order-independent:
//!
//! 1. **Passes are pure space-level predicates.** A pass computes its
//!    verdicts from the [`ExploreSpec`]'s class tables only — never
//!    from which points earlier passes already killed. Marking a
//!    dead point dead again is a no-op, so the surviving set is the
//!    intersection of per-pass survivor sets and is invariant under any
//!    permutation of the pass order (a proptest pins this).
//! 2. **Verdicts are per class, not per point.** Each pass projects the
//!    space onto the axes its model actually reads, reads one table entry
//!    per projected class, and extends the verdict over the class's whole
//!    fiber. The tables are built once per query and shared by all
//!    passes, so a ≥10⁶-point space needs ~10⁴–10⁵ closed-form
//!    evaluations, not 10⁶ simulations.
//! 3. **Every refutation carries a [`RejectReason`].** Reports bucket
//!    rejections by reason with class and point counts, so a run reads
//!    like a lint report: what was proven, about how much, from how few
//!    premises.
//!
//! The work is class-granular end to end; nothing visits points one by
//! one:
//!
//! * **One nanostructure block per item.** Ranks are nanostructure-major,
//!   so nanostructure `n` owns the contiguous ranks `n·|block|..(n+1)·|block|`.
//!   [`prune_block`] is one [`bios_platform::try_par_map`] item under the
//!   query's policy: it builds the block's tables ([`BlockTables`]), runs
//!   every pass of the run order over the block's own alive bitmap
//!   (bit 0 = the block's first rank, so no block needs to be
//!   word-aligned), counts the block's survivors after each pass, and
//!   ranks the block's dominance rows down to a local skyline.
//!   [`merge_blocks`] then runs sequentially on short inputs.
//! * **Mask sweeps.** A fiber is a set of bit runs in rank order, so the
//!   feasibility passes clear the alive bitmap a run or a word at a time:
//!   an AFE class `(n, ab)` is one run of `pf × os × ar` ranks per
//!   `(s, ch, cd)`, a schedule class one run of `ar` ranks per
//!   `(n, ch, ab)`, and the LOD pass turns the `os × ar` margins of one
//!   `(n, ch, cd, ab)` into one bit pattern cleared from each `(s, pf)`
//!   run.
//! * **Dominance over bill-group rows.** Points of one margin class whose
//!   `(sharing, preference)` give bit-identical bills share cost and
//!   margin bits, so Dominance ranks one row per feasible
//!   `(margin class, bill group)` (see [`crate::tables`]) and expands
//!   dominated rows back to their member ranks. A verdict reads only the
//!   `(cost, margin)` pair, so this is exact; the Dominated bucket counts
//!   points by multiplicity and classes as distinct pairs.
//! * **Skyline merge.** Dominance is a strict partial order under the tie
//!   rules (transitive, irreflexive), so a row dominated inside its block
//!   is dominated globally, and a row dominated globally is dominated by
//!   some row no other row of *its* block dominates. The globally
//!   dominated rows are therefore each block's local losers plus what one
//!   sweep over the merged, sorted local skylines kills. Those rows are
//!   feasible, so no other pass refuted them: they leave the per-block
//!   counts from the Dominance pass on, which keeps every report's
//!   `points_in`/`points_out` exact for any pass order. Distinct
//!   dominated pairs are counted across blocks, so a pair dominated in
//!   two blocks is one class.

use std::collections::BTreeMap;

use bios_biochem::Analyte;

use crate::error::ExploreError;
use crate::model::RejectReason;
use crate::space::{AxisSizes, ExploreSpec};
use crate::tables::{BillGroups, BlockTables, SharedTables};

/// A fixed-size bitmap over one nanostructure block's ranks; bit set =
/// point still alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    pub(crate) fn all_set(len: u64) -> Self {
        let nwords = len.div_ceil(64) as usize;
        let mut words = vec![u64::MAX; nwords];
        if let Some(last) = words.last_mut() {
            let tail = (len % 64) as u32;
            if tail != 0 {
                *last = (1u64 << tail) - 1;
            }
        }
        Self { words }
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: u64) {
        self.words[(i >> 6) as usize] &= !(1u64 << (i & 63));
    }

    /// Clears the `len` bits starting at `start`, a word at a time.
    // advdiag::hot — run-clearing kernel of the feasibility sweeps
    pub(crate) fn clear_run(&mut self, start: u64, len: u64) {
        if len == 0 {
            return;
        }
        let last = start + len - 1;
        let (w0, w1) = ((start >> 6) as usize, (last >> 6) as usize);
        let lo = u64::MAX << (start & 63);
        let hi = u64::MAX >> (63 - (last & 63));
        if w0 == w1 {
            self.words[w0] &= !(lo & hi);
            return;
        }
        self.words[w0] &= !lo;
        for w in &mut self.words[w0 + 1..w1] {
            *w = 0;
        }
        self.words[w1] &= !hi;
    }

    /// Clears bit `start + k` for every set bit `k` of `pattern`, a word at
    /// a time. The pattern's bits must all lie inside the bitmap.
    // advdiag::hot — pattern-clearing kernel of the feasibility sweeps
    pub(crate) fn clear_pattern(&mut self, start: u64, pattern: &[u64]) {
        let w0 = (start >> 6) as usize;
        let shift = (start & 63) as u32;
        for (k, &p) in pattern.iter().enumerate() {
            if p == 0 {
                continue;
            }
            self.words[w0 + k] &= !(p << shift);
            if shift != 0 {
                let spill = p >> (64 - shift);
                if spill != 0 {
                    self.words[w0 + k + 1] &= !spill;
                }
            }
        }
    }

    pub(crate) fn count(&self) -> u64 {
        let mut total = 0u64;
        for w in &self.words {
            total += u64::from(w.count_ones());
        }
        total
    }

    /// Set ranks, ascending, found word by word with `trailing_zeros`.
    pub(crate) fn iter_set(&self) -> impl Iterator<Item = u64> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = (i as u64) << 6;
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let bit = u64::from(rest.trailing_zeros());
                rest &= rest - 1;
                Some(base + bit)
            })
        })
    }
}

/// Which pass to run; the order is a caller choice and, by construction,
/// does not change the surviving set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum PassId {
    /// Closed-form LOD feasibility per `(nanostructure, chopper, cds,
    /// adc_bits, oversampling, area)` class.
    LodFeasibility,
    /// Derived-range realizability per `(nanostructure, adc_bits)` class.
    AfeRange,
    /// Session-duration budget per `(sharing, cds, preference,
    /// oversampling)` class.
    SessionSchedule,
    /// Exact Pareto dominance on `(cost, margin)` over the feasible set.
    Dominance,
}

impl PassId {
    /// The canonical order (cheapest proofs first).
    pub const STANDARD: [PassId; 4] = [
        PassId::LodFeasibility,
        PassId::AfeRange,
        PassId::SessionSchedule,
        PassId::Dominance,
    ];

    /// Stable name used in reports and bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            PassId::LodFeasibility => "lod-feasibility",
            PassId::AfeRange => "afe-range",
            PassId::SessionSchedule => "session-schedule",
            PassId::Dominance => "dominance",
        }
    }
}

/// One reason-bucket in a pass report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RejectBucket {
    /// The machine-readable refutation.
    pub reason: RejectReason,
    /// Distinct projected classes this reason refuted.
    pub classes: u64,
    /// Points covered by those classes' fibers.
    pub points: u64,
}

/// What one pass did — points in/out and the proof categories.
///
/// `points_in`/`points_out` describe the alive set around *this run order*;
/// the reason buckets are order-independent because every pass judges the
/// full space (a point refutable by two passes appears in both passes'
/// buckets).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PassReport {
    /// Pass name (see [`PassId::name`]).
    pub pass: String,
    /// Alive points before the pass, in this run order.
    pub points_in: u64,
    /// Alive points after the pass, in this run order.
    pub points_out: u64,
    /// Closed-form classes the pass's verdict reads. The class tables
    /// every pass shares are built once per query, so this counts what a
    /// verdict rests on, not work the pass itself performed.
    pub classes_evaluated: u64,
    /// Refutations, bucketed by reason.
    pub rejects: Vec<RejectBucket>,
}

/// Clears every point of a block's infeasible margin classes from the
/// block's `alive` set. Per `(ch, cd, ab)` the `os × ar` block of margins
/// is one contiguous bit pattern (`pattern`, sized `⌈os·ar / 64⌉` words
/// by the caller), cleared from each `(sharing, preference)` run of the
/// class.
// advdiag::hot — class-level LOD sweep: one pattern per (ch, cd, ab) of a block
fn clear_lod(sz: &AxisSizes, margins: &[f64], pattern: &mut [u64], alive: &mut BitSet) {
    let st = sz.strides();
    let run = sz.os * sz.ar;
    let mut block = 0usize;
    for ch in 0..sz.ch {
        for cd in 0..sz.cd {
            for ab in 0..sz.ab {
                for w in pattern.iter_mut() {
                    *w = 0;
                }
                let mut any = false;
                for k in 0..run {
                    if margins[block + k] < 1.0 {
                        pattern[k >> 6] |= 1u64 << (k & 63);
                        any = true;
                    }
                }
                block += run;
                if !any {
                    continue;
                }
                let base = ch as u64 * st.ch + cd as u64 * st.cd + ab as u64 * st.ab;
                for s in 0..sz.s {
                    for pf in 0..sz.pf {
                        alive.clear_pattern(base + s as u64 * st.s + pf as u64 * st.pf, pattern);
                    }
                }
            }
        }
    }
}

/// Clears every point of a block's refuted AFE classes (`afe` holds one
/// entry per `adc_bits` value): one run of `pf × os × ar` ranks per
/// `(sharing, chopper, cds)`.
// advdiag::hot — class-level AFE sweep: one run per refuted (s, ch, cd, ab) of a block
fn clear_afe(sz: &AxisSizes, afe: &[Option<Analyte>], alive: &mut BitSet) {
    let st = sz.strides();
    for (ab, culprit) in afe.iter().enumerate() {
        if culprit.is_none() {
            continue;
        }
        for s in 0..sz.s {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    let start =
                        s as u64 * st.s + ch as u64 * st.ch + cd as u64 * st.cd + ab as u64 * st.ab;
                    alive.clear_run(start, st.ab);
                }
            }
        }
    }
}

/// Clears every point of a block's over-budget `(s, cd, pf, os)` time
/// classes: one run of `ar` ranks per `(ch, ab)`.
// advdiag::hot — class-level schedule sweep: one run per refuted (s, ch, cd, ab, pf, os) of a block
fn clear_schedule(sz: &AxisSizes, times: &[f64], budget_s: f64, alive: &mut BitSet) {
    let st = sz.strides();
    for s in 0..sz.s {
        for cd in 0..sz.cd {
            for pf in 0..sz.pf {
                for os in 0..sz.os {
                    if times[sz.time_class(s, cd, pf, os)] <= budget_s {
                        continue;
                    }
                    for ch in 0..sz.ch {
                        for ab in 0..sz.ab {
                            let start = s as u64 * st.s
                                + ch as u64 * st.ch
                                + cd as u64 * st.cd
                                + ab as u64 * st.ab
                                + pf as u64 * st.pf
                                + os as u64 * st.os;
                            alive.clear_run(start, st.os);
                        }
                    }
                }
            }
        }
    }
}

/// Tallies infeasible margin classes per LOD culprit into `counts`, one
/// slot per distinct panel analyte.
// advdiag::hot — per-margin-class culprit tally of the LOD pass
fn count_lod_culprits(
    margins: &[f64],
    culprits: &[Option<Analyte>],
    counts: &mut [(Analyte, u64)],
) -> Result<(), ExploreError> {
    for (m, culprit) in margins.iter().zip(culprits) {
        if *m < 1.0 {
            let analyte = culprit.ok_or(ExploreError::Internal {
                what: "infeasible margin class with no culprit",
            })?;
            let slot =
                counts
                    .iter_mut()
                    .find(|(a, _)| *a == analyte)
                    .ok_or(ExploreError::Internal {
                        what: "LOD culprit outside the panel",
                    })?;
            slot.1 += 1;
        }
    }
    Ok(())
}

/// One feasible `(margin class, bill group)`: every member point of the
/// group at this margin class has exactly this cost and margin.
#[derive(Debug, Clone, Copy)]
struct GroupRow {
    cost: f64,
    margin: f64,
    /// Rank of the class's `(sharing, preference) = (0, 0)` point; members
    /// add their offsets to it.
    base: u64,
    /// Global bill-group index.
    group: u32,
}

impl GroupRow {
    /// The row's place in the dominance order as one integer: ascending
    /// keys sort rows by cost ascending, then margin descending (both as
    /// [`f64::total_cmp`] orders them), and equal keys are equal
    /// `(cost, margin)` bit pairs.
    fn key(&self) -> u128 {
        (u128::from(total_order_bits(self.cost)) << 64) | u128::from(!total_order_bits(self.margin))
    }
}

/// `x`'s bits, mapped so that unsigned integer order is
/// [`f64::total_cmp`] order.
fn total_order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// Appends one row per feasible `(margin class, bill group)` of block `n`
/// to `rows`. Refuted AFE classes are skipped whole, over-budget groups
/// per oversampling value, infeasible margin classes per row.
// advdiag::hot — class-level dominance sweep: one visit per (margin class, bill group)
fn fill_group_rows(
    t: &SharedTables,
    block: &BlockTables,
    n: usize,
    budget_s: f64,
    rows: &mut Vec<GroupRow>,
) {
    let sz = &t.sizes;
    let st = sz.strides();
    for ch in 0..sz.ch {
        for cd in 0..sz.cd {
            for ab in 0..sz.ab {
                if block.afe_culprits[ab].is_some() {
                    continue;
                }
                let span = t.groups.span((ch * sz.cd + cd) * sz.ab + ab);
                let base =
                    n as u64 * st.n + ch as u64 * st.ch + cd as u64 * st.cd + ab as u64 * st.ab;
                for os in 0..sz.os {
                    let first = sz.margin_class(0, ch, cd, ab, os, 0);
                    for g in span.start..span.end {
                        let grp = t.groups.group(g);
                        if t.times[grp.time + os] > budget_s {
                            continue;
                        }
                        for ar in 0..sz.ar {
                            let margin = block.margins[first + ar];
                            if margin < 1.0 {
                                continue;
                            }
                            rows.push(GroupRow {
                                cost: t.priced(grp.bill, os, ar),
                                margin,
                                base: base + os as u64 * st.os + ar as u64,
                                group: g as u32,
                            });
                        }
                    }
                }
            }
        }
    }
}

/// Marks dominated rows in the sorted dominance table.
///
/// Input rows are sorted by `(cost asc, margin desc)`. A row is dominated
/// iff a strictly cheaper row has margin ≥ its margin, or an equal-cost
/// row has strictly greater margin. Exact `(cost, margin)` ties all
/// survive — the same tie semantics as [`bios_platform::pareto_front`].
/// The verdict reads only the row's `(cost, margin)` pair, so rows of
/// equal pairs share it.
// advdiag::hot — single scan over the sorted dominance table
fn mark_dominated(rows: &[GroupRow], dominated: &mut [bool]) {
    let mut best_prev = f64::NEG_INFINITY; // best margin among strictly cheaper rows
    let mut g = 0usize; // group start
    while g < rows.len() {
        let cost_bits = rows[g].cost.to_bits();
        let mut end = g;
        while end < rows.len() && rows[end].cost.to_bits() == cost_bits {
            end += 1;
        }
        // Sorted margin-desc within the group, so the group max is first.
        let group_max = rows[g].margin;
        let mut k = g;
        while k < end {
            let margin = rows[k].margin;
            dominated[k] = best_prev >= margin || margin < group_max;
            k += 1;
        }
        if group_max > best_prev {
            best_prev = group_max;
        }
        g = end;
    }
}

/// Splits a block's sorted rows by verdict. Clears every member point of
/// each dominated row from the block's `alive` set, whose bit 0 is rank
/// `start`, and appends the keys of the distinct dominated `(cost,
/// margin)` pairs (adjacent in sorted order) to `pairs` and the
/// undominated rows — the block's skyline — to `skyline`. Returns the
/// points cleared.
// advdiag::hot — expands a block's dominated rows back to their member ranks
fn split_dominated(
    rows: &[GroupRow],
    dominated: &[bool],
    groups: &BillGroups,
    start: u64,
    alive: &mut BitSet,
    pairs: &mut Vec<u128>,
    skyline: &mut Vec<GroupRow>,
) -> u64 {
    let mut points = 0u64;
    let mut prev = None;
    for (row, &dom) in rows.iter().zip(dominated) {
        if !dom {
            skyline.push(*row);
            continue;
        }
        let key = row.key();
        if prev != Some(key) {
            pairs.push(key);
            prev = Some(key);
        }
        for &offset in groups.members(row.group as usize) {
            alive.clear(row.base - start + offset);
            points += 1;
        }
    }
    points
}

/// Ranks one block's dominance rows (sorting them) down to the block's
/// skyline; see [`split_dominated`] for the outputs.
fn local_skyline(
    rows: &mut [GroupRow],
    groups: &BillGroups,
    start: u64,
    alive: &mut BitSet,
    pairs: &mut Vec<u128>,
    skyline: &mut Vec<GroupRow>,
) -> u64 {
    rows.sort_unstable_by_key(GroupRow::key);
    let mut dominated = vec![false; rows.len()];
    mark_dominated(rows, &mut dominated);
    split_dominated(rows, &dominated, groups, start, alive, pairs, skyline)
}

/// One nanostructure block, pruned end to end: its tables, its alive
/// set, and its share of the pass reports.
pub(crate) struct BlockPrune {
    /// The block's margin, LOD-culprit and AFE tables.
    pub(crate) tables: BlockTables,
    /// The block's points no pass refuted, bit 0 = the block's first rank.
    alive: BitSet,
    /// The block's alive points after each pass of the run order.
    points_out: Vec<u64>,
    /// Infeasible margin classes per LOD culprit, one slot per distinct
    /// panel analyte in panel order.
    lod_counts: Vec<(Analyte, u64)>,
    /// Dominance rows no row of this block dominates, sorted.
    skyline: Vec<GroupRow>,
    /// The [`GroupRow::key`] of each distinct `(cost, margin)` pair this
    /// block dominates, ascending.
    dominated_pairs: Vec<u128>,
    /// Points of the rows this block dominates.
    dominated_points: u64,
}

/// Prunes nanostructure block `n` end to end: builds its tables, runs
/// each pass of `order` over its rank range, counting the survivors after
/// each, and ranks its dominance rows down to a local skyline. `shared`
/// holds the nanostructure-free tables.
// advdiag::cold(one nanostructure block of an explore query: allocates the
// block's tables, alive set and dominance rows once per block)
pub(crate) fn prune_block(
    spec: &ExploreSpec,
    shared: &SharedTables,
    n: usize,
    order: &[PassId],
) -> Result<BlockPrune, ExploreError> {
    let sz = shared.sizes;
    let st = sz.strides();
    let budget_s = spec.session_budget.value();
    let tables = BlockTables::build(spec, sz, n)?;
    let mut lod_counts: Vec<(Analyte, u64)> = Vec::new();
    for target in spec.panel.targets() {
        if !lod_counts.iter().any(|(a, _)| *a == target.analyte) {
            lod_counts.push((target.analyte, 0));
        }
    }
    let mut alive = BitSet::all_set(st.n);
    let mut points_out = Vec::with_capacity(order.len());
    let mut skyline = Vec::new();
    let mut dominated_pairs = Vec::new();
    let mut dominated_points = 0;
    for &pass in order {
        match pass {
            PassId::LodFeasibility => {
                let mut pattern = vec![0u64; (sz.os * sz.ar).div_ceil(64)];
                clear_lod(&sz, &tables.margins, &mut pattern, &mut alive);
                count_lod_culprits(&tables.margins, &tables.lod_culprits, &mut lod_counts)?;
            }
            PassId::AfeRange => clear_afe(&sz, &tables.afe_culprits, &mut alive),
            PassId::SessionSchedule => clear_schedule(&sz, &shared.times, budget_s, &mut alive),
            PassId::Dominance => {
                // Dominance re-derives feasibility from the tables, never
                // from the alive set, so its verdicts do not depend on
                // which passes ran before it. It ranks one row per
                // feasible (margin class, bill group): a verdict reads
                // only the (cost, margin) pair, which every member of the
                // row shares.
                let mut rows = Vec::new();
                fill_group_rows(shared, &tables, n, budget_s, &mut rows);
                dominated_points = local_skyline(
                    &mut rows,
                    &shared.groups,
                    n as u64 * st.n,
                    &mut alive,
                    &mut dominated_pairs,
                    &mut skyline,
                );
            }
        }
        points_out.push(alive.count());
    }
    Ok(BlockPrune {
        tables,
        alive,
        points_out,
        lod_counts,
        skyline,
        dominated_pairs,
        dominated_points,
    })
}

/// Settles dominance across blocks. Returns the Dominated bucket's
/// `(classes, points)` and the points only the merge refutes.
///
/// Dominance is a strict partial order (transitive under the tie rules
/// of [`mark_dominated`]), so a row some block's skyline drops is
/// dominated globally, and every globally dominated skyline row is
/// dominated by another block's skyline row. One [`mark_dominated`] over
/// the merged, sorted skylines therefore finds exactly the rest; their
/// members are cleared from their blocks' alive sets. `classes` counts
/// distinct `(cost, margin)` bit pairs over all blocks, so a pair
/// dominated in two blocks counts once.
fn settle_dominance(
    groups: &BillGroups,
    block_len: u64,
    blocks: &mut [BlockPrune],
) -> ((u64, u64), u64) {
    let mut merged = Vec::new();
    let mut points = 0u64;
    for b in blocks.iter() {
        merged.extend_from_slice(&b.skyline);
        points += b.dominated_points;
    }
    // A stable sort: each block's skyline is already sorted, so this
    // merges them.
    merged.sort_by_key(GroupRow::key);
    let mut dominated = vec![false; merged.len()];
    mark_dominated(&merged, &mut dominated);
    let mut pairs = Vec::new();
    let mut killed_points = 0u64;
    for (row, _) in merged.iter().zip(&dominated).filter(|(_, &dom)| dom) {
        let n = row.base / block_len;
        let alive = &mut blocks[n as usize].alive;
        for &offset in groups.members(row.group as usize) {
            alive.clear(row.base - n * block_len + offset);
            killed_points += 1;
        }
        pairs.push(row.key());
    }
    for b in blocks.iter() {
        pairs.extend_from_slice(&b.dominated_pairs);
    }
    pairs.sort();
    pairs.dedup();
    ((pairs.len() as u64, points + killed_points), killed_points)
}

fn bucketize(map: BTreeMap<RejectReason, (u64, u64)>) -> Vec<RejectBucket> {
    map.into_iter()
        .map(|(reason, (classes, points))| RejectBucket {
            reason,
            classes,
            points,
        })
        .collect()
}

/// The pruned space of one query: each pass's report and what survived.
pub(crate) struct Pruned {
    /// One report per pass, in run order.
    pub(crate) reports: Vec<PassReport>,
    /// The blocks' tables, in nanostructure order.
    pub(crate) tables: Vec<BlockTables>,
    /// Each block's points no pass refutes, in nanostructure order.
    alive: Vec<BitSet>,
    /// Ranks per block.
    block_len: u64,
}

impl Pruned {
    /// Points no pass refutes: the exact Pareto band.
    pub(crate) fn surviving(&self) -> u64 {
        self.alive.iter().map(BitSet::count).sum()
    }

    /// The surviving ranks, ascending.
    pub(crate) fn alive_ranks(&self) -> impl Iterator<Item = u64> + '_ {
        self.alive.iter().enumerate().flat_map(move |(n, alive)| {
            let start = n as u64 * self.block_len;
            alive.iter_set().map(move |r| start + r)
        })
    }
}

/// Merges the pruned blocks, given in nanostructure order: settles
/// dominance across them and sums the blocks' shares of each report.
/// Every point the merge refutes is feasible, so it was alive after every
/// pass of every block's run until Dominance: it leaves the counts from
/// the Dominance pass on.
pub(crate) fn merge_blocks(
    spec: &ExploreSpec,
    shared: &SharedTables,
    order: &[PassId],
    mut blocks: Vec<BlockPrune>,
) -> Pruned {
    let sz = shared.sizes;
    let st = sz.strides();
    let budget_s = spec.session_budget.value();
    let d = order.iter().position(|&p| p == PassId::Dominance);
    let ((classes, points), killed) = match d {
        Some(_) => settle_dominance(&shared.groups, st.n, &mut blocks),
        None => ((0, 0), 0),
    };
    let mut reports = Vec::with_capacity(order.len());
    let mut points_in = sz.total();
    for (k, &pass) in order.iter().enumerate() {
        let mut points_out = 0u64;
        for b in &blocks {
            points_out += b.points_out[k];
        }
        if d.is_some_and(|d| k >= d) {
            points_out -= killed;
        }
        let (classes_evaluated, rejects) = match pass {
            PassId::LodFeasibility => {
                let mut counts = blocks[0].lod_counts.clone();
                for b in &blocks[1..] {
                    for (slot, (_, classes)) in counts.iter_mut().zip(&b.lod_counts) {
                        slot.1 += classes;
                    }
                }
                let fiber = (sz.s * sz.pf) as u64;
                let buckets = counts
                    .into_iter()
                    .filter(|&(_, classes)| classes > 0)
                    .map(|(analyte, classes)| {
                        (
                            RejectReason::LodAboveRequirement { analyte },
                            (classes, classes * fiber),
                        )
                    })
                    .collect();
                (sz.margin_classes() as u64, bucketize(buckets))
            }
            PassId::AfeRange => {
                let fiber = (sz.s * sz.ch * sz.cd * sz.pf * sz.os * sz.ar) as u64;
                let mut buckets = BTreeMap::new();
                for c in blocks
                    .iter()
                    .flat_map(|b| b.tables.afe_culprits.iter().flatten())
                {
                    let e = buckets
                        .entry(RejectReason::AfeRangeNoiseIncompatible { analyte: *c })
                        .or_insert((0, 0));
                    e.0 += 1;
                    e.1 += fiber;
                }
                (sz.afe_classes() as u64, bucketize(buckets))
            }
            PassId::SessionSchedule => {
                let fiber = (sz.n * sz.ch * sz.ab * sz.ar) as u64;
                let mut buckets = BTreeMap::new();
                for s in 0..sz.s {
                    for cd in 0..sz.cd {
                        for pf in 0..sz.pf {
                            for os in 0..sz.os {
                                if shared.times[sz.time_class(s, cd, pf, os)] > budget_s {
                                    let reason = match spec.space.sharing[s] {
                                        bios_platform::ReadoutSharing::Shared => {
                                            RejectReason::SharingConflict
                                        }
                                        bios_platform::ReadoutSharing::Dedicated => {
                                            RejectReason::SessionOverBudget
                                        }
                                    };
                                    let e = buckets.entry(reason).or_insert((0, 0));
                                    e.0 += 1;
                                    e.1 += fiber;
                                }
                            }
                        }
                    }
                }
                (sz.time_classes() as u64, bucketize(buckets))
            }
            PassId::Dominance => {
                let evaluated = (sz.margin_classes()
                    + sz.afe_classes()
                    + sz.time_classes()
                    + sz.cost_classes()) as u64;
                let rejects = if points > 0 {
                    vec![RejectBucket {
                        reason: RejectReason::Dominated,
                        classes,
                        points,
                    }]
                } else {
                    Vec::new()
                };
                (evaluated, rejects)
            }
        };
        reports.push(PassReport {
            pass: pass.name().to_string(),
            points_in,
            points_out,
            classes_evaluated,
            rejects,
        });
        points_in = points_out;
    }
    let (tables, alive) = blocks.into_iter().map(|b| (b.tables, b.alive)).unzip();
    Pruned {
        reports,
        tables,
        alive,
        block_len: st.n,
    }
}

/// The pipeline driver: holds a pass order and runs it over a spec.
#[derive(Debug, Clone, PartialEq)]
pub struct PassManager {
    order: Vec<PassId>,
}

impl PassManager {
    /// The canonical pipeline: cheapest proofs first, dominance last.
    pub fn standard() -> Self {
        Self {
            order: PassId::STANDARD.to_vec(),
        }
    }

    /// A custom order. Duplicates are rejected; any subset and any
    /// permutation is allowed (permutations provably converge to the same
    /// surviving set).
    pub fn with_order(order: &[PassId]) -> Result<Self, ExploreError> {
        if order.is_empty() {
            return Err(ExploreError::InvalidOrder {
                reason: "at least one pass is required".to_string(),
            });
        }
        for (i, p) in order.iter().enumerate() {
            if order[..i].contains(p) {
                return Err(ExploreError::InvalidOrder {
                    reason: format!("duplicate pass {}", p.name()),
                });
            }
        }
        Ok(Self {
            order: order.to_vec(),
        })
    }

    /// The configured order.
    pub fn order(&self) -> &[PassId] {
        &self.order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitset_tail_and_clear() {
        let mut b = BitSet::all_set(70);
        assert_eq!(b.count(), 70);
        b.clear(0);
        b.clear(69);
        b.clear(69);
        assert_eq!(b.count(), 68);
        let set: Vec<u64> = b.iter_set().collect();
        assert_eq!(set, (1..69).collect::<Vec<u64>>());
    }

    /// The word-at-a-time clears agree with clearing bit by bit, at every
    /// alignment and across word boundaries.
    #[test]
    fn run_and_pattern_clears_match_bitwise_clears() {
        let len = 300u64;
        for start in [0u64, 1, 37, 63, 64, 65, 127, 130] {
            for run in [0u64, 1, 5, 63, 64, 65, 100, 150] {
                if start + run > len {
                    continue;
                }
                let mut fast = BitSet::all_set(len);
                fast.clear_run(start, run);
                let mut slow = BitSet::all_set(len);
                for i in start..start + run {
                    slow.clear(i);
                }
                assert_eq!(fast, slow, "run start={start} len={run}");

                // A sparse pattern over the same run: every third bit.
                let mut pattern = vec![0u64; run.div_ceil(64) as usize];
                let mut slow = BitSet::all_set(len);
                for k in (0..run).step_by(3) {
                    pattern[(k >> 6) as usize] |= 1 << (k & 63);
                    slow.clear(start + k);
                }
                let mut fast = BitSet::all_set(len);
                fast.clear_pattern(start, &pattern);
                assert_eq!(fast, slow, "pattern start={start} len={run}");
            }
        }
    }

    fn row(cost: f64, margin: f64, base: u64) -> GroupRow {
        GroupRow {
            cost,
            margin,
            base,
            group: 0,
        }
    }

    #[test]
    fn mark_dominated_keeps_exact_ties_and_kills_strictly_worse() {
        // Sorted by (cost asc, margin desc): rows 0,1 tie exactly; row 2 is
        // equal-cost but lower margin; row 3 is costlier with lower margin;
        // row 4 is costlier but higher margin (survives).
        let mut rows = [
            row(1.0, 5.0, 0),
            row(1.0, 5.0, 1),
            row(1.0, 4.0, 2),
            row(2.0, 4.5, 3),
            row(2.0, 6.0, 4),
        ];
        // Re-sort per contract (margin desc within cost).
        rows.sort_unstable_by(|a, b| {
            a.cost
                .total_cmp(&b.cost)
                .then(b.margin.total_cmp(&a.margin))
        });
        let mut dom = [false; 5];
        mark_dominated(&rows, &mut dom);
        let mut surviving: Vec<u64> = rows
            .iter()
            .zip(dom.iter())
            .filter(|(_, d)| !**d)
            .map(|(r, _)| r.base)
            .collect();
        surviving.sort_unstable();
        assert_eq!(surviving, vec![0, 1, 4]);
    }

    /// Blocks of `BLOCK` ranks whose rows each stand for one point (every
    /// bill group has the single member offset 0), so a row's base is the
    /// rank it marks.
    const BLOCK: u64 = 100;

    /// Runs each block's local skyline, then settles dominance across
    /// the blocks. Returns the Dominated bucket's `(classes, points)` and
    /// the dominated ranks, ascending.
    fn settle(blocks: Vec<Vec<GroupRow>>) -> ((u64, u64), Vec<u64>) {
        let groups = BillGroups::singletons(1);
        let mut pruned: Vec<BlockPrune> = blocks
            .into_iter()
            .enumerate()
            .map(|(n, mut rows)| {
                let mut alive = BitSet::all_set(BLOCK);
                let mut pairs = Vec::new();
                let mut skyline = Vec::new();
                let points = local_skyline(
                    &mut rows,
                    &groups,
                    n as u64 * BLOCK,
                    &mut alive,
                    &mut pairs,
                    &mut skyline,
                );
                BlockPrune {
                    tables: BlockTables::empty(),
                    alive,
                    points_out: Vec::new(),
                    lod_counts: Vec::new(),
                    skyline,
                    dominated_pairs: pairs,
                    dominated_points: points,
                }
            })
            .collect();
        let (bucket, _) = settle_dominance(&groups, BLOCK, &mut pruned);
        let mut ranks = Vec::new();
        for (n, b) in pruned.iter().enumerate() {
            let alive: Vec<u64> = b.alive.iter_set().collect();
            ranks.extend(
                (0..BLOCK)
                    .filter(|r| !alive.contains(r))
                    .map(|r| n as u64 * BLOCK + r),
            );
        }
        (bucket, ranks)
    }

    #[test]
    fn a_row_dominated_only_from_another_block_is_cleared() {
        // Block 0's rows are mutually undominated; block 1's cheaper row
        // with a higher margin dominates rank 1 only.
        let (bucket, ranks) = settle(vec![
            vec![row(1.0, 5.0, 0), row(3.0, 6.0, 1), row(4.0, 9.0, 2)],
            vec![row(2.0, 7.0, BLOCK)],
        ]);
        assert_eq!(ranks, vec![1]);
        assert_eq!(bucket, (1, 1));
    }

    #[test]
    fn exact_ties_across_blocks_all_survive() {
        // The same (cost, margin) pair in three blocks, each beside a
        // row it dominates locally; no tied row is dominated.
        let (bucket, ranks) = settle(vec![
            vec![row(1.0, 5.0, 0), row(2.0, 4.0, 1)],
            vec![row(1.0, 5.0, BLOCK), row(1.0, 3.0, BLOCK + 1)],
            vec![row(1.0, 5.0, 2 * BLOCK)],
        ]);
        assert_eq!(ranks, vec![1, BLOCK + 1]);
        assert_eq!(bucket, (2, 2));
    }

    #[test]
    fn a_pair_dominated_in_two_blocks_counts_once() {
        // (2.0, 4.0) is dominated inside block 0 and, through the merge,
        // in block 1: two points, one class. (5.0, 1.0) is dominated in
        // both blocks locally.
        let (bucket, ranks) = settle(vec![
            vec![row(1.0, 6.0, 0), row(2.0, 4.0, 1), row(5.0, 1.0, 2)],
            vec![row(2.0, 4.0, BLOCK), row(5.0, 1.0, BLOCK + 1)],
        ]);
        assert_eq!(ranks, vec![1, 2, BLOCK, BLOCK + 1]);
        assert_eq!(bucket, (2, 4));
    }

    #[test]
    fn with_order_rejects_duplicates_and_empty() {
        assert!(PassManager::with_order(&[]).is_err());
        assert!(PassManager::with_order(&[PassId::Dominance, PassId::Dominance]).is_err());
        let m =
            PassManager::with_order(&[PassId::Dominance, PassId::LodFeasibility]).expect("order");
        assert_eq!(m.order().len(), 2);
    }
}
