//! Class tables: every closed form evaluated once per class it reads.
//!
//! Each static quantity depends on a strict subset of the eight axes, so
//! the space factors into classes (see the `*_class` indices on
//! `AxisSizes`). [`ClassTables::build`] evaluates each quantity once per
//! class and, inside a class family, hoists what neighbouring classes
//! share out of the inner loop:
//!
//! * **margins** — a target's noise breakdown, effective sensitivity and
//!   requirement depend only on `(nanostructure, chopper, cds,
//!   adc_bits)`; only the surrogate's per-`(oversampling, area)`
//!   rescaling ([`rescaled_lod`], from divisors computed once per
//!   `(oversampling, area)`) runs per margin class, one target row at a
//!   time, and folding the rows in panel order yields both the worst
//!   margin and the first failing target;
//! * **costs** — the electronics bill depends only on `(sharing, chopper,
//!   cds, adc_bits, preference)`; it is built and summed once per such
//!   bill class and priced ([`Bill::priced`], a few flops) per point on
//!   demand: 264 bills on the standard box instead of 42 240 costs;
//! * **bill groups** — within one `(chopper, cds, adc_bits)`, the
//!   `(sharing, preference)` pairs whose bills are bit-identical. Equal
//!   bills price identically at every `(oversampling, area)` and carry
//!   the same session times, so dominance ranks one row per group instead
//!   of one per point;
//! * **AFE culprits** and **session times** are one closed form per class.
//!
//! The tables split in two. The nanostructure-free part — times, bills
//! and bill groups ([`SharedTables`]) — is built once per query. Margins,
//! LOD culprits and AFE culprits all read the nanostructure, and ranks
//! are nanostructure-major, so they are built per nanostructure block
//! ([`BlockTables`]). Inside the explore pipeline the fan-out item that
//! prunes a block builds its tables (see [`crate::passes`]), and the
//! pipeline joins the shared part and the blocks, in nanostructure order,
//! into the [`ClassTables`] that scoring reads; [`ClassTables::build`]
//! builds the same tables in one plain loop.
//!
//! One build per query feeds every pass and the band scoring. The tables
//! are a pure function of the spec, so the passes built on them stay pure
//! functions of the spec: order independence is unaffected.

use bios_biochem::Analyte;
use bios_platform::{effective_sensitivity, noise_breakdown, required_lod, NoiseBreakdown};

use crate::context::PanelContext;
use crate::error::ExploreError;
use crate::model::{afe_incompatibility, rescaled_lod, session_time_s, Bill};
use crate::space::{area_scale_of, AxisIndex, AxisSizes, ExploreSpec};

/// Every static closed form of one query, tabulated per class.
#[derive(Debug)]
pub struct ClassTables {
    pub(crate) shared: SharedTables,
    /// Per-nanostructure tables, in nanostructure order, one per
    /// nanostructure.
    pub(crate) blocks: Vec<BlockTables>,
}

/// The nanostructure-free tables of one query.
#[derive(Debug)]
pub(crate) struct SharedTables {
    pub(crate) sizes: AxisSizes,
    /// Session seconds per `(s, cd, pf, os)` time class.
    pub(crate) times: Vec<f64>,
    /// Electronics bill per `(s, ch, cd, ab, pf)` bill class.
    bills: Vec<Bill>,
    /// Bit-identical bills grouped per `(ch, cd, ab)`.
    pub(crate) groups: BillGroups,
    /// The oversampling axis, which pricing reads.
    oversampling: Vec<u16>,
    /// The area axis as scale factors, which pricing reads.
    area_scales: Vec<f64>,
}

/// The tables of one nanostructure block, indexed as the global tables
/// are with `n = 0`.
#[derive(Debug)]
pub(crate) struct BlockTables {
    /// Worst LOD margin per `(ch, cd, ab, os, ar)` margin class.
    pub(crate) margins: Vec<f64>,
    /// First target (panel order) with margin `< 1`, per margin class.
    pub(crate) lod_culprits: Vec<Option<Analyte>>,
    /// First unrealizable target per `adc_bits` value.
    pub(crate) afe_culprits: Vec<Option<Analyte>>,
}

/// The table entries one point reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassEntry {
    /// Worst LOD margin ([`crate::worst_margin`]).
    pub margin: f64,
    /// First target (panel order) whose LOD margin is below 1.
    pub lod_culprit: Option<Analyte>,
    /// First target whose derived range the ADC cannot span
    /// ([`crate::afe_incompatibility`]).
    pub afe_culprit: Option<Analyte>,
    /// Session duration, seconds ([`crate::session_time_s`]).
    pub session_s: f64,
    /// Scalar cost ([`crate::cost_scalar`]).
    pub cost: f64,
}

/// The `(sharing, preference)` pairs of each `(chopper, cds, adc_bits)`
/// class, grouped by bit-identical bill.
#[derive(Debug, Default)]
pub(crate) struct BillGroups {
    /// `spans[k]..spans[k + 1]` index the groups of the `k`-th
    /// `(ch, cd, ab)` class, `k = (ch · |cd| + cd) · |ab| + ab`.
    spans: Vec<usize>,
    groups: Vec<BillGroup>,
    /// Member rank offsets `s · stride_s + pf · stride_pf`, group by group.
    offsets: Vec<u64>,
}

/// One group of bit-identical bills.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BillGroup {
    /// Bill class of the first member; every member's bill has its bits.
    pub(crate) bill: usize,
    /// Time class of the first member at the first oversampling value;
    /// oversampling index `os` reads `time + os`.
    pub(crate) time: usize,
    /// Members' range in `offsets`.
    start: usize,
    len: usize,
}

impl BillGroups {
    /// `count` groups of one member each, at rank offset 0, for unit
    /// tests of the dominance kernels.
    #[cfg(test)]
    pub(crate) fn singletons(count: usize) -> Self {
        Self {
            spans: vec![0, count],
            groups: (0..count)
                .map(|g| BillGroup {
                    bill: 0,
                    time: 0,
                    start: g,
                    len: 1,
                })
                .collect(),
            offsets: vec![0; count],
        }
    }

    /// Global indices of the `k`-th `(ch, cd, ab)` class's groups.
    pub(crate) fn span(&self, k: usize) -> std::ops::Range<usize> {
        self.spans[k]..self.spans[k + 1]
    }

    pub(crate) fn group(&self, g: usize) -> &BillGroup {
        &self.groups[g]
    }

    /// Rank offsets of group `g`'s members, relative to the rank of its
    /// `(sharing, preference) = (0, 0)` point.
    pub(crate) fn members(&self, g: usize) -> &[u64] {
        let grp = &self.groups[g];
        &self.offsets[grp.start..grp.start + grp.len]
    }
}

/// One panel target's margin terms, fixed within a
/// `(nanostructure, chopper, cds, adc_bits)` class.
struct TargetTerms {
    analyte: Analyte,
    noise: NoiseBreakdown,
    s_eff: f64,
    required: f64,
}

/// The divisors [`rescaled_lod`] reads, per `(oversampling, area)` in
/// `margin_class` order (oversampling-major).
struct Rescales {
    sqrt_a: Vec<f64>,
    stochastic_div: Vec<f64>,
    quantization_div: Vec<f64>,
}

impl Rescales {
    fn of(spec: &ExploreSpec) -> Self {
        let run = spec.space.oversampling.len() * spec.space.area_pct.len();
        let mut r = Self {
            sqrt_a: Vec::with_capacity(run),
            stochastic_div: Vec::with_capacity(run),
            quantization_div: Vec::with_capacity(run),
        };
        for &m in &spec.space.oversampling {
            let sqrt_m = f64::from(m).sqrt();
            for &pct in &spec.space.area_pct {
                let a = area_scale_of(pct);
                let sqrt_a = a.sqrt();
                r.sqrt_a.push(sqrt_a);
                r.stochastic_div.push(sqrt_a * sqrt_m);
                r.quantization_div.push(a * sqrt_m);
            }
        }
        r
    }
}

/// One target's margin at every `(oversampling, area)` of a class, into
/// `out`: a straight loop over the divisor columns, with no branch.
// advdiag::hot — per-(oversampling, area) kernel of the margin table
fn target_margins(t: &TargetTerms, r: &Rescales, out: &mut [f64]) {
    let n = out.len();
    let (sqrt_a, stochastic, quantization) = (
        &r.sqrt_a[..n],
        &r.stochastic_div[..n],
        &r.quantization_div[..n],
    );
    for k in 0..n {
        out[k] =
            t.required / rescaled_lod(&t.noise, t.s_eff, sqrt_a[k], stochastic[k], quantization[k]);
    }
}

/// Folds one target's margins (panel order) into the class's running
/// worst margins and first targets with margin `< 1` — which exist
/// exactly where the worst margin is below 1.
// advdiag::hot — per-(oversampling, area) fold of the margin table
fn fold_target(
    analyte: Analyte,
    margins: &[f64],
    worst: &mut [f64],
    culprits: &mut [Option<Analyte>],
) {
    for ((&m, w), c) in margins
        .iter()
        .zip(worst.iter_mut())
        .zip(culprits.iter_mut())
    {
        *w = w.min(m);
        if c.is_none() && m < 1.0 {
            *c = Some(analyte);
        }
    }
}

impl BlockTables {
    /// A block with no tables, for unit tests of the merge.
    #[cfg(test)]
    pub(crate) fn empty() -> Self {
        Self {
            margins: Vec::new(),
            lod_culprits: Vec::new(),
            afe_culprits: Vec::new(),
        }
    }

    /// Nanostructure `n`'s margins, LOD culprits (in `margin_class`
    /// order) and AFE culprits. Sharing and preference are fibered out
    /// (the LOD surrogate never reads them): their first values stand in
    /// for all.
    // advdiag::cold(one nanostructure's block of the tables: allocates the block
    // once, one call per nanostructure per query)
    pub(crate) fn build(spec: &ExploreSpec, sz: AxisSizes, n: usize) -> Result<Self, ExploreError> {
        let block = sz.margin_classes() / sz.n;
        let mut margins = Vec::with_capacity(block);
        let mut lod_culprits = Vec::with_capacity(block);
        let targets = spec.panel.targets();
        let mut terms = Vec::with_capacity(targets.len());
        let run = sz.os * sz.ar;
        let rescales = Rescales::of(spec);
        let mut scratch = vec![0.0; run];
        for ch in 0..sz.ch {
            for cd in 0..sz.cd {
                for ab in 0..sz.ab {
                    let rep = spec.space.point_of(AxisIndex {
                        n,
                        s: 0,
                        ch,
                        cd,
                        ab,
                        pf: 0,
                        os: 0,
                        ar: 0,
                    });
                    terms.clear();
                    for target in targets {
                        terms.push(TargetTerms {
                            analyte: target.analyte,
                            noise: noise_breakdown(target.analyte, &rep.base)?,
                            s_eff: effective_sensitivity(target.analyte, rep.base.nanostructure)?,
                            required: required_lod(target)?.value(),
                        });
                    }
                    let start = margins.len();
                    margins.resize(start + run, f64::INFINITY);
                    lod_culprits.resize(start + run, None);
                    for t in &terms {
                        target_margins(t, &rescales, &mut scratch);
                        fold_target(
                            t.analyte,
                            &scratch,
                            &mut margins[start..],
                            &mut lod_culprits[start..],
                        );
                    }
                    if margins[start..].iter().any(|m| m.is_nan()) {
                        return Err(ExploreError::NonFinite {
                            what: "worst LOD margin",
                        });
                    }
                }
            }
        }
        let mut afe_culprits = Vec::with_capacity(sz.ab);
        for &bits in &spec.space.adc_bits {
            afe_culprits.push(afe_incompatibility(
                &spec.panel,
                spec.space.nanostructures[n],
                bits,
            )?);
        }
        Ok(Self {
            margins,
            lod_culprits,
            afe_culprits,
        })
    }
}

impl ClassTables {
    /// Tabulates every closed form of `spec` over its classes; `cx` must be
    /// `spec`'s panel context.
    pub fn build(spec: &ExploreSpec, cx: &PanelContext) -> Result<Self, ExploreError> {
        let shared = SharedTables::build(spec, cx)?;
        let mut blocks = Vec::with_capacity(shared.sizes.n);
        for n in 0..shared.sizes.n {
            blocks.push(BlockTables::build(spec, shared.sizes, n)?);
        }
        Ok(Self { shared, blocks })
    }

    /// The entries the point at `rank` reads; `None` past the end.
    pub fn entry(&self, rank: u64) -> Option<ClassEntry> {
        let t = &self.shared;
        let sz = &t.sizes;
        let i = sz.decode(rank)?;
        let block = &self.blocks[i.n];
        let mc = sz.margin_class(0, i.ch, i.cd, i.ab, i.os, i.ar);
        Some(ClassEntry {
            margin: block.margins[mc],
            lod_culprit: block.lod_culprits[mc],
            afe_culprit: block.afe_culprits[i.ab],
            session_s: t.times[sz.time_class(i.s, i.cd, i.pf, i.os)],
            cost: t.priced(sz.bill_class(i.s, i.ch, i.cd, i.ab, i.pf), i.os, i.ar),
        })
    }
}

impl SharedTables {
    /// The nanostructure-free tables of `spec` — times, bills and bill
    /// groups; `cx` must be `spec`'s panel context.
    pub(crate) fn build(spec: &ExploreSpec, cx: &PanelContext) -> Result<Self, ExploreError> {
        spec.validate()?;
        let sizes = spec.space.sizes();
        let mut tables = Self {
            sizes,
            times: vec![0.0; sizes.time_classes()],
            bills: Vec::with_capacity(sizes.bill_classes()),
            groups: BillGroups::default(),
            oversampling: spec.space.oversampling.clone(),
            area_scales: spec
                .space
                .area_pct
                .iter()
                .map(|&a| area_scale_of(a))
                .collect(),
        };
        tables.fill_times(spec, cx)?;
        tables.fill_bills(spec, cx)?;
        tables.fill_groups();
        Ok(tables)
    }

    /// Bill class `bill` priced at oversampling index `os` and area index
    /// `ar`.
    pub(crate) fn priced(&self, bill: usize, os: usize, ar: usize) -> f64 {
        self.bills[bill].priced(self.oversampling[os], self.area_scales[ar])
    }

    /// Groups each `(chopper, cds, adc_bits)` class's `(sharing,
    /// preference)` pairs by bit-identical bill, groups in order of their
    /// first member and members in `(sharing, preference)` order.
    fn fill_groups(&mut self) {
        let sz = self.sizes;
        let st = sz.strides();
        let classes = sz.ch * sz.cd * sz.ab;
        let mut spans = Vec::with_capacity(classes + 1);
        let mut groups: Vec<BillGroup> = Vec::new();
        let mut offsets = Vec::with_capacity(classes * sz.s * sz.pf);
        let mut owner = Vec::with_capacity(sz.s * sz.pf);
        spans.push(0);
        for ch in 0..sz.ch {
            for cd in 0..sz.cd {
                for ab in 0..sz.ab {
                    let first = groups.len();
                    owner.clear();
                    for s in 0..sz.s {
                        for pf in 0..sz.pf {
                            let bill = sz.bill_class(s, ch, cd, ab, pf);
                            let local = match groups[first..]
                                .iter()
                                .position(|g| self.bills[g.bill].same_bits(&self.bills[bill]))
                            {
                                Some(k) => k,
                                None => {
                                    groups.push(BillGroup {
                                        bill,
                                        time: sz.time_class(s, cd, pf, 0),
                                        start: 0,
                                        len: 0,
                                    });
                                    groups.len() - 1 - first
                                }
                            };
                            owner.push((local, s as u64 * st.s + pf as u64 * st.pf));
                        }
                    }
                    for (k, g) in groups[first..].iter_mut().enumerate() {
                        g.start = offsets.len();
                        offsets.extend(owner.iter().filter(|(o, _)| *o == k).map(|(_, off)| off));
                        g.len = offsets.len() - g.start;
                    }
                    spans.push(groups.len());
                }
            }
        }
        self.groups = BillGroups {
            spans,
            groups,
            offsets,
        };
    }

    /// Time classes: skeleton schedule × oversampling per `(sharing, cds,
    /// preference, oversampling)`.
    fn fill_times(&mut self, spec: &ExploreSpec, cx: &PanelContext) -> Result<(), ExploreError> {
        let sz = self.sizes;
        let space = &spec.space;
        for s in 0..sz.s {
            for cd in 0..sz.cd {
                for pf in 0..sz.pf {
                    let sk = cx.skeleton(space.preferences[pf], space.sharing[s], space.cds[cd])?;
                    for os in 0..sz.os {
                        self.times[sz.time_class(s, cd, pf, os)] =
                            session_time_s(&sk, space.oversampling[os]);
                    }
                }
            }
        }
        Ok(())
    }

    /// Bill classes, in `bill_class` order. Nanostructure is fibered out
    /// (the cost model never reads it): its first value stands in for all.
    /// Within one `(sharing, chopper, cds, adc_bits)` the electronics
    /// budget is built once per distinct working-electrode count.
    fn fill_bills(&mut self, spec: &ExploreSpec, cx: &PanelContext) -> Result<(), ExploreError> {
        let sz = self.sizes;
        let space = &spec.space;
        for s in 0..sz.s {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    for ab in 0..sz.ab {
                        // Preferences change only the skeleton; one built
                        // budget serves every skeleton with its count of
                        // working electrodes.
                        let first = self.bills.len();
                        for pf in 0..sz.pf {
                            let rep = space.point_of(AxisIndex {
                                n: 0,
                                s,
                                ch,
                                cd,
                                ab,
                                pf,
                                os: 0,
                                ar: 0,
                            });
                            let sk =
                                cx.skeleton(rep.base.preference, rep.base.sharing, rep.base.cds)?;
                            let bill =
                                match self.bills[first..].iter().find_map(|b| b.on_skeleton(sk)) {
                                    Some(bill) => bill,
                                    None => Bill::of(sk, &rep.base),
                                };
                            if !bill.is_finite() {
                                return Err(ExploreError::NonFinite {
                                    what: "surrogate cost",
                                });
                            }
                            self.bills.push(bill);
                        }
                    }
                }
            }
        }
        Ok(())
    }
}
