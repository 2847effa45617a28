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
//!   rescaling ([`scaled_lod`]) runs per margin class, and one loop over
//!   the panel yields both the worst margin and the first failing target;
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
//! The margin table, the bulk of the build, is filled one nanostructure
//! block at a time through [`try_par_map`] under the query's
//! [`ExecPolicy`]; the merge is in block order, so the tables are the
//! same bits under every policy.
//!
//! One build per query feeds every pass and the band scoring. The tables
//! are a pure function of the spec, so the passes built on them stay pure
//! functions of the spec: order independence is unaffected.

use bios_biochem::Analyte;
use bios_platform::{
    effective_sensitivity, noise_breakdown, required_lod, try_par_map, ExecPolicy, NoiseBreakdown,
};

use crate::context::PanelContext;
use crate::error::ExploreError;
use crate::model::{afe_incompatibility, scaled_lod, session_time_s, Bill};
use crate::space::{area_scale_of, AxisIndex, AxisSizes, ExplorePoint, ExploreSpec};

/// Every static closed form of one query, tabulated per class.
#[derive(Debug)]
pub struct ClassTables {
    pub(crate) sizes: AxisSizes,
    /// Worst LOD margin per `(n, ch, cd, ab, os, ar)` margin class.
    pub(crate) margins: Vec<f64>,
    /// First target (panel order) with margin `< 1`, per margin class.
    pub(crate) lod_culprits: Vec<Option<Analyte>>,
    /// First unrealizable target per `(n, ab)` AFE class.
    pub(crate) afe_culprits: Vec<Option<Analyte>>,
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

/// Worst margin over the panel at `point`, and the first target (panel
/// order) whose margin is below 1 — which exists exactly when the worst
/// margin is below 1.
// advdiag::hot — per-(oversampling, area) kernel of the margin table
fn margin_and_culprit(terms: &[TargetTerms], point: &ExplorePoint) -> (f64, Option<Analyte>) {
    let mut worst = f64::INFINITY;
    let mut culprit = None;
    for t in terms {
        let margin = t.required / scaled_lod(&t.noise, t.s_eff, point);
        worst = worst.min(margin);
        if culprit.is_none() && margin < 1.0 {
            culprit = Some(t.analyte);
        }
    }
    (worst, culprit)
}

/// One nanostructure's margins and LOD culprits, in `margin_class` order.
type MarginBlock = (Vec<f64>, Vec<Option<Analyte>>);

/// Nanostructure `n`'s block of the margin and LOD-culprit tables.
/// Sharing and preference are fibered out (the LOD surrogate never reads
/// them): their first values stand in for all.
// advdiag::cold(one nanostructure's block of the margin table: allocates the
// block once, one call per nanostructure per query)
fn margin_block(spec: &ExploreSpec, sz: AxisSizes, n: usize) -> Result<MarginBlock, ExploreError> {
    let block = sz.margin_classes() / sz.n;
    let mut margins = Vec::with_capacity(block);
    let mut culprits = Vec::with_capacity(block);
    let targets = spec.panel.targets();
    let mut terms = Vec::with_capacity(targets.len());
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
                for os in 0..sz.os {
                    for ar in 0..sz.ar {
                        let point = ExplorePoint {
                            oversampling: spec.space.oversampling[os],
                            area_pct: spec.space.area_pct[ar],
                            ..rep
                        };
                        let (margin, culprit) = margin_and_culprit(&terms, &point);
                        if margin.is_nan() {
                            return Err(ExploreError::NonFinite {
                                what: "worst LOD margin",
                            });
                        }
                        margins.push(margin);
                        culprits.push(culprit);
                    }
                }
            }
        }
    }
    Ok((margins, culprits))
}

impl ClassTables {
    /// Tabulates every closed form of `spec` over its classes; `cx` must be
    /// `spec`'s panel context. The margin table's nanostructure blocks run
    /// under `policy`; the tables are the same bits under every policy.
    pub fn build(
        spec: &ExploreSpec,
        cx: &PanelContext,
        policy: ExecPolicy,
    ) -> Result<Self, ExploreError> {
        spec.validate()?;
        let sizes = spec.space.sizes();
        let mut tables = Self {
            sizes,
            margins: Vec::with_capacity(sizes.margin_classes()),
            lod_culprits: Vec::with_capacity(sizes.margin_classes()),
            afe_culprits: vec![None; sizes.afe_classes()],
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
        tables.fill_margins(spec, policy)?;
        tables.fill_afe(spec)?;
        tables.fill_times(spec, cx)?;
        tables.fill_bills(spec, cx)?;
        tables.fill_groups();
        Ok(tables)
    }

    /// The entries the point at `rank` reads; `None` past the end.
    pub fn entry(&self, rank: u64) -> Option<ClassEntry> {
        let sz = &self.sizes;
        let i = sz.decode(rank)?;
        let mc = sz.margin_class(i.n, i.ch, i.cd, i.ab, i.os, i.ar);
        Some(ClassEntry {
            margin: self.margins[mc],
            lod_culprit: self.lod_culprits[mc],
            afe_culprit: self.afe_culprits[sz.afe_class(i.n, i.ab)],
            session_s: self.times[sz.time_class(i.s, i.cd, i.pf, i.os)],
            cost: self.cost_at(i),
        })
    }

    /// The scalar cost of the point at `i`: its bill, priced.
    pub(crate) fn cost_at(&self, i: AxisIndex) -> f64 {
        self.priced(
            self.sizes.bill_class(i.s, i.ch, i.cd, i.ab, i.pf),
            i.os,
            i.ar,
        )
    }

    /// Bill class `bill` priced at oversampling index `os` and area index
    /// `ar`.
    pub(crate) fn priced(&self, bill: usize, os: usize, ar: usize) -> f64 {
        self.bills[bill].priced(self.oversampling[os], self.area_scales[ar])
    }

    /// Margin classes, one nanostructure block per [`try_par_map`] item.
    /// Blocks are contiguous in `margin_class` order (nanostructure is its
    /// outermost axis), so appending them in item order fills the table.
    fn fill_margins(&mut self, spec: &ExploreSpec, policy: ExecPolicy) -> Result<(), ExploreError> {
        let sz = self.sizes;
        let blocks = try_par_map(policy, &spec.space.nanostructures, |n, _| {
            margin_block(spec, sz, n)
        })?;
        for (margins, culprits) in blocks {
            self.margins.extend_from_slice(&margins);
            self.lod_culprits.extend_from_slice(&culprits);
        }
        Ok(())
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

    /// AFE classes: first unrealizable target per `(nanostructure,
    /// adc_bits)`.
    fn fill_afe(&mut self, spec: &ExploreSpec) -> Result<(), ExploreError> {
        let sz = self.sizes;
        let space = &spec.space;
        for n in 0..sz.n {
            for ab in 0..sz.ab {
                self.afe_culprits[sz.afe_class(n, ab)] =
                    afe_incompatibility(&spec.panel, space.nanostructures[n], space.adc_bits[ab])?;
            }
        }
        Ok(())
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
    fn fill_bills(&mut self, spec: &ExploreSpec, cx: &PanelContext) -> Result<(), ExploreError> {
        let sz = self.sizes;
        let space = &spec.space;
        for s in 0..sz.s {
            for ch in 0..sz.ch {
                for cd in 0..sz.cd {
                    for ab in 0..sz.ab {
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
                            let bill = Bill::of(sk, &rep.base);
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
