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
//! * **AFE culprits** and **session times** are one closed form per class.
//!
//! One build per query feeds every pass and the band scoring. The tables
//! are a pure function of the spec, so the passes built on them stay pure
//! functions of the spec: order independence is unaffected.

use bios_biochem::Analyte;
use bios_platform::{effective_sensitivity, noise_breakdown, required_lod, NoiseBreakdown};

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

impl ClassTables {
    /// Tabulates every closed form of `spec` over its classes; `cx` must be
    /// `spec`'s panel context.
    pub fn build(spec: &ExploreSpec, cx: &PanelContext) -> Result<Self, ExploreError> {
        spec.validate()?;
        let sizes = spec.space.sizes();
        let mut tables = Self {
            sizes,
            margins: vec![0.0; sizes.margin_classes()],
            lod_culprits: vec![None; sizes.margin_classes()],
            afe_culprits: vec![None; sizes.afe_classes()],
            times: vec![0.0; sizes.time_classes()],
            bills: Vec::with_capacity(sizes.bill_classes()),
            oversampling: spec.space.oversampling.clone(),
            area_scales: spec
                .space
                .area_pct
                .iter()
                .map(|&a| area_scale_of(a))
                .collect(),
        };
        tables.fill_margins(spec)?;
        tables.fill_afe(spec)?;
        tables.fill_times(spec, cx)?;
        tables.fill_bills(spec, cx)?;
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
        let bill = &self.bills[self.sizes.bill_class(i.s, i.ch, i.cd, i.ab, i.pf)];
        bill.priced(self.oversampling[i.os], self.area_scales[i.ar])
    }

    /// Margin classes. Sharing and preference are fibered out (the LOD
    /// surrogate never reads them): their first values stand in for all.
    fn fill_margins(&mut self, spec: &ExploreSpec) -> Result<(), ExploreError> {
        let sz = self.sizes;
        let targets = spec.panel.targets();
        let mut terms = Vec::with_capacity(targets.len());
        for n in 0..sz.n {
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
                                s_eff: effective_sensitivity(
                                    target.analyte,
                                    rep.base.nanostructure,
                                )?,
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
                                let mc = sz.margin_class(n, ch, cd, ab, os, ar);
                                self.margins[mc] = margin;
                                self.lod_culprits[mc] = culprit;
                            }
                        }
                    }
                }
            }
        }
        Ok(())
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
