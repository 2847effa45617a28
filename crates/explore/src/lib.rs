//! `bios-explore` — compiler-style design-space exploration.
//!
//! The paper's platform methodology (§I) restricts an enormous biosensor
//! design space to parameterized components precisely so the space can be
//! *reasoned about* instead of enumerated. This crate executes that idea
//! as a static-analysis pipeline over a ≥10⁶-point space:
//!
//! * [`ExploreSpace`] — a lazily-enumerated cartesian product: eight axis
//!   value lists plus mixed-radix rank decoding, never materialized;
//! * [`ClassTables`] — every closed-form model evaluated once per class
//!   of the axes it reads, in one build per query that all passes and
//!   the band scoring share;
//! * [`PassManager`] — typed pruning passes ([`PassId`]) that **prove**
//!   point classes infeasible ([`RejectReason`]) or dominated from
//!   closed-form calibration models, order-independently;
//! * [`explore`] — prune → partition → score: the prune fans out one
//!   [`bios_platform::try_par_map`] item per nanostructure block; the
//!   surviving exact Pareto band is sharded, scored by the surrogate and
//!   fully simulated via [`bios_platform::evaluate`], with
//!   per-shard content-hash memoization ([`explore_cache_stats`]) so
//!   re-exploration after a space edit replays untouched shards;
//! * [`brute_force_band`] — the O(n²) per-point oracle the proptests pin
//!   the class-factored pipeline against, bit for bit.
//!
//! # Example
//!
//! ```
//! use bios_explore::{explore, ExploreSpec};
//! use bios_platform::{ExecPolicy, PanelSpec};
//!
//! # fn main() -> Result<(), bios_explore::ExploreError> {
//! let mut spec = ExploreSpec::standard(PanelSpec::paper_fig4());
//! // Keep the doctest quick: one readout-tuning slice of the box.
//! spec.space.oversampling = vec![1, 8];
//! spec.space.area_pct = vec![100, 200];
//! let outcome = explore(&spec, ExecPolicy::Sequential)?;
//! assert!(outcome.rejection_ratio > 0.9);
//! assert!(!outcome.band.is_empty());
//! for report in &outcome.reports {
//!     println!(
//!         "{}: {} -> {} points",
//!         report.pass, report.points_in, report.points_out
//!     );
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod error;
mod frontier;
mod hash;
mod model;
mod passes;
mod shard;
mod space;
mod tables;

pub use context::{PanelContext, Skeleton};
pub use error::ExploreError;
pub use frontier::{
    band_digest, brute_force_band, explore, explore_with_manager, ExploreOutcome, BRUTE_FORCE_CAP,
};
pub use model::{
    afe_incompatibility, cost_scalar, derived_dynamic_range, evaluate_static, session_time_s,
    surrogate_lod, worst_margin, RejectReason, StaticEval, MODEL_VERSION,
};
pub use passes::{PassId, PassManager, PassReport, RejectBucket};
pub use shard::{clear_explore_cache, explore_cache_stats, ScoredDesign, Shard};
pub use space::{ExplorePoint, ExploreSpace, ExploreSpec};
pub use tables::{ClassEntry, ClassTables};
