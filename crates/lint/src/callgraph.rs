//! Workspace-wide call graph and hot-region inference.
//!
//! The graph is name-grained: every non-test `fn` definition registers its
//! bare name, every call site registers an edge from the enclosing
//! definition's name to the callee's last path segment (free calls) or
//! method name (method calls). The one exception is made where the edges
//! are collected ([`crate::hotpath`]): a method call on a receiver known
//! to be a std type (`Vec`, maps, `Option`, …) registers no edge unless a
//! workspace trait declares the name, since an inherent std method always
//! wins. Otherwise names are all the lossy AST gives us, so the
//! reachability fixpoint is bounded by a *definition-multiplicity* rule
//! that keeps the lossiness in the false-negative direction:
//!
//! * a **root** name is hot unconditionally (every definition of it);
//! * an edge `hot → callee` makes `callee` hot only when the workspace has
//!   at most [`MAX_TWIN_DEFS`] non-test definitions of that name. One
//!   definition is an unambiguous resolution; two is the batch/scalar twin
//!   pattern this codebase uses throughout (`solve_base`,
//!   `step_with_rate_constants`). Three or more is ambiguous — common
//!   names like `new`, `value`, `len` would otherwise drag the whole
//!   workspace into the hot region — so propagation stops (a false
//!   negative, never a false positive);
//! * a name marked **cold** (the `advdiag::cold` boundary marker, see
//!   [`crate::hotpath`]) never enters the hot set and never propagates.
//!
//! Hotness is two-level (the [`Level`] lattice): a name is
//! [`Level::PerIter`] when some call path from a root crosses a loop body
//! — its whole body executes once per hot-loop iteration — and
//! [`Level::Warm`] when it is only reached by straight-line calls, so its
//! own setup code runs once per invocation and only its *loop bodies* are
//! per-iteration. Call edges therefore carry an `in_loop` flag (true when
//! some call site sits inside a `for`/`while` body): a `PerIter` caller
//! propagates `PerIter` over every edge, a `Warm` caller propagates
//! `PerIter` over in-loop edges and `Warm` over straight-line ones. This
//! is what lets a fleet driver hoist its scratch buffers *above* its step
//! loop — the canonical H1 fix — without the hoisted allocation itself
//! being flagged.
//!
//! Adding a call edge can only grow the hot set and only raise levels
//! (monotonicity — pinned by a proptest in
//! `crates/bench/tests/lint_callgraph.rs`); adding a *definition* can
//! shrink it by pushing a name over the multiplicity bound, which is the
//! intended ambiguity cutoff.

use std::collections::{BTreeMap, BTreeSet};

/// Maximum number of non-test definitions a callee name may have and still
/// receive hotness through a call edge (the batch/scalar twin bound).
pub const MAX_TWIN_DEFS: usize = 2;

/// How often a hot function's own body runs, relative to the kernel loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Reached only by straight-line calls: body runs once per root
    /// invocation; only its loop bodies are per-iteration regions.
    Warm,
    /// Some call path crosses a loop body (or the root is itself a
    /// per-step entry): the whole body is a per-iteration region.
    PerIter,
}

/// A name-grained call graph with declared hot roots and cold boundaries.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Definition multiplicity per name (non-test `fn` items).
    defs: BTreeMap<String, usize>,
    /// Call edges: caller name → callee name → "some call site is inside
    /// a loop body" (merged with OR across sites).
    edges: BTreeMap<String, BTreeMap<String, bool>>,
    /// Declared hot entry points with their cadence.
    roots: BTreeMap<String, Level>,
    /// Names excluded from the hot region (propagation boundaries).
    cold: BTreeSet<String>,
}

impl CallGraph {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one definition of `name` (call once per `fn` item).
    pub fn add_def(&mut self, name: &str) {
        *self.defs.entry(name.to_string()).or_insert(0) += 1;
    }

    /// Registers a call edge from the definition named `caller`.
    /// `in_loop` marks a call site inside a `for`/`while` body; repeated
    /// edges merge with OR, so one looped site makes the edge looped.
    pub fn add_call(&mut self, caller: &str, callee: &str, in_loop: bool) {
        let e = self
            .edges
            .entry(caller.to_string())
            .or_default()
            .entry(callee.to_string())
            .or_insert(false);
        *e |= in_loop;
    }

    /// Declares `name` a hot root (kernel entry, marker, par closure) at
    /// the given cadence. Repeated declarations keep the higher level.
    pub fn add_root(&mut self, name: &str, level: Level) {
        let e = self.roots.entry(name.to_string()).or_insert(level);
        if *e < level {
            *e = level;
        }
    }

    /// Declares `name` a cold boundary: it never becomes hot and hotness
    /// never propagates through it.
    pub fn add_cold(&mut self, name: &str) {
        self.cold.insert(name.to_string());
    }

    /// Number of registered non-test definitions of `name`.
    pub fn def_count(&self, name: &str) -> usize {
        self.defs.get(name).copied().unwrap_or(0)
    }

    /// The declared roots, in sorted order.
    pub fn roots(&self) -> impl Iterator<Item = &str> {
        self.roots.keys().map(String::as_str)
    }

    /// Computes the hot region with cadence levels: every name reachable
    /// from the declared roots under the multiplicity/cold rules, mapped
    /// to the highest [`Level`] any path assigns it. Deterministic (BTree
    /// iteration order) and monotone in the edge set.
    pub fn hot_levels(&self) -> BTreeMap<String, Level> {
        self.hot_levels_from(self.roots.iter().map(|(n, l)| (n.as_str(), *l)))
    }

    /// As [`Self::hot_levels`], but seeded from an explicit root set —
    /// the H3 pass restricts reachability to the shard stepping loop.
    pub fn hot_levels_from<'r>(
        &self,
        seeds: impl IntoIterator<Item = (&'r str, Level)>,
    ) -> BTreeMap<String, Level> {
        let mut hot: BTreeMap<String, Level> = BTreeMap::new();
        let mut work: Vec<String> = Vec::new();
        for (root, level) in seeds {
            if self.cold.contains(root) {
                continue;
            }
            match hot.get_mut(root) {
                Some(old) if *old >= level => {}
                Some(old) => {
                    *old = level;
                    work.push(root.to_string());
                }
                None => {
                    hot.insert(root.to_string(), level);
                    work.push(root.to_string());
                }
            }
        }
        while let Some(name) = work.pop() {
            let level = hot[&name];
            let Some(callees) = self.edges.get(&name) else {
                continue;
            };
            for (callee, &in_loop) in callees {
                if self.cold.contains(callee) {
                    continue;
                }
                let defs = self.def_count(callee);
                if !(1..=MAX_TWIN_DEFS).contains(&defs) {
                    continue;
                }
                let next = if level == Level::PerIter || in_loop {
                    Level::PerIter
                } else {
                    Level::Warm
                };
                match hot.get_mut(callee) {
                    Some(old) if *old >= next => {}
                    Some(old) => {
                        *old = next;
                        work.push(callee.clone());
                    }
                    None => {
                        hot.insert(callee.clone(), next);
                        work.push(callee.clone());
                    }
                }
            }
        }
        hot
    }

    /// The hot region as a plain set (levels dropped).
    pub fn hot_set(&self) -> BTreeSet<String> {
        self.hot_levels().into_keys().collect()
    }

    /// As [`Self::hot_set`], seeded from explicit per-iteration roots.
    pub fn hot_set_from<'r>(&self, roots: impl IntoIterator<Item = &'r str>) -> BTreeSet<String> {
        self.hot_levels_from(roots.into_iter().map(|r| (r, Level::PerIter)))
            .into_keys()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> CallGraph {
        let mut g = CallGraph::new();
        g.add_def("root_kernel");
        g.add_def("unique_helper");
        g.add_def("twin_a");
        g.add_def("twin_a");
        g.add_root("root_kernel", Level::PerIter);
        g
    }

    #[test]
    fn roots_and_unique_callees_are_hot() {
        let mut g = graph();
        g.add_call("root_kernel", "unique_helper", false);
        let hot = g.hot_set();
        assert!(hot.contains("root_kernel"));
        assert!(hot.contains("unique_helper"));
    }

    #[test]
    fn twin_defs_propagate_but_triples_do_not() {
        let mut g = graph();
        g.add_call("root_kernel", "twin_a", false);
        assert!(g.hot_set().contains("twin_a"));
        g.add_def("twin_a"); // third definition: now ambiguous
        assert!(!g.hot_set().contains("twin_a"));
    }

    #[test]
    fn external_names_do_not_propagate() {
        let mut g = graph();
        g.add_call("root_kernel", "with_capacity", false); // no workspace def
        assert!(!g.hot_set().contains("with_capacity"));
    }

    #[test]
    fn cold_boundary_stops_propagation() {
        let mut g = graph();
        g.add_def("dispatch");
        g.add_call("root_kernel", "dispatch", true);
        g.add_call("dispatch", "unique_helper", true);
        g.add_cold("dispatch");
        let hot = g.hot_set();
        assert!(!hot.contains("dispatch"));
        assert!(!hot.contains("unique_helper"));
    }

    #[test]
    fn transitive_reachability_and_cycles_terminate() {
        let mut g = graph();
        g.add_def("a");
        g.add_def("b");
        g.add_call("root_kernel", "a", false);
        g.add_call("a", "b", false);
        g.add_call("b", "a", false); // cycle
        let hot = g.hot_set();
        assert!(hot.contains("a") && hot.contains("b"));
    }

    #[test]
    fn adding_edges_is_monotone() {
        let mut g = graph();
        g.add_call("root_kernel", "twin_a", false);
        let before = g.hot_set();
        g.add_call("twin_a", "unique_helper", true);
        let after = g.hot_set();
        assert!(after.is_superset(&before));
    }

    #[test]
    fn warm_root_propagates_periter_only_through_loops() {
        let mut g = CallGraph::new();
        for n in ["driver", "setup", "kernel", "inner"] {
            g.add_def(n);
        }
        g.add_root("driver", Level::Warm);
        g.add_call("driver", "setup", false); // straight-line: setup code
        g.add_call("driver", "kernel", true); // called inside the step loop
        g.add_call("kernel", "inner", false); // straight-line from per-iter
        let levels = g.hot_levels();
        assert_eq!(levels["driver"], Level::Warm);
        assert_eq!(levels["setup"], Level::Warm);
        assert_eq!(levels["kernel"], Level::PerIter);
        // Everything a per-iteration function calls runs per iteration.
        assert_eq!(levels["inner"], Level::PerIter);
    }

    #[test]
    fn levels_upgrade_when_a_looped_path_appears() {
        let mut g = CallGraph::new();
        for n in ["driver", "helper"] {
            g.add_def(n);
        }
        g.add_root("driver", Level::Warm);
        g.add_call("driver", "helper", false);
        assert_eq!(g.hot_levels()["helper"], Level::Warm);
        g.add_call("driver", "helper", true); // OR-merge: now looped
        assert_eq!(g.hot_levels()["helper"], Level::PerIter);
    }
}
