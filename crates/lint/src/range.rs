//! Rules N1–N3 — interprocedural numeric-range analysis.
//!
//! The analysis propagates closed f64 intervals for locals through
//! let-bindings and arithmetic inside each function body, and — the
//! interprocedural part — across function boundaries *within one crate*:
//! a private free function whose every call site is visible gets per-
//! parameter facts joined over those sites, and a function with a
//! declared return type contributes the interval of its returned value
//! to its callers.
//!
//! Like U2, the analysis is *false-negative-lossy*: an [`Expr::Opaque`]
//! node, an unmodeled operator, a `pub` function (callers outside the
//! crate are invisible), a function mentioned as a value, or a name that
//! is ever locally shadowed all collapse to "unknown", which can only
//! ever silence a finding. The checks fire exclusively on facts proven
//! from visible literals and call sites:
//!
//! - **N1** — division whose denominator's proven range contains zero
//!   (`x / d` where some reachable call site makes `d` zero).
//! - **N2** — `exp()` whose argument's proven range exceeds
//!   `ln(f64::MAX)` ≈ 709.78 — the Butler–Volmer failure mode where an
//!   overpotential expressed in the wrong scale overflows to `+inf`.
//! - **N3** — subtraction of two provably near-equal constants
//!   (relative difference ≤ 1e-6): catastrophic cancellation leaves no
//!   significant digits in the result.
//!
//! Accepted imprecision (documented, not a parse-gap false positive):
//! the per-parameter join over call sites is context-insensitive, so two
//! sites passing −1.0 and +1.0 produce the hull `[−1, 1]`, which
//! contains zero even though no site passes zero. Guards of the shape
//! `if d != 0.0` / `if d > 0.0` (or `d.abs()` compared against a bound)
//! refine or clear the fact in the guarded branch, so idiomatically
//! defended divisions do not flag.

use std::collections::{BTreeMap, BTreeSet};

use crate::ast::{Block, Expr, FnItem, Item, ItemKind, Span, Stmt};
use crate::rules::{push, FileContext, Finding, BENCH_CRATE, LINT_CRATE};

/// `ln(f64::MAX)`: the largest argument `exp()` survives.
pub(crate) const EXP_OVERFLOW: f64 = 709.782712893384;

/// Relative difference below which two constants are "near-equal" (N3).
const CANCEL_RTOL: f64 = 1e-6;

/// A closed, finite f64 interval (`lo <= hi`). Anything that cannot be
/// proven finite is represented as `None` ("unknown") instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    fn new(lo: f64, hi: f64) -> Option<Interval> {
        if lo.is_finite() && hi.is_finite() && lo <= hi {
            Some(Interval { lo, hi })
        } else {
            None
        }
    }

    fn point(v: f64) -> Option<Interval> {
        Interval::new(v, v)
    }

    fn is_point(&self) -> bool {
        self.lo == self.hi
    }

    fn contains_zero(&self) -> bool {
        self.lo <= 0.0 && 0.0 <= self.hi
    }
}

fn hull(a: Interval, b: Interval) -> Option<Interval> {
    Interval::new(a.lo.min(b.lo), a.hi.max(b.hi))
}

fn add(a: Interval, b: Interval) -> Option<Interval> {
    Interval::new(a.lo + b.lo, a.hi + b.hi)
}

fn sub(a: Interval, b: Interval) -> Option<Interval> {
    Interval::new(a.lo - b.hi, a.hi - b.lo)
}

fn mul(a: Interval, b: Interval) -> Option<Interval> {
    let p = [a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi];
    Interval::new(
        p.iter().copied().fold(f64::INFINITY, f64::min),
        p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// Division; `None` when the divisor may be zero (the N1 check has
/// already spoken by then).
fn div(a: Interval, b: Interval) -> Option<Interval> {
    if b.contains_zero() {
        return None;
    }
    let p = [a.lo / b.lo, a.lo / b.hi, a.hi / b.lo, a.hi / b.hi];
    Interval::new(
        p.iter().copied().fold(f64::INFINITY, f64::min),
        p.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

fn neg(a: Interval) -> Option<Interval> {
    Interval::new(-a.hi, -a.lo)
}

fn abs(a: Interval) -> Option<Interval> {
    if a.lo >= 0.0 {
        Some(a)
    } else if a.hi <= 0.0 {
        neg(a)
    } else {
        Interval::new(0.0, a.hi.max(-a.lo))
    }
}

fn combine(
    l: Option<Interval>,
    r: Option<Interval>,
    f: impl Fn(Interval, Interval) -> Option<Interval>,
) -> Option<Interval> {
    match (l, r) {
        (Some(a), Some(b)) => f(a, b),
        _ => None,
    }
}

/// True when `a` and `b` are distinct but within `CANCEL_RTOL` of each
/// other relative to their magnitude (N3's trigger).
fn near_equal(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs());
    a != b && scale > 0.0 && (a - b).abs() <= CANCEL_RTOL * scale
}

/// Compact human rendering of a float for diagnostics.
fn fmtf(v: f64) -> String {
    let a = v.abs();
    if v != 0.0 && !(1e-4..1e7).contains(&a) {
        format!("{v:e}")
    } else {
        format!("{v}")
    }
}

fn fmt_interval(iv: Interval) -> String {
    if iv.is_point() {
        fmtf(iv.lo)
    } else {
        format!("[{}, {}]", fmtf(iv.lo), fmtf(iv.hi))
    }
}

type Env = BTreeMap<String, Interval>;

/// One free-function definition site.
#[derive(Clone, Copy)]
struct Def<'a> {
    f: &'a FnItem,
    is_pub: bool,
    in_test: bool,
}

enum Memo<T> {
    InProgress,
    Done(T),
}

/// Runs N1–N3 over every file of one crate. `files` must all belong to
/// the same crate (call-graph edges never cross crates). Excerpts and
/// end columns are left for the caller to fill.
pub fn analyze_crate<'a>(files: &[(FileContext<'a>, &'a [Item])]) -> Vec<Finding> {
    let Some((first, _)) = files.first() else {
        return Vec::new();
    };
    if first.crate_name == BENCH_CRATE || first.crate_name == LINT_CRATE {
        return Vec::new();
    }
    let mut an = Analyzer::default();
    for (_, items) in files {
        an.collect_items(items, false);
    }
    for (ctx, items) in files {
        an.check_file(*ctx, items);
    }
    an.findings
}

#[derive(Default)]
struct Analyzer<'a> {
    /// Free functions by name (only these resolve from a bare call).
    defs: BTreeMap<String, Vec<Def<'a>>>,
    /// Argument lists of every single-segment call, by callee name.
    calls: BTreeMap<String, Vec<&'a [Expr]>>,
    /// Occurrences of each name as a single-segment path expression
    /// (callee positions included). More uses than calls ⇒ the function
    /// escapes as a value and its call sites are not exhaustive.
    path_uses: BTreeMap<String, usize>,
    /// Names ever bound locally (let/param/closure/loop bindings, nested
    /// fn items): a call through such a name may not reach the free fn.
    shadowed: BTreeSet<String>,
    param_memo: BTreeMap<String, Memo<Vec<Option<Interval>>>>,
    ret_memo: BTreeMap<String, Memo<Option<Interval>>>,
    /// Accumulators for `return` expressions, one frame per function
    /// body being summarized (closures push a discarded frame).
    ret_frames: Vec<Vec<Option<Interval>>>,
    /// Non-zero while evaluating for facts only: findings are owed to
    /// the pass that walks the function's own file.
    quiet: u32,
    cur: Option<FileContext<'a>>,
    findings: Vec<Finding>,
}

impl<'a> Analyzer<'a> {
    // ---- collection pass -------------------------------------------------

    fn collect_items(&mut self, items: &'a [Item], in_test: bool) {
        for it in items {
            let t = in_test || it.in_test;
            match &it.kind {
                ItemKind::Fn(f) => {
                    self.defs.entry(f.name.clone()).or_default().push(Def {
                        f,
                        is_pub: it.is_pub,
                        in_test: t,
                    });
                    self.collect_fn(f);
                }
                ItemKind::Mod { items, .. } => self.collect_items(items, t),
                ItemKind::Impl { items, .. } | ItemKind::Trait { items, .. } => {
                    // Methods never resolve from a bare call, so they are
                    // not defs; their bodies still contribute call sites.
                    for sub in items {
                        if let ItemKind::Fn(f) = &sub.kind {
                            self.collect_fn(f);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    fn collect_fn(&mut self, f: &'a FnItem) {
        for p in &f.params {
            self.shadowed.extend(p.names.iter().cloned());
        }
        if let Some(b) = &f.body {
            self.scan_block(b);
        }
    }

    fn scan_block(&mut self, b: &'a Block) {
        for s in &b.stmts {
            match s {
                Stmt::Let { names, init, .. } => {
                    self.shadowed.extend(names.iter().cloned());
                    if let Some(e) = init {
                        self.scan_expr(e);
                    }
                }
                Stmt::Expr(e) => self.scan_expr(e),
                Stmt::Item(it) => {
                    // A nested fn shadows a crate-level name for the rest
                    // of the block: treat it as a local binding.
                    if let ItemKind::Fn(f) = &it.kind {
                        self.shadowed.insert(f.name.clone());
                        self.collect_fn(f);
                    }
                }
            }
        }
    }

    fn scan_expr(&mut self, e: &'a Expr) {
        match e {
            Expr::Path { segments, .. } => {
                if let [name] = segments.as_slice() {
                    *self.path_uses.entry(name.clone()).or_default() += 1;
                }
            }
            Expr::Lit { .. } | Expr::MacroCall { .. } | Expr::Opaque { .. } => {}
            Expr::Unary { expr, .. } | Expr::Cast { expr, .. } => self.scan_expr(expr),
            Expr::Binary { lhs, rhs, .. } => {
                self.scan_expr(lhs);
                self.scan_expr(rhs);
            }
            Expr::Assign { target, value, .. } => {
                self.scan_expr(target);
                self.scan_expr(value);
            }
            Expr::MethodCall { recv, args, .. } => {
                self.scan_expr(recv);
                for a in args {
                    self.scan_expr(a);
                }
            }
            Expr::Field { recv, .. } => self.scan_expr(recv),
            Expr::Call { callee, args, .. } => {
                if let Expr::Path { segments, .. } = &**callee {
                    if let [name] = segments.as_slice() {
                        self.calls
                            .entry(name.clone())
                            .or_default()
                            .push(args.as_slice());
                    }
                }
                self.scan_expr(callee);
                for a in args {
                    self.scan_expr(a);
                }
            }
            Expr::Index { recv, index, .. } => {
                self.scan_expr(recv);
                self.scan_expr(index);
            }
            Expr::Closure { params, body, .. } => {
                self.shadowed.extend(params.iter().cloned());
                self.scan_expr(body);
            }
            Expr::Block(b) => self.scan_block(b),
            Expr::If {
                cond, then, els, ..
            } => {
                self.scan_expr(cond);
                self.scan_block(then);
                if let Some(e) = els {
                    self.scan_expr(e);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.scan_expr(scrutinee);
                for a in arms {
                    self.scan_expr(a);
                }
            }
            Expr::For {
                bindings,
                iter,
                body,
                ..
            } => {
                self.shadowed.extend(bindings.iter().cloned());
                self.scan_expr(iter);
                self.scan_block(body);
            }
            Expr::While { cond, body, .. } => {
                self.scan_expr(cond);
                self.scan_block(body);
            }
            Expr::Seq { items, .. } | Expr::StructLit { fields: items, .. } => {
                for it in items {
                    self.scan_expr(it);
                }
            }
        }
    }

    // ---- interprocedural facts ------------------------------------------

    fn unique_def(&self, name: &str) -> Option<Def<'a>> {
        match self.defs.get(name).map(|v| v.as_slice()) {
            Some([d]) => Some(*d),
            _ => None,
        }
    }

    /// Joined per-parameter intervals over every visible call site of a
    /// private, unambiguous, never-escaping free function. Anything less
    /// proven yields `None` entries (unknown).
    fn param_facts(&mut self, name: &str) -> Vec<Option<Interval>> {
        match self.param_memo.get(name) {
            Some(Memo::Done(v)) => return v.clone(),
            Some(Memo::InProgress) => return Vec::new(),
            None => {}
        }
        self.param_memo.insert(name.to_string(), Memo::InProgress);
        let v = self.compute_param_facts(name);
        self.param_memo
            .insert(name.to_string(), Memo::Done(v.clone()));
        v
    }

    fn compute_param_facts(&mut self, name: &str) -> Vec<Option<Interval>> {
        let Some(def) = self.unique_def(name) else {
            return Vec::new();
        };
        let arity = def.f.params.len();
        let unknown = vec![None; arity];
        if def.is_pub || def.in_test || self.shadowed.contains(name) {
            return unknown;
        }
        let sites: Vec<&'a [Expr]> = self.calls.get(name).cloned().unwrap_or_default();
        let n_paths = self.path_uses.get(name).copied().unwrap_or(0);
        if sites.is_empty() || n_paths > sites.len() {
            return unknown; // never called, or escapes as a value
        }
        if sites.iter().any(|args| args.len() != arity) {
            return unknown;
        }
        self.quiet += 1;
        self.ret_frames.push(Vec::new());
        let mut facts = Vec::with_capacity(arity);
        for i in 0..arity {
            let mut acc: Option<Interval> = None;
            for args in &sites {
                let mut env = Env::new(); // context-free: caller locals unknown
                let v = self.eval_expr(&mut env, &args[i]);
                acc = match (acc, v) {
                    (None, Some(b)) => Some(b),
                    (Some(a), Some(b)) => hull(a, b),
                    _ => None,
                };
                if acc.is_none() {
                    break;
                }
            }
            facts.push(acc);
        }
        self.ret_frames.pop();
        self.quiet -= 1;
        facts
    }

    /// Interval of the value returned by `name`, or `None` when it is
    /// not a unique free fn with a declared return type — or on a
    /// call-graph cycle, which parks the in-progress entry at unknown.
    fn ret_of(&mut self, name: &str) -> Option<Interval> {
        match self.ret_memo.get(name) {
            Some(Memo::Done(v)) => return *v,
            Some(Memo::InProgress) => return None,
            None => {}
        }
        self.ret_memo.insert(name.to_string(), Memo::InProgress);
        let v = self.compute_ret(name);
        self.ret_memo.insert(name.to_string(), Memo::Done(v));
        v
    }

    fn compute_ret(&mut self, name: &str) -> Option<Interval> {
        let def = self.unique_def(name)?;
        if def.in_test || self.shadowed.contains(name) || !def.f.has_ret {
            return None;
        }
        let f = def.f;
        let body = f.body.as_ref()?;
        let facts = self.param_facts(name);
        let mut env = Env::new();
        for (i, p) in f.params.iter().enumerate() {
            if let ([n], Some(Some(iv))) = (p.names.as_slice(), facts.get(i)) {
                env.insert(n.clone(), *iv);
            }
        }
        self.quiet += 1;
        self.ret_frames.push(Vec::new());
        let trailing = self.eval_block(&mut env, body);
        let frame = self.ret_frames.pop().unwrap_or_default();
        self.quiet -= 1;
        // The function's value is the join of every `return` expression
        // plus — when control can fall through — the trailing expression
        // (sound for compiling code: `has_ret` means a non-returning
        // trailing statement cannot be reached).
        let falls_through = matches!(
            body.stmts.last(),
            Some(Stmt::Expr(e)) if !matches!(e, Expr::Unary { op, .. } if op == "return")
        );
        let mut vals = frame;
        if falls_through {
            vals.push(trailing);
        }
        if vals.is_empty() {
            return None;
        }
        let mut acc: Option<Interval> = None;
        for v in vals {
            let v = v?; // one unknown return path poisons the summary
            acc = match acc {
                None => Some(v),
                Some(a) => hull(a, v),
            };
            acc?;
        }
        acc
    }

    // ---- checking pass ---------------------------------------------------

    fn check_file(&mut self, ctx: FileContext<'a>, items: &'a [Item]) {
        self.cur = Some(ctx);
        for item in items {
            item.visit_fns(&mut |owner, f| {
                if owner.in_test {
                    return;
                }
                let Some(body) = &f.body else {
                    return;
                };
                let mut env = Env::new();
                let is_the_def = self
                    .unique_def(&f.name)
                    .map(|d| std::ptr::eq(d.f, f))
                    .unwrap_or(false);
                if is_the_def {
                    let facts = self.param_facts(&f.name);
                    for (i, p) in f.params.iter().enumerate() {
                        if let ([n], Some(Some(iv))) = (p.names.as_slice(), facts.get(i)) {
                            env.insert(n.clone(), *iv);
                        }
                    }
                }
                self.eval_block(&mut env, body);
            });
        }
        self.cur = None;
    }

    fn emit(&mut self, rule: &'static str, span: Span, message: String) {
        if self.quiet > 0 {
            return;
        }
        let Some(ctx) = self.cur else {
            return;
        };
        push(&mut self.findings, rule, &ctx, span.line, span.col, message);
    }

    fn check_div(&mut self, span: Span, divisor: Option<Interval>) {
        if let Some(b) = divisor {
            if b.contains_zero() {
                self.emit(
                    "N1",
                    span,
                    format!(
                        "division by a denominator whose proven range {} \
                         contains zero: a reachable call site or constant \
                         makes this divide yield ±inf/NaN; guard the zero \
                         case explicitly",
                        fmt_interval(b)
                    ),
                );
            }
        }
    }

    fn eval_block(&mut self, env: &mut Env, b: &'a Block) -> Option<Interval> {
        let n = b.stmts.len();
        let mut last = None;
        for (i, s) in b.stmts.iter().enumerate() {
            match s {
                Stmt::Let { names, init, .. } => {
                    let v = init.as_ref().and_then(|e| self.eval_expr(env, e));
                    for nm in names {
                        env.remove(nm);
                    }
                    if let (Some(iv), [nm]) = (v, names.as_slice()) {
                        env.insert(nm.clone(), iv);
                    }
                    last = None;
                }
                Stmt::Expr(e) => {
                    let v = self.eval_expr(env, e);
                    last = if i + 1 == n { v } else { None };
                }
                Stmt::Item(_) => {
                    last = None;
                }
            }
        }
        last
    }

    /// Evaluates a branch body on a clone of `env`, then invalidates
    /// every name it assigns in the outer environment.
    fn eval_branch_expr(&mut self, env: &mut Env, e: &'a Expr) -> Option<Interval> {
        let mut inner = env.clone();
        let v = self.eval_expr(&mut inner, e);
        kill_assigned(env, e);
        v
    }

    fn eval_expr(&mut self, env: &mut Env, e: &'a Expr) -> Option<Interval> {
        match e {
            Expr::Path { segments, .. } => match segments.as_slice() {
                [name] => env.get(name).copied(),
                _ => None,
            },
            Expr::Lit { value, .. } => value.and_then(Interval::point),
            Expr::MacroCall { .. } | Expr::Opaque { .. } => None,
            Expr::Unary { op, expr, .. } => {
                let v = self.eval_expr(env, expr);
                match op.as_str() {
                    "-" => v.and_then(neg),
                    "&" | "*" => v,
                    "return" => {
                        if let Some(frame) = self.ret_frames.last_mut() {
                            frame.push(v);
                        }
                        None
                    }
                    _ => None,
                }
            }
            Expr::Binary { op, lhs, rhs, span } => {
                let l = self.eval_expr(env, lhs);
                let r = self.eval_expr(env, rhs);
                match op.as_str() {
                    "+" => combine(l, r, add),
                    "-" => {
                        if let (Some(a), Some(b)) = (l, r) {
                            if a.is_point() && b.is_point() && near_equal(a.lo, b.lo) {
                                self.emit(
                                    "N3",
                                    *span,
                                    format!(
                                        "subtracting provably near-equal values \
                                         ({} − {}, relative difference ≤ 1e-6): \
                                         catastrophic cancellation leaves no \
                                         significant digits; reformulate the \
                                         difference analytically",
                                        fmtf(a.lo),
                                        fmtf(b.lo)
                                    ),
                                );
                            }
                        }
                        combine(l, r, sub)
                    }
                    "*" => combine(l, r, mul),
                    "/" => {
                        self.check_div(*span, r);
                        combine(l, r, div)
                    }
                    _ => None,
                }
            }
            Expr::Assign {
                op,
                target,
                value,
                span,
            } => {
                let v = self.eval_expr(env, value);
                if op == "/=" {
                    self.check_div(*span, v);
                }
                if let Expr::Path { segments, .. } = &**target {
                    if let [name] = segments.as_slice() {
                        env.remove(name);
                        if op == "=" {
                            if let Some(iv) = v {
                                env.insert(name.clone(), iv);
                            }
                        }
                        return None;
                    }
                }
                self.eval_expr(env, target);
                None
            }
            Expr::MethodCall {
                recv,
                method,
                args,
                span,
            } => {
                let r = self.eval_expr(env, recv);
                let arg_vals: Vec<Option<Interval>> =
                    args.iter().map(|a| self.eval_expr(env, a)).collect();
                match method.as_str() {
                    "exp" if args.is_empty() => {
                        if let Some(iv) = r {
                            if iv.hi > EXP_OVERFLOW {
                                self.emit(
                                    "N2",
                                    *span,
                                    format!(
                                        "`exp()` of a value proven to reach {} \
                                         (> ln(f64::MAX) ≈ 709.78): the result \
                                         overflows to +inf and poisons every \
                                         downstream quantity; rescale the \
                                         exponent (wrong unit scale?) or clamp \
                                         it first",
                                        fmtf(iv.hi)
                                    ),
                                );
                            } else {
                                return Interval::new(iv.lo.exp(), iv.hi.exp());
                            }
                        }
                        None
                    }
                    "abs" if args.is_empty() => r.and_then(abs),
                    "sqrt" if args.is_empty() => r.and_then(|iv| {
                        if iv.lo >= 0.0 {
                            Interval::new(iv.lo.sqrt(), iv.hi.sqrt())
                        } else {
                            None
                        }
                    }),
                    "min" if args.len() == 1 => combine(r, arg_vals[0], |a, b| {
                        Interval::new(a.lo.min(b.lo), a.hi.min(b.hi))
                    }),
                    "max" if args.len() == 1 => combine(r, arg_vals[0], |a, b| {
                        Interval::new(a.lo.max(b.lo), a.hi.max(b.hi))
                    }),
                    _ => None,
                }
            }
            Expr::Call { callee, args, .. } => {
                for a in args {
                    self.eval_expr(env, a);
                }
                if let Expr::Path { segments, .. } = &**callee {
                    if let [name] = segments.as_slice() {
                        if !self.shadowed.contains(name) {
                            return self.ret_of(name);
                        }
                    }
                    None
                } else {
                    self.eval_expr(env, callee);
                    None
                }
            }
            Expr::Field { recv, .. } => {
                self.eval_expr(env, recv);
                None
            }
            Expr::Index { recv, index, .. } => {
                self.eval_expr(env, recv);
                self.eval_expr(env, index);
                None
            }
            Expr::Closure { params, body, .. } => {
                let mut inner = env.clone();
                for p in params {
                    inner.remove(p);
                }
                // `return` inside a closure returns from the closure.
                self.ret_frames.push(Vec::new());
                self.eval_expr(&mut inner, body);
                self.ret_frames.pop();
                kill_assigned(env, body);
                None
            }
            Expr::Block(b) => self.eval_block(env, b),
            Expr::If {
                cond, then, els, ..
            } => {
                self.eval_expr(env, cond);
                let then_v = {
                    let mut inner = env.clone();
                    refine_env(&mut inner, cond);
                    let v = self.eval_block(&mut inner, then);
                    kill_assigned_in_block(env, then);
                    v
                };
                let els_v = els.as_ref().map(|e| self.eval_branch_expr(env, e));
                match (then_v, els_v) {
                    (Some(a), Some(Some(b))) => hull(a, b),
                    _ => None,
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                self.eval_expr(env, scrutinee);
                let mut acc: Option<Interval> = None;
                let mut all_known = !arms.is_empty();
                for a in arms {
                    let v = self.eval_branch_expr(env, a);
                    acc = match (acc, v) {
                        (None, Some(b)) => Some(b),
                        (Some(x), Some(b)) => hull(x, b),
                        _ => {
                            all_known = false;
                            None
                        }
                    };
                }
                if all_known {
                    acc
                } else {
                    None
                }
            }
            Expr::For {
                bindings,
                iter,
                body,
                ..
            } => {
                self.eval_expr(env, iter);
                let mut inner = env.clone();
                for b in bindings {
                    inner.remove(b);
                }
                // Pre-kill loop-mutated names: the walk models an
                // arbitrary iteration, not just the first.
                kill_assigned_in_block(&mut inner, body);
                self.eval_block(&mut inner, body);
                kill_assigned_in_block(env, body);
                None
            }
            Expr::While { cond, body, .. } => {
                let mut inner = env.clone();
                kill_assigned(&mut inner, cond);
                kill_assigned_in_block(&mut inner, body);
                self.eval_expr(&mut inner, cond);
                self.eval_block(&mut inner, body);
                kill_assigned(env, cond);
                kill_assigned_in_block(env, body);
                None
            }
            Expr::Cast { expr, .. } => {
                self.eval_expr(env, expr);
                None // the target repr may truncate: forget
            }
            Expr::Seq { items, .. } | Expr::StructLit { fields: items, .. } => {
                for it in items {
                    self.eval_expr(env, it);
                }
                None
            }
        }
    }
}

/// Narrows `env` under the assumption that `cond` held. Only shapes
/// whose refinement is obviously sound are handled: a single-segment
/// path compared against a point constant (possibly through `.abs()`,
/// which simply forgets the name), and `&&` conjunctions of those.
fn refine_env(env: &mut Env, cond: &Expr) {
    let Expr::Binary { op, lhs, rhs, .. } = cond else {
        return;
    };
    if op == "&&" {
        refine_env(env, lhs);
        refine_env(env, rhs);
        return;
    }
    // `d.abs() > eps`-style guards: the hull of the allowed set is not
    // representable, so just forget the name (unknown never flags).
    for side in [&**lhs, &**rhs] {
        if let Expr::MethodCall {
            recv, method, args, ..
        } = side
        {
            if method == "abs" && args.is_empty() {
                if let Expr::Path { segments, .. } = &**recv {
                    if let [name] = segments.as_slice() {
                        env.remove(name);
                    }
                }
            }
        }
    }
    let (name, lit, mirrored) = match (&**lhs, &**rhs) {
        (Expr::Path { segments, .. }, Expr::Lit { value: Some(v), .. }) if segments.len() == 1 => {
            (&segments[0], *v, false)
        }
        (Expr::Lit { value: Some(v), .. }, Expr::Path { segments, .. }) if segments.len() == 1 => {
            (&segments[0], *v, true)
        }
        _ => return,
    };
    let op = match (op.as_str(), mirrored) {
        (">", false) | ("<", true) => ">",
        (">=", false) | ("<=", true) => ">=",
        ("<", false) | (">", true) => "<",
        ("<=", false) | (">=", true) => "<=",
        ("==", _) => "==",
        ("!=", _) => "!=",
        _ => return,
    };
    let Some(cur) = env.get(name).copied() else {
        // No prior fact: a comparison still bounds the name on one side
        // only, which an interval cannot hold without the other bound.
        if op == "==" {
            if let Some(iv) = Interval::point(lit) {
                env.insert(name.clone(), iv);
            }
        }
        return;
    };
    let (mut lo, mut hi) = (cur.lo, cur.hi);
    match op {
        ">" => {
            lo = lo.max(lit);
            if lit == 0.0 {
                lo = lo.max(f64::MIN_POSITIVE);
            }
        }
        ">=" => lo = lo.max(lit),
        "<" => {
            hi = hi.min(lit);
            if lit == 0.0 {
                hi = hi.min(-f64::MIN_POSITIVE);
            }
        }
        "<=" => hi = hi.min(lit),
        "==" => {
            lo = lit;
            hi = lit;
        }
        "!=" => {
            // Only edge exclusion is representable in a closed interval.
            if lo == lit && hi == lit {
                env.remove(name);
                return;
            }
            if lo == lit {
                lo = if lit == 0.0 { f64::MIN_POSITIVE } else { lo };
            }
            if hi == lit {
                hi = if lit == 0.0 { -f64::MIN_POSITIVE } else { hi };
            }
        }
        _ => {}
    }
    match Interval::new(lo, hi) {
        Some(iv) => {
            env.insert(name.clone(), iv);
        }
        None => {
            env.remove(name); // contradictory guard: branch is dead
        }
    }
}

fn kill_assigned(env: &mut Env, e: &Expr) {
    e.visit(&mut |x| {
        if let Expr::Assign { target, .. } = x {
            if let Expr::Path { segments, .. } = &**target {
                if let [name] = segments.as_slice() {
                    env.remove(name);
                }
            }
        }
    });
}

fn kill_assigned_in_block(env: &mut Env, b: &Block) {
    b.visit(&mut |x| {
        if let Expr::Assign { target, .. } = x {
            if let Expr::Path { segments, .. } = &**target {
                if let [name] = segments.as_slice() {
                    env.remove(name);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use crate::rules::{lint_source, FileContext};

    fn ctx() -> FileContext<'static> {
        FileContext {
            crate_name: "bios-electrochem",
            rel_path: "crates/electrochem/src/x.rs",
        }
    }

    fn hits(src: &str, rule: &str) -> Vec<String> {
        lint_source(&ctx(), src)
            .into_iter()
            .filter(|f| f.rule == rule)
            .map(|f| f.message)
            .collect()
    }

    #[test]
    fn n1_fires_on_local_zero_denominator() {
        let h = hits("fn f() -> f64 {\n    let d = 0.0;\n    1.0 / d\n}\n", "N1");
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(hits("fn f() -> f64 {\n    let d = 2.0;\n    1.0 / d\n}\n", "N1").is_empty());
    }

    #[test]
    fn n1_propagates_across_call_sites() {
        let src = "fn scale(x: f64, d: f64) -> f64 {\n    x / d\n}\nfn driver() -> f64 {\n    scale(3.0, 0.0)\n}\n";
        let h = hits(src, "N1");
        assert_eq!(h.len(), 1, "{h:?}");
        // Same shape, non-zero at every site: clean.
        let ok = "fn scale(x: f64, d: f64) -> f64 {\n    x / d\n}\nfn driver() -> f64 {\n    scale(3.0, 2.0) + scale(1.0, 4.0)\n}\n";
        assert!(hits(ok, "N1").is_empty());
    }

    #[test]
    fn n1_respects_guards_and_unknowns() {
        // A zero-excluding guard clears the fact in the branch.
        let guarded = "fn scale(x: f64, d: f64) -> f64 {\n    if d != 0.0 { x / d } else { 0.0 }\n}\nfn driver() -> f64 {\n    scale(3.0, 0.0)\n}\n";
        assert!(hits(guarded, "N1").is_empty(), "{:?}", hits(guarded, "N1"));
        // Unknown denominators (pub fn: external callers invisible) never flag.
        let unknown = "pub fn scale(x: f64, d: f64) -> f64 {\n    x / d\n}\n";
        assert!(hits(unknown, "N1").is_empty());
    }

    #[test]
    fn n1_disqualifies_escaping_and_shadowed_fns() {
        // The fn escapes as a value: its call sites are not exhaustive.
        let escapes = "fn scale(d: f64) -> f64 {\n    1.0 / d\n}\nfn driver() -> f64 {\n    apply(scale);\n    scale(0.0)\n}\n";
        assert!(hits(escapes, "N1").is_empty(), "{:?}", hits(escapes, "N1"));
    }

    #[test]
    fn n2_fires_on_overflowing_exp() {
        let h = hits(
            "fn f() -> f64 {\n    let eta = 1000.0;\n    eta.exp()\n}\n",
            "N2",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(hits(
            "fn f() -> f64 {\n    let eta = 1.0;\n    eta.exp()\n}\n",
            "N2"
        )
        .is_empty());
    }

    #[test]
    fn n2_sees_through_returns() {
        let src = "fn overpotential() -> f64 {\n    38.9 * 26000.0\n}\nfn rate() -> f64 {\n    overpotential().exp()\n}\n";
        let h = hits(src, "N2");
        assert_eq!(h.len(), 1, "{h:?}");
    }

    #[test]
    fn n3_fires_on_near_equal_constants() {
        let h = hits(
            "fn f() -> f64 {\n    let a = 1.0000001;\n    let b = 1.0;\n    a - b\n}\n",
            "N3",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(hits("fn f() -> f64 {\n    2.0 - 1.0\n}\n", "N3").is_empty());
        // Exactly equal is exact zero, not cancellation.
        assert!(hits("fn f() -> f64 {\n    let a = 1.0;\n    a - 1.0\n}\n", "N3").is_empty());
    }

    #[test]
    fn n_rules_are_suppressible_and_skip_tests() {
        let suppressed = "fn f() -> f64 {\n    let d = 0.0;\n    // advdiag::allow(N1, sentinel divide exercised in the fault demo)\n    1.0 / d\n}\n";
        assert!(hits(suppressed, "N1").is_empty());
        let test_only = "#[cfg(test)]\nmod t {\n    fn f() -> f64 {\n        let d = 0.0;\n        1.0 / d\n    }\n}\n";
        assert!(hits(test_only, "N1").is_empty());
    }
}
