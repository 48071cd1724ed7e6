//! The proof-carrying transform checker: replays a [`TransformLog`]
//! and proves each pass's precondition against the kernel snapshots,
//! independently of the pass implementations in `augem-transforms`.
//!
//! The shape mirrors the register allocator's `BindingLog` replay in
//! `augem-verify`: the generator records what it did and what it relied
//! on; this module re-derives every claim from scratch and emits a
//! `T`-series diagnostic for each one it cannot prove.
//!
//! | Rule | Pass | Precondition proved |
//! |---|---|---|
//! | T001 | unroll&jam / unroll | the named loop exists |
//! | T002 | unroll&jam / unroll | the unroll factor is positive |
//! | T003 | unroll&jam | no body-defined local is live into the body |
//! | T004 | unroll&jam | no carried (or unprovable) array dependence on the jammed loop |
//! | T005 | unroll | every expanded local really is a pure `+=` accumulator |
//! | T006 | strength reduction | stride/base forms are loop-invariant and the increment sits in the right loop |
//! | T007 | strength reduction | exactly one increment exists and it matches `coeff·step` |
//! | T008 | scalar replacement | no may-alias write between a grouped load and its store |
//! | T009 | scalar replacement | a clobbered source scalar is dead after its store |
//! | T010 | prefetch | prefetch distances lie inside the configured window |
//! | T011 | prefetch | every prefetched pointer is actually accessed nearby |
//! | T012 | (chain) | each snapshot continues exactly from the previous one |

use std::collections::{HashMap, HashSet};

use augem_ir::visit::{stmt_def, stmt_uses, walk_with_positions};
use augem_ir::{BinOp, Expr, Kernel, LValue, Stmt, Sym, SymKind, Ty};
use augem_transforms::linear::LinearForm;
use augem_transforms::{PassRecord, PrefetchConfig, SrGroup, TransformLog, TransformStep};
use augem_verify::{Diagnostic, Rule, Span};

use crate::affine::AccessMap;
use crate::deps::{canon, decompose, dependence_decomposed, Decomposed, Verdict};

/// Replays `log` (as produced by
/// `augem_transforms::generate_optimized_logged` on `source`) and
/// returns every transform-legality violation found. When
/// `final_kernel` is given, it must equal the last step's result
/// (pass `None` when later stages — e.g. template identification —
/// are allowed to have rewritten the kernel further).
pub fn check_transforms(
    source: &Kernel,
    log: &TransformLog,
    final_kernel: Option<&Kernel>,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();

    // T012: the snapshot chain must be gapless.
    let mut prev = source;
    for (i, step) in log.steps.iter().enumerate() {
        if !same_kernel(&step.before, prev) {
            diags.push(Diagnostic::new(
                Rule::LogDiscontinuity,
                Span::Kernel,
                format!(
                    "step {i} ({}) does not start from the previous step's result",
                    step.pass.name()
                ),
            ));
        }
        prev = &step.after;
    }
    if let Some(fk) = final_kernel {
        if !same_kernel(fk, prev) {
            diags.push(Diagnostic::new(
                Rule::LogDiscontinuity,
                Span::Kernel,
                "final kernel does not match the last recorded step's result".to_string(),
            ));
        }
    }

    // Per-pass preconditions. Strength-reduction facts accumulate so
    // later scalar-replacement checks can resolve derived pointers.
    let mut sr_facts: HashMap<Sym, SrGroup> = HashMap::new();
    for step in &log.steps {
        match &step.pass {
            PassRecord::UnrollJam { var, factor } => {
                check_unroll_jam(step, var, *factor, &mut diags);
            }
            PassRecord::UnrollInner {
                var,
                factor,
                accumulators,
                ..
            } => {
                check_unroll_inner(step, var, *factor, accumulators, &mut diags);
            }
            PassRecord::StrengthReduce { groups } => {
                check_strength(step, groups, &mut diags);
                for g in groups {
                    sr_facts.insert(g.ptr, g.clone());
                }
            }
            PassRecord::ScalarReplace => check_scalar(step, &sr_facts, &mut diags),
            PassRecord::Prefetch { config } => check_prefetch(step, config, &mut diags),
        }
    }
    augem_verify::dedup(diags)
}

/// Does `e` mention `x` (as a variable or an array base)? Allocation-
/// free counterpart of `collect_syms` + `contains` for the hot
/// liveness and accumulator scans.
fn expr_mentions(e: &Expr, x: Sym) -> bool {
    match e {
        Expr::Int(_) | Expr::F64(_) => false,
        Expr::Var(s) => *s == x,
        Expr::ArrayRef { base, index } => *base == x || expr_mentions(index, x),
        Expr::Bin(_, l, r) => expr_mentions(l, x) || expr_mentions(r, x),
    }
}

/// Does statement `s` *use* `x`? Mirrors `augem_ir::visit::stmt_uses`
/// without building the symbol vector.
fn stmt_mentions(s: &Stmt, x: Sym) -> bool {
    match s {
        Stmt::Assign { dst, src } => {
            matches!(dst, LValue::ArrayRef { base, index } if *base == x || expr_mentions(index, x))
                || expr_mentions(src, x)
        }
        Stmt::For { init, bound, .. } => expr_mentions(init, x) || expr_mentions(bound, x),
        Stmt::Prefetch { base, index, .. } => *base == x || expr_mentions(index, x),
        Stmt::Region { .. } | Stmt::Comment(_) => false,
    }
}

/// Structural equality of two snapshots: same function name, same
/// parameter list, same statement tree, same pointer provenance.
/// Symbols are compared by id — the chain's snapshots all extend one
/// symbol table, so ids are stable across it (and a forged snapshot
/// from some other derivation disagrees in ids even faster than in
/// rendered text).
fn same_kernel(a: &Kernel, b: &Kernel) -> bool {
    a.name == b.name && a.params == b.params && a.body == b.body && a.ptr_origin == b.ptr_origin
}

// ---------------------------------------------------------------------------
// unroll&jam: T001 / T002 / T003 / T004
// ---------------------------------------------------------------------------

fn check_unroll_jam(step: &TransformStep, var: &str, factor: usize, diags: &mut Vec<Diagnostic>) {
    let k = &step.before;
    if factor == 0 {
        diags.push(Diagnostic::new(
            Rule::BadUnrollFactor,
            Span::Kernel,
            format!("unroll&jam of loop `{var}` recorded with factor 0"),
        ));
        return;
    }
    let map = AccessMap::of(k);
    let Some(l) = map.first_loop_named(k, var) else {
        diags.push(Diagnostic::new(
            Rule::JamLoopMissing,
            Span::Kernel,
            format!("unroll&jam records loop `{var}` but the kernel has no such loop"),
        ));
        return;
    };

    // T003: a local that is both defined in the jammed body and read
    // before its first definition would read its *previous iteration's*
    // value — per-copy renaming during jamming breaks that.
    if let Some(body) = first_loop_body(&k.body, var, k) {
        let mut defined_in_body = HashSet::new();
        collect_local_defs(body, k, &mut defined_in_body);
        let mut seen = HashSet::new();
        let mut live_in = Vec::new();
        read_before_write(body, &defined_in_body, &mut seen, &mut live_in);
        for s in live_in {
            diags.push(Diagnostic::new(
                Rule::JamLiveInLocal,
                Span::Ir(l.pos),
                format!(
                    "jamming loop `{var}` would duplicate local `{}`, which is read before it is written",
                    k.syms.name(s)
                ),
            ));
        }
    }

    // T004: jamming reorders iterations of `var` relative to the body's
    // statement order; any dependence carried by `var` (or one the
    // analysis cannot rule out) between two accesses where at least one
    // writes makes that reordering unsafe.
    let trip = map.trip_of(l.var);
    let loop_vars = map.loop_vars();
    let inside: Vec<&crate::affine::Access> = map.accesses_in(l).collect();
    // Each subscript is decomposed once, not once per pair.
    let split: Vec<Option<Decomposed>> = inside
        .iter()
        .map(|a| a.index.as_ref().and_then(|f| decompose(f, &loop_vars)))
        .collect();
    for (i, a) in inside.iter().enumerate() {
        for (b, b_split) in inside[i..].iter().zip(&split[i..]) {
            if !a.write && !b.write {
                continue;
            }
            // Distinct source arrays never alias (kernel parameters are
            // independent allocations).
            if a.origin != b.origin {
                continue;
            }
            let verdict = match (&split[i], b_split) {
                (Some(f), Some(g)) => dependence_decomposed(l.var, f, g, trip),
                _ => Verdict::Unknown,
            };
            let word = match verdict {
                Verdict::Independent | Verdict::LoopIndependent => continue,
                Verdict::Carried(_) => "a carried",
                Verdict::Unknown => "an unprovable",
            };
            diags.push(Diagnostic::new(
                Rule::JamCarriedDependence,
                Span::Ir(a.pos),
                format!(
                    "jamming loop `{var}` may reorder {word} dependence on array `{}` (accesses at ir stmts {} and {})",
                    k.syms.name(a.origin),
                    a.pos,
                    b.pos
                ),
            ));
        }
    }
}

/// Body of the first (pre-order) loop whose variable is named `var` —
/// the loop `transforms::unroll::rewrite_loop` targets.
fn first_loop_body<'a>(stmts: &'a [Stmt], var: &str, k: &Kernel) -> Option<&'a [Stmt]> {
    for s in stmts {
        match s {
            Stmt::For { var: v, body, .. } => {
                if k.syms.name(*v) == var {
                    return Some(body);
                }
                if let Some(b) = first_loop_body(body, var, k) {
                    return Some(b);
                }
            }
            Stmt::Region { body, .. } => {
                if let Some(b) = first_loop_body(body, var, k) {
                    return Some(b);
                }
            }
            _ => {}
        }
    }
    None
}

fn collect_local_defs(stmts: &[Stmt], k: &Kernel, out: &mut HashSet<Sym>) {
    for s in stmts {
        if let Some(d) = stmt_def(s) {
            if k.syms.kind(d) == SymKind::Local {
                out.insert(d);
            }
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => collect_local_defs(body, k, out),
            _ => {}
        }
    }
}

/// Linear pre-order walk flagging locals from `candidates` whose first
/// touch is a read.
fn read_before_write(
    stmts: &[Stmt],
    candidates: &HashSet<Sym>,
    defined: &mut HashSet<Sym>,
    bad: &mut Vec<Sym>,
) {
    for s in stmts {
        let mut uses = Vec::new();
        stmt_uses(s, &mut uses);
        for u in uses {
            if candidates.contains(&u) && !defined.contains(&u) && !bad.contains(&u) {
                bad.push(u);
            }
        }
        if let Some(d) = stmt_def(s) {
            defined.insert(d);
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => {
                read_before_write(body, candidates, defined, bad);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// inner unrolling: T001 / T002 / T005
// ---------------------------------------------------------------------------

fn check_unroll_inner(
    step: &TransformStep,
    var: &str,
    factor: usize,
    accumulators: &[Sym],
    diags: &mut Vec<Diagnostic>,
) {
    let k = &step.before;
    if factor == 0 {
        diags.push(Diagnostic::new(
            Rule::BadUnrollFactor,
            Span::Kernel,
            format!("inner unroll of loop `{var}` recorded with factor 0"),
        ));
        return;
    }
    let Some(body) = first_loop_body(&k.body, var, k) else {
        diags.push(Diagnostic::new(
            Rule::JamLoopMissing,
            Span::Kernel,
            format!("inner unroll records loop `{var}` but the kernel has no such loop"),
        ));
        return;
    };
    // T005: accumulator expansion reassociates a floating-point
    // reduction. That is only the advertised lane-wise reassociation
    // when every in-loop occurrence of the local is `acc = acc + e`
    // with `e` free of `acc`.
    for &acc in accumulators {
        if k.syms.ty(acc) != Ty::F64 || k.syms.kind(acc) != SymKind::Local {
            diags.push(Diagnostic::new(
                Rule::ExpandNotAccumulator,
                Span::Kernel,
                format!("expanded symbol `{}` is not an F64 local", k.syms.name(acc)),
            ));
            continue;
        }
        let mut offending = false;
        check_accumulator_uses(body, acc, &mut offending);
        if offending {
            diags.push(Diagnostic::new(
                Rule::ExpandNotAccumulator,
                Span::Kernel,
                format!(
                    "expanded local `{}` is not a pure `+=` accumulator in loop `{var}`",
                    k.syms.name(acc)
                ),
            ));
        }
    }
}

/// Does `acc` occur in the body other than as `acc = acc + e` with `e`
/// free of `acc`?
fn check_accumulator_uses(stmts: &[Stmt], acc: Sym, offending: &mut bool) {
    for s in stmts {
        if is_pure_accumulation(s, acc) {
            continue;
        }
        if stmt_mentions(s, acc) || stmt_def(s) == Some(acc) {
            *offending = true;
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => {
                check_accumulator_uses(body, acc, offending);
            }
            _ => {}
        }
    }
}

fn is_pure_accumulation(s: &Stmt, acc: Sym) -> bool {
    let Stmt::Assign {
        dst: LValue::Var(d),
        src: Expr::Bin(BinOp::Add, l, r),
    } = s
    else {
        return false;
    };
    if *d != acc {
        return false;
    }
    let (lhs_is_acc, rest) = match (l.as_ref(), r.as_ref()) {
        (Expr::Var(v), rest) if *v == acc => (true, rest),
        (rest, Expr::Var(v)) if *v == acc => (true, rest),
        _ => (false, l.as_ref()),
    };
    if !lhs_is_acc {
        return false;
    }
    !expr_mentions(rest, acc)
}

// ---------------------------------------------------------------------------
// strength reduction: T006 / T007
// ---------------------------------------------------------------------------

fn check_strength(step: &TransformStep, groups: &[SrGroup], diags: &mut Vec<Diagnostic>) {
    let k = &step.after;
    let map = AccessMap::loops_of(k);
    // Every self-referential pointer add `p = p + inc` in the kernel.
    let mut incs: Vec<(u32, Sym, Expr)> = Vec::new();
    walk_with_positions(&k.body, &mut |pos, s| {
        if let Stmt::Assign {
            dst: LValue::Var(p),
            src: Expr::Bin(BinOp::Add, l, r),
        } = s
        {
            if matches!(l.as_ref(), Expr::Var(q) if q == p) {
                incs.push((pos, *p, r.as_ref().clone()));
            }
        }
    });

    for g in groups {
        let pname = k.syms.name(g.ptr);
        let vname = k.syms.name(g.var);
        if g.coeff.is_zero() {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Kernel,
                format!("induction pointer `{pname}` has a zero stride coefficient"),
            ));
            continue;
        }
        if g.coeff.mentions(g.var) || g.core.mentions(g.var) {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Kernel,
                format!(
                    "induction pointer `{pname}`'s stride or base offset varies with its own loop `{vname}`"
                ),
            ));
            continue;
        }
        let mine: Vec<&(u32, Sym, Expr)> = incs.iter().filter(|(_, p, _)| *p == g.ptr).collect();
        if mine.len() != 1 {
            diags.push(Diagnostic::new(
                Rule::InductionStrideMismatch,
                Span::Kernel,
                format!(
                    "induction pointer `{pname}` has {} increments (exactly one expected)",
                    mine.len()
                ),
            ));
            continue;
        }
        let (pos, _, inc) = mine[0];
        // The increment must run once per iteration of the loop over
        // `g.var`, i.e. its innermost enclosing loop must be that loop.
        let host = map
            .loops
            .iter()
            .filter(|l| l.contains(*pos))
            .max_by_key(|l| l.pos);
        let Some(host) = host else {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Ir(*pos),
                format!("induction pointer `{pname}`'s increment is not inside any loop"),
            ));
            continue;
        };
        if host.var != g.var {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Ir(*pos),
                format!(
                    "induction pointer `{pname}`'s increment sits in loop `{}`, not loop `{vname}`",
                    k.syms.name(host.var)
                ),
            ));
            continue;
        }
        // Stride and base offset must be invariant inside the host loop.
        let inner_vars: Vec<Sym> = map
            .loops
            .iter()
            .filter(|l2| host.contains(l2.pos))
            .map(|l2| l2.var)
            .collect();
        if inner_vars
            .iter()
            .any(|&v| g.coeff.mentions(v) || g.core.mentions(v))
        {
            diags.push(Diagnostic::new(
                Rule::InductionIllFormed,
                Span::Ir(*pos),
                format!(
                    "induction pointer `{pname}`'s stride or base offset varies inside loop `{vname}`"
                ),
            ));
            continue;
        }
        // T007: the increment must equal coeff·step.
        let expect = canon(scale(&g.coeff, g.step));
        match LinearForm::of(inc).map(canon) {
            Some(f) if f == expect => {}
            _ => {
                diags.push(Diagnostic::new(
                    Rule::InductionStrideMismatch,
                    Span::Ir(*pos),
                    format!(
                        "induction pointer `{pname}`'s increment does not equal its stride times the loop step"
                    ),
                ));
            }
        }
    }
}

fn scale(f: &LinearForm, s: i64) -> LinearForm {
    let mut f = f.clone();
    for t in &mut f.terms {
        t.coeff *= s;
    }
    f
}

// ---------------------------------------------------------------------------
// scalar replacement: T008 / T009
// ---------------------------------------------------------------------------

fn check_scalar(
    step: &TransformStep,
    sr_facts: &HashMap<Sym, SrGroup>,
    diags: &mut Vec<Diagnostic>,
) {
    let k = &step.after;
    let mut blocks: Vec<(&[Stmt], Vec<u32>)> = Vec::new();
    let mut pos = 0u32;
    collect_blocks(&k.body, &mut pos, &mut blocks);
    let mut liveness = None;
    for (stmts, positions) in &blocks {
        check_scalar_block(k, stmts, positions, sr_facts, &mut liveness, diags);
    }
}

/// Every statement block with the canonical position of each statement.
fn collect_blocks<'a>(stmts: &'a [Stmt], pos: &mut u32, out: &mut Vec<(&'a [Stmt], Vec<u32>)>) {
    let mut positions = Vec::with_capacity(stmts.len());
    for s in stmts {
        positions.push(*pos);
        *pos += 1;
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => collect_blocks(body, pos, out),
            _ => {}
        }
    }
    out.push((stmts, positions));
}

fn check_scalar_block(
    k: &Kernel,
    stmts: &[Stmt],
    positions: &[u32],
    sr_facts: &HashMap<Sym, SrGroup>,
    liveness: &mut Option<StoreLiveness>,
    diags: &mut Vec<Diagnostic>,
) {
    // Canonical index form of every top-level array store, computed
    // once — the load→store pairing below would otherwise re-derive
    // them per load (quadratic in unrolled block sizes).
    let store_forms: Vec<Option<(Sym, LinearForm)>> = stmts
        .iter()
        .map(|s| match s {
            Stmt::Assign {
                dst: LValue::ArrayRef { base, index },
                ..
            } => LinearForm::of(index).map(canon).map(|f| (*base, f)),
            _ => None,
        })
        .collect();
    let mut effects = None;
    for (i, s) in stmts.iter().enumerate() {
        // T008: a load grouped with a later store to the same address
        // assumes memory does not change in between.
        if let Stmt::Assign {
            dst: LValue::Var(_),
            src: Expr::ArrayRef { base, index },
        } = s
        {
            if let Some(lf) = LinearForm::of(index).map(canon) {
                if let Some(j) = (i + 1..stmts.len())
                    .find(|&j| matches!(&store_forms[j], Some((b2, f2)) if b2 == base && *f2 == lf))
                {
                    let effects = effects.get_or_insert_with(|| BlockEffects::of(stmts));
                    let gap = (effects.defs_between(i, j), effects.writes_between(i, j));
                    check_load_store_gap(k, gap, positions[i], *base, &lf, sr_facts, diags);
                }
            }
        }
        // T009: a store whose source scalar was clobbered by a
        // self-referential rewrite must not leave that scalar live.
        if let Stmt::Assign {
            dst: LValue::ArrayRef { .. },
            src: Expr::Var(x),
        } = s
        {
            let clobbered = stmts[..i].iter().rev().find_map(|p| match p {
                Stmt::Assign {
                    dst: LValue::Var(v),
                    src,
                } if v == x => Some(expr_mentions(src, *x)),
                _ => None,
            });
            if clobbered == Some(true)
                && liveness
                    .get_or_insert_with(|| StoreLiveness::of(k))
                    .live_after(positions[i], *x)
            {
                diags.push(Diagnostic::new(
                    Rule::ScalarClobberLive,
                    Span::Ir(positions[i]),
                    format!(
                        "scalar replacement clobbered `{}`, which is still live after the store",
                        k.syms.name(*x)
                    ),
                ));
            }
        }
    }
}

/// The definitions and array writes of a block, each statement's
/// subtree flattened in walk order behind per-statement offsets, so a
/// load→store gap is a pair of slices instead of a fresh walk per pair.
struct BlockEffects<'a> {
    defs: Vec<Sym>,
    def_at: Vec<usize>,
    writes: Vec<Write<'a>>,
    write_at: Vec<usize>,
}

/// An array store: base, index expression, and whether it sits inside
/// a nested loop (where index values differ per iteration and
/// same-point comparison is invalid).
type Write<'a> = (Sym, &'a Expr, bool);

impl<'a> BlockEffects<'a> {
    fn of(stmts: &'a [Stmt]) -> Self {
        let mut fx = BlockEffects {
            defs: Vec::new(),
            def_at: Vec::with_capacity(stmts.len() + 1),
            writes: Vec::new(),
            write_at: Vec::with_capacity(stmts.len() + 1),
        };
        for s in stmts {
            fx.def_at.push(fx.defs.len());
            fx.write_at.push(fx.writes.len());
            let one = std::slice::from_ref(s);
            collect_defs(one, &mut fx.defs);
            collect_writes(one, false, &mut fx.writes);
        }
        fx.def_at.push(fx.defs.len());
        fx.write_at.push(fx.writes.len());
        fx
    }

    /// Definitions strictly between statements `i` and `j`.
    fn defs_between(&self, i: usize, j: usize) -> &[Sym] {
        &self.defs[self.def_at[i + 1]..self.def_at[j]]
    }

    /// Array writes strictly between statements `i` and `j`.
    fn writes_between(&self, i: usize, j: usize) -> &[Write<'a>] {
        &self.writes[self.write_at[i + 1]..self.write_at[j]]
    }
}

/// Proves no statement in the gap between a grouped load (at canonical
/// position `load_pos`) and its store — given as the gap's definitions
/// and array writes — can change the loaded address or the memory
/// behind it.
fn check_load_store_gap(
    k: &Kernel,
    (defs, writes): (&[Sym], &[Write]),
    load_pos: u32,
    base: Sym,
    index: &LinearForm,
    sr_facts: &HashMap<Sym, SrGroup>,
    diags: &mut Vec<Diagnostic>,
) {
    let span = Span::Ir(load_pos);
    let bname = k.syms.name(base);
    // Address ingredients must stay fixed between load and store.
    let mut addr_syms: HashSet<Sym> = index.terms.iter().flat_map(|t| t.factors.clone()).collect();
    addr_syms.insert(base);
    if let Some(d) = defs.iter().find(|d| addr_syms.contains(d)) {
        diags.push(Diagnostic::new(
            Rule::ScalarMayAliasWrite,
            span,
            format!(
                "`{}` is redefined between the grouped load and store of `{bname}`",
                k.syms.name(*d)
            ),
        ));
        return;
    }
    // Intervening memory writes must target provably distinct addresses.
    let mut load_at = None;
    for &(wbase, widx, nested) in writes {
        if k.origin_of(wbase) != k.origin_of(base) {
            continue;
        }
        let distinct = !nested
            && match (
                load_at.get_or_insert_with(|| absolute(base, index, sr_facts, k)),
                LinearForm::of(widx)
                    .map(canon)
                    .and_then(|f| absolute(wbase, &f, sr_facts, k)),
            ) {
                (Some(a), Some(b)) => {
                    let diff = crate::deps::canon(sub(a, &b));
                    matches!(diff.as_const(), Some(c) if c != 0)
                }
                _ => false,
            };
        if !distinct {
            diags.push(Diagnostic::new(
                Rule::ScalarMayAliasWrite,
                span,
                format!(
                    "a write through `{}` between the grouped load and store of `{bname}` may alias it",
                    k.syms.name(wbase)
                ),
            ));
            return;
        }
    }
}

fn collect_defs(stmts: &[Stmt], out: &mut Vec<Sym>) {
    for s in stmts {
        if let Some(d) = stmt_def(s) {
            out.push(d);
        }
        match s {
            Stmt::For { body, .. } | Stmt::Region { body, .. } => collect_defs(body, out),
            _ => {}
        }
    }
}

/// All array stores (see [`Write`]).
fn collect_writes<'a>(stmts: &'a [Stmt], nested: bool, out: &mut Vec<Write<'a>>) {
    for s in stmts {
        match s {
            Stmt::Assign {
                dst: LValue::ArrayRef { base, index },
                ..
            } => out.push((*base, index, nested)),
            Stmt::For { body, .. } => collect_writes(body, true, out),
            Stmt::Region { body, .. } => collect_writes(body, nested, out),
            _ => {}
        }
    }
}

/// Resolves `ptr[index]` to an offset form relative to `ptr`'s origin
/// array by chasing strength-reduction facts: each hop contributes the
/// recorded `core + coeff·var` (the pointer's value at any point inside
/// its loop body, before the end-of-body increment).
fn absolute(
    ptr: Sym,
    index: &LinearForm,
    sr_facts: &HashMap<Sym, SrGroup>,
    k: &Kernel,
) -> Option<LinearForm> {
    let mut form = index.clone();
    let mut cur = ptr;
    for _ in 0..64 {
        let Some(g) = sr_facts.get(&cur) else {
            // Fully resolved only if we reached the origin array itself.
            return if cur == k.origin_of(ptr) {
                Some(canon(form))
            } else {
                None
            };
        };
        form.terms.extend(g.core.terms.iter().cloned());
        for t in &g.coeff.terms {
            let mut factors = t.factors.clone();
            factors.push(g.var);
            form.terms.push(augem_transforms::linear::Term {
                coeff: t.coeff,
                factors,
            });
        }
        cur = g.base;
    }
    None
}

fn sub(a: &LinearForm, b: &LinearForm) -> LinearForm {
    let mut out = a.clone();
    for t in &b.terms {
        let mut t = t.clone();
        t.coeff = -t.coeff;
        out.terms.push(t);
    }
    out
}

// ---------------------------------------------------------------------------
// liveness (backward dataflow over the structured IR)
// ---------------------------------------------------------------------------

/// Backward liveness of the scalars the kernel stores to memory
/// (`A[i] = x`) — the only symbols T009 asks about — after every
/// statement. Precise over the structured IR: loop bodies are solved to
/// a boolean fixpoint covering both the back-edge and the zero-trip
/// exit path. One walk answers up to 64 symbols at once, one bit each,
/// so a kernel with many stored accumulators costs one walk rather
/// than one walk per store.
struct StoreLiveness {
    /// Stored scalar → (walk, bit) of its liveness.
    bit: HashMap<Sym, (usize, u64)>,
    /// Per walk: the live-after mask at every canonical position.
    after: Vec<Vec<u64>>,
}

impl StoreLiveness {
    fn of(k: &Kernel) -> StoreLiveness {
        let mut stored = Vec::new();
        collect_stored_scalars(&k.body, &mut stored);
        let positions: u32 = k.body.iter().map(stmt_size).sum();
        let mut bit = HashMap::new();
        let mut after = Vec::new();
        for (w, chunk) in stored.chunks(64).enumerate() {
            let mut bits = vec![0u64; k.syms.len()];
            for (i, &x) in chunk.iter().enumerate() {
                bits[x.0 as usize] = 1 << i;
                bit.insert(x, (w, 1 << i));
            }
            let mut masks = vec![!0u64; positions as usize];
            solve_liveness(&k.body, 0, 0, 0, &bits, &mut masks);
            after.push(masks);
        }
        StoreLiveness { bit, after }
    }

    /// Is `x` live immediately after the statement at canonical position
    /// `pos`? Unknown symbols and positions conservatively report live.
    fn live_after(&self, pos: u32, x: Sym) -> bool {
        self.bit
            .get(&x)
            .is_none_or(|&(w, b)| self.after[w].get(pos as usize).is_none_or(|m| m & b != 0))
    }
}

/// Every scalar stored to memory, in first-store order.
fn collect_stored_scalars(stmts: &[Stmt], out: &mut Vec<Sym>) {
    for s in stmts {
        match s {
            Stmt::Assign {
                dst: LValue::ArrayRef { .. },
                src: Expr::Var(x),
            } if !out.contains(x) => out.push(*x),
            Stmt::For { body, .. } | Stmt::Region { body, .. } => collect_stored_scalars(body, out),
            _ => {}
        }
    }
}

/// Walks `stmts` (starting at canonical position `start`) backward from
/// `exit_live`, recording the live-after mask of every statement in
/// `out`. `dead` masks the induction variables of enclosing loops: the
/// header redefines such a symbol every iteration, so its value after
/// an inner statement dies at the back-edge and the exit rebinds it.
fn solve_liveness(
    stmts: &[Stmt],
    start: u32,
    exit_live: u64,
    dead: u64,
    bits: &[u64],
    out: &mut [u64],
) {
    let mut starts = Vec::with_capacity(stmts.len());
    let mut p = start;
    for s in stmts {
        starts.push(p);
        p += stmt_size(s);
    }
    let mut live = exit_live;
    for (s, &p) in stmts.iter().zip(&starts).rev() {
        out[p as usize] = live & !dead;
        match s {
            Stmt::For { var, body, .. } => {
                let body_t = transfer_block(body, bits);
                let l_exit = loop_exit(body_t, live);
                solve_liveness(body, p + 1, l_exit, dead | sym_bit(*var, bits), bits, out);
                live = loop_transfer(s, body_t, bits).apply(live);
            }
            Stmt::Region { body, .. } => {
                solve_liveness(body, p + 1, live, dead, bits, out);
                live = transfer_block(body, bits).apply(live);
            }
            _ => live = transfer_stmt(s, bits).apply(live),
        }
    }
}

fn stmt_size(s: &Stmt) -> u32 {
    match s {
        Stmt::For { body, .. } | Stmt::Region { body, .. } => {
            1 + body.iter().map(stmt_size).sum::<u32>()
        }
        _ => 1,
    }
}

fn sym_bit(x: Sym, bits: &[u64]) -> u64 {
    bits.get(x.0 as usize).copied().unwrap_or(0)
}

/// The bits of the symbols `e` mentions (as variables or array bases).
fn expr_bits(e: &Expr, bits: &[u64]) -> u64 {
    match e {
        Expr::Int(_) | Expr::F64(_) => 0,
        Expr::Var(s) => sym_bit(*s, bits),
        Expr::ArrayRef { base, index } => sym_bit(*base, bits) | expr_bits(index, bits),
        Expr::Bin(_, l, r) => expr_bits(l, bits) | expr_bits(r, bits),
    }
}

/// Bit-parallel [`stmt_mentions`].
fn stmt_use_bits(s: &Stmt, bits: &[u64]) -> u64 {
    match s {
        Stmt::Assign { dst, src } => {
            let dst = match dst {
                LValue::ArrayRef { base, index } => sym_bit(*base, bits) | expr_bits(index, bits),
                LValue::Var(_) => 0,
            };
            dst | expr_bits(src, bits)
        }
        Stmt::For { init, bound, .. } => expr_bits(init, bits) | expr_bits(bound, bits),
        Stmt::Prefetch { base, index, .. } => sym_bit(*base, bits) | expr_bits(index, bits),
        Stmt::Region { .. } | Stmt::Comment(_) => 0,
    }
}

/// The liveness transfer of a statement or block, per symbol bit, as a
/// function of liveness at its exit: `live_in = gen | (pass & live_out)`.
/// Every transfer here is monotone in `live_out`, and every monotone
/// boolean function has this form, so a block is summarized in one walk
/// and a loop's fixpoint iterates the summary, not the body.
#[derive(Clone, Copy)]
struct Transfer {
    gen: u64,
    pass: u64,
}

impl Transfer {
    fn apply(self, live_out: u64) -> u64 {
        self.gen | (self.pass & live_out)
    }

    /// `self` run first, then `later`.
    fn then(self, later: Transfer) -> Transfer {
        Transfer {
            gen: self.gen | (self.pass & later.gen),
            pass: self.pass & later.pass,
        }
    }
}

fn transfer_block(stmts: &[Stmt], bits: &[u64]) -> Transfer {
    let identity = Transfer { gen: 0, pass: !0 };
    stmts.iter().rev().fold(identity, |after, s| {
        let t = match s {
            Stmt::For { body, .. } => loop_transfer(s, transfer_block(body, bits), bits),
            Stmt::Region { body, .. } => transfer_block(body, bits),
            _ => transfer_stmt(s, bits),
        };
        t.then(after)
    })
}

/// A straight-line statement: a use makes the symbol live, a
/// definition (without a use) kills it, anything else passes through.
fn transfer_stmt(s: &Stmt, bits: &[u64]) -> Transfer {
    let uses = stmt_use_bits(s, bits);
    let defs = stmt_def(s).map_or(0, |d| sym_bit(d, bits));
    Transfer {
        gen: uses,
        pass: uses | !defs,
    }
}

/// Exit liveness of a loop body: the back-edge re-enters the body, the
/// loop exit continues to `live_out`. Boolean fixpoint.
fn loop_exit(body: Transfer, live_out: u64) -> u64 {
    let mut l_exit = live_out;
    for _ in 0..2 {
        l_exit = live_out | body.apply(l_exit);
    }
    l_exit
}

/// A whole loop: a symbol its header bounds mention is live; otherwise
/// its own induction variable is dead; otherwise the zero-trip path
/// (`live_out`) or the first iteration's entry.
fn loop_transfer(s: &Stmt, body: Transfer, bits: &[u64]) -> Transfer {
    let header = stmt_use_bits(s, bits);
    let var = stmt_def(s).map_or(0, |v| sym_bit(v, bits));
    let through = |live_out: u64| live_out | body.apply(loop_exit(body, live_out));
    let (gen, pass) = (through(0), through(!0));
    Transfer {
        gen: (gen & !var) | header,
        pass: (pass & !var) | header,
    }
}

// ---------------------------------------------------------------------------
// prefetch: T010 / T011
// ---------------------------------------------------------------------------

fn check_prefetch(step: &TransformStep, config: &PrefetchConfig, diags: &mut Vec<Diagnostic>) {
    let k = &step.after;
    let mut pos = 0u32;
    check_prefetch_block(k, &k.body, &mut pos, false, config, diags);
}

fn check_prefetch_block(
    k: &Kernel,
    stmts: &[Stmt],
    pos: &mut u32,
    in_loop: bool,
    config: &PrefetchConfig,
    diags: &mut Vec<Diagnostic>,
) {
    for (i, s) in stmts.iter().enumerate() {
        let here = *pos;
        *pos += 1;
        match s {
            Stmt::Prefetch {
                base, index, write, ..
            } => {
                let bname = k.syms.name(*base);
                let span = Span::Ir(here);
                let Some(d) = index.as_const_int() else {
                    diags.push(Diagnostic::new(
                        Rule::PrefetchOutsideWindow,
                        span,
                        format!("prefetch of `{bname}` has a non-constant distance"),
                    ));
                    continue;
                };
                if *write {
                    if !config.write_prefetch {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "write prefetch of `{bname}` recorded under a config with write prefetching disabled"
                            ),
                        ));
                    } else if d != 0 {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "write prefetch of `{bname}` at distance {d} (write prefetches target the current location)"
                            ),
                        ));
                    }
                    if !stores_through(&stmts[i + 1..], *base) {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchUnknownBase,
                            span,
                            format!(
                                "write prefetch of `{bname}` but nothing later in the block stores through it"
                            ),
                        ));
                    }
                } else {
                    match config.read_dist {
                        None => diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "read prefetch of `{bname}` recorded under a config with read prefetching disabled"
                            ),
                        )),
                        Some(w) if d < 0 || d > w => diags.push(Diagnostic::new(
                            Rule::PrefetchOutsideWindow,
                            span,
                            format!(
                                "read prefetch of `{bname}` at distance {d} outside the window [0, {w}]"
                            ),
                        )),
                        Some(_) => {}
                    }
                    if !in_loop || !loads_through(stmts, *base) {
                        diags.push(Diagnostic::new(
                            Rule::PrefetchUnknownBase,
                            span,
                            format!(
                                "read prefetch of `{bname}` outside a loop that loads through it"
                            ),
                        ));
                    }
                }
            }
            Stmt::For { body, .. } => {
                check_prefetch_block(k, body, pos, true, config, diags);
            }
            Stmt::Region { body, .. } => {
                check_prefetch_block(k, body, pos, in_loop, config, diags);
            }
            _ => {}
        }
    }
}

fn stores_through(stmts: &[Stmt], base: Sym) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign {
            dst: LValue::ArrayRef { base: b, .. },
            ..
        } => *b == base,
        Stmt::For { body, .. } | Stmt::Region { body, .. } => stores_through(body, base),
        _ => false,
    })
}

fn loads_through(stmts: &[Stmt], base: Sym) -> bool {
    fn expr_loads(e: &Expr, base: Sym) -> bool {
        match e {
            Expr::ArrayRef { base: b, index } => *b == base || expr_loads(index, base),
            Expr::Bin(_, l, r) => expr_loads(l, base) || expr_loads(r, base),
            _ => false,
        }
    }
    stmts.iter().any(|s| match s {
        Stmt::Assign { dst, src } => {
            let in_dst_index =
                matches!(dst, LValue::ArrayRef { index, .. } if expr_loads(index, base));
            in_dst_index || expr_loads(src, base)
        }
        Stmt::For { body, .. } | Stmt::Region { body, .. } => loads_through(body, base),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use augem_obs::null;
    use augem_transforms::{generate_optimized_logged, OptimizeConfig};

    fn checked(kernel: &Kernel, cfg: &OptimizeConfig) -> Vec<Diagnostic> {
        let (out, log) = generate_optimized_logged(kernel, cfg, null()).unwrap();
        check_transforms(kernel, &log, Some(&out))
    }

    #[test]
    fn gemm_pipeline_is_legal() {
        for cfg in [
            OptimizeConfig::gemm_2x2(),
            OptimizeConfig::gemm(2, 4, 2),
            OptimizeConfig::gemm(4, 4, 4),
        ] {
            let diags = checked(&augem_kernels::gemm_simple(), &cfg);
            assert!(diags.is_empty(), "{cfg:?}: {diags:?}");
        }
    }

    #[test]
    fn vector_pipelines_are_legal() {
        let diags = checked(
            &augem_kernels::axpy_simple(),
            &OptimizeConfig::vector(4, false),
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = checked(
            &augem_kernels::dot_simple(),
            &OptimizeConfig::vector(4, true),
        );
        assert!(diags.is_empty(), "{diags:?}");
        let diags = checked(&augem_kernels::gemv_simple(), &OptimizeConfig::gemv(4));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn tampered_factor_is_refuted() {
        let k = augem_kernels::gemm_simple();
        let (out, mut log) =
            generate_optimized_logged(&k, &OptimizeConfig::gemm_2x2(), null()).unwrap();
        if let PassRecord::UnrollJam { factor, .. } = &mut log.steps[0].pass {
            *factor = 0;
        }
        let codes: Vec<&str> = check_transforms(&k, &log, Some(&out))
            .iter()
            .map(|d| d.rule.code())
            .collect();
        assert!(codes.contains(&"T002"), "{codes:?}");
    }

    #[test]
    fn broken_chain_is_refuted() {
        let k = augem_kernels::gemm_simple();
        let (out, mut log) =
            generate_optimized_logged(&k, &OptimizeConfig::gemm_2x2(), null()).unwrap();
        log.steps[1].before = k.clone();
        let codes: Vec<&str> = check_transforms(&k, &log, Some(&out))
            .iter()
            .map(|d| d.rule.code())
            .collect();
        assert!(codes.contains(&"T012"), "{codes:?}");
    }
}
