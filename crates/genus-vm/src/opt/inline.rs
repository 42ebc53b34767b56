//! Leaf inlining: splices each `Op::CallDirect` to a small frameless
//! callee into its caller.
//!
//! Specialization (§7.3) leaves the element operations of generic code —
//! `ArrayLike.at`, `ArrayList.get`, `Comparable.compareTo` on a boxed
//! class — as direct calls, each of which pushes a frame to run a few
//! field, array and arithmetic instructions. This pass removes the frame.
//!
//! A *leaf* is a function of at most [`MAX_LEAF_OPS`] instructions that
//! are all moves, constants, jumps, returns, `FallOff`, field and static
//! accesses, arithmetic, comparisons, `Not`/`Neg`/`Widen`, array reads
//! and writes, or `Op::Inline`: nothing that runs nested Genus code or
//! evaluates a type under the frame's environment (direct-call frames
//! have empty ones). Functions are visited callees first, so a caller
//! whose calls were all spliced can become a leaf in turn (`at` → `get`).
//!
//! A spliced call becomes `Op::Inline`, which repeats the framed call's
//! checks in order (receiver null check, unpack, `max_depth` probe),
//! followed by the callee's code with its registers renamed:
//!
//! - a parameter the callee never writes reads the caller's argument
//!   register, and so does a temporary whose one write copies such a
//!   parameter; a written parameter is copied into a fresh register
//!   first;
//! - every other callee register maps into a scratch area above the
//!   caller's registers, shared by all sites of that caller (a spliced
//!   body writes each scratch register before reading it);
//! - the instruction producing a return value writes the call's `dst`
//!   directly when it sits just before the `Return`; other returns move
//!   into `dst` and jump past the body. A void return stores `void` only
//!   when the caller may read `dst` afterwards;
//! - nested `Op::Inline`s count one more enclosing frame (`nest`), so a
//!   `StackOverflow` fires at the same call as on the framed path;
//! - each receiver register gets its own `this` register, and a
//!   prologue whose checks one at the caller's entry already made is
//!   dropped (see [`drop_repeated_prologues`]).
//!
//! The VM and Tier 2 run the same spliced bytecode, so their fuel stays
//! equal. Against the framed code, each inlined call saves its frame
//! push and pop, the step of its `Return`, and its whole prologue where
//! an earlier one covers it.

use super::cleanup::compact;
use super::OptStats;
use crate::bytecode::{Const, Op, VmFunc, VmProgram};

/// Largest callee, in instructions, that is spliced into its callers.
const MAX_LEAF_OPS: usize = 24;

/// Inlines leaf calls in the functions `live` flags and the callees they
/// reach. Returns one flag per function: whether its body changed.
pub fn inline(code: &mut VmProgram, live: &[bool]) -> Vec<bool> {
    let mut leaf = vec![false; code.funcs.len()];
    let mut changed = vec![false; code.funcs.len()];
    for f in callees_first(code, live) {
        if splice_calls(code, f, &leaf) {
            changed[f] = true;
            drop_repeated_prologues(&mut code.funcs[f], &mut code.opt_stats);
        }
        leaf[f] = is_leaf(&code.funcs[f]);
    }
    changed
}

/// The functions `live` flags and everything they reach by direct
/// calls, each after the callees it reaches (except around cycles).
fn callees_first(code: &VmProgram, live: &[bool]) -> Vec<usize> {
    let n = code.funcs.len();
    // 0 = unseen, 1 = on the stack, 2 = done.
    let mut state = vec![0u8; n];
    let mut order = Vec::new();
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for root in (0..live.len()).filter(|&f| live[f]) {
        if state[root] != 0 {
            continue;
        }
        state[root] = 1;
        stack.push((root, 0));
        while let Some(&(f, from)) = stack.last() {
            let next =
                code.funcs[f].code[from..]
                    .iter()
                    .enumerate()
                    .find_map(|(i, op)| match *op {
                        Op::CallDirect { spec, .. } => {
                            Some((from + i, code.direct_specs[spec as usize].func.0 as usize))
                        }
                        _ => None,
                    });
            match next {
                Some((pc, callee)) => {
                    stack.last_mut().expect("frame").1 = pc + 1;
                    if state[callee] == 0 {
                        state[callee] = 1;
                        stack.push((callee, 0));
                    }
                }
                None => {
                    state[f] = 2;
                    order.push(f);
                    stack.pop();
                }
            }
        }
    }
    order
}

fn is_leaf(f: &VmFunc) -> bool {
    f.code.len() <= MAX_LEAF_OPS && f.code.iter().all(|&op| rename(op, |r| r).is_some())
}

/// `op` with every register `r` replaced by `m(r)`, or `None` when `op`
/// may not appear in a leaf.
fn rename(op: Op, m: impl Fn(u16) -> u16) -> Option<Op> {
    Some(match op {
        Op::Const { dst, k } => Op::Const { dst: m(dst), k },
        Op::Move { dst, src } => Op::Move {
            dst: m(dst),
            src: m(src),
        },
        Op::Jump { .. } | Op::ReturnVoid | Op::FallOff => op,
        Op::JumpIfFalse { cond, target } => Op::JumpIfFalse {
            cond: m(cond),
            target,
        },
        Op::JumpIfTrue { cond, target } => Op::JumpIfTrue {
            cond: m(cond),
            target,
        },
        Op::Return { src } => Op::Return { src: m(src) },
        Op::GetField { dst, obj, slot } => Op::GetField {
            dst: m(dst),
            obj: m(obj),
            slot,
        },
        Op::SetField { obj, slot, src } => Op::SetField {
            obj: m(obj),
            slot,
            src: m(src),
        },
        Op::GetStatic { dst, class, field } => Op::GetStatic {
            dst: m(dst),
            class,
            field,
        },
        Op::SetStatic { class, field, src } => Op::SetStatic {
            class,
            field,
            src: m(src),
        },
        Op::Arith { dst, op, nk, l, r } => Op::Arith {
            dst: m(dst),
            op,
            nk,
            l: m(l),
            r: m(r),
        },
        Op::Cmp { dst, op, nk, l, r } => Op::Cmp {
            dst: m(dst),
            op,
            nk,
            l: m(l),
            r: m(r),
        },
        Op::RefEq { dst, l, r, negate } => Op::RefEq {
            dst: m(dst),
            l: m(l),
            r: m(r),
            negate,
        },
        Op::Not { dst, src } => Op::Not {
            dst: m(dst),
            src: m(src),
        },
        Op::Neg { dst, src, nk } => Op::Neg {
            dst: m(dst),
            src: m(src),
            nk,
        },
        Op::Widen { dst, src, to } => Op::Widen {
            dst: m(dst),
            src: m(src),
            to,
        },
        Op::ArrayLen { dst, arr } => Op::ArrayLen {
            dst: m(dst),
            arr: m(arr),
        },
        Op::ArrayGet { dst, arr, idx } => Op::ArrayGet {
            dst: m(dst),
            arr: m(arr),
            idx: m(idx),
        },
        Op::ArraySet { arr, idx, src } => Op::ArraySet {
            arr: m(arr),
            idx: m(idx),
            src: m(src),
        },
        Op::Inline {
            recv,
            this,
            null_check,
            nest,
        } => Op::Inline {
            recv: recv.map(&m),
            this: m(this),
            null_check,
            nest,
        },
        _ => return None,
    })
}

/// Splices every direct call to a leaf in function `caller`. Returns
/// whether any was spliced.
fn splice_calls(code: &mut VmProgram, caller: usize, leaf: &[bool]) -> bool {
    let f = &code.funcs[caller];
    let base = f.num_regs;
    let mut scratch = 0;
    let sites: Vec<bool> = f
        .code
        .iter()
        .map(|op| match *op {
            Op::CallDirect { spec, .. } => {
                let callee = code.direct_specs[spec as usize].func.0 as usize;
                let regs = code.funcs[callee].num_regs;
                let site = leaf[callee] && base + regs <= usize::from(u16::MAX);
                if site {
                    scratch = scratch.max(regs);
                }
                site
            }
            _ => false,
        })
        .collect();
    // Each receiver register gets its own `this` register after the
    // scratch area, so the prologues on one receiver all write the same
    // register and only that one (see `drop_repeated_prologues`).
    let mut receivers = Vec::new();
    for (op, _) in f.code.iter().zip(&sites).filter(|(_, &site)| site) {
        if let Op::CallDirect { spec, .. } = *op {
            if let Some(r) = code.direct_specs[spec as usize].recv {
                if !receivers.contains(&r) {
                    receivers.push(r);
                }
            }
        }
    }
    let num_regs = base + scratch + receivers.len();
    if num_regs > usize::from(u16::MAX) || !sites.contains(&true) {
        return false;
    }
    let this_of =
        |r: u16| (base + scratch + receivers.iter().position(|&x| x == r).unwrap_or(0)) as u16;
    let old = std::mem::take(&mut code.funcs[caller].code);
    let mut out = Vec::with_capacity(old.len());
    // Old instruction index → new, and where the caller's own branches
    // landed.
    let mut moved = Vec::with_capacity(old.len() + 1);
    let mut branches = Vec::new();
    for (pc, &op) in old.iter().enumerate() {
        moved.push(out.len());
        match op {
            Op::CallDirect { dst, spec } if sites[pc] => {
                let callee = code.direct_specs[spec as usize].func;
                let returns_void = code.funcs[callee.0 as usize]
                    .code
                    .iter()
                    .any(|op| matches!(op, Op::ReturnVoid));
                let void_dst =
                    (returns_void && live_after(code, &old, pc, dst)).then(|| void_const(code));
                let this = code.direct_specs[spec as usize].recv.map_or(0, this_of);
                splice(code, &mut out, dst, spec, base as u16, this, void_dst);
                code.opt_stats.calls_inlined += 1;
            }
            op => {
                if op.target().is_some() {
                    branches.push(out.len());
                }
                out.push(op);
            }
        }
    }
    moved.push(out.len());
    for i in branches {
        let t = out[i].target_mut().expect("branch");
        *t = moved[*t as usize] as u32;
    }
    let f = &mut code.funcs[caller];
    f.code = out;
    f.num_regs = num_regs;
    f.num_locals = num_regs;
    true
}

/// Appends the spliced body of the direct call `direct_specs[spec]` to
/// `out`, with callee registers renamed into the caller's: the callee's
/// `this` to `this`, the rest into the scratch area from `base`.
/// `void_dst` is the `void` constant to store in `dst` when the callee
/// returns void and the caller may read `dst`.
#[allow(clippy::too_many_arguments)]
fn splice(
    code: &VmProgram,
    out: &mut Vec<Op>,
    dst: u16,
    spec: u32,
    base: u16,
    this: u16,
    void_dst: Option<u32>,
) {
    let s = &code.direct_specs[spec as usize];
    let callee = &code.funcs[s.func.0 as usize];
    let first_arg = u16::from(s.recv.is_some());
    let mut writes = vec![0u32; callee.num_regs];
    for op in &callee.code {
        if let Some(r) = op.dst() {
            writes[r as usize] += 1;
        }
    }
    let written = |r: u16| writes[r as usize] > 0;
    let arg = |r: u16| {
        (r >= first_arg && !written(r))
            .then(|| s.args.get(usize::from(r - first_arg)).copied())
            .flatten()
    };
    // A non-parameter register written once, by a copy of such a
    // parameter, is that argument too (the copy becomes a self-move).
    let nparams = first_arg as usize + s.args.len();
    let mut copy_of = vec![None; callee.num_regs];
    for op in &callee.code {
        if let Op::Move { dst, src } = *op {
            if dst as usize >= nparams && writes[dst as usize] == 1 {
                copy_of[dst as usize] = arg(src);
            }
        }
    }
    let map = |r: u16| match r {
        0 if s.recv.is_some() => this,
        _ => arg(r).or(copy_of[r as usize]).unwrap_or(base + r),
    };
    out.push(Op::Inline {
        recv: s.recv,
        this,
        null_check: s.null_check,
        nest: 0,
    });
    for (i, &a) in s.args.iter().enumerate() {
        let p = first_arg + i as u16;
        if written(p) {
            out.push(Op::Move {
                dst: base + p,
                src: a,
            });
        }
    }
    let body = &callee.code;
    let mut labels = vec![false; body.len() + 1];
    for t in body.iter().filter_map(|op| op.target()) {
        labels[t as usize] = true;
    }
    // Callee instruction index → index in `out`; then the jumps to patch.
    let mut at = Vec::with_capacity(body.len() + 1);
    let mut inner = Vec::new();
    let mut exits = Vec::new();
    let mut exit = |out: &mut Vec<Op>, j: usize| {
        if j + 1 < body.len() {
            exits.push(out.len());
            out.push(Op::Jump { target: 0 });
        }
    };
    let mut j = 0;
    while j < body.len() {
        at.push(out.len());
        match body[j] {
            Op::Return { src } => {
                out.push(Op::Move { dst, src: map(src) });
                exit(out, j);
            }
            Op::ReturnVoid => {
                if let Some(k) = void_dst {
                    out.push(Op::Const { dst, k });
                }
                exit(out, j);
            }
            op => {
                let mut new = rename(op, map).expect("leaf instruction");
                if let Op::Inline { nest, .. } = &mut new {
                    *nest += 1;
                }
                if new.target().is_some() {
                    inner.push(out.len());
                }
                // The producer of a returned value writes `dst` itself.
                let fused = match body.get(j + 1) {
                    Some(&Op::Return { src }) => {
                        !labels[j + 1] && !matches!(op, Op::Inline { .. }) && op.dst() == Some(src)
                    }
                    _ => false,
                };
                if fused {
                    *new.dst_mut().expect("destination") = dst;
                    out.push(new);
                    at.push(out.len());
                    exit(out, j + 1);
                    j += 1;
                } else {
                    out.push(new);
                }
            }
        }
        j += 1;
    }
    at.push(out.len());
    let end = out.len() as u32;
    for i in inner {
        let t = out[i].target_mut().expect("branch");
        *t = at[*t as usize] as u32;
    }
    for i in exits {
        out[i] = Op::Jump { target: end };
    }
}

/// Where a register's value comes from, over one activation.
#[derive(Clone, Copy, PartialEq)]
enum Source {
    /// Never written: a parameter, or unused.
    Entry,
    /// Written only by `Op::Inline`s unpacking this receiver register.
    Unpacked(u16),
    /// Anything else.
    Other,
}

/// Drops each `Op::Inline` whose checks one in the entry block already
/// made. Within one activation the Genus depth is fixed (a call restores
/// it on return), so a probe passes wherever one at the same or a deeper
/// `nest` passed before. A receiver register that keeps one value for
/// the whole activation and was null-checked is still non-null, and its
/// unpacked value is still in the `this` register the entry prologue
/// wrote when only prologues on that receiver write it.
fn drop_repeated_prologues(f: &mut VmFunc, stats: &mut OptStats) {
    let (source, entry) = prologues(&f.code, f.num_regs);
    let covers = |earlier: &Op, later: &Op| match (*earlier, *later) {
        (
            Op::Inline {
                recv: r0,
                this: t0,
                null_check: c0,
                nest: n0,
            },
            Op::Inline {
                recv,
                this,
                null_check,
                nest,
            },
        ) => {
            n0 >= nest
                && recv.is_none_or(|r| {
                    r0 == recv
                        && t0 == this
                        && (c0 || !null_check)
                        && fixed(&source, r)
                        && source[this as usize] == Source::Unpacked(r)
                })
        }
        _ => false,
    };
    let keep: Vec<bool> = f
        .code
        .iter()
        .enumerate()
        .map(|(i, op)| !entry.iter().any(|(d, e)| *d < i && covers(e, op)))
        .collect();
    if keep.contains(&false) {
        compact(f, &keep, stats);
    }
}

/// Per register of a body with `n` registers, where its value comes
/// from; and the prologues every path runs, with their indices: those
/// before the first branch or return. (A jump back into that stretch
/// runs it again, so it still dominates all later code.)
fn prologues(body: &[Op], n: usize) -> (Vec<Source>, Vec<(usize, Op)>) {
    let mut source = vec![Source::Entry; n];
    for op in body {
        if let Some(d) = op.dst() {
            let d = d as usize;
            source[d] = match (*op, source[d]) {
                (Op::Inline { recv: Some(r), .. }, Source::Entry) => Source::Unpacked(r),
                (Op::Inline { recv: Some(r), .. }, Source::Unpacked(s)) if r == s => source[d],
                _ => Source::Other,
            };
        }
    }
    let entry = body
        .iter()
        .copied()
        .enumerate()
        .take_while(|&(i, op)| op.successors(i).eq([i + 1]))
        .filter(|(_, op)| matches!(op, Op::Inline { .. }))
        .collect();
    (source, entry)
}

/// Whether register `r` holds one value for a whole activation, from
/// its first write on (which precedes every read).
fn fixed(source: &[Source], mut r: u16) -> bool {
    for _ in 0..=MAX_LEAF_OPS {
        match source[r as usize] {
            Source::Entry => return true,
            Source::Unpacked(s) => r = s,
            Source::Other => return false,
        }
    }
    false
}

/// Whether register `r` may be read after `code[pc]` before it is
/// written again.
fn live_after(prog: &VmProgram, code: &[Op], pc: usize, r: u16) -> bool {
    let mut seen = vec![false; code.len()];
    let mut work = vec![pc + 1];
    while let Some(i) = work.pop() {
        if i >= code.len() || std::mem::replace(&mut seen[i], true) {
            continue;
        }
        let op = &code[i];
        if reads(prog, op, r) {
            return true;
        }
        if op.dst() != Some(r) {
            work.extend(op.successors(i));
        }
    }
    false
}

/// Whether `op` reads register `r`.
fn reads(code: &VmProgram, op: &Op, r: u16) -> bool {
    let call = |recv: Option<u16>, args: &[u16]| recv == Some(r) || args.contains(&r);
    match *op {
        Op::Const { .. }
        | Op::Jump { .. }
        | Op::ReturnVoid
        | Op::FallOff
        | Op::Escaped
        | Op::GetStatic { .. }
        | Op::DefaultValue { .. } => false,
        Op::Move { src, .. }
        | Op::Return { src }
        | Op::SetStatic { src, .. }
        | Op::Not { src, .. }
        | Op::Neg { src, .. }
        | Op::Widen { src, .. }
        | Op::InstanceOf { src, .. }
        | Op::Cast { src, .. }
        | Op::Pack { src, .. }
        | Op::Open { src, .. }
        | Op::Print { src, .. }
        | Op::JumpIfFalse { cond: src, .. }
        | Op::JumpIfTrue { cond: src, .. }
        | Op::GetField { obj: src, .. }
        | Op::NewArray { len: src, .. }
        | Op::ArrayLen { arr: src, .. } => src == r,
        Op::SetField { obj: l, src: b, .. }
        | Op::Arith { l, r: b, .. }
        | Op::Cmp { l, r: b, .. }
        | Op::RefEq { l, r: b, .. }
        | Op::Concat { l, r: b, .. }
        | Op::ArrayGet { arr: l, idx: b, .. } => l == r || b == r,
        Op::ArraySet { arr, idx, src } => arr == r || idx == r || src == r,
        Op::Inline { recv, .. } => recv == Some(r),
        Op::CallVirtual { recv, spec, .. } => {
            call(Some(recv), &code.virt_specs[spec as usize].args)
        }
        Op::CallStatic { spec, .. } => call(None, &code.static_specs[spec as usize].args),
        Op::CallGlobal { spec, .. } => call(None, &code.global_specs[spec as usize].args),
        Op::CallModel { spec, .. } => {
            let s = &code.model_specs[spec as usize];
            call(s.recv, &s.args)
        }
        Op::CallDirect { spec, .. } => {
            let s = &code.direct_specs[spec as usize];
            call(s.recv, &s.args)
        }
        Op::New { spec, .. } => call(None, &code.new_specs[spec as usize].args),
        Op::PrimCall { spec, .. } => {
            let s = &code.prim_specs[spec as usize];
            call(s.recv, &s.args)
        }
        Op::Native { spec, .. } => {
            let s = &code.native_specs[spec as usize];
            call(s.recv, &s.args)
        }
    }
}

/// The pool index of the `void` constant, added on first use.
fn void_const(code: &mut VmProgram) -> u32 {
    if let Some(k) = code.consts.iter().position(|c| *c == Const::Void) {
        return k as u32;
    }
    code.consts.push(Const::Void);
    code.consts.len() as u32 - 1
}
