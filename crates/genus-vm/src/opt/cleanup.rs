//! Intra-function cleanup: constant folding and propagation, branch
//! folding, jump threading, `Move` coalescing, and dead-code elimination.
//!
//! Folding evaluates with the *runtime's own* operators (`ops::arith`,
//! `ops::compare`, `widen_value`, `Value::ref_eq_shallow`), so a folded
//! result is bit-identical to what the VM would have computed. Operations
//! that would trap at run time (division by zero, negating a mismatched
//! kind, branching on a non-boolean) are deliberately left in place — the
//! trap, its error code, and its message are observable behaviour.
//! `Concat` is *never* folded: concatenation charges the result string's
//! exact byte size against the memory meter, and removing that charge on
//! one engine would break the cross-engine `mem_used` parity the
//! differential suites assert.

use crate::bytecode::{Const, Op, SharedVec, VmFunc, VmProgram};
use crate::opt::OptStats;
use genus_check::hir::NumKind;
use genus_interp::ops::{arith, compare, widen_value};
use genus_interp::Value;
use std::collections::{HashMap, HashSet};

/// Runs the cleanup passes to fixpoint over every function `only` flags.
pub fn cleanup(code: &mut VmProgram, only: &[bool]) {
    let mut consts = std::mem::take(&mut code.consts);
    let mut stats = std::mem::take(&mut code.opt_stats);
    let mut pool = Pool::build(&consts);
    for (f, _) in code.funcs.iter_mut().zip(only).filter(|(_, &on)| on) {
        clean_fn(f, &mut consts, &mut pool, &mut stats);
    }
    code.consts = consts;
    code.opt_stats = stats;
}

/// Hashable image of a poolable constant (doubles by bit pattern).
#[derive(PartialEq, Eq, Hash)]
enum VKey {
    Int(i32),
    Long(i64),
    Double(u64),
    Bool(bool),
    Char(char),
    Str(String),
    Null,
    Void,
}

fn vkey(v: &Value) -> Option<VKey> {
    Some(match v {
        Value::Int(x) => VKey::Int(*x),
        Value::Long(x) => VKey::Long(*x),
        Value::Double(x) => VKey::Double(x.to_bits()),
        Value::Bool(x) => VKey::Bool(*x),
        Value::Char(x) => VKey::Char(*x),
        Value::Str(s) => VKey::Str(s.to_string()),
        Value::Null => VKey::Null,
        Value::Void => VKey::Void,
        _ => return None,
    })
}

fn ckey(c: &Const) -> VKey {
    match c {
        Const::Int(x) => VKey::Int(*x),
        Const::Long(x) => VKey::Long(*x),
        Const::Double(x) => VKey::Double(x.to_bits()),
        Const::Bool(x) => VKey::Bool(*x),
        Const::Char(x) => VKey::Char(*x),
        Const::Str(s) => VKey::Str(s.to_string()),
        Const::Null => VKey::Null,
        Const::Void => VKey::Void,
    }
}

/// Constant-pool interner shared across functions.
struct Pool {
    map: HashMap<VKey, u32>,
}

impl Pool {
    fn build(consts: &SharedVec<Const>) -> Pool {
        let mut map = HashMap::new();
        for (i, c) in consts.iter().enumerate() {
            map.entry(ckey(c)).or_insert(i as u32);
        }
        Pool { map }
    }

    fn intern(&mut self, consts: &mut SharedVec<Const>, v: Value) -> u32 {
        let key = vkey(&v).expect("folded values are poolable");
        if let Some(&k) = self.map.get(&key) {
            return k;
        }
        let k = consts.len() as u32;
        consts.push(Const::from_value(&v).expect("folded values are poolable"));
        self.map.insert(key, k);
        k
    }
}

fn clean_fn(f: &mut VmFunc, consts: &mut SharedVec<Const>, pool: &mut Pool, stats: &mut OptStats) {
    for _ in 0..10 {
        let mut changed = fold_pass(f, consts, pool, stats);
        changed |= thread_jumps(f);
        changed |= peephole_pass(f, stats);
        changed |= dce_pass(f, stats);
        if !changed {
            break;
        }
    }
}

fn label_set(code: &[Op]) -> HashSet<usize> {
    code.iter()
        .filter_map(|op| op.target())
        .map(|t| t as usize)
        .collect()
}

/// Per-basic-block constant tracking: fold pure operators over known
/// constants and propagate constants through `Move`s. Conservative —
/// knowledge resets at every jump target.
fn fold_pass(
    f: &mut VmFunc,
    consts: &mut SharedVec<Const>,
    pool: &mut Pool,
    stats: &mut OptStats,
) -> bool {
    let labels = label_set(&f.code);
    let mut known: HashMap<u16, u32> = HashMap::new();
    let mut changed = false;
    for i in 0..f.code.len() {
        if labels.contains(&i) {
            known.clear();
        }
        let get = |known: &HashMap<u16, u32>, r: u16| {
            known.get(&r).map(|&k| consts[k as usize].to_value())
        };
        let mut fold = |v: Value, consts: &mut SharedVec<Const>| pool.intern(consts, v);
        let mut new_op: Option<Op> = None;
        match f.code[i] {
            Op::Move { dst, src } => {
                if let Some(&k) = known.get(&src) {
                    new_op = Some(Op::Const { dst, k });
                }
            }
            Op::Arith { dst, op, nk, l, r } => {
                if let (Some(lv), Some(rv)) = (get(&known, l), get(&known, r)) {
                    if let Ok(v) = arith(op, nk, lv, rv) {
                        let k = fold(v, consts);
                        new_op = Some(Op::Const { dst, k });
                        stats.consts_folded += 1;
                    }
                }
            }
            Op::Cmp { dst, op, nk, l, r } => {
                if let (Some(lv), Some(rv)) = (get(&known, l), get(&known, r)) {
                    if let Ok(v) = compare(op, nk, lv, rv) {
                        let k = fold(v, consts);
                        new_op = Some(Op::Const { dst, k });
                        stats.consts_folded += 1;
                    }
                }
            }
            Op::RefEq { dst, l, r, negate } => {
                // Pooled constants are never heap references, so the
                // shallow compare is exactly the runtime's `ref_eq`.
                if let (Some(lv), Some(rv)) = (get(&known, l), get(&known, r)) {
                    let k = fold(Value::Bool(lv.ref_eq_shallow(&rv) != negate), consts);
                    new_op = Some(Op::Const { dst, k });
                    stats.consts_folded += 1;
                }
            }
            Op::Not { dst, src } => {
                if let Some(Value::Bool(b)) = get(&known, src) {
                    let k = fold(Value::Bool(!b), consts);
                    new_op = Some(Op::Const { dst, k });
                    stats.consts_folded += 1;
                }
            }
            Op::Neg { dst, src, nk } => {
                let v = match (nk, get(&known, src)) {
                    (NumKind::Int, Some(Value::Int(x))) => Some(Value::Int(x.wrapping_neg())),
                    (NumKind::Long, Some(Value::Long(x))) => Some(Value::Long(x.wrapping_neg())),
                    (NumKind::Double, Some(Value::Double(x))) => Some(Value::Double(-x)),
                    _ => None,
                };
                if let Some(v) = v {
                    let k = fold(v, consts);
                    new_op = Some(Op::Const { dst, k });
                    stats.consts_folded += 1;
                }
            }
            Op::Widen { dst, src, to } => {
                if let Some(v) = get(&known, src) {
                    let k = fold(widen_value(v, to), consts);
                    new_op = Some(Op::Const { dst, k });
                    stats.consts_folded += 1;
                }
            }
            Op::JumpIfFalse { cond, target } => {
                if let Some(Value::Bool(b)) = get(&known, cond) {
                    let t = if b { i as u32 + 1 } else { target };
                    new_op = Some(Op::Jump { target: t });
                    stats.branches_folded += 1;
                }
            }
            Op::JumpIfTrue { cond, target } => {
                if let Some(Value::Bool(b)) = get(&known, cond) {
                    let t = if b { target } else { i as u32 + 1 };
                    new_op = Some(Op::Jump { target: t });
                    stats.branches_folded += 1;
                }
            }
            _ => {}
        }
        if let Some(op) = new_op {
            f.code[i] = op;
            changed = true;
        }
        // Update knowledge from the (possibly rewritten) instruction.
        match f.code[i] {
            Op::Const { dst, k } => {
                known.insert(dst, k);
            }
            Op::Move { dst, src } => match known.get(&src) {
                Some(&k) => {
                    known.insert(dst, k);
                }
                None => {
                    known.remove(&dst);
                }
            },
            op => {
                if let Some(dst) = op.dst() {
                    known.remove(&dst);
                }
            }
        }
    }
    changed
}

/// Rewrites branches that target an unconditional `Jump` to its final
/// destination (chains are followed with a cycle guard).
fn thread_jumps(f: &mut VmFunc) -> bool {
    let mut changed = false;
    for i in 0..f.code.len() {
        let Some(t0) = f.code[i].target() else {
            continue;
        };
        let mut t = t0;
        let mut seen = HashSet::new();
        while seen.insert(t) {
            match f.code.get(t as usize) {
                Some(Op::Jump { target }) if *target != t => t = *target,
                _ => break,
            }
        }
        if t != t0 {
            *f.code[i].target_mut().expect("branch") = t;
            changed = true;
        }
    }
    changed
}

/// Removes no-ops (jump-to-next, self-moves) and coalesces a value
/// produced into a temporary that is immediately moved to its real
/// destination. Removing an instruction is always paired with target
/// remapping, which redirects any branch into it to the next survivor —
/// safe exactly because removed instructions are no-ops at their spot.
fn peephole_pass(f: &mut VmFunc, stats: &mut OptStats) -> bool {
    let labels = label_set(&f.code);
    let len = f.code.len();
    let mut keep = vec![true; len];
    let mut changed = false;
    for i in 0..len {
        match f.code[i] {
            // A jump to the lexically next instruction is a no-op.
            Op::Jump { target } if target as usize == i + 1 => {
                keep[i] = false;
                changed = true;
            }
            Op::Move { dst, src } if dst == src => {
                keep[i] = false;
                changed = true;
            }
            _ => {}
        }
        // Coalesce `producer -> t; Move d, t` into `producer -> d` when
        // `t` is a temporary (compiler temps die at their consuming move)
        // and the move is not a branch target.
        if keep[i] && i + 1 < len && !labels.contains(&(i + 1)) {
            if let Op::Move { dst: d, src: t } = f.code[i + 1] {
                if t != d && (t as usize) >= f.num_locals && f.code[i].dst() == Some(t) {
                    *f.code[i].dst_mut().expect("destination") = d;
                    keep[i + 1] = false;
                    stats.moves_coalesced += 1;
                    changed = true;
                }
            }
        }
    }
    if changed {
        compact(f, &keep, stats);
    }
    changed
}

/// Removes instructions unreachable from entry.
fn dce_pass(f: &mut VmFunc, stats: &mut OptStats) -> bool {
    let len = f.code.len();
    if len == 0 {
        return false;
    }
    let mut reach = vec![false; len];
    let mut work = vec![0usize];
    while let Some(i) = work.pop() {
        if i >= len || reach[i] {
            continue;
        }
        reach[i] = true;
        work.extend(f.code[i].successors(i));
    }
    if reach.iter().all(|&r| r) {
        return false;
    }
    compact(f, &reach, stats);
    true
}

/// Drops `!keep` instructions and remaps branch targets. A target that
/// pointed at a dropped instruction maps to the next surviving one,
/// which preserves semantics for the no-op/unreachable removals above.
pub(super) fn compact(f: &mut VmFunc, keep: &[bool], stats: &mut OptStats) {
    let len = f.code.len();
    let mut map = vec![0u32; len + 1];
    let mut n = 0u32;
    for (slot, &kept) in map.iter_mut().zip(keep) {
        *slot = n;
        if kept {
            n += 1;
        }
    }
    map[len] = n;
    let mut out = Vec::with_capacity(n as usize);
    for (op, _) in f.code.iter().zip(keep).filter(|&(_, &kept)| kept) {
        let mut op = *op;
        if let Some(target) = op.target_mut() {
            *target = map[(*target as usize).min(len)];
        }
        out.push(op);
    }
    stats.ops_eliminated += len - out.len();
    f.code = out;
}
