//! Reachability: which compiled functions a run can enter.
//!
//! The O2 passes cost compile time per function they touch, and most of
//! a program's functions are stdlib code it never calls. This pass
//! over-approximates the functions that can run with a name-based call
//! graph over the unoptimized bytecode:
//!
//! - roots: `main`, every static and field initializer, and every method
//!   named `toString`, `equals`, `hashCode` or `compareTo` (the runtime
//!   calls those from stringification and natives without a call
//!   instruction);
//! - `CallDirect`, `CallGlobal` and `CallStatic` reach their one target,
//!   and `New` its constructor;
//! - `CallVirtual` and `CallModel` reach every class or model method of
//!   the same name, whatever the receiver.
//!
//! A function outside the set keeps its valid unoptimized body, so a
//! miss would cost speed, never correctness.

use crate::bytecode::{FuncId, Op, VmProgram};
use genus_check::CheckedProgram;
use genus_common::Symbol;
use genus_types::{ClassId, ModelId};
use std::collections::HashMap;

/// Methods the runtime calls without a call instruction.
const IMPLICIT: [&str; 4] = ["toString", "equals", "hashCode", "compareTo"];

/// One flag per function of `code`: whether a run can enter it.
pub fn reachable(code: &VmProgram, prog: &CheckedProgram) -> Vec<bool> {
    let mut by_name: HashMap<Symbol, Vec<FuncId>> = HashMap::new();
    for (&(c, mi), &f) in &code.methods {
        let name = prog.table.class(ClassId(c)).methods[mi as usize].name;
        by_name.entry(name).or_default().push(f);
    }
    for (&(m, mi), &f) in &code.model_methods {
        let name = prog.table.model(ModelId(m)).methods[mi as usize].name;
        by_name.entry(name).or_default().push(f);
    }
    let mut live = vec![false; code.funcs.len()];
    let mut work = Vec::new();
    let mut mark = |f: FuncId, work: &mut Vec<FuncId>| {
        if !live[f.0 as usize] {
            live[f.0 as usize] = true;
            work.push(f);
        }
    };
    let main = prog
        .main_index()
        .and_then(|g| code.globals.get(&(g as u32)));
    let inits = code.static_inits.iter().map(|(_, _, f)| f);
    let implicit = IMPLICIT
        .iter()
        .filter_map(|n| by_name.get(&Symbol::intern(n)))
        .flatten();
    for &f in main
        .into_iter()
        .chain(inits)
        .chain(code.field_inits.values())
    {
        mark(f, &mut work);
    }
    for &f in implicit {
        mark(f, &mut work);
    }
    while let Some(f) = work.pop() {
        for op in &code.funcs[f.0 as usize].code {
            let (name, target) = match *op {
                Op::CallVirtual { spec, .. } => (Some(code.virt_specs[spec as usize].name), None),
                Op::CallModel { spec, .. } => (Some(code.model_specs[spec as usize].name), None),
                Op::CallDirect { spec, .. } => (None, Some(code.direct_specs[spec as usize].func)),
                Op::CallGlobal { spec, .. } => {
                    let s = &code.global_specs[spec as usize];
                    (None, code.globals.get(&(s.index as u32)).copied())
                }
                Op::CallStatic { spec, .. } => {
                    let s = &code.static_specs[spec as usize];
                    (
                        None,
                        code.methods.get(&(s.class.0, s.method as u32)).copied(),
                    )
                }
                Op::New { spec, .. } => (None, code.new_specs[spec as usize].func),
                _ => continue,
            };
            let named = name.and_then(|n| by_name.get(&n)).into_iter().flatten();
            for &t in named.chain(&target) {
                mark(t, &mut work);
            }
        }
    }
    live
}
