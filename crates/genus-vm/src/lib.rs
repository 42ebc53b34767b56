//! genus-vm: a bytecode compiler and register VM for checked Genus
//! programs.
//!
//! This crate is the second execution engine for the reproduction (the
//! first is the tree-walking interpreter in `genus-interp`). A checked
//! program's HIR is lowered once by [`compile_program`] into
//! [`bytecode::VmProgram`] — per-function register code plus shared
//! constant-pool and spec tables — and executed by [`Vm`], a loop over
//! explicit frames.
//!
//! The engines share one semantics: reification, subtyping, dispatch
//! resolution, multimethod selection, and the native/primitive built-ins
//! all live in `genus-interp`'s `rtti`/`natives`/`ops` modules and are
//! called from both. The VM adds the paper's §7 homogeneous-translation
//! reading: generic code is compiled once, with type arguments and model
//! witnesses ("dictionaries") passed through frame environments and
//! resolved per call from open `Type`/`Model` terms in the spec tables.
//!
//! Dispatch caching is not a copy of the interpreter's: each [`Vm`]
//! holds a [`genus_interp::Dispatch`] (per-site inline caches, here dense
//! slots indexed by bytecode site ids; a per-class virtual-target memo
//! with hop-path replay; a multimethod-dispatch memo with per-`CallModel`
//! site caches; the hit/miss counters), and the dispatch loop and Tier 2
//! ask it for call targets. It is togglable at runtime via
//! `genus_types::set_caches_enabled` or at build time with the
//! `no-cache` feature.

//!
//! On top of the homogeneous baseline, the [`opt`] module implements the
//! paper's §7.3 *heterogeneous* translation as an optimization pipeline:
//! call sites with statically known type/model tuples get specialized
//! clones with dispatch resolved to direct calls, followed by classic
//! intra-function cleanup (constant folding, branch folding, dead-code
//! elimination). [`compile_optimized`] runs compilation plus the
//! pipeline at a chosen `--opt-level`.

pub mod bytecode;
pub mod compile;
pub mod exec;
pub mod opt;
pub mod serialize;
pub mod tier;
pub mod vm;

pub use bytecode::{FuncId, Op, VmFunc, VmProgram};
pub use compile::{compile_program, compile_program_uncached};
pub use opt::{compile_optimized, optimize, OptStats};
pub use serialize::{read_program, write_program};
pub use tier::{compile_tier, TierProgram, TierStats};
pub use vm::Vm;
