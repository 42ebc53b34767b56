//! Binary serialization of the declaration [`Table`] — the signature-level
//! half of a persisted compiled program.
//!
//! The persisted image is **bodies-blanked**: every `ast::Block` body and
//! field initializer expression is replaced by an empty block (presence is
//! preserved — runtime dispatch distinguishes bodied from abstract
//! methods, so `Some(body)` round-trips as `Some(empty)`). Everything the
//! engines consult at runtime — names, signatures, type/model structure,
//! the class hierarchy, constraint operations, model multimethod
//! signatures, variance — survives exactly; everything only the *checker*
//! reads (the bodies it already lowered to bytecode) is dropped. A table
//! restored from disk therefore backs VM/Tier-2 execution of its
//! companion bytecode, but cannot re-run checking or the AST engine.
//!
//! Symbols are persisted as their text and re-interned on load, so
//! artifacts are valid across processes. The query cache restarts empty.
//! See `docs` ("Serving at scale") for the full byte layout.

use crate::table::{
    ClassDef, ConstraintDef, ConstraintOp, CtorDef, FieldDef, MethodDef, ModelDef, ModelMethod,
    Table, UseDef,
};
use crate::ty::{ConstraintInst, Model, MvId, TvId, Type, WhereReq};
use crate::variance::Variance;
use crate::{ClassId, ConstraintId, ModelId, PrimTy};
use genus_common::bytes::{ByteReader, ByteWriter, ReadResult};
use genus_common::{FileId, Span, Symbol};
use genus_syntax::ast;

fn write_span(w: &mut ByteWriter, s: Span) {
    w.u32(s.file.0);
    w.u32(s.lo);
    w.u32(s.hi);
}

fn read_span(r: &mut ByteReader) -> ReadResult<Span> {
    let file = FileId(r.u32()?);
    let (lo, hi) = (r.u32()?, r.u32()?);
    Ok(Span { file, lo, hi })
}

fn write_symbol(w: &mut ByteWriter, s: Symbol) {
    w.str(s.as_str());
}

fn read_symbol(r: &mut ByteReader) -> ReadResult<Symbol> {
    Ok(Symbol::intern(&r.str()?))
}

/// Writes a [`PrimTy`] as a one-byte tag.
pub fn write_prim(w: &mut ByteWriter, p: PrimTy) {
    w.u8(prim_code(p));
}

/// Reads a [`PrimTy`].
pub fn read_prim(r: &mut ByteReader) -> ReadResult<PrimTy> {
    prim_from(r.u8()?)
}

/// Writes a [`Symbol`] as its text (re-interned on read).
pub fn write_sym(w: &mut ByteWriter, s: Symbol) {
    write_symbol(w, s);
}

/// Reads a [`Symbol`], interning it in this process.
pub fn read_sym(r: &mut ByteReader) -> ReadResult<Symbol> {
    read_symbol(r)
}

fn prim_code(p: PrimTy) -> u8 {
    match p {
        PrimTy::Int => 0,
        PrimTy::Long => 1,
        PrimTy::Double => 2,
        PrimTy::Boolean => 3,
        PrimTy::Char => 4,
        PrimTy::Void => 5,
    }
}

fn prim_from(code: u8) -> ReadResult<PrimTy> {
    Ok(match code {
        0 => PrimTy::Int,
        1 => PrimTy::Long,
        2 => PrimTy::Double,
        3 => PrimTy::Boolean,
        4 => PrimTy::Char,
        5 => PrimTy::Void,
        b => return Err(format!("invalid primitive tag {b}")),
    })
}

/// Writes a [`Type`] (recursive, tag-prefixed).
pub fn write_type(w: &mut ByteWriter, t: &Type) {
    match t {
        Type::Prim(p) => {
            w.u8(0);
            w.u8(prim_code(*p));
        }
        Type::Class { id, args, models } => {
            w.u8(1);
            w.u32(id.0);
            w.seq(args.len());
            for a in args {
                write_type(w, a);
            }
            w.seq(models.len());
            for m in models {
                write_model(w, m);
            }
        }
        Type::Var(v) => {
            w.u8(2);
            w.u32(v.0);
        }
        Type::Array(e) => {
            w.u8(3);
            write_type(w, e);
        }
        Type::Null => w.u8(4),
        Type::Existential {
            params,
            bounds,
            wheres,
            body,
        } => {
            w.u8(5);
            w.seq(params.len());
            for p in params {
                w.u32(p.0);
            }
            w.seq(bounds.len());
            for b in bounds {
                match b {
                    Some(t) => {
                        w.bool(true);
                        write_type(w, t);
                    }
                    None => w.bool(false),
                }
            }
            w.seq(wheres.len());
            for wr in wheres {
                write_where(w, wr);
            }
            write_type(w, body);
        }
        // Inference variables never appear in checked programs; a table
        // containing one is a bug worth catching before it hits disk.
        Type::Infer(_) => unreachable!("cannot persist an inference variable"),
    }
}

/// Reads a [`Type`].
pub fn read_type(r: &mut ByteReader) -> ReadResult<Type> {
    Ok(match r.u8()? {
        0 => Type::Prim(prim_from(r.u8()?)?),
        1 => {
            let id = ClassId(r.u32()?);
            let args = r.collect(read_type)?;
            let models = r.collect(read_model)?;
            Type::Class { id, args, models }
        }
        2 => Type::Var(TvId(r.u32()?)),
        3 => Type::Array(Box::new(read_type(r)?)),
        4 => Type::Null,
        5 => {
            let params = read_tvs(r)?;
            let bounds = r.collect(read_opt_type)?;
            let wheres = read_wheres(r)?;
            Type::Existential {
                params,
                bounds,
                wheres,
                body: Box::new(read_type(r)?),
            }
        }
        b => return Err(format!("invalid type tag {b}")),
    })
}

/// Writes a [`Model`] (recursive, tag-prefixed).
pub fn write_model(w: &mut ByteWriter, m: &Model) {
    match m {
        Model::Decl {
            id,
            type_args,
            model_args,
        } => {
            w.u8(0);
            w.u32(id.0);
            w.seq(type_args.len());
            for t in type_args {
                write_type(w, t);
            }
            w.seq(model_args.len());
            for a in model_args {
                write_model(w, a);
            }
        }
        Model::Natural { inst } => {
            w.u8(1);
            write_inst(w, inst);
        }
        Model::Var(v) => {
            w.u8(2);
            w.u32(v.0);
        }
        Model::Infer(_) => unreachable!("cannot persist a model inference variable"),
    }
}

/// Reads a [`Model`].
pub fn read_model(r: &mut ByteReader) -> ReadResult<Model> {
    Ok(match r.u8()? {
        0 => {
            let id = ModelId(r.u32()?);
            let type_args = r.collect(read_type)?;
            let model_args = r.collect(read_model)?;
            Model::Decl {
                id,
                type_args,
                model_args,
            }
        }
        1 => Model::Natural {
            inst: read_inst(r)?,
        },
        2 => Model::Var(MvId(r.u32()?)),
        b => return Err(format!("invalid model tag {b}")),
    })
}

fn write_inst(w: &mut ByteWriter, i: &ConstraintInst) {
    w.u32(i.id.0);
    w.seq(i.args.len());
    for a in &i.args {
        write_type(w, a);
    }
}

fn read_inst(r: &mut ByteReader) -> ReadResult<ConstraintInst> {
    let id = ConstraintId(r.u32()?);
    let args = r.collect(read_type)?;
    Ok(ConstraintInst { id, args })
}

fn write_where(w: &mut ByteWriter, wr: &WhereReq) {
    write_inst(w, &wr.inst);
    w.u32(wr.mv.0);
    w.bool(wr.named);
}

fn read_where(r: &mut ByteReader) -> ReadResult<WhereReq> {
    Ok(WhereReq {
        inst: read_inst(r)?,
        mv: MvId(r.u32()?),
        named: r.bool()?,
    })
}

fn write_opt_type(w: &mut ByteWriter, t: Option<&Type>) {
    match t {
        Some(t) => {
            w.bool(true);
            write_type(w, t);
        }
        None => w.bool(false),
    }
}

fn read_opt_type(r: &mut ByteReader) -> ReadResult<Option<Type>> {
    Ok(if r.bool()? { Some(read_type(r)?) } else { None })
}

fn write_params(w: &mut ByteWriter, params: &[(Symbol, Type)]) {
    w.seq(params.len());
    for (name, ty) in params {
        write_symbol(w, *name);
        write_type(w, ty);
    }
}

fn read_params(r: &mut ByteReader) -> ReadResult<Vec<(Symbol, Type)>> {
    r.collect(|r| Ok((read_symbol(r)?, read_type(r)?)))
}

fn write_tvs(w: &mut ByteWriter, tvs: &[TvId]) {
    w.seq(tvs.len());
    for t in tvs {
        w.u32(t.0);
    }
}

fn read_tvs(r: &mut ByteReader) -> ReadResult<Vec<TvId>> {
    r.collect(|r| Ok(TvId(r.u32()?)))
}

fn write_wheres(w: &mut ByteWriter, wheres: &[WhereReq]) {
    w.seq(wheres.len());
    for wr in wheres {
        write_where(w, wr);
    }
}

fn read_wheres(r: &mut ByteReader) -> ReadResult<Vec<WhereReq>> {
    r.collect(read_where)
}

/// The blanked stand-in for a persisted body.
fn empty_block() -> ast::Block {
    ast::Block {
        stmts: Vec::new(),
        span: Span::dummy(),
    }
}

fn write_method(w: &mut ByteWriter, m: &MethodDef) {
    write_symbol(w, m.name);
    w.bool(m.is_static);
    w.bool(m.is_abstract);
    w.bool(m.is_native);
    write_tvs(w, &m.tparams);
    write_wheres(w, &m.wheres);
    write_params(w, &m.params);
    write_type(w, &m.ret);
    // Presence only: runtime dispatch treats `body.is_some() || is_native`
    // as concrete, so bodiedness must survive even though the text does not.
    w.bool(m.body.is_some());
    write_span(w, m.span);
}

fn read_method(r: &mut ByteReader) -> ReadResult<MethodDef> {
    Ok(MethodDef {
        name: read_symbol(r)?,
        is_static: r.bool()?,
        is_abstract: r.bool()?,
        is_native: r.bool()?,
        tparams: read_tvs(r)?,
        wheres: read_wheres(r)?,
        params: read_params(r)?,
        ret: read_type(r)?,
        body: if r.bool()? { Some(empty_block()) } else { None },
        span: read_span(r)?,
    })
}

fn write_class(w: &mut ByteWriter, c: &ClassDef) {
    write_symbol(w, c.name);
    w.bool(c.is_interface);
    w.bool(c.is_abstract);
    write_tvs(w, &c.params);
    write_wheres(w, &c.wheres);
    write_opt_type(w, c.extends.as_ref());
    w.seq(c.implements.len());
    for t in &c.implements {
        write_type(w, t);
    }
    w.seq(c.fields.len());
    for f in &c.fields {
        write_symbol(w, f.name);
        write_type(w, &f.ty);
        w.bool(f.is_static);
        write_span(w, f.span);
    }
    w.seq(c.ctors.len());
    for ct in &c.ctors {
        write_params(w, &ct.params);
        write_span(w, ct.span);
    }
    w.seq(c.methods.len());
    for m in &c.methods {
        write_method(w, m);
    }
    write_span(w, c.span);
}

fn read_class(r: &mut ByteReader) -> ReadResult<ClassDef> {
    let name = read_symbol(r)?;
    let is_interface = r.bool()?;
    let is_abstract = r.bool()?;
    let params = read_tvs(r)?;
    let wheres = read_wheres(r)?;
    let extends = read_opt_type(r)?;
    let implements = r.collect(read_type)?;
    let fields = r.collect(|r| {
        Ok(FieldDef {
            name: read_symbol(r)?,
            ty: read_type(r)?,
            is_static: r.bool()?,
            // Initializers were compiled into the bytecode's field-init
            // functions; the table copy is checker-only.
            init: None,
            span: read_span(r)?,
        })
    })?;
    let ctors = r.collect(|r| {
        Ok(CtorDef {
            params: read_params(r)?,
            body: empty_block(),
            span: read_span(r)?,
        })
    })?;
    let methods = r.collect(read_method)?;
    Ok(ClassDef {
        name,
        is_interface,
        is_abstract,
        params,
        wheres,
        extends,
        implements,
        fields,
        ctors,
        methods,
        span: read_span(r)?,
    })
}

fn variance_code(v: Variance) -> u8 {
    match v {
        Variance::Bivariant => 0,
        Variance::Covariant => 1,
        Variance::Contravariant => 2,
        Variance::Invariant => 3,
    }
}

fn variance_from(code: u8) -> ReadResult<Variance> {
    Ok(match code {
        0 => Variance::Bivariant,
        1 => Variance::Covariant,
        2 => Variance::Contravariant,
        3 => Variance::Invariant,
        b => return Err(format!("invalid variance tag {b}")),
    })
}

fn write_constraint(w: &mut ByteWriter, c: &ConstraintDef) {
    write_symbol(w, c.name);
    write_tvs(w, &c.params);
    w.seq(c.prereqs.len());
    for p in &c.prereqs {
        write_inst(w, p);
    }
    w.seq(c.ops.len());
    for op in &c.ops {
        write_symbol(w, op.name);
        w.bool(op.is_static);
        w.u32(op.receiver.0);
        write_params(w, &op.params);
        write_type(w, &op.ret);
        write_span(w, op.span);
    }
    w.seq(c.variance.len());
    for v in &c.variance {
        w.u8(variance_code(*v));
    }
    write_span(w, c.span);
}

fn read_constraint(r: &mut ByteReader) -> ReadResult<ConstraintDef> {
    let name = read_symbol(r)?;
    let params = read_tvs(r)?;
    let prereqs = r.collect(read_inst)?;
    let ops = r.collect(|r| {
        Ok(ConstraintOp {
            name: read_symbol(r)?,
            is_static: r.bool()?,
            receiver: TvId(r.u32()?),
            params: read_params(r)?,
            ret: read_type(r)?,
            span: read_span(r)?,
        })
    })?;
    let variance = r.collect(|r| variance_from(r.u8()?))?;
    Ok(ConstraintDef {
        name,
        params,
        prereqs,
        ops,
        variance,
        span: read_span(r)?,
    })
}

fn write_model_def(w: &mut ByteWriter, m: &ModelDef) {
    write_symbol(w, m.name);
    write_tvs(w, &m.tparams);
    write_wheres(w, &m.wheres);
    write_inst(w, &m.for_inst);
    w.seq(m.extends.len());
    for e in &m.extends {
        write_model(w, e);
    }
    w.seq(m.methods.len());
    for mm in &m.methods {
        write_symbol(w, mm.name);
        w.bool(mm.is_static);
        write_type(w, &mm.receiver);
        write_params(w, &mm.params);
        write_type(w, &mm.ret);
        w.bool(mm.from_enrich);
        write_span(w, mm.span);
    }
    write_span(w, m.span);
}

fn read_model_def(r: &mut ByteReader) -> ReadResult<ModelDef> {
    let name = read_symbol(r)?;
    let tparams = read_tvs(r)?;
    let wheres = read_wheres(r)?;
    let for_inst = read_inst(r)?;
    let extends = r.collect(read_model)?;
    let methods = r.collect(|r| {
        Ok(ModelMethod {
            name: read_symbol(r)?,
            is_static: r.bool()?,
            receiver: read_type(r)?,
            params: read_params(r)?,
            ret: read_type(r)?,
            body: empty_block(),
            from_enrich: r.bool()?,
            span: read_span(r)?,
        })
    })?;
    Ok(ModelDef {
        name,
        tparams,
        wheres,
        for_inst,
        extends,
        methods,
        span: read_span(r)?,
    })
}

fn write_use(w: &mut ByteWriter, u: &UseDef) {
    write_tvs(w, &u.tparams);
    write_wheres(w, &u.wheres);
    write_model(w, &u.model);
    write_inst(w, &u.for_inst);
    write_span(w, u.span);
}

fn read_use(r: &mut ByteReader) -> ReadResult<UseDef> {
    Ok(UseDef {
        tparams: read_tvs(r)?,
        wheres: read_wheres(r)?,
        model: read_model(r)?,
        for_inst: read_inst(r)?,
        span: read_span(r)?,
    })
}

/// Serializes `table` (bodies blanked) into `w`.
pub fn write_table(w: &mut ByteWriter, table: &Table) {
    w.seq(table.classes.len());
    for c in &table.classes {
        write_class(w, c);
    }
    w.seq(table.constraints.len());
    for c in &table.constraints {
        write_constraint(w, c);
    }
    w.seq(table.models.len());
    for m in &table.models {
        write_model_def(w, m);
    }
    w.seq(table.uses.len());
    for u in &table.uses {
        write_use(w, u);
    }
    w.seq(table.globals.len());
    for g in &table.globals {
        write_method(w, g);
    }
    w.seq(table.tv_count());
    for i in 0..table.tv_count() {
        let tv = TvId(i as u32);
        write_symbol(w, table.tv_name(tv));
        write_opt_type(w, table.tv_bound(tv));
    }
    w.seq(table.mv_count());
    for i in 0..table.mv_count() {
        write_symbol(w, table.mv_name(MvId(i as u32)));
    }
}

/// Restores a [`Table`] serialized by [`write_table`]. Name-lookup maps
/// are rebuilt from the defs; the query cache starts empty.
pub fn read_table(r: &mut ByteReader) -> ReadResult<Table> {
    let mut table = Table::new();
    let classes: Vec<_> = r.collect(read_class)?;
    let constraints: Vec<_> = r.collect(read_constraint)?;
    let models: Vec<_> = r.collect(read_model_def)?;
    let uses = r.collect(read_use)?;
    let globals = r.collect(read_method)?;
    // `add_*` rebuilds the name maps exactly as collection did (later
    // declarations shadow earlier ones in the map, matching collect).
    for c in classes {
        table.add_class(c);
    }
    for c in constraints {
        table.add_constraint(c);
    }
    for m in models {
        table.add_model(m);
    }
    table.uses = uses;
    table.globals = globals;
    r.collect::<_, ()>(|r| {
        table.fresh_tv_bounded(read_symbol(r)?, read_opt_type(r)?);
        Ok(())
    })?;
    r.collect::<_, ()>(|r| {
        table.fresh_mv(read_symbol(r)?);
        Ok(())
    })?;
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int() -> Type {
        Type::Prim(PrimTy::Int)
    }

    #[test]
    fn types_and_models_round_trip() {
        let t = Type::Existential {
            params: vec![TvId(3)],
            bounds: vec![Some(Type::Array(Box::new(int())))],
            wheres: vec![WhereReq {
                inst: ConstraintInst {
                    id: ConstraintId(1),
                    args: vec![Type::Var(TvId(3))],
                },
                mv: MvId(2),
                named: true,
            }],
            body: Box::new(Type::Class {
                id: ClassId(4),
                args: vec![Type::Null],
                models: vec![Model::Natural {
                    inst: ConstraintInst {
                        id: ConstraintId(0),
                        args: vec![int()],
                    },
                }],
            }),
        };
        let mut w = ByteWriter::new();
        write_type(&mut w, &t);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(read_type(&mut r).unwrap(), t);
        assert_eq!(r.remaining(), 0);

        let m = Model::Decl {
            id: ModelId(7),
            type_args: vec![int()],
            model_args: vec![Model::Var(MvId(1))],
        };
        let mut w = ByteWriter::new();
        write_model(&mut w, &m);
        let bytes = w.into_bytes();
        assert_eq!(read_model(&mut ByteReader::new(&bytes)).unwrap(), m);
    }

    #[test]
    fn table_round_trips_with_blanked_bodies() {
        let mut t = Table::new();
        let tv = t.fresh_tv(Symbol::intern("T"));
        t.fresh_mv(Symbol::intern("ord"));
        t.add_class(ClassDef {
            name: Symbol::intern("Box"),
            is_interface: false,
            is_abstract: false,
            params: vec![tv],
            wheres: vec![],
            extends: None,
            implements: vec![],
            fields: vec![FieldDef {
                name: Symbol::intern("v"),
                ty: Type::Var(tv),
                is_static: false,
                init: None,
                span: Span::dummy(),
            }],
            ctors: vec![],
            methods: vec![MethodDef {
                name: Symbol::intern("get"),
                is_static: false,
                is_abstract: false,
                is_native: false,
                tparams: vec![],
                wheres: vec![],
                params: vec![],
                ret: Type::Var(tv),
                body: Some(ast::Block {
                    stmts: Vec::new(),
                    span: Span::dummy(),
                }),
                span: Span::dummy(),
            }],
            span: Span::dummy(),
        });
        let mut w = ByteWriter::new();
        write_table(&mut w, &t);
        let bytes = w.into_bytes();
        let back = read_table(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.classes.len(), 1);
        let c = back.class(ClassId(0));
        assert_eq!(c.name.as_str(), "Box");
        assert_eq!(c.fields[0].name.as_str(), "v");
        assert!(
            c.methods[0].body.is_some(),
            "bodiedness survives (dispatch concreteness)"
        );
        assert_eq!(back.lookup_class(Symbol::intern("Box")), Some(ClassId(0)));
        assert_eq!(back.tv_count(), 1);
        assert_eq!(back.tv_name(TvId(0)).as_str(), "T");
        assert_eq!(back.mv_name(MvId(0)).as_str(), "ord");
    }

    #[test]
    fn truncated_table_is_an_error() {
        let mut w = ByteWriter::new();
        write_table(&mut w, &Table::new());
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            // Any prefix must fail cleanly, never panic.
            let _ = read_table(&mut ByteReader::new(&bytes[..cut]));
        }
    }

    #[test]
    fn nested_class_args_claiming_every_remaining_byte_are_an_error() {
        // `Class` inside `Class`, each level claiming as many args as
        // there are bytes left, and nothing after the innermost header:
        // a decoder that reserved each claim up front would hold every
        // level's reservation at once before failing. (The decoder
        // recurses once per level, so the depth stays small.)
        const DEPTH: usize = 64;
        const HEADER: usize = 9; // tag, class id, arg count
        let mut w = ByteWriter::new();
        for level in 0..DEPTH {
            w.u8(1);
            w.u32(0);
            w.seq(HEADER * (DEPTH - level - 1));
        }
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), HEADER * DEPTH);
        assert!(read_type(&mut ByteReader::new(&bytes)).is_err());
    }
}
