//! Pretty-printer for the Genus AST.
//!
//! Output is valid Genus source: `parse(pretty(parse(s)))` equals
//! `parse(s)` structurally, which the test suite checks by property.

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a whole program back to Genus source.
pub fn program_to_string(p: &Program) -> String {
    let mut pr = Printer::default();
    for i in &p.imports {
        let _ = writeln!(pr.out, "import {};", i.name.as_str());
    }
    if !p.imports.is_empty() {
        pr.out.push('\n');
    }
    for d in &p.decls {
        pr.decl(d);
        pr.out.push('\n');
    }
    pr.out
}

/// Renders one type.
pub fn ty_to_string(t: &Ty) -> String {
    let mut pr = Printer::default();
    pr.ty(t);
    pr.out
}

/// Renders one expression.
pub fn expr_to_string(e: &Expr) -> String {
    let mut pr = Printer::default();
    pr.expr(e);
    pr.out
}

#[derive(Default)]
struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn nl(&mut self) {
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn decl(&mut self, d: &Decl) {
        match d {
            Decl::Class(c) => self.class(c),
            Decl::Interface(i) => self.interface(i),
            Decl::Constraint(c) => self.constraint(c),
            Decl::Model(m) => self.model(m),
            Decl::Enrich(e) => self.enrich(e),
            Decl::Use(u) => self.use_decl(u),
            Decl::Method(m) => self.method(m),
        }
    }

    fn generic_sig(&mut self, g: &GenericSig) {
        if g.is_empty() {
            return;
        }
        self.out.push('[');
        for (i, tp) in g.type_params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(tp.name.as_str());
            if let Some(b) = &tp.bound {
                self.out.push_str(" extends ");
                self.ty(b);
            }
        }
        if !g.wheres.is_empty() {
            if !g.type_params.is_empty() {
                self.out.push(' ');
            }
            self.out.push_str("where ");
            self.wheres(&g.wheres);
        }
        self.out.push(']');
    }

    fn wheres(&mut self, ws: &[WhereBinding]) {
        for (i, w) in ws.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.constraint_ref(&w.constraint);
            if let Some(v) = w.var {
                let _ = write!(self.out, " {v}");
            }
        }
    }

    fn constraint_ref(&mut self, c: &ConstraintRef) {
        self.out.push_str(c.name.as_str());
        if !c.args.is_empty() {
            self.out.push('[');
            for (i, a) in c.args.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.ty(a);
            }
            self.out.push(']');
        }
    }

    fn ty(&mut self, t: &Ty) {
        match &t.kind {
            TyKind::Prim(p) => self.out.push_str(p.name()),
            TyKind::Named { name, args, models } => {
                self.out.push_str(name.as_str());
                if !args.is_empty() || !models.is_empty() {
                    self.out.push('[');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.ty(a);
                    }
                    if !models.is_empty() {
                        self.out.push_str(" with ");
                        for (i, m) in models.iter().enumerate() {
                            if i > 0 {
                                self.out.push_str(", ");
                            }
                            self.model_expr(m);
                        }
                    }
                    self.out.push(']');
                }
            }
            TyKind::Array(e) => {
                self.ty(e);
                self.out.push_str("[]");
            }
            TyKind::Existential {
                params,
                wheres,
                body,
            } => {
                self.out.push_str("[some ");
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.out.push_str(p.name.as_str());
                    if let Some(b) = &p.bound {
                        self.out.push_str(" extends ");
                        self.ty(b);
                    }
                }
                if !wheres.is_empty() {
                    self.out.push_str(" where ");
                    self.wheres(wheres);
                }
                self.out.push(']');
                self.ty(body);
            }
            TyKind::Wildcard { bound } => {
                self.out.push('?');
                if let Some(b) = bound {
                    self.out.push_str(" extends ");
                    self.ty(b);
                }
            }
        }
    }

    fn model_expr(&mut self, m: &ModelExpr) {
        match m {
            ModelExpr::Named {
                name, args, models, ..
            } => {
                self.out.push_str(name.as_str());
                if !args.is_empty() || !models.is_empty() {
                    self.out.push('[');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.ty(a);
                    }
                    if !models.is_empty() {
                        self.out.push_str(" with ");
                        for (i, mm) in models.iter().enumerate() {
                            if i > 0 {
                                self.out.push_str(", ");
                            }
                            self.model_expr(mm);
                        }
                    }
                    self.out.push(']');
                }
            }
            ModelExpr::Wildcard { .. } => self.out.push('?'),
        }
    }

    fn params(&mut self, ps: &[Param]) {
        self.out.push('(');
        for (i, p) in ps.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.ty(&p.ty);
            let _ = write!(self.out, " {}", p.name);
        }
        self.out.push(')');
    }

    fn class(&mut self, c: &ClassDecl) {
        if c.is_abstract {
            self.out.push_str("abstract ");
        }
        let _ = write!(self.out, "class {}", c.name);
        self.generic_sig(&c.generics);
        if let Some(e) = &c.extends {
            self.out.push_str(" extends ");
            self.ty(e);
        }
        if !c.implements.is_empty() {
            self.out.push_str(" implements ");
            for (i, t) in c.implements.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.ty(t);
            }
        }
        self.out.push_str(" {");
        self.indent += 1;
        for f in &c.fields {
            self.nl();
            if f.is_static {
                self.out.push_str("static ");
            }
            self.ty(&f.ty);
            let _ = write!(self.out, " {}", f.name);
            if let Some(init) = &f.init {
                self.out.push_str(" = ");
                self.expr(init);
            }
            self.out.push(';');
        }
        for ct in &c.ctors {
            self.nl();
            self.out.push_str(c.name.as_str());
            self.params(&ct.params);
            self.out.push(' ');
            self.block(&ct.body);
        }
        for m in &c.methods {
            self.nl();
            self.method(m);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn interface(&mut self, i: &InterfaceDecl) {
        let _ = write!(self.out, "interface {}", i.name);
        self.generic_sig(&i.generics);
        if !i.extends.is_empty() {
            self.out.push_str(" extends ");
            for (k, t) in i.extends.iter().enumerate() {
                if k > 0 {
                    self.out.push_str(", ");
                }
                self.ty(t);
            }
        }
        self.out.push_str(" {");
        self.indent += 1;
        for m in &i.methods {
            self.nl();
            self.method(m);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn constraint(&mut self, c: &ConstraintDecl) {
        let _ = write!(self.out, "constraint {}[", c.name);
        for (i, p) in c.params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(p.name.as_str());
        }
        self.out.push(']');
        if !c.extends.is_empty() {
            self.out.push_str(" extends ");
            for (i, e) in c.extends.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.constraint_ref(e);
            }
        }
        self.out.push_str(" {");
        self.indent += 1;
        for m in &c.methods {
            self.nl();
            if m.is_static {
                self.out.push_str("static ");
            }
            self.ty(&m.ret);
            self.out.push(' ');
            if let Some(r) = m.receiver {
                let _ = write!(self.out, "{r}.");
            }
            self.out.push_str(m.name.as_str());
            self.params(&m.params);
            self.out.push(';');
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn model(&mut self, m: &ModelDecl) {
        let _ = write!(self.out, "model {}", m.name);
        self.generic_sig_params_only(&m.generics);
        self.out.push_str(" for ");
        self.constraint_ref(&m.for_constraint);
        if !m.extends.is_empty() {
            self.out.push_str(" extends ");
            for (i, e) in m.extends.iter().enumerate() {
                if i > 0 {
                    self.out.push_str(", ");
                }
                self.model_expr(e);
            }
        }
        if !m.generics.wheres.is_empty() {
            self.out.push_str(" where ");
            let ws = m.generics.wheres.clone();
            self.wheres(&ws);
        }
        self.out.push_str(" {");
        self.indent += 1;
        for d in &m.methods {
            self.nl();
            self.model_method(d);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    /// Prints only the bracketed type parameters, leaving `where` for the
    /// trailing clause (models read better that way, as in the paper).
    fn generic_sig_params_only(&mut self, g: &GenericSig) {
        if g.type_params.is_empty() {
            return;
        }
        self.out.push('[');
        for (i, tp) in g.type_params.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.out.push_str(tp.name.as_str());
        }
        self.out.push(']');
    }

    fn model_method(&mut self, d: &ModelMethodDef) {
        if d.is_static {
            self.out.push_str("static ");
        }
        self.ty(&d.ret);
        self.out.push(' ');
        if let Some(r) = &d.receiver {
            self.ty(r);
            self.out.push('.');
        }
        self.out.push_str(d.name.as_str());
        self.params(&d.params);
        self.out.push(' ');
        self.block(&d.body);
    }

    fn enrich(&mut self, e: &EnrichDecl) {
        let _ = write!(self.out, "enrich {} {{", e.target);
        self.indent += 1;
        for d in &e.methods {
            self.nl();
            self.model_method(d);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn use_decl(&mut self, u: &UseDecl) {
        self.out.push_str("use ");
        if !u.generics.is_empty() {
            self.generic_sig(&u.generics);
            self.out.push(' ');
        }
        self.model_expr(&u.model);
        if let Some(c) = &u.for_constraint {
            self.out.push_str(" for ");
            self.constraint_ref(c);
        }
        self.out.push(';');
    }

    fn method(&mut self, m: &MethodDecl) {
        if m.is_static {
            self.out.push_str("static ");
        }
        if m.is_native {
            self.out.push_str("native ");
        }
        self.ty(&m.ret);
        let _ = write!(self.out, " {}", m.name);
        self.generic_sig(&m.generics);
        self.params(&m.params);
        match &m.body {
            Some(b) => {
                self.out.push(' ');
                self.block(b);
            }
            None => self.out.push(';'),
        }
    }

    fn block(&mut self, b: &Block) {
        self.out.push('{');
        self.indent += 1;
        for s in &b.stmts {
            self.nl();
            self.stmt(s);
        }
        self.indent -= 1;
        self.nl();
        self.out.push('}');
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Local { ty, name, init } => {
                self.ty(ty);
                let _ = write!(self.out, " {name}");
                if let Some(e) = init {
                    self.out.push_str(" = ");
                    self.expr(e);
                }
                self.out.push(';');
            }
            StmtKind::LocalBind {
                params,
                ty,
                name,
                wheres,
                init,
            } => {
                self.out.push('[');
                for (i, p) in params.iter().enumerate() {
                    if i > 0 {
                        self.out.push_str(", ");
                    }
                    self.out.push_str(p.name.as_str());
                }
                self.out.push_str("] (");
                self.ty(ty);
                let _ = write!(self.out, " {name})");
                if !wheres.is_empty() {
                    self.out.push_str(" where ");
                    self.wheres(wheres);
                }
                self.out.push_str(" = ");
                self.expr(init);
                self.out.push(';');
            }
            StmtKind::Expr(e) => {
                self.expr(e);
                self.out.push(';');
            }
            StmtKind::If {
                cond,
                then_blk,
                else_blk,
            } => {
                self.out.push_str("if (");
                self.expr(cond);
                self.out.push_str(") ");
                self.block(then_blk);
                if let Some(e) = else_blk {
                    self.out.push_str(" else ");
                    self.block(e);
                }
            }
            StmtKind::While { cond, body } => {
                self.out.push_str("while (");
                self.expr(cond);
                self.out.push_str(") ");
                self.block(body);
            }
            StmtKind::For {
                init,
                cond,
                update,
                body,
            } => {
                self.out.push_str("for (");
                match init {
                    Some(s) => self.stmt(s),
                    None => self.out.push(';'),
                }
                self.out.push(' ');
                if let Some(c) = cond {
                    self.expr(c);
                }
                self.out.push_str("; ");
                if let Some(u) = update {
                    self.expr(u);
                }
                self.out.push_str(") ");
                self.block(body);
            }
            StmtKind::ForEach {
                ty,
                name,
                iter,
                body,
            } => {
                self.out.push_str("for (");
                self.ty(ty);
                let _ = write!(self.out, " {name} : ");
                self.expr(iter);
                self.out.push_str(") ");
                self.block(body);
            }
            StmtKind::Return(e) => {
                self.out.push_str("return");
                if let Some(e) = e {
                    self.out.push(' ');
                    self.expr(e);
                }
                self.out.push(';');
            }
            StmtKind::Break => self.out.push_str("break;"),
            StmtKind::Continue => self.out.push_str("continue;"),
            StmtKind::Block(b) => self.block(b),
        }
    }

    fn expr(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(v) => {
                let _ = write!(self.out, "{v}");
            }
            ExprKind::LongLit(v) => {
                let _ = write!(self.out, "{v}L");
            }
            ExprKind::DoubleLit(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    let _ = write!(self.out, "{v:.1}");
                } else {
                    let _ = write!(self.out, "{v}");
                }
            }
            ExprKind::BoolLit(b) => {
                let _ = write!(self.out, "{b}");
            }
            ExprKind::CharLit(c) => {
                let _ = write!(self.out, "'{}'", escape_char(*c));
            }
            ExprKind::StrLit(s) => {
                self.out.push('"');
                for c in s.chars() {
                    self.out.push_str(&escape_char(c));
                }
                self.out.push('"');
            }
            ExprKind::Null => self.out.push_str("null"),
            ExprKind::This => self.out.push_str("this"),
            ExprKind::Name(n) => self.out.push_str(n.as_str()),
            ExprKind::Field { recv, name } => {
                self.expr_atom(recv);
                let _ = write!(self.out, ".{name}");
            }
            ExprKind::Call {
                recv,
                name,
                type_args,
                args,
            } => {
                if let Some(r) = recv {
                    self.expr_atom(r);
                    self.out.push('.');
                }
                self.out.push_str(name.as_str());
                if let Some(ta) = type_args {
                    self.out.push('[');
                    for (i, t) in ta.types.iter().enumerate() {
                        if i > 0 {
                            self.out.push_str(", ");
                        }
                        self.ty(t);
                    }
                    if !ta.models.is_empty() {
                        self.out.push_str(" with ");
                        for (i, m) in ta.models.iter().enumerate() {
                            if i > 0 {
                                self.out.push_str(", ");
                            }
                            self.model_expr(m);
                        }
                    }
                    self.out.push(']');
                }
                self.args(args);
            }
            ExprKind::ExpanderCall {
                recv,
                expander,
                name,
                args,
            } => {
                self.expr_atom(recv);
                self.out.push_str(".(");
                self.model_expr(expander);
                let _ = write!(self.out, ".{name})");
                self.args(args);
            }
            ExprKind::New { ty, args } => {
                self.out.push_str("new ");
                self.ty(ty);
                self.args(args);
            }
            ExprKind::NewArray { elem, len } => {
                self.out.push_str("new ");
                self.ty(elem);
                self.out.push('[');
                self.expr(len);
                self.out.push(']');
            }
            ExprKind::Index { arr, idx } => {
                self.expr_atom(arr);
                self.out.push('[');
                self.expr(idx);
                self.out.push(']');
            }
            ExprKind::Assign { lhs, rhs, op } => {
                self.expr(lhs);
                match op {
                    None => self.out.push_str(" = "),
                    Some(BinOp::Add) => self.out.push_str(" += "),
                    Some(BinOp::Sub) => self.out.push_str(" -= "),
                    Some(other) => {
                        let _ = write!(self.out, " {}= ", other.text());
                    }
                }
                self.expr(rhs);
            }
            ExprKind::Binary { op, lhs, rhs } => {
                self.out.push('(');
                self.expr(lhs);
                let _ = write!(self.out, " {} ", op.text());
                self.expr(rhs);
                self.out.push(')');
            }
            ExprKind::Unary { op, expr } => {
                self.out.push(match op {
                    UnOp::Not => '!',
                    UnOp::Neg => '-',
                });
                self.expr_atom(expr);
            }
            ExprKind::InstanceOf { expr, ty } => {
                self.out.push('(');
                self.expr_atom(expr);
                self.out.push_str(" instanceof ");
                self.ty(ty);
                self.out.push(')');
            }
            ExprKind::Cast { ty, expr } => {
                self.out.push('(');
                self.out.push('(');
                self.ty(ty);
                self.out.push_str(") ");
                self.expr_atom(expr);
                self.out.push(')');
            }
            ExprKind::Cond {
                cond,
                then_e,
                else_e,
            } => {
                self.out.push('(');
                self.expr(cond);
                self.out.push_str(" ? ");
                self.expr(then_e);
                self.out.push_str(" : ");
                self.expr(else_e);
                self.out.push(')');
            }
        }
    }

    /// Parenthesizes non-atomic receivers so reparse keeps structure.
    fn expr_atom(&mut self, e: &Expr) {
        let atomic = matches!(
            e.kind,
            ExprKind::IntLit(_)
                | ExprKind::LongLit(_)
                | ExprKind::DoubleLit(_)
                | ExprKind::BoolLit(_)
                | ExprKind::CharLit(_)
                | ExprKind::StrLit(_)
                | ExprKind::Null
                | ExprKind::This
                | ExprKind::Name(_)
                | ExprKind::Field { .. }
                | ExprKind::Call { .. }
                | ExprKind::ExpanderCall { .. }
                | ExprKind::Index { .. }
                | ExprKind::Binary { .. }
                | ExprKind::InstanceOf { .. }
                | ExprKind::Cond { .. }
        );
        if atomic {
            self.expr(e);
        } else {
            self.out.push('(');
            self.expr(e);
            self.out.push(')');
        }
    }

    fn args(&mut self, args: &[Expr]) {
        self.out.push('(');
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                self.out.push_str(", ");
            }
            self.expr(a);
        }
        self.out.push(')');
    }
}

fn escape_char(c: char) -> String {
    match c {
        '\n' => "\\n".to_string(),
        '\t' => "\\t".to_string(),
        '\r' => "\\r".to_string(),
        '\\' => "\\\\".to_string(),
        '"' => "\\\"".to_string(),
        '\'' => "\\'".to_string(),
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use genus_common::{Diagnostics, SourceMap};

    fn roundtrip(src: &str) {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t", src);
        let mut d = Diagnostics::new();
        let p1 = parse_program(&sm, f, &mut d);
        assert!(!d.has_errors(), "{}", d.render_all(&sm));
        let printed = program_to_string(&p1);
        let f2 = sm.add_file("t2", printed.clone());
        let mut d2 = Diagnostics::new();
        let p2 = parse_program(&sm, f2, &mut d2);
        assert!(
            !d2.has_errors(),
            "reparse failed:\n{printed}\n{}",
            d2.render_all(&sm)
        );
        let printed2 = program_to_string(&p2);
        assert_eq!(printed, printed2, "pretty-print not a fixpoint");
    }

    #[test]
    fn roundtrip_constraint() {
        roundtrip("constraint Eq[T] { boolean equals(T other); }");
    }

    #[test]
    fn roundtrip_graphlike() {
        roundtrip(
            "constraint GraphLike[V,E] {
               Iterable[E] V.outgoingEdges();
               V E.source();
               static V V.origin();
             }",
        );
    }

    #[test]
    fn roundtrip_model_and_class() {
        roundtrip(
            "model DualGraph[V,E] for GraphLike[V,E] where GraphLike[V,E] g {
               V E.source() { return this.(g.sink)(); }
             }
             class TreeSet[T where Comparable[T] c] implements Set[T with c] {
               TreeSet() { }
               void add(T x) { size = size + 1; }
               int size;
             }",
        );
    }

    #[test]
    fn roundtrip_statements() {
        roundtrip(
            "void h(int n) {
               int acc = 0;
               for (int i = 0; i < n; i = i + 1) { acc += i; }
               if (acc == 0) { } else { acc = -acc; }
               double d = acc > 3 ? 1.5 : 2.0;
               String s = \"x\\n\" + 'y';
               int[] xs = new int[4];
               for (int x : xs) { acc = acc + x; }
             }",
        );
    }

    #[test]
    fn roundtrip_existentials() {
        roundtrip(
            "[some T where Comparable[T]] List[T] f() { return new ArrayList[String](); }
             void g(Set[String with ?] a, List[?] b) {
               [U] (List[U] l) where Comparable[U] = f();
             }",
        );
    }
}
