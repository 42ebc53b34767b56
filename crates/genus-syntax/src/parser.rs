//! Recursive-descent parser for Genus with bounded backtracking.
//!
//! Backtracking is used where Java-family grammars are classically ambiguous:
//! casts vs. parenthesized expressions, local declarations vs. expression
//! statements, generic type arguments vs. array indexing, and for-each vs.
//! C-style `for`.
//!
//! Nesting is bounded by [`MAX_NESTING`]: every later phase (checking,
//! lowering, dropping the tree) recurses over the syntax tree on the
//! host stack, so a deeper program is rejected with `E0102` here instead
//! of overflowing a stack downstream.

use crate::ast::*;
use crate::lexer::lex;
use crate::token::{Token, TokenKind};
use genus_common::{Diagnostics, FileId, SourceMap, Span, Symbol};

/// The deepest nesting a program may have: parentheses, prefix operators,
/// casts, operator chains (which build one tree level per operator),
/// member-access chains, nested statements and blocks, and type and model
/// arguments all count. A quarter of the smallest depth that overflows an
/// 8 MiB thread through parse, check, lowering and drop (see
/// `docs/IMPLEMENTATION.md`, "Nesting limit").
pub const MAX_NESTING: usize = 256;

/// Parses the registered file `file` into a [`Program`].
///
/// Parse errors are reported into `diags`; the parser recovers at declaration
/// and statement boundaries so a partial AST is produced on error.
pub fn parse_program(sm: &SourceMap, file: FileId, diags: &mut Diagnostics) -> Program {
    let tokens = lex(sm, file, diags);
    Parser::new(tokens, diags).program()
}

/// The parser state. Exposed so embedders can parse fragments in tests.
pub struct Parser<'d> {
    tokens: Vec<Token>,
    pos: usize,
    diags: &'d mut Diagnostics,
    /// Nesting of the tree under construction (see [`MAX_NESTING`]).
    depth: usize,
    /// Where the nesting first exceeded [`MAX_NESTING`]; from then on the
    /// parse is abandoned and reports only this.
    too_deep: Option<Span>,
}

type PResult<T> = Result<T, ()>;

// `PResult`'s error is `()` by design: the real error is already in
// `diags` when a parse routine fails.
#[allow(clippy::result_unit_err)]
impl<'d> Parser<'d> {
    /// Creates a parser over a pre-lexed token stream.
    pub fn new(tokens: Vec<Token>, diags: &'d mut Diagnostics) -> Self {
        Parser {
            tokens,
            pos: 0,
            diags,
            depth: 0,
            too_deep: None,
        }
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.tokens[self.pos.min(self.tokens.len() - 1)]
            .kind
            .clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        k
    }

    fn at(&self, k: &TokenKind) -> bool {
        self.peek() == k
    }

    fn eat(&mut self, k: &TokenKind) -> bool {
        if self.at(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, k: &TokenKind) -> PResult<Span> {
        if self.at(k) {
            let sp = self.span();
            self.bump();
            Ok(sp)
        } else {
            self.error_here(format!(
                "expected {}, found {}",
                k.describe(),
                self.peek().describe()
            ));
            Err(())
        }
    }

    fn error_here(&mut self, msg: String) {
        // Past the nesting limit the parse unwinds without a syntax error
        // per level.
        if self.too_deep.is_none() {
            let sp = self.span();
            self.diags.error("E0101", sp, msg);
        }
    }

    /// Enters one more level of nesting, failing (once with `E0102`, and
    /// at once ever after) past [`MAX_NESTING`]. Called inside
    /// [`Parser::keep_depth`], which leaves the level again.
    fn enter(&mut self) -> PResult<()> {
        self.depth += 1;
        if self.too_deep.is_none() && self.depth > MAX_NESTING {
            self.too_deep = Some(self.span());
        }
        match self.too_deep {
            Some(_) => Err(()),
            None => Ok(()),
        }
    }

    /// Runs `f` and restores the nesting depth it started at, whether `f`
    /// succeeds or not.
    fn keep_depth<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        let depth = self.depth;
        let r = f(self);
        self.depth = depth;
        r
    }

    /// Runs `f` one nesting level deeper.
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        self.keep_depth(|p| {
            p.enter()?;
            f(p)
        })
    }

    fn ident(&mut self) -> PResult<(Symbol, Span)> {
        if let TokenKind::Ident(s) = self.peek().clone() {
            let sp = self.span();
            self.bump();
            Ok((s, sp))
        } else {
            self.error_here(format!(
                "expected identifier, found {}",
                self.peek().describe()
            ));
            Err(())
        }
    }

    fn checkpoint(&self) -> (usize, usize) {
        (self.pos, self.diags.len())
    }

    fn rollback(&mut self, cp: (usize, usize)) {
        self.pos = cp.0;
        // Diagnostics produced during a failed speculative parse are dropped
        // by truncating back to the checkpoint length.
        self.diags.truncate(cp.1);
    }

    /// Runs `f` speculatively: on `Err`, restores the token position and
    /// drops diagnostics produced by the attempt.
    fn speculate<T>(&mut self, f: impl FnOnce(&mut Self) -> PResult<T>) -> Option<T> {
        let cp = self.checkpoint();
        match f(self) {
            Ok(v) => Some(v),
            Err(()) => {
                self.rollback(cp);
                None
            }
        }
    }

    // ------------------------------------------------------------------
    // Program and declarations
    // ------------------------------------------------------------------

    /// Parses a whole program.
    pub fn program(&mut self) -> Program {
        let mut imports = Vec::new();
        // `import` is a contextual keyword, recognized only as the exact
        // shape `import <ident> ;` in declaration position so programs using
        // `import` as an ordinary identifier keep parsing. Imports must
        // precede all declarations.
        while self.at_import() {
            let lo = self.span();
            self.bump(); // `import`
            let (name, _) = self.ident().expect("at_import guarantees an ident");
            let semi = self.span();
            self.bump(); // `;`
            imports.push(ImportDecl {
                name,
                span: lo.to(semi),
            });
        }
        let mut decls = Vec::new();
        while !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.decl() {
                Ok(d) => decls.push(d),
                Err(()) => {
                    self.recover_to_decl();
                    if self.pos == before {
                        self.bump(); // guarantee progress
                    }
                }
            }
        }
        if let Some(sp) = self.too_deep {
            self.diags.error(
                "E0102",
                sp,
                format!("nesting exceeds the limit of {MAX_NESTING} levels"),
            );
        }
        Program { imports, decls }
    }

    fn at_import(&self) -> bool {
        matches!(self.peek(), TokenKind::Ident(s) if s.as_str() == "import")
            && matches!(self.peek_at(1), TokenKind::Ident(_))
            && matches!(self.peek_at(2), TokenKind::Semi)
    }

    /// Past the nesting limit there is nothing to recover: skips to the end.
    fn abandon_if_too_deep(&mut self) -> bool {
        if self.too_deep.is_some() {
            self.pos = self.tokens.len() - 1;
        }
        self.too_deep.is_some()
    }

    fn recover_to_decl(&mut self) {
        if self.abandon_if_too_deep() {
            return;
        }
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    self.bump();
                    if depth <= 1 {
                        return;
                    }
                    depth -= 1;
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                TokenKind::Class
                | TokenKind::Interface
                | TokenKind::Constraint
                | TokenKind::Model
                | TokenKind::Enrich
                | TokenKind::Use
                    if depth == 0 =>
                {
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn decl(&mut self) -> PResult<Decl> {
        let mut is_abstract = false;
        loop {
            match self.peek() {
                TokenKind::Abstract => {
                    is_abstract = true;
                    self.bump();
                }
                TokenKind::Final => {
                    self.bump();
                }
                _ => break,
            }
        }
        match self.peek() {
            TokenKind::Class => Ok(Decl::Class(self.class_decl(is_abstract)?)),
            TokenKind::Interface => Ok(Decl::Interface(self.interface_decl()?)),
            TokenKind::Constraint => Ok(Decl::Constraint(self.constraint_decl()?)),
            TokenKind::Model => Ok(Decl::Model(self.model_decl()?)),
            TokenKind::Enrich => Ok(Decl::Enrich(self.enrich_decl()?)),
            TokenKind::Use => Ok(Decl::Use(self.use_decl()?)),
            _ => {
                // Top-level generic method.
                let m = self.method_decl(false, is_abstract)?;
                Ok(Decl::Method(m))
            }
        }
    }

    /// `[T1, T2 where K[T] v, K2[T]]` — the bracketed generic header. Also
    /// accepts bounds `[X extends Foo]` for existential binders.
    fn generic_header(&mut self) -> PResult<GenericSig> {
        let mut sig = GenericSig::default();
        if !self.eat(&TokenKind::LBracket) {
            return Ok(sig);
        }
        if self.eat(&TokenKind::RBracket) {
            return Ok(sig);
        }
        if !self.at(&TokenKind::Where) {
            loop {
                let (name, sp) = self.ident()?;
                let bound = if self.eat(&TokenKind::Extends) {
                    Some(self.ty()?)
                } else {
                    None
                };
                sig.type_params.push(TypeParam {
                    name,
                    bound,
                    span: sp,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat(&TokenKind::Where) {
            sig.wheres = self.where_bindings()?;
        }
        self.expect(&TokenKind::RBracket)?;
        Ok(sig)
    }

    fn where_bindings(&mut self) -> PResult<Vec<WhereBinding>> {
        let mut out = Vec::new();
        loop {
            let cref = self.constraint_ref()?;
            let var = if let TokenKind::Ident(_) = self.peek() {
                // `where Comparable[T] c` — a model variable name.
                let (v, _) = self.ident()?;
                Some(v)
            } else {
                None
            };
            let span = cref.span;
            out.push(WhereBinding {
                constraint: cref,
                var,
                span,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        Ok(out)
    }

    fn constraint_ref(&mut self) -> PResult<ConstraintRef> {
        let (name, lo) = self.ident()?;
        let mut args = Vec::new();
        if self.eat(&TokenKind::LBracket) {
            loop {
                args.push(self.ty()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
            self.expect(&TokenKind::RBracket)?;
        }
        let span = lo.to(self.prev_span());
        Ok(ConstraintRef { name, args, span })
    }

    fn ty_list(&mut self) -> PResult<Vec<Ty>> {
        let mut out = vec![self.ty()?];
        while self.eat(&TokenKind::Comma) {
            out.push(self.ty()?);
        }
        Ok(out)
    }

    fn class_decl(&mut self, is_abstract: bool) -> PResult<ClassDecl> {
        let lo = self.expect(&TokenKind::Class)?;
        let (name, _) = self.ident()?;
        let mut generics = self.generic_header()?;
        let extends = if self.eat(&TokenKind::Extends) {
            Some(self.ty()?)
        } else {
            None
        };
        let implements = if self.eat(&TokenKind::Implements) {
            self.ty_list()?
        } else {
            Vec::new()
        };
        if self.eat(&TokenKind::Where) {
            let mut extra = self.where_bindings()?;
            generics.wheres.append(&mut extra);
        }
        self.expect(&TokenKind::LBrace)?;
        let mut fields = Vec::new();
        let mut ctors = Vec::new();
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            if self
                .class_member(name, &mut fields, &mut ctors, &mut methods)
                .is_err()
            {
                self.recover_in_body();
                if self.pos == before {
                    self.bump();
                }
            }
        }
        let hi = self.expect(&TokenKind::RBrace)?;
        Ok(ClassDecl {
            name,
            generics,
            extends,
            implements,
            fields,
            ctors,
            methods,
            is_abstract,
            span: lo.to(hi),
        })
    }

    fn recover_in_body(&mut self) {
        if self.abandon_if_too_deep() {
            return;
        }
        let mut depth = 0usize;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    if depth == 0 {
                        return;
                    }
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                TokenKind::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn class_member(
        &mut self,
        class_name: Symbol,
        fields: &mut Vec<FieldDecl>,
        ctors: &mut Vec<CtorDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> PResult<()> {
        let mut is_static = false;
        let mut is_abstract = false;
        let mut is_native = false;
        loop {
            match self.peek() {
                TokenKind::Static => {
                    is_static = true;
                    self.bump();
                }
                TokenKind::Abstract => {
                    is_abstract = true;
                    self.bump();
                }
                TokenKind::Native => {
                    is_native = true;
                    self.bump();
                }
                TokenKind::Final => {
                    self.bump();
                }
                _ => break,
            }
        }
        // Constructor: `ClassName ( ... ) { ... }`
        if let TokenKind::Ident(s) = self.peek() {
            if *s == class_name && matches!(self.peek_at(1), TokenKind::LParen) {
                let (_, lo) = self.ident()?;
                let params = self.params()?;
                let body = self.block()?;
                let span = lo.to(body.span);
                ctors.push(CtorDecl { params, body, span });
                return Ok(());
            }
        }
        let ty = self.ty_or_void()?;
        let (name, name_sp) = self.ident()?;
        // Method (possibly generic) or field.
        if self.at(&TokenKind::LBracket) || self.at(&TokenKind::LParen) {
            let mut m = self.method_tail(is_static, is_abstract || is_native, ty, name, name_sp)?;
            m.is_native = is_native;
            methods.push(m);
            Ok(())
        } else {
            let init = if self.eat(&TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            let hi = self.expect(&TokenKind::Semi)?;
            fields.push(FieldDecl {
                is_static,
                ty,
                name,
                init,
                span: name_sp.to(hi),
            });
            Ok(())
        }
    }

    fn ty_or_void(&mut self) -> PResult<Ty> {
        if self.at(&TokenKind::Void) {
            let sp = self.span();
            self.bump();
            return Ok(Ty::new(TyKind::Prim(PrimTy::Void), sp));
        }
        self.ty()
    }

    /// The part of a method after its return type and name.
    fn method_tail(
        &mut self,
        is_static: bool,
        is_abstract: bool,
        ret: Ty,
        name: Symbol,
        name_sp: Span,
    ) -> PResult<MethodDecl> {
        let mut generics = self.generic_header()?;
        let params = self.params()?;
        if self.eat(&TokenKind::Where) {
            // CLU-style: `where` after the formal parameters is sugar for
            // placing it in the brackets (§3.2).
            let mut extra = self.where_bindings()?;
            generics.wheres.append(&mut extra);
        }
        let (body, hi) = if self.at(&TokenKind::LBrace) {
            let b = self.block()?;
            let sp = b.span;
            (Some(b), sp)
        } else {
            let sp = self.expect(&TokenKind::Semi)?;
            (None, sp)
        };
        Ok(MethodDecl {
            is_static,
            is_abstract: is_abstract || body.is_none(),
            is_native: false,
            ret,
            name,
            generics,
            params,
            body,
            span: name_sp.to(hi),
        })
    }

    /// Free-standing method declaration (top level).
    fn method_decl(&mut self, is_static: bool, is_abstract: bool) -> PResult<MethodDecl> {
        let ret = self.ty_or_void()?;
        let (name, name_sp) = self.ident()?;
        self.method_tail(is_static, is_abstract, ret, name, name_sp)
    }

    fn params(&mut self) -> PResult<Vec<Param>> {
        self.expect(&TokenKind::LParen)?;
        let mut out = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                let ty = self.ty()?;
                let (name, sp) = self.ident()?;
                out.push(Param {
                    span: ty.span.to(sp),
                    ty,
                    name,
                });
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(out)
    }

    fn interface_decl(&mut self) -> PResult<InterfaceDecl> {
        let lo = self.expect(&TokenKind::Interface)?;
        let (name, _) = self.ident()?;
        let mut generics = self.generic_header()?;
        let extends = if self.eat(&TokenKind::Extends) {
            self.ty_list()?
        } else {
            Vec::new()
        };
        if self.eat(&TokenKind::Where) {
            let mut extra = self.where_bindings()?;
            generics.wheres.append(&mut extra);
        }
        self.expect(&TokenKind::LBrace)?;
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            let mut is_static = false;
            while matches!(
                self.peek(),
                TokenKind::Static | TokenKind::Abstract | TokenKind::Final
            ) {
                if self.at(&TokenKind::Static) {
                    is_static = true;
                }
                self.bump();
            }
            match self.method_decl(is_static, true) {
                Ok(m) => methods.push(m),
                Err(()) => {
                    self.recover_in_body();
                    if self.pos == before {
                        self.bump();
                    }
                }
            }
        }
        let hi = self.expect(&TokenKind::RBrace)?;
        Ok(InterfaceDecl {
            name,
            generics,
            extends,
            methods,
            span: lo.to(hi),
        })
    }

    fn constraint_decl(&mut self) -> PResult<ConstraintDecl> {
        let lo = self.expect(&TokenKind::Constraint)?;
        let (name, _) = self.ident()?;
        self.expect(&TokenKind::LBracket)?;
        let mut params = Vec::new();
        loop {
            let (pn, psp) = self.ident()?;
            params.push(TypeParam {
                name: pn,
                bound: None,
                span: psp,
            });
            if !self.eat(&TokenKind::Comma) {
                break;
            }
        }
        self.expect(&TokenKind::RBracket)?;
        let mut extends = Vec::new();
        if self.eat(&TokenKind::Extends) {
            loop {
                extends.push(self.constraint_ref()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::LBrace)?;
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.constraint_member() {
                Ok(m) => methods.push(m),
                Err(()) => {
                    self.recover_in_body();
                    if self.pos == before {
                        self.bump();
                    }
                }
            }
        }
        let hi = self.expect(&TokenKind::RBrace)?;
        Ok(ConstraintDecl {
            name,
            params,
            extends,
            methods,
            span: lo.to(hi),
        })
    }

    /// `static? RetTy Recv.name(params);` or `RetTy name(params);`
    fn constraint_member(&mut self) -> PResult<ConstraintMethodSig> {
        let is_static = self.eat(&TokenKind::Static);
        let ret = self.ty_or_void()?;
        let (first, first_sp) = self.ident()?;
        let (receiver, name, name_sp) = if self.eat(&TokenKind::Dot) {
            let (m, msp) = self.ident()?;
            (Some(first), m, msp)
        } else {
            (None, first, first_sp)
        };
        let params = self.params()?;
        let hi = self.expect(&TokenKind::Semi)?;
        Ok(ConstraintMethodSig {
            is_static,
            ret,
            receiver,
            name,
            params,
            span: name_sp.to(hi),
        })
    }

    fn model_decl(&mut self) -> PResult<ModelDecl> {
        let lo = self.expect(&TokenKind::Model)?;
        let (name, _) = self.ident()?;
        let mut generics = self.generic_header()?;
        self.expect(&TokenKind::For)?;
        let for_constraint = self.constraint_ref()?;
        let mut extends = Vec::new();
        if self.eat(&TokenKind::Extends) {
            loop {
                extends.push(self.model_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat(&TokenKind::Where) {
            let mut extra = self.where_bindings()?;
            generics.wheres.append(&mut extra);
        }
        self.expect(&TokenKind::LBrace)?;
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.model_method() {
                Ok(m) => methods.push(m),
                Err(()) => {
                    self.recover_in_body();
                    if self.pos == before {
                        self.bump();
                    }
                }
            }
        }
        let hi = self.expect(&TokenKind::RBrace)?;
        Ok(ModelDecl {
            name,
            generics,
            for_constraint,
            extends,
            methods,
            span: lo.to(hi),
        })
    }

    /// `static? RetTy (RecvTy .)? name (params) { ... }`
    fn model_method(&mut self) -> PResult<ModelMethodDef> {
        let is_static = self.eat(&TokenKind::Static);
        let ret = self.ty_or_void()?;
        // Try the receiver-typed form first: `RecvTy . name (`.
        let with_recv = self.speculate(|p| {
            let recv = p.ty()?;
            p.expect(&TokenKind::Dot)?;
            let (name, nsp) = p.ident()?;
            if !p.at(&TokenKind::LParen) {
                return Err(());
            }
            Ok((recv, name, nsp))
        });
        let (receiver, name, name_sp) = match with_recv {
            Some((r, n, sp)) => (Some(r), n, sp),
            None => {
                let (n, sp) = self.ident()?;
                (None, n, sp)
            }
        };
        let params = self.params()?;
        let body = self.block()?;
        let span = name_sp.to(body.span);
        Ok(ModelMethodDef {
            is_static,
            ret,
            receiver,
            name,
            params,
            body,
            span,
        })
    }

    fn enrich_decl(&mut self) -> PResult<EnrichDecl> {
        let lo = self.expect(&TokenKind::Enrich)?;
        let (target, _) = self.ident()?;
        self.expect(&TokenKind::LBrace)?;
        let mut methods = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.model_method() {
                Ok(m) => methods.push(m),
                Err(()) => {
                    self.recover_in_body();
                    if self.pos == before {
                        self.bump();
                    }
                }
            }
        }
        let hi = self.expect(&TokenKind::RBrace)?;
        Ok(EnrichDecl {
            target,
            methods,
            span: lo.to(hi),
        })
    }

    fn use_decl(&mut self) -> PResult<UseDecl> {
        let lo = self.expect(&TokenKind::Use)?;
        let generics = if self.at(&TokenKind::LBracket) {
            self.generic_header()?
        } else {
            GenericSig::default()
        };
        let model = self.model_expr()?;
        let for_constraint = if self.eat(&TokenKind::For) {
            Some(self.constraint_ref()?)
        } else {
            None
        };
        let hi = self.expect(&TokenKind::Semi)?;
        Ok(UseDecl {
            generics,
            model,
            for_constraint,
            span: lo.to(hi),
        })
    }

    // ------------------------------------------------------------------
    // Types and model expressions
    // ------------------------------------------------------------------

    /// Parses a type.
    pub fn ty(&mut self) -> PResult<Ty> {
        self.nested(Self::ty_unnested)
    }

    fn ty_unnested(&mut self) -> PResult<Ty> {
        let lo = self.span();
        let base = match self.peek().clone() {
            TokenKind::Int => {
                self.bump();
                Ty::new(TyKind::Prim(PrimTy::Int), lo)
            }
            TokenKind::Long => {
                self.bump();
                Ty::new(TyKind::Prim(PrimTy::Long), lo)
            }
            TokenKind::Double => {
                self.bump();
                Ty::new(TyKind::Prim(PrimTy::Double), lo)
            }
            TokenKind::Boolean => {
                self.bump();
                Ty::new(TyKind::Prim(PrimTy::Boolean), lo)
            }
            TokenKind::Char => {
                self.bump();
                Ty::new(TyKind::Prim(PrimTy::Char), lo)
            }
            TokenKind::LBracket => {
                // Existential: `[some U where ...] Body`.
                self.bump();
                self.expect(&TokenKind::Some_)?;
                let mut params = Vec::new();
                if !self.at(&TokenKind::Where) && !self.at(&TokenKind::RBracket) {
                    loop {
                        let (n, sp) = self.ident()?;
                        let bound = if self.eat(&TokenKind::Extends) {
                            Some(self.ty()?)
                        } else {
                            None
                        };
                        params.push(TypeParam {
                            name: n,
                            bound,
                            span: sp,
                        });
                        if !self.eat(&TokenKind::Comma) {
                            break;
                        }
                    }
                }
                let wheres = if self.eat(&TokenKind::Where) {
                    self.where_bindings()?
                } else {
                    Vec::new()
                };
                self.expect(&TokenKind::RBracket)?;
                let body = self.ty()?;
                let span = lo.to(body.span);
                Ty::new(
                    TyKind::Existential {
                        params,
                        wheres,
                        body: Box::new(body),
                    },
                    span,
                )
            }
            TokenKind::Ident(name) => {
                self.bump();
                let mut args = Vec::new();
                let mut models = Vec::new();
                if self.at(&TokenKind::LBracket) && !matches!(self.peek_at(1), TokenKind::RBracket)
                {
                    self.bump();
                    if !self.at(&TokenKind::With) {
                        loop {
                            args.push(self.type_arg()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    if self.eat(&TokenKind::With) {
                        loop {
                            models.push(self.model_expr()?);
                            if !self.eat(&TokenKind::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect(&TokenKind::RBracket)?;
                }
                let span = lo.to(self.prev_span());
                Ty::new(TyKind::Named { name, args, models }, span)
            }
            other => {
                self.error_here(format!("expected a type, found {}", other.describe()));
                return Err(());
            }
        };
        self.array_suffix(base)
    }

    fn array_suffix(&mut self, mut base: Ty) -> PResult<Ty> {
        while self.at(&TokenKind::LBracket) && matches!(self.peek_at(1), TokenKind::RBracket) {
            self.enter()?;
            self.bump();
            let hi = self.span();
            self.bump();
            let span = base.span.to(hi);
            base = Ty::new(TyKind::Array(Box::new(base)), span);
        }
        Ok(base)
    }

    /// A type argument: a type or a wildcard `?` / `? extends T`.
    fn type_arg(&mut self) -> PResult<Ty> {
        if self.at(&TokenKind::Question) {
            let lo = self.span();
            self.bump();
            let bound = if self.eat(&TokenKind::Extends) {
                Some(Box::new(self.ty()?))
            } else {
                None
            };
            let span = lo.to(self.prev_span());
            return Ok(Ty::new(TyKind::Wildcard { bound }, span));
        }
        self.ty()
    }

    /// Parses a model expression (`with`-clause operand or expander).
    pub fn model_expr(&mut self) -> PResult<ModelExpr> {
        self.nested(Self::model_expr_unnested)
    }

    fn model_expr_unnested(&mut self) -> PResult<ModelExpr> {
        if self.at(&TokenKind::Question) {
            let span = self.span();
            self.bump();
            return Ok(ModelExpr::Wildcard { span });
        }
        let (name, lo) = self.ident()?;
        let mut args = Vec::new();
        let mut models = Vec::new();
        if self.at(&TokenKind::LBracket) && !matches!(self.peek_at(1), TokenKind::RBracket) {
            self.bump();
            if !self.at(&TokenKind::With) {
                loop {
                    args.push(self.type_arg()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            if self.eat(&TokenKind::With) {
                loop {
                    models.push(self.model_expr()?);
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
            }
            self.expect(&TokenKind::RBracket)?;
        }
        let span = lo.to(self.prev_span());
        Ok(ModelExpr::Named {
            name,
            args,
            models,
            span,
        })
    }

    // ------------------------------------------------------------------
    // Statements
    // ------------------------------------------------------------------

    /// Parses a `{ ... }` block.
    pub fn block(&mut self) -> PResult<Block> {
        let lo = self.expect(&TokenKind::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at(&TokenKind::RBrace) && !self.at(&TokenKind::Eof) {
            let before = self.pos;
            match self.stmt() {
                Ok(s) => stmts.push(s),
                Err(()) => {
                    self.recover_in_body();
                    if self.pos == before {
                        self.bump();
                    }
                }
            }
        }
        let hi = self.expect(&TokenKind::RBrace)?;
        Ok(Block {
            stmts,
            span: lo.to(hi),
        })
    }

    fn stmt_as_block(&mut self) -> PResult<Block> {
        if self.at(&TokenKind::LBrace) {
            self.block()
        } else {
            let s = self.stmt()?;
            let span = s.span;
            Ok(Block {
                stmts: vec![s],
                span,
            })
        }
    }

    /// Parses one statement.
    pub fn stmt(&mut self) -> PResult<Stmt> {
        self.nested(Self::stmt_unnested)
    }

    fn stmt_unnested(&mut self) -> PResult<Stmt> {
        let lo = self.span();
        match self.peek() {
            TokenKind::LBrace => {
                let b = self.block()?;
                let span = b.span;
                Ok(Stmt {
                    kind: StmtKind::Block(b),
                    span,
                })
            }
            TokenKind::If => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let then_blk = self.stmt_as_block()?;
                let else_blk = if self.eat(&TokenKind::Else) {
                    Some(self.stmt_as_block()?)
                } else {
                    None
                };
                let span = lo.to(self.prev_span());
                Ok(Stmt {
                    kind: StmtKind::If {
                        cond,
                        then_blk,
                        else_blk,
                    },
                    span,
                })
            }
            TokenKind::While => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                let cond = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                let body = self.stmt_as_block()?;
                let span = lo.to(self.prev_span());
                Ok(Stmt {
                    kind: StmtKind::While { cond, body },
                    span,
                })
            }
            TokenKind::For => {
                self.bump();
                self.expect(&TokenKind::LParen)?;
                // Try for-each: `Ty Ident :`.
                let foreach = self.speculate(|p| {
                    let ty = p.ty()?;
                    let (name, _) = p.ident()?;
                    p.expect(&TokenKind::Colon)?;
                    Ok((ty, name))
                });
                if let Some((ty, name)) = foreach {
                    let iter = self.expr()?;
                    self.expect(&TokenKind::RParen)?;
                    let body = self.stmt_as_block()?;
                    let span = lo.to(self.prev_span());
                    return Ok(Stmt {
                        kind: StmtKind::ForEach {
                            ty,
                            name,
                            iter,
                            body,
                        },
                        span,
                    });
                }
                let init = if self.eat(&TokenKind::Semi) {
                    None
                } else {
                    Some(Box::new(self.simple_stmt()?))
                };
                let cond = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::Semi)?;
                let update = if self.at(&TokenKind::RParen) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect(&TokenKind::RParen)?;
                let body = self.stmt_as_block()?;
                let span = lo.to(self.prev_span());
                Ok(Stmt {
                    kind: StmtKind::For {
                        init,
                        cond,
                        update,
                        body,
                    },
                    span,
                })
            }
            TokenKind::Return => {
                self.bump();
                let e = if self.at(&TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                let hi = self.expect(&TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Return(e),
                    span: lo.to(hi),
                })
            }
            TokenKind::Break => {
                self.bump();
                let hi = self.expect(&TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Break,
                    span: lo.to(hi),
                })
            }
            TokenKind::Continue => {
                self.bump();
                let hi = self.expect(&TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Continue,
                    span: lo.to(hi),
                })
            }
            TokenKind::Semi => {
                self.bump();
                Ok(Stmt {
                    kind: StmtKind::Block(Block {
                        stmts: vec![],
                        span: lo,
                    }),
                    span: lo,
                })
            }
            TokenKind::LBracket => {
                // Explicit local binding (§6.2):
                // `[U] (List[U] l) where Comparable[U] = f();`
                self.bump();
                let mut params = Vec::new();
                loop {
                    let (n, sp) = self.ident()?;
                    params.push(TypeParam {
                        name: n,
                        bound: None,
                        span: sp,
                    });
                    if !self.eat(&TokenKind::Comma) {
                        break;
                    }
                }
                self.expect(&TokenKind::RBracket)?;
                self.expect(&TokenKind::LParen)?;
                let ty = self.ty()?;
                let (name, _) = self.ident()?;
                self.expect(&TokenKind::RParen)?;
                let wheres = if self.eat(&TokenKind::Where) {
                    self.where_bindings()?
                } else {
                    Vec::new()
                };
                self.expect(&TokenKind::Assign)?;
                let init = self.expr()?;
                let hi = self.expect(&TokenKind::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::LocalBind {
                        params,
                        ty,
                        name,
                        wheres,
                        init,
                    },
                    span: lo.to(hi),
                })
            }
            _ => {
                let s = self.simple_stmt()?;
                Ok(s)
            }
        }
    }

    /// A local declaration or expression statement, consuming `;`.
    fn simple_stmt(&mut self) -> PResult<Stmt> {
        let lo = self.span();
        // Try a local declaration: `Ty Ident (= expr)? ;`
        let local = self.speculate(|p| {
            let ty = p.ty()?;
            let (name, _) = p.ident()?;
            let init = if p.eat(&TokenKind::Assign) {
                Some(p.expr()?)
            } else {
                None
            };
            let hi = p.expect(&TokenKind::Semi)?;
            Ok((ty, name, init, hi))
        });
        if let Some((ty, name, init, hi)) = local {
            return Ok(Stmt {
                kind: StmtKind::Local { ty, name, init },
                span: lo.to(hi),
            });
        }
        let e = self.expr()?;
        let hi = self.expect(&TokenKind::Semi)?;
        Ok(Stmt {
            kind: StmtKind::Expr(e),
            span: lo.to(hi),
        })
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Parses an expression.
    pub fn expr(&mut self) -> PResult<Expr> {
        self.nested(Self::assignment)
    }

    fn assignment(&mut self) -> PResult<Expr> {
        let lhs = self.ternary()?;
        let op = match self.peek() {
            TokenKind::Assign => None,
            TokenKind::PlusAssign => Some(BinOp::Add),
            TokenKind::MinusAssign => Some(BinOp::Sub),
            _ => return Ok(lhs),
        };
        let is_plain = matches!(self.peek(), TokenKind::Assign);
        self.bump();
        let rhs = self.expr()?;
        let span = lhs.span.to(rhs.span);
        let op = if is_plain { None } else { op };
        Ok(Expr {
            kind: ExprKind::Assign {
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
                op,
            },
            span,
        })
    }

    fn ternary(&mut self) -> PResult<Expr> {
        let cond = self.or_expr()?;
        if self.eat(&TokenKind::Question) {
            let then_e = self.expr()?;
            self.expect(&TokenKind::Colon)?;
            let else_e = self.expr()?;
            let span = cond.span.to(else_e.span);
            return Ok(Expr {
                kind: ExprKind::Cond {
                    cond: Box::new(cond),
                    then_e: Box::new(then_e),
                    else_e: Box::new(else_e),
                },
                span,
            });
        }
        Ok(cond)
    }

    /// A left-associative chain `next (op next)*`, which builds one tree
    /// level per operator.
    fn binary_chain(
        &mut self,
        next: fn(&mut Self) -> PResult<Expr>,
        op_of: fn(&TokenKind) -> Option<BinOp>,
    ) -> PResult<Expr> {
        self.keep_depth(|p| {
            let mut lhs = next(p)?;
            while let Some(op) = op_of(p.peek()) {
                p.bump();
                p.enter()?;
                let rhs = next(p)?;
                lhs = binary(op, lhs, rhs);
            }
            Ok(lhs)
        })
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        self.binary_chain(Self::and_expr, |k| match k {
            TokenKind::OrOr => Some(BinOp::Or),
            _ => None,
        })
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        self.binary_chain(Self::equality, |k| match k {
            TokenKind::AndAnd => Some(BinOp::And),
            _ => None,
        })
    }

    fn equality(&mut self) -> PResult<Expr> {
        self.binary_chain(Self::relational, |k| match k {
            TokenKind::EqEq => Some(BinOp::Eq),
            TokenKind::NotEq => Some(BinOp::Ne),
            _ => None,
        })
    }

    fn relational(&mut self) -> PResult<Expr> {
        self.keep_depth(|p| {
            let mut lhs = p.additive()?;
            loop {
                if p.at(&TokenKind::Instanceof) {
                    p.bump();
                    p.enter()?;
                    let ty = p.ty()?;
                    let span = lhs.span.to(ty.span);
                    lhs = Expr {
                        kind: ExprKind::InstanceOf {
                            expr: Box::new(lhs),
                            ty,
                        },
                        span,
                    };
                    continue;
                }
                let op = match p.peek() {
                    TokenKind::Lt => BinOp::Lt,
                    TokenKind::Le => BinOp::Le,
                    TokenKind::Gt => BinOp::Gt,
                    TokenKind::Ge => BinOp::Ge,
                    _ => break,
                };
                p.bump();
                p.enter()?;
                let rhs = p.additive()?;
                lhs = binary(op, lhs, rhs);
            }
            Ok(lhs)
        })
    }

    fn additive(&mut self) -> PResult<Expr> {
        self.binary_chain(Self::multiplicative, |k| match k {
            TokenKind::Plus => Some(BinOp::Add),
            TokenKind::Minus => Some(BinOp::Sub),
            _ => None,
        })
    }

    fn multiplicative(&mut self) -> PResult<Expr> {
        self.binary_chain(Self::unary, |k| match k {
            TokenKind::Star => Some(BinOp::Mul),
            TokenKind::Slash => Some(BinOp::Div),
            TokenKind::Percent => Some(BinOp::Rem),
            _ => None,
        })
    }

    fn unary(&mut self) -> PResult<Expr> {
        let lo = self.span();
        match self.peek() {
            TokenKind::Not => {
                self.bump();
                let e = self.nested(Self::unary)?;
                let span = lo.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Not,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            TokenKind::Minus => {
                self.bump();
                let e = self.nested(Self::unary)?;
                let span = lo.to(e.span);
                Ok(Expr {
                    kind: ExprKind::Unary {
                        op: UnOp::Neg,
                        expr: Box::new(e),
                    },
                    span,
                })
            }
            TokenKind::LParen => {
                // Possible cast: `( Ty ) unary-expr`.
                let cast = self.speculate(|p| {
                    p.expect(&TokenKind::LParen)?;
                    let ty = p.ty()?;
                    p.expect(&TokenKind::RParen)?;
                    if !matches!(
                        p.peek(),
                        TokenKind::Ident(_)
                            | TokenKind::IntLit(_)
                            | TokenKind::LongLit(_)
                            | TokenKind::DoubleLit(_)
                            | TokenKind::StrLit(_)
                            | TokenKind::CharLit(_)
                            | TokenKind::LParen
                            | TokenKind::This
                            | TokenKind::New
                            | TokenKind::Null
                            | TokenKind::True
                            | TokenKind::False
                    ) {
                        return Err(());
                    }
                    let e = p.nested(Self::unary)?;
                    Ok((ty, e))
                });
                if let Some((ty, e)) = cast {
                    let span = lo.to(e.span);
                    return Ok(Expr {
                        kind: ExprKind::Cast {
                            ty,
                            expr: Box::new(e),
                        },
                        span,
                    });
                }
                self.postfix()
            }
            _ => self.postfix(),
        }
    }

    fn call_args(&mut self) -> PResult<Vec<Expr>> {
        self.expect(&TokenKind::LParen)?;
        let mut args = Vec::new();
        if !self.at(&TokenKind::RParen) {
            loop {
                args.push(self.expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen)?;
        Ok(args)
    }

    /// `[T1, T2 with m]` explicit instantiation at a call site.
    fn explicit_type_args(&mut self) -> PResult<TypeArgs> {
        self.expect(&TokenKind::LBracket)?;
        let mut ta = TypeArgs::default();
        if !self.at(&TokenKind::With) && !self.at(&TokenKind::RBracket) {
            loop {
                ta.types.push(self.type_arg()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        if self.eat(&TokenKind::With) {
            loop {
                ta.models.push(self.model_expr()?);
                if !self.eat(&TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RBracket)?;
        Ok(ta)
    }

    fn postfix(&mut self) -> PResult<Expr> {
        self.keep_depth(Self::postfix_chain)
    }

    /// A primary and its `.name`, call and index suffixes, which build one
    /// tree level each.
    fn postfix_chain(&mut self) -> PResult<Expr> {
        let mut e = self.primary()?;
        loop {
            if self.at(&TokenKind::Dot) || self.at(&TokenKind::LBracket) {
                self.enter()?;
            }
            if self.at(&TokenKind::Dot) {
                // `.name`, `.name(args)`, `.name[T](args)`, or expander
                // `.(modelExpr.name)(args)`.
                if matches!(self.peek_at(1), TokenKind::LParen) {
                    self.bump(); // dot
                    self.bump(); // lparen
                    let expander = self.model_expr()?;
                    self.expect(&TokenKind::Dot)?;
                    let (name, _) = self.ident()?;
                    self.expect(&TokenKind::RParen)?;
                    let args = self.call_args()?;
                    let span = e.span.to(self.prev_span());
                    e = Expr {
                        kind: ExprKind::ExpanderCall {
                            recv: Box::new(e),
                            expander,
                            name,
                            args,
                        },
                        span,
                    };
                    continue;
                }
                self.bump(); // dot
                let (name, nsp) = self.ident()?;
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    let span = e.span.to(self.prev_span());
                    e = Expr {
                        kind: ExprKind::Call {
                            recv: Some(Box::new(e)),
                            name,
                            type_args: None,
                            args,
                        },
                        span,
                    };
                } else if self.at(&TokenKind::LBracket) {
                    // Maybe `recv.m[T](args)`.
                    let gen_call = self.speculate(|p| {
                        let ta = p.explicit_type_args()?;
                        if !p.at(&TokenKind::LParen) {
                            return Err(());
                        }
                        let args = p.call_args()?;
                        Ok((ta, args))
                    });
                    if let Some((ta, args)) = gen_call {
                        let span = e.span.to(self.prev_span());
                        e = Expr {
                            kind: ExprKind::Call {
                                recv: Some(Box::new(e)),
                                name,
                                type_args: Some(ta),
                                args,
                            },
                            span,
                        };
                    } else {
                        let span = e.span.to(nsp);
                        e = Expr {
                            kind: ExprKind::Field {
                                recv: Box::new(e),
                                name,
                            },
                            span,
                        };
                    }
                } else {
                    let span = e.span.to(nsp);
                    e = Expr {
                        kind: ExprKind::Field {
                            recv: Box::new(e),
                            name,
                        },
                        span,
                    };
                }
                continue;
            }
            if self.at(&TokenKind::LBracket) {
                self.bump();
                let idx = self.expr()?;
                let hi = self.expect(&TokenKind::RBracket)?;
                let span = e.span.to(hi);
                e = Expr {
                    kind: ExprKind::Index {
                        arr: Box::new(e),
                        idx: Box::new(idx),
                    },
                    span,
                };
                continue;
            }
            break;
        }
        Ok(e)
    }

    fn primary(&mut self) -> PResult<Expr> {
        let lo = self.span();
        match self.peek().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::IntLit(v),
                    span: lo,
                })
            }
            TokenKind::LongLit(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::LongLit(v),
                    span: lo,
                })
            }
            TokenKind::DoubleLit(v) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::DoubleLit(v),
                    span: lo,
                })
            }
            TokenKind::StrLit(s) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::StrLit(s),
                    span: lo,
                })
            }
            TokenKind::CharLit(c) => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::CharLit(c),
                    span: lo,
                })
            }
            TokenKind::True => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::BoolLit(true),
                    span: lo,
                })
            }
            TokenKind::False => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::BoolLit(false),
                    span: lo,
                })
            }
            TokenKind::Null => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::Null,
                    span: lo,
                })
            }
            TokenKind::This => {
                self.bump();
                Ok(Expr {
                    kind: ExprKind::This,
                    span: lo,
                })
            }
            TokenKind::New => {
                self.bump();
                // `new Ty(args)` or `new Elem[len]`.
                if matches!(
                    self.peek(),
                    TokenKind::Int
                        | TokenKind::Long
                        | TokenKind::Double
                        | TokenKind::Boolean
                        | TokenKind::Char
                ) {
                    let elem = self.ty()?; // consumes `[]` suffixes but not `[len]`
                    self.expect(&TokenKind::LBracket)?;
                    let len = self.expr()?;
                    let hi = self.expect(&TokenKind::RBracket)?;
                    return Ok(Expr {
                        kind: ExprKind::NewArray {
                            elem,
                            len: Box::new(len),
                        },
                        span: lo.to(hi),
                    });
                }
                // Named head: could be generic ctor or array of named type.
                let ctor = self.speculate(|p| {
                    let ty = p.ty()?;
                    if !p.at(&TokenKind::LParen) {
                        return Err(());
                    }
                    let args = p.call_args()?;
                    Ok((ty, args))
                });
                if let Some((ty, args)) = ctor {
                    let span = lo.to(self.prev_span());
                    return Ok(Expr {
                        kind: ExprKind::New { ty, args },
                        span,
                    });
                }
                // Array form: `new T[expr]` where T may carry generic args.
                let arr = self.speculate(|p| {
                    let (name, nsp) = p.ident()?;
                    // Optional generic args on the element type.
                    let elem = if p.at(&TokenKind::LBracket) {
                        // Distinguish `[len]` from `[T,...]` by attempting a
                        // type-args parse that must be followed by `[len]`.
                        let with_args = p.speculate(|q| {
                            q.expect(&TokenKind::LBracket)?;
                            let mut args = Vec::new();
                            if !q.at(&TokenKind::With) {
                                loop {
                                    args.push(q.type_arg()?);
                                    if !q.eat(&TokenKind::Comma) {
                                        break;
                                    }
                                }
                            }
                            let mut models = Vec::new();
                            if q.eat(&TokenKind::With) {
                                loop {
                                    models.push(q.model_expr()?);
                                    if !q.eat(&TokenKind::Comma) {
                                        break;
                                    }
                                }
                            }
                            q.expect(&TokenKind::RBracket)?;
                            if !q.at(&TokenKind::LBracket) {
                                return Err(());
                            }
                            Ok((args, models))
                        });
                        match with_args {
                            Some((args, models)) => {
                                Ty::new(TyKind::Named { name, args, models }, nsp.to(p.prev_span()))
                            }
                            None => Ty::simple(name, nsp),
                        }
                    } else {
                        Ty::simple(name, nsp)
                    };
                    p.expect(&TokenKind::LBracket)?;
                    let len = p.expr()?;
                    let hi = p.expect(&TokenKind::RBracket)?;
                    Ok((elem, len, hi))
                });
                if let Some((elem, len, hi)) = arr {
                    return Ok(Expr {
                        kind: ExprKind::NewArray {
                            elem,
                            len: Box::new(len),
                        },
                        span: lo.to(hi),
                    });
                }
                self.error_here("malformed `new` expression".to_string());
                Err(())
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at(&TokenKind::LParen) {
                    let args = self.call_args()?;
                    let span = lo.to(self.prev_span());
                    return Ok(Expr {
                        kind: ExprKind::Call {
                            recv: None,
                            name,
                            type_args: None,
                            args,
                        },
                        span,
                    });
                }
                if self.at(&TokenKind::LBracket) {
                    // Maybe a generic call `m[T](args)`.
                    let gen_call = self.speculate(|p| {
                        let ta = p.explicit_type_args()?;
                        if !p.at(&TokenKind::LParen) {
                            return Err(());
                        }
                        let args = p.call_args()?;
                        Ok((ta, args))
                    });
                    if let Some((ta, args)) = gen_call {
                        let span = lo.to(self.prev_span());
                        return Ok(Expr {
                            kind: ExprKind::Call {
                                recv: None,
                                name,
                                type_args: Some(ta),
                                args,
                            },
                            span,
                        });
                    }
                }
                Ok(Expr {
                    kind: ExprKind::Name(name),
                    span: lo,
                })
            }
            other => {
                self.error_here(format!(
                    "expected an expression, found {}",
                    other.describe()
                ));
                Err(())
            }
        }
    }
}

/// `lhs op rhs`, spanning both operands.
fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    let span = lhs.span.to(rhs.span);
    Expr {
        kind: ExprKind::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        },
        span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_common::SourceMap;

    fn parse_ok(src: &str) -> Program {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.genus", src);
        let mut d = Diagnostics::new();
        let prog = parse_program(&sm, f, &mut d);
        assert!(!d.has_errors(), "unexpected errors:\n{}", d.render_all(&sm));
        prog
    }

    fn parse_err(src: &str) -> Diagnostics {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.genus", src);
        let mut d = Diagnostics::new();
        let _ = parse_program(&sm, f, &mut d);
        assert!(d.has_errors(), "expected errors for {src}");
        d
    }

    #[test]
    fn constraint_eq() {
        let p = parse_ok("constraint Eq[T] { boolean equals(T other); }");
        match &p.decls[0] {
            Decl::Constraint(c) => {
                assert_eq!(c.name.as_str(), "Eq");
                assert_eq!(c.params.len(), 1);
                assert_eq!(c.methods.len(), 1);
                assert_eq!(c.methods[0].name.as_str(), "equals");
                assert_eq!(c.methods[0].receiver, None);
            }
            _ => panic!("expected constraint"),
        }
    }

    #[test]
    fn constraint_multiparam_receivers() {
        let p = parse_ok(
            "constraint GraphLike[V,E] {
               Iterable[E] V.outgoingEdges();
               V E.source();
               static V V.origin();
             }",
        );
        match &p.decls[0] {
            Decl::Constraint(c) => {
                assert_eq!(c.methods[0].receiver.unwrap().as_str(), "V");
                assert_eq!(c.methods[1].receiver.unwrap().as_str(), "E");
                assert!(c.methods[2].is_static);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn constraint_prereq_and_static() {
        let p = parse_ok(
            "constraint OrdRing[T] extends Comparable[T] {
               static T T.zero();
               static T T.one();
               T T.plus(T that);
             }",
        );
        match &p.decls[0] {
            Decl::Constraint(c) => {
                assert_eq!(c.extends.len(), 1);
                assert_eq!(c.extends[0].name.as_str(), "Comparable");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn class_with_where_and_model_var() {
        let p = parse_ok(
            "class TreeSet[T where Comparable[T] c] implements Set[T with c] {
               TreeSet() { }
               void add(T x) { }
             }",
        );
        match &p.decls[0] {
            Decl::Class(cl) => {
                assert_eq!(cl.generics.type_params.len(), 1);
                assert_eq!(cl.generics.wheres.len(), 1);
                assert_eq!(cl.generics.wheres[0].var.unwrap().as_str(), "c");
                assert_eq!(cl.ctors.len(), 1);
                assert_eq!(cl.methods.len(), 1);
                match &cl.implements[0].kind {
                    TyKind::Named { models, .. } => assert_eq!(models.len(), 1),
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn method_level_where() {
        let p = parse_ok(
            "interface List[E] {
               boolean remove(E e) where Eq[E];
             }",
        );
        match &p.decls[0] {
            Decl::Interface(i) => {
                assert_eq!(i.methods[0].generics.wheres.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn model_simple() {
        let p = parse_ok(
            "model CIEq for Eq[String] {
               boolean equals(String str) { return equalsIgnoreCase(str); }
             }",
        );
        match &p.decls[0] {
            Decl::Model(m) => {
                assert_eq!(m.name.as_str(), "CIEq");
                assert_eq!(m.for_constraint.name.as_str(), "Eq");
                assert_eq!(m.methods.len(), 1);
                assert!(m.methods[0].receiver.is_none());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn model_inheritance() {
        let p = parse_ok(
            "model CICmp for Comparable[String] extends CIEq {
               int compareTo(String str) { return compareToIgnoreCase(str); }
             }",
        );
        match &p.decls[0] {
            Decl::Model(m) => assert_eq!(m.extends.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn parameterized_model_with_where() {
        let p = parse_ok(
            "model ArrayListDeepCopy[E] for Cloneable[ArrayList[E]] where Cloneable[E] {
               ArrayList[E] clone() {
                 ArrayList[E] l = new ArrayList[E]();
                 for (E e : this) { l.add(e.clone()); }
                 return l;
               }
             }",
        );
        match &p.decls[0] {
            Decl::Model(m) => {
                assert_eq!(m.generics.type_params.len(), 1);
                assert_eq!(m.generics.wheres.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn dualgraph_model_with_expanders() {
        let p = parse_ok(
            "model DualGraph[V,E] for GraphLike[V,E] where GraphLike[V,E] g {
               V E.source() { return this.(g.sink)(); }
               V E.sink() { return this.(g.source)(); }
             }",
        );
        match &p.decls[0] {
            Decl::Model(m) => {
                assert_eq!(m.methods.len(), 2);
                let recv = m.methods[0].receiver.clone().unwrap();
                match recv.kind {
                    TyKind::Named { name, .. } => assert_eq!(name.as_str(), "E"),
                    _ => panic!(),
                }
                match &m.methods[0].body.stmts[0].kind {
                    StmtKind::Return(Some(e)) => match &e.kind {
                        ExprKind::ExpanderCall { name, .. } => assert_eq!(name.as_str(), "sink"),
                        other => panic!("expected expander call, got {other:?}"),
                    },
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn multimethod_model_and_enrich() {
        let p = parse_ok(
            "model ShapeIntersect for Intersectable[Shape] {
               Shape Shape.intersect(Shape s) { return s; }
               Rectangle Rectangle.intersect(Rectangle r) { return r; }
               Shape Circle.intersect(Rectangle r) { return r; }
             }
             enrich ShapeIntersect {
               Shape Triangle.intersect(Circle c) { return c; }
             }",
        );
        assert_eq!(p.decls.len(), 2);
        match &p.decls[1] {
            Decl::Enrich(e) => assert_eq!(e.methods.len(), 1),
            _ => panic!(),
        }
    }

    #[test]
    fn use_decls() {
        let p = parse_ok(
            "use ArrayListDeepCopy;
             use [E where Cloneable[E] c] ArrayListDeepCopy[E with c] for Cloneable[ArrayList[E]];",
        );
        assert_eq!(p.decls.len(), 2);
        match &p.decls[1] {
            Decl::Use(u) => {
                assert_eq!(u.generics.type_params.len(), 1);
                assert!(u.for_constraint.is_some());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn top_level_generic_method() {
        let p = parse_ok("void sort[T](List[T] l) where Comparable[T] { }");
        match &p.decls[0] {
            Decl::Method(m) => {
                assert_eq!(m.name.as_str(), "sort");
                assert_eq!(m.generics.type_params.len(), 1);
                assert_eq!(m.generics.wheres.len(), 1);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn sssp_header() {
        let p = parse_ok(
            "Map[V,W] SSSP[V,E,W](V s)
               where GraphLike[V,E], Weighted[E,W], OrdRing[W], Hashable[V] {
               return null;
             }",
        );
        match &p.decls[0] {
            Decl::Method(m) => {
                assert_eq!(m.generics.type_params.len(), 3);
                assert_eq!(m.generics.wheres.len(), 4);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn existential_types() {
        let p = parse_ok(
            "[some T where Comparable[T]] List[T] f() {
               return new ArrayList[String]();
             }",
        );
        match &p.decls[0] {
            Decl::Method(m) => match &m.ret.kind {
                TyKind::Existential {
                    params,
                    wheres,
                    body,
                } => {
                    assert_eq!(params.len(), 1);
                    assert_eq!(wheres.len(), 1);
                    match &body.kind {
                        TyKind::Named { name, .. } => assert_eq!(name.as_str(), "List"),
                        _ => panic!(),
                    }
                }
                other => panic!("expected existential, got {other:?}"),
            },
            _ => panic!(),
        }
    }

    #[test]
    fn wildcards_and_wildcard_models() {
        let p = parse_ok("void f(Set[String with ?] a, List[?] b, Collection[? extends T] c) { }");
        match &p.decls[0] {
            Decl::Method(m) => {
                match &m.params[0].ty.kind {
                    TyKind::Named { models, .. } => {
                        assert!(matches!(models[0], ModelExpr::Wildcard { .. }))
                    }
                    _ => panic!(),
                }
                match &m.params[1].ty.kind {
                    TyKind::Named { args, .. } => {
                        assert!(matches!(args[0].kind, TyKind::Wildcard { bound: None }))
                    }
                    _ => panic!(),
                }
                match &m.params[2].ty.kind {
                    TyKind::Named { args, .. } => {
                        assert!(matches!(args[0].kind, TyKind::Wildcard { bound: Some(_) }))
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn explicit_local_binding() {
        let p = parse_ok(
            "void g() {
               [U] (List[U] l) where Comparable[U] = f();
               U[] a = new U[64];
               l = new ArrayList[U]();
             }",
        );
        match &p.decls[0] {
            Decl::Method(m) => {
                let b = m.body.as_ref().unwrap();
                assert!(matches!(b.stmts[0].kind, StmtKind::LocalBind { .. }));
                match &b.stmts[1].kind {
                    StmtKind::Local { ty, init, .. } => {
                        assert!(matches!(ty.kind, TyKind::Array(_)));
                        assert!(matches!(
                            init.as_ref().unwrap().kind,
                            ExprKind::NewArray { .. }
                        ));
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn statements_and_exprs() {
        let p = parse_ok(
            "void h(int n) {
               int acc = 0;
               for (int i = 0; i < n; i = i + 1) { acc = acc + i; }
               while (acc > 0) { acc = acc - 2; }
               if (acc == 0) { acc = 1; } else if (acc < 0) { acc = 2; } else { acc = 3; }
               int[] xs = new int[4];
               xs[0] = acc;
               for (int x : xs) { acc += x; }
               boolean b = acc > 1 && acc < 100 || !(acc == 7);
               double d = b ? 1.5 : 2.5;
               String s = \"n=\" + n;
             }",
        );
        match &p.decls[0] {
            Decl::Method(m) => {
                assert_eq!(m.body.as_ref().unwrap().stmts.len(), 10);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn casts_and_instanceof() {
        let p = parse_ok(
            "void k(Object src) {
               if (src instanceof TreeSet[? extends T with c]) {
                 addFromSorted((TreeSet[? extends T with c]) src);
               }
             }",
        );
        match &p.decls[0] {
            Decl::Method(m) => {
                let b = m.body.as_ref().unwrap();
                match &b.stmts[0].kind {
                    StmtKind::If { cond, then_blk, .. } => {
                        assert!(matches!(cond.kind, ExprKind::InstanceOf { .. }));
                        match &then_blk.stmts[0].kind {
                            StmtKind::Expr(e) => match &e.kind {
                                ExprKind::Call { args, .. } => {
                                    assert!(matches!(args[0].kind, ExprKind::Cast { .. }))
                                }
                                _ => panic!(),
                            },
                            _ => panic!(),
                        }
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn explicit_instantiation_call() {
        let p = parse_ok(
            "void g() {
               sort[int](l);
               x = new DFIterator[V, E with DualGraph[V, E with g]]();
             }",
        );
        match &p.decls[0] {
            Decl::Method(m) => {
                let b = m.body.as_ref().unwrap();
                match &b.stmts[0].kind {
                    StmtKind::Expr(e) => match &e.kind {
                        ExprKind::Call { type_args, .. } => {
                            assert_eq!(type_args.as_ref().unwrap().types.len(), 1)
                        }
                        _ => panic!(),
                    },
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn index_vs_type_args() {
        // `l[i]` must parse as indexing, not as generic instantiation.
        let p = parse_ok("void g(int[] l, int i) { int x = l[i]; l[i] = x + l[i + 1]; }");
        match &p.decls[0] {
            Decl::Method(m) => {
                let b = m.body.as_ref().unwrap();
                assert!(matches!(b.stmts[0].kind, StmtKind::Local { .. }));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn expander_with_type_name() {
        let p = parse_ok("void g(String x) { boolean b = x.(String.equals)(\"X\"); }");
        match &p.decls[0] {
            Decl::Method(m) => {
                let b = m.body.as_ref().unwrap();
                match &b.stmts[0].kind {
                    StmtKind::Local { init, .. } => {
                        assert!(matches!(
                            init.as_ref().unwrap().kind,
                            ExprKind::ExpanderCall { .. }
                        ));
                    }
                    _ => panic!(),
                }
            }
            _ => panic!(),
        }
    }

    #[test]
    fn bad_input_reports_errors() {
        parse_err("class {}");
        parse_err("constraint Eq { }");
        parse_err("model M for { }");
        parse_err("void f( { }");
    }

    #[test]
    fn recovery_continues_after_bad_decl() {
        let mut sm = SourceMap::new();
        let f = sm.add_file("t.genus", "class %%%; class Ok { }");
        let mut d = Diagnostics::new();
        let p = parse_program(&sm, f, &mut d);
        assert!(d.has_errors());
        assert!(p
            .decls
            .iter()
            .any(|dd| dd.name().map(|n| n.as_str()) == Some("Ok")));
    }

    /// The codes of a parse of `src`, on a thread with room for the
    /// parser's frames in a debug build.
    fn parse_codes(src: String) -> Vec<&'static str> {
        std::thread::Builder::new()
            .stack_size(64 << 20)
            .spawn(move || {
                let mut sm = SourceMap::new();
                let f = sm.add_file("t.genus", &src);
                let mut d = Diagnostics::new();
                let _ = parse_program(&sm, f, &mut d);
                d.iter().map(|d| d.code).collect()
            })
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_past_the_limit_is_one_e0102() {
        let parens = |n: usize| {
            format!(
                "int main() {{ return {}1{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            )
        };
        let chain = |n: usize| format!("int main() {{ return 1{}; }}", "+1".repeat(n));
        let tyargs = |n: usize| {
            format!(
                "int main() {{ Object o = new {}C{}(); return 0; }}\nint after() {{ return 0; }}",
                "B[".repeat(n),
                "]".repeat(n)
            )
        };
        let blocks = |n: usize| format!("void main() {{ {}{} }}", "{".repeat(n), "}".repeat(n));
        for src in [
            chain(2000),
            parens(1500),
            parens(100_000),
            tyargs(MAX_NESTING + 1),
            blocks(MAX_NESTING + 1),
        ] {
            assert_eq!(parse_codes(src.clone()), ["E0102"], "{}", &src[..60]);
        }
        for src in [chain(100), parens(100), tyargs(100), blocks(100)] {
            assert_eq!(parse_codes(src), [] as [&str; 0]);
        }
    }
}
