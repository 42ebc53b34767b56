//! The central registry of stable diagnostic codes.
//!
//! Every diagnostic the pipeline emits — compile-time (`E0xxx`), warning
//! (`W0xxx`), or runtime (`R0xxx`) — carries a code registered here. Codes
//! are stable API surface: tooling may match on them, so they are never
//! renumbered or reused. Messages may be reworded freely; the code is the
//! contract. `docs/ERRORS.md` indexes every row of this table with a
//! minimal triggering program, and a unit test fails if the two drift.

/// One row of the registry: a stable code, the pipeline phase that emits
/// it, and a short human title.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeInfo {
    /// The stable code, e.g. `"E0201"`.
    pub code: &'static str,
    /// The pipeline phase that emits it (`lex`, `parse`, `collect`, `wf`,
    /// `resolve`, `typecheck`, `multimethod`, `termination`, `import`,
    /// `runtime`).
    pub phase: &'static str,
    /// A short title, suitable for an index.
    pub title: &'static str,
}

macro_rules! registry {
    ($($code:literal, $phase:literal, $title:literal;)*) => {
        /// Every registered diagnostic code, ordered by code.
        pub const REGISTRY: &[CodeInfo] = &[
            $(CodeInfo { code: $code, phase: $phase, title: $title },)*
        ];
    };
}

registry! {
    // --- lexer ---
    "E0001", "lex", "unterminated block comment";
    "E0002", "lex", "unterminated string literal";
    "E0003", "lex", "unterminated char literal";
    "E0004", "lex", "invalid escape sequence";
    "E0005", "lex", "unexpected character";
    // --- parser ---
    "E0101", "parse", "syntax error";
    // --- declaration collection ---
    "E0201", "collect", "duplicate type declaration";
    "E0202", "collect", "duplicate constraint declaration";
    "E0203", "collect", "duplicate model declaration";
    "E0204", "collect", "unknown type";
    "E0205", "collect", "unknown constraint";
    "E0206", "collect", "unknown model";
    "E0207", "collect", "cannot enrich unknown model";
    "E0208", "collect", "wrong number of type arguments";
    "E0209", "collect", "wrong constraint arity";
    "E0210", "collect", "wildcard type not allowed here";
    "E0211", "collect", "wildcard model not allowed here";
    "E0212", "collect", "wrong number of arguments to a model";
    "E0213", "collect", "cannot infer the witnessed constraint";
    "E0214", "collect", "invalid constraint receiver";
    "E0215", "collect", "prerequisite cycle";
    "E0216", "collect", "overloads must differ in arity";
    // --- class hierarchy well-formedness ---
    "E0301", "wf", "override changes the generic signature";
    "E0302", "wf", "override changes parameter types";
    "E0303", "wf", "override changes the return type";
    "E0304", "wf", "unimplemented interface method";
    "E0305", "wf", "supertype of the wrong kind";
    // --- default model resolution ---
    "E0401", "resolve", "ambiguous default model";
    "E0402", "resolve", "no model found";
    "E0403", "resolve", "model resolution recursion bound exceeded";
    "E0404", "resolve", "model does not witness the required constraint";
    // --- body type checking ---
    "E0501", "typecheck", "type mismatch";
    "E0502", "typecheck", "unknown variable";
    "E0503", "typecheck", "unknown method";
    "E0504", "typecheck", "ambiguous call";
    "E0505", "typecheck", "wrong number of arguments";
    "E0506", "typecheck", "invalid assignment target";
    "E0507", "typecheck", "`break` or `continue` outside of a loop";
    "E0508", "typecheck", "invalid return";
    "E0509", "typecheck", "`this` outside an instance context";
    "E0510", "typecheck", "cannot instantiate this type";
    "E0511", "typecheck", "invalid operand types";
    "E0512", "typecheck", "unknown field";
    "E0513", "typecheck", "invalid cast or instanceof";
    "E0514", "typecheck", "invalid array operation";
    "E0516", "typecheck", "invalid expander call";
    "E0517", "typecheck", "invalid existential packing";
    "E0518", "typecheck", "invalid static receiver";
    "E0519", "typecheck", "cannot infer a type argument";
    // --- multimethod / model conformance ---
    "E0601", "multimethod", "model does not cover a constraint operation";
    "E0602", "multimethod", "ambiguous multimethod";
    // --- termination restriction ---
    "E0701", "termination", "use declaration violates the termination restriction";
    // --- modules / imports ---
    "E0801", "import", "unknown module in import";
    "E0802", "import", "reference to a module that was not imported";
    "E0803", "import", "useless import";
    // --- runtime ---
    "R0001", "runtime", "class cast failure";
    "R0002", "runtime", "null dereference";
    "R0003", "runtime", "array index out of bounds";
    "R0004", "runtime", "arithmetic fault";
    "R0005", "runtime", "no such method";
    "R0006", "runtime", "missing return value";
    "R0007", "runtime", "stack overflow";
    "R0008", "runtime", "runtime error";
    "R0009", "runtime", "fuel exhausted";
    "R0010", "runtime", "memory limit exceeded";
    // --- warnings ---
    "W0001", "typecheck", "unreachable statement";
}

/// Looks up a code in the registry.
pub fn lookup(code: &str) -> Option<&'static CodeInfo> {
    REGISTRY.iter().find(|c| c.code == code)
}

/// Whether `code` is registered. Diagnostic constructors debug-assert this,
/// so an unregistered code fails loudly in tests rather than shipping.
pub fn is_registered(code: &str) -> bool {
    lookup(code).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for w in REGISTRY.windows(2) {
            assert!(
                w[0].code < w[1].code,
                "registry must stay sorted and duplicate-free: {} then {}",
                w[0].code,
                w[1].code
            );
        }
    }

    #[test]
    fn codes_are_well_formed() {
        for c in REGISTRY {
            assert_eq!(c.code.len(), 5, "{}", c.code);
            assert!(c.code.starts_with(['E', 'W', 'R']), "{}", c.code);
            assert!(
                c.code[1..].chars().all(|ch| ch.is_ascii_digit()),
                "{}",
                c.code
            );
            assert!(!c.title.is_empty());
            assert!(!c.phase.is_empty());
        }
    }

    #[test]
    fn lookup_finds_registered_codes() {
        assert_eq!(lookup("E0201").unwrap().phase, "collect");
        assert!(lookup("E9999").is_none());
        assert!(is_registered("R0001"));
    }
}
