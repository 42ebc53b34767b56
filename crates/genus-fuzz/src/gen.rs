//! Grammar-based, well-typed-by-construction Genus program generator.
//!
//! Programs are built top-down from a seeded [`SplitMix64`] stream, so a
//! seed fully determines the program. The generator tracks a scope
//! stack of typed locals and only ever emits expressions whose types it
//! can prove from that stack, which keeps the compile-reject rate of
//! *generated* (as opposed to mutated) inputs at zero — every case the
//! checker rejects is a generator bug, and a test asserts that.
//!
//! The grammar deliberately leans on the paper's feature set rather
//! than plain imperative code: every program can draw on a user class
//! (`Pair`) and a subclass of it (`Trio`, which may or may not override
//! `sum`/`tag`, always held in `Pair`-typed locals so calls dispatch
//! through the base type), a constraint with three models (`Rank` over
//! `int` twice — the multimethod-flavored pair the model-swap mutator
//! toggles — and over `String`), a generic function with a `where`
//! clause called with use-site `with`, and an existential pack/open
//! round trip.
//!
//! Statement-per-line rendering is load-bearing: the mutators and the
//! minimizer both operate on whole lines, so one statement must never
//! span or share a line (block headers `... {` and closers `}` get
//! their own lines too).
//!
//! Indexing is safe by scope construction: a visible array/list/map
//! local implies its declaration (and the declaration-time `add`/`put`
//! runs that immediately follow it, emitted in the same block) already
//! executed, so literal indexes below the declaration-time bound cannot
//! trap. A small fraction of indexes are deliberately arbitrary
//! variables instead — trap *parity* is part of what the oracles check.

use genus_common::SplitMix64;

/// Statically-known type of a generated local.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ty {
    Int,
    Bool,
    Str,
    /// `int[]` with declaration-time length.
    Arr,
    /// The generated `Pair` class.
    Pair,
    /// `ArrayList[int]`.
    ListInt,
    /// `ArrayList[String]`.
    ListStr,
    /// `TreeSet[int]`.
    SetInt,
    /// `HashMap[int, int]`.
    MapII,
}

/// A local variable in scope.
#[derive(Debug, Clone)]
struct Var {
    name: String,
    ty: Ty,
    /// Safe literal index bound (array length, list size at declaration).
    bound: usize,
    /// Map keys proven present at declaration.
    keys: Vec<i64>,
}

/// String-literal pool; short so that mutated programs still splice.
const WORDS: &[&str] = &["fuzz", "genus", "model", "pack", "zig", "ok"];

struct Gen {
    rng: SplitMix64,
    lines: Vec<String>,
    indent: usize,
    scopes: Vec<Vec<Var>>,
    tmp: u32,
    has_pair: bool,
    /// `class Trio extends Pair` is emitted (and `Pair` locals may hold
    /// one); the two flags say which base methods it overrides.
    has_sub: bool,
    sub_overrides_sum: bool,
    sub_overrides_tag: bool,
    has_rank: bool,
    has_exist: bool,
    /// Remaining statement budget for `main`.
    budget: i32,
    /// Current block-nesting depth inside `main`.
    depth: u32,
}

/// Generates one well-typed Genus program from `seed` in the base
/// grammar. Its output for a given seed stays fixed as the grammar grows:
/// the repository benchmark draws its fresh serve programs from it.
pub fn generate(seed: u64) -> String {
    generate_grammar(seed, false)
}

/// [`generate`] plus single inheritance (`Trio extends Pair`): the
/// grammar the fuzz loop draws from.
pub fn generate_with_inheritance(seed: u64) -> String {
    generate_grammar(seed, true)
}

/// The generator. With `inheritance` off it draws exactly the random
/// numbers the base grammar always drew, so [`generate`] keeps its output.
fn generate_grammar(seed: u64, inheritance: bool) -> String {
    let mut rng = SplitMix64::new(seed);
    let size = 1 + rng.below(3) as i32; // 1..=3
    let has_rank = rng.chance(7, 10);
    let has_exist = has_rank && rng.chance(1, 2);
    let has_pair = rng.chance(4, 5);
    let has_sub = inheritance && has_pair && rng.chance(1, 2);
    let (sub_overrides_sum, sub_overrides_tag) = if has_sub {
        (rng.chance(1, 2), rng.chance(1, 2))
    } else {
        (false, false)
    };
    let mut g = Gen {
        rng,
        lines: Vec::new(),
        indent: 0,
        scopes: vec![Vec::new()],
        tmp: 0,
        has_pair,
        has_sub,
        sub_overrides_sum,
        sub_overrides_tag,
        has_rank,
        has_exist,
        budget: 8 + size * 6,
        depth: 0,
    };
    g.program(seed);
    g.lines.join("\n") + "\n"
}

impl Gen {
    fn line(&mut self, s: impl Into<String>) {
        let mut out = String::new();
        for _ in 0..self.indent {
            out.push_str("    ");
        }
        out.push_str(&s.into());
        self.lines.push(out);
    }

    fn fresh(&mut self, prefix: &str) -> String {
        self.tmp += 1;
        format!("{}{}", prefix, self.tmp)
    }

    fn declare(&mut self, name: &str, ty: Ty, bound: usize, keys: Vec<i64>) {
        self.scopes.last_mut().expect("scope").push(Var {
            name: name.to_string(),
            ty,
            bound,
            keys,
        });
    }

    fn vars_of(&self, ty: Ty) -> Vec<Var> {
        self.scopes
            .iter()
            .flat_map(|s| s.iter())
            .filter(|v| v.ty == ty)
            .cloned()
            .collect()
    }

    fn pick_var(&mut self, ty: Ty) -> Option<Var> {
        let vars = self.vars_of(ty);
        if vars.is_empty() {
            None
        } else {
            Some(vars[self.rng.range(0, vars.len())].clone())
        }
    }

    // ---- program skeleton ------------------------------------------------

    fn program(&mut self, seed: u64) {
        self.line(format!("// genus-fuzz generated case (seed {seed})"));
        if self.has_pair {
            self.pair_class();
        }
        if self.has_sub {
            self.sub_class();
        }
        if self.has_rank {
            self.rank_section();
        }
        if self.has_exist {
            self.exist_section();
        }
        self.main_fn();
    }

    fn pair_class(&mut self) {
        let k = self.rng.range_i64(2, 9);
        self.line("class Pair {");
        self.indent += 1;
        self.line("int a;");
        self.line("int b;");
        self.line("Pair(int a, int b) {");
        self.indent += 1;
        self.line("this.a = a;");
        self.line("this.b = b;");
        self.indent -= 1;
        self.line("}");
        self.line("int sum() {");
        self.indent += 1;
        self.line("return (this.a + this.b);");
        self.indent -= 1;
        self.line("}");
        self.line("int scaled(int k) {");
        self.indent += 1;
        self.line(format!("return ((this.a * k) + (this.b * {k}));"));
        self.indent -= 1;
        self.line("}");
        self.line("String tag() {");
        self.indent += 1;
        self.line("return (\"P\" + this.a);");
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        self.line("");
    }

    /// `Trio extends Pair`: one more field and — per the generator's
    /// flags — overrides of `sum` and `tag`. `scaled` is never
    /// overridden, so it always has one possible target.
    fn sub_class(&mut self) {
        let k = self.rng.range_i64(2, 9);
        self.line("class Trio extends Pair {");
        self.indent += 1;
        self.line("int c;");
        self.line("Trio(int a, int b, int c) {");
        self.indent += 1;
        self.line("this.a = a;");
        self.line("this.b = b;");
        self.line("this.c = c;");
        self.indent -= 1;
        self.line("}");
        if self.sub_overrides_sum {
            self.line("int sum() {");
            self.indent += 1;
            self.line(format!("return ((this.a + this.b) + (this.c * {k}));"));
            self.indent -= 1;
            self.line("}");
        }
        if self.sub_overrides_tag {
            self.line("String tag() {");
            self.indent += 1;
            self.line("return (\"T\" + this.c);");
            self.indent -= 1;
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
        self.line("");
    }

    fn rank_section(&mut self) {
        let c1 = self.rng.range_i64(2, 12);
        let c2 = self.rng.range_i64(-9, 10);
        let c3 = self.rng.range_i64(1, 7);
        let c4 = self.rng.range_i64(2, 6);
        let c5 = self.rng.range_i64(1, 9);
        self.line("constraint Rank[T] {");
        self.indent += 1;
        self.line("int rank();");
        self.indent -= 1;
        self.line("}");
        self.line("");
        self.line("model IntRank for Rank[int] {");
        self.indent += 1;
        self.line(format!("int rank() {{ return ((this * {c1}) + {c2}); }}"));
        self.indent -= 1;
        self.line("}");
        self.line("");
        self.line("model IntRankAlt for Rank[int] {");
        self.indent += 1;
        self.line(format!("int rank() {{ return ((this - {c3}) * {c4}); }}"));
        self.indent -= 1;
        self.line("}");
        self.line("");
        self.line("model StrRank for Rank[String] {");
        self.indent += 1;
        self.line(format!(
            "int rank() {{ return ((this.compareTo(\"m\") * {c5}) + this.length()); }}"
        ));
        self.indent -= 1;
        self.line("}");
        self.line("");
        self.line("int total[T](List[T] xs) where Rank[T] {");
        self.indent += 1;
        self.line("int t = 0;");
        self.line("for (T x : xs) {");
        self.indent += 1;
        self.line("t = (t + x.rank());");
        self.indent -= 1;
        self.line("}");
        self.line("return t;");
        self.indent -= 1;
        self.line("}");
        self.line("");
    }

    fn exist_section(&mut self) {
        let c6 = self.rng.range_i64(-5, 20);
        let c7 = self.rng.range_i64(-5, 20);
        self.line("[some T where Rank[T]] List[T] sealRank[T](ArrayList[T] l) where Rank[T] d {");
        self.indent += 1;
        self.line("return l;");
        self.indent -= 1;
        self.line("}");
        self.line("");
        self.line("[some T where Rank[T]] List[T] packRanked() {");
        self.indent += 1;
        self.line("ArrayList[int] l = new ArrayList[int]();");
        self.line(format!("l.add({c6});"));
        self.line(format!("l.add({c7});"));
        let witness = if self.rng.chance(1, 2) {
            "IntRank"
        } else {
            "IntRankAlt"
        };
        self.line(format!("return sealRank[int with {witness}](l);"));
        self.indent -= 1;
        self.line("}");
        self.line("");
        self.line("int openProbe() {");
        self.indent += 1;
        self.line("[A] (List[A] a) where Rank[A] ra = packRanked();");
        self.line("return total[A with ra](a);");
        self.indent -= 1;
        self.line("}");
        self.line("");
    }

    fn main_fn(&mut self) {
        self.line("int main() {");
        self.indent += 1;
        self.scopes.push(Vec::new());
        self.line("int acc = 0;");
        self.declare("acc", Ty::Int, 0, Vec::new());
        // A couple of guaranteed roots so expressions always have leaves.
        self.decl_int();
        if self.has_rank {
            self.decl_list_int();
        }
        while self.budget > 0 {
            self.stmt();
        }
        self.line("println((\"acc=\" + acc));");
        self.line("return (acc % 99991);");
        self.scopes.pop();
        self.indent -= 1;
        self.line("}");
    }

    // ---- expressions -----------------------------------------------------

    fn int_lit(&mut self) -> String {
        let v = if self.rng.chance(1, 5) {
            self.rng.range_i64(-1000, 1000)
        } else {
            self.rng.range_i64(-9, 30)
        };
        if v < 0 {
            format!("(0 - {})", -v)
        } else {
            v.to_string()
        }
    }

    fn index_expr(&mut self, bound: usize) -> String {
        // Mostly a provably safe literal; occasionally an arbitrary int
        // variable to exercise the bounds-trap parity path.
        if bound > 0 && !self.rng.chance(1, 10) {
            self.rng.range(0, bound).to_string()
        } else if let Some(v) = self.pick_var(Ty::Int) {
            v.name
        } else {
            "0".to_string()
        }
    }

    fn int_expr(&mut self, d: u32) -> String {
        let mut tags: Vec<u8> = vec![0, 0, 1, 1, 1];
        if d > 0 {
            tags.extend_from_slice(&[2, 2, 2, 3]);
            if self.has_pair && !self.vars_of(Ty::Pair).is_empty() {
                tags.extend_from_slice(&[6, 7]);
            }
        }
        if !self.vars_of(Ty::Arr).is_empty() {
            tags.extend_from_slice(&[4, 5]);
        }
        if !self.vars_of(Ty::ListInt).is_empty() {
            tags.extend_from_slice(&[8, 9]);
            if self.has_rank {
                tags.extend_from_slice(&[10, 10]);
            }
        }
        if !self.vars_of(Ty::Str).is_empty() {
            tags.extend_from_slice(&[11, 12]);
        }
        if !self.vars_of(Ty::MapII).is_empty() {
            tags.push(13);
        }
        if !self.vars_of(Ty::SetInt).is_empty() {
            tags.push(14);
        }
        if self.has_exist {
            tags.push(15);
        }
        match *self.rng.pick(&tags) {
            0 => self.int_lit(),
            1 => match self.pick_var(Ty::Int) {
                Some(v) => v.name,
                None => self.int_lit(),
            },
            2 => {
                let op = *self.rng.pick(&["+", "-", "*"]);
                let a = self.int_expr(d - 1);
                let b = self.int_expr(d - 1);
                format!("({a} {op} {b})")
            }
            3 => {
                // Division / remainder with a mostly-nonzero denominator.
                let op = *self.rng.pick(&["/", "%"]);
                let a = self.int_expr(d - 1);
                let b = if self.rng.chance(3, 4) {
                    self.rng.range_i64(1, 10).to_string()
                } else {
                    self.int_expr(d - 1)
                };
                format!("({a} {op} {b})")
            }
            4 => {
                let v = self.pick_var(Ty::Arr).expect("arr var");
                let i = self.index_expr(v.bound);
                format!("{}[{}]", v.name, i)
            }
            5 => {
                let v = self.pick_var(Ty::Arr).expect("arr var");
                format!("{}.length", v.name)
            }
            6 => {
                let v = self.pick_var(Ty::Pair).expect("pair var");
                if self.rng.chance(1, 2) {
                    format!("{}.sum()", v.name)
                } else {
                    format!("{}.a", v.name)
                }
            }
            7 => {
                let v = self.pick_var(Ty::Pair).expect("pair var");
                let k = self.int_expr(d - 1);
                format!("{}.scaled({})", v.name, k)
            }
            8 => {
                let v = self.pick_var(Ty::ListInt).expect("list var");
                let i = self.index_expr(v.bound);
                format!("{}.get({})", v.name, i)
            }
            9 => {
                let v = self.pick_var(Ty::ListInt).expect("list var");
                format!("{}.size()", v.name)
            }
            10 => {
                let v = self.pick_var(Ty::ListInt).expect("list var");
                let m = *self.rng.pick(&["IntRank", "IntRankAlt"]);
                format!("total[int with {m}]({})", v.name)
            }
            11 => {
                let v = self.pick_var(Ty::Str).expect("str var");
                format!("{}.length()", v.name)
            }
            12 => {
                let v = self.pick_var(Ty::Str).expect("str var");
                let w = *self.rng.pick(WORDS);
                format!("{}.compareTo(\"{}\")", v.name, w)
            }
            13 => {
                let v = self.pick_var(Ty::MapII).expect("map var");
                let k = v.keys[self.rng.range(0, v.keys.len())];
                format!("{}.get({})", v.name, k)
            }
            14 => {
                let v = self.pick_var(Ty::SetInt).expect("set var");
                format!("{}.size()", v.name)
            }
            _ => "openProbe()".to_string(),
        }
    }

    fn bool_expr(&mut self, d: u32) -> String {
        let mut tags: Vec<u8> = vec![0, 0, 0];
        if !self.vars_of(Ty::Bool).is_empty() {
            tags.extend_from_slice(&[1, 1]);
        }
        if d > 0 {
            tags.extend_from_slice(&[2, 3]);
        }
        if !self.vars_of(Ty::Str).is_empty() {
            tags.push(4);
        }
        if !self.vars_of(Ty::MapII).is_empty() {
            tags.push(5);
        }
        if !self.vars_of(Ty::ListInt).is_empty() {
            tags.push(6);
        }
        if !self.vars_of(Ty::SetInt).is_empty() {
            tags.push(7);
        }
        match *self.rng.pick(&tags) {
            0 => {
                let op = *self.rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
                let a = self.int_expr(d.min(1));
                let b = self.int_expr(d.min(1));
                format!("({a} {op} {b})")
            }
            1 => self.pick_var(Ty::Bool).expect("bool var").name,
            2 => {
                let op = *self.rng.pick(&["&&", "||"]);
                let a = self.bool_expr(d - 1);
                let b = self.bool_expr(d - 1);
                format!("({a} {op} {b})")
            }
            3 => {
                let a = self.bool_expr(d - 1);
                format!("(!{a})")
            }
            4 => {
                let v = self.pick_var(Ty::Str).expect("str var");
                let w = *self.rng.pick(WORDS);
                format!("{}.equals(\"{}\")", v.name, w)
            }
            5 => {
                let v = self.pick_var(Ty::MapII).expect("map var");
                let k = self.rng.range_i64(-2, 12);
                format!("{}.containsKey({})", v.name, k)
            }
            6 => {
                let v = self.pick_var(Ty::ListInt).expect("list var");
                format!("{}.isEmpty()", v.name)
            }
            _ => {
                let v = self.pick_var(Ty::SetInt).expect("set var");
                let k = self.int_expr(0);
                format!("{}.contains({})", v.name, k)
            }
        }
    }

    fn str_expr(&mut self, d: u32) -> String {
        let mut tags: Vec<u8> = vec![0, 0];
        if !self.vars_of(Ty::Str).is_empty() {
            tags.extend_from_slice(&[1, 1]);
        }
        if d > 0 {
            tags.extend_from_slice(&[2, 3]);
        }
        if self.has_pair && !self.vars_of(Ty::Pair).is_empty() {
            tags.push(4);
        }
        if !self.vars_of(Ty::ListStr).is_empty() {
            tags.push(5);
        }
        match *self.rng.pick(&tags) {
            0 => format!("\"{}\"", self.rng.pick(WORDS)),
            1 => self.pick_var(Ty::Str).expect("str var").name,
            2 => {
                let a = self.str_expr(d - 1);
                let b = self.str_expr(d - 1);
                format!("({a} + {b})")
            }
            3 => {
                let a = self.str_expr(d - 1);
                let b = self.int_expr(0);
                format!("({a} + {b})")
            }
            4 => {
                let v = self.pick_var(Ty::Pair).expect("pair var");
                format!("{}.tag()", v.name)
            }
            _ => {
                let v = self.pick_var(Ty::ListStr).expect("strlist var");
                let i = self.index_expr(v.bound);
                format!("{}.get({})", v.name, i)
            }
        }
    }

    // ---- statements ------------------------------------------------------

    fn decl_int(&mut self) {
        let name = self.fresh("n");
        let e = self.int_expr(2);
        self.line(format!("int {name} = {e};"));
        self.declare(&name, Ty::Int, 0, Vec::new());
        self.budget -= 1;
    }

    fn decl_bool(&mut self) {
        let name = self.fresh("b");
        let e = self.bool_expr(1);
        self.line(format!("boolean {name} = {e};"));
        self.declare(&name, Ty::Bool, 0, Vec::new());
        self.budget -= 1;
    }

    fn decl_str(&mut self) {
        let name = self.fresh("s");
        let e = self.str_expr(1);
        self.line(format!("String {name} = {e};"));
        self.declare(&name, Ty::Str, 0, Vec::new());
        self.budget -= 1;
    }

    fn decl_arr(&mut self) {
        let name = self.fresh("a");
        let len = self.rng.range(1, 8);
        self.line(format!("int[] {name} = new int[{len}];"));
        let fills = self.rng.range(0, len.min(3) + 1);
        for _ in 0..fills {
            let i = self.rng.range(0, len);
            let e = self.int_expr(1);
            self.line(format!("{name}[{i}] = {e};"));
        }
        self.declare(&name, Ty::Arr, len, Vec::new());
        self.budget -= 1 + fills as i32;
    }

    fn decl_pair(&mut self) {
        let name = self.fresh("p");
        if self.rng.chance(1, 16) {
            // Rare null to exercise the NPE-trap parity path.
            self.line(format!("Pair {name} = null;"));
        } else if self.has_sub && self.rng.chance(1, 2) {
            // A subclass instance behind a base-typed receiver.
            let a = self.int_expr(1);
            let b = self.int_expr(1);
            let c = self.int_expr(1);
            self.line(format!("Pair {name} = new Trio({a}, {b}, {c});"));
            // Dispatch through the base type right away, so every
            // subclass instance meets both override outcomes.
            self.line(format!("acc = (acc + {name}.sum());"));
            self.line(format!("acc = (acc + {name}.tag().length());"));
            self.budget -= 2;
        } else {
            let a = self.int_expr(1);
            let b = self.int_expr(1);
            self.line(format!("Pair {name} = new Pair({a}, {b});"));
        }
        self.declare(&name, Ty::Pair, 0, Vec::new());
        self.budget -= 1;
    }

    fn decl_list_int(&mut self) {
        let name = self.fresh("l");
        self.line(format!("ArrayList[int] {name} = new ArrayList[int]();"));
        let adds = self.rng.range(1, 5);
        for _ in 0..adds {
            let e = self.int_expr(1);
            self.line(format!("{name}.add({e});"));
        }
        self.declare(&name, Ty::ListInt, adds, Vec::new());
        self.budget -= 1 + adds as i32;
    }

    fn decl_list_str(&mut self) {
        let name = self.fresh("q");
        self.line(format!(
            "ArrayList[String] {name} = new ArrayList[String]();"
        ));
        let adds = self.rng.range(1, 4);
        for _ in 0..adds {
            let e = self.str_expr(1);
            self.line(format!("{name}.add({e});"));
        }
        self.declare(&name, Ty::ListStr, adds, Vec::new());
        self.budget -= 1 + adds as i32;
    }

    fn decl_set(&mut self) {
        let name = self.fresh("t");
        self.line(format!("TreeSet[int] {name} = new TreeSet[int]();"));
        let adds = self.rng.range(1, 5);
        for _ in 0..adds {
            let e = self.int_expr(1);
            self.line(format!("{name}.add({e});"));
        }
        self.declare(&name, Ty::SetInt, 0, Vec::new());
        self.budget -= 1 + adds as i32;
    }

    fn decl_map(&mut self) {
        let name = self.fresh("m");
        self.line(format!(
            "HashMap[int, int] {name} = new HashMap[int, int]();"
        ));
        let puts = self.rng.range(1, 4);
        let mut keys = Vec::new();
        for i in 0..puts {
            let k = i as i64 * 3 + self.rng.range_i64(0, 3);
            let e = self.int_expr(1);
            self.line(format!("{name}.put({k}, {e});"));
            keys.push(k);
        }
        self.declare(&name, Ty::MapII, 0, keys);
        self.budget -= 1 + puts as i32;
    }

    fn assign(&mut self) {
        let choices: Vec<Ty> = [Ty::Int, Ty::Bool, Ty::Str]
            .into_iter()
            .filter(|t| !self.vars_of(*t).is_empty())
            .collect();
        if choices.is_empty() {
            self.decl_int();
            return;
        }
        let ty = *self.rng.pick(&choices);
        let v = self.pick_var(ty).expect("assignable var");
        let e = match ty {
            Ty::Int => self.int_expr(2),
            Ty::Bool => self.bool_expr(1),
            _ => self.str_expr(1),
        };
        self.line(format!("{} = {};", v.name, e));
        self.budget -= 1;
    }

    fn container_op(&mut self) {
        let mut tags: Vec<u8> = Vec::new();
        if !self.vars_of(Ty::Arr).is_empty() {
            tags.push(0);
        }
        if !self.vars_of(Ty::ListInt).is_empty() {
            tags.push(1);
        }
        if !self.vars_of(Ty::SetInt).is_empty() {
            tags.push(2);
        }
        if !self.vars_of(Ty::MapII).is_empty() {
            tags.push(3);
        }
        if !self.vars_of(Ty::Pair).is_empty() {
            tags.push(4);
        }
        if tags.is_empty() {
            self.decl_arr();
            return;
        }
        match *self.rng.pick(&tags) {
            0 => {
                let v = self.pick_var(Ty::Arr).expect("arr");
                let i = self.index_expr(v.bound);
                let e = self.int_expr(1);
                self.line(format!("{}[{}] = {};", v.name, i, e));
            }
            1 => {
                let v = self.pick_var(Ty::ListInt).expect("list");
                let e = self.int_expr(1);
                self.line(format!("{}.add({});", v.name, e));
            }
            2 => {
                let v = self.pick_var(Ty::SetInt).expect("set");
                let e = self.int_expr(1);
                self.line(format!("{}.add({});", v.name, e));
            }
            3 => {
                let v = self.pick_var(Ty::MapII).expect("map");
                let k = v.keys[self.rng.range(0, v.keys.len())];
                let e = self.int_expr(1);
                self.line(format!("{}.put({}, {});", v.name, k, e));
            }
            _ => {
                let v = self.pick_var(Ty::Pair).expect("pair");
                let f = *self.rng.pick(&["a", "b"]);
                let e = self.int_expr(1);
                self.line(format!("{}.{} = {};", v.name, f, e));
            }
        }
        self.budget -= 1;
    }

    fn acc_mix(&mut self) {
        let e = self.int_expr(2);
        if self.rng.chance(1, 2) {
            self.line(format!("acc = ((acc * 31) + {e});"));
        } else {
            self.line(format!("acc = (acc + {e});"));
        }
        self.budget -= 1;
    }

    fn print_stmt(&mut self) {
        if self.rng.chance(1, 2) {
            let e = self.str_expr(1);
            self.line(format!("println({e});"));
        } else {
            let e = self.int_expr(1);
            self.line(format!("println((\"v=\" + {e}));"));
        }
        self.budget -= 1;
    }

    fn if_stmt(&mut self) {
        let cond = self.bool_expr(1);
        self.line(format!("if ({cond}) {{"));
        {
            let n = 1 + self.rng.below(2) as i32;
            self.block(n);
        }
        if self.rng.chance(1, 2) {
            self.line("} else {");
            {
                let n = 1 + self.rng.below(2) as i32;
                self.block(n);
            }
        }
        self.line("}");
        self.budget -= 2;
    }

    fn for_stmt(&mut self) {
        let i = self.fresh("i");
        let trips = self.rng.range(2, 7);
        self.line(format!(
            "for (int {i} = 0; {i} < {trips}; {i} = ({i} + 1)) {{"
        ));
        self.scopes.push(Vec::new());
        self.indent += 1;
        self.declare(&i, Ty::Int, 0, Vec::new());
        {
            let n = 1 + self.rng.below(2) as i32;
            self.inner_stmts(n);
        }
        self.indent -= 1;
        self.scopes.pop();
        self.line("}");
        self.budget -= 2;
    }

    fn foreach_stmt(&mut self) {
        let over_set = !self.vars_of(Ty::SetInt).is_empty() && self.rng.chance(1, 3);
        let (coll, x) = if over_set {
            (
                self.pick_var(Ty::SetInt).expect("set").name,
                self.fresh("e"),
            )
        } else if let Some(v) = self.pick_var(Ty::ListInt) {
            (v.name, self.fresh("e"))
        } else {
            self.decl_list_int();
            return;
        };
        self.line(format!("for (int {x} : {coll}) {{"));
        self.scopes.push(Vec::new());
        self.indent += 1;
        self.declare(&x, Ty::Int, 0, Vec::new());
        {
            let n = 1 + self.rng.below(2) as i32;
            self.inner_stmts(n);
        }
        self.indent -= 1;
        self.scopes.pop();
        self.line("}");
        self.budget -= 2;
    }

    fn while_stmt(&mut self) {
        let w = self.fresh("w");
        let cap = self.rng.range(2, 6);
        self.line(format!("int {w} = 0;"));
        self.declare(&w, Ty::Int, 0, Vec::new());
        self.line(format!("while ({w} < {cap}) {{"));
        self.scopes.push(Vec::new());
        self.indent += 1;
        self.inner_stmts(1);
        self.line(format!("{w} = ({w} + 1);"));
        self.indent -= 1;
        self.scopes.pop();
        self.line("}");
        self.budget -= 2;
    }

    /// A braced block with its own scope (used by `if`).
    fn block(&mut self, n: i32) {
        self.scopes.push(Vec::new());
        self.indent += 1;
        self.inner_stmts(n);
        self.indent -= 1;
        self.scopes.pop();
    }

    /// Straight-line statements inside a nested block (no further
    /// nesting past depth 2, to bound program size and trip counts).
    fn inner_stmts(&mut self, n: i32) {
        self.depth += 1;
        for _ in 0..n {
            if self.depth >= 2 {
                match self.rng.below(4) {
                    0 => self.acc_mix(),
                    1 => self.container_op(),
                    2 => self.print_stmt(),
                    _ => self.assign(),
                }
            } else {
                self.stmt();
            }
        }
        self.depth -= 1;
    }

    fn stmt(&mut self) {
        let mut tags: Vec<u8> = vec![0, 1, 2, 3, 4, 5, 6, 8, 8, 9, 9, 10, 11, 12, 13];
        if self.has_pair {
            tags.push(7);
        }
        if self.depth >= 2 {
            // Shouldn't happen (inner_stmts guards), but keep flat.
            self.acc_mix();
            return;
        }
        match *self.rng.pick(&tags) {
            0 => self.decl_int(),
            1 => self.decl_bool(),
            2 => self.decl_str(),
            3 => self.decl_arr(),
            4 => self.decl_list_int(),
            5 => self.decl_set(),
            6 => self.decl_map(),
            7 => self.decl_pair(),
            8 => self.acc_mix(),
            9 => self.assign(),
            10 => self.container_op(),
            11 => self.if_stmt(),
            12 => match self.rng.below(3) {
                0 => self.for_stmt(),
                1 => self.foreach_stmt(),
                _ => self.while_stmt(),
            },
            _ => {
                if self.rng.chance(1, 3) {
                    self.decl_list_str();
                } else {
                    self.print_stmt();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        for seed in 0..20 {
            assert_eq!(generate(seed), generate(seed), "seed {seed}");
            assert_eq!(
                generate_with_inheritance(seed),
                generate_with_inheritance(seed),
                "seed {seed}"
            );
        }
        assert_ne!(generate(1), generate(2));
    }

    #[test]
    fn inheritance_is_only_in_the_extended_grammar() {
        let with_sub = (0..40)
            .filter(|&seed| generate_with_inheritance(seed).contains("class Trio extends Pair"))
            .count();
        assert!(with_sub > 5, "only {with_sub} of 40 programs subclass");
        assert!((0..40).all(|seed| !generate(seed).contains("Trio")));
    }

    #[test]
    fn statements_are_line_granular() {
        // One statement per line: a line ending in `;` holds exactly
        // one statement (the mutators and minimizer rely on this).
        // Block headers (`for (...;...;...) {`) and model one-liners
        // end in `{`/`}` and are never mutation targets.
        for seed in 0..30 {
            for src in [generate(seed), generate_with_inheritance(seed)] {
                for line in src.lines() {
                    let t = line.trim();
                    if t.ends_with(';') {
                        assert_eq!(
                            t.matches(';').count(),
                            1,
                            "seed {seed}: multi-statement line {t:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn always_has_main_and_acc() {
        for seed in 0..30 {
            for src in [generate(seed), generate_with_inheritance(seed)] {
                assert!(src.contains("int main() {"), "seed {seed}");
                assert!(src.contains("return (acc % 99991);"), "seed {seed}");
            }
        }
    }
}
