//! The compiled predicate engine.
//!
//! The tree-walking evaluator pays per row for work that is invariant
//! across a scan: expression-tree dispatch, environment pushes/pops and
//! reverse-scan variable lookups, and — dominating everything on view
//! scans — re-running attribute *resolution* (`DataSource::resolve`) for
//! every object even though objects of one class resolve identically.
//! This module lowers an expression once, before the scan, into a flat
//! instruction stream over a small value stack:
//!
//! * scan variables become **registers** (`Reg`), written once per row;
//! * `And`/`Or`/`if` short-circuiting becomes **jump threading**, decided
//!   at compile time instead of re-discovered per row;
//! * attribute accesses become **slots** carrying a per-scan inline cache
//!   of `resolve` results keyed by the object's presentation class, used
//!   only where the source vouches (via
//!   [`DataSource::resolution_is_class_pure`]) that resolution depends on
//!   the class alone;
//! * **computed-attribute bodies compile too**: when a slot's cached
//!   resolution is class-pure and the body is in the covered subset, the
//!   body is lowered once into its own [`Program`] (`self` in register 0,
//!   parameters after it, bracketed by `EnterBody`/`ExitBody`
//!   instructions) and invoked as a bytecode frame instead of
//!   round-tripping through `Evaluator::run_computed` per row;
//! * scans run **row-at-a-time on the fused probe**: each object access
//!   is one [`DataSource::resolution_class_and_field`] lookup yielding
//!   both the slot-cache key and the raw stored field.
//!
//! The contract is **bit-identical observable behavior** with the
//! interpreter: same values, same error variants and messages, same
//! [`crate::Budget`] step/row accounting (a `Step` instruction is
//! emitted exactly where `eval_depth` would charge a step, at the same
//! depth, so a breach stops at the exact row the interpreter would), same
//! depth-limit behavior, and uncovered computed bodies still delegate to
//! the interpreter (`Evaluator::run_computed`). Expressions outside the
//! covered subset (`Lit`, scan variables, `self` in bodies, `Attr`,
//! tuple/set/list constructors, `Unary`, `Binary`, `If`, nested `select`
//! and `exists`, aggregates, parameterized-class application) simply fail
//! to compile and the caller falls back to the interpreter, recording the
//! scan as interpreted in EXPLAIN output ([`crate::plan::Engine`]).
//!
//! **Consistency model.** Slot caches are guarded by
//! [`DataSource::resolution_generation`]: a source that invalidates
//! scan-visible resolution state (a view opening or closing a population
//! bracket, template instantiation) bumps its generation and the scan
//! drops its cached verdicts.

use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use ov_oodb::{AggFunc, BinOp, ClassId, Expr, Oid, SelectExpr, Symbol, UnOp, Value};

use crate::budget::{self, Budget};
use crate::error::{QueryError, Result};
use crate::eval::{self, truthy, Evaluator};
use crate::source::{DataSource, ResolvedAttr};

// --- engine selection -----------------------------------------------------

/// Which engine scan paths should use. There is a process-wide default
/// (set once at startup by tooling) and a thread-scoped override
/// ([`with_engine_mode`]) so concurrent sessions — and parallel tests —
/// can pick engines independently without racing on the global.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineMode {
    /// Compile where the expression is covered, fall back otherwise
    /// (the default).
    Auto,
    /// Compile when covered like [`EngineMode::Auto`], but *count* every
    /// top-level query that still falls back to the interpreter in the
    /// `compile.fallbacks` metric (surfaced by ovq `.engine`) — forcing
    /// the engine makes coverage regressions visible instead of silent.
    Compiled,
    /// Never compile; every scan runs the tree-walking interpreter.
    Interp,
}

impl EngineMode {
    /// The ovq-facing spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            EngineMode::Auto => "auto",
            EngineMode::Compiled => "compiled",
            EngineMode::Interp => "interp",
        }
    }

    /// Parses the ovq-facing spelling.
    pub fn parse(s: &str) -> Option<EngineMode> {
        match s {
            "auto" => Some(EngineMode::Auto),
            "compiled" => Some(EngineMode::Compiled),
            "interp" => Some(EngineMode::Interp),
            _ => None,
        }
    }
}

static ENGINE_MODE: AtomicU8 = AtomicU8::new(0);

thread_local! {
    static TLS_ENGINE: Cell<Option<EngineMode>> = const { Cell::new(None) };
}

/// Sets the process-wide *default* engine mode. Scopes that need a
/// different engine without affecting concurrent sessions should use
/// [`with_engine_mode`] instead.
pub fn set_engine_mode(mode: EngineMode) {
    let v = match mode {
        EngineMode::Auto => 0,
        EngineMode::Compiled => 1,
        EngineMode::Interp => 2,
    };
    ENGINE_MODE.store(v, Ordering::Relaxed);
}

/// The engine mode governing this thread: the innermost
/// [`with_engine_mode`] override if one is active, else the process-wide
/// default.
pub fn engine_mode() -> EngineMode {
    if let Some(m) = TLS_ENGINE.with(|c| c.get()) {
        return m;
    }
    match ENGINE_MODE.load(Ordering::Relaxed) {
        1 => EngineMode::Compiled,
        2 => EngineMode::Interp,
        _ => EngineMode::Auto,
    }
}

/// Runs `f` with `mode` as this thread's engine mode, restoring the
/// previous override on the way out (also on unwind). This is how
/// per-`Session` engine selection works without racing the global:
/// nothing outside the closure — other threads, other sessions — sees
/// the override. Note that scans dispatched to *worker* threads inside
/// `f` (parallel chunk scans, background populations) consult their own
/// thread's mode, i.e. the process default; both engines are
/// bit-identical, so this affects performance characteristics only.
pub fn with_engine_mode<R>(mode: EngineMode, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<EngineMode>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TLS_ENGINE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(TLS_ENGINE.with(|c| c.replace(Some(mode))));
    f()
}

/// Should scan paths attempt compiled execution at all?
pub fn compiled_enabled() -> bool {
    engine_mode() != EngineMode::Interp
}

/// Interpreter fallbacks observed while the engine was forced to
/// [`EngineMode::Compiled`]: top-level queries the compiler could not
/// cover. Zero under a healthy forced-compiled workload; a growing count
/// is a coverage regression.
pub fn compile_fallbacks() -> u64 {
    ov_oodb::metric_counter!("compile.fallbacks").get()
}

/// Records one forced-mode interpreter fallback (only called when
/// [`engine_mode`] is [`EngineMode::Compiled`]).
fn note_fallback() {
    ov_oodb::metric_counter!("compile.fallbacks").inc();
}

// --- programs -------------------------------------------------------------

/// One instruction. The stream is laid out in evaluation order: every
/// instruction that corresponds to an expression node is preceded by the
/// node's [`Inst::Step`], so the sequence of budget charges (and the depth
/// each is charged at) is exactly the interpreter's.
#[derive(Clone, Copy, Debug)]
enum Inst {
    /// Expression-node entry: recursion-depth check plus one budget step at
    /// `base + rel` (mirrors `eval_depth`'s prologue).
    Step { rel: usize },
    /// Push a constant (from the program's pool).
    Const(usize),
    /// Push a register: a scan variable, or — in a body program — `self`
    /// (register 0) or a parameter.
    Reg(usize),
    /// Pop `nargs` arguments and a receiver; perform attribute access via
    /// resolution slot `slot` (mirrors `Evaluator::access`/`attr_of`,
    /// including the second depth-check + step for object receivers).
    Attr {
        slot: usize,
        nargs: usize,
        rel: usize,
    },
    /// Pop one operand, apply a unary operator.
    Unary(UnOp),
    /// Pop two operands, apply a non-short-circuit binary operator.
    Binary(BinOp),
    /// `And` threading: pop the lhs; if falsy, push `false` and jump to
    /// `to` (past the rhs). Otherwise fall through into the rhs.
    AndShort { to: usize },
    /// `Or` threading: pop the lhs; if truthy, push `true` and jump.
    OrShort { to: usize },
    /// Pop a value, push its truthiness (normalizes an `And`/`Or` rhs).
    Booleanize,
    /// Pop the `if` condition; jump to `to` (the else arm) when falsy.
    BranchFalsy { to: usize },
    /// Unconditional jump (end of an `if` then-arm).
    Jump { to: usize },
    /// Pop the shape's field count of values, build a tuple in field order
    /// (mirrors `Expr::TupleCons`: later duplicates overwrite).
    MakeTuple { shape: usize },
    /// Pop `n` values, build a set.
    MakeSet { n: usize },
    /// Pop `n` values, build a list.
    MakeList { n: usize },
    /// Pop a collection, apply the aggregate (the interpreter's own
    /// `eval::aggregate`, so values and errors match by construction).
    Aggregate(AggFunc),
    /// Pop `nargs` arguments, push the extent of parameterized class
    /// `name` instantiated on them, as `DataSource::apply` answers it.
    Apply { name: Symbol, nargs: usize },
    /// Run sub-select `sub` (of the program's [`Program::subs`] table) as
    /// a subroutine at depth `base + rel`, pushing its result: a set (or
    /// bare element for `select the`), or a boolean for `exists`. The
    /// subroutine drives its binding loops row-at-a-time with the
    /// interpreter's exact depth/step charges.
    Select { sub: usize, rel: usize },
    /// Frame entry of a compiled computed-attribute body: the
    /// `DataSource::enter_body` bracket the interpreter's `run_computed`
    /// opens before evaluating the body.
    EnterBody,
    /// …and the matching `exit_body`. Skipped when the body errors; the
    /// frame driver ([`Scan::run_body`]) re-balances, exactly like
    /// `run_computed` exiting on the error path.
    ExitBody,
}

/// A compiled expression: flat instructions, a constant pool, and one
/// resolution slot per attribute-access site. Compile once per scan (or
/// once per view bind), execute per row via [`Scan`].
#[derive(Clone, Debug)]
pub struct Program {
    insts: Vec<Inst>,
    consts: Vec<Value>,
    /// Attribute name per resolution slot, in slot order.
    slots: Vec<Symbol>,
    /// For each slot, the register its receiver reads directly (the
    /// receiver expression is that register and nothing else) — the
    /// accesses statistics sampling reads. `None` for computed receivers
    /// (path tails like `P.Spouse.Name`).
    slot_recv: Vec<Option<usize>>,
    /// Field-name shapes for `MakeTuple`, in shape order.
    shapes: Vec<Vec<Symbol>>,
    /// Compiled sub-selects, indexed by [`Inst::Select`].
    subs: Vec<Arc<SubSelect>>,
    n_regs: usize,
}

/// How a sub-select binding's collection is produced, once per enclosing
/// iteration (the interpreter re-evaluates collections each time the
/// outer bindings advance, and so does the compiled form).
#[derive(Debug)]
enum CollPlan {
    /// A compiled collection expression (a variable path, a constructed
    /// set, an earlier binding's attribute, …).
    Prog(Arc<Program>),
    /// A free name, resolved per iteration exactly like the evaluator's
    /// `resolve_name` tail: named object first, then class extent, else
    /// the unknown-name error — so mid-scan rebinds and repopulations
    /// behave identically to the interpreter.
    Free(Symbol),
}

/// One `var in collection` binding of a compiled sub-select.
#[derive(Debug)]
struct SubBinding {
    var: Symbol,
    /// The frame-relative register the variable binds into (past the
    /// enclosing program's registers; the file grows on demand).
    reg: usize,
    coll: CollPlan,
}

/// A nested `select` (or `exists`) compiled as a subroutine: collection
/// plans per binding, a compiled filter, and a compiled projection —
/// `None` for `exists`, which only probes for a first match.
#[derive(Debug)]
struct SubSelect {
    the: bool,
    bindings: Vec<SubBinding>,
    filter: Option<Arc<Program>>,
    proj: Option<Arc<Program>>,
}

impl Program {
    /// Number of registers (scan variables; in a body program, `self`
    /// plus the parameters).
    pub fn n_regs(&self) -> usize {
        self.n_regs
    }
}

/// Lowers `expr` to a [`Program`] with the scan variables `vars` mapped to
/// registers `0..vars.len()` (innermost binding wins, like `Env::lookup`).
/// Returns `None` when `expr` uses any construct outside the covered subset
/// — the caller falls back to the interpreter.
pub fn compile_predicate(expr: &Expr, vars: &[Symbol]) -> Option<Program> {
    let mut c = Compiler {
        insts: Vec::new(),
        consts: Vec::new(),
        slots: Vec::new(),
        slot_recv: Vec::new(),
        shapes: Vec::new(),
        subs: Vec::new(),
        vars: vars.to_vec(),
        reg_base: 0,
        self_reg: None,
    };
    c.emit(expr, 0)?;
    Some(c.finish())
}

/// Lowers a computed-attribute body to a [`Program`] with `self` in
/// register 0 and `params` in registers `1..`, bracketed by
/// `EnterBody`/`ExitBody` so the body-privilege window and its budget
/// charges land exactly where `Evaluator::run_computed` puts them.
/// `None` when the body uses anything outside the covered subset — the
/// scan then falls back to `run_computed` for that slot.
fn compile_body(params: &[Symbol], body: &Expr) -> Option<Program> {
    let mut c = Compiler {
        insts: vec![Inst::EnterBody],
        consts: Vec::new(),
        slots: Vec::new(),
        slot_recv: Vec::new(),
        shapes: Vec::new(),
        subs: Vec::new(),
        vars: params.to_vec(),
        reg_base: 1,
        self_reg: Some(0),
    };
    c.emit(body, 0)?;
    c.insts.push(Inst::ExitBody);
    Some(c.finish())
}

struct Compiler {
    insts: Vec<Inst>,
    consts: Vec<Value>,
    slots: Vec<Symbol>,
    slot_recv: Vec<Option<usize>>,
    shapes: Vec<Vec<Symbol>>,
    subs: Vec<Arc<SubSelect>>,
    /// In-scope variables, innermost last: the program's own scan
    /// variables (or body parameters), extended transiently with
    /// sub-select binding variables while their filter/projection
    /// compile.
    vars: Vec<Symbol>,
    /// First register for `vars` (1 in body programs, where register 0 is
    /// `self`).
    reg_base: usize,
    /// The register holding `self`, when compiling a body.
    self_reg: Option<usize>,
}

impl Compiler {
    /// Seals the compiled state into a [`Program`]. `n_regs` counts only
    /// the program's *own* registers — sub-select variables bind past
    /// this count into a register file that grows on demand and is
    /// truncated back at every [`Scan::run`].
    fn finish(self) -> Program {
        Program {
            insts: self.insts,
            consts: self.consts,
            slots: self.slots,
            slot_recv: self.slot_recv,
            shapes: self.shapes,
            subs: self.subs,
            n_regs: self.reg_base + self.vars.len(),
        }
    }

    /// Compiles `e` as a standalone child [`Program`] (a sub-select
    /// collection, filter, or projection) sharing this compiler's
    /// frame-relative register layout: same `reg_base`/`self_reg`, and
    /// the current variable scope — including enclosing sub-select
    /// variables — resolves to the same registers.
    fn compile_child(&self, e: &Expr) -> Option<Program> {
        let mut c = Compiler {
            insts: Vec::new(),
            consts: Vec::new(),
            slots: Vec::new(),
            slot_recv: Vec::new(),
            shapes: Vec::new(),
            subs: Vec::new(),
            vars: self.vars.clone(),
            reg_base: self.reg_base,
            self_reg: self.self_reg,
        };
        c.emit(e, 0)?;
        Some(c.finish())
    }

    /// Compiles a nested `select`/`exists` into a [`SubSelect`] table
    /// entry. Binding collections compile before their variable enters
    /// scope (matching `iterate_bindings`: later collections may refer
    /// to earlier variables); the filter and projection see every
    /// binding. Any uncovered piece fails the whole enclosing compile.
    fn compile_sub(&mut self, q: &SelectExpr, exists: bool) -> Option<usize> {
        let outer = self.vars.len();
        let mut bindings = Vec::with_capacity(q.bindings.len());
        for (var, coll) in &q.bindings {
            let plan = match coll {
                // A name not bound by any in-scope variable resolves at
                // runtime (named object / class extent), per iteration.
                Expr::Name(n) if !self.vars.contains(n) => CollPlan::Free(*n),
                _ => CollPlan::Prog(Arc::new(self.compile_child(coll)?)),
            };
            let reg = self.reg_base + self.vars.len();
            self.vars.push(*var);
            bindings.push(SubBinding {
                var: *var,
                reg,
                coll: plan,
            });
        }
        let filter = match q.filter.as_deref() {
            Some(f) => Some(Arc::new(self.compile_child(f)?)),
            None => None,
        };
        let proj = if exists {
            None
        } else {
            Some(Arc::new(self.compile_child(&q.proj)?))
        };
        self.vars.truncate(outer);
        self.subs.push(Arc::new(SubSelect {
            the: q.the,
            bindings,
            filter,
            proj,
        }));
        Some(self.subs.len() - 1)
    }

    /// The register `e` reads directly, if `e` is exactly a register read.
    fn reg_of(&self, e: &Expr) -> Option<usize> {
        match e {
            Expr::Name(n) => self
                .vars
                .iter()
                .rposition(|v| v == n)
                .map(|i| self.reg_base + i),
            Expr::SelfRef => self.self_reg,
            _ => None,
        }
    }

    /// Emits code for `e` at depth `rel` relative to the program root.
    /// Every covered node nets exactly one value on the stack.
    fn emit(&mut self, e: &Expr, rel: usize) -> Option<()> {
        self.insts.push(Inst::Step { rel });
        match e {
            Expr::Lit(v) => {
                let idx = self.consts.len();
                self.consts.push(v.clone());
                self.insts.push(Inst::Const(idx));
            }
            Expr::Name(n) => {
                // Only scan variables compile; free names (named objects,
                // class extents) can be rebound or repopulated mid-scan, so
                // freezing them at compile time would diverge from the
                // interpreter. Innermost binding wins, like `Env::lookup`.
                let reg = self.vars.iter().rposition(|v| v == n)?;
                self.insts.push(Inst::Reg(self.reg_base + reg));
            }
            Expr::SelfRef => {
                // `self` is a register only inside a body program.
                let r = self.self_reg?;
                self.insts.push(Inst::Reg(r));
            }
            Expr::Attr { recv, name, args } => {
                let recv_reg = self.reg_of(recv);
                self.emit(recv, rel + 1)?;
                for a in args {
                    self.emit(a, rel + 1)?;
                }
                let slot = self.slots.len();
                self.slots.push(*name);
                self.slot_recv.push(recv_reg);
                self.insts.push(Inst::Attr {
                    slot,
                    nargs: args.len(),
                    rel,
                });
            }
            Expr::TupleCons(fields) => {
                for (_, fe) in fields {
                    self.emit(fe, rel + 1)?;
                }
                let shape = self.shapes.len();
                self.shapes.push(fields.iter().map(|(n, _)| *n).collect());
                self.insts.push(Inst::MakeTuple { shape });
            }
            Expr::SetCons(items) => {
                for it in items {
                    self.emit(it, rel + 1)?;
                }
                self.insts.push(Inst::MakeSet { n: items.len() });
            }
            Expr::ListCons(items) => {
                for it in items {
                    self.emit(it, rel + 1)?;
                }
                self.insts.push(Inst::MakeList { n: items.len() });
            }
            Expr::Unary { op, expr } => {
                self.emit(expr, rel + 1)?;
                self.insts.push(Inst::Unary(*op));
            }
            Expr::Binary {
                op: op @ (BinOp::And | BinOp::Or),
                lhs,
                rhs,
            } => {
                self.emit(lhs, rel + 1)?;
                let patch = self.insts.len();
                self.insts.push(match op {
                    BinOp::And => Inst::AndShort { to: 0 },
                    _ => Inst::OrShort { to: 0 },
                });
                self.emit(rhs, rel + 1)?;
                self.insts.push(Inst::Booleanize);
                let end = self.insts.len();
                self.insts[patch] = match op {
                    BinOp::And => Inst::AndShort { to: end },
                    _ => Inst::OrShort { to: end },
                };
            }
            Expr::Binary { op, lhs, rhs } => {
                self.emit(lhs, rel + 1)?;
                self.emit(rhs, rel + 1)?;
                self.insts.push(Inst::Binary(*op));
            }
            Expr::If { cond, then, els } => {
                self.emit(cond, rel + 1)?;
                let branch = self.insts.len();
                self.insts.push(Inst::BranchFalsy { to: 0 });
                self.emit(then, rel + 1)?;
                let jump = self.insts.len();
                self.insts.push(Inst::Jump { to: 0 });
                let else_start = self.insts.len();
                self.insts[branch] = Inst::BranchFalsy { to: else_start };
                self.emit(els, rel + 1)?;
                let end = self.insts.len();
                self.insts[jump] = Inst::Jump { to: end };
            }
            Expr::Select(q) => {
                let sub = self.compile_sub(q, false)?;
                self.insts.push(Inst::Select { sub, rel });
            }
            Expr::Exists(q) => {
                let sub = self.compile_sub(q, true)?;
                self.insts.push(Inst::Select { sub, rel });
            }
            Expr::Aggregate { func, arg } => {
                self.emit(arg, rel + 1)?;
                self.insts.push(Inst::Aggregate(*func));
            }
            Expr::Apply { name, args } => {
                for a in args {
                    self.emit(a, rel + 1)?;
                }
                self.insts.push(Inst::Apply {
                    name: *name,
                    nargs: args.len(),
                });
            }
            // Everything else — free names, `isa` — is interpreter
            // territory.
            _ => return None,
        }
        Some(())
    }
}

// --- execution ------------------------------------------------------------

/// Per-class verdict for one resolution slot, decided lazily on the first
/// object of each class the scan meets.
#[derive(Debug)]
enum SlotEntry {
    /// Resolution is class-pure here: reuse this result for every object
    /// of the class for the rest of the scan. For computed attributes
    /// whose body is in the covered subset, `body` carries the
    /// compiled-once body program.
    Pure {
        res: Arc<ResolvedAttr>,
        body: Option<Arc<Program>>,
    },
    /// The source couldn't vouch for purity: re-resolve every row (and
    /// run computed bodies through the interpreter — compiling per row
    /// would cost more than it saves).
    Impure,
}

/// A per-scan executor for one [`Program`]: the reusable value stack, the
/// register file, the captured [`Budget`], and the per-slot resolution
/// caches. Create one per scan (or per parallel chunk — caches are not
/// shared across threads), then `bind` + `run` per row.
pub struct Scan<'a> {
    prog: &'a Program,
    src: &'a dyn DataSource,
    /// Delegate for uncovered computed-attribute bodies (captures the same
    /// budget).
    ev: Evaluator<'a>,
    budget: Option<Arc<Budget>>,
    /// Register file: the outer program's registers first, then one frame
    /// per in-flight body invocation (`self`, params).
    regs: Vec<Value>,
    stack: Vec<Value>,
    /// Resolution caches, one per *global* slot: the outer program's slots
    /// first, then a contiguous range per registered body program. Body
    /// slots get their own entries (never shared with outer slots of the
    /// same name) because resolution inside a body-privilege bracket can
    /// legitimately differ from resolution outside it.
    caches: Vec<HashMap<ClassId, SlotEntry>>,
    /// Registered body programs, keyed by `Arc` address: the program and
    /// its global-slot base. The `Arc` is kept in the value so the address
    /// cannot be reused while registered.
    body_bases: HashMap<usize, (Arc<Program>, usize)>,
    /// In-flight `EnterBody` brackets, so an error unwinding past
    /// `ExitBody` instructions can be re-balanced exactly like
    /// `run_computed`'s exit-on-error.
    open_bodies: usize,
    /// The source's resolution generation when the caches were last
    /// (re)filled; a bump drops every cached verdict.
    gen: u64,
    /// Resolution-slot cache hits (see [`Scan::take_actuals`]).
    cache_hits: u64,
    /// Resolution-slot cache misses (see [`Scan::take_actuals`]).
    cache_misses: u64,
}

impl<'a> Scan<'a> {
    /// An executor for `prog` over `src`, governed by the thread's current
    /// budget (captured once, like `Evaluator::new`).
    pub fn new(prog: &'a Program, src: &'a dyn DataSource) -> Scan<'a> {
        Scan {
            prog,
            src,
            ev: Evaluator::new(src),
            budget: budget::current(),
            regs: vec![Value::Null; prog.n_regs],
            stack: Vec::with_capacity(8),
            caches: prog.slots.iter().map(|_| HashMap::new()).collect(),
            body_bases: HashMap::new(),
            open_bodies: 0,
            gen: src.resolution_generation(),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    /// Drains the executor's measured diagnostics — resolution-cache
    /// hits/misses — as a [`ScanActuals`](crate::plan::ScanActuals)
    /// fragment (the row counters stay zero: drivers count rows
    /// themselves). Resets the internal counters.
    pub fn take_actuals(&mut self) -> crate::plan::ScanActuals {
        let a = crate::plan::ScanActuals {
            cache_hits: self.cache_hits,
            cache_misses: self.cache_misses,
            ..Default::default()
        };
        self.cache_hits = 0;
        self.cache_misses = 0;
        a
    }

    /// The distinct attribute names read directly off register `reg` in
    /// the outer program, and off `self` in every body program registered
    /// so far: the columns statistics sampling reads for a scan variable.
    fn direct_attrs(&self, reg: usize) -> Vec<Symbol> {
        let mut names: Vec<Symbol> = Vec::new();
        let progs = std::iter::once((self.prog, reg))
            .chain(self.body_bases.values().map(|(p, _)| (&**p, 0)));
        for (prog, recv) in progs {
            for (name, r) in prog.slots.iter().zip(&prog.slot_recv) {
                if *r == Some(recv) && !names.contains(name) {
                    names.push(*name);
                }
            }
        }
        names
    }

    /// Writes the scan variable in register `reg` for the next `run`.
    pub fn bind(&mut self, reg: usize, v: Value) {
        self.regs[reg] = v;
    }

    /// Writes a register, growing the file as needed — sub-select
    /// variables live past the program's own `n_regs` (and past any body
    /// frame in flight) and are dropped by the truncation in
    /// [`Scan::run`] / [`Scan::run_body`].
    fn set_reg(&mut self, reg: usize, v: Value) {
        if reg >= self.regs.len() {
            self.regs.resize(reg + 1, Value::Null);
        }
        self.regs[reg] = v;
    }

    /// One interpreter-equivalent expression-node entry *outside* the
    /// program: the depth-limit check plus one budget step at `depth`.
    /// Scan drivers use this to account for the surrounding nodes they
    /// execute themselves (the `select` node, the collection name) exactly
    /// as the tree walker would.
    pub fn step(&self, depth: usize) -> Result<()> {
        if depth > eval::MAX_DEPTH {
            return Err(eval::depth_error());
        }
        if let Some(b) = &self.budget {
            b.step(depth)?;
        }
        Ok(())
    }

    /// Executes the program with the expression root at depth `base`
    /// (matching the depth the interpreter would evaluate the same
    /// expression at in this position).
    pub fn run(&mut self, base: usize) -> Result<Value> {
        let prog = self.prog;
        self.stack.clear();
        self.regs.truncate(prog.n_regs);
        self.exec(prog, base, 0, 0)
    }

    /// The bytecode loop. `frame` is the base of this invocation's
    /// registers, `slot_base` the base of its resolution slots; the outer
    /// program runs at (0, 0), body programs at their pushed frame and
    /// registered slot range.
    fn exec(
        &mut self,
        prog: &Program,
        base: usize,
        frame: usize,
        slot_base: usize,
    ) -> Result<Value> {
        let mut pc = 0;
        while pc < prog.insts.len() {
            match prog.insts[pc] {
                Inst::Step { rel } => self.step(base + rel)?,
                Inst::Const(i) => self.stack.push(prog.consts[i].clone()),
                Inst::Reg(i) => self.stack.push(self.regs[frame + i].clone()),
                Inst::Attr { slot, nargs, rel } => {
                    let args = self.stack.split_off(self.stack.len() - nargs);
                    let recv = self.stack.pop().expect("receiver on stack");
                    let name = prog.slots[slot];
                    let v = self.attr(recv, slot_base + slot, name, args, base + rel)?;
                    self.stack.push(v);
                }
                Inst::Unary(op) => {
                    let v = self.stack.pop().expect("operand on stack");
                    self.stack.push(eval::apply_unary(op, v)?);
                }
                Inst::Binary(op) => {
                    let r = self.stack.pop().expect("rhs on stack");
                    let l = self.stack.pop().expect("lhs on stack");
                    self.stack.push(eval::apply_binary(op, &l, &r)?);
                }
                Inst::AndShort { to } => {
                    let l = self.stack.pop().expect("lhs on stack");
                    if !truthy(&l) {
                        self.stack.push(Value::Bool(false));
                        pc = to;
                        continue;
                    }
                }
                Inst::OrShort { to } => {
                    let l = self.stack.pop().expect("lhs on stack");
                    if truthy(&l) {
                        self.stack.push(Value::Bool(true));
                        pc = to;
                        continue;
                    }
                }
                Inst::Booleanize => {
                    let v = self.stack.pop().expect("operand on stack");
                    self.stack.push(Value::Bool(truthy(&v)));
                }
                Inst::BranchFalsy { to } => {
                    let c = self.stack.pop().expect("condition on stack");
                    if !truthy(&c) {
                        pc = to;
                        continue;
                    }
                }
                Inst::Jump { to } => {
                    pc = to;
                    continue;
                }
                Inst::MakeTuple { shape } => {
                    let fields = &prog.shapes[shape];
                    let vals = self.stack.split_off(self.stack.len() - fields.len());
                    let mut t = ov_oodb::Tuple::new();
                    for (n, v) in fields.iter().zip(vals) {
                        t.set(*n, v);
                    }
                    self.stack.push(Value::Tuple(t));
                }
                Inst::MakeSet { n } => {
                    let vals = self.stack.split_off(self.stack.len() - n);
                    self.stack.push(Value::Set(vals.into_iter().collect()));
                }
                Inst::MakeList { n } => {
                    let vals = self.stack.split_off(self.stack.len() - n);
                    self.stack.push(Value::List(vals));
                }
                Inst::Aggregate(func) => {
                    let v = self.stack.pop().expect("operand on stack");
                    self.stack.push(eval::aggregate(func, &v)?);
                }
                Inst::Apply { name, nargs } => {
                    let args = self.stack.split_off(self.stack.len() - nargs);
                    self.stack.push(self.src.apply(name, &args)?);
                }
                Inst::Select { sub, rel } => {
                    let s = prog.subs[sub].clone();
                    let v = self.run_sub(&s, base + rel, frame)?;
                    self.stack.push(v);
                }
                Inst::EnterBody => {
                    self.src.enter_body();
                    self.open_bodies += 1;
                }
                Inst::ExitBody => {
                    self.src.exit_body();
                    self.open_bodies -= 1;
                }
            }
            pc += 1;
        }
        Ok(self.stack.pop().expect("program nets exactly one value"))
    }

    /// Runs a compiled sub-select with its `select`/`exists` node at
    /// `depth`, mirroring the interpreter's `select_depth`/`iterate`/
    /// `iterate_bindings` chain instruction for instruction: the same
    /// evaluation order, the same depth and budget charges, the same
    /// actuals frame (reported on success *and* error, like `iterate`),
    /// and the same error surfaces — filter and collection errors
    /// propagate immediately, projection errors and `note_rows` breaches
    /// stop the iteration and surface after the actuals are folded in.
    fn run_sub(&mut self, sub: &SubSelect, depth: usize, frame: usize) -> Result<Value> {
        let mut actuals = crate::plan::ScanActuals::default();
        let mut out = BTreeSet::new();
        let mut err: Option<QueryError> = None;
        let mut found = false;
        let r = self.sub_bindings(
            sub,
            0,
            depth,
            frame,
            &mut actuals,
            &mut out,
            &mut err,
            &mut found,
        );
        crate::plan::add_actuals(&actuals);
        r?;
        if let Some(e) = err {
            return Err(e);
        }
        if sub.proj.is_none() {
            // `exists`: the interpreter never looks at `the` or the
            // projection — a first match is the whole answer.
            return Ok(Value::Bool(found));
        }
        if sub.the {
            if out.len() == 1 {
                Ok(out.into_iter().next().expect("len checked"))
            } else {
                Err(QueryError::TheCardinality { got: out.len() })
            }
        } else {
            Ok(Value::Set(out))
        }
    }

    /// The binding loops of a compiled sub-select, recursion mirroring
    /// `iterate_bindings`: collections re-evaluate per enclosing
    /// iteration at `depth + 1`, the leaf charges the filter and
    /// projection at `depth + 1`, and `Ok(false)` short-circuits the
    /// whole nest (first `exists` match, captured projection error,
    /// row-budget breach).
    #[allow(clippy::too_many_arguments)]
    fn sub_bindings(
        &mut self,
        sub: &SubSelect,
        i: usize,
        depth: usize,
        frame: usize,
        actuals: &mut crate::plan::ScanActuals,
        out: &mut BTreeSet<Value>,
        err: &mut Option<QueryError>,
        found: &mut bool,
    ) -> Result<bool> {
        if i == sub.bindings.len() {
            actuals.rows_scanned += 1;
            if let Some(f) = &sub.filter {
                let keep = self.run_child(f, depth + 1, frame)?;
                if !truthy(&keep) {
                    return Ok(true);
                }
            }
            actuals.rows_matched += 1;
            return match &sub.proj {
                None => {
                    *found = true;
                    Ok(false)
                }
                Some(p) => match self.run_child(p, depth + 1, frame) {
                    Ok(v) => {
                        if out.insert(v) {
                            if let Some(b) = &self.budget {
                                if let Err(e) = b.note_rows(1) {
                                    *err = Some(e);
                                    return Ok(false);
                                }
                            }
                        }
                        Ok(true)
                    }
                    Err(e) => {
                        *err = Some(e);
                        Ok(false)
                    }
                },
            };
        }
        let b = &sub.bindings[i];
        let (var, reg) = (b.var, b.reg);
        let coll = match &b.coll {
            CollPlan::Prog(p) => self.run_child(p, depth + 1, frame)?,
            CollPlan::Free(n) => self.free_name(*n, depth + 1)?,
        };
        let items: Vec<Value> = match coll {
            Value::Set(s) => s.into_iter().collect(),
            Value::List(l) => l,
            Value::Null => Vec::new(),
            other => {
                return Err(QueryError::eval(format!(
                    "`from {var} in …` needs a set or list, found {}",
                    other.kind()
                )))
            }
        };
        for item in items {
            self.set_reg(frame + reg, item);
            let cont = self.sub_bindings(sub, i + 1, depth, frame, actuals, out, err, found)?;
            if !cont {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Executes a child program (a sub-select piece) with its root at
    /// depth `base`, sharing this scan's register file at `frame` and
    /// registering the program's resolution slots on first use.
    fn run_child(&mut self, prog: &Arc<Program>, base: usize, frame: usize) -> Result<Value> {
        let slot_base = self.slot_base_for(prog);
        let p = prog.clone();
        self.exec(&p, base, frame, slot_base)
    }

    /// Resolves a free name at `depth`, exactly like the evaluator: the
    /// node prologue (depth check + budget step), then named object →
    /// class extent → unknown-name error. Resolution is per call, so a
    /// rebind or repopulation mid-scan is observed like the interpreter
    /// would observe it.
    fn free_name(&mut self, name: Symbol, depth: usize) -> Result<Value> {
        self.step(depth)?;
        if let Some(oid) = self.src.named_object(name) {
            return Ok(Value::Oid(oid));
        }
        if let Some(class) = self.src.class_by_name(name) {
            return crate::source::extent_value(self.src, class);
        }
        Err(QueryError::eval(format!(
            "unknown name `{name}` (not a variable, named object, or class)"
        )))
    }

    /// Attribute access, mirroring `Evaluator::access`/`attr_of` byte for
    /// byte — with the resolve call routed through the slot cache.
    fn attr(
        &mut self,
        recv: Value,
        gslot: usize,
        name: Symbol,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Value> {
        match recv {
            Value::Null => Ok(Value::Null),
            Value::Oid(oid) => {
                // attr_of charges a second step at the access node's depth.
                if depth > eval::MAX_DEPTH {
                    return Err(eval::depth_error());
                }
                if let Some(b) = &self.budget {
                    b.step(depth)?;
                }
                // One fused object lookup yields the cache key *and* the raw
                // stored field; the field half is used only when resolution
                // says the attribute is stored (it never depends on
                // membership, so the early read is safe).
                let (resolved, body, raw) = match self.src.resolution_class_and_field(oid, name) {
                    Some((class, raw)) => {
                        let (res, body) = self.resolve_cached(oid, class, gslot, name)?;
                        (res, body, Some(raw))
                    }
                    // No cache key (unknown object, unimportable class):
                    // uncached resolve reproduces the interpreter's error.
                    None => (Arc::new(self.src.resolve(oid, name)?), None, None),
                };
                match &*resolved {
                    ResolvedAttr::Stored => {
                        if !args.is_empty() {
                            return Err(QueryError::eval(format!(
                                "stored attribute `{name}` takes no arguments"
                            )));
                        }
                        match raw {
                            Some(v) => Ok(v),
                            None => self.src.stored_field(oid, name),
                        }
                    }
                    ResolvedAttr::Computed {
                        params,
                        body: body_expr,
                    } => match body {
                        Some(prog) => self.run_body(&prog, oid, name, params.len(), args, depth),
                        None => self
                            .ev
                            .run_computed(oid, name, params, body_expr, args, depth),
                    },
                }
            }
            Value::Tuple(t) => {
                if !args.is_empty() {
                    return Err(QueryError::eval(format!(
                        "tuple field `{name}` takes no arguments"
                    )));
                }
                t.get(name)
                    .cloned()
                    .ok_or_else(|| QueryError::eval(format!("tuple {t} has no field `{name}`")))
            }
            other => Err(QueryError::eval(format!(
                "cannot access attribute `{name}` of a {}",
                other.kind()
            ))),
        }
    }

    /// Invokes a compiled body program: arity check, a fresh register
    /// frame (`self`, then the arguments by move), and the body's own
    /// slot range. Bit-identical to `Evaluator::run_computed` — same
    /// arity error, same `enter_body`/step ordering (the program's
    /// `EnterBody` + root `Step`), and the body bracket is closed even
    /// when the body errors.
    fn run_body(
        &mut self,
        prog: &Arc<Program>,
        oid: Oid,
        name: Symbol,
        nparams: usize,
        args: Vec<Value>,
        depth: usize,
    ) -> Result<Value> {
        if nparams != args.len() {
            return Err(QueryError::eval(format!(
                "attribute `{name}` expects {nparams} argument(s), got {}",
                args.len()
            )));
        }
        let slot_base = self.slot_base_for(prog);
        let frame = self.regs.len();
        self.regs.push(Value::Oid(oid));
        self.regs.extend(args);
        let open = self.open_bodies;
        let result = self.exec(prog, depth + 1, frame, slot_base);
        // On error the body's `ExitBody` never ran; close the bracket(s)
        // like `run_computed`'s unconditional exit.
        while self.open_bodies > open {
            self.src.exit_body();
            self.open_bodies -= 1;
        }
        self.regs.truncate(frame);
        result
    }

    /// The global-slot base for a body program, registering it (and
    /// allocating its slot caches) on first use.
    fn slot_base_for(&mut self, prog: &Arc<Program>) -> usize {
        let key = Arc::as_ptr(prog) as usize;
        if let Some((_, base)) = self.body_bases.get(&key) {
            return *base;
        }
        let base = self.caches.len();
        self.caches
            .extend(prog.slots.iter().map(|_| HashMap::new()));
        self.body_bases.insert(key, (prog.clone(), base));
        base
    }

    /// `DataSource::resolve` through the slot's inline cache, keyed by the
    /// already-fetched resolution `class`. The purity verdict is asked once
    /// per (slot, class) per scan — dropped and re-asked whenever the
    /// source bumps its resolution generation — and errors are never
    /// cached (the first error aborts the scan anyway). A class-pure
    /// computed attribute gets its body compiled here, once.
    ///
    /// Slot-cache soundness across body depths: a given slot only ever
    /// executes at one body-privilege polarity — outer-program slots
    /// outside any `EnterBody` bracket this scan opened, body-program
    /// slots always inside one (nesting depth may vary, but visibility is
    /// a binary in-body/not-in-body distinction) — so one verdict per
    /// (slot, class) cannot be observed from the other polarity.
    fn resolve_cached(
        &mut self,
        oid: Oid,
        class: ClassId,
        gslot: usize,
        name: Symbol,
    ) -> Result<(Arc<ResolvedAttr>, Option<Arc<Program>>)> {
        let gen_now = self.src.resolution_generation();
        if gen_now != self.gen {
            // Scan-visible resolution state changed (population bracket,
            // template instantiation): every cached verdict is suspect.
            // Maps are cleared in place — body programs keep their slot
            // ranges so in-flight frames stay valid.
            for m in &mut self.caches {
                m.clear();
            }
            self.gen = gen_now;
        }
        match self.caches[gslot].get(&class) {
            Some(SlotEntry::Pure { res, body }) => {
                self.cache_hits += 1;
                Ok((res.clone(), body.clone()))
            }
            Some(SlotEntry::Impure) => {
                // The cached verdict is "re-resolve every row": a miss.
                self.cache_misses += 1;
                Ok((self.src.resolve(oid, name).map(Arc::new)?, None))
            }
            None => {
                self.cache_misses += 1;
                let r = Arc::new(self.src.resolve(oid, name)?);
                if self.src.resolution_is_class_pure(class, name) {
                    let body = match &*r {
                        ResolvedAttr::Computed { params, body } => {
                            compile_body(params, body).map(Arc::new)
                        }
                        ResolvedAttr::Stored => None,
                    };
                    self.caches[gslot].insert(
                        class,
                        SlotEntry::Pure {
                            res: r.clone(),
                            body: body.clone(),
                        },
                    );
                    Ok((r, body))
                } else {
                    self.caches[gslot].insert(class, SlotEntry::Impure);
                    Ok((r, None))
                }
            }
        }
    }
}

// --- whole-query driver ---------------------------------------------------

/// The compiled pieces of a canonical single-binding class scan
/// (`select [the] proj from V in Class [where filter]`).
pub struct SelectScan {
    class: ClassId,
    filter: Option<Program>,
    proj: Program,
}

/// Compiles the scan pieces of `q` when it has the canonical shape: one
/// binding, collection is a plain class name (not shadowed by a named
/// object), and the filter and projection both compile.
pub fn compile_select_scan(src: &dyn DataSource, q: &SelectExpr) -> Option<SelectScan> {
    if q.bindings.len() != 1 {
        return None;
    }
    let (var, coll) = &q.bindings[0];
    let Expr::Name(coll_name) = coll else {
        return None;
    };
    // resolve_name order is variable → named object → class extent; a
    // named object shadowing the class would change the collection.
    if src.named_object(*coll_name).is_some() {
        return None;
    }
    let class = src.class_by_name(*coll_name)?;
    let vars = [*var];
    let filter = match q.filter.as_deref() {
        Some(f) => Some(compile_predicate(f, &vars)?),
        None => None,
    };
    let proj = compile_predicate(&q.proj, &vars)?;
    Some(SelectScan {
        class,
        filter,
        proj,
    })
}

/// Attempts compiled execution of a whole top-level expression. `None`
/// means the engine is off or the shape is not covered — the caller falls
/// back to the interpreter. `Some(result)` is bit-identical to what
/// `eval_expr` would have produced (values, errors, budget accounting),
/// with one documented exception: when the cost-based planner is enabled
/// and may reorder a multi-binding select (no budget installed,
/// independent class-extent bindings), the *values* are identical but a
/// filter that errors on some rows may surface a different row's error
/// (standard predicate-reorder semantics; see `planner`).
pub(crate) fn try_run_compiled(src: &dyn DataSource, expr: &Expr) -> Option<Result<Value>> {
    if !compiled_enabled() {
        return None;
    }
    let forced = engine_mode() == EngineMode::Compiled;
    crate::planner::clear_last_decision();
    let Expr::Select(q) = expr else {
        // Non-select top levels (including a bare `exists(...)`) compile
        // when covered and run as a single program evaluation.
        match compile_predicate(expr, &[]) {
            Some(prog) => return Some(run_compiled_expr(src, &prog)),
            None => {
                if forced {
                    note_fallback();
                }
                return None;
            }
        }
    };
    // Canonical single-binding class scan: the fast path, with
    // the planner choosing between sequential scan and index pushdown.
    if let Some(scan) = compile_select_scan(src, q) {
        if crate::planner::planner_enabled() {
            return Some(run_planned_select(src, expr, q, &scan));
        }
        return Some(run_select_scan(src, q, &scan, None));
    }
    // Multi-binding over independent class extents: the planner may pick
    // a cheapest-first binding order. Only when no budget is installed —
    // reordering preserves values but not the exact charge sequence.
    if crate::planner::planner_enabled() && budget::current().is_none() {
        if let Some(r) = try_run_planned_join(src, expr, q) {
            return Some(r);
        }
    }
    // General shapes — multi-binding, nested selects — compile into
    // sub-select subroutines with the interpreter's exact semantics.
    match compile_predicate(expr, &[]) {
        Some(prog) => Some(run_compiled_expr(src, &prog)),
        None => {
            if forced {
                note_fallback();
            }
            None
        }
    }
}

/// Runs a fully compiled general expression (multi-binding or nested
/// selects, a bare `exists`): the program roots at depth 0, sub-selects
/// do their own row accounting and actuals reporting, and the scan's
/// cache counters fold into the actuals frame.
fn run_compiled_expr(src: &dyn DataSource, prog: &Program) -> Result<Value> {
    let _span = ov_oodb::span!("query.compiled_scan");
    let mut scan = Scan::new(prog, src);
    let r = scan.run(0);
    crate::plan::add_actuals(&scan.take_actuals());
    r
}

/// Runs a planned single-binding scan: consult the plan cache / cost
/// model, execute the chosen strategy (validating it — a pushdown whose
/// index is missing demotes to sequential), then feed the actual row
/// count back for drift detection and publish the decision for EXPLAIN.
fn run_planned_select(
    src: &dyn DataSource,
    expr: &Expr,
    q: &SelectExpr,
    scan: &SelectScan,
) -> Result<Value> {
    let decision = crate::planner::plan_select(src, expr, q);
    let r = match &decision.strategy {
        crate::planner::Strategy::IndexPushdown { attr, value } => {
            match src.indexed_lookup(scan.class, *attr, value) {
                Some(candidates) => run_select_scan(src, q, scan, Some(candidates)),
                None => {
                    // The plan assumed an index that isn't there (cold
                    // statistics, dropped index): demote the cached plan
                    // so later executions skip the doomed probe.
                    crate::planner::demote_to_seq(expr);
                    run_select_scan(src, q, scan, None)
                }
            }
        }
        _ => run_select_scan(src, q, scan, None),
    };
    let rows = match &r {
        Ok(Value::Set(s)) => Some(s.len() as u64),
        Ok(_) => Some(1),
        Err(_) => None,
    };
    crate::planner::record_outcome(expr, decision, rows);
    r
}

/// Attempts the planner's reordered nested-loop join for a multi-binding
/// select. Applicability is strict — every collection a free class name
/// (independent extents, so order cannot change the result set),
/// distinct variables, every filter leg analyzable and free of nested
/// selects / free names / `self`, everything compiles — and `None`
/// falls through to the exact-order compiled path. Filter legs are
/// pushed down to the outermost binding level that has all their
/// variables in scope, so a selective leg prunes whole subtrees of the
/// loop nest.
fn try_run_planned_join(
    src: &dyn DataSource,
    expr: &Expr,
    q: &SelectExpr,
) -> Option<Result<Value>> {
    use crate::planner::{mentioned_vars, plan_join, record_outcome, Strategy};
    if q.bindings.len() < 2 {
        return None;
    }
    let vars: Vec<Symbol> = q.bindings.iter().map(|(v, _)| *v).collect();
    for (i, v) in vars.iter().enumerate() {
        if vars[..i].contains(v) {
            return None; // shadowed variables need exact-order scoping
        }
    }
    let mut classes = Vec::with_capacity(vars.len());
    for (_, coll) in &q.bindings {
        let Expr::Name(n) = coll else { return None };
        if vars.contains(n) || src.named_object(*n).is_some() {
            return None;
        }
        classes.push((*n, src.class_by_name(*n)?));
    }
    // Every leg must be reorder-safe, and we need its variable set to
    // assign it a level.
    let legs: Vec<&Expr> = q
        .filter
        .as_deref()
        .map(crate::planner::conjuncts)
        .unwrap_or_default();
    let mut leg_vars = Vec::with_capacity(legs.len());
    for leg in &legs {
        leg_vars.push(mentioned_vars(leg, &vars)?);
    }
    // Extents are fetched once (the exact path re-evaluates per
    // iteration; with independent class extents and a shared snapshot
    // the sets are identical).
    let mut extents = Vec::with_capacity(classes.len());
    let mut cards = Vec::with_capacity(classes.len());
    for (_, class) in &classes {
        let ext = src.extent(*class).ok()?;
        cards.push(ext.len() as u64);
        extents.push(ext);
    }
    let class_names: Vec<Symbol> = classes.iter().map(|(n, _)| *n).collect();
    let decision = plan_join(src, expr, q, &class_names, &cards);
    let Strategy::Join { order } = &decision.strategy else {
        return None;
    };
    // A cached plan could in principle disagree with this query's shape
    // (fingerprint collision): validate it is a permutation of our
    // binding indices before trusting it.
    let mut seen = vec![false; vars.len()];
    let valid = order.len() == vars.len()
        && order
            .iter()
            .all(|&i| i < vars.len() && !std::mem::replace(&mut seen[i], true));
    if !valid {
        return None;
    }
    // Reordered scopes: position p in the nest binds original binding
    // order[p] into register p.
    let order_vars: Vec<Symbol> = order.iter().map(|&i| vars[i]).collect();
    let pos_of = |orig: usize| order.iter().position(|&i| i == orig).expect("permutation");
    // Assign each leg to the innermost nest position that completes its
    // variable set (legs with no variables run at position 0).
    let mut level_filters: Vec<Option<Expr>> = vec![None; vars.len()];
    for (leg, lv) in legs.iter().zip(&leg_vars) {
        let level = lv.iter().map(|&orig| pos_of(orig)).max().unwrap_or(0);
        level_filters[level] = Some(match level_filters[level].take() {
            None => (*leg).clone(),
            Some(acc) => Expr::bin(BinOp::And, acc, (*leg).clone()),
        });
    }
    let mut filter_progs: Vec<Option<Program>> = Vec::with_capacity(vars.len());
    for (p, f) in level_filters.iter().enumerate() {
        match f {
            None => filter_progs.push(None),
            Some(f) => filter_progs.push(Some(compile_predicate(f, &order_vars[..=p])?)),
        }
    }
    let proj_prog = compile_predicate(&q.proj, &order_vars)?;
    // Execute the nest.
    let _span = ov_oodb::span!("query.compiled_scan");
    let mut filter_scans: Vec<Option<Scan>> = filter_progs
        .iter()
        .map(|p| p.as_ref().map(|p| Scan::new(p, src)))
        .collect();
    let mut proj_scan = Scan::new(&proj_prog, src);
    let ordered_extents: Vec<&[Oid]> = order.iter().map(|&i| extents[i].as_slice()).collect();
    let mut actuals = crate::plan::ScanActuals::default();
    let mut out = BTreeSet::new();
    let mut row: Vec<Value> = Vec::with_capacity(vars.len());
    let result = join_nest(
        &ordered_extents,
        &mut filter_scans,
        &mut row,
        &mut proj_scan,
        &mut out,
        &mut actuals,
    );
    for f in filter_scans.iter_mut().flatten() {
        actuals.absorb(&f.take_actuals());
    }
    actuals.absorb(&proj_scan.take_actuals());
    crate::plan::add_actuals(&actuals);
    let rows = out.len() as u64;
    let r = (|| -> Result<Value> {
        result?;
        if q.the {
            if out.len() == 1 {
                Ok(out.into_iter().next().expect("len checked"))
            } else {
                Err(QueryError::TheCardinality { got: out.len() })
            }
        } else {
            Ok(Value::Set(out))
        }
    })();
    record_outcome(expr, decision, r.as_ref().ok().map(|_| rows));
    Some(r)
}

/// One level of the reordered join nest: iterate this level's extent,
/// apply the level's pushed-down filter with registers `0..=level`
/// bound, and recurse. Leaves project with every register bound.
fn join_nest(
    extents: &[&[Oid]],
    filters: &mut [Option<Scan>],
    row: &mut Vec<Value>,
    proj: &mut Scan,
    out: &mut BTreeSet<Value>,
    actuals: &mut crate::plan::ScanActuals,
) -> Result<()> {
    let Some((ext, rest_ext)) = extents.split_first() else {
        actuals.rows_matched += 1;
        for (r, v) in row.iter().enumerate() {
            proj.bind(r, v.clone());
        }
        let v = proj.run(1)?;
        out.insert(v);
        return Ok(());
    };
    let (filter, rest_f) = filters
        .split_first_mut()
        .expect("one filter slot per level");
    for &oid in *ext {
        row.push(Value::Oid(oid));
        let keep = match filter {
            None => true,
            Some(scan) => {
                actuals.rows_scanned += 1;
                for (r, v) in row.iter().enumerate() {
                    scan.bind(r, v.clone());
                }
                truthy(&scan.run(1)?)
            }
        };
        if keep {
            join_nest(rest_ext, rest_f, row, proj, out, actuals)?;
        }
        row.pop();
    }
    Ok(())
}

/// Rows of a profiled sequential scan whose attribute values feed the
/// statistics plane: enough for a useful sample, cheap enough never to
/// dominate a scan.
pub const STATS_SAMPLE_ROWS: usize = 4096;

/// Runs a compiled canonical scan, charging the budget exactly as the
/// interpreter's `eval_expr` → `select_depth` → `iterate_bindings` chain
/// would: one step for the `select` node (depth 0), one for the collection
/// name (depth 1), the filter and projection at depth 1 per row, and one
/// `note_rows` per newly inserted result. Rows execute — and charge —
/// strictly in order, so a budget breach or error stops at the exact row
/// the interpreter would.
///
/// `candidates` are index-pushdown candidates, re-tested in oid order
/// against the full filter (the index served one equality conjunct
/// exactly, so the result equals the sequential scan's); only the planner,
/// which owns the cost decision, passes them. `None` walks the class
/// extent and, when profiling, feeds the statistics plane: the extent's
/// cardinality, and the attributes the scan reads off its variable over
/// the first [`STATS_SAMPLE_ROWS`] scanned rows.
fn run_select_scan(
    src: &dyn DataSource,
    q: &SelectExpr,
    scan: &SelectScan,
    candidates: Option<Vec<Oid>>,
) -> Result<Value> {
    let _span = ov_oodb::span!("query.compiled_scan");
    let budget = budget::current();
    let mut filter = scan.filter.as_ref().map(|p| Scan::new(p, src));
    let mut proj = Scan::new(&scan.proj, src);
    // The scanned collection's class name (compile_select_scan required
    // the plain-name shape), for statistics attribution.
    let stats_class = match q.bindings.first() {
        Some((_, Expr::Name(n)))
            if candidates.is_none() && ov_oodb::metrics::profiling_enabled() =>
        {
            Some(*n)
        }
        _ => None,
    };
    let mut actuals = crate::plan::ScanActuals::default();
    let mut rows: Vec<Oid> = Vec::new();
    let mut generation = 0;
    // The loop runs in a closure so measured actuals are reported even
    // when a row errors or breaches the budget mid-scan.
    let result = (|| -> Result<BTreeSet<Value>> {
        proj.step(0)?; // the `select` node itself
        proj.step(1)?; // the collection name
        rows = match candidates {
            Some(c) => c,
            None => src.extent(scan.class)?,
        };
        generation = src.resolution_generation();
        if let Some(class) = stats_class {
            ov_oodb::stats::stats()
                .class(class)
                .note_cardinality(generation, rows.len() as u64);
        }
        let mut out = BTreeSet::new();
        for &oid in &rows {
            actuals.rows_scanned += 1;
            if let Some(f) = &mut filter {
                f.bind(0, Value::Oid(oid));
                if !truthy(&f.run(1)?) {
                    continue;
                }
            }
            actuals.rows_matched += 1;
            proj.bind(0, Value::Oid(oid));
            let v = proj.run(1)?;
            if out.insert(v) {
                if let Some(b) = &budget {
                    b.note_rows(1)?;
                }
            }
        }
        Ok(out)
    })();
    let sampled = (actuals.rows_scanned as usize).min(STATS_SAMPLE_ROWS);
    if let Some(class) = stats_class.filter(|_| sampled > 0) {
        let mut names = proj.direct_attrs(0);
        for n in filter.iter().flat_map(|f| f.direct_attrs(0)) {
            if !names.contains(&n) {
                names.push(n);
            }
        }
        sample_stats(src, class, generation, &rows[..sampled], &names);
    }
    if let Some(f) = &mut filter {
        actuals.absorb(&f.take_actuals());
    }
    actuals.absorb(&proj.take_actuals());
    crate::plan::add_actuals(&actuals);
    let out = result?;
    if q.the {
        if out.len() == 1 {
            Ok(out.into_iter().next().expect("len checked"))
        } else {
            Err(QueryError::TheCardinality { got: out.len() })
        }
    } else {
        Ok(Value::Set(out))
    }
}

/// Folds the raw stored field `name` of each of `oids` — one fused
/// [`DataSource::resolution_class_and_field`] probe per (row, name) — into
/// the statistics sketches of `class`. Rows the source cannot probe are
/// skipped, not counted as nulls.
fn sample_stats(
    src: &dyn DataSource,
    class: Symbol,
    generation: u64,
    oids: &[Oid],
    names: &[Symbol],
) {
    let stats = ov_oodb::stats::stats().class(class);
    for &name in names {
        let column: Vec<Option<Value>> = oids
            .iter()
            .map(|&o| src.resolution_class_and_field(o, name).map(|(_, v)| v))
            .collect();
        stats.observe_column(generation, name, column.iter().map(Option::as_ref));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::Env;
    use crate::parser::parse_expr;
    use ov_oodb::{sym, AttrDef, Database, Type};

    fn staff() -> Database {
        let mut db = Database::new(sym("Staff"));
        let person = db
            .create_class(
                sym("Person"),
                &[],
                vec![
                    AttrDef::stored(sym("Name"), Type::Str),
                    AttrDef::stored(sym("Age"), Type::Int),
                ],
            )
            .unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::computed(
                    sym("Doubled"),
                    Type::Int,
                    parse_expr("self.Age + self.Age").unwrap(),
                ),
            )
            .unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::method(
                    sym("Plus"),
                    vec![(sym("x"), Type::Int)],
                    Type::Int,
                    parse_expr("self.Age + x").unwrap(),
                ),
            )
            .unwrap();
        for (name, age) in [("Maggy", 65), ("Denis", 70), ("Tony", 30)] {
            db.create_object(
                person,
                Value::tuple([("Name", Value::str(name)), ("Age", Value::Int(age))]),
            )
            .unwrap();
        }
        db
    }

    /// Runs `src` both ways against every Person and asserts agreement.
    fn assert_differential(db: &Database, src: &str) {
        let expr = parse_expr(src).unwrap();
        let p = sym("P");
        let prog =
            compile_predicate(&expr, &[p]).unwrap_or_else(|| panic!("`{src}` should compile"));
        let mut scan = Scan::new(&prog, db);
        let ev = Evaluator::new(db);
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        for oid in db.deep_extent(person) {
            let mut env = Env::new();
            env.bind(p, Value::Oid(oid));
            let interpreted = ev.eval(&expr, &mut env);
            scan.bind(0, Value::Oid(oid));
            let compiled = scan.run(0);
            assert_eq!(compiled, interpreted, "divergence on `{src}`");
        }
    }

    #[test]
    fn covered_expressions_agree_with_interpreter() {
        let db = staff();
        for src in [
            "P.Age >= 65",
            r#"P.Name = "Maggy""#,
            "P.Age + 1 * 2 - 3",
            "P.Age >= 30 and P.Age < 70",
            r#"P.Name = "Tony" or P.Age > 65"#,
            "not (P.Age = 30)",
            "if P.Age > 50 then P.Name else P.Age",
            "P.Doubled = 140",
            "P.Plus(5) > 40",
            "-P.Age < 0",
            "P.Age / 2 >= 15",
            "{P.Age, 1} = {1}",
            "[A: P.Name, B: P.Age].B",
            "[X: 1, Y: {P.Age}] = [X: 1]",
        ] {
            assert_differential(&db, src);
        }
    }

    #[test]
    fn errors_agree_with_interpreter() {
        let db = staff();
        for src in [
            "P.Age / 0",            // division by zero
            "P.Age % 0",            // modulo by zero
            r#"P.Name < 1"#,        // unordered kinds
            "-P.Name",              // cannot negate
            "P.Ghost = 1",          // unknown attribute
            r#"P.Name ++ 1 = "x""#, // concat kind error
            "P.Plus() = 1",         // arity error through a compiled body
            "P.Plus(1, 2) = 1",     // arity error the other way
            r#"P.Plus("x") = 1"#,   // body errors on a bad argument
            "P.Age(1) = 1",         // stored attribute with arguments
        ] {
            assert_differential(&db, src);
        }
    }

    #[test]
    fn uncovered_shapes_do_not_compile() {
        for src in [
            "P isa Person", // `isa` probes membership per row
            "P in Person",  // free name `Person`
            "self.Age",     // `self` is not a scan variable
            "maggy.Age",    // free name
        ] {
            let expr = parse_expr(src).unwrap();
            assert!(
                compile_predicate(&expr, &[sym("P")]).is_none(),
                "`{src}` should not compile"
            );
        }
    }

    #[test]
    fn nested_selects_agree_with_interpreter() {
        let db = staff();
        for src in [
            "exists(select Q from Q in Person where Q.Age > P.Age)",
            "exists(select Q from Q in Person where Q.Age > 100)",
            "(select the Q.Age from Q in Person where Q.Name = P.Name) = P.Age",
            "(select Q.Name from Q in Person where Q.Age >= P.Age) = {P.Name}",
            // `the` over a non-singleton errors; error must match bit-for-bit.
            "(select the Q.Name from Q in Person) = P.Name",
            // Sub-select over a sub-select (free class name two levels down).
            "exists(select Q from Q in (select R from R in Person where R.Age > 60) \
             where Q.Age > P.Age)",
            // Correlated inner collection: the outer row's value drives it.
            "exists(select X from X in {P.Age, 1} where X > 50)",
        ] {
            assert_differential(&db, src);
        }
    }

    #[test]
    fn multi_binding_and_nested_selects_run_compiled_at_top_level() {
        let db = staff();
        for src in [
            "select P.Name from P in Person, Q in Person where P.Age < Q.Age",
            "select [A: P.Name, B: Q.Name] from P in Person, Q in Person \
             where P.Age + Q.Age = 135",
            "select P.Name from P in Person \
             where exists(select Q from Q in Person where Q.Age > P.Age)",
            "select P.Name from P in Person, Q in Person",
        ] {
            let expr = parse_expr(src).unwrap();
            let interp = crate::eval::eval_expr(&db, &expr);
            let on = crate::planner::with_planner(true, || try_run_compiled(&db, &expr))
                .unwrap_or_else(|| panic!("`{src}` should take a compiled path (planner on)"));
            let off = crate::planner::with_planner(false, || try_run_compiled(&db, &expr))
                .unwrap_or_else(|| panic!("`{src}` should take a compiled path (planner off)"));
            assert_eq!(on, interp, "planner-on divergence on `{src}`");
            assert_eq!(off, interp, "planner-off divergence on `{src}`");
        }
    }

    #[test]
    fn sub_select_budget_charges_match_the_interpreter() {
        let db = staff();
        for src in [
            "select P.Name from P in Person, Q in Person where P.Age < Q.Age",
            "select P.Name from P in Person \
             where exists(select Q from Q in Person where Q.Age > P.Age)",
        ] {
            let expr = parse_expr(src).unwrap();
            let interp_budget = std::sync::Arc::new(crate::Budget::new());
            let interp =
                crate::budget::with(interp_budget.clone(), || crate::eval::eval_expr(&db, &expr));
            let comp_budget = std::sync::Arc::new(crate::Budget::new());
            let compiled = crate::budget::with(comp_budget.clone(), || {
                try_run_compiled(&db, &expr)
                    .unwrap_or_else(|| panic!("`{src}` should take a compiled path"))
            });
            assert_eq!(compiled, interp, "value divergence on `{src}`");
            assert_eq!(
                comp_budget.steps_used(),
                interp_budget.steps_used(),
                "step-charge divergence on `{src}`"
            );
            assert_eq!(
                comp_budget.rows_used(),
                interp_budget.rows_used(),
                "row-charge divergence on `{src}`"
            );
        }
    }

    #[test]
    fn forced_mode_counts_interpreter_fallbacks() {
        let db = staff();
        let before = compile_fallbacks();
        let expr = parse_expr("select P from P in Person where P isa Person").unwrap();
        with_engine_mode(EngineMode::Compiled, || {
            assert!(try_run_compiled(&db, &expr).is_none());
        });
        assert!(
            compile_fallbacks() > before,
            "forced-compiled fallback should bump compile.fallbacks"
        );
    }

    #[test]
    fn short_circuit_skips_rhs_like_the_interpreter() {
        let db = staff();
        // The rhs errors (division by zero) but the lhs decides: `and`
        // with falsy lhs and `or` with truthy lhs must not touch it.
        assert_differential(&db, "P.Age < 0 and 1 / 0 = 1");
        assert_differential(&db, "P.Age > 0 or 1 / 0 = 1");
    }

    #[test]
    fn recursive_body_hits_the_same_depth_limit() {
        let mut db = staff();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.schema
            .add_attr(
                person,
                AttrDef::computed(sym("Loop"), Type::Int, parse_expr("self.Loop").unwrap()),
            )
            .unwrap();
        assert_differential(&db, "P.Loop = 1");
    }

    #[test]
    fn budget_steps_match_the_interpreter_exactly() {
        let db = staff();
        let expr = parse_expr("P.Age >= 30 and P.Doubled < 200").unwrap();
        let p = sym("P");
        let prog = compile_predicate(&expr, &[p]).unwrap();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let oids = db.deep_extent(person);

        let count_steps = |compiled: bool| -> u64 {
            let b = Arc::new(Budget::new());
            budget::with(b.clone(), || {
                if compiled {
                    let mut scan = Scan::new(&prog, &db);
                    for &oid in &oids {
                        scan.bind(0, Value::Oid(oid));
                        scan.run(0).unwrap();
                    }
                } else {
                    let ev = Evaluator::new(&db);
                    for &oid in &oids {
                        let mut env = Env::new();
                        env.bind(p, Value::Oid(oid));
                        ev.eval(&expr, &mut env).unwrap();
                    }
                }
            });
            b.steps_used()
        };
        assert_eq!(count_steps(true), count_steps(false));
    }

    #[test]
    fn budget_breach_trips_at_the_same_step() {
        let db = staff();
        let expr = parse_expr("P.Doubled > 100").unwrap();
        let p = sym("P");
        let prog = compile_predicate(&expr, &[p]).unwrap();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let oid = db.deep_extent(person)[0];

        for max in 0..12 {
            let run_with = |compiled: bool| {
                let b = Arc::new(Budget::new().with_max_steps(max));
                let r = budget::with(b.clone(), || {
                    if compiled {
                        let mut scan = Scan::new(&prog, &db);
                        scan.bind(0, Value::Oid(oid));
                        scan.run(0)
                    } else {
                        let ev = Evaluator::new(&db);
                        let mut env = Env::new();
                        env.bind(p, Value::Oid(oid));
                        ev.eval(&expr, &mut env)
                    }
                });
                (r, b.steps_used())
            };
            assert_eq!(run_with(true), run_with(false), "max_steps = {max}");
        }
    }

    #[test]
    fn resolution_cache_reuses_pure_resolutions() {
        let db = staff();
        let expr = parse_expr("P.Age >= 65").unwrap();
        let prog = compile_predicate(&expr, &[sym("P")]).unwrap();
        let mut scan = Scan::new(&prog, &db);
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        for oid in db.deep_extent(person) {
            scan.bind(0, Value::Oid(oid));
            scan.run(0).unwrap();
        }
        // One slot (P.Age), one class, decided Pure after the first row.
        assert_eq!(scan.caches.len(), 1);
        assert!(matches!(
            scan.caches[0].get(&person),
            Some(SlotEntry::Pure { .. })
        ));
    }

    #[test]
    fn computed_bodies_compile_into_the_scan() {
        let db = staff();
        let expr = parse_expr("P.Doubled").unwrap();
        let prog = compile_predicate(&expr, &[sym("P")]).unwrap();
        let mut scan = Scan::new(&prog, &db);
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        let ages = [65, 70, 30];
        for (i, oid) in db.deep_extent(person).into_iter().enumerate() {
            scan.bind(0, Value::Oid(oid));
            assert_eq!(scan.run(0).unwrap(), Value::Int(2 * ages[i]));
        }
        // The Doubled slot cached a Pure entry with a compiled body, and
        // the body program registered its own slot range (self.Age twice
        // → two body slots appended after the outer slot).
        assert!(matches!(
            scan.caches[0].get(&person),
            Some(SlotEntry::Pure { body: Some(_), .. })
        ));
        assert_eq!(scan.body_bases.len(), 1);
        assert_eq!(scan.caches.len(), 3);
    }

    #[test]
    fn compiled_scan_matches_interpreter_values_and_steps() {
        let db = staff();
        let expr = parse_expr("select P.Doubled from P in Person where P.Age >= 30").unwrap();
        let reference = crate::eval::eval_expr(&db, &expr);
        let b = Arc::new(Budget::new());
        let result = budget::with(b.clone(), || {
            try_run_compiled(&db, &expr).expect("should compile")
        });
        assert_eq!(result, reference);
        let steps = b.steps_used();
        let b = Arc::new(Budget::new());
        budget::with(b.clone(), || crate::eval::eval_expr(&db, &expr)).unwrap();
        assert_eq!(steps, b.steps_used());
    }

    #[test]
    fn top_level_select_agrees_with_interpreter() {
        let db = staff();
        for src in [
            "select P.Name from P in Person where P.Age >= 65",
            "select P from P in Person",
            "select the P from P in Person where P.Age = 30",
            "select the P from P in Person",     // cardinality error
            "select P.Age / 0 from P in Person", // projection error
            "select [N: P.Name, D: P.Doubled] from P in Person",
        ] {
            let expr = parse_expr(src).unwrap();
            let compiled =
                try_run_compiled(&db, &expr).unwrap_or_else(|| panic!("`{src}` should compile"));
            let interpreted = crate::eval::eval_expr(&db, &expr);
            assert_eq!(compiled, interpreted, "divergence on `{src}`");
        }
    }

    #[test]
    fn interp_mode_disables_compilation() {
        let db = staff();
        let expr = parse_expr("select P from P in Person").unwrap();
        with_engine_mode(EngineMode::Interp, || {
            assert!(try_run_compiled(&db, &expr).is_none());
        });
        assert!(try_run_compiled(&db, &expr).is_some());
    }

    #[test]
    fn engine_mode_override_scopes_to_the_thread() {
        assert_eq!(engine_mode(), EngineMode::Auto);
        with_engine_mode(EngineMode::Interp, || {
            assert_eq!(engine_mode(), EngineMode::Interp);
            // Nested overrides stack…
            with_engine_mode(EngineMode::Compiled, || {
                assert_eq!(engine_mode(), EngineMode::Compiled);
            });
            assert_eq!(engine_mode(), EngineMode::Interp);
            // …and other threads see the process default, not our override.
            std::thread::spawn(|| assert_eq!(engine_mode(), EngineMode::Auto))
                .join()
                .unwrap();
        });
        assert_eq!(engine_mode(), EngineMode::Auto);
    }

    #[test]
    fn engine_mode_round_trips_its_spelling() {
        for mode in [EngineMode::Auto, EngineMode::Compiled, EngineMode::Interp] {
            assert_eq!(EngineMode::parse(mode.as_str()), Some(mode));
        }
        assert_eq!(EngineMode::parse("jit"), None);
    }

    /// A source whose resolution can change mid-scan, announced via the
    /// generation counter — the shape of a view's population brackets.
    struct GenSource {
        db: Database,
        generation: std::sync::atomic::AtomicU64,
        /// When set, `Age` resolves to a computed constant instead of the
        /// stored field.
        redefined: std::sync::atomic::AtomicBool,
    }

    impl DataSource for GenSource {
        fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
            DataSource::class_by_name(&self.db, name)
        }
        fn class_name(&self, c: ClassId) -> Symbol {
            DataSource::class_name(&self.db, c)
        }
        fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
            DataSource::is_subclass(&self.db, sub, sup)
        }
        fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
            DataSource::ancestors(&self.db, c)
        }
        fn class_of(&self, oid: Oid) -> Result<ClassId> {
            DataSource::class_of(&self.db, oid)
        }
        fn extent(&self, class: ClassId) -> Result<Vec<Oid>> {
            DataSource::extent(&self.db, class)
        }
        fn is_member(&self, oid: Oid, class: ClassId) -> Result<bool> {
            DataSource::is_member(&self.db, oid, class)
        }
        fn resolve(&self, oid: Oid, name: Symbol) -> Result<ResolvedAttr> {
            if name == sym("Age") && self.redefined.load(Ordering::Relaxed) {
                return Ok(ResolvedAttr::Computed {
                    params: vec![],
                    body: parse_expr("999").unwrap(),
                });
            }
            DataSource::resolve(&self.db, oid, name)
        }
        fn stored_field(&self, oid: Oid, name: Symbol) -> Result<Value> {
            DataSource::stored_field(&self.db, oid, name)
        }
        fn named_object(&self, name: Symbol) -> Option<Oid> {
            DataSource::named_object(&self.db, name)
        }
        fn object_exists(&self, oid: Oid) -> bool {
            DataSource::object_exists(&self.db, oid)
        }
        fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<ov_oodb::AttrSig> {
            DataSource::attr_sig(&self.db, c, name)
        }
        fn class_type(&self, c: ClassId) -> Type {
            DataSource::class_type(&self.db, c)
        }
        fn resolution_class(&self, oid: Oid) -> Option<ClassId> {
            self.db.store.get(oid).map(|o| o.class)
        }
        fn resolution_is_class_pure(&self, _class: ClassId, _name: Symbol) -> bool {
            true
        }
        fn resolution_generation(&self) -> u64 {
            self.generation.load(Ordering::Relaxed)
        }
    }

    #[test]
    fn generation_bump_invalidates_warm_slot_caches() {
        let src = GenSource {
            db: staff(),
            generation: std::sync::atomic::AtomicU64::new(0),
            redefined: std::sync::atomic::AtomicBool::new(false),
        };
        let expr = parse_expr("P.Age").unwrap();
        let prog = compile_predicate(&expr, &[sym("P")]).unwrap();
        let mut scan = Scan::new(&prog, &src);
        let person = src.class_by_name(sym("Person")).unwrap();
        let oid = DataSource::extent(&src, person).unwrap()[0];
        scan.bind(0, Value::Oid(oid));
        assert_eq!(scan.run(0).unwrap(), Value::Int(65)); // warm the cache

        // Redefine without announcing: the warm Pure(Stored) verdict is
        // (by design) served for the rest of the scan.
        src.redefined.store(true, Ordering::Relaxed);
        assert_eq!(scan.run(0).unwrap(), Value::Int(65));

        // Announce via the generation counter: the cache drops, `Age`
        // re-resolves, and the redefinition takes effect mid-scan.
        src.generation.fetch_add(1, Ordering::Relaxed);
        assert_eq!(scan.run(0).unwrap(), Value::Int(999));
    }
}
