//! Bound views.
//!
//! A [`View`] is a [`crate::ViewDef`] bound against a
//! [`ov_oodb::System`]: imports are resolved (the view gets its own schema
//! — "a view has a schema, like all databases, but no proper data of its
//! own", §3), virtual classes are positioned by hierarchy inference, and the
//! whole thing implements [`ov_query::DataSource`] so the standard query
//! evaluator runs against it unchanged ("A view should be treated as a
//! database", §6).
//!
//! ## Laziness and caching
//!
//! Virtual-class populations are evaluated lazily, under one of three
//! [`Materialization`] policies. [`Materialization::Cached`] (the default)
//! keys the cached population on the versions of the source databases and
//! fully recomputes when any of them changes.
//! [`Materialization::Incremental`] patches the cached population instead:
//! it re-tests membership only for the oids in the stores' change
//! journals, falling back to a full recompute on a journal gap or a
//! non-delta-maintainable include. [`Materialization::AlwaysRecompute`]
//! skips caching entirely (the relational baseline the benchmarks compare
//! against). `View::explain_population` reports which path resolved a
//! given request. The **identity tables** of imaginary classes are *not*
//! keyed: they survive recomputation and updates, which is precisely the
//! paper's §5.1 identity semantics ("we are guaranteed that the same tuple
//! will be assigned the same oid each time the class C is invoked").
//!
//! ## Concurrency
//!
//! A bound view is `Send + Sync`: shared state lives behind `RwLock`s (the
//! population cache is sharded by class id to keep readers from serializing
//! on one lock), counters are atomics, and the two pieces of *call-stack*
//! state — the population cycle guard and the privileged-visibility depth —
//! are thread-local, keyed by a per-view token. Any number of threads may
//! query one view concurrently; population of large specialization queries
//! can itself be split across a scoped thread pool (see
//! [`ov_query::ParallelConfig`]).

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use ov_oodb::ids::IMAGINARY_OID_BASE;
use ov_oodb::{
    AttrBody, AttrDef, AttrSig, ClassGraph, ClassId, ConflictPolicy, DbHandle, DurableCore, Expr,
    Oid, OodbError, Schema, SelectExpr, Symbol, System, Tuple, Type, Value,
};
use ov_query::{
    eval_select, infer_select_in, plan, resolve_type, DataSource, IncludeSpec, ParallelConfig,
    QueryError, ResolvedAttr, TypeEnv,
};

use crate::def::{AttrDecl, Hide, Import, ViewDef, ViewElement};
use crate::error::{Result, ViewError};
use crate::graph::DepEdge;
use crate::infer::{conforms_to, infer_position, upward_attrs};

/// Number of shards in the population cache. Sharding by class id lets
/// concurrent readers populating different classes take different locks.
const POP_SHARDS: usize = 16;

/// Source of per-view tokens. A monotonically increasing counter (never an
/// address, which could be reused) keys the thread-local evaluation state.
static NEXT_VIEW_TOKEN: AtomicU64 = AtomicU64::new(1);

/// Call-stack state of one thread evaluating against one view.
#[derive(Default)]
struct EvalState {
    /// Classes whose population is being computed on this thread (cycle
    /// guard: `A includes select … from B`, `B includes select … from A`).
    populating: HashSet<ClassId>,
    /// Depth of computed-attribute bodies / population queries currently
    /// being evaluated. While positive, hidden attributes and classes
    /// resolve normally: the view's own definitions see through its hides
    /// (paper Example 5).
    body_depth: u32,
}

thread_local! {
    /// Per-thread evaluation state, keyed by view token. Entries are
    /// removed as soon as they return to the default state, so the map
    /// only holds views this thread is *currently* evaluating.
    static EVAL_STATE: RefCell<HashMap<u64, EvalState>> = RefCell::new(HashMap::new());
    /// Per-thread stats contributions, keyed by view token (see
    /// [`View::thread_stats`]).
    static THREAD_STATS: RefCell<HashMap<u64, ViewStats>> = RefCell::new(HashMap::new());
    /// Set by [`View::population`] when degradation *failed* — the retry
    /// budget is spent and no cached population existed to serve stale.
    /// The public entry points consume it to wrap the propagating error in
    /// [`ViewError::Degraded`]; `DataSource` trait methods can't carry the
    /// context themselves because they speak `QueryError`.
    static DEGRADED_NOTE: Cell<Option<(Symbol, u32)>> = const { Cell::new(None) };
}

/// Recompute attempts [`View::population`] makes on a transient fault
/// (initial try + retries) before degrading to the stale cache.
const MAX_POPULATION_ATTEMPTS: u32 = 3;

/// Consecutive parallel-scan failures before a view stops splitting
/// population scans across workers (sticky for the view's lifetime;
/// visible as [`ViewStats::seq_fallbacks`]).
const PARALLEL_STRIKE_LIMIT: u32 = 3;

/// Scope guard for the population eval-state bracket: marks `class` as
/// populating and raises the privileged-visibility depth on construction,
/// restores both on drop. Drop-based so the bracket also closes when the
/// computation *unwinds* (an injected panic, a bug in an attribute body) —
/// otherwise a leaked `body_depth` would let later queries on this thread
/// see through the view's hides.
struct PopBracket<'a> {
    view: &'a View,
    class: ClassId,
}

impl<'a> PopBracket<'a> {
    fn enter(view: &'a View, class: ClassId) -> PopBracket<'a> {
        view.with_eval(|s| {
            s.populating.insert(class);
            s.body_depth += 1;
        });
        // Membership in the populating set changes what
        // `resolution_class_and_field` answers for this class, so warm
        // compiled-scan resolution caches must be invalidated on both
        // edges of the bracket.
        view.res_gen.fetch_add(1, Ordering::Release);
        PopBracket { view, class }
    }
}

impl Drop for PopBracket<'_> {
    fn drop(&mut self) {
        self.view.with_eval(|s| {
            s.body_depth -= 1;
            s.populating.remove(&self.class);
        });
        self.view.res_gen.fetch_add(1, Ordering::Release);
    }
}

/// How virtual-class populations are (re)computed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Materialization {
    /// Cache the population; invalidate (fully recompute) when any source
    /// database changes.
    #[default]
    Cached,
    /// Recompute on every access (the relational-view baseline; used by the
    /// benchmarks to quantify what caching buys).
    AlwaysRecompute,
    /// Maintain cached populations **incrementally**: on source change,
    /// re-test membership only for the oids in the stores' change journals.
    /// Falls back to full recomputation when the journal has gaps or when
    /// an include is not delta-maintainable (`like`, `imaginary`,
    /// multi-binding queries). This is our answer to the paper's closing
    /// remark that materialized views "acquire a new dimension in the
    /// context of objects" (§6).
    Incremental,
}

/// How imaginary objects receive oids (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IdentityMode {
    /// The paper's semantics: a persistent table maps each core tuple to an
    /// oid, so identity is stable across invocations and updates.
    #[default]
    Table,
    /// The naive semantics the paper warns about: fresh oids on every
    /// recomputation ("the result is implementation dependent, and we may
    /// obtain an empty set"). Kept as an executable baseline.
    Fresh,
}

/// How an imported class relates to its source.
#[derive(Clone, Debug)]
enum ClassKind {
    Imported { source: usize, orig: ClassId },
    Virtual,
    Imaginary { core: Vec<Symbol> },
}

/// A bound include item.
#[derive(Clone, Debug)]
enum BoundInclude {
    /// Wholly-included class (generalization); also produced by bind-time
    /// `like` matches.
    Class(ClassId),
    /// Population query (specialization).
    Query(SelectExpr),
    /// Behavioral spec — re-scanned at population time so classes defined
    /// *after* this one are admitted automatically (§4.1's flexibility
    /// argument).
    Like { spec: ClassId },
    /// Imaginary population (§5).
    Imaginary(SelectExpr),
}

/// A per-include plan for delta maintenance, when one exists.
#[derive(Clone, Debug)]
enum IncPlan {
    /// Membership = (structural) membership in this class.
    Class(ClassId),
    /// Membership = membership in `class` plus the filter holding with
    /// `var` bound to the object. Derived from single-binding
    /// specialization queries `select V from V in C where F`.
    Filter {
        class: ClassId,
        var: Symbol,
        filter: Option<Expr>,
    },
    /// Not delta-maintainable; forces a full recompute.
    Opaque,
}

#[derive(Clone, Debug)]
struct VirtualInfo {
    includes: Vec<BoundInclude>,
    /// One plan per include (parallel to `includes`).
    plans: Vec<IncPlan>,
    /// Compiled membership predicate per include (parallel to `plans`):
    /// `Some` when the plan is a [`IncPlan::Filter`] whose predicate the
    /// bytecode compiler covers. Compiled once at bind time and shared by
    /// full recomputes and per-object delta retests.
    compiled: Vec<Option<Arc<ov_query::Program>>>,
}

/// A parameterized class template (`class Adult(A) includes …`).
#[derive(Clone, Debug)]
struct ParamTemplate {
    params: Vec<Symbol>,
    includes: Vec<IncludeSpec>,
}

#[derive(Clone, Debug)]
struct ImaginaryObject {
    class: ClassId,
    core: Tuple,
}

#[derive(Clone, Debug)]
struct CachedPop {
    versions: Vec<u64>,
    schema_len: usize,
    oids: Arc<BTreeSet<Oid>>,
}

/// A bound, queryable view. `Send + Sync`: any number of threads may read
/// through it concurrently (see the module docs).
#[derive(Debug)]
pub struct View {
    /// Unique token keying this view's thread-local evaluation state.
    token: u64,
    name: Symbol,
    /// The view's own schema: copies of imported classes plus virtual
    /// classes. Grows when parameterized classes instantiate, hence the
    /// lock.
    schema: RwLock<Schema>,
    kinds: RwLock<HashMap<ClassId, ClassKind>>,
    virt: RwLock<HashMap<ClassId, VirtualInfo>>,
    sources: Vec<DbHandle>,
    /// Durability cores of durable sources (deduplicated). Imaginary
    /// identity assignments are logged here so §5.1 identity survives
    /// restarts; empty for purely in-memory sources.
    durable: Vec<Arc<DurableCore>>,
    /// Per-source map from source class ids to view class ids.
    import_maps: Vec<HashMap<ClassId, ClassId>>,
    hidden_attrs: Vec<(ClassId, Symbol)>,
    hidden_classes: HashSet<ClassId>,
    templates: HashMap<Symbol, ParamTemplate>,
    instances: RwLock<HashMap<(Symbol, Vec<Value>), ClassId>>,
    /// Population cache, sharded by class id (see [`POP_SHARDS`]).
    pop_cache: [RwLock<HashMap<ClassId, CachedPop>>; POP_SHARDS],
    identity: RwLock<HashMap<ClassId, HashMap<Tuple, Oid>>>,
    imaginary: RwLock<HashMap<Oid, ImaginaryObject>>,
    next_imaginary: AtomicU64,
    policy: ConflictPolicy,
    materialization: Materialization,
    identity_mode: IdentityMode,
    parallel: ParallelConfig,
    stats: StatCells,
    /// Consecutive parallel population-scan failures (chunk faults or
    /// panics). At [`PARALLEL_STRIKE_LIMIT`] the view stops splitting scans
    /// and stays sequential — a tripped circuit breaker.
    parallel_strikes: AtomicU32,
    /// Attribute-resolution generation, surfaced to the compiled engine via
    /// [`DataSource::resolution_generation`]. Bumped whenever something that
    /// can change what `resolution_class_and_field` returns for a given
    /// `(class, name)` happens mid-session: opening/closing a population
    /// bracket (populating-set membership gates virtual-class resolution)
    /// and template instantiation (which grows the schema). Warm per-slot
    /// resolution caches in `ov_query::Scan` are dropped when this moves.
    res_gen: AtomicU64,
    /// Dependency edges recorded at bind time: which databases and which
    /// upstream views this definition reads, with the class names read.
    deps: Vec<DepEdge>,
}

impl Drop for View {
    fn drop(&mut self) {
        // Clean this thread's TLS entries; other threads' thread-stats
        // entries die with their threads. `try_with` because a View may be
        // dropped during thread teardown, after the TLS maps are gone.
        let _ = EVAL_STATE.try_with(|m| m.borrow_mut().remove(&self.token));
        let _ = THREAD_STATS.try_with(|m| m.borrow_mut().remove(&self.token));
    }
}

impl ViewDef {
    /// Starts a builder-style bind against `system` (mirrors
    /// [`ViewOptions::builder`]): chain [`Binder::options`] and
    /// [`Binder::over`], then call [`Binder::bind`].
    pub fn binder<'a>(&'a self, system: &'a System) -> Binder<'a> {
        Binder {
            def: self,
            system,
            options: ViewOptions::default(),
            upstream: HashMap::new(),
        }
    }

    /// Binds the definition against `system`, producing a queryable view
    /// with default settings.
    #[deprecated(note = "use `def.binder(&system).bind()`")]
    pub fn bind(&self, system: &System) -> Result<View> {
        self.binder(system).bind()
    }

    /// Binds with explicit options.
    #[deprecated(note = "use `def.binder(&system).options(options).bind()`")]
    pub fn bind_with(&self, system: &System, options: ViewOptions) -> Result<View> {
        self.binder(system).options(options).bind()
    }
}

/// The definition of a view, flattened for binding: upstream view imports
/// expanded into their own (base) imports and elements, each element tagged
/// with the view it came from (`None` = the definition being bound).
struct ExpandedDef {
    imports: Vec<Import>,
    elements: Vec<(ViewElement, Option<Symbol>)>,
    /// Direct dependency targets of the root definition, in import order.
    direct: Vec<crate::graph::DepTarget>,
}

/// Builder-style binding of a [`ViewDef`] (the bind-side mirror of
/// [`ViewOptions::builder`]):
///
/// ```ignore
/// let view = def
///     .binder(&system)
///     .options(ViewOptions::builder().population(Population::Incremental).build())
///     .over(&upstream_def) // resolve `import … from view Upstream`
///     .bind()?;
/// ```
///
/// `over` registers upstream view definitions so the bound view may import
/// *views*, not just databases: an import whose name matches a registered
/// definition is expanded in place — the upstream's own imports and
/// elements are spliced in (deduplicated, depth first) ahead of this
/// definition's elements, so its virtual classes are queryable, delta
/// retests flow through them level by level, and a change to the shared
/// base propagates through the whole stack. Cycles among definitions are
/// rejected here, at bind time.
pub struct Binder<'a> {
    def: &'a ViewDef,
    system: &'a System,
    options: ViewOptions,
    upstream: HashMap<Symbol, &'a ViewDef>,
}

impl<'a> Binder<'a> {
    /// Sets the view options (default: [`ViewOptions::default`]).
    pub fn options(mut self, options: ViewOptions) -> Self {
        self.options = options;
        self
    }

    /// Registers one upstream view definition that imports may resolve to.
    pub fn over(mut self, upstream: &'a ViewDef) -> Self {
        self.upstream.insert(upstream.name, upstream);
        self
    }

    /// Registers several upstream view definitions at once.
    pub fn over_all(mut self, defs: impl IntoIterator<Item = &'a ViewDef>) -> Self {
        for def in defs {
            self.upstream.insert(def.name, def);
        }
        self
    }

    /// Expands view imports recursively. `stack` is the chain of views
    /// being expanded (cycle guard), `spliced` the set already merged in
    /// (diamond dedup).
    fn expand_into(
        def: &ViewDef,
        upstream: &HashMap<Symbol, &'a ViewDef>,
        stack: &mut Vec<Symbol>,
        spliced: &mut BTreeSet<Symbol>,
        out: &mut ExpandedDef,
    ) -> Result<()> {
        let root = stack.is_empty();
        stack.push(def.name);
        for import in &def.imports {
            if stack.contains(&import.db) {
                let mut path = stack.clone();
                path.push(import.db);
                return Err(ViewError::CyclicViewDependency {
                    view: stack[0],
                    path,
                });
            }
            if let Some(updef) = upstream.get(&import.db) {
                if !matches!(import.what, ov_query::ImportWhat::AllClasses) {
                    return Err(ViewError::Definition(format!(
                        "`{}` is a view; only `import all classes` is supported from a view",
                        import.db
                    )));
                }
                if root {
                    out.direct.push(crate::graph::DepTarget::View(import.db));
                }
                if spliced.insert(import.db) {
                    Self::expand_into(updef, upstream, stack, spliced, out)?;
                }
            } else {
                if root {
                    out.direct
                        .push(crate::graph::DepTarget::Database(import.db));
                }
                if !out.imports.contains(import) {
                    out.imports.push(import.clone());
                }
            }
        }
        let origin = if root { None } else { Some(def.name) };
        for element in &def.elements {
            out.elements.push((element.clone(), origin));
        }
        stack.pop();
        Ok(())
    }

    /// Binds the definition, producing a queryable [`View`].
    pub fn bind(self) -> Result<View> {
        use crate::graph::{DepEdge, DepTarget};
        let def = self.def;
        let _span = ov_oodb::span!("view.bind", view = def.name);
        ov_oodb::failpoint!("view.bind");
        let mut expanded = ExpandedDef {
            imports: Vec::new(),
            elements: Vec::new(),
            direct: Vec::new(),
        };
        Self::expand_into(
            def,
            &self.upstream,
            &mut Vec::new(),
            &mut BTreeSet::new(),
            &mut expanded,
        )?;
        let options = self.options;
        let mut view = View {
            token: NEXT_VIEW_TOKEN.fetch_add(1, Ordering::Relaxed),
            name: def.name,
            schema: RwLock::new(Schema::new()),
            kinds: RwLock::new(HashMap::new()),
            virt: RwLock::new(HashMap::new()),
            sources: Vec::new(),
            durable: Vec::new(),
            import_maps: Vec::new(),
            hidden_attrs: Vec::new(),
            hidden_classes: HashSet::new(),
            templates: HashMap::new(),
            instances: RwLock::new(HashMap::new()),
            pop_cache: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            identity: RwLock::new(HashMap::new()),
            imaginary: RwLock::new(HashMap::new()),
            next_imaginary: AtomicU64::new(IMAGINARY_OID_BASE),
            policy: options.policy,
            materialization: options.materialization,
            identity_mode: options.identity_mode,
            parallel: options.parallel,
            stats: StatCells::default(),
            parallel_strikes: AtomicU32::new(0),
            res_gen: AtomicU64::new(0),
            deps: Vec::new(),
        };
        // Which dependency target defined each class name the view can
        // read: imported classes map to their database, spliced virtual
        // classes to the upstream view that declared them. The view's own
        // declarations are deliberately absent — reading your own class is
        // not a dependency.
        let mut provenance: HashMap<Symbol, DepTarget> = HashMap::new();
        // Class names read through each edge; seeded so every direct
        // import target appears even when no class of it is referenced.
        let mut dep_classes: BTreeMap<DepTarget, BTreeSet<Symbol>> = expanded
            .direct
            .iter()
            .map(|t| (*t, BTreeSet::new()))
            .collect();
        for import in &expanded.imports {
            let visible = view.do_import(self.system, import)?;
            for name in visible {
                provenance.insert(name, DepTarget::Database(import.db));
            }
        }
        for (element, origin) in &expanded.elements {
            if origin.is_none() {
                // Extract what this element reads *before* defining it, so
                // self-references don't count and forward references fail
                // in `define_*` exactly as they always did.
                for name in element_reads(&view, element) {
                    if let Some(&target) = provenance.get(&name) {
                        dep_classes.entry(target).or_default().insert(name);
                    }
                }
            }
            match element {
                ViewElement::VirtualClass(vc) => {
                    if vc.params.is_empty() {
                        view.define_virtual_class(vc.name, &vc.includes)?;
                    } else {
                        view.templates.insert(
                            vc.name,
                            ParamTemplate {
                                params: vc.params.clone(),
                                includes: vc.includes.clone(),
                            },
                        );
                    }
                    if let Some(up) = origin {
                        provenance.insert(vc.name, DepTarget::View(*up));
                    }
                }
                ViewElement::Attribute(decl) => view.define_attribute(decl)?,
                ViewElement::Hide(h) => view.add_hide(h)?,
            }
        }
        view.deps = dep_classes
            .into_iter()
            .map(|(on, classes)| DepEdge { on, classes })
            .collect();
        // With every class defined, re-adopt identity assignments an
        // earlier incarnation of this view persisted (§5.1 across
        // restarts).
        view.adopt_durable_identity();
        Ok(view)
    }
}

/// The class names one view element reads, resolved with the same scoping
/// as the typechecker (see [`ov_query::referenced_classes`]). Run against
/// the partially-bound view, which at this point holds everything declared
/// *before* the element — exactly the names it may legally read.
fn element_reads(view: &View, element: &ViewElement) -> BTreeSet<Symbol> {
    let mut out = BTreeSet::new();
    match element {
        ViewElement::VirtualClass(vc) => {
            for inc in &vc.includes {
                match inc {
                    IncludeSpec::Class(n) | IncludeSpec::Like(n) => {
                        out.insert(*n);
                    }
                    IncludeSpec::Query(q) | IncludeSpec::Imaginary(q) => {
                        let mut env = TypeEnv::new();
                        // Parameters of a parameterized class shadow
                        // class names inside its includes.
                        for p in &vc.params {
                            env.bind(*p, Type::Any);
                        }
                        ov_query::referenced_classes_select(view, &mut env, q, &mut out);
                    }
                }
            }
        }
        ViewElement::Attribute(decl) => {
            out.insert(decl.class);
            if let Some(body) = &decl.body {
                let mut env = TypeEnv::new();
                for (p, _) in &decl.params {
                    env.bind(*p, Type::Any);
                }
                ov_query::referenced_classes(view, &mut env, body, &mut out);
            }
        }
        ViewElement::Hide(Hide::Attrs { class, .. }) | ViewElement::Hide(Hide::Class(class)) => {
            out.insert(*class);
        }
    }
    out
}

/// Observability counters for a view's population machinery (monotonic;
/// snapshot with [`View::stats`]). Used by tests and benchmarks to assert
/// that the intended code path — cache hit, delta update, index pushdown —
/// actually ran.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Population served from the version-keyed cache.
    pub cache_hits: u64,
    /// Population requests the cache could not serve (cold, stale, or
    /// schema-invalidated). Each miss proceeds to a delta update or a full
    /// recomputation.
    pub cache_misses: u64,
    /// Population recomputed from scratch.
    pub recomputations: u64,
    /// Population delta-updated from change journals.
    pub incremental_updates: u64,
    /// Population queries answered from a secondary index.
    pub index_pushdowns: u64,
    /// Cache write-lock acquisitions that had to wait for another thread.
    pub lock_contention: u64,
    /// Population scans that were split across worker threads.
    pub parallel_scans: u64,
    /// Population requests answered from a stale cached population after
    /// recomputation failed (graceful degradation).
    pub stale_serves: u64,
    /// Population recompute attempts retried after a transient fault.
    pub fault_retries: u64,
    /// Parallel population scans that fell back to a sequential scan after
    /// worker chunks faulted or panicked.
    pub seq_fallbacks: u64,
}

/// One counter of [`ViewStats`], bumped through [`StatCells`].
#[derive(Clone, Copy)]
enum Stat {
    CacheHit,
    CacheMiss,
    Recomputation,
    IncrementalUpdate,
    IndexPushdown,
    LockContention,
    ParallelScan,
    StaleServe,
    FaultRetry,
    SeqFallback,
}

/// Atomic storage behind [`ViewStats`]. Relaxed ordering: the counters are
/// monotonic observability data, never synchronization.
#[derive(Debug, Default)]
struct StatCells {
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    recomputations: AtomicU64,
    incremental_updates: AtomicU64,
    index_pushdowns: AtomicU64,
    lock_contention: AtomicU64,
    parallel_scans: AtomicU64,
    stale_serves: AtomicU64,
    fault_retries: AtomicU64,
    seq_fallbacks: AtomicU64,
}

impl StatCells {
    fn bump(&self, stat: Stat) {
        let cell = match stat {
            Stat::CacheHit => &self.cache_hits,
            Stat::CacheMiss => &self.cache_misses,
            Stat::Recomputation => &self.recomputations,
            Stat::IncrementalUpdate => &self.incremental_updates,
            Stat::IndexPushdown => &self.index_pushdowns,
            Stat::LockContention => &self.lock_contention,
            Stat::ParallelScan => &self.parallel_scans,
            Stat::StaleServe => &self.stale_serves,
            Stat::FaultRetry => &self.fault_retries,
            Stat::SeqFallback => &self.seq_fallbacks,
        };
        cell.fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self) -> ViewStats {
        ViewStats {
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            recomputations: self.recomputations.load(Ordering::Relaxed),
            incremental_updates: self.incremental_updates.load(Ordering::Relaxed),
            index_pushdowns: self.index_pushdowns.load(Ordering::Relaxed),
            lock_contention: self.lock_contention.load(Ordering::Relaxed),
            parallel_scans: self.parallel_scans.load(Ordering::Relaxed),
            stale_serves: self.stale_serves.load(Ordering::Relaxed),
            fault_retries: self.fault_retries.load(Ordering::Relaxed),
            seq_fallbacks: self.seq_fallbacks.load(Ordering::Relaxed),
        }
    }
}

/// The paper's name for the population caching policy, used by the
/// [`ViewOptions`] builder (`.population(Population::Incremental)`).
pub use Materialization as Population;

/// Tunable view behaviors. Construct with [`ViewOptions::builder`] — the
/// struct is `#[non_exhaustive]`, so it cannot be built literally outside
/// this crate and new knobs can be added compatibly.
#[derive(Clone, Debug, Default)]
#[non_exhaustive]
pub struct ViewOptions {
    /// Method-resolution conflict policy (schizophrenia handling, §4.3).
    pub policy: ConflictPolicy,
    /// Population caching policy.
    pub materialization: Materialization,
    /// Imaginary identity semantics (§5.1).
    pub identity_mode: IdentityMode,
    /// Parallel population-scan configuration (default: sequential).
    pub parallel: ParallelConfig,
}

impl ViewOptions {
    /// A builder starting from the default options.
    pub fn builder() -> ViewOptionsBuilder {
        ViewOptionsBuilder {
            opts: ViewOptions::default(),
        }
    }
}

/// Builder for [`ViewOptions`].
#[derive(Clone, Debug)]
pub struct ViewOptionsBuilder {
    opts: ViewOptions,
}

impl ViewOptionsBuilder {
    /// Sets the method-resolution conflict policy (§4.3).
    pub fn policy(mut self, policy: ConflictPolicy) -> Self {
        self.opts.policy = policy;
        self
    }

    /// Sets the population caching policy, under its paper name.
    pub fn population(mut self, population: Population) -> Self {
        self.opts.materialization = population;
        self
    }

    /// Sets the population caching policy ([`population`][Self::population]
    /// under its implementation name).
    pub fn materialization(mut self, materialization: Materialization) -> Self {
        self.opts.materialization = materialization;
        self
    }

    /// Sets the imaginary identity semantics (§5.1).
    pub fn identity_mode(mut self, mode: IdentityMode) -> Self {
        self.opts.identity_mode = mode;
        self
    }

    /// Sets the parallel population-scan configuration.
    pub fn parallel(mut self, parallel: ParallelConfig) -> Self {
        self.opts.parallel = parallel;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ViewOptions {
        self.opts
    }
}

/// A summary of a view's degradation state (PR 4's graceful-degradation
/// ladder), for `Session::describe` and the `ovq` shell: how often the
/// view served stale data, retried faults, fell back to sequential scans,
/// and whether the parallel-scan circuit breaker is currently tripped.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewHealth {
    /// Populations served from a stale cached generation after recompute
    /// failures.
    pub stale_serves: u64,
    /// Population recompute attempts retried after a transient fault.
    pub fault_retries: u64,
    /// Parallel scans that fell back to sequential execution.
    pub seq_fallbacks: u64,
    /// The parallel-scan circuit breaker is tripped: the view stopped
    /// splitting scans for its lifetime.
    pub parallel_disabled: bool,
}

impl ViewHealth {
    /// True when nothing degraded: no stale serves, retries, fallbacks, or
    /// tripped breaker.
    pub fn is_clean(&self) -> bool {
        *self == ViewHealth::default()
    }
}

impl std::fmt::Display for ViewHealth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "healthy");
        }
        let mut parts: Vec<String> = Vec::new();
        if self.stale_serves > 0 {
            parts.push(format!("{} stale serve(s)", self.stale_serves));
        }
        if self.fault_retries > 0 {
            parts.push(format!("{} fault retry(ies)", self.fault_retries));
        }
        if self.seq_fallbacks > 0 {
            parts.push(format!("{} seq fallback(s)", self.seq_fallbacks));
        }
        if self.parallel_disabled {
            parts.push("parallel scans disabled".into());
        }
        write!(f, "{}", parts.join(", "))
    }
}

impl View {
    /// The view's name.
    pub fn name(&self) -> Symbol {
        self.name
    }

    /// The dependency edges recorded at bind time: which databases and
    /// which upstream views this definition reads, with the class names
    /// read through each edge.
    pub fn dependencies(&self) -> &[DepEdge] {
        &self.deps
    }

    /// The view's current degradation state (see [`ViewHealth`]).
    pub fn health(&self) -> ViewHealth {
        let stats = self.stats();
        ViewHealth {
            stale_serves: stats.stale_serves,
            fault_retries: stats.fault_retries,
            seq_fallbacks: stats.seq_fallbacks,
            parallel_disabled: self.parallel_strikes.load(Ordering::Relaxed)
                >= PARALLEL_STRIKE_LIMIT,
        }
    }

    /// Eagerly refreshes every virtual and imaginary population, in class
    /// creation order (dependencies before dependents within this view),
    /// and returns how many were refreshed. Under
    /// [`Materialization::Incremental`] each refresh is a delta retest of
    /// the journal-changed oids; the session uses this to propagate a base
    /// write through a view stack in topological order.
    pub fn refresh(&self) -> Result<usize> {
        let mut ids: Vec<ClassId> = self
            .kinds
            .read()
            .iter()
            .filter(|(_, k)| matches!(k, ClassKind::Virtual | ClassKind::Imaginary { .. }))
            .map(|(c, _)| *c)
            .collect();
        ids.sort();
        for &c in &ids {
            self.with_degradation(|| self.population(c))?;
        }
        Ok(ids.len())
    }

    /// A snapshot of the population-machinery counters, aggregated across
    /// all threads.
    pub fn stats(&self) -> ViewStats {
        self.stats.snapshot()
    }

    /// The calling thread's contribution to [`Self::stats`] — how many
    /// cache hits/misses, recomputations, etc. *this* thread caused. Useful
    /// for attributing contention in multi-threaded read workloads.
    pub fn thread_stats(&self) -> ViewStats {
        THREAD_STATS.with(|m| m.borrow().get(&self.token).copied().unwrap_or_default())
    }

    fn bump_stat(&self, stat: Stat) {
        self.stats.bump(stat);
        // Mirror into the process-wide registry: `ViewStats` is the
        // per-view picture, the registry the cross-view aggregate the
        // harness and shell report.
        match stat {
            Stat::CacheHit => ov_oodb::metric_counter!("views.cache_hits").inc(),
            Stat::CacheMiss => ov_oodb::metric_counter!("views.cache_misses").inc(),
            Stat::Recomputation => ov_oodb::metric_counter!("views.recomputations").inc(),
            Stat::IncrementalUpdate => ov_oodb::metric_counter!("views.incremental_updates").inc(),
            Stat::IndexPushdown => ov_oodb::metric_counter!("views.index_pushdowns").inc(),
            Stat::LockContention => ov_oodb::metric_counter!("views.lock_contention").inc(),
            Stat::ParallelScan => ov_oodb::metric_counter!("views.parallel_scans").inc(),
            Stat::StaleServe => ov_oodb::metric_counter!("views.degraded_serves").inc(),
            Stat::FaultRetry => ov_oodb::metric_counter!("views.fault_retries").inc(),
            Stat::SeqFallback => ov_oodb::metric_counter!("views.seq_fallbacks").inc(),
        }
        THREAD_STATS.with(|m| {
            let mut map = m.borrow_mut();
            let s = map.entry(self.token).or_default();
            match stat {
                Stat::CacheHit => s.cache_hits += 1,
                Stat::CacheMiss => s.cache_misses += 1,
                Stat::Recomputation => s.recomputations += 1,
                Stat::IncrementalUpdate => s.incremental_updates += 1,
                Stat::IndexPushdown => s.index_pushdowns += 1,
                Stat::LockContention => s.lock_contention += 1,
                Stat::ParallelScan => s.parallel_scans += 1,
                Stat::StaleServe => s.stale_serves += 1,
                Stat::FaultRetry => s.fault_retries += 1,
                Stat::SeqFallback => s.seq_fallbacks += 1,
            }
        });
    }

    // ------------------------------------------------------------------
    // Thread-local evaluation state (cycle guard + privileged depth)
    // ------------------------------------------------------------------

    /// Runs `f` on this thread's evaluation state for this view. `f` must
    /// not re-enter view code (it holds the thread-local map's borrow).
    fn with_eval<R>(&self, f: impl FnOnce(&mut EvalState) -> R) -> R {
        EVAL_STATE.with(|m| {
            let mut map = m.borrow_mut();
            let state = map.entry(self.token).or_default();
            let r = f(state);
            if state.populating.is_empty() && state.body_depth == 0 {
                map.remove(&self.token);
            }
            r
        })
    }

    /// This thread's privileged-visibility depth.
    fn body_depth(&self) -> u32 {
        self.with_eval(|s| s.body_depth)
    }

    /// Installs evaluation state on a worker thread so population scans
    /// inherit the coordinator's cycle guard and privileged visibility.
    fn adopt_eval_state(&self, populating: &HashSet<ClassId>, body_depth: u32) {
        EVAL_STATE.with(|m| {
            m.borrow_mut().insert(
                self.token,
                EvalState {
                    populating: populating.clone(),
                    body_depth,
                },
            );
        });
    }

    /// Clears a worker thread's evaluation state (counterpart of
    /// [`Self::adopt_eval_state`]).
    fn clear_eval_state(&self) {
        EVAL_STATE.with(|m| {
            m.borrow_mut().remove(&self.token);
        });
    }

    // ------------------------------------------------------------------
    // Sharded population cache
    // ------------------------------------------------------------------

    fn pop_shard(&self, c: ClassId) -> &RwLock<HashMap<ClassId, CachedPop>> {
        &self.pop_cache[c.0 as usize % POP_SHARDS]
    }

    /// Write access to `c`'s cache shard, counting contended acquisitions.
    fn pop_shard_write(
        &self,
        c: ClassId,
    ) -> parking_lot::RwLockWriteGuard<'_, HashMap<ClassId, CachedPop>> {
        let shard = self.pop_shard(c);
        match shard.try_write() {
            Some(guard) => guard,
            None => {
                self.bump_stat(Stat::LockContention);
                shard.write()
            }
        }
    }

    /// All class names visible in the view, sorted.
    pub fn class_names(&self) -> Vec<Symbol> {
        let schema = self.schema.read();
        let mut out: Vec<Symbol> = schema
            .classes()
            .filter(|c| !self.is_hidden_class(c.id))
            .map(|c| c.name)
            .collect();
        out.sort();
        out
    }

    /// Direct superclasses of a (visible) class, by name — exposes the
    /// inferred hierarchy for inspection and tests.
    pub fn parents_of(&self, name: Symbol) -> Result<Vec<Symbol>> {
        let schema = self.schema.read();
        let c = schema.require_class(name)?;
        Ok(schema
            .class(c)
            .parents
            .iter()
            .map(|&p| schema.class(p).name)
            .collect())
    }

    /// Is `sub` (transitively) a subclass of `sup` in the view's inferred
    /// hierarchy?
    pub fn is_subclass_by_name(&self, sub: Symbol, sup: Symbol) -> Result<bool> {
        let schema = self.schema.read();
        let s = schema.require_class(sub)?;
        let p = schema.require_class(sup)?;
        Ok(schema.is_subclass(s, p))
    }

    /// The population of a named class, in oid order (forces evaluation).
    pub fn extent_of(&self, name: Symbol) -> Result<Vec<Oid>> {
        let c = self
            .lookup_class(name)
            .ok_or(OodbError::UnknownClass(name))?;
        self.with_degradation(|| DataSource::extent(self, c))
    }

    /// Evaluates attribute `attr` of `oid` through the view.
    pub fn attr(&self, oid: Oid, attr: Symbol) -> Result<Value> {
        self.with_degradation(|| ov_query::eval_attr(self, oid, attr, &[]))
    }

    /// Evaluates attribute `attr(args…)` of `oid` through the view.
    pub fn attr_with_args(&self, oid: Oid, attr: Symbol, args: &[Value]) -> Result<Value> {
        self.with_degradation(|| ov_query::eval_attr(self, oid, attr, args))
    }

    /// Runs a query string against the view.
    pub fn query(&self, src: &str) -> Result<Value> {
        self.with_degradation(|| ov_query::run_query(self, src))
    }

    /// Brackets a query-layer call at the public boundary: clears any
    /// leftover degradation note (a caller may have abandoned an errored
    /// evaluation), runs `f`, and on error upgrades it to
    /// [`ViewError::Degraded`] when [`Self::population`] noted that its
    /// fallbacks were exhausted. The note rides a thread-local because the
    /// `DataSource` methods between here and `population` speak
    /// `QueryError`, which has no room for view-layer context.
    fn with_degradation<R>(&self, f: impl FnOnce() -> ov_query::Result<R>) -> Result<R> {
        DEGRADED_NOTE.with(|n| n.set(None));
        f().map_err(|e| {
            let e = ViewError::from(e);
            match DEGRADED_NOTE.with(|n| n.take()) {
                Some((class, attempts)) => ViewError::Degraded {
                    class,
                    attempts,
                    cause: Box::new(e),
                },
                None => e,
            }
        })
    }

    /// Runs a query like [`Self::query`] and additionally returns its
    /// [`ov_query::QueryTrace`]: parse / typecheck / optimize / execute
    /// timings plus, for every population request execution triggered,
    /// which path resolved it (cache hit, delta, full recompute) and how
    /// each scan ran (sequential, parallel with chunk count, index
    /// pushdown).
    pub fn explain(&self, src: &str) -> Result<(Value, ov_query::QueryTrace)> {
        self.with_degradation(|| ov_query::run_query_traced(self, src))
    }

    /// Requests the population of virtual (or imaginary) class `class` and
    /// reports how the request was resolved: `CacheHit`, `Delta {
    /// retested }`, or `FullRecompute` with its scans, plus row count and
    /// wall-clock time. The population genuinely runs — the plan is a
    /// record of what happened, not a prediction.
    pub fn explain_population(&self, class: Symbol) -> Result<plan::PopulationTrace> {
        let c = self
            .lookup_class(class)
            .ok_or(OodbError::UnknownClass(class))?;
        match self.kinds.read().get(&c) {
            Some(ClassKind::Virtual) | Some(ClassKind::Imaginary { .. }) => {}
            _ => {
                return Err(ViewError::Definition(format!(
                    "`{class}` is not a virtual or imaginary class; only computed populations \
                     have plans"
                )))
            }
        }
        let (result, events) = plan::collect(|| self.with_degradation(|| self.population(c)));
        result?;
        let name = self.schema.read().class(c).name;
        // The requested class's event completes last (nested populations of
        // other virtual classes finish before it).
        events
            .into_iter()
            .rev()
            .find(|e| e.class == name)
            .ok_or_else(|| {
                ViewError::Definition(format!("population of `{class}` emitted no trace"))
            })
    }

    // ------------------------------------------------------------------
    // Binding internals
    // ------------------------------------------------------------------

    /// Imports one specification, returning the class names it made
    /// visible (the binder records their provenance for the dependency
    /// graph).
    fn do_import(&mut self, system: &System, import: &Import) -> Result<Vec<Symbol>> {
        let handle = system.database(import.db)?;
        let source_idx = self.sources.len();
        let db = handle.read();
        if let Some(core) = db.durable_core() {
            if !self.durable.iter().any(|c| Arc::ptr_eq(c, &core)) {
                self.durable.push(core);
            }
        }
        let mut map: HashMap<ClassId, ClassId> = HashMap::new();
        let mut visible: Vec<Symbol> = Vec::new();
        // Which source classes come in, in creation (= topological) order?
        let roots: Vec<(ClassId, Option<Symbol>)> = match &import.what {
            ov_query::ImportWhat::AllClasses => db.schema.classes().map(|c| (c.id, None)).collect(),
            ov_query::ImportWhat::Class { name, alias } => {
                let root = db.schema.require_class(*name)?;
                // "When classes are imported, they become visible together
                // with their subclasses" (§3).
                let mut ids: Vec<ClassId> = vec![root];
                ids.extend(db.schema.strict_descendants(root));
                ids.sort(); // creation order ⇒ parents before children
                ids.into_iter()
                    .map(|c| (c, if c == root { *alias } else { None }))
                    .collect()
            }
        };
        let imported: HashSet<ClassId> = roots.iter().map(|(c, _)| *c).collect();
        // Phase 1: create the view classes (no attributes yet) so that
        // class-typed attributes can be remapped even across forward and
        // self references.
        for (src_class, alias) in &roots {
            let source = db.schema.class(*src_class);
            let view_name = alias.unwrap_or(source.name);
            let parents: Vec<ClassId> = source
                .parents
                .iter()
                .filter_map(|p| map.get(p).copied())
                .collect();
            let mut schema = self.schema.write();
            let id = schema
                .add_class(view_name, &parents, Vec::new())
                .map_err(|e| match e {
                    OodbError::DuplicateClass(n) => ViewError::ImportConflict {
                        name: n,
                        db: import.db,
                    },
                    other => ViewError::Oodb(other),
                })?;
            drop(schema);
            visible.push(view_name);
            map.insert(*src_class, id);
            self.kinds.write().insert(
                id,
                ClassKind::Imported {
                    source: source_idx,
                    orig: *src_class,
                },
            );
        }
        // Phase 2: attributes. Each imported class carries its own
        // definitions plus — *flattened* — everything it inherits from
        // ancestors that were NOT imported (a partial import must not lose
        // inherited structure).
        for (src_class, _) in &roots {
            let view_id = map[src_class];
            let visible = db.schema.visible_attrs(*src_class);
            let mut defs: Vec<AttrDef> = Vec::new();
            for (_, (def_in, def)) in visible {
                if def_in == *src_class || !imported.contains(&def_in) {
                    defs.push(self.remap_attr(def.clone(), &map));
                }
            }
            let mut schema = self.schema.write();
            for def in defs {
                schema.add_attr(view_id, def)?;
            }
        }
        drop(db);
        self.sources.push(handle);
        self.import_maps.push(map);
        Ok(visible)
    }

    /// Rewrites source class ids inside an attribute signature to view
    /// class ids. References to classes that were not imported degrade to
    /// `any` (the objects stay reachable; their class is just not named in
    /// this view).
    fn remap_attr(&self, mut def: AttrDef, map: &HashMap<ClassId, ClassId>) -> AttrDef {
        def.sig.ty = remap_type(&def.sig.ty, map);
        for (_, t) in &mut def.sig.params {
            *t = remap_type(t, map);
        }
        def
    }

    fn add_hide(&mut self, hide: &Hide) -> Result<()> {
        let _span = ov_oodb::span!("view.hide");
        let schema = self.schema.read();
        match hide {
            Hide::Attrs { attrs, class } => {
                let c = schema.require_class(*class)?;
                for &a in attrs {
                    if !schema.visible_attrs(c).contains_key(&a) {
                        return Err(OodbError::UnknownAttr {
                            class: *class,
                            attr: a,
                        }
                        .into());
                    }
                    self.hidden_attrs.push((c, a));
                }
            }
            Hide::Class(name) => {
                let c = schema.require_class(*name)?;
                self.hidden_classes.insert(c);
                for d in schema.strict_descendants(c) {
                    self.hidden_classes.insert(d);
                }
            }
        }
        Ok(())
    }

    /// Is the definition of `attr` in (defining) class `def_in` hidden?
    /// `hide attribute A in class C` hides the definitions of `A` "in class
    /// C **and all its subclasses**" (§3).
    fn is_hidden_attr(&self, def_in: ClassId, attr: Symbol, schema: &Schema) -> bool {
        if self.body_depth() > 0 {
            // Privileged: the view's own computed-attribute bodies see
            // everything (Example 5 hides City/Street *after* defining the
            // Address attribute over them).
            return false;
        }
        self.hidden_attrs
            .iter()
            .any(|&(c, a)| a == attr && schema.is_subclass(def_in, c))
    }

    fn is_hidden_class(&self, c: ClassId) -> bool {
        self.hidden_classes.contains(&c)
    }

    fn lookup_class(&self, name: Symbol) -> Option<ClassId> {
        let schema = self.schema.read();
        let c = schema.class_by_name(name)?;
        // View-internal definitions (attribute bodies, population queries)
        // may reference hidden classes — the relational bridge hides its
        // staging classes while its imaginary populations select from them.
        if self.is_hidden_class(c) && self.body_depth() == 0 {
            None
        } else {
            Some(c)
        }
    }

    fn define_attribute(&self, decl: &AttrDecl) -> Result<()> {
        let class_id = self
            .lookup_class(decl.class)
            .ok_or(OodbError::UnknownClass(decl.class))?;
        let param_tys: Vec<(Symbol, Type)> = {
            let schema = self.schema.read();
            decl.params
                .iter()
                .map(|(p, t)| Ok((*p, resolve_type(t, &schema).map_err(ViewError::from)?)))
                .collect::<Result<_>>()?
        };
        let declared = {
            let schema = self.schema.read();
            decl.ty
                .as_ref()
                .map(|t| resolve_type(t, &schema).map_err(ViewError::from))
                .transpose()?
        };
        match &decl.body {
            None => {
                // Bodiless declaration: the attribute must already exist as
                // a stored attribute (re-declaring it stored, as the paper's
                // `attribute Address in class Employee;`). A *new* stored
                // attribute cannot be declared in a view — a view "has no
                // proper data of its own" (§3).
                let schema = self.schema.read();
                let exists_stored = schema
                    .visible_attrs(class_id)
                    .get(&decl.name)
                    .is_some_and(|(_, def)| def.is_stored());
                if exists_stored {
                    Ok(())
                } else {
                    Err(ViewError::Definition(format!(
                        "`attribute {} in class {}` without `has value` must re-declare an \
                         existing stored attribute; views cannot store new data",
                        decl.name, decl.class
                    )))
                }
            }
            Some(body) => {
                let ty = match declared {
                    Some(t) => t,
                    None => {
                        // Inference with `self : Class(c)` (§2: types are
                        // inferred when omitted).
                        let mut env = TypeEnv::with_self(Type::Class(class_id));
                        for (p, t) in &param_tys {
                            env.bind(*p, t.clone());
                        }
                        ov_query::infer(self, &mut env, body).map_err(ViewError::from)?
                    }
                };
                // Bodies evaluate per attribute access: optimize once here.
                let def = AttrDef::method(decl.name, param_tys, ty, ov_query::optimize_expr(body));
                self.schema.write().add_attr(class_id, def)?;
                Ok(())
            }
        }
    }

    /// Defines a virtual class from its include list: binds the includes,
    /// infers position (R1/R2), creates the class, adds upward-inherited
    /// attributes. Shared by bind-time definitions and parameterized-class
    /// instantiation.
    fn define_virtual_class(&self, name: Symbol, includes: &[IncludeSpec]) -> Result<ClassId> {
        let n_imaginary = includes
            .iter()
            .filter(|i| matches!(i, IncludeSpec::Imaginary(_)))
            .count();
        if n_imaginary > 1 || (n_imaginary == 1 && includes.len() > 1) {
            return Err(ViewError::MixedImaginary(name));
        }
        let mut wholly: Vec<ClassId> = Vec::new();
        // Guaranteed-superclass units, one per contributor (see
        // `infer::infer_position`).
        let mut units: Vec<Vec<ClassId>> = Vec::new();
        let mut bound: Vec<BoundInclude> = Vec::new();
        let mut plans: Vec<IncPlan> = Vec::new();
        let mut imaginary_core: Option<BTreeMap<Symbol, Type>> = None;
        for inc in includes {
            match inc {
                IncludeSpec::Class(n) => {
                    let c = self.lookup_class(*n).ok_or(OodbError::UnknownClass(*n))?;
                    wholly.push(c);
                    units.push(crate::infer::unit_of(&self.schema.read(), &[c]));
                    bound.push(BoundInclude::Class(c));
                    plans.push(IncPlan::Class(c));
                }
                IncludeSpec::Like(n) => {
                    let spec = self.lookup_class(*n).ok_or(OodbError::UnknownClass(*n))?;
                    let schema = self.schema.read();
                    for class in schema.classes() {
                        if !self.is_hidden_class(class.id) && conforms_to(&schema, class.id, spec) {
                            wholly.push(class.id);
                            units.push(crate::infer::unit_of(&schema, &[class.id]));
                        }
                    }
                    bound.push(BoundInclude::Like { spec });
                    plans.push(IncPlan::Opaque);
                }
                IncludeSpec::Query(q) => {
                    let ty =
                        infer_select_in(self, &mut TypeEnv::new(), q).map_err(ViewError::from)?;
                    let mut constraints: Vec<ClassId> = Vec::new();
                    match &ty {
                        Type::Set(elem) => match &**elem {
                            Type::Class(c) => constraints.push(*c),
                            Type::Any | Type::Nothing => {}
                            other => {
                                return Err(ViewError::NonObjectPopulation {
                                    class: name,
                                    found: format!("{other:?}"),
                                })
                            }
                        },
                        other => {
                            return Err(ViewError::NonObjectPopulation {
                                class: name,
                                found: format!("{other:?}"),
                            })
                        }
                    }
                    // "The type system detects that every object in this
                    // class is both in Rich and in Beautiful" (§4.2): filter
                    // conjuncts `X in C` / `X isa C` on the projected
                    // variable are additional guaranteed superclasses.
                    constraints.extend(self.membership_conjunct_sources(q));
                    units.push(crate::infer::unit_of(&self.schema.read(), &constraints));
                    let optimized = ov_query::optimize_select(q);
                    plans.push(self.incremental_plan(&optimized));
                    // Population queries run on every (re)computation:
                    // fold their constants once, at definition time.
                    bound.push(BoundInclude::Query(optimized));
                }
                IncludeSpec::Imaginary(q) => {
                    let ty =
                        infer_select_in(self, &mut TypeEnv::new(), q).map_err(ViewError::from)?;
                    let core = match &ty {
                        Type::Set(elem) => match &**elem {
                            Type::Tuple(fields) => fields.clone(),
                            other => {
                                return Err(ViewError::NonTuplePopulation {
                                    class: name,
                                    found: format!("{other:?}"),
                                })
                            }
                        },
                        other => {
                            return Err(ViewError::NonTuplePopulation {
                                class: name,
                                found: format!("{other:?}"),
                            })
                        }
                    };
                    imaginary_core = Some(core);
                    bound.push(BoundInclude::Imaginary(ov_query::optimize_select(q)));
                    plans.push(IncPlan::Opaque);
                }
            }
        }
        wholly.sort();
        wholly.dedup();
        // Contributors for upward inheritance: every class that directly
        // feeds the population (wholly-included classes plus the primary
        // constraint classes of queries).
        let contributors: Vec<ClassId> = {
            let mut v: Vec<ClassId> = units
                .iter()
                .flat_map(|u| {
                    // The minimal classes of each unit are the classes the
                    // contributor actually is (not their superclasses).
                    let schema = self.schema.read();
                    let u2 = u.clone();
                    u.iter()
                        .copied()
                        .filter(|&c| !u2.iter().any(|&d| d != c && schema.is_subclass(d, c)))
                        .collect::<Vec<_>>()
                })
                .collect();
            v.sort();
            v.dedup();
            v
        };
        // Pre-expand the hide list: (C, a) hides the definition of `a` in C
        // and every subclass of C. Expanded here (read borrow) because the
        // upward-inheritance closure below runs under the mutable borrow.
        let hidden_expanded: HashSet<(ClassId, Symbol)> = {
            let schema = self.schema.read();
            self.hidden_attrs
                .iter()
                .flat_map(|&(hc, a)| {
                    let mut v = vec![(hc, a)];
                    v.extend(schema.strict_descendants(hc).into_iter().map(|d| (d, a)));
                    v
                })
                .collect()
        };
        // Position by R1/R2 and create the class.
        let class_id = {
            let mut schema = self.schema.write();
            let pos = infer_position(&schema, &units, &wholly);
            // Imaginary classes: core attributes become the class's stored
            // shape ("we call Husband and Wife the *core attributes*", §5).
            let attrs: Vec<AttrDef> = match &imaginary_core {
                Some(core) => core
                    .iter()
                    .map(|(n, t)| AttrDef::stored(*n, t.clone()))
                    .collect(),
                None => Vec::new(),
            };
            let id = schema.add_class(name, &pos.parents, attrs)?;
            for &sub in &pos.new_subclasses {
                schema.add_superclass(sub, id)?;
            }
            // Upward inheritance (§4.3) over all contributors.
            let acquired = upward_attrs(
                &schema,
                &contributors,
                &pos.parents,
                &|def_in: ClassId, attr: Symbol| hidden_expanded.contains(&(def_in, attr)),
            );
            for (attr_name, ty) in acquired {
                if schema.class(id).own_attr(attr_name).is_none() {
                    schema.add_attr(id, AttrDef::abstract_sig(attr_name, ty))?;
                }
            }
            id
        };
        self.kinds.write().insert(
            class_id,
            match imaginary_core {
                Some(core) => ClassKind::Imaginary {
                    core: core.keys().copied().collect(),
                },
                None => ClassKind::Virtual,
            },
        );
        // Compile each maintainable membership predicate once, here at bind
        // time; population scans and delta retests reuse the programs.
        let compiled: Vec<Option<Arc<ov_query::Program>>> = plans
            .iter()
            .map(|p| match p {
                IncPlan::Filter {
                    var,
                    filter: Some(f),
                    ..
                } => ov_query::compile_predicate(f, &[*var]).map(Arc::new),
                _ => None,
            })
            .collect();
        self.virt.write().insert(
            class_id,
            VirtualInfo {
                includes: bound,
                plans,
                compiled,
            },
        );
        Ok(class_id)
    }

    /// Derives a delta-maintenance plan for a population query: only the
    /// canonical specialization shape `select V from V in C [where F]` is
    /// maintainable per object.
    fn incremental_plan(&self, q: &SelectExpr) -> IncPlan {
        let [(var, coll)] = q.bindings.as_slice() else {
            return IncPlan::Opaque;
        };
        let Expr::Name(class_name) = coll else {
            return IncPlan::Opaque;
        };
        if *q.proj != Expr::Name(*var) {
            return IncPlan::Opaque;
        }
        match self.lookup_class(*class_name) {
            Some(class) => IncPlan::Filter {
                class,
                var: *var,
                filter: q.filter.as_deref().cloned(),
            },
            None => IncPlan::Opaque,
        }
    }

    /// Extracts extra population sources from membership conjuncts in the
    /// filter: for `select P from Rich where P in Beautiful`, returns
    /// `[Beautiful]`.
    fn membership_conjunct_sources(&self, q: &SelectExpr) -> Vec<ClassId> {
        let Expr::Name(var) = &*q.proj else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack: Vec<&Expr> = q.filter.iter().map(|b| &**b).collect();
        while let Some(e) = stack.pop() {
            match e {
                Expr::Binary {
                    op: ov_oodb::BinOp::And,
                    lhs,
                    rhs,
                } => {
                    stack.push(lhs);
                    stack.push(rhs);
                }
                Expr::Binary {
                    op: ov_oodb::BinOp::In,
                    lhs,
                    rhs,
                } => {
                    if let (Expr::Name(v), Expr::Name(class)) = (&**lhs, &**rhs) {
                        if v == var {
                            if let Some(c) = self.lookup_class(*class) {
                                out.push(c);
                            }
                        }
                    }
                }
                Expr::IsA { expr, class } => {
                    if let Expr::Name(v) = &**expr {
                        if v == var {
                            if let Some(c) = self.lookup_class(*class) {
                                out.push(c);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    // ------------------------------------------------------------------
    // Populations and identity
    // ------------------------------------------------------------------

    /// Does the population of `v` read a class in `set` — a wholly
    /// included class, a class named in a population query, a class a
    /// `like` include admits — directly or through the virtual classes it
    /// reads? While such a class is being populated on this thread it is
    /// excluded from every read, so a population of `v` computed now would
    /// be wrong: [`DataSource::is_member`] does not probe `v`, and
    /// [`Self::population`] does not cache it.
    fn population_reads_any(&self, v: ClassId, set: &HashSet<ClassId>) -> bool {
        let virt = self.virt.read();
        let schema = self.schema.read();
        let mut seen = HashSet::new();
        let mut stack = vec![v];
        while let Some(c) = stack.pop() {
            if !seen.insert(c) {
                continue;
            }
            let Some(info) = virt.get(&c) else {
                continue;
            };
            let reads: Vec<ClassId> = info
                .includes
                .iter()
                .flat_map(|inc| match inc {
                    BoundInclude::Class(c) => vec![*c],
                    BoundInclude::Query(q) | BoundInclude::Imaginary(q) => Expr::Select(q.clone())
                        .free_names()
                        .into_iter()
                        .filter_map(|n| schema.class_by_name(n))
                        .collect(),
                    BoundInclude::Like { spec } => schema
                        .classes()
                        .filter(|cl| conforms_to(&schema, cl.id, *spec))
                        .map(|cl| cl.id)
                        .collect(),
                })
                .collect();
            if reads.iter().any(|r| set.contains(r)) {
                return true;
            }
            stack.extend(reads);
        }
        false
    }

    /// Current versions of all source databases (the population cache key).
    fn source_versions(&self) -> Vec<u64> {
        self.sources.iter().map(|h| h.read().version()).collect()
    }

    /// The population of a virtual/imaginary class, cached.
    ///
    /// Concurrency: two threads may find the cache cold and compute the
    /// same population simultaneously. That is benign — both compute the
    /// same set (the computation only reads source data at the cached
    /// versions) and cache insertion is last-writer-wins with equal values.
    /// We deliberately do NOT hold the shard lock across the computation:
    /// population is re-entrant (computing A may populate B), and blocking
    /// readers of other classes in the same shard for the whole computation
    /// would serialize the read path this refactor exists to parallelize.
    fn population(&self, c: ClassId) -> ov_query::Result<Arc<BTreeSet<Oid>>> {
        if self.with_eval(|s| s.populating.contains(&c)) {
            let name = self.schema.read().class(c).name;
            return Err(ViewError::CyclicVirtualClass(name).into());
        }
        let t0 = std::time::Instant::now();
        let mut span = ov_oodb::span!("view.population");
        plan::begin_population();
        // Transient faults (an injected fault, a flaky source) are retried
        // with a tiny capped backoff before any degradation kicks in.
        // Budget breaches and semantic errors are never retried: the former
        // would breach again immediately, the latter are deterministic.
        let mut attempts = 1u32;
        let result = loop {
            match self.population_inner(c) {
                Ok(ok) => break Ok(ok),
                Err(e) if e.is_transient() && attempts < MAX_POPULATION_ATTEMPTS => {
                    self.bump_stat(Stat::FaultRetry);
                    let _retry_span =
                        ov_oodb::span!("view.population_retry", attempt = attempts as usize);
                    // 50µs, 100µs, 200µs, … capped at 400µs: enough to let a
                    // contended writer finish, small enough to be invisible
                    // to deadlines measured in milliseconds.
                    std::thread::sleep(std::time::Duration::from_micros(
                        50u64 << (attempts - 1).min(3),
                    ));
                    attempts += 1;
                    // A deadline that expired while we slept turns into a
                    // typed cancellation rather than another doomed attempt.
                    if let Some(b) = ov_query::budget::current() {
                        if let Err(breach) = b.check_deadline() {
                            break Err(breach);
                        }
                    }
                }
                Err(e) => break Err(e),
            }
        };
        match result {
            Ok((oids, outcome)) => {
                let nanos = t0.elapsed().as_nanos() as u64;
                let path = match outcome {
                    plan::PopOutcome::CacheHit => {
                        ov_oodb::metric_histogram!("views.population.cache_hit_ns").record(nanos);
                        "cache_hit"
                    }
                    plan::PopOutcome::Delta { .. } => {
                        ov_oodb::metric_histogram!("views.population.delta_ns").record(nanos);
                        "delta"
                    }
                    plan::PopOutcome::FullRecompute => {
                        ov_oodb::metric_histogram!("views.population.recompute_ns").record(nanos);
                        "recompute"
                    }
                    plan::PopOutcome::StaleServe { .. } => {
                        unreachable!("population_inner never reports StaleServe")
                    }
                };
                if span.is_recording() {
                    span.field("class", self.schema.read().class(c).name);
                    span.field("path", path);
                    span.field("rows", oids.len());
                    if attempts > 1 {
                        span.field("retries", (attempts - 1) as usize);
                    }
                }
                if plan::tracing_active() {
                    let name = self.schema.read().class(c).name;
                    plan::end_population(name, outcome, oids.len(), nanos);
                }
                // Opportunistic statistics: a finished population is an
                // exact cardinality observation for the virtual class, keyed
                // to the resolution generation it was computed under.
                if ov_oodb::metrics::profiling_enabled() {
                    let name = self.schema.read().class(c).name;
                    ov_oodb::stats::stats().class(name).note_cardinality(
                        ov_query::DataSource::resolution_generation(self),
                        oids.len() as u64,
                    );
                }
                Ok(oids)
            }
            Err(e) => self.degrade(c, e, attempts, t0, span),
        }
    }

    /// The failure tail of [`Self::population`]: serves the last good
    /// cached population (any version — it is by definition stale) when the
    /// failure is degradable, else lets the typed error propagate, noting
    /// exhausted degradation for [`Self::with_degradation`] when the
    /// failure was fault-induced.
    ///
    /// A stale serve can never mix generations: the cache holds one
    /// `Arc<BTreeSet<Oid>>` per class, swapped atomically under the shard
    /// lock, so callers see either the old population or the new one in
    /// full — never a blend.
    fn degrade(
        &self,
        c: ClassId,
        e: QueryError,
        attempts: u32,
        t0: std::time::Instant,
        mut span: ov_oodb::SpanGuard,
    ) -> ov_query::Result<Arc<BTreeSet<Oid>>> {
        let fault_induced = e.is_transient() || matches!(e, QueryError::Panicked { .. });
        let degradable = fault_induced
            || matches!(
                e,
                QueryError::Cancelled(_) | QueryError::ResourceExhausted(_)
            );
        if degradable {
            let stale = self.pop_shard(c).read().get(&c).map(|p| p.oids.clone());
            if let Some(oids) = stale {
                self.bump_stat(Stat::StaleServe);
                let nanos = t0.elapsed().as_nanos() as u64;
                ov_oodb::metric_histogram!("views.population.stale_serve_ns").record(nanos);
                if span.is_recording() {
                    span.field("class", self.schema.read().class(c).name);
                    span.field("path", "stale_serve");
                    span.field("attempts", attempts as usize);
                }
                if plan::tracing_active() {
                    let name = self.schema.read().class(c).name;
                    plan::end_population(
                        name,
                        plan::PopOutcome::StaleServe { attempts },
                        oids.len(),
                        nanos,
                    );
                }
                return Ok(oids);
            }
        }
        plan::abort_population();
        span.field("path", "error");
        if fault_induced {
            // No cached fallback: record that degradation was attempted
            // and exhausted, so the public boundary can say so.
            let name = self.schema.read().class(c).name;
            DEGRADED_NOTE.with(|n| n.set(Some((name, attempts))));
        }
        Err(e)
    }

    /// The un-traced body of [`Self::population`]: resolves the request and
    /// reports which of the three paths did it.
    fn population_inner(
        &self,
        c: ClassId,
    ) -> ov_query::Result<(Arc<BTreeSet<Oid>>, plan::PopOutcome)> {
        let versions = self.source_versions();
        let schema_len = self.schema.read().len();
        // A population computed while a class it reads is excluded (being
        // populated further up this thread's stack) is served but never
        // cached.
        let populating = self.with_eval(|s| s.populating.clone());
        let cacheable = populating.is_empty() || !self.population_reads_any(c, &populating);
        if self.materialization != Materialization::AlwaysRecompute {
            if let Some(cached) = self.pop_shard(c).read().get(&c) {
                if cached.versions == versions && cached.schema_len == schema_len {
                    self.bump_stat(Stat::CacheHit);
                    return Ok((cached.oids.clone(), plan::PopOutcome::CacheHit));
                }
            }
            self.bump_stat(Stat::CacheMiss);
        }
        if self.materialization == Materialization::Incremental {
            if let Some((updated, retested)) = self.try_incremental(c, &versions, schema_len)? {
                self.bump_stat(Stat::IncrementalUpdate);
                let oids = Arc::new(updated);
                if cacheable {
                    self.store_pop(c, versions, schema_len, oids.clone());
                }
                return Ok((oids, plan::PopOutcome::Delta { retested }));
            }
        }
        self.bump_stat(Stat::Recomputation);
        // Population queries are view-internal definitions: like attribute
        // bodies, they see through the view's hides (paper Example 5 hides
        // the very attributes its imaginary Address class selects). The
        // bracket restores on unwind too: a panicking recompute must not
        // leak privileged visibility into later queries on this thread.
        let result = {
            let _guard = PopBracket::enter(self, c);
            self.compute_population(c)
        };
        let oids = Arc::new(result?);
        if cacheable {
            self.store_pop(c, versions, schema_len, oids.clone());
        }
        Ok((oids, plan::PopOutcome::FullRecompute))
    }

    fn store_pop(
        &self,
        c: ClassId,
        versions: Vec<u64>,
        schema_len: usize,
        oids: Arc<BTreeSet<Oid>>,
    ) {
        self.pop_shard_write(c).insert(
            c,
            CachedPop {
                versions,
                schema_len,
                oids,
            },
        );
    }

    /// Attempts a delta update of `c`'s cached population. Returns the
    /// patched population together with how many changed oids were
    /// re-tested, or `Ok(None)` when a full recompute is required (no
    /// cache, journal gap, schema change, or an opaque include).
    fn try_incremental(
        &self,
        c: ClassId,
        versions: &[u64],
        schema_len: usize,
    ) -> ov_query::Result<Option<(BTreeSet<Oid>, usize)>> {
        let cached = match self.pop_shard(c).read().get(&c) {
            Some(entry) => entry.clone(),
            None => return Ok(None),
        };
        if cached.schema_len != schema_len {
            return Ok(None);
        }
        let info = self
            .virt
            .read()
            .get(&c)
            .cloned()
            .expect("population requested for non-virtual class");
        if info.plans.iter().any(|p| matches!(p, IncPlan::Opaque)) {
            return Ok(None);
        }
        // Collect the changed oids from every source's journal.
        let mut changed: BTreeSet<Oid> = BTreeSet::new();
        for (idx, handle) in self.sources.iter().enumerate() {
            let db = handle.read();
            match db.store.changes_since(cached.versions[idx]) {
                Some(oids) => changed.extend(oids),
                None => {
                    // Journal gap: the store trimmed past our cached
                    // version, so the delta is unrecoverable.
                    ov_oodb::metric_counter!("views.journal_gap_fallbacks").inc();
                    return Ok(None);
                }
            }
        }
        let _ = versions;
        if changed.is_empty() {
            return Ok(Some(((*cached.oids).clone(), 0)));
        }
        // Re-test membership only for the changed oids, with the same
        // privileged visibility and cycle guards as a full computation.
        let retested = changed.len();
        let result = {
            let _guard = PopBracket::enter(self, c);
            (|| -> ov_query::Result<BTreeSet<Oid>> {
                let mut set = (*cached.oids).clone();
                for oid in changed {
                    if self.delta_member(&info, oid)? {
                        set.insert(oid);
                    } else {
                        set.remove(&oid);
                    }
                }
                Ok(set)
            })()
        };
        result.map(|set| Some((set, retested)))
    }

    /// Does any include admit `oid` right now (per its delta plan)?
    fn delta_member(&self, info: &VirtualInfo, oid: Oid) -> ov_query::Result<bool> {
        // A deleted base object is a member of nothing.
        if !DataSource::object_exists(self, oid) {
            return Ok(false);
        }
        for (idx, plan) in info.plans.iter().enumerate() {
            match plan {
                IncPlan::Class(ci) => {
                    if DataSource::is_member(self, oid, *ci)? {
                        return Ok(true);
                    }
                }
                IncPlan::Filter { class, var, filter } => {
                    if DataSource::is_member(self, oid, *class)? {
                        match filter {
                            None => return Ok(true),
                            // Retest with the bind-time compiled predicate
                            // when one exists (same steps and errors as the
                            // interpreter, minus the tree walk).
                            Some(_)
                                if ov_query::compiled_enabled() && info.compiled[idx].is_some() =>
                            {
                                let prog = info.compiled[idx].as_deref().expect("checked");
                                let mut scan = ov_query::Scan::new(prog, self);
                                scan.bind(0, Value::Oid(oid));
                                if ov_query::truthy(&scan.run(0)?) {
                                    return Ok(true);
                                }
                            }
                            Some(f) => {
                                let mut env = ov_query::Env::new();
                                env.bind(*var, Value::Oid(oid));
                                let keep = ov_query::Evaluator::new(self).eval(f, &mut env)?;
                                if ov_query::truthy(&keep) {
                                    return Ok(true);
                                }
                            }
                        }
                    }
                }
                IncPlan::Opaque => unreachable!("checked by try_incremental"),
            }
        }
        Ok(false)
    }

    /// The planner's row estimate for a canonical specialization query:
    /// estimated class cardinality × filter selectivity, from the
    /// statistics plane. `None` when the planner is off, the query is not
    /// a single-binding class scan, or the class has no warm cardinality.
    fn scan_estimate(&self, q: &SelectExpr) -> Option<u64> {
        if !ov_query::planner_enabled() {
            return None;
        }
        let [(var, Expr::Name(class_name))] = q.bindings.as_slice() else {
            return None;
        };
        ov_query::estimate_select(*class_name, *var, q.filter.as_deref())
    }

    /// Filters `extent` by `filter` (with `var` bound to each object) on a
    /// scoped worker pool (see [`PopBracket`] for the eval-state bracket).
    /// Workers inherit the calling thread's evaluation state — the
    /// in-progress population set (cycle guard) and the
    /// privileged-visibility depth — so the filter sees exactly what a
    /// sequential scan would see. The first error (in chunk order) wins.
    fn parallel_filter(
        &self,
        extent: &[Oid],
        var: Symbol,
        filter: Option<&Expr>,
        compiled: Option<&ov_query::Program>,
        est_rows: Option<u64>,
    ) -> ov_query::Result<BTreeSet<Oid>> {
        let (populating, depth) = self.with_eval(|s| (s.populating.clone(), s.body_depth));
        // Workers run in the coordinator's fault scope: its armed
        // failpoints fire on its chunks.
        let fault_scope = ov_oodb::faults::scope();
        let workers = self.parallel.workers_for(extent.len());
        let chunk_len = extent.len().div_ceil(workers);
        let engine = if compiled.is_some() {
            plan::Engine::Compiled
        } else {
            plan::Engine::Interpreted
        };
        let chunks = extent.len().div_ceil(chunk_len);
        // Work counters cross the thread boundary through shared atomics:
        // each worker measures its own chunk (including nested scans inside
        // computed-attribute bodies) in a thread-local frame, then folds the
        // work counters here. Budget charges are *not* folded — workers
        // bracket a shared budget concurrently, so their deltas overlap; the
        // coordinator's own frame below measures the true total.
        let shared: [AtomicU64; 4] = std::array::from_fn(|_| AtomicU64::new(0));
        let (result, actuals) = plan::with_scan_actuals(|| {
            let results: Vec<ov_query::Result<BTreeSet<Oid>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = extent
                    .chunks(chunk_len)
                    .map(|chunk| {
                        let populating = &populating;
                        let shared = &shared;
                        scope.spawn(move || {
                            // Per-chunk span, emitted on the worker thread so
                            // the flight recorder attributes it to the worker.
                            let _chunk_span = ov_oodb::span!("view.scan_chunk", len = chunk.len());
                            self.adopt_eval_state(populating, depth);
                            let scan = || -> ov_query::Result<BTreeSet<Oid>> {
                                // Failpoint: per-chunk errors and panics, for
                                // exercising the sequential-fallback breaker.
                                if ov_oodb::faults::enabled() {
                                    ov_oodb::faults::hit("view.scan_chunk")
                                        .map_err(OodbError::Fault)?;
                                }
                                let mut actuals = plan::ScanActuals::default();
                                // Each chunk builds its own executor: the
                                // register file, value stack, and resolution
                                // caches are per-thread state.
                                let mut exec = compiled.map(|prog| ov_query::Scan::new(prog, self));
                                let r = (|| -> ov_query::Result<BTreeSet<Oid>> {
                                    let mut keep = BTreeSet::new();
                                    if let Some(scan) = exec.as_mut() {
                                        for &oid in chunk {
                                            scan.bind(0, Value::Oid(oid));
                                            actuals.rows_scanned += 1;
                                            if ov_query::truthy(&scan.run(0)?) {
                                                actuals.rows_matched += 1;
                                                keep.insert(oid);
                                            }
                                        }
                                        return Ok(keep);
                                    }
                                    let ev = ov_query::Evaluator::new(self);
                                    for &oid in chunk {
                                        actuals.rows_scanned += 1;
                                        let ok = match filter {
                                            None => true,
                                            Some(f) => {
                                                let mut env = ov_query::Env::new();
                                                env.bind(var, Value::Oid(oid));
                                                ov_query::truthy(&ev.eval(f, &mut env)?)
                                            }
                                        };
                                        if ok {
                                            actuals.rows_matched += 1;
                                            keep.insert(oid);
                                        }
                                    }
                                    Ok(keep)
                                })();
                                if let Some(scan) = exec.as_mut() {
                                    actuals.absorb(&scan.take_actuals());
                                }
                                plan::add_actuals(&actuals);
                                r
                            };
                            let (r, a) = ov_oodb::faults::in_scope(fault_scope, || {
                                plan::with_scan_actuals(scan)
                            });
                            for (slot, v) in shared.iter().zip([
                                a.rows_scanned,
                                a.rows_matched,
                                a.cache_hits,
                                a.cache_misses,
                            ]) {
                                slot.fetch_add(v, Ordering::Relaxed);
                            }
                            self.clear_eval_state();
                            r
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| match h.join() {
                        Ok(r) => r,
                        // A panicking chunk becomes a typed per-chunk error
                        // instead of tearing down the coordinator; the worker's
                        // eval state dies with its thread.
                        Err(payload) => Err(QueryError::Panicked {
                            site: "view.scan_chunk",
                            msg: ov_query::panic_message(&payload),
                        }),
                    })
                    .collect()
            });
            plan::add_actuals(&plan::ScanActuals {
                rows_scanned: shared[0].load(Ordering::Relaxed),
                rows_matched: shared[1].load(Ordering::Relaxed),
                cache_hits: shared[2].load(Ordering::Relaxed),
                cache_misses: shared[3].load(Ordering::Relaxed),
                ..Default::default()
            });
            let mut out = BTreeSet::new();
            for r in results {
                out.extend(r?);
            }
            Ok(out)
        });
        plan::record_scan_est(
            plan::ScanKind::Parallel { chunks, engine },
            actuals,
            est_rows,
        );
        result
    }

    fn compute_population(&self, c: ClassId) -> ov_query::Result<BTreeSet<Oid>> {
        // Failpoint: lets the chaos harness fail (or delay, or panic) a
        // recompute as a whole, exercising the retry / stale-serve paths.
        if ov_oodb::faults::enabled() {
            ov_oodb::faults::hit("view.population_recompute").map_err(OodbError::Fault)?;
        }
        let info = self
            .virt
            .read()
            .get(&c)
            .cloned()
            .expect("population requested for non-virtual class");
        let mut out = BTreeSet::new();
        for (idx, inc) in info.includes.iter().enumerate() {
            match inc {
                BoundInclude::Class(ci) => {
                    out.extend(DataSource::extent(self, *ci)?);
                }
                BoundInclude::Query(q) => {
                    // The bind-time compiled membership predicate, unless
                    // `.engine interp` turned the bytecode engine off.
                    let compiled = if ov_query::compiled_enabled() {
                        info.compiled[idx].as_deref()
                    } else {
                        None
                    };
                    // Index pushdown: a specialization query with an
                    // equality conjunct on an indexed stored attribute is
                    // answered from the index instead of scanning the
                    // extent.
                    let est = self.scan_estimate(q);
                    if let Some((candidates, index)) = self.index_candidates(q) {
                        self.bump_stat(Stat::IndexPushdown);
                        let engine = if compiled.is_some() {
                            plan::Engine::Compiled
                        } else {
                            plan::Engine::Interpreted
                        };
                        let var = q.bindings[0].0;
                        let (r, actuals) = plan::with_scan_actuals(|| -> ov_query::Result<()> {
                            let mut actuals = plan::ScanActuals::default();
                            let mut exec = compiled.map(|prog| ov_query::Scan::new(prog, self));
                            let r = (|| -> ov_query::Result<()> {
                                if let Some(scan) = exec.as_mut() {
                                    for &oid in &candidates {
                                        scan.bind(0, Value::Oid(oid));
                                        actuals.rows_scanned += 1;
                                        if ov_query::truthy(&scan.run(0)?) {
                                            actuals.rows_matched += 1;
                                            out.insert(oid);
                                        }
                                    }
                                    return Ok(());
                                }
                                for oid in candidates {
                                    actuals.rows_scanned += 1;
                                    let mut env = ov_query::Env::new();
                                    env.bind(var, Value::Oid(oid));
                                    let keep = match &q.filter {
                                        None => true,
                                        Some(f) => ov_query::truthy(
                                            &ov_query::Evaluator::new(self).eval(f, &mut env)?,
                                        ),
                                    };
                                    if keep {
                                        actuals.rows_matched += 1;
                                        out.insert(oid);
                                    }
                                }
                                Ok(())
                            })();
                            if let Some(scan) = exec.as_mut() {
                                actuals.absorb(&scan.take_actuals());
                            }
                            plan::add_actuals(&actuals);
                            r
                        });
                        plan::record_scan_est(
                            plan::ScanKind::IndexPushdown { index, engine },
                            actuals,
                            est,
                        );
                        r?;
                        continue;
                    }
                    // Parallel scan: a specialization query over a plain
                    // class extent splits across worker threads when the
                    // extent is large enough. Guarded on the binding name
                    // not shadowing a named object, so the collection is
                    // genuinely the class extent the sequential evaluator
                    // would resolve to.
                    if let IncPlan::Filter { class, var, filter } = self.incremental_plan(q) {
                        let Expr::Name(coll_name) = &q.bindings[0].1 else {
                            unreachable!("IncPlan::Filter implies a Name collection")
                        };
                        if !q.the && ov_query::DataSource::named_object(self, *coll_name).is_none()
                        {
                            let extent = DataSource::extent(self, class)?;
                            // Strategy choice: the cost model weighs the
                            // split's fixed overhead against the per-worker
                            // share; planner off keeps the fixed threshold.
                            let split = if ov_query::planner_enabled() {
                                ov_query::planner::choose_split(
                                    extent.len(),
                                    self.parallel.workers_for(extent.len()),
                                    self.parallel.threshold,
                                )
                            } else {
                                self.parallel.should_split(extent.len())
                            };
                            if split
                                && self.parallel_strikes.load(Ordering::Relaxed)
                                    < PARALLEL_STRIKE_LIMIT
                            {
                                self.bump_stat(Stat::ParallelScan);
                                match self.parallel_filter(
                                    &extent,
                                    var,
                                    filter.as_ref(),
                                    compiled,
                                    est,
                                ) {
                                    Ok(set) => {
                                        self.parallel_strikes.store(0, Ordering::Relaxed);
                                        out.extend(set);
                                        continue;
                                    }
                                    // Chunk faults and panics degrade to the
                                    // sequential scan below; enough strikes
                                    // in a row trip the breaker and the view
                                    // stops splitting scans. Budget breaches
                                    // propagate — a sequential retry would
                                    // breach the same shared counters.
                                    Err(e)
                                        if e.is_transient()
                                            || matches!(e, QueryError::Panicked { .. }) =>
                                    {
                                        let strikes =
                                            self.parallel_strikes.fetch_add(1, Ordering::Relaxed)
                                                + 1;
                                        self.bump_stat(Stat::SeqFallback);
                                        let _s = ov_oodb::span!(
                                            "view.seq_fallback",
                                            strikes = strikes as usize
                                        );
                                    }
                                    Err(e) => return Err(e),
                                }
                            }
                            // Compiled sequential scan: same rows, budget
                            // steps, and errors as the `eval_select` below,
                            // minus the per-row tree walk and Env clones.
                            if let Some(prog) = compiled {
                                let (r, actuals) = plan::with_scan_actuals(
                                    || -> ov_query::Result<BTreeSet<Oid>> {
                                        let mut actuals = plan::ScanActuals::default();
                                        let mut scan = ov_query::Scan::new(prog, self);
                                        let r = (|| -> ov_query::Result<BTreeSet<Oid>> {
                                            let budget = ov_query::budget::current();
                                            // One node entry for the collection name,
                                            // then per row the filter and (on keep) the
                                            // projection node — the tree walker's exact
                                            // accounting.
                                            scan.step(1)?;
                                            let mut kept = BTreeSet::new();
                                            for &oid in &extent {
                                                scan.bind(0, Value::Oid(oid));
                                                actuals.rows_scanned += 1;
                                                if ov_query::truthy(&scan.run(1)?) {
                                                    actuals.rows_matched += 1;
                                                    scan.step(1)?;
                                                    if kept.insert(oid) {
                                                        if let Some(b) = &budget {
                                                            b.note_rows(1)?;
                                                        }
                                                    }
                                                }
                                            }
                                            Ok(kept)
                                        })();
                                        actuals.absorb(&scan.take_actuals());
                                        plan::add_actuals(&actuals);
                                        r
                                    },
                                );
                                plan::record_scan_est(
                                    plan::ScanKind::Sequential {
                                        engine: plan::Engine::Compiled,
                                    },
                                    actuals,
                                    est,
                                );
                                out.extend(r?);
                                continue;
                            }
                        }
                    }
                    let (r, actuals) = plan::with_scan_actuals(|| eval_select(self, q));
                    plan::record_scan_est(
                        plan::ScanKind::Sequential {
                            engine: plan::Engine::Interpreted,
                        },
                        actuals,
                        est,
                    );
                    let v = r?;
                    let Value::Set(items) = v else {
                        unreachable!("select returns a set")
                    };
                    for item in items {
                        match item {
                            Value::Oid(o) => {
                                out.insert(o);
                            }
                            Value::Null => {}
                            other => {
                                let name = self.schema.read().class(c).name;
                                return Err(ViewError::NonObjectPopulation {
                                    class: name,
                                    found: other.kind().to_string(),
                                }
                                .into());
                            }
                        }
                    }
                }
                BoundInclude::Like { spec } => {
                    // Re-scan: classes defined after this one are admitted
                    // automatically.
                    let populating = self.with_eval(|s| s.populating.clone());
                    let matches: Vec<ClassId> = {
                        let schema = self.schema.read();
                        schema
                            .classes()
                            .filter(|cl| {
                                cl.id != c
                                    && !self.is_hidden_class(cl.id)
                                    && !populating.contains(&cl.id)
                                    && conforms_to(&schema, cl.id, *spec)
                            })
                            .map(|cl| cl.id)
                            .collect()
                    };
                    for m in matches {
                        out.extend(DataSource::extent(self, m)?);
                    }
                }
                BoundInclude::Imaginary(q) => {
                    let v = eval_select(self, q)?;
                    let Value::Set(items) = v else {
                        unreachable!("select returns a set")
                    };
                    for item in items {
                        match item {
                            Value::Tuple(t) => {
                                out.insert(self.imaginary_oid(c, t));
                            }
                            other => {
                                let name = self.schema.read().class(c).name;
                                return Err(ViewError::NonTuplePopulation {
                                    class: name,
                                    found: other.kind().to_string(),
                                }
                                .into());
                            }
                        }
                    }
                }
            }
        }
        Ok(out)
    }

    /// If `q` is a canonical specialization query with an equality
    /// conjunct `var.A = literal` that [`DataSource::indexed_lookup`] can
    /// serve, returns the candidate oids together with the index's
    /// `Class.Attr` label (the full filter is still applied by the caller).
    /// Queries and populations share that one hide/import/purity rule.
    fn index_candidates(&self, q: &SelectExpr) -> Option<(Vec<Oid>, String)> {
        let [(var, Expr::Name(class_name))] = q.bindings.as_slice() else {
            return None;
        };
        if *q.proj != Expr::Name(*var) {
            return None;
        }
        let class = self.lookup_class(*class_name)?;
        let (attr, value) = ov_query::planner::conjuncts(q.filter.as_deref()?)
            .into_iter()
            .find_map(|leg| ov_query::planner::eq_conjunct(leg, *var))?;
        // Cost-based veto: on a low-NDV attribute each index posting list
        // is a large fraction of the extent, so probing the index and then
        // re-filtering loses to the straight compiled scan. Unmeasured
        // attributes keep the historical pushdown-always behavior.
        if ov_query::planner_enabled() && !ov_query::planner::index_worthwhile(*class_name, attr) {
            return None;
        }
        let candidates = DataSource::indexed_lookup(self, class, attr, value)?;
        Some((candidates, format!("{class_name}.{attr}")))
    }

    /// Maps a core tuple to its imaginary oid (§5.1): "there could be a
    /// table giving the mapping between the tuples and oid's. In this way,
    /// we are guaranteed that the same tuple will be assigned the same oid
    /// each time the class C is invoked. (Note that a tuple will generate a
    /// different oid when used in a different class.)"
    fn imaginary_oid(&self, class: ClassId, core: Tuple) -> Oid {
        if self.identity_mode == IdentityMode::Table {
            // Resolve the durable class *name* before the identity lock:
            // names are the durable key (ids are rebuilt per bind), and
            // taking the schema lock later would invert lock orders.
            let durable_name = if self.durable.is_empty() {
                None
            } else {
                Some(self.schema.read().class(class).name)
            };
            // Check-and-assign under one write lock: two threads mapping
            // the same tuple concurrently must agree on its oid.
            let mut identity = self.identity.write();
            let table = identity.entry(class).or_default();
            if let Some(&oid) = table.get(&core) {
                return oid;
            }
            let oid = Oid(self.next_imaginary.fetch_add(1, Ordering::Relaxed));
            table.insert(core.clone(), oid);
            drop(identity);
            self.imaginary.write().insert(
                oid,
                ImaginaryObject {
                    class,
                    core: core.clone(),
                },
            );
            // Only the winning assignment reaches the WAL; losers returned
            // early above. Logging happens outside every lock.
            if let Some(name) = durable_name {
                for d in &self.durable {
                    d.log_identity_assign(self.name, name, core.clone(), oid);
                }
            }
            oid
        } else {
            let oid = Oid(self.next_imaginary.fetch_add(1, Ordering::Relaxed));
            self.imaginary
                .write()
                .insert(oid, ImaginaryObject { class, core });
            oid
        }
    }

    /// The core attribute names of a named imaginary class (§5), sorted.
    pub fn core_attrs(&self, name: Symbol) -> Option<Vec<Symbol>> {
        let c = self.lookup_class(name)?;
        match self.kinds.read().get(&c) {
            Some(ClassKind::Imaginary { core }) => Some(core.clone()),
            _ => None,
        }
    }

    /// Garbage-collects the identity table of imaginary class `name`:
    /// entries whose core tuple is no longer produced by the population
    /// query are dropped (with their cached imaginary objects). Live
    /// entries keep their oids.
    ///
    /// DECISION: the paper keeps the table abstract ("there could be a
    /// table giving the mapping"); unbounded growth under churn (Example 6)
    /// is real, so we expose collection as an explicit, user-invoked
    /// choice — collecting implicitly would *change identity semantics*
    /// for tuples that disappear and later reappear.
    ///
    /// Returns the number of entries removed.
    pub fn gc_identity(&self, name: Symbol) -> Result<usize> {
        let class = self
            .lookup_class(name)
            .ok_or(OodbError::UnknownClass(name))?;
        // Force a fresh population so the live-oid set is current.
        let live = self.population(class).map_err(ViewError::from)?;
        let mut identity = self.identity.write();
        let Some(table) = identity.get_mut(&class) else {
            return Ok(0);
        };
        let dead: Vec<(Tuple, Oid)> = table
            .iter()
            .filter(|(_, o)| !live.contains(o))
            .map(|(t, o)| (t.clone(), *o))
            .collect();
        table.retain(|_, oid| live.contains(oid));
        let mut imaginary = self.imaginary.write();
        for (_, o) in &dead {
            imaginary.remove(o);
        }
        drop(imaginary);
        drop(identity);
        if !self.durable.is_empty() && !dead.is_empty() {
            let class_name = self.schema.read().class(class).name;
            for (tuple, _) in &dead {
                for d in &self.durable {
                    d.log_identity_drop(self.name, class_name, tuple);
                }
            }
        }
        Ok(dead.len())
    }

    /// Number of identity-table entries for a named imaginary class
    /// (observability for tests and benchmarks).
    pub fn identity_table_len(&self, name: Symbol) -> usize {
        let Some(c) = self.lookup_class(name) else {
            return 0;
        };
        self.identity.read().get(&c).map_or(0, |t| t.len())
    }

    // ------------------------------------------------------------------
    // Object-level plumbing
    // ------------------------------------------------------------------

    /// The view class an object presents as: its imaginary class, or its
    /// real class mapped through the imports. Errors if the class was not
    /// imported.
    fn view_class_of(&self, oid: Oid) -> ov_query::Result<ClassId> {
        if let Some(im) = self.imaginary.read().get(&oid) {
            return Ok(im.class);
        }
        for (idx, handle) in self.sources.iter().enumerate() {
            let db = handle.read();
            if let Some(obj) = db.store.get(oid) {
                return self.import_maps[idx]
                    .get(&obj.class)
                    .copied()
                    .ok_or_else(|| ViewError::NotVisible(oid).into());
            }
        }
        Err(QueryError::from(OodbError::UnknownObject(oid)))
    }

    /// The nearest visible ancestors of a hidden class: the classes its
    /// objects present under outside the view's own definitions. Empty
    /// when every ancestor is hidden too.
    fn visible_ancestors(&self, schema: &Schema, c: ClassId) -> Vec<ClassId> {
        let mut visible: Vec<ClassId> = schema
            .ancestors(c)
            .into_iter()
            .filter(|&a| !self.is_hidden_class(a))
            .collect();
        let all = visible.clone();
        visible.retain(|&a| !all.iter().any(|&b| b != a && schema.is_subclass(b, a)));
        visible
    }

    /// The class whose definition of `name` resolution picks when it starts
    /// from `roots`: the minimal visible, non-abstract definitions across
    /// the roots' ancestors, with conflicts settled by the view's policy.
    fn defining_class(
        &self,
        schema: &Schema,
        roots: &[ClassId],
        name: Symbol,
    ) -> ov_query::Result<ClassId> {
        let mut defining: Vec<ClassId> = Vec::new();
        for &root in roots {
            for anc in ClassGraph::ancestors(schema, root) {
                if let Some(def) = schema.class(anc).own_attr(name) {
                    if !def.is_abstract() && !self.is_hidden_attr(anc, name, schema) {
                        defining.push(anc);
                    }
                }
            }
        }
        defining.sort();
        defining.dedup();
        if defining.is_empty() {
            return Err(QueryError::from(OodbError::UnknownAttr {
                class: schema.class(roots[0]).name,
                attr: name,
            }));
        }
        let minimal: Vec<ClassId> = defining
            .iter()
            .copied()
            .filter(|&c| !defining.iter().any(|&d| d != c && schema.is_subclass(d, c)))
            .collect();
        Ok(match minimal.as_slice() {
            [one] => *one,
            several => match &self.policy {
                ConflictPolicy::Error => {
                    return Err(QueryError::from(OodbError::Schizophrenia {
                        class: schema.class(roots[0]).name,
                        attr: name,
                        defined_in: several.iter().map(|&c| schema.class(c).name).collect(),
                    }))
                }
                ConflictPolicy::CreationOrder => several[0],
                ConflictPolicy::Priority(order) => order
                    .iter()
                    .find_map(|n| {
                        let id = schema.class_by_name(*n)?;
                        several.contains(&id).then_some(id)
                    })
                    .unwrap_or(several[0]),
            },
        })
    }

    /// All classes from which attribute resolution may start for `oid`:
    /// its presented class (or nearest visible ancestors if that class is
    /// hidden) plus every virtual class whose population contains it.
    pub(crate) fn membership_roots(
        &self,
        oid: Oid,
        relevant_to: Option<Symbol>,
    ) -> ov_query::Result<Vec<ClassId>> {
        let base = self.view_class_of(oid)?;
        let mut roots: Vec<ClassId> = if self.is_hidden_class(base) && self.body_depth() == 0 {
            let visible = self.visible_ancestors(&self.schema.read(), base);
            if visible.is_empty() {
                return Err(ViewError::NotVisible(oid).into());
            }
            visible
        } else {
            vec![base]
        };
        // Virtual memberships (overlapping classes, §4.2). Classes being
        // populated right now are skipped — an attribute defined on a class
        // cannot be used inside that class's own population query. Classes
        // that cannot possibly define `relevant_to` are skipped without
        // populating them: membership only matters to resolution when some
        // ancestor actually provides a definition, and skipping the rest
        // avoids both wasted work and spurious population cycles.
        let populating = self.with_eval(|s| s.populating.clone());
        let candidates: Vec<ClassId> = {
            let virt = self.virt.read();
            let schema = self.schema.read();
            // Definitions already reachable through the base roots: a
            // virtual membership is only *relevant* to resolving `attr` if
            // it contributes a definition the base chain does not.
            let base_defs: HashSet<ClassId> = match relevant_to {
                None => HashSet::new(),
                Some(_) => roots
                    .iter()
                    .flat_map(|&r| ClassGraph::ancestors(&*schema, r))
                    .collect(),
            };
            virt.keys()
                .copied()
                .filter(|v| !populating.contains(v) && !roots.contains(v))
                .filter(|&v| match relevant_to {
                    None => true,
                    Some(attr) => ClassGraph::ancestors(&*schema, v).iter().any(|&a| {
                        !base_defs.contains(&a)
                            && schema
                                .class(a)
                                .own_attr(attr)
                                .is_some_and(|d| !d.is_abstract())
                    }),
                })
                .collect()
        };
        for v in candidates {
            if self.population(v)?.contains(&oid) {
                roots.push(v);
            }
        }
        roots.sort();
        roots.dedup();
        Ok(roots)
    }

    // ------------------------------------------------------------------
    // Updates through the view
    // ------------------------------------------------------------------

    /// Creates an object through the view. Rejected for virtual and
    /// imaginary classes ("it is not possible for a user to insert an
    /// object directly into a virtual class", §4.1); imported classes
    /// delegate to their source database.
    pub fn insert(&self, class: Symbol, value: Value) -> Result<Oid> {
        let c = self
            .lookup_class(class)
            .ok_or(OodbError::UnknownClass(class))?;
        let kind = self.kinds.read().get(&c).cloned();
        match kind {
            Some(ClassKind::Imported { source, orig }) => {
                let mut db = self.sources[source].write();
                Ok(db.create_object(orig, value)?)
            }
            Some(ClassKind::Virtual) | Some(ClassKind::Imaginary { .. }) => {
                Err(ViewError::VirtualInsert(class))
            }
            None => Err(OodbError::UnknownClass(class).into()),
        }
    }

    /// Updates a stored attribute through the view. Hidden attributes are
    /// not assignable; imaginary objects' core attributes are immutable
    /// (§5.1).
    pub fn update_attr(&self, oid: Oid, attr: Symbol, value: Value) -> Result<()> {
        if let Some(im) = self.imaginary.read().get(&oid) {
            let class = self.schema.read().class(im.class).name;
            return Err(ViewError::CoreAttrUpdate { class, attr });
        }
        let view_class = self.view_class_of(oid).map_err(ViewError::from)?;
        let schema = self.schema.read();
        match schema.visible_attrs(view_class).get(&attr) {
            Some((def_in, def)) => {
                if self.is_hidden_attr(*def_in, attr, &schema) {
                    return Err(ViewError::HiddenAttr {
                        class: schema.class(view_class).name,
                        attr,
                    });
                }
                // A computed definition shadows any stored base attribute
                // of the same name; forwarding the write would store a
                // base value the view never reads back.
                if !def.is_stored() {
                    return Err(ViewError::ComputedAttrUpdate {
                        class: schema.class(view_class).name,
                        attr,
                    });
                }
            }
            None => {
                // The attribute has no visible definition here — but the
                // write still reaches the base store below, so a hide must
                // still block it. Without a definition site to test
                // precisely, fall back to the subclass-closed name check
                // (§3: a hide in C covers C and all its subclasses): any
                // hide whose root is related to `view_class` suppresses
                // the name along this object's resolution chain.
                if self.body_depth() == 0
                    && self.hidden_attrs.iter().any(|&(c, a)| {
                        a == attr
                            && (schema.is_subclass(view_class, c)
                                || schema.is_subclass(c, view_class))
                    })
                {
                    return Err(ViewError::HiddenAttr {
                        class: schema.class(view_class).name,
                        attr,
                    });
                }
            }
        }
        drop(schema);
        for handle in &self.sources {
            let mut db = handle.write();
            if db.store.get(oid).is_some() {
                return Ok(db.set_attr(oid, attr, value)?);
            }
        }
        Err(OodbError::UnknownObject(oid).into())
    }

    /// Deletes a base object through the view. Identity-table entries whose
    /// core tuple references the deleted oid are swept immediately: under
    /// [`IdentityMode::Table`] a stale entry would otherwise resurrect its
    /// imaginary oid from a dead tuple if an equal tuple ever reappeared.
    pub fn delete(&self, oid: Oid) -> Result<()> {
        if let Some(im) = self.imaginary.read().get(&oid) {
            let class = self.schema.read().class(im.class).name;
            return Err(ViewError::ImaginaryUpdate(class));
        }
        for handle in &self.sources {
            let mut db = handle.write();
            if db.store.get(oid).is_some() {
                db.delete_object(oid)?;
                drop(db);
                self.purge_dead_identity(oid);
                return Ok(());
            }
        }
        Err(OodbError::UnknownObject(oid).into())
    }

    /// Drops every identity-table entry whose core tuple references `dead`
    /// (with its cached imaginary object). Lock order identity → imaginary,
    /// matching [`Self::gc_identity`] and [`Self::imaginary_oid`].
    fn purge_dead_identity(&self, dead: Oid) {
        let mut purged: Vec<(ClassId, Tuple, Oid)> = Vec::new();
        let mut identity = self.identity.write();
        for (&class, table) in identity.iter_mut() {
            table.retain(|tuple, &mut im_oid| {
                let mut refs = Vec::new();
                for (_, v) in tuple.iter() {
                    v.collect_oids(&mut refs);
                }
                if refs.contains(&dead) {
                    purged.push((class, tuple.clone(), im_oid));
                    false
                } else {
                    true
                }
            });
        }
        let mut imaginary = self.imaginary.write();
        for (_, _, o) in &purged {
            imaginary.remove(o);
        }
        drop(imaginary);
        drop(identity);
        if !purged.is_empty() {
            ov_oodb::metric_counter!("views.identity_purged").add(purged.len() as u64);
            if !self.durable.is_empty() {
                let schema = self.schema.read();
                for (class, tuple, _) in &purged {
                    let class_name = schema.class(*class).name;
                    for d in &self.durable {
                        d.log_identity_drop(self.name, class_name, tuple);
                    }
                }
            }
        }
    }

    /// Re-seats identity assignments persisted by an earlier incarnation
    /// of this view (recovered by the sources' durability cores): each
    /// durable `(class name, core tuple) → oid` entry whose class is still
    /// an imaginary class of this view is installed in the in-memory
    /// tables, and the imaginary-oid allocator starts above every
    /// recovered oid. Called once at the end of bind.
    fn adopt_durable_identity(&self) {
        if self.durable.is_empty() {
            return;
        }
        let schema = self.schema.read();
        let kinds = self.kinds.read();
        let mut identity = self.identity.write();
        let mut imaginary = self.imaginary.write();
        let mut floor = IMAGINARY_OID_BASE;
        let mut adopted = 0u64;
        for core in &self.durable {
            floor = floor.max(core.next_imaginary());
            for (class_name, tuple, oid) in core.identity_for_view(self.name) {
                let Some(cid) = schema.class_by_name(class_name) else {
                    continue; // class no longer in the view definition
                };
                if !matches!(kinds.get(&cid), Some(ClassKind::Imaginary { .. })) {
                    continue;
                }
                let table = identity.entry(cid).or_default();
                if table.contains_key(&tuple) {
                    continue;
                }
                table.insert(tuple.clone(), oid);
                imaginary.insert(
                    oid,
                    ImaginaryObject {
                        class: cid,
                        core: tuple,
                    },
                );
                floor = floor.max(oid.0 + 1);
                adopted += 1;
            }
        }
        self.next_imaginary.fetch_max(floor, Ordering::Relaxed);
        if adopted > 0 {
            ov_oodb::metric_counter!("views.identity_adopted").add(adopted);
        }
    }

    /// Instantiates a parameterized class (`Resident("France")`), creating
    /// and caching the instance class on first use (§4.1: "classes
    /// automatically disappear or are created").
    pub fn instantiate(&self, name: Symbol, args: &[Value]) -> Result<ClassId> {
        let template = self
            .templates
            .get(&name)
            .ok_or(OodbError::UnknownClass(name))?;
        if template.params.len() != args.len() {
            return Err(ViewError::ParamArity {
                class: name,
                expected: template.params.len(),
                got: args.len(),
            });
        }
        let key = (name, args.to_vec());
        // Hold the write lock across the check *and* the definition:
        // two threads instantiating `Adult(18)` concurrently must not both
        // define the synthesized class. Lock order is instances → schema;
        // nothing acquires `instances` while holding the schema lock.
        let mut instances = self.instances.write();
        if let Some(&c) = instances.get(&key) {
            return Ok(c);
        }
        // Substitute parameters by value and define as a regular virtual
        // class under a synthesized name.
        let params = template.params.clone();
        let substituted: Vec<IncludeSpec> = template
            .includes
            .iter()
            .map(|inc| substitute_include(inc, &params, args))
            .collect();
        let mut instance_name = format!("{name}(");
        for (i, a) in args.iter().enumerate() {
            if i > 0 {
                instance_name.push_str(", ");
            }
            instance_name.push_str(&a.to_string());
        }
        instance_name.push(')');
        let class = self.define_virtual_class(Symbol::new(&instance_name), &substituted)?;
        instances.insert(key, class);
        // The schema grew: `Param(x)` names now resolve where they didn't,
        // so any warm compiled-scan resolution caches must be refreshed.
        self.res_gen.fetch_add(1, Ordering::Release);
        Ok(class)
    }
}

/// Rewrites parameter references to literal values inside an include spec.
fn substitute_include(inc: &IncludeSpec, params: &[Symbol], args: &[Value]) -> IncludeSpec {
    let subst = |e: &Expr| -> Option<Expr> {
        if let Expr::Name(n) = e {
            if let Some(i) = params.iter().position(|p| p == n) {
                return Some(Expr::Lit(args[i].clone()));
            }
        }
        None
    };
    match inc {
        IncludeSpec::Query(q) => IncludeSpec::Query(ov_query::map_select(q, &mut { subst })),
        IncludeSpec::Imaginary(q) => {
            IncludeSpec::Imaginary(ov_query::map_select(q, &mut { subst }))
        }
        other => other.clone(),
    }
}

/// Rewrites class references in a type through an import map; unimported
/// classes degrade to `any`.
fn remap_type(ty: &Type, map: &HashMap<ClassId, ClassId>) -> Type {
    match ty {
        Type::Class(c) => match map.get(c) {
            Some(v) => Type::Class(*v),
            None => Type::Any,
        },
        Type::Tuple(fields) => Type::Tuple(
            fields
                .iter()
                .map(|(n, t)| (*n, remap_type(t, map)))
                .collect(),
        ),
        Type::Set(t) => Type::set(remap_type(t, map)),
        Type::List(t) => Type::list(remap_type(t, map)),
        other => other.clone(),
    }
}

// ----------------------------------------------------------------------
// DataSource: the view *is* a database to the query layer.
// ----------------------------------------------------------------------

impl DataSource for View {
    fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        self.lookup_class(name)
    }

    fn class_name(&self, c: ClassId) -> Symbol {
        self.schema.read().class(c).name
    }

    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.schema.read().is_subclass(sub, sup)
    }

    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        ClassGraph::ancestors(&*self.schema.read(), c)
    }

    fn class_of(&self, oid: Oid) -> ov_query::Result<ClassId> {
        let c = self.view_class_of(oid)?;
        if self.is_hidden_class(c) {
            // Present the object under its nearest visible ancestor.
            self.visible_ancestors(&self.schema.read(), c)
                .first()
                .copied()
                .ok_or_else(|| ViewError::NotVisible(oid).into())
        } else {
            Ok(c)
        }
    }

    fn extent(&self, class: ClassId) -> ov_query::Result<Vec<Oid>> {
        let kind = self.kinds.read().get(&class).cloned();
        match kind {
            Some(ClassKind::Virtual) | Some(ClassKind::Imaginary { .. }) => {
                Ok(self.population(class)?.iter().copied().collect())
            }
            Some(ClassKind::Imported { .. }) | None => {
                // Union of the source extents of all imported descendants.
                // Virtual descendants are provably redundant here: their
                // populations are drawn from classes already below `class`.
                let descendants: Vec<ClassId> = {
                    let schema = self.schema.read();
                    let mut d = vec![class];
                    d.extend(schema.strict_descendants(class));
                    d
                };
                let mut out = Vec::new();
                let kinds = self.kinds.read();
                for d in descendants {
                    if let Some(ClassKind::Imported { source, orig }) = kinds.get(&d) {
                        let db = self.sources[*source].read();
                        out.extend(db.store.extent(*orig));
                    }
                }
                // Oid order, each oid once: sorting the concatenated
                // extents is cheaper than building an ordered set.
                out.sort_unstable();
                out.dedup();
                Ok(out)
            }
        }
    }

    fn is_member(&self, oid: Oid, class: ClassId) -> ov_query::Result<bool> {
        let vc = match self.view_class_of(oid) {
            Ok(c) => c,
            Err(_) => return Ok(false),
        };
        if self.schema.read().is_subclass(vc, class) {
            return Ok(true);
        }
        // Membership through an overlapping virtual class below `class`,
        // skipping classes whose population reads one being populated.
        let populating = self.with_eval(|s| s.populating.clone());
        let mut candidates: Vec<ClassId> = {
            let virt = self.virt.read();
            let schema = self.schema.read();
            virt.keys()
                .copied()
                .filter(|&v| !populating.contains(&v) && schema.is_subclass(v, class))
                .collect()
        };
        if !populating.is_empty() {
            candidates.retain(|&v| !self.population_reads_any(v, &populating));
        }
        for v in candidates {
            if self.population(v)?.contains(&oid) {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn resolve(&self, oid: Oid, name: Symbol) -> ov_query::Result<ResolvedAttr> {
        // Hide-resolution happens here: hidden definitions are filtered
        // from the candidate set below, so the span covers the full
        // membership + upward-resolution walk.
        let _span = ov_oodb::span!("view.resolve", attr = name);
        let roots = self.membership_roots(oid, Some(name))?;
        let schema = self.schema.read();
        let chosen = self.defining_class(&schema, &roots, name)?;
        let def = schema.class(chosen).own_attr(name).expect("defines it");
        Ok(match &def.body {
            AttrBody::Stored => ResolvedAttr::Stored,
            AttrBody::Computed(body) => ResolvedAttr::Computed {
                params: def.sig.params.iter().map(|(p, _)| *p).collect(),
                body: body.clone(),
            },
            AttrBody::Abstract => unreachable!("abstract defs filtered above"),
        })
    }

    fn stored_field(&self, oid: Oid, name: Symbol) -> ov_query::Result<Value> {
        if let Some(im) = self.imaginary.read().get(&oid) {
            return Ok(im.core.get(name).cloned().unwrap_or(Value::Null));
        }
        for handle in &self.sources {
            let db = handle.read();
            if let Some(obj) = db.store.get(oid) {
                return Ok(obj.value.get(name).cloned().unwrap_or(Value::Null));
            }
        }
        Err(QueryError::from(OodbError::UnknownObject(oid)))
    }

    fn resolution_class(&self, oid: Oid) -> Option<ClassId> {
        // The *raw* presented class, not `class_of`: hidden classes map to
        // visible ancestors only at body depth 0, so two oids of one hidden
        // class must not share a cache key with oids of the ancestor.
        self.view_class_of(oid).ok()
    }

    fn resolution_class_and_field(&self, oid: Oid, name: Symbol) -> Option<(ClassId, Value)> {
        // Fused `resolution_class` + `stored_field`: one lookup instead of
        // two, which matters at a lock acquisition and a hash lookup per
        // scanned row. Imaginary and stored oids come from disjoint
        // ranges, so only the table the oid's range names is locked.
        if oid.is_imaginary() {
            let imaginary = self.imaginary.read();
            let im = imaginary.get(&oid)?;
            return Some((im.class, im.core.get(name).cloned().unwrap_or(Value::Null)));
        }
        for (idx, handle) in self.sources.iter().enumerate() {
            let db = handle.read();
            if let Some(obj) = db.store.get(oid) {
                let class = self.import_maps[idx].get(&obj.class).copied()?;
                return Some((class, obj.value.get(name).cloned().unwrap_or(Value::Null)));
            }
        }
        None
    }

    fn resolution_generation(&self) -> u64 {
        self.res_gen.load(Ordering::Acquire)
    }

    fn resolution_is_class_pure(&self, class: ClassId, name: Symbol) -> bool {
        // Mirrors `membership_roots`: resolving `name` is a pure function
        // of the class only when no virtual class could contribute a
        // *relevant* definition — otherwise membership in that class's
        // population makes resolution per-object, and the per-class cache
        // would conflate members with non-members. A template instantiated
        // mid-scan adds a virtual class this verdict did not see; it also
        // bumps `res_gen`, which drops every cached verdict.
        let populating = self.with_eval(|s| s.populating.clone());
        let schema = self.schema.read();
        let roots: Vec<ClassId> = if self.is_hidden_class(class) && self.body_depth() == 0 {
            let visible = self.visible_ancestors(&schema, class);
            if visible.is_empty() {
                // `resolve` errors for every such object; don't cache that.
                return false;
            }
            visible
        } else {
            vec![class]
        };
        let base_defs: HashSet<ClassId> = roots
            .iter()
            .flat_map(|&r| ClassGraph::ancestors(&*schema, r))
            .collect();
        let virt = self.virt.read();
        !virt.keys().copied().any(|v| {
            !populating.contains(&v)
                && !roots.contains(&v)
                && ClassGraph::ancestors(&*schema, v).iter().any(|&a| {
                    !base_defs.contains(&a)
                        && schema
                            .class(a)
                            .own_attr(name)
                            .is_some_and(|d| !d.is_abstract())
                })
        })
    }

    fn indexed_lookup(&self, class: ClassId, attr: Symbol, value: &Value) -> Option<Vec<Oid>> {
        // The source indexes hold raw stored fields, so they answer for the
        // view only where every object of the deep extent resolves `attr`
        // to that field: no hide touches it (hides bind outside the view's
        // own definitions, as in `is_hidden_attr`), and each class of the
        // subtree resolves it, class-purely, to a stored definition. Any
        // doubt returns `None` and the caller scans, reproducing whatever
        // the per-object resolution does. Virtual and imaginary classes have
        // no index; below an imported class, virtual descendants draw their
        // members from imported classes already in the subtree (see
        // `extent`), so only the imported ones are probed.
        if matches!(
            self.kinds.read().get(&class),
            Some(ClassKind::Virtual | ClassKind::Imaginary { .. })
        ) {
            return None;
        }
        let imported: Vec<(ClassId, usize, ClassId)> = {
            let schema = self.schema.read();
            let mut subtree = vec![class];
            subtree.extend(schema.strict_descendants(class));
            if self.body_depth() == 0
                && (self.hidden_attrs.iter().any(|&(_, a)| a == attr)
                    || subtree.iter().any(|&d| self.is_hidden_class(d)))
            {
                return None;
            }
            let kinds = self.kinds.read();
            let mut imported = Vec::new();
            for d in subtree {
                if let Some(&ClassKind::Imported { source, orig }) = kinds.get(&d) {
                    let def_in = self.defining_class(&schema, &[d], attr).ok()?;
                    let stored = schema
                        .class(def_in)
                        .own_attr(attr)
                        .is_some_and(|def| matches!(def.body, AttrBody::Stored));
                    if !stored {
                        return None;
                    }
                    imported.push((d, source, orig));
                }
            }
            imported
        };
        let mut out = Vec::new();
        for (d, source, orig) in imported {
            if !self.resolution_is_class_pure(d, attr) {
                return None;
            }
            out.extend(
                self.sources[source]
                    .read()
                    .store
                    .index_lookup(orig, attr, value)?,
            );
        }
        out.sort();
        out.dedup();
        Some(out)
    }

    fn named_object(&self, name: Symbol) -> Option<Oid> {
        self.sources.iter().find_map(|h| h.read().named(name).ok())
    }

    fn object_exists(&self, oid: Oid) -> bool {
        self.imaginary.read().contains_key(&oid)
            || self
                .sources
                .iter()
                .any(|h| h.read().store.get(oid).is_some())
    }

    fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<AttrSig> {
        let schema = self.schema.read();
        let (def_in, def) = *schema.visible_attrs(c).get(&name)?;
        if self.is_hidden_attr(def_in, name, &schema) {
            return None;
        }
        Some(def.sig.clone())
    }

    fn class_type(&self, c: ClassId) -> Type {
        let schema = self.schema.read();
        let fields = schema
            .visible_attrs(c)
            .into_iter()
            .filter(|(n, (def_in, def))| {
                def.sig.params.is_empty() && !self.is_hidden_attr(*def_in, *n, &schema)
            })
            .map(|(n, (_, def))| (n, def.sig.ty.clone()))
            .collect();
        Type::Tuple(fields)
    }

    fn apply(&self, name: Symbol, args: &[Value]) -> ov_query::Result<Value> {
        let class = self.instantiate(name, args)?;
        let oids = DataSource::extent(self, class)?;
        Ok(Value::Set(oids.into_iter().map(Value::Oid).collect()))
    }

    fn enter_body(&self) {
        self.with_eval(|s| s.body_depth += 1);
    }

    fn exit_body(&self) {
        self.with_eval(|s| s.body_depth = s.body_depth.saturating_sub(1));
    }

    fn apply_type(&self, name: Symbol, args: &[Type]) -> ov_query::Result<Type> {
        let template = self
            .templates
            .get(&name)
            .ok_or_else(|| QueryError::ty(format!("`{name}` is not a parameterized class")))?;
        if template.params.len() != args.len() {
            return Err(ViewError::ParamArity {
                class: name,
                expected: template.params.len(),
                got: args.len(),
            }
            .into());
        }
        // The instance class depends on argument *values*, unknown
        // statically; members are objects of unknowable class.
        Ok(Type::set(Type::Any))
    }
}
