//! The `DataSource` abstraction.
//!
//! The paper's first design principle: "A view should be treated as a
//! database" (§6). Operationally that means the *same* evaluator and type
//! checker must run against a base [`Database`] and against a view. This
//! trait is the seam: it exposes exactly the primitives the language layer
//! needs — class lookup, extents, membership, attribute resolution, stored
//! field access — and both `ov_oodb::Database` and `ov_views::View`
//! implement it.

use ov_oodb::{
    resolve_attr, AttrBody, AttrSig, ClassId, ConflictPolicy, Database, Expr, Oid, OodbError,
    Resolution, Symbol, Type, Value,
};

use crate::error::{QueryError, Result};

/// How an attribute, once resolved for a given object, is to be obtained.
#[derive(Clone, Debug)]
pub enum ResolvedAttr {
    /// Read the object's stored tuple field of the same name.
    Stored,
    /// Evaluate `body` with `self` bound to the object and `params` bound to
    /// the call arguments.
    Computed {
        /// Parameter names to bind, in order.
        params: Vec<Symbol>,
        /// The body expression.
        body: Expr,
    },
}

/// A queryable source of objects: a database or a view.
///
/// Extents are *deep* (a class denotes objects real in it or any subclass),
/// matching the paper's query semantics.
pub trait DataSource {
    /// Resolves a class name.
    fn class_by_name(&self, name: Symbol) -> Option<ClassId>;

    /// The name of class `c`.
    fn class_name(&self, c: ClassId) -> Symbol;

    /// Is `sub` a subclass of (or equal to) `sup`?
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool;

    /// All superclasses of `c`, including `c` itself (used by type bounds).
    fn ancestors(&self, c: ClassId) -> Vec<ClassId>;

    /// The class an object belongs to, for typing purposes: its real class
    /// in a database; in a view, the class the view presents it under.
    fn class_of(&self, oid: Oid) -> Result<ClassId>;

    /// The deep extent of `class`, in oid order.
    fn extent(&self, class: ClassId) -> Result<Vec<Oid>>;

    /// Is `oid` a (possibly virtual, possibly view-derived) member of
    /// `class`?
    fn is_member(&self, oid: Oid, class: ClassId) -> Result<bool>;

    /// Resolves attribute `name` for the specific object `oid` (using its
    /// real class, the hierarchy, and — in views — virtual class
    /// memberships and hiding).
    fn resolve(&self, oid: Oid, name: Symbol) -> Result<ResolvedAttr>;

    /// Reads stored field `name` of `oid`'s value (after [`DataSource::resolve`]
    /// said it is stored).
    fn stored_field(&self, oid: Oid, name: Symbol) -> Result<Value>;

    /// A named root object, if bound.
    fn named_object(&self, name: Symbol) -> Option<Oid>;

    /// Does `oid` denote a live object?
    fn object_exists(&self, oid: Oid) -> bool;

    // --- schema-level information, used by static type inference ------

    /// The signature of attribute `name` as seen from class `c`, if any
    /// (conflicts resolved by the source's policy).
    fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<AttrSig>;

    /// The structural type of class `c` (visible zero-parameter attributes).
    fn class_type(&self, c: ClassId) -> Type;

    /// Evaluates `Name(args)` — an instance of a parameterized virtual class
    /// (§4.1). Only views implement this; the default is an error.
    fn apply(&self, name: Symbol, _args: &[Value]) -> Result<Value> {
        Err(QueryError::eval(format!(
            "`{name}(…)` is not a parameterized class here"
        )))
    }

    /// Static type of `Name(args)`; see [`DataSource::apply`].
    fn apply_type(&self, name: Symbol, _args: &[Type]) -> Result<Type> {
        Err(QueryError::ty(format!(
            "`{name}(…)` is not a parameterized class here"
        )))
    }

    // --- resolution caching (compiled scans) --------------------------

    /// A cheap per-object class key under which [`DataSource::resolve`]
    /// results may be cached for the duration of one scan, or `None` if the
    /// source cannot provide one (caching stays off). For a database this is
    /// the object's stored class; for a view, the raw class the view maps
    /// the object to *before* any membership-dependent adjustment.
    fn resolution_class(&self, _oid: Oid) -> Option<ClassId> {
        None
    }

    /// May a resolution of attribute `name` be cached under `class` (as
    /// returned by [`DataSource::resolution_class`]) for the duration of one
    /// scan? `true` asserts that every object with that resolution class
    /// resolves `name` identically while the source's scan-visible state
    /// (schema, virtual-class populations in flight, body depth) is held
    /// fixed. Sources whose resolution can depend on per-object facts beyond
    /// the class — e.g. a view where some virtual class specializes `name` —
    /// must answer `false`. Defaults to `false` (never cache).
    fn resolution_is_class_pure(&self, _class: ClassId, _name: Symbol) -> bool {
        false
    }

    /// One object lookup serving both halves of a compiled attribute
    /// access: the [`DataSource::resolution_class`] of `oid` together with
    /// the raw stored field `name` of its value (`Null` when the field is
    /// absent — exactly what [`DataSource::stored_field`] would return).
    /// `None` when the object is unknown or has no resolution class; the
    /// scan then falls back to the uncached resolve path, which reproduces
    /// the interpreter's error byte for byte. The value half is meaningful
    /// only if resolution later says the attribute is stored; scans
    /// discard it otherwise, while statistics sampling reads it as the raw
    /// field. So implementations must be pure reads: no budget charges,
    /// no fault sites, no membership computation. Sources where the class
    /// and the field share one lookup should override the composing
    /// default.
    fn resolution_class_and_field(&self, oid: Oid, name: Symbol) -> Option<(ClassId, Value)> {
        let class = self.resolution_class(oid)?;
        Some((class, self.stored_field(oid, name).ok()?))
    }

    /// A counter the source bumps whenever scan-visible resolution state
    /// changes mid-scan — for a view: opening/closing a population
    /// bracket (the thread's `populating` set feeds purity verdicts) or
    /// instantiating a parameterized-class template. Compiled scans
    /// capture the generation when created and drop their per-(slot,
    /// class) caches when it moves, so a verdict computed under one state
    /// is never served under another. Sources whose resolution state
    /// cannot change under a shared reference (a base `Database` behind
    /// `&self`) keep the default constant `0`.
    fn resolution_generation(&self) -> u64 {
        0
    }

    /// The oids whose stored attribute `attr` equals `value`, within the
    /// deep extent of `class`, served from an equality index — or `None`
    /// when the source maintains no such index (the planner then demotes
    /// a pushdown plan to a sequential scan). The result must be exact
    /// on the indexed conjunct and in oid order; callers still re-test
    /// candidates against the full filter.
    fn indexed_lookup(&self, _class: ClassId, _attr: Symbol, _value: &Value) -> Option<Vec<Oid>> {
        None
    }

    /// Called by the evaluator when it starts evaluating the body of a
    /// computed attribute, and…
    fn enter_body(&self) {}

    /// …when it finishes. Views use this pair to give attribute bodies
    /// *privileged* visibility: an attribute hidden by the view is still
    /// readable from the bodies of the view's own computed attributes
    /// (the paper's Example 5 defines `Address` over `City`/`Street` and
    /// then hides them).
    fn exit_body(&self) {}
}

impl DataSource for Database {
    fn class_by_name(&self, name: Symbol) -> Option<ClassId> {
        self.schema.class_by_name(name)
    }

    fn class_name(&self, c: ClassId) -> Symbol {
        self.schema.class(c).name
    }

    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        ov_oodb::ClassGraph::is_subclass(&self.schema, sub, sup)
    }

    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        ov_oodb::ClassGraph::ancestors(&self.schema, c)
    }

    fn class_of(&self, oid: Oid) -> Result<ClassId> {
        Ok(self.store.require(oid)?.class)
    }

    fn extent(&self, class: ClassId) -> Result<Vec<Oid>> {
        Ok(self.deep_extent(class))
    }

    fn is_member(&self, oid: Oid, class: ClassId) -> Result<bool> {
        Ok(Database::is_member(self, oid, class))
    }

    fn resolve(&self, oid: Oid, name: Symbol) -> Result<ResolvedAttr> {
        let obj = self.store.require(oid)?;
        match resolve_attr(&self.schema, obj.class, name) {
            Resolution::Found { def, .. } => Ok(match &def.body {
                AttrBody::Stored => ResolvedAttr::Stored,
                AttrBody::Computed(body) => ResolvedAttr::Computed {
                    params: def.sig.params.iter().map(|(p, _)| *p).collect(),
                    body: body.clone(),
                },
                AttrBody::Abstract => {
                    return Err(QueryError::eval(format!(
                        "attribute `{name}` is abstract (signature only)"
                    )))
                }
            }),
            Resolution::NotFound => Err(OodbError::UnknownAttr {
                class: self.schema.class(obj.class).name,
                attr: name,
            }
            .into()),
            Resolution::Conflict(classes) => {
                // Base databases default to the creation-order policy; views
                // make this configurable.
                let (_, def) = ov_oodb::resolve::resolve_with_policy(
                    &self.schema,
                    obj.class,
                    name,
                    &ConflictPolicy::CreationOrder,
                )?;
                let _ = classes;
                Ok(match &def.body {
                    AttrBody::Stored => ResolvedAttr::Stored,
                    AttrBody::Computed(body) => ResolvedAttr::Computed {
                        params: def.sig.params.iter().map(|(p, _)| *p).collect(),
                        body: body.clone(),
                    },
                    AttrBody::Abstract => {
                        return Err(QueryError::eval(format!(
                            "attribute `{name}` is abstract (signature only)"
                        )))
                    }
                })
            }
        }
    }

    fn stored_field(&self, oid: Oid, name: Symbol) -> Result<Value> {
        let obj = self.store.require(oid)?;
        Ok(obj.value.get(name).cloned().unwrap_or(Value::Null))
    }

    fn named_object(&self, name: Symbol) -> Option<Oid> {
        self.named(name).ok()
    }

    fn object_exists(&self, oid: Oid) -> bool {
        self.store.get(oid).is_some()
    }

    fn attr_sig(&self, c: ClassId, name: Symbol) -> Option<AttrSig> {
        self.schema
            .visible_attrs(c)
            .get(&name)
            .map(|(_, def)| def.sig.clone())
    }

    fn class_type(&self, c: ClassId) -> Type {
        self.schema.class_type(c)
    }

    fn resolution_class(&self, oid: Oid) -> Option<ClassId> {
        self.store.get(oid).map(|o| o.class)
    }

    fn resolution_is_class_pure(&self, _class: ClassId, _name: Symbol) -> bool {
        // Base-database resolution walks only the schema, which cannot
        // change while a scan holds `&Database`.
        true
    }

    fn resolution_class_and_field(&self, oid: Oid, name: Symbol) -> Option<(ClassId, Value)> {
        let obj = self.store.get(oid)?;
        Some((
            obj.class,
            obj.value.get(name).cloned().unwrap_or(Value::Null),
        ))
    }

    fn indexed_lookup(&self, class: ClassId, attr: Symbol, value: &Value) -> Option<Vec<Oid>> {
        self.indexed_deep_lookup(class, attr, value)
    }
}

/// Adapts a [`DataSource`] to the data-model's [`ov_oodb::ClassGraph`] so
/// type-lattice operations (subtyping, lub) can run against it.
pub struct SourceGraph<'a>(pub &'a dyn DataSource);

impl ov_oodb::ClassGraph for SourceGraph<'_> {
    fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        self.0.is_subclass(sub, sup)
    }

    fn ancestors(&self, c: ClassId) -> Vec<ClassId> {
        self.0.ancestors(c)
    }

    fn class_name(&self, c: ClassId) -> Symbol {
        self.0.class_name(c)
    }
}

/// Helper shared by trait impls: the extent of a class name, as a value.
pub(crate) fn extent_value(src: &dyn DataSource, class: ClassId) -> Result<Value> {
    let oids = src.extent(class)?;
    Ok(Value::Set(oids.into_iter().map(Value::Oid).collect()))
}

/// Convenience: look a class up or fail with a language-level error.
pub fn require_class(src: &dyn DataSource, name: Symbol) -> Result<ClassId> {
    src.class_by_name(name)
        .ok_or_else(|| QueryError::from(OodbError::UnknownClass(name)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ov_oodb::{sym, AttrDef};

    fn db() -> (Database, ClassId) {
        let mut db = Database::new(sym("D"));
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
                    ov_oodb::Expr::bin(
                        ov_oodb::BinOp::Add,
                        ov_oodb::Expr::self_attr("Age"),
                        ov_oodb::Expr::self_attr("Age"),
                    ),
                ),
            )
            .unwrap();
        (db, person)
    }

    #[test]
    fn database_resolves_stored_and_computed() {
        let (mut d, person) = db();
        let o = d
            .create_object(person, Value::tuple([("Age", Value::Int(30))]))
            .unwrap();
        assert!(matches!(
            DataSource::resolve(&d, o, sym("Age")).unwrap(),
            ResolvedAttr::Stored
        ));
        assert!(matches!(
            DataSource::resolve(&d, o, sym("Doubled")).unwrap(),
            ResolvedAttr::Computed { .. }
        ));
        assert!(DataSource::resolve(&d, o, sym("Ghost")).is_err());
    }

    #[test]
    fn attr_sig_and_class_type() {
        let (d, person) = db();
        let sig = DataSource::attr_sig(&d, person, sym("Doubled")).unwrap();
        assert_eq!(sig.ty, Type::Int);
        assert!(matches!(DataSource::class_type(&d, person), Type::Tuple(_)));
    }
}
