//! The shared set-up every workload starts from: the `Staff` database
//! loaded under the WAL, its `Name` index, the three bound views, and
//! their warmed populations.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ov_oodb::{
    sym, AttrDef, ClassId, Database, DbHandle, Durability, Oid, Symbol, System, Tuple, Type, Value,
};
use ov_views::{Materialization, View, ViewDef, ViewOptions};

use crate::gen::{self, Kind, Person, CITIES};
use crate::trace::{layer, Tracer};

/// Durability of the loaded database: WAL with a group fsync every
/// `ov_oodb::wal::GROUP_COMMIT_INTERVAL` records.
pub const DURABILITY: Durability = Durability::Wal;

/// Arguments of the parameterized class `Older(A)` the `views` rotation
/// reads; each instance is created and warmed in set-up.
pub const OLDER_ARGS: [i64; 3] = [60, 70, 80];

/// The bench view read by the `views` workload: a virtual attribute, a
/// specialization chain, an imaginary class and a parameterized class.
pub const STAFF_VIEW: &str = r#"
    create view Bench;
    import all classes from database Staff;
    attribute Address in class Person has value
        [City: self.City, Street: self.Street];
    class Adult includes (select P from Person where P.Age >= 21);
    class Senior includes (select A from Adult where A.Age >= 65);
    class Family includes imaginary
        (select [Husband: H, Wife: H.Spouse]
         from H in Person where H.Sex = "male" and H.Spouse != null);
    class Older(A) includes (select P from Person where P.Age >= A);
"#;

/// The three levels of the stacked view the `maintain` workload keeps
/// current: `Adults` → `Earners` → `Top`.
pub const STACK: [&str; 3] = [
    r#"
    create view Adults;
    import all classes from database Staff;
    class Adult includes (select P from Person where P.Age >= 21);
    "#,
    r#"
    create view Earners;
    import all classes from view Adults;
    class Rich includes (select A from Adult where A.Income >= 100000);
    "#,
    r#"
    create view Top;
    import all classes from view Earners;
    class Elite includes (select R from Rich where R.Age >= 60);
    "#,
];

/// The imaginary `Family` class on its own, maintained beside the stack.
pub const FAMILIES_VIEW: &str = r#"
    create view Families;
    import all classes from database Staff;
    class Family includes imaginary
        (select [Husband: H, Wife: H.Spouse]
         from H in Person where H.Sex = "male" and H.Spouse != null);
"#;

/// Everything a workload runs against.
pub struct Fixture {
    /// The generator's model of every stored person, kept current by the
    /// workloads as they write.
    pub model: Vec<Person>,
    /// The oid of each modelled person (parallel to `model`).
    pub oids: Vec<Oid>,
    /// The catalog holding `Staff`.
    pub sys: System,
    /// The `Staff` database.
    pub db: DbHandle,
    /// Class ids of `Person`, `Employee`, `Manager`.
    pub classes: [ClassId; 3],
    /// The bench view (`Cached` populations).
    pub staff: View,
    /// The stacked view `Top` over `Earners` over `Adults` (`Incremental`).
    pub top: View,
    /// The `Family` imaginary view (`Incremental`).
    pub families: View,
    /// Directory holding the WAL.
    pub dir: PathBuf,
}

/// Interned attribute names used on the hot paths.
pub struct Names {
    pub name: Symbol,
    pub age: Symbol,
    pub income: Symbol,
    pub spouse: Symbol,
    pub husband: Symbol,
    pub wife: Symbol,
    pub address: Symbol,
    pub city: Symbol,
    pub person: Symbol,
    pub adult: Symbol,
    pub rich: Symbol,
    pub elite: Symbol,
    pub senior: Symbol,
    pub family: Symbol,
    pub older: Symbol,
}

impl Names {
    pub fn new() -> Names {
        Names {
            name: sym("Name"),
            age: sym("Age"),
            income: sym("Income"),
            spouse: sym("Spouse"),
            husband: sym("Husband"),
            wife: sym("Wife"),
            address: sym("Address"),
            city: sym("City"),
            person: sym("Person"),
            adult: sym("Adult"),
            rich: sym("Rich"),
            elite: sym("Elite"),
            senior: sym("Senior"),
            family: sym("Family"),
            older: sym("Older"),
        }
    }
}

impl Default for Names {
    fn default() -> Names {
        Names::new()
    }
}

/// The stored fields of a modelled person (without `Spouse`).
pub fn person_tuple(p: &Person) -> Tuple {
    let mut fields = vec![
        (sym("Name"), Value::str(&p.name)),
        (sym("Age"), Value::Int(p.age)),
        (
            sym("Sex"),
            Value::str(if p.male { "male" } else { "female" }),
        ),
        (sym("City"), Value::str(CITIES[p.city])),
        (sym("Street"), Value::str(&format!("{} St", p.street))),
        (sym("Income"), Value::Int(p.income)),
        (sym("Kids"), Value::Int(p.kids)),
    ];
    if let Some(s) = p.salary {
        fields.push((sym("Salary"), Value::Int(s)));
    }
    if let Some(b) = p.budget {
        fields.push((sym("Budget"), Value::Int(b)));
    }
    Tuple::from_fields(fields)
}

/// Creates the `Person`/`Employee`/`Manager` schema in `db`.
fn create_schema(db: &mut Database) -> ov_oodb::Result<[ClassId; 3]> {
    let person = db.create_class(
        sym("Person"),
        &[],
        vec![
            AttrDef::stored(sym("Name"), Type::Str),
            AttrDef::stored(sym("Age"), Type::Int),
            AttrDef::stored(sym("Sex"), Type::Str),
            AttrDef::stored(sym("City"), Type::Str),
            AttrDef::stored(sym("Street"), Type::Str),
            AttrDef::stored(sym("Income"), Type::Int),
            AttrDef::stored(sym("Spouse"), Type::Class(ClassId(0))),
            AttrDef::stored(sym("Kids"), Type::Int),
        ],
    )?;
    let employee = db.create_class(
        sym("Employee"),
        &[person],
        vec![AttrDef::stored(sym("Salary"), Type::Int)],
    )?;
    let manager = db.create_class(
        sym("Manager"),
        &[employee],
        vec![AttrDef::stored(sym("Budget"), Type::Int)],
    )?;
    Ok([person, employee, manager])
}

/// The class id a model person is real in.
pub fn class_of(classes: &[ClassId; 3], kind: Kind) -> ClassId {
    match kind {
        Kind::Person => classes[0],
        Kind::Employee => classes[1],
        Kind::Manager => classes[2],
    }
}

fn bind(sys: &System, script: &str, over: &[ViewDef], m: Materialization) -> Result<View, String> {
    let def = ViewDef::from_script(script).map_err(|e| e.to_string())?;
    def.binder(sys)
        .over_all(over)
        .options(ViewOptions::builder().materialization(m).build())
        .bind()
        .map_err(|e| e.to_string())
}

/// Which populations set-up warms. Every view is bound for every workload;
/// each workload warms only the populations it reads.
#[derive(Clone, Copy, Debug)]
pub struct Warm {
    /// `Adult`, `Senior`, `Family` and the `Older` instances of the bench
    /// view.
    pub staff: bool,
    /// The stacked `Top` view and the `Families` view.
    pub maintained: bool,
}

impl Fixture {
    /// Generates the `n`-person data set from `seed`, loads it into a fresh
    /// durable database under `dir`, binds the views and warms the
    /// populations `warm` names. Set-up spans (`views.def.bind_ms`,
    /// `views.view.warm_ms`) go to `tracer`.
    pub fn build(
        seed: u64,
        n: usize,
        dir: &Path,
        warm: Warm,
        tracer: &mut Tracer,
    ) -> Result<Fixture, String> {
        let err = |e: ov_oodb::OodbError| e.to_string();
        let model = gen::people(seed, n);
        if dir.exists() {
            std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let mut db = Database::open(sym("Staff"), dir, DURABILITY).map_err(err)?;
        let classes = create_schema(&mut db).map_err(err)?;
        let mut oids = Vec::with_capacity(n);
        for p in &model {
            oids.push(
                db.create_object(class_of(&classes, p.kind), Value::Tuple(person_tuple(p)))
                    .map_err(err)?,
            );
        }
        let spouse = sym("Spouse");
        for (i, p) in model.iter().enumerate() {
            if let Some(s) = p.spouse {
                db.set_attr(oids[i], spouse, Value::Oid(oids[s]))
                    .map_err(err)?;
            }
        }
        db.create_index(classes[0], sym("Name")).map_err(err)?;
        let mut sys = System::new();
        sys.add_database(db).map_err(err)?;
        let handle = sys.database(sym("Staff")).map_err(err)?;

        let t = Instant::now();
        let staff = bind(&sys, STAFF_VIEW, &[], Materialization::Cached)?;
        let stack: Vec<ViewDef> = STACK[..2]
            .iter()
            .map(|s| ViewDef::from_script(s).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        let top = bind(&sys, STACK[2], &stack, Materialization::Incremental)?;
        let families = bind(&sys, FAMILIES_VIEW, &[], Materialization::Incremental)?;
        tracer.push(0, layer::BIND, t, t.elapsed());

        let t = Instant::now();
        let names = Names::new();
        if warm.staff {
            for class in [names.adult, names.senior, names.family] {
                staff.extent_of(class).map_err(|e| e.to_string())?;
            }
            for a in OLDER_ARGS {
                staff
                    .query(&format!("count(Older({a}))"))
                    .map_err(|e| e.to_string())?;
            }
        }
        if warm.maintained {
            top.extent_of(names.elite).map_err(|e| e.to_string())?;
            families
                .extent_of(names.family)
                .map_err(|e| e.to_string())?;
        }
        tracer.push(0, layer::WARM, t, t.elapsed());

        Ok(Fixture {
            model,
            oids,
            sys,
            db: handle,
            classes,
            staff,
            top,
            families,
            dir: dir.to_path_buf(),
        })
    }
}

/// Compares every stored person in `db` with the model, returning the
/// first difference found.
pub fn check_against_model(db: &Database, model: &[Person], oids: &[Oid]) -> Result<(), String> {
    let person = db
        .schema
        .class_by_name(sym("Person"))
        .ok_or("no Person class")?;
    let extent = db.deep_extent(person);
    if extent.len() != model.len() {
        return Err(format!(
            "{} stored people, model has {}",
            extent.len(),
            model.len()
        ));
    }
    let spouse = sym("Spouse");
    for (i, p) in model.iter().enumerate() {
        let obj = db
            .store
            .get(oids[i])
            .ok_or_else(|| format!("{} ({}) missing", p.name, oids[i]))?;
        let mut want = person_tuple(p);
        want.set(
            spouse,
            p.spouse.map_or(Value::Null, |s| Value::Oid(oids[s])),
        );
        if obj.value != want {
            return Err(format!(
                "{}: stored {:?}, model {:?}",
                p.name, obj.value, want
            ));
        }
    }
    Ok(())
}
