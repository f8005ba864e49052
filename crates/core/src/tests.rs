//! Crate-level tests: every worked example of the paper, end to end.

use ov_oodb::{sym, ConflictPolicy, OodbError, System, Value};
use ov_query::{execute_script, DataSource};

use crate::error::ViewError;
use crate::view::{IdentityMode, Materialization, ViewOptions};
use crate::ViewDef;

/// People database used throughout §2/§4/§5 examples.
fn people_system() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Staff;
        class Person type [Name: string, Age: integer, Sex: string,
                           City: string, Street: string, Zip_Code: string,
                           Income: integer,
                           Spouse: Person, Children: {Person}];
        class Employee inherits Person type [Salary: integer, Company: string];
        class Manager inherits Employee type [Budget: integer];
        object #1 in Person value [Name: "Maggy", Age: 66, Sex: "female",
                                   City: "London", Street: "10 Downing", Zip_Code: "SW1",
                                   Income: 90000, Spouse: #2];
        object #2 in Person value [Name: "Denis", Age: 70, Sex: "male",
                                   City: "London", Street: "10 Downing", Zip_Code: "SW1",
                                   Income: 4000, Spouse: #1, Children: {#3}];
        object #3 in Person value [Name: "Mark", Age: 12, Sex: "male",
                                   City: "London", Street: "10 Downing", Zip_Code: "SW1"];
        object #4 in Employee value [Name: "Tony", Age: 30, Sex: "male",
                                     City: "Paris", Street: "Rivoli", Zip_Code: "75001",
                                     Income: 50000, Salary: 50000, Company: "INRIA"];
        object #5 in Manager value [Name: "Boss", Age: 50, Sex: "female",
                                    City: "Paris", Street: "Rivoli", Zip_Code: "75001",
                                    Income: 120000, Salary: 120000, Company: "INRIA",
                                    Budget: 1000000];
        object #6 in Person value [Name: "Julia", Age: 80, Sex: "female",
                                   City: "Roma", Street: "Via Appia", Zip_Code: "00100",
                                   Income: 3000];
        name maggy = #1;
        name denis = #2;
        name tony = #4;
        "#,
    )
    .unwrap();
    sys
}

/// Navy database of §4 (Example 4 and the Ship variation).
fn navy_system() -> System {
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Navy;
        class Ship type [Name: string, Tonnage: integer];
        class Tanker inherits Ship type [Cargo: string];
        class Trawler inherits Ship type [Cargo: string];
        class Frigate inherits Ship type [Armament: string];
        class Cruiser inherits Ship type [Armament: string];
        object #1 in Tanker value [Name: "Erika", Tonnage: 37000, Cargo: "oil"];
        object #2 in Trawler value [Name: "Nellie", Tonnage: 900, Cargo: "fish"];
        object #3 in Frigate value [Name: "Surprise", Tonnage: 1200, Armament: "cannon"];
        object #4 in Cruiser value [Name: "Aurora", Tonnage: 6700, Armament: "guns"];
        "#,
    )
    .unwrap();
    sys
}

#[test]
fn example1_merging_attributes_into_address() {
    // §2 Example 1: merge City/Street/Zip_Code into one Address attribute.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view Addresses;
        import all classes from database Staff;
        attribute Address in class Person has value
            [City: self.City, Street: self.Street, Zip_Code: self.Zip_Code];
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let v = view.query("maggy.Address").unwrap();
    assert_eq!(
        v,
        Value::tuple([
            ("City", Value::str("London")),
            ("Street", Value::str("10 Downing")),
            ("Zip_Code", Value::str("SW1")),
        ])
    );
    // "to access Maggy's city and address, we use the same notation".
    assert_eq!(view.query("maggy.City").unwrap(), Value::str("London"));
}

#[test]
fn virtual_attribute_type_is_inferred() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute Address in class Person has value [City: self.City];
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let person = DataSource::class_by_name(&view, sym("Person")).unwrap();
    let sig = DataSource::attr_sig(&view, person, sym("Address")).unwrap();
    assert_eq!(sig.ty, ov_oodb::Type::tuple([("City", ov_oodb::Type::Str)]));
}

#[test]
fn stored_computed_overloading_across_classes() {
    // §2: Address stored in Employee, computed in Manager.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class Company type [CAddress: string];
        class Employee type [Name: string, Address: string, Firm: Company];
        class Manager inherits Employee type [];
        object #1 in Company value [CAddress: "HQ Plaza"];
        object #2 in Employee value [Name: "E", Address: "Home St", Firm: #1];
        object #3 in Manager value [Name: "M", Address: "ignored", Firm: #1];
        name e = #2;
        name m = #3;
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database D;
        attribute Address in class Manager has value self.Firm.CAddress;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.query("e.Address").unwrap(), Value::str("Home St"));
    assert_eq!(view.query("m.Address").unwrap(), Value::str("HQ Plaza"));
}

#[test]
fn hide_attribute_hides_in_subclasses_too() {
    // §3: hiding Salary in Employee must also hide it in Manager, while
    // Manager's own Budget stays visible — the paper's correction to the
    // relational SELECT approach.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view No_Salaries;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let err = view.query("tony.Salary").unwrap_err();
    assert!(matches!(
        err,
        ViewError::Oodb(OodbError::UnknownAttr { .. })
    ));
    // Budget (defined in the subclass Manager) survives.
    let budgets = view.query("select M.Budget from M in Manager").unwrap();
    assert_eq!(budgets, Value::set([Value::Int(1_000_000)]));
    // Salary is hidden on managers as well.
    assert!(view.query("select M.Salary from M in Manager").is_err());
}

#[test]
fn hidden_attrs_cannot_be_assigned_through_the_view() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    let err = view
        .update_attr(tony, sym("Salary"), Value::Int(1))
        .unwrap_err();
    assert!(matches!(err, ViewError::HiddenAttr { .. }));
    // Unhidden attributes pass through to the base database.
    view.update_attr(tony, sym("Age"), Value::Int(31)).unwrap();
    assert_eq!(
        sys.database(sym("Staff"))
            .unwrap()
            .read()
            .stored_attr(tony, sym("Age"))
            .unwrap(),
        &Value::Int(31)
    );
}

#[test]
fn hide_class_removes_name_but_objects_present_upward() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        hide class Manager;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert!(view.query("select M from M in Manager").is_err());
    // The manager object is still visible as an Employee.
    assert_eq!(
        view.query("count((select E from E in Employee))").unwrap(),
        Value::Int(2)
    );
    // And its Budget (defined only in the hidden class) resolves via the
    // object's real class chain — hiding a class hides the *name*, not the
    // object's structure. Its presented class is Employee.
    let manager_oid = {
        let db = sys.database(sym("Staff")).unwrap();
        let db = db.read();
        let manager = db.schema.class_by_name(sym("Manager")).unwrap();
        db.deep_extent(manager)[0]
    };
    let c = DataSource::class_of(&view, manager_oid).unwrap();
    assert_eq!(DataSource::class_name(&view, c), sym("Employee"));
}

#[test]
fn import_conflict_requires_alias() {
    let mut sys = people_system();
    execute_script(&mut sys, "database Ford; class Person type [Name: string];").unwrap();
    let bad = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        import class Person from database Ford;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind();
    assert!(matches!(bad, Err(ViewError::ImportConflict { .. })));
    let good = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        import class Person from database Ford as Ford_Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert!(good.class_names().contains(&sym("Ford_Person")));
}

#[test]
fn partial_import_flattens_inherited_attributes() {
    // Importing only Employee must keep Person-inherited attributes usable.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import class Employee from database Staff;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Person is not visible…
    assert!(DataSource::class_by_name(&view, sym("Person")).is_none());
    // …but Employee (and its subclass Manager) are, with Name flattened in.
    assert_eq!(
        view.query("select E.Name from E in Employee").unwrap(),
        Value::set([Value::str("Tony"), Value::str("Boss")])
    );
    assert!(DataSource::class_by_name(&view, sym("Manager")).is_some());
}

#[test]
fn specialization_adult() {
    // §4.1: class Adult includes (select P from Person where P.Age >= 21).
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query("count((select A from A in Adult))").unwrap(),
        Value::Int(5) // everyone but 12-year-old Mark
    );
    // Hierarchy inference: Person is the (only) parent of Adult.
    assert_eq!(view.parents_of(sym("Adult")).unwrap(), vec![sym("Person")]);
    // Inherited attributes flow down into the virtual class.
    assert_eq!(
        view.query(r#"select A.Name from A in Adult where A.Age > 75"#)
            .unwrap(),
        Value::set([Value::str("Julia")])
    );
}

#[test]
fn populations_track_base_updates() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.extent_of(sym("Adult")).unwrap().len(), 5);
    // Mark turns 21.
    let mark = {
        let db = sys.database(sym("Staff")).unwrap();
        let oid = {
            let d = db.read();
            d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
                .into_iter()
                .find(|&o| d.stored_attr(o, sym("Name")).unwrap() == &Value::str("Mark"))
                .unwrap()
        };
        db.write()
            .set_attr(oid, sym("Age"), Value::Int(21))
            .unwrap();
        oid
    };
    assert_eq!(view.extent_of(sym("Adult")).unwrap().len(), 6);
    assert!(DataSource::is_member(
        &view,
        mark,
        DataSource::class_by_name(&view, sym("Adult")).unwrap()
    )
    .unwrap());
}

#[test]
fn example3_top_down_hierarchy() {
    // §4.2 Example 3: Adult/Minor, then Senior/Adolescent below them.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Minor includes (select P from Person where P.Age < 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        class Adolescent includes (select M from Minor where M.Age >= 13);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(view.parents_of(sym("Senior")).unwrap(), vec![sym("Adult")]);
    assert_eq!(
        view.parents_of(sym("Adolescent")).unwrap(),
        vec![sym("Minor")]
    );
    assert!(view
        .is_subclass_by_name(sym("Senior"), sym("Person"))
        .unwrap());
    // Maggy (66), Denis (70), Julia (80) are seniors.
    assert_eq!(
        view.query("count((select S from S in Senior))").unwrap(),
        Value::Int(3)
    );
    // Mark is 12: a minor but not an adolescent.
    assert_eq!(
        view.query("count((select M from M in Minor))").unwrap(),
        Value::Int(1)
    );
    assert_eq!(
        view.query("count((select M from M in Adolescent))")
            .unwrap(),
        Value::Int(0)
    );
}

#[test]
fn example4_bottom_up_navy_and_ship_variation() {
    // §4.2: Merchant_Vessel/Military_Vessel inserted between Ship and its
    // subclasses.
    let sys = navy_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Navy;
        class Merchant_Vessel includes Tanker, Trawler;
        class Military_Vessel includes Frigate, Cruiser;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // R1: Ship is a superclass of the virtual classes.
    assert_eq!(
        view.parents_of(sym("Merchant_Vessel")).unwrap(),
        vec![sym("Ship")]
    );
    // R2: Tanker and Trawler became subclasses (direct superclass added).
    assert!(view
        .is_subclass_by_name(sym("Tanker"), sym("Merchant_Vessel"))
        .unwrap());
    assert!(view
        .is_subclass_by_name(sym("Trawler"), sym("Merchant_Vessel"))
        .unwrap());
    assert!(!view
        .is_subclass_by_name(sym("Frigate"), sym("Merchant_Vessel"))
        .unwrap());
    // Population = union of the included classes.
    assert_eq!(
        view.query("select V.Name from V in Merchant_Vessel")
            .unwrap(),
        Value::set([Value::str("Erika"), Value::str("Nellie")])
    );
    // §4.3 upward inheritance: Merchant_Vessel acquires Cargo.
    assert_eq!(
        view.query("select V.Cargo from V in Merchant_Vessel")
            .unwrap(),
        Value::set([Value::str("oil"), Value::str("fish")])
    );
    // But not Armament.
    assert!(view
        .query("select V.Armament from V in Merchant_Vessel")
        .is_err());
    // A fully bottom-up Boat over the two virtual classes.
    let view2 = ViewDef::from_script(
        r#"
        create view V2;
        import all classes from database Navy;
        class Merchant_Vessel includes Tanker, Trawler;
        class Military_Vessel includes Frigate, Cruiser;
        class Boat includes Merchant_Vessel, Military_Vessel;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view2.query("count((select B from B in Boat))").unwrap(),
        Value::Int(4)
    );
    assert_eq!(view2.parents_of(sym("Boat")).unwrap(), vec![sym("Ship")]);
}

#[test]
fn example2_government_supported_mixed_population() {
    // §4.1 Example 2: generalization + specialization in one class, plus a
    // virtual attribute on the result.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        class Student includes (select P from Person where P.Age < 21);
        class Government_Supported includes Senior, Student,
            (select A in Adult where A.Income < 5000);
        attribute Government_Support_Deduction in class Government_Supported
            has value 1200 + self.Age * 2;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Seniors: Maggy, Denis, Julia. Students: Mark. Low-income adults:
    // Denis (4000), Julia (3000) — union: 4 people.
    assert_eq!(
        view.query("count((select G from G in Government_Supported))")
            .unwrap(),
        Value::Int(4)
    );
    // R2: Senior and Student are subclasses.
    assert!(view
        .is_subclass_by_name(sym("Senior"), sym("Government_Supported"))
        .unwrap());
    // R1: Person is the common superclass.
    assert_eq!(
        view.parents_of(sym("Government_Supported")).unwrap(),
        vec![sym("Person")]
    );
    // The virtual attribute works on members of the virtual class even
    // though their real classes know nothing about it.
    assert_eq!(
        view.query("maggy.Government_Support_Deduction").unwrap(),
        Value::Int(1200 + 66 * 2)
    );
}

#[test]
fn behavioral_generalization_on_sale() {
    // §4.1: class On_Sale includes like On_Sale_Spec.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Market;
        class On_Sale_Spec type [Price: float, Discount: integer];
        class Car type [Price: float, Discount: integer, Brand: string];
        class House type [Price: float, Discount: integer, City: string];
        class Rock type [Price: float];
        object #1 in Car value [Price: 10000.0, Discount: 10, Brand: "2CV"];
        object #2 in House value [Price: 500000.0, Discount: 3, City: "Paris"];
        object #3 in Rock value [Price: 1.0];
        "#,
    )
    .unwrap();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Market;
        class On_Sale includes like On_Sale_Spec;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Cars and houses conform; rocks lack Discount.
    assert_eq!(
        view.query("count((select X from X in On_Sale))").unwrap(),
        Value::Int(2)
    );
    // R2: conforming classes became subclasses.
    assert!(view
        .is_subclass_by_name(sym("Car"), sym("On_Sale"))
        .unwrap());
    assert!(!view
        .is_subclass_by_name(sym("Rock"), sym("On_Sale"))
        .unwrap());
    // Upward inheritance: Price and Discount are attributes of On_Sale.
    assert_eq!(
        view.query("min((select X.Discount from X in On_Sale))")
            .unwrap(),
        Value::Int(3)
    );
}

#[test]
fn rich_and_beautiful_multiple_inheritance() {
    // §4.2: class Rich&Beautiful includes (select P from Rich where P in
    // Beautiful) — both become superclasses.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class Beautiful includes (select P from Person where P.Age < 67);
        class Rich&Beautiful includes (select P from Rich where P in Beautiful);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let mut parents = view.parents_of(sym("Rich&Beautiful")).unwrap();
    parents.sort();
    assert_eq!(parents, vec![sym("Beautiful"), sym("Rich")]);
    // Maggy: income 90000, age 66 → rich and beautiful. Boss: income
    // 120000, age 50 → also. Denis: poor. Tony: income 50000 → no.
    assert_eq!(
        view.query("count((select P from P in Rich&Beautiful))")
            .unwrap(),
        Value::Int(2)
    );
}

#[test]
fn parameterized_resident_classes() {
    // §4.1: class Resident(X) includes (select P from Person where
    // P.Address.Country = X) — here keyed on City.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Resident(X) includes (select P from Person where P.City = X);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query(r#"count(Resident("London"))"#).unwrap(),
        Value::Int(3)
    );
    assert_eq!(
        view.query(r#"select R.Name from R in Resident("Roma")"#)
            .unwrap(),
        Value::set([Value::str("Julia")])
    );
    // Distinct parameters are distinct classes.
    assert_eq!(
        view.query(r#"count(Resident("Paris") intersect Resident("London"))"#)
            .unwrap(),
        Value::Int(0)
    );
    // Unused parameters: empty class, not an error ("Only finitely many of
    // these classes will be non-empty").
    assert_eq!(
        view.query(r#"count(Resident("Atlantis"))"#).unwrap(),
        Value::Int(0)
    );
    // "As countries are removed … classes automatically disappear or are
    // created": Julia moves to Paris, Resident("Roma") empties.
    let julia = view
        .query(r#"select the P from P in Person where P.Name = "Julia""#)
        .unwrap();
    let Value::Oid(julia) = julia else { panic!() };
    view.update_attr(julia, sym("City"), Value::str("Paris"))
        .unwrap();
    assert_eq!(
        view.query(r#"count(Resident("Roma"))"#).unwrap(),
        Value::Int(0)
    );
    assert_eq!(
        view.query(r#"count(Resident("Paris"))"#).unwrap(),
        Value::Int(3)
    );
    // Arity errors are reported.
    assert!(view.query(r#"count(Resident("a", "b"))"#).is_err());
}

#[test]
fn schizophrenia_policies() {
    // §4.3: Rich and Senior both define Print; an object in both classes is
    // schizophrenic.
    let sys = people_system();
    let script = r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class Senior includes (select P from Person where P.Age >= 65);
        attribute Print in class Rich has value "rich " ++ self.Name;
        attribute Print in class Senior has value "senior " ++ self.Name;
    "#;
    let def = ViewDef::from_script(script).unwrap();
    // Maggy is in both Rich and Senior.
    // Policy Error: schizophrenia is reported.
    let strict = def
        .binder(&sys)
        .options(ViewOptions::builder().policy(ConflictPolicy::Error).build())
        .bind()
        .unwrap();
    let err = strict.query("maggy.Print").unwrap_err();
    assert!(
        matches!(err, ViewError::Oodb(OodbError::Schizophrenia { .. })),
        "got {err:?}"
    );
    // Denis is a senior but not rich: no conflict.
    assert_eq!(
        strict.query("denis.Print").unwrap(),
        Value::str("senior Denis")
    );
    // Default policy (creation order): Rich was defined first.
    let default = def.binder(&sys).bind().unwrap();
    assert_eq!(
        default.query("maggy.Print").unwrap(),
        Value::str("rich Maggy")
    );
    // Priority policy: Senior wins.
    let senior_first = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .policy(ConflictPolicy::Priority(vec![sym("Senior")]))
                .build(),
        )
        .bind()
        .unwrap();
    assert_eq!(
        senior_first.query("maggy.Print").unwrap(),
        Value::str("senior Maggy")
    );
}

#[test]
fn redefining_in_an_overlap_class_resolves_conflict() {
    // "inheritance conflicts can be resolved by assigning a class name to
    // overlapping classes … One can then redefine the conflicting methods
    // in the new class."
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class Senior includes (select P from Person where P.Age >= 65);
        attribute Print in class Rich has value "rich";
        attribute Print in class Senior has value "senior";
        class Rich&Senior includes (select P from Rich where P in Senior);
        attribute Print in class Rich&Senior has value "both";
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(ViewOptions::builder().policy(ConflictPolicy::Error).build())
    .bind()
    .unwrap();
    // Maggy is in Rich, Senior and Rich&Senior: the overlap class's own
    // definition is the unique most-specific one.
    assert_eq!(view.query("maggy.Print").unwrap(), Value::str("both"));
}

#[test]
fn no_direct_insertion_into_virtual_classes() {
    // §4.1: "it is not possible for a user to insert an object directly
    // into a virtual class. Thus, a Ship object can only be created
    // indirectly."
    let sys = navy_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Navy;
        class Merchant_Vessel includes Tanker, Trawler;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let err = view
        .insert(sym("Merchant_Vessel"), Value::empty_tuple())
        .unwrap_err();
    assert!(matches!(err, ViewError::VirtualInsert(_)));
    // Indirect creation: insert a Tanker, it shows up in Merchant_Vessel.
    view.insert(
        sym("Tanker"),
        Value::tuple([("Name", Value::str("Exxon")), ("Cargo", Value::str("oil"))]),
    )
    .unwrap();
    assert_eq!(
        view.query("count((select V from V in Merchant_Vessel))")
            .unwrap(),
        Value::Int(3)
    );
}

#[test]
fn cyclic_virtual_classes_error() {
    let sys = people_system();
    // B selects from A; then redefine A's population over B? We cannot
    // reference a class before it is defined, so build the cycle through a
    // membership conjunct on a later class: A over Person, B over A, and a
    // third class that queries itself via `in`.
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Selfish includes (select P from Person where P in Selfish);
        "#,
    )
    .unwrap();
    // Binding succeeds or fails depending on when the name resolves; the
    // population must error with a cycle either way.
    match def.binder(&sys).bind() {
        Err(e) => assert!(
            matches!(e, ViewError::CyclicVirtualClass(_) | ViewError::Query(_)),
            "got {e:?}"
        ),
        Ok(view) => {
            let err = view.query("count(Selfish)").unwrap_err();
            assert!(
                matches!(err, ViewError::CyclicVirtualClass(_)),
                "got {err:?}"
            );
        }
    }
}

#[test]
fn family_imaginary_objects() {
    // §5: the Family class.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view Families;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        attribute Children in class Family has value
            (select C from C in self.Husband.Children);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // One married male with a spouse: Denis.
    let families = view.extent_of(sym("Family")).unwrap();
    assert_eq!(families.len(), 1);
    let fam = families[0];
    assert!(fam.is_imaginary());
    // Core attributes inferred as Person-typed (§5): Husband/Wife.
    assert_eq!(
        view.core_attrs(sym("Family")).unwrap(),
        vec![sym("Husband"), sym("Wife")]
    );
    // Attribute access on the imaginary object.
    assert_eq!(
        view.query("select F.Husband.Name from F in Family")
            .unwrap(),
        Value::set([Value::str("Denis")])
    );
    assert_eq!(
        view.query("select F.Wife.Name from F in Family").unwrap(),
        Value::set([Value::str("Maggy")])
    );
    // Virtual attribute on the imaginary class.
    assert_eq!(
        view.query("select count(F.Children) from F in Family")
            .unwrap(),
        Value::set([Value::Int(1)])
    );
    // Identity is stable across invocations.
    assert_eq!(view.extent_of(sym("Family")).unwrap(), families);
}

#[test]
fn the_two_seemingly_equivalent_queries() {
    // §5.1: the paper's crucial example. With identity tables the nested
    // query returns the same objects; with fresh oids it returns nothing.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database D;
        class Person type [Name: string, Age: integer, Sex: string, Spouse: Person,
                           Kids: integer];
        object #1 in Person value [Name: "F1", Age: 24, Sex: "male", Spouse: #2, Kids: 6];
        object #2 in Person value [Name: "M1", Age: 24, Sex: "female", Spouse: #1];
        object #3 in Person value [Name: "F2", Age: 50, Sex: "male", Spouse: #4, Kids: 7];
        object #4 in Person value [Name: "M2", Age: 48, Sex: "female", Spouse: #3];
        "#,
    )
    .unwrap();
    let script = r#"
        create view V;
        import all classes from database D;
        class Family includes imaginary
            (select [Father: H, Size: H.Kids]
             from H in Person where H.Sex = "male");
    "#;
    let flat = "select F from F in Family where F.Size > 5 and F.Father.Age < 25";
    let nested = "select F from F in Family where F.Size > 5 \
                  and F in (select G from G in Family where G.Father.Age < 25)";
    // Paper semantics: both return the young large family.
    let stable = ViewDef::from_script(script)
        .unwrap()
        .binder(&sys)
        .bind()
        .unwrap();
    let a = stable.query(flat).unwrap();
    let b = stable.query(nested).unwrap();
    assert_eq!(a, b);
    assert_eq!(a.as_set().unwrap().len(), 1);
    // Naive fresh-oid semantics: re-evaluating Family yields different
    // oids, so the membership test fails — "we may obtain an empty set".
    let fresh = ViewDef::from_script(script)
        .unwrap()
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .identity_mode(IdentityMode::Fresh)
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
    let c = fresh.query(nested).unwrap();
    assert_eq!(c.as_set().unwrap().len(), 0, "fresh oids diverge");
}

#[test]
fn imaginary_identity_survives_unrelated_updates() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Family")).unwrap();
    // An unrelated update invalidates population caches…
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    view.update_attr(tony, sym("Age"), Value::Int(33)).unwrap();
    // …but the family keeps its oid (same core tuple → same oid, §5.1).
    let after = view.extent_of(sym("Family")).unwrap();
    assert_eq!(before, after);
    assert_eq!(view.identity_table_len(sym("Family")), 1);
}

#[test]
fn example5_value_to_object_addresses() {
    // §5 Example 5: addresses become shared objects.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view Value_to_Object;
        import all classes from database Staff;
        class Address includes imaginary
            (select [City: P.City, Street: P.Street]
             from P in Person);
        attribute Location in class Person has value
            (select the A from A in Address
             where A.City = self.City and A.Street = self.Street);
        hide attributes City, Street, Zip_Code in class Person;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    // Maggy, Denis and Mark share one address object; Tony and Boss share
    // another; Julia has her own: 3 address objects.
    assert_eq!(view.extent_of(sym("Address")).unwrap().len(), 3);
    let maggy_loc = view.query("maggy.Location").unwrap();
    let denis_loc = view.query("denis.Location").unwrap();
    assert_eq!(maggy_loc, denis_loc, "addresses are shared objects");
    // The raw components are hidden.
    assert!(view.query("maggy.City").is_err());
    // But reachable through the address object.
    assert_eq!(
        view.query("maggy.Location.City").unwrap(),
        Value::str("London")
    );
    // "When Maggy moves out of 10 Downing Street, the attribute … will
    // point to a different object … the object corresponding to 10 Downing
    // Street may still be used" — Denis still lives there. The move happens
    // in the *base* database (the view hides City from its own users).
    let maggy = DataSource::named_object(&view, sym("maggy")).unwrap();
    assert!(matches!(
        view.update_attr(maggy, sym("City"), Value::str("Dulwich")),
        Err(ViewError::HiddenAttr { .. })
    ));
    {
        let staff = sys.database(sym("Staff")).unwrap();
        let mut staff = staff.write();
        staff
            .set_attr(maggy, sym("City"), Value::str("Dulwich"))
            .unwrap();
        staff
            .set_attr(maggy, sym("Street"), Value::str("Hambledon Place"))
            .unwrap();
    }
    let new_maggy_loc = view.query("maggy.Location").unwrap();
    assert_ne!(new_maggy_loc, maggy_loc);
    assert_eq!(view.query("denis.Location").unwrap(), denis_loc);
    assert_eq!(view.extent_of(sym("Address")).unwrap().len(), 4);
}

#[test]
fn example6_poorly_designed_view_churns_identity() {
    // §5.1 Example 6: Address as a *core* attribute of Client makes a move
    // change the client's identity — reproduced, then fixed.
    let mut sys = System::new();
    execute_script(
        &mut sys,
        r#"
        database Insurance;
        class Policy type [Policy_Number: integer, Coverage: string, Cost: integer,
                           PName: string, PAddress: string, PAge: integer, SS: integer];
        object #1 in Policy value [Policy_Number: 1, Coverage: "life", Cost: 100,
                                   PName: "Maggy", PAddress: "10 Downing", PAge: 66, SS: 42];
        name policy1 = #1;
        "#,
    )
    .unwrap();
    let poor = ViewDef::from_script(
        r#"
        create view My_Clients;
        import all classes from database Insurance;
        class Client includes imaginary
            (select [CName: P.PName, CAge: P.PAge, SS: P.SS, CAddress: P.PAddress, Policy: P]
             from P in Policy);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = poor.extent_of(sym("Client")).unwrap();
    // Maggy's address is updated…
    let policy = DataSource::named_object(&poor, sym("policy1")).unwrap();
    poor.update_attr(policy, sym("PAddress"), Value::str("Hambledon"))
        .unwrap();
    let after = poor.extent_of(sym("Client")).unwrap();
    // …and "as far as the system is concerned, Maggy before moving and
    // after moving are two different clients."
    assert_ne!(before, after);
    assert_eq!(
        poor.identity_table_len(sym("Client")),
        2,
        "identity churned"
    );

    // The fix: Address as a *virtual* attribute of Client.
    let good = ViewDef::from_script(
        r#"
        create view My_Clients_Fixed;
        import all classes from database Insurance;
        class Client includes imaginary
            (select [CName: P.PName, SS: P.SS, Policy: P] from P in Policy);
        attribute CAddress in class Client has value self.Policy.PAddress;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = good.extent_of(sym("Client")).unwrap();
    good.update_attr(policy, sym("PAddress"), Value::str("Elsewhere"))
        .unwrap();
    let after = good.extent_of(sym("Client")).unwrap();
    assert_eq!(before, after, "identity stable under the fixed design");
    assert_eq!(
        good.query(r#"select C.CAddress from C in Client"#).unwrap(),
        Value::set([Value::str("Elsewhere")])
    );
}

#[test]
fn identity_gc_drops_dead_entries_and_keeps_live_oids() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Address includes imaginary
            (select [City: P.City] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Address")).unwrap();
    assert_eq!(view.identity_table_len(sym("Address")), 3); // London/Paris/Roma
                                                            // Julia leaves Roma: the Roma address becomes dead.
    let julia = view
        .query(r#"select the P from P in Person where P.Name = "Julia""#)
        .unwrap();
    let Value::Oid(julia) = julia else { panic!() };
    view.update_attr(julia, sym("City"), Value::str("Paris"))
        .unwrap();
    view.extent_of(sym("Address")).unwrap();
    assert_eq!(
        view.identity_table_len(sym("Address")),
        3,
        "dead entry retained"
    );
    let removed = view.gc_identity(sym("Address")).unwrap();
    assert_eq!(removed, 1);
    assert_eq!(view.identity_table_len(sym("Address")), 2);
    // Live addresses kept their oids.
    let after = view.extent_of(sym("Address")).unwrap();
    for o in &after {
        assert!(before.contains(o), "live oid changed across gc");
    }
    // But a *collected* tuple that reappears gets a fresh oid — the
    // documented trade-off of collecting.
    view.update_attr(julia, sym("City"), Value::str("Roma"))
        .unwrap();
    let reappeared = view.extent_of(sym("Address")).unwrap();
    assert_eq!(reappeared.len(), 3);
    assert!(reappeared.iter().any(|o| !before.contains(o)));
}

#[test]
fn imaginary_core_attributes_are_immutable_through_the_view() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H] from H in Person where H.Sex = "male");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let fam = view.extent_of(sym("Family")).unwrap()[0];
    let err = view
        .update_attr(fam, sym("Husband"), Value::Null)
        .unwrap_err();
    assert!(matches!(err, ViewError::CoreAttrUpdate { .. }));
    assert!(matches!(
        view.delete(fam),
        Err(ViewError::ImaginaryUpdate(_))
    ));
}

#[test]
fn same_tuple_different_class_different_oid() {
    // §5.1: "a tuple will generate a different oid when used in a
    // different class."
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class CityA includes imaginary (select [City: P.City] from P in Person);
        class CityB includes imaginary (select [City: P.City] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let a = view.extent_of(sym("CityA")).unwrap();
    let b = view.extent_of(sym("CityB")).unwrap();
    assert_eq!(a.len(), b.len());
    assert!(a.iter().all(|o| !b.contains(o)), "disjoint oid sets");
}

#[test]
fn materialize_snapshots_the_view() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Family includes imaginary
            (select [Husband: H, Wife: H.Spouse]
             from H in Person where H.Sex = "male" and H.Spouse != null);
        attribute Greeting in class Person has value "hi " ++ self.Name;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let db = view.materialize(sym("Snapshot")).unwrap();
    // Classes: Person, Employee, Manager, Adult, Family (hidden attr gone).
    assert!(db.schema.class_by_name(sym("Adult")).is_some());
    // Unique-root materialization: the three plain persons who are adults
    // become *real* in Adult. Tony and Boss are adults too, but Employee
    // and Adult are incomparable classes — an object can be real in only
    // one, so they stay employees. (Exactly the rigidity the paper's view
    // mechanism exists to escape: the overlap is representable in the view
    // but not in a materialized unique-root database.)
    let adult = db.schema.class_by_name(sym("Adult")).unwrap();
    assert_eq!(db.deep_extent(adult).len(), 3);
    let employee_cls = db.schema.class_by_name(sym("Employee")).unwrap();
    assert_eq!(db.deep_extent(employee_cls).len(), 2);
    let family = db.schema.class_by_name(sym("Family")).unwrap();
    assert_eq!(db.deep_extent(family).len(), 1);
    let employee = db.schema.class_by_name(sym("Employee")).unwrap();
    assert!(!db
        .schema
        .visible_attrs(employee)
        .contains_key(&sym("Salary")));
    // Computed attributes became stored values.
    let person = db.schema.class_by_name(sym("Person")).unwrap();
    let someone = db.deep_extent(person)[0];
    let greeting = db.stored_attr(someone, sym("Greeting")).unwrap();
    assert!(greeting.as_str().unwrap().starts_with("hi "));
    // The snapshot is a plain database: it can be registered and queried.
    let mut sys2 = System::new();
    sys2.add_database(db).unwrap();
    let handle = sys2.database(sym("Snapshot")).unwrap();
    let n = ov_query::run_query(&*handle.read(), "count((select A from A in Adult))").unwrap();
    assert_eq!(n, Value::Int(3));
    // And a second view stacks on top of it ("views on top of views").
    let stacked = ViewDef::from_script(
        r#"
        create view V2;
        import all classes from database Snapshot;
        class Elder includes (select A from Adult where A.Age >= 65);
        "#,
    )
    .unwrap()
    .binder(&sys2)
    .bind()
    .unwrap();
    assert_eq!(
        stacked.query("count((select E from E in Elder))").unwrap(),
        Value::Int(3) // Maggy, Denis, Julia — all real in Adult
    );
}

#[test]
fn population_caching_matches_recompute() {
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap();
    let cached = def.binder(&sys).bind().unwrap();
    let recompute = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
    for _ in 0..3 {
        assert_eq!(
            cached.extent_of(sym("Adult")).unwrap(),
            recompute.extent_of(sym("Adult")).unwrap()
        );
    }
}

#[test]
fn incremental_materialization_tracks_updates() {
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        class Senior includes (select A from Adult where A.Age >= 65);
        "#,
    )
    .unwrap();
    let incremental = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::Incremental)
                .build(),
        )
        .bind()
        .unwrap();
    let recompute = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::AlwaysRecompute)
                .build(),
        )
        .bind()
        .unwrap();
    // Warm the cache.
    assert_eq!(
        incremental.extent_of(sym("Adult")).unwrap(),
        recompute.extent_of(sym("Adult")).unwrap()
    );
    let warm = incremental.stats();
    assert!(warm.recomputations >= 1);
    assert_eq!(warm.incremental_updates, 0);
    let db = sys.database(sym("Staff")).unwrap();
    // Update: Mark becomes an adult; delete: Julia leaves; insert: a baby.
    let mark = {
        let d = db.read();
        d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
            .into_iter()
            .find(|&o| d.stored_attr(o, sym("Name")).unwrap() == &Value::str("Mark"))
            .unwrap()
    };
    db.write()
        .set_attr(mark, sym("Age"), Value::Int(30))
        .unwrap();
    assert_eq!(
        incremental.extent_of(sym("Adult")).unwrap(),
        recompute.extent_of(sym("Adult")).unwrap()
    );
    assert!(
        incremental.stats().incremental_updates >= 1,
        "delta path did not fire"
    );
    let julia = {
        let d = db.read();
        d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
            .into_iter()
            .find(|&o| d.stored_attr(o, sym("Name")).unwrap() == &Value::str("Julia"))
            .unwrap()
    };
    db.write().delete_object(julia).unwrap();
    {
        let mut d = db.write();
        let person = d.schema.class_by_name(sym("Person")).unwrap();
        d.create_object(
            person,
            Value::tuple([("Name", Value::str("Baby")), ("Age", Value::Int(0))]),
        )
        .unwrap();
    }
    assert_eq!(
        incremental.extent_of(sym("Adult")).unwrap(),
        recompute.extent_of(sym("Adult")).unwrap()
    );
    // The chained class maintains through the virtual parent too.
    assert_eq!(
        incremental.extent_of(sym("Senior")).unwrap(),
        recompute.extent_of(sym("Senior")).unwrap()
    );
}

#[test]
fn incremental_falls_back_on_journal_gap() {
    let sys = people_system();
    // Shrink the journal so a burst of updates overflows it.
    {
        let db = sys.database(sym("Staff")).unwrap();
        db.write().store.set_journal_cap(2);
    }
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    )
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Adult")).unwrap().len();
    let db = sys.database(sym("Staff")).unwrap();
    // Ten updates blow past the two-entry journal.
    let oids = {
        let d = db.read();
        d.deep_extent(d.schema.class_by_name(sym("Person")).unwrap())
    };
    for (i, &o) in oids.iter().enumerate().take(5) {
        db.write()
            .set_attr(o, sym("Age"), Value::Int(30 + i as i64))
            .unwrap();
    }
    // Still correct (full recompute happened under the hood).
    let after = view.extent_of(sym("Adult")).unwrap().len();
    assert!(after >= before, "everyone updated is now an adult");
    assert_eq!(after, 6);
}

#[test]
fn incremental_with_imaginary_class_recomputes() {
    // Imaginary includes are opaque to delta maintenance; the mode must
    // still produce correct results by falling back.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Family includes imaginary
            (select [Husband: H] from H in Person where H.Sex = "male");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .materialization(Materialization::Incremental)
            .build(),
    )
    .bind()
    .unwrap();
    let before = view.extent_of(sym("Family")).unwrap();
    let db = sys.database(sym("Staff")).unwrap();
    let denis = db.read().named(sym("denis")).unwrap();
    db.write()
        .set_attr(denis, sym("Age"), Value::Int(71))
        .unwrap();
    // Unrelated update: same families, same oids (identity table).
    assert_eq!(view.extent_of(sym("Family")).unwrap(), before);
}

#[test]
fn index_pushdown_agrees_with_scan() {
    let sys = people_system();
    // Index City on Person (and subclasses) in the base database.
    {
        let db = sys.database(sym("Staff")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("City")).unwrap();
    }
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Londoner includes (select P from Person where P.City = "London");
        class Resident(X) includes (select P from Person where P.City = X);
        "#,
    )
    .unwrap();
    let view = def.binder(&sys).bind().unwrap();
    // Pushdown answers equal the scan-based query — and the counters prove
    // the index path actually ran.
    let indexed = view.extent_of(sym("Londoner")).unwrap();
    assert!(view.stats().index_pushdowns >= 1, "index path did not fire");
    let scanned = view
        .query(r#"select P from P in Person where P.City = "London""#)
        .unwrap();
    let scanned: Vec<_> = scanned
        .as_set()
        .unwrap()
        .iter()
        .map(|v| v.as_oid().unwrap())
        .collect();
    assert_eq!(indexed, scanned);
    assert_eq!(indexed.len(), 3);
    // Parameterized instances take the same fast path after substitution.
    assert_eq!(
        view.query(r#"count(Resident("Paris"))"#).unwrap(),
        Value::Int(2)
    );
    // Index maintenance: the population tracks updates through the index.
    let maggy = DataSource::named_object(&view, sym("maggy")).unwrap();
    view.update_attr(maggy, sym("City"), Value::str("Paris"))
        .unwrap();
    assert_eq!(view.extent_of(sym("Londoner")).unwrap().len(), 2);
    assert_eq!(
        view.query(r#"count(Resident("Paris"))"#).unwrap(),
        Value::Int(3)
    );
}

#[test]
fn queries_through_views_typecheck() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let q = ov_query::parse_select("select A.Name from A in Adult").unwrap();
    let ty = ov_query::infer_select(&view, &q).unwrap();
    assert_eq!(ty, ov_oodb::Type::set(ov_oodb::Type::Str));
    // Hidden attributes are invisible to the type checker too.
    let view2 = ViewDef::from_script(
        r#"
        create view V2;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let q = ov_query::parse_select("select E.Salary from E in Employee").unwrap();
    assert!(ov_query::infer_select(&view2, &q).is_err());
}

#[test]
fn unknown_import_targets_error() {
    let sys = people_system();
    assert!(matches!(
        ViewDef::from_script("create view V; import all classes from database Nope;")
            .unwrap()
            .binder(&sys)
            .bind(),
        Err(ViewError::Oodb(OodbError::UnknownDatabase(_)))
    ));
    assert!(matches!(
        ViewDef::from_script("create view V; import class Ghost from database Staff;")
            .unwrap()
            .binder(&sys)
            .bind(),
        Err(ViewError::Oodb(OodbError::UnknownClass(_)))
    ));
    assert!(matches!(
        ViewDef::from_script(
            "create view V; import all classes from database Staff; \
             hide attribute Wings in class Person;"
        )
        .unwrap()
        .binder(&sys)
        .bind(),
        Err(ViewError::Oodb(OodbError::UnknownAttr { .. }))
    ));
}

#[test]
fn non_object_population_rejected() {
    let sys = people_system();
    let err = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Bad includes (select [N: P.Name] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::NonObjectPopulation { .. }));
    let err = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Bad includes imaginary (select P from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::NonTuplePopulation { .. }));
    let err = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Bad includes Person, imaginary (select [N: P.Name] from P in Person);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::MixedImaginary(_)));
}

#[test]
fn methods_with_arguments_work_through_views() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute OlderThan(n: integer) in class Person has value self.Age > n;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query("maggy.OlderThan(60)").unwrap(),
        Value::Bool(true)
    );
    assert_eq!(
        view.query("maggy.OlderThan(70)").unwrap(),
        Value::Bool(false)
    );
    assert_eq!(
        view.query("select P.Name from P in Person where P.OlderThan(69)")
            .unwrap(),
        Value::set([Value::str("Denis"), Value::str("Julia")])
    );
}

#[test]
fn bodiless_attribute_decl_requires_existing_stored() {
    let sys = people_system();
    // Re-declaring an existing stored attribute is fine.
    assert!(ViewDef::from_script(
        "create view V; import all classes from database Staff; \
         attribute Salary in class Employee;"
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .is_ok());
    // Declaring a brand-new stored attribute is not: views store nothing.
    let err = ViewDef::from_script(
        "create view V; import all classes from database Staff; \
         attribute Wings of type integer in class Person;",
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap_err();
    assert!(matches!(err, ViewError::Definition(_)));
}

#[test]
fn isa_conjuncts_contribute_superclasses() {
    // Like `P in Beautiful`, an `isa` conjunct proves membership and adds a
    // superclass (§4.2's type-system detection, the other spelling).
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Rich includes (select P from Person where P.Income >= 90000);
        class RichEmployee includes (select P from Rich where P isa Employee);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let mut parents = view.parents_of(sym("RichEmployee")).unwrap();
    parents.sort();
    assert_eq!(parents, vec![sym("Employee"), sym("Rich")]);
    // Only Boss is both rich and an employee.
    assert_eq!(
        view.query("select P.Name from P in RichEmployee").unwrap(),
        Value::set([Value::str("Boss")])
    );
}

#[test]
fn parameterized_imaginary_classes() {
    // Parameter substitution reaches inside imaginary includes too.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class StreetsOf(C) includes imaginary
            (select [Street: P.Street] from P in Person where P.City = C);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    assert_eq!(
        view.query(r#"count(StreetsOf("London"))"#).unwrap(),
        Value::Int(1) // everyone in London lives on 10 Downing
    );
    assert_eq!(
        view.query(r#"count(StreetsOf("Paris"))"#).unwrap(),
        Value::Int(1)
    );
    // Identity is stable per instance and distinct across instances.
    let london = view.query(r#"StreetsOf("London")"#).unwrap();
    assert_eq!(view.query(r#"StreetsOf("London")"#).unwrap(), london);
    let paris = view.query(r#"StreetsOf("Paris")"#).unwrap();
    assert_ne!(london, paris);
}

// ----------------------------------------------------------------------
// Explainable evaluation: population plans, traces, write-path fixes
// ----------------------------------------------------------------------

#[test]
fn explain_population_reports_all_three_paths() {
    use ov_query::{PopPath, ScanKind};
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap();

    // Cold cached view: the first request is a full recompute, and its one
    // include-term scan ran sequentially (the extent is tiny).
    let cached = def.binder(&sys).bind().unwrap();
    let cold = cached.explain_population(sym("Adult")).unwrap();
    let PopPath::FullRecompute { scans } = &cold.path else {
        panic!("cold population should recompute, got {cold}");
    };
    let [scan] = scans.as_slice() else {
        panic!("one include-term scan expected: {cold}");
    };
    assert_eq!(
        scan.kind,
        ScanKind::Sequential {
            engine: ov_query::Engine::Compiled,
        },
        "{cold}"
    );
    // The scan measured its own work: every Person row was scanned, the
    // five adults matched.
    assert_eq!(scan.actuals.rows_matched, 5, "{cold}");
    assert!(scan.actuals.rows_scanned >= 5, "{cold}");
    assert_eq!(cold.rows, 5);
    assert!(cold.nanos > 0, "timings must be recorded");

    // Warm: the version-keyed cache answers.
    let warm = cached.explain_population(sym("Adult")).unwrap();
    assert_eq!(warm.path, PopPath::CacheHit, "{warm}");
    assert_eq!(warm.rows, 5);
    assert!(warm.nanos > 0);

    // Incremental view, warmed, after exactly one base write: the delta
    // path re-tests exactly the one changed oid.
    let inc = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .materialization(Materialization::Incremental)
                .build(),
        )
        .bind()
        .unwrap();
    inc.extent_of(sym("Adult")).unwrap();
    let db = sys.database(sym("Staff")).unwrap();
    let maggy = db.read().named(sym("maggy")).unwrap();
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(67))
        .unwrap();
    let delta = inc.explain_population(sym("Adult")).unwrap();
    assert_eq!(delta.path, PopPath::Delta { retested: 1 }, "{delta}");
    assert_eq!(delta.rows, 5);

    // The rendering names the path — this is what `.plan` prints in ovq.
    assert!(delta.to_string().contains("Delta{retested=1}"));
}

#[test]
fn explain_population_reports_index_pushdown() {
    use ov_query::{PopPath, ScanKind};
    let sys = people_system();
    {
        let db = sys.database(sym("Staff")).unwrap();
        let mut db = db.write();
        let person = db.schema.class_by_name(sym("Person")).unwrap();
        db.create_index(person, sym("City")).unwrap();
    }
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Londoner includes (select P from Person where P.City = "London");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let trace = view.explain_population(sym("Londoner")).unwrap();
    let PopPath::FullRecompute { scans } = &trace.path else {
        panic!("expected recompute, got {trace}");
    };
    let [scan] = scans.as_slice() else {
        panic!("one include-term scan expected: {trace}");
    };
    assert_eq!(
        scan.kind,
        ScanKind::IndexPushdown {
            index: "Person.City".into(),
            engine: ov_query::Engine::Compiled
        },
        "{trace}"
    );
    // The index narrowed the scan to exactly the matching candidates.
    assert_eq!(scan.actuals.rows_scanned, 3, "{trace}");
    assert_eq!(scan.actuals.rows_matched, 3, "{trace}");
    assert_eq!(trace.rows, 3);
}

#[test]
fn explain_query_traces_stages_and_populations() {
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let (value, trace) = view.explain("select A.Name from A in Adult").unwrap();
    assert_eq!(value.as_set().unwrap().len(), 5);
    let names: Vec<_> = trace.stages.iter().map(|s| s.name).collect();
    assert_eq!(names, ["parse", "typecheck", "optimize", "execute"]);
    assert_eq!(trace.rows, Some(5));
    assert!(
        trace.populations.iter().any(|p| p.class == sym("Adult")),
        "execution should have populated Adult: {trace}"
    );
    // Re-running hits the cache, and the trace says so.
    let (_, warm) = view.explain("select A.Name from A in Adult").unwrap();
    assert!(
        warm.populations
            .iter()
            .any(|p| p.path == ov_query::PopPath::CacheHit),
        "{warm}"
    );
}

#[test]
fn hidden_attr_write_blocked_even_when_absent_from_visible_attrs() {
    // `hide attribute Salary in class Employee` and an object real in
    // *Person*: Salary has no visible definition at Person, so the old
    // code skipped the hide check entirely and forwarded the write to the
    // base store. The name check must still fire (§3: hides are
    // subclass-closed), and the error must be HiddenAttr — not the base
    // store's UnknownAttr — proving the view blocked it.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        hide attribute Salary in class Employee;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let maggy = DataSource::named_object(&view, sym("maggy")).unwrap();
    assert!(matches!(
        view.update_attr(maggy, sym("Salary"), Value::Int(1)),
        Err(ViewError::HiddenAttr { .. })
    ));
    // The hide also blocks the write on objects where Salary *is* visible.
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    assert!(matches!(
        view.update_attr(tony, sym("Salary"), Value::Int(1)),
        Err(ViewError::HiddenAttr { .. })
    ));
}

#[test]
fn computed_attr_write_rejected_not_silently_stored() {
    // The view redefines the stored base attribute Income as computed.
    // Writing Income through the view used to fall through to the base
    // store: the write landed on an attribute the view never reads back.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        attribute Income in class Person has value self.Age * 1000;
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let tony = DataSource::named_object(&view, sym("tony")).unwrap();
    let err = view
        .update_attr(tony, sym("Income"), Value::Int(1))
        .unwrap_err();
    assert!(matches!(err, ViewError::ComputedAttrUpdate { .. }), "{err}");
    // Nothing was written underneath the view.
    let db = sys.database(sym("Staff")).unwrap();
    assert_eq!(
        db.read().stored_attr(tony, sym("Income")).unwrap(),
        &Value::Int(50000)
    );
}

#[test]
fn delete_sweeps_identity_entries_referencing_the_dead_oid() {
    // Regression: `delete()` left identity-table entries whose core tuple
    // referenced the deleted oid, so under IdentityMode::Table the stale
    // entry (and its cached imaginary object) survived the base object.
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Couple includes imaginary
            (select [Husband: W.Spouse, Wife: W] from W in Person
             where W.Name = "Maggy");
        "#,
    )
    .unwrap()
    .binder(&sys)
    .bind()
    .unwrap();
    let couples = view.extent_of(sym("Couple")).unwrap();
    assert_eq!(couples.len(), 1);
    assert_eq!(view.identity_table_len(sym("Couple")), 1);
    // Denis (Maggy's spouse) dies.
    let denis = DataSource::named_object(&view, sym("denis")).unwrap();
    view.delete(denis).unwrap();
    // The stale entry and its imaginary object are gone immediately —
    // no gc_identity call needed, no resurrection from the dead tuple.
    assert_eq!(
        view.identity_table_len(sym("Couple")),
        0,
        "stale identity entry survived the delete"
    );
    assert!(!DataSource::object_exists(&view, couples[0]));
    // Deletion leaves Maggy's Spouse dangling, so the recomputed core
    // tuple is *equal* to the dead one. Without the sweep, the stale
    // entry would hand the old oid back for it — resurrection from a
    // dead tuple. With it, the equal tuple gets a fresh oid.
    let after = view.extent_of(sym("Couple")).unwrap();
    assert_eq!(after.len(), 1);
    assert!(
        !after.contains(&couples[0]),
        "oid resurrected from a dead tuple"
    );
}

// ----------------------------------------------------------------------
// Robustness: fault injection, retries, graceful degradation
// ----------------------------------------------------------------------

/// Fault-injection state is process-global; tests that arm it serialize on
/// this lock and clear the registry on both entry and exit.
fn fault_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let guard = LOCK.lock().unwrap_or_else(|p| p.into_inner());
    ov_oodb::faults::clear();
    guard
}

fn adult_view(sys: &System) -> crate::View {
    ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(sys)
    .bind()
    .unwrap()
}

#[test]
fn transient_population_fault_is_retried() {
    let _guard = fault_lock();
    let sys = people_system();
    let view = adult_view(&sys);
    // First recompute attempt fails; the retry succeeds.
    ov_oodb::faults::arm(
        "view.population_recompute",
        ov_oodb::FaultSchedule::Nth(1),
        ov_oodb::FaultAction::Error,
    );
    let v = view.query("count(Adult)").unwrap();
    assert_eq!(v, Value::Int(5));
    let stats = view.stats();
    assert_eq!(stats.fault_retries, 1, "{stats:?}");
    assert_eq!(stats.stale_serves, 0, "{stats:?}");
    assert_eq!(stats.recomputations, 2, "one failed + one good: {stats:?}");
    ov_oodb::faults::clear();
}

#[test]
fn failed_recompute_serves_stale_population() {
    let _guard = fault_lock();
    let sys = people_system();
    let view = adult_view(&sys);
    // Warm the cache, then invalidate it with a base write that EVICTS an
    // adult (Maggy drops below the filter).
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    let db = sys.database(sym("Staff")).unwrap();
    let maggy = db.read().named(sym("maggy")).unwrap();
    db.write()
        .set_attr(maggy, sym("Age"), Value::Int(20))
        .unwrap();
    // Every recompute attempt now fails: the view serves the stale cached
    // population (still 5 members) with the marker visible in the trace.
    ov_oodb::faults::arm(
        "view.population_recompute",
        ov_oodb::FaultSchedule::From(1),
        ov_oodb::FaultAction::Error,
    );
    let trace = view.explain_population(sym("Adult")).unwrap();
    assert_eq!(
        trace.path,
        ov_query::PopPath::StaleServe { attempts: 3 },
        "{trace}"
    );
    assert_eq!(trace.rows, 5, "stale generation, not a blend: {trace}");
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    let stats = view.stats();
    assert!(stats.stale_serves >= 2, "{stats:?}");
    assert_eq!(stats.fault_retries, 4, "2 retries per request: {stats:?}");
    // Fault cleared: the next request recomputes and sees the eviction.
    ov_oodb::faults::clear();
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(4));
}

#[test]
fn degraded_error_when_no_cached_population() {
    let _guard = fault_lock();
    let sys = people_system();
    let view = adult_view(&sys);
    // Cold cache + every attempt fails: nothing to serve stale.
    ov_oodb::faults::arm(
        "view.population_recompute",
        ov_oodb::FaultSchedule::From(1),
        ov_oodb::FaultAction::Error,
    );
    let err = view.query("count(Adult)").unwrap_err();
    let ViewError::Degraded {
        class,
        attempts,
        ref cause,
    } = err
    else {
        panic!("expected Degraded, got {err}");
    };
    assert_eq!(class, sym("Adult"));
    assert_eq!(attempts, 3);
    assert!(cause.is_transient());
    assert!(err.is_transient());
    // The chain bottoms out in the injected fault.
    let mut cur: &dyn std::error::Error = &err;
    while let Some(next) = std::error::Error::source(cur) {
        cur = next;
    }
    assert!(
        cur.to_string().contains("view.population_recompute"),
        "chain tail: {cur}"
    );
    ov_oodb::faults::clear();
    // The view recovers completely once the fault clears.
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
}

#[test]
fn budget_breach_during_population_stays_typed() {
    let _guard = fault_lock();
    let sys = people_system();
    let view = adult_view(&sys);
    let budget = std::sync::Arc::new(ov_query::Budget::new().with_max_steps(3));
    let err = ov_query::run_query_with_budget(&view, "count(Adult)", budget).unwrap_err();
    assert!(
        matches!(err, ov_query::QueryError::ResourceExhausted(_)),
        "budget breaches must not be retried or masked: {err}"
    );
}

#[test]
fn faulting_chunks_fall_back_to_sequential_then_trip_the_breaker() {
    let _guard = fault_lock();
    let sys = people_system();
    let def = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap();
    let view = def
        .binder(&sys)
        .options(
            ViewOptions::builder()
                .parallel(ov_query::ParallelConfig {
                    threads: 2,
                    threshold: 2,
                })
                .build(),
        )
        .bind()
        .unwrap();
    ov_oodb::faults::arm(
        "view.scan_chunk",
        ov_oodb::FaultSchedule::From(1),
        ov_oodb::FaultAction::Error,
    );
    let db = sys.database(sym("Staff")).unwrap();
    let maggy = db.read().named(sym("maggy")).unwrap();
    // Each round: invalidate the cache, repopulate. The parallel scan
    // fails, the sequential fallback still answers correctly; after three
    // strikes the view stops attempting parallel scans at all.
    for round in 0..5u32 {
        db.write()
            .set_attr(maggy, sym("Age"), Value::Int(66 + i64::from(round)))
            .unwrap();
        assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    }
    let stats = view.stats();
    assert_eq!(stats.parallel_scans, 3, "breaker trips after 3: {stats:?}");
    assert_eq!(stats.seq_fallbacks, 3, "{stats:?}");
    ov_oodb::faults::clear();
}

#[test]
fn panicking_chunk_becomes_typed_fallback_not_a_crash() {
    let _guard = fault_lock();
    let sys = people_system();
    let view = ViewDef::from_script(
        r#"
        create view V;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap()
    .binder(&sys)
    .options(
        ViewOptions::builder()
            .parallel(ov_query::ParallelConfig {
                threads: 2,
                threshold: 2,
            })
            .build(),
    )
    .bind()
    .unwrap();
    // The first chunk hit panics on its worker thread; the coordinator
    // converts it to a typed error and the sequential fallback answers.
    ov_oodb::faults::arm(
        "view.scan_chunk",
        ov_oodb::FaultSchedule::Nth(1),
        ov_oodb::FaultAction::Panic,
    );
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    let stats = view.stats();
    assert_eq!(stats.seq_fallbacks, 1, "{stats:?}");
    // Privileged visibility did not leak from the unwound population.
    assert_eq!(view.query("count(Adult)").unwrap(), Value::Int(5));
    ov_oodb::faults::clear();
}

#[test]
fn binder_stacks_views_programmatically() {
    let sys = people_system();
    let base = ViewDef::from_script(
        r#"
        create view Adults;
        import all classes from database Staff;
        class Adult includes (select P from Person where P.Age >= 21);
        "#,
    )
    .unwrap();
    let upper = ViewDef::from_script(
        r#"
        create view Seniors;
        import all classes from view Adults;
        class Senior includes (select A from Adult where A.Age >= 65);
        "#,
    )
    .unwrap();
    let view = upper.binder(&sys).over(&base).bind().unwrap();
    assert_eq!(view.query("count(Senior)").unwrap(), Value::Int(3));
    // The stacked view's definition reads only the upstream view; its
    // reach to database Staff is mediated by Adults (the dependency graph
    // closes over view edges transitively).
    let deps = view.dependencies();
    assert!(deps
        .iter()
        .any(|e| e.on == crate::graph::DepTarget::View(sym("Adults"))
            && e.classes.contains(&sym("Adult"))));
    assert!(!deps
        .iter()
        .any(|e| e.on == crate::graph::DepTarget::Database(sym("Staff"))));
    // A view import must take all classes; cherry-picking is base-only.
    let bad = ViewDef::new(sym("Partial")).import_class(sym("Adults"), sym("Adult"));
    assert!(bad.binder(&sys).over(&base).bind().is_err());
    // Importing an unknown upstream still reads as an unknown database.
    assert!(upper.binder(&sys).bind().is_err());
}

/// The deprecated `bind`/`bind_with` wrappers stay working until removal.
#[test]
#[allow(deprecated)]
fn deprecated_bind_wrappers_still_bind() {
    let sys = people_system();
    let def = ViewDef::new(sym("V")).import_all(sym("Staff"));
    assert_eq!(
        def.bind(&sys).unwrap().query("count(Person)").unwrap(),
        Value::Int(6)
    );
    let opts = ViewOptions::builder()
        .materialization(Materialization::AlwaysRecompute)
        .build();
    assert_eq!(
        def.bind_with(&sys, opts)
            .unwrap()
            .query("count(Person)")
            .unwrap(),
        Value::Int(6)
    );
}
