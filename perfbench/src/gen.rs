//! Seeded generators: the `Staff` people data set and the per-workload op
//! streams. Everything here is a pure function of the seed, so the same
//! seed regenerates identical inputs; the database under test only ever
//! sees what these functions produce.

/// SplitMix64: small, fast, and fully specified, so a seed means the same
/// inputs on every platform and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream` (data, ops, …).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..hi` (`lo < hi`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    /// `true` with probability `per_mille / 1000`.
    pub fn chance(&mut self, per_mille: u64) -> bool {
        self.below(1000) < per_mille
    }
}

/// Stream ids: one independent generator per purpose, so changing how many
/// values one purpose draws never shifts another's.
pub const DATA: u64 = 1;
/// The op stream of the timed phase.
pub const OPS: u64 = 2;
/// The fixed keys the `views` lookup cycles through.
pub const KEYS: u64 = 3;

/// Cities of the `City` attribute (the `views` rotation filters on them).
pub const CITIES: [&str; 8] = [
    "London", "Paris", "Roma", "Berlin", "Madrid", "Wien", "Praha", "Oslo",
];

/// The real class of a generated person (unique root rule: one each).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Real in `Person`.
    Person,
    /// Real in `Employee` (a subclass of `Person`).
    Employee,
    /// Real in `Manager` (a subclass of `Employee`).
    Manager,
}

/// The model of one stored `Person`: what the database must hold for it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Person {
    /// The indexed key, `p<i>`.
    pub name: String,
    /// Real class.
    pub kind: Kind,
    /// `Age` (0..100).
    pub age: i64,
    /// `Sex` is `"male"` when true.
    pub male: bool,
    /// Index into [`CITIES`].
    pub city: usize,
    /// `Street`, `"<k> St"`.
    pub street: u32,
    /// `Income` (0..200_000).
    pub income: i64,
    /// `Kids` (0..9).
    pub kids: i64,
    /// `Salary` for employees and managers.
    pub salary: Option<i64>,
    /// `Budget` for managers.
    pub budget: Option<i64>,
    /// Index of the spouse in the data set.
    pub spouse: Option<usize>,
}

impl Person {
    /// A fresh person `p<i>` with attributes drawn from `rng`.
    pub fn draw(i: usize, rng: &mut Rng) -> Person {
        let kind = match i % 9 {
            0 => Kind::Manager,
            1 | 2 => Kind::Employee,
            _ => Kind::Person,
        };
        Person {
            name: format!("p{i}"),
            kind,
            age: rng.range(0, 100),
            male: i.is_multiple_of(2),
            city: rng.below(CITIES.len() as u64) as usize,
            street: (i % 97) as u32,
            income: rng.range(0, 200_000),
            kids: rng.range(0, 9),
            salary: (kind != Kind::Person).then(|| rng.range(20_000, 150_000)),
            budget: (kind == Kind::Manager).then(|| rng.range(0, 5_000_000)),
            spouse: None,
        }
    }
}

/// The `Staff` data set: `n` people, a third employees and a ninth
/// managers, ~40% married in adjacent (male, female) pairs.
pub fn people(seed: u64, n: usize) -> Vec<Person> {
    let mut rng = Rng::new(seed, DATA);
    let mut out: Vec<Person> = (0..n).map(|i| Person::draw(i, &mut rng)).collect();
    for h in (0..n.saturating_sub(1)).step_by(2) {
        if rng.chance(400) {
            out[h].spouse = Some(h + 1);
            out[h + 1].spouse = Some(h);
        }
    }
    out
}
