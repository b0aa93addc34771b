//! Benchmark views: the five synthetic stand-ins for the paper's product
//! ER benchmarks (D1 Abt-Buy, D2 Amazon-Google, D3 Walmart-Amazon,
//! D4 iTunes-Amazon, D5 SIGMOD'20 contest), plus the IE task generator.
//!
//! All five views are rendered from a single shared [`Universe`], so the
//! "objective" matching knowledge (brand aliases, model variants, unit
//! variants) transfers across benchmarks — the premise of the paper's
//! collaborative-training opportunity (O1, §3).

use rpt_rng::Rng;
use rpt_rng::SliceRandom;
use rpt_table::{Schema, Table, Tuple, Value};

use crate::render::{NoiseProfile, Renderer, UnitStyle};
use crate::universe::{Entity, Universe, UniverseConfig};

/// Which columns a benchmark view exposes, echoing the real benchmarks'
/// heterogeneous schemas (the matcher must be schema-agnostic, §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaKind {
    /// `title, manufacturer, price` (Abt-Buy / Amazon-Google style; also
    /// the schema of the paper's Table 1 cleaning experiment).
    TitleMakerPrice,
    /// `product, company, year, memory, screen` (Walmart-Amazon style,
    /// and the schema of the paper's Fig. 1(b)).
    ProductCompanySpecs,
    /// `name, brand, category, price, year` (iTunes-Amazon style).
    NameBrandCatYear,
    /// `title, brand, spec` (SIGMOD'20 contest style).
    TitleBrandSpec,
}

impl SchemaKind {
    /// The schema of this view.
    pub fn schema(&self) -> Schema {
        match self {
            SchemaKind::TitleMakerPrice => {
                Schema::text_columns(&["title", "manufacturer", "price"])
            }
            SchemaKind::ProductCompanySpecs => {
                Schema::text_columns(&["product", "company", "year", "memory", "screen"])
            }
            SchemaKind::NameBrandCatYear => {
                Schema::text_columns(&["name", "brand", "category", "price", "year"])
            }
            SchemaKind::TitleBrandSpec => Schema::text_columns(&["title", "brand", "spec"]),
        }
    }

    /// Renders one entity as a row of this view.
    pub fn render(&self, e: &Entity, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> Tuple {
        match self {
            SchemaKind::TitleMakerPrice => Tuple::new(vec![
                Value::text(Renderer::title(e, noise, rng)),
                Value::text(Renderer::brand(e, noise, rng)),
                Value::parse(&Renderer::price_listed(e, noise, rng)),
            ]),
            SchemaKind::ProductCompanySpecs => Tuple::new(vec![
                Value::text(Renderer::short_title(e, noise, rng)),
                Value::text(Renderer::brand(e, noise, rng)),
                Value::Int(e.year as i64),
                if e.memory_gb > 0 {
                    Value::text(Renderer::memory(e.memory_gb, noise.unit_style))
                } else {
                    Value::Null
                },
                if e.screen_tenths > 0 {
                    Value::text(Renderer::screen(e.screen_tenths, noise.unit_style))
                } else {
                    Value::Null
                },
            ]),
            SchemaKind::NameBrandCatYear => Tuple::new(vec![
                Value::text(Renderer::short_title(e, noise, rng)),
                Value::text(Renderer::brand(e, noise, rng)),
                Value::text(e.category().label()),
                Value::parse(&Renderer::price_listed(e, noise, rng)),
                Value::Int(e.year as i64),
            ]),
            SchemaKind::TitleBrandSpec => {
                let mut spec_parts = Vec::new();
                if e.memory_gb > 0 {
                    spec_parts.push(Renderer::memory(e.memory_gb, noise.unit_style));
                }
                if e.screen_tenths > 0 {
                    spec_parts.push(Renderer::screen(e.screen_tenths, noise.unit_style));
                }
                spec_parts.push(e.year.to_string());
                Tuple::new(vec![
                    Value::text(Renderer::title(e, noise, rng)),
                    Value::text(Renderer::brand(e, noise, rng)),
                    Value::text(spec_parts.join(" ")),
                ])
            }
        }
    }
}

/// Generation profile for one benchmark view.
#[derive(Debug, Clone)]
pub struct BenchmarkProfile {
    /// Display name (e.g. `abt-buy`).
    pub name: &'static str,
    /// Schema of both sides.
    pub schema_kind: SchemaKind,
    /// Noise on side A.
    pub noise_a: NoiseProfile,
    /// Noise on side B.
    pub noise_b: NoiseProfile,
    /// Entities drawn for side A.
    pub n_a: usize,
    /// Fraction of side-A entities also present in side B.
    pub overlap: f64,
    /// Extra side-B-only entities, as a fraction of `n_a`.
    pub extra_b: f64,
}

/// The five standard profiles (named after the benchmarks they stand in
/// for). Sizes default to `n_a` entities per side-A.
pub fn standard_profiles(n_a: usize) -> Vec<BenchmarkProfile> {
    vec![
        BenchmarkProfile {
            name: "abt-buy",
            schema_kind: SchemaKind::TitleMakerPrice,
            noise_a: NoiseProfile::heavy(UnitStyle::Hyphen),
            noise_b: NoiseProfile::light(UnitStyle::Spaced),
            n_a,
            overlap: 0.6,
            extra_b: 0.4,
        },
        BenchmarkProfile {
            name: "amazon-google",
            schema_kind: SchemaKind::TitleMakerPrice,
            noise_a: NoiseProfile::light(UnitStyle::Spaced),
            noise_b: NoiseProfile::heavy(UnitStyle::Abbrev),
            n_a,
            overlap: 0.55,
            extra_b: 0.5,
        },
        BenchmarkProfile {
            name: "walmart-amazon",
            schema_kind: SchemaKind::ProductCompanySpecs,
            noise_a: NoiseProfile::light(UnitStyle::Hyphen),
            noise_b: NoiseProfile::light(UnitStyle::Spaced),
            n_a,
            overlap: 0.65,
            extra_b: 0.35,
        },
        BenchmarkProfile {
            name: "itunes-amazon",
            schema_kind: SchemaKind::NameBrandCatYear,
            noise_a: NoiseProfile::light(UnitStyle::Spaced),
            noise_b: NoiseProfile::heavy(UnitStyle::Spaced),
            n_a,
            overlap: 0.6,
            extra_b: 0.4,
        },
        BenchmarkProfile {
            name: "sigmod-contest",
            schema_kind: SchemaKind::TitleBrandSpec,
            noise_a: NoiseProfile::heavy(UnitStyle::Abbrev),
            noise_b: NoiseProfile::heavy(UnitStyle::Hyphen),
            n_a,
            overlap: 0.5,
            extra_b: 0.6,
        },
    ]
}

/// One generated ER benchmark: two tables plus ground-truth entity ids.
#[derive(Debug, Clone)]
pub struct ErBenchmark {
    /// Benchmark name.
    pub name: String,
    /// Side A.
    pub table_a: Table,
    /// Side B.
    pub table_b: Table,
    /// Ground-truth entity id of each side-A row.
    pub entity_a: Vec<u64>,
    /// Ground-truth entity id of each side-B row.
    pub entity_b: Vec<u64>,
}

/// One labeled candidate pair (row indices into the two tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabeledPair {
    /// Row in `table_a`.
    pub a: usize,
    /// Row in `table_b`.
    pub b: usize,
    /// True if the rows refer to the same entity.
    pub label: bool,
}

/// A set of labeled pairs (training or evaluation data for matchers).
#[derive(Debug, Clone, Default)]
pub struct PairSet {
    /// The pairs.
    pub pairs: Vec<LabeledPair>,
}

impl PairSet {
    /// Number of positive pairs.
    pub fn n_pos(&self) -> usize {
        self.pairs.iter().filter(|p| p.label).count()
    }

    /// Number of negative pairs.
    pub fn n_neg(&self) -> usize {
        self.pairs.len() - self.n_pos()
    }
}

impl ErBenchmark {
    /// Generates one benchmark view from the shared universe.
    pub fn generate(
        universe: &Universe,
        profile: &BenchmarkProfile,
        rng: &mut (impl Rng + ?Sized),
    ) -> ErBenchmark {
        let schema = profile.schema_kind.schema();
        let mut ids: Vec<usize> = (0..universe.len()).collect();
        ids.shuffle(rng);
        let n_a = profile.n_a.min(universe.len());
        let a_ids = &ids[..n_a];
        let n_shared = ((n_a as f64) * profile.overlap).round() as usize;
        let n_extra = (((n_a as f64) * profile.extra_b).round() as usize).min(universe.len() - n_a);
        let mut b_ids: Vec<usize> = a_ids[..n_shared.min(n_a)].to_vec();
        b_ids.extend_from_slice(&ids[n_a..n_a + n_extra]);
        b_ids.shuffle(rng);

        let mut table_a = Table::new(format!("{}-a", profile.name), schema.clone());
        let mut entity_a = Vec::with_capacity(a_ids.len());
        for &i in a_ids {
            let e = &universe.entities[i];
            table_a.push(profile.schema_kind.render(e, &profile.noise_a, rng));
            entity_a.push(e.id);
        }
        let mut table_b = Table::new(format!("{}-b", profile.name), schema);
        let mut entity_b = Vec::with_capacity(b_ids.len());
        for &i in &b_ids {
            let e = &universe.entities[i];
            table_b.push(profile.schema_kind.render(e, &profile.noise_b, rng));
            entity_b.push(e.id);
        }
        ErBenchmark {
            name: profile.name.to_string(),
            table_a,
            table_b,
            entity_a,
            entity_b,
        }
    }

    /// True if row `a` of side A and row `b` of side B are the same entity.
    pub fn is_match(&self, a: usize, b: usize) -> bool {
        self.entity_a[a] == self.entity_b[b]
    }

    /// All ground-truth matching row pairs.
    pub fn all_matches(&self) -> Vec<(usize, usize)> {
        let mut by_entity = std::collections::HashMap::new();
        for (j, &e) in self.entity_b.iter().enumerate() {
            by_entity.entry(e).or_insert_with(Vec::new).push(j);
        }
        let mut out = Vec::new();
        for (i, &e) in self.entity_a.iter().enumerate() {
            if let Some(js) = by_entity.get(&e) {
                for &j in js {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Builds a labeled pair set: every ground-truth match plus
    /// `neg_per_pos` sampled negatives per positive, half of them *hard*
    /// (same brand or line, different entity).
    pub fn labeled_pairs(
        &self,
        neg_per_pos: usize,
        universe: &Universe,
        rng: &mut (impl Rng + ?Sized),
    ) -> PairSet {
        let matches = self.all_matches();
        let mut pairs: Vec<LabeledPair> = matches
            .iter()
            .map(|&(a, b)| LabeledPair { a, b, label: true })
            .collect();
        let n_neg = matches.len() * neg_per_pos;
        let mut tried = 0usize;
        let mut added = 0usize;
        let hard_target = n_neg / 2;
        while added < n_neg && tried < n_neg * 50 {
            tried += 1;
            let a = rng.gen_range(0..self.entity_a.len());
            let b = rng.gen_range(0..self.entity_b.len());
            if self.is_match(a, b) {
                continue;
            }
            let ea = &universe.entities[self.entity_a[a] as usize];
            let eb = &universe.entities[self.entity_b[b] as usize];
            let hard = ea.brand == eb.brand;
            // fill the hard quota first, then anything
            if added < hard_target && !hard {
                continue;
            }
            pairs.push(LabeledPair { a, b, label: false });
            added += 1;
        }
        PairSet { pairs }
    }

    /// Builds a labeled pair set whose negatives are sampled from a given
    /// candidate list (e.g. the output of a blocker) instead of uniformly —
    /// aligning the matcher's training distribution with the candidate
    /// distribution it will be deployed on.
    pub fn labeled_pairs_from_candidates(
        &self,
        candidates: &[(usize, usize)],
        neg_per_pos: usize,
        rng: &mut (impl Rng + ?Sized),
    ) -> PairSet {
        let mut pairs: Vec<LabeledPair> = self
            .all_matches()
            .into_iter()
            .map(|(a, b)| LabeledPair { a, b, label: true })
            .collect();
        let negatives: Vec<(usize, usize)> = candidates
            .iter()
            .copied()
            .filter(|&(a, b)| !self.is_match(a, b))
            .collect();
        let n_neg = (pairs.len() * neg_per_pos).min(negatives.len());
        let mut chosen = negatives;
        chosen.shuffle(rng);
        pairs.extend(chosen.into_iter().take(n_neg).map(|(a, b)| LabeledPair {
            a,
            b,
            label: false,
        }));
        PairSet { pairs }
    }

    /// All tuples of both sides (the pretraining corpus for RPT-C: "just
    /// corrupt tuples and optimize a reconstruction loss").
    pub fn all_tuples(&self) -> impl Iterator<Item = (&Schema, &Tuple)> {
        self.table_a
            .tuples()
            .iter()
            .map(move |t| (self.table_a.schema(), t))
            .chain(
                self.table_b
                    .tuples()
                    .iter()
                    .map(move |t| (self.table_b.schema(), t)),
            )
    }
}

/// Generates the five standard benchmarks from one shared universe of
/// `3 * n_a` entities (so views overlap like real marketplaces do).
pub fn standard_benchmarks(
    n_a: usize,
    rng: &mut (impl Rng + ?Sized),
) -> (Universe, Vec<ErBenchmark>) {
    let universe = Universe::generate(
        &UniverseConfig {
            n_entities: n_a * 3,
            ..Default::default()
        },
        rng,
    );
    let benches = standard_profiles(n_a)
        .iter()
        .map(|p| ErBenchmark::generate(&universe, p, rng))
        .collect();
    (universe, benches)
}

/// One information-extraction task (paper Fig. 1(c)): a text-rich tuple,
/// the attribute to extract, and the gold answer string.
#[derive(Debug, Clone)]
pub struct IeTask {
    /// The source entity id.
    pub entity: u64,
    /// Product type ("phone", "notebook", …).
    pub type_label: String,
    /// The description paragraph.
    pub description: String,
    /// Which attribute the task asks for: `memory`, `screen`, `year`, `brand`.
    pub attr: &'static str,
    /// The gold answer, verbatim as it appears in `description`.
    pub answer: String,
}

/// Attributes IE tasks can ask about.
pub const IE_ATTRS: [&str; 4] = ["memory", "screen", "year", "brand"];

/// Generates `n` IE tasks over random entities; the answer is guaranteed
/// to appear verbatim in the description.
pub fn ie_tasks(universe: &Universe, n: usize, rng: &mut (impl Rng + ?Sized)) -> Vec<IeTask> {
    let mut out = Vec::with_capacity(n);
    let mut guard = 0;
    while out.len() < n && guard < n * 100 {
        guard += 1;
        let e = universe.entities.choose(rng).expect("non-empty universe");
        let style = *[UnitStyle::Hyphen, UnitStyle::Spaced].choose(rng).unwrap();
        let noise = NoiseProfile {
            unit_style: style,
            alias_prob: 0.3,
            ..NoiseProfile::clean()
        };
        let attr = *IE_ATTRS.choose(rng).unwrap();
        let (answer, description) = match attr {
            "memory" if e.memory_gb > 0 => {
                let mem = Renderer::memory(e.memory_gb, style);
                let d = Renderer::description(e, &noise, rng);
                (mem, d)
            }
            "screen" if e.screen_tenths > 0 => {
                let s = Renderer::screen(e.screen_tenths, style);
                let d = Renderer::description(e, &noise, rng);
                (s, d)
            }
            "year" => {
                let d = Renderer::description(e, &noise, rng);
                (e.year.to_string(), d)
            }
            "brand" => {
                // freeze the brand surface form so the answer matches
                let brand = Renderer::brand(e, &noise, rng);
                let mut parts = Vec::new();
                if e.screen_tenths > 0 {
                    parts.push(format!(
                        "{} touchscreen",
                        Renderer::screen(e.screen_tenths, style)
                    ));
                }
                if e.memory_gb > 0 {
                    parts.push(format!(
                        "comes with {} of ram",
                        Renderer::memory(e.memory_gb, style)
                    ));
                }
                parts.push(format!("released in {}", e.year));
                parts.push(format!("by {brand}"));
                (brand, parts.join(", "))
            }
            _ => continue,
        };
        debug_assert!(description.contains(&answer));
        out.push(IeTask {
            entity: e.id,
            type_label: e.category().label().to_string(),
            description,
            attr,
            answer,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn standard_benchmarks_have_expected_shapes() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (universe, benches) = standard_benchmarks(60, &mut rng);
        assert_eq!(benches.len(), 5);
        assert_eq!(universe.len(), 180);
        let names: Vec<&str> = benches.iter().map(|b| b.name.as_str()).collect();
        assert!(names.contains(&"abt-buy"));
        assert!(names.contains(&"amazon-google"));
        for b in &benches {
            assert_eq!(b.table_a.len(), 60);
            assert_eq!(b.table_a.len(), b.entity_a.len());
            assert_eq!(b.table_b.len(), b.entity_b.len());
            let matches = b.all_matches();
            // overlap between 0.4 and 0.75 of side A
            assert!(
                matches.len() >= 20 && matches.len() <= 50,
                "{}: {} matches",
                b.name,
                matches.len()
            );
        }
    }

    #[test]
    fn schemas_differ_across_views() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (_, benches) = standard_benchmarks(30, &mut rng);
        let schemas: std::collections::HashSet<String> = benches
            .iter()
            .map(|b| b.table_a.schema().to_string())
            .collect();
        assert!(schemas.len() >= 4, "schema heterogeneity required for §3");
    }

    #[test]
    fn is_match_agrees_with_all_matches() {
        let mut rng = SmallRng::seed_from_u64(5);
        let (_, benches) = standard_benchmarks(40, &mut rng);
        let b = &benches[0];
        for (i, j) in b.all_matches() {
            assert!(b.is_match(i, j));
        }
        let total: usize = b.all_matches().len();
        let brute: usize = (0..b.entity_a.len())
            .flat_map(|i| (0..b.entity_b.len()).map(move |j| (i, j)))
            .filter(|&(i, j)| b.is_match(i, j))
            .count();
        assert_eq!(total, brute);
    }

    #[test]
    fn labeled_pairs_balance_and_hardness() {
        let mut rng = SmallRng::seed_from_u64(9);
        let (universe, benches) = standard_benchmarks(50, &mut rng);
        let ps = benches[0].labeled_pairs(4, &universe, &mut rng);
        assert!(ps.n_pos() > 0);
        assert!(
            ps.n_neg() >= ps.n_pos() * 3,
            "negatives {} vs pos {}",
            ps.n_neg(),
            ps.n_pos()
        );
        for p in &ps.pairs {
            assert_eq!(benches[0].is_match(p.a, p.b), p.label);
        }
        // at least some negatives share a brand (hard negatives)
        let hard = ps
            .pairs
            .iter()
            .filter(|p| !p.label)
            .filter(|p| {
                let ea = &universe.entities[benches[0].entity_a[p.a] as usize];
                let eb = &universe.entities[benches[0].entity_b[p.b] as usize];
                ea.brand == eb.brand
            })
            .count();
        assert!(hard > 0, "no hard negatives sampled");
    }

    #[test]
    fn all_tuples_covers_both_sides() {
        let mut rng = SmallRng::seed_from_u64(3);
        let (_, benches) = standard_benchmarks(20, &mut rng);
        let b = &benches[2];
        let n = b.all_tuples().count();
        assert_eq!(n, b.table_a.len() + b.table_b.len());
    }

    #[test]
    fn ie_tasks_answers_appear_verbatim() {
        let mut rng = SmallRng::seed_from_u64(4);
        let u = Universe::generate(
            &UniverseConfig {
                n_entities: 100,
                ..Default::default()
            },
            &mut rng,
        );
        let tasks = ie_tasks(&u, 50, &mut rng);
        assert_eq!(tasks.len(), 50);
        let mut attrs = std::collections::HashSet::new();
        for t in &tasks {
            assert!(
                t.description.contains(&t.answer),
                "answer {:?} not in {:?}",
                t.answer,
                t.description
            );
            attrs.insert(t.attr);
        }
        assert!(attrs.len() >= 3, "attribute diversity");
    }

    #[test]
    fn fd_exists_in_title_maker_view() {
        // manufacturer should be (approximately) determined by the title's
        // product line — the dependency RPT-C exploits in Table 1.
        let mut rng = SmallRng::seed_from_u64(8);
        let (_, benches) = standard_benchmarks(80, &mut rng);
        let b = &benches[0]; // abt-buy: title, manufacturer, price
                             // crude check: group rows by first title token, verify dominant maker
        use std::collections::HashMap;
        let mut groups: HashMap<String, HashMap<String, usize>> = HashMap::new();
        for t in b.table_a.tuples() {
            let title = t.get(0).as_text().unwrap_or("").to_string();
            let first = title.split_whitespace().next().unwrap_or("").to_string();
            let maker = t.get(1).as_text().unwrap_or("?").to_string();
            // canonicalize aliases out: keep only first maker token
            let maker = maker.split_whitespace().next().unwrap_or("?").to_string();
            *groups.entry(first).or_default().entry(maker).or_insert(0) += 1;
        }
        let mut kept = 0usize;
        let mut total = 0usize;
        for counts in groups.values() {
            let sum: usize = counts.values().sum();
            let max = counts.values().copied().max().unwrap_or(0);
            kept += max;
            total += sum;
        }
        let strength = kept as f64 / total as f64;
        assert!(strength > 0.6, "line->brand FD too weak: {strength}");
    }
}
