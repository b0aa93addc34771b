//! The ground-truth product universe: a catalog of entities whose
//! attributes are linked by the functional dependencies that RPT-C is
//! supposed to learn.

use rpt_rng::Rng;
use rpt_rng::SliceRandom;

/// Product category. Determines plausible screen sizes, memory options,
/// and base prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Smartphones.
    Phone,
    /// Laptops.
    Notebook,
    /// Tablets.
    Tablet,
    /// Digital cameras.
    Camera,
    /// Headphones / speakers.
    Audio,
    /// Boxed software.
    Software,
}

impl Category {
    /// All categories.
    pub const ALL: [Category; 6] = [
        Category::Phone,
        Category::Notebook,
        Category::Tablet,
        Category::Camera,
        Category::Audio,
        Category::Software,
    ];

    /// Lowercase label used in renderings.
    pub fn label(&self) -> &'static str {
        match self {
            Category::Phone => "phone",
            Category::Notebook => "notebook",
            Category::Tablet => "tablet",
            Category::Camera => "camera",
            Category::Audio => "audio",
            Category::Software => "software",
        }
    }
}

/// A brand with its canonical name, surface aliases, and product lines.
#[derive(Debug, Clone)]
pub struct Brand {
    /// Canonical (most common) name.
    pub name: &'static str,
    /// Alternative surface forms (ticker symbols, legal names, …).
    pub aliases: &'static [&'static str],
    /// Product-line names this brand sells, with their category.
    pub lines: &'static [(&'static str, Category)],
    /// Price multiplier (premium brands cost more).
    pub premium: f64,
}

/// The static brand catalog. Mirrors the flavor of the paper's examples
/// ("Apple" / "Apple Inc" / "AAPL", "topics entertainment", "disney",
/// "stomp inc", "write brothers", "adobe").
pub const BRANDS: &[Brand] = &[
    Brand {
        name: "apple",
        aliases: &["apple inc", "aapl"],
        lines: &[
            ("iphone", Category::Phone),
            ("macbook", Category::Notebook),
            ("ipad", Category::Tablet),
        ],
        premium: 1.5,
    },
    Brand {
        name: "samsung",
        aliases: &["samsung electronics"],
        lines: &[
            ("galaxy", Category::Phone),
            ("galaxy tab", Category::Tablet),
            ("notebook flex", Category::Notebook),
        ],
        premium: 1.2,
    },
    Brand {
        name: "google",
        aliases: &["alphabet", "googl"],
        lines: &[
            ("pixel", Category::Phone),
            ("pixel slate", Category::Tablet),
        ],
        premium: 1.1,
    },
    Brand {
        name: "sony",
        aliases: &["sony corp"],
        lines: &[
            ("xperia", Category::Phone),
            ("alpha", Category::Camera),
            ("wh series", Category::Audio),
        ],
        premium: 1.2,
    },
    Brand {
        name: "dell",
        aliases: &["dell technologies"],
        lines: &[
            ("xps", Category::Notebook),
            ("inspiron", Category::Notebook),
        ],
        premium: 1.0,
    },
    Brand {
        name: "hp",
        aliases: &["hewlett packard"],
        lines: &[
            ("spectre", Category::Notebook),
            ("pavilion", Category::Notebook),
        ],
        premium: 0.9,
    },
    Brand {
        name: "lenovo",
        aliases: &["lenovo group"],
        lines: &[
            ("thinkpad", Category::Notebook),
            ("yoga tab", Category::Tablet),
        ],
        premium: 0.9,
    },
    Brand {
        name: "canon",
        aliases: &["canon usa"],
        lines: &[("eos", Category::Camera), ("powershot", Category::Camera)],
        premium: 1.1,
    },
    Brand {
        name: "nikon",
        aliases: &["nikon corp"],
        lines: &[
            ("coolpix", Category::Camera),
            ("z series", Category::Camera),
        ],
        premium: 1.0,
    },
    Brand {
        name: "bose",
        aliases: &["bose corp"],
        lines: &[
            ("quietcomfort", Category::Audio),
            ("soundlink", Category::Audio),
        ],
        premium: 1.3,
    },
    Brand {
        name: "adobe",
        aliases: &["adobe systems"],
        lines: &[
            ("photoshop", Category::Software),
            ("after effects", Category::Software),
        ],
        premium: 1.4,
    },
    Brand {
        name: "microsoft",
        aliases: &["msft", "microsoft corp"],
        lines: &[
            ("surface", Category::Tablet),
            ("office studio", Category::Software),
        ],
        premium: 1.2,
    },
    Brand {
        name: "topics entertainment",
        aliases: &["topics"],
        lines: &[("instant home design", Category::Software)],
        premium: 0.5,
    },
    Brand {
        name: "disney",
        aliases: &["disney interactive"],
        lines: &[("learning bundle", Category::Software)],
        premium: 0.6,
    },
    Brand {
        name: "stomp inc",
        aliases: &["stomp"],
        lines: &[("recover lost data", Category::Software)],
        premium: 0.7,
    },
    Brand {
        name: "write brothers",
        aliases: &["write bros"],
        lines: &[("dramatica", Category::Software)],
        premium: 0.8,
    },
];

/// One ground-truth catalog entity.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Stable id (match labels compare these).
    pub id: u64,
    /// Index into [`BRANDS`].
    pub brand: usize,
    /// Index into the brand's `lines`.
    pub line: usize,
    /// Model number (1..=12).
    pub model: u32,
    /// Memory in GB (power of two; 0 for categories without memory).
    pub memory_gb: u32,
    /// Screen size in tenths of an inch (0 for categories without screens).
    pub screen_tenths: u32,
    /// Release year.
    pub year: u32,
    /// List price in cents.
    pub price_cents: u64,
}

impl Entity {
    /// The brand record.
    pub fn brand(&self) -> &'static Brand {
        &BRANDS[self.brand]
    }

    /// The product-line name.
    pub fn line_name(&self) -> &'static str {
        self.brand().lines[self.line].0
    }

    /// The category.
    pub fn category(&self) -> Category {
        self.brand().lines[self.line].1
    }

    /// Screen size in inches (None for categories without screens).
    pub fn screen_inches(&self) -> Option<f64> {
        (self.screen_tenths > 0).then(|| self.screen_tenths as f64 / 10.0)
    }

    /// Price in dollars.
    pub fn price_dollars(&self) -> f64 {
        self.price_cents as f64 / 100.0
    }
}

/// Universe generation settings.
#[derive(Debug, Clone)]
pub struct UniverseConfig {
    /// Number of entities to sample.
    pub n_entities: usize,
    /// Relative price noise (0.05 = ±5%); keeps brand+model+memory → price
    /// an *approximate* rather than exact FD, like real catalogs.
    pub price_noise: f64,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        Self {
            n_entities: 400,
            price_noise: 0.04,
        }
    }
}

/// The generated catalog.
#[derive(Debug, Clone)]
pub struct Universe {
    /// All entities, id = index.
    pub entities: Vec<Entity>,
}

impl Universe {
    /// Samples a universe. Distinct entities are guaranteed distinct in
    /// `(brand, line, model, memory)` so that match labels are unambiguous.
    pub fn generate(cfg: &UniverseConfig, rng: &mut (impl Rng + ?Sized)) -> Universe {
        let mut seen = std::collections::HashSet::new();
        let mut entities = Vec::with_capacity(cfg.n_entities);
        let mut guard = 0usize;
        while entities.len() < cfg.n_entities {
            guard += 1;
            assert!(
                guard < cfg.n_entities * 200,
                "universe too small for {} distinct entities",
                cfg.n_entities
            );
            let brand = rng.gen_range(0..BRANDS.len());
            let line = rng.gen_range(0..BRANDS[brand].lines.len());
            let category = BRANDS[brand].lines[line].1;
            let model = rng.gen_range(1..=12u32);
            let memory_gb = match category {
                Category::Phone | Category::Tablet => *[32u32, 64, 128, 256].choose(rng).unwrap(),
                Category::Notebook => *[256u32, 512, 1024].choose(rng).unwrap(),
                Category::Camera | Category::Audio | Category::Software => 0,
            };
            if !seen.insert((brand, line, model, memory_gb)) {
                continue;
            }
            let screen_tenths = match category {
                Category::Phone => rng.gen_range(50..=69),
                Category::Tablet => rng.gen_range(79..=129),
                Category::Notebook => rng.gen_range(130..=170),
                _ => 0,
            };
            // year follows the model number: newer models are newer products
            let year = 2008 + model + rng.gen_range(0..2);
            let base = match category {
                Category::Phone => 400.0,
                Category::Notebook => 700.0,
                Category::Tablet => 350.0,
                Category::Camera => 450.0,
                Category::Audio => 150.0,
                Category::Software => 60.0,
            };
            let price = (base + 35.0 * model as f64 + 0.8 * memory_gb as f64)
                * BRANDS[brand].premium
                * (1.0 + cfg.price_noise * (rng.gen::<f64>() * 2.0 - 1.0));
            // list-price convention: x.99
            let price_cents = ((price.max(5.0)).floor() as u64) * 100 + 99;
            entities.push(Entity {
                id: entities.len() as u64,
                brand,
                line,
                model,
                memory_gb,
                screen_tenths,
                year,
                price_cents,
            });
        }
        Universe { entities }
    }

    /// Number of entities.
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn generation_is_deterministic_and_distinct() {
        let cfg = UniverseConfig {
            n_entities: 100,
            ..Default::default()
        };
        let u1 = Universe::generate(&cfg, &mut SmallRng::seed_from_u64(7));
        let u2 = Universe::generate(&cfg, &mut SmallRng::seed_from_u64(7));
        assert_eq!(u1.len(), 100);
        for (a, b) in u1.entities.iter().zip(u2.entities.iter()) {
            assert_eq!(a.price_cents, b.price_cents);
            assert_eq!(a.model, b.model);
        }
        let mut keys = std::collections::HashSet::new();
        for e in &u1.entities {
            assert!(keys.insert((e.brand, e.line, e.model, e.memory_gb)));
        }
    }

    #[test]
    fn category_constraints_hold() {
        let u = Universe::generate(
            &UniverseConfig {
                n_entities: 200,
                ..Default::default()
            },
            &mut SmallRng::seed_from_u64(1),
        );
        for e in &u.entities {
            match e.category() {
                Category::Phone => {
                    assert!(e.memory_gb >= 32);
                    let s = e.screen_inches().unwrap();
                    assert!((5.0..=6.9).contains(&s), "phone screen {s}");
                }
                Category::Software => {
                    assert_eq!(e.memory_gb, 0);
                    assert!(e.screen_inches().is_none());
                }
                _ => {}
            }
            assert!(e.price_cents % 100 == 99, "price ends in .99");
            assert!((2009..=2021).contains(&e.year));
        }
    }

    #[test]
    fn premium_brands_cost_more_on_average() {
        let u = Universe::generate(
            &UniverseConfig {
                n_entities: 400,
                ..Default::default()
            },
            &mut SmallRng::seed_from_u64(2),
        );
        let mean_price = |brand: &str| {
            let (mut sum, mut n) = (0.0, 0);
            for e in &u.entities {
                if e.brand().name == brand && e.category() == Category::Phone {
                    sum += e.price_dollars();
                    n += 1;
                }
            }
            (sum / n.max(1) as f64, n)
        };
        let (apple, na) = mean_price("apple");
        let (hp, _) = mean_price("hp");
        if na > 3 {
            assert!(apple > hp || hp == 0.0);
        }
    }

    #[test]
    fn price_is_an_approximate_function_of_attributes() {
        // same (brand,line,model,memory) cannot repeat, but price must track
        // the deterministic part within the noise band
        let cfg = UniverseConfig {
            n_entities: 300,
            price_noise: 0.04,
        };
        let u = Universe::generate(&cfg, &mut SmallRng::seed_from_u64(3));
        for e in &u.entities {
            let base = match e.category() {
                Category::Phone => 400.0,
                Category::Notebook => 700.0,
                Category::Tablet => 350.0,
                Category::Camera => 450.0,
                Category::Audio => 150.0,
                Category::Software => 60.0,
            };
            let det = (base + 35.0 * e.model as f64 + 0.8 * e.memory_gb as f64) * e.brand().premium;
            let ratio = e.price_dollars() / det;
            assert!((0.94..=1.07).contains(&ratio), "ratio {ratio}");
        }
    }
}
