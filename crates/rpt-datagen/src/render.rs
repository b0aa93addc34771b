//! Surface-form rendering and noise operators: how a ground-truth entity
//! becomes the messy strings a real web catalog would contain.

use rpt_rng::Rng;
use rpt_rng::SliceRandom;

use crate::universe::Entity;

/// How units are rendered in a given benchmark view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStyle {
    /// `5.8-inch`, `64gb`
    Hyphen,
    /// `5.8 inches`, `64 gb`
    Spaced,
    /// `5.8 in`, `64g`
    Abbrev,
}

impl UnitStyle {
    /// All styles.
    pub const ALL: [UnitStyle; 3] = [UnitStyle::Hyphen, UnitStyle::Spaced, UnitStyle::Abbrev];
}

/// Noise knobs for a benchmark view (the "dirtiness" of its source).
#[derive(Debug, Clone)]
pub struct NoiseProfile {
    /// Probability of replacing the canonical brand name with an alias.
    pub alias_prob: f64,
    /// Probability of rendering the model number as a word/roman variant.
    pub model_variant_prob: f64,
    /// Unit rendering style.
    pub unit_style: UnitStyle,
    /// Probability of injecting one typo into a string value.
    pub typo_prob: f64,
    /// Probability of dropping one token from a multi-token value.
    pub drop_token_prob: f64,
    /// Probability of swapping one adjacent token pair.
    pub swap_token_prob: f64,
    /// Relative price jitter per rendering (stores disagree on price):
    /// the listed price is `true_price * (1 ± jitter)`, re-rounded to .99.
    pub price_jitter: f64,
}

impl NoiseProfile {
    /// No noise at all (ground-truth rendering).
    pub fn clean() -> Self {
        Self {
            alias_prob: 0.0,
            model_variant_prob: 0.0,
            unit_style: UnitStyle::Spaced,
            typo_prob: 0.0,
            drop_token_prob: 0.0,
            swap_token_prob: 0.0,
            price_jitter: 0.0,
        }
    }

    /// Mild noise (a well-curated catalog).
    pub fn light(unit_style: UnitStyle) -> Self {
        Self {
            alias_prob: 0.25,
            model_variant_prob: 0.2,
            unit_style,
            typo_prob: 0.02,
            drop_token_prob: 0.03,
            swap_token_prob: 0.02,
            price_jitter: 0.05,
        }
    }

    /// Heavy noise (scraped marketplace data).
    pub fn heavy(unit_style: UnitStyle) -> Self {
        Self {
            alias_prob: 0.45,
            model_variant_prob: 0.35,
            unit_style,
            typo_prob: 0.08,
            drop_token_prob: 0.10,
            swap_token_prob: 0.06,
            price_jitter: 0.12,
        }
    }
}

const WORD_NUMBERS: [&str; 12] = [
    "one", "two", "three", "four", "five", "six", "seven", "eight", "nine", "ten", "eleven",
    "twelve",
];
const ROMAN_NUMBERS: [&str; 12] = [
    "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix", "x", "xi", "xii",
];

/// Stateless rendering functions (all randomness comes from the RNG).
pub struct Renderer;

impl Renderer {
    /// The model number as a decimal, word, or roman-numeral variant
    /// ("iPhone 10" = "iPhone ten" = "iPhone X").
    pub fn model(model: u32, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> String {
        debug_assert!((1..=12).contains(&model));
        if rng.gen_bool(noise.model_variant_prob) {
            let idx = (model - 1) as usize;
            if rng.gen_bool(0.5) {
                WORD_NUMBERS[idx].to_string()
            } else {
                ROMAN_NUMBERS[idx].to_string()
            }
        } else {
            model.to_string()
        }
    }

    /// The brand name, possibly via an alias.
    pub fn brand(e: &Entity, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> String {
        let b = e.brand();
        if !b.aliases.is_empty() && rng.gen_bool(noise.alias_prob) {
            b.aliases.choose(rng).unwrap().to_string()
        } else {
            b.name.to_string()
        }
    }

    /// Memory rendering, e.g. `64gb` / `64 gb` / `64g`.
    pub fn memory(gb: u32, style: UnitStyle) -> String {
        match style {
            UnitStyle::Hyphen => format!("{gb}gb"),
            UnitStyle::Spaced => format!("{gb} gb"),
            UnitStyle::Abbrev => format!("{gb}g"),
        }
    }

    /// Screen rendering, e.g. `5.8-inch` / `5.8 inches` / `5.8 in`.
    pub fn screen(tenths: u32, style: UnitStyle) -> String {
        let v = tenths as f64 / 10.0;
        match style {
            UnitStyle::Hyphen => format!("{v:.1}-inch"),
            UnitStyle::Spaced => format!("{v:.1} inches"),
            UnitStyle::Abbrev => format!("{v:.1} in"),
        }
    }

    /// Price as a decimal-dollar string (`499.99`).
    pub fn price(e: &Entity) -> String {
        format!("{:.2}", e.price_dollars())
    }

    /// The store-listed price: the true price jittered by
    /// `noise.price_jitter` and re-rounded to the x.99 convention, so two
    /// views of the same entity rarely agree to the cent (as in real
    /// marketplaces).
    pub fn price_listed(e: &Entity, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> String {
        if noise.price_jitter == 0.0 {
            return Self::price(e);
        }
        let jitter = 1.0 + noise.price_jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        let dollars = (e.price_dollars() * jitter).max(1.0).floor();
        format!("{dollars:.0}.99")
    }

    /// A marketplace-style product title:
    /// `"<line> <model> <memory> <screen>"`, with noise applied.
    pub fn title(e: &Entity, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> String {
        let mut parts: Vec<String> = vec![e.line_name().to_string()];
        parts.push(Self::model(e.model, noise, rng));
        if e.memory_gb > 0 {
            parts.push(Self::memory(e.memory_gb, noise.unit_style));
        }
        if let Some(_s) = e.screen_inches() {
            parts.push(Self::screen(e.screen_tenths, noise.unit_style));
        }
        apply_token_noise(&parts.join(" "), noise, rng)
    }

    /// A short title (line + model only), for terse benchmark views.
    pub fn short_title(e: &Entity, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> String {
        let model = Self::model(e.model, noise, rng);
        apply_token_noise(&format!("{} {}", e.line_name(), model), noise, rng)
    }

    /// A text-rich description paragraph for IE tasks, mentioning the
    /// attributes in natural phrasing (cf. the paper's Fig. 1(c)), plus
    /// numeric *distractor* phrases (resolution, battery, weight) so span
    /// extraction has to disambiguate between look-alike numbers.
    pub fn description(e: &Entity, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> String {
        let mut parts: Vec<String> = Vec::new();
        if let Some(_s) = e.screen_inches() {
            parts.push(format!(
                "{} touchscreen",
                Self::screen(e.screen_tenths, noise.unit_style)
            ));
        }
        // numeric distractors, deterministic per entity so answers stay
        // recoverable while confusing position-only strategies
        if e.id.is_multiple_of(2) {
            let w = 640 + (e.id % 7) * 128;
            parts.push(format!("a resolution of {} x {} pixels", w, w * 2));
        }
        if e.memory_gb > 0 {
            parts.push(format!(
                "comes with {} of ram",
                Self::memory(e.memory_gb, noise.unit_style)
            ));
        }
        if e.id.is_multiple_of(3) {
            parts.push(format!("a {} mah battery", 2200 + (e.id % 9) * 250));
        }
        parts.push(format!("released in {}", e.year));
        if e.id % 3 == 1 {
            parts.push(format!("weighs {} grams", 120 + (e.id % 11) * 35));
        }
        parts.push(format!("by {}", Self::brand(e, noise, rng)));
        parts.join(", ")
    }
}

/// Applies typo / drop / swap noise at the token level.
pub fn apply_token_noise(s: &str, noise: &NoiseProfile, rng: &mut (impl Rng + ?Sized)) -> String {
    let mut tokens: Vec<String> = s.split_whitespace().map(|t| t.to_string()).collect();
    if tokens.len() > 1 && rng.gen_bool(noise.drop_token_prob) {
        let i = rng.gen_range(0..tokens.len());
        tokens.remove(i);
    }
    if tokens.len() > 1 && rng.gen_bool(noise.swap_token_prob) {
        let i = rng.gen_range(0..tokens.len() - 1);
        tokens.swap(i, i + 1);
    }
    if rng.gen_bool(noise.typo_prob) {
        let i = rng.gen_range(0..tokens.len());
        tokens[i] = inject_typo(&tokens[i], rng);
    }
    tokens.join(" ")
}

/// Replaces one alphabetic character with its keyboard-ish neighbor, or
/// swaps two adjacent characters.
pub fn inject_typo(token: &str, rng: &mut (impl Rng + ?Sized)) -> String {
    let chars: Vec<char> = token.chars().collect();
    let alpha_positions: Vec<usize> = chars
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_ascii_alphabetic())
        .map(|(i, _)| i)
        .collect();
    if alpha_positions.is_empty() {
        return token.to_string();
    }
    let mut out = chars.clone();
    if alpha_positions.len() >= 2 && rng.gen_bool(0.5) {
        // swap two adjacent characters
        let k = rng.gen_range(0..alpha_positions.len() - 1);
        let (i, j) = (alpha_positions[k], alpha_positions[k + 1]);
        out.swap(i, j);
    } else {
        let i = *alpha_positions.choose(rng).unwrap();
        let c = out[i];
        let shifted = ((c as u8 - b'a' + 1) % 26 + b'a') as char;
        out[i] = shifted;
    }
    out.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Universe, UniverseConfig};
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    fn entity() -> Entity {
        let u = Universe::generate(
            &UniverseConfig {
                n_entities: 50,
                ..Default::default()
            },
            &mut SmallRng::seed_from_u64(1),
        );
        u.entities
            .iter()
            .find(|e| e.memory_gb > 0 && e.screen_tenths > 0)
            .unwrap()
            .clone()
    }

    #[test]
    fn clean_rendering_is_deterministic() {
        let e = entity();
        let noise = NoiseProfile::clean();
        let t1 = Renderer::title(&e, &noise, &mut SmallRng::seed_from_u64(2));
        let t2 = Renderer::title(&e, &noise, &mut SmallRng::seed_from_u64(99));
        assert_eq!(t1, t2, "clean profile must ignore the rng");
        assert!(t1.contains(e.line_name()));
        assert!(t1.contains(&e.model.to_string()));
    }

    #[test]
    fn unit_styles_differ_but_share_the_number() {
        let h = Renderer::screen(58, UnitStyle::Hyphen);
        let s = Renderer::screen(58, UnitStyle::Spaced);
        let a = Renderer::screen(58, UnitStyle::Abbrev);
        assert_eq!(h, "5.8-inch");
        assert_eq!(s, "5.8 inches");
        assert_eq!(a, "5.8 in");
        assert_eq!(Renderer::memory(64, UnitStyle::Hyphen), "64gb");
    }

    #[test]
    fn model_variants_cover_word_and_roman() {
        let noise = NoiseProfile {
            model_variant_prob: 1.0,
            ..NoiseProfile::clean()
        };
        let mut rng = SmallRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            seen.insert(Renderer::model(10, &noise, &mut rng));
        }
        assert!(seen.contains("ten"));
        assert!(seen.contains("x"));
        assert!(
            !seen.contains("10"),
            "variant prob 1.0 never renders decimal"
        );
    }

    #[test]
    fn alias_substitution_uses_catalog_aliases() {
        let e = entity();
        let noise = NoiseProfile {
            alias_prob: 1.0,
            ..NoiseProfile::clean()
        };
        let mut rng = SmallRng::seed_from_u64(4);
        let b = Renderer::brand(&e, &noise, &mut rng);
        assert!(e.brand().aliases.contains(&b.as_str()));
    }

    #[test]
    fn typo_changes_exactly_something_but_preserves_length_or_one_char() {
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let t = inject_typo("iphone", &mut rng);
            assert_eq!(t.len(), 6);
            assert_ne!(t, "iphone");
        }
        // numeric tokens are left alone
        assert_eq!(inject_typo("999", &mut rng), "999");
    }

    #[test]
    fn token_noise_probabilities_zero_is_identity() {
        let mut rng = SmallRng::seed_from_u64(6);
        let s = "galaxy 9 64 gb";
        assert_eq!(apply_token_noise(s, &NoiseProfile::clean(), &mut rng), s);
    }

    #[test]
    fn heavy_noise_eventually_perturbs() {
        let noise = NoiseProfile::heavy(UnitStyle::Hyphen);
        let mut rng = SmallRng::seed_from_u64(7);
        let changed = (0..100)
            .filter(|_| {
                apply_token_noise("galaxy tab 9 64gb", &noise, &mut rng) != "galaxy tab 9 64gb"
            })
            .count();
        assert!(changed > 5, "heavy noise changed only {changed}/100");
    }

    #[test]
    fn listed_price_jitters_within_bounds_and_keeps_convention() {
        let e = entity();
        let mut rng = SmallRng::seed_from_u64(11);
        let noise = NoiseProfile {
            price_jitter: 0.10,
            ..NoiseProfile::clean()
        };
        let truth = e.price_dollars();
        for _ in 0..50 {
            let listed: f64 = Renderer::price_listed(&e, &noise, &mut rng)
                .parse()
                .unwrap();
            assert!(
                listed.to_string().ends_with(".99") || (listed * 100.0).round() as i64 % 100 == 99
            );
            let rel = (listed - truth).abs() / truth;
            assert!(rel <= 0.11, "jitter {rel} out of bounds");
        }
        // zero jitter returns the exact catalog price
        assert_eq!(
            Renderer::price_listed(&e, &NoiseProfile::clean(), &mut rng),
            Renderer::price(&e)
        );
    }

    #[test]
    fn description_mentions_memory_and_year() {
        let e = entity();
        let d = Renderer::description(&e, &NoiseProfile::clean(), &mut SmallRng::seed_from_u64(8));
        assert!(d.contains("ram"));
        assert!(d.contains(&e.year.to_string()));
    }
}
