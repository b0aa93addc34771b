//! Natural-language product prose: the pretraining corpus for the
//! text-only BART baseline of Table 1.
//!
//! The sentences mention the same facts as the tuple serializations — the
//! baseline is *not* starved of information; it is starved of the tuple
//! *format* (no `[A]`/`[V]` structure, no column identity), which is
//! exactly the variable the paper's Table 1 isolates.

use rpt_rng::Rng;
use rpt_rng::SliceRandom;

use crate::render::{NoiseProfile, Renderer, UnitStyle};
use crate::universe::Universe;

/// Sentence templates; `{}` slots are filled in order.
const TEMPLATES: [&str; 6] = [
    "the {brand} {title} retails for {price} dollars",
    "buy the {title} by {brand} for only {price}",
    "{brand} released the {title} priced at {price} dollars",
    "the new {title} from {brand} costs {price}",
    "{title} is a {category} made by {brand} selling for {price}",
    "for {price} dollars the {brand} {title} is a solid {category}",
];

/// Generates `n` prose sentences about random catalog entities.
pub fn text_corpus(universe: &Universe, n: usize, rng: &mut (impl Rng + ?Sized)) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let e = universe.entities.choose(rng).expect("non-empty universe");
        let style = *UnitStyle::ALL.choose(rng).unwrap();
        let noise = NoiseProfile {
            alias_prob: 0.25,
            model_variant_prob: 0.2,
            unit_style: style,
            ..NoiseProfile::clean()
        };
        let template = TEMPLATES.choose(rng).unwrap();
        let title = Renderer::title(e, &noise, rng);
        let brand = Renderer::brand(e, &noise, rng);
        let price = Renderer::price(e);
        let category = e.category().label();
        let mut s = template.to_string();
        for (slot, value) in [
            ("{brand}", brand.as_str()),
            ("{title}", title.as_str()),
            ("{price}", price.as_str()),
            ("{category}", category),
        ] {
            s = s.replace(slot, value);
        }
        out.push(s);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseConfig;
    use rpt_rng::SeedableRng;
    use rpt_rng::SmallRng;

    #[test]
    fn corpus_sentences_mention_catalog_facts() {
        let mut rng = SmallRng::seed_from_u64(2);
        let u = Universe::generate(
            &UniverseConfig {
                n_entities: 50,
                ..Default::default()
            },
            &mut rng,
        );
        let corpus = text_corpus(&u, 100, &mut rng);
        assert_eq!(corpus.len(), 100);
        for s in &corpus {
            assert!(!s.contains('{'), "unfilled slot in {s:?}");
            assert!(s.split_whitespace().count() >= 5);
        }
        // prices appear (decimal dollar amounts)
        assert!(corpus.iter().any(|s| s.contains(".99")));
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let u = Universe::generate(
            &UniverseConfig {
                n_entities: 30,
                ..Default::default()
            },
            &mut SmallRng::seed_from_u64(3),
        );
        let c1 = text_corpus(&u, 10, &mut SmallRng::seed_from_u64(4));
        let c2 = text_corpus(&u, 10, &mut SmallRng::seed_from_u64(4));
        assert_eq!(c1, c2);
    }
}
