//! Normalization and vocabulary construction.

use std::collections::HashMap;

use rpt_json::{Json, JsonError};

use crate::{NUM_SPECIAL, SPECIAL_NAMES, UNK};

/// Lowercases and splits `text` into word tokens.
///
/// Rules (deterministic and reversible enough for table data):
/// * ASCII letters group into words; digits (with interior `.`) group into
///   numbers, so `5.8` stays one token but a trailing period splits off;
/// * every other character is a separator and is dropped, so `"5.8-inch"`
///   tokenizes to `["5.8", "inch"]` and `"(jewel case)"` to
///   `["jewel", "case"]`.
pub fn normalize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut cur = String::new();
    #[derive(PartialEq, Clone, Copy)]
    enum Kind {
        None,
        Word,
        Number,
    }
    let mut kind = Kind::None;
    let chars: Vec<char> = text.chars().collect();
    let flush = |cur: &mut String, tokens: &mut Vec<String>| {
        if !cur.is_empty() {
            // strip a trailing '.' that grouped into a number ("6.5." -> "6.5")
            while cur.ends_with('.') {
                cur.pop();
            }
            if !cur.is_empty() {
                tokens.push(std::mem::take(cur));
            } else {
                cur.clear();
            }
        }
    };
    for (i, &c) in chars.iter().enumerate() {
        if c.is_ascii_alphabetic() {
            if kind == Kind::Number {
                flush(&mut cur, &mut tokens);
            }
            kind = Kind::Word;
            cur.push(c.to_ascii_lowercase());
        } else if c.is_ascii_digit() {
            if kind == Kind::Word {
                flush(&mut cur, &mut tokens);
            }
            kind = Kind::Number;
            cur.push(c);
        } else if c == '.'
            && kind == Kind::Number
            && chars.get(i + 1).is_some_and(|n| n.is_ascii_digit())
        {
            cur.push('.');
        } else {
            flush(&mut cur, &mut tokens);
            kind = Kind::None;
        }
    }
    flush(&mut cur, &mut tokens);
    tokens
}

/// Counts token frequencies across a corpus, then freezes into a [`Vocab`].
#[derive(Default)]
pub struct VocabBuilder {
    counts: HashMap<String, usize>,
}

impl VocabBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds every token of `text` (after [`normalize`]).
    pub fn add_text(&mut self, text: &str) {
        for tok in normalize(text) {
            *self.counts.entry(tok).or_insert(0) += 1;
        }
    }

    /// Adds a pre-normalized token.
    pub fn add_token(&mut self, token: &str) {
        *self.counts.entry(token.to_string()).or_insert(0) += 1;
    }

    /// Freezes into a vocabulary keeping tokens with `count >= min_count`,
    /// capped at `max_size` non-special entries (most frequent first; ties
    /// broken lexicographically for determinism).
    pub fn build(self, min_count: usize, max_size: usize) -> Vocab {
        let mut entries: Vec<(String, usize)> = self
            .counts
            .into_iter()
            .filter(|(_, c)| *c >= min_count)
            .collect();
        entries.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        entries.truncate(max_size);
        let mut tokens: Vec<String> = SPECIAL_NAMES.iter().map(|s| s.to_string()).collect();
        tokens.extend(entries.into_iter().map(|(t, _)| t));
        Vocab::from_tokens(tokens)
    }
}

/// The largest vocabulary file [`Vocab::load_file`] reads: far above any
/// vocabulary the builders here make (tens of thousands of short tokens).
pub const MAX_VOCAB_BYTES: u64 = 64 << 20;

/// A frozen vocabulary: id 0..[`NUM_SPECIAL`] are the special tokens, the
/// rest are corpus tokens in frequency order.
#[derive(Debug, Clone)]
pub struct Vocab {
    tokens: Vec<String>,
    index: HashMap<String, usize>,
}

impl Vocab {
    fn from_tokens(tokens: Vec<String>) -> Self {
        let index = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
        Self { tokens, index }
    }

    /// Rebuilds the lookup index (call after deserializing).
    pub fn rebuild_index(&mut self) {
        self.index = self
            .tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i))
            .collect();
    }

    /// Vocabulary size including specials.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// True if only the special tokens are present.
    pub fn is_empty(&self) -> bool {
        self.tokens.len() <= NUM_SPECIAL
    }

    /// Token id, falling back to `[UNK]`.
    pub fn id_of(&self, token: &str) -> usize {
        self.index.get(token).copied().unwrap_or(UNK)
    }

    /// True if the token is in-vocabulary.
    pub fn contains(&self, token: &str) -> bool {
        self.index.contains_key(token)
    }

    /// Surface form of a token id.
    ///
    /// # Panics
    /// If `id` is out of range.
    pub fn token_of(&self, id: usize) -> &str {
        &self.tokens[id]
    }

    /// Normalizes and encodes free text.
    pub fn encode_text(&self, text: &str) -> Vec<usize> {
        normalize(text).iter().map(|t| self.id_of(t)).collect()
    }

    /// Serializes to JSON (`{"tokens": [...]}`; same wire format the old
    /// serde derive produced, so previously saved vocabularies load).
    pub fn to_json(&self) -> String {
        let tokens: Vec<Json> = self.tokens.iter().map(Json::from).collect();
        let mut obj = rpt_json::Map::new();
        obj.insert("tokens".to_string(), Json::Array(tokens));
        Json::Object(obj).to_string()
    }

    /// Deserializes from [`Vocab::to_json`] output and rebuilds the
    /// lookup index.
    pub fn from_json(text: &str) -> Result<Vocab, JsonError> {
        let doc = Json::parse(text)?;
        let bad = |message: &str| JsonError {
            message: message.to_string(),
            offset: 0,
        };
        let tokens = doc
            .get("tokens")
            .and_then(Json::as_array)
            .ok_or_else(|| bad("vocab json needs a \"tokens\" array"))?
            .iter()
            .map(|t| t.as_str().map(str::to_string))
            .collect::<Option<Vec<String>>>()
            .ok_or_else(|| bad("vocab tokens must be strings"))?;
        Ok(Vocab::from_tokens(tokens))
    }

    /// Writes the vocabulary to a file.
    pub fn save_file(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a vocabulary from a file written by [`Vocab::save_file`].
    /// A file above [`MAX_VOCAB_BYTES`] is refused unread with an
    /// [`std::io::ErrorKind::FileTooLarge`] error.
    pub fn load_file(path: impl AsRef<std::path::Path>) -> std::io::Result<Vocab> {
        let text = rpt_json::read_capped(path, MAX_VOCAB_BYTES)?;
        Vocab::from_json(&text).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// Decodes ids back to a space-joined string, skipping special tokens.
    pub fn decode(&self, ids: &[usize]) -> String {
        let words: Vec<&str> = ids
            .iter()
            .filter(|&&id| id >= NUM_SPECIAL && id < self.tokens.len())
            .map(|&id| self.tokens[id].as_str())
            .collect();
        words.join(" ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MASK, PAD};

    #[test]
    fn normalize_splits_units_and_keeps_decimals() {
        assert_eq!(normalize("5.8-inch"), vec!["5.8", "inch"]);
        assert_eq!(normalize("iPhone X"), vec!["iphone", "x"]);
        assert_eq!(normalize("64GB"), vec!["64", "gb"]);
        assert_eq!(normalize("(jewel case)"), vec!["jewel", "case"]);
        assert_eq!(normalize("$9.99!"), vec!["9.99"]);
        assert_eq!(normalize("a1b2"), vec!["a", "1", "b", "2"]);
        assert_eq!(normalize(""), Vec::<String>::new());
        assert_eq!(normalize("..."), Vec::<String>::new());
    }

    #[test]
    fn normalize_does_not_glue_trailing_period() {
        assert_eq!(normalize("v6.5."), vec!["v", "6.5"]);
        assert_eq!(normalize("end. start"), vec!["end", "start"]);
    }

    #[test]
    fn builder_orders_by_frequency_then_lexicographic() {
        let mut b = VocabBuilder::new();
        b.add_text("apple apple banana cherry cherry cherry");
        let v = b.build(1, 100);
        assert_eq!(v.token_of(NUM_SPECIAL), "cherry");
        assert_eq!(v.token_of(NUM_SPECIAL + 1), "apple");
        assert_eq!(v.token_of(NUM_SPECIAL + 2), "banana");
    }

    #[test]
    fn min_count_and_max_size_apply() {
        let mut b = VocabBuilder::new();
        b.add_text("a a a b b c");
        let v = b.build(2, 1);
        assert_eq!(v.len(), NUM_SPECIAL + 1);
        assert!(v.contains("a"));
        assert!(!v.contains("b")); // cut by max_size
        assert!(!v.contains("c")); // cut by min_count
    }

    #[test]
    fn unknown_tokens_map_to_unk() {
        let v = VocabBuilder::new().build(1, 10);
        assert_eq!(v.id_of("never-seen"), UNK);
    }

    #[test]
    fn special_ids_are_stable() {
        let v = VocabBuilder::new().build(1, 10);
        assert_eq!(v.token_of(PAD), "[PAD]");
        assert_eq!(v.token_of(MASK), "[M]");
        assert_eq!(v.id_of("[M]"), MASK);
    }

    #[test]
    fn decode_skips_specials() {
        let mut b = VocabBuilder::new();
        b.add_text("hello world");
        let v = b.build(1, 10);
        let mut ids = v.encode_text("hello world");
        ids.insert(0, MASK);
        ids.push(PAD);
        assert_eq!(v.decode(&ids), "hello world");
    }

    #[test]
    fn json_roundtrip_rebuilds_index() {
        let mut b = VocabBuilder::new();
        b.add_text("alpha beta");
        let v = b.build(1, 10);
        let json = v.to_json();
        let v2 = Vocab::from_json(&json).unwrap();
        assert_eq!(v2.id_of("alpha"), v.id_of("alpha"));
        assert_eq!(v2.len(), v.len());
    }

    #[test]
    fn pre_migration_serde_vocab_still_loads() {
        // what serde_json emitted for a Vocab before the migration
        let old = r#"{"tokens":["[PAD]","[M]","hello"]}"#;
        let v = Vocab::from_json(old).unwrap();
        assert_eq!(v.id_of("hello"), 2);
    }

    #[test]
    fn vocab_file_roundtrip() {
        let mut b = VocabBuilder::new();
        b.add_text("gamma delta");
        let v = b.build(1, 10);
        let path = std::env::temp_dir().join("rpt_vocab_roundtrip_test.json");
        v.save_file(&path).unwrap();
        let v2 = Vocab::load_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(v2.len(), v.len());
        assert_eq!(v2.id_of("gamma"), v.id_of("gamma"));
        assert!(Vocab::from_json("{}").is_err());
    }

    #[test]
    fn a_vocab_file_above_the_ceiling_is_refused_unread() {
        let path =
            std::env::temp_dir().join(format!("rpt_vocab_ceiling_{}.json", std::process::id()));
        // sparse: set_len writes no data
        let f = std::fs::File::create(&path).unwrap();
        f.set_len(MAX_VOCAB_BYTES + 1).unwrap();
        let err = Vocab::load_file(&path).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), std::io::ErrorKind::FileTooLarge, "{err}");
    }
}
