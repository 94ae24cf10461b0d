//! Differential suite for the text decoder behind
//! [`EventDb::from_str_symbols`] and [`Episode::from_str`]: on every input
//! the byte-table decoder must return exactly what looking each character up
//! with [`Alphabet::symbol`] returns — the same ids on success, and the same
//! [`CoreError::UnknownSymbol`] naming the *first* offending character on
//! failure. Adversarial axes:
//!
//! * alphabets whose names are single ASCII letters ([`Alphabet::latin26`]),
//!   multi-character names that must never match a character
//!   ([`Alphabet::numbered`]), and single-character non-ASCII names with a
//!   duplicated name (the first index must win);
//! * strings mixing known, unknown, ASCII and multi-byte (2-, 3- and 4-byte
//!   UTF-8) characters, including the empty string and strings whose only
//!   offender is the last character.

use proptest::prelude::*;
use tdm_core::{Alphabet, CoreError, Episode, EventDb, Result};

/// The per-character lookup the decoder replaced, kept as the oracle.
fn oracle(alphabet: &Alphabet, s: &str) -> Result<Vec<u8>> {
    s.chars()
        .map(|ch| alphabet.symbol(&ch.to_string()).map(|sym| sym.0))
        .collect()
}

/// Single-character non-ASCII names next to ASCII ones, with `"é"` and `"A"`
/// each named twice and names that cannot match one character.
fn mixed_alphabet() -> Alphabet {
    Alphabet::new([
        "é", "A", "ß", "A", "日", "b", "ab", "", "😀", "é", "\u{80}", "Z", "s4",
    ])
    .expect("13 names")
}

fn alphabets() -> Vec<Alphabet> {
    vec![
        Alphabet::latin26(),
        Alphabet::numbered(10).expect("small"),
        Alphabet::numbered(256).expect("full"),
        mixed_alphabet(),
        Alphabet::new(Vec::<String>::new()).expect("empty"),
    ]
}

/// Characters the generated strings draw from; the ASCII letters repeat so
/// that long all-known runs (the byte-table fast path) are common.
const POOL: &[char] = &[
    'A', 'B', 'C', 'Q', 'Z', 'A', 'B', 'Z', 'A', 'b', 'Z', 'a', 'z', 's', '4', '0', ' ', '\n', '"',
    '\u{7f}', 'é', 'ß', 'ü', '\u{80}', '日', '本', '😀', '🦀',
];

fn assert_decodes_like_the_oracle(alphabet: &Alphabet, s: &str) {
    let want = oracle(alphabet, s);
    let got = EventDb::from_str_symbols(alphabet, s).map(|db| db.symbols().to_vec());
    assert_eq!(got, want, "EventDb::from_str_symbols on {s:?}");
    let episode = Episode::from_str(alphabet, s).map(|ep| ep.items().to_vec());
    let episode_want = want.and_then(|ids| {
        if ids.is_empty() {
            Err(CoreError::EmptyEpisode)
        } else {
            Ok(ids)
        }
    });
    assert_eq!(episode, episode_want, "Episode::from_str on {s:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decoder_matches_the_per_character_lookup(
        which in 0usize..5,
        picks in prop::collection::vec(0usize..POOL.len(), 0..64),
    ) {
        let alphabet = &alphabets()[which];
        let s: String = picks.iter().map(|&i| POOL[i]).collect();
        assert_decodes_like_the_oracle(alphabet, &s);
    }

    #[test]
    fn a_long_known_run_then_one_offender_names_it(
        which in 0usize..5,
        len in 0usize..2_000,
        offender in 0usize..POOL.len(),
        tail in prop::collection::vec(0usize..POOL.len(), 0..4),
    ) {
        let alphabet = &alphabets()[which];
        let mut s: String = (0..len).map(|i| ['A', 'Z', 'b'][i % 3]).collect();
        s.push(POOL[offender]);
        s.extend(tail.iter().map(|&i| POOL[i]));
        assert_decodes_like_the_oracle(alphabet, &s);
    }
}

#[test]
fn duplicate_names_resolve_to_the_first_index() {
    let ab = mixed_alphabet();
    let db = EventDb::from_str_symbols(&ab, "AéA日é").expect("all known");
    assert_eq!(db.symbols(), &[1, 0, 1, 4, 0]);
}

#[test]
fn multi_character_names_never_match_a_character() {
    let ab = Alphabet::numbered(50).expect("small");
    assert_eq!(
        EventDb::from_str_symbols(&ab, "s"),
        Err(CoreError::UnknownSymbol("s".into()))
    );
    assert_eq!(EventDb::from_str_symbols(&ab, "").map(|db| db.len()), Ok(0));
}

#[test]
fn the_first_offender_is_named_in_a_long_stream() {
    let ab = Alphabet::latin26();
    let mut s = "ABCDEFGHIJKLMNOPQRSTUVWXYZ".repeat(10_000);
    s.push('x');
    s.push('日');
    assert_eq!(
        EventDb::from_str_symbols(&ab, &s),
        Err(CoreError::UnknownSymbol("x".into()))
    );
    s.truncate(s.len() - 4);
    s.push('日');
    s.push('x');
    assert_eq!(
        EventDb::from_str_symbols(&ab, &s),
        Err(CoreError::UnknownSymbol("日".into()))
    );
}
