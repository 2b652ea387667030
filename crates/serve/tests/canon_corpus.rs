//! Property tests for the canonical structural hash ([`cmt_ir::canon`])
//! over the full 256-seed verification corpus plus the paper kernels:
//! the memo cache is only sound if renaming and re-serialization
//! preserve keys while structurally distinct programs never collide.

mod common;

use cmt_ir::canon::{canonical_source, nest_key};
use cmt_ir::parse::parse_program;
use cmt_ir::pretty::program_to_source;
use common::{alpha_rename, corpus, reorder_declarations};
use std::collections::HashMap;

#[test]
fn alpha_renaming_preserves_keys_corpus_wide() {
    for p in corpus() {
        let source = program_to_source(&p);
        let renamed = parse_program(&alpha_rename(&source))
            .unwrap_or_else(|e| panic!("renamed {} does not parse: {e}\n{source}", p.name()));
        assert_eq!(
            nest_key(&p),
            nest_key(&renamed),
            "alpha-renaming changed the key of {}",
            p.name()
        );
    }
}

#[test]
fn array_declaration_order_does_not_affect_keys() {
    for p in corpus() {
        let source = program_to_source(&p);
        let reordered = parse_program(&reorder_declarations(&source))
            .unwrap_or_else(|e| panic!("reordered {} does not parse: {e}\n{source}", p.name()));
        assert_eq!(
            nest_key(&p),
            nest_key(&reordered),
            "declaration order changed the key of {}",
            p.name()
        );
    }
}

#[test]
fn reserialization_round_trip_preserves_keys() {
    for p in corpus() {
        let round = parse_program(&program_to_source(&p))
            .unwrap_or_else(|e| panic!("{} does not round-trip: {e}", p.name()));
        assert_eq!(
            nest_key(&p),
            nest_key(&round),
            "pretty/parse round trip changed the key of {}",
            p.name()
        );
        assert_eq!(canonical_source(&p), canonical_source(&round));
    }
}

#[test]
fn distinct_structures_never_collide_across_the_corpus() {
    // Equal keys must imply equal canonical renderings: a collision
    // between structurally distinct programs would silently answer one
    // request with another's result.
    let mut by_key: HashMap<[u64; 2], (String, String)> = HashMap::new();
    let mut distinct = 0usize;
    for p in corpus() {
        let key = nest_key(&p).0;
        let canon = canonical_source(&p);
        match by_key.get(&key) {
            Some((seen_canon, seen_name)) => assert_eq!(
                seen_canon,
                &canon,
                "key collision between {} and {}",
                seen_name,
                p.name()
            ),
            None => {
                distinct += 1;
                by_key.insert(key, (canon, p.name().to_string()));
            }
        }
    }
    // Sanity: the corpus is not degenerate — nearly every program is
    // structurally distinct.
    assert!(distinct > 250, "only {distinct} distinct keys");
}
