//! The observation-name table is bounded: a peer cannot grow the
//! daemon by inventing names in `RoundDone` journals.
//!
//! Lives in its own test binary because the table is process-wide: the
//! test fills it on purpose.

use edgelet_net::proto::{interned_names, NetMsg, WireRound, MAX_INTERNED_NAMES};
use edgelet_sim::exec::{Deltas, JEntry, JItem};
use edgelet_sim::SimTime;
use edgelet_util::Error;
use edgelet_wire::{from_bytes, to_bytes};

/// The bytes of a `RoundDone` observing each of `names` once.
fn round_observing(names: &[String]) -> Vec<u8> {
    let journal = names
        .iter()
        .zip(0..)
        .map(|(name, intra)| JEntry {
            at: SimTime::from_micros(1_000),
            origin: 3,
            seq: 0,
            intra,
            // The encoder only reads the name, so leaking the test's few
            // hundred bytes stands in for a peer's arbitrary strings.
            item: JItem::Observe(Box::leak(name.clone().into_boxed_str()), 1.0),
        })
        .collect();
    to_bytes(&NetMsg::RoundDone {
        epoch: 1,
        round: WireRound {
            deltas: Deltas::default(),
            pending_min: None,
            hit_budget: false,
            journal,
            outgoing: Vec::new(),
        },
    })
}

#[test]
fn a_round_inventing_names_is_refused_and_the_table_stops_growing() {
    // A normal epoch: the protocol's own vocabulary interns and replays.
    let vocabulary: Vec<String> = ["kmeans/inertia", "combiner/partitions", "querier/latency"]
        .map(String::from)
        .into();
    let honest = round_observing(&vocabulary);
    assert!(from_bytes::<NetMsg>(&honest).is_ok());
    assert_eq!(interned_names(), 3);

    // A hostile (or buggy) worker: more distinct names than the table
    // will ever hold, in one journal.
    let invented: Vec<String> = (0..=MAX_INTERNED_NAMES)
        .map(|i| format!("bogus/{i}"))
        .collect();
    match from_bytes::<NetMsg>(&round_observing(&invented)) {
        Err(Error::Decode(why)) => assert!(why.contains("name table is full"), "{why}"),
        other => panic!("expected a typed decode refusal, got {other:?}"),
    }
    assert_eq!(interned_names(), MAX_INTERNED_NAMES);

    // The table is full for good: one more new name is refused on its
    // own, nothing grows, and the names already in it keep resolving.
    assert!(from_bytes::<NetMsg>(&round_observing(&["bogus/late".into()])).is_err());
    assert_eq!(interned_names(), MAX_INTERNED_NAMES);
    assert!(from_bytes::<NetMsg>(&honest).is_ok());
}
