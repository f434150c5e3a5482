//! Streaming WAL replay against its oracle.
//!
//! `DurableState::replay` reads records in place from the recovered
//! segment bytes; `from_bytes::<WalRecord>` + `DurableState::apply` is
//! the owned decoder it replaced on the recovery path and stays as the
//! reference. For any record sequence — well-formed or damaged behind a
//! valid frame checksum — the two must agree on accept/reject, on the
//! error, and on every byte of the resulting state; and a service
//! recovering over a WAL with an undecodable record must come up
//! drained on exactly the state its decodable prefix produced.

use edgelet_core::{Platform, PlatformConfig};
use edgelet_exec::Ledger;
use edgelet_live::{
    DurabilityConfig, DurableState, QueryService, ServiceConfig, SubmitError, WalRecord,
};
use edgelet_query::{PrivacyConfig, ResilienceConfig};
use edgelet_store::{DurableLog, MemBackend, RetryPolicy};
use edgelet_util::ids::DeviceId;
use edgelet_wire::{from_bytes, to_bytes, Writer};
use proptest::prelude::*;
use std::sync::Arc;

/// The oracle: materialise each record, apply it, stop at the first
/// undecodable one (leaving the prefix applied).
fn materialising_replay(
    state: &mut DurableState,
    payloads: &[Vec<u8>],
) -> edgelet_util::Result<usize> {
    for payload in payloads {
        state.apply(&from_bytes::<WalRecord>(payload)?);
    }
    Ok(payloads.len())
}

/// One generated record. `shape` picks the kind and the optional
/// fields; `devices` seeds the completion's ledger (empty allowed).
fn record(shape: u8, epoch: u64, devices: &[(u64, u64)]) -> WalRecord {
    if shape < 86 {
        return WalRecord::Intent {
            epoch,
            spec_digest: (epoch as u32).wrapping_mul(0x9e37) ^ u32::from(shape),
        };
    }
    let mut ledger = Ledger::default();
    for (device, amount) in devices {
        let device = DeviceId::new(*device);
        match amount % 3 {
            0 => ledger.host_operator(device),
            1 => ledger.raw_tuples(device, *amount),
            _ => ledger.aggregates(device, *amount),
        }
    }
    WalRecord::Completion {
        epoch,
        // Bytes on both sides of the one-byte varint boundary.
        result_payload: (shape & 4 != 0)
            .then(|| devices.iter().map(|(d, a)| (d * 7 + a) as u8).collect()),
        ledger,
        trace_digest: (shape & 8 != 0).then_some(epoch << 20 | u64::from(shape)),
    }
}

/// Asserts streaming replay and the oracle agree on `log`, from the
/// same starting state, down to the encoded state bytes.
fn assert_replays_agree(start: &DurableState, log: &[Vec<u8>]) {
    let mut streamed = start.clone();
    let mut oracle = start.clone();
    let got = streamed.replay(log);
    let want = materialising_replay(&mut oracle, log);
    match (&got, &want) {
        (Ok(a), Ok(b)) => assert_eq!(a, b),
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        _ => panic!("streaming {got:?} vs oracle {want:?}"),
    }
    assert_eq!(to_bytes(&streamed), to_bytes(&oracle));
}

proptest! {
    /// Intents, completions, duplicate epochs, out-of-order epochs,
    /// devices the cumulative ledger has never seen, empty ledgers, a
    /// segment replayed again, and a replay split over two calls.
    #[test]
    fn prop_streaming_replay_equals_materialising_replay(
        shapes in prop::collection::vec(
            (any::<u8>(), 0u64..12, prop::collection::vec((0u64..40, 0u64..500), 0..24)),
            0..40,
        ),
        split in any::<prop::sample::Index>(),
        replayed_from in any::<prop::sample::Index>()
    ) {
        let mut log: Vec<Vec<u8>> = shapes
            .iter()
            .map(|(shape, epoch, devices)| to_bytes(&record(*shape, *epoch, devices)))
            .collect();
        if !log.is_empty() {
            // A crash between a completion and its checkpoint replays
            // the tail of the log a second time.
            let again = log[replayed_from.index(log.len())..].to_vec();
            log.extend(again);
        }
        assert_replays_agree(&DurableState::default(), &log);

        // Replay in two calls (checkpointed state + later segment).
        let cut = if log.is_empty() { 0 } else { split.index(log.len()) };
        let mut first = DurableState::default();
        first.replay(&log[..cut]).unwrap();
        assert_replays_agree(&first, &log[cut..]);
        let mut whole = DurableState::default();
        whole.replay(&log).unwrap();
        first.replay(&log[cut..]).unwrap();
        prop_assert_eq!(to_bytes(&first), to_bytes(&whole));
    }

    /// One byte of one record overwritten behind a (hypothetically)
    /// valid checksum: whatever that turns the record into, both
    /// replays accept or reject it alike and end in the same state.
    #[test]
    fn prop_damaged_records_are_judged_alike(
        shapes in prop::collection::vec(
            (any::<u8>(), 0u64..6, prop::collection::vec((0u64..20, 0u64..300), 0..12)),
            1..12,
        ),
        victim in any::<prop::sample::Index>(),
        at in any::<prop::sample::Index>(),
        value in any::<u8>()
    ) {
        let mut log: Vec<Vec<u8>> = shapes
            .iter()
            .map(|(shape, epoch, devices)| to_bytes(&record(*shape, *epoch, devices)))
            .collect();
        let record = &mut log[victim.index(shapes.len())];
        let at = at.index(record.len());
        record[at] = value;
        assert_replays_agree(&DurableState::default(), &log);
    }
}

/// Counter values at the edges the saturating sums guard.
const COUNTERS: [u64; 7] = [
    0,
    1,
    200,
    u32::MAX as u64 - 1,
    u32::MAX as u64,
    u64::MAX - 1,
    u64::MAX,
];
/// Ids past every bound a generated log's bytes could set for the
/// dense sums.
const FAR_IDS: [u64; 3] = [1 << 20, 1 << 40, u64::MAX];

/// One generated ledger entry: an id, a pick among [`FAR_IDS`] instead
/// (when below 24), and one pick of its three counters among
/// [`COUNTERS`] (`0..5 * 7 * 7`).
type EntryPick = (u64, u8, usize);

/// A completion written byte by byte, so its ledger can hold what no
/// run charges: zero entries, counters at their maxima, any id.
/// `damage` 1 puts the keys in descending order, 2 sets an operator
/// count beyond `u32`, 3 cuts the last byte; 0 leaves it well-formed.
fn completion_bytes(epoch: u64, picks: &[EntryPick], damage: u8) -> Vec<u8> {
    let mut entries: Vec<[u64; 4]> = picks
        .iter()
        .map(|&(id, far, counters)| {
            let id = if far < 24 {
                FAR_IDS[usize::from(far) % 3]
            } else {
                id
            };
            // The first five counters fit an operator count.
            let (ops, raw, agg) = (counters % 5, counters / 5 % 7, counters / 35);
            [id, COUNTERS[ops], COUNTERS[raw], COUNTERS[agg]]
        })
        .collect();
    entries.sort_by_key(|e| e[0]);
    entries.dedup_by_key(|e| e[0]);
    match damage {
        1 => entries.reverse(),
        2 => entries.push([u64::MAX, u64::from(u32::MAX) + 1, 0, 0]),
        _ => {}
    }
    if damage == 1 && entries.len() < 2 {
        entries = vec![[9, 0, 0, 0], [3, 0, 0, 0]];
    }
    let mut w = Writer::new();
    for v in [1, epoch, 0, entries.len() as u64] {
        w.put_varint(v);
    }
    for v in entries.iter().flatten() {
        w.put_varint(*v);
    }
    w.put_varint(0);
    let mut bytes = w.into_bytes();
    if damage == 3 {
        bytes.pop();
    }
    bytes
}

proptest! {
    /// Ledgers the dense sums must fold exactly as the map does: zero
    /// entries, ids below and above the bound (the bytes replayed so
    /// far) up to `u64::MAX`, counters that saturate — and at most one
    /// malformed record, after which neither replay applies anything.
    #[test]
    fn prop_dense_sums_fold_edge_ledgers_as_the_map_does(
        records in prop::collection::vec(
            (any::<u8>(), 0u64..10, prop::collection::vec(
                (0u64..3_000, any::<u8>(), 0usize..245),
                0..16,
            )),
            1..24,
        ),
        bad_at in any::<prop::sample::Index>(),
        damage in 0u8..4
    ) {
        let mut log: Vec<Vec<u8>> = records
            .iter()
            .map(|(shape, epoch, picks)| {
                if *shape < 64 {
                    to_bytes(&record(*shape, *epoch, &[]))
                } else {
                    completion_bytes(*epoch, picks, 0)
                }
            })
            .collect();
        if damage > 0 {
            let (_, epoch, picks) = &records[bad_at.index(records.len())];
            log.insert(bad_at.index(log.len() + 1), completion_bytes(*epoch, picks, damage));
        }
        assert_replays_agree(&DurableState::default(), &log);
        // On top of a state that already holds ledger entries.
        let mut warm = DurableState::default();
        materialising_replay(&mut warm, &log[..1]).ok();
        assert_replays_agree(&warm, &log[1..]);
    }
}

#[test]
fn undecodable_record_drains_the_service_on_the_state_before_it() {
    let mut ledger = Ledger::default();
    ledger.host_operator(DeviceId::new(2));
    ledger.raw_tuples(DeviceId::new(2), 64);
    ledger.aggregates(DeviceId::new(11), 3);
    let good = [
        to_bytes(&WalRecord::Intent {
            epoch: 1,
            spec_digest: 0x51,
        }),
        to_bytes(&WalRecord::Completion {
            epoch: 1,
            result_payload: Some(vec![200, 1, 2]),
            ledger: ledger.clone(),
            trace_digest: Some(9),
        }),
        to_bytes(&WalRecord::Intent {
            epoch: 2,
            spec_digest: 0x52,
        }),
    ];
    // Epoch 2's completion: two sound ledger entries, then a key that
    // goes backwards. Its frame checksum will be valid.
    let mut bad = vec![1u8, 2, 0, 3];
    for entry in [[2u8, 1, 1, 1], [11, 1, 1, 1], [5, 1, 1, 1]] {
        bad.extend_from_slice(&entry);
    }
    bad.push(0);
    assert!(from_bytes::<WalRecord>(&bad).is_err());

    let backend = Arc::new(MemBackend::new());
    let log = DurableLog::new(backend.clone(), RetryPolicy::immediate(2));
    for record in good.iter().chain([&bad]) {
        log.append(record).expect("in-memory append");
    }
    // A sound completion after the bad record must not be applied.
    log.append(&to_bytes(&WalRecord::Completion {
        epoch: 3,
        result_payload: None,
        ledger: ledger.clone(),
        trace_digest: None,
    }))
    .expect("in-memory append");

    let mut platform = Platform::build(PlatformConfig {
        contributors: 6,
        processors: 4,
        ..PlatformConfig::default()
    });
    let spec = platform.grouping_query(
        edgelet_store::Predicate::True,
        4,
        &[&[]],
        vec![edgelet_ml::AggSpec::count_star()],
    );
    let (service, report) = QueryService::with_durability(
        platform,
        ServiceConfig::default(),
        backend,
        DurabilityConfig::default(),
    );
    let reason = report.drained.expect("an undecodable record drains");
    assert!(
        reason.starts_with("WAL record undecodable: ") && reason.contains("not strictly ascending"),
        "{reason}"
    );
    assert_eq!(report.records_replayed, 0);
    assert_eq!(report.pending, vec![2]);
    assert!(service.is_drained());
    assert_eq!(service.drain_reason().as_deref(), Some(reason.as_str()));
    // Exactly the state the three good records produce: the half-read
    // ledger of the bad record charged nobody.
    assert_eq!(service.cumulative_ledger(), Some(ledger));
    assert_eq!(service.pending_recovery(), Some(vec![2]));

    let refused = service.submit(
        &spec,
        &PrivacyConfig::none(),
        &ResilienceConfig::default(),
        None,
    );
    match refused {
        Err(SubmitError::ReadOnly { reason }) => {
            assert!(reason.contains("WAL record undecodable"), "{reason}")
        }
        other => panic!("expected ReadOnly, got {other:?}"),
    }
    service.shutdown();
}
