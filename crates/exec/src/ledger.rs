//! Crowd-liability accounting.
//!
//! Edgelet computing's third property shifts processing liability from a
//! single data controller to the crowd: every participant does a bounded,
//! comparable share. The ledger records, per device, what it hosted and
//! how much raw data it saw, so experiments can verify the spread.

use edgelet_util::ids::DeviceId;
use edgelet_util::{Error, Result};
use edgelet_wire::{varint, Decode, Encode, Reader, Writer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// One device's liability record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LiabilityEntry {
    /// Operator instances hosted (primary or activated backup).
    pub operators_hosted: u32,
    /// Raw (pre-aggregation) tuples processed in cleartext.
    pub raw_tuples_seen: u64,
    /// Aggregated records processed (partials, knowledge).
    pub aggregates_seen: u64,
}

impl LiabilityEntry {
    /// Adds `other`'s counters to this entry, the one place ledger
    /// balances grow. Saturating: a counter pinned at its maximum
    /// still reads as "too much", where a wrapped one would read as
    /// almost nothing, and a CRC-valid record carrying `u64::MAX` must
    /// not panic recovery.
    fn accumulate(&mut self, other: &LiabilityEntry) {
        self.operators_hosted = self.operators_hosted.saturating_add(other.operators_hosted);
        self.raw_tuples_seen = self.raw_tuples_seen.saturating_add(other.raw_tuples_seen);
        self.aggregates_seen = self.aggregates_seen.saturating_add(other.aggregates_seen);
    }
}

/// The crowd-liability ledger for one query execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    entries: BTreeMap<DeviceId, LiabilityEntry>,
}

/// A ledger as the wire carries it: `(device, entry)` pairs in strictly
/// ascending device order, held flat instead of in a tree.
///
/// [`FlatLedger::decode_from`] is the only decoder of the ledger wire
/// form — [`Ledger::decode`] builds its map from one — and the buffer
/// is reusable, so WAL replay decodes every completion record into the
/// same allocation and folds it into a [`DenseLedger`].
#[derive(Debug, Default)]
pub struct FlatLedger {
    entries: Vec<(DeviceId, LiabilityEntry)>,
}

/// Fewest bytes one encoded entry occupies: the key and three counters,
/// one varint byte each.
const MIN_ENTRY_BYTES: usize = 4;

impl FlatLedger {
    /// Replaces the contents with the ledger encoded at `r`, keeping
    /// the buffer's capacity. The canonical encoder writes a
    /// `BTreeMap`, so keys arrive strictly ascending; anything else is
    /// a decode error, which is what lets a merge walk both sides in
    /// lockstep. On error the buffer is left empty.
    pub fn decode_from(&mut self, r: &mut Reader<'_>) -> Result<()> {
        self.entries.clear();
        let filled = self.fill(r);
        if filled.is_err() {
            self.entries.clear();
        }
        filled
    }

    /// One loop over the reader's unread bytes, consumed once at the
    /// end. Accepts and refuses exactly what the generic `Decode` chain
    /// (`DeviceId`, then `u32`, `u64`, `u64`) does, with its errors.
    fn fill(&mut self, r: &mut Reader<'_>) -> Result<()> {
        let len = r.seq_len_for(MIN_ENTRY_BYTES)?;
        self.entries.reserve(len);
        let (bytes, mut at) = (r.unread(), 0);
        let mut prev: Option<DeviceId> = None;
        for _ in 0..len {
            let device = DeviceId::new(varint_at(bytes, &mut at)?);
            if let Some(prev) = prev.filter(|prev| *prev >= device) {
                return Err(Error::Decode(format!(
                    "ledger keys not strictly ascending: {device} after {prev}"
                )));
            }
            let ops = varint_at(bytes, &mut at)?;
            let operators_hosted = u32::try_from(ops)
                .map_err(|_| Error::Decode(format!("{ops} out of range for u32")))?;
            let raw_tuples_seen = varint_at(bytes, &mut at)?;
            let aggregates_seen = varint_at(bytes, &mut at)?;
            self.entries.push((
                device,
                LiabilityEntry {
                    operators_hosted,
                    raw_tuples_seen,
                    aggregates_seen,
                },
            ));
            prev = Some(device);
        }
        r.raw(at)?;
        Ok(())
    }
}

/// The varint at `bytes[*at..]`, advancing `at` past it. One- and
/// two-byte values — every key and counter of a ledger over a crowd of
/// fewer than 16 384 devices — decode inline; longer ones, and every
/// error, go through [`varint::read_u64`].
#[inline(always)]
fn varint_at(bytes: &[u8], at: &mut usize) -> Result<u64> {
    if let Some(&b0) = bytes.get(*at) {
        if b0 < 0x80 {
            *at += 1;
            return Ok(u64::from(b0));
        }
        if let Some(&b1) = bytes.get(*at + 1) {
            if b1 < 0x80 {
                *at += 2;
                return Ok(u64::from(b0 & 0x7f) | u64::from(b1) << 7);
            }
        }
    }
    let (value, used) = varint::read_u64(&bytes[*at..])?;
    *at += used;
    Ok(value)
}

/// Per-device sums in a vector indexed by [`DeviceId::index`]: what WAL
/// replay folds thousands of ledgers over one crowd into, an indexed
/// add per entry instead of a walk of the map. A slot is `None` until a
/// folded ledger names its device; a device charged only zeros holds a
/// zero entry, exactly as the map keeps it.
#[derive(Debug, Default)]
pub struct DenseLedger {
    slots: Vec<Option<LiabilityEntry>>,
}

impl DenseLedger {
    /// Adds `ledger`'s entries. A device below `bound` is summed in its
    /// slot; one at or above it is charged to `spill` through
    /// [`Ledger::merge`]'s path. The caller passes the input bytes read
    /// so far — every entry costs at least four bytes — so the
    /// slots stay within a constant factor of the input, whatever ids a
    /// hostile record names. Saturating addition of unsigned counters is
    /// associative and commutative, so where a device's sum is kept
    /// changes no balance.
    pub fn fold(&mut self, ledger: &FlatLedger, bound: usize, spill: &mut Ledger) {
        let (dense, beyond) = ledger.entries.split_at(
            ledger
                .entries
                .partition_point(|(d, _)| d.raw() < bound as u64),
        );
        // Keys ascend, so the last one is the largest.
        if let Some((last, _)) = dense.last() {
            if last.index() >= self.slots.len() {
                self.slots.resize(last.index() + 1, None);
            }
        }
        for (device, e) in dense {
            match &mut self.slots[device.index()] {
                Some(sum) => sum.accumulate(e),
                empty => *empty = Some(e.clone()),
            }
        }
        spill.merge_ascending(beyond.iter().map(|(d, e)| (*d, e)));
    }

    /// Adds every sum to `ledger`.
    pub fn merge_into(self, ledger: &mut Ledger) {
        let sums = self.slots.iter().enumerate();
        ledger.merge_ascending(
            sums.filter_map(|(i, sum)| Some((DeviceId::new(i as u64), sum.as_ref()?))),
        );
    }
}

/// Shared handle actors use to record liability while the simulation runs.
/// A `Mutex` (not `RefCell`) because the sharded engine may run actors on
/// worker threads; contention is nil — devices touch it once per message.
pub type SharedLedger = Arc<Mutex<Ledger>>;

/// Creates a fresh shared ledger.
pub fn shared() -> SharedLedger {
    Arc::new(Mutex::new(Ledger::default()))
}

impl Ledger {
    /// Records an operator hosted on a device.
    pub fn host_operator(&mut self, device: DeviceId) {
        self.charge(
            device,
            &LiabilityEntry {
                operators_hosted: 1,
                ..LiabilityEntry::default()
            },
        );
    }

    /// Records raw tuples processed on a device.
    pub fn raw_tuples(&mut self, device: DeviceId, tuples: u64) {
        self.charge(
            device,
            &LiabilityEntry {
                raw_tuples_seen: tuples,
                ..LiabilityEntry::default()
            },
        );
    }

    /// Records aggregated records processed on a device.
    pub fn aggregates(&mut self, device: DeviceId, records: u64) {
        self.charge(
            device,
            &LiabilityEntry {
                aggregates_seen: records,
                ..LiabilityEntry::default()
            },
        );
    }

    fn charge(&mut self, device: DeviceId, delta: &LiabilityEntry) {
        self.entries.entry(device).or_default().accumulate(delta);
    }

    /// All entries.
    pub fn entries(&self) -> &BTreeMap<DeviceId, LiabilityEntry> {
        &self.entries
    }

    /// Folds another ledger's balances into this one (the durable
    /// service accumulates per-query ledgers into a crowd-lifetime
    /// ledger this way; see `docs/STORAGE.md`).
    pub fn merge(&mut self, other: &Ledger) {
        self.merge_ascending(other.entries.iter().map(|(d, e)| (*d, e)));
    }

    /// Folds `incoming` — entries in strictly ascending device order —
    /// into this ledger by a sorted merge-join: one `iter_mut`
    /// walk over the resident entries in lockstep with the incoming
    /// ones, instead of a tree descent per entry. Devices not yet
    /// resident cannot be inserted under the walk's borrow; they are
    /// set aside and inserted after it (none in the steady state, where
    /// the same crowd answers query after query).
    fn merge_ascending<'a>(
        &mut self,
        incoming: impl Iterator<Item = (DeviceId, &'a LiabilityEntry)>,
    ) {
        let mut absent: Vec<(DeviceId, &LiabilityEntry)> = Vec::new();
        let mut resident = self.entries.iter_mut().peekable();
        for (device, e) in incoming {
            while resident.next_if(|(d, _)| **d < device).is_some() {}
            match resident.peek_mut() {
                Some((d, mine)) if **d == device => mine.accumulate(e),
                _ => absent.push((device, e)),
            }
        }
        for (device, e) in absent {
            self.charge(device, e);
        }
    }

    /// Largest number of raw tuples any single device saw.
    pub fn max_raw_tuples(&self) -> u64 {
        self.entries
            .values()
            .map(|e| e.raw_tuples_seen)
            .max()
            .unwrap_or(0)
    }

    /// Largest operator count any single device hosted.
    pub fn max_operators(&self) -> u32 {
        self.entries
            .values()
            .map(|e| e.operators_hosted)
            .max()
            .unwrap_or(0)
    }

    /// Gini coefficient of the raw-tuple distribution over participating
    /// devices (0 = perfectly even liability, →1 = concentrated).
    pub fn raw_tuple_gini(&self) -> f64 {
        let xs: Vec<f64> = self
            .entries
            .values()
            .map(|e| e.raw_tuples_seen as f64)
            .collect();
        Self::gini(xs)
    }

    /// Gini coefficient restricted to devices that processed raw data —
    /// the Data Processors among whom the paper wants liability spread
    /// evenly (contributors only ever touch their own record).
    pub fn processor_gini(&self) -> f64 {
        let xs: Vec<f64> = self
            .entries
            .values()
            .filter(|e| e.raw_tuples_seen > 0)
            .map(|e| e.raw_tuples_seen as f64)
            .collect();
        Self::gini(xs)
    }

    fn gini(mut xs: Vec<f64>) -> f64 {
        if xs.is_empty() {
            return 0.0;
        }
        xs.sort_by(|a, b| a.total_cmp(b));

        let n = xs.len() as f64;
        let total: f64 = xs.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        let weighted: f64 = xs
            .iter()
            .enumerate()
            .map(|(i, x)| (i as f64 + 1.0) * x)
            .sum();
        (2.0 * weighted) / (n * total) - (n + 1.0) / n
    }
}

impl Encode for LiabilityEntry {
    fn encode(&self, w: &mut Writer) {
        self.operators_hosted.encode(w);
        self.raw_tuples_seen.encode(w);
        self.aggregates_seen.encode(w);
    }
}

impl Decode for LiabilityEntry {
    #[inline]
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        Ok(Self {
            operators_hosted: u32::decode(r)?,
            raw_tuples_seen: u64::decode(r)?,
            aggregates_seen: u64::decode(r)?,
        })
    }
}

impl Encode for Ledger {
    fn encode(&self, w: &mut Writer) {
        self.entries.encode(w);
    }
}

impl Decode for Ledger {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let mut flat = FlatLedger::default();
        flat.decode_from(r)?;
        // Ascending and duplicate-free, so this is a linear bulk build.
        Ok(Self {
            entries: flat.entries.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_accumulate() {
        let mut l = Ledger::default();
        l.host_operator(DeviceId::new(1));
        l.host_operator(DeviceId::new(1));
        l.raw_tuples(DeviceId::new(1), 500);
        l.aggregates(DeviceId::new(2), 3);
        assert_eq!(l.entries()[&DeviceId::new(1)].operators_hosted, 2);
        assert_eq!(l.entries()[&DeviceId::new(1)].raw_tuples_seen, 500);
        assert_eq!(l.entries()[&DeviceId::new(2)].aggregates_seen, 3);
        assert_eq!(l.max_raw_tuples(), 500);
        assert_eq!(l.max_operators(), 2);
    }

    #[test]
    fn gini_even_vs_concentrated() {
        let mut even = Ledger::default();
        for i in 0..10 {
            even.raw_tuples(DeviceId::new(i), 100);
        }
        assert!(even.raw_tuple_gini().abs() < 1e-9);

        let mut concentrated = Ledger::default();
        concentrated.raw_tuples(DeviceId::new(0), 1000);
        for i in 1..10 {
            concentrated.raw_tuples(DeviceId::new(i), 0);
        }
        assert!(concentrated.raw_tuple_gini() > 0.8);

        assert_eq!(Ledger::default().raw_tuple_gini(), 0.0);
    }

    #[test]
    fn processor_gini_excludes_zero_raw_devices() {
        let mut l = Ledger::default();
        // Four processors with equal shares, many zero-raw contributors.
        for i in 0..4 {
            l.raw_tuples(DeviceId::new(i), 250);
        }
        for i in 10..100 {
            l.aggregates(DeviceId::new(i), 1);
        }
        assert!(l.processor_gini().abs() < 1e-9, "{}", l.processor_gini());
        assert!(l.raw_tuple_gini() > 0.5);
    }

    #[test]
    fn wire_roundtrip() {
        let mut l = Ledger::default();
        l.host_operator(DeviceId::new(3));
        l.raw_tuples(DeviceId::new(3), 42);
        l.aggregates(DeviceId::new(9), 7);
        let bytes = edgelet_wire::to_bytes(&l);
        let back: Ledger = edgelet_wire::from_bytes(&bytes).unwrap();
        assert_eq!(back.entries(), l.entries());
        // Re-encoding is byte-stable (BTreeMap order is canonical).
        assert_eq!(edgelet_wire::to_bytes(&back), bytes);
    }

    #[test]
    fn merge_adds_entrywise() {
        let mut a = Ledger::default();
        a.host_operator(DeviceId::new(1));
        a.raw_tuples(DeviceId::new(1), 10);

        let mut b = Ledger::default();
        b.host_operator(DeviceId::new(1));
        b.raw_tuples(DeviceId::new(1), 5);
        b.aggregates(DeviceId::new(2), 4);

        a.merge(&b);
        assert_eq!(a.entries()[&DeviceId::new(1)].operators_hosted, 2);
        assert_eq!(a.entries()[&DeviceId::new(1)].raw_tuples_seen, 15);
        assert_eq!(a.entries()[&DeviceId::new(2)].aggregates_seen, 4);

        // Merging an empty ledger is a no-op.
        let before = a.clone();
        a.merge(&Ledger::default());
        assert_eq!(a.entries(), before.entries());
    }

    fn entry(operators_hosted: u32, raw_tuples_seen: u64, aggregates_seen: u64) -> LiabilityEntry {
        LiabilityEntry {
            operators_hosted,
            raw_tuples_seen,
            aggregates_seen,
        }
    }

    fn ledger_of(pairs: &[(u64, LiabilityEntry)]) -> Ledger {
        Ledger {
            entries: pairs
                .iter()
                .map(|(d, e)| (DeviceId::new(*d), e.clone()))
                .collect(),
        }
    }

    /// The reference the merge-join is held to: one tree descent per
    /// incoming entry.
    fn merge_by_descent(into: &mut Ledger, other: &Ledger) {
        for (device, e) in &other.entries {
            into.charge(*device, e);
        }
    }

    fn flat_of(ledger: &Ledger) -> FlatLedger {
        let bytes = edgelet_wire::to_bytes(ledger);
        let mut flat = FlatLedger::default();
        flat.decode_from(&mut Reader::new(&bytes)).unwrap();
        flat
    }

    /// `other` folded into `into` through a [`DenseLedger`] that keeps
    /// ids below `bound` and spills the rest.
    fn merge_dense(into: &mut Ledger, other: &Ledger, bound: usize) {
        let mut sums = DenseLedger::default();
        sums.fold(&flat_of(other), bound, into);
        sums.merge_into(into);
    }

    #[test]
    fn counters_saturate_instead_of_overflowing() {
        // A CRC-valid hostile record can carry any counter value; adding
        // it must neither panic (debug) nor wrap to a small number
        // (release).
        let d = DeviceId::new(1);
        let mut l = ledger_of(&[(1, entry(u32::MAX, u64::MAX - 1, u64::MAX))]);
        l.host_operator(d);
        l.raw_tuples(d, 5);
        l.aggregates(d, 1);
        assert_eq!(l.entries()[&d], entry(u32::MAX, u64::MAX, u64::MAX));

        let hostile = ledger_of(&[(1, entry(7, u64::MAX, 3)), (2, entry(1, u64::MAX, 0))]);
        let mut via_map = ledger_of(&[(1, entry(u32::MAX - 2, 9, u64::MAX - 1))]);
        let mut via_dense = via_map.clone();
        via_map.merge(&hostile);
        merge_dense(&mut via_dense, &hostile, 2);
        assert_eq!(via_map.entries()[&d], entry(u32::MAX, u64::MAX, u64::MAX));
        assert_eq!(via_map.entries()[&DeviceId::new(2)], entry(1, u64::MAX, 0));
        assert_eq!(via_dense, via_map);
    }

    #[test]
    fn merge_join_inserts_absent_devices_on_both_sides_of_the_walk() {
        // Incoming devices before, between and after the resident ones.
        let mut a = ledger_of(&[(10, entry(1, 1, 1)), (20, entry(2, 2, 2))]);
        let b = ledger_of(&[
            (5, entry(0, 5, 0)),
            (10, entry(1, 0, 0)),
            (15, entry(0, 0, 15)),
            (20, entry(0, 1, 0)),
            (25, entry(3, 0, 0)),
        ]);
        a.merge(&b);
        let expected = ledger_of(&[
            (5, entry(0, 5, 0)),
            (10, entry(2, 1, 1)),
            (15, entry(0, 0, 15)),
            (20, entry(2, 3, 2)),
            (25, entry(3, 0, 0)),
        ]);
        assert_eq!(a, expected);
        // Into an empty ledger: everything is absent.
        let mut empty = Ledger::default();
        empty.merge(&b);
        assert_eq!(empty, b);
    }

    fn encode_pairs(pairs: &[(u64, u64, u64, u64)]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_varint(pairs.len() as u64);
        for (device, ops, raw, agg) in pairs {
            for v in [device, ops, raw, agg] {
                w.put_varint(*v);
            }
        }
        w.into_bytes()
    }

    /// Both decoders of the ledger wire form on the same bytes.
    fn decode_both(bytes: &[u8]) -> (Result<Ledger>, Result<usize>) {
        let owned = edgelet_wire::from_bytes::<Ledger>(bytes);
        let mut flat = FlatLedger::default();
        let mut r = Reader::new(bytes);
        let decoded = flat.decode_from(&mut r);
        if decoded.is_err() {
            assert!(
                flat.entries.is_empty(),
                "a failed decode leaves no entries behind"
            );
        }
        let streamed = decoded
            .and_then(|()| r.expect_end())
            .map(|()| flat.entries.len());
        (owned, streamed)
    }

    #[test]
    fn hostile_ledger_encodings_are_typed_errors_in_both_decoders() {
        let ok = encode_pairs(&[(1, 1, 2, 3), (4, 0, 0, 0)]);
        let (owned, streamed) = decode_both(&ok);
        assert_eq!(owned.unwrap().entries.len(), 2);
        assert_eq!(streamed.unwrap(), 2);

        let cases: Vec<(&str, Vec<u8>, &str)> = vec![
            (
                "descending keys",
                encode_pairs(&[(4, 0, 0, 0), (1, 0, 0, 0)]),
                "not strictly ascending",
            ),
            (
                "duplicate key",
                encode_pairs(&[(4, 0, 0, 0), (4, 1, 1, 1)]),
                "not strictly ascending",
            ),
            (
                "operators_hosted beyond u32",
                encode_pairs(&[(1, u64::from(u32::MAX) + 1, 0, 0)]),
                "out of range for u32",
            ),
            ("truncated entry", ok[..ok.len() - 1].to_vec(), "needs >="),
            (
                "length the input cannot hold",
                {
                    let mut w = Writer::new();
                    w.put_varint(1 << 20);
                    w.put_raw(&[1, 1, 1, 1]);
                    w.into_bytes()
                },
                "needs >=",
            ),
            (
                "trailing bytes",
                [ok.clone(), vec![0]].concat(),
                "trailing bytes",
            ),
        ];
        for (what, bytes, needle) in cases {
            let (owned, streamed) = decode_both(&bytes);
            for err in [owned.unwrap_err(), streamed.unwrap_err()] {
                assert!(matches!(err, Error::Decode(_)), "{what}: {err:?}");
                assert!(err.to_string().contains(needle), "{what}: {err}");
            }
        }
        // Every truncation point errors in both, never panics.
        for cut in 0..ok.len() {
            let (owned, streamed) = decode_both(&ok[..cut]);
            assert!(owned.is_err() && streamed.is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn a_dense_fold_keeps_zero_entries_and_spills_ids_at_the_bound() {
        let mut sums = DenseLedger::default();
        let mut spill = Ledger::default();
        let first = ledger_of(&[
            (0, entry(0, 0, 0)),
            (3, entry(1, 2, 3)),
            (4, entry(1, 0, 0)),
            (u64::MAX, entry(0, 0, 0)),
        ]);
        sums.fold(&flat_of(&first), 4, &mut spill);
        assert_eq!(sums.slots.len(), 4, "the slots end below the bound");
        assert_eq!(
            spill,
            ledger_of(&[(4, entry(1, 0, 0)), (u64::MAX, entry(0, 0, 0))])
        );
        // The bound grew: device 4 now has a slot, and its two halves
        // meet when the sums join the map.
        sums.fold(&flat_of(&ledger_of(&[(4, entry(0, 7, 0))])), 5, &mut spill);
        sums.merge_into(&mut spill);
        let expected = ledger_of(&[
            (0, entry(0, 0, 0)),
            (3, entry(1, 2, 3)),
            (4, entry(1, 7, 0)),
            (u64::MAX, entry(0, 0, 0)),
        ]);
        assert_eq!(spill, expected);
    }

    proptest::proptest! {
        #[test]
        fn prop_merge_join_matches_per_entry_descent(
            resident in proptest::collection::vec((0u64..96, 0u32..5, 0u64..1000), 0..80),
            incoming in proptest::collection::vec((0u64..96, 0u32..5, 0u64..1000), 0..80),
            bound in 0usize..120
        ) {
            let build = |rows: &[(u64, u32, u64)]| {
                let mut l = Ledger::default();
                for (d, ops, raw) in rows {
                    l.charge(DeviceId::new(*d), &entry(*ops, *raw, raw / 3));
                }
                l
            };
            let (base, delta) = (build(&resident), build(&incoming));
            let mut expected = base.clone();
            merge_by_descent(&mut expected, &delta);
            let mut via_map = base.clone();
            via_map.merge(&delta);
            let mut via_dense = base;
            merge_dense(&mut via_dense, &delta, bound);
            proptest::prop_assert_eq!(&via_map, &expected);
            proptest::prop_assert_eq!(&via_dense, &expected);
        }
    }

    #[test]
    fn shared_handle_mutates() {
        let handle = shared();
        handle
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .host_operator(DeviceId::new(7));
        assert_eq!(
            handle
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .max_operators(),
            1
        );
    }
}
