//! The device directory a query deployer consults.
//!
//! Holds, for every enrolled edgelet, its class, its long-term identity key
//! (hash of which drives the paper's "secure assignment by hashing public
//! keys") and whether it volunteers as Data Processor, Data Contributor, or
//! both.

use crate::device::{DeviceClass, DeviceProfile};
use edgelet_crypto::sha256::sha256;
use edgelet_util::ids::DeviceId;
use edgelet_util::rng::DetRng;
use edgelet_util::{Error, Result};
use std::sync::OnceLock;

/// A directory record for one enrolled device.
#[derive(Debug, Clone)]
pub struct DirectoryEntry {
    /// The device.
    pub device: DeviceId,
    /// Hardware class.
    pub class: DeviceClass,
    /// Long-term identity public key; fixed at enrolment, so the hash
    /// memoised from it cannot go stale.
    identity_key: [u8; 32],
    key_hash: OnceLock<u64>,
    /// Volunteers its data.
    pub contributes_data: bool,
    /// Volunteers compute (can host Data Processor operators).
    pub processes_queries: bool,
}

impl DirectoryEntry {
    /// Long-term identity public key (32 bytes).
    pub fn identity_key(&self) -> &[u8; 32] {
        &self.identity_key
    }

    /// Stable 64-bit hash of the identity key, used for assignments:
    /// the first 8 bytes of its SHA-256, computed on first use.
    pub fn key_hash(&self) -> u64 {
        *self.key_hash.get_or_init(|| {
            let digest = sha256(&self.identity_key);
            u64::from_le_bytes(digest[..8].try_into().expect("8 bytes"))
        })
    }

    /// The device's performance profile.
    pub fn profile(&self) -> DeviceProfile {
        self.class.profile()
    }
}

/// Registry of enrolled devices.
#[derive(Debug, Clone, Default)]
pub struct Directory {
    entries: Vec<DirectoryEntry>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enrolls a device, deriving its identity key deterministically.
    pub fn enroll(
        &mut self,
        device: DeviceId,
        class: DeviceClass,
        contributes_data: bool,
        processes_queries: bool,
        rng: &mut DetRng,
    ) -> &DirectoryEntry {
        let mut identity_key = [0u8; 32];
        for chunk in identity_key.chunks_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        self.entries.push(DirectoryEntry {
            device,
            class,
            identity_key,
            key_hash: OnceLock::new(),
            contributes_data,
            processes_queries,
        });
        self.entries.last().expect("just pushed")
    }

    /// All entries.
    pub fn entries(&self) -> &[DirectoryEntry] {
        &self.entries
    }

    /// Number of enrolled devices.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is enrolled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up one device.
    pub fn get(&self, device: DeviceId) -> Option<&DirectoryEntry> {
        self.entries.iter().find(|e| e.device == device)
    }

    /// Devices volunteering as Data Contributors.
    pub fn contributors(&self) -> Vec<DeviceId> {
        self.entries
            .iter()
            .filter(|e| e.contributes_data)
            .map(|e| e.device)
            .collect()
    }

    /// Devices volunteering as Data Processors.
    pub fn processors(&self) -> Vec<DeviceId> {
        self.entries
            .iter()
            .filter(|e| e.processes_queries)
            .map(|e| e.device)
            .collect()
    }

    /// Selects `count` distinct processors for operator hosting.
    ///
    /// Selection is randomized over eligible devices (a targeted attacker
    /// must not predict placements — the paper's "secure assignment"), yet
    /// deterministic given the query's RNG stream.
    pub fn select_processors(&self, count: usize, rng: &mut DetRng) -> Result<Vec<DeviceId>> {
        let eligible = self.processors();
        if eligible.len() < count {
            return Err(Error::Unsatisfiable(format!(
                "need {count} processors, directory has {}",
                eligible.len()
            )));
        }
        let idx = rng.sample_indices(eligible.len(), count);
        Ok(idx.into_iter().map(|i| eligible[i]).collect())
    }

    /// Buckets contributors among `buckets` Snapshot Builders by hashing
    /// their identity keys (the paper's Figure 2 assignment).
    pub fn assign_contributors(&self, buckets: usize) -> Vec<Vec<DeviceId>> {
        assert!(buckets > 0, "at least one bucket required");
        let mut out = vec![Vec::new(); buckets];
        for e in self.entries.iter().filter(|e| e.contributes_data) {
            let b = (e.key_hash() % buckets as u64) as usize;
            out[b].push(e.device);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> Directory {
        let mut dir = Directory::new();
        let mut rng = DetRng::new(1);
        for i in 0..n {
            let class = DeviceClass::ALL[i % 3];
            dir.enroll(DeviceId::new(i as u64), class, true, i % 2 == 0, &mut rng);
        }
        dir
    }

    #[test]
    fn enroll_and_lookup() {
        let dir = build(10);
        assert_eq!(dir.len(), 10);
        assert!(!dir.is_empty());
        let e = dir.get(DeviceId::new(3)).unwrap();
        assert_eq!(e.class, DeviceClass::SgxPc);
        assert!(dir.get(DeviceId::new(99)).is_none());
        assert_eq!(dir.contributors().len(), 10);
        assert_eq!(dir.processors().len(), 5);
    }

    #[test]
    fn identity_keys_are_distinct() {
        let dir = build(50);
        let mut keys: Vec<_> = dir.entries().iter().map(|e| *e.identity_key()).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 50);
    }

    #[test]
    fn select_processors_distinct_and_eligible() {
        let dir = build(40);
        let mut rng = DetRng::new(9);
        let picked = dir.select_processors(10, &mut rng).unwrap();
        assert_eq!(picked.len(), 10);
        let mut sorted = picked.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        for d in &picked {
            assert!(dir.get(*d).unwrap().processes_queries);
        }
        // Too many requested fails.
        assert!(dir.select_processors(30, &mut rng).is_err());
    }

    #[test]
    fn selection_is_seed_deterministic() {
        let dir = build(40);
        let a = dir.select_processors(8, &mut DetRng::new(5)).unwrap();
        let b = dir.select_processors(8, &mut DetRng::new(5)).unwrap();
        let c = dir.select_processors(8, &mut DetRng::new(6)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hash_assignment_is_total_and_roughly_uniform() {
        let dir = build(3000);
        let buckets = dir.assign_contributors(10);
        let total: usize = buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 3000);
        for (i, b) in buckets.iter().enumerate() {
            assert!(
                (b.len() as f64 - 300.0).abs() < 75.0,
                "bucket {i} has {} devices",
                b.len()
            );
        }
        // Deterministic: same directory, same assignment.
        let again = dir.assign_contributors(10);
        assert_eq!(buckets, again);
    }

    #[test]
    fn memoised_key_hash_is_the_sha256_prefix() {
        let dir = build(20);
        for e in dir.entries() {
            let digest = sha256(e.identity_key());
            let direct = u64::from_le_bytes(digest[..8].try_into().unwrap());
            assert_eq!(e.key_hash(), direct);
            assert_eq!(e.key_hash(), direct, "second read comes from the memo");
            assert_eq!(e.clone().key_hash(), direct);
        }
    }

    /// Assignment vector dumped from the build that hashed every key on
    /// every call.
    #[test]
    fn assignment_matches_the_golden_vector() {
        let mut dir = Directory::new();
        let mut rng = DetRng::new(42);
        for i in 0..64u64 {
            let class = DeviceClass::ALL[i as usize % 3];
            dir.enroll(DeviceId::new(i), class, i % 4 != 3, i % 2 == 0, &mut rng);
        }
        let golden: [&[u64]; 5] = [
            &[0, 6, 13, 17, 18, 28, 29, 32, 33, 38, 50, 57],
            &[5, 10, 12, 20, 25, 42, 52, 56, 62],
            &[1, 4, 8, 14, 16, 30, 34, 37, 40, 41, 48, 49, 54, 61],
            &[9, 22, 46, 58, 60],
            &[2, 21, 24, 26, 36, 44, 45, 53],
        ];
        let golden: Vec<Vec<DeviceId>> = golden
            .iter()
            .map(|b| b.iter().map(|&d| DeviceId::new(d)).collect())
            .collect();
        let cold = dir.clone();
        assert_eq!(dir.assign_contributors(5), golden);
        assert_eq!(dir.assign_contributors(5), golden, "from the memo");
        assert_eq!(dir.clone().assign_contributors(5), golden, "warm clone");
        assert_eq!(cold.assign_contributors(5), golden, "clone taken cold");
        assert_eq!(dir.entries()[0].key_hash(), 0x866b_4586_9653_c538);
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        build(3).assign_contributors(0);
    }
}
