//! Distributed K-Means knowledge: weighted centroid sets.
//!
//! In the paper's iterative execution (§2.2), each Computer alternates a
//! *local convergence* phase (improving its centroids on its partition) and
//! a *synchronization* phase where it merges the centroid sets it "has
//! heard of", taking "the barycenter for each centroid". A [`CentroidSet`]
//! is the unit of exchanged knowledge: `k` centroids with the data weight
//! backing each, merged index-wise by weighted barycenter. Index-wise
//! merging is meaningful because every Computer starts from the same
//! broadcast seed centroids.

use crate::matrix::Matrix;
use edgelet_util::{Error, Result};
use edgelet_wire::{Decode, Encode, Reader, Writer};

/// Exchanged K-Means knowledge: centroids plus their supporting weight.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidSet {
    /// Cluster centers, one matrix row per centroid.
    pub centroids: Matrix,
    /// Weight (number of points) behind each centroid.
    pub weights: Vec<f64>,
}

impl CentroidSet {
    /// Builds a set; centroid/weight arity must match. (Dimensional
    /// consistency across centroids is structural: they share one
    /// [`Matrix`].)
    pub fn new(centroids: Matrix, weights: Vec<f64>) -> Result<Self> {
        if centroids.len() != weights.len() {
            return Err(Error::InvalidConfig(format!(
                "{} centroids but {} weights",
                centroids.len(),
                weights.len()
            )));
        }
        Ok(Self { centroids, weights })
    }

    /// Number of clusters.
    pub fn k(&self) -> usize {
        self.centroids.len()
    }

    /// Merges peer knowledge index-wise by weighted barycenter.
    ///
    /// A centroid with zero total weight keeps this set's position.
    pub fn merge(&mut self, other: &CentroidSet) -> Result<()> {
        if self.k() != other.k() {
            return Err(Error::Protocol(format!(
                "cannot merge knowledge with k={} into k={}",
                other.k(),
                self.k()
            )));
        }
        if self.k() > 0 && self.centroids.dim() != other.centroids.dim() {
            return Err(Error::Protocol("centroid dimension mismatch".into()));
        }
        for i in 0..self.k() {
            let w1 = self.weights[i];
            let w2 = other.weights[i];
            let total = w1 + w2;
            if total <= 0.0 {
                continue;
            }
            for (a, b) in self
                .centroids
                .row_mut(i)
                .iter_mut()
                .zip(other.centroids.row(i))
            {
                *a = (*a * w1 + *b * w2) / total;
            }
            self.weights[i] = total;
        }
        Ok(())
    }

    /// Merges many sets into the first (returns an error if any is
    /// incompatible; earlier merges stick).
    pub fn merge_all<'a>(
        mut base: CentroidSet,
        others: impl IntoIterator<Item = &'a CentroidSet>,
    ) -> Result<CentroidSet> {
        for o in others {
            base.merge(o)?;
        }
        Ok(base)
    }

    /// Total weight across clusters.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().sum()
    }
}

// The wire layout predates the flat [`Matrix`] storage and is kept
// byte-identical to the old `Vec<Vec<f64>>` encoding: outer varint count,
// then per centroid a varint length plus that many little-endian f64s,
// then the weights vector.
impl Encode for CentroidSet {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.centroids.len() as u64);
        for row in self.centroids.rows() {
            w.put_varint(row.len() as u64);
            for x in row {
                x.encode(w);
            }
        }
        self.weights.encode(w);
    }
}

impl Decode for CentroidSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        // Straight into the matrix's flat buffer, reserved once the first
        // row names the dimension: the `k * dim` values it will hold take
        // 8 bytes each of what is left, so the reservation is bounded by
        // the input.
        let k = r.seq_len()?;
        let (mut dim, mut flat) = (0, Vec::new());
        for i in 0..k {
            let len = r.seq_len()?;
            if i == 0 {
                dim = len;
                let need = k.saturating_mul(dim).saturating_mul(8);
                if need > r.remaining() {
                    return Err(Error::Decode(format!(
                        "{k} centroids of dim {dim} need >= {need} bytes, have {}",
                        r.remaining()
                    )));
                }
                flat.reserve_exact(k * dim);
            } else if len != dim {
                return Err(Error::Decode("inconsistent centroid dims".into()));
            }
            for _ in 0..dim {
                flat.push(f64::decode(r)?);
            }
        }
        let weights = Vec::<f64>::decode(r)?;
        CentroidSet::new(Matrix::from_parts(flat, k, dim), weights)
            .map_err(|e| Error::Decode(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgelet_wire::{from_bytes, to_bytes};
    use proptest::prelude::*;

    fn set(rows: &[Vec<f64>], weights: &[f64]) -> Result<CentroidSet> {
        CentroidSet::new(Matrix::from_rows(rows), weights.to_vec())
    }

    #[test]
    fn construction_validates() {
        assert!(set(&[vec![1.0]], &[1.0, 2.0]).is_err());
        let s = set(&[vec![1.0], vec![2.0]], &[3.0, 4.0]).unwrap();
        assert_eq!(s.k(), 2);
        assert_eq!(s.total_weight(), 7.0);
    }

    #[test]
    fn weighted_barycenter() {
        let mut a = set(&[vec![0.0, 0.0]], &[1.0]).unwrap();
        let b = set(&[vec![3.0, 6.0]], &[2.0]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.centroids.row(0), &[2.0, 4.0]);
        assert_eq!(a.weights[0], 3.0);
    }

    #[test]
    fn zero_weight_peer_is_ignored() {
        let mut a = set(&[vec![1.0]], &[5.0]).unwrap();
        let b = set(&[vec![100.0]], &[0.0]).unwrap();
        a.merge(&b).unwrap();
        assert_eq!(a.centroids.row(0), &[1.0]);
        assert_eq!(a.weights[0], 5.0);
        // And a zero-weight self adopts the peer.
        let mut c = set(&[vec![0.0]], &[0.0]).unwrap();
        c.merge(&set(&[vec![7.0]], &[3.0]).unwrap()).unwrap();
        assert_eq!(c.centroids.row(0), &[7.0]);
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let mut a = set(&[vec![1.0]], &[1.0]).unwrap();
        let b = set(&[vec![1.0], vec![2.0]], &[1.0, 1.0]).unwrap();
        assert!(a.merge(&b).is_err());
        let c = set(&[vec![1.0, 2.0]], &[1.0]).unwrap();
        assert!(a.merge(&c).is_err());
    }

    #[test]
    fn merge_all_equals_pairwise() {
        let base = set(&[vec![0.0]], &[1.0]).unwrap();
        let peers = [
            set(&[vec![10.0]], &[1.0]).unwrap(),
            set(&[vec![20.0]], &[2.0]).unwrap(),
        ];
        let merged = CentroidSet::merge_all(base, peers.iter()).unwrap();
        // (0*1 + 10*1)/2 = 5; (5*2 + 20*2)/4 = 12.5
        assert_eq!(merged.centroids.row(0), &[12.5]);
        assert_eq!(merged.weights[0], 4.0);
    }

    #[test]
    fn wire_roundtrip() {
        let s = set(&[vec![1.5, -2.0], vec![0.0, 3.25]], &[10.0, 0.0]).unwrap();
        let back: CentroidSet = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, s);
        // Corrupt arity fails decode.
        let bad = CentroidSet {
            centroids: Matrix::from_rows(&[vec![1.0]]),
            weights: vec![1.0, 2.0],
        };
        assert!(from_bytes::<CentroidSet>(&to_bytes(&bad)).is_err());
    }

    #[test]
    fn hostile_dims_fail_before_reserving() {
        // 2^24 centroids of 2^24 values each (both at the sequence cap),
        // and nothing behind them: 2 PiB that must never be reserved.
        let mut w = Writer::new();
        w.put_varint(1 << 24);
        w.put_varint(1 << 24);
        let err = from_bytes::<CentroidSet>(&w.into_bytes()).unwrap_err();
        assert!(err.to_string().contains("need >="), "{err}");
        // Zero-dim rows still count.
        let empty = set(&[vec![], vec![]], &[1.0, 2.0]).unwrap();
        assert_eq!(from_bytes::<CentroidSet>(&to_bytes(&empty)).unwrap(), empty);
    }

    #[test]
    fn wire_layout_matches_legacy_nested_vecs() {
        // The flat Matrix storage must not change what goes on the wire:
        // peers running the previous Vec<Vec<f64>> layout decode it as
        // (centroid rows, weights).
        let s = set(&[vec![1.5, -2.0], vec![0.0, 3.25]], &[10.0, 0.5]).unwrap();
        let legacy = (s.centroids.to_rows(), s.weights.clone());
        assert_eq!(to_bytes(&s), to_bytes(&legacy));
        let back: (Vec<Vec<f64>>, Vec<f64>) = from_bytes(&to_bytes(&s)).unwrap();
        assert_eq!(back, legacy);
    }

    proptest! {
        /// Merging all partition centroids (same index) equals the global
        /// weighted mean of the partition means.
        #[test]
        fn prop_merge_preserves_weighted_mean(
            chunks in prop::collection::vec(
                prop::collection::vec(-100.0f64..100.0, 1..20),
                1..6,
            )
        ) {
            // Each chunk is one "partition" of scalars; its centroid is its
            // mean with weight = len.
            let sets: Vec<CentroidSet> = chunks
                .iter()
                .map(|c| {
                    let mean = c.iter().sum::<f64>() / c.len() as f64;
                    set(&[vec![mean]], &[c.len() as f64]).unwrap()
                })
                .collect();
            let merged = CentroidSet::merge_all(sets[0].clone(), sets[1..].iter()).unwrap();
            let all: Vec<f64> = chunks.iter().flatten().copied().collect();
            let global_mean = all.iter().sum::<f64>() / all.len() as f64;
            prop_assert!((merged.centroids.row(0)[0] - global_mean).abs() < 1e-9);
            prop_assert!((merged.total_weight() - all.len() as f64).abs() < 1e-9);
        }
    }
}
