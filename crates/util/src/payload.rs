//! Shared, immutable message payloads.
//!
//! Protocol messages fan out: a builder ships one encoded slice to every
//! computer replica, a coordinator broadcasts one centroid set to every
//! peer. With `Vec<u8>` payloads each recipient costs a full copy of the
//! bytes; [`Payload`] makes the bytes immutable and reference-counted so
//! handing a message to N recipients is N pointer bumps, not N memcpys.
//!
//! A payload is a `(buffer, range)` pair: [`Payload::slice`] carves
//! zero-copy sub-views out of one allocation (e.g. framing a region of a
//! larger encode buffer). Conversion from `Vec<u8>` is allocation-free —
//! the vector is moved behind the `Arc`, never re-copied.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Immutable, cheaply shareable byte buffer (view into an `Arc<Vec<u8>>`).
#[derive(Clone, Default)]
pub struct Payload {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Payload {
    /// Wraps a byte vector without copying it.
    pub fn new(bytes: Vec<u8>) -> Self {
        let end = bytes.len();
        Self {
            data: Arc::new(bytes),
            start: 0,
            end,
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    /// Length of the view in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Another handle to the same bytes — the fan-out primitive. This is
    /// `Clone::clone` under a name that states the cost: a reference
    /// count bump, never a byte copy.
    pub fn share(&self) -> Self {
        self.clone()
    }

    /// A zero-copy sub-view. `range` is relative to this view.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Self {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds for payload of {} bytes",
            self.len()
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Recovers the underlying vector. Free when this is the only handle
    /// to a full-range payload; otherwise copies the view.
    pub fn into_vec(self) -> Vec<u8> {
        if self.start == 0 && self.end == self.data.len() {
            match Arc::try_unwrap(self.data) {
                Ok(vec) => vec,
                Err(shared) => shared[self.start..self.end].to_vec(),
            }
        } else {
            self.as_slice().to_vec()
        }
    }

    /// Number of handles sharing the underlying buffer (diagnostics).
    pub fn handle_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        Self::new(bytes)
    }
}

impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Self::new(bytes.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(bytes: [u8; N]) -> Self {
        Self::new(bytes.to_vec())
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Payload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes", self.len())?;
        if self.start != 0 || self.end != self.data.len() {
            write!(
                f,
                ", view {}..{} of {}",
                self.start,
                self.end,
                self.data.len()
            )?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_zero_copy() {
        let vec = vec![1u8, 2, 3];
        let ptr = vec.as_ptr();
        let p = Payload::from(vec);
        assert_eq!(p.as_slice().as_ptr(), ptr, "buffer must not move");
        let recovered = p.into_vec();
        assert_eq!(recovered.as_ptr(), ptr, "sole handle recovers the vec");
    }

    #[test]
    fn share_bumps_the_count_not_the_bytes() {
        let p = Payload::from(vec![9u8; 64]);
        let q = p.share();
        assert_eq!(p.handle_count(), 2);
        assert_eq!(p.as_slice().as_ptr(), q.as_slice().as_ptr());
        assert_eq!(p, q);
    }

    #[test]
    fn slice_views_without_copying() {
        let p = Payload::from((0u8..10).collect::<Vec<_>>());
        let mid = p.slice(2..8);
        assert_eq!(mid.as_slice(), &[2, 3, 4, 5, 6, 7]);
        assert_eq!(mid.len(), 6);
        let inner = mid.slice(1..=2);
        assert_eq!(inner.as_slice(), &[3, 4]);
        assert_eq!(inner.handle_count(), 3);
        assert_eq!(p.slice(..).as_slice(), p.as_slice());
        assert!(p.slice(4..4).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        let _ = Payload::from(vec![1u8, 2]).slice(0..3);
    }

    #[test]
    fn into_vec_copies_when_shared_or_sliced() {
        let p = Payload::from(vec![1u8, 2, 3, 4]);
        let view = p.slice(1..3);
        assert_eq!(view.into_vec(), vec![2, 3]);
        let q = p.share();
        assert_eq!(q.into_vec(), vec![1, 2, 3, 4]); // p still alive: copy
        assert_eq!(p.into_vec(), vec![1, 2, 3, 4]); // sole handle: move
    }

    #[test]
    fn equality_and_hashing_follow_the_view() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let a = Payload::from(vec![0u8, 7, 8, 0]).slice(1..3);
        let b = Payload::from(vec![7u8, 8]);
        assert_eq!(a, b);
        assert_eq!(a, vec![7u8, 8]);
        assert_eq!(a, *[7u8, 8].as_slice());
        let hash = |p: &Payload| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&a), hash(&b));
    }

    #[test]
    fn debug_shows_view_bounds() {
        let p = Payload::from(vec![0u8; 8]);
        assert_eq!(format!("{p:?}"), "Payload(8 bytes)");
        assert_eq!(
            format!("{:?}", p.slice(2..5)),
            "Payload(3 bytes, view 2..5 of 8)"
        );
    }
}
