//! The inter-operator wire protocol.
//!
//! Every message is wire-encoded ([`edgelet_wire`]) and wrapped in a
//! frame whose kind tag identifies the variant; optionally the frame
//! payload is sealed with ChaCha20-Poly1305 under a query-scoped key (the
//! paper's "only aggregated, encrypted data travels between operators").

use edgelet_ml::distributed::CentroidSet;
use edgelet_ml::grouping::GroupedPartial;
use edgelet_store::{Predicate, Row};
use edgelet_util::ids::{PartitionId, QueryId};
use edgelet_util::{Error, Result};
use edgelet_wire::{Decode, Encode, FrameView, Reader, Writer};

/// Frame kind tags.
pub mod kind {
    /// Builder → contributor: request data.
    pub const CONTRIBUTE_REQUEST: u16 = 1;
    /// Contributor → builder: rows.
    pub const CONTRIBUTION: u16 = 2;
    /// Builder → computer: a partition slice.
    pub const PARTITION_DATA: u16 = 3;
    /// Computer → combiner: grouping partial.
    pub const GROUPING_PARTIAL: u16 = 4;
    /// Computer ↔ computer: K-Means knowledge broadcast.
    pub const KNOWLEDGE: u16 = 5;
    /// Computer → combiner: final K-Means knowledge + per-cluster partial.
    pub const KMEANS_FINAL: u16 = 6;
    /// Combiner → querier: final result.
    pub const FINAL_RESULT: u16 = 7;
    /// Replica liveness probe.
    pub const PING: u16 = 8;
    /// Liveness reply.
    pub const PONG: u16 = 9;
}

/// Protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Builder asks a contributor for its matching rows.
    ContributeRequest {
        /// Query id.
        query: QueryId,
        /// Selection predicate the contributor applies locally.
        filter: Predicate,
        /// Columns to return (the query's referenced columns only).
        columns: Vec<String>,
    },
    /// Contributor returns its matching (projected) rows.
    Contribution {
        /// Query id.
        query: QueryId,
        /// Projected rows.
        rows: Vec<Row>,
    },
    /// Builder ships one attribute-group slice of its partition.
    PartitionData {
        /// Query id.
        query: QueryId,
        /// Partition index.
        partition: PartitionId,
        /// Vertical group index.
        attr_group: u32,
        /// Column names of the slice, in row order.
        columns: Vec<String>,
        /// The rows (projected onto `columns`).
        rows: Vec<Row>,
        /// Whether the partition met its cardinality quota.
        complete: bool,
    },
    /// Computer sends its grouping partial to a combiner.
    GroupingPartial {
        /// Query id.
        query: QueryId,
        /// Partition index.
        partition: PartitionId,
        /// Vertical group index.
        attr_group: u32,
        /// The mergeable partial.
        partial: GroupedPartial,
        /// Tuples that backed the partial.
        tuples: u64,
        /// Whether the source partition met its quota.
        complete: bool,
    },
    /// K-Means knowledge broadcast between computers.
    Knowledge {
        /// Query id.
        query: QueryId,
        /// Sender's partition.
        partition: PartitionId,
        /// Heartbeat round.
        round: u32,
        /// Partition id whose seed proposal these centroids derive from
        /// (the alignment origin).
        seed_origin: PartitionId,
        /// The knowledge.
        centroids: CentroidSet,
    },
    /// Computer's final knowledge for the combiner.
    KMeansFinal {
        /// Query id.
        query: QueryId,
        /// Partition.
        partition: PartitionId,
        /// Seed-proposal origin the centroids are aligned to.
        seed_origin: PartitionId,
        /// Final centroids.
        centroids: CentroidSet,
        /// Per-cluster aggregates over the local partition.
        per_cluster: GroupedPartial,
        /// Tuples that backed the knowledge.
        tuples: u64,
        /// Whether the partition met its quota.
        complete: bool,
    },
    /// Combiner delivers the result to the querier.
    FinalResult {
        /// Query id.
        query: QueryId,
        /// Serialized outcome (see driver::QueryOutcome wire form).
        payload: Vec<u8>,
        /// Partitions merged into the result.
        partitions_merged: u64,
        /// Of which complete (met quota).
        partitions_complete: u64,
        /// Combiner replica that produced it.
        replica: u32,
    },
    /// Replica liveness probe (Backup strategy).
    Ping {
        /// Query id.
        query: QueryId,
        /// Prober's replica rank.
        from_rank: u32,
    },
    /// Liveness reply.
    Pong {
        /// Query id.
        query: QueryId,
        /// Responder's replica rank.
        from_rank: u32,
    },
}

impl Msg {
    /// Frame kind tag for this message.
    pub fn kind(&self) -> u16 {
        match self {
            Msg::ContributeRequest { .. } => kind::CONTRIBUTE_REQUEST,
            Msg::Contribution { .. } => kind::CONTRIBUTION,
            Msg::PartitionData { .. } => kind::PARTITION_DATA,
            Msg::GroupingPartial { .. } => kind::GROUPING_PARTIAL,
            Msg::Knowledge { .. } => kind::KNOWLEDGE,
            Msg::KMeansFinal { .. } => kind::KMEANS_FINAL,
            Msg::FinalResult { .. } => kind::FINAL_RESULT,
            Msg::Ping { .. } => kind::PING,
            Msg::Pong { .. } => kind::PONG,
        }
    }

    /// Decodes from a frame, straight out of the bytes it was parsed from.
    pub fn from_frame(frame: FrameView<'_>) -> Result<Msg> {
        let msg: Msg = frame.open()?;
        if msg.kind() != frame.kind {
            return Err(Error::Decode(format!(
                "frame kind {} does not match payload kind {}",
                frame.kind,
                msg.kind()
            )));
        }
        Ok(msg)
    }
}

/// A reader over a frame's body past its message tag, for a role that
/// reads the body in place instead of through [`Msg::from_frame`]. A tag
/// other than the frame's kind is refused, as the owned decode refuses
/// it; the caller reads the fields in [`Msg`]'s order and ends with
/// [`Reader::expect_end`].
pub(crate) fn body(frame: FrameView<'_>) -> Result<Reader<'_>> {
    let mut r = Reader::new(frame.payload);
    let tag = r.varint()?;
    if tag != u64::from(frame.kind) {
        return Err(Error::Decode(format!(
            "frame kind {} does not match payload tag {tag}",
            frame.kind
        )));
    }
    Ok(r)
}

/// Classifies a sealed on-the-wire payload (as produced by
/// [`crate::roles::Sealer::wrap`]) into its protocol [`kind`], without
/// decoding the body.
///
/// Plaintext-mode payloads (`0x00 || frame`) expose the kind in the
/// frame header; encrypted payloads (`0x01 || …`) are opaque and
/// classify as `None` — which is exactly the visibility an on-path
/// adversary has, so protocol-position fault rules share it. Intended as
/// the simulator's pluggable classifier
/// ([`edgelet_sim::Simulation::set_classifier`]).
pub fn classify_payload(bytes: &[u8]) -> Option<u16> {
    match bytes.split_first() {
        Some((0x00, frame)) => FrameView::parse(frame).ok().map(|f| f.kind),
        _ => None,
    }
}

impl Encode for Msg {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(u64::from(self.kind()));
        match self {
            Msg::ContributeRequest {
                query,
                filter,
                columns,
            } => {
                query.encode(w);
                filter.encode(w);
                columns.encode(w);
            }
            Msg::Contribution { query, rows } => {
                query.encode(w);
                rows.encode(w);
            }
            Msg::PartitionData {
                query,
                partition,
                attr_group,
                columns,
                rows,
                complete,
            } => {
                query.encode(w);
                partition.encode(w);
                attr_group.encode(w);
                columns.encode(w);
                rows.encode(w);
                complete.encode(w);
            }
            Msg::GroupingPartial {
                query,
                partition,
                attr_group,
                partial,
                tuples,
                complete,
            } => {
                query.encode(w);
                partition.encode(w);
                attr_group.encode(w);
                partial.encode(w);
                tuples.encode(w);
                complete.encode(w);
            }
            Msg::Knowledge {
                query,
                partition,
                round,
                seed_origin,
                centroids,
            } => {
                query.encode(w);
                partition.encode(w);
                round.encode(w);
                seed_origin.encode(w);
                centroids.encode(w);
            }
            Msg::KMeansFinal {
                query,
                partition,
                seed_origin,
                centroids,
                per_cluster,
                tuples,
                complete,
            } => {
                query.encode(w);
                partition.encode(w);
                seed_origin.encode(w);
                centroids.encode(w);
                per_cluster.encode(w);
                tuples.encode(w);
                complete.encode(w);
            }
            Msg::FinalResult {
                query,
                payload,
                partitions_merged,
                partitions_complete,
                replica,
            } => {
                query.encode(w);
                w.put_bytes(payload);
                partitions_merged.encode(w);
                partitions_complete.encode(w);
                replica.encode(w);
            }
            Msg::Ping { query, from_rank } | Msg::Pong { query, from_rank } => {
                query.encode(w);
                from_rank.encode(w);
            }
        }
    }
}

impl Decode for Msg {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let tag = u16::try_from(r.varint()?)
            .map_err(|_| Error::Decode("message tag out of range".into()))?;
        Ok(match tag {
            kind::CONTRIBUTE_REQUEST => Msg::ContributeRequest {
                query: Decode::decode(r)?,
                filter: Decode::decode(r)?,
                columns: Decode::decode(r)?,
            },
            kind::CONTRIBUTION => Msg::Contribution {
                query: Decode::decode(r)?,
                rows: Decode::decode(r)?,
            },
            kind::PARTITION_DATA => Msg::PartitionData {
                query: Decode::decode(r)?,
                partition: Decode::decode(r)?,
                attr_group: Decode::decode(r)?,
                columns: Decode::decode(r)?,
                rows: Decode::decode(r)?,
                complete: Decode::decode(r)?,
            },
            kind::GROUPING_PARTIAL => Msg::GroupingPartial {
                query: Decode::decode(r)?,
                partition: Decode::decode(r)?,
                attr_group: Decode::decode(r)?,
                partial: Decode::decode(r)?,
                tuples: Decode::decode(r)?,
                complete: Decode::decode(r)?,
            },
            kind::KNOWLEDGE => Msg::Knowledge {
                query: Decode::decode(r)?,
                partition: Decode::decode(r)?,
                round: Decode::decode(r)?,
                seed_origin: Decode::decode(r)?,
                centroids: Decode::decode(r)?,
            },
            kind::KMEANS_FINAL => Msg::KMeansFinal {
                query: Decode::decode(r)?,
                partition: Decode::decode(r)?,
                seed_origin: Decode::decode(r)?,
                centroids: Decode::decode(r)?,
                per_cluster: Decode::decode(r)?,
                tuples: Decode::decode(r)?,
                complete: Decode::decode(r)?,
            },
            kind::FINAL_RESULT => Msg::FinalResult {
                query: Decode::decode(r)?,
                payload: r.bytes()?.to_vec(),
                partitions_merged: Decode::decode(r)?,
                partitions_complete: Decode::decode(r)?,
                replica: Decode::decode(r)?,
            },
            kind::PING => Msg::Ping {
                query: Decode::decode(r)?,
                from_rank: Decode::decode(r)?,
            },
            kind::PONG => Msg::Pong {
                query: Decode::decode(r)?,
                from_rank: Decode::decode(r)?,
            },
            other => return Err(Error::Decode(format!("unknown message tag {other}"))),
        })
    }
}

/// The decoded content of a [`Msg::FinalResult`] payload.
#[derive(Debug, Clone, PartialEq)]
pub enum OutcomePayload {
    /// Grouping-Sets: merged partial per vertical attribute group.
    Grouping(Vec<(u32, GroupedPartial)>),
    /// K-Means: combined knowledge and per-cluster aggregates.
    KMeans {
        /// Combined centroids.
        centroids: CentroidSet,
        /// Merged per-cluster aggregates (grouped by cluster id).
        per_cluster: GroupedPartial,
    },
}

impl Encode for OutcomePayload {
    fn encode(&self, w: &mut Writer) {
        match self {
            OutcomePayload::Grouping(groups) => {
                w.put_varint(0);
                groups.encode(w);
            }
            OutcomePayload::KMeans {
                centroids,
                per_cluster,
            } => {
                w.put_varint(1);
                centroids.encode(w);
                per_cluster.encode(w);
            }
        }
    }
}

impl Decode for OutcomePayload {
    fn decode(r: &mut Reader<'_>) -> Result<Self> {
        match r.varint()? {
            0 => Ok(OutcomePayload::Grouping(Decode::decode(r)?)),
            1 => Ok(OutcomePayload::KMeans {
                centroids: Decode::decode(r)?,
                per_cluster: Decode::decode(r)?,
            }),
            other => Err(Error::Decode(format!("invalid outcome tag {other}"))),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use edgelet_ml::Matrix;
    use edgelet_store::{CmpOp, Value};
    use edgelet_wire::{encode_framed, from_bytes, to_bytes};

    /// One message of every variant.
    pub(crate) fn sample_messages() -> Vec<Msg> {
        vec![
            Msg::ContributeRequest {
                query: QueryId::new(1),
                filter: Predicate::cmp("age", CmpOp::Gt, Value::Int(65)),
                columns: vec!["age".into(), "bmi".into()],
            },
            Msg::Contribution {
                query: QueryId::new(1),
                rows: vec![Row::new(vec![Value::Int(70), Value::Float(25.0)])],
            },
            Msg::PartitionData {
                query: QueryId::new(1),
                partition: PartitionId::new(2),
                attr_group: 1,
                columns: vec!["bmi".into()],
                rows: vec![Row::new(vec![Value::Float(25.0)])],
                complete: true,
            },
            Msg::GroupingPartial {
                query: QueryId::new(1),
                partition: PartitionId::new(2),
                attr_group: 0,
                partial: GroupedPartial::default(),
                tuples: 500,
                complete: false,
            },
            Msg::Knowledge {
                query: QueryId::new(1),
                partition: PartitionId::new(0),
                round: 3,
                seed_origin: PartitionId::new(0),
                centroids: CentroidSet::new(Matrix::from_rows(&[vec![1.0, 2.0]]), vec![10.0])
                    .unwrap(),
            },
            Msg::KMeansFinal {
                query: QueryId::new(1),
                partition: PartitionId::new(1),
                seed_origin: PartitionId::new(0),
                centroids: CentroidSet::new(Matrix::from_rows(&[vec![0.5]]), vec![3.0]).unwrap(),
                per_cluster: GroupedPartial::default(),
                tuples: 100,
                complete: true,
            },
            Msg::FinalResult {
                query: QueryId::new(1),
                payload: vec![1, 2, 3],
                partitions_merged: 4,
                partitions_complete: 4,
                replica: 0,
            },
            Msg::Ping {
                query: QueryId::new(1),
                from_rank: 2,
            },
            Msg::Pong {
                query: QueryId::new(1),
                from_rank: 0,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for msg in sample_messages() {
            let bytes = to_bytes(&msg);
            let back: Msg = from_bytes(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn frame_roundtrip_and_kind_consistency() {
        for msg in sample_messages() {
            let wire = encode_framed(&[], msg.kind(), &msg);
            let parsed = FrameView::parse(&wire).unwrap();
            assert_eq!(parsed.kind, msg.kind());
            assert_eq!(Msg::from_frame(parsed).unwrap(), msg);
            // The in-place reader starts past the same tag.
            let mut r = body(parsed).unwrap();
            assert_eq!(QueryId::decode(&mut r).unwrap(), QueryId::new(1));
        }
    }

    #[test]
    fn kind_mismatch_detected() {
        let msg = Msg::Ping {
            query: QueryId::new(1),
            from_rank: 0,
        };
        let payload = to_bytes(&msg);
        let bogus = FrameView {
            kind: kind::PONG,
            payload: &payload,
        };
        assert!(Msg::from_frame(bogus).is_err());
        assert!(body(bogus).is_err());
    }

    #[test]
    fn outcome_payload_roundtrip() {
        for p in [
            OutcomePayload::Grouping(vec![(0, GroupedPartial::default())]),
            OutcomePayload::KMeans {
                centroids: CentroidSet::new(Matrix::from_rows(&[vec![1.0]]), vec![2.0]).unwrap(),
                per_cluster: GroupedPartial::default(),
            },
        ] {
            let back: OutcomePayload = from_bytes(&to_bytes(&p)).unwrap();
            assert_eq!(back, p);
        }
        assert!(from_bytes::<OutcomePayload>(&to_bytes(&9u64)).is_err());
    }

    #[test]
    fn corrupted_frame_rejected() {
        let msg = Msg::Contribution {
            query: QueryId::new(1),
            rows: vec![Row::new(vec![Value::Int(5)])],
        };
        let mut wire = encode_framed(&[], msg.kind(), &msg);
        let mid = wire.len() / 2;
        wire[mid] ^= 0x10;
        assert!(FrameView::parse(&wire).is_err());
    }
}
