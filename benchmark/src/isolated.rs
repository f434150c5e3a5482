//! Each layer's hot kernel measured alone, beside its in-situ number in
//! the traced run: the same envelopes, records and row shapes the
//! workloads push through them, without the engine around them.
//! `crates/bench`'s `bench_report` keeps the full isolated suites; these
//! are the few the layer → end-to-end table leans on.

use edgelet_crypto::aead::ChaCha20Poly1305;
use edgelet_ml::gen::gaussian_mixture;
use edgelet_ml::grouping::GroupingQuery;
use edgelet_ml::kmeans::{KMeans, KMeansConfig};
use edgelet_ml::{AggKind, AggSpec};
use edgelet_net::{encode_frame, Addr, FrameDecoder, Listener, MsgStream, NetMsg, Stream};
use edgelet_store::{synth, GroupCommitConfig, GroupCommitLog, MemBackend, RetryPolicy};
use edgelet_util::rng::DetRng;
use edgelet_wire::Envelope;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples behind each median.
const SAMPLES: usize = 7;

const MIB: f64 = 1024.0 * 1024.0;

/// Median seconds of `SAMPLES` timings of `f`, after one warm-up call.
fn median_secs<R>(mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    crate::stats::median(&samples)
}

/// One Lloyd step over 10 000 2-d points, k = 3 — the K-Means
/// computer's kernel at the workload's k and feature count. ns/point.
pub fn lloyd_ns_per_point() -> f64 {
    const POINTS: usize = 10_000;
    const STEPS: usize = 10;
    let mut rng = DetRng::new(2);
    let centers = [
        (vec![40.0, 22.0], 4.0),
        (vec![70.0, 26.0], 4.0),
        (vec![85.0, 30.0], 4.0),
    ];
    let (points, _) = gaussian_mixture(&centers, POINTS, &mut rng);
    let config = KMeansConfig {
        k: 3,
        max_iterations: 20,
        tolerance: 1e-6,
    };
    let seeded = KMeans::seed(&points, &config, &mut DetRng::new(3)).expect("seeding 10k points");
    let secs = median_secs(|| {
        let mut km = seeded.clone();
        for _ in 0..STEPS {
            km.lloyd_step(&points);
        }
        km
    });
    secs * 1e9 / (POINTS * STEPS) as f64
}

/// `GroupingQuery::compute` over 1 000 synthetic health rows, the
/// grouping computer's kernel. ns/row.
pub fn grouping_ns_per_row() -> f64 {
    const ROWS: usize = 1_000;
    const REPEATS: usize = 20;
    let store = synth::health_store(ROWS, &mut DetRng::new(1));
    let query = GroupingQuery::new(
        &[&["sex"], &[]],
        vec![AggSpec::count_star(), AggSpec::over(AggKind::Avg, "bmi")],
    );
    let schema = synth::health_schema();
    let secs = median_secs(|| {
        for _ in 0..REPEATS {
            black_box(
                query
                    .compute(&schema, black_box(store.rows()))
                    .expect("compute"),
            );
        }
    });
    secs * 1e9 / (ROWS * REPEATS) as f64
}

/// ChaCha20-Poly1305 seal of a 16 KiB buffer. MiB/s.
pub fn aead_mib_per_s() -> f64 {
    const LEN: usize = 16 * 1024;
    const REPEATS: usize = 16;
    let aead = ChaCha20Poly1305::new([7u8; 32]);
    let plaintext = vec![0x5au8; LEN];
    let secs = median_secs(|| {
        for i in 0..REPEATS {
            let mut nonce = [0u8; 12];
            nonce[0] = i as u8;
            black_box(aead.seal(&nonce, b"aad", black_box(&plaintext)));
        }
    });
    (LEN * REPEATS) as f64 / MIB / secs
}

/// Encode and decode rates over `envelopes` (captured by the transport
/// decorator from the workload's own traffic). (encode, decode) MiB/s.
pub fn wire_mib_per_s(envelopes: &[Envelope]) -> (f64, f64) {
    if envelopes.is_empty() {
        return (0.0, 0.0);
    }
    const REPEATS: usize = 20;
    let encoded: Vec<Vec<u8>> = envelopes.iter().map(Envelope::to_wire).collect();
    let bytes = (encoded.iter().map(Vec::len).sum::<usize>() * REPEATS) as f64;
    let encode = median_secs(|| {
        for _ in 0..REPEATS {
            for env in envelopes {
                black_box(black_box(env).to_wire());
            }
        }
    });
    let decode = median_secs(|| {
        for _ in 0..REPEATS {
            for bytes in &encoded {
                black_box(Envelope::from_wire(black_box(bytes)).expect("own encoding decodes"));
            }
        }
    });
    (bytes / MIB / encode, bytes / MIB / decode)
}

/// One `GroupCommitLog::commit` of a 1 KiB record on the in-memory
/// backend: framing, CRC and the ticket protocol without the disk. µs.
pub fn commit_us() -> f64 {
    const COMMITS: usize = 500;
    let payload = vec![0xe1u8; 1024];
    let secs = median_secs(|| {
        let log = GroupCommitLog::new(
            Arc::new(MemBackend::new()),
            RetryPolicy::default(),
            GroupCommitConfig::default(),
        );
        for _ in 0..COMMITS {
            log.commit(black_box(&payload)).expect("in-memory commit");
        }
        log
    });
    secs * 1e6 / COMMITS as f64
}

/// `MsgStream` ping/pong over a Unix socket at `path` against an echo
/// thread: the floor under every daemon↔worker control message. µs.
pub fn ping_rtt_us(path: &Path) -> Result<f64, String> {
    const PINGS: u64 = 200;
    let net = |e: edgelet_util::Error| format!("isolated ping: {e}");
    let addr = Addr::Uds(path.to_path_buf());
    let listener = Listener::bind(&addr).map_err(net)?;
    let echo = std::thread::spawn(move || {
        let Ok(stream) = listener.accept() else {
            return;
        };
        let mut server = MsgStream::new(stream);
        while let Ok(NetMsg::Ping { nonce }) = server.recv(Some(Duration::from_secs(10))) {
            if server.send(&NetMsg::Pong { nonce }).is_err() {
                break;
            }
        }
    });
    let mut client = MsgStream::new(Stream::connect(&addr).map_err(net)?);
    let mut failed = false;
    let secs = median_secs(|| {
        for nonce in 0..PINGS {
            let pong = client
                .send(&NetMsg::Ping { nonce })
                .and_then(|()| client.recv(Some(Duration::from_secs(10))));
            failed |= !matches!(pong, Ok(NetMsg::Pong { nonce: n }) if n == nonce);
        }
    });
    client.shutdown();
    let _ = echo.join();
    let _ = std::fs::remove_file(path);
    if failed {
        return Err("isolated ping: a ping went unanswered".into());
    }
    Ok(secs * 1e6 / PINGS as f64)
}

/// `encode_frame` + `FrameDecoder` over 1 KiB bodies, in memory: the
/// CRC-framed stream codec without a socket under it. MiB/s.
pub fn frame_mib_per_s() -> f64 {
    const BODY: usize = 1024;
    const FRAMES: usize = 200;
    let body = vec![0xabu8; BODY];
    let secs = median_secs(|| {
        let mut decoder = FrameDecoder::new();
        for _ in 0..FRAMES {
            decoder.push(&encode_frame(black_box(&body)));
            black_box(decoder.next_frame().expect("own frame decodes"));
        }
    });
    (BODY * FRAMES) as f64 / MIB / secs
}
