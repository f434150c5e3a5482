//! The collection round, driven actor by actor: a Snapshot Builder asks
//! its Data Contributors for rows, collects their answers up to its
//! quota, and ships one vertical slice per Computer.
//!
//! Two things are held here. *The bytes:* every message of the round,
//! plain and sealed under a fixed root secret, is pinned as hex that the
//! owned `Msg` encoder wrote, so writers that build these bodies straight
//! from a store or from the collected rows answer to fixed bytes and not
//! only to the code they replaced. *Hostile input:* malformed requests
//! and contributions go through a real contributor and a real builder,
//! and each must end exactly as the owned decode says it does
//! (`Sealer::unwrap`, the whole `Msg`, then the role's rules): the same
//! `corrupt_messages` count, the same collected rows, the same reply
//! bytes.

use edgelet_exec::messages::{kind, Msg};
use edgelet_exec::roles::builder::{BuilderActor, BuilderWiring, SliceWiring};
use edgelet_exec::roles::contributor::ContributorActor;
use edgelet_exec::roles::{RankGate, Sealer};
use edgelet_exec::{ledger, ExecConfig};
use edgelet_sim::{Actor, Command, Context, SimTime, TimerToken};
use edgelet_store::{CmpOp, ColumnType, DataStore, Predicate, Row, Schema, Value};
use edgelet_tee::DeviceClass;
use edgelet_util::ids::{DeviceId, PartitionId, QueryId};
use edgelet_util::rng::DetRng;
use edgelet_wire::codec::MAX_SEQUENCE_LEN;
use edgelet_wire::{encode_framed, to_bytes, Encode, Writer};
use std::collections::BTreeSet;
use std::sync::Arc;

const QUERY: QueryId = QueryId::new(7);
const ROOT: [u8; 32] = [0x5E; 32];
const OTHER_ROOT: [u8; 32] = [0xA1; 32];
const BUILDER: DeviceId = DeviceId::new(10);
const A: DeviceId = DeviceId::new(1);
const B: DeviceId = DeviceId::new(2);
const C: DeviceId = DeviceId::new(3);
const QUOTA: usize = 3;
/// What a contributor lets leave per request: contributor A has three
/// matching rows, so its answer is capped.
const MAX_ROWS: usize = 2;

fn schema() -> Schema {
    Schema::new(vec![
        ("age", ColumnType::Int),
        ("sex", ColumnType::Text),
        ("bmi", ColumnType::Float),
        ("smoker", ColumnType::Bool),
    ])
    .unwrap()
}

fn store(rows: Vec<[Value; 4]>) -> DataStore {
    let mut store = DataStore::new(schema());
    for row in rows {
        store.insert(Row::new(row.to_vec())).unwrap();
    }
    store
}

fn text(s: &str) -> Value {
    Value::Text(s.into())
}

/// Four rows, three of them past 40 (one with a `Null` bmi).
fn store_a() -> DataStore {
    use Value::{Bool, Float, Int, Null};
    store(vec![
        [Int(70), text("F"), Float(24.5), Bool(true)],
        [Int(38), text("M"), Float(31.0), Bool(false)],
        [Int(45), text("M"), Null, Bool(false)],
        [Int(81), text("F"), Float(19.25), Null],
    ])
}

/// One row with a `Null` text value.
fn store_b() -> DataStore {
    use Value::{Bool, Float, Int, Null};
    store(vec![[Int(52), Null, Float(27.5), Bool(true)]])
}

fn filter() -> Predicate {
    Predicate::cmp("age", CmpOp::Gt, Value::Int(40))
}

/// Collected columns, in collection order.
const COLLECTED: [&str; 3] = ["age", "bmi", "sex"];

fn wiring() -> Arc<BuilderWiring> {
    Arc::new(BuilderWiring {
        query: QUERY,
        partition: PartitionId::new(1),
        quota: QUOTA,
        filter: filter(),
        columns: COLLECTED.iter().map(|c| c.to_string()).collect(),
        contributors: vec![A, B, C],
        slices: vec![
            SliceWiring {
                attr_group: 0,
                columns: vec!["sex".into()],
                targets: vec![DeviceId::new(20)],
            },
            // Not in collection order: the slice is written through
            // column indices, not by position.
            SliceWiring {
                attr_group: 1,
                columns: vec!["bmi".into(), "age".into()],
                targets: vec![DeviceId::new(21), DeviceId::new(22)],
            },
        ],
    })
}

fn request() -> Msg {
    Msg::ContributeRequest {
        query: QUERY,
        filter: filter(),
        columns: COLLECTED.iter().map(|c| c.to_string()).collect(),
    }
}

fn sealer(encrypt: bool, device: DeviceId) -> Sealer {
    Sealer::new(encrypt, &ROOT, QUERY, device)
}

fn builder(encrypt: bool) -> BuilderActor {
    BuilderActor::new(
        wiring(),
        DeviceClass::SgxPc.profile(),
        ExecConfig::fast(),
        sealer(encrypt, BUILDER),
        ledger::shared(),
        RankGate::new(0, vec![], 0.0),
    )
}

fn contributor(encrypt: bool, device: DeviceId, store: DataStore) -> ContributorActor {
    ContributorActor::new(
        QUERY,
        store,
        sealer(encrypt, device),
        ledger::shared(),
        MAX_ROWS,
    )
}

/// One device's side of the actor contract: a context per callback, the
/// timer counter kept across callbacks.
struct Host {
    device: DeviceId,
    rng: DetRng,
    timers: u64,
}

impl Host {
    fn new(device: DeviceId) -> Self {
        Host {
            device,
            rng: DetRng::new(device.raw()),
            timers: 0,
        }
    }

    fn call(&mut self, f: impl FnOnce(&mut Context<'_>)) -> Effects {
        let mut ctx = Context::new(self.device, SimTime::ZERO, &mut self.rng, &mut self.timers);
        f(&mut ctx);
        Effects::of(ctx.take_commands())
    }
}

/// What a callback did that the round's outcome depends on.
#[derive(Debug, Default, PartialEq)]
struct Effects {
    sends: Vec<(DeviceId, Vec<u8>)>,
    corrupt: usize,
    timers: Vec<TimerToken>,
}

impl Effects {
    fn of(commands: Vec<Command>) -> Self {
        let mut out = Effects::default();
        for command in commands {
            match command {
                Command::Send { to, payload } => out.sends.push((to, payload.to_vec())),
                Command::Broadcast { to, payload } => {
                    out.sends
                        .extend(to.into_iter().map(|d| (d, payload.to_vec())));
                }
                Command::SetTimer { token, .. } => out.timers.push(token),
                Command::Observe {
                    name: "corrupt_messages",
                    ..
                } => out.corrupt += 1,
                _ => {}
            }
        }
        out
    }

    fn extend(&mut self, other: Effects) {
        self.sends.extend(other.sends);
        self.corrupt += other.corrupt;
        self.timers.extend(other.timers);
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The messages of one round: the builder's request, A's capped answer,
/// B's, and the two slices as shipped (slice 1 goes to two replicas).
struct Round {
    request: Vec<u8>,
    answers: [Vec<u8>; 2],
    slices: Vec<(DeviceId, Vec<u8>)>,
}

fn run_round(encrypt: bool) -> Round {
    let mut actor = builder(encrypt);
    let mut host = Host::new(BUILDER);
    let start = host.call(|ctx| actor.on_start(ctx));
    let to: Vec<DeviceId> = start.sends.iter().map(|(d, _)| *d).collect();
    assert_eq!(to, [A, B, C], "one request to every contributor");
    let request = start.sends[0].1.clone();

    let mut answers = Vec::new();
    for (device, store) in [(A, store_a()), (B, store_b())] {
        let mut c = contributor(encrypt, device, store);
        let reply = Host::new(device).call(|ctx| c.on_message(ctx, BUILDER, &request));
        assert_eq!(reply.sends.len(), 1, "one answer from {device}");
        assert_eq!(reply.sends[0].0, BUILDER);
        answers.push(reply.sends[0].1.clone());
    }

    let first = host.call(|ctx| actor.on_message(ctx, A, &answers[0]));
    assert!(
        first.sends.is_empty(),
        "two rows of three: still collecting"
    );
    let shipped = host.call(|ctx| actor.on_message(ctx, B, &answers[1]));
    assert_eq!(shipped.corrupt, 0);
    Round {
        request,
        answers: <[Vec<u8>; 2]>::try_from(answers).unwrap(),
        slices: shipped.sends,
    }
}

/// The round's messages as the owned encoder builds them.
fn expected_messages() -> (Msg, [Msg; 2], [Msg; 2]) {
    use Value::{Float, Int, Null};
    let answer = |rows: Vec<Vec<Value>>| Msg::Contribution {
        query: QUERY,
        rows: rows.into_iter().map(Row::new).collect(),
    };
    let slice = |attr_group: u32, columns: &[&str], rows: Vec<Vec<Value>>| Msg::PartitionData {
        query: QUERY,
        partition: PartitionId::new(1),
        attr_group,
        columns: columns.iter().map(|c| c.to_string()).collect(),
        rows: rows.into_iter().map(Row::new).collect(),
        complete: true,
    };
    (
        request(),
        [
            answer(vec![
                vec![Int(70), Float(24.5), text("F")],
                vec![Int(45), Null, text("M")],
            ]),
            answer(vec![vec![Int(52), Float(27.5), Null]]),
        ],
        [
            slice(
                0,
                &["sex"],
                vec![vec![text("F")], vec![text("M")], vec![Null]],
            ),
            slice(
                1,
                &["bmi", "age"],
                vec![
                    vec![Float(24.5), Int(70)],
                    vec![Null, Int(45)],
                    vec![Float(27.5), Int(52)],
                ],
            ),
        ],
    )
}

const PLAIN_REQUEST: &str = "00454c01011701070103616765040150030361676503626d690373657891144990";
const PLAIN_ANSWERS: [&str; 2] = [
    "00454c01021a02070203018c0102000000000080384003014603015a0003014d6fecc638",
    "00454c010210020701030168020000000000803b4000a55f5267",
];
const PLAIN_SLICES: [&str; 2] = [
    "00454c01031503070100010373657803010301460103014d010001668c7264",
    "00454c01032c030701010203626d69036167650302020000000000803840018c010200015a02020000000000803b40016801e760bfa7",
];
const SEALED_REQUEST: &str = "010a0000000000000000000000588e5ab6a58318e5d65852af7ff69d75592a62c9a2b5e0573f4254898a4f0de0c0be4abbff1d9f1a6d129cf68ff0d0b9";
const SEALED_ANSWERS: [&str; 2] = [
    "0101000000000000000000000014c59cc7741b93151dbbe3f175628eb6b52a751e5be9a96de9d4cef74805b2e64875b667e657519a82999fe56952c4d751042d",
    "010200000000000000000000003438c9d4ca282145112065bcdbcbadd094e7f6b7dcfcdf6c59dfb9b9e03fa36df961ae9902a4d61bf9",
];
const SEALED_SLICES: [&str; 2] = [
    "010a0000000100000000000000be3e01bc71ada15a40cdd175ee1c113c012ee100053be85b8c2c93d212561909cee9a5bb3660c6e82f4a5ba85e7c",
    "010a0000000200000000000000b2b520c9394469f4c93eed3703d9a554a9fd319d09b10fe9b45c6491e3c42d843dc97cc173bc4de686b4b34d43439e8981126b0ac2d12f7579891b3ca61dd6a2e63bd9434f",
];

#[test]
fn the_round_writes_the_bytes_the_owned_encoder_wrote() {
    let (request, answers, slices) = expected_messages();
    for (encrypt, golden_request, golden_answers, golden_slices) in [
        (false, PLAIN_REQUEST, PLAIN_ANSWERS, PLAIN_SLICES),
        (true, SEALED_REQUEST, SEALED_ANSWERS, SEALED_SLICES),
    ] {
        let round = run_round(encrypt);
        println!("encrypt {encrypt}: request {}", hex(&round.request));
        for answer in &round.answers {
            println!("encrypt {encrypt}: answer {}", hex(answer));
        }
        for (to, slice) in &round.slices {
            println!("encrypt {encrypt}: slice to {to} {}", hex(slice));
        }

        // Each sender's sealer, replayed: the same messages in the same
        // order give the same nonces.
        let mut from_builder = sealer(encrypt, BUILDER);
        assert_eq!(round.request, from_builder.wrap(&request).to_vec());
        for ((device, answer), msg) in [A, B].into_iter().zip(&round.answers).zip(&answers) {
            assert_eq!(answer, &sealer(encrypt, device).wrap(msg).to_vec());
        }
        let shipped: Vec<Vec<u8>> = slices
            .iter()
            .map(|msg| from_builder.wrap(msg).to_vec())
            .collect();
        let want: Vec<(DeviceId, Vec<u8>)> = vec![
            (DeviceId::new(20), shipped[0].clone()),
            (DeviceId::new(21), shipped[1].clone()),
            (DeviceId::new(22), shipped[1].clone()),
        ];
        assert_eq!(round.slices, want);

        assert_eq!(hex(&round.request), golden_request);
        for (answer, golden) in round.answers.iter().zip(golden_answers) {
            assert_eq!(hex(answer), golden);
        }
        for (shipped, golden) in shipped.iter().zip(golden_slices) {
            assert_eq!(hex(shipped), golden);
        }
    }
}

/// An encoded body put into a frame as is.
struct Raw<'a>(&'a [u8]);

impl Encode for Raw<'_> {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self.0);
    }
}

/// `body` in a valid plaintext frame of `kind`.
fn framed(kind: u16, body: &[u8]) -> Vec<u8> {
    encode_framed(&[0x00], kind, &Raw(body))
}

/// A body assembled by hand, starting with its message tag.
fn body(tag: u16, f: impl FnOnce(&mut Writer)) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_varint(u64::from(tag));
    f(&mut w);
    w.into_bytes()
}

/// What the owned decode makes a contributor do with `bytes`.
fn owned_answer(encrypt: bool, device: DeviceId, store: &DataStore, bytes: &[u8]) -> Effects {
    let mut sealer = sealer(encrypt, device);
    let msg = match sealer.unwrap(bytes) {
        Err(_) => {
            return Effects {
                corrupt: 1,
                ..Effects::default()
            }
        }
        Ok(msg) => msg,
    };
    let Msg::ContributeRequest {
        query,
        filter,
        columns,
    } = msg
    else {
        return Effects::default();
    };
    let names: Vec<&str> = columns.iter().map(|c| c.as_str()).collect();
    let mut rows = match store.scan_project(&filter, &names) {
        Ok(rows) if query == QUERY => rows,
        _ => return Effects::default(),
    };
    rows.truncate(MAX_ROWS);
    if rows.is_empty() {
        return Effects::default();
    }
    let reply = sealer.wrap(&Msg::Contribution { query, rows });
    Effects {
        sends: vec![(BUILDER, reply.to_vec())],
        ..Effects::default()
    }
}

#[test]
fn hostile_requests_end_as_the_owned_decode_says() {
    let valid = to_bytes(&request());
    let truncated = &valid[..valid.len() - 1];
    let mut trailing = valid.clone();
    trailing.push(0);
    let query_and_filter = |w: &mut Writer| {
        QUERY.encode(w);
        filter().encode(w);
    };
    let answer_body = to_bytes(&Msg::Contribution {
        query: QUERY,
        rows: vec![Row::new(vec![Value::Int(1)])],
    });
    let with_columns = |columns: &[&str]| {
        to_bytes(&Msg::ContributeRequest {
            query: QUERY,
            filter: filter(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
        })
    };
    let other_query = to_bytes(&Msg::ContributeRequest {
        query: QueryId::new(8),
        filter: filter(),
        columns: vec!["age".into()],
    });
    let nothing_matches = to_bytes(&Msg::ContributeRequest {
        query: QUERY,
        filter: Predicate::cmp("age", CmpOp::Gt, Value::Int(200)),
        columns: vec!["age".into()],
    });
    let ping = Msg::Ping {
        query: QUERY,
        from_rank: 0,
    };
    let plain: Vec<(&str, Vec<u8>)> = vec![
        ("valid", framed(kind::CONTRIBUTE_REQUEST, &valid)),
        ("truncated", framed(kind::CONTRIBUTE_REQUEST, truncated)),
        ("trailing byte", framed(kind::CONTRIBUTE_REQUEST, &trailing)),
        (
            "column count past the cap",
            framed(
                kind::CONTRIBUTE_REQUEST,
                &body(kind::CONTRIBUTE_REQUEST, |w| {
                    query_and_filter(w);
                    w.put_varint(MAX_SEQUENCE_LEN + 1);
                }),
            ),
        ),
        (
            "column count past the input",
            framed(
                kind::CONTRIBUTE_REQUEST,
                &body(kind::CONTRIBUTE_REQUEST, |w| {
                    query_and_filter(w);
                    w.put_varint(1_000);
                    "age".encode(w);
                }),
            ),
        ),
        (
            "invalid utf-8 in a column name",
            framed(
                kind::CONTRIBUTE_REQUEST,
                &body(kind::CONTRIBUTE_REQUEST, |w| {
                    query_and_filter(w);
                    w.put_varint(2);
                    "age".encode(w);
                    w.put_bytes(&[0xFF, 0xFE]);
                }),
            ),
        ),
        (
            "unknown value tag in the filter",
            framed(
                kind::CONTRIBUTE_REQUEST,
                &body(kind::CONTRIBUTE_REQUEST, |w| {
                    QUERY.encode(w);
                    w.put_varint(1); // a comparison
                    "age".encode(w);
                    w.put_varint(4); // >
                    w.put_varint(9); // no such value tag
                    vec!["age".to_string()].encode(w);
                }),
            ),
        ),
        (
            "tag says contribution, frame says request",
            framed(kind::CONTRIBUTE_REQUEST, &answer_body),
        ),
        (
            "tag says request, frame says contribution",
            framed(kind::CONTRIBUTION, &valid),
        ),
        (
            "unknown column",
            framed(kind::CONTRIBUTE_REQUEST, &with_columns(&["age", "height"])),
        ),
        (
            "a column twice, out of schema order",
            framed(
                kind::CONTRIBUTE_REQUEST,
                &with_columns(&["smoker", "sex", "smoker"]),
            ),
        ),
        (
            "no columns",
            framed(kind::CONTRIBUTE_REQUEST, &with_columns(&[])),
        ),
        (
            "another query",
            framed(kind::CONTRIBUTE_REQUEST, &other_query),
        ),
        (
            "nothing matches",
            framed(kind::CONTRIBUTE_REQUEST, &nothing_matches),
        ),
        ("a ping", sealer(false, BUILDER).wrap(&ping).to_vec()),
        ("empty", vec![]),
    ];
    let sealed: Vec<(&str, Vec<u8>)> = vec![
        (
            "valid, sealed",
            sealer(true, BUILDER).wrap(&request()).to_vec(),
        ),
        (
            "sealed under another key",
            Sealer::new(true, &OTHER_ROOT, QUERY, BUILDER)
                .wrap(&request())
                .to_vec(),
        ),
        (
            "plaintext to a sealed contributor",
            framed(kind::CONTRIBUTE_REQUEST, &valid),
        ),
    ];
    let cases = plain
        .into_iter()
        .map(|(name, bytes)| (name, false, bytes))
        .chain(sealed.into_iter().map(|(name, bytes)| (name, true, bytes)));
    let mut outcomes = BTreeSet::new();
    for (name, encrypt, bytes) in cases {
        let store = store_a();
        let want = owned_answer(encrypt, A, &store, &bytes);
        let mut actor = contributor(encrypt, A, store);
        let got = Host::new(A).call(|ctx| actor.on_message(ctx, BUILDER, &bytes));
        assert_eq!(got, want, "{name}");
        outcomes.insert((got.corrupt, got.sends.len()));
    }
    // The table reaches all three outcomes: an answer, silence, corrupt.
    assert_eq!(
        outcomes,
        BTreeSet::from([(0, 0), (0, 1), (1, 0)]),
        "{outcomes:?}"
    );
}

/// The builder's rules over the owned decode: what it collects, when it
/// ships, what it counts corrupt.
struct OwnedBuilder {
    sealer: Sealer,
    collected: Vec<Row>,
    responded: BTreeSet<DeviceId>,
    shipped: bool,
    corrupt: usize,
}

impl OwnedBuilder {
    fn new(encrypt: bool) -> Self {
        OwnedBuilder {
            sealer: sealer(encrypt, BUILDER),
            collected: Vec::new(),
            responded: BTreeSet::new(),
            shipped: false,
            corrupt: 0,
        }
    }

    fn deliver(&mut self, from: DeviceId, bytes: &[u8]) {
        match self.sealer.unwrap(bytes) {
            Err(_) => self.corrupt += 1,
            Ok(Msg::Contribution { query, rows }) if query == QUERY => {
                if self.shipped || !self.responded.insert(from) {
                    return;
                }
                let room = QUOTA.saturating_sub(self.collected.len());
                self.collected.extend(rows.into_iter().take(room));
                self.shipped = self.collected.len() >= QUOTA;
            }
            Ok(_) => {}
        }
    }

    /// The slices as the builder's sealer ships them after its request.
    fn slices(&mut self) -> Vec<(DeviceId, Vec<u8>)> {
        let _request = self.sealer.wrap(&request());
        let wiring = wiring();
        let mut out = Vec::new();
        for slice in &wiring.slices {
            let at: Vec<usize> = slice
                .columns
                .iter()
                .map(|c| COLLECTED.iter().position(|k| k == c).unwrap())
                .collect();
            let rows = self
                .collected
                .iter()
                .map(|r| Row::new(at.iter().map(|&i| r.values()[i].clone()).collect()))
                .collect();
            let bytes = self.sealer.wrap(&Msg::PartitionData {
                query: QUERY,
                partition: wiring.partition,
                attr_group: slice.attr_group,
                columns: slice.columns.clone(),
                rows,
                complete: self.collected.len() >= QUOTA,
            });
            out.extend(slice.targets.iter().map(|&t| (t, bytes.to_vec())));
        }
        out
    }
}

/// A contribution body: tag, query, the row count, then rows as given.
fn answer(query: QueryId, count: u64, rows: &[&[u8]]) -> Vec<u8> {
    body(kind::CONTRIBUTION, |w| {
        query.encode(w);
        w.put_varint(count);
        for row in rows {
            w.put_raw(row);
        }
    })
}

fn row_bytes(values: &[Value]) -> Vec<u8> {
    to_bytes(&Row::new(values.to_vec()))
}

#[test]
fn hostile_contributions_end_as_the_owned_decode_says() {
    use Value::{Bool, Float, Int, Null};
    // C's good answer is `ok`; a hostile answer leads with `ok2`, so a row
    // it left collected before failing would show in the slices.
    let ok = row_bytes(&[Int(66), Float(22.0), text("F")]);
    let ok2 = row_bytes(&[Int(90), Null, text("M")]);
    let bad_utf8 = {
        let mut w = Writer::new();
        w.put_varint(3);
        Int(1).encode(&mut w);
        Null.encode(&mut w);
        w.put_varint(3); // text
        w.put_bytes(&[0xC3, 0x28]);
        w.into_bytes()
    };
    let unknown_tag = [3, 2, 0, 9];
    let bad_bool = [1, 4, 2];
    let arity_past_cap = to_bytes(&(MAX_SEQUENCE_LEN + 1));
    let arity_past_input = [100, 0, 0];
    let short_float = [1, 2, 0, 0, 0];
    let frame =
        |rows: &[&[u8]]| framed(kind::CONTRIBUTION, &answer(QUERY, rows.len() as u64, rows));
    let good_c = frame(&[&ok]);
    let valid_three = answer(QUERY, 3, &[&ok2, &ok, &ok2]);
    let mut trailing = valid_three.clone();
    trailing.push(0);
    let request_body = to_bytes(&request());

    type Case = (&'static str, bool, Vec<(DeviceId, Vec<u8>)>);
    let then_c = |name: &'static str, hostile: Vec<u8>| -> Case {
        (name, false, vec![(C, hostile), (C, good_c.clone())])
    };
    let cases: Vec<Case> = vec![
        then_c("valid, one row", frame(&[&ok2])),
        then_c(
            "valid, rows past the quota",
            framed(kind::CONTRIBUTION, &valid_three),
        ),
        then_c("invalid utf-8 past the quota", frame(&[&ok2, &bad_utf8])),
        then_c("invalid utf-8 within the quota", frame(&[&bad_utf8, &ok])),
        then_c(
            "unknown value tag past the quota",
            frame(&[&ok2, &ok, &unknown_tag]),
        ),
        then_c("invalid bool past the quota", frame(&[&ok2, &bad_bool])),
        then_c(
            "row arity past the cap, past the quota",
            frame(&[&ok2, &arity_past_cap]),
        ),
        then_c(
            "row arity past the input, past the quota",
            frame(&[&ok2, &arity_past_input]),
        ),
        then_c(
            "a float cut short, past the quota",
            frame(&[&ok2, &short_float]),
        ),
        then_c(
            "truncated mid-row",
            framed(kind::CONTRIBUTION, &valid_three[..valid_three.len() - 2]),
        ),
        then_c(
            "row count past the cap",
            framed(
                kind::CONTRIBUTION,
                &answer(QUERY, MAX_SEQUENCE_LEN + 1, &[&ok]),
            ),
        ),
        then_c(
            "row count past the input",
            framed(kind::CONTRIBUTION, &answer(QUERY, 1_000, &[&ok])),
        ),
        then_c("trailing byte", framed(kind::CONTRIBUTION, &trailing)),
        then_c(
            "tag says request, frame says contribution",
            framed(kind::CONTRIBUTION, &request_body),
        ),
        then_c(
            "tag says contribution, frame says request",
            framed(kind::CONTRIBUTE_REQUEST, &answer(QUERY, 1, &[&ok2])),
        ),
        then_c(
            "another query's answer",
            framed(kind::CONTRIBUTION, &answer(QueryId::new(8), 1, &[&ok2])),
        ),
        then_c(
            "another query's answer, a bad row",
            framed(
                kind::CONTRIBUTION,
                &answer(QueryId::new(8), 2, &[&ok2, &bad_bool]),
            ),
        ),
        then_c("no rows", frame(&[])),
        (
            "A again",
            false,
            vec![(A, frame(&[&ok2])), (C, good_c.clone())],
        ),
        (
            "A again, a bad row",
            false,
            vec![(A, frame(&[&ok2, &unknown_tag])), (C, good_c.clone())],
        ),
        (
            "late, after the quota",
            false,
            vec![
                (C, good_c.clone()),
                (B, frame(&[&ok2])),
                (B, frame(&[&ok2, &bad_bool])),
            ],
        ),
        (
            "sealed under another key",
            true,
            vec![
                (
                    C,
                    Sealer::new(true, &OTHER_ROOT, QUERY, C)
                        .wrap(&Msg::Contribution {
                            query: QUERY,
                            rows: vec![Row::new(vec![Int(66), Float(22.0), text("F")])],
                        })
                        .to_vec(),
                ),
                (
                    C,
                    sealer(true, C)
                        .wrap(&Msg::Contribution {
                            query: QUERY,
                            rows: vec![Row::new(vec![Int(66), Float(22.0), text("F")])],
                        })
                        .to_vec(),
                ),
            ],
        ),
        (
            "plaintext to a sealed builder",
            true,
            vec![(C, good_c.clone())],
        ),
        (
            "a bool where an int was asked",
            false,
            vec![(C, frame(&[&row_bytes(&[Bool(true), Null, Null])]))],
        ),
    ];

    for (name, encrypt, deliveries) in cases {
        // A's two rows first: one row of room left.
        let first_answer = sealer(encrypt, A)
            .wrap(&Msg::Contribution {
                query: QUERY,
                rows: vec![
                    Row::new(vec![Int(70), Float(24.5), text("F")]),
                    Row::new(vec![Int(45), Null, text("M")]),
                ],
            })
            .to_vec();
        let deliveries: Vec<(DeviceId, Vec<u8>)> = std::iter::once((A, first_answer))
            .chain(deliveries)
            .collect();

        let mut owned = OwnedBuilder::new(encrypt);
        for (from, bytes) in &deliveries {
            owned.deliver(*from, bytes);
        }
        let want_slices = owned.slices();

        let mut actor = builder(encrypt);
        let mut host = Host::new(BUILDER);
        let start = host.call(|ctx| actor.on_start(ctx));
        let collection_timer = start.timers[0];
        let mut got = Effects::default();
        for (from, bytes) in &deliveries {
            got.extend(host.call(|ctx| actor.on_message(ctx, *from, bytes)));
        }
        if got.sends.is_empty() {
            got.extend(host.call(|ctx| actor.on_timer(ctx, collection_timer)));
        }
        assert_eq!(got.corrupt, owned.corrupt, "{name}: corrupt_messages");
        assert_eq!(got.sends, want_slices, "{name}: the slices shipped");
    }
}
