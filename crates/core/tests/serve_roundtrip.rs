//! The solve-service wire codec's contract, mirroring
//! `checkpoint_roundtrip.rs`: every request and response round-trips
//! bit-exactly through the framed format, and **every** truncation or
//! byte corruption of the encoded bytes is rejected as a typed
//! [`BpMaxError::Protocol`] — never a panic, never a silently different
//! message.

use bpmax::ftable::Layout;
use bpmax::kernels::Tile;
use bpmax::serve::{
    decode_request, decode_response, encode_request, encode_response, read_message,
};
use bpmax::{
    Algorithm, BpMaxError, ComputeProfile, Outcome, PoolStats, RejectReason, Request, Response,
    ServerStats, SolveRequest,
};
use proptest::prelude::*;
use rna::base::BASES;
use rna::{RnaSeq, ScoringModel};

fn seq(max_len: usize) -> impl Strategy<Value = RnaSeq> {
    proptest::collection::vec(0usize..4, 0..=max_len)
        .prop_map(|v| RnaSeq::new(v.into_iter().map(|i| BASES[i]).collect()))
}

fn model() -> impl Strategy<Value = ScoringModel> {
    // from_weights covers the symmetric builders; inter overrides and
    // min_loop exercise the full table payload
    (0.0f32..8.0, 0.0f32..8.0, 0.0f32..8.0, 0usize..5).prop_map(|(gc, au, gu, min_loop)| {
        ScoringModel::from_weights(gc, au, gu, min_loop).with_inter_weights(au, gu, gc)
    })
}

/// `Option<V>` via a presence coin (the shim has no `option::of`).
fn opt<S: Strategy>(inner: S) -> impl Strategy<Value = Option<S::Value>> {
    (any::<bool>(), inner).prop_map(|(some, v)| if some { Some(v) } else { None })
}

fn profile() -> impl Strategy<Value = ComputeProfile> {
    let alg = (0..Algorithm::ALL.len()).prop_map(|i| Algorithm::ALL[i]);
    let tile = opt((1usize..64, 1usize..64, 1usize..64))
        .prop_map(|t| t.map(|(i2, k2, j2)| Tile { i2, k2, j2 }));
    let layout =
        opt((0..3usize).prop_map(|i| [Layout::Packed, Layout::Identity, Layout::Shifted][i]));
    (alg, tile, layout).prop_map(|(alg, tile, layout)| {
        // arbitrary tiles reach the wire inside the tiled version
        let alg = match (alg, tile) {
            (Algorithm::HybridTiled { .. }, Some(tile)) => Algorithm::HybridTiled { tile },
            _ => alg,
        };
        let mut p = ComputeProfile::new().algorithm(alg);
        if let Some(l) = layout {
            p = p.layout(l);
        }
        p
    })
}

fn solve_request() -> impl Strategy<Value = SolveRequest> {
    (
        seq(12),
        seq(9),
        model(),
        profile(),
        (opt(any::<u64>()), opt(0u64..1 << 40)),
        any::<bool>(),
    )
        .prop_map(
            |(s1, s2, model, profile, (mem_budget, deadline_ms), degrade)| {
                let mut req = SolveRequest::new(s1, s2, model)
                    .profile(profile)
                    .degrade(degrade);
                if let Some(b) = mem_budget {
                    req = req.mem_budget(b);
                }
                if let Some(ms) = deadline_ms {
                    req = req.deadline(std::time::Duration::from_millis(ms));
                }
                req
            },
        )
}

fn response() -> impl Strategy<Value = Response> {
    // arbitrary f32 bit patterns (NaN included) — the codec must carry
    // them verbatim
    let score = any::<u32>().prop_map(f32::from_bits);
    let detail = proptest::collection::vec(0u8..95, 0..=60)
        .prop_map(|v| v.into_iter().map(|b| (b + 32) as char).collect::<String>());
    prop_oneof![
        (score, any::<bool>(), 0.0f64..1e6, any::<bool>()).prop_map(
            |(score, degraded, seconds, cache_hit)| Response::Solved {
                score,
                outcome: if degraded {
                    Outcome::Degraded
                } else {
                    Outcome::Ok
                },
                seconds,
                cache_hit,
            }
        ),
        (any::<u64>(), any::<u64>()).prop_map(|(needed_bytes, budget_bytes)| Response::Rejected(
            RejectReason::Memory {
                needed_bytes,
                budget_bytes,
            }
        )),
        (0.0f64..1e6, 0.0f64..1e6).prop_map(|(predicted_s, cap_s)| Response::Rejected(
            RejectReason::PredictedTime { predicted_s, cap_s }
        )),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(inflight, depth, retry_after_ms)| {
            Response::Rejected(RejectReason::Overloaded {
                inflight,
                depth,
                retry_after_ms,
            })
        }),
        detail.prop_map(|detail| Response::Error { detail }),
        proptest::collection::vec(any::<u64>(), 14..=14).prop_map(|v| Response::Stats(
            ServerStats {
                requests: v[0],
                cache_hits: v[1],
                solves: v[2],
                rejects: v[3],
                evictions: v[4],
                timeouts: v[5],
                inflight: v[6],
                shed: v[7],
                drained: v[8],
                panicked: v[9],
                pool: PoolStats {
                    allocated: v[10],
                    reused: v[11],
                    recycled: v[12],
                    quarantined: v[13],
                },
            }
        )),
        Just(Response::ShuttingDown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn requests_round_trip_bit_exactly(req in solve_request()) {
        let wire = encode_request(&Request::Solve(req.clone()));
        prop_assert_eq!(decode_request(&wire).unwrap(), Request::Solve(req));
    }

    #[test]
    fn responses_round_trip_bit_exactly(resp in response()) {
        let wire = encode_response(&resp);
        let back = decode_response(&wire).unwrap();
        // NaN scores compare bit-wise, not with ==
        match (&back, &resp) {
            (
                Response::Solved { score: a, outcome: oa, seconds: sa, cache_hit: ca },
                Response::Solved { score: b, outcome: ob, seconds: sb, cache_hit: cb },
            ) => {
                prop_assert_eq!(a.to_bits(), b.to_bits());
                prop_assert_eq!((oa, sa, ca), (ob, sb, cb));
            }
            _ => prop_assert_eq!(&back, &resp),
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error(req in solve_request()) {
        let wire = encode_request(&Request::Solve(req));
        for cut in 0..wire.len() {
            match decode_request(&wire[..cut]) {
                Err(BpMaxError::Protocol { .. }) => {}
                other => prop_assert!(false, "cut at {cut}: {other:?}"),
            }
        }
    }
}

/// Every single-byte corruption of an encoded message is detected:
/// header fields by their explicit checks, payload bytes by the frame
/// CRC32. No flip may panic or decode as a (different) valid message.
#[test]
fn every_byte_flip_is_rejected() {
    let req = Request::Solve(
        SolveRequest::new(
            "GGAUCGAC".parse().unwrap(),
            "CCGAUG".parse().unwrap(),
            ScoringModel::bpmax_default(),
        )
        .profile(ComputeProfile::new().algorithm(Algorithm::Hybrid))
        .mem_budget(1 << 20),
    );
    let wire = encode_request(&req);
    for at in 0..wire.len() {
        let mut bad = wire.clone();
        bad[at] ^= 0x10;
        match decode_request(&bad) {
            Err(BpMaxError::Protocol { .. }) => {}
            other => panic!("flip at byte {at}: {other:?}"),
        }
    }

    let resp = Response::Stats(ServerStats {
        requests: 7,
        cache_hits: 2,
        solves: 4,
        rejects: 1,
        evictions: 3,
        timeouts: 1,
        inflight: 2,
        shed: 5,
        drained: 4,
        panicked: 1,
        pool: PoolStats::default(),
    });
    let wire = encode_response(&resp);
    for at in 0..wire.len() {
        let mut bad = wire.clone();
        bad[at] ^= 0x10;
        match decode_response(&bad) {
            Err(BpMaxError::Protocol { .. }) => {}
            other => panic!("flip at byte {at}: {other:?}"),
        }
    }
}

/// Stream framing: clean EOF on a message boundary is `None`, EOF
/// mid-message and corrupted length fields are typed errors.
#[test]
fn read_message_frames_the_stream() {
    let wire = encode_request(&Request::Stats);

    // whole message: returned intact
    let mut stream: &[u8] = &wire;
    let got = read_message(&mut stream).unwrap().expect("one message");
    assert_eq!(got, wire);
    // stream exhausted: clean EOF
    assert!(read_message(&mut stream).unwrap().is_none());

    // every proper prefix is a torn message, never a panic
    for cut in 1..wire.len() {
        let mut stream: &[u8] = &wire[..cut];
        match read_message(&mut stream) {
            Err(BpMaxError::Protocol { .. }) => {}
            other => panic!("cut at {cut}: {other:?}"),
        }
    }

    // a corrupted length field must not drive allocation: max out the
    // frame length bytes (offset 13..17 of the fixed prefix)
    let mut bad = wire.clone();
    bad[13..17].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut stream: &[u8] = &bad;
    match read_message(&mut stream) {
        Err(BpMaxError::Protocol { detail }) => {
            assert!(detail.contains("exceeds"), "{detail}");
        }
        other => panic!("{other:?}"),
    }

    // two messages back to back come out one at a time
    let mut double = wire.clone();
    double.extend_from_slice(&encode_request(&Request::Shutdown));
    let mut stream: &[u8] = &double;
    let first = read_message(&mut stream).unwrap().expect("first");
    let second = read_message(&mut stream).unwrap().expect("second");
    assert!(read_message(&mut stream).unwrap().is_none());
    assert_eq!(decode_request(&first).unwrap(), Request::Stats);
    assert_eq!(decode_request(&second).unwrap(), Request::Shutdown);
}
