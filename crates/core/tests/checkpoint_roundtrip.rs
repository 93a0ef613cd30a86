//! The checkpoint subsystem's round-trip contract: a partial F-table
//! serialized at diagonal granularity, pushed through the on-disk wire
//! format, restored, and solved to completion is **bit-identical** —
//! scores *and* tables — to a from-scratch solve, for every algorithm,
//! mixed problem sizes, and every split point. And every corruption of
//! the bytes on disk is detected, never replayed — except a journal cut
//! past its header, which is what a kill mid-append leaves and which
//! loads exactly the whole frames before the cut.

use bpmax::checkpoint::{self, CheckpointSink, JournalRecord, RunManifest, TableSnapshot};
use bpmax::ftable::Layout;
use bpmax::{Algorithm, BpMaxError, BpMaxProblem, FTable, Outcome, SolveOptions};
use proptest::prelude::*;
use rna::base::BASES;
use rna::{RnaSeq, ScoringModel};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmpdir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed); // ordering: unique-suffix counter only; nothing is published
    let dir =
        std::env::temp_dir().join(format!("bpmax-roundtrip-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seq(min_len: usize, max_len: usize) -> impl Strategy<Value = RnaSeq> {
    proptest::collection::vec(0usize..4, min_len..=max_len)
        .prop_map(|v| RnaSeq::new(v.into_iter().map(|i| BASES[i]).collect()))
}

fn algorithm() -> impl Strategy<Value = Algorithm> {
    (0..Algorithm::ALL.len()).prop_map(|i| Algorithm::ALL[i])
}

fn journal_record() -> impl Strategy<Value = JournalRecord> {
    (
        any::<u64>(),
        any::<bool>(),
        -4000i32..4000,
        0.0f64..10.0,
        any::<bool>(),
    )
        .prop_map(
            |(index, degraded, quarters, seconds, coarse)| JournalRecord {
                index,
                outcome: if degraded {
                    Outcome::Degraded
                } else {
                    Outcome::Ok
                },
                score: quarters as f32 / 4.0,
                seconds,
                coarse,
            },
        )
}

fn assert_tables_equal(got: &FTable, want: &FTable, what: &str) {
    for (i1, j1, i2, j2) in want.iter_cells().collect::<Vec<_>>() {
        assert_eq!(
            got.get(i1, j1, i2, j2),
            want.get(i1, j1, i2, j2),
            "{what}: F[{i1},{j1},{i2},{j2}]"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// serialize → deserialize → solve-from-snapshot == solve-from-scratch,
    /// through the real on-disk format (not just in-memory structs).
    #[test]
    fn snapshot_round_trip_is_bit_identical(
        s1 in seq(1, 10),
        s2 in seq(0, 8),
        alg in algorithm(),
        split_frac in 0.0f64..=1.0,
    ) {
        let p = BpMaxProblem::new(s1, s2, ScoringModel::bpmax_default());
        let m = p.seq1().len();
        let split = ((m as f64) * split_frac).floor() as usize;

        let reference = p
            .solve_opts(&SolveOptions::new().algorithm(alg))
            .unwrap()
            .into_ftable();
        let prefix = p.compute_prefix(alg, split).unwrap();
        let snap = TableSnapshot::capture(0, checkpoint::problem_id(&p), &prefix, split);

        // push the snapshot through the wire format on disk
        let dir = tmpdir("prop");
        let manifest = RunManifest {
            options_hash: 1,
            seed: 0,
            problem_ids: vec![checkpoint::problem_id(&p)],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        sink.snapshot(&snap);
        prop_assert!(sink.take_error().is_none());
        let (_, _, loaded) = checkpoint::load(&dir).unwrap();
        let loaded = loaded.expect("snapshot present");
        prop_assert_eq!(&loaded, &snap, "decode(encode(snap)) == snap");

        // restore and finish the solve
        let mut resumed = FTable::new(p.seq1().len(), p.seq2().len(), Layout::Packed);
        loaded.restore_into(&mut resumed).unwrap();
        p.resume_from(alg, &mut resumed, loaded.done).unwrap();
        assert_tables_equal(&resumed, &reference, &format!("{alg:?} split {split}"));
        prop_assert_eq!(
            resumed.final_score().map(f32::to_bits),
            reference.final_score().map(f32::to_bits),
            "scores bit-identical"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A journal written in appends of 1–8 records (a lone problem, or a
    /// lane group): a cut at or past its 13-byte header loads exactly the
    /// whole 30-byte frames before the cut, a cut inside the header is
    /// refused, and so is every single-byte flip.
    #[test]
    fn journal_cuts_recover_whole_frames_and_flips_are_refused(
        units in proptest::collection::vec(proptest::collection::vec(journal_record(), 1..=8), 0..5),
    ) {
        let dir = tmpdir("journal");
        let manifest = RunManifest {
            options_hash: 2,
            seed: 0,
            problem_ids: vec![1],
        };
        let sink = CheckpointSink::create(&dir, &manifest).unwrap();
        for unit in &units {
            sink.record(unit);
        }
        prop_assert!(sink.take_error().is_none());
        drop(sink);
        let records: Vec<JournalRecord> = units.concat();
        let jpath = checkpoint::journal_path(&dir);
        let pristine = std::fs::read(&jpath).unwrap();
        prop_assert_eq!(pristine.len(), 13 + 30 * records.len());

        for len in 0..=pristine.len() {
            std::fs::write(&jpath, &pristine[..len]).unwrap();
            match checkpoint::load(&dir) {
                Ok((_, got, _)) if len >= 13 => {
                    prop_assert_eq!(&got[..], &records[..(len - 13) / 30], "cut to {}", len);
                }
                Err(BpMaxError::CorruptCheckpoint { .. }) if len < 13 => {}
                other => panic!("cut to {len}: {other:?}"),
            }
        }
        for at in 0..pristine.len() {
            let mut bad = pristine.clone();
            bad[at] ^= 1 << (at % 8);
            std::fs::write(&jpath, &bad).unwrap();
            match checkpoint::load(&dir) {
                Err(BpMaxError::CorruptCheckpoint { path, .. }) => {
                    prop_assert!(path.ends_with("journal.bin"), "{}", path);
                }
                other => panic!("flip at byte {at}: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every single-byte corruption of a snapshot file on disk is detected as
/// `CorruptCheckpoint` — never a panic, never a silently-wrong table.
#[test]
fn corrupted_snapshot_bytes_never_load() {
    let p = BpMaxProblem::new(
        "GGAUCGAC".parse().unwrap(),
        "CCGAUG".parse().unwrap(),
        ScoringModel::bpmax_default(),
    );
    let dir = tmpdir("corrupt");
    let manifest = RunManifest {
        options_hash: 9,
        seed: 0,
        problem_ids: vec![checkpoint::problem_id(&p)],
    };
    let sink = CheckpointSink::create(&dir, &manifest).unwrap();
    let prefix = p.compute_prefix(Algorithm::CoarseGrain, 4).unwrap();
    sink.snapshot(&TableSnapshot::capture(
        0,
        checkpoint::problem_id(&p),
        &prefix,
        4,
    ));
    assert!(sink.take_error().is_none());
    drop(sink);

    let spath = checkpoint::snapshot_path(&dir);
    let pristine = std::fs::read(&spath).unwrap();
    for at in 0..pristine.len() {
        let mut bad = pristine.clone();
        bad[at] ^= 0x10;
        std::fs::write(&spath, &bad).unwrap();
        match checkpoint::load(&dir) {
            Err(BpMaxError::CorruptCheckpoint { path, .. }) => {
                assert!(path.ends_with("snapshot.bin"), "{path}");
            }
            Ok(_) => panic!("byte flip at {at} went undetected"),
            Err(other) => panic!("byte flip at {at}: unexpected {other}"),
        }
    }
    // truncations too
    for len in [0, 5, pristine.len() / 2, pristine.len() - 1] {
        std::fs::write(&spath, &pristine[..len]).unwrap();
        let err = checkpoint::load(&dir).unwrap_err();
        assert!(
            matches!(err, BpMaxError::CorruptCheckpoint { .. }),
            "truncate to {len}: {err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
