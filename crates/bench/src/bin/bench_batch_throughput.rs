//! Batch engine throughput: pooled arena vs a naive solve loop.
//!
//! Measured part: a mixed-size problem set (cycled from `--sizes`) solved
//! three ways — a plain per-problem `solve_opts` loop (fresh table every
//! time), the batch engine cold (arena empty), and the batch engine warm
//! (arena populated by the cold wave). Scores are asserted bit-identical
//! across all three. The headline *metrics* are the arena counters: after
//! the cold wave the steady state must allocate **zero** new tables
//! (`second_wave_allocs`), which this binary asserts — that part is
//! hardware-independent. The wall-clock speedup is reported but not
//! asserted. Every batch record carries `workers`, the threads the
//! wave's coarse group ran on (the default sizes are all coarse; 1 when
//! the wave is too small to split), and `lane_problems` / `lane_tables`,
//! the problems the warm wave solved in same-shape lane groups and the
//! wave-scoped lane tables it allocated for them.
//!
//! Also measured: the same wave with durable checkpoint journaling
//! (`solve_all_checkpointed` — the fsync-per-problem overhead) and a
//! full `resume` from the finished journal (pure replay, zero
//! recomputation — the resume-overhead floor).

use bench::report::Reporter;
use bench::{banner, f2, gflops, model, time_stats, workload, Opts, Table};
use bpmax::batch::{BatchEngine, BatchOptions};
use bpmax::{BpMaxProblem, Deadline, MemoryBudget, SolveOptions};
use std::time::Duration;

fn main() {
    let opts = Opts::parse(&[8, 12, 16, 20], &[]);
    let mut rep = Reporter::new("bench_batch_throughput", &opts);
    banner(
        "Batch",
        "batch engine throughput and arena reuse",
        "steady-state solves allocate zero F-table buffers",
    );

    let count = if opts.smoke {
        24
    } else if opts.full {
        128
    } else {
        64
    };
    let problems: Vec<BpMaxProblem> = (0..count)
        .map(|i| {
            let m = opts.sizes[i % opts.sizes.len()];
            let n = opts.sizes[(i / opts.sizes.len() + i) % opts.sizes.len()];
            let (s1, s2) = workload(opts.seed + i as u64, m, n);
            BpMaxProblem::new(s1, s2, model())
        })
        .collect();
    let total_flops: u64 = problems.iter().map(BpMaxProblem::flops).sum();
    println!(
        "\n{count} problems, sizes cycled from {:?}, {:.2} MFLOP total",
        opts.sizes,
        total_flops as f64 / 1e6
    );

    // Reference: the naive loop — one fresh F-table per problem.
    let solve_opts = SolveOptions::new();
    let naive_scores: Vec<f32> = problems
        .iter()
        .map(|p| p.solve_opts(&solve_opts).expect("solve").score())
        .collect();
    let reps = opts.reps(3);
    let naive_stats = time_stats(reps, || {
        problems
            .iter()
            .map(|p| p.solve_opts(&solve_opts).expect("solve").score())
            .sum::<f32>()
    });
    rep.measured("measured/naive-loop/t=1", naive_stats, Some(total_flops));
    rep.annotate(&[("problems", count as f64)]);

    // Batch engine: cold wave populates the arena, warm waves must not
    // allocate.
    let engine = BatchEngine::new(BatchOptions::new()).expect("engine");
    let cold = engine.solve_all(&problems).expect("cold wave");
    let cold_scores: Vec<f32> = cold.items.iter().map(|i| i.score).collect();
    assert_eq!(cold_scores, naive_scores, "batch must match naive solves");

    let after_cold = engine.pool_stats();
    let warm_stats = time_stats(reps, || {
        engine.solve_all(&problems).expect("warm wave").len()
    });
    let warm = engine.solve_all(&problems).expect("warm wave");
    let warm_allocs = engine.pool_stats().allocated_since(&after_cold);
    assert_eq!(
        warm_allocs,
        0,
        "steady state allocated {warm_allocs} tables (pool {:?})",
        engine.pool_stats()
    );

    let speedup = naive_stats.median_s / warm_stats.median_s;
    let (lat_min, lat_med, lat_max) = warm.latency_s();
    rep.measured("measured/batch/t=1", warm_stats, Some(total_flops));
    rep.annotate(&[
        ("problems", count as f64),
        ("workers", warm.workers as f64),
        ("speedup_vs_naive", speedup),
        ("coarse_fraction", warm.coarse_fraction()),
        ("latency_median_s", lat_med),
        ("pool_allocated", after_cold.allocated as f64),
        ("pool_reused", engine.pool_stats().reused as f64),
        ("steady_state_allocs", warm_allocs as f64),
        ("lane_problems", warm.lane_problems as f64),
        ("lane_tables", warm.lane_tables as f64),
    ]);

    // Supervised warm wave: a generous deadline and budget must leave
    // every outcome Ok with bit-identical scores — supervision overhead
    // is a couple of relaxed atomic loads per diagonal, nothing more.
    // The deadline is one instant for every wave below, which finish in
    // seconds.
    let supervised = BatchEngine::new(
        BatchOptions::new().solve(
            SolveOptions::new()
                .deadline(Deadline::within(Duration::from_secs(600)))
                .mem_budget(MemoryBudget::bytes(4 << 30)),
        ),
    )
    .expect("supervised engine");
    supervised.solve_all(&problems).expect("supervised cold");
    let sup_stats = time_stats(reps, || {
        supervised
            .solve_all(&problems)
            .expect("supervised wave")
            .len()
    });
    let sup_wave = supervised.solve_all(&problems).expect("supervised wave");
    let counts = sup_wave.outcomes();
    assert!(
        counts.all_ok(),
        "generous supervision must stay all-ok: {counts}"
    );
    let sup_scores: Vec<f32> = sup_wave.items.iter().map(|i| i.score).collect();
    assert_eq!(
        sup_scores, naive_scores,
        "supervised batch must match naive solves"
    );
    rep.measured(
        "measured/batch-supervised/t=1",
        sup_stats,
        Some(total_flops),
    );
    rep.annotate(&[
        ("problems", count as f64),
        ("workers", sup_wave.workers as f64),
        ("outcomes_ok", counts.ok as f64),
        ("outcomes_degraded", counts.degraded as f64),
        ("outcomes_failed", counts.failed as f64),
        ("outcomes_cancelled", counts.cancelled as f64),
        ("outcomes_timed_out", counts.timed_out as f64),
    ]);

    // Checkpointed wave: durable journaling on the warm path, then a
    // pure journal replay — the resume-overhead number. Scores stay
    // bit-identical and a full replay recomputes nothing.
    let ckpt_dir = std::env::temp_dir().join(format!("bpmax-bench-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    let ckpt_stats = time_stats(reps, || {
        engine
            .solve_all_checkpointed(&problems, &ckpt_dir)
            .expect("checkpointed wave")
            .len()
    });
    let ckpt_wave = engine
        .solve_all_checkpointed(&problems, &ckpt_dir)
        .expect("checkpointed wave");
    let ckpt_scores: Vec<f32> = ckpt_wave.items.iter().map(|i| i.score).collect();
    assert_eq!(
        ckpt_scores, naive_scores,
        "checkpointed batch must match naive solves"
    );
    let resume_stats = time_stats(reps, || {
        engine.resume(&problems, &ckpt_dir).expect("resume").len()
    });
    let resumed = engine.resume(&problems, &ckpt_dir).expect("resume");
    assert_eq!(
        resumed.replayed, count,
        "a completed journal must replay every problem"
    );
    let resumed_scores: Vec<f32> = resumed.items.iter().map(|i| i.score).collect();
    assert_eq!(
        resumed_scores, naive_scores,
        "replayed scores must match naive solves"
    );
    rep.measured(
        "measured/batch-checkpointed/t=1",
        ckpt_stats,
        Some(total_flops),
    );
    rep.annotate(&[
        ("problems", count as f64),
        ("workers", ckpt_wave.workers as f64),
        (
            "journal_overhead_vs_warm",
            (ckpt_stats.median_s - warm_stats.median_s) / warm_stats.median_s,
        ),
    ]);
    rep.measured("measured/batch-resume-replay/t=1", resume_stats, None);
    rep.annotate(&[
        ("problems", count as f64),
        ("workers", resumed.workers as f64),
        ("replayed", resumed.replayed as f64),
    ]);
    let _ = std::fs::remove_dir_all(&ckpt_dir);

    let mut t = Table::new(&["wave", "median s", "prob/s", "GFLOPS"]);
    for (name, s) in [
        ("naive loop", naive_stats),
        ("batch warm", warm_stats),
        ("batch supervised", sup_stats),
        ("batch checkpointed", ckpt_stats),
        ("resume (pure replay)", resume_stats),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.4}", s.median_s),
            format!("{:.0}", count as f64 / s.median_s),
            f2(gflops(total_flops, s.median_s)),
        ]);
    }
    t.print();
    println!(
        "\ncold wave: {:.4} s; warm speedup vs naive loop: {:.2}x ({:.0}% coarse, on {} thread(s))",
        cold.wall_s,
        speedup,
        100.0 * warm.coarse_fraction(),
        warm.workers
    );
    println!(
        "arena: {} tables allocated cold, {} reuses since, {} steady-state allocations",
        after_cold.allocated,
        engine.pool_stats().reused,
        warm_allocs
    );
    println!(
        "lanes (warm wave): {} problems solved in lane groups on {} lane table(s)",
        warm.lane_problems, warm.lane_tables
    );
    println!(
        "per-problem latency (warm): min {:.2} us / median {:.2} us / max {:.2} us",
        lat_min * 1e6,
        lat_med * 1e6,
        lat_max * 1e6
    );
    println!(
        "supervised wave (600 s deadline, 4 GiB budget): outcomes: {counts}, \
         overhead vs warm {:+.1}%",
        100.0 * (sup_stats.median_s - warm_stats.median_s) / warm_stats.median_s
    );
    println!(
        "checkpoint: journal overhead vs warm {:+.1}%; full resume replays \
         {} problems in {:.4} s without recomputing any",
        100.0 * (ckpt_stats.median_s - warm_stats.median_s) / warm_stats.median_s,
        resumed.replayed,
        resume_stats.median_s
    );
    rep.finish();
}
