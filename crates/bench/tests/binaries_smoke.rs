//! Smoke tests: every figure/table binary runs to completion at tiny
//! sizes, prints its expected markers, and writes a parseable telemetry
//! report. This keeps the harness runnable as the library evolves — a
//! broken figure binary fails `cargo test`.

use bench::report::{Kind, Report};
use std::path::PathBuf;
use std::process::Command;

/// Whether the artifact is expected to carry at least one nonzero-GFLOPS
/// measurement (the four structural artifacts — dependence tables,
/// code-gen LOC, and the two ablation simulators — report counts and
/// ratios, not throughput; the serve benchmark reports round-trip
/// latency, where FLOPS are meaningless).
fn carries_gflops(artifact: &str) -> bool {
    !matches!(
        artifact,
        "tables02_05_bpmax_schedules"
            | "table06_codegen_loc"
            | "ablation_locality"
            | "ablation_sched_policy"
            | "bench_serve"
            | "bench_serve_load"
    )
}

/// Run a binary with `--json-dir` pointed at a fresh temp dir; assert it
/// exits 0 and that its JSON report parses with at least one measurement
/// (and nonzero finite GFLOPS where the artifact promises throughput).
/// Returns the captured stdout for marker assertions.
fn run(bin: &str, artifact: &str, args: &[&str]) -> String {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("bpmax-smoke-{}-{artifact}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(bin)
        .args(args)
        .arg("--json-dir")
        .arg(&dir)
        .output()
        .unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let report = Report::load(&dir.join(format!("{artifact}.json")))
        .unwrap_or_else(|e| panic!("{artifact}: telemetry report unreadable: {e}"));
    assert_eq!(report.artifact, artifact);
    assert!(
        !report.measurements.is_empty(),
        "{artifact}: report has no measurements"
    );
    for m in &report.measurements {
        assert!(!m.id.is_empty(), "{artifact}: empty measurement id");
        if let Some(g) = m.gflops {
            assert!(
                g.is_finite() && g > 0.0,
                "{artifact}: non-positive GFLOPS in {}",
                m.id
            );
        }
        if m.kind == Kind::Measured {
            if let Some(s) = m.median_s {
                assert!(s > 0.0, "{artifact}: non-positive median in {}", m.id);
            }
        }
    }
    if carries_gflops(artifact) {
        assert!(
            report.measurements.iter().any(|m| m.gflops.is_some()),
            "{artifact}: expected at least one GFLOPS-bearing measurement"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn fig01_summary_runs() {
    let out = run(
        env!("CARGO_BIN_EXE_fig01_summary"),
        "fig01_summary",
        &["--sizes", "8,10"],
    );
    assert!(out.contains("speedup"));
    assert!(out.contains("Xeon"));
}

#[test]
fn table01_runs_and_all_schedules_legal() {
    let out = run(
        env!("CARGO_BIN_EXE_table01_dmp_schedules"),
        "table01_dmp_schedules",
        &["--sizes", "8,12"],
    );
    assert!(out.contains("j2 (vec)"));
    assert!(!out.contains(" NO"));
}

#[test]
fn tables02_05_verify() {
    let out = run(
        env!("CARGO_BIN_EXE_tables02_05_bpmax_schedules"),
        "tables02_05_bpmax_schedules",
        &[],
    );
    assert!(out.contains("all schedule sets verified legal"));
    assert!(out.matches("LEGAL").count() >= 10);
}

#[test]
fn fig11_roofline_exact_values() {
    let out = run(env!("CARGO_BIN_EXE_fig11_roofline"), "fig11_roofline", &[]);
    assert!(out.contains("345.6"), "paper peak must appear");
    assert!(out.contains("DRAM"));
}

#[test]
fn fig12_microbench_runs() {
    let out = run(
        env!("CARGO_BIN_EXE_fig12_microbench"),
        "fig12_microbench",
        &["--smoke"],
    );
    assert!(out.contains("GFLOPS"));
    assert!(out.contains("modeled thread scaling"));
}

#[test]
fn fig13_fig14_run() {
    let out = run(
        env!("CARGO_BIN_EXE_fig13_dmp_perf"),
        "fig13_dmp_perf",
        &["--sizes", "8,12"],
    );
    assert!(out.contains("fine + tiled"));
    let out = run(
        env!("CARGO_BIN_EXE_fig14_dmp_speedup"),
        "fig14_dmp_speedup",
        &["--sizes", "8,12"],
    );
    assert!(out.contains("modeled speedup"));
}

#[test]
fn fig15_fig16_run() {
    let out = run(
        env!("CARGO_BIN_EXE_fig15_bpmax_perf"),
        "fig15_bpmax_perf",
        &["--sizes", "8,10"],
    );
    assert!(out.contains("hybrid+tiled"));
    let out = run(
        env!("CARGO_BIN_EXE_fig16_bpmax_speedup"),
        "fig16_bpmax_speedup",
        &["--sizes", "8,10"],
    );
    assert!(out.contains("modeled speedup vs baseline"));
}

#[test]
fn bench_batch_throughput_runs_and_reuses_arena() {
    let out = run(
        env!("CARGO_BIN_EXE_bench_batch_throughput"),
        "bench_batch_throughput",
        &["--smoke", "--sizes", "6,8,10"],
    );
    assert!(out.contains("batch warm"), "{out}");
    assert!(out.contains("0 steady-state allocations"), "{out}");
    assert!(out.contains("per-problem latency"), "{out}");
    assert!(out.contains("outcomes: ok"), "{out}");
}

#[test]
fn supervised_batch_report_carries_outcome_counts() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("bpmax-smoke-{}-supervised", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(env!("CARGO_BIN_EXE_bench_batch_throughput"))
        .args(["--smoke", "--sizes", "6,8"])
        .arg("--json-dir")
        .arg(&dir)
        .output()
        .expect("spawning bench_batch_throughput");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = Report::load(&dir.join("bench_batch_throughput.json")).unwrap();
    let supervised = report
        .measurements
        .iter()
        .find(|m| m.id.starts_with("measured/batch-supervised/"))
        .expect("supervised wave measurement");
    let metric = |key: &str| {
        supervised
            .metrics
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("missing metric {key}: {:?}", supervised.metrics))
    };
    let problems = metric("problems");
    assert!(problems > 0.0);
    // a generous deadline/budget leaves the whole wave Ok
    assert_eq!(metric("outcomes_ok"), problems);
    for key in [
        "outcomes_degraded",
        "outcomes_failed",
        "outcomes_cancelled",
        "outcomes_timed_out",
    ] {
        assert_eq!(metric(key), 0.0, "{key}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bench_serve_warm_hits_beat_cold_solves() {
    let out = run(
        env!("CARGO_BIN_EXE_bench_serve"),
        "bench_serve",
        &["--smoke", "--sizes", "12,16", "--reps", "3"],
    );
    // the binary itself asserts the >=10x warm-hit speedup and the
    // zero-solve / zero-allocation warm wave; here we just pin the
    // report shape
    assert!(out.contains("warm cache hit"), "{out}");
    assert!(out.contains("x faster than cold solve"), "{out}");
    assert!(out.contains("protocol floor"), "{out}");
}

#[test]
fn bench_serve_load_concurrent_throughput_and_overload_recovery() {
    let out = run(
        env!("CARGO_BIN_EXE_bench_serve_load"),
        "bench_serve_load",
        &["--smoke", "--sizes", "10,12", "--reps", "3"],
    );
    // the binary itself asserts the core-gated throughput floor, the
    // bit-identity of every concurrent and retried answer, and (with
    // >=2 cores) that the starved overload daemon shed at least once
    assert!(out.contains("concurrent aggregate throughput"), "{out}");
    assert!(out.contains("recovered by retry"), "{out}");
    assert!(out.contains("bit-identical answers"), "{out}");
}

#[test]
fn fig17_ht_gain_is_positive_and_small() {
    let out = run(
        env!("CARGO_BIN_EXE_fig17_hyperthreading"),
        "fig17_hyperthreading",
        &[],
    );
    assert!(out.contains("gain vs 6T"));
    // the tiled scenario's 12-thread gain line exists
    assert!(out.contains("12"));
}

#[test]
fn fig18_tile_sweep_runs() {
    let out = run(
        env!("CARGO_BIN_EXE_fig18_tile_sweep"),
        "fig18_tile_sweep",
        &["--sizes", "48"],
    );
    assert!(out.contains("cubic"));
    assert!(out.contains("untiled"));
}

#[test]
fn table06_loc_ordering() {
    let out = run(
        env!("CARGO_BIN_EXE_table06_codegen_loc"),
        "table06_codegen_loc",
        &[],
    );
    assert!(out.contains("BPMax hybrid with tiled R0"));
    assert!(out.contains("#pragma omp parallel for"));
}

#[test]
fn ablations_run() {
    let out = run(
        env!("CARGO_BIN_EXE_ablation_locality"),
        "ablation_locality",
        &[],
    );
    assert!(out.contains("miss ratio"));
    let out = run(
        env!("CARGO_BIN_EXE_ablation_sched_policy"),
        "ablation_sched_policy",
        &[],
    );
    assert!(out.contains("dynamic"));
}

#[test]
fn bench_simd_kernel_runs_and_asserts_bit_identity() {
    let out = run(
        env!("CARGO_BIN_EXE_bench_simd_kernel"),
        "bench_simd_kernel",
        &["--smoke", "--sizes", "10,12", "--reps", "2"],
    );
    assert!(
        out.contains("all 4 R0 orders agree on the dmp checksum"),
        "{out}"
    );
    assert!(out.contains("match the memoized oracle"), "{out}");
    assert!(out.contains("simd axpy4"), "{out}");
    assert!(out.contains("simd-reg"), "{out}");
}

#[test]
fn future_work_binaries_run() {
    let out = run(
        env!("CARGO_BIN_EXE_future_register_tiling"),
        "future_register_tiling",
        &["--sizes", "16"],
    );
    assert!(out.contains("reg-unrolled"));
    let out = run(
        env!("CARGO_BIN_EXE_future_mpi_cluster"),
        "future_mpi_cluster",
        &[],
    );
    assert!(out.contains("speedup"));
    assert!(out.contains("comm %"));
}
