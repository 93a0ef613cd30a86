//! `bpmax-cli` — fold, interact, and scan RNA from the command line.
//!
//! ```text
//! bpmax-cli fold GGGAAACCC
//! bpmax-cli interact GGGAAACCC UUUGG
//! bpmax-cli interact seq1.fa seq2.fa --alg hybrid-tiled --min-loop 3
//! bpmax-cli scan GGCAUUCC target.fa --window 16 --top 5
//! bpmax-cli scan GGCAUUCC target.fa --window 16 --deadline 60
//! bpmax-cli info 16 2048
//! ```
//!
//! Sequence arguments may be literal RNA strings or paths to FASTA files
//! (the first record is used).
//!
//! Exit status: 0 on success; 2 on misuse (bad flags, unknown algorithm,
//! unreadable sequences — the usage text follows the error); 1 when
//! `verify` finds genuine schedule violations; 3 when a supervised
//! `scan` (`--deadline`, `--mem-budget`) completes only partially — the
//! partial ranked results and a failure summary still print to stdout.
#![forbid(unsafe_code)]

mod commands;

use std::process::ExitCode;

/// Test-only hooks (the `fault-inject` feature). Production builds
/// compile this to nothing.
///
/// * `BPMAX_FAULT_SLOW_MS=N` arms an artificial N ms delay at every
///   supervision checkpoint of every batch problem, so the
///   crash-recovery integration tests can SIGKILL this process reliably
///   mid-wave.
/// * `BPMAX_FAULT_SERVE_HOLD_MS=N` makes every admitted serve request
///   hold its in-flight slot an extra N ms (`serve.queue` site), so the
///   overload and drain scripts can saturate a `--max-inflight 1`
///   daemon deterministically.
/// * `BPMAX_FAULT_SERVE_HANDLER_PANIC=i,j,…` panics the daemon's
///   i-th/j-th request handlers (`serve.handler` site), exercising the
///   catch-unwind isolation and the `panicked` counter.
/// * `BPMAX_FAULT_SERVE_ACCEPT_DROP=i,j,…` drops the daemon's i-th/j-th
///   accepted connections before reading a byte (`serve.accept` site),
///   exercising client-side retry on torn connections.
#[cfg(feature = "fault-inject")]
fn arm_faults_from_env() {
    use bpmax::supervise::fault::{self, Fault, FaultPlan};
    let indices = |name: &str| -> Vec<usize> {
        std::env::var(name)
            .map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect())
            .unwrap_or_default()
    };
    let mut plan = FaultPlan::new();
    let mut armed = false;
    if let Some(millis) = std::env::var("BPMAX_FAULT_SLOW_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        for index in 0..512 {
            plan = plan.fail(fault::SITE_SLOW, index, Fault::Slow { millis });
        }
        armed = true;
    }
    if let Some(millis) = std::env::var("BPMAX_FAULT_SERVE_HOLD_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    {
        for index in 0..512 {
            plan = plan.fail(fault::SITE_SERVE_QUEUE, index, Fault::Slow { millis });
        }
        armed = true;
    }
    for index in indices("BPMAX_FAULT_SERVE_HANDLER_PANIC") {
        plan = plan.fail(fault::SITE_SERVE_HANDLER, index, Fault::Panic);
        armed = true;
    }
    for index in indices("BPMAX_FAULT_SERVE_ACCEPT_DROP") {
        plan = plan.fail(fault::SITE_SERVE_ACCEPT, index, Fault::Panic);
        armed = true;
    }
    if armed {
        fault::arm(plan);
    }
}

#[cfg(not(feature = "fault-inject"))]
fn arm_faults_from_env() {}

fn main() -> ExitCode {
    arm_faults_from_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&args) {
        Ok(output) => {
            println!("{output}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            if let Some(report) = e.partial_report() {
                // partial results are still results: stdout, not stderr
                println!("{report}");
                eprintln!("error: batch completed partially (failure summary above)");
            } else {
                eprintln!("error: {e}");
                if e.show_usage() {
                    eprintln!();
                    eprintln!("{}", commands::USAGE);
                }
            }
            ExitCode::from(e.exit_code())
        }
    }
}
