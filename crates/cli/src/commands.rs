//! CLI command implementations. Every command returns its output as a
//! `String` so unit tests can assert on it without spawning processes.
//!
//! Errors are typed ([`CliError`]): usage mistakes and domain failures
//! ([`bpmax::BpMaxError`]) exit with status 2 and print the usage text;
//! a `verify` run that finds real schedule violations exits 1 with the
//! report — that's a *finding*, not a misuse.

use bpmax::batch::{BatchEngine, BatchOptions};
use bpmax::serve::{Client, Response, RetryPolicy, Server, ServerConfig, SolveRequest};
use bpmax::{Algorithm, BpMaxError, BpMaxProblem, Deadline, MemoryBudget, SolveOptions};
use rna::nussinov::Nussinov;
use rna::{RnaSeq, ScoringModel};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Usage text shown on errors and by `help`.
pub(crate) const USAGE: &str = "usage:
  bpmax-cli fold <seq> [--min-loop K]
  bpmax-cli interact <seq1> <seq2> [--min-loop K]
                     [--alg base|permuted|coarse|hybrid-tiled|hybrid-reg]
  bpmax-cli scan <query> <target> [--window W] [--top K]
                 [--deadline SECS] [--mem-budget BYTES]
                 [--checkpoint-dir DIR] [--resume]
  bpmax-cli serve --socket PATH [--mem-budget BYTES]
                  [--max-seconds S] [--cache-dir DIR] [--cache-mem BYTES]
                  [--read-timeout S] [--max-inflight N] [--queue-depth N]
                  [--queue-wait S] [--drain-timeout S]
  bpmax-cli client --socket PATH solve <seq1> <seq2>
                   [--alg base|permuted|coarse|hybrid-tiled|hybrid-reg]
                   [--min-loop K] [--mem-budget BYTES] [--degrade]
                   [--deadline S] [--retries N]
  bpmax-cli client --socket PATH stats
  bpmax-cli client --socket PATH shutdown
  bpmax-cli info [M] [N]
  bpmax-cli verify [M N] [--static] [--bounds]
  bpmax-cli help

--alg picks the program version. base and permuted run on one thread;
coarse, hybrid-tiled and hybrid-reg split each large outer diagonal's
triangles across the host's cores. The default, hybrid-reg, runs the
register-tiled R0 kernel, and hybrid-tiled runs the paper's Phase III
tiled order. Every version computes the same scores — the flag changes
speed, never results.

scan solves every window as an independent problem on the pooled batch
engine (arena-recycled tables; the same scores as a banded scan).
--deadline bounds the wall clock of the whole scan (seconds, fractional,
must be > 0) and --mem-budget caps each problem's F-table (bytes; K/M/G
suffixes). Budget-starved windows degrade to the banded algorithm and
rank with lower-bound scores; timed-out, cancelled, or failed windows
are dropped from the ranking and the run exits 3 with the partial
results plus a failure summary.

--checkpoint-dir DIR journals every completed window to a crash-safe
checkpoint under DIR (write-to-temp + fsync + atomic rename; a kill at
any instant leaves a valid journal). --resume replays that journal —
completed windows are never recomputed and the ranked output is
bit-identical to an uninterrupted run — and refuses checkpoints written
under different scoring options or for a different window set. A corrupt
or truncated checkpoint is a typed error (exit 2), never garbage.

serve runs a resident solve daemon on a Unix socket: one warm batch
engine (hot block-pool arenas) answers every client request, results are
cached in memory and (with --cache-dir) on disk keyed by problem content
x solve options, and requests the server-side --mem-budget or
--max-seconds cannot admit get a typed rejection instead of an OOM.
--cache-mem caps the in-memory cache tier (bytes; K/M/G suffixes) —
over-budget entries are evicted least-recently-used first and spill to
the --cache-dir tier, so warm answers stay bit-identical. --read-timeout
drops connections whose peer stays silent that many seconds mid-message
(fractional; a typed protocol error is sent first, best-effort).
Connections are served concurrently; --max-inflight bounds how many
solves execute at once (default: unbounded) and --queue-depth how many
admitted requests may wait for a slot (default: unbounded). A request
past both bounds is *shed* with a typed overloaded rejection carrying a
retry-after hint — exit 2 at the client — instead of queueing without
limit; --queue-wait caps how long a queued request waits for a slot
(seconds, default 30). The server-side --mem-budget is aggregate: the
predicted F-table bytes of every in-flight solve are summed against it,
so concurrent requests that fit alone but not together queue instead of
overcommitting memory. shutdown starts a graceful drain: new solves are
refused (exit 1), in-flight solves finish (bounded by --drain-timeout
seconds, default 10, then cancelled), the memory cache tier is flushed
to --cache-dir, and the daemon exits 0.
client sends one request: solve prints the score (and whether it was a
cache hit), a rejected solve exits 2 with the reason, a server-side
solve failure exits 1; stats prints the daemon's counters; shutdown
stops it cleanly. --degrade lets an over-budget solve fall back to the
banded lower bound instead of being rejected. --deadline bounds one
solve end to end, queue wait included (seconds, fractional). --retries N
retries a shed or torn solve up to N extra times with capped, jittered
backoff that honours the server's retry-after hint; retrying is safe
because results are content-addressed (a duplicate attempt at worst
lands a warm cache hit). An exhausted retry budget exits 2 with the
typed overloaded error.

verify checks the paper's schedule tables against the BPMax dependence
system: exhaustively at sizes M x N (any size; large sizes warn about
cost), or symbolically for ALL sizes at once with --static. --bounds
instead emits the per-kernel memory-safety certificate: every access of
every compute kernel (and MemMap::addr) proven in-bounds for all sizes
and tile shapes, or a concrete integer witness of the violation. The
flags compose; each failed certificate exits 1.

<seq> arguments are RNA strings (ACGU/T) or paths to FASTA files.";

/// What went wrong, and therefore how the process should exit.
#[derive(Debug)]
pub(crate) enum CliError {
    /// Malformed invocation (wrong arity, unknown command/flag): print
    /// the usage text, exit 2.
    Usage(String),
    /// A domain failure from the library (bad sequence, unknown
    /// algorithm, unreadable FASTA…): usage text, exit 2.
    BpMax(BpMaxError),
    /// `verify` found genuine schedule violations: print the report as
    /// is, exit 1. Not a usage problem.
    Check(String),
    /// A supervised scan completed only partially (deadline, budget, or
    /// per-problem failures). The payload is the full report — partial
    /// ranked results plus a failure summary — printed to *stdout* as is;
    /// exit 3, no usage text.
    Partial(String),
}

impl From<BpMaxError> for CliError {
    fn from(e: BpMaxError) -> Self {
        CliError::BpMax(e)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(msg) | CliError::Check(msg) | CliError::Partial(msg) => {
                f.write_str(msg)
            }
            CliError::BpMax(e) => write!(f, "{e}"),
        }
    }
}

impl CliError {
    /// Process exit status for this error (the bench binaries use the
    /// same convention: 2 = misuse, 1 = real failure; 3 = the batch ran
    /// but only partially).
    pub(crate) fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) | CliError::BpMax(_) => 2,
            CliError::Check(_) => 1,
            CliError::Partial(_) => 3,
        }
    }

    /// Whether the usage text should follow the error message.
    pub(crate) fn show_usage(&self) -> bool {
        !matches!(self, CliError::Check(_) | CliError::Partial(_))
    }

    /// Partial-batch reports are *results* (they go to stdout), not
    /// diagnostics.
    pub(crate) fn partial_report(&self) -> Option<&str> {
        match self {
            CliError::Partial(report) => Some(report),
            _ => None,
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn bad_arg(detail: impl Into<String>) -> CliError {
    CliError::BpMax(BpMaxError::InvalidArgument {
        detail: detail.into(),
    })
}

/// Parse a sequence argument: a FASTA path (first record) or a literal.
fn load_seq(arg: &str) -> Result<RnaSeq, BpMaxError> {
    if Path::new(arg).is_file() {
        let records = rna::fasta::read_file(arg).map_err(|e| BpMaxError::Fasta {
            path: arg.to_string(),
            detail: e.to_string(),
        })?;
        records
            .into_iter()
            .next()
            .map(|r| r.seq)
            .ok_or_else(|| BpMaxError::Fasta {
                path: arg.to_string(),
                detail: "no FASTA records".to_string(),
            })
    } else {
        arg.parse().map_err(|e| BpMaxError::InvalidSequence {
            input: arg.to_string(),
            detail: format!("{e}"),
        })
    }
}

/// Pull `--flag value` out of an argument list (returns remaining args).
fn take_opt(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, CliError> {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        if pos + 1 >= args.len() {
            return Err(usage(format!("{flag} requires a value")));
        }
        let value = args.remove(pos + 1);
        args.remove(pos);
        Ok(Some(value))
    } else {
        Ok(None)
    }
}

/// Parse `flag`'s byte count with an optional binary K/M/G suffix ("64M").
fn parse_bytes(v: &str, flag: &str) -> Result<u64, CliError> {
    let v = v.trim();
    let (digits, shift) = match v.as_bytes().last() {
        Some(b'K' | b'k') => (&v[..v.len() - 1], 10u32),
        Some(b'M' | b'm') => (&v[..v.len() - 1], 20),
        Some(b'G' | b'g') => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_shl(shift).filter(|s| s >> shift == n))
        .ok_or_else(|| bad_arg(format!("bad {flag} {v:?} (bytes, K/M/G suffixes ok)")))
}

/// Pull a boolean `--flag` out of an argument list.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(pos) = args.iter().position(|a| a == flag) {
        args.remove(pos);
        true
    } else {
        false
    }
}

/// Refuse a flag that no earlier `take_*` call consumed, by name, so
/// that the arity check after it does not blame the positional
/// arguments instead.
fn reject_unknown_flags(args: &[String]) -> Result<(), CliError> {
    match args.iter().find(|a| a.starts_with("--")) {
        Some(flag) => Err(usage(format!("unknown flag {flag:?}"))),
        None => Ok(()),
    }
}

/// Entry point: dispatch on the first argument.
pub(crate) fn dispatch(args: &[String]) -> Result<String, CliError> {
    let mut args = args.to_vec();
    if args.is_empty() {
        return Err(usage("no command given"));
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "fold" => cmd_fold(args),
        "interact" => cmd_interact(args),
        "scan" => cmd_scan(args),
        "serve" => cmd_serve(args),
        "client" => cmd_client(args),
        "info" => cmd_info(args),
        "verify" => cmd_verify(args),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(usage(format!("unknown command {other:?}"))),
    }
}

fn model_with_min_loop(args: &mut Vec<String>) -> Result<ScoringModel, CliError> {
    let min_loop = take_opt(args, "--min-loop")?
        .map(|v| v.parse::<usize>().map_err(|_| bad_arg("bad --min-loop")))
        .transpose()?
        .unwrap_or(0);
    Ok(ScoringModel::bpmax_default().with_min_loop(min_loop))
}

fn cmd_fold(mut args: Vec<String>) -> Result<String, CliError> {
    let model = model_with_min_loop(&mut args)?;
    reject_unknown_flags(&args)?;
    let [seq_arg] = args.as_slice() else {
        return Err(usage("fold takes exactly one sequence"));
    };
    let seq = load_seq(seq_arg)?;
    let fold = Nussinov::fold(&seq, &model);
    let st = fold.traceback();
    let mut out = String::new();
    let _ = writeln!(out, "sequence ({} nt): {seq}", seq.len());
    let _ = writeln!(out, "structure:        {}", st.dot_bracket(seq.len()));
    let _ = writeln!(out, "score: {} ({} pairs)", fold.best_score(), st.len());
    Ok(out.trim_end().to_string())
}

fn cmd_interact(mut args: Vec<String>) -> Result<String, CliError> {
    let model = model_with_min_loop(&mut args)?;
    let alg = match take_opt(&mut args, "--alg")? {
        Some(name) => name.parse::<Algorithm>()?,
        None => Algorithm::HybridReg,
    };
    reject_unknown_flags(&args)?;
    let [a1, a2] = args.as_slice() else {
        return Err(usage("interact takes exactly two sequences"));
    };
    let s1 = load_seq(a1)?;
    let s2 = load_seq(a2)?;
    let problem = BpMaxProblem::new(s1.clone(), s2.clone(), model);
    let solution = problem.solve_opts(&bpmax::SolveOptions::new().algorithm(alg))?;
    let st = solution.traceback();
    st.validate(s1.len(), s2.len())
        .map_err(|e| CliError::Check(format!("internal error — invalid traceback: {e}")))?;
    let (l1, l2) = st.render(s1.len(), s2.len());
    let mut out = String::new();
    let _ = writeln!(out, "strand 1 ({} nt): {s1}", s1.len());
    let _ = writeln!(out, "strand 2 ({} nt): {s2}", s2.len());
    let _ = writeln!(out, "algorithm: {}", alg.label());
    let _ = writeln!(out, "interaction score: {}", solution.score());
    let _ = writeln!(out, "\n  {s1}\n  {l1}\n  {l2}\n  {s2}");
    let _ = writeln!(
        out,
        "pairs: {} intra-1, {} intra-2, {} inter",
        st.intra1.len(),
        st.intra2.len(),
        st.inter.len()
    );
    Ok(out.trim_end().to_string())
}

/// Parse `--deadline SECS` / `--max-seconds SECS`-style positive
/// fractional seconds.
fn take_seconds(args: &mut Vec<String>, flag: &str) -> Result<Option<f64>, CliError> {
    take_opt(args, flag)?
        .map(|v| match v.parse::<f64>() {
            Ok(s) if s.is_finite() && s > 0.0 => Ok(s),
            _ => Err(bad_arg(format!("bad {flag} {v:?} (seconds, must be > 0)"))),
        })
        .transpose()
}

/// The `scan` engine flag set, parsed and cross-validated in one place.
struct BatchArgs {
    deadline: Option<Deadline>,
    mem_budget: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    resume: bool,
}

impl BatchArgs {
    fn parse(args: &mut Vec<String>) -> Result<BatchArgs, CliError> {
        // the clock starts here: the deadline bounds the whole scan
        let deadline = take_seconds(args, "--deadline")?
            .map(std::time::Duration::try_from_secs_f64)
            .transpose()
            .map_err(|e| usage(format!("--deadline: {e}")))?
            .map(Deadline::within);
        let mem_budget = take_opt(args, "--mem-budget")?
            .map(|v| parse_bytes(&v, "--mem-budget"))
            .transpose()?;
        let checkpoint_dir = take_opt(args, "--checkpoint-dir")?.map(PathBuf::from);
        let resume = take_flag(args, "--resume");
        if resume && checkpoint_dir.is_none() {
            return Err(usage("--resume requires --checkpoint-dir"));
        }
        Ok(BatchArgs {
            deadline,
            mem_budget,
            checkpoint_dir,
            resume,
        })
    }
}

fn cmd_scan(mut args: Vec<String>) -> Result<String, CliError> {
    let model = model_with_min_loop(&mut args)?;
    let window = take_opt(&mut args, "--window")?
        .map(|v| v.parse::<usize>().map_err(|_| bad_arg("bad --window")))
        .transpose()?;
    let top = take_opt(&mut args, "--top")?
        .map(|v| v.parse::<usize>().map_err(|_| bad_arg("bad --top")))
        .transpose()?
        .unwrap_or(5);
    let batch_args = BatchArgs::parse(&mut args)?;
    reject_unknown_flags(&args)?;
    let [qa, ta] = args.as_slice() else {
        return Err(usage("scan takes a query and a target"));
    };
    let query = load_seq(qa)?;
    let target = load_seq(ta)?;
    if query.is_empty() {
        return Err(BpMaxError::EmptySequence { what: "query" }.into());
    }
    if target.is_empty() {
        return Err(BpMaxError::EmptySequence { what: "target" }.into());
    }
    let w = window.unwrap_or_else(|| (query.len() + 4).min(target.len()));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "query ({} nt) vs target ({} nt), window {w}",
        query.len(),
        target.len()
    );
    let (ranked, note, failures) = scan_batched(&query, &target, &model, w, &batch_args)?;
    let _ = writeln!(out, "{note}");
    write_ranked(&mut out, &ranked, &target, w, top);
    if failures.is_empty() {
        return Ok(out.trim_end().to_string());
    }
    let _ = writeln!(
        out,
        "{} of {} windows did not complete:",
        failures.len(),
        target.len()
    );
    for line in &failures {
        let _ = writeln!(out, "{line}");
    }
    Err(CliError::Partial(out.trim_end().to_string()))
}

/// The ranking section of `scan`'s output: its header and the `top`
/// best of `ranked` `(start, score)` windows, one line each.
fn write_ranked(out: &mut String, ranked: &[(usize, f32)], target: &RnaSeq, w: usize, top: usize) {
    let _ = writeln!(out, "top {} windows:", top.min(ranked.len()));
    for (start, score) in ranked.iter().take(top) {
        let end = (start + w).min(target.len());
        let _ = writeln!(
            out,
            "  [{start:>5}..{end:<5}) score {score:>8.1}  {}",
            target.slice(*start, end)
        );
    }
}

/// Ranked `(start, score)` windows, the engine note, and the failure
/// summary lines from a batched scan.
type BatchedScan = (Vec<(usize, f32)>, String, Vec<String>);

/// How `scan` solves: every window becomes an independent
/// `query × target[s..s+w]` problem on the pooled [`BatchEngine`].
///
/// The scoring model is shift-invariant (positions enter only as
/// `j − i`), so per-window solves produce exactly the banded
/// [`bpmax::windowed::scan_ranked`] scores — the windowed tests pin that
/// equivalence.
/// Windows that timed out, were cancelled, or failed carry no score:
/// they are dropped from the ranking and itemized in the returned
/// failure summary (non-empty summary ⇒ the caller exits 3 with partial
/// results).
fn scan_batched(
    query: &RnaSeq,
    target: &RnaSeq,
    model: &ScoringModel,
    w: usize,
    sup: &BatchArgs,
) -> Result<BatchedScan, CliError> {
    let mut solve = SolveOptions::new();
    if let Some(d) = sup.deadline {
        solve = solve.deadline(d);
    }
    if let Some(b) = sup.mem_budget {
        solve = solve.mem_budget(MemoryBudget::bytes(b));
    }
    let problems: Vec<BpMaxProblem> = (0..target.len())
        .map(|s| {
            let e = (s + w).min(target.len());
            BpMaxProblem::new(query.clone(), target.slice(s, e), model.clone())
        })
        .collect();
    let engine = BatchEngine::new(BatchOptions::new().solve(solve))?;
    let report = match (&sup.checkpoint_dir, sup.resume) {
        (Some(dir), true) => engine.resume(&problems, dir)?,
        (Some(dir), false) => engine.solve_all_checkpointed(&problems, dir)?,
        (None, _) => engine.solve_all(&problems)?,
    };
    let counts = report.outcomes();
    let mut ranked: Vec<(usize, f32)> = report
        .items
        .iter()
        .filter(|i| i.outcome.has_score())
        .map(|i| (i.index, i.score))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let failures: Vec<String> = report
        .items
        .iter()
        .filter(|i| !i.outcome.has_score())
        .map(|i| {
            let end = (i.index + w).min(target.len());
            let why = i
                .error
                .as_ref()
                .map_or_else(String::new, |e| format!(": {e}"));
            format!("  [{:>5}..{end:<5}) {}{why}", i.index, i.outcome)
        })
        .collect();
    let mut note = format!(
        "batch engine: {} windows in {:.3} s on {} thread(s) ({:.0} problems/s, \
         {:.0}% coarse, {} tables allocated / {} reused, {} solved in lanes on {} lane \
         table(s))\noutcomes: {counts}",
        report.len(),
        report.wall_s,
        report.workers,
        report.problems_per_s(),
        100.0 * report.coarse_fraction(),
        report.pool.allocated,
        report.pool.reused,
        report.lane_problems,
        report.lane_tables,
    );
    if let Some(dir) = &sup.checkpoint_dir {
        let _ = write!(
            note,
            "\ncheckpoint: {} of {} windows replayed from {}",
            report.replayed,
            report.len(),
            dir.display()
        );
    }
    Ok((ranked, note, failures))
}

/// `serve`: run the resident solve daemon until a client sends
/// `shutdown`. Blocking by design — the readiness signal for scripts is
/// the socket file appearing (a banner also goes to stderr so stdout
/// stays the result channel).
fn cmd_serve(mut args: Vec<String>) -> Result<String, CliError> {
    let socket = take_opt(&mut args, "--socket")?
        .map(PathBuf::from)
        .ok_or_else(|| usage("serve requires --socket PATH"))?;
    let mem_budget = take_opt(&mut args, "--mem-budget")?
        .map(|v| parse_bytes(&v, "--mem-budget"))
        .transpose()?;
    let max_predicted_s = take_seconds(&mut args, "--max-seconds")?;
    let cache_dir = take_opt(&mut args, "--cache-dir")?.map(PathBuf::from);
    let cache_mem_budget = take_opt(&mut args, "--cache-mem")?
        .map(|v| parse_bytes(&v, "--cache-mem"))
        .transpose()?;
    let read_timeout = take_seconds(&mut args, "--read-timeout")?
        .map(std::time::Duration::try_from_secs_f64)
        .transpose()
        .map_err(|e| usage(format!("--read-timeout: {e}")))?;
    let max_inflight = take_opt(&mut args, "--max-inflight")?
        .map(|v| match v.parse::<u64>() {
            Ok(n) if n >= 1 => Ok(n),
            _ => Err(bad_arg(format!(
                "bad --max-inflight {v:?} (count, must be >= 1)"
            ))),
        })
        .transpose()?;
    let queue_depth = take_opt(&mut args, "--queue-depth")?
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| bad_arg(format!("bad --queue-depth {v:?} (count, 0 disables)")))
        })
        .transpose()?;
    let queue_wait = take_seconds(&mut args, "--queue-wait")?
        .map(std::time::Duration::try_from_secs_f64)
        .transpose()
        .map_err(|e| usage(format!("--queue-wait: {e}")))?;
    let drain_timeout = take_seconds(&mut args, "--drain-timeout")?
        .map(std::time::Duration::try_from_secs_f64)
        .transpose()
        .map_err(|e| usage(format!("--drain-timeout: {e}")))?;
    if !args.is_empty() {
        return Err(usage(format!("serve: unexpected arguments {args:?}")));
    }
    let server = Server::new(ServerConfig {
        socket: socket.clone(),
        mem_budget,
        max_predicted_s,
        cache_dir,
        cache_mem_budget,
        read_timeout,
        max_inflight,
        queue_depth,
        queue_wait,
        drain_timeout,
    })?;
    eprintln!("bpmax-serve: listening on {}", socket.display());
    server.run()?;
    let stats = server.stats();
    Ok(format!(
        "bpmax-serve on {} shut down cleanly: {} requests, {} solves, \
         {} cache hits, {} rejected, {} shed, {} drained, {} evicted, \
         {} timed out, {} handler panics",
        socket.display(),
        stats.requests,
        stats.solves,
        stats.cache_hits,
        stats.rejects,
        stats.shed,
        stats.drained,
        stats.evictions,
        stats.timeouts,
        stats.panicked
    ))
}

/// `client`: one request against a running daemon. All argument
/// validation happens before connecting, so misuse exits 2 without a
/// live server.
fn cmd_client(mut args: Vec<String>) -> Result<String, CliError> {
    let socket = take_opt(&mut args, "--socket")?
        .map(PathBuf::from)
        .ok_or_else(|| usage("client requires --socket PATH"))?;
    if args.is_empty() {
        return Err(usage("client needs an action: solve | stats | shutdown"));
    }
    let action = args.remove(0);
    match action.as_str() {
        "solve" => {
            let model = model_with_min_loop(&mut args)?;
            let alg = take_opt(&mut args, "--alg")?
                .map(|name| name.parse::<Algorithm>())
                .transpose()?;
            let mem_budget = take_opt(&mut args, "--mem-budget")?
                .map(|v| parse_bytes(&v, "--mem-budget"))
                .transpose()?;
            let degrade = take_flag(&mut args, "--degrade");
            let deadline = take_seconds(&mut args, "--deadline")?
                .map(std::time::Duration::try_from_secs_f64)
                .transpose()
                .map_err(|e| usage(format!("--deadline: {e}")))?;
            let retries = take_opt(&mut args, "--retries")?
                .map(|v| {
                    v.parse::<u32>()
                        .map_err(|_| bad_arg(format!("bad --retries {v:?} (count)")))
                })
                .transpose()?;
            reject_unknown_flags(&args)?;
            let [a1, a2] = args.as_slice() else {
                return Err(usage("client solve takes exactly two sequences"));
            };
            let s1 = load_seq(a1)?;
            let s2 = load_seq(a2)?;
            let mut req = SolveRequest::new(s1, s2, model)
                .algorithm(alg.unwrap_or_default())
                .degrade(degrade);
            if let Some(bytes) = mem_budget {
                req = req.mem_budget(bytes);
            }
            if let Some(d) = deadline {
                req = req.deadline(d);
            }
            let response = match retries {
                Some(n) if n > 0 => Client::solve_with_retry(
                    &socket,
                    &req,
                    RetryPolicy {
                        attempts: n + 1,
                        ..RetryPolicy::default()
                    },
                )?,
                _ => Client::connect(&socket)?.solve(&req)?,
            };
            match response {
                Response::Solved {
                    score,
                    outcome,
                    seconds,
                    cache_hit,
                } => Ok(format!(
                    "score: {score}\noutcome: {}{}\nserver seconds: {seconds:.6}",
                    outcome.as_str(),
                    if cache_hit { " (cache hit)" } else { "" }
                )),
                Response::Rejected(reason) => Err(bad_arg(format!("request rejected: {reason}"))),
                Response::Error { detail } => {
                    Err(CliError::Check(format!("server error: {detail}")))
                }
                other => Err(BpMaxError::Protocol {
                    detail: format!("unexpected reply to solve: {other:?}"),
                }
                .into()),
            }
        }
        "stats" => {
            if !args.is_empty() {
                return Err(usage(format!(
                    "client stats takes no arguments, got {args:?}"
                )));
            }
            let stats = Client::connect(&socket)?.stats()?;
            Ok(format!(
                "requests: {}\ncache hits: {}\nsolves: {}\nrejected: {}\n\
                 cache evictions: {}\nread timeouts: {}\nin flight: {}\n\
                 shed (overload): {}\ndrained: {}\nhandler panics: {}\n\
                 pool tables: {} allocated, {} reused, {} recycled, {} quarantined",
                stats.requests,
                stats.cache_hits,
                stats.solves,
                stats.rejects,
                stats.evictions,
                stats.timeouts,
                stats.inflight,
                stats.shed,
                stats.drained,
                stats.panicked,
                stats.pool.allocated,
                stats.pool.reused,
                stats.pool.recycled,
                stats.pool.quarantined
            ))
        }
        "shutdown" => {
            if !args.is_empty() {
                return Err(usage(format!(
                    "client shutdown takes no arguments, got {args:?}"
                )));
            }
            Client::connect(&socket)?.shutdown()?;
            Ok("server acknowledged shutdown".to_string())
        }
        other => Err(usage(format!(
            "unknown client action {other:?} (expected solve | stats | shutdown)"
        ))),
    }
}

fn cmd_info(args: Vec<String>) -> Result<String, CliError> {
    use machine::roofline::{Roofline, MAXPLUS_STREAM_AI};
    use machine::spec::MachineSpec;
    use machine::traffic;
    let m: usize = args
        .first()
        .map(|v| v.parse().map_err(|_| bad_arg("bad M")))
        .transpose()?
        .unwrap_or(16);
    let n: usize = args
        .get(1)
        .map(|v| v.parse().map_err(|_| bad_arg("bad N")))
        .transpose()?
        .unwrap_or(512);
    let spec = MachineSpec::xeon_e5_1650v4();
    let roof = Roofline::new(spec.clone(), spec.cores);
    let mut out = String::new();
    let _ = writeln!(out, "problem M = {m}, N = {n}:");
    let _ = writeln!(
        out,
        "  table (packed):  {:>10.2} MiB",
        traffic::ftable_bytes(m, n) as f64 / (1 << 20) as f64
    );
    let _ = writeln!(
        out,
        "  reduction work:  {:>10.3} GFLOP (R0 share {:.1}%)",
        traffic::bpmax_flops(m, n) as f64 / 1e9,
        100.0 * traffic::r0_fraction(m, n)
    );
    let _ = writeln!(
        out,
        "  reference machine ({}): peak {:.0} GFLOPS, L1 roof {:.0} GFLOPS at AI=1/6",
        spec.name,
        roof.peak(),
        roof.attainable("L1", MAXPLUS_STREAM_AI)
    );
    let _ = writeln!(
        out,
        "  estimated time at the paper's 76 GFLOPS: {:.2} s",
        traffic::bpmax_flops(m, n) as f64 / 76e9
    );
    Ok(out.trim_end().to_string())
}

/// Verify the paper's schedule tables against the `BPMax` dependence system:
/// exhaustively at one size, or symbolically for all sizes with
/// `--static` — `AlphaZ`'s missing safety net, as a CLI command.
fn cmd_verify(args: Vec<String>) -> Result<String, CliError> {
    use bpmax::schedules;
    use polyhedral::affine::env;
    let mut args = args;
    let static_mode = take_flag(&mut args, "--static");
    let bounds_mode = take_flag(&mut args, "--bounds");
    if bounds_mode && !args.is_empty() {
        return Err(usage(
            "--bounds takes no sizes: it certifies all sizes and tiles at once",
        ));
    }
    let sets = [
        ("base (original order)", schedules::base_schedule()),
        ("fine-grain (Table II)", schedules::fine_grain()),
        ("coarse-grain (Table III)", schedules::coarse_grain()),
        ("hybrid (Table IV)", schedules::hybrid()),
        ("hybrid+tiled (Table V)", schedules::hybrid_tiled(2, 2)),
    ];
    let mut bounds_out = String::new();
    let mut bounds_ok = true;
    if bounds_mode {
        use polyhedral::bounds::AccessVerdict;
        for cert in bpmax::bounds::certify_kernels() {
            let undecided = cert
                .accesses
                .iter()
                .any(|a| matches!(a.verdict, AccessVerdict::Unknown { .. }));
            let verdict = if cert.is_in_bounds() {
                "IN-BOUNDS (all sizes)"
            } else if undecided && cert.violations().next().is_none() {
                bounds_ok = false;
                "UNDECIDED"
            } else {
                bounds_ok = false;
                "OUT-OF-BOUNDS"
            };
            let _ = writeln!(
                bounds_out,
                "{:<28} {:>4} cases  {verdict}",
                cert.kernel,
                cert.cases_checked()
            );
            for w in cert.violations() {
                let _ = writeln!(bounds_out, "    {w}");
            }
        }
        let _ = writeln!(
            bounds_out,
            "
{}",
            if bounds_ok {
                "all kernel accesses certified in-bounds for every size and tile"
            } else {
                "KERNEL BOUNDS NOT CERTIFIED"
            }
        );
        if !static_mode {
            if !bounds_ok {
                return Err(CliError::Check(bounds_out));
            }
            return Ok(bounds_out.trim_end().to_string());
        }
        let _ = writeln!(bounds_out);
    }
    if static_mode {
        if !args.is_empty() {
            return Err(usage(
                "--static takes no sizes: it certifies all M, N at once",
            ));
        }
        let mut out = bounds_out;
        let mut all_ok = bounds_ok;
        for (name, sys) in &sets {
            let report = sys.verify_static();
            let verdict = if report.is_legal() {
                "LEGAL (all sizes)".to_string()
            } else if report.violations().next().is_some() {
                all_ok = false;
                "ILLEGAL".to_string()
            } else {
                all_ok = false;
                "UNDECIDED".to_string()
            };
            let _ = writeln!(
                out,
                "{name:<28} {:>4} cases  {verdict}",
                report.cases_checked()
            );
            for w in report.violations() {
                let _ = writeln!(out, "    {w}");
            }
            for d in report.unknowns() {
                let _ = writeln!(out, "    undecided: {}", d.dep);
            }
        }
        let _ = writeln!(
            out,
            "
{}",
            if all_ok {
                "all schedules certified legal for every M, N"
            } else {
                "NOT CERTIFIED"
            }
        );
        if !all_ok {
            return Err(CliError::Check(out));
        }
        return Ok(out.trim_end().to_string());
    }
    let m: i64 = args
        .first()
        .map(|v| v.parse().map_err(|_| bad_arg("bad M")))
        .transpose()?
        .unwrap_or(4);
    let n: i64 = args
        .get(1)
        .map(|v| v.parse().map_err(|_| bad_arg("bad N")))
        .transpose()?
        .unwrap_or(4);
    if m < 1 || n < 1 {
        return Err(bad_arg("verification sizes must be >= 1"));
    }
    let params = env(&[("M", m), ("N", n)]);
    let mut out = String::new();
    if m.max(n) > 6 {
        let _ = writeln!(
            out,
            "note: exhaustive checking enumerates ~O((M+N)^6) dependence \
             instances; sizes above 6 may take a while (use --static for a \
             symbolic all-sizes certificate)"
        );
    }
    let mut all_ok = true;
    for (name, sys) in &sets {
        let instances = sys.dependence_instances(&params, m.max(n));
        let viol = sys.verify(&params, m.max(n), 3);
        let ok = viol.is_empty();
        all_ok &= ok;
        let _ = writeln!(
            out,
            "{name:<28} {instances:>7} instances  {}",
            if ok { "LEGAL" } else { "ILLEGAL" }
        );
        for v in viol {
            let _ = writeln!(out, "    {v}");
        }
    }
    let _ = writeln!(
        out,
        "
{} at M={m}, N={n}",
        if all_ok {
            "all schedules legal"
        } else {
            "VIOLATIONS FOUND"
        }
    );
    if !all_ok {
        return Err(CliError::Check(out));
    }
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpmax::windowed::scan_ranked;

    fn run(argv: &[&str]) -> Result<String, CliError> {
        dispatch(&argv.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn fold_hairpin() {
        let out = run(&["fold", "GGGAAACCC"]).unwrap();
        assert!(out.contains("score: 9"));
        assert!(out.contains("((("));
    }

    #[test]
    fn fold_with_min_loop() {
        let out = run(&["fold", "GC", "--min-loop", "3"]).unwrap();
        assert!(out.contains("score: 0"));
    }

    #[test]
    fn interact_duplex() {
        let out = run(&["interact", "GGG", "CCC"]).unwrap();
        assert!(out.contains("interaction score: 9"));
        assert!(out.contains("3 inter"));
    }

    #[test]
    fn interact_algorithm_selection() {
        for alg in ["base", "permuted", "coarse", "hybrid-tiled", "hybrid-reg"] {
            let out = run(&["interact", "GGGAAACCC", "UUU", "--alg", alg]).unwrap();
            assert!(out.contains("interaction score: 15"), "{alg}: {out}");
        }
    }

    #[test]
    fn interact_defaults_to_hybrid_reg() {
        // the default version and the paper's tiled one render the same
        // solve apart from the algorithm line
        let default = run(&["interact", "GGGAAACCC", "UUUGG"]).unwrap();
        let tiled = run(&["interact", "GGGAAACCC", "UUUGG", "--alg", "hybrid-tiled"]).unwrap();
        assert!(default.contains("algorithm: hybrid+reg"), "{default}");
        assert_eq!(
            default.replace("hybrid+reg", "hybrid+tiled"),
            tiled,
            "{default}\nvs\n{tiled}"
        );
    }

    #[test]
    fn scan_finds_planted_site() {
        let out = run(&[
            "scan",
            "GGGGG",
            "AAAAAAAAAACCCCCAAAAAAAAAA",
            "--window",
            "5",
            "--top",
            "3",
        ])
        .unwrap();
        assert!(out.contains("CCCCC"), "{out}");
    }

    #[test]
    fn scan_batch_matches_banded_scan() {
        let (query, target) = ("GGCAU", "AUGCCAAAAUGGCAUAAACCGGU");
        let batched = run(&["scan", query, target, "--window", "6", "--top", "4"]).unwrap();
        let target: RnaSeq = target.parse().unwrap();
        let ctx = bpmax::kernels::Ctx::new(
            query.parse().unwrap(),
            target.clone(),
            ScoringModel::bpmax_default().with_min_loop(0),
        );
        let mut banded = String::new();
        write_ranked(&mut banded, &scan_ranked(&ctx, 6), &target, 6, 4);
        assert!(batched.contains("batch engine:"), "{batched}");
        // Same ranked windows line-for-line below the header.
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("top "))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(tail(&banded), tail(&batched), "{banded}\nvs\n{batched}");
    }

    #[test]
    fn scan_bad_supervision_values_are_misuse() {
        for argv in [
            ["scan", "GGG", "CCC", "--deadline", "-1"],
            ["scan", "GGG", "CCC", "--deadline", "0"],
            ["scan", "GGG", "CCC", "--deadline", "soon"],
            ["scan", "GGG", "CCC", "--mem-budget", "lots"],
            ["scan", "GGG", "CCC", "--mem-budget", "-1"],
            [
                "scan",
                "GGG",
                "CCC",
                "--mem-budget",
                "99999999999999999999G",
            ],
        ] {
            let err = run(&argv).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{argv:?}: {err:?}");
            assert!(err.show_usage(), "{argv:?}");
        }
    }

    #[test]
    fn scan_generous_supervision_changes_nothing() {
        let out = run(&[
            "scan",
            "GGGGG",
            "AAAAAAAAAACCCCCAAAAAAAAAA",
            "--window",
            "5",
            "--deadline",
            "60",
            "--mem-budget",
            "1G",
        ])
        .unwrap();
        assert!(out.contains("outcomes: ok"), "{out}");
        assert!(out.contains("CCCCC"), "{out}");
    }

    #[test]
    fn scan_tiny_deadline_returns_partial_results() {
        let err = run(&[
            "scan",
            "GGG",
            "CCCAAACCC",
            "--window",
            "3",
            "--deadline",
            "0.000000001",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(!err.show_usage());
        let report = err.partial_report().expect("partial report");
        assert!(report.contains("timed-out"), "{report}");
        assert!(report.contains("did not complete"), "{report}");
        assert!(report.contains("deadline exceeded"), "{report}");
    }

    #[test]
    fn scan_hopeless_budget_is_partial() {
        let err = run(&["scan", "GGGGG", "CCCCCCCC", "--mem-budget", "1"]).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err:?}");
        let report = err.partial_report().expect("partial report");
        assert!(report.contains("failed"), "{report}");
        assert!(report.contains("memory budget is 1 bytes"), "{report}");
    }

    #[test]
    fn scan_budget_degrades_but_still_ranks() {
        // 3 KiB admits banded tables for the wide leading windows and
        // full tables for the short trailing ones: a mixed ok/degraded
        // wave that still exits 0 with a complete ranking.
        let out = run(&[
            "scan",
            "GGGGGGGGGG",
            "CCCCCCCCCCCCCCC",
            "--window",
            "10",
            "--mem-budget",
            "3K",
        ])
        .unwrap();
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("top "), "{out}");
    }

    #[test]
    fn scan_checkpoint_flags_require_batch_and_each_other() {
        let err = run(&["scan", "GGG", "CCC", "--resume"]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err:?}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn scan_checkpointed_then_resumed_is_bit_identical() {
        let dir = std::env::temp_dir().join(format!("bpmax_cli_ckpt_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = [
            "scan",
            "GGCAU",
            "AUGCCAAAAUGGCAUAAACCGGU",
            "--window",
            "6",
            "--checkpoint-dir",
        ];
        let mut argv: Vec<&str> = base.to_vec();
        let dir_s = dir.to_str().unwrap().to_string();
        argv.push(&dir_s);
        let first = run(&argv).unwrap();
        assert!(
            first.contains("checkpoint: 0 of 23 windows replayed"),
            "{first}"
        );
        assert!(dir.join("journal.bin").is_file());
        argv.push("--resume");
        let second = run(&argv).unwrap();
        assert!(
            second.contains("checkpoint: 23 of 23 windows replayed"),
            "{second}"
        );
        // the ranked results below the engine note are bit-identical
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("top "))
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert_eq!(tail(&first), tail(&second), "{first}\nvs\n{second}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One table of misuse invocations across `scan`, `serve`, and
    /// `client`: every row must exit 2 with the usage text. New scan or
    /// serve/client flags get a row here, not a bespoke test.
    #[test]
    fn flag_misuse_table_exits_2() {
        let cases: &[&[&str]] = &[
            // retired scan flags, refused by name
            &["scan", "GGG", "CCC", "--batch"],
            &["scan", "GGG", "CCC", "--batch", "--deadline", "1"],
            &["scan", "GGG", "CCC", "--workers", "2"],
            // pair-wise constraints
            &["scan", "GGG", "CCC", "--resume"],
            &[
                "scan",
                "GGG",
                "CCC",
                "--workers",
                "2",
                "--checkpoint-dir",
                "/tmp/x",
                "--resume",
            ],
            // bad values (the scan flag set parses them centrally)
            &["scan", "GGG", "CCC", "--deadline", "0"],
            &["scan", "GGG", "CCC", "--deadline", "1e20"],
            &["scan", "GGG", "CCC", "--mem-budget", "lots"],
            &["scan", "GGG", "CCC", "--workers", "0"],
            &["scan", "GGG", "CCC", "--workers", "many"],
            // serve misuse (validated before binding anything)
            &["serve"],
            &["serve", "--socket"],
            &["serve", "--socket", "/tmp/s.sock", "--max-seconds", "0"],
            &["serve", "--socket", "/tmp/s.sock", "--max-seconds", "soon"],
            &["serve", "--socket", "/tmp/s.sock", "--mem-budget", "lots"],
            &["serve", "--socket", "/tmp/s.sock", "--cache-mem", "lots"],
            &["serve", "--socket", "/tmp/s.sock", "--max-inflight", "0"],
            &["serve", "--socket", "/tmp/s.sock", "--max-inflight", "lots"],
            &["serve", "--socket", "/tmp/s.sock", "--queue-depth", "-1"],
            &["serve", "--socket", "/tmp/s.sock", "--queue-depth", "deep"],
            &["serve", "--socket", "/tmp/s.sock", "--queue-wait", "0"],
            &["serve", "--socket", "/tmp/s.sock", "--drain-timeout", "-2"],
            &["serve", "--socket", "/tmp/s.sock", "stray"],
            // client misuse (validated before connecting)
            &["client"],
            &["client", "--socket", "/tmp/s.sock"],
            &["client", "--socket", "/tmp/s.sock", "frobnicate"],
            &["client", "--socket", "/tmp/s.sock", "solve", "GGG"],
            &[
                "client",
                "--socket",
                "/tmp/s.sock",
                "solve",
                "GGG",
                "CCC",
                "--alg",
                "warp",
            ],
            &[
                "client",
                "--socket",
                "/tmp/s.sock",
                "solve",
                "GGG",
                "CCC",
                "--mem-budget",
                "lots",
            ],
            &[
                "client",
                "--socket",
                "/tmp/s.sock",
                "solve",
                "GGG",
                "CCC",
                "--deadline",
                "0",
            ],
            &[
                "client",
                "--socket",
                "/tmp/s.sock",
                "solve",
                "GGG",
                "CCC",
                "--retries",
                "some",
            ],
            &["client", "--socket", "/tmp/s.sock", "stats", "extra"],
            &["client", "--socket", "/tmp/s.sock", "shutdown", "now"],
        ];
        for argv in cases {
            let err = run(argv).unwrap_err();
            assert_eq!(err.exit_code(), 2, "{argv:?}: {err:?}");
            assert!(err.show_usage(), "{argv:?}");
        }
        // a flag no command takes is refused by name, not by arity, and
        // a bad value names its own flag
        for (argv, flag) in [
            (&["scan", "GGG", "CCC", "--workers", "2"][..], "--workers"),
            (&["scan", "GGG", "CCC", "--batch"], "--batch"),
            (&["scan", "GGG", "CCC", "--deadline", "1e20"], "--deadline"),
            (
                &["serve", "--socket", "/tmp/s.sock", "--cache-mem", "lots"],
                "--cache-mem",
            ),
        ] {
            let err = run(argv).unwrap_err();
            assert!(err.to_string().contains(flag), "{argv:?}: {err}");
        }
    }

    #[test]
    fn client_against_missing_socket_is_a_domain_error() {
        let err = run(&[
            "client",
            "--socket",
            "/tmp/bpmax-no-such-daemon.sock",
            "stats",
        ])
        .unwrap_err();
        assert_eq!(err.exit_code(), 2, "{err:?}");
        assert!(err.to_string().contains("connecting to"), "{err}");
    }

    #[test]
    fn info_reports_sizes() {
        let out = run(&["info", "16", "2048"]).unwrap();
        assert!(out.contains("M = 16, N = 2048"));
        assert!(out.contains("GFLOP"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&[]).is_err());
        assert!(run(&["frobnicate"]).is_err());
        assert!(run(&["fold"]).is_err());
        assert!(run(&["fold", "XYZ"]).is_err());
        assert!(run(&["interact", "GG"]).is_err());
        assert!(run(&["interact", "GG", "CC", "--alg", "warp"]).is_err());
        assert!(run(&["fold", "GC", "--min-loop"]).is_err());
    }

    #[test]
    fn errors_carry_their_exit_codes() {
        let err = run(&["frobnicate"]).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.show_usage());
        let err = run(&["interact", "GG", "CC", "--alg", "warp"]).unwrap_err();
        assert!(
            matches!(
                &err,
                CliError::BpMax(BpMaxError::UnknownAlgorithm { name }) if name == "warp"
            ),
            "{err:?}"
        );
        assert_eq!(err.exit_code(), 2);
        let err = run(&["fold", "XYZ"]).unwrap_err();
        assert!(
            matches!(&err, CliError::BpMax(BpMaxError::InvalidSequence { .. })),
            "{err:?}"
        );
        let err = run(&["scan", "", "CCC"]).unwrap_err();
        assert!(
            matches!(
                &err,
                CliError::BpMax(BpMaxError::EmptySequence { what: "query" })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn verify_reports_all_legal() {
        let out = run(&["verify", "3", "4"]).unwrap();
        assert!(out.contains("all schedules legal"));
        assert_eq!(out.matches("LEGAL").count(), 5); // one per schedule set
        assert!(run(&["verify", "0", "4"]).is_err());
        assert!(run(&["verify", "3", "4", "--static"]).is_err()); // sizes + --static
    }

    #[test]
    fn verify_large_sizes_warn_but_run() {
        let out = run(&["verify", "7", "2"]).unwrap();
        assert!(out.contains("may take a while"), "{out}");
        assert!(out.contains("all schedules legal"), "{out}");
    }

    #[test]
    fn verify_static_certifies_all_sizes() {
        let out = run(&["verify", "--static"]).unwrap();
        assert!(out.contains("certified legal for every M, N"), "{out}");
        assert_eq!(out.matches("LEGAL (all sizes)").count(), 5, "{out}");
    }

    #[test]
    fn verify_bounds_certifies_kernels() {
        let out = run(&["verify", "--bounds"]).unwrap();
        assert!(out.contains("certified in-bounds"), "{out}");
        assert!(out.contains("r0_instance_permuted"), "{out}");
        assert!(out.contains("memmap_addr"), "{out}");
        assert!(run(&["verify", "3", "4", "--bounds"]).is_err()); // sizes + --bounds
    }

    #[test]
    fn verify_bounds_composes_with_static() {
        let out = run(&["verify", "--bounds", "--static"]).unwrap();
        assert!(out.contains("certified in-bounds"), "{out}");
        assert!(out.contains("certified legal for every M, N"), "{out}");
    }

    #[test]
    fn help_shows_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("bpmax-cli interact"));
        assert!(out.contains("--checkpoint-dir"));
    }

    /// A per-process temp directory, removed when the test ends.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn fasta_files_accepted() {
        let dir =
            TempDir(std::env::temp_dir().join(format!("bpmax_cli_test_{}", std::process::id())));
        std::fs::create_dir_all(&dir.0).unwrap();
        let p1 = dir.0.join("a.fa");
        std::fs::write(&p1, ">x\nGGGAAACCC\n").unwrap();
        let out = run(&["fold", p1.to_str().unwrap()]).unwrap();
        assert!(out.contains("score: 9"));
    }
}
