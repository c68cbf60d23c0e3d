//! One seeded benchmark of the marconi serving stack.
//!
//! ```text
//! perfbench --workload <agentic|pressure|cluster> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run repeats *rounds* — generate the seeded trace, build the
//! driver, warm up for a fixed number of passes, then replay a fixed
//! measured region — until `--seconds` have passed. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` interleaves untraced rounds with rounds
//! whose layer calls are timed, adds the bare radix-tree arm and reports
//! the per-layer metrics. Human-readable lines go first; the last line of
//! standard output is one JSON object. See `README.md` in this directory.

mod radix_arm;
mod stats;
mod timed;
mod workload;

use crate::timed::{Breakdown, Kind, SpanLog};
use crate::workload::{ratio, round, Region, Round, Workload};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str =
    "usage: perfbench --workload <agentic|pressure|cluster> --seed <n> --seconds <s> --trace <0|1>";
/// Traces one untraced run cycles through, derived from its seed. Trace
/// size drives memory, throughput and hit rate, so every metric averages
/// over several draws of the workload instead of resting on one.
const SUB_SEEDS: u64 = 16;
/// Fewest rounds of an untraced run: one per sub-seed.
const MIN_ROUNDS: usize = SUB_SEEDS as usize;
/// Fewest rounds of each kind in a traced run.
const MIN_TRACED_ROUNDS: usize = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                if !(1..=3600).contains(&s) {
                    return Err(bad("expected 1 to 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    /// Extra context for the human-readable line (sample counts, ...).
    note: String,
}

fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_owned(),
        unit,
        value,
        note: String::new(),
    }
}

struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args)
    };
    print_report(&args, &report);
    ExitCode::SUCCESS
}

/// Trace seed of sub-seed `i` of run seed `seed`; distinct run seeds
/// never share a trace.
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(SUB_SEEDS).wrapping_add(i)
}

/// Requests attempted and failed over `rounds`. Besides each round's own
/// output checks, a round fails whole when its deterministic outputs
/// differ from those of the first round on the same trace: the same seed
/// must reproduce them bit for bit, traced or not.
fn tally<'a>(rounds: impl IntoIterator<Item = &'a Round>) -> (u64, u64) {
    let mut first = BTreeMap::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in rounds {
        attempted += r.region.requests;
        failed += r.region.failed;
        let want = *first.entry(r.seed).or_insert(r.region.fingerprint());
        if r.region.fingerprint() != want {
            failed += r.region.requests;
        }
    }
    (attempted, failed)
}

/// Median over traces of the median over each trace's rounds, so every
/// trace weighs the same however many rounds it got.
fn per_trace_median(rounds: &[Round], f: fn(&Round) -> f64) -> f64 {
    let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in rounds {
        by_seed.entry(r.seed).or_default().push(f(r));
    }
    let medians: Vec<f64> = by_seed.values().map(|v| stats::median(v)).collect();
    stats::median(&medians)
}

fn untraced_run(args: &Args) -> Report {
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut rounds = Vec::new();
    while rounds.len() < MIN_ROUNDS || started.elapsed() < budget {
        let seed = sub_seed(args.seed, rounds.len() as u64 % SUB_SEEDS);
        rounds.push(round(args.workload, seed, None, true));
    }
    let (attempted, failed) = tally(&rounds);
    let median_of = |f: fn(&Round) -> f64| per_trace_median(&rounds, f);
    // The deterministic metrics pool the first round of every sub-seed.
    let mut region = Region::default();
    for r in &rounds[..SUB_SEEDS as usize] {
        region.pool(&r.region);
    }
    let region = &region;
    let mut ttft = region.ttft_ms.clone();
    ttft.sort_by(f64::total_cmp);
    let tail = stats::tail(&ttft, 99);
    let mut p99 = metric("sim_ttft_p99_ms", "ms", tail.map_or(0.0, |t| t.value));
    p99.note = tail.map_or("too few samples".into(), |t| {
        format!("p{} of {} requests, {} beyond", t.pct, t.n, t.beyond)
    });
    let mut rps = metric("rps", "req/s", median_of(|r| r.region.rps()));
    rps.note = format!("{} rounds over {SUB_SEEDS} traces", rounds.len());
    let mut setup = metric("setup_s", "s", median_of(|r| r.setup_s));
    setup.note = format!("{} rounds over {SUB_SEEDS} traces", rounds.len());
    let metrics = vec![
        rps,
        setup,
        metric("peak_rss_mb", "MB", median_of(|r| r.peak_rss_mb)),
        metric("token_hit_rate", "fraction", region.token_hit_rate()),
        metric("flops_saved_frac", "fraction", region.flops_saved_frac()),
        metric(
            "sim_ttft_p50_ms",
            "ms",
            stats::percentile(&ttft, 50).unwrap_or(0.0),
        ),
        p99,
    ];
    Report {
        attempted,
        failed,
        metrics,
        notes: vec![format!(
            "fail_frac {} ({failed} of {attempted} requests); trace seeds {}..{}",
            ratio(failed as f64, attempted as f64),
            sub_seed(args.seed, 0),
            sub_seed(args.seed, SUB_SEEDS),
        )],
    }
}

fn traced_run(args: &Args) -> Report {
    let w = args.workload;
    let started = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let log = SpanLog::shared();
    // Untraced, traced and (on `cluster`) traced-without-recorder rounds
    // take turns, so slow drift of the machine hits every arm alike.
    let arms = if w == Workload::Cluster { 3 } else { 2 };
    let mut rounds: [Vec<Round>; 3] = Default::default();
    let mut turn = 0;
    while rounds[..arms].iter().any(|r| r.len() < MIN_TRACED_ROUNDS) || started.elapsed() < budget {
        let arm = turn % arms;
        let log = (arm > 0).then_some(&log);
        rounds[arm].push(round(w, sub_seed(args.seed, 0), log, arm < 2));
        turn += 1;
    }
    let [plain, traced, unrecorded] = &rounds;
    // Traced rounds must reproduce the untraced outputs exactly.
    let (attempted, failed) = tally(rounds.iter().flatten());

    let spans_path = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let spans_file = format!("{spans_path}/{}.spans.tsv", w.name());
    let mut notes = Vec::new();
    match std::fs::create_dir_all(spans_path)
        .and_then(|()| std::fs::write(&spans_file, timed::to_tsv(&traced[0].spans)))
    {
        Ok(()) => notes.push(format!("spans of the first traced round: {spans_file}")),
        Err(e) => eprintln!("perfbench: could not write {spans_file}: {e}"),
    }

    let spans: Vec<_> = traced
        .iter()
        .flat_map(|r| r.spans.iter().copied())
        .collect();
    let bd = Breakdown::of(&spans);
    let pass_ns = bd.pass_ns.max(1) as f64;
    let mut m = Vec::new();
    for (kind, layer) in Kind::CHILDREN.iter().zip(&bd.layers) {
        let prefix = kind.label();
        m.push(metric(
            &format!("{prefix}.calls"),
            "count",
            layer.calls as f64,
        ));
        m.push(metric(
            &format!("{prefix}.frac"),
            "fraction",
            layer.total_ns as f64 / pass_ns,
        ));
        m.push(metric(&format!("{prefix}.p50_us"), "us", layer.p50_us));
        let mut p99 = metric(
            &format!("{prefix}.p99_us"),
            "us",
            layer.tail.map_or(0.0, |t| t.value),
        );
        p99.note = layer.tail.map_or("too few samples".into(), |t| {
            format!("p{} of {} calls, {} beyond", t.pct, t.n, t.beyond)
        });
        m.push(p99);
        m.push(metric(
            &format!("{prefix}.tail_pct"),
            "percentile",
            layer.tail.map_or(0.0, |t| f64::from(t.pct)),
        ));
    }
    let region = &traced[0].region;
    let lookups = bd.layers[0].calls as f64;
    let hinted: u64 = traced.iter().map(|r| r.hinted_lookups).sum();
    let grid: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.grid_s.iter().copied())
        .collect();
    let st = &region.stats;
    let requests = region.requests as f64;
    let mut queue = region.queue_ms.clone();
    queue.sort_by(f64::total_cmp);
    let median_rps = |rounds: &[Round]| {
        stats::median(&rounds.iter().map(|r| r.region.rps()).collect::<Vec<_>>())
    };
    let events: u64 = traced.iter().map(|r| r.region.events).sum();
    let traced_reqs: u64 = traced.iter().map(|r| r.region.requests).sum();
    let gen: Vec<f64> = rounds.iter().flatten().map(|r| r.gen_s).collect();

    m.extend([
        metric(
            "core.lookup.hinted_frac",
            "fraction",
            ratio(hinted as f64, lookups),
        ),
        metric(
            "core.lookup.hit_frac",
            "fraction",
            ratio(region.hit_lookups as f64, requests),
        ),
        metric(
            "core.lookup.ckpt_loss_frac",
            "fraction",
            1.0 - ratio(region.hit_tokens as f64, region.raw_matched as f64),
        ),
        metric(
            "core.evict.victims_per_insert",
            "count",
            ratio((st.evictions + st.demotions) as f64, st.insertions as f64),
        ),
        metric("core.tuner.grid_s", "s", stats::median(&grid)),
        metric(
            "core.tier.host_hit_frac",
            "fraction",
            ratio(region.host_hit_tokens as f64, region.hit_tokens as f64),
        ),
        metric(
            "core.tier.demoted_bytes_per_req",
            "B",
            ratio(st.bytes_demoted as f64, requests),
        ),
    ]);
    let arm = radix_arm::replay(
        &w.trace(sub_seed(args.seed, 0)),
        w.warmup_passes() + w.region_passes(),
        w.token_budget(),
    );
    m.extend([
        metric("radix.match.ns_per_token", "ns", arm.match_ns_per_token),
        metric("radix.insert.ns_per_token", "ns", arm.insert_ns_per_token),
        metric("radix.remove.per_req", "count", arm.removals_per_req),
        metric("radix.store_ratio", "ratio", arm.store_ratio),
        metric("sim.self_frac", "fraction", bd.self_ns as f64 / pass_ns),
        metric(
            "sim.iterations_per_req",
            "count",
            ratio(region.iterations as f64, requests),
        ),
        metric(
            "sim.queue_ms_p99",
            "ms",
            stats::tail(&queue, 99).map_or(0.0, |t| t.value),
        ),
        metric(
            "trace.events_per_req",
            "count",
            ratio(events as f64, traced_reqs as f64),
        ),
        metric(
            "trace.recorder_frac",
            "fraction",
            if unrecorded.is_empty() {
                0.0
            } else {
                1.0 - ratio(median_rps(traced), median_rps(unrecorded))
            },
        ),
        metric("workload.gen_s", "s", stats::median(&gen)),
        metric(
            "bench.span_overhead_frac",
            "fraction",
            1.0 - ratio(median_rps(traced), median_rps(plain)),
        ),
    ]);
    notes.push(format!(
        "{} untraced + {} traced + {} recorder-off rounds; fail_frac {} ({failed} of {attempted} requests)",
        plain.len(),
        traced.len(),
        unrecorded.len(),
        ratio(failed as f64, attempted as f64)
    ));
    Report {
        attempted,
        failed,
        metrics: m,
        notes,
    }
}

fn print_report(args: &Args, r: &Report) {
    println!(
        "perfbench {} seed {} trace {} ({} cores)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    for m in &r.metrics {
        println!(
            "  {:<36} {:>16.6} {:<10} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    for n in &r.notes {
        println!("  {n}");
    }
    let body: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload cluster --seed 7 --seconds 10 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Cluster, 7, 10, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload hit --seed 7 --seconds 10 --trace 1").is_err());
        assert!(args("--workload agentic --seed 7 --seconds 10 --trace 2").is_err());
        assert!(args("--workload agentic --seed 7 --seconds 0 --trace 0").is_err());
        assert!(args("--workload agentic --seed 7 --trace 0").is_err());
        assert!(args("--workload agentic --seed").is_err());
    }
}
