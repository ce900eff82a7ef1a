//! Loopback end-to-end benchmark of the `iqft-serve` daemon.
//!
//! ```text
//! loopbench --workload fresh_frames|repeat_hits|video_delta --seed N --seconds S --trace 0|1
//! ```
//!
//! Boots the daemon in-process, drives it over loopback through the public
//! `Client` from two threads, verifies every reply against reference labels,
//! checks the workload's exact counts, and prints every metric by name and
//! unit.  The last line of standard output is one JSON object.  With
//! `--trace 0` it carries the end-to-end metrics; with `--trace 1` it
//! carries the per-layer metrics of a traced run.  See `README.md`.

mod daemon;
mod drive;
mod guards;
mod host;
mod pct;
mod trace;
mod workload;

use daemon::Daemon;
use drive::{run_phase, Phase};
use pct::{median, Summary};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{build_inputs, plan, Inputs, Shape, Workload, CONNECTIONS, PLAN};

const USAGE: &str =
    "usage: loopbench --workload fresh_frames|repeat_hits|video_delta --seed N --seconds S --trace 0|1";

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loopbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("loopbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// Runs the benchmark; `Ok(false)` is a run that completed but failed a
/// check.
fn run(args: &Args) -> Result<bool, String> {
    let shape = args.workload.shape();
    let name = args.workload.name();
    let probe_ms = host::probe_ms();
    let built = Instant::now();
    let inputs = build_inputs(&shape, args.seed);
    println!(
        "{name}: {} distinct {}x{} frames and their references built in {:.2} s",
        inputs.distinct_frames(),
        shape.width,
        shape.height,
        built.elapsed().as_secs_f64()
    );
    let outcome = if args.trace {
        run_traced(args, &shape, &inputs)?
    } else {
        run_untraced(args, &shape, &inputs)?
    };
    let simd = iqft_seg::IqftClassifier::for_plan(&plan())
        .simd_level()
        .map_or("none".to_string(), |level| level.to_string());
    println!(
        "provenance: workload={name} plan={PLAN} simd={simd} cores={} seed={} connections={CONNECTIONS} \
         distinct_frames={} requests_sent={} frames_sent={}",
        host::cores(),
        args.seed,
        inputs.distinct_frames(),
        outcome.requests_sent,
        outcome.requests_sent
    );
    println!(
        "host.probe_ms {probe_ms:.4} ms (fixed loop of the benchmark's own code; gates nothing)"
    );
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for line in &outcome.notes {
        println!("{line}");
    }
    for e in outcome.errors.iter().take(10) {
        eprintln!("loopbench: {e}");
    }
    let correct = outcome.failed == 0 && outcome.errors.is_empty();
    println!(
        "{}",
        result_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    Ok(correct)
}

/// What a run prints.
#[derive(Default)]
struct Outcome {
    metrics: Vec<Metric>,
    notes: Vec<String>,
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    /// Requests sent in set-up and timed phases; each carries one frame.
    requests_sent: u64,
}

impl Outcome {
    /// Folds a timed phase's attempts, failures and guard into the outcome.
    fn absorb(&mut self, workload: Workload, phase: &Phase) {
        self.attempted += phase.attempted;
        self.failed += phase.failed;
        self.requests_sent += phase.attempted;
        self.errors.extend(phase.errors.iter().cloned());
        match guards::check_phase(workload, &phase.counts) {
            Ok(()) => self
                .notes
                .push(format!("guards: ok ({})", describe_counts(phase))),
            Err(e) => self.errors.push(format!("guard failed: {e}")),
        }
    }

    fn count_warm_up(&mut self, shape: &Shape) {
        self.requests_sent += (CONNECTIONS * shape.frames_per_conn) as u64;
    }
}

fn describe_counts(phase: &Phase) -> String {
    let c = &phase.counts;
    let d = &c.daemon;
    let mut text = format!(
        "{} replies, {} cache hits, {} misses, {} evictions, {} busy, {} protocol errors",
        c.replies, d.hits, d.misses, d.evictions, d.busy_rejections, d.protocol_errors
    );
    if !c.recomputed_per_pass.is_empty() {
        text.push_str(&format!(
            "; recomputed tiles per clip pass {:?}, hit tiles per pass {:?}",
            c.recomputed_per_pass, c.tiles_hit_per_pass
        ));
    }
    text
}

fn run_untraced(args: &Args, shape: &Shape, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // The inputs and references are built; only the daemon's memory and
    // the load's buffers count from here.
    let base_kib = host::reset_peak_rss_kib()?;
    let (mut daemon, first_setup) = Daemon::boot(shape, inputs)?;
    out.count_warm_up(shape);
    let warm = [shape.frames_per_conn; CONNECTIONS];
    let phase = run_phase(&mut daemon, shape, inputs, &warm, args.seconds, None);
    let peak_kib = host::peak_rss_kib()?;
    daemon.stop();
    out.absorb(args.workload, &phase);
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPEATS {
        let (daemon, setup) = Daemon::boot(shape, inputs)?;
        out.count_warm_up(shape);
        daemon.stop();
        setups.push(setup);
    }
    if phase.latencies_ms.is_empty() {
        out.errors.push("no request was verified".to_string());
        return Ok(out);
    }
    let latency = Summary::of(phase.latencies_ms.clone());
    let lag = Summary::of(phase.send_lags_ms.clone());
    out.metrics = vec![
        metric(
            "throughput_mpx_s",
            "Mpx/s",
            phase.verified_px as f64 / 1e6 / phase.wall_s,
        ),
        metric("latency_p50_ms", "ms", latency.p50),
        metric("latency_p90_ms", "ms", latency.p90),
        metric("setup_s", "s", median(&setups)),
        metric(
            "peak_rss_mb",
            "MB",
            peak_kib.saturating_sub(base_kib) as f64 / 1024.0,
        ),
    ];
    out.notes.push(format!(
        "latency: n={} p50 {:.4} ms, p90 {:.4} ms, p99 {:.4} ms (p99 printed only), max {:.4} ms",
        latency.count, latency.p50, latency.p90, latency.p99, latency.max
    ));
    out.notes.push(format!(
        "throughput: {:.1} Mpx verified in {:.3} s; send lag p90 {:.4} ms, max {:.4} ms",
        phase.verified_px as f64 / 1e6,
        phase.wall_s,
        lag.p90,
        lag.max
    ));
    out.notes.push(format!("setup_s samples: {setups:.4?}"));
    out.notes.push(format!(
        "peak_rss: high-water mark {peak_kib} KiB, {base_kib} KiB held before boot"
    ));
    Ok(out)
}

/// Per-layer metrics that are a span's p50 self time.
const SPAN_METRICS: [(&str, &str); 12] = [
    ("iqft-seg.classify_ms", trace::CLASSIFY),
    ("iqft-pipeline.cache.key_ms", trace::KEY),
    ("iqft-pipeline.cache.lookup_ms", trace::LOOKUP),
    ("iqft-pipeline.cache.insert_ms", trace::INSERT),
    ("iqft-pipeline.cache.tile_keys_ms", trace::TILE_KEYS),
    ("iqft-pipeline.request_ms", trace::PIPELINE_REQUEST),
    (
        "iqft-serve.protocol.encode_request_ms",
        trace::ENCODE_REQUEST,
    ),
    (
        "iqft-serve.protocol.decode_request_ms",
        trace::DECODE_REQUEST,
    ),
    ("iqft-serve.protocol.encode_reply_ms", trace::ENCODE_REPLY),
    ("iqft-serve.protocol.decode_reply_ms", trace::DECODE_REPLY),
    ("iqft-serve.client.round_trip_ms", trace::ROUND_TRIP),
    ("iqft-serve.server.transport_ms", trace::TRANSPORT),
];

fn run_traced(args: &Args, shape: &Shape, inputs: &Inputs) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut daemon, _) = Daemon::boot(shape, inputs)?;
    out.count_warm_up(shape);
    let tracer = trace::Tracer::new(shape, inputs);
    // The first half runs untraced, for the tracing overhead; the second
    // half replays every request's layer calls.
    let half = args.seconds / 2.0;
    let warm = [shape.frames_per_conn; CONNECTIONS];
    let plain = run_phase(&mut daemon, shape, inputs, &warm, half, None);
    let traced = run_phase(
        &mut daemon,
        shape,
        inputs,
        &plain.next_k,
        half,
        Some(&tracer),
    );
    let totals = daemon.stats();
    daemon.stop();
    let totals = totals?;
    out.absorb(args.workload, &plain);
    out.absorb(args.workload, &traced);
    if plain.latencies_ms.is_empty() || traced.spans.is_empty() {
        out.errors.push("no request was verified".to_string());
        return Ok(out);
    }
    let p50 = trace::self_times_ms(&traced.spans);
    let span_ms = |name: &str| p50.get(name).copied().unwrap_or(0.0);
    let c = &traced.counts;
    let d = &c.daemon;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let lag = Summary::of(traced.send_lags_ms.clone());
    let wire = traced.wire;
    out.metrics = SPAN_METRICS
        .iter()
        .map(|&(name, span)| metric(name, "ms", span_ms(span)))
        .collect();
    out.metrics.extend([
        metric(
            "iqft-seg.fallback_px_per_mpx",
            "px/Mpx",
            ratio(d.fallback_pixels * 1_000_000, d.pixels),
        ),
        metric(
            "iqft-pipeline.cache.hit_ratio",
            "ratio",
            ratio(d.hits, d.hits + d.misses),
        ),
        metric(
            "iqft-pipeline.cache.tile_hit_ratio",
            "ratio",
            ratio(d.tiles_hit, d.tiles_hit + d.tiles_recomputed),
        ),
        metric(
            "iqft-pipeline.cache.evictions_per_request",
            "1/req",
            ratio(d.evictions, c.replies),
        ),
        metric(
            "iqft-pipeline.arena_allocs_per_request",
            "1/req",
            ratio(d.arena_allocations, c.replies),
        ),
        metric(
            "iqft-serve.protocol.request_bytes_per_px",
            "B/px",
            ratio(wire.request_bytes, wire.pixels),
        ),
        metric(
            "iqft-serve.protocol.reply_bytes_per_px",
            "B/px",
            ratio(wire.reply_bytes, wire.pixels),
        ),
        metric(
            "iqft-serve.server.busy_rejections",
            "count",
            totals.busy_rejections as f64,
        ),
        metric(
            "iqft-serve.server.protocol_errors",
            "count",
            totals.protocol_errors as f64,
        ),
        metric("loadgen.send_lag_p90_ms", "ms", lag.p90),
        metric("loadgen.send_lag_max_ms", "ms", lag.max),
    ]);
    let untraced = Summary::of(plain.latencies_ms.clone());
    let round_trip = span_ms(trace::ROUND_TRIP);
    out.notes.push(format!(
        "trace.overhead_ms {:.4} ms: traced round trip p50 {round_trip:.4} ms minus untraced latency p50 {:.4} ms (n={})",
        round_trip - untraced.p50,
        untraced.p50,
        untraced.count
    ));
    out.notes.push(format!(
        "self time p50 of the request root (verification, bookkeeping): {:.4} ms",
        span_ms(trace::REQUEST)
    ));
    let path = spans_path(args.workload);
    trace::dump(&path, &traced.spans).map_err(|e| format!("writing {}: {e}", path.display()))?;
    out.notes.push(format!(
        "spans: {} written to {}",
        traced.spans.len(),
        path.display()
    ));
    Ok(out)
}

/// Where a traced run writes its spans: one file per workload, overwritten
/// by the next traced run.
fn spans_path(workload: Workload) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.jsonl", workload.name()))
}

/// The result line: `correct`, `attempted`, `failed` and the metrics, each
/// value printed with all its digits.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_contract_flags() {
        let parsed = args("--workload video_delta --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            parsed,
            Args {
                workload: Workload::VideoDelta,
                seed: 42,
                seconds: 10.0,
                trace: true
            }
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload repeat_hits --seconds 1").is_err());
        assert!(args("--workload repeat_hits --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload repeat_hits --seed 1 --seconds 1 --trace 2").is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            12,
            0,
            &[metric("setup_s", "s", 0.125), metric("x", "ms", f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}, \"x\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }
}
