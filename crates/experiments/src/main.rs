//! `iqft-experiments` — CLI that regenerates every table and figure of the
//! reproduced paper.
//!
//! ```text
//! iqft-experiments <subcommand> [options]
//!
//! Subcommands:
//!   table1                     θ ↔ threshold values (paper Table I)
//!   table2  [--samples N]      θ ↔ max segment count (paper Table II)
//!   table3  [--voc N] [--xview N] [--size S] [--seed S]
//!                              mIOU / runtime comparison (paper Table III)
//!   fig1-3                     worked example: patterns and probabilities
//!   fig4    [--out DIR]        multiple thresholding on the balls scene
//!   fig5    [--out DIR]        normalisation ablation
//!   fig6    [--out DIR]        θ sweep on real scenes
//!   fig7    [--out DIR]        Otsu ↔ θ equivalence
//!   fig8    [--out DIR]        qualitative wins (VOC-like)
//!   fig9    [--out DIR]        qualitative wins (xVIEW2-like)
//!   fig10                      per-image θ adjustment
//!   throughput [--images N] [--batch B] [--size S] [--seed S]
//!              [--classifier exact|table|simd] [--tile WxH]
//!              [--plan SPEC|auto] [--cache-mb M] [--video]
//!              [--change-rate R] [--no-verify]
//!                              batched pipeline service workload
//!                              (--tile splits images into tile jobs;
//!                              --plan takes a whole classifier=…;tile=…;
//!                              backend=… spec, or `auto` to probe the host
//!                              and take the fastest measured plan;
//!                              --cache-mb attaches the result cache and
//!                              runs the per-request serving path; --video
//!                              streams synthetic video through the
//!                              per-tile delta path, mutating a fraction
//!                              --change-rate of each frame's blocks)
//!   serve   [--addr A] [--classifier C] [--tile T] [--plan SPEC|auto]
//!           [--workers W] [--max-queue Q] [--cache-mb M] [--addr-file PATH]
//!           [--cache-persist PATH]
//!                              boot the iqft-serve TCP daemon and block
//!                              until a client sends Shutdown; --addr-file
//!                              records the bound (possibly ephemeral) port;
//!                              --plan auto calibrates the plan at boot (the
//!                              evidence is surfaced through Stats);
//!                              --max-queue bounds waiting segment requests
//!                              (0 = unbounded) — saturated admission gets a
//!                              typed Busy reply instead of queueing;
//!                              --cache-persist warm-loads the result cache
//!                              from a snapshot on boot and writes it back
//!                              on a drain-then-stop shutdown
//!   loadgen [--addr A[,A,...]] [--clients C] [--images N] [--size S]
//!           [--seed S] [--plan SPEC|auto] [--repeat-ratio R] [--pipeline K]
//!           [--expect-cache-hits] [--video] [--change-rate R]
//!           [--kill-one] [--no-verify] [--shutdown]
//!                              drive concurrent clients against running
//!                              daemons (byte-identity verified by default;
//!                              --plan picks the local reference pass's
//!                              plan — labels are identical either way;
//!                              --repeat-ratio generates Zipf-ish repeated
//!                              traffic, --pipeline keeps K requests in
//!                              flight per connection; --video streams each
//!                              client's own synthetic video through the
//!                              per-tile delta op; typed Busy rejections
//!                              from an admission-bounded server are
//!                              counted, not fatal; several --addr
//!                              endpoints are one fleet, routed by content
//!                              hash over a consistent-hash ring and failing
//!                              over when one dies; --kill-one boots a
//!                              three-daemon in-process fleet and kills one
//!                              mid-run to prove graceful degradation)
//!   ping    [--addr A] [--retries N]
//!                              readiness probe with bounded retries
//!   all     [--out DIR]        everything above with reduced sizes
//!
//! Global options:
//!   --backend serial|threads   execution backend for every experiment
//!                              (default: threads)
//!   --threads N                worker threads for the threads backend
//!                              (default: 0 = one per core)
//! ```
//!
//! Label maps and scores are byte-identical across backends; the knob only
//! changes how the work is scheduled.

use experiments::figures;
use experiments::service::{self, LoadgenConfig, ServeCliConfig, DEFAULT_ADDR};
use experiments::tables::{self, Table3Config};
use experiments::throughput::{self, ThroughputConfig, ThroughputError};
use experiments::SegmentEngine;
use std::path::PathBuf;

#[derive(Debug, Clone)]
struct Args {
    command: String,
    out_dir: Option<PathBuf>,
    samples: usize,
    voc: usize,
    xview: usize,
    size: usize,
    seed: u64,
    backend: String,
    threads: usize,
    images: usize,
    batch: usize,
    classifier: String,
    tile: String,
    plan: String,
    max_queue: usize,
    verify: bool,
    addr: Option<String>,
    clients: usize,
    workers: usize,
    shutdown: bool,
    cache_mb: usize,
    repeat_ratio: f64,
    pipeline: usize,
    expect_cache_hits: bool,
    video: bool,
    change_rate: f64,
    addr_file: Option<PathBuf>,
    cache_persist: Option<PathBuf>,
    kill_one: bool,
    retries: usize,
}

/// Parses the command line after the program name.  An unknown flag, a
/// missing value or a value that does not parse is an error naming the
/// flag — never a warning or a silent default.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        out_dir: None,
        samples: 100_000,
        voc: 200,
        xview: 148,
        size: 160,
        seed: 42,
        backend: "threads".to_string(),
        threads: 0,
        images: 64,
        batch: 16,
        classifier: "table".to_string(),
        tile: "off".to_string(),
        plan: String::new(),
        max_queue: 0,
        verify: true,
        addr: None,
        clients: 4,
        workers: 0,
        shutdown: false,
        cache_mb: 0,
        repeat_ratio: 0.0,
        pipeline: 1,
        expect_cache_hits: false,
        video: false,
        change_rate: 0.1,
        addr_file: None,
        cache_persist: None,
        kill_one: false,
        retries: 40,
    };
    let mut iter = argv.into_iter();
    if let Some(cmd) = iter.next() {
        args.command = cmd;
    }
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--out" => args.out_dir = Some(PathBuf::from(value()?)),
            "--samples" => args.samples = number(&flag, value()?)?,
            "--voc" => args.voc = number(&flag, value()?)?,
            "--xview" => args.xview = number(&flag, value()?)?,
            "--size" => args.size = number(&flag, value()?)?,
            "--seed" => args.seed = number(&flag, value()?)?,
            "--backend" => args.backend = value()?,
            "--threads" => args.threads = number(&flag, value()?)?,
            "--images" => args.images = number(&flag, value()?)?,
            "--batch" => args.batch = number(&flag, value()?)?,
            "--classifier" => args.classifier = value()?,
            "--tile" => args.tile = value()?,
            "--plan" => args.plan = value()?,
            "--max-queue" => args.max_queue = number(&flag, value()?)?,
            "--no-verify" => args.verify = false,
            "--addr" => args.addr = Some(value()?),
            "--clients" => args.clients = number(&flag, value()?)?,
            "--workers" => args.workers = number(&flag, value()?)?,
            "--shutdown" => args.shutdown = true,
            "--cache-mb" => args.cache_mb = number(&flag, value()?)?,
            "--repeat-ratio" => args.repeat_ratio = number(&flag, value()?)?,
            "--pipeline" => args.pipeline = number(&flag, value()?)?,
            "--expect-cache-hits" => args.expect_cache_hits = true,
            "--video" => args.video = true,
            "--change-rate" => args.change_rate = number(&flag, value()?)?,
            "--addr-file" => args.addr_file = Some(PathBuf::from(value()?)),
            "--cache-persist" => args.cache_persist = Some(PathBuf::from(value()?)),
            "--kill-one" => args.kill_one = true,
            "--retries" => args.retries = number(&flag, value()?)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Parses the number `flag` takes, or an error naming the flag.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a number, got '{value}'"))
}

fn run_table3(args: &Args, engine: &SegmentEngine) -> String {
    let config = Table3Config {
        voc_images: args.voc,
        xview_images: args.xview,
        image_size: args.size,
        seed: args.seed,
        backend: engine.backend(),
        ..Table3Config::default()
    };
    let summaries = tables::table3_run(&config);
    tables::table3_text(&summaries)
}

/// Runs one throughput pass.  A flag error exits 2; a verification
/// mismatch prints `printed_before` and the failing report, then exits 1.
fn throughput_or_exit(
    engine: &SegmentEngine,
    config: &ThroughputConfig,
    printed_before: &str,
) -> String {
    match throughput::throughput_report(engine, config) {
        Ok(report) => report,
        Err(ThroughputError::Flag(message)) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
        Err(ThroughputError::Mismatch(report)) => {
            println!("{printed_before}{report}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}; run with --help for usage");
            std::process::exit(2);
        }
    };
    let engine = match SegmentEngine::from_flags(&args.backend, args.threads) {
        Ok(engine) => engine,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let out = args.out_dir.as_deref();
    let report = match args.command.as_str() {
        "table1" => tables::table1_text(),
        "table2" => tables::table2_text(args.samples, args.seed),
        "table3" => run_table3(&args, &engine),
        "fig1-3" | "fig1" | "fig2" | "fig3" => figures::fig1_3_text(),
        "fig4" => figures::fig4_report(&engine, out),
        "fig5" => figures::fig5_report(&engine, out),
        "fig6" => figures::fig6_report(&engine, out),
        "fig7" => figures::fig7_report(&engine, out),
        "fig8" => figures::fig8_9_report(&engine, false, out, 30),
        "fig9" => figures::fig8_9_report(&engine, true, out, 30),
        "fig10" => figures::fig10_report(&engine, 30),
        "serve" => {
            let config = ServeCliConfig {
                addr: args.addr.as_deref().unwrap_or(DEFAULT_ADDR).to_string(),
                plan: args.plan.clone(),
                classifier: args.classifier.clone(),
                tile: args.tile.clone(),
                backend: args.backend.clone(),
                threads: args.threads,
                workers: args.workers,
                max_queue: args.max_queue,
                cache_mb: args.cache_mb,
                addr_file: args.addr_file.clone(),
                cache_persist: args.cache_persist.clone(),
            };
            match service::serve_command(&config) {
                Ok(summary) => summary,
                Err(message) => {
                    eprintln!("{message}");
                    std::process::exit(2);
                }
            }
        }
        "loadgen" => {
            let config = LoadgenConfig {
                addr: args.addr.clone().unwrap_or_default(),
                plan: args.plan.clone(),
                clients: args.clients,
                images: args.images,
                image_size: args.size,
                seed: args.seed,
                verify: args.verify,
                shutdown: args.shutdown,
                repeat_ratio: args.repeat_ratio,
                pipeline_depth: args.pipeline,
                expect_cache_hits: args.expect_cache_hits,
                video: args.video,
                change_rate: args.change_rate,
                kill_one: args.kill_one,
                ..LoadgenConfig::default()
            };
            match service::loadgen_report(&config) {
                Ok(report) => report,
                Err(message) => {
                    eprintln!("{message}");
                    std::process::exit(1);
                }
            }
        }
        "ping" => match service::ping_command(
            args.addr.as_deref().unwrap_or(DEFAULT_ADDR),
            args.retries,
            250,
        ) {
            Ok(report) => report,
            Err(message) => {
                eprintln!("{message}");
                std::process::exit(1);
            }
        },
        "throughput" => throughput_or_exit(
            &engine,
            &ThroughputConfig {
                images: args.images,
                batch: args.batch,
                image_size: args.size,
                seed: args.seed,
                classifier: args.classifier.clone(),
                tile: args.tile.clone(),
                plan: args.plan.clone(),
                cache_mb: args.cache_mb,
                verify: args.verify,
                video: args.video,
                change_rate: args.change_rate,
            },
            "",
        ),
        "all" => {
            // The throughput passes run at reduced size on the user's
            // classifier and tiling unless a pass names its own.
            let quick_run = ThroughputConfig {
                images: args.images.min(16),
                batch: args.batch.min(8),
                image_size: args.size.min(96),
                seed: args.seed,
                classifier: args.classifier.clone(),
                tile: args.tile.clone(),
                verify: args.verify,
                ..ThroughputConfig::default()
            };
            // Refuse a bad strategy flag before the long passes, not after.
            if let Err(message) = quick_run.plan(&engine) {
                eprintln!("{message}");
                std::process::exit(2);
            }
            let mut all = String::new();
            all.push_str(&tables::table1_text());
            all.push('\n');
            all.push_str(&tables::table2_text(args.samples.min(20_000), args.seed));
            all.push('\n');
            let quick = Args {
                voc: args.voc.min(20),
                xview: args.xview.min(20),
                size: args.size.min(96),
                ..args.clone()
            };
            all.push_str(&run_table3(&quick, &engine));
            all.push('\n');
            all.push_str(&figures::fig1_3_text());
            all.push('\n');
            all.push_str(&figures::fig4_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig5_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig6_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig7_report(&engine, out));
            all.push('\n');
            all.push_str(&figures::fig8_9_report(&engine, false, out, 12));
            all.push('\n');
            all.push_str(&figures::fig8_9_report(&engine, true, out, 12));
            all.push('\n');
            all.push_str(&figures::fig10_report(&engine, 12));
            all.push('\n');
            let cache_mb = if args.cache_mb > 0 { args.cache_mb } else { 32 };
            all.push_str(&throughput_or_exit(&engine, &quick_run, &all));
            let untiled = matches!(
                seg_engine::Tiling::from_flag(&args.tile),
                Ok(seg_engine::Tiling::Whole)
            );
            if untiled {
                // `all` always exercises the tiled pipeline path too (with
                // its default-on byte-identity verification), even when the
                // user did not pass --tile.
                all.push('\n');
                all.push_str(&throughput_or_exit(
                    &engine,
                    &ThroughputConfig {
                        tile: "48x48".to_string(),
                        ..quick_run.clone()
                    },
                    &all,
                ));
            }
            // ... and the quantized SIMD classifier (whose default-on
            // verification doubles as the exactness-oracle check), even when
            // the user did not pass --classifier.
            let quantized = matches!(
                seg_engine::ClassifierKind::from_flag(&args.classifier),
                Ok(kind) if kind.is_quantized()
            );
            if !quantized {
                all.push('\n');
                all.push_str(&throughput_or_exit(
                    &engine,
                    &ThroughputConfig {
                        classifier: "simd".to_string(),
                        ..quick_run.clone()
                    },
                    &all,
                ));
            }
            // ... and the cached per-request serving path (byte-identity
            // verified the same way), even when the user did not pass
            // --cache-mb.
            all.push('\n');
            all.push_str(&throughput_or_exit(
                &engine,
                &ThroughputConfig {
                    cache_mb,
                    ..quick_run.clone()
                },
                &all,
            ));
            // ... and the streaming-video per-tile delta path (stitched
            // byte-identity verified the same way).
            all.push('\n');
            all.push_str(&throughput_or_exit(
                &engine,
                &ThroughputConfig {
                    images: args.images.min(8),
                    batch: args.batch.min(4),
                    image_size: args.size.min(128),
                    tile: "32x32".to_string(),
                    cache_mb,
                    video: true,
                    change_rate: 0.25,
                    ..quick_run
                },
                &all,
            ));
            all
        }
        "" | "help" | "--help" | "-h" => {
            // The classifier set comes from ClassifierKind::FLAG_HELP — the
            // one place the workspace enumerates it — so this usage line can
            // never drift from what `--classifier` actually accepts.
            eprintln!(
                "usage: iqft-experiments <table1|table2|table3|fig1-3|fig4|fig5|fig6|fig7|fig8|fig9|fig10|throughput|serve|loadgen|ping|all> [--out DIR] [--samples N] [--voc N] [--xview N] [--size S] [--seed S] [--backend serial|threads] [--threads N] [--images N] [--batch B] [--classifier {}] [--tile WxH] [--plan SPEC|auto] [--cache-mb M] [--no-verify] [--addr A[,A,...]] [--addr-file PATH] [--clients C] [--workers W] [--max-queue Q] [--repeat-ratio R] [--pipeline K] [--expect-cache-hits] [--video] [--change-rate R] [--kill-one] [--cache-persist PATH] [--retries N] [--shutdown]",
                seg_engine::ClassifierKind::FLAG_HELP
            );
            return;
        }
        other => {
            eprintln!("unknown subcommand '{other}'; run with --help for usage");
            std::process::exit(2);
        }
    };
    println!("{report}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parse_args_reads_flags_and_refuses_what_it_cannot_parse() {
        let args = parse("loadgen --addr a:1,b:2 --clients 3 --repeat-ratio 0.5").unwrap();
        assert_eq!(args.command, "loadgen");
        assert_eq!(args.addr.as_deref(), Some("a:1,b:2"));
        assert_eq!(args.clients, 3);
        assert_eq!(args.repeat_ratio, 0.5);
        assert_eq!(parse("loadgen").unwrap().addr, None);

        // The retired --fleet flag must not silently fall back to the
        // default address.
        let err = parse("loadgen --fleet a:1,b:2").unwrap_err();
        assert!(err.contains("unknown flag --fleet"), "{err}");
        let err = parse("loadgen --clients x").unwrap_err();
        assert!(err.contains("--clients") && err.contains("'x'"), "{err}");
        let err = parse("loadgen --images").unwrap_err();
        assert!(err.contains("--images needs a value"), "{err}");
    }
}
