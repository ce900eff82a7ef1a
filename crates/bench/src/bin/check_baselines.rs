//! `check_baselines` — schema guard for the `BENCH_*.json` baseline files.
//!
//! The repository keeps recorded benchmark baselines as JSON-lines files at
//! the workspace root (one flat object per line, written by the criterion
//! shim).  Nothing used to read them back, so a hand edit or a format drift
//! in the shim could silently break every future comparison.  This tool —
//! run by the CI `bench-compile` job — parses every record with a small
//! hand-rolled JSON reader (the workspace is offline: no serde) and checks
//! that each carries the expected fields with sane values.
//!
//! ```text
//! cargo run --release -p bench --bin check_baselines [FILES...]
//! ```
//!
//! With no arguments it scans the current directory for `BENCH_*.json`.
//! Exits non-zero (after printing every problem) if any record is invalid,
//! any file is empty, or the no-argument scan finds no baseline files.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// A flat JSON value: every baseline record is one object of these.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

/// Minimal parser for one flat JSON object (`{"key": value, ...}` with
/// string/number/bool/null values — exactly what the criterion shim emits).
/// Nested containers are rejected; this is a schema guard, not a JSON
/// library.
fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Value>, String> {
    let mut chars = line.char_indices().peekable();
    let mut object = BTreeMap::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_ascii_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            other => return Err(format!("expected '\"', found {other:?}")),
        }
        let mut out = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(out),
                Some((_, '\\')) => match chars.next() {
                    Some((_, '"')) => out.push('"'),
                    Some((_, '\\')) => out.push('\\'),
                    Some((_, '/')) => out.push('/'),
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, 't')) => out.push('\t'),
                    Some((_, other)) => return Err(format!("unsupported escape '\\{other}'")),
                    None => return Err("unterminated escape".to_string()),
                },
                Some((_, c)) => out.push(c),
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        other => return Err(format!("expected '{{', found {other:?}")),
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
    } else {
        loop {
            skip_ws(&mut chars);
            let key = parse_string(&mut chars)?;
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ':')) => {}
                other => return Err(format!("expected ':' after key '{key}', found {other:?}")),
            }
            skip_ws(&mut chars);
            let value = match chars.peek() {
                Some((_, '"')) => Value::String(parse_string(&mut chars)?),
                Some((_, '{')) | Some((_, '[')) => {
                    return Err(format!("key '{key}': nested containers are not expected"));
                }
                Some((start, _)) => {
                    let start = *start;
                    let mut end = start;
                    while let Some((i, c)) = chars.peek() {
                        if matches!(c, ',' | '}') || c.is_ascii_whitespace() {
                            break;
                        }
                        end = i + c.len_utf8();
                        chars.next();
                    }
                    let token = &line[start..end];
                    match token {
                        "true" => Value::Bool(true),
                        "false" => Value::Bool(false),
                        "null" => Value::Null,
                        number => Value::Number(
                            number
                                .parse::<f64>()
                                .map_err(|_| format!("key '{key}': bad literal '{number}'"))?,
                        ),
                    }
                }
                None => return Err(format!("key '{key}': missing value")),
            };
            if object.insert(key.clone(), value).is_some() {
                return Err(format!("duplicate key '{key}'"));
            }
            skip_ws(&mut chars);
            match chars.next() {
                Some((_, ',')) => continue,
                Some((_, '}')) => break,
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((_, trailing)) = chars.next() {
        return Err(format!("trailing content starting at '{trailing}'"));
    }
    Ok(object)
}

/// The fields every baseline record must carry, with their value checks.
fn check_record(record: &BTreeMap<String, Value>) -> Result<(), String> {
    let string = |key: &str| match record.get(key) {
        Some(Value::String(s)) if !s.is_empty() => Ok(s.clone()),
        Some(other) => Err(format!(
            "field '{key}' must be a non-empty string, got {other:?}"
        )),
        None => Err(format!("missing field '{key}'")),
    };
    let number = |key: &str| match record.get(key) {
        Some(Value::Number(n)) if n.is_finite() => Ok(*n),
        Some(other) => Err(format!(
            "field '{key}' must be a finite number, got {other:?}"
        )),
        None => Err(format!("missing field '{key}'")),
    };
    string("group")?;
    string("bench")?;
    let mean = number("mean_ns")?;
    let min = number("min_ns")?;
    let iters = number("iters")?;
    if mean <= 0.0 || min <= 0.0 {
        return Err(format!(
            "timings must be positive (mean_ns={mean}, min_ns={min})"
        ));
    }
    if min > mean {
        return Err(format!("min_ns {min} exceeds mean_ns {mean}"));
    }
    if iters < 1.0 || iters.fract() != 0.0 {
        return Err(format!("iters must be a positive integer, got {iters}"));
    }
    // The criterion shim emits the throughput pair only for benches that
    // declare a `.throughput()`, so the pair is optional — but when present
    // it must be complete, positive, and consistent with the timings.
    match (
        record.contains_key("throughput_elems"),
        record.contains_key("elems_per_sec"),
    ) {
        (false, false) => {}
        (true, true) => {
            let elems = number("throughput_elems")?;
            let rate = number("elems_per_sec")?;
            if elems <= 0.0 || rate <= 0.0 {
                return Err(format!(
                    "throughput must be positive (throughput_elems={elems}, elems_per_sec={rate})"
                ));
            }
            // The rate column is derived as elems / mean seconds; allow 1%
            // slack for rounding.
            let derived = elems / (mean / 1e9);
            if (derived - rate).abs() / derived > 0.01 {
                return Err(format!(
                    "elems_per_sec {rate} disagrees with throughput_elems/mean_ns \
                     (expected ~{derived:.1})"
                ));
            }
        }
        _ => {
            return Err(
                "throughput_elems and elems_per_sec must appear together or not at all".to_string(),
            );
        }
    }
    Ok(())
}

/// Extracts a record's `elems_per_sec` when its `bench` id contains
/// `needle`.
fn rate_of(records: &[BTreeMap<String, Value>], needle: &str) -> Option<f64> {
    records.iter().find_map(
        |record| match (record.get("bench"), record.get("elems_per_sec")) {
            (Some(Value::String(bench)), Some(Value::Number(rate))) if bench.contains(needle) => {
                Some(*rate)
            }
            _ => None,
        },
    )
}

/// Extracts a record's `throughput_elems` when its `bench` id contains
/// `needle`.  The serve-scaling baseline rides per-connection RSS bytes in
/// this column.
fn elems_of(records: &[BTreeMap<String, Value>], needle: &str) -> Option<f64> {
    records.iter().find_map(
        |record| match (record.get("bench"), record.get("throughput_elems")) {
            (Some(Value::String(bench)), Some(Value::Number(elems))) if bench.contains(needle) => {
                Some(*elems)
            }
            _ => None,
        },
    )
}

/// The parallel-scaling gate: each input, the least `threads_2 ÷ serial`
/// ratio its rows must show, and what a lower ratio means.  On 2 vCPUs the
/// small split-table frame read 0.24–0.48× before frames picked their
/// threads and ~0.95× after; the other two inputs read ~1.5× (medians of
/// 8 runs on a shared host, 1.0–2.5× run to run).
const PARALLEL_BARS: [(&str, f64, &str); 3] = [
    (
        "simd_256x192",
        0.5,
        "a small split-table frame must stay on one thread",
    ),
    (
        "simd_3840x2160",
        1.4,
        "a large split-table frame must still split",
    ),
    (
        "exact_128x96",
        1.3,
        "a slow kernel must keep splitting small frames",
    ),
];

/// File-specific semantic checks on top of the generic schema: the cache
/// baseline must demonstrate the cache's reason to exist — the hit path
/// beating the uncached phase-table classifier on repeated traffic.
fn check_file_semantics(path: &Path, records: &[BTreeMap<String, Value>]) -> Result<(), String> {
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
    if name == "BENCH_cache.json" {
        let hit = rate_of(records, "hit_path")
            .ok_or("missing a 'hit_path' record with a throughput pair")?;
        let table = rate_of(records, "table_no_cache")
            .ok_or("missing a 'table_no_cache' record with a throughput pair")?;
        if hit <= table {
            return Err(format!(
                "cache hit path ({hit:.0} elem/s) does not beat the uncached \
                 phase-table classifier ({table:.0} elem/s)"
            ));
        }
    }
    if name == "BENCH_simd.json" {
        // The split table's reason to exist: the recorded dispatch kernel
        // must beat the f64 phase table by at least the advertised 2×, and
        // its portable scalar loop must beat it too.  The first record of
        // each row is read, which the bench writes for its VOC-like frames.
        let simd = rate_of(records, "simd_dispatch")
            .ok_or("missing a 'simd_dispatch' record with a throughput pair")?;
        let scalar = rate_of(records, "simd_scalar")
            .ok_or("missing a 'simd_scalar' record with a throughput pair")?;
        let table = rate_of(records, "phase_table")
            .ok_or("missing a 'phase_table' record with a throughput pair")?;
        if simd < 2.0 * table {
            return Err(format!(
                "SIMD dispatch ({simd:.0} elem/s) is below 2x the f64 \
                 phase-table classifier ({table:.0} elem/s)"
            ));
        }
        if scalar <= table {
            return Err(format!(
                "split-table scalar loop ({scalar:.0} elem/s) does not beat \
                 the f64 phase-table classifier ({table:.0} elem/s)"
            ));
        }
    }
    if name == "BENCH_serve_scaling.json" {
        // The evented core's reason to exist: per-connection memory
        // (recorded as RSS bytes per connection in the throughput column)
        // must stay flat from 64 to 1024 held connections.  A
        // thread-per-connection core faults in tens of kilobytes of stack
        // per peer; the reactor's slab entry is a few hundred bytes.
        let per_conn = |needle: &str| {
            elems_of(records, needle)
                .ok_or_else(|| format!("missing an '{needle}' record with a throughput pair"))
        };
        let small = per_conn("evented_64")?;
        per_conn("evented_256")?;
        let large = per_conn("evented_1024")?;
        const PER_CONN_BYTES_CAP: f64 = 256.0 * 1024.0;
        if large > PER_CONN_BYTES_CAP {
            return Err(format!(
                "per-connection memory at 1024 connections is {large:.0} bytes, \
                 over the {PER_CONN_BYTES_CAP:.0}-byte cap"
            ));
        }
        // Flat means the 1024-connection cost does not balloon relative to
        // the 64-connection cost; the 4 KiB floor keeps page-granularity
        // noise on tiny absolute deltas from tripping the ratio.
        let floor = small.max(4096.0);
        if large > 8.0 * floor {
            return Err(format!(
                "per-connection memory grows from {small:.0} bytes at 64 \
                 connections to {large:.0} at 1024 — not flat"
            ));
        }
    }
    if name == "BENCH_parallel_scaling.json" {
        // A frame gets at most one thread per `min_pixels_per_thread` of its
        // pixels.  Each input's bar is the least `threads_2 ÷ serial` ratio
        // that shows the rule at work on it.
        for (input, bar, why) in PARALLEL_BARS {
            let rate = |backend: &str| {
                let needle = format!("{input}/{backend}");
                rate_of(records, &needle)
                    .ok_or_else(|| format!("missing a '{needle}' record with a throughput pair"))
            };
            let serial = rate("serial")?;
            let threads = rate("threads_2")?;
            if threads < bar * serial {
                return Err(format!(
                    "{input}: threads_2 ({threads:.0} elem/s) is below {bar}x \
                     serial ({serial:.0} elem/s); {why}"
                ));
            }
        }
    }
    if name == "BENCH_video.json" {
        // The per-tile delta path's reason to exist: on a streaming-video
        // workload where only part of each frame changes, stitching cached
        // label tiles must beat both re-classifying every frame and the
        // whole-image result cache (which misses on every changed frame).
        let low = rate_of(records, "delta_cr5")
            .ok_or("missing a 'delta_cr5' record with a throughput pair")?;
        let quarter = rate_of(records, "delta_cr25")
            .ok_or("missing a 'delta_cr25' record with a throughput pair")?;
        let uncached = rate_of(records, "uncached")
            .ok_or("missing an 'uncached' record with a throughput pair")?;
        let whole = rate_of(records, "whole_cache")
            .ok_or("missing a 'whole_cache' record with a throughput pair")?;
        if low <= uncached {
            return Err(format!(
                "delta path at 5% change ({low:.0} elem/s) does not beat the \
                 uncached classifier ({uncached:.0} elem/s)"
            ));
        }
        if quarter <= uncached {
            return Err(format!(
                "delta path at 25% change ({quarter:.0} elem/s) does not beat \
                 the uncached classifier ({uncached:.0} elem/s)"
            ));
        }
        if quarter <= whole {
            return Err(format!(
                "delta path at 25% change ({quarter:.0} elem/s) does not beat \
                 the whole-image cache path ({whole:.0} elem/s)"
            ));
        }
    }
    Ok(())
}

fn check_file(path: &Path) -> Result<usize, Vec<String>> {
    let content = match std::fs::read_to_string(path) {
        Ok(content) => content,
        Err(e) => return Err(vec![format!("{}: unreadable: {e}", path.display())]),
    };
    let mut problems = Vec::new();
    let mut records = Vec::new();
    for (lineno, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let located = |err: String| format!("{}:{}: {err}", path.display(), lineno + 1);
        match parse_flat_object(line) {
            Ok(record) => match check_record(&record) {
                Ok(()) => records.push(record),
                Err(err) => problems.push(located(err)),
            },
            Err(err) => problems.push(located(err)),
        }
    }
    if records.is_empty() && problems.is_empty() {
        problems.push(format!("{}: no baseline records", path.display()));
    }
    if let Err(err) = check_file_semantics(path, &records) {
        problems.push(format!("{}: {err}", path.display()));
    }
    if problems.is_empty() {
        Ok(records.len())
    } else {
        Err(problems)
    }
}

fn default_files() -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(".")
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

fn main() {
    let args: Vec<PathBuf> = std::env::args().skip(1).map(PathBuf::from).collect();
    let files = if args.is_empty() {
        default_files()
    } else {
        args
    };
    if files.is_empty() {
        eprintln!("check_baselines: no BENCH_*.json files found in the current directory");
        std::process::exit(1);
    }
    let mut total = 0usize;
    let mut failed = false;
    for path in &files {
        match check_file(path) {
            Ok(records) => {
                println!("{}: {records} records ok", path.display());
                total += records;
            }
            Err(problems) => {
                failed = true;
                for problem in problems {
                    eprintln!("check_baselines: {problem}");
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!(
        "check_baselines: {total} records across {} files parse and carry the expected fields",
        files.len()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    // 5000 elems in 1000 ns -> 5e9 elems/sec.
    const GOOD: &str = r#"{"group":"g","bench":"b/one","mean_ns":1000.0,"min_ns":900.0,"iters":10,"throughput_elems":5000,"elems_per_sec":5000000000.0}"#;

    #[test]
    fn a_real_baseline_record_passes() {
        let record = parse_flat_object(GOOD).unwrap();
        assert!(check_record(&record).is_ok());
    }

    #[test]
    fn missing_and_malformed_fields_are_reported() {
        let record = parse_flat_object(r#"{"group":"g"}"#).unwrap();
        assert!(check_record(&record).unwrap_err().contains("bench"));
        let record = parse_flat_object(GOOD.replace("900.0", "2000.0").as_str()).unwrap();
        assert!(check_record(&record).unwrap_err().contains("min_ns"));
        let record = parse_flat_object(GOOD.replace("5000000000.0", "1.0").as_str()).unwrap();
        assert!(check_record(&record).unwrap_err().contains("disagrees"));
        let record = parse_flat_object(GOOD.replace(":10,", ":10.5,").as_str()).unwrap();
        assert!(check_record(&record).unwrap_err().contains("iters"));
    }

    #[test]
    fn throughput_pair_is_optional_but_must_be_complete() {
        // The shim omits the pair for benches without a .throughput() call.
        let record = parse_flat_object(
            r#"{"group":"g","bench":"b/one","mean_ns":1000.0,"min_ns":900.0,"iters":10}"#,
        )
        .unwrap();
        assert!(check_record(&record).is_ok());
        // Half a pair is a schema violation.
        let record = parse_flat_object(
            r#"{"group":"g","bench":"b","mean_ns":1000.0,"min_ns":900.0,"iters":10,"throughput_elems":5000}"#,
        )
        .unwrap();
        assert!(check_record(&record).unwrap_err().contains("together"));
    }

    #[test]
    fn cache_baseline_semantics_require_the_hit_path_to_win() {
        let record = |bench: &str, rate: f64| {
            parse_flat_object(&format!(
                r#"{{"group":"ablation_cache","bench":"{bench}","mean_ns":1000.0,"min_ns":900.0,"iters":10,"throughput_elems":1000,"elems_per_sec":{rate}}}"#
            ))
            .unwrap()
        };
        let path = Path::new("BENCH_cache.json");
        let good = vec![
            record("repeat32_96px/hit_path", 1e9),
            record("repeat32_96px/table_no_cache", 1e8),
        ];
        assert!(check_file_semantics(path, &good).is_ok());
        let losing = vec![
            record("repeat32_96px/hit_path", 1e8),
            record("repeat32_96px/table_no_cache", 1e9),
        ];
        assert!(check_file_semantics(path, &losing)
            .unwrap_err()
            .contains("does not beat"));
        let incomplete = vec![record("repeat32_96px/hit_path", 1e9)];
        assert!(check_file_semantics(path, &incomplete)
            .unwrap_err()
            .contains("table_no_cache"));
        // Other baseline files carry no cache-specific requirements.
        assert!(check_file_semantics(Path::new("BENCH_throughput.json"), &incomplete).is_ok());
    }

    #[test]
    fn simd_baseline_semantics_require_the_recorded_2x_win() {
        let record = |bench: &str, rate: f64| {
            parse_flat_object(&format!(
                r#"{{"group":"ablation_simd","bench":"{bench}","mean_ns":1000.0,"min_ns":900.0,"iters":10,"throughput_elems":1000,"elems_per_sec":{rate}}}"#
            ))
            .unwrap()
        };
        let path = Path::new("BENCH_simd.json");
        let good = vec![
            record("classify_rgb/phase_table", 1e8),
            record("classify_rgb/simd_scalar", 1.5e8),
            record("classify_rgb/simd_dispatch", 4e8),
        ];
        assert!(check_file_semantics(path, &good).is_ok());
        // A SIMD rate under 2x the table is a regression even if it still wins.
        let narrow = vec![
            record("classify_rgb/phase_table", 1e8),
            record("classify_rgb/simd_scalar", 1.5e8),
            record("classify_rgb/simd_dispatch", 1.9e8),
        ];
        assert!(check_file_semantics(path, &narrow)
            .unwrap_err()
            .contains("below 2x"));
        // The scalar loop must at least beat the f64 table.
        let scalar_loses = vec![
            record("classify_rgb/phase_table", 1e8),
            record("classify_rgb/simd_scalar", 9e7),
            record("classify_rgb/simd_dispatch", 4e8),
        ];
        assert!(check_file_semantics(path, &scalar_loses)
            .unwrap_err()
            .contains("does not beat"));
        let incomplete = vec![record("classify_rgb/simd_dispatch", 4e8)];
        assert!(check_file_semantics(path, &incomplete)
            .unwrap_err()
            .contains("simd_scalar"));
        // Other baseline files carry no SIMD-specific requirements.
        assert!(check_file_semantics(Path::new("BENCH_throughput.json"), &incomplete).is_ok());
    }

    #[test]
    fn serve_scaling_semantics_require_flat_per_connection_memory() {
        // elems carries RSS bytes per connection in this baseline; mean_ns
        // only has to keep the generic rate-consistency check happy.
        let record = |bench: &str, per_conn_bytes: f64| {
            let rate = per_conn_bytes / (1000.0 / 1e9);
            parse_flat_object(&format!(
                r#"{{"group":"ablation_serve_scaling","bench":"{bench}","mean_ns":1000.0,"min_ns":900.0,"iters":10,"throughput_elems":{per_conn_bytes},"elems_per_sec":{rate}}}"#
            ))
            .unwrap()
        };
        let path = Path::new("BENCH_serve_scaling.json");
        let flat = vec![
            record("connections/evented_64", 4800.0),
            record("connections/evented_256", 1300.0),
            record("connections/evented_1024", 500.0),
        ];
        assert!(check_file_semantics(path, &flat).is_ok());
        // Ballooning per-connection memory at 1024 connections fails, both
        // in absolute terms and relative to the 64-connection leg.
        let over_cap = vec![
            record("connections/evented_64", 4800.0),
            record("connections/evented_256", 64.0 * 1024.0),
            record("connections/evented_1024", 512.0 * 1024.0),
        ];
        assert!(check_file_semantics(path, &over_cap)
            .unwrap_err()
            .contains("cap"));
        let not_flat = vec![
            record("connections/evented_64", 4800.0),
            record("connections/evented_256", 16.0 * 1024.0),
            record("connections/evented_1024", 64.0 * 1024.0),
        ];
        assert!(check_file_semantics(path, &not_flat)
            .unwrap_err()
            .contains("not flat"));
        // Page-granularity noise on tiny deltas stays under the 4 KiB floor.
        let tiny = vec![
            record("connections/evented_64", 1.0),
            record("connections/evented_256", 1.0),
            record("connections/evented_1024", 3000.0),
        ];
        assert!(check_file_semantics(path, &tiny).is_ok());
        let incomplete = vec![record("connections/evented_1024", 500.0)];
        assert!(check_file_semantics(path, &incomplete)
            .unwrap_err()
            .contains("evented_64"));
        // Other baseline files carry no scaling-specific requirements.
        assert!(check_file_semantics(Path::new("BENCH_cache2.json"), &incomplete).is_ok());
    }

    #[test]
    fn video_baseline_semantics_require_the_delta_path_to_win() {
        let record = |bench: &str, rate: f64| {
            parse_flat_object(&format!(
                r#"{{"group":"ablation_video","bench":"{bench}","mean_ns":1000.0,"min_ns":900.0,"iters":10,"throughput_elems":1000,"elems_per_sec":{rate}}}"#
            ))
            .unwrap()
        };
        let path = Path::new("BENCH_video.json");
        let good = vec![
            record("video8_256px/delta_cr5", 2.5e8),
            record("video8_256px/delta_cr25", 1.4e8),
            record("video8_256px/uncached", 9e7),
            record("video8_256px/whole_cache", 8.7e7),
        ];
        assert!(check_file_semantics(path, &good).is_ok());
        // The delta path losing to the uncached classifier at a partial
        // change rate defeats its purpose.
        let slow_delta = vec![
            record("video8_256px/delta_cr5", 2.5e8),
            record("video8_256px/delta_cr25", 8e7),
            record("video8_256px/uncached", 9e7),
            record("video8_256px/whole_cache", 8.7e7),
        ];
        assert!(check_file_semantics(path, &slow_delta)
            .unwrap_err()
            .contains("uncached classifier"));
        // ... as does losing to the whole-image cache on the same stream.
        let slow_vs_whole = vec![
            record("video8_256px/delta_cr5", 2.5e8),
            record("video8_256px/delta_cr25", 1e8),
            record("video8_256px/uncached", 9e7),
            record("video8_256px/whole_cache", 1.2e8),
        ];
        assert!(check_file_semantics(path, &slow_vs_whole)
            .unwrap_err()
            .contains("whole-image cache"));
        let incomplete = vec![record("video8_256px/delta_cr25", 1.4e8)];
        assert!(check_file_semantics(path, &incomplete)
            .unwrap_err()
            .contains("delta_cr5"));
        // Other baseline files carry no video-specific requirements.
        assert!(check_file_semantics(Path::new("BENCH_cache.json"), &incomplete).is_err());
        assert!(check_file_semantics(Path::new("BENCH_throughput.json"), &incomplete).is_ok());
    }

    #[test]
    fn parallel_scaling_semantics_require_each_input_to_get_its_threads() {
        let record = |bench: &str, rate: f64| {
            parse_flat_object(&format!(
                r#"{{"group":"ablation_parallel_scaling","bench":"{bench}","mean_ns":1000.0,"min_ns":900.0,"iters":10,"throughput_elems":1000,"elems_per_sec":{rate}}}"#
            ))
            .unwrap()
        };
        let path = Path::new("BENCH_parallel_scaling.json");
        let rows = |small: f64, large: f64, exact: f64| {
            vec![
                record("simd_256x192/serial", 2e9),
                record("simd_256x192/threads_2", small * 2e9),
                record("simd_3840x2160/serial", 1.2e9),
                record("simd_3840x2160/threads_2", large * 1.2e9),
                record("exact_128x96/serial", 4e6),
                record("exact_128x96/threads_2", exact * 4e6),
            ]
        };
        assert!(check_file_semantics(path, &rows(0.95, 1.9, 1.9)).is_ok());
        assert!(check_file_semantics(path, &rows(0.5, 1.4, 1.3)).is_ok());
        // Threads started for a small split-table frame cost it most of its
        // rate; a large one or a slow kernel left on one thread gains none.
        assert!(check_file_semantics(path, &rows(0.25, 1.9, 1.9))
            .unwrap_err()
            .contains("stay on one thread"));
        assert!(check_file_semantics(path, &rows(0.95, 1.0, 1.9))
            .unwrap_err()
            .contains("still split"));
        assert!(check_file_semantics(path, &rows(0.95, 1.9, 1.0))
            .unwrap_err()
            .contains("keep splitting"));
        let mut incomplete = rows(0.95, 1.9, 1.9);
        incomplete.pop();
        assert!(check_file_semantics(path, &incomplete)
            .unwrap_err()
            .contains("exact_128x96/threads_2"));
        // Other baseline files carry no parallel-scaling requirements.
        assert!(check_file_semantics(Path::new("BENCH_throughput.json"), &incomplete).is_ok());
    }

    #[test]
    fn parser_rejects_broken_json_without_panicking() {
        for bad in [
            "",
            "{",
            r#"{"a"}"#,
            r#"{"a":}"#,
            r#"{"a":1,"#,
            r#"{"a":1} extra"#,
            r#"{"a":{"nested":1}}"#,
            r#"{"a":[1]}"#,
            r#"{"a":1,"a":2}"#,
            r#"{"a":frue}"#,
            r#"{"a":"unterminated}"#,
        ] {
            assert!(parse_flat_object(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn parser_handles_strings_escapes_bools_and_null() {
        let object =
            parse_flat_object(r#"{ "s" : "a\"b\\c" , "t" : true , "f" : false , "n" : null }"#)
                .unwrap();
        assert_eq!(object["s"], Value::String("a\"b\\c".to_string()));
        assert_eq!(object["t"], Value::Bool(true));
        assert_eq!(object["f"], Value::Bool(false));
        assert_eq!(object["n"], Value::Null);
        assert_eq!(parse_flat_object("{}").unwrap().len(), 0);
    }
}
