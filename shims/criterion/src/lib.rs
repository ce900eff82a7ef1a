//! Offline shim for the subset of the `criterion` benchmarking API this
//! workspace uses.
//!
//! The build container has no crates.io access, so the 13 bench targets link
//! against this minimal harness instead of real criterion.  It measures wall
//! clock only — no outlier rejection, no plots — but keeps the same source
//! API (`criterion_group!`, `criterion_main!`, groups, `bench_with_input`,
//! throughput annotations), so swapping the real crate back in is a one-line
//! manifest change.
//!
//! Results are printed one line per benchmark.  Set `CRITERION_JSON=<path>`
//! to also append machine-readable records (one JSON object per line) — the
//! workspace uses this to snapshot baselines such as
//! `BENCH_parallel_scaling.json`.

use std::io::Write as _;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub(crate) use std::hint::black_box;

/// One finished measurement, exported via `CRITERION_JSON`.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    bench: String,
    mean_ns: f64,
    min_ns: f64,
    iters: u64,
    throughput_elems: Option<u64>,
}

fn records() -> &'static Mutex<Vec<Record>> {
    static RECORDS: OnceLock<Mutex<Vec<Record>>> = OnceLock::new();
    RECORDS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Writes every collected record to `$CRITERION_JSON` (JSON lines, append).
///
/// Called automatically by [`criterion_main!`]; harmless when the variable is
/// unset.
pub fn export_json_if_requested() {
    let Ok(path) = std::env::var("CRITERION_JSON") else {
        return;
    };
    let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    else {
        eprintln!("criterion shim: cannot open {path} for JSON export");
        return;
    };
    for r in records().lock().unwrap().iter() {
        let throughput = match r.throughput_elems {
            Some(n) => format!(
                ",\"throughput_elems\":{n},\"elems_per_sec\":{:.1}",
                n as f64 / (r.mean_ns * 1e-9)
            ),
            None => String::new(),
        };
        let _ = writeln!(
            file,
            "{{\"group\":\"{}\",\"bench\":\"{}\",\"mean_ns\":{:.1},\"min_ns\":{:.1},\"iters\":{}{}}}",
            r.group, r.bench, r.mean_ns, r.min_ns, r.iters, throughput
        );
    }
}

/// Identifies a benchmark within a group (`function_name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Creates an id rendered as `function_name/parameter`.
    pub fn new<S: Into<String>, P: std::fmt::Display>(function_name: S, parameter: P) -> Self {
        Self {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        Self { id }
    }
}

/// Units-of-work annotation for a benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Number of elements processed per iteration.
    Elements(u64),
    /// Number of bytes processed per iteration.
    Bytes(u64),
}

/// Passed to benchmark closures; runs the measured routine.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    iters_per_sample: u64,
    sample_count: u64,
}

impl Bencher<'_> {
    /// Times `routine`, running it enough times to fill the configured
    /// sample budget.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // One untimed call warms caches and gives a cost estimate.
        black_box(routine());
        for _ in 0..self.sample_count {
            let start = Instant::now();
            for _ in 0..self.iters_per_sample {
                black_box(routine());
            }
            self.samples.push(start.elapsed());
        }
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: u64,
    measurement_time: Duration,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1) as u64;
        self
    }

    /// Accepted for API compatibility; the shim has no separate warm-up
    /// phase beyond the one untimed call in [`Bencher::iter`].
    pub fn warm_up_time(&mut self, _d: Duration) -> &mut Self {
        self
    }

    /// Sets the per-benchmark measurement budget.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Annotates subsequent benchmarks with a units-of-work throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Benchmarks `f` under `id`.
    pub fn bench_function<I: Into<BenchmarkId>, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.id, |b| f(b));
        self
    }

    /// Benchmarks `f` under `id`, passing `input` through.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        I: ?Sized,
        F: FnMut(&mut Bencher, &I),
    {
        self.run(&id.id, |b| f(b, input));
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, bench_name: &str, mut f: F) {
        if let Some(filter) = &self.criterion.filter {
            let full = format!("{}/{}", self.name, bench_name);
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        // Calibration pass: one sample of one iteration.
        let mut calibration: Vec<Duration> = Vec::new();
        {
            let mut b = Bencher {
                samples: &mut calibration,
                iters_per_sample: 1,
                sample_count: 1,
            };
            f(&mut b);
        }
        let per_iter = calibration
            .first()
            .copied()
            .unwrap_or(Duration::from_nanos(1))
            .max(Duration::from_nanos(1));
        // Scale iterations so sample_size samples fit the measurement budget.
        let budget = self.measurement_time.as_secs_f64();
        let iters_total = (budget / per_iter.as_secs_f64()).clamp(1.0, 1e9) as u64;
        let iters_per_sample = (iters_total / self.sample_size).max(1);

        let mut samples: Vec<Duration> = Vec::new();
        {
            let mut b = Bencher {
                samples: &mut samples,
                iters_per_sample,
                sample_count: self.sample_size,
            };
            f(&mut b);
        }
        let per_sample_ns: Vec<f64> = samples
            .iter()
            .map(|d| d.as_nanos() as f64 / iters_per_sample as f64)
            .collect();
        let iters = iters_per_sample * per_sample_ns.len().max(1) as u64;
        let mean_ns = per_sample_ns.iter().sum::<f64>() / per_sample_ns.len().max(1) as f64;
        let min_ns = per_sample_ns.iter().copied().fold(f64::INFINITY, f64::min);
        let throughput_elems = match self.throughput {
            Some(Throughput::Elements(n)) => Some(n),
            _ => None,
        };
        let full = format!("{}/{}", self.name, bench_name);
        match throughput_elems {
            Some(n) => println!(
                "bench {full:<60} mean {:>12.1} ns/iter  min {:>12.1} ns/iter  {:>12.0} elem/s",
                mean_ns,
                min_ns,
                n as f64 / (mean_ns * 1e-9)
            ),
            None => println!(
                "bench {full:<60} mean {:>12.1} ns/iter  min {:>12.1} ns/iter",
                mean_ns, min_ns
            ),
        }
        records().lock().unwrap().push(Record {
            group: self.name.clone(),
            bench: bench_name.to_string(),
            mean_ns,
            min_ns,
            iters,
            throughput_elems,
        });
    }

    /// Ends the group (printing is incremental, so this is a no-op marker).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Default)]
pub struct Criterion {
    filter: Option<String>,
}

impl Criterion {
    /// Applies command-line configuration (`cargo bench` passes `--bench`
    /// plus an optional substring filter; everything unknown is ignored).
    pub fn configure_from_args(mut self) -> Self {
        let mut args = std::env::args().skip(1).peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--bench" | "--test" | "--verbose" | "--quiet" | "--noplot" => {}
                "--save-baseline" | "--baseline" | "--measurement-time" | "--sample-size"
                | "--warm-up-time" => {
                    let _ = args.next();
                }
                other if other.starts_with("--") => {}
                filter => self.filter = Some(filter.to_string()),
            }
        }
        self
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            measurement_time: Duration::from_millis(500),
            throughput: None,
        }
    }
}

/// Declares a group function that runs each listed benchmark with a fresh
/// [`Criterion`], mirroring real criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` for a bench target with `harness = false`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::export_json_if_requested();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_measure_and_record() {
        let mut c = Criterion::default();
        {
            let mut g = c.benchmark_group("shim_selftest");
            g.sample_size(3)
                .measurement_time(Duration::from_millis(5))
                .throughput(Throughput::Elements(100));
            g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
            g.bench_with_input(BenchmarkId::new("sum_n", 50), &50u64, |b, &n| {
                b.iter(|| (0..n).sum::<u64>())
            });
            g.finish();
        }
        let recs = records().lock().unwrap();
        let ours: Vec<_> = recs.iter().filter(|r| r.group == "shim_selftest").collect();
        assert_eq!(ours.len(), 2);
        assert!(ours.iter().all(|r| r.mean_ns > 0.0 && r.iters >= 3));
        assert_eq!(ours[0].throughput_elems, Some(100));
    }

    #[test]
    fn benchmark_id_formats_like_criterion() {
        assert_eq!(BenchmarkId::new("128x128", "serial").id, "128x128/serial");
    }
}
