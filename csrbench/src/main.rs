//! `csrbench` — the repository's benchmark.
//!
//! ```text
//! csrbench --workload <hit_heavy|evict_heavy|write_durable|paper_sim>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The serve workloads start `csr-serve` in this process and drive it
//! closed loop over loopback, one blocking `Client` per hardware thread,
//! each replaying its own seeded request stream. `paper_sim` computes the
//! paper's Table 2 cell by cell. Every reply and every Table 2 cell is
//! checked; a wrong one fails the run.
//!
//! With `--trace 0` the last line of standard output is a JSON object
//! holding the end-to-end metrics. With `--trace 1` the workload also runs
//! with spans recorded around every call into a layer, beside an untraced
//! phase of equal length; standalone passes then time each layer on its
//! own, and the JSON holds the per-layer metrics. Spans are written to
//! `.bench_run/spans-<workload>-seed<n>.jsonl` at exit.

mod layers;
mod meta;
mod origin;
mod paper_sim;
mod serve_run;
mod spans;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Workload seed: the only source of the generated inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Run traced and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory for this run (persistence, span dump).
    pub run_dir: PathBuf,
}

impl Opts {
    /// Where a traced run writes its spans.
    #[must_use]
    pub fn spans_path(&self) -> PathBuf {
        PathBuf::from(".bench_run").join(format!("spans-{}-seed{}.jsonl", self.workload, self.seed))
    }
}

/// Everything a run found, printed at exit.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics: `(name, value, unit)`.
    pub end_to_end: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics: `(name, value, unit)`.
    pub per_layer: Vec<(String, f64, &'static str)>,
    /// Further human-readable lines (workload-specific figures, sample
    /// counts, the quantile behind each tail).
    pub notes: Vec<String>,
    /// Operations attempted in the timed phase.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Wrong outputs (the first few are described in `wrong_examples`).
    pub wrong: u64,
    /// Descriptions of the first wrong outputs.
    pub wrong_examples: Vec<String>,
    /// `VmHWM` at the point the workload chose; the process peak at exit
    /// when it chose none.
    pub peak_rss_mib: Option<f64>,
}

impl Report {
    /// Records a wrong output.
    pub fn wrong(&mut self, what: String) {
        self.wrong += 1;
        if self.wrong_examples.len() < 5 {
            self.wrong_examples.push(what);
        }
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Adds a per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push((name.to_owned(), value, unit));
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: csrbench --workload <hit_heavy|evict_heavy|write_durable|paper_sim> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn parse_args() -> Option<Opts> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().ok()?),
            "--seconds" => seconds = Some(value.parse::<f64>().ok().filter(|s| *s > 0.0)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                });
            }
            _ => return None,
        }
    }
    let workload = workload?;
    let run_dir = PathBuf::from(".bench_run").join(format!("{workload}-{}", std::process::id()));
    Some(Opts {
        workload,
        seed: seed?,
        seconds: seconds?,
        trace: trace?,
        run_dir,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else {
        return usage();
    };
    let spec = [
        workload::HIT_HEAVY,
        workload::EVICT_HEAVY,
        workload::WRITE_DURABLE,
    ]
    .into_iter()
    .find(|s| s.name == opts.workload);
    if spec.is_none() && opts.workload != "paper_sim" {
        return usage();
    }
    if let Err(e) = std::fs::create_dir_all(&opts.run_dir) {
        eprintln!("csrbench: cannot create {}: {e}", opts.run_dir.display());
        return ExitCode::FAILURE;
    }
    let fs = meta::fs_type(&opts.run_dir);
    let mut report = Report::default();
    let outcome = match &spec {
        Some(spec) => serve_run::run(spec, &opts, &mut report),
        None => paper_sim::run(&opts, &mut report),
    };
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    if let Err(e) = outcome {
        eprintln!("csrbench: {} failed: {e}", opts.workload);
        return ExitCode::FAILURE;
    }

    let peak = report.peak_rss_mib.unwrap_or_else(meta::peak_rss_mib);
    if !opts.trace {
        report.end_to_end.push(("peak_rss_mb", peak, "MiB"));
    }
    println!(
        "meta {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"available_parallelism\":{},\"build_profile\":{},\"rustc\":{},\
         \"git_commit\":{},\"persist_fs\":{}}}",
        json_str(&opts.workload),
        opts.seed,
        opts.seconds,
        opts.trace,
        meta::available_parallelism(),
        json_str(meta::build_profile()),
        json_str(&meta::rustc_version()),
        json_str(&meta::git_commit()),
        json_str(&fs),
    );
    for line in &report.notes {
        println!("{line}");
    }
    let mut metrics = Vec::new();
    if opts.trace {
        for (name, value, unit) in &report.per_layer {
            println!("{name} = {value} {unit}");
            metrics.push((name.clone(), *value, *unit));
        }
    } else {
        for (name, value, unit) in &report.end_to_end {
            println!("{name} = {value} {unit}");
            metrics.push(((*name).to_owned(), *value, *unit));
        }
    }
    for w in &report.wrong_examples {
        eprintln!("csrbench: WRONG {w}");
    }
    let correct = report.wrong == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}:{{\"value\":{value},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        body.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("csrbench: {} wrong outputs", report.wrong);
        ExitCode::FAILURE
    }
}
