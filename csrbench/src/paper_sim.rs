//! `paper_sim`: the paper's Table 2, computed cell by cell by
//! `csr_harness::table2` and checked against the table `experiments
//! table2` prints.
//!
//! The traces are the harness's own, generated at its fixed seed, so the
//! expected table does not depend on the workload seed; the seed orders
//! the cells within each pass. Each cell is one `table2` call over one
//! benchmark, ratio and policy, which simulates the trace twice (the LRU
//! baseline and the policy). Cells are drawn closed loop by one thread per
//! hardware thread, and passes repeat until the timed phase is over, so
//! every run covers whole tables.

use crate::layers;
use crate::meta::{self, available_parallelism};
use crate::spans::{self, Clock, Span};
use crate::stats::{median, quantile, ratio, Latency};
use crate::workload::{self, HIT_HEAVY};
use crate::{Opts, Report, SETUPS};
use csr_harness::{
    build_benchmarks, table2, Benchmark, CostRatio, PolicyKind, Scale, TraceSimConfig,
};
use mem_trace::rng::SplitMix64;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// `experiments table2` output at the harness seed.
const EXPECTED: &str = include_str!("../table2_expected.txt");

/// One Table 2 cell: benchmark index, ratio, policy.
type Cell = (usize, CostRatio, PolicyKind);

/// Expected two-decimal savings by (benchmark, policy label, ratio label).
fn expected() -> HashMap<(String, String, String), String> {
    let mut lines = EXPECTED
        .lines()
        .filter(|l| !l.starts_with('=') && !l.starts_with('-'));
    let header: Vec<&str> = lines
        .next()
        .expect("table header")
        .split_whitespace()
        .collect();
    let mut out = HashMap::new();
    for line in lines {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != header.len() {
            continue;
        }
        for (ratio, value) in header[2..].iter().zip(&f[2..]) {
            out.insert(
                (f[0].to_owned(), f[1].to_owned(), (*ratio).to_owned()),
                (*value).to_owned(),
            );
        }
    }
    out
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    cells: u64,
    cell_ns: Vec<u64>,
    pass_rates: Vec<f64>,
    accesses: u64,
    cpu_s: f64,
    spans: Vec<Span>,
}

impl Phase {
    /// Process CPU time per simulated access, µs.
    fn cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e6, self.accesses as f64)
    }
}

fn shuffled(cells: &[Cell], seed: u64, pass: u64) -> Vec<Cell> {
    let mut order = cells.to_vec();
    let mut rng = SplitMix64::new(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407));
    for i in (1..order.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

fn phase(
    benchmarks: &[Benchmark],
    cells: &[Cell],
    opts: &Opts,
    traced: bool,
    clock: Clock,
    report: &mut Report,
) -> Phase {
    let want = expected();
    let cfg = TraceSimConfig::paper_basic();
    let threads = available_parallelism();
    let mut out = Phase::default();
    let wrong = Mutex::new(Vec::new());
    let cpu0 = meta::process_cpu_s();
    let t0 = Instant::now();
    let mut pass = 0u64;
    while pass == 0 || t0.elapsed().as_secs_f64() < opts.seconds {
        let order = shuffled(cells, opts.seed, pass);
        let next = AtomicUsize::new(0);
        let pass_start = Instant::now();
        let per_thread: Vec<(Vec<u64>, Vec<Span>, u64)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let (order, next, want, wrong) = (&order, &next, &want, &wrong);
                    s.spawn(move || {
                        let mut ns = Vec::new();
                        let mut spans = Vec::new();
                        let mut accesses = 0u64;
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&(bi, ratio, policy)) = order.get(i) else {
                                break;
                            };
                            let start_ns = clock.now_ns();
                            let c0 = Instant::now();
                            let got = table2(&benchmarks[bi..=bi], &[ratio], &[policy], cfg, 1);
                            ns.push(u64::try_from(c0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                            if traced {
                                spans.push(Span {
                                    id: ((t as u64 + 1) << 40) | (pass << 20) | i as u64,
                                    parent: 0,
                                    name: "table2.cell",
                                    start_ns,
                                    end_ns: clock.now_ns(),
                                });
                            }
                            accesses += 2 * benchmarks[bi].sampled.events().len() as u64;
                            let key = (
                                benchmarks[bi].name.clone(),
                                policy.to_string(),
                                ratio.to_string(),
                            );
                            let value = got.first().map(|c| format!("{:.2}", c.savings_pct));
                            if want.get(&key) != value.as_ref() {
                                wrong
                                    .lock()
                                    .expect("wrong-cell list lock poisoned")
                                    .push(format!(
                                        "table2 {key:?} computed {value:?}, expected {:?}",
                                        want.get(&key)
                                    ));
                            }
                        }
                        (ns, spans, accesses)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("table2 worker panicked"))
                .collect()
        });
        let secs = pass_start.elapsed().as_secs_f64();
        let mut accesses = 0;
        for (ns, spans, a) in per_thread {
            out.cells += ns.len() as u64;
            out.cell_ns.extend(ns);
            out.spans.extend(spans);
            accesses += a;
        }
        out.pass_rates.push(accesses as f64 / secs);
        out.accesses += accesses;
        pass += 1;
    }
    out.cpu_s = meta::process_cpu_s() - cpu0;
    for w in wrong.into_inner().expect("wrong-cell list lock poisoned") {
        report.wrong(w);
    }
    out
}

/// Runs `paper_sim`.
///
/// # Errors
///
/// The traced run's persistence pass can fail on I/O.
pub fn run(opts: &Opts, report: &mut Report) -> io::Result<()> {
    let mut setup_times = Vec::new();
    let mut benchmarks = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        benchmarks = build_benchmarks(Scale::Quick);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let cells: Vec<Cell> = (0..benchmarks.len())
        .flat_map(|bi| {
            CostRatio::TABLE2
                .into_iter()
                .flat_map(move |r| PolicyKind::PAPER_SET.into_iter().map(move |p| (bi, r, p)))
        })
        .collect();
    let setup_s = median(&setup_times);
    let clock = Clock::start();

    let plain = phase(&benchmarks, &cells, opts, false, clock, report);
    report.attempted = plain.cells;
    let mut ns = plain.cell_ns.clone();
    let cell = Latency::of(&mut ns).expect("at least one pass");
    let rate = median(&plain.pass_rates);
    report
        .end_to_end
        .push(("cpu_us_per_op", plain.cpu_us_per_op(), "us"));
    report.end_to_end.push(("setup_s", setup_s, "s"));
    report.note(format!(
        "sim_accesses_per_s = {rate} 1/s (median of {} passes; an op is one simulated access, \
         so this is also throughput_ops_s)",
        plain.pass_rates.len()
    ));
    report.note(format!(
        "op_p90_us = {} us (p90 of one Table 2 cell)",
        quantile(&ns, 0.9) as f64 / 1000.0
    ));
    report.note(format!(
        "table2 cells = {} ({} per pass, all checked); an op_p90_us sample is one cell; \
         cell p50 = {} us, {} = {} us",
        plain.cells,
        cells.len(),
        cell.p50_ns as f64 / 1000.0,
        cell.tail_label(),
        cell.tail_ns as f64 / 1000.0
    ));
    report.note(format!(
        "setup_s runs = {:?}",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
    ));

    if opts.trace {
        let mut traced = phase(&benchmarks, &cells, opts, true, clock, report);
        let mut spans = std::mem::take(&mut traced.spans);
        // The serve layers do not run in this workload.
        for name in [
            "csr_cache.hit_ratio",
            "csr_cache.evictions_per_op",
            "csr_cache.reservations_per_eviction",
            "backing.fetches_per_op",
        ] {
            report.layer(name, 0.0, "ratio");
        }
        report.layer("backing.nominal_us_per_op", 0.0, "us");
        report.layer("backing.busy_s", 0.0, "s");
        report.layer("backing.overshoot_us", 0.0, "us");
        report.layer("persist.appends_per_set", 0.0, "ratio");
        report.layer("persist.fsyncs", 0.0, "count");
        report.layer("persist.snapshots", 0.0, "count");
        report.layer("persist.disk_bytes_per_live_byte", 0.0, "ratio");
        let cdf = workload::zipf_cdf(workload::ranks_per_conn(&HIT_HEAVY, 1), HIT_HEAVY.theta);
        let frames = vec![workload::stream(&HIT_HEAVY, &cdf, opts.seed, 0, 1, 4096)];
        layers::run_all(
            &HIT_HEAVY,
            opts,
            &frames,
            None,
            Some((&benchmarks, setup_s)),
            &mut spans,
            report,
        )?;
        report.layer("engine.self_us", 0.0, "us");
        report.layer(
            "trace.overhead_pct",
            ratio(
                traced.cpu_us_per_op() - plain.cpu_us_per_op(),
                plain.cpu_us_per_op(),
            ) * 100.0,
            "%",
        );
        let path = opts.spans_path();
        spans::write_jsonl(&path, &spans)?;
        report.note(format!("spans written to {}", path.display()));
    }
    Ok(())
}
