//! Standalone passes that time one layer at a time, run only in traced
//! runs: the policy simulator (`run_sampled`), `CsrCache`, the wire
//! protocol (`proto`) and persistence (`persist`). Each timed batch is
//! recorded as a span; each figure is the median over batches.

use crate::meta::available_parallelism;
use crate::origin::Origin;
use crate::spans::{Clock, Span};
use crate::stats::median;
use crate::workload::{self, Op, ServeSpec};
use crate::{Opts, Report};
use csr_cache::{CsrCache, Policy};
use csr_harness::{
    build_benchmarks, run_sampled, Benchmark, CostRatio, PolicyKind, Scale, TraceSimConfig,
};
use csr_serve::persist::{decode_stream, Record, OP_SET};
use csr_serve::proto::{read_request, write_value};
use csr_serve::{serve, Bytes, NoBacking, PersistConfig, ServerConfig};
use mem_trace::FirstTouchCostMap;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the serve workloads need from the passes to split a request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Passes {
    /// `CsrCache::get` hit, ns.
    pub get_hit_ns: f64,
    /// `read_request` per frame, ns.
    pub parse_ns: f64,
    /// `write_value` per reply, ns.
    pub render_ns: f64,
}

/// Records timed batches as spans under one clock.
struct Timer<'a> {
    clock: Clock,
    spans: &'a mut Vec<Span>,
    next_id: u64,
}

impl Timer<'_> {
    /// Runs `batch` (which does `per_batch` operations) at least
    /// `min_batches` times and until `budget` has passed; returns the
    /// median ns per operation.
    fn per_op(
        &mut self,
        name: &'static str,
        per_batch: usize,
        min_batches: usize,
        budget: Duration,
        mut batch: impl FnMut(),
    ) -> f64 {
        let t0 = Instant::now();
        let mut per = Vec::new();
        while per.len() < min_batches || (t0.elapsed() < budget && per.len() < 1000) {
            let start_ns = self.clock.now_ns();
            let b = Instant::now();
            batch();
            let ns = b.elapsed().as_nanos() as f64;
            self.spans.push(Span {
                id: self.next_id,
                parent: 0,
                name,
                start_ns,
                end_ns: self.clock.now_ns(),
            });
            self.next_id += 1;
            per.push(ns / per_batch as f64);
        }
        median(&per)
    }
}

/// The origin's value for `key`, and its nominal fetch cost in µs: what
/// a read-through fill would insert.
fn entry(origin: &Origin, key: &str) -> (Bytes, u64) {
    (Bytes::from(origin.value_for(key)), origin.nominal_us(key))
}

fn cache_passes(spec: &ServeSpec, seed: u64, timer: &mut Timer<'_>, report: &mut Report) -> f64 {
    let dcl = Policy::parse(workload::POLICY).expect("a built-in policy name");
    let build = |shards: Option<usize>| {
        let b = CsrCache::<String, Bytes>::builder(spec.capacity).policy(dcl);
        match shards {
            Some(n) => b.shards(n).build(),
            None => b.build(),
        }
    };
    let origin = Origin::new(spec.sim(), timer.clock);
    let fill = |cache: &CsrCache<String, Bytes>, id: u32| {
        let k = workload::key(id);
        let (v, cost) = entry(&origin, &k);
        cache.insert_with_cost(k, v, cost);
    };

    // Hits: the workload's key space (at most the capacity) resident,
    // probed in a seeded Zipf order.
    let resident = (spec.keys as usize).min(spec.capacity) as u32;
    let cache = build(None);
    for id in 0..resident {
        fill(&cache, id);
    }
    let cdf = workload::zipf_cdf(resident as usize, spec.theta);
    let probe: Vec<String> = workload::stream(spec, &cdf, seed, 0, 1, 16_384)
        .into_iter()
        .map(|op| workload::key(op.id()))
        .collect();
    let get_hit_ns = timer.per_op(
        "csr_cache.get",
        probe.len(),
        7,
        Duration::from_millis(150),
        || {
            for k in &probe {
                black_box(cache.get(k));
            }
        },
    );
    report.layer("csr_cache.get_hit_ns", get_hit_ns, "ns");

    // Inserts into a full cache: each one evicts. At the default shard
    // count, then at 1k/4k/32k entries per shard of the same capacity.
    let mut sweep = vec![("csr_cache.insert_evict_ns".to_owned(), None)];
    for per_shard in [1024usize, 4096, 32_768] {
        let shards = (spec.capacity / per_shard).max(1);
        sweep.push((
            format!("csr_cache.insert_evict_ns.shard_{}k", per_shard / 1024),
            Some(shards),
        ));
    }
    for (name, shards) in sweep {
        let cache = build(shards);
        for id in 0..spec.capacity as u32 {
            fill(&cache, id);
        }
        let mut next = spec.capacity as u32;
        let batch = 128;
        let ns = timer.per_op(
            "csr_cache.insert_evict",
            batch,
            5,
            Duration::from_millis(150),
            || {
                for _ in 0..batch {
                    fill(&cache, next);
                    next += 1;
                }
            },
        );
        report.layer(&name, ns, "ns");
    }
    get_hit_ns
}

/// `read_request` over the workload's own request frames, and
/// `write_value` over its GET replies.
fn proto_passes(
    spec: &ServeSpec,
    stream: &[Op],
    timer: &mut Timer<'_>,
    report: &mut Report,
) -> (f64, f64) {
    let mut frames = Vec::new();
    let mut gets = Vec::new();
    for (pos, op) in stream.iter().take(4096).enumerate() {
        let key = workload::key(op.id());
        if op.is_set() {
            let mut v = Vec::new();
            workload::set_value_into(&mut v, &key, 0, pos, spec.value_len);
            frames.extend_from_slice(
                format!(
                    "SET {key} {} {:08x}\r\n",
                    v.len(),
                    csr_serve::proto::crc32(&v)
                )
                .as_bytes(),
            );
            frames.extend_from_slice(&v);
            frames.extend_from_slice(b"\r\n");
        } else {
            frames.extend_from_slice(format!("GET {key}\r\n").as_bytes());
            let value = spec.sim().value_for(&key);
            gets.push((key, value));
        }
    }
    let n = stream.len().min(4096);
    let parse_ns = timer.per_op(
        "proto.read_request",
        n,
        7,
        Duration::from_millis(100),
        || {
            let mut r = &frames[..];
            while let Some(req) = read_request(&mut r).expect("benchmark frames parse") {
                black_box(req);
            }
        },
    );
    let mut out = Vec::with_capacity(gets.len() * (spec.value_len + 64));
    let render_ns = timer.per_op(
        "proto.write_value",
        gets.len().max(1),
        7,
        Duration::from_millis(100),
        || {
            out.clear();
            for (k, v) in &gets {
                write_value(&mut out, k, v).expect("writing to a Vec");
            }
            black_box(&out);
        },
    );
    report.layer("proto.parse_ns", parse_ns, "ns");
    report.layer("proto.render_ns", render_ns, "ns");
    (parse_ns, render_ns)
}

fn persisted_files(dir: &Path) -> io::Result<Vec<Vec<u8>>> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "log" || x == "snap"))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|p| {
            let bytes = std::fs::read(&p)?;
            let body = if p.extension().is_some_and(|x| x == "snap") {
                bytes.get(8..).unwrap_or_default().to_vec()
            } else {
                bytes
            };
            Ok(body)
        })
        .collect()
}

/// `decode_stream` over persisted files, and recovery through `serve()`
/// on them. A run without its own files writes its key space as one WAL
/// segment first.
fn persist_passes(
    spec: &ServeSpec,
    opts: &Opts,
    own_dir: Option<&Path>,
    timer: &mut Timer<'_>,
    report: &mut Report,
) -> io::Result<()> {
    let dir = match own_dir {
        Some(d) => d.to_path_buf(),
        None => {
            let d = opts.run_dir.join("persist-pass");
            std::fs::create_dir_all(&d)?;
            let mut wal = Vec::new();
            let n = (spec.keys as usize).min(spec.capacity) as u32;
            let origin = Origin::new(spec.sim(), timer.clock);
            for id in 0..n {
                let key = workload::key(id);
                let (value, cost) = entry(&origin, &key);
                let gen = u64::from(id) + 1;
                let value = value.to_vec();
                wal.extend(
                    Record {
                        op: OP_SET,
                        gen,
                        cost,
                        key,
                        value,
                    }
                    .encode(),
                );
            }
            std::fs::write(d.join(format!("wal-{:016x}.log", 0)), wal)?;
            d
        }
    };
    let files = persisted_files(&dir)?;
    let records: usize = files.iter().map(|f| decode_stream(f).0.len()).sum();
    let decode_ns = timer.per_op(
        "persist.decode_stream",
        records.max(1),
        5,
        Duration::from_millis(100),
        || {
            for f in &files {
                black_box(decode_stream(f));
            }
        },
    );
    report.layer("persist.decode_ns_per_record", decode_ns, "ns");

    let mut rates = Vec::new();
    for _ in 0..3 {
        let config = ServerConfig {
            capacity: spec.capacity,
            persist: Some(PersistConfig {
                dir: dir.clone(),
                ..PersistConfig::default()
            }),
            ..ServerConfig::default()
        };
        let start_ns = timer.clock.now_ns();
        let t0 = Instant::now();
        let handle = serve(config, Arc::new(NoBacking))?;
        let secs = t0.elapsed().as_secs_f64();
        timer.spans.push(Span {
            id: timer.next_id,
            parent: 0,
            name: "persist.recover",
            start_ns,
            end_ns: timer.clock.now_ns(),
        });
        timer.next_id += 1;
        let recovered = handle
            .registry()
            .snapshot()
            .family("csr_serve_persist_recovered_entries")
            .and_then(|f| f.sample_with(&[]))
            .and_then(|s| s.value.as_counter())
            .unwrap_or(0);
        handle.shutdown()?;
        rates.push(recovered as f64 / secs);
    }
    report.layer("persist.recovery_entries_per_s", median(&rates), "1/s");
    report.note(format!("persist passes over {records} records"));
    Ok(())
}

/// `run_sampled` per policy over the four Table 2 traces at r = 8 (first
/// touch); the cost-sensitive policies are reported above the LRU floor.
fn sim_passes(benchmarks: &[Benchmark], timer: &mut Timer<'_>, report: &mut Report) {
    let cfg = TraceSimConfig::paper_basic();
    let maps: Vec<FirstTouchCostMap> = benchmarks
        .iter()
        .map(|b| {
            FirstTouchCostMap::new(
                b.placement.clone(),
                b.sample,
                CostRatio::Finite(8).pair(),
                cfg.l2.block_bytes(),
            )
        })
        .collect();
    let events: usize = benchmarks.iter().map(|b| b.sampled.events().len()).sum();
    let policies = [
        PolicyKind::Lru,
        PolicyKind::Gd,
        PolicyKind::Bcl,
        PolicyKind::Dcl,
        PolicyKind::Acl,
    ];
    let mut times = vec![Vec::new(); policies.len()];
    let mut misses = [0u64; 5];
    for _ in 0..3 {
        for (i, &p) in policies.iter().enumerate() {
            let start_ns = timer.clock.now_ns();
            let t0 = Instant::now();
            let mut m = 0;
            for (b, map) in benchmarks.iter().zip(&maps) {
                m += black_box(run_sampled(&b.sampled, map, p, cfg)).l2.misses;
            }
            times[i].push(t0.elapsed().as_nanos() as f64 / events as f64);
            timer.spans.push(Span {
                id: timer.next_id,
                parent: 0,
                name: "run_sampled",
                start_ns,
                end_ns: timer.clock.now_ns(),
            });
            timer.next_id += 1;
            misses[i] = m;
        }
    }
    let lru = median(&times[0]);
    report.layer("cache_sim.ns_per_access.lru", lru, "ns");
    for (i, p) in policies.iter().enumerate().skip(1) {
        let name = format!("csr.ns_per_access.{}", p.label().to_lowercase());
        report.layer(&name, median(&times[i]) - lru, "ns");
    }
    for (i, p) in policies.iter().enumerate() {
        report.layer(
            &format!("cache_sim.misses.{}", p.label().to_lowercase()),
            misses[i] as f64,
            "count",
        );
    }
}

/// Runs every standalone pass. `spec` and `streams` give the key space,
/// frames and values; `own_dir` the run's persisted files, if any;
/// `generated` the Table 2 traces and the median time that made them,
/// when the run already built them.
///
/// # Errors
///
/// Writing or recovering the persistence pass's files.
pub fn run_all(
    spec: &ServeSpec,
    opts: &Opts,
    streams: &[Vec<Op>],
    own_dir: Option<&Path>,
    generated: Option<(&[Benchmark], f64)>,
    spans: &mut Vec<Span>,
    report: &mut Report,
) -> io::Result<Passes> {
    let mut timer = Timer {
        clock: Clock::start(),
        spans,
        next_id: 1 << 61,
    };
    let built;
    let (benchmarks, generate_s) = match generated {
        Some(g) => g,
        None => {
            let t0 = Instant::now();
            built = build_benchmarks(Scale::Quick);
            (&built[..], t0.elapsed().as_secs_f64())
        }
    };
    report.layer("mem_trace.generate_s", generate_s, "s");
    sim_passes(benchmarks, &mut timer, report);
    let get_hit_ns = cache_passes(spec, opts.seed, &mut timer, report);
    let (parse_ns, render_ns) = proto_passes(spec, &streams[0], &mut timer, report);
    persist_passes(spec, opts, own_dir, &mut timer, report)?;
    report.note(format!(
        "standalone passes: single-threaded, {} hardware threads available",
        available_parallelism()
    ));
    Ok(Passes {
        get_hit_ns,
        parse_ns,
        render_ns,
    })
}
