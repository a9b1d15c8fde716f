//! The serve workloads: `csr-serve` started in this process with the
//! benchmark's origin, driven closed loop over loopback.

use crate::layers;
use crate::meta::{self, available_parallelism};
use crate::origin::{Origin, OriginCounts};
use crate::spans::{self, Clock, Span};
use crate::stats::{chunk_p90_ns, chunk_throughput, median, ratio, Chunks, Hist, Latency, CHUNK};
use crate::workload::{self, Op, ServeSpec, STREAM_LEN};
use crate::{Opts, Report, SETUPS};
use csr_cache::Policy;
use csr_serve::{serve, Client, FsyncPolicy, PersistConfig, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// GETs per pipelined batch when reading every key (warm-up, and the
/// read-back after a restart).
const READ_BATCH: usize = 64;

/// What one connection's key has been acknowledged as holding.
#[derive(Debug, Default, Clone)]
struct KeyState {
    /// Stream position of the last acknowledged SET.
    acked: Option<usize>,
    /// SETs since then whose outcome is unknown (the request failed).
    maybe: Vec<usize>,
}

/// Per-connection model of every key the connection has SET.
type Model = HashMap<u32, KeyState>;

/// One set-up: streams generated, server started, cache warmed.
struct Bench {
    spec: ServeSpec,
    conns: usize,
    streams: Vec<Vec<Op>>,
    origin: Arc<Origin>,
    config: ServerConfig,
    handle: Option<ServerHandle>,
    clients: Vec<Client>,
    models: Vec<Model>,
    clock: Clock,
}

/// What one timed phase measured.
#[derive(Debug, Default)]
struct Phase {
    ops: u64,
    sets: u64,
    failed: u64,
    /// Per connection, accumulated over phases.
    chunks: Vec<Chunks>,
    get: Hist,
    set: Hist,
    elapsed_s: f64,
    cache: csr_cache::CacheStats,
    origin: OriginCounts,
    cpu_s: f64,
    steal_ticks: u64,
    all_ticks: u64,
    appends: u64,
    fsyncs: u64,
    snapshots: u64,
    spans: Vec<Span>,
}

impl Phase {
    /// Process CPU time per request, µs.
    fn cpu_us_per_op(&self) -> f64 {
        ratio(self.cpu_s * 1e6, self.ops as f64)
    }

    /// Adds `other`'s requests, chunks, latencies, CPU time and origin
    /// counts to this phase's (cache and persistence deltas are read from
    /// single phases only).
    fn absorb(&mut self, other: Phase) {
        self.ops += other.ops;
        self.sets += other.sets;
        self.failed += other.failed;
        self.chunks.resize_with(other.chunks.len(), Chunks::default);
        for (mine, theirs) in self.chunks.iter_mut().zip(&other.chunks) {
            mine.extend(theirs);
        }
        self.get.merge(&other.get);
        self.set.merge(&other.set);
        self.elapsed_s += other.elapsed_s;
        self.cpu_s += other.cpu_s;
        self.steal_ticks += other.steal_ticks;
        self.all_ticks += other.all_ticks;
        self.origin = OriginCounts {
            fetches: self.origin.fetches + other.origin.fetches,
            nominal_us: self.origin.nominal_us + other.origin.nominal_us,
            busy_ns: self.origin.busy_ns + other.origin.busy_ns,
        };
    }
}

/// One connection's share of a phase.
#[derive(Default)]
struct ConnOut {
    ops: u64,
    sets: u64,
    failed: u64,
    chunks: Chunks,
    get: Hist,
    set: Hist,
    last_ns: u64,
    wrong: Vec<String>,
    spans: Vec<Span>,
}

fn counter(handle: &ServerHandle, name: &str) -> u64 {
    handle
        .registry()
        .snapshot()
        .family(name)
        .and_then(|f| f.sample_with(&[]))
        .and_then(|s| s.value.as_counter())
        .unwrap_or(0)
}

fn config(spec: &ServeSpec, persist_dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        capacity: spec.capacity,
        policy: Policy::parse(workload::POLICY).expect("a built-in policy name"),
        persist: persist_dir.map(|dir| PersistConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Interval(Duration::from_millis(10)),
            ..PersistConfig::default()
        }),
        ..ServerConfig::default()
    }
}

/// The values a GET of `key` may return under `state`.
fn acceptable(
    origin: &Origin,
    spec: &ServeSpec,
    conn: usize,
    key: &str,
    state: Option<&KeyState>,
) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut push_set = |seq: usize| {
        let mut v = Vec::new();
        workload::set_value_into(&mut v, key, conn, seq, spec.value_len);
        out.push(v);
    };
    if let Some(s) = state {
        s.acked
            .into_iter()
            .chain(s.maybe.iter().copied())
            .for_each(&mut push_set);
    }
    if state.is_none_or(|s| s.acked.is_none()) {
        out.push(origin.value_for(key));
    }
    out
}

fn check_get(
    origin: &Origin,
    spec: &ServeSpec,
    conn: usize,
    key: &str,
    model: &Model,
    id: u32,
    got: Option<&[u8]>,
) -> Option<String> {
    let ok = acceptable(origin, spec, conn, key, model.get(&id));
    match got {
        Some(v) if ok.iter().any(|a| a == v) => None,
        Some(v) => Some(format!(
            "GET {key} returned {:?}",
            String::from_utf8_lossy(&v[..v.len().min(40)])
        )),
        None => Some(format!("GET {key} returned nothing")),
    }
}

impl Bench {
    fn new(spec: &ServeSpec, opts: &Opts, conns: usize, dir: Option<PathBuf>) -> io::Result<Bench> {
        let cdf = workload::zipf_cdf(workload::ranks_per_conn(spec, conns), spec.theta);
        let streams = (0..conns)
            .map(|c| workload::stream(spec, &cdf, opts.seed, c, conns, STREAM_LEN))
            .collect();
        let clock = Clock::start();
        let origin = Arc::new(Origin::new(spec.sim(), clock));
        if let Some(d) = &dir {
            std::fs::create_dir_all(d)?;
        }
        let config = config(spec, dir.as_deref());
        let handle = serve(
            config.clone(),
            Arc::clone(&origin) as Arc<dyn csr_serve::Backing>,
        )?;
        let clients = (0..conns)
            .map(|_| Client::connect(handle.addr()))
            .collect::<io::Result<Vec<_>>>()?;
        let mut bench = Bench {
            spec: *spec,
            conns,
            streams,
            origin,
            config,
            handle: Some(handle),
            clients,
            models: vec![Model::new(); conns],
            clock,
        };
        let wrong = bench.read_all(0..spec.warm_keys)?;
        if let Some(w) = wrong.first() {
            return Err(io::Error::other(format!("warm-up read a wrong value: {w}")));
        }
        Ok(bench)
    }

    fn handle(&self) -> &ServerHandle {
        self.handle.as_ref().expect("server running")
    }

    /// GETs every key id in `ids` once, each on its owning connection,
    /// checking each reply; returns the wrong replies.
    fn read_all(&mut self, ids: std::ops::Range<u32>) -> io::Result<Vec<String>> {
        let conns = self.conns;
        let (origin, spec) = (&self.origin, &self.spec);
        std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(&self.models)
                .enumerate()
                .map(|(c, (client, model))| {
                    let ids = ids.clone();
                    s.spawn(move || -> io::Result<Vec<String>> {
                        let mut wrong = Vec::new();
                        let owned: Vec<u32> =
                            ids.filter(|&id| workload::owner(id, conns) == c).collect();
                        for batch in owned.chunks(READ_BATCH) {
                            let keys: Vec<String> =
                                batch.iter().map(|&id| workload::key(id)).collect();
                            let refs: Vec<&str> = keys.iter().map(String::as_str).collect();
                            let got = client.get_pipelined(&refs)?;
                            for ((&id, key), got) in batch.iter().zip(&keys).zip(got) {
                                if let Some(w) =
                                    check_get(origin, spec, c, key, model, id, got.as_deref())
                                {
                                    wrong.push(w);
                                }
                            }
                        }
                        Ok(wrong)
                    })
                })
                .collect();
            let mut wrong = Vec::new();
            for w in workers {
                wrong.extend(w.join().expect("reader thread panicked")?);
            }
            Ok(wrong)
        })
    }

    /// One closed-loop timed phase of `seconds`.
    fn phase(&mut self, seconds: f64, traced: bool, report: &mut Report) -> Phase {
        let handle = self.handle.as_ref().expect("server running");
        let addr = handle.addr();
        let cache0 = handle.cache_stats();
        let origin0 = self.origin.counts();
        let appends0 = counter(handle, "csr_serve_persist_appends_total");
        let fsyncs0 = counter(handle, "csr_serve_persist_fsyncs_total");
        let snaps0 = counter(handle, "csr_serve_persist_snapshots_total");
        self.origin.set_tracing(traced);
        let cpu0 = meta::process_cpu_s();
        let (steal0, all0) = meta::cpu_ticks();

        let barrier = Barrier::new(self.conns);
        let start: OnceLock<Instant> = OnceLock::new();
        let (origin, spec, clock) = (&*self.origin, &self.spec, self.clock);
        let outs: Vec<ConnOut> = std::thread::scope(|s| {
            let workers: Vec<_> = self
                .clients
                .iter_mut()
                .zip(self.models.iter_mut())
                .zip(&self.streams)
                .enumerate()
                .map(|(c, ((client, model), stream))| {
                    let (barrier, start) = (&barrier, &start);
                    s.spawn(move || {
                        barrier.wait();
                        let t0 = *start.get_or_init(Instant::now);
                        let deadline = t0 + Duration::from_secs_f64(seconds);
                        drive(
                            c, client, model, stream, origin, spec, addr, t0, deadline, traced,
                            clock,
                        )
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("connection thread panicked"))
                .collect()
        });
        self.origin.set_tracing(false);
        let cpu_s = meta::process_cpu_s() - cpu0;
        let (steal1, all1) = meta::cpu_ticks();

        let handle = self.handle();
        let mut phase = Phase {
            cache: {
                let now = handle.cache_stats();
                csr_cache::CacheStats {
                    lookups: now.lookups - cache0.lookups,
                    hits: now.hits - cache0.hits,
                    misses: now.misses - cache0.misses,
                    evictions: now.evictions - cache0.evictions,
                    reservations: now.reservations - cache0.reservations,
                    ..now
                }
            },
            origin: self.origin.counts().since(origin0),
            cpu_s,
            steal_ticks: steal1 - steal0,
            all_ticks: all1 - all0,
            appends: counter(handle, "csr_serve_persist_appends_total") - appends0,
            fsyncs: counter(handle, "csr_serve_persist_fsyncs_total") - fsyncs0,
            snapshots: counter(handle, "csr_serve_persist_snapshots_total") - snaps0,
            ..Phase::default()
        };
        for out in outs {
            phase.ops += out.ops;
            phase.sets += out.sets;
            phase.failed += out.failed;
            phase.chunks.push(out.chunks);
            phase.get.merge(&out.get);
            phase.set.merge(&out.set);
            phase.elapsed_s = phase.elapsed_s.max(out.last_ns as f64 / 1e9);
            phase.spans.extend(out.spans);
            for w in out.wrong {
                report.wrong(w);
            }
        }
        if traced {
            phase.spans.extend(self.origin.take_spans());
        }
        phase
    }

    /// Graceful shutdown (a final snapshot when persistent).
    fn stop(&mut self) -> io::Result<()> {
        for c in self.clients.drain(..) {
            let _ = c.quit();
        }
        match self.handle.take() {
            Some(h) => h.shutdown(),
            None => Ok(()),
        }
    }

    /// Restarts the server on its persist dir; returns seconds from
    /// `serve()` to the first reply.
    fn restart(&mut self) -> io::Result<f64> {
        self.stop()?;
        let t0 = Instant::now();
        let handle = serve(
            self.config.clone(),
            Arc::clone(&self.origin) as Arc<dyn csr_serve::Backing>,
        )?;
        let mut first = Client::connect(handle.addr())?;
        let key = workload::key(0);
        let got = first.get(&key)?;
        let restart_s = t0.elapsed().as_secs_f64();
        if let Some(w) = check_get(
            &self.origin,
            &self.spec,
            0,
            &key,
            &self.models[0],
            0,
            got.as_deref(),
        ) {
            return Err(io::Error::other(format!("first reply after restart: {w}")));
        }
        self.clients.push(first);
        for _ in 1..self.conns {
            self.clients.push(Client::connect(handle.addr())?);
        }
        self.handle = Some(handle);
        Ok(restart_s)
    }
}

/// One connection's closed loop: send, wait for the reply, check it,
/// repeat until `deadline`.
#[allow(clippy::too_many_arguments)]
fn drive(
    conn: usize,
    client: &mut Client,
    model: &mut Model,
    stream: &[Op],
    origin: &Origin,
    spec: &ServeSpec,
    addr: std::net::SocketAddr,
    t0: Instant,
    deadline: Instant,
    traced: bool,
    clock: Clock,
) -> ConnOut {
    let mut out = ConnOut::default();
    let mut key = String::new();
    let mut value = Vec::new();
    let mut seq = 0usize;
    while Instant::now() < deadline {
        let op = stream[seq % stream.len()];
        let pos = seq;
        seq += 1;
        let id = op.id();
        workload::key_into(&mut key, id);
        let span_id = ((conn as u64 + 1) << 40) | pos as u64;
        let span_start = if traced {
            origin.begin_request(&key, span_id);
            clock.now_ns()
        } else {
            0
        };
        let sent = Instant::now();
        let result = if op.is_set() {
            workload::set_value_into(&mut value, &key, conn, pos, spec.value_len);
            client.set(&key, &value).map(|()| None)
        } else {
            client.get(&key).map(Some)
        };
        let done = Instant::now();
        let ns = u64::try_from((done - sent).as_nanos()).unwrap_or(u64::MAX);
        if traced {
            origin.end_request(&key);
            out.spans.push(Span {
                id: span_id,
                parent: 0,
                name: if op.is_set() {
                    "request.set"
                } else {
                    "request.get"
                },
                start_ns: span_start,
                end_ns: span_start + ns,
            });
        }
        match result {
            Ok(reply) => {
                if op.is_set() {
                    model.insert(
                        id,
                        KeyState {
                            acked: Some(pos),
                            maybe: Vec::new(),
                        },
                    );
                    out.sets += 1;
                    out.set.record(ns);
                } else {
                    let got = reply.flatten();
                    if let Some(w) = check_get(origin, spec, conn, &key, model, id, got.as_deref())
                    {
                        out.wrong.push(w);
                    }
                    out.get.record(ns);
                }
                out.ops += 1;
                let at = u64::try_from((done - t0).as_nanos()).unwrap_or(u64::MAX);
                out.chunks.push(at, ns);
                out.last_ns = at;
            }
            Err(_) => {
                out.failed += 1;
                if op.is_set() {
                    model.entry(id).or_default().maybe.push(pos);
                }
                match Client::connect(addr) {
                    Ok(c) => *client = c,
                    Err(_) => std::thread::sleep(Duration::from_millis(1)),
                }
            }
        }
    }
    out
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn note_latency(report: &mut Report, what: &str, lat: &Latency) {
    report.note(format!(
        "{what}_p50_us = {} us ({} samples)",
        us(lat.p50_ns),
        lat.samples
    ));
    report.note(format!(
        "{what}_p99_us = {} us ({} of {} samples)",
        us(lat.tail_ns),
        lat.tail_label(),
        lat.samples
    ));
}

/// Bytes under `dir`, all files.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Runs serve workload `spec`.
///
/// # Errors
///
/// Starting the server, connecting, or a wrong reply during set-up.
pub fn run(spec: &ServeSpec, opts: &Opts, report: &mut Report) -> io::Result<()> {
    let conns = available_parallelism();
    // Each set-up gets an equal share of the timed phase, so the figures
    // pool three server instances (each with its own shard hashing).
    let mut setup_times = Vec::new();
    let mut plain = Phase::default();
    let mut bench: Option<Bench> = None;
    for rep in 0..SETUPS {
        if let Some(mut old) = bench.take() {
            old.stop()?;
        }
        let dir = spec
            .durable
            .then(|| opts.run_dir.join(format!("persist-{rep}")));
        let t0 = Instant::now();
        let mut b = Bench::new(spec, opts, conns, dir)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        plain.absorb(b.phase(opts.seconds / SETUPS as f64, false, report));
        if rep == 0 {
            // Later instances land on a heap the earlier ones freed, so the
            // process peak after them depends on fragmentation, not on
            // what one server needs.
            report.peak_rss_mib = Some(meta::peak_rss_mib());
        }
        bench = Some(b);
    }
    let mut bench = bench.expect("at least one set-up");
    let setup_s = median(&setup_times);
    if plain.ops == 0 {
        return Err(io::Error::other("no request completed in the timed phase"));
    }
    report.attempted = plain.ops + plain.failed;
    report.failed = plain.failed;
    report
        .end_to_end
        .push(("cpu_us_per_op", plain.cpu_us_per_op(), "us"));
    report.end_to_end.push(("setup_s", setup_s, "s"));
    report.note(format!(
        "connections = {conns}; {} requests in {:.3} s over {SETUPS} server instances; \
         host steal = {:.1}% of CPU time",
        plain.ops,
        plain.elapsed_s,
        ratio(plain.steal_ticks as f64 * 100.0, plain.all_ticks as f64)
    ));
    let chunks: usize = plain.chunks.iter().map(Chunks::len).sum();
    report.note(format!(
        "throughput_ops_s = {} ops/s (sum over connections of the median rate of their \
         chunks of {CHUNK} requests; {chunks} chunks)",
        chunk_throughput(&plain.chunks)
    ));
    report.note(format!(
        "op_p90_us = {} us (median over the same chunks of their p90)",
        chunk_p90_ns(&plain.chunks) / 1000.0
    ));
    report.note(format!(
        "setup_s runs = {:?}",
        setup_times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
    ));
    if let Some(get) = plain.get.summary() {
        note_latency(report, "get", &get);
    }
    if let Some(set) = plain.set.summary() {
        note_latency(report, "set", &set);
    }
    report.note(format!(
        "origin_us_per_op = {} us/request ({} fetches)",
        ratio(plain.origin.nominal_us as f64, plain.ops as f64),
        plain.origin.fetches
    ));
    report.note(format!(
        "error_rate = {} ({} failed of {} attempted)",
        ratio(plain.failed as f64, report.attempted as f64),
        plain.failed,
        report.attempted
    ));

    // The tracing overhead compares like with like: an untraced and a
    // traced phase of equal length, back to back on the same instance.
    let traced = opts.trace.then(|| {
        let untraced = bench.phase(opts.seconds, false, report);
        (untraced, bench.phase(opts.seconds, true, report))
    });
    let mut disk_per_live = 0.0;
    let mut persist_dir = None;
    if spec.durable {
        let dir = bench
            .config
            .persist
            .as_ref()
            .map(|p| p.dir.clone())
            .expect("durable workloads persist");
        let live = f64::from(spec.warm_keys) * (workload::key(0).len() + spec.value_len) as f64;
        disk_per_live = dir_bytes(&dir) as f64 / live;
        let restart_s = bench.restart()?;
        let recovered = counter(bench.handle(), "csr_serve_persist_recovered_entries");
        let wrong = bench.read_all(0..spec.keys)?;
        for w in wrong {
            report.wrong(format!("after restart: {w}"));
        }
        report.note(format!(
            "restart_s = {restart_s} s ({recovered} entries recovered; every key read back)"
        ));
        bench.stop()?;
        persist_dir = Some(dir);
    } else {
        bench.stop()?;
    }

    if let Some((untraced, traced)) = traced {
        layer_report(
            spec,
            opts,
            &bench,
            &untraced,
            &traced,
            disk_per_live,
            persist_dir.as_deref(),
            report,
        )?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn layer_report(
    spec: &ServeSpec,
    opts: &Opts,
    bench: &Bench,
    untraced: &Phase,
    traced: &Phase,
    disk_per_live: f64,
    persist_dir: Option<&Path>,
    report: &mut Report,
) -> io::Result<()> {
    let mut spans = traced.spans.clone();
    let ops = traced.ops as f64;
    let c = &traced.cache;
    report.layer(
        "csr_cache.hit_ratio",
        ratio(c.hits as f64, c.lookups as f64),
        "ratio",
    );
    report.layer(
        "csr_cache.evictions_per_op",
        ratio(c.evictions as f64, ops),
        "ratio",
    );
    report.layer(
        "csr_cache.reservations_per_eviction",
        ratio(c.reservations as f64, c.evictions as f64),
        "ratio",
    );
    let o = &traced.origin;
    report.layer(
        "backing.fetches_per_op",
        ratio(o.fetches as f64, ops),
        "ratio",
    );
    report.layer(
        "backing.nominal_us_per_op",
        ratio(o.nominal_us as f64, ops),
        "us",
    );
    report.layer("backing.busy_s", o.busy_ns as f64 / 1e9, "s");
    report.layer(
        "backing.overshoot_us",
        ratio(
            o.busy_ns as f64 / 1000.0 - o.nominal_us as f64,
            o.fetches as f64,
        ),
        "us",
    );
    report.layer(
        "persist.appends_per_set",
        ratio(traced.appends as f64, traced.sets as f64),
        "ratio",
    );
    report.layer("persist.fsyncs", traced.fsyncs as f64, "count");
    report.layer("persist.snapshots", traced.snapshots as f64, "count");
    report.layer("persist.disk_bytes_per_live_byte", disk_per_live, "ratio");

    let passes = layers::run_all(
        spec,
        opts,
        &bench.streams,
        persist_dir,
        None,
        &mut spans,
        report,
    )?;
    // A GET whose span has no origin child was a hit: its whole span is
    // engine, protocol and cache; the standalone passes price the last two.
    let self_ns = spans::self_times(&spans);
    let mut has_child = std::collections::HashSet::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        has_child.insert(s.parent);
    }
    let hit_spans: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "request.get" && !has_child.contains(&s.id))
        .map(|s| self_ns[&s.id] as f64)
        .collect();
    let engine_us = if hit_spans.is_empty() {
        0.0
    } else {
        (median(&hit_spans) - passes.get_hit_ns - passes.parse_ns - passes.render_ns) / 1000.0
    };
    report.layer("engine.self_us", engine_us, "us");
    report.note(format!(
        "engine.self_us from {} GET-hit spans",
        hit_spans.len()
    ));
    report.layer(
        "trace.overhead_pct",
        ratio(
            traced.cpu_us_per_op() - untraced.cpu_us_per_op(),
            untraced.cpu_us_per_op(),
        ) * 100.0,
        "%",
    );
    report.note(format!(
        "traced phase: {} requests, {} spans",
        traced.ops,
        spans.len()
    ));
    let path = opts.spans_path();
    spans::write_jsonl(&path, &spans)?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}
