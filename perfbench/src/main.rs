//! End-to-end and per-layer benchmark of the SPEED stack.
//!
//! ```text
//! speed-perfbench --workload <paper_deflate|serve_zipf|stream_durable>
//!                 --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload drives the real stack through public APIs only, checks
//! every output against native computation, and prints provenance lines
//! (prefixed `#`) followed by one JSON line with the metrics. With
//! `--trace 0` those are the end-to-end metrics; with `--trace 1` the
//! workload runs once untraced and once with timing wrappers at the public
//! seams, and prints the per-layer metrics and a stage table.

mod gen;
mod paper;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use speed_core::{DedupOutcome, DedupRuntime, FuncDesc, FuncIdentity, TrustedLibrary};
use speed_enclave::Platform;

use crate::stats::{median, quantile, tail_quantile};
use crate::trace::StageTable;

/// Set-ups before the timed phase and after it; the reported `setup_s` is
/// the median of all of them, spread out so one slow stretch of the host
/// does not decide it.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Closed-loop timed phases are cut into windows of this many seconds, and
/// the metrics use a third of the planned time's windows (see
/// [`Run::selected`]). Contention comes and goes within a second, so short
/// windows separate quiet from busy stretches more finely.
pub const WINDOW_S: f64 = 0.25;
/// Windows with fewer units are too short to rank (the last, partial one).
const MIN_WINDOW_UNITS: usize = 5;
/// The [`probe`] on the reference host (see CHANGES.md) when no other tenant
/// competes for its core, and how much slower a window may probe and
/// still count as quiet. On a slower host no window is quiet and every
/// closed-loop run stretches to [`MAX_STRETCH`], measuring alike.
const PROBE_QUIET_NS: f64 = 5_400.0;
const QUIET_FACTOR: f64 = 1.12;
/// A closed-loop timed phase may run this many times `--seconds` while it
/// waits for quiet windows.
pub const MAX_STRETCH: f64 = 1.5;

/// One unit of user work in the timed phase: a marked call, or a whole
/// document for `stream_durable`.
#[derive(Clone, Copy, Debug)]
pub struct Unit {
    /// The [`WINDOW_S`] window of the timed phase the unit started in (see
    /// [`Run::selected`]); 0 for the open loop.
    pub window: usize,
    /// The host-speed probe timed just before the unit (see [`probe`]).
    pub probe_ns: u64,
    /// Unit latency (from the scheduled send in the open loop).
    pub latency_ns: u64,
    /// Native computation of the same input, timed interleaved.
    pub native_ns: u64,
    /// Whether the runtime reported the work as reused without computing.
    pub hit: bool,
}

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    pub units: Vec<Unit>,
    /// Units the workload plans to select; fixes the tail percentile.
    pub planned_units: usize,
    /// One-second windows the metrics use (0: every unit; see
    /// [`Run::selected`]).
    pub keep_windows: usize,
    /// Set by workloads that measure throughput in a phase of its own;
    /// otherwise it is units per second of call time (see
    /// [`Run::throughput_ops`]).
    pub throughput_ops: Option<f64>,
    pub reused: u64,
    pub reusable: u64,
    /// Growth of what the store holds over the timed phase.
    pub stored_bytes: f64,
    /// Input bytes of the timed phase that were computed (the units, or for
    /// streams the chunks, that missed).
    pub computed_bytes: f64,
    pub sgx_ns: u64,
    pub failed: u64,
    /// Provenance lines specific to the workload.
    pub notes: Vec<String>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    pub stages: Option<StageTable>,
}

impl Run {
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `(median probe ns, window)` of every window with enough units to
    /// rank, fastest probe first.
    fn ranked_windows(&self) -> Vec<(f64, usize)> {
        let windows = self.units.iter().map(|u| u.window + 1).max().unwrap_or(0);
        let mut ranked: Vec<(f64, usize)> = (0..windows)
            .filter_map(|w| {
                let mut probes: Vec<f64> = self
                    .units
                    .iter()
                    .filter(|u| u.window == w)
                    .map(|u| u.probe_ns as f64)
                    .collect();
                (probes.len() >= MIN_WINDOW_UNITS).then(|| (median(&mut probes), w))
            })
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
        ranked
    }

    /// Whether a closed-loop timed phase that has run `elapsed` of its
    /// planned `seconds` has measured enough: the planned time is up and
    /// [`Run::keep_windows`] windows were quiet, or the phase reached
    /// [`MAX_STRETCH`] times its planned length.
    pub fn measured_enough(&self, elapsed: f64, seconds: f64) -> bool {
        if elapsed < seconds {
            return false;
        }
        let quiet = self
            .ranked_windows()
            .iter()
            .filter(|(probe, _)| *probe <= PROBE_QUIET_NS * QUIET_FACTOR)
            .count();
        quiet >= self.keep_windows || elapsed >= seconds * MAX_STRETCH
    }

    /// The units the wall-clock metrics are computed over.
    ///
    /// Other tenants of a shared host slow some stretches of a run and not
    /// others: for seconds to minutes, the program's crypto runs up to twice
    /// as slow. A closed-loop run therefore times the benchmark's own
    /// [`probe`] before every unit, ranks its [`WINDOW_S`] windows by their
    /// median probe time, and keeps the units of the fastest
    /// [`Run::keep_windows`] windows; its timed phase runs on (up to
    /// [`MAX_STRETCH`] times its length) until that many were quiet. A
    /// change to the program moves every window alike; contention moves
    /// only some. Open-loop runs keep every unit.
    fn selected(&self) -> Vec<&Unit> {
        if self.keep_windows == 0 {
            return self.units.iter().collect();
        }
        let keep: Vec<usize> = self
            .ranked_windows()
            .iter()
            .take(self.keep_windows)
            .map(|&(_, w)| w)
            .collect();
        self.units.iter().filter(|u| keep.contains(&u.window)).collect()
    }

    /// A provenance line on the windows of a closed-loop run.
    pub fn window_note(&self, elapsed: f64) -> String {
        let ranked = self.ranked_windows();
        let quiet =
            ranked.iter().filter(|(p, _)| *p <= PROBE_QUIET_NS * QUIET_FACTOR).count();
        let mut kept: Vec<f64> =
            ranked.iter().take(self.keep_windows).map(|&(p, _)| p / 1e3).collect();
        let mut all: Vec<f64> = ranked.iter().map(|&(p, _)| p / 1e3).collect();
        format!(
            "windows: {} of {WINDOW_S} s in {elapsed:.1} s, {quiet} quiet (probe <= {:.2} us); metrics \
             use the {} fastest, probe median {:.2} us (all windows {:.2} us), {} units; \
             wall-clock metrics scaled by {:.3} for contention",
            ranked.len(),
            PROBE_QUIET_NS * QUIET_FACTOR / 1e3,
            self.keep_windows.min(ranked.len()),
            median(&mut kept),
            median(&mut all),
            self.selected().len(),
            self.contention(),
        )
    }

    /// How much slower than quiet the host ran the selected windows, as
    /// the quiet probe time over theirs (1 when they were quiet, or for
    /// open-loop runs). Wall-clock metrics are scaled by it, so a run whose
    /// quietest windows were still slowed by other tenants does not read as
    /// a slower program. The benchmark's probe is arithmetic and slows about
    /// as much as the program's deflate and less than its crypto, so this
    /// corrects part of the slowdown, never more than all of it.
    fn contention(&self) -> f64 {
        self.contention_over(self.keep_windows)
    }

    /// [`Run::contention`] over the `windows` fastest windows (all of
    /// them for an open-loop run). 1 when no probe was taken.
    fn contention_over(&self, windows: usize) -> f64 {
        let windows = if self.keep_windows == 0 { usize::MAX } else { windows };
        let mut probes: Vec<f64> =
            self.ranked_windows().iter().take(windows).map(|&(p, _)| p).collect();
        let probe = median(&mut probes);
        if probe > 0.0 {
            (PROBE_QUIET_NS / probe).min(1.0)
        } else {
            1.0
        }
    }

    fn p50_us(&self, keep: impl Fn(&Unit) -> bool) -> f64 {
        let mut us: Vec<f64> = self
            .selected()
            .into_iter()
            .filter(|u| keep(u))
            .map(|u| u.latency_ns as f64 / 1e3)
            .collect();
        median(&mut us) * self.contention()
    }

    pub fn call_p50_us(&self) -> f64 {
        self.p50_us(|_| true)
    }

    /// The tail percentile and its value in µs. The percentile is fixed by
    /// the units the workload plans to select (see [`tail_quantile`]).
    pub fn call_tail_us(&self) -> (f64, f64) {
        let selected = self.selected();
        let q = tail_quantile(self.planned_units);
        let mut us: Vec<f64> =
            selected.iter().map(|u| u.latency_ns as f64 / 1e3).collect();
        (q, quantile(&mut us, q) * self.contention())
    }

    /// Median of each unit's latency over its native computation, in %.
    fn pct_native(&self, hit: bool) -> f64 {
        let mut pct: Vec<f64> = self
            .selected()
            .into_iter()
            .filter(|u| u.hit == hit)
            .map(|u| 100.0 * u.latency_ns as f64 / u.native_ns.max(1) as f64)
            .collect();
        median(&mut pct)
    }

    /// Units per second of time spent in them, unless the workload measured
    /// throughput in a phase of its own. Taken over every unit, so that
    /// stalls a few units carry (a checkpoint) count in proportion rather
    /// than by whether their window was selected.
    fn throughput_ops(&self) -> f64 {
        self.throughput_ops.unwrap_or_else(|| {
            let busy_ns: f64 = self.units.iter().map(|u| u.latency_ns as f64).sum();
            self.units.len() as f64 * 1e9 / busy_ns / self.contention_over(usize::MAX)
        })
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order (`peak_rss_mb`
    /// is measured by the runner, from outside the process).
    fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let n = self.units.len() as f64;
        vec![
            ("setup_s", median(&mut self.setup_s.clone()), "s"),
            ("call_p50_us", self.call_p50_us(), "us"),
            ("call_tail_us", self.call_tail_us().1, "us"),
            ("hit_p50_us", self.p50_us(|u| u.hit), "us"),
            ("miss_p50_us", self.p50_us(|u| !u.hit), "us"),
            ("hit_pct_native", self.pct_native(true), "%"),
            ("miss_pct_native", self.pct_native(false), "%"),
            ("throughput_ops", self.throughput_ops(), "1/s"),
            ("reuse_ratio", self.reused as f64 / self.reusable.max(1) as f64, "ratio"),
            (
                "stored_bytes_per_computed_byte",
                self.stored_bytes / self.computed_bytes,
                "ratio",
            ),
            ("sgx_us_per_call", self.sgx_ns as f64 / n / 1e3, "us"),
            ("success_ratio", (n - self.failed as f64) / n, "ratio"),
        ]
    }
}

/// Per-layer metric names and units, in `BENCHMARK.json` order. A traced
/// run reports every one; a layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("crypto.sha256_mb_s", "MB/s"),
    ("crypto.gcm_seal_mb_s", "MB/s"),
    ("core.tag.us_per_call", "us"),
    ("core.rce.encrypt_us", "us"),
    ("core.rce.recover_us", "us"),
    ("wire.channel.seal_us", "us"),
    ("wire.channel.open_us", "us"),
    ("wire.sealed_bytes_per_call", "B"),
    ("core.client.rpc_p50_us", "us"),
    ("core.client.rpc_tail_us", "us"),
    ("core.runtime.rpcs_per_call", "count"),
    ("store.store.handle_us_p50", "us"),
    ("store.shard.contention_per_op", "ratio"),
    ("store.shard.busy_us_per_op", "us"),
    ("store.server.residual_us", "us"),
    ("store.server.switchless_share", "ratio"),
    ("core.hotcache.hit_ratio", "ratio"),
    ("core.prefilter.ns_per_call", "ns"),
    ("core.prefilter.filtered_miss_ratio", "ratio"),
    ("store.log.fsyncs_per_put", "ratio"),
    ("store.log.fsync_us_p50", "us"),
    ("store.log.write_bytes_per_input_byte", "ratio"),
    ("store.log.checkpoints", "count"),
    ("store.log.checkpoint_ms", "ms"),
    ("core.chunker.mb_s", "MB/s"),
    ("core.chunker.forced_cut_ratio", "ratio"),
    ("core.stream.chunks_per_flush", "count"),
    ("core.runtime.self_us_p50", "us"),
    ("enclave.ecalls_per_call", "count"),
    ("enclave.ocalls_per_call", "count"),
    ("enclave.sim_us_per_call", "us"),
    ("deflate.compress_us_p50", "us"),
    ("load.lateness_tail_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.stage_sum_pct", "%"),
];

/// The window a unit that starts `elapsed` into the timed phase falls in.
pub fn window_of(elapsed: std::time::Duration) -> usize {
    (elapsed.as_secs_f64() / WINDOW_S) as usize
}

/// Windows a closed-loop run of `seconds` keeps: a third of its planned time.
pub fn keep_windows(seconds: f64) -> usize {
    ((seconds / 3.0 / WINDOW_S).round() as usize).max(1)
}

/// How a run is driven.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether the timing wrappers are installed.
    pub traced: bool,
}

/// The trusted library every workload's marked functions come from.
pub fn library() -> TrustedLibrary {
    let mut zlib = TrustedLibrary::new("zlib", "1.2.11");
    zlib.register("int deflate(...)", b"speed-deflate lz77+huffman v1");
    zlib.register("u64 scan(bytes)", b"perfbench byte scan v1");
    zlib
}

pub fn deflate_desc() -> FuncDesc {
    FuncDesc::new("zlib", "1.2.11", "int deflate(...)")
}

pub fn compress(input: &[u8]) -> Vec<u8> {
    speed_deflate::compress(input, speed_deflate::Level::Default)
}

/// Runs `setup` [`SETUPS_BEFORE`] times on fresh state and keeps the last
/// result; returns it with every set-up's duration.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS_BEFORE {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Times [`SETUPS_AFTER`] more set-ups once the timed phase is over.
pub fn more_setups<T>(times: &mut Vec<f64>, mut setup: impl FnMut() -> T) {
    for _ in 0..SETUPS_AFTER {
        let started = Instant::now();
        drop(setup());
        times.push(started.elapsed().as_secs_f64());
    }
}

/// The benchmark's own host-speed gauge: a fixed add-rotate-xor loop over
/// four lanes, timed. It is no program code, so no change to the program
/// moves it; only the host does.
pub fn probe() -> u64 {
    let started = Instant::now();
    let mut lanes = std::hint::black_box([1u64, 2, 3, 4]);
    for i in 0..2000u64 {
        for x in lanes.iter_mut() {
            *x = (x.rotate_left(7) ^ i).wrapping_add(x.rotate_right(13)) ^ 0x9E37_79B9;
        }
    }
    std::hint::black_box(lanes);
    started.elapsed().as_nanos() as u64
}

pub fn is_hit(outcome: DedupOutcome) -> bool {
    matches!(outcome, DedupOutcome::Hit | DedupOutcome::HitLocalCache)
}

/// Simulated-SGX charge on `platform` so far.
pub fn sgx_ns(platform: &Platform) -> u64 {
    platform.clock().total_ns()
}

/// Enclave transition counters of a runtime, for per-call deltas.
pub fn enclave_counts(runtime: &DedupRuntime) -> [u64; 3] {
    let stats = runtime.enclave().stats();
    [stats.ecalls, stats.ocalls, stats.charged_ns]
}

/// Store `(gets + puts, lock contention, shard busy ns)` counters.
pub fn shard_counts(stats: &speed_wire::StatsBody) -> [u64; 3] {
    [
        stats.gets + stats.puts,
        stats.shards.iter().map(|s| s.lock_contention).sum(),
        stats.shards.iter().map(|s| s.busy_ns).sum(),
    ]
}

pub fn delta(after: [u64; 3], before: [u64; 3]) -> [u64; 3] {
    std::array::from_fn(|i| after[i] - before[i])
}

/// Per-layer metrics common to all workloads, from the traced run's logs.
pub struct Traced<'a> {
    pub logs: &'a [trace::SharedLog],
    /// Round trips each log recorded before the timed phase began.
    pub untimed_rpcs: Vec<usize>,
    pub units: &'a [trace::UnitStages],
    pub identity: FuncIdentity,
    /// `(input, result)` pairs of timed units, for timing layer functions.
    pub samples: Vec<(Vec<u8>, Vec<u8>)>,
    pub enclave_delta: [u64; 3],
    /// Store `(gets + puts, lock contention, busy ns)` over the timed phase.
    pub shard_delta: [u64; 3],
    /// Backend for replaying the recorded requests.
    pub replay_backend: Arc<dyn speed_store::StoreBackend>,
    pub prefilter: bool,
    pub compute_is_deflate: bool,
}

impl Traced<'_> {
    pub fn fill(self, run: &mut Run) {
        use trace::{time_each, Rpc};
        let logs: Vec<_> = self.logs.iter().map(|l| l.lock().expect("log")).collect();
        let mut all: Vec<&Rpc> = logs.iter().flat_map(|l| l.rpcs.iter()).collect();
        all.sort_by_key(|r| r.sent);
        let timed: Vec<&Rpc> = logs
            .iter()
            .zip(&self.untimed_rpcs)
            .flat_map(|(l, &skip)| l.rpcs[skip..].iter())
            .collect();
        let units = self.units.len().max(1) as f64;

        let channel = trace::time_channel(&timed, 48 << 20);
        let mut handle_ns = trace::replay_handle(&all, timed.len(), self.replay_backend);
        let handle_mean = stats::mean(&handle_ns);
        let seal_open_per_rpc = 2.0 * (channel.seal_ns + channel.open_ns);
        let (rpc_p50, rpc_tail) = trace::rpc_p50_tail(&timed);
        let rpc_mean =
            timed.iter().map(|r| r.ns as f64).sum::<f64>() / timed.len().max(1) as f64;
        let sealed: usize = timed
            .iter()
            .map(|r| r.request_len + r.response_len + 2 * channel.overhead)
            .sum();

        let table = StageTable::build(self.units, seal_open_per_rpc, handle_mean);
        let mut self_us: Vec<f64> =
            self.units.iter().map(|u| u.self_ns() / 1e3).collect();
        let compute_p50 = if self.compute_is_deflate {
            logs.iter().map(|l| trace::compute_p50_us(l)).fold(0.0, f64::max)
        } else {
            0.0
        };

        let samples = &self.samples;
        let id = &self.identity;
        let input_bytes: usize = samples.iter().map(|(i, _)| i.len()).sum();
        let result_bytes: usize = samples.iter().map(|(_, r)| r.len()).sum();
        let sha_ns = time_each(samples, 0.2, |(i, _)| {
            std::hint::black_box(speed_crypto::Sha256::digest(i));
        });
        let cipher =
            speed_crypto::AesGcm128::new(&speed_crypto::Key128::from_bytes([7; 16]));
        let nonce = speed_crypto::Nonce::from_bytes([9; 12]);
        let gcm_ns = time_each(samples, 0.2, |(_, r)| {
            std::hint::black_box(cipher.seal(&nonce, b"perfbench", r));
        });
        let tag_ns = time_each(samples, 0.1, |(i, _)| {
            std::hint::black_box(speed_core::tag_for(id, i));
        });
        let mut rng = speed_crypto::SystemRng::seeded(5);
        let records: Vec<_> = samples
            .iter()
            .map(|(i, r)| speed_core::rce::encrypt_result(id, i, r, &mut rng))
            .collect();
        let encrypt_ns = time_each(samples, 0.2, |(i, r)| {
            std::hint::black_box(speed_core::rce::encrypt_result(id, i, r, &mut rng));
        });
        let pairs: Vec<_> = samples.iter().zip(&records).collect();
        let recover_ns = time_each(&pairs, 0.2, |((i, _), record)| {
            std::hint::black_box(
                speed_core::rce::recover_result(id, i, record).expect("own record"),
            );
        });
        let prefilter_ns = if self.prefilter {
            time_each(samples, 0.05, |(i, _)| {
                std::hint::black_box(speed_core::prefilter_tag(id, i));
            })
        } else {
            0.0
        };
        let mb_s = |bytes: usize, ns_each: f64| {
            bytes as f64 / samples.len().max(1) as f64 / ns_each * 1e3
        };

        let [ops, contention, busy_ns] = self.shard_delta;
        let ops = ops.max(1) as f64;
        let [ecalls, ocalls, charged] = self.enclave_delta;
        let layers = &mut run.layers;
        layers.insert("crypto.sha256_mb_s", mb_s(input_bytes, sha_ns));
        layers.insert("crypto.gcm_seal_mb_s", mb_s(result_bytes, gcm_ns));
        layers.insert("core.tag.us_per_call", tag_ns / 1e3);
        layers.insert("core.rce.encrypt_us", encrypt_ns / 1e3);
        layers.insert("core.rce.recover_us", recover_ns / 1e3);
        layers.insert("wire.channel.seal_us", channel.seal_ns / 1e3);
        layers.insert("wire.channel.open_us", channel.open_ns / 1e3);
        layers.insert("wire.sealed_bytes_per_call", sealed as f64 / units);
        layers.insert("core.client.rpc_p50_us", rpc_p50);
        layers.insert("core.client.rpc_tail_us", rpc_tail);
        layers.insert("core.runtime.rpcs_per_call", timed.len() as f64 / units);
        layers.insert("store.store.handle_us_p50", median(&mut handle_ns) / 1e3);
        layers.insert("store.shard.contention_per_op", contention as f64 / ops);
        layers.insert("store.shard.busy_us_per_op", busy_ns as f64 / ops / 1e3);
        layers.insert(
            "store.server.residual_us",
            (rpc_mean - handle_mean - seal_open_per_rpc) / 1e3,
        );
        layers.insert("core.prefilter.ns_per_call", prefilter_ns);
        layers.insert("core.runtime.self_us_p50", median(&mut self_us));
        layers.insert("enclave.ecalls_per_call", ecalls as f64 / units);
        layers.insert("enclave.ocalls_per_call", ocalls as f64 / units);
        layers.insert("enclave.sim_us_per_call", charged as f64 / units / 1e3);
        layers.insert("deflate.compress_us_p50", compute_p50);
        layers.insert(
            "trace.stage_sum_pct",
            100.0 * table.stage_sum_us() / table.unit_mean_us,
        );
        run.note(format!(
            "trace: seal/open timed over {} recorded frame sizes (sampled to 48 MiB); handle \
             timed by replaying {} recorded requests in send order into a fresh store",
            timed.len(),
            all.len()
        ));
        run.stages = Some(table);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, config: Config) -> Result<Run, String> {
    match name {
        "paper_deflate" => Ok(paper::run(config)),
        "serve_zipf" => Ok(serve::run(config)),
        "stream_durable" => Ok(stream::run(config)),
        other => Err(format!("unknown workload {other}")),
    }
}

fn provenance(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload: {}  seed: {}  seconds: {}",
        args.workload, args.seed, args.seconds
    );
    println!("# host: nproc={nproc} cpu: {} flags: {}", cpu_model(), cpu_flags());
    println!(
        "# sgx: simulated (CostModel::default_sgx); its charge is reported as \
         sgx_us_per_call, apart from all wall-clock figures"
    );
}

/// The processor brand string from CPUID leaves 0x8000_0002..=0x8000_0004.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        if __cpuid(0x8000_0000).eax >= 0x8000_0004 {
            let bytes: Vec<u8> = (0x8000_0002u32..=0x8000_0004)
                .map(__cpuid)
                .flat_map(|r| [r.eax, r.ebx, r.ecx, r.edx])
                .flat_map(u32::to_le_bytes)
                .collect();
            return String::from_utf8_lossy(&bytes)
                .trim_matches(char::from(0))
                .trim()
                .to_string();
        }
    }
    String::from("unknown")
}

fn cpu_flags() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let flags = [
            ("sha_ni", std::arch::is_x86_feature_detected!("sha")),
            ("aes", std::arch::is_x86_feature_detected!("aes")),
            ("pclmulqdq", std::arch::is_x86_feature_detected!("pclmulqdq")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
        ];
        flags
            .iter()
            .map(|(name, on)| format!("{name}={}", u8::from(*on)))
            .collect::<Vec<_>>()
            .join(" ")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        String::from("not x86_64")
    }
}

fn json_metrics(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value =
                if value.is_finite() { format!("{value}") } else { "null".into() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    provenance(&args);
    let base = Config { seed: args.seed, seconds: args.seconds, traced: false };
    let result = if args.trace {
        // Half the time untraced, half traced: the ratio of their median
        // call latencies is the tracing overhead.
        let half = Config { seconds: args.seconds / 2.0, ..base };
        run_workload(&args.workload, half).and_then(|plain| {
            let mut traced =
                run_workload(&args.workload, Config { traced: true, ..half })?;
            let overhead = 100.0 * (traced.call_p50_us() / plain.call_p50_us() - 1.0);
            traced.layers.insert("trace.overhead_pct", overhead);
            Ok(traced)
        })
    } else {
        run_workload(&args.workload, base)
    };
    let run = match result {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &run.notes {
        println!("# {line}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        if let Some(table) = &run.stages {
            print!("{}", table.render(&args.workload));
        }
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                (name, run.layers.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        run.end_to_end()
    };
    let attempted = run.units.len() as u64;
    let correct = run.failed == 0 && attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        run.failed,
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "perfbench: {} of {attempted} units failed their output check",
            run.failed
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(window: usize, probe_ns: u64, latency_ns: u64) -> Unit {
        Unit { window, probe_ns, latency_ns, native_ns: 1000, hit: true }
    }

    #[test]
    fn selection_keeps_the_windows_with_the_fastest_probe() {
        // Nine windows of six units; windows 1, 4 and 7 ran the probe fast.
        let units = (0..9)
            .flat_map(|w| {
                let probe = if w % 3 == 1 { 100 } else { 300 };
                (0..6).map(move |_| unit(w, probe, 1000 * (w as u64 + 1)))
            })
            .collect();
        let run = Run { units, keep_windows: 3, ..Run::default() };
        let mut windows: Vec<usize> = run.selected().iter().map(|u| u.window).collect();
        windows.dedup();
        assert_eq!(windows, [1, 4, 7]);
        // Window latencies 2, 5 and 8 µs: the median unit is in window 4.
        assert_eq!(run.call_p50_us(), 5.0);
    }

    #[test]
    fn open_loop_runs_keep_every_unit() {
        let units = vec![unit(0, 0, 10), unit(0, 0, 20), unit(1, 5, 30), unit(1, 5, 40)];
        let run = Run { units, ..Run::default() };
        assert_eq!(run.selected().len(), 4);
    }

    #[test]
    fn timed_phase_waits_for_quiet_windows_up_to_its_stretch() {
        let quiet = PROBE_QUIET_NS as u64;
        let busy = 2 * quiet;
        let windows = |probes: &[u64]| Run {
            units: probes
                .iter()
                .enumerate()
                .flat_map(|(w, &p)| (0..6).map(move |_| unit(w, p, 1000)))
                .collect(),
            keep_windows: 2,
            ..Run::default()
        };
        assert!(!windows(&[quiet, quiet]).measured_enough(1.5, 2.0));
        assert!(windows(&[quiet, quiet]).measured_enough(2.0, 2.0));
        assert!(!windows(&[busy, quiet, busy]).measured_enough(2.9, 2.0));
        assert!(windows(&[busy, quiet, busy]).measured_enough(3.0, 2.0));
    }

    #[test]
    fn throughput_counts_units_per_second_of_call_time() {
        let units = (0..10).map(|_| unit(0, 0, 2_000_000)).collect();
        let run = Run { units, ..Run::default() };
        assert!((run.throughput_ops() - 500.0).abs() < 1e-9);
        let measured = Run { throughput_ops: Some(42.0), ..Run::default() };
        assert_eq!(measured.throughput_ops(), 42.0);
    }
}
