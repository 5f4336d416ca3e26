//! `serve_zipf`: small requests over TCP. One in-process `StoreServer`
//! (I/O threads sized for the host, switchless at its shipped default,
//! memory backend); two generator threads, each with its own runtime and
//! connection, hot cache and prefilter on at their defaults. Small inputs
//! with Zipf popularity over a working set four times the hot cache, and a
//! cheap byte-scan compute, so SPEED's own per-request path is the cost.
//!
//! Two timed phases, both sized in requests rather than seconds:
//!
//! - an open loop at a fixed nominal rate (Poisson arrivals), each request
//!   timed from its *scheduled* send, so a stall also charges the requests
//!   queued behind it; all latency metrics come from here;
//! - a closed loop, both generators back to back, run three times; the
//!   fastest completion rate is `throughput_ops`.
//!
//! With the prefilter on, every 1024 consults (calls the hot cache does not
//! answer) a runtime pulls the store's merged negative filter through the
//! sealed channel, which at the shipped defaults stalls that call and the
//! server for a few hundred ms. The phases are sized so each spans the same
//! refreshes in every run: at the end of set-up generator 0 has a refresh
//! due and generator 1 is 512 consults from one, so their refreshes never
//! coincide, and each phase's consult count sits 256 consults (about 12%)
//! from the nearest refresh. Without that, whether a refresh fell inside a
//! phase would decide the run's tail.

use std::sync::Arc;
use std::time::{Duration, Instant};

use speed_core::{
    DedupRuntime, FuncDesc, FuncIdentity, HotCacheConfig, PrefilterConfig, RuntimeStats,
    TcpClient,
};
use speed_enclave::{CostModel, Platform};
use speed_store::server::{ServerConfig, StoreServer};
use speed_store::{MemoryBackend, ResultStore, StoreConfig};
use speed_wire::SessionAuthority;

use crate::gen::{poisson_schedule, ZipfRequests, ZipfSet, ZIPF_KEYS};
use crate::stats::quantile;
use crate::trace::{self, SharedLog, TimedClient, UnitStages};
use crate::{is_hit, library, repeat_setup, Config, Run, Unit};

const APP_CODE: &[u8] = b"perfbench-serve-zipf";
const GENERATORS: u64 = 2;
/// The fixed offered rate of the open-loop phase: a little over half the
/// closed-loop throughput on the reference host.
const NOMINAL_RATE: f64 = 1000.0;
/// Requests per generator in the open-loop phase: about 1790 consults at
/// the workload's ~72% hot-cache miss share, so refreshes at consults 1
/// and 1025 (generator 0) and 513 and 1537 (generator 1).
const NOMINAL_REQUESTS: usize = 2500;
/// Requests per generator in each closed-loop phase: about 4096 further
/// consults, so four more refreshes per generator, and the next phase
/// starts at the same point of the refresh period.
const SATURATION_REQUESTS: usize = 5730;
const SATURATION_PHASES: u64 = 3;

fn scan_desc() -> FuncDesc {
    FuncDesc::new("zlib", "1.2.11", "u64 scan(bytes)")
}

/// The marked function: a cheap byte scan (FNV-1a plus a count of bytes
/// with the high bit set).
pub fn scan(input: &[u8]) -> Vec<u8> {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    let mut high = 0u64;
    for &b in input {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        high += u64::from(b >> 7);
    }
    [hash.to_le_bytes(), high.to_le_bytes()].concat()
}

fn io_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| (n.get() / 2).max(1))
}

struct Stack {
    platform: Arc<Platform>,
    store: Arc<ResultStore>,
    server: StoreServer,
    runtimes: Vec<Arc<DedupRuntime>>,
    identity: FuncIdentity,
    logs: Vec<SharedLog>,
}

impl Stack {
    fn new(config: Config, set: &ZipfSet) -> Stack {
        let platform = Platform::new(CostModel::default_sgx());
        let store = Arc::new(
            ResultStore::new(&platform, StoreConfig::default())
                .expect("store enclave fits"),
        );
        let authority = Arc::new(SessionAuthority::with_seed(config.seed));
        let server = StoreServer::spawn_with_config(
            Arc::clone(&store),
            Arc::clone(&platform),
            Arc::clone(&authority),
            "127.0.0.1:0",
            ServerConfig { io_threads: io_threads(), ..ServerConfig::default() },
        )
        .expect("server binds a loopback port");
        let mut logs = Vec::new();
        let mut connect = |g: u64, serving: bool| {
            // Loaders run the prefilter too: PUTs without a prefilter tag
            // would leave the store's negative filters incomplete.
            let builder = DedupRuntime::builder(Arc::clone(&platform), APP_CODE)
                .trusted_library(library())
                .rng_seed(config.seed + g)
                .prefilter(PrefilterConfig::default());
            let builder = if serving {
                builder.hot_cache(HotCacheConfig::default())
            } else {
                builder
            };
            let builder = if serving && config.traced {
                // The client `tcp_store` would build, wrapped; its quote
                // comes from an enclave of the same code.
                let log = SharedLog::default();
                let enclave = platform.create_enclave(APP_CODE).expect("epc space");
                let client =
                    TcpClient::connect(server.addr(), &platform, &enclave, &authority)
                        .expect("attested connection");
                logs.push(Arc::clone(&log));
                builder.client(Box::new(TimedClient::new(Box::new(client), log)))
            } else {
                builder.tcp_store(server.addr(), Arc::clone(&authority))
            };
            builder.build().expect("runtime connects")
        };
        // Warm fill, part 1: two loader connections publish the working set.
        let loaders: Vec<_> = (0..GENERATORS).map(|g| connect(g, false)).collect();
        let identity = loaders[0].resolve(&scan_desc()).expect("library registered");
        in_parallel(&loaders, |g, runtime| {
            for key in (g..ZIPF_KEYS).step_by(GENERATORS as usize) {
                runtime
                    .execute_raw(&identity, &set.key_bytes(key), scan)
                    .expect("warm fill");
            }
        });
        drop(loaders);
        // Part 2: serving runtime g touches the 1024 + 512·g most popular
        // keys, most popular last, so its hot cache holds the top 1024.
        // Every touch misses the hot cache and consults the filter (one
        // refresh per 1024 consults, the first on the first consult).
        let runtimes: Vec<_> = (0..GENERATORS).map(|g| connect(g, true)).collect();
        in_parallel(&runtimes, |g, runtime| {
            for &key in set.keys_by_popularity()[..1024 + 512 * g].iter().rev() {
                runtime
                    .execute_raw(&identity, &set.key_bytes(key), scan)
                    .expect("warm touch");
            }
        });
        Stack { platform, store, server, runtimes, identity, logs }
    }
}

/// Runs `f(g, runtime)` for every runtime, each on its own thread.
fn in_parallel<T: Send>(
    runtimes: &[Arc<DedupRuntime>],
    f: impl Fn(usize, &Arc<DedupRuntime>) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> =
            runtimes.iter().enumerate().map(|(g, r)| s.spawn(move || f(g, r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    })
}

/// What one phase produced.
#[derive(Debug, Default)]
struct Phase {
    units: Vec<Unit>,
    lateness_ns: Vec<u64>,
    stages: Vec<UnitStages>,
    failed: u64,
    computed_bytes: u64,
    /// Seconds from the phase start to the last completion.
    wall_s: f64,
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Sends `requests` requests from each generator: on a Poisson schedule
/// at `rate` in total (open loop), or back to back when `rate` is `None`.
fn run_phase(
    stack: &Stack,
    set: &ZipfSet,
    seed: u64,
    phase: u64,
    rate: Option<f64>,
    requests: usize,
) -> Phase {
    let start = Instant::now() + Duration::from_millis(5);
    let per_generator = in_parallel(&stack.runtimes, |g, runtime| {
        let log = stack.logs.get(g);
        let g = g as u64;
        let schedule = match rate {
            Some(rate) => {
                let per_thread = rate / GENERATORS as f64;
                let duration = requests as f64 / per_thread;
                poisson_schedule(seed, phase * GENERATORS + g, per_thread, duration)
            }
            None => vec![0.0; requests],
        };
        let mut source = ZipfRequests::new(set, g, phase);
        let mut out = Phase::default();
        for offset in schedule {
            let input = source.next_request();
            // The open loop takes the host-speed probe in its slack time.
            let mut probe_ns = 0;
            let due = match rate {
                Some(_) => {
                    probe_ns = crate::probe();
                    let due = start + Duration::from_secs_f64(offset);
                    wait_until(due);
                    due
                }
                None => Instant::now().max(start),
            };
            let sent = Instant::now();
            let before = log.map(trace::totals);
            let result = match log {
                Some(log) => runtime.execute_raw(
                    &stack.identity,
                    &input,
                    trace::timed_compute(log, scan),
                ),
                None => runtime.execute_raw(&stack.identity, &input, scan),
            };
            let done = Instant::now();
            let latency_ns = (done - due).as_nanos() as u64;
            if let (Some(log), Some(before)) = (log, before) {
                let call_ns = (done - sent).as_nanos() as u64;
                out.stages.push(UnitStages::new(
                    latency_ns,
                    call_ns,
                    before,
                    trace::totals(log),
                ));
            }
            let t = Instant::now();
            let expected = scan(&input);
            let native_ns = t.elapsed().as_nanos() as u64;
            let hit = match result {
                Ok((got, outcome)) => {
                    out.failed += u64::from(got.as_slice() != expected.as_slice());
                    is_hit(outcome)
                }
                Err(e) => {
                    eprintln!("serve_zipf: call failed: {e}");
                    out.failed += 1;
                    false
                }
            };
            out.lateness_ns.push((sent - due).as_nanos() as u64);
            out.units.push(Unit { window: 0, probe_ns, latency_ns, native_ns, hit });
            if !hit {
                out.computed_bytes += input.len() as u64;
            }
            out.wall_s = (done - start).as_secs_f64();
        }
        out
    });
    let mut merged = Phase::default();
    for out in per_generator {
        merged.units.extend(out.units);
        merged.lateness_ns.extend(out.lateness_ns);
        merged.stages.extend(out.stages);
        merged.failed += out.failed;
        merged.computed_bytes += out.computed_bytes;
        merged.wall_s = merged.wall_s.max(out.wall_s);
    }
    merged
}

fn runtime_stats(runtimes: &[Arc<DedupRuntime>]) -> RuntimeStats {
    runtimes.iter().map(|r| r.stats()).fold(RuntimeStats::default(), |a, b| {
        RuntimeStats {
            calls: a.calls + b.calls,
            cache_hits: a.cache_hits + b.cache_hits,
            misses: a.misses + b.misses,
            filtered_misses: a.filtered_misses + b.filtered_misses,
            ..RuntimeStats::default()
        }
    })
}

/// Runs the workload. Its phases are sized in requests (see the module
/// docs), so `config.seconds` does not change them.
pub fn run(config: Config) -> Run {
    let set = ZipfSet::new(config.seed);
    let (stack, setup_s) = repeat_setup(|| Stack::new(config, &set));
    let mut run = Run {
        setup_s,
        planned_units: NOMINAL_REQUESTS * GENERATORS as usize,
        ..Run::default()
    };

    let store_before = stack.store.stats();
    let sgx_before = crate::sgx_ns(&stack.platform);
    let server_before = stack.server.stats();
    let runtime_before = runtime_stats(&stack.runtimes);
    let enclave_before: Vec<[u64; 3]> =
        stack.runtimes.iter().map(|r| crate::enclave_counts(r)).collect();
    let untimed_rpcs: Vec<usize> =
        stack.logs.iter().map(|l| trace::totals(l).rpcs).collect();

    let nominal =
        run_phase(&stack, &set, config.seed, 0, Some(NOMINAL_RATE), NOMINAL_REQUESTS);
    let store_after = stack.store.stats();
    run.sgx_ns = crate::sgx_ns(&stack.platform) - sgx_before;
    run.stored_bytes = (store_after.stored_bytes - store_before.stored_bytes) as f64;
    run.computed_bytes = nominal.computed_bytes as f64;
    run.failed = nominal.failed;
    run.units = nominal.units;
    run.reused = run.units.iter().filter(|u| u.hit).count() as u64;
    run.reusable = run.units.len() as u64;
    crate::more_setups(&mut run.setup_s, || {
        Stack::new(Config { traced: false, ..config }, &set)
    });
    let (tail_q, tail_us) = run.call_tail_us();
    let mut lateness: Vec<f64> =
        nominal.lateness_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let lateness_tail = quantile(&mut lateness, tail_q);
    run.note(format!(
        "serve_zipf: {GENERATORS} generator threads each with its own runtime and TCP \
         connection; server io_threads={} switchless={}; hot cache {} entries and prefilter \
         on (refresh every {} consults); open loop, Poisson arrivals at {NOMINAL_RATE}/s: {} \
         calls in {:.1} s ({} reused); call_tail_us = p{} = {tail_us:.0} us; generator \
         lateness p{} = {lateness_tail:.0} us; wall-clock metrics scaled by {:.3} for \
         contention",
        io_threads(),
        ServerConfig::default().switchless,
        HotCacheConfig::default().max_entries,
        PrefilterConfig::default().refresh_ops,
        run.units.len(),
        nominal.wall_s,
        run.reused,
        tail_q * 100.0,
        tail_q * 100.0,
        run.contention(),
    ));

    if config.traced {
        let server_after = stack.server.stats();
        let runtime_after = runtime_stats(&stack.runtimes);
        let enclave_delta = stack
            .runtimes
            .iter()
            .zip(&enclave_before)
            .map(|(r, &b)| crate::delta(crate::enclave_counts(r), b))
            .fold([0; 3], |a, d| std::array::from_fn(|i| a[i] + d[i]));
        let mut requests = ZipfRequests::new(&set, 0, 0);
        let samples = (0..256)
            .map(|_| {
                let input = requests.next_request();
                let result = scan(&input);
                (input, result)
            })
            .collect();
        let timed_rpcs: usize = stack
            .logs
            .iter()
            .zip(&untimed_rpcs)
            .map(|(l, &skip)| trace::totals(l).rpcs - skip)
            .sum();
        let calls = (runtime_after.calls - runtime_before.calls).max(1) as f64;
        let hot = (runtime_after.cache_hits - runtime_before.cache_hits) as f64;
        let misses = (runtime_after.misses - runtime_before.misses).max(1) as f64;
        let filtered =
            (runtime_after.filtered_misses - runtime_before.filtered_misses) as f64;
        let switchless =
            server_after.switchless_requests - server_before.switchless_requests;
        run.layers.insert(
            "store.server.switchless_share",
            switchless as f64 / timed_rpcs.max(1) as f64,
        );
        run.layers.insert("core.hotcache.hit_ratio", hot / calls);
        run.layers.insert("core.prefilter.filtered_miss_ratio", filtered / misses);
        run.layers.insert("load.lateness_tail_us", lateness_tail);
        let refreshes: Vec<usize> = stack
            .logs
            .iter()
            .zip(&untimed_rpcs)
            .map(|(l, &skip)| {
                let log = l.lock().expect("log");
                log.rpcs[skip..]
                    .iter()
                    .filter(|r| matches!(r.request, speed_wire::Message::FilterRequest))
                    .count()
            })
            .collect();
        run.note(format!(
            "serve_zipf: filter refreshes per runtime in the open loop: {refreshes:?}"
        ));
        crate::Traced {
            logs: &stack.logs,
            untimed_rpcs,
            units: &nominal.stages,
            identity: stack.identity,
            samples,
            enclave_delta,
            shard_delta: crate::delta(
                crate::shard_counts(&store_after),
                crate::shard_counts(&store_before),
            ),
            replay_backend: Arc::new(MemoryBackend::new()),
            prefilter: true,
            compute_is_deflate: false,
        }
        .fill(&mut run);
        return run;
    }

    // Each closed-loop phase spans a whole number of refresh periods, so the
    // phases line up alike; contention from other tenants only ever slows
    // one, so the fastest is the capacity.
    let rates: Vec<f64> = (1..=SATURATION_PHASES)
        .map(|phase| {
            let saturation =
                run_phase(&stack, &set, config.seed, phase, None, SATURATION_REQUESTS);
            run.failed += saturation.failed;
            saturation.units.len() as f64 / saturation.wall_s
        })
        .collect();
    let throughput = rates.iter().copied().fold(0.0, f64::max);
    run.throughput_ops = Some(throughput);
    run.note(format!(
        "serve_zipf: closed loop, both generators back to back, {SATURATION_PHASES} phases \
         of {} calls: {:?}/s; throughput_ops = the fastest",
        SATURATION_REQUESTS * GENERATORS as usize,
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
    ));
    run
}
