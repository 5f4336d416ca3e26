//! `stream_durable`: chunked ingest of partially overlapping documents
//! (`speed_workloads::overlap_corpus`, plus exact re-uploads) through
//! `execute_stream` into an in-process store on a `LogBackend`. One caller
//! in a closed loop; hot cache and prefilter off; a fresh data directory
//! per set-up with fsync on and the default checkpoint interval.
//!
//! Write-heavy: the chunker, the batch path (`execute_batch` →
//! `handle_batch`), WAL append with group-commit fsync and checkpoints do
//! the work. After the timed phase the data directory is reopened with a
//! fresh backend and every acknowledged chunk record must be recovered.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use speed_core::{
    chunk_all, ChunkerConfig, DedupRuntime, FuncIdentity, InProcessClient, StreamConfig,
    StreamStats,
};
use speed_enclave::{CostModel, Platform};
use speed_store::{LogBackend, LogConfig, ResultStore, StoreBackend, StoreConfig};
use speed_wire::SessionAuthority;

use crate::gen::stream_documents;
use crate::trace::{self, SharedLog, TimedClient, TracingVfs, UnitStages};
use crate::{
    compress, deflate_desc, is_hit, library, repeat_setup, Config, Run, Unit, MAX_STRETCH,
};

const APP_CODE: &[u8] = b"perfbench-stream-durable";
/// 256 B / 1 KiB / 4 KiB chunks, 32-chunk flushes.
const STREAM: StreamConfig = StreamConfig {
    chunker: ChunkerConfig { min: 256, avg: 1024, max: 4096 },
    flush_chunks: 32,
};
/// Documents ingested during set-up, before the store is reopened.
const WARM_DOCS: usize = 24;
/// Documents per second of timed phase the tail percentile is planned for,
/// and the most the generator prepares (the run stops early if it runs out).
const PLANNED_DOCS_PER_S: f64 = 80.0;
const MAX_DOCS_PER_S: f64 = 100.0;

/// Where this run keeps its data directories, inside the working directory.
fn data_dir(label: &str) -> PathBuf {
    Path::new(".bench_tmp").join(format!("{label}-{}", std::process::id()))
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("data directory is creatable");
}

/// Bytes of every file in `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("data directory is readable")
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

fn open_store(
    platform: &Arc<Platform>,
    dir: &Path,
    vfs: Option<&Arc<TracingVfs>>,
) -> Arc<ResultStore> {
    let config = LogConfig::new(dir);
    let backend = match vfs {
        Some(vfs) => LogBackend::with_vfs(Arc::clone(vfs) as _, config),
        None => LogBackend::new(config),
    };
    let (store, _) =
        ResultStore::open(platform, StoreConfig::default(), Arc::new(backend))
            .expect("log backend opens");
    Arc::new(store)
}

fn runtime(
    config: Config,
    platform: &Arc<Platform>,
    store: &Arc<ResultStore>,
    authority: &Arc<SessionAuthority>,
    log: Option<&SharedLog>,
) -> Arc<DedupRuntime> {
    let builder = DedupRuntime::builder(Arc::clone(platform), APP_CODE)
        .trusted_library(library())
        .rng_seed(config.seed);
    let builder = match log {
        Some(log) => {
            // The client `in_process_store` would build, wrapped.
            let enclave = platform.create_enclave(APP_CODE).expect("epc space");
            let client = InProcessClient::connect(
                Arc::clone(store),
                authority,
                platform,
                &enclave,
            )
            .expect("attested channel");
            builder.client(Box::new(TimedClient::new(Box::new(client), Arc::clone(log))))
        }
        None => builder.in_process_store(Arc::clone(store), Arc::clone(authority)),
    };
    builder.build().expect("runtime builds")
}

struct Stack {
    platform: Arc<Platform>,
    store: Arc<ResultStore>,
    runtime: Arc<DedupRuntime>,
    identity: FuncIdentity,
    log: Option<SharedLog>,
    vfs: Option<Arc<TracingVfs>>,
}

impl Stack {
    /// Opens a fresh store, ingests the warm documents, reopens the store
    /// (WAL recovery) and checkpoints it.
    fn new(config: Config, dir: &Path, warm: &[Vec<u8>]) -> Stack {
        fresh_dir(dir);
        let platform = Platform::new(CostModel::default_sgx());
        let authority = Arc::new(SessionAuthority::with_seed(config.seed));
        let log = config.traced.then(SharedLog::default);
        let vfs = config.traced.then(|| Arc::new(TracingVfs::default()));
        let store = open_store(&platform, dir, vfs.as_ref());
        let warm_runtime = runtime(config, &platform, &store, &authority, log.as_ref());
        let identity = warm_runtime.resolve(&deflate_desc()).expect("library registered");
        for doc in warm {
            warm_runtime
                .execute_stream(identity, STREAM, doc, compress)
                .expect("warm fill ingests");
        }
        drop(warm_runtime);
        drop(store);
        let store = open_store(&platform, dir, vfs.as_ref());
        store.checkpoint().expect("checkpoint after recovery");
        let runtime = runtime(config, &platform, &store, &authority, log.as_ref());
        Stack { platform, store, runtime, identity, log, vfs }
    }
}

pub fn run(config: Config) -> Run {
    let docs = stream_documents(
        config.seed,
        WARM_DOCS + (MAX_DOCS_PER_S * config.seconds * MAX_STRETCH) as usize,
    );
    let (warm, timed_docs) = docs.split_at(WARM_DOCS);
    let dir = data_dir("stream");
    let (stack, setup_s) = repeat_setup(|| Stack::new(config, &dir, warm));
    let Stack { platform, store, runtime, identity, log, vfs } = stack;
    let keep_windows = crate::keep_windows(config.seconds);
    let mut run = Run {
        setup_s,
        keep_windows,
        planned_units: (PLANNED_DOCS_PER_S * keep_windows as f64 * crate::WINDOW_S)
            as usize,
        ..Run::default()
    };

    let disk_before = dir_bytes(&dir);
    let store_before = store.stats();
    let sgx_before = crate::sgx_ns(&platform);
    let enclave_before = crate::enclave_counts(&runtime);
    let untimed_rpcs = log.as_ref().map_or(0, |l| trace::totals(l).rpcs);
    let vfs_counts = |v: &Arc<TracingVfs>| {
        let v = v.log.lock().expect("vfs log");
        (v.sync_ns.len(), v.written_bytes, v.checkpoints)
    };
    let vfs_before = vfs.as_ref().map(vfs_counts);
    // Latencies of the documents during which a checkpoint was installed,
    // and of the rest (traced runs only).
    let (mut with_checkpoint, mut without_checkpoint) = (Vec::new(), Vec::new());
    let mut totals = StreamStats::default();
    let mut stages = Vec::new();
    let mut samples = Vec::new();
    let mut input_bytes = 0.0;
    let started = Instant::now();
    let mut elapsed = started.elapsed();
    for doc in timed_docs {
        let last_window = crate::window_of(elapsed);
        elapsed = started.elapsed();
        let window = crate::window_of(elapsed);
        if window != last_window
            && run.measured_enough(elapsed.as_secs_f64(), config.seconds)
        {
            break;
        }
        let probe_ns = crate::probe();
        let native = || {
            let t = Instant::now();
            let chunks = chunk_all(STREAM.chunker, doc);
            let out: Vec<Vec<u8>> = chunks.iter().map(|c| compress(c)).collect();
            ((chunks, out), t.elapsed().as_nanos() as u64)
        };
        let native_first = run.units.len().is_multiple_of(2);
        let early = native_first.then(native);
        let before = log.as_ref().map(trace::totals);
        let checkpoints_before = vfs.as_ref().map(|v| vfs_counts(v).2);
        let t = Instant::now();
        let result = match &log {
            Some(log) => runtime.execute_stream(
                identity,
                STREAM,
                doc,
                trace::timed_compute(log, compress),
            ),
            None => runtime.execute_stream(identity, STREAM, doc, compress),
        };
        let doc_ns = t.elapsed().as_nanos() as u64;
        if let (Some(log), Some(before)) = (&log, before) {
            stages.push(UnitStages::new(doc_ns, doc_ns, before, trace::totals(log)));
        }
        if let (Some(vfs), Some(checkpoints)) = (&vfs, checkpoints_before) {
            let ms = doc_ns as f64 / 1e6;
            if vfs_counts(vfs).2 > checkpoints {
                with_checkpoint.push(ms);
            } else {
                without_checkpoint.push(ms);
            }
        }
        let ((chunks, expected), native_ns) = early.unwrap_or_else(native);
        input_bytes += doc.len() as f64;
        let hit = match result {
            Ok(outcome) => {
                let parts_match = outcome.parts.len() == expected.len()
                    && outcome
                        .parts
                        .iter()
                        .zip(&expected)
                        .all(|(p, e)| p.as_slice() == e.as_slice());
                run.failed += u64::from(!parts_match);
                run.computed_bytes += chunks
                    .iter()
                    .zip(&outcome.outcomes)
                    .filter(|(_, &o)| !is_hit(o))
                    .map(|(c, _)| c.len() as f64)
                    .sum::<f64>();
                let s = outcome.stats;
                totals.chunks += s.chunks;
                totals.chunk_hits += s.chunk_hits;
                totals.forced_cuts += s.forced_cuts;
                totals.flushes += s.flushes;
                if log.is_some() && samples.len() < 256 {
                    samples.extend(chunks.into_iter().zip(expected));
                }
                outcome.outcomes.iter().all(|&o| is_hit(o))
            }
            Err(e) => {
                eprintln!("stream_durable: ingest failed: {e}");
                run.failed += 1;
                false
            }
        };
        run.units.push(Unit { window, probe_ns, latency_ns: doc_ns, native_ns, hit });
    }
    let timed_s = started.elapsed().as_secs_f64();
    run.reused = totals.chunk_hits;
    run.reusable = totals.chunks;
    run.sgx_ns = crate::sgx_ns(&platform) - sgx_before;
    let store_after = store.stats();
    let enclave_after = crate::enclave_counts(&runtime);
    let vfs_after = vfs.as_ref().map(|v| {
        let (syncs_before, _, _) = vfs_before.expect("traced");
        let log = v.log.lock().expect("vfs log");
        (log.sync_ns[syncs_before..].to_vec(), log.written_bytes, log.checkpoints)
    });
    store.checkpoint().expect("final checkpoint");
    run.stored_bytes = dir_bytes(&dir) as f64 - disk_before as f64;
    let setup_dir = data_dir("stream-setup");
    let plain = Config { traced: false, ..config };
    crate::more_setups(&mut run.setup_s, || Stack::new(plain, &setup_dir, warm));
    let _ = std::fs::remove_dir_all(&setup_dir);
    let hits = run.units.iter().filter(|u| u.hit).count();
    run.note(format!(
        "stream_durable: closed loop, 1 caller, in-process store on LogBackend (fsync on, \
         checkpoint every {} records, {} shard logs), hot cache and prefilter off; chunker \
         {}/{}/{} B, {}-chunk flushes; {} documents in {timed_s:.1} s ({} fully reused), {} \
         chunks ({} reused); call_tail_us = p{}{}",
        LogConfig::new(".").checkpoint_every,
        LogConfig::new(".").logs,
        STREAM.chunker.min,
        STREAM.chunker.avg,
        STREAM.chunker.max,
        STREAM.flush_chunks,
        run.units.len(),
        hits,
        totals.chunks,
        totals.chunk_hits,
        run.call_tail_us().0 * 100.0,
        if run.units.len() == timed_docs.len() { "; RAN OUT OF DOCUMENTS" } else { "" },
    ));
    let note = run.window_note(timed_s);
    run.note(format!("stream_durable: {note}"));

    if let (Some(log), Some((sync_ns, written, checkpoints))) = (&log, vfs_after) {
        let puts = (store_after.puts - store_before.puts).max(1) as f64;
        let (_, written_before, checkpoints_before) = vfs_before.expect("traced");
        let mut sync_us: Vec<f64> = sync_ns.iter().map(|&n| n as f64 / 1e3).collect();
        let layers = &mut run.layers;
        layers.insert("store.log.fsyncs_per_put", sync_ns.len() as f64 / puts);
        layers.insert("store.log.fsync_us_p50", crate::stats::median(&mut sync_us));
        layers.insert(
            "store.log.write_bytes_per_input_byte",
            (written - written_before) as f64 / input_bytes,
        );
        layers.insert("store.log.checkpoints", (checkpoints - checkpoints_before) as f64);
        // A checkpoint runs inside the flush that triggers it: its cost is
        // what the document that carried it took beyond a typical one.
        let typical = crate::stats::median(&mut without_checkpoint);
        let excess: Vec<f64> = with_checkpoint.iter().map(|ms| ms - typical).collect();
        layers.insert("store.log.checkpoint_ms", crate::stats::mean(&excess));
        let sample_docs = &timed_docs[..run.units.len().min(32)];
        let chunker_ns = trace::time_each(sample_docs, 0.2, |d| {
            std::hint::black_box(chunk_all(STREAM.chunker, d));
        });
        let doc_bytes: usize = sample_docs.iter().map(Vec::len).sum();
        layers.insert(
            "core.chunker.mb_s",
            doc_bytes as f64 / sample_docs.len().max(1) as f64 / chunker_ns * 1e3,
        );
        layers.insert(
            "core.chunker.forced_cut_ratio",
            totals.forced_cuts as f64 / totals.chunks.max(1) as f64,
        );
        layers.insert(
            "core.stream.chunks_per_flush",
            totals.chunks as f64 / totals.flushes.max(1) as f64,
        );
        let replay_dir = data_dir("stream-replay");
        fresh_dir(&replay_dir);
        crate::Traced {
            logs: std::slice::from_ref(log),
            untimed_rpcs: vec![untimed_rpcs],
            units: &stages,
            identity,
            samples,
            enclave_delta: crate::delta(enclave_after, enclave_before),
            shard_delta: crate::delta(
                crate::shard_counts(&store_after),
                crate::shard_counts(&store_before),
            ),
            replay_backend: Arc::new(LogBackend::new(LogConfig::new(&replay_dir)))
                as Arc<dyn StoreBackend>,
            prefilter: false,
            compute_is_deflate: true,
        }
        .fill(&mut run);
        let _ = std::fs::remove_dir_all(&replay_dir);
    }

    drop(runtime);
    drop(store);
    let ingested = &timed_docs[..run.units.len()];
    run.failed += check_recovery(config, &platform, &dir, identity, ingested, &mut run);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    run
}

/// Reopens `dir` with a fresh backend, untimed, and checks that every
/// chunk the timed phase acknowledged is recovered with the right result.
/// Returns the number of documents with a chunk that was not.
fn check_recovery(
    config: Config,
    platform: &Arc<Platform>,
    dir: &Path,
    identity: FuncIdentity,
    docs: &[Vec<u8>],
    run: &mut Run,
) -> u64 {
    let store = open_store(platform, dir, None);
    let authority = Arc::new(SessionAuthority::with_seed(config.seed ^ 0xD0C));
    let reader = runtime(config, platform, &store, &authority, None);
    let mut seen = HashSet::new();
    let (mut checked, mut lost, mut damaged_docs) = (0u64, 0u64, 0u64);
    for doc in docs {
        let lost_before = lost;
        for chunk in chunk_all(STREAM.chunker, doc) {
            if !seen.insert(speed_crypto::Sha256::digest(&chunk)) {
                continue;
            }
            checked += 1;
            match reader.lookup(&identity, &chunk) {
                Ok(Some(result)) if result.as_slice() == compress(&chunk).as_slice() => {}
                _ => lost += 1,
            }
        }
        damaged_docs += u64::from(lost > lost_before);
    }
    run.note(format!(
        "stream_durable: reopened the data directory with a fresh LogBackend: {} of {checked} \
         acknowledged chunk records recovered",
        checked - lost
    ));
    damaged_docs
}
