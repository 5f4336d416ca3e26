//! `paper_deflate`: the paper's Fig. 5b configuration. One caller in a
//! closed loop, one runtime on an in-process attested store (frames really
//! sealed through `SecureChannel`, no TCP), memory backend, hot cache and
//! prefilter off, so every repeat pays tag + GET + RCE recover. Each
//! input's native `speed_deflate::compress` is timed interleaved with its
//! dedup call, so host drift cancels out of the `*_pct_native` ratios.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use speed_core::{DedupRuntime, FuncIdentity, InProcessClient};
use speed_enclave::{CostModel, Platform};
use speed_store::{MemoryBackend, ResultStore, StoreConfig};
use speed_wire::SessionAuthority;

use crate::gen::{DeflateSequence, TextInput};
use crate::trace::{self, SharedLog, TimedClient, UnitStages};
use crate::{
    compress, deflate_desc, is_hit, library, repeat_setup, Config, Run, Unit, MAX_STRETCH,
};

const APP_CODE: &[u8] = b"perfbench-paper-deflate";
/// Distinct inputs published during set-up (the fixed warm fill).
const WARM_INPUTS: usize = 24;
/// Calls per second of timed phase the tail percentile is planned for, and
/// the most the generator prepares (the run stops early if it runs out).
const PLANNED_CALLS_PER_S: f64 = 70.0;
const MAX_CALLS_PER_S: f64 = 100.0;

struct Stack {
    platform: Arc<Platform>,
    store: Arc<ResultStore>,
    runtime: Arc<DedupRuntime>,
    identity: FuncIdentity,
    log: Option<SharedLog>,
}

impl Stack {
    fn new(config: Config, warm: &[&[u8]]) -> Stack {
        let platform = Platform::new(CostModel::default_sgx());
        let store = Arc::new(
            ResultStore::new(&platform, StoreConfig::default())
                .expect("store enclave fits"),
        );
        let authority = Arc::new(SessionAuthority::with_seed(config.seed));
        let builder = DedupRuntime::builder(Arc::clone(&platform), APP_CODE)
            .trusted_library(library())
            .rng_seed(config.seed);
        let (builder, log) = if config.traced {
            // The same client the runtime would build for itself, wrapped;
            // its attestation quote comes from an enclave of the same code.
            let log = SharedLog::default();
            let enclave = platform.create_enclave(APP_CODE).expect("epc space");
            let client = InProcessClient::connect(
                Arc::clone(&store),
                &authority,
                &platform,
                &enclave,
            )
            .expect("attested channel");
            let timed = TimedClient::new(Box::new(client), Arc::clone(&log));
            (builder.client(Box::new(timed)), Some(log))
        } else {
            (builder.in_process_store(Arc::clone(&store), authority), None)
        };
        let runtime = builder.build().expect("runtime builds");
        let identity = runtime.resolve(&deflate_desc()).expect("library registered");
        for input in warm {
            runtime.execute_raw(&identity, input, compress).expect("warm fill publishes");
        }
        Stack { platform, store, runtime, identity, log }
    }
}

pub fn run(config: Config) -> Run {
    // Every input the run may use is generated up front, so neither the
    // generator's time nor its memory depends on how fast the host runs.
    let mut sequence = DeflateSequence::new(config.seed);
    let warm_inputs: Vec<TextInput> =
        (0..WARM_INPUTS).map(|_| sequence.fresh()).collect();
    let calls: Vec<TextInput> = (0..(MAX_CALLS_PER_S * config.seconds * MAX_STRETCH)
        as usize)
        .map(|_| sequence.next_call())
        .collect();
    let bytes: HashMap<TextInput, Vec<u8>> =
        warm_inputs.iter().chain(&calls).map(|&i| (i, i.bytes())).collect();
    let warm: Vec<&[u8]> = warm_inputs.iter().map(|i| bytes[i].as_slice()).collect();

    let (stack, setup_s) = repeat_setup(|| Stack::new(config, &warm));
    let Stack { platform, store, runtime, identity, log } = stack;
    let keep_windows = crate::keep_windows(config.seconds);
    let mut run = Run {
        setup_s,
        keep_windows,
        planned_units: (PLANNED_CALLS_PER_S * keep_windows as f64 * crate::WINDOW_S)
            as usize,
        ..Run::default()
    };

    let store_before = store.stats();
    let sgx_before = crate::sgx_ns(&platform);
    let enclave_before = crate::enclave_counts(&runtime);
    let untimed_rpcs = log.as_ref().map_or(0, |l| trace::totals(l).rpcs);
    let mut stages = Vec::new();
    let mut samples = Vec::new();
    let started = Instant::now();
    let mut elapsed = started.elapsed();
    for input in &calls {
        let window = crate::window_of(elapsed);
        elapsed = started.elapsed();
        if crate::window_of(elapsed) != window
            && run.measured_enough(elapsed.as_secs_f64(), config.seconds)
        {
            break;
        }
        let input = bytes[input].as_slice();
        let probe_ns = crate::probe();
        let native = || {
            let t = Instant::now();
            let out = compress(input);
            (out, t.elapsed().as_nanos() as u64)
        };
        // Alternate which of the pair runs first so neither gets a warmer cache.
        let native_first = run.units.len().is_multiple_of(2);
        let early = native_first.then(native);
        let before = log.as_ref().map(trace::totals);
        let t = Instant::now();
        let result = match &log {
            Some(log) => {
                runtime.execute_raw(&identity, input, trace::timed_compute(log, compress))
            }
            None => runtime.execute_raw(&identity, input, compress),
        };
        let call_ns = t.elapsed().as_nanos() as u64;
        if let (Some(log), Some(before)) = (&log, before) {
            stages.push(UnitStages::new(call_ns, call_ns, before, trace::totals(log)));
        }
        let (expected, native_ns) = early.unwrap_or_else(native);
        let hit = match result {
            Ok((out, outcome)) => {
                run.failed += u64::from(out.as_slice() != expected.as_slice());
                if log.is_some() && samples.len() < 64 {
                    samples.push((input.to_vec(), expected));
                }
                is_hit(outcome)
            }
            Err(e) => {
                eprintln!("paper_deflate: call failed: {e}");
                run.failed += 1;
                false
            }
        };
        if !hit {
            run.computed_bytes += input.len() as f64;
        }
        run.reused += u64::from(hit);
        let window = crate::window_of(elapsed);
        run.units.push(Unit { window, probe_ns, latency_ns: call_ns, native_ns, hit });
    }
    run.reusable = run.units.len() as u64;
    let store_after = store.stats();
    run.stored_bytes = (store_after.stored_bytes - store_before.stored_bytes) as f64;
    run.sgx_ns = crate::sgx_ns(&platform) - sgx_before;
    crate::more_setups(&mut run.setup_s, || {
        Stack::new(Config { traced: false, ..config }, &warm)
    });
    let (tail_q, _) = run.call_tail_us();
    run.note(format!(
        "paper_deflate: closed loop, 1 caller, in-process store, MemoryBackend, hot cache \
         and prefilter off; {} KiB inputs; {} warm inputs; {} calls ({} reused){}; \
         call_tail_us = p{}",
        crate::gen::DEFLATE_BYTES >> 10,
        WARM_INPUTS,
        run.units.len(),
        run.reused,
        if run.units.len() == calls.len() { "; RAN OUT OF INPUTS" } else { "" },
        tail_q * 100.0,
    ));
    let note = run.window_note(started.elapsed().as_secs_f64());
    run.note(format!("paper_deflate: {note}"));

    if let Some(log) = log {
        let after = crate::enclave_counts(&runtime);
        crate::Traced {
            logs: &[log],
            untimed_rpcs: vec![untimed_rpcs],
            units: &stages,
            identity,
            samples,
            enclave_delta: crate::delta(after, enclave_before),
            shard_delta: crate::delta(
                crate::shard_counts(&store_after),
                crate::shard_counts(&store_before),
            ),
            replay_backend: Arc::new(MemoryBackend::new()),
            prefilter: false,
            compute_is_deflate: true,
        }
        .fill(&mut run);
    }
    run
}
