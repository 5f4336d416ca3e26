//! The traced run: timing wrappers at the program's public seams, timings
//! of public layer functions over the inputs a run recorded, and the
//! per-workload stage table.
//!
//! Nothing here reaches inside the program. The wrappers sit at the
//! `StoreClient` trait (around the same client type the runtime would build
//! itself), the `Vfs` trait (around `StdVfs`) and the compute closure.
//! Channel seal/open and the store's `handle` cannot be wrapped without
//! changing the client, so they are timed afterwards: seal/open over the
//! recorded frame sizes, `handle` by replaying the recorded requests, in
//! send order, into a fresh store of the same configuration.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use speed_core::{CoreError, StoreClient};
use speed_enclave::{CostModel, Platform};
use speed_store::vfs::{StdVfs, Vfs};
use speed_store::{ResultStore, StoreBackend, StoreConfig};
use speed_wire::{to_bytes, Message, SecureChannel, SessionAuthority};

use crate::stats::{median, quantile};

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("trace log lock poisoned by a panicking generator")
}

/// One store round trip as seen from the client side.
#[derive(Debug)]
pub struct Rpc {
    pub sent: Instant,
    pub ns: u64,
    pub request_len: usize,
    pub response_len: usize,
    pub request: Message,
}

/// What one generator thread's wrappers saw.
#[derive(Debug, Default)]
pub struct Log {
    pub rpcs: Vec<Rpc>,
    /// `(ns, input bytes)` per compute-closure invocation.
    pub compute: Vec<(u64, usize)>,
    pub rpc_ns: u64,
    pub compute_ns: u64,
    /// Time the wrappers spent on their own bookkeeping.
    pub book_ns: u64,
}

pub type SharedLog = Arc<Mutex<Log>>;

/// Running totals of a [`Log`], for per-unit differences.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub rpcs: usize,
    pub rpc_ns: u64,
    pub compute_ns: u64,
    pub book_ns: u64,
}

pub fn totals(log: &SharedLog) -> Totals {
    let log = lock(log);
    Totals {
        rpcs: log.rpcs.len(),
        rpc_ns: log.rpc_ns,
        compute_ns: log.compute_ns,
        book_ns: log.book_ns,
    }
}

/// A `StoreClient` that times every round trip of the client it wraps.
#[derive(Debug)]
pub struct TimedClient {
    inner: Box<dyn StoreClient>,
    log: SharedLog,
}

impl TimedClient {
    pub fn new(inner: Box<dyn StoreClient>, log: SharedLog) -> Self {
        TimedClient { inner, log }
    }
}

impl StoreClient for TimedClient {
    fn roundtrip(&mut self, request: &Message) -> Result<Message, CoreError> {
        let sent = Instant::now();
        let response = self.inner.roundtrip(request)?;
        let rpc_ns = ns(sent);
        let book = Instant::now();
        let rpc = Rpc {
            sent,
            ns: rpc_ns,
            request_len: to_bytes(request).len(),
            response_len: to_bytes(&response).len(),
            request: request.clone(),
        };
        let mut log = lock(&self.log);
        log.rpcs.push(rpc);
        log.rpc_ns += rpc_ns;
        log.book_ns += ns(book);
        Ok(response)
    }
}

/// Wraps a compute function so each invocation is timed into `log`.
pub fn timed_compute(
    log: &SharedLog,
    f: impl Fn(&[u8]) -> Vec<u8>,
) -> impl Fn(&[u8]) -> Vec<u8> {
    let log = Arc::clone(log);
    move |input| {
        let started = Instant::now();
        let out = f(input);
        let took = ns(started);
        let mut log = lock(&log);
        log.compute.push((took, input.len()));
        log.compute_ns += took;
        out
    }
}

/// What the [`TracingVfs`] saw.
#[derive(Debug, Default)]
pub struct VfsLog {
    pub sync_ns: Vec<u64>,
    pub written_bytes: u64,
    /// Checkpoints installed (renamed into place).
    pub checkpoints: u64,
}

/// A `Vfs` that times syncs and counts written bytes and installed
/// checkpoints on the way to the real file system.
#[derive(Debug, Default)]
pub struct TracingVfs {
    pub log: Mutex<VfsLog>,
}

fn is_checkpoint(path: &Path) -> bool {
    path.file_name()
        .and_then(|n| n.to_str())
        .is_some_and(|n| n == speed_store::segment::CHECKPOINT_FILE)
}

impl TracingVfs {
    fn timed_sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        let started = Instant::now();
        let result = sync();
        lock(&self.log).sync_ns.push(ns(started));
        result
    }
}

impl Vfs for TracingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        lock(&self.log).written_bytes += bytes.len() as u64;
        StdVfs.write(path, bytes)
    }
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        lock(&self.log).written_bytes += bytes.len() as u64;
        StdVfs.append(path, bytes)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdVfs.truncate(path, len)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.timed_sync(|| StdVfs.fsync(path))
    }
    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        self.timed_sync(|| StdVfs.fsync_dir(dir))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let result = StdVfs.rename(from, to);
        if result.is_ok() && is_checkpoint(to) {
            lock(&self.log).checkpoints += 1;
        }
        result
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove_file(path)
    }
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        StdVfs.create_dir_all(dir)
    }
    fn list_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        StdVfs.list_dir(dir)
    }
    fn file_len(&self, path: &Path) -> io::Result<u64> {
        StdVfs.file_len(path)
    }
    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}

/// Per-unit stage breakdown of one traced unit of work.
#[derive(Clone, Copy, Debug, Default)]
pub struct UnitStages {
    /// Unit latency as the benchmark measures it.
    pub unit_ns: u64,
    /// Time inside the runtime call.
    pub call_ns: u64,
    pub delta: Totals,
}

impl UnitStages {
    pub fn new(unit_ns: u64, call_ns: u64, before: Totals, after: Totals) -> Self {
        UnitStages {
            unit_ns,
            call_ns,
            delta: Totals {
                rpcs: after.rpcs - before.rpcs,
                rpc_ns: after.rpc_ns - before.rpc_ns,
                compute_ns: after.compute_ns - before.compute_ns,
                book_ns: after.book_ns - before.book_ns,
            },
        }
    }

    /// Call time not spent computing, in store round trips, or in the
    /// wrappers' bookkeeping.
    pub fn self_ns(&self) -> f64 {
        self.call_ns as f64
            - (self.delta.rpc_ns + self.delta.compute_ns + self.delta.book_ns) as f64
    }
}

/// Mean seal and open time per operation, timed over the recorded frame
/// sizes on a fresh channel pair: two seals and two opens per round trip.
/// Samples every k-th round trip so at most `budget_bytes` are sealed.
pub fn time_channel(rpcs: &[&Rpc], budget_bytes: usize) -> ChannelCost {
    let platform = Platform::new(CostModel::no_sgx());
    let app = platform.create_enclave(b"perfbench-channel-app").expect("epc space");
    let server = platform.create_enclave(b"perfbench-channel-store").expect("epc space");
    let authority = SessionAuthority::with_seed(0xC4A7);
    let (mut client, mut store) = authority
        .establish((&platform, &app), (&platform, &server))
        .expect("attestation of fresh enclaves");
    let total: usize = rpcs.iter().map(|r| r.request_len + r.response_len).sum();
    let stride = total.div_ceil(budget_bytes.max(1)).max(1);
    let (mut seal_ns, mut open_ns, mut ops) = (0u64, 0u64, 0u64);
    let probe = client.seal_message(&[]);
    let overhead = probe.len();
    store.open_message(&probe).expect("own frame opens");
    let mut one = |tx: &mut SecureChannel, rx: &mut SecureChannel, len: usize| {
        let plain = vec![0x5Au8; len];
        let started = Instant::now();
        let sealed = tx.seal_message(&plain);
        seal_ns += ns(started);
        let started = Instant::now();
        let opened = rx.open_message(&sealed).expect("own frame opens");
        open_ns += ns(started);
        assert_eq!(opened.len(), len);
        ops += 1;
    };
    for rpc in rpcs.iter().step_by(stride) {
        one(&mut client, &mut store, rpc.request_len);
        one(&mut store, &mut client, rpc.response_len);
    }
    let ops = ops.max(1) as f64;
    ChannelCost { seal_ns: seal_ns as f64 / ops, open_ns: open_ns as f64 / ops, overhead }
}

/// Mean cost of one seal and one open, and the bytes sealing adds to a frame.
#[derive(Clone, Copy, Debug)]
pub struct ChannelCost {
    pub seal_ns: f64,
    pub open_ns: f64,
    pub overhead: usize,
}

/// Replays `rpcs` (all of them, in send order, so the store evolves as it
/// did in the run) into a fresh store on `backend` and returns the
/// `handle` time of each of the last `timed` requests.
pub fn replay_handle(
    rpcs: &[&Rpc],
    timed: usize,
    backend: Arc<dyn StoreBackend>,
) -> Vec<f64> {
    let platform = Platform::new(CostModel::default_sgx());
    let (store, _) = ResultStore::open(&platform, StoreConfig::default(), backend)
        .expect("replay store opens");
    let first_timed = rpcs.len() - timed;
    let mut out = Vec::with_capacity(timed);
    for (i, rpc) in rpcs.iter().enumerate() {
        let started = Instant::now();
        let response = store.handle(rpc.request.clone());
        let took = ns(started);
        std::hint::black_box(response);
        if i >= first_timed {
            out.push(took as f64);
        }
    }
    out
}

/// Times `f` over `items` (cycling) until `budget_s` has passed and at
/// least one pass is done; returns the mean ns per item.
pub fn time_each<T>(items: &[T], budget_s: f64, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut n = 0u64;
    loop {
        for item in items {
            f(item);
            n += 1;
        }
        if started.elapsed().as_secs_f64() >= budget_s {
            return started.elapsed().as_nanos() as f64 / n as f64;
        }
    }
}

/// The stage table of one traced workload: mean µs per unit.
#[derive(Clone, Debug, Default)]
pub struct StageTable {
    pub units: usize,
    pub unit_mean_us: f64,
    pub compute_us: f64,
    pub seal_open_us: f64,
    pub handle_us: f64,
    pub rpc_residual_us: f64,
    pub runtime_self_us: f64,
    pub other_us: f64,
}

impl StageTable {
    /// Builds the table from per-unit records plus the per-round-trip
    /// seal/open and `handle` means timed outside the run.
    pub fn build(
        units: &[UnitStages],
        seal_open_per_rpc_ns: f64,
        handle_mean_ns: f64,
    ) -> Self {
        let n = units.len().max(1) as f64;
        let mean =
            |f: &dyn Fn(&UnitStages) -> f64| units.iter().map(f).sum::<f64>() / n / 1e3;
        let rpcs_per_unit = mean(&|u| u.delta.rpcs as f64) * 1e3;
        let rpc_us = mean(&|u| u.delta.rpc_ns as f64);
        let seal_open_us = seal_open_per_rpc_ns * rpcs_per_unit / 1e3;
        let handle_us = handle_mean_ns * rpcs_per_unit / 1e3;
        StageTable {
            units: units.len(),
            unit_mean_us: mean(&|u| u.unit_ns as f64),
            compute_us: mean(&|u| u.delta.compute_ns as f64),
            seal_open_us,
            handle_us,
            rpc_residual_us: rpc_us - seal_open_us - handle_us,
            runtime_self_us: mean(&|u| u.self_ns()),
            other_us: mean(&|u| (u.unit_ns - u.call_ns + u.delta.book_ns) as f64),
        }
    }

    pub fn stage_sum_us(&self) -> f64 {
        self.compute_us
            + self.seal_open_us
            + self.handle_us
            + self.rpc_residual_us
            + self.runtime_self_us
            + self.other_us
    }

    pub fn render(&self, workload: &str) -> String {
        let row = |name: &str, us: f64| {
            format!(
                "#   {name:<28} {us:>12.1} us {:>6.1}%\n",
                100.0 * us / self.unit_mean_us
            )
        };
        let mut out = format!(
            "# stage table: {workload}, mean per unit over {} traced units\n",
            self.units
        );
        out += &row("compute", self.compute_us);
        out += &row("store rpc: channel seal/open", self.seal_open_us);
        out += &row("store rpc: store handle", self.handle_us);
        out += &row("store rpc: residual", self.rpc_residual_us);
        out += &row("runtime self", self.runtime_self_us);
        out += &row("other", self.other_us);
        out += &row("sum of stages", self.stage_sum_us());
        out += &row("traced unit mean", self.unit_mean_us);
        out
    }
}

/// Median and tail of per-round-trip latencies, in µs.
pub fn rpc_p50_tail(rpcs: &[&Rpc]) -> (f64, f64) {
    let mut us: Vec<f64> = rpcs.iter().map(|r| r.ns as f64 / 1e3).collect();
    let q = crate::stats::tail_quantile(us.len());
    (median(&mut us), quantile(&mut us, q))
}

/// Median compute-closure time, in µs (0 when the closure never ran).
pub fn compute_p50_us(log: &Log) -> f64 {
    let mut us: Vec<f64> = log.compute.iter().map(|&(ns, _)| ns as f64 / 1e3).collect();
    if us.is_empty() {
        0.0
    } else {
        median(&mut us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_add_up_to_the_unit_mean() {
        let at = |rpcs, rpc_ns, compute_ns, book_ns| Totals {
            rpcs,
            rpc_ns,
            compute_ns,
            book_ns,
        };
        // A 1000 µs unit: 300 µs queued before the call, 200 µs computing,
        // two 150 µs round trips, 10 µs of wrapper bookkeeping.
        let unit = UnitStages::new(
            1_000_000,
            700_000,
            at(0, 0, 0, 0),
            at(2, 300_000, 200_000, 10_000),
        );
        // Per round trip: 40 µs sealing/opening, 5 µs in the store.
        let table = StageTable::build(&[unit], 40_000.0, 5_000.0);
        assert_eq!(table.compute_us, 200.0);
        assert_eq!(table.seal_open_us, 80.0);
        assert_eq!(table.handle_us, 10.0);
        assert_eq!(table.rpc_residual_us, 210.0);
        assert_eq!(table.runtime_self_us, 190.0);
        assert_eq!(table.other_us, 310.0);
        assert_eq!(table.stage_sum_us(), table.unit_mean_us);
    }
}
