//! The three workloads, their seeded inputs, the systems they drive under
//! each lock provider, and the correctness oracles that check them.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gls::glk::GlkConfig;
use gls::{GlkLock, GlsConfig, GlsService};
use gls_locks::{CachePadded, MutexLock, RawLock};
use gls_systems::hamsterdb::HamsterDb;
use gls_systems::kyoto::{KyotoFlavor, KyotoHashDb};
use gls_systems::LockProvider;

use crate::reference::{PaddedMutex, StdHamster, StdKyoto};

/// Closed-loop worker threads per window.
pub const WORKERS: usize = 2;
/// Ops in each worker's seeded op ring (a power of two; cycled).
pub const RING: usize = 1 << 16;

/// `addr-locks`: number of lock-protected objects and the zipf exponent.
const OBJECTS: usize = 4096;
const ZIPF_ALPHA: f64 = 0.9;
/// Keys preloaded into `hamsterdb-mixed` and `kyoto-cache`.
pub const KEYS: u64 = 50_000;
/// `kyoto-cache`: keys only one worker touches, per worker, at the top of
/// the key space.
const PRIVATE: u64 = 1024;
const SHARED: u64 = KEYS - WORKERS as u64 * PRIVATE;

/// An op word: key in the low bits, [`OpKind`] in the top two.
const KIND_SHIFT: u32 = 30;
const KEY_MASK: u32 = (1 << KIND_SHIFT) - 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// A lookup: `get`, or a locked read of an `addr-locks` counter.
    Read = 0,
    /// An update: `put`, or an `addr-locks` increment.
    Write = 1,
    /// `KyotoHashDb::maintain`, which takes the global lock exclusively.
    Maintain = 2,
}

pub fn kind_of(op: u32) -> usize {
    (op >> KIND_SHIFT) as usize
}

fn op(kind: OpKind, key: u64) -> u32 {
    debug_assert!(key <= u64::from(KEY_MASK));
    ((kind as u32) << KIND_SHIFT) | key as u32
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Provider {
    Mutex,
    Glk,
    Gls,
    /// The reference: the same lock shapes on std's locks.
    Std,
}

impl Provider {
    pub const ALL: [Provider; 4] = [Provider::Mutex, Provider::Glk, Provider::Gls, Provider::Std];

    pub fn name(self) -> &'static str {
        match self {
            Provider::Mutex => "mutex",
            Provider::Glk => "glk",
            Provider::Gls => "gls",
            Provider::Std => "std",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    AddrLocks,
    HamsterMixed,
    KyotoCache,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "addr-locks" => Some(Workload::AddrLocks),
            "hamsterdb-mixed" => Some(Workload::HamsterMixed),
            "kyoto-cache" => Some(Workload::KyotoCache),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::AddrLocks => "addr-locks",
            Workload::HamsterMixed => "hamsterdb-mixed",
            Workload::KyotoCache => "kyoto-cache",
        }
    }

    /// Span names of the three op kinds.
    pub fn op_names(self) -> [&'static str; 3] {
        match self {
            Workload::AddrLocks => ["addr.read", "addr.increment", "addr.maintain"],
            Workload::HamsterMixed => ["hamsterdb.get", "hamsterdb.put", "hamsterdb.maintain"],
            Workload::KyotoCache => ["kyoto.get", "kyoto.put", "kyoto.maintain"],
        }
    }

    /// The op kinds that exclude every other op on the lock they take:
    /// `maintain` on `kyoto-cache`; every op on `hamsterdb-mixed` (one
    /// global mutex); the increment on `addr-locks`.
    pub fn exclusive_kinds(self) -> &'static [OpKind] {
        match self {
            Workload::AddrLocks => &[OpKind::Write],
            Workload::HamsterMixed => &[OpKind::Read, OpKind::Write],
            Workload::KyotoCache => &[OpKind::Maintain],
        }
    }
}

/// splitmix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Everything generated from the seed: one op ring per worker and, for
/// `addr-locks`, the object that zipf rank 0 maps to.
pub struct Inputs {
    pub rings: Vec<Vec<u32>>,
    pub hot_object: usize,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Self {
        let mut rng = Rng::new(seed ^ 0x6C6F_636B_6265_6E63);
        // Zipf ranks land on objects through a seeded permutation, so the hot
        // objects are scattered over the population.
        let mut perm: Vec<u64> = (0..OBJECTS as u64).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut cdf: Vec<f64> = (1..=OBJECTS)
            .scan(0.0, |acc, rank| {
                *acc += 1.0 / (rank as f64).powf(ZIPF_ALPHA);
                Some(*acc)
            })
            .collect();
        let total = cdf[OBJECTS - 1];
        cdf.iter_mut().for_each(|c| *c /= total);
        let rings = (0..WORKERS as u64)
            .map(|w| {
                (0..RING)
                    .map(|_| match workload {
                        Workload::AddrLocks => {
                            let u = rng.unit();
                            let rank = cdf.partition_point(|&c| c < u).min(OBJECTS - 1);
                            op(OpKind::Write, perm[rank])
                        }
                        Workload::HamsterMixed => {
                            let kind = if rng.below(2) == 0 {
                                OpKind::Read
                            } else {
                                OpKind::Write
                            };
                            op(kind, rng.below(KEYS))
                        }
                        Workload::KyotoCache => {
                            let kind = match rng.below(100) {
                                0..=69 => OpKind::Read,
                                70..=94 => OpKind::Write,
                                _ => OpKind::Maintain,
                            };
                            // Uniform over the shared keys and this worker's
                            // private range.
                            let u = rng.below(SHARED + PRIVATE);
                            let key = if u < SHARED {
                                u
                            } else {
                                private_base(w as usize) + (u - SHARED)
                            };
                            op(kind, key)
                        }
                    })
                    .collect()
            })
            .collect();
        Inputs {
            rings,
            hot_object: perm[0] as usize,
        }
    }
}

fn private_base(worker: usize) -> u64 {
    SHARED + worker as u64 * PRIVATE
}

/// The value `HamsterDb::load` stores, also used to preload Kyoto.
fn preload_value(key: u64) -> u64 {
    key.wrapping_mul(31)
}

/// A value written by `worker`: the key, the writer and its sequence.
fn written_value(key: u64, worker: usize, seq: u64) -> u64 {
    (key << 32) | ((worker as u64 + 1) << 24) | (seq & 0xFF_FFFF)
}

/// Whether `v` is a value some writer could have stored under `key`.
fn plausible(key: u64, v: u64) -> bool {
    let writer = (v >> 24) & 0xFF;
    v == preload_value(key) || (v >> 32 == key && (1..=WORKERS as u64).contains(&writer))
}

/// Per-worker state that outlives a window: the write sequence, op counts
/// by kind and, on `kyoto-cache`, the last value written to each private key.
/// Each worker writes its own on every op; the alignment keeps two workers'
/// states off each other's cache lines (and adjacent-line prefetch pairs).
#[repr(align(128))]
pub struct WorkerState {
    worker: usize,
    seq: u64,
    pub by_kind: [u64; 3],
    shadow: Vec<u64>,
}

impl WorkerState {
    pub fn new(workload: Workload, worker: usize) -> Self {
        let shadow = if workload == Workload::KyotoCache {
            (0..PRIVATE)
                .map(|i| preload_value(private_base(worker) + i))
                .collect()
        } else {
            Vec::new()
        };
        Self {
            worker,
            seq: 0,
            by_kind: [0; 3],
            shadow,
        }
    }

    fn private_slot(&self, key: u64) -> Option<usize> {
        let base = private_base(self.worker);
        (!self.shadow.is_empty() && (base..base + PRIVATE).contains(&key))
            .then(|| (key - base) as usize)
    }
}

/// A cache-line-sized object of `addr-locks`. The counter is updated with
/// a plain load and store under the object's lock, so a lost update shows
/// in the counter sum if the lock ever fails to exclude.
#[repr(align(64))]
#[derive(Default)]
pub struct Object {
    count: AtomicU64,
}

enum ObjectLocks {
    Mutex(Vec<CachePadded<MutexLock>>),
    Glk(Vec<GlkLock>),
    Gls(Arc<GlsService>),
    Std(Vec<PaddedMutex>),
}

pub struct AddrLocks {
    objects: Vec<Object>,
    locks: ObjectLocks,
}

impl AddrLocks {
    /// Runs `f` on object `i` under its lock; `false` if a GLS call failed.
    #[inline]
    fn with_lock(&self, i: usize, f: impl FnOnce(&AtomicU64)) -> bool {
        let obj = &self.objects[i];
        match &self.locks {
            ObjectLocks::Mutex(locks) => {
                locks[i].lock();
                f(&obj.count);
                locks[i].unlock();
                true
            }
            ObjectLocks::Glk(locks) => {
                locks[i].lock();
                f(&obj.count);
                locks[i].unlock();
                true
            }
            ObjectLocks::Gls(service) => {
                if service.lock(obj).is_err() {
                    return false;
                }
                f(&obj.count);
                service.unlock(obj).is_ok()
            }
            ObjectLocks::Std(locks) => {
                let _held = locks[i].lock();
                f(&obj.count);
                true
            }
        }
    }
}

pub enum System {
    Addr(AddrLocks),
    /// `hamsterdb-mixed` or `kyoto-cache`.
    Store(Box<dyn Store>),
}

/// The store operations of the two `gls_systems` workloads, so the repo's
/// stores and the std reference run through one driver path.
pub trait Store: Sync {
    fn get(&self, key: u64) -> Option<u64>;
    fn put(&self, key: u64, value: u64);
    fn maintain(&self) {}
    fn len(&self) -> usize;
}

impl Store for HamsterDb {
    fn get(&self, key: u64) -> Option<u64> {
        HamsterDb::get(self, key)
    }
    fn put(&self, key: u64, value: u64) {
        HamsterDb::put(self, key, value)
    }
    fn len(&self) -> usize {
        HamsterDb::len(self)
    }
}

impl Store for KyotoHashDb {
    fn get(&self, key: u64) -> Option<u64> {
        KyotoHashDb::get(self, key)
    }
    fn put(&self, key: u64, value: u64) {
        KyotoHashDb::put(self, key, value)
    }
    fn maintain(&self) {
        KyotoHashDb::maintain(self)
    }
    fn len(&self) -> usize {
        KyotoHashDb::len(self)
    }
}

/// One workload's system built under one provider.
pub struct Instance {
    pub system: System,
    /// The provider's GLS service (`gls` only).
    pub service: Option<Arc<GlsService>>,
}

impl Instance {
    /// Builds the lock population and preloads it; this is what `setup_s`
    /// times. `traced` turns on GLK transition recording in the GLS service.
    pub fn build(workload: Workload, provider: Provider, traced: bool) -> Self {
        let service = (provider == Provider::Gls).then(|| {
            let glk = GlkConfig::default().with_transition_recording(traced);
            Arc::new(GlsService::with_config(GlsConfig::default().with_glk(glk)))
        });
        let lock_provider = match provider {
            Provider::Mutex => Some(LockProvider::mutex()),
            Provider::Glk => Some(LockProvider::glk()),
            Provider::Gls => Some(LockProvider::Gls(Arc::clone(
                service.as_ref().expect("gls service"),
            ))),
            Provider::Std => None,
        };
        let system = match workload {
            Workload::AddrLocks => {
                let objects: Vec<Object> = (0..OBJECTS).map(|_| Object::default()).collect();
                let locks = match provider {
                    Provider::Mutex => ObjectLocks::Mutex(
                        (0..OBJECTS)
                            .map(|_| CachePadded::new(MutexLock::new()))
                            .collect(),
                    ),
                    Provider::Glk => {
                        ObjectLocks::Glk((0..OBJECTS).map(|_| GlkLock::new()).collect())
                    }
                    Provider::Gls => {
                        ObjectLocks::Gls(Arc::clone(service.as_ref().expect("gls service")))
                    }
                    Provider::Std => {
                        ObjectLocks::Std((0..OBJECTS).map(|_| PaddedMutex::default()).collect())
                    }
                };
                let addr = AddrLocks { objects, locks };
                // Touch every lock once, so GLS creates its entries here.
                for i in 0..OBJECTS {
                    assert!(addr.with_lock(i, |_| ()), "set-up lock call failed");
                }
                System::Addr(addr)
            }
            Workload::HamsterMixed => System::Store(match &lock_provider {
                Some(lock_provider) => {
                    let db = HamsterDb::new(lock_provider);
                    db.load(KEYS);
                    Box::new(db)
                }
                None => Box::new(StdHamster::load(KEYS)),
            }),
            Workload::KyotoCache => {
                let db: Box<dyn Store> = match &lock_provider {
                    Some(p) => Box::new(KyotoHashDb::new(p, KyotoFlavor::Cache)),
                    None => Box::<StdKyoto>::default(),
                };
                for key in 0..KEYS {
                    db.put(key, preload_value(key));
                }
                System::Store(db)
            }
        };
        Instance { system, service }
    }

    /// Runs one op; `false` if it failed or returned a wrong value.
    #[inline]
    pub fn execute(&self, op: u32, state: &mut WorkerState) -> bool {
        let kind = kind_of(op);
        let key = u64::from(op & KEY_MASK);
        state.by_kind[kind] += 1;
        match &self.system {
            System::Addr(a) => a.with_lock(key as usize, |c| {
                c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed)
            }),
            System::Store(db) => {
                if kind == OpKind::Read as usize {
                    match (db.get(key), state.private_slot(key)) {
                        (Some(v), Some(slot)) => v == state.shadow[slot],
                        (Some(v), None) => plausible(key, v),
                        (None, _) => false,
                    }
                } else if kind == OpKind::Write as usize {
                    state.seq += 1;
                    let v = written_value(key, state.worker, state.seq);
                    db.put(key, v);
                    if let Some(slot) = state.private_slot(key) {
                        state.shadow[slot] = v;
                    }
                    true
                } else {
                    db.maintain();
                    true
                }
            }
        }
    }

    /// The oracle run after every window: returns (ops it ran, failures).
    /// * `addr-locks`: the counters, each read under its lock, sum to the
    ///   increments completed; each read is timed into `read_ticks`.
    /// * `hamsterdb-mixed`: `len()` is unchanged.
    /// * `kyoto-cache`: `len()` is unchanged and every private key reads
    ///   back what its worker last wrote.
    pub fn check(&self, states: &[WorkerState], mut read_ticks: impl FnMut(u64)) -> (u64, u64) {
        match &self.system {
            System::Addr(a) => {
                let mut sum = 0u64;
                let mut failed = 0u64;
                for i in 0..a.objects.len() {
                    let t0 = crate::clock::now();
                    let ok = a.with_lock(i, |c| sum += c.load(Ordering::Relaxed));
                    read_ticks(crate::clock::now() - t0);
                    failed += u64::from(!ok);
                }
                let done: u64 = states
                    .iter()
                    .map(|s| s.by_kind[OpKind::Write as usize])
                    .sum();
                (a.objects.len() as u64, failed + sum.abs_diff(done))
            }
            System::Store(db) => {
                let mut failed = u64::from(db.len() as u64 != KEYS);
                let mut ops = 1;
                for s in states {
                    let base = private_base(s.worker);
                    for (i, &want) in s.shadow.iter().enumerate() {
                        failed += u64::from(db.get(base + i as u64) != Some(want));
                        ops += 1;
                    }
                }
                (ops, failed)
            }
        }
    }

    /// Acquisitions of the workload's hot lock so far, counted by the
    /// benchmark: the `addr-locks` object at zipf rank 0, HamsterDB's global
    /// mutex, or (on `kyoto-cache`) a lock of the nested chain every `get`
    /// and `put` takes.
    pub fn hot_acquisitions(
        &self,
        workload: Workload,
        states: &[WorkerState],
        hot_object: usize,
        checks: u64,
    ) -> u64 {
        let ops = |kinds: &[OpKind]| -> u64 {
            states
                .iter()
                .map(|s| kinds.iter().map(|&k| s.by_kind[k as usize]).sum::<u64>())
                .sum()
        };
        match (&self.system, workload) {
            // Set-up touch + increments + one locked read per check.
            (System::Addr(a), _) => {
                1 + a.objects[hot_object].count.load(Ordering::Relaxed) + checks
            }
            // `load` + every op + one `len` per check.
            (_, Workload::HamsterMixed) => 1 + ops(&[OpKind::Read, OpKind::Write]) + checks,
            // Preload + gets/puts + the private-key sweep of every check.
            _ => KEYS + ops(&[OpKind::Read, OpKind::Write]) + checks * WORKERS as u64 * PRIVATE,
        }
    }

    /// Addresses of the workload's mutex population in its GLS service: the
    /// objects for `addr-locks` (indexed like the ring's keys), otherwise
    /// every non-rw entry of the service.
    pub fn gls_population(&self) -> Vec<usize> {
        match (&self.system, &self.service) {
            (System::Addr(a), _) => a.objects.iter().map(GlsService::address_of).collect(),
            (_, Some(service)) => {
                let addrs: BTreeSet<usize> = service
                    .telemetry_snapshot()
                    .locks
                    .iter()
                    .filter(|l| l.algorithm != gls::LockKind::Rw)
                    .map(|l| l.addr)
                    .collect();
                addrs.into_iter().collect()
            }
            _ => Vec::new(),
        }
    }

    /// The GLS address of the `addr-locks` object `i`, if this is one.
    pub fn object_addr(&self, i: usize) -> Option<usize> {
        match &self.system {
            System::Addr(a) => Some(GlsService::address_of(&a.objects[i])),
            _ => None,
        }
    }
}
