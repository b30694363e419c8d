//! The `std` reference: each workload's lock shapes rebuilt on the standard
//! library's locks, with the same data plane as the `gls_systems` store.
//! Apart from `maintain`'s fixed busy-wait, no code of this repository runs
//! in it, so it moves only with the machine; the other providers are gated
//! relative to it, measured in the same rounds.

// The reference measures std's own locks (see clippy.toml).
#![allow(clippy::disallowed_types)]

use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, MutexGuard, RwLock};

use crate::workload::Store;

const POISON: &str = "reference lock poisoned";

/// `std::sync::Mutex` on a cache line of its own.
#[repr(align(64))]
#[derive(Default)]
pub struct PaddedMutex(Mutex<()>);

impl PaddedMutex {
    pub fn lock(&self) -> MutexGuard<'_, ()> {
        self.0.lock().expect(POISON)
    }
}

/// `HamsterDb` on a `std::sync::Mutex`.
pub struct StdHamster {
    tree: Mutex<BTreeMap<u64, u64>>,
}

impl StdHamster {
    /// Loads `keys` sequential keys with `HamsterDb::load`'s values.
    pub fn load(keys: u64) -> Self {
        Self {
            tree: Mutex::new((0..keys).map(|k| (k, k.wrapping_mul(31))).collect()),
        }
    }
}

impl Store for StdHamster {
    fn get(&self, key: u64) -> Option<u64> {
        self.tree.lock().expect(POISON).get(&key).copied()
    }

    fn put(&self, key: u64, value: u64) {
        self.tree.lock().expect(POISON).insert(key, value);
    }

    fn len(&self) -> usize {
        self.tree.lock().expect(POISON).len()
    }
}

/// `KyotoHashDb` (CACHE flavor) on std locks: a global `RwLock`, 16
/// bucket-group mutexes and a chain of 5 nested mutexes per op.
pub struct StdKyoto {
    global: RwLock<()>,
    buckets: Vec<Mutex<HashMap<u64, u64>>>,
    nested: Vec<Mutex<()>>,
}

const BUCKET_GROUPS: usize = 16;
const NESTED: usize = 5;

impl Default for StdKyoto {
    fn default() -> Self {
        Self {
            global: RwLock::new(()),
            buckets: (0..BUCKET_GROUPS).map(|_| Mutex::default()).collect(),
            nested: (0..NESTED).map(|_| Mutex::default()).collect(),
        }
    }
}

impl StdKyoto {
    fn with_bucket<R>(&self, key: u64, f: impl FnOnce(&mut HashMap<u64, u64>) -> R) -> R {
        let _global = self.global.read().expect(POISON);
        let mut bucket = self.buckets[key as usize % BUCKET_GROUPS]
            .lock()
            .expect(POISON);
        let chain: [MutexGuard<'_, ()>; NESTED] =
            std::array::from_fn(|i| self.nested[i].lock().expect(POISON));
        let out = f(&mut bucket);
        // Release in reverse order, as the store does.
        chain.into_iter().rev().for_each(drop);
        out
    }
}

impl Store for StdKyoto {
    fn get(&self, key: u64) -> Option<u64> {
        self.with_bucket(key, |b| b.get(&key).copied())
    }

    fn put(&self, key: u64, value: u64) {
        self.with_bucket(key, |b| b.insert(key, value));
    }

    fn maintain(&self) {
        let _global = self.global.write().expect(POISON);
        gls_runtime::spin_cycles(500);
    }

    fn len(&self) -> usize {
        let _global = self.global.write().expect(POISON);
        self.buckets
            .iter()
            .map(|b| b.lock().expect(POISON).len())
            .sum()
    }
}
