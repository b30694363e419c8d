//! A CLHT-style concurrent hash table.
//!
//! GLS is "essentially a cache for locating the lock object that corresponds
//! to an address" (§4.1) and is built on a modified CLHT hash table with the
//! properties the service needs:
//!
//! 1. cache-line-sized buckets, so operations typically complete with at most
//!    one cache-line transfer;
//! 2. searching for a key is a **read-only, wait-free** operation;
//! 3. failing to insert a key is also read-only and wait-free;
//! 4. the table is resizable.
//!
//! This crate reproduces that data structure for `usize → usize` mappings
//! (GLS stores the address of a lock object as the value). Updates take a
//! per-bucket spinlock; lookups never write shared memory.
//!
//! # Bucket index
//!
//! A key is hashed by a Fibonacci multiply (`key * 0x9E37_79B9_7F4A_7C15`)
//! and a table of `2^b` buckets takes the bucket index from the product's
//! **top** `b` bits. The low bits of `key * odd` depend only on the key's
//! low bits, and GLS keys are addresses of aligned objects: a low-bit mask
//! would put 64-byte-aligned lock addresses into 1 bucket in 64. Those
//! buckets overflow, the chain limit forces doublings that do not spread
//! them, and 4096 such keys would grow the table to 65 536 buckets at 2 %
//! occupancy (4 194 304 buckets for page-aligned keys). The top bits mix
//! in every bit of the key, so the same keys fit in 4096 buckets after the
//! six doublings the occupancy trigger alone asks for. Doubling a table
//! splits old bucket `j` into new buckets `2j` and `2j + 1`. The parking
//! lot and GLS's per-thread lock cache index their tables the same way.
//!
//! # Example
//!
//! ```
//! use gls_clht::Clht;
//!
//! let table = Clht::new();
//! assert_eq!(table.get(42), None);
//! let v = table.put_if_absent(42, || 1000);
//! assert_eq!(v, 1000);
//! // A second insert of the same key returns the existing value.
//! assert_eq!(table.put_if_absent(42, || 2000), 1000);
//! assert_eq!(table.get(42), Some(1000));
//! assert_eq!(table.remove(42), Some(1000));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bucket;
mod table;

pub use table::{Clht, ClhtStats};

#[cfg(test)]
mod proptests;
