//! Model-based property tests: the CLHT must behave exactly like a
//! sequential `HashMap` under any sequence of operations, and must preserve
//! all entries across resizes.

use std::collections::HashMap;

use proptest::prelude::*;

use crate::Clht;

/// One operation of the sequential model.
#[derive(Debug, Clone)]
enum Op {
    Get(usize),
    PutIfAbsent(usize, usize),
    Remove(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Keys are drawn from a small range so that keys are reused after
    // removal. 63 keys over the 64-bucket table rarely put four in one
    // bucket, so this does not reach the overflow chains;
    // `colliding_keys_chain_then_force_a_resize` in `table.rs` does.
    let key = 1usize..64;
    let value = 1usize..10_000;
    prop_oneof![
        key.clone().prop_map(Op::Get),
        (key.clone(), value).prop_map(|(k, v)| Op::PutIfAbsent(k, v)),
        key.prop_map(Op::Remove),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sequential equivalence with HashMap::entry(or_insert)/remove/get.
    #[test]
    fn matches_hashmap_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let table = Clht::with_capacity(8);
        let mut model: HashMap<usize, usize> = HashMap::new();
        for op in ops {
            match op {
                Op::Get(k) => {
                    prop_assert_eq!(table.get(k), model.get(&k).copied());
                }
                Op::PutIfAbsent(k, v) => {
                    let expected = *model.entry(k).or_insert(v);
                    let got = table.put_if_absent(k, || v);
                    prop_assert_eq!(got, expected);
                }
                Op::Remove(k) => {
                    prop_assert_eq!(table.remove(k), model.remove(&k));
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        // Final sweep: every model entry must be present, and for_each must
        // visit exactly the model's contents.
        for (&k, &v) in &model {
            prop_assert_eq!(table.get(k), Some(v));
        }
        let mut seen = HashMap::new();
        table.for_each(|k, v| { seen.insert(k, v); });
        prop_assert_eq!(seen, model);
    }

    /// Inserting any set of distinct keys, with any capacity, keeps every
    /// entry readable (resize preserves contents).
    #[test]
    fn resize_preserves_entries(
        keys in proptest::collection::hash_set(1usize..100_000, 1..600),
        capacity in 1usize..256,
    ) {
        let table = Clht::with_capacity(capacity);
        for &k in &keys {
            prop_assert_eq!(table.put_if_absent(k, || k + 7), k + 7);
        }
        prop_assert_eq!(table.len(), keys.len());
        for &k in &keys {
            prop_assert_eq!(table.get(k), Some(k + 7));
        }
    }

    /// put_if_absent never calls `make` when the key exists.
    #[test]
    fn make_is_lazy(keys in proptest::collection::vec(1usize..32, 1..200)) {
        let table = Clht::new();
        let mut first_values: HashMap<usize, usize> = HashMap::new();
        for (i, &k) in keys.iter().enumerate() {
            let mut called = false;
            let v = table.put_if_absent(k, || { called = true; i + 1 });
            match first_values.get(&k) {
                Some(&expected) => {
                    prop_assert!(!called, "make() ran for an existing key");
                    prop_assert_eq!(v, expected);
                }
                None => {
                    prop_assert!(called);
                    first_values.insert(k, v);
                }
            }
        }
    }
}
