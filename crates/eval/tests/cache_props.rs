//! Property tests for the schedule cache's corruption tolerance: under
//! arbitrary byte mutations of the journal file, `ScheduleCache::open`
//! never panics, never invents entries, and every non-torn line is
//! accounted for as either loaded or quarantined/corrupt. A second
//! property checks compaction is behaviour-preserving: the compacted
//! journal reloads to the exact entry set of the uncompacted cache. A
//! third checks that a lookup answers only at the step limit its entry
//! was computed under, from the last entry inserted at that limit.

use std::path::PathBuf;

use csched_eval::serve::{CacheEntry, CompactionPolicy, ScheduleCache};
use proptest::prelude::*;

mod common;
use common::tmp_path;

fn entry(ii: u32, attempts: u64) -> CacheEntry {
    CacheEntry {
        ii,
        copies: u64::from(ii) % 5,
        max_registers: 9,
        attempts,
        degraded: false,
        limit: 200_000,
    }
}

/// Write a clean journal of `keys.len()` distinct-key entries and
/// return its bytes.
fn build_journal(path: &PathBuf, keys: u64) -> Vec<u8> {
    let _ = std::fs::remove_file(path);
    {
        let (mut cache, _) = ScheduleCache::open(Some(path), false).unwrap();
        for key in 0..keys {
            cache.insert(key, entry(key as u32 + 2, 100 + key)).unwrap();
        }
    }
    std::fs::read(path).unwrap()
}

proptest! {
    /// Mutating arbitrary bytes of the journal never panics the loader,
    /// never invents entries, and loses at most the mutated lines:
    /// `entries + quarantined <= K`, `entries >= K - touched lines`, and
    /// every quarantined key is backed by at least one corrupt line.
    #[test]
    fn mutated_journal_loads_without_panic_and_accounts_for_lines(
        keys in 2u64..6,
        mutations in prop::collection::vec((0usize..4096, 0u8..255), 1..6),
        tag in 0u64..1_000_000,
    ) {
        let path = tmp_path(&format!("mutate-{tag}.jsonl"));
        let mut bytes = build_journal(&path, keys);

        // Line boundaries of the clean journal, to bound the damage.
        let mut line_of_byte = vec![0usize; bytes.len()];
        let mut line = 0usize;
        for (i, b) in bytes.iter().enumerate() {
            line_of_byte[i] = line;
            if *b == b'\n' {
                line += 1;
            }
        }

        let mut touched = std::collections::HashSet::new();
        for (pos, byte) in &mutations {
            let pos = pos % bytes.len();
            if bytes[pos] == *byte {
                continue; // no-op mutation
            }
            // Overwriting a newline merges a line with its successor;
            // writing a newline splits one — both damage bounded sets.
            touched.insert(line_of_byte[pos]);
            if bytes[pos] == b'\n' {
                touched.insert(line_of_byte[pos] + 1);
            }
            bytes[pos] = *byte;
        }
        std::fs::write(&path, &bytes).unwrap();

        let (cache, report) = ScheduleCache::open(Some(&path), false).unwrap();
        let k = keys as usize;
        prop_assert!(
            report.entries + report.quarantined <= k,
            "invented entries: {report:?} from {k} lines"
        );
        prop_assert!(
            report.entries >= k.saturating_sub(touched.len()),
            "lost untouched lines: {report:?}, touched {touched:?} of {k}"
        );
        prop_assert!(
            report.quarantined <= report.corrupt_lines,
            "quarantine without corrupt line: {report:?}"
        );
        prop_assert_eq!(cache.len(), report.entries);
        prop_assert_eq!(cache.quarantined(), report.quarantined);
        // Untouched keys still serve their exact entry.
        for key in 0..keys {
            let expect = entry(key as u32 + 2, 100 + key);
            if let Some(got) = cache.lookup(key, expect.limit) {
                prop_assert_eq!(got, &expect, "key {} served a mutated entry", key);
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// An unmutated journal always loads exactly what was written.
    #[test]
    fn clean_journal_loads_exactly(keys in 1u64..8, tag in 0u64..1_000_000) {
        let path = tmp_path(&format!("clean-{tag}.jsonl"));
        build_journal(&path, keys);
        let (cache, report) = ScheduleCache::open(Some(&path), false).unwrap();
        prop_assert_eq!(report.entries, keys as usize);
        prop_assert_eq!(report.quarantined, 0usize);
        prop_assert_eq!(report.corrupt_lines, 0usize);
        for key in 0..keys {
            let expect = entry(key as u32 + 2, 100 + key);
            prop_assert_eq!(cache.lookup(key, expect.limit), Some(&expect));
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A lookup never answers from an entry computed at another step
    /// limit, degraded or not: the anytime answer does not grow with the
    /// limit. After any insert sequence over a few keys and limits, each
    /// (key, limit) lookup returns the last entry inserted for that key
    /// at that limit.
    #[test]
    fn a_lookup_never_answers_from_another_limit(
        inserts in prop::collection::vec((0u64..4, 0usize..3, 0u8..2), 1..16),
    ) {
        const LIMITS: [u64; 3] = [3_000, 50_000, 200_000];
        let (mut cache, _) = ScheduleCache::open(None, false).unwrap();
        let mut last = std::collections::HashMap::new();
        for (i, &(key, limit, degraded)) in inserts.iter().enumerate() {
            let e = CacheEntry {
                degraded: degraded == 1,
                limit: LIMITS[limit],
                ..entry(2, i as u64)
            };
            cache.insert(key, e.clone()).unwrap();
            last.insert((key, e.limit), e);
        }
        for key in 0..4 {
            for limit in LIMITS {
                prop_assert_eq!(cache.lookup(key, limit), last.get(&(key, limit)));
            }
        }
    }

    /// Compaction preserves behaviour: after any insert sequence (with
    /// duplicate keys and a policy tight enough to compact repeatedly),
    /// the compacted journal reloads to exactly the live entry set.
    #[test]
    fn compacted_journal_reloads_to_the_same_entry_set(
        inserts in prop::collection::vec((0u64..8, 1u32..50), 1..24),
        tag in 0u64..1_000_000,
    ) {
        let path = tmp_path(&format!("compact-{tag}.jsonl"));
        let policy = CompactionPolicy { max_journal_bytes: 256, max_entries: 1 << 16 };
        let (mut cache, _) = ScheduleCache::open_with(Some(&path), false, policy).unwrap();
        for (i, (key, ii)) in inserts.iter().enumerate() {
            cache.insert(*key, entry(*ii, i as u64)).unwrap();
        }
        let live: Vec<(u64, Option<CacheEntry>)> = (0..8)
            .map(|k| (k, cache.lookup(k, 200_000).cloned()))
            .collect();
        let compactions = cache.compactions();
        drop(cache);

        let (reloaded, report) = ScheduleCache::open_with(Some(&path), false, policy).unwrap();
        prop_assert_eq!(report.quarantined, 0usize);
        prop_assert_eq!(report.corrupt_lines, 0usize);
        for (key, expect) in &live {
            prop_assert_eq!(
                reloaded.lookup(*key, 200_000),
                expect.as_ref(),
                "key {} diverged after {} compactions",
                key,
                compactions
            );
        }
        // The journal holds no more lines than live entries + appends
        // since the last compaction — last-record-wins really shrank it.
        if compactions > 0 {
            let text = std::fs::read_to_string(&path).unwrap();
            prop_assert!(text.lines().count() <= inserts.len());
        }
        let _ = std::fs::remove_file(&path);
    }
}
