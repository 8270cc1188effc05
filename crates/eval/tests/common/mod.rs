//! Helpers shared by the csched-eval integration tests.
//!
//! Each test target compiles this module separately, so items unused by a
//! particular target are expected.
#![allow(dead_code)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// A scratch-file path ending in `name` that no other call in this
/// process gets: tests run on parallel threads and may ask for the same
/// name, so each call adds a counter under a per-process directory. A
/// stale file at the path is removed.
pub fn tmp_path(name: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("csched-eval-tests-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{n}-{name}"));
    let _ = std::fs::remove_file(&path);
    path
}

/// The `Merge` kernel and the distributed machine as wire texts.
pub fn merge_request() -> (String, String) {
    let w = csched_kernels::by_name("Merge").unwrap();
    (
        csched_ir::text::print(&w.kernel),
        csched_machine::text::print(&csched_machine::imagine::distributed()),
    )
}
