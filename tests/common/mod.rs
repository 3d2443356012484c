//! Shared helpers for the integration tests (`mod common;` in each binary)
//! and, through a `#[path]` include, for the unit tests of `amped-stream`,
//! `amped-core` and `amped-tensor` — so keep this file free of
//! `amped` paths.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A scratch directory no other test — in this binary, in a concurrently
/// running binary, or in another `cargo test` on the same host — can share:
/// `$TMPDIR/amped_<tag>_<pid>_<n>`, created on construction and removed
/// (with everything in it) on drop. `cargo test` runs a binary's tests on
/// parallel threads, so a fixed name under `temp_dir()` is a race: one test
/// reads the file another is half-way through writing.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates the directory. `tag` only makes a leaked directory traceable
    /// to its test; uniqueness comes from the pid and the counter.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("amped_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    /// A path inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is litter, not a test failure.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
