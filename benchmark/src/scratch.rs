//! One scratch directory per process, removed when the run ends.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts scratch directories made by this process, so two in one process
/// get different names.
static NEXT: AtomicU64 = AtomicU64::new(0);

/// A directory named after this process id and a per-process counter, so
/// concurrent runs (and concurrent tests) never share a file. Everything the
/// harness generates — `.tnsb` inputs, child result files — lives inside it.
/// Dropping it deletes the directory.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<parent>/scratch-<pid>-<n>`, and `parent` itself if missing.
    pub fn create_in(parent: &Path) -> std::io::Result<Self> {
        // Relaxed: the counter only hands out distinct numbers.
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = parent.join(format!("scratch-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover directory is litter, not a failed run.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_scratch_dirs_differ_and_vanish_on_drop() {
        let parent = std::env::temp_dir();
        let a = ScratchDir::create_in(&parent).unwrap();
        let b = ScratchDir::create_in(&parent).unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.path().join("x"), b"1").unwrap();
        let (pa, pb) = (a.path().to_path_buf(), b.path().to_path_buf());
        drop(a);
        drop(b);
        assert!(!pa.exists() && !pb.exists());
    }
}
