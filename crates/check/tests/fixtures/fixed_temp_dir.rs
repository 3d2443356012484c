//! Fixture: fixed names under `temp_dir()` — every process on the host
//! shares them — next to the per-process shape and an exempt test-mod use.
use std::path::PathBuf;
pub fn shared_by_every_run() -> PathBuf {
    std::env::temp_dir().join("amped_fixture")
}

pub fn shared_and_chained() -> PathBuf {
    let decoy = "temp_dir().join(\"in a string\")";
    let _ = decoy;
    std::env::temp_dir()
        .join("amped_fixture")
        .join("cache.json")
}

pub fn unique_per_process() -> PathBuf {
    std::env::temp_dir().join(format!("amped_fixture_{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_do_as_they_please() {
        let _ = std::env::temp_dir().join("amped_fixture_test");
    }
}
