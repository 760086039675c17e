//! Scratch directories for the stores a run creates, under
//! `<out>/tmp/`, removed when the run is done with them.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

/// Names the process that created a scratch directory.
const MARKER: &str = ".decluster-benchmark";

static NEXT: AtomicU32 = AtomicU32::new(0);

/// A directory this run created; removed on drop.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `<out>/tmp/<label>-<pid>-<n>/` and marks it as ours.
    ///
    /// # Errors
    ///
    /// Returns the file error with the path.
    pub fn new(out: &Path, label: &str) -> Result<Scratch, String> {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out
            .join("tmp")
            .join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)
            .and_then(|()| std::fs::write(path.join(MARKER), std::process::id().to_string()))
            .map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes of the files directly inside, our marker excepted.
    pub fn stored_bytes(&self) -> u64 {
        std::fs::read_dir(&self.path)
            .into_iter()
            .flatten()
            .flatten()
            .filter(|e| e.file_name() != MARKER)
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        // Nothing to do about a failure here; `claim` reports leftovers.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Clears what dead runs of this benchmark left in `<out>/tmp` and
/// refuses to go on if anything else is there: the benchmark deletes
/// only what it created.
///
/// # Errors
///
/// Names the foreign entry.
pub fn claim(out: &Path) -> Result<(), String> {
    let tmp = out.join("tmp");
    let Ok(entries) = std::fs::read_dir(&tmp) else {
        return Ok(());
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let owner = std::fs::read_to_string(path.join(MARKER))
            .ok()
            .and_then(|pid| pid.trim().parse::<u32>().ok());
        match owner {
            None => {
                return Err(format!(
                    "{} was not created by this benchmark; move it away first",
                    path.display()
                ))
            }
            Some(pid) if Path::new(&format!("/proc/{pid}")).exists() => {}
            Some(_) => std::fs::remove_dir_all(&path)
                .map_err(|e| format!("remove stale {}: {e}", path.display()))?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_stale_runs_and_refuses_foreign_stores() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-scratch-{}", std::process::id()));
        claim(&out).expect("no tmp directory yet");

        let live = Scratch::new(&out, "live").unwrap();
        std::fs::write(live.path().join("disk-000.dat"), [0u8; 100]).unwrap();
        assert_eq!(live.stored_bytes(), 100);
        let stale = out.join("tmp/stale");
        std::fs::create_dir_all(&stale).unwrap();
        // No process has pid 0.
        std::fs::write(stale.join(MARKER), "0").unwrap();
        claim(&out).unwrap();
        assert!(live.path().exists(), "a live run's store is left alone");
        assert!(!stale.exists(), "a dead run's store is removed");

        let foreign = out.join("tmp/somebody-elses");
        std::fs::create_dir_all(&foreign).unwrap();
        std::fs::write(foreign.join("disk-000.dat"), b"precious").unwrap();
        let err = claim(&out).unwrap_err();
        assert!(err.contains("somebody-elses"), "{err}");
        assert!(foreign.join("disk-000.dat").exists());

        let kept = live.path().to_path_buf();
        drop(live);
        assert!(!kept.exists());
        std::fs::remove_dir_all(&out).unwrap();
    }
}
