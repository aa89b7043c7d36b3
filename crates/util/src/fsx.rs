//! Crash-safe filesystem primitives for artifact and journal writes.
//!
//! Two building blocks the fault-tolerance layer rests on:
//!
//! * [`write_atomic`] — write-then-rename so readers (and a process killed
//!   mid-write) only ever observe the old complete file or the new complete
//!   file, never a torn prefix.
//! * [`FileLock`] — an advisory create-new lock file so concurrent
//!   processes (e.g. two runs appending to one shared journal or
//!   artifact file) serialize their read-modify-write cycles.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Writes `contents` to `path` atomically: the bytes land in a sibling
/// temporary file first and are renamed over `path` only once fully
/// flushed. On the same filesystem, rename is atomic — a crash between
/// the two steps leaves the previous version of `path` intact.
pub fn write_atomic(path: &Path, contents: &[u8]) -> io::Result<()> {
    let tmp = sibling_tmp(path);
    fs::write(&tmp, contents)?;
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn sibling_tmp(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "file".to_string());
    name.push_str(&format!(".tmp.{}", std::process::id()));
    path.with_file_name(name)
}

/// An advisory lock over a target file, held as long as the guard lives.
///
/// Acquisition creates `<target>.lock` with `create_new` (an atomic
/// exists-check-and-create on every real filesystem) and retries until
/// `wait` elapses. Dropping the guard removes the lock file, including
/// during unwinding, so a panicking critical section releases the lock.
/// A lock file orphaned by a SIGKILL must be removed by hand — the error
/// message names it.
#[derive(Debug)]
pub struct FileLock {
    lock_path: PathBuf,
}

impl FileLock {
    /// Acquires the advisory lock for `target`, waiting up to `wait`.
    pub fn acquire(target: &Path, wait: Duration) -> Result<FileLock, String> {
        let lock_path = Self::lock_path_for(target);
        let start = Instant::now();
        loop {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(file) => {
                    // Record the holder for post-mortem diagnosis of
                    // orphaned locks; failure to write the pid is harmless.
                    use io::Write;
                    let mut file = file;
                    let _ = writeln!(file, "{}", std::process::id());
                    return Ok(FileLock { lock_path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if start.elapsed() >= wait {
                        let holder = fs::read_to_string(&lock_path)
                            .map(|s| s.trim().to_string())
                            .unwrap_or_else(|_| "unknown".to_string());
                        return Err(format!(
                            "could not lock {} within {:.1}s: {} is held by pid {holder} \
                             (remove the lock file if that process is dead)",
                            target.display(),
                            wait.as_secs_f64(),
                            lock_path.display(),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    return Err(format!(
                        "could not create lock file {}: {e}",
                        lock_path.display()
                    ))
                }
            }
        }
    }

    /// The lock file path guarding `target`: `<target>.lock`.
    pub fn lock_path_for(target: &Path) -> PathBuf {
        let mut name = target
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "file".to_string());
        name.push_str(".lock");
        target.with_file_name(name)
    }
}

impl Drop for FileLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.lock_path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "dcn_fsx_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_contents_and_leaves_no_temp() {
        let dir = tmp_dir("atomic");
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second version").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second version");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_excludes_a_second_acquirer_until_dropped() {
        let dir = tmp_dir("lock");
        let target = dir.join("ledger.json");
        let lock = FileLock::acquire(&target, Duration::from_millis(200)).unwrap();
        let err = FileLock::acquire(&target, Duration::from_millis(30))
            .expect_err("second acquire must time out while the lock is held");
        assert!(err.contains("ledger.json.lock"), "error names lock: {err}");
        drop(lock);
        assert!(!FileLock::lock_path_for(&target).exists());
        let relock = FileLock::acquire(&target, Duration::from_millis(200));
        assert!(relock.is_ok(), "lock must be reacquirable after release");
        drop(relock);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lock_releases_during_unwind() {
        let dir = tmp_dir("unwind");
        let target = dir.join("x");
        let r = std::panic::catch_unwind(|| {
            let _lock = FileLock::acquire(&target, Duration::from_millis(100)).unwrap();
            panic!("boom");
        });
        assert!(r.is_err());
        assert!(
            !FileLock::lock_path_for(&target).exists(),
            "lock file must be removed during unwinding"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}
