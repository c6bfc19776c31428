//! Storage as an injected capability — the persistence layer's analogue of
//! the serving layer's injected `Clock`.
//!
//! Production uses [`FileStorage`]; hermetic tests use [`MemStorage`]; and
//! [`FaultStorage`] wraps either to inject *deterministic* failures: clean
//! append failures (for retry paths), short appends (the torn WAL tail a
//! crash mid-write leaves), torn atomic writes (a filesystem that lied
//! about rename atomicity), sync failures, and bit flips on read (latent
//! media corruption). Every recovery behaviour the serving stack promises
//! is exercised against these faults in tests — not assumed.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Byte-level storage operations the persistence layer runs on. All
/// methods are `&self`: implementations synchronize internally, and the
/// serving stack shares one storage behind an `Arc<dyn Storage>`.
pub trait Storage: Send + Sync {
    /// The full contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Replaces `path` with `bytes` atomically: on return the file is
    /// either fully the new bytes or untouched (temp write + rename for
    /// [`FileStorage`]). Creates parent directories as needed.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Appends `bytes` to `path`, creating it if missing. On error the
    /// file may hold a *prefix* of `bytes` (a torn tail) — callers repair
    /// via [`truncate`](Storage::truncate) before retrying.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Truncates `path` to `len` bytes (the torn-tail repair primitive).
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;

    /// Flushes `path`'s contents to durable media (fsync).
    fn sync(&self, path: &Path) -> io::Result<()>;

    /// The file names (not paths) inside `dir`; empty when the directory
    /// does not exist.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;

    /// Deletes `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;

    /// Whether `path` exists.
    fn exists(&self, path: &Path) -> bool;
}

/// Real filesystem storage.
#[derive(Debug, Default)]
pub struct FileStorage;

impl FileStorage {
    /// A filesystem-backed storage.
    pub fn new() -> FileStorage {
        FileStorage
    }
}

impl Storage for FileStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let dir = path.parent().unwrap_or(Path::new("."));
        std::fs::create_dir_all(dir)?;
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        {
            use std::io::Write;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, path)?;
        // best-effort directory fsync so the rename itself is durable
        #[cfg(unix)]
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                let mut names = Vec::new();
                for e in entries {
                    let e = e?;
                    if e.file_type()?.is_file() {
                        names.push(e.file_name().to_string_lossy().into_owned());
                    }
                }
                Ok(names)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// In-memory storage for hermetic tests: a path → bytes map behind a
/// mutex. `sync` is a no-op (everything is always "durable").
#[derive(Debug, Default)]
pub struct MemStorage {
    files: Mutex<HashMap<PathBuf, Vec<u8>>>,
}

impl MemStorage {
    /// An empty in-memory filesystem.
    pub fn new() -> MemStorage {
        MemStorage::default()
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl Storage for MemStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.files
            .lock()
            .unwrap()
            .get(path)
            .cloned()
            .ok_or_else(|| not_found(path))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap()
            .insert(path.to_path_buf(), bytes.to_vec());
        Ok(())
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.files
            .lock()
            .unwrap()
            .entry(path.to_path_buf())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let mut files = self.files.lock().unwrap();
        let f = files.get_mut(path).ok_or_else(|| not_found(path))?;
        f.truncate(len as usize);
        Ok(())
    }

    fn sync(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        Ok(self
            .files
            .lock()
            .unwrap()
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.files
            .lock()
            .unwrap()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn exists(&self, path: &Path) -> bool {
        self.files.lock().unwrap().contains_key(path)
    }
}

/// A deterministic fault schedule for [`FaultStorage`]. Counters are
/// relative to the moment the plan is set, so a test arms exactly the
/// operation it means to kill.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Fail this many upcoming `append` calls cleanly (no bytes written),
    /// then let appends succeed again — the retry-path fault.
    pub fail_next_appends: u64,
    /// On the Nth upcoming `append` (1-based), persist only the first
    /// `keep` bytes and return an error — the torn-tail fault.
    pub short_append: Option<(u64, usize)>,
    /// Fail every `write_atomic` (nothing becomes visible — rename
    /// atomicity holds).
    pub fail_write_atomic: bool,
    /// On the Nth upcoming `write_atomic` (1-based), persist only the
    /// first `keep` bytes — a filesystem that tore the "atomic" replace.
    pub torn_write_atomic: Option<(u64, usize)>,
    /// XOR `mask` into the byte at `offset` of every `read` whose path
    /// contains `substr` — latent corruption surfacing at load time.
    pub flip_on_read: Option<(String, usize, u8)>,
    /// Fail this many upcoming `sync` calls.
    pub fail_next_syncs: u64,
}

#[derive(Default)]
struct FaultState {
    plan: FaultPlan,
    appends: u64,
    writes: u64,
}

/// A [`Storage`] decorator injecting the faults of a [`FaultPlan`] into an
/// inner storage — the recovery suites' crash simulator.
pub struct FaultStorage {
    inner: Arc<dyn Storage>,
    state: Mutex<FaultState>,
}

fn injected(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

impl FaultStorage {
    /// Wraps `inner` with an empty (no-fault) plan.
    pub fn new(inner: Arc<dyn Storage>) -> FaultStorage {
        FaultStorage {
            inner,
            state: Mutex::new(FaultState::default()),
        }
    }

    /// Installs a fresh fault schedule; operation counters restart at 0.
    pub fn set_plan(&self, plan: FaultPlan) {
        *self.state.lock().unwrap() = FaultState {
            plan,
            ..FaultState::default()
        };
    }
}

impl Storage for FaultStorage {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read(path)?;
        let state = self.state.lock().unwrap();
        if let Some((substr, offset, mask)) = &state.plan.flip_on_read {
            if path.to_string_lossy().contains(substr.as_str()) && *offset < bytes.len() {
                bytes[*offset] ^= mask;
            }
        }
        Ok(bytes)
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let keep = {
            let mut state = self.state.lock().unwrap();
            state.writes += 1;
            if state.plan.fail_write_atomic {
                return Err(injected("write_atomic failed"));
            }
            match state.plan.torn_write_atomic {
                Some((at, keep)) if state.writes == at => Some(keep),
                _ => None,
            }
        };
        match keep {
            Some(keep) => self
                .inner
                .write_atomic(path, &bytes[..keep.min(bytes.len())]),
            None => self.inner.write_atomic(path, bytes),
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let keep = {
            let mut state = self.state.lock().unwrap();
            state.appends += 1;
            if state.plan.fail_next_appends > 0 {
                state.plan.fail_next_appends -= 1;
                return Err(injected("append failed"));
            }
            match state.plan.short_append {
                Some((at, keep)) if state.appends == at => Some(keep),
                _ => None,
            }
        };
        match keep {
            Some(keep) => {
                self.inner.append(path, &bytes[..keep.min(bytes.len())])?;
                Err(injected("append torn short"))
            }
            None => self.inner.append(path, bytes),
        }
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        {
            let mut state = self.state.lock().unwrap();
            if state.plan.fail_next_syncs > 0 {
                state.plan.fail_next_syncs -= 1;
                return Err(injected("sync failed"));
            }
        }
        self.inner.sync(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.inner.list(dir)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> PathBuf {
    // keep all test artifacts inside the workspace target dir
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/store-tests")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(storage: &dyn Storage, dir: &Path) {
        let a = dir.join("a.bin");
        storage.write_atomic(&a, b"hello").unwrap();
        assert!(storage.exists(&a));
        assert_eq!(storage.read(&a).unwrap(), b"hello");
        storage.write_atomic(&a, b"rewritten").unwrap();
        assert_eq!(storage.read(&a).unwrap(), b"rewritten");
        storage.append(&a, b"+tail").unwrap();
        assert_eq!(storage.read(&a).unwrap(), b"rewritten+tail");
        storage.truncate(&a, 9).unwrap();
        assert_eq!(storage.read(&a).unwrap(), b"rewritten");
        storage.sync(&a).unwrap();
        // append creates missing files
        let b = dir.join("b.log");
        storage.append(&b, b"x").unwrap();
        let mut names = storage.list(dir).unwrap();
        names.sort();
        assert_eq!(names, vec!["a.bin".to_string(), "b.log".to_string()]);
        storage.remove(&b).unwrap();
        assert!(!storage.exists(&b));
        assert!(storage.read(&b).is_err(), "reading a removed file errors");
        assert_eq!(
            storage.list(Path::new("/nonexistent-dir-xyz")).unwrap(),
            Vec::<String>::new()
        );
    }

    #[test]
    fn mem_storage_behaves_like_a_filesystem() {
        exercise(&MemStorage::new(), Path::new("/mem"));
    }

    #[test]
    fn file_storage_behaves_like_a_filesystem() {
        let dir = test_dir("filestorage");
        exercise(&FileStorage::new(), &dir);
        // atomic write leaves no temp file behind
        let names = FileStorage::new().list(&dir).unwrap();
        assert!(
            names.iter().all(|n| !n.ends_with(".tmp")),
            "temp files must not survive: {names:?}"
        );
    }

    #[test]
    fn fault_storage_injects_each_planned_fault() {
        let inner = Arc::new(MemStorage::new());
        let faulty = FaultStorage::new(Arc::clone(&inner) as Arc<dyn Storage>);
        let p = Path::new("/f/wal.log");

        // clean append failures: no bytes land, then service resumes
        faulty.set_plan(FaultPlan {
            fail_next_appends: 2,
            ..Default::default()
        });
        assert!(faulty.append(p, b"aaaa").is_err());
        assert!(faulty.append(p, b"aaaa").is_err());
        assert!(!inner.exists(p), "clean failure writes nothing");
        faulty.append(p, b"aaaa").unwrap();
        assert_eq!(inner.read(p).unwrap(), b"aaaa");

        // short append: a prefix lands AND the call errors (torn tail)
        faulty.set_plan(FaultPlan {
            short_append: Some((1, 2)),
            ..Default::default()
        });
        assert!(faulty.append(p, b"bbbb").is_err());
        assert_eq!(inner.read(p).unwrap(), b"aaaabb", "2 torn bytes persisted");
        faulty.truncate(p, 4).unwrap(); // the repair primitive passes through
        assert_eq!(inner.read(p).unwrap(), b"aaaa");

        // torn atomic write: the Nth write persists a prefix
        let art = Path::new("/f/artifact.gbm");
        faulty.set_plan(FaultPlan {
            torn_write_atomic: Some((2, 3)),
            ..Default::default()
        });
        faulty.write_atomic(art, b"first").unwrap();
        assert_eq!(inner.read(art).unwrap(), b"first");
        faulty.write_atomic(art, b"second").unwrap();
        assert_eq!(inner.read(art).unwrap(), b"sec", "torn to 3 bytes");

        // failed atomic write: nothing becomes visible
        faulty.set_plan(FaultPlan {
            fail_write_atomic: true,
            ..Default::default()
        });
        assert!(faulty.write_atomic(art, b"third").is_err());
        assert_eq!(inner.read(art).unwrap(), b"sec");

        // bit flip on read: storage is intact, the *read* is corrupt
        faulty.set_plan(FaultPlan {
            flip_on_read: Some(("artifact".into(), 0, 0x01)),
            ..Default::default()
        });
        assert_eq!(faulty.read(art).unwrap(), b"rec");
        assert_eq!(inner.read(art).unwrap(), b"sec", "media untouched");
        assert_eq!(faulty.read(p).unwrap(), b"aaaa", "other paths unflipped");

        // sync failures
        faulty.set_plan(FaultPlan {
            fail_next_syncs: 1,
            ..Default::default()
        });
        assert!(faulty.sync(p).is_err());
        faulty.sync(p).unwrap();
    }
}
