//! Pluggable snapshot storage: where suspended sessions live while evicted.
//!
//! The serving layer treats a store as an opaque byte sink keyed by session
//! id — it never inspects snapshot contents, so stores compose freely with
//! codec versioning. Two implementations ship here: [`MemoryStore`] (a
//! mutex-guarded ordered map, for tests and single-process suspend/resume)
//! and [`FileStore`] (one file per session under a spill directory, for
//! eviction across process restarts and crash recovery).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "snapshot store I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Keyed storage for encoded session snapshots.
///
/// Implementations must be safe to call from multiple shard workers
/// concurrently. `put` replaces any existing snapshot for the same session;
/// `remove` removes what it returns, so a thawed session cannot be resumed
/// twice from the same bytes.
pub trait SnapshotStore: Send + Sync + fmt::Debug {
    /// Persists `bytes` as the snapshot for `session`, replacing any prior
    /// snapshot under the same id.
    fn put(&self, session: u64, bytes: Vec<u8>) -> Result<(), StoreError>;

    /// Removes and returns the snapshot for `session`, or `None` when the
    /// store holds nothing under that id.
    fn remove(&self, session: u64) -> Result<Option<Vec<u8>>, StoreError>;

    /// Whether the store currently holds a snapshot for `session`.
    fn contains(&self, session: u64) -> Result<bool, StoreError>;

    /// All session ids with a stored snapshot, ascending.
    fn sessions(&self) -> Result<Vec<u64>, StoreError>;
}

/// In-process snapshot store backed by an ordered map.
///
/// Suspended sessions survive as long as the store does — suitable for
/// reaper eviction within one process and for tests. Iteration order is
/// the key order, so [`SnapshotStore::sessions`] is deterministic.
#[derive(Debug, Default)]
pub struct MemoryStore {
    map: Mutex<BTreeMap<u64, Vec<u8>>>,
}

impl MemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Vec<u8>>> {
        // A panicking holder cannot leave the map partially mutated: every
        // critical section is a single BTreeMap operation.
        self.map.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl SnapshotStore for MemoryStore {
    fn put(&self, session: u64, bytes: Vec<u8>) -> Result<(), StoreError> {
        self.lock().insert(session, bytes);
        Ok(())
    }

    fn remove(&self, session: u64) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.lock().remove(&session))
    }

    fn contains(&self, session: u64) -> Result<bool, StoreError> {
        Ok(self.lock().contains_key(&session))
    }

    fn sessions(&self) -> Result<Vec<u64>, StoreError> {
        Ok(self.lock().keys().copied().collect())
    }
}

/// File-backed snapshot store: one `<session-id:016x>.ewsn` file per
/// suspended session under a spill directory.
///
/// Writes go to a temporary sibling (`<id>.tmp`) first, which is synced to
/// disk, renamed into place, and made durable by syncing the directory, so
/// neither a crash mid-`put` nor a power loss right after one leaves a torn
/// snapshot under the final name — the strict decoder would reject one
/// anyway, but recovery should not have to discard a session because its
/// *previous* snapshot was overwritten by half of a new one. A `.tmp` left
/// behind by a crash is invisible to [`SnapshotStore::sessions`] and
/// [`SnapshotStore::contains`], and the next `put` for that id replaces it.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(FileStore { dir })
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, session: u64) -> PathBuf {
        self.dir.join(format!("{session:016x}.ewsn"))
    }
}

impl SnapshotStore for FileStore {
    fn put(&self, session: u64, bytes: Vec<u8>) -> Result<(), StoreError> {
        let final_path = self.path_for(session);
        let tmp_path = self.dir.join(format!("{session:016x}.tmp"));
        let mut tmp = fs::File::create(&tmp_path)?;
        tmp.write_all(&bytes)?;
        tmp.sync_all()?;
        drop(tmp);
        fs::rename(&tmp_path, &final_path)?;
        sync_dir(&self.dir)?;
        Ok(())
    }

    fn remove(&self, session: u64) -> Result<Option<Vec<u8>>, StoreError> {
        let path = self.path_for(session);
        match fs::read(&path) {
            Ok(bytes) => {
                fs::remove_file(&path)?;
                Ok(Some(bytes))
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    fn contains(&self, session: u64) -> Result<bool, StoreError> {
        match fs::metadata(self.path_for(session)) {
            Ok(_) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    fn sessions(&self) -> Result<Vec<u64>, StoreError> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("ewsn") {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else {
                continue;
            };
            if stem.len() != 16 {
                continue;
            }
            if let Ok(id) = u64::from_str_radix(stem, 16) {
                out.push(id);
            }
        }
        out.sort_unstable();
        Ok(out)
    }
}

/// Makes a rename inside `dir` durable: on Unix a directory entry reaches
/// the disk only when the directory itself is synced.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("ewsn-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn exercise(store: &dyn SnapshotStore) {
        assert_eq!(store.sessions().unwrap(), Vec::<u64>::new());
        store.put(7, vec![1, 2, 3]).unwrap();
        store.put(3, vec![9]).unwrap();
        store.put(7, vec![4, 5]).unwrap(); // replace
        assert!(store.contains(7).unwrap());
        assert!(!store.contains(99).unwrap());
        assert_eq!(store.sessions().unwrap(), vec![3, 7]);
        assert_eq!(store.remove(7).unwrap(), Some(vec![4, 5]));
        assert_eq!(store.remove(7).unwrap(), None, "remove must remove");
        assert!(!store.contains(7).unwrap());
        assert_eq!(store.sessions().unwrap(), vec![3]);
    }

    #[test]
    fn memory_store_semantics() {
        exercise(&MemoryStore::new());
    }

    #[test]
    fn file_store_semantics() {
        let dir = temp_dir("sem");
        exercise(&FileStore::new(&dir).unwrap());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_survives_reopen() {
        let dir = temp_dir("reopen");
        {
            let store = FileStore::new(&dir).unwrap();
            store.put(0xdead_beef, vec![7; 1000]).unwrap();
        }
        let store = FileStore::new(&dir).unwrap();
        assert_eq!(store.sessions().unwrap(), vec![0xdead_beef]);
        assert_eq!(store.remove(0xdead_beef).unwrap(), Some(vec![7; 1000]));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A crash between the temp write and the rename leaves `<id>.tmp`
    /// behind: the store must not report it as a session, and the next
    /// `put` for that id must replace it.
    #[test]
    fn file_store_ignores_and_replaces_a_stale_temp_file() {
        let dir = temp_dir("stale-tmp");
        let store = FileStore::new(&dir).unwrap();
        let stale = dir.join(format!("{:016x}.tmp", 9));
        fs::write(&stale, b"half of a snapshot").unwrap();
        assert_eq!(store.sessions().unwrap(), Vec::<u64>::new());
        assert!(!store.contains(9).unwrap());
        store.put(9, vec![4, 2]).unwrap();
        assert!(!stale.exists(), "put must consume the stale temp file");
        assert_eq!(store.sessions().unwrap(), vec![9]);
        assert_eq!(store.remove(9).unwrap(), Some(vec![4, 2]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_store_ignores_foreign_files() {
        let dir = temp_dir("foreign");
        let store = FileStore::new(&dir).unwrap();
        fs::write(dir.join("README.txt"), b"not a snapshot").unwrap();
        fs::write(dir.join("zzzz.ewsn"), b"bad stem").unwrap();
        store.put(5, vec![1]).unwrap();
        assert_eq!(store.sessions().unwrap(), vec![5]);
        let _ = fs::remove_dir_all(&dir);
    }
}
