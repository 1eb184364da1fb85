//! The [`Store`]: a directory pairing a snapshot with an append-only
//! update log, owning the authoritative in-memory [`SignedTable`].
//!
//! Commit discipline:
//!
//! * [`Store::apply_batch`] / [`Store::apply_replayed`] stage the batch on
//!   a **copy** of the table (`O(1)`: a clone shares all a batch does not
//!   touch), append the log record (synced), and only then swap the copy
//!   in — an error at any step leaves the disk, the in-memory table and
//!   every reader's [`Store::table_arc`] epoch at the previous state.
//! * [`Store::compact`] writes the new snapshot to a temp file and
//!   `rename`s it over the old one before truncating the log, so a crash
//!   between the two steps leaves a fresh snapshot plus a log of
//!   already-folded records — never a torn snapshot. [`Store::open`]
//!   skips the folded prefix (records with `seq < base_seq`; their
//!   effects are in the snapshot) and replays only from `base_seq` on,
//!   so an interrupted compaction costs nothing but the next cleanup.

use crate::format::{decode_snapshot, encode_snapshot};
use crate::log::{
    check_log_header, decode_records, decode_records_recovering, encode_record, log_header,
    LogRecord, LOG_HEADER_LEN,
};
use crate::StoreError;
use adp_core::owner::BatchReport;
use adp_core::prelude::{Mutation, Owner, SignedTable};
use adp_crypto::Signature;
use adp_faults::{crash_point, RealIo, StoreIo};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the snapshot inside a store directory.
pub const SNAPSHOT_FILE: &str = "snapshot.adps";

/// File name of the update log inside a store directory.
pub const LOG_FILE: &str = "update.adpl";

/// File name of the single-writer lock inside a store directory.
pub const LOCK_FILE: &str = "LOCK";

/// An exclusive per-directory writer lock: an OS advisory lock
/// (`File::try_lock`, i.e. `flock`-style) on the `LOCK` file, which also
/// records the holder's PID for diagnostics. The kernel releases the lock
/// when the holding process exits — cleanly or not — so a crash can never
/// leave a stale lock, a live holder can never be stolen from, and the
/// acquisition race is atomic on every platform. The file itself is left
/// in place (unlinking a lock file reintroduces the classic
/// unlink-vs-open race).
#[derive(Debug)]
struct DirLock {
    /// Keeping the handle open keeps the lock held.
    file: fs::File,
}

/// Dropping unlocks explicitly rather than relying on the fd closing. The
/// lock belongs to the open file description, and a child that another
/// thread forks holds a duplicate of the fd until it execs: closing only
/// this fd would leave the directory locked for that window, and a
/// reopen of the just-dropped store would fail with `Locked`.
impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = self.file.unlock();
    }
}

impl DirLock {
    fn acquire(dir: &Path) -> Result<DirLock, StoreError> {
        let path = dir.join(LOCK_FILE);
        let mut file = fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                let _ = file.set_len(0);
                let _ = write!(file, "{}", std::process::id());
                let _ = file.sync_data();
                Ok(DirLock { file })
            }
            Err(std::fs::TryLockError::WouldBlock) => {
                let holder = fs::read_to_string(&path)
                    .ok()
                    .and_then(|s| s.trim().parse::<u32>().ok())
                    .unwrap_or(0);
                Err(StoreError::Locked { holder })
            }
            Err(std::fs::TryLockError::Error(e)) => Err(StoreError::Io(e)),
        }
    }
}

/// A durable signed table: snapshot + update log + the live in-memory
/// reconstruction. Holds the directory's single-writer lock for its whole
/// lifetime — a second `Store` on the same directory (same or another
/// process) fails with [`StoreError::Locked`], which is what keeps log
/// sequence numbers append-once.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    /// Behind an `Arc` so live-serving callers can take a cheap handle to
    /// the current version while the store stages the next one.
    table: Arc<SignedTable>,
    /// Sequence number the current snapshot starts from.
    base_seq: u64,
    /// Sequence number the next appended record will carry.
    next_seq: u64,
    /// Every durability-relevant filesystem operation goes through this —
    /// [`RealIo`] in production, a fault-injecting shim in tests.
    io: Arc<dyn StoreIo>,
    _lock: DirLock,
}

impl Store {
    /// Creates a new store directory holding `st` as its initial snapshot
    /// and an empty update log. Fails if a snapshot already exists there.
    pub fn create(dir: impl AsRef<Path>, st: SignedTable) -> Result<Store, StoreError> {
        Store::create_with_io(dir, st, Arc::new(RealIo))
    }

    /// [`Store::create`] with an explicit [`StoreIo`] (fault injection).
    pub fn create_with_io(
        dir: impl AsRef<Path>,
        st: SignedTable,
        io: Arc<dyn StoreIo>,
    ) -> Result<Store, StoreError> {
        Store::create_inner(dir, st, 0, io)
    }

    /// Like [`Store::create`], but the snapshot starts at `base_seq`
    /// instead of 0 — the follower bootstrap path: a mirror seeded from
    /// an owner snapshot taken after `base_seq` batches must log its
    /// first replayed record as `base_seq`, or a later `Store::open`
    /// would mis-sequence the stream.
    pub fn create_at(
        dir: impl AsRef<Path>,
        st: SignedTable,
        base_seq: u64,
    ) -> Result<Store, StoreError> {
        Store::create_inner(dir, st, base_seq, Arc::new(RealIo))
    }

    fn create_inner(
        dir: impl AsRef<Path>,
        st: SignedTable,
        base_seq: u64,
        io: Arc<dyn StoreIo>,
    ) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let lock = DirLock::acquire(&dir)?;
        let snap_path = dir.join(SNAPSHOT_FILE);
        if snap_path.exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("{} already exists", snap_path.display()),
            )));
        }
        write_atomically(io.as_ref(), &snap_path, &encode_snapshot(&st, base_seq))?;
        crash_point("store.create.between");
        write_atomically(io.as_ref(), &dir.join(LOG_FILE), &log_header())?;
        Ok(Store {
            dir,
            table: Arc::new(st),
            base_seq,
            next_seq: base_seq,
            io,
            _lock: lock,
        })
    }

    /// Opens an existing store: loads the snapshot, then replays the
    /// update log, verifying every replayed record's signatures against
    /// link digests recomputed from local state. *Corruption* anywhere in
    /// either file is a typed error (every byte is CRC-covered), and
    /// *tampering with the log* is rejected by the replay's signature
    /// checks — but a snapshot edited together with a recomputed CRC
    /// decodes structurally; its authenticity is established by
    /// [`Store::audit`] (which serving paths run — see
    /// `Server::open_store` and `adp serve`/`adp query`) and, end to end,
    /// by client-side VO verification.
    ///
    /// Crash recovery is automatic for the two states a process death can
    /// leave behind (see `docs/ROBUSTNESS.md`): a **torn log tail** (death
    /// mid-append) is rolled back to the last complete record, and a
    /// **missing log file** (death between `create`'s snapshot and log
    /// writes) is re-created empty. Both recoveries only ever discard an
    /// *uncommitted* suffix — a record whose append never returned.
    pub fn open(dir: impl AsRef<Path>) -> Result<Store, StoreError> {
        let io: Arc<dyn StoreIo> = Arc::new(RealIo);
        let dir = dir.as_ref().to_path_buf();
        let lock = DirLock::acquire(&dir)?;
        let snap_bytes = io.read(&dir.join(SNAPSHOT_FILE))?;
        let (mut table, base_seq) = decode_snapshot(&snap_bytes)?;
        let log_path = dir.join(LOG_FILE);
        let log_bytes = match io.read(&log_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // `create` died between writing the snapshot and the log
                // header; the committed state is exactly the snapshot.
                write_atomically(io.as_ref(), &log_path, &log_header())?;
                log_header().to_vec()
            }
            Err(e) => return Err(StoreError::Io(e)),
        };
        let body = check_log_header(&log_bytes)?;
        let (records, torn_at) = decode_records_recovering(body)?;
        let mut next_seq = base_seq;
        for rec in &records {
            if rec.seq < base_seq {
                // Already folded into the snapshot by a compaction that
                // crashed before truncating the log; the snapshot carries
                // this record's effects, so skip it.
                continue;
            }
            if rec.seq != next_seq {
                return Err(StoreError::SequenceGap {
                    expected: next_seq,
                    got: rec.seq,
                });
            }
            table.replay_batch(&rec.ops, &rec.resigned)?;
            next_seq += 1;
        }
        if let Some(off) = torn_at {
            // Roll the torn tail (an append that never returned) back so
            // later appends land after complete records only.
            io.truncate(&log_path, (LOG_HEADER_LEN + off) as u64)?;
        }
        Ok(Store {
            dir,
            table: Arc::new(table),
            base_seq,
            next_seq,
            io,
            _lock: lock,
        })
    }

    /// The live signed table.
    pub fn table(&self) -> &SignedTable {
        &self.table
    }

    /// Consumes the store, returning the live signed table (for callers
    /// that only wanted to load, not to keep mutating).
    pub fn into_table(self) -> SignedTable {
        Arc::try_unwrap(self.table).unwrap_or_else(|shared| (*shared).clone())
    }

    /// A cheap shared handle to the current table version (what the
    /// server swaps into its registry — no deep copy).
    pub fn table_arc(&self) -> Arc<SignedTable> {
        Arc::clone(&self.table)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Sequence number the next batch will be logged under (equivalently:
    /// total batches applied since the store was created).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records currently in the log (folded away by [`Store::compact`]).
    pub fn log_record_count(&self) -> u64 {
        self.next_seq - self.base_seq
    }

    /// Current size of the update log file in bytes (header + framed
    /// records). This is the owner→publisher churn traffic a follower
    /// replaying the stream would download, and the quantity the
    /// `baseline_compare` churn experiment charges per batch
    /// (`docs/EVALUATION.md` §"Update churn").
    pub fn log_bytes(&self) -> Result<u64, StoreError> {
        Ok(self.io.file_len(&self.dir.join(LOG_FILE))?)
    }

    /// The framed bytes of every log record with `seq >= from_seq`, in
    /// sequence order — the log-shipping backlog a follower resuming from
    /// `from_seq` needs (`LogSegment` payloads concatenate these frames).
    /// Returns `None` when `from_seq` predates the snapshot's `base_seq`:
    /// those records were compacted away and the follower must
    /// re-bootstrap from a snapshot instead.
    pub fn log_records_from(&self, from_seq: u64) -> Result<Option<Vec<u8>>, StoreError> {
        if from_seq < self.base_seq {
            return Ok(None);
        }
        let log_bytes = self.io.read(&self.dir.join(LOG_FILE))?;
        let records = decode_records(check_log_header(&log_bytes)?)?;
        let mut out = Vec::new();
        for rec in &records {
            if rec.seq >= from_seq {
                out.extend_from_slice(&encode_record(rec));
            }
        }
        Ok(Some(out))
    }

    /// The current table encoded as a bootstrap snapshot (base sequence =
    /// [`Store::next_seq`]): what a fresh follower downloads before
    /// switching to the log stream.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        encode_snapshot(&self.table, self.next_seq)
    }

    /// Owner-side ingest: signs a batch into the table with
    /// [`Owner::apply_batch`] (O(k) re-signing), appends the log record,
    /// and commits. Returns the batch report (whose `ops`/`resigned` are
    /// what was logged — ship them to publishers replaying the stream).
    pub fn apply_batch(
        &mut self,
        owner: &Owner,
        ops: Vec<Mutation>,
    ) -> Result<BatchReport, StoreError> {
        if owner.public_key() != self.table.public_key() {
            return Err(StoreError::OwnerKeyMismatch);
        }
        let mut next = (*self.table).clone();
        let report = owner.apply_batch(&mut next, ops)?;
        self.commit(next, report.ops.clone(), report.resigned.clone())?;
        Ok(report)
    }

    /// Publisher-side ingest: replays a batch received from the owner
    /// (no signing key involved), verifying every signature before the
    /// log record is persisted and the table swapped.
    pub fn apply_replayed(
        &mut self,
        ops: &[Mutation],
        resigned: &[(u32, Signature)],
    ) -> Result<(), StoreError> {
        let mut next = (*self.table).clone();
        next.replay_batch(ops, resigned)?;
        self.commit(next, ops.to_vec(), resigned.to_vec())
    }

    /// Folds the update log into a fresh snapshot: writes the current
    /// table as a snapshot with `base_seq = next_seq` (atomic rename),
    /// then truncates the log to its header. Returns the number of log
    /// records folded away.
    pub fn compact(&mut self) -> Result<u64, StoreError> {
        let folded = self.log_record_count();
        crash_point("store.compact.before_snapshot");
        write_atomically(
            self.io.as_ref(),
            &self.dir.join(SNAPSHOT_FILE),
            &encode_snapshot(&self.table, self.next_seq),
        )?;
        crash_point("store.compact.after_snapshot");
        write_atomically(self.io.as_ref(), &self.dir.join(LOG_FILE), &log_header())?;
        crash_point("store.compact.after_log");
        self.base_seq = self.next_seq;
        Ok(folded)
    }

    /// Full chain audit of the live table (`O(n)` signature verifications).
    pub fn audit(&self) -> bool {
        self.table.audit()
    }

    /// Both ingest paths commit here: append the log record (synced), and
    /// only then make the staged table the live one.
    fn commit(
        &mut self,
        next: SignedTable,
        ops: Vec<Mutation>,
        resigned: Vec<(u32, Signature)>,
    ) -> Result<(), StoreError> {
        let seq = self.next_seq;
        crash_point("store.append.before");
        let path = self.dir.join(LOG_FILE);
        let committed_len = self.io.file_len(&path)?;
        let record = encode_record(&LogRecord { seq, ops, resigned });
        if let Err(e) = self.io.append_sync(&path, &record) {
            // Roll a torn append back so the log stays parseable: later
            // appends must never land after partial garbage. (If the
            // rollback itself is interrupted, `open` truncates the torn
            // tail on the next start.)
            let _ = self.io.truncate(&path, committed_len);
            return Err(StoreError::Io(e));
        }
        crash_point("store.append.after");
        self.table = Arc::new(next);
        self.next_seq += 1;
        Ok(())
    }
}

/// Writes `bytes` to `path` via a temp file + rename + parent-directory
/// fsync, so readers never see a torn file, a crash mid-write leaves the
/// previous version intact, and the rename itself is durable on power
/// loss (the rename lives in the directory inode, which must be synced
/// separately from the file).
fn write_atomically(io: &dyn StoreIo, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    io.write_sync(&tmp, bytes)?;
    io.rename(&tmp, path)?;
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        io.sync_dir(parent)?;
    }
    Ok(())
}
