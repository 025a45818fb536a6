//! The write-ahead-log backend: append-only log + periodic snapshot,
//! replayed on open.
//!
//! ## On-disk layout
//!
//! A backend owns one directory holding up to two files:
//!
//! * `snapshot.bin` — magic `BRSNP1\0\0`, then the canonical record
//!   sequence of [`DurableState::to_records`], each framed as below.
//!   Written atomically (temp file + rename), so it is either absent or
//!   complete.
//! * `wal.log` — magic `BRWAL1\0\0`, then one frame per mutation applied
//!   since the last snapshot.
//!
//! Every frame is `[u32 len][u32 fnv1a32(payload)][payload]`, all
//! little-endian, where the payload is [`WalRecord::encode`]. The
//! checksum makes a torn or corrupted tail detectable: replay stops at
//! the first bad frame, notes what it dropped in the [`ReplayReport`],
//! truncates the log back to the last good frame, and continues — a
//! crash mid-append never poisons the store and never panics.
//!
//! ## Replay invariants
//!
//! * `open` ≡ fold(snapshot records) then fold(log records): the state
//!   after open equals the state before the crash, minus at most the
//!   single torn tail frame.
//! * Snapshots iterate `BTreeMap`s, so two snapshots of equal states
//!   are byte-identical — golden-testable and diffable.
//! * After a snapshot the log is truncated to its magic; the pair
//!   `(snapshot, empty log)` encodes the same state the pair
//!   `(old snapshot, full log)` did.

use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{ErrorKind, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::record::WalRecord;
use crate::state::DurableState;
use crate::StateStore;

/// Magic header of `wal.log`.
pub const LOG_MAGIC: &[u8; 8] = b"BRWAL1\0\0";
/// Magic header of `snapshot.bin`.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BRSNP1\0\0";

/// Largest frame payload `open` will accept. Real records are tens of
/// bytes; the cap keeps a corrupted length field from provoking a huge
/// allocation.
const MAX_PAYLOAD: u32 = 1 << 16;

/// Directories currently locked by backends in *this* process. The
/// on-disk `wal.lock` file carries only a PID, so same-process
/// double-opens need their own ledger (both would present the same,
/// very-much-alive PID).
fn open_dirs() -> MutexGuard<'static, HashSet<PathBuf>> {
    static OPEN_DIRS: OnceLock<Mutex<HashSet<PathBuf>>> = OnceLock::new();
    // Invariant: every critical section is one `HashSet` call, which
    // cannot panic, so the ledger is never poisoned.
    OPEN_DIRS.get_or_init(|| Mutex::new(HashSet::new())).lock().expect("lock ledger poisoned")
}

/// Whether `pid` names a live process. Uses `/proc` where it exists;
/// elsewhere every foreign lock looks stale, which errs toward
/// recoverability (the in-process ledger still catches same-process
/// double-opens, the common corruption source).
fn pid_alive(pid: u32) -> bool {
    Path::new("/proc").join(pid.to_string()).exists()
}

/// Instance token for `pid`: the kernel's process start time (field 22
/// of `/proc/<pid>/stat`, clock ticks since boot). Two processes that
/// reuse one PID cannot share it, which is exactly the disambiguation
/// the lock file needs — a bare PID match proves nothing after the
/// original owner died and the kernel recycled its number. `None`
/// where `/proc` is unavailable or unparsable.
fn pid_birth(pid: u32) -> Option<u64> {
    let stat =
        std::fs::read_to_string(Path::new("/proc").join(pid.to_string()).join("stat")).ok()?;
    // The comm field may contain spaces and parentheses; everything
    // after the *last* `)` is whitespace-separated, starting at field 3
    // (state), so starttime (field 22) is the 20th token from there.
    let after_comm = stat.rsplit_once(')')?.1;
    after_comm.split_whitespace().nth(19)?.parse().ok()
}

/// What a lock file names: the owning PID, plus the owner's boot-scoped
/// instance token when one was recorded (older lock files carry only
/// the PID).
struct LockHolder {
    pid: u32,
    birth: Option<u64>,
}

/// Parses `wal.lock` contents (`"<pid>"` or `"<pid> <birth>"`).
fn parse_lock(contents: &str) -> Option<LockHolder> {
    let mut parts = contents.split_whitespace();
    let pid = parts.next()?.parse().ok()?;
    let birth = parts.next().and_then(|t| t.parse().ok());
    Some(LockHolder { pid, birth })
}

/// Whether the lock file's holder is the *same process instance* that
/// wrote it — not merely a live process wearing a recycled PID. A
/// recorded token that mismatches the live process's token proves PID
/// reuse, so the lock is stale; with no token on either side (old lock
/// format, or no `/proc`) the bare liveness check is all there is.
fn holder_still_owns(holder: &LockHolder) -> bool {
    if !pid_alive(holder.pid) {
        return false;
    }
    match (holder.birth, pid_birth(holder.pid)) {
        (Some(recorded), Some(live)) => recorded == live,
        _ => true,
    }
}

/// Takes the exclusive open lock on `dir`, or explains who holds it.
///
/// Two cooperating layers: `wal.lock` (created exclusively, holding the
/// owner's PID and its boot-scoped start-time token) fences other
/// processes, and the in-process ledger fences a second open in this
/// one. A lock file whose owner is no longer running — including a
/// *recycled* PID whose recorded token mismatches the live process —
/// is a crash leftover and is broken silently; crash recovery must not
/// require manual cleanup.
fn acquire_dir_lock(dir: &Path) -> std::io::Result<PathBuf> {
    let canonical = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let lock_path = dir.join("wal.lock");
    if open_dirs().contains(&canonical) {
        return Err(std::io::Error::new(
            ErrorKind::AddrInUse,
            format!("{} is already open in this process", dir.display()),
        ));
    }
    for attempt in 0..2 {
        match OpenOptions::new().write(true).create_new(true).open(&lock_path) {
            Ok(mut f) => {
                let pid = std::process::id();
                let contents = match pid_birth(pid) {
                    Some(birth) => format!("{pid} {birth}"),
                    None => pid.to_string(),
                };
                f.write_all(contents.as_bytes())?;
                open_dirs().insert(canonical);
                return Ok(lock_path);
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists && attempt == 0 => {
                let holder = std::fs::read_to_string(&lock_path).ok().and_then(|s| parse_lock(&s));
                match holder {
                    // A live foreign process instance holds it: refuse.
                    Some(h) if h.pid != std::process::id() && holder_still_owns(&h) => {
                        return Err(std::io::Error::new(
                            ErrorKind::AddrInUse,
                            format!("{} is locked by live pid {}", dir.display(), h.pid),
                        ));
                    }
                    // Dead owner, a reused PID, our own stale leftover,
                    // or garbage contents: break the lock, retry once.
                    _ => {
                        std::fs::remove_file(&lock_path)?;
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    unreachable!("second create_new attempt either succeeds or errors")
}

/// Releases the lock taken by [`acquire_dir_lock`].
fn release_dir_lock(dir: &Path, lock_path: &Path) {
    let canonical = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    open_dirs().remove(&canonical);
    let _ = std::fs::remove_file(lock_path);
}

/// FNV-1a, 32-bit: tiny, dependency-free, and plenty to catch torn
/// writes and bit rot (this is corruption *detection*, not security).
pub fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// What `open` found on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records folded from `snapshot.bin`.
    pub snapshot_records: usize,
    /// Records folded from `wal.log`.
    pub log_records: usize,
    /// Human-readable note about a dropped torn/corrupt tail, if any.
    pub dropped: Option<String>,
}

/// The durable [`StateStore`]: every applied record is framed and
/// appended to `wal.log` before the in-memory fold advances; every
/// `snapshot_every` appended records the state is snapshotted and the
/// log truncated.
#[derive(Debug)]
pub struct WalBackend {
    dir: PathBuf,
    state: DurableState,
    log: File,
    /// Frames appended since the last snapshot (including replayed ones).
    log_frames: u64,
    /// Auto-snapshot threshold; 0 disables automatic snapshots.
    snapshot_every: u64,
    replay: ReplayReport,
    /// First I/O error encountered after open, if any. The [`StateStore`]
    /// trait is infallible (the in-memory fold must advance regardless),
    /// so disk trouble is latched here instead of panicking.
    io_error: Option<String>,
    /// Path of the `wal.lock` file held for this directory; released
    /// (ledger entry and file) on drop.
    lock_path: PathBuf,
}

impl Drop for WalBackend {
    fn drop(&mut self) {
        release_dir_lock(&self.dir, &self.lock_path);
    }
}

/// Encodes one frame.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv1a32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Reads frames from `bytes` (already past the magic), folding each
/// decoded record with `sink`. Returns `(count, valid_len, dropped)`:
/// how many records were folded, how many bytes from the start of
/// `bytes` formed valid frames, and a note when a torn or corrupt tail
/// was dropped.
fn read_frames(bytes: &[u8], mut sink: impl FnMut(WalRecord)) -> (usize, usize, Option<String>) {
    let mut pos = 0usize;
    let mut count = 0usize;
    while pos < bytes.len() {
        let rest = &bytes[pos..];
        // Two little-endian words: the payload's length, then its checksum.
        let Some(([len, want], _)) = rest.as_chunks::<4>().0.split_first_chunk::<2>() else {
            return (
                count,
                pos,
                Some(format!("torn frame header ({} bytes) at offset {pos}", rest.len())),
            );
        };
        let (len, want) = (u32::from_le_bytes(*len), u32::from_le_bytes(*want));
        if len > MAX_PAYLOAD {
            return (count, pos, Some(format!("implausible frame length {len} at offset {pos}")));
        }
        let len = len as usize;
        if rest.len() < 8 + len {
            return (
                count,
                pos,
                Some(format!(
                    "torn frame payload ({} of {len} bytes) at offset {pos}",
                    rest.len() - 8
                )),
            );
        }
        let payload = &rest[8..8 + len];
        let got = fnv1a32(payload);
        if got != want {
            return (
                count,
                pos,
                Some(format!(
                    "checksum mismatch at offset {pos}: stored {want:#010x}, computed {got:#010x}"
                )),
            );
        }
        match WalRecord::decode(payload) {
            Ok(rec) => sink(rec),
            Err(e) => {
                return (count, pos, Some(format!("undecodable record at offset {pos}: {e}")))
            }
        }
        pos += 8 + len;
        count += 1;
    }
    (count, pos, None)
}

impl WalBackend {
    /// Opens (creating if needed) the store in `dir`, replaying
    /// `snapshot.bin` and `wal.log` into memory. A torn or corrupt log
    /// tail is dropped and the file truncated back to its last good
    /// frame; the [`ReplayReport`] says so. A corrupt *snapshot* is a
    /// hard error — snapshots are written atomically, so damage there
    /// is not a crash artifact.
    pub fn open(dir: impl Into<PathBuf>, snapshot_every: u64) -> std::io::Result<WalBackend> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Exclusive-open fence: a second live opener — same process or
        // another — gets `AddrInUse` instead of a shared append handle
        // silently interleaving frames.
        let lock_path = acquire_dir_lock(&dir)?;
        match Self::open_locked(&dir, snapshot_every, lock_path.clone()) {
            Ok(backend) => Ok(backend),
            Err(e) => {
                release_dir_lock(&dir, &lock_path);
                Err(e)
            }
        }
    }

    /// The body of [`Self::open`], run while holding the dir lock.
    fn open_locked(
        dir: &Path,
        snapshot_every: u64,
        lock_path: PathBuf,
    ) -> std::io::Result<WalBackend> {
        let dir = dir.to_path_buf();
        let mut state = DurableState::new();
        let mut replay = ReplayReport::default();

        let snap_path = dir.join("snapshot.bin");
        if snap_path.exists() {
            let bytes = std::fs::read(&snap_path)?;
            let body = check_magic(&bytes, SNAPSHOT_MAGIC, "snapshot.bin")?;
            let (count, _, dropped) = read_frames(body, |rec| {
                state.apply(&rec);
            });
            if let Some(note) = dropped {
                return Err(bad_data(format!("corrupt snapshot.bin: {note}")));
            }
            replay.snapshot_records = count;
        }

        let log_path = dir.join("wal.log");
        let mut log_frames = 0u64;
        if log_path.exists() {
            let bytes = std::fs::read(&log_path)?;
            let body = check_magic(&bytes, LOG_MAGIC, "wal.log")?;
            let (count, valid, dropped) = read_frames(body, |rec| {
                state.apply(&rec);
            });
            replay.log_records = count;
            log_frames = count as u64;
            if let Some(note) = dropped {
                // Drop the tail on disk too, so the next append starts
                // at a clean frame boundary.
                let keep = (LOG_MAGIC.len() + valid) as u64;
                let f = OpenOptions::new().write(true).open(&log_path)?;
                f.set_len(keep)?;
                replay.dropped = Some(note);
            }
        } else {
            let mut f = File::create(&log_path)?;
            f.write_all(LOG_MAGIC)?;
        }

        let mut log = OpenOptions::new().append(true).open(&log_path)?;
        log.seek(SeekFrom::End(0))?;
        Ok(WalBackend {
            dir,
            state,
            log,
            log_frames,
            snapshot_every,
            replay,
            io_error: None,
            lock_path,
        })
    }

    /// The directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What the last `open` replayed.
    pub fn replay_report(&self) -> &ReplayReport {
        &self.replay
    }

    /// The first I/O error latched since open, if any.
    pub fn io_error(&self) -> Option<&str> {
        self.io_error.as_deref()
    }

    /// Frames currently in the log (since the last snapshot).
    pub fn log_frames(&self) -> u64 {
        self.log_frames
    }

    /// The snapshot threshold this backend was opened with (0 = never).
    pub fn snapshot_every(&self) -> u64 {
        self.snapshot_every
    }

    /// Writes the current state to `snapshot.bin` (atomically, via a
    /// temp file and rename) and truncates the log.
    pub fn snapshot(&mut self) -> std::io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&Self::snapshot_bytes(&self.state))?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.dir.join("snapshot.bin"))?;
        // The log's contents are now folded into the snapshot.
        self.log.set_len(LOG_MAGIC.len() as u64)?;
        self.log.seek(SeekFrom::End(0))?;
        self.log_frames = 0;
        Ok(())
    }

    /// Encodes `state` as the bytes [`WalBackend::snapshot`] writes to
    /// `snapshot.bin`.
    pub fn snapshot_bytes(state: &DurableState) -> Vec<u8> {
        let mut out = SNAPSHOT_MAGIC.to_vec();
        for rec in state.to_records() {
            out.extend_from_slice(&frame(&rec.encode()));
        }
        out
    }

    fn latch(&mut self, res: std::io::Result<()>) {
        if let (Err(e), None) = (res, &self.io_error) {
            self.io_error = Some(e.to_string());
        }
    }
}

fn check_magic<'a>(bytes: &'a [u8], magic: &[u8; 8], name: &str) -> std::io::Result<&'a [u8]> {
    if bytes.len() < magic.len() || &bytes[..magic.len()] != magic {
        return Err(bad_data(format!("{name}: missing or wrong magic header")));
    }
    Ok(&bytes[magic.len()..])
}

fn bad_data(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

impl StateStore for WalBackend {
    fn kind(&self) -> &'static str {
        "wal"
    }

    fn apply(&mut self, rec: &WalRecord) {
        // Log first, fold second: a record is durable before it is
        // visible. No-ops are not logged, so replay and registration
        // re-syncs cannot grow the log.
        if !self.state.would_change(rec) {
            return;
        }
        let res = self.log.write_all(&frame(&rec.encode()));
        self.latch(res);
        self.state.apply(rec);
        self.log_frames += 1;
        if self.snapshot_every > 0 && self.log_frames >= self.snapshot_every {
            let res = self.snapshot();
            self.latch(res);
        }
    }

    fn state(&self) -> &DurableState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fresh scratch directory under the system temp dir.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("bristle-store-test-{}", std::process::id()))
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fixed, order-scrambled mutation sequence touching every table.
    fn workload() -> Vec<WalRecord> {
        vec![
            WalRecord::Identity { key: 42, incarnation: 1 },
            WalRecord::RecordPut {
                subject: 900,
                host: 3,
                router: 1,
                epoch: 11,
                incarnation: 0,
                seq: 1,
                published_at: 10,
                ttl: 600,
            },
            WalRecord::Register { target: 7, capacity: 4 },
            WalRecord::LeaseGrant { subject: 900, expires: 610 },
            WalRecord::RecordPut {
                subject: 100,
                host: 9,
                router: 2,
                epoch: 12,
                incarnation: 2,
                seq: 5,
                published_at: 20,
                ttl: 600,
            },
            WalRecord::Deregister { target: 7 },
            WalRecord::Register { target: 8, capacity: 2 },
            WalRecord::Identity { key: 42, incarnation: 2 },
            WalRecord::RecordRemove { subject: 900 },
            WalRecord::LeaseRevoke { subject: 900 },
            WalRecord::LeaseGrant { subject: 100, expires: 620 },
        ]
    }

    fn folded(recs: &[WalRecord]) -> DurableState {
        let mut s = DurableState::new();
        for r in recs {
            s.apply(r);
        }
        s
    }

    #[test]
    fn reopen_replays_to_identical_state() {
        let dir = scratch("reopen");
        {
            let mut b = WalBackend::open(&dir, 0).unwrap();
            for r in workload() {
                b.apply(&r);
            }
            assert!(b.io_error().is_none());
        }
        let b = WalBackend::open(&dir, 0).unwrap();
        assert_eq!(*b.state(), folded(&workload()));
        assert!(b.replay_report().dropped.is_none());
        assert_eq!(b.replay_report().log_records, b.log_frames() as usize);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_preserves_state() {
        let dir = scratch("snapshot");
        {
            let mut b = WalBackend::open(&dir, 0).unwrap();
            for r in workload() {
                b.apply(&r);
            }
            b.snapshot().unwrap();
            assert_eq!(b.log_frames(), 0, "snapshot truncates the log");
            // What lands on disk is the encoder's output for the fold, so
            // `golden_snapshot_encoding` pins the file itself.
            let on_disk = std::fs::read(dir.join("snapshot.bin")).unwrap();
            assert_eq!(on_disk, WalBackend::snapshot_bytes(&folded(&workload())));
            // Post-snapshot mutations land in the fresh log.
            b.apply(&WalRecord::Register { target: 55, capacity: 1 });
        }
        let b = WalBackend::open(&dir, 0).unwrap();
        let mut want = folded(&workload());
        want.apply(&WalRecord::Register { target: 55, capacity: 1 });
        assert_eq!(*b.state(), want);
        assert!(b.replay_report().snapshot_records > 0);
        assert_eq!(b.replay_report().log_records, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn auto_snapshot_fires_at_threshold() {
        let dir = scratch("auto-snap");
        let mut b = WalBackend::open(&dir, 3).unwrap();
        for r in workload() {
            b.apply(&r);
        }
        assert!(b.log_frames() < 3, "log stays below the snapshot threshold");
        assert!(dir.join("snapshot.bin").exists());
        assert!(b.io_error().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn noop_records_append_nothing_and_changes_are_on_disk_once_visible() {
        let dir = scratch("noop");
        let mut b = WalBackend::open(&dir, 0).unwrap();
        let on_disk = || std::fs::read(dir.join("wal.log")).unwrap();
        let reg = WalRecord::Register { target: 7, capacity: 4 };
        b.apply(&reg);
        // Visible in the fold means already in the file, not in a buffer.
        assert_eq!(b.state().registrations.get(&7), Some(&4));
        assert!(on_disk().ends_with(&frame(&reg.encode())), "visible before durable");
        let (frames, bytes) = (b.log_frames(), on_disk().len());
        for _ in 0..10 {
            b.apply(&reg);
        }
        b.apply(&WalRecord::Deregister { target: 8 });
        assert_eq!(b.log_frames(), frames, "idempotent re-applies do not grow the log");
        assert_eq!(on_disk().len(), bytes, "a no-op record appended bytes");
        let update = WalRecord::Register { target: 7, capacity: 5 };
        b.apply(&update);
        assert_eq!(on_disk().len(), bytes + frame(&update.encode()).len());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_of_the_last_record_is_tolerated() {
        let dir = scratch("torn");
        {
            let mut b = WalBackend::open(&dir, 0).unwrap();
            for r in workload() {
                b.apply(&r);
            }
        }
        let log_path = dir.join("wal.log");
        let full = std::fs::read(&log_path).unwrap();
        // Find where the last frame starts by walking the frames.
        let body = &full[LOG_MAGIC.len()..];
        let mut pos = 0usize;
        let mut last_start = 0usize;
        while pos < body.len() {
            last_start = pos;
            let len = u32::from_le_bytes(body[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
        }
        let last_abs = LOG_MAGIC.len() + last_start;
        let want_without_last = {
            let w = workload();
            folded(&w[..w.len() - 1])
        };

        // Cut the file at every byte boundary inside the last frame:
        // from "frame entirely missing" up to "one byte short".
        for cut in last_abs..full.len() - 1 {
            std::fs::write(&log_path, &full[..cut]).unwrap();
            let b = WalBackend::open(&dir, 0)
                .unwrap_or_else(|e| panic!("cut at {cut} must not fail open: {e}"));
            assert_eq!(*b.state(), want_without_last, "cut at {cut}");
            if cut == last_abs {
                // A clean cut at a frame boundary is not damage.
                assert!(b.replay_report().dropped.is_none(), "cut at {cut}");
            } else {
                let note = b.replay_report().dropped.as_ref();
                assert!(note.is_some(), "cut at {cut} must report the dropped tail");
            }
            // The file was truncated back to the last good frame, so a
            // second open sees a clean log.
            drop(b);
            let again = WalBackend::open(&dir, 0).unwrap();
            assert!(again.replay_report().dropped.is_none(), "cut at {cut}: second open clean");
            assert_eq!(*again.state(), want_without_last, "cut at {cut}: second open state");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checksum_drops_the_tail() {
        let dir = scratch("corrupt");
        {
            let mut b = WalBackend::open(&dir, 0).unwrap();
            for r in workload() {
                b.apply(&r);
            }
        }
        let log_path = dir.join("wal.log");
        let mut bytes = std::fs::read(&log_path).unwrap();
        // Flip one bit in the last byte (inside the final payload).
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&log_path, &bytes).unwrap();
        let b = WalBackend::open(&dir, 0).unwrap();
        let note = b.replay_report().dropped.clone().expect("corruption must be reported");
        assert!(note.contains("checksum mismatch"), "note: {note}");
        let w = workload();
        assert_eq!(*b.state(), folded(&w[..w.len() - 1]));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn implausible_length_field_is_contained() {
        let dir = scratch("badlen");
        {
            let mut b = WalBackend::open(&dir, 0).unwrap();
            b.apply(&WalRecord::Identity { key: 1, incarnation: 1 });
        }
        let log_path = dir.join("wal.log");
        let mut bytes = std::fs::read(&log_path).unwrap();
        // Append a frame header claiming a gigantic payload.
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        std::fs::write(&log_path, &bytes).unwrap();
        let b = WalBackend::open(&dir, 0).unwrap();
        assert!(b.replay_report().dropped.as_ref().unwrap().contains("implausible"));
        assert_eq!(b.state().identity, Some((1, 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_is_a_hard_error() {
        let dir = scratch("magic");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), b"NOTMAGIC").unwrap();
        assert!(WalBackend::open(&dir, 0).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshots_are_byte_stable() {
        // The same state reached via different application orders (the
        // canonical sequence is one such order) snapshots identically:
        // iteration is over sorted BTreeMaps, not insertion order.
        let a = folded(&workload());
        let b = folded(&a.to_records());
        assert_eq!(a, b);
        assert_eq!(WalBackend::snapshot_bytes(&a), WalBackend::snapshot_bytes(&b));
        // And writing the same state twice produces identical files.
        let dir = scratch("stable");
        let mut w = WalBackend::open(&dir, 0).unwrap();
        for r in workload() {
            w.apply(&r);
        }
        w.snapshot().unwrap();
        let first = std::fs::read(dir.join("snapshot.bin")).unwrap();
        w.snapshot().unwrap();
        let second = std::fs::read(dir.join("snapshot.bin")).unwrap();
        assert_eq!(first, second);
        assert_eq!(first, WalBackend::snapshot_bytes(w.state()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Golden test: the snapshot encoding of a small fixed state. If
    /// this changes, the on-disk format changed — bump the magic.
    #[test]
    fn golden_snapshot_encoding() {
        let mut s = DurableState::new();
        s.apply(&WalRecord::Identity { key: 2, incarnation: 3 });
        s.apply(&WalRecord::Register { target: 5, capacity: 1 });
        let bytes = WalBackend::snapshot_bytes(&s);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = concat!(
            // magic "BRSNP1\0\0"
            "4252534e50310000",
            // frame: len=17, fnv1a32, payload tag=0 key=2 inc=3
            "11000000",
            "7ebd1cea",
            "00",
            "0200000000000000",
            "0300000000000000",
            // frame: len=13, fnv1a32, payload tag=3 target=5 cap=1
            "0d000000",
            "f6f1b5e2",
            "03",
            "0500000000000000",
            "01000000",
        );
        assert_eq!(hex, golden, "snapshot encoding drifted from the golden bytes");
    }

    #[test]
    fn double_open_fails_fast_until_the_first_is_dropped() {
        let dir = scratch("double-open");
        let first = WalBackend::open(&dir, 0).unwrap();
        let second = WalBackend::open(&dir, 0);
        assert!(second.is_err(), "second live open must be refused");
        assert_eq!(second.unwrap_err().kind(), ErrorKind::AddrInUse);
        drop(first);
        // Dropping the first releases the lock: the directory opens again.
        let third = WalBackend::open(&dir, 0).expect("open succeeds after release");
        drop(third);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_broken_silently() {
        let dir = scratch("stale-lock");
        std::fs::create_dir_all(&dir).unwrap();
        // A crash leftover: a lock file naming a PID that cannot be
        // running (PIDs this large are rejected by the kernel).
        std::fs::write(dir.join("wal.lock"), "4194305").unwrap();
        let b = WalBackend::open(&dir, 0).expect("stale lock must not require manual cleanup");
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The PID-reuse regression: a lock file naming a PID that is alive
    /// *today* but whose recorded start-time token belongs to a dead
    /// previous owner of that number must be broken, not honored. PID 1
    /// is guaranteed alive, so writing it with a token no real process
    /// can have (0 is the idle task, never an owner of this lock)
    /// reproduces exactly the reuse shape.
    #[test]
    fn reused_pid_with_mismatched_token_is_broken() {
        let dir = scratch("pid-reuse");
        std::fs::create_dir_all(&dir).unwrap();
        if pid_birth(1).is_none() {
            return; // no /proc: the token layer is inert here.
        }
        std::fs::write(dir.join("wal.lock"), "1 0").unwrap();
        let b =
            WalBackend::open(&dir, 0).expect("a recycled PID must not wedge the directory forever");
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The counterpart: the same live PID with its *real* token is a
    /// genuine foreign holder and must still be refused — the token
    /// check tightens lock breaking, it must not loosen it.
    #[test]
    fn live_pid_with_matching_token_is_still_refused() {
        let dir = scratch("pid-live-token");
        std::fs::create_dir_all(&dir).unwrap();
        let Some(birth) = pid_birth(1) else {
            return; // no /proc: nothing to distinguish.
        };
        std::fs::write(dir.join("wal.lock"), format!("1 {birth}")).unwrap();
        let second = WalBackend::open(&dir, 0);
        assert!(second.is_err(), "a live same-instance holder must be refused");
        assert_eq!(second.unwrap_err().kind(), ErrorKind::AddrInUse);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Token-less lock files (the previous on-disk format) keep the old
    /// semantics: liveness of the PID alone decides.
    #[test]
    fn legacy_pid_only_lock_from_a_live_process_is_refused() {
        let dir = scratch("legacy-lock");
        std::fs::create_dir_all(&dir).unwrap();
        if !pid_alive(1) {
            return;
        }
        std::fs::write(dir.join("wal.lock"), "1").unwrap();
        let second = WalBackend::open(&dir, 0);
        assert!(second.is_err(), "legacy live lock must still be refused");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_lock_contents_are_treated_as_stale() {
        let dir = scratch("garbage-lock");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.lock"), "not-a-pid").unwrap();
        let b = WalBackend::open(&dir, 0).expect("unreadable lock is a crash artifact");
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_open_releases_the_lock() {
        let dir = scratch("failed-open-release");
        std::fs::create_dir_all(&dir).unwrap();
        // A corrupt snapshot makes open fail *after* the lock is taken.
        std::fs::write(dir.join("snapshot.bin"), b"WRONGMAGIC").unwrap();
        assert!(WalBackend::open(&dir, 0).is_err(), "corrupt snapshot is a hard error");
        // The failure must not leave the directory wedged.
        std::fs::remove_file(dir.join("snapshot.bin")).unwrap();
        let b = WalBackend::open(&dir, 0).expect("lock released by the failed open");
        drop(b);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
