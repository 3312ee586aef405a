//! Write-ahead logging, snapshot checkpoints, and crash recovery.
//!
//! Every single-node substrate (SQL engine, document store, graph store)
//! keeps its state in memory; this module gives each of them a durable
//! spine. The protocol is classic WAL:
//!
//! 1. **Log first.** Every catalog- or data-changing operation is encoded
//!    as a [`DurableOp`] and appended to the log *before* it is applied
//!    to in-memory state. Commit point = the frame is fully on the media.
//! 2. **Checkpoint.** After `CheckpointPolicy::every_ops` appends, the
//!    store serializes a compacted op list describing its entire current
//!    state into a snapshot. Snapshots are staged and then installed
//!    atomically (a pointer flip on the media), so a crash mid-snapshot
//!    can never destroy the previously committed snapshot. Once
//!    installed, the log is truncated.
//! 3. **Recover.** Load the latest committed snapshot, then replay log
//!    frames whose LSN lies past the snapshot's `covered_lsn`.
//!
//! **Frame format** (little-endian): `[len: u32][crc: u32][payload]`
//! where `payload = [lsn: u64][DurableOp]` and the CRC-32 covers the
//! payload only. The snapshot image uses the same framing with
//! `payload = [covered_lsn: u64][op count: u32][DurableOp...]`.
//!
//! **Torn-tail rule.** An *incomplete* frame at the end of the log
//! (partial header, or fewer payload bytes than the header promises) is
//! the signature of a torn write: it is cleanly truncated and recovery
//! proceeds — the interrupted operation never committed. A *complete*
//! frame whose CRC does not match is a different animal entirely: the
//! media lied about committed data, recovery stops with
//! [`WalError::Corruption`], and callers map that to the non-retryable
//! `ErrorKind::Corruption` (retrying cannot un-corrupt a log).
//!
//! **Fault injection.** Appends, fsyncs, checkpoints, and truncations
//! each consult an `observe::FaultPlan` at a dedicated site
//! (`<store>/wal/append`, `/wal/fsync`, `/wal/checkpoint`,
//! `/wal/truncate`). `Crash` kills the "process" at that point;
//! `TornWrite` persists a deterministic prefix of the in-flight bytes
//! first. Both surface as [`WalError::Crashed`]; the media — like a real
//! disk — survives, and the owning store wipes its volatile state and
//! recovers from the log.

use crate::codec;
use polyframe_datamodel::Record;
use polyframe_observe::sync::Mutex;
use polyframe_observe::{FaultKind, FaultPlan};
use std::fmt;
use std::sync::Arc;

/// One logged, replayable operation. Substrate-generic: the SQL engine
/// logs datasets, the document store collections (empty `namespace`),
/// the graph store labels.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableOp {
    /// DDL: create a dataset / collection / label.
    Create {
        /// Namespace (dataverse) — empty for docstore/graphstore.
        namespace: String,
        /// Dataset / collection / label name.
        name: String,
        /// Primary-key attribute, when the substrate has one.
        key: Option<String>,
    },
    /// Bulk ingest of fully-formed records (after id assignment, so
    /// replay is deterministic).
    Ingest {
        /// Namespace (dataverse) — empty for docstore/graphstore.
        namespace: String,
        /// Dataset / collection / label name.
        name: String,
        /// The ingested records, in ingest order.
        records: Vec<Record>,
    },
    /// DDL: build a secondary index on `attribute`.
    Index {
        /// Namespace (dataverse) — empty for docstore/graphstore.
        namespace: String,
        /// Dataset / collection / label name.
        name: String,
        /// Indexed attribute.
        attribute: String,
    },
}

impl DurableOp {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            DurableOp::Create {
                namespace,
                name,
                key,
            } => {
                buf.push(1);
                codec::put_str(buf, namespace);
                codec::put_str(buf, name);
                match key {
                    Some(k) => {
                        buf.push(1);
                        codec::put_str(buf, k);
                    }
                    None => buf.push(0),
                }
            }
            DurableOp::Ingest {
                namespace,
                name,
                records,
            } => {
                buf.push(2);
                codec::put_str(buf, namespace);
                codec::put_str(buf, name);
                codec::put_u32(buf, records.len() as u32);
                for r in records {
                    codec::put_record(buf, r);
                }
            }
            DurableOp::Index {
                namespace,
                name,
                attribute,
            } => {
                buf.push(3);
                codec::put_str(buf, namespace);
                codec::put_str(buf, name);
                codec::put_str(buf, attribute);
            }
        }
    }

    fn decode(r: &mut codec::Reader<'_>) -> Result<DurableOp, codec::DecodeError> {
        match r.u8()? {
            1 => {
                let namespace = r.str()?;
                let name = r.str()?;
                let key = if r.u8()? != 0 { Some(r.str()?) } else { None };
                Ok(DurableOp::Create {
                    namespace,
                    name,
                    key,
                })
            }
            2 => {
                let namespace = r.str()?;
                let name = r.str()?;
                let n = r.u32()? as usize;
                let mut records = Vec::with_capacity(n.min(1 << 16));
                for _ in 0..n {
                    records.push(r.record()?);
                }
                Ok(DurableOp::Ingest {
                    namespace,
                    name,
                    records,
                })
            }
            3 => Ok(DurableOp::Index {
                namespace: r.str()?,
                name: r.str()?,
                attribute: r.str()?,
            }),
            tag => Err(format!("unknown op tag {tag}")),
        }
    }

    /// Number of data records this op carries (used by recovery metrics).
    pub fn record_count(&self) -> usize {
        match self {
            DurableOp::Ingest { records, .. } => records.len(),
            _ => 0,
        }
    }
}

/// Encode an op sequence with the log's own codec. Two stores whose
/// [compacted op lists](DurableOp) encode to the same bytes hold
/// byte-identical durable state — the comparison recovery tests use.
pub fn encode_ops(ops: &[DurableOp]) -> Vec<u8> {
    let mut buf = Vec::new();
    for op in ops {
        op.encode(&mut buf);
    }
    buf
}

/// Durability failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An injected crash killed the process at a WAL site. The media
    /// survives; the store must wipe volatile state and recover. This is
    /// a *transient* condition: after recovery, retrying can succeed.
    Crashed {
        /// The fault site that fired (e.g. `docstore/wal/fsync`).
        site: String,
    },
    /// A complete, committed frame failed its CRC check (or a committed
    /// snapshot is undecodable). Non-retryable: the log itself is
    /// damaged and no amount of retrying repairs it.
    Corruption(String),
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Crashed { site } => write!(f, "process crashed at {site}; media survived"),
            WalError::Corruption(m) => write!(f, "log corruption: {m}"),
        }
    }
}

impl std::error::Error for WalError {}

/// When to take a snapshot checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint after this many appended ops (u64::MAX = never).
    pub every_ops: u64,
}

impl CheckpointPolicy {
    /// Checkpoint every `n` appended operations (`n` is clamped to ≥ 1).
    pub fn every(n: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            every_ops: n.max(1),
        }
    }

    /// Never checkpoint automatically (the log grows unbounded).
    pub fn never() -> CheckpointPolicy {
        CheckpointPolicy {
            every_ops: u64::MAX,
        }
    }
}

impl Default for CheckpointPolicy {
    /// Every 64 ops — small enough that tests exercise checkpoints,
    /// large enough that per-op overhead stays negligible.
    fn default() -> CheckpointPolicy {
        CheckpointPolicy::every(64)
    }
}

/// The simulated durable device: snapshot slot + append-only log bytes.
///
/// Held behind an `Arc` by the store *and* by whoever performs recovery,
/// exactly like a disk that outlives the process. A staged (not yet
/// committed) snapshot models the write-then-flip install protocol; the
/// flip in `LogMedia::commit_staged_snapshot` is the atomic commit
/// point, so a torn snapshot write can only ever damage the staging
/// area, never the committed snapshot.
#[derive(Debug, Default)]
pub struct LogMedia {
    inner: Mutex<MediaInner>,
}

#[derive(Debug, Default)]
struct MediaInner {
    snapshot: Option<Vec<u8>>,
    staged: Option<Vec<u8>>,
    log: Vec<u8>,
}

impl LogMedia {
    /// A fresh, empty media.
    pub fn new() -> Arc<LogMedia> {
        Arc::new(LogMedia::default())
    }

    fn append_log(&self, bytes: &[u8]) {
        self.inner.lock().log.extend_from_slice(bytes);
    }

    fn stage_snapshot(&self, bytes: &[u8], upto: usize) {
        self.inner.lock().staged = Some(bytes[..upto.min(bytes.len())].to_vec());
    }

    fn commit_staged_snapshot(&self) {
        let mut inner = self.inner.lock();
        if let Some(staged) = inner.staged.take() {
            inner.snapshot = Some(staged);
        }
    }

    fn discard_staged_snapshot(&self) {
        self.inner.lock().staged = None;
    }

    fn truncate_log(&self) {
        self.inner.lock().log.clear();
    }

    fn truncate_log_to(&self, len: usize) {
        self.inner.lock().log.truncate(len);
    }

    fn read_committed(&self) -> (Option<Vec<u8>>, Vec<u8>) {
        let inner = self.inner.lock();
        (inner.snapshot.clone(), inner.log.clone())
    }

    /// Bytes currently in the log (diagnostics and tests).
    pub fn log_len(&self) -> usize {
        self.inner.lock().log.len()
    }

    /// Whether a committed snapshot exists (diagnostics and tests).
    pub fn has_snapshot(&self) -> bool {
        self.inner.lock().snapshot.is_some()
    }

    /// Flip one log byte (tests: simulated media corruption).
    pub fn corrupt_log_byte(&self, offset: usize) {
        let mut inner = self.inner.lock();
        if let Some(b) = inner.log.get_mut(offset) {
            *b ^= 0xFF;
        }
    }

    /// Flip one committed-snapshot byte (tests: simulated media
    /// corruption).
    pub fn corrupt_snapshot_byte(&self, offset: usize) {
        let mut inner = self.inner.lock();
        if let Some(snap) = inner.snapshot.as_mut() {
            if let Some(b) = snap.get_mut(offset) {
                *b ^= 0xFF;
            }
        }
    }
}

/// Counters a [`Wal`] keeps about its own activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Frames appended (committed) to the log.
    pub appends: u64,
    /// Snapshot checkpoints installed.
    pub checkpoints: u64,
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Ops restored from the committed snapshot.
    pub snapshot_ops: u64,
    /// Log-tail frames replayed (ops past the snapshot's covered LSN).
    pub replayed_records: u64,
    /// Data records carried by the replayed ops and snapshot ops.
    pub restored_rows: u64,
    /// Bytes of torn tail truncated from the log.
    pub torn_bytes: u64,
    /// Highest LSN restored (0 when the media was empty).
    pub recovered_lsn: u64,
}

#[derive(Debug, Default)]
struct WalState {
    next_lsn: u64,
    since_checkpoint: u64,
    stats: WalStats,
}

/// Receives every committed frame, in LSN order, as it commits.
///
/// The hook that turns a WAL into a replication log: a cluster installs
/// an observer on each shard leader's WAL and ships the frame to that
/// shard's followers. The callback runs while the WAL's state lock is
/// held, so deliveries are totally ordered and never raced — observers
/// must not call back into the same WAL.
pub trait WalObserver: Send + Sync {
    /// Called once per committed frame, after the frame is fully on the
    /// media. A crash at the `fsync` site commits the frame but kills
    /// the process *before* this fires — the canonical
    /// committed-but-unshipped tail that promotion must replay.
    fn frame_committed(&self, lsn: u64, op: &DurableOp);
}

struct ObserverSlot(Mutex<Option<Arc<dyn WalObserver>>>);

impl fmt::Debug for ObserverSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0.lock().is_some() {
            "ObserverSlot(installed)"
        } else {
            "ObserverSlot(none)"
        })
    }
}

/// A write-ahead log bound to one store's media and fault site.
#[derive(Debug)]
pub struct Wal {
    media: Arc<LogMedia>,
    site: String,
    policy: CheckpointPolicy,
    state: Mutex<WalState>,
    faults: Mutex<Option<Arc<FaultPlan>>>,
    observer: ObserverSlot,
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 8);
    codec::put_u32(&mut out, payload.len() as u32);
    codec::put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

impl Wal {
    /// Bind a WAL to `media`, consulting fault plans under
    /// `<site>/wal/...` site names.
    pub fn new(media: Arc<LogMedia>, site: impl Into<String>, policy: CheckpointPolicy) -> Wal {
        Wal {
            media,
            site: site.into(),
            policy,
            state: Mutex::new(WalState::default()),
            faults: Mutex::new(None),
            observer: ObserverSlot(Mutex::new(None)),
        }
    }

    /// The media this WAL writes to.
    pub fn media(&self) -> Arc<LogMedia> {
        Arc::clone(&self.media)
    }

    /// Install (or clear) the fault plan consulted at WAL sites.
    pub fn set_faults(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock() = plan;
    }

    /// Install (or clear) the [`WalObserver`] notified of every
    /// committed frame. Replication moves the observer from a crashed
    /// leader's WAL to its promoted successor's.
    pub fn set_observer(&self, observer: Option<Arc<dyn WalObserver>>) {
        *self.observer.0.lock() = observer;
    }

    /// The LSN the next append will receive — equivalently, the number
    /// of ops this WAL has committed since its LSN clock last reset.
    pub fn next_lsn(&self) -> u64 {
        self.state.lock().next_lsn
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.state.lock().stats
    }

    /// Draw a fault at `<site>/wal/<point>`; `bytes` is the in-flight
    /// write a `TornWrite` tears (empty when nothing is mid-flight).
    fn fault_at(
        &self,
        point: &str,
        bytes: &[u8],
        stage: impl Fn(&[u8], usize),
    ) -> Result<(), WalError> {
        let plan = self.faults.lock().clone();
        let Some(plan) = plan else { return Ok(()) };
        let site = format!("{}/wal/{point}", self.site);
        match plan.next_fault(&site) {
            Some(FaultKind::Crash) => Err(WalError::Crashed { site }),
            Some(FaultKind::TornWrite(entropy)) => {
                if !bytes.is_empty() {
                    let cut = (entropy % bytes.len() as u64) as usize;
                    stage(bytes, cut);
                }
                Err(WalError::Crashed { site })
            }
            // Error/Latency/Hang target query paths; at a durability
            // site they degrade to a pre-write crash, which keeps every
            // FaultKind meaningful everywhere.
            Some(_) => Err(WalError::Crashed { site }),
            None => Ok(()),
        }
    }

    /// Append one op. The op is **committed** once this returns `Ok`:
    /// the full frame is on the media. A `Crash`/`TornWrite` at the
    /// `append` site fires *before* the frame is durable (the op is
    /// lost); a crash at the `fsync` site fires *after* (the op
    /// survives, the process still dies).
    pub fn append(&self, op: &DurableOp) -> Result<u64, WalError> {
        let mut state = self.state.lock();
        let lsn = state.next_lsn;
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, lsn);
        op.encode(&mut payload);
        let framed = frame(&payload);
        self.fault_at("append", &framed, |bytes, cut| {
            self.media.append_log(&bytes[..cut]);
        })?;
        self.media.append_log(&framed);
        self.fault_at("fsync", &[], |_, _| {})?;
        state.next_lsn = lsn + 1;
        state.since_checkpoint += 1;
        state.stats.appends += 1;
        // Ship under the state lock: deliveries stay in LSN order. A
        // crash above (fsync site) commits the frame without shipping
        // it — the unshipped tail promotion replays from the media.
        let observer = self.observer.0.lock().clone();
        if let Some(observer) = observer {
            observer.frame_committed(lsn, op);
        }
        Ok(lsn)
    }

    /// Whether the checkpoint policy says it is time to snapshot.
    pub fn checkpoint_due(&self) -> bool {
        self.state.lock().since_checkpoint >= self.policy.every_ops
    }

    /// Install a snapshot built from `ops` — a compacted op list that,
    /// replayed into an empty store, reproduces its entire current
    /// state. Must be called with the store's write lock held so the
    /// snapshot and the log agree on what `covered_lsn` means.
    pub fn checkpoint(&self, ops: &[DurableOp]) -> Result<(), WalError> {
        let mut state = self.state.lock();
        let covered_lsn = state.next_lsn;
        let mut payload = Vec::new();
        codec::put_u64(&mut payload, covered_lsn);
        codec::put_u32(&mut payload, ops.len() as u32);
        for op in ops {
            op.encode(&mut payload);
        }
        let framed = frame(&payload);
        // A crash here tears (or loses) only the *staged* snapshot; the
        // committed snapshot and the log are intact, so recovery replays
        // the full log as if this checkpoint never started.
        self.fault_at("checkpoint", &framed, |bytes, cut| {
            self.media.stage_snapshot(bytes, cut);
        })?;
        self.media.stage_snapshot(&framed, framed.len());
        self.media.commit_staged_snapshot();
        // A crash here leaves snapshot installed + log untouched;
        // recovery skips log frames with lsn < covered_lsn.
        self.fault_at("truncate", &[], |_, _| {})?;
        self.media.truncate_log();
        state.since_checkpoint = 0;
        state.stats.checkpoints += 1;
        Ok(())
    }

    /// The committed frames with `lsn >= from_lsn`, in LSN order,
    /// straight off the media — the tail a promoted follower replays to
    /// catch up with its crashed leader. Returns `Ok(None)` when
    /// checkpoint truncation has already compacted part of the
    /// requested range into a snapshot (the individual frames are gone;
    /// the caller must fall back to a full rebuild). A torn final frame
    /// never committed and is ignored; a CRC-mismatched complete frame
    /// is [`WalError::Corruption`], as in [`Wal::recover`].
    pub fn committed_tail(&self, from_lsn: u64) -> Result<Option<Vec<(u64, DurableOp)>>, WalError> {
        let (snapshot, log) = self.media.read_committed();
        let mut covered_lsn = 0u64;
        if let Some(snap) = snapshot {
            let payload = read_frame(&snap, 0)
                .map_err(|e| WalError::Corruption(format!("snapshot: {e}")))?
                .ok_or_else(|| WalError::Corruption("snapshot: incomplete frame".into()))?;
            let mut r = codec::Reader::new(payload);
            covered_lsn = r
                .u64()
                .map_err(|e| WalError::Corruption(format!("snapshot: {e}")))?;
        }
        let mut tail = Vec::new();
        let mut offset = 0usize;
        loop {
            match read_frame(&log, offset) {
                Ok(Some(payload)) => {
                    let frame_len = 8 + payload.len();
                    let mut r = codec::Reader::new(payload);
                    let lsn = r
                        .u64()
                        .map_err(|e| WalError::Corruption(format!("frame at {offset}: {e}")))?;
                    if lsn >= from_lsn {
                        let op = DurableOp::decode(&mut r)
                            .map_err(|e| WalError::Corruption(format!("frame at {offset}: {e}")))?;
                        tail.push((lsn, op));
                    }
                    offset += frame_len;
                }
                Ok(None) => break,
                Err(e) => return Err(WalError::Corruption(format!("frame at {offset}: {e}"))),
            }
        }
        // The tail must cover [from_lsn, end) without holes. A first
        // frame past `from_lsn`, or an empty log whose snapshot covers
        // past `from_lsn`, means checkpointing compacted the range.
        let mut want = from_lsn;
        for (lsn, _) in &tail {
            if *lsn != want {
                return Ok(None);
            }
            want += 1;
        }
        if want < covered_lsn {
            return Ok(None);
        }
        Ok(Some(tail))
    }

    /// Rebuild the committed op sequence from the media: the latest
    /// committed snapshot's ops, then every committed log frame past the
    /// snapshot's coverage. Torn tails are truncated (and reported);
    /// complete-but-CRC-mismatched frames abort with
    /// [`WalError::Corruption`]. Also resets this WAL's LSN clock so new
    /// appends continue after the recovered history.
    pub fn recover(&self) -> Result<(Vec<DurableOp>, RecoveryReport), WalError> {
        // An uncommitted staged snapshot never happened (the flip is the
        // commit point).
        self.media.discard_staged_snapshot();
        let (snapshot, log) = self.media.read_committed();
        let mut report = RecoveryReport::default();
        let mut ops = Vec::new();
        let mut covered_lsn = 0u64;

        if let Some(snap) = snapshot {
            let payload = read_frame(&snap, 0)
                .map_err(|e| WalError::Corruption(format!("snapshot: {e}")))?
                .ok_or_else(|| WalError::Corruption("snapshot: incomplete frame".into()))?;
            let mut r = codec::Reader::new(payload);
            covered_lsn = r
                .u64()
                .map_err(|e| WalError::Corruption(format!("snapshot: {e}")))?;
            let n = r
                .u32()
                .map_err(|e| WalError::Corruption(format!("snapshot: {e}")))?;
            for _ in 0..n {
                let op = DurableOp::decode(&mut r)
                    .map_err(|e| WalError::Corruption(format!("snapshot: {e}")))?;
                report.snapshot_ops += 1;
                report.restored_rows += op.record_count() as u64;
                ops.push(op);
            }
        }

        let mut offset = 0usize;
        let mut max_lsn = covered_lsn;
        loop {
            match read_frame(&log, offset) {
                Ok(Some(payload)) => {
                    let frame_len = 8 + payload.len();
                    let mut r = codec::Reader::new(payload);
                    let lsn = r
                        .u64()
                        .map_err(|e| WalError::Corruption(format!("frame at {offset}: {e}")))?;
                    let op = DurableOp::decode(&mut r)
                        .map_err(|e| WalError::Corruption(format!("frame at {offset}: {e}")))?;
                    if lsn >= covered_lsn {
                        report.replayed_records += 1;
                        report.restored_rows += op.record_count() as u64;
                        max_lsn = max_lsn.max(lsn + 1);
                        ops.push(op);
                    }
                    offset += frame_len;
                }
                Ok(None) => {
                    // Torn tail: truncate to the last complete frame.
                    let torn = log.len() - offset;
                    if torn > 0 {
                        report.torn_bytes = torn as u64;
                        self.media.truncate_log_to(offset);
                    }
                    break;
                }
                Err(e) => return Err(WalError::Corruption(format!("frame at {offset}: {e}"))),
            }
        }

        report.recovered_lsn = max_lsn;
        let mut state = self.state.lock();
        state.next_lsn = max_lsn;
        state.since_checkpoint = 0;
        Ok((ops, report))
    }
}

/// Read the frame starting at `offset`. `Ok(Some(payload))` for a
/// complete, CRC-valid frame; `Ok(None)` when the remaining bytes cannot
/// hold the frame (torn tail, including `offset == len`); `Err` when a
/// complete frame fails its CRC.
fn read_frame(buf: &[u8], offset: usize) -> Result<Option<&[u8]>, String> {
    let rest = &buf[offset.min(buf.len())..];
    if rest.len() < 8 {
        return Ok(None);
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
    let want = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    if rest.len() < 8 + len {
        return Ok(None);
    }
    let payload = &rest[8..8 + len];
    let got = crc32(payload);
    if got != want {
        return Err(format!(
            "crc mismatch (stored {want:#010x}, computed {got:#010x})"
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyframe_datamodel::record;

    fn op(i: i64) -> DurableOp {
        DurableOp::Ingest {
            namespace: "ns".into(),
            name: "t".into(),
            records: vec![record! {"x" => i}],
        }
    }

    fn create() -> DurableOp {
        DurableOp::Create {
            namespace: "ns".into(),
            name: "t".into(),
            key: Some("x".into()),
        }
    }

    #[test]
    fn append_and_recover_round_trip() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        assert_eq!(wal.append(&create()).expect("append"), 0);
        assert_eq!(wal.append(&op(1)).expect("append"), 1);
        assert_eq!(wal.append(&op(2)).expect("append"), 2);

        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        let (ops, report) = fresh.recover().expect("recover");
        assert_eq!(ops, vec![create(), op(1), op(2)]);
        assert_eq!(report.replayed_records, 3);
        assert_eq!(report.snapshot_ops, 0);
        assert_eq!(report.restored_rows, 2);
        assert_eq!(report.recovered_lsn, 3);
        // LSNs continue after recovery.
        assert_eq!(fresh.append(&op(3)).expect("append"), 3);
    }

    #[test]
    fn checkpoint_truncates_and_recovery_prefers_snapshot() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::every(2));
        wal.append(&create()).expect("append");
        wal.append(&op(1)).expect("append");
        assert!(wal.checkpoint_due());
        wal.checkpoint(&[create(), op(1)]).expect("checkpoint");
        assert_eq!(media.log_len(), 0);
        assert!(media.has_snapshot());
        wal.append(&op(2)).expect("append");

        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        let (ops, report) = fresh.recover().expect("recover");
        assert_eq!(ops, vec![create(), op(1), op(2)]);
        assert_eq!(report.snapshot_ops, 2);
        assert_eq!(report.replayed_records, 1);
    }

    #[test]
    fn torn_tail_is_truncated_cleanly() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        wal.append(&op(1)).expect("append");
        let good_len = media.log_len();
        wal.append(&op(2)).expect("append");
        // Tear the second frame: keep only 3 bytes past the first one.
        media.truncate_log_to(good_len + 3);

        let fresh = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        let (ops, report) = fresh.recover().expect("recover");
        assert_eq!(ops, vec![op(1)]);
        assert_eq!(report.torn_bytes, 3);
        assert_eq!(media.log_len(), good_len);
    }

    #[test]
    fn corrupt_committed_frame_is_fatal() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        wal.append(&op(1)).expect("append");
        media.corrupt_log_byte(12); // inside the committed payload
        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        match fresh.recover() {
            Err(WalError::Corruption(m)) => assert!(m.contains("crc"), "{m}"),
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_snapshot_is_fatal() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        wal.append(&op(1)).expect("append");
        wal.checkpoint(&[op(1)]).expect("checkpoint");
        media.corrupt_snapshot_byte(10);
        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        assert!(matches!(fresh.recover(), Err(WalError::Corruption(_))));
    }

    #[test]
    fn crash_at_append_loses_only_the_in_flight_op() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        wal.append(&op(1)).expect("append");
        wal.set_faults(Some(Arc::new(FaultPlan::crash_at(7, "s/wal/append", 1))));
        // Draw 0 at the append site passes; draw 1 is the targeted crash.
        assert_eq!(wal.append(&op(2)).expect("append"), 1);
        let err = wal.append(&op(3)).expect_err("crash");
        assert_eq!(
            err,
            WalError::Crashed {
                site: "s/wal/append".into()
            }
        );
        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        let (ops, _) = fresh.recover().expect("recover");
        assert_eq!(ops, vec![op(1), op(2)]);
    }

    #[test]
    fn crash_at_fsync_keeps_the_committed_op() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        wal.set_faults(Some(Arc::new(FaultPlan::crash_at(7, "s/wal/fsync", 0))));
        let err = wal.append(&op(1)).expect_err("crash");
        assert!(matches!(err, WalError::Crashed { .. }));
        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        let (ops, _) = fresh.recover().expect("recover");
        // The frame hit the media before the fsync-site crash: committed.
        assert_eq!(ops, vec![op(1)]);
    }

    #[test]
    fn torn_write_at_append_truncates_to_previous_commit() {
        for seed in 0..20u64 {
            let media = LogMedia::new();
            let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
            wal.append(&op(1)).expect("append");
            let committed = media.log_len();
            wal.set_faults(Some(Arc::new(FaultPlan::torn_at(seed, "s/wal/append", 0))));
            wal.append(&op(2)).expect_err("torn");
            let fresh = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
            let (ops, _) = fresh.recover().expect("recover");
            assert_eq!(ops, vec![op(1)], "seed {seed}");
            assert_eq!(media.log_len(), committed, "seed {seed}");
        }
    }

    #[test]
    fn torn_checkpoint_never_damages_committed_snapshot() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        wal.append(&op(1)).expect("append");
        wal.checkpoint(&[op(1)]).expect("checkpoint");
        wal.append(&op(2)).expect("append");
        wal.set_faults(Some(Arc::new(FaultPlan::torn_at(3, "s/wal/checkpoint", 0))));
        wal.checkpoint(&[op(1), op(2)])
            .expect_err("torn checkpoint");
        // Old snapshot + full log tail still recover everything.
        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        let (ops, report) = fresh.recover().expect("recover");
        assert_eq!(ops, vec![op(1), op(2)]);
        assert_eq!(report.snapshot_ops, 1);
        assert_eq!(report.replayed_records, 1);
    }

    #[test]
    fn crash_between_snapshot_install_and_truncate_dedupes_by_lsn() {
        let media = LogMedia::new();
        let wal = Wal::new(Arc::clone(&media), "s", CheckpointPolicy::never());
        wal.append(&op(1)).expect("append");
        wal.append(&op(2)).expect("append");
        wal.set_faults(Some(Arc::new(FaultPlan::crash_at(9, "s/wal/truncate", 0))));
        wal.checkpoint(&[op(1), op(2)]).expect_err("crash");
        // Snapshot committed, log NOT truncated: replay must not double-apply.
        assert!(media.has_snapshot());
        assert!(media.log_len() > 0);
        let fresh = Wal::new(media, "s", CheckpointPolicy::never());
        let (ops, report) = fresh.recover().expect("recover");
        assert_eq!(ops, vec![op(1), op(2)]);
        assert_eq!(report.snapshot_ops, 2);
        assert_eq!(report.replayed_records, 0);
    }

    #[test]
    fn observer_sees_every_committed_frame_in_order() {
        struct Tape(Mutex<Vec<(u64, DurableOp)>>);
        impl WalObserver for Tape {
            fn frame_committed(&self, lsn: u64, op: &DurableOp) {
                self.0.lock().push((lsn, op.clone()));
            }
        }
        let wal = Wal::new(LogMedia::new(), "s", CheckpointPolicy::never());
        let tape = Arc::new(Tape(Mutex::new(Vec::new())));
        wal.set_observer(Some(Arc::clone(&tape) as Arc<dyn WalObserver>));
        wal.append(&op(1)).expect("append");
        wal.append(&op(2)).expect("append");
        assert_eq!(*tape.0.lock(), vec![(0, op(1)), (1, op(2))]);
        // A crash at the fsync site commits the frame without shipping it.
        wal.set_faults(Some(Arc::new(FaultPlan::crash_at(7, "s/wal/fsync", 0))));
        wal.append(&op(3)).expect_err("crash");
        assert_eq!(tape.0.lock().len(), 2);
        assert_eq!(wal.committed_tail(2).expect("tail"), Some(vec![(2, op(3))]));
    }

    #[test]
    fn committed_tail_returns_the_unshipped_suffix() {
        let wal = Wal::new(LogMedia::new(), "s", CheckpointPolicy::never());
        for i in 1..=4 {
            wal.append(&op(i)).expect("append");
        }
        let tail = wal.committed_tail(2).expect("tail").expect("no gap");
        assert_eq!(tail, vec![(2, op(3)), (3, op(4))]);
        assert_eq!(wal.committed_tail(4).expect("tail"), Some(vec![]));
    }

    #[test]
    fn committed_tail_reports_a_gap_after_checkpoint_truncation() {
        let wal = Wal::new(LogMedia::new(), "s", CheckpointPolicy::never());
        wal.append(&op(1)).expect("append");
        wal.append(&op(2)).expect("append");
        wal.checkpoint(&[op(1), op(2)]).expect("checkpoint");
        wal.append(&op(3)).expect("append");
        // Frames 0..2 were compacted into the snapshot: a follower at
        // LSN 1 cannot be caught up frame-by-frame any more.
        assert_eq!(wal.committed_tail(1).expect("tail"), None);
        // A follower at the covered LSN still can.
        assert_eq!(wal.committed_tail(2).expect("tail"), Some(vec![(2, op(3))]));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is 0xCBF43926 (canonical check value).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn op_encoding_round_trips() {
        let ops = vec![
            create(),
            DurableOp::Create {
                namespace: String::new(),
                name: "c".into(),
                key: None,
            },
            op(42),
            DurableOp::Index {
                namespace: "ns".into(),
                name: "t".into(),
                attribute: "x".into(),
            },
        ];
        for o in &ops {
            let mut buf = Vec::new();
            o.encode(&mut buf);
            let mut r = codec::Reader::new(&buf);
            assert_eq!(&DurableOp::decode(&mut r).expect("decode"), o);
            assert!(r.is_empty());
        }
    }
}
