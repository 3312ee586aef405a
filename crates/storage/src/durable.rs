//! The one durable-store shell every PolyFrame store is built on.
//!
//! A store is a [`StateMachine`] — how to validate, apply and compact
//! [`DurableOp`]s — plus its query front-end. Everything else lives here,
//! once: [`DurableStore`] owns the master copy behind a write lock, the
//! published copy-on-write [`Snapshot`] readers pin, the catalog version,
//! the fault-plan slot and the optional [`Wal`], and is the only code
//! that knows the protocol:
//!
//! * **every entry** heals first: a master lock poisoned by a panic
//!   mid-apply (an op on the log but absent from memory) is rebuilt from
//!   the log before anything is served, or refused when there is no log;
//! * **read** ([`DurableStore::pin_query`]): consult the fault plan, then
//!   pin the published snapshot. The pin carries the catalog version *of
//!   that state* — the two are published together, so a plan cached under
//!   a pin's version was compiled against exactly that catalog;
//! * **write** ([`DurableStore::commit`]): lock → [`StateMachine::prepare`]
//!   → WAL append (the commit point) → the `<site>/apply` panic point →
//!   [`StateMachine::apply`] → version bump → checkpoint when due →
//!   publish, on success *and* failure (a failed write may have
//!   crash-recovered the master in place, which readers must see).
//!
//! An injected crash at any WAL site wipes the master, recovers it from
//! the log and surfaces as [`DurableError::Transient`]: the store the
//! caller retries against is the rebuilt one.

use crate::wal::{CheckpointPolicy, DurableOp, LogMedia, RecoveryReport, Wal, WalError, WalStats};
use polyframe_observe::sync::{Mutex, RwLock};
use polyframe_observe::{FaultKind, FaultPlan, SnapshotCell};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// What the shell itself can fail with. Each store's error enum absorbs
/// it via `From` (see [`StoreError`]).
#[derive(Debug, Clone, PartialEq)]
pub enum DurableError {
    /// A retryable condition: an injected fault, or a simulated process
    /// crash the store has already recovered from.
    Transient(String),
    /// The log or snapshot failed its integrity check, or memory was torn
    /// with no log to rebuild from. Non-retryable.
    Corruption(String),
    /// A log-only operation on a store without a log attached.
    NotDurable,
}

impl fmt::Display for DurableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableError::Transient(m) => write!(f, "{m}"),
            DurableError::Corruption(m) => write!(f, "log corruption: {m}"),
            DurableError::NotDurable => write!(f, "execution error: durability is not enabled"),
        }
    }
}

impl std::error::Error for DurableError {}

/// A store's error enum: absorbs shell failures and can hand them back,
/// so layers above (cluster failover, the connector's error taxonomy)
/// classify any store's errors through one code path.
pub trait StoreError: std::error::Error + From<DurableError> + Send + 'static {
    /// The shell failure this error carries, if it is one.
    fn durable(&self) -> Option<&DurableError>;
}

/// The part of a store that really differs from the others.
pub trait StateMachine: Clone + Send + Sync + 'static {
    /// The store's error enum.
    type Error: StoreError;

    /// Validate `op` against the current state and finish forming it
    /// (the document store assigns `_id`s here). Runs under the write
    /// lock *before* the WAL append, so a logged op can never fail to
    /// apply.
    fn prepare(&self, op: DurableOp) -> Result<DurableOp, Self::Error>;

    /// Apply a logged op. A failure means the log references state it
    /// never created — corruption, not a user error.
    fn apply(&mut self, op: DurableOp) -> Result<(), DurableError>;

    /// The compacted op list that replays to this exact state from
    /// [`StateMachine::empty`] — what a checkpoint writes.
    fn snapshot_ops(&self) -> Vec<DurableOp>;

    /// An empty state configured like this one (recovery's start point).
    fn empty(&self) -> Self;

    /// Maintenance hook run after a checkpoint was written.
    fn after_checkpoint(&mut self) {}
}

/// A committed state together with the catalog version it was published
/// at. Dereferences to the state.
#[derive(Debug, Clone)]
pub struct Snapshot<S> {
    version: u64,
    state: S,
}

impl<S> Snapshot<S> {
    /// The catalog version of this state: the plan-cache key.
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl<S> Deref for Snapshot<S> {
    type Target = S;
    fn deref(&self) -> &S {
        &self.state
    }
}

/// The durable-store shell (see the module docs for the protocol).
pub struct DurableStore<S: StateMachine> {
    /// Fault/WAL site name (`sqlengine/<Dialect>`, `docstore`, ...).
    site: String,
    master: RwLock<Snapshot<S>>,
    published: SnapshotCell<Snapshot<S>>,
    faults: Mutex<Option<Arc<FaultPlan>>>,
    wal: Mutex<Option<Arc<Wal>>>,
}

impl<S: StateMachine> DurableStore<S> {
    /// A volatile store at `site` starting from `state`.
    pub fn new(site: impl Into<String>, state: S) -> DurableStore<S> {
        let snapshot = Snapshot { version: 0, state };
        DurableStore {
            site: site.into(),
            master: RwLock::new(snapshot.clone()),
            published: SnapshotCell::new(snapshot),
            faults: Mutex::new(None),
            wal: Mutex::new(None),
        }
    }

    /// Pin the committed snapshot for a metadata read (no fault check).
    pub fn pin(&self) -> Result<Arc<Snapshot<S>>, S::Error> {
        self.heal_poisoned()?;
        Ok(self.published.load())
    }

    /// Pin the committed snapshot at a query entry point: consults the
    /// fault plan first. The pinned state cannot change under the reader.
    pub fn pin_query(&self) -> Result<Arc<Snapshot<S>>, S::Error> {
        self.heal_poisoned()?;
        self.check_faults()?;
        Ok(self.published.load())
    }

    /// Run one write through the protocol.
    pub fn commit(&self, op: DurableOp) -> Result<(), S::Error> {
        self.heal_poisoned()?;
        let mut master = self.master.write();
        let op = master.state.prepare(op)?;
        let result = self.durable_apply(&mut master, op);
        self.publish_locked(&master);
        Ok(result?)
    }

    /// Epoch of the most recent snapshot publication (0 = construction).
    pub fn snapshot_epoch(&self) -> u64 {
        self.published.epoch()
    }

    /// Install (or clear) a fault-injection plan consulted at every
    /// query entry point, the apply panic point and the WAL's sites.
    pub fn set_fault_plan(&self, plan: Option<Arc<FaultPlan>>) {
        *self.faults.lock() = plan.clone();
        if let Some(wal) = self.wal_handle() {
            wal.set_faults(plan);
        }
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.faults.lock().clone()
    }

    /// Attach a write-ahead log on `media` and recover whatever state it
    /// holds (fresh media recovers to an empty store; media carried over
    /// from a "previous process" rebuilds its exact committed state).
    /// From here on every op is logged before it is applied, and
    /// checkpoints follow `policy`.
    pub fn enable_durability(
        &self,
        media: Arc<LogMedia>,
        policy: CheckpointPolicy,
    ) -> Result<RecoveryReport, S::Error> {
        let wal = Arc::new(Wal::new(media, self.site.clone(), policy));
        wal.set_faults(self.fault_plan());
        let mut master = self.master.write();
        let report = self.recover_locked(&mut master, &wal)?;
        *self.wal.lock() = Some(wal);
        Ok(report)
    }

    /// Whether a WAL is attached.
    pub fn durability_enabled(&self) -> bool {
        self.wal.lock().is_some()
    }

    /// WAL activity counters, when durability is enabled.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal_handle().map(|w| w.stats())
    }

    /// The attached WAL, when durability is enabled (the replication
    /// layer installs its shipping observer through this handle).
    pub fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.wal.lock().clone()
    }

    /// Wipe in-memory state and rebuild it from the attached log, as a
    /// restarted process would.
    pub fn recover(&self) -> Result<RecoveryReport, S::Error> {
        let wal = self.wal_handle().ok_or(DurableError::NotDurable)?;
        let mut master = self.master.write();
        Ok(self.recover_locked(&mut master, &wal)?)
    }

    /// The compacted op list that rebuilds the committed state from
    /// empty. Equal encodings ([`crate::encode_ops`]) imply
    /// byte-identical stores.
    pub fn durable_snapshot(&self) -> Vec<DurableOp> {
        let _ = self.heal_poisoned();
        self.published.load().snapshot_ops()
    }

    /// Atomically pin the committed state and its log position: the
    /// compacted op list plus the LSN the next append will receive. The
    /// master read lock excludes writers, so the two always agree.
    pub fn pinned_ops(&self) -> Result<(Vec<DurableOp>, u64), S::Error> {
        let wal = self.wal_handle().ok_or(DurableError::NotDurable)?;
        self.heal_poisoned()?;
        let master = self.master.read();
        Ok((master.snapshot_ops(), wal.next_lsn()))
    }

    /// Callers hold the master write lock and call this only after the
    /// mutation (or its recovery) finished — a torn state is never
    /// published.
    fn publish_locked(&self, master: &Snapshot<S>) {
        self.published.publish(master.clone());
    }

    fn heal_poisoned(&self) -> Result<(), DurableError> {
        if !self.master.poisoned() {
            return Ok(());
        }
        let mut master = self.master.write();
        if !self.master.poisoned() {
            return Ok(()); // another session healed while we waited
        }
        let wal = self.wal_handle().ok_or_else(|| {
            DurableError::Corruption(
                "store state torn by a panic mid-apply and no log is attached to rebuild from"
                    .to_string(),
            )
        })?;
        self.recover_locked(&mut master, &wal).map(|_| ())
    }

    fn check_faults(&self) -> Result<(), DurableError> {
        let Some(plan) = self.fault_plan() else {
            return Ok(());
        };
        let site = &self.site;
        match plan.next_fault(site) {
            None => Ok(()),
            Some(FaultKind::Error) => {
                Err(DurableError::Transient(format!("injected fault at {site}")))
            }
            Some(FaultKind::Latency(d)) => {
                std::thread::sleep(d);
                Ok(())
            }
            Some(FaultKind::Hang(d)) => {
                std::thread::sleep(d);
                Err(DurableError::Transient(format!("injected hang at {site}")))
            }
            Some(FaultKind::Crash) | Some(FaultKind::TornWrite(_)) => {
                Err(self.simulate_query_crash())
            }
            Some(FaultKind::Panic) => panic!("injected panic at {site}"),
        }
    }

    /// A crash fault at a *query* site: no committed state is at risk,
    /// but a process restart wipes memory. With a log we model that
    /// faithfully — recover — so the retry lands on the rebuilt store;
    /// without one the crash degrades to a plain transient fault.
    fn simulate_query_crash(&self) -> DurableError {
        if let Some(wal) = self.wal_handle() {
            if let Err(e) = self.recover_locked(&mut self.master.write(), &wal) {
                return e;
            }
        }
        DurableError::Transient(format!("process crashed at {}; store recovered", self.site))
    }

    /// Replace the master with the state recovered from `wal`'s media and
    /// publish it. The catalog version moves strictly past its pre-crash
    /// value, so plans cached before the crash can never be served again.
    fn recover_locked(
        &self,
        master: &mut Snapshot<S>,
        wal: &Wal,
    ) -> Result<RecoveryReport, DurableError> {
        let (ops, report) = wal.recover().map_err(|e| match e {
            WalError::Crashed { site } => {
                DurableError::Transient(format!("process crashed at {site} during recovery"))
            }
            WalError::Corruption(m) => DurableError::Corruption(m),
        })?;
        let mut fresh = master.state.empty();
        for op in ops {
            fresh.apply(op)?;
        }
        master.state = fresh;
        master.version += 1;
        // Recovery rebuilt a consistent state, healing any torn write a
        // prior panic left behind.
        self.master.clear_poison();
        self.publish_locked(master);
        Ok(report)
    }

    fn durable_apply(&self, master: &mut Snapshot<S>, op: DurableOp) -> Result<(), DurableError> {
        let wal = self.wal_handle();
        if let Some(wal) = &wal {
            if let Err(e) = wal.append(&op) {
                return Err(self.crash_recover(master, wal, e));
            }
        }
        // The op is now committed (on the log, when one is attached) but
        // not yet applied in memory.
        self.apply_panic_point();
        master.state.apply(op)?;
        master.version += 1;
        if let Some(wal) = wal.filter(|w| w.checkpoint_due()) {
            if let Err(e) = wal.checkpoint(&master.snapshot_ops()) {
                return Err(self.crash_recover(master, &wal, e));
            }
            master.state.after_checkpoint();
        }
        Ok(())
    }

    /// The injected-panic point between the WAL append and the in-memory
    /// apply. A [`FaultPlan::panic_at`] target at `<site>/apply` dies
    /// here with the master write lock held: the op is on the log but
    /// absent from memory and the lock is poisoned — the torn state
    /// heal-on-entry repairs. Gated on an armed target so plans that
    /// never aim here draw nothing at this site.
    fn apply_panic_point(&self) {
        if let Some(plan) = self.fault_plan() {
            let site = format!("{}/apply", self.site);
            if plan.has_target_at(&site) && plan.next_fault(&site) == Some(FaultKind::Panic) {
                panic!("injected panic at {site}");
            }
        }
    }

    /// A WAL failure under the write lock: crashes recover in place,
    /// corruption is fatal.
    fn crash_recover(&self, master: &mut Snapshot<S>, wal: &Wal, err: WalError) -> DurableError {
        match err {
            WalError::Crashed { site } => match self.recover_locked(master, wal) {
                Ok(_) => DurableError::Transient(format!(
                    "process crashed at {site}; store recovered from log"
                )),
                Err(e) => e,
            },
            WalError::Corruption(m) => DurableError::Corruption(m),
        }
    }
}
