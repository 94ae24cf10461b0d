//! The plan/execute counting API: compile once per level, execute many times.
//!
//! The paper's central systems lesson — echoed by later GPU mining systems
//! like Everest and Mayura — is that counting dominates mining and must be
//! *staged*: candidate layout, launch geometry, and per-level buffer reuse are
//! planning decisions, separate from the backend that executes the scan. This
//! module is that seam:
//!
//! * [`MiningSession`] — the **plan** side. Built from `&EventDb` +
//!   [`MinerConfig`] via [`MiningSession::builder`], it owns the
//!   [`CompiledCandidates`] (recompiled in place once per level), the
//!   database shard bounds, and a persistent [`Pool`] of worker threads that
//!   serves every counting call of the level loop.
//! * [`CountRequest`] — the borrowed view handed to backends: the compiled
//!   CSR buffers and symbol-anchor index, the symbol stream, the shard
//!   bounds, the session pool, and the level metadata. No `&[Episode]`, no
//!   clones, no recompiles on the execute side.
//! * [`Executor`] — the **execute** side: one `execute(&CountRequest) ->
//!   Result<Counts, BackendError>` call per level. CPU backends scan borrowed
//!   chunks; GPU backends derive launch geometry and sampling from the same
//!   compiled layout.
//!
//! The level-wise miner ([`crate::miner::Miner`]) is a thin driver over a
//! session; long-lived services can hold a session directly and stream
//! per-level results via [`MiningSession::mine_with`].
//!
//! Sessions come in two ownership shapes. [`MiningSession::builder`] borrows
//! the database (`MiningSession<'db>`), right for scoped use. A **serving**
//! layer instead wants sessions that outlive any one request and share one
//! machine-sized worker pool across tenants: [`MiningSession::builder_shared`]
//! takes `Arc<EventDb>` and yields a `MiningSession<'static>` that can live in
//! a cache, and [`MiningSessionBuilder::with_pool`] attaches an externally
//! owned `Arc<Pool>` instead of spawning a private one — any number of
//! concurrent sessions multiplex their scan jobs over the same threads (see
//! the `tdm-serve` crate).
//!
//! ```
//! use tdm_core::session::MiningSession;
//! use tdm_core::miner::{MinerConfig, SequentialBackend};
//! use tdm_core::{Alphabet, EventDb};
//!
//! let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(50)).unwrap();
//! let mut session = MiningSession::builder(&db)
//!     .config(MinerConfig { alpha: 0.1, ..Default::default() })
//!     .build();
//! let result = session.mine(&mut SequentialBackend::default()).unwrap();
//! assert!(result.total_frequent() > 0);
//! // One compile per level, however many executors ran.
//! assert_eq!(session.compiles(), result.levels.len());
//! ```

use std::borrow::Cow;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::candidate::{apriori_join, level1};
use crate::engine::{CandidateUnion, CompiledCandidates, OccurrenceIndex, MIN_SHARD_STREAM};
use crate::episode::Episode;
use crate::miner::MinerConfig;
use crate::segment::even_bounds;
use crate::sequence::EventDb;
use crate::stats::{support, LevelResult, MiningResult};
use crate::CoreError;
use std::sync::OnceLock;
use tdm_mapreduce::pool::{default_workers, Pool, Priority};

/// Appearance counts, one per candidate episode in compiled order.
pub type Counts = Vec<u64>;

/// How a session holds its database: borrowed for scoped use, or shared
/// behind an `Arc` so the session has no borrowed lifetime and can sit in a
/// cache between requests (the serving configuration).
#[derive(Debug, Clone)]
enum DbHandle<'db> {
    Borrowed(&'db EventDb),
    Shared(Arc<EventDb>),
}

impl DbHandle<'_> {
    #[inline]
    fn get(&self) -> &EventDb {
        match self {
            DbHandle::Borrowed(db) => db,
            DbHandle::Shared(db) => db,
        }
    }
}

/// The session's worker pool: spawned lazily and owned by the session, or
/// shared with other sessions through an `Arc` (the multi-tenant serving
/// configuration — one machine-sized pool, many concurrent sessions).
#[derive(Debug)]
enum PoolSlot {
    Owned {
        workers: usize,
        cell: OnceLock<Pool>,
    },
    Shared(Arc<Pool>),
}

impl PoolSlot {
    #[inline]
    fn get(&self) -> &Pool {
        match self {
            PoolSlot::Owned { workers, cell } => cell.get_or_init(|| Pool::with_workers(*workers)),
            PoolSlot::Shared(pool) => pool,
        }
    }
}

/// A cooperative cancellation handle checked by the level loops
/// ([`MiningSession::mine_with`], [`CoSession::co_mine`]) **between** level
/// scans: an abandoned request stops before compiling or counting its next
/// level instead of running the full loop for nobody.
///
/// The flag is shared across clones (an `Arc<AtomicBool>`), so a serving
/// layer can hand one copy to the session and keep another to fire from a
/// watchdog or disconnect handler. The deadline, by contrast, is a plain
/// per-copy value: [`deadline_within`](CancelToken::deadline_within) returns
/// a *tightened* copy without affecting other holders.
///
/// ```
/// use std::time::Duration;
/// use tdm_core::session::CancelToken;
///
/// let token = CancelToken::new();
/// let watcher = token.clone();
/// assert!(!watcher.is_cancelled());
/// token.cancel();
/// assert!(watcher.is_cancelled()); // the flag is shared
///
/// let expired = CancelToken::new().deadline_within(Duration::ZERO);
/// assert!(expired.is_cancelled()); // the deadline already passed
/// ```
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh token: not cancelled, no deadline.
    pub fn new() -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }

    /// A copy of this token whose deadline is at most `timeout` from now
    /// (tightening an earlier deadline, never loosening it). The cancel flag
    /// stays shared with the original.
    pub fn deadline_within(&self, timeout: Duration) -> Self {
        let at = Instant::now()
            .checked_add(timeout)
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(86_400));
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(match self.deadline {
                Some(existing) => existing.min(at),
                None => at,
            }),
        }
    }

    /// Fires the shared cancel flag: every clone of this token reports
    /// cancelled from now on.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True when the flag was fired or this copy's deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire) || self.deadline.is_some_and(|at| Instant::now() >= at)
    }

    /// This copy's deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        CancelToken::new()
    }
}

/// An error raised by a counting backend's execute phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The backend returned the wrong number of counts.
    CountLength {
        /// Counts expected (the compiled candidate count).
        expected: usize,
        /// Counts actually returned.
        got: usize,
    },
    /// A kernel/launch configuration was rejected (simulated GPU backends).
    Launch(String),
    /// Any other execution failure, with a human-readable reason.
    Failed(String),
    /// The request's [`CancelToken`] fired (deadline passed or explicitly
    /// cancelled) before this level's scan started; later levels never ran.
    Cancelled,
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::CountLength { expected, got } => {
                write!(f, "backend returned {got} counts for {expected} candidates")
            }
            BackendError::Launch(e) => write!(f, "kernel launch failed: {e}"),
            BackendError::Failed(e) => write!(f, "backend execution failed: {e}"),
            BackendError::Cancelled => {
                write!(
                    f,
                    "request cancelled (deadline passed) before the level scan"
                )
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// An error from a mining run: which level failed, which backend, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MineError {
    /// Episode level at which counting failed.
    pub level: usize,
    /// `Executor::name` of the failing backend.
    pub backend: String,
    /// The underlying backend error.
    pub source: BackendError,
}

impl std::fmt::Display for MineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "mining failed at level {} in backend {:?}: {}",
            self.level, self.backend, self.source
        )
    }
}

impl std::error::Error for MineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One level's counting work, as a set of borrowed views: everything a
/// backend needs to execute, nothing it could use to recompile.
///
/// The request borrows from the owning [`MiningSession`]; parallel executors
/// ship work to the session's persistent [`Pool`] by cloning the `Arc`
/// handles ([`CountRequest::compiled_shared`], [`CountRequest::stream_shared`])
/// — a refcount bump, never a buffer copy.
#[derive(Debug, Clone, Copy)]
pub struct CountRequest<'a> {
    db: &'a EventDb,
    stream: &'a Arc<[u8]>,
    compiled: &'a Arc<CompiledCandidates>,
    vertical: &'a OnceLock<Arc<OccurrenceIndex>>,
    shard_bounds: &'a [usize],
    pool: &'a PoolSlot,
    workers: usize,
    priority: Priority,
    level: usize,
}

impl<'a> CountRequest<'a> {
    /// The event database (alphabet + stream + optional timestamps).
    #[inline]
    pub fn db(&self) -> &'a EventDb {
        self.db
    }

    /// The symbol stream to scan.
    #[inline]
    pub fn stream(&self) -> &'a [u8] {
        self.stream
    }

    /// A shareable handle to the stream for `'static` pool jobs (refcount
    /// bump, not a copy).
    #[inline]
    pub fn stream_shared(&self) -> Arc<[u8]> {
        Arc::clone(self.stream)
    }

    /// The compiled candidate set (flat CSR items + symbol-anchor index).
    #[inline]
    pub fn compiled(&self) -> &'a CompiledCandidates {
        self.compiled
    }

    /// A shareable handle to the compiled set for `'static` pool jobs
    /// (refcount bump, not a copy).
    #[inline]
    pub fn compiled_shared(&self) -> Arc<CompiledCandidates> {
        Arc::clone(self.compiled)
    }

    /// Number of candidate episodes in the request.
    #[inline]
    pub fn candidates(&self) -> usize {
        self.compiled.len()
    }

    /// The per-symbol [`OccurrenceIndex`] over this session's stream
    /// snapshot, built lazily on first use and **cached on the session** —
    /// every level of the loop (and, for a [`CoSession`], every member of the
    /// co-mined batch) shares the one build. Vertical-strategy executors and
    /// the per-level dispatch rule
    /// ([`CompiledCandidates::choose_strategy`]) read it from here.
    pub fn occurrence_index(&self) -> &'a OccurrenceIndex {
        self.vertical.get_or_init(|| {
            Arc::new(OccurrenceIndex::build(
                self.db.alphabet().len(),
                self.stream,
            ))
        })
    }

    /// A shareable handle to the occurrence index for `'static` pool jobs
    /// (refcount bump, not a rebuild).
    pub fn occurrence_index_shared(&self) -> Arc<OccurrenceIndex> {
        self.occurrence_index();
        Arc::clone(self.vertical.get().expect("index initialized above"))
    }

    /// The session's database shard bounds (interior cut positions for
    /// database-parallel executors; empty when the stream is too short to
    /// shard or the session runs single-worker).
    #[inline]
    pub fn shard_bounds(&self) -> &'a [usize] {
        self.shard_bounds
    }

    /// The session's persistent worker pool — the session-owned one (spawned
    /// lazily on first use, so sequential executors never pay for idle
    /// threads), or the externally shared pool the session was built with.
    #[inline]
    pub fn pool(&self) -> &'a Pool {
        self.pool.get()
    }

    /// The session's planned worker count, without spawning the pool.
    /// Executors sizing their decomposition (chunk counts, fallback
    /// thresholds) should read this and call [`pool`] only when they actually
    /// dispatch work.
    ///
    /// [`pool`]: CountRequest::pool
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The scheduling class this request's pool jobs should run at
    /// ([`MiningSession::set_job_priority`]). Parallel executors pass it to
    /// [`Pool::map_move_prio`] so high-priority requests overtake queued
    /// normal-priority scans on a shared pool.
    #[inline]
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Episode level (item count) of this request's candidates.
    #[inline]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Contiguous candidate-chunk ranges for candidate-sharded executors:
    /// at most `chunks` ranges covering `0..candidates()`.
    pub fn chunk_ranges(&self, chunks: usize) -> Vec<std::ops::Range<usize>> {
        let n = self.candidates();
        if n == 0 {
            return Vec::new();
        }
        let size = n.div_ceil(chunks.max(1));
        (0..n.div_ceil(size))
            .map(|i| i * size..((i + 1) * size).min(n))
            .collect()
    }
}

/// The execute side of the plan/execute counting API.
///
/// Implementations receive a borrowed [`CountRequest`] — compiled candidates,
/// stream, shard bounds, pool — and return one count per candidate. They must
/// not recompile or clone the candidate set; everything needed is in the
/// request.
///
/// A minimal custom executor is a dozen lines:
///
/// ```
/// use tdm_core::engine::CountScratch;
/// use tdm_core::session::{BackendError, CountRequest, Counts, Executor, MiningSession};
/// use tdm_core::{Alphabet, EventDb};
///
/// struct MyBackend(CountScratch);
///
/// impl Executor for MyBackend {
///     fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
///         // One active-set pass over the session-compiled layout; the
///         // request also offers req.pool() / req.shard_bounds() /
///         // req.chunk_ranges(n) for parallel decompositions.
///         Ok(req.compiled().count(req.stream(), &mut self.0))
///     }
///     fn name(&self) -> &str {
///         "my-backend"
///     }
/// }
///
/// let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"AB".repeat(40)).unwrap();
/// let mut session = MiningSession::builder(&db).build();
/// let result = session.mine(&mut MyBackend(CountScratch::new())).unwrap();
/// assert!(result.total_frequent() > 0);
/// ```
pub trait Executor {
    /// Counts every candidate of the request.
    ///
    /// # Errors
    /// [`BackendError`] when the backend cannot execute the request (e.g. a
    /// rejected kernel launch). Length mismatches are caught by the session.
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError>;

    /// A short human-readable name (used in reports and errors).
    fn name(&self) -> &str {
        "unnamed"
    }
}

/// Builder for a [`MiningSession`].
#[derive(Debug)]
pub struct MiningSessionBuilder<'db> {
    db: DbHandle<'db>,
    config: MinerConfig,
    workers: usize,
    pool: Option<Arc<Pool>>,
}

impl<'db> MiningSessionBuilder<'db> {
    /// Sets the mining configuration (support threshold, level bound, …).
    pub fn config(mut self, config: MinerConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker-pool size (0 = the machine's available parallelism, or
    /// the shared pool's size when [`with_pool`] was given).
    ///
    /// With a shared pool this only tunes the session's *decomposition* —
    /// shard bounds and default chunk counts — not how many threads exist.
    ///
    /// [`with_pool`]: MiningSessionBuilder::with_pool
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches an externally owned, shared worker pool instead of letting the
    /// session spawn a private one. Every counting call of this session
    /// dispatches to `pool`; any number of concurrent sessions can share the
    /// same `Arc<Pool>` — the multi-tenant serving configuration, where one
    /// machine-sized pool serves every client.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use tdm_core::miner::{MinerConfig, SequentialBackend};
    /// use tdm_core::session::MiningSession;
    /// use tdm_core::{Alphabet, EventDb};
    /// use tdm_mapreduce::pool::Pool;
    ///
    /// let pool = Arc::new(Pool::with_workers(2));
    /// let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(30)).unwrap());
    ///
    /// // An owned session (no borrowed lifetime) over a shared pool: what a
    /// // serving layer caches between requests.
    /// let mut session = MiningSession::builder_shared(Arc::clone(&db))
    ///     .config(MinerConfig { alpha: 0.1, ..Default::default() })
    ///     .with_pool(Arc::clone(&pool))
    ///     .build();
    /// let result = session.mine(&mut SequentialBackend::default()).unwrap();
    /// assert!(result.total_frequent() > 0);
    /// assert_eq!(session.pool().workers(), 2);
    /// ```
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Builds the session: snapshots the stream (a refcount bump on the
    /// database's own shared buffer, never a byte copy) and fixes the
    /// database shard bounds. Without [`with_pool`], the persistent pool is
    /// spawned lazily the first time an executor (or [`MiningSession::pool`])
    /// asks for it.
    ///
    /// [`with_pool`]: MiningSessionBuilder::with_pool
    pub fn build(self) -> MiningSession<'db> {
        let workers = if self.workers != 0 {
            self.workers
        } else if let Some(pool) = &self.pool {
            pool.workers()
        } else {
            default_workers()
        };
        let n = self.db.get().len();
        let shard_bounds = if workers > 1 && n >= MIN_SHARD_STREAM {
            even_bounds(n, workers)
        } else {
            Vec::new()
        };
        let stream = self.db.get().symbols_shared();
        let pool = match self.pool {
            Some(pool) => PoolSlot::Shared(pool),
            None => PoolSlot::Owned {
                workers,
                cell: OnceLock::new(),
            },
        };
        let epoch = self.db.get().epoch();
        MiningSession {
            db: self.db,
            stream,
            epoch,
            config: self.config,
            compiled: Arc::new(CompiledCandidates::default()),
            vertical: OnceLock::new(),
            shard_bounds,
            workers,
            pool,
            priority: Priority::Normal,
            cancel: None,
            compiles: 0,
        }
    }
}

/// The plan side of the counting API: owns everything that should be built
/// once and reused across the level loop — the compiled candidate layout, the
/// database shard bounds, and the persistent worker pool.
///
/// One session serves any number of executors; the compiled buffers are
/// recompiled **in place** exactly once per level (`Arc::make_mut` — workers
/// drop their handles at the end of each execute, so the steady state never
/// copies). See the [module docs](self) for the full picture.
pub struct MiningSession<'db> {
    db: DbHandle<'db>,
    stream: Arc<[u8]>,
    /// Append epoch of the database at the moment `stream` was snapshotted
    /// ([`EventDb::epoch`]); the cached occurrence index is only ever valid
    /// for this snapshot, and [`rebase`](MiningSession::rebase) refuses
    /// databases that are not append-descendants of it.
    epoch: u64,
    config: MinerConfig,
    compiled: Arc<CompiledCandidates>,
    /// Per-symbol occurrence index over `stream`, built lazily by the first
    /// vertical-strategy execute and reused for the session's whole lifetime
    /// (levels recompile, the stream never changes).
    vertical: OnceLock<Arc<OccurrenceIndex>>,
    shard_bounds: Vec<usize>,
    workers: usize,
    pool: PoolSlot,
    priority: Priority,
    /// Cooperative cancellation for the level loop; checked before each
    /// level's compile+scan. `None` (the default) never cancels.
    cancel: Option<CancelToken>,
    compiles: usize,
}

impl std::fmt::Debug for MiningSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiningSession")
            .field("db_len", &self.db.get().len())
            .field("workers", &self.workers)
            .field("compiles", &self.compiles)
            .finish()
    }
}

impl<'db> MiningSession<'db> {
    /// Starts building a session over a borrowed `db` (default config, auto
    /// workers). For a session with no borrowed lifetime — one a cache or
    /// another thread can own — see [`MiningSession::builder_shared`].
    pub fn builder(db: &'db EventDb) -> MiningSessionBuilder<'db> {
        MiningSessionBuilder {
            db: DbHandle::Borrowed(db),
            config: MinerConfig::default(),
            workers: 0,
            pool: None,
        }
    }

    /// Starts building a `MiningSession<'static>` that *shares ownership* of
    /// the database. Because nothing is borrowed, the built session can be
    /// stored, sent to another thread, or parked in a session cache between
    /// requests — the serving configuration (`tdm-serve`). Combine with
    /// [`MiningSessionBuilder::with_pool`] to run many such sessions over one
    /// machine-sized pool.
    pub fn builder_shared(db: Arc<EventDb>) -> MiningSessionBuilder<'static> {
        MiningSessionBuilder {
            db: DbHandle::Shared(db),
            config: MinerConfig::default(),
            workers: 0,
            pool: None,
        }
    }

    /// The database this session mines.
    pub fn db(&self) -> &EventDb {
        self.db.get()
    }

    /// The session's persistent worker pool (the owned one, spawned on first
    /// call, or the shared pool the session was built with).
    pub fn pool(&self) -> &Pool {
        self.pool.get()
    }

    /// The mining configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// The session's planned worker count (decomposition width: shard bounds
    /// and default chunk counts are sized to this).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the scheduling class for this session's pool jobs: subsequent
    /// counting calls stamp their [`CountRequest`] with `priority`, and the
    /// parallel executors submit their scans on that lane
    /// ([`Pool::map_move_prio`]). On a *shared* pool this is how one
    /// session's request overtakes queued scans of other sessions; on a
    /// session-owned pool it is a no-op in effect (no competing jobs).
    pub fn set_job_priority(&mut self, priority: Priority) {
        self.priority = priority;
    }

    /// The scheduling class new counting calls run at.
    pub fn job_priority(&self) -> Priority {
        self.priority
    }

    /// Installs (or clears) the cooperative cancellation token the level loop
    /// checks before each level's compile+scan. A serving layer sets a fresh
    /// token per request — including `None` for requests without deadlines,
    /// so a parked, reused session never inherits a stale token.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// How many candidate sets this session has compiled — exactly one per
    /// counted level, regardless of how many executors ran against each.
    pub fn compiles(&self) -> usize {
        self.compiles
    }

    /// The current compiled candidate set (the last compiled level).
    pub fn compiled(&self) -> &CompiledCandidates {
        &self.compiled
    }

    /// The append epoch of the stream snapshot this session counts against
    /// (see [`EventDb::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-points a cached session at a **grown** database — the streaming
    /// handoff: a serving layer appends to its db, then rebases the parked
    /// session instead of rebuilding it. The stream snapshot is replaced (a
    /// refcount bump on the new buffer), shard bounds are recut for the new
    /// length, and a cached [`OccurrenceIndex`] is **extended in place** over
    /// the appended suffix ([`OccurrenceIndex::extend`]) rather than rebuilt
    /// — so the epoch-N index is never consulted against epoch-N+1 data, and
    /// never thrown away either.
    ///
    /// The session takes shared ownership of `db` (as with
    /// [`builder_shared`](MiningSession::builder_shared)).
    ///
    /// # Errors
    /// [`CoreError::StaleSnapshot`] when `db` is not an append-descendant of
    /// the session's snapshot (older epoch, or a shorter stream at the same
    /// alphabet) — the session is left untouched.
    pub fn rebase(&mut self, db: Arc<EventDb>) -> Result<(), CoreError> {
        let new_stream = rebase_snapshot(
            &db,
            self.epoch,
            &self.stream,
            &mut self.vertical,
            &mut self.shard_bounds,
            self.workers,
        )?;
        self.stream = new_stream;
        self.epoch = db.epoch();
        self.db = DbHandle::Shared(db);
        Ok(())
    }

    /// Compiles `candidates` into the session's reusable buffers (the plan
    /// step) and returns the request for the given level.
    fn plan(&mut self, level: usize, candidates: &[Episode]) -> CountRequest<'_> {
        guard_vertical_cache(&mut self.vertical, self.stream.len());
        let alphabet_len = self.db.get().alphabet().len();
        Arc::make_mut(&mut self.compiled).recompile(alphabet_len, candidates);
        self.compiles += 1;
        CountRequest {
            db: self.db.get(),
            stream: &self.stream,
            compiled: &self.compiled,
            vertical: &self.vertical,
            shard_bounds: &self.shard_bounds,
            pool: &self.pool,
            workers: self.workers,
            priority: self.priority,
            level,
        }
    }

    /// The plan step alone: compiles `candidates` into the session's reusable
    /// buffers and returns the borrowed request, so callers can run *many*
    /// executes against one compile (benchmarks, backend comparisons,
    /// serving). [`count_candidates`] is the plan+execute convenience.
    ///
    /// [`count_candidates`]: MiningSession::count_candidates
    pub fn plan_candidates(&mut self, candidates: &[Episode]) -> CountRequest<'_> {
        let level = candidates.iter().map(|e| e.level()).max().unwrap_or(1);
        self.plan(level, candidates)
    }

    /// Compiles `candidates` once and executes `executor` against them.
    ///
    /// # Errors
    /// [`MineError`] when the executor fails or returns the wrong number of
    /// counts.
    pub fn count_candidates<E: Executor + ?Sized>(
        &mut self,
        candidates: &[Episode],
        executor: &mut E,
    ) -> Result<Counts, MineError> {
        let level = candidates.iter().map(|e| e.level()).max().unwrap_or(1);
        self.count_level(level, candidates, executor)
    }

    fn count_level<E: Executor + ?Sized>(
        &mut self,
        level: usize,
        candidates: &[Episode],
        executor: &mut E,
    ) -> Result<Counts, MineError> {
        let req = self.plan(level, candidates);
        let counts = executor.execute(&req).map_err(|source| MineError {
            level,
            backend: executor.name().to_string(),
            source,
        })?;
        if counts.len() != candidates.len() {
            return Err(MineError {
                level,
                backend: executor.name().to_string(),
                source: BackendError::CountLength {
                    expected: candidates.len(),
                    got: counts.len(),
                },
            });
        }
        Ok(counts)
    }

    /// Runs the full level-wise mining loop (paper Algorithm 1) with
    /// `executor` as the counting step.
    ///
    /// # Errors
    /// [`MineError`] from the first failing level.
    pub fn mine<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
    ) -> Result<MiningResult, MineError> {
        self.mine_with(executor, |_| {})
    }

    /// Like [`mine`], but invokes `on_level` with each level's result as
    /// soon as that level's elimination step finishes — the streaming hook
    /// serving use-cases want (emit level-1 frequent episodes while level 2
    /// counts).
    ///
    /// # Errors
    /// [`MineError`] from the first failing level.
    ///
    /// [`mine`]: MiningSession::mine
    pub fn mine_with<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
        mut on_level: impl FnMut(&LevelResult),
    ) -> Result<MiningResult, MineError> {
        let n = self.db.get().len();
        let mut result = MiningResult {
            levels: Vec::new(),
            db_len: n,
        };
        let mut candidates = level1(self.db.get().alphabet());
        let mut level = 1usize;
        while !candidates.is_empty() {
            if let Some(maxl) = self.config.max_level {
                if level > maxl {
                    break;
                }
            }
            // Cooperative cancellation: an abandoned request (deadline passed,
            // client gone) stops here, before compiling or scanning the next
            // level — completed levels are simply discarded with the error.
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(MineError {
                    level,
                    backend: executor.name().to_string(),
                    source: BackendError::Cancelled,
                });
            }
            let counts = self.count_level(level, &candidates, executor)?;
            let frequent: Vec<(Episode, u64)> = candidates
                .iter()
                .cloned()
                .zip(counts.iter().copied())
                .filter(|(_, c)| support(*c, n) > self.config.alpha)
                .collect();
            let level_result = LevelResult {
                level,
                candidates: candidates.len(),
                frequent,
            };
            on_level(&level_result);
            result.levels.push(level_result);
            // No join past the level bound: its candidates would never count.
            if self.config.max_level.is_some_and(|maxl| level >= maxl) {
                break;
            }
            let next_seed: Vec<Episode> = result
                .levels
                .last()
                .map(|l| l.frequent.iter().map(|(e, _)| e.clone()).collect())
                .unwrap_or_default();
            if next_seed.is_empty() {
                break;
            }
            candidates = apriori_join(&next_seed, self.config.distinct_items_only);
            level += 1;
        }
        Ok(result)
    }
}

/// The shared rebase step for [`MiningSession::rebase`] and
/// [`CoSession::rebase`]: validates that `db` descends from the session's
/// snapshot by appends, extends the cached occurrence index over the new
/// suffix, recuts the shard bounds, and returns the new snapshot.
fn rebase_snapshot(
    db: &EventDb,
    epoch: u64,
    stream: &Arc<[u8]>,
    vertical: &mut OnceLock<Arc<OccurrenceIndex>>,
    shard_bounds: &mut Vec<usize>,
    workers: usize,
) -> Result<Arc<[u8]>, CoreError> {
    if db.epoch() < epoch || db.len() < stream.len() {
        return Err(CoreError::StaleSnapshot {
            session_epoch: epoch,
            db_epoch: db.epoch(),
        });
    }
    let new_stream = db.symbols_shared();
    debug_assert_eq!(
        &new_stream[..stream.len()],
        &stream[..],
        "rebase target must be an append-descendant of the session snapshot"
    );
    if let Some(mut index) = vertical.take() {
        Arc::make_mut(&mut index).extend(&new_stream[stream.len()..]);
        let _ = vertical.set(index);
    }
    let n = new_stream.len();
    *shard_bounds = if workers > 1 && n >= MIN_SHARD_STREAM {
        even_bounds(n, workers)
    } else {
        Vec::new()
    };
    Ok(new_stream)
}

/// The plan-time epoch guard on the lazily cached occurrence index: an
/// append-only stream never changes in place, so a cached index describes the
/// current snapshot iff their lengths agree. A mismatch (a caller swapped the
/// snapshot without going through [`rebase_snapshot`]) drops the cache; the
/// next vertical execute transparently rebuilds it — an epoch-N index is
/// never consulted against epoch-N+1 data.
fn guard_vertical_cache(vertical: &mut OnceLock<Arc<OccurrenceIndex>>, stream_len: usize) {
    if vertical
        .get()
        .is_some_and(|ix| ix.stream_len() != stream_len)
    {
        vertical.take();
    }
}

/// Builder for a [`CoSession`]. Obtained from [`CoSession::builder`]; add one
/// [`config`](CoSessionBuilder::config) per member request, then
/// [`build`](CoSessionBuilder::build).
#[derive(Debug)]
pub struct CoSessionBuilder {
    db: Arc<EventDb>,
    configs: Vec<MinerConfig>,
    workers: usize,
    pool: Option<Arc<Pool>>,
}

impl CoSessionBuilder {
    /// Adds one member: a mining configuration to co-mine alongside the
    /// others. Member results come back in the order configs were added.
    pub fn config(mut self, config: MinerConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Adds several members at once (see [`config`](CoSessionBuilder::config)).
    pub fn configs(mut self, configs: impl IntoIterator<Item = MinerConfig>) -> Self {
        self.configs.extend(configs);
        self
    }

    /// Sets the decomposition width (0 = the machine's available parallelism,
    /// or the shared pool's size when [`with_pool`] was given) — same
    /// semantics as [`MiningSessionBuilder::workers`].
    ///
    /// [`with_pool`]: CoSessionBuilder::with_pool
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Attaches an externally owned shared worker pool — the serving
    /// configuration, where every batch's union scans multiplex over the one
    /// machine-sized pool (same semantics as
    /// [`MiningSessionBuilder::with_pool`]).
    pub fn with_pool(mut self, pool: Arc<Pool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// Builds the group session: snapshots the stream **once** for every
    /// member (a refcount bump on the database's shared buffer) and fixes the
    /// shard bounds, exactly like a solo session — K members cost one
    /// snapshot, not K.
    pub fn build(self) -> CoSession {
        let workers = if self.workers != 0 {
            self.workers
        } else if let Some(pool) = &self.pool {
            pool.workers()
        } else {
            default_workers()
        };
        let n = self.db.len();
        let shard_bounds = if workers > 1 && n >= MIN_SHARD_STREAM {
            even_bounds(n, workers)
        } else {
            Vec::new()
        };
        let stream = self.db.symbols_shared();
        let pool = match self.pool {
            Some(pool) => PoolSlot::Shared(pool),
            None => PoolSlot::Owned {
                workers,
                cell: OnceLock::new(),
            },
        };
        let epoch = self.db.epoch();
        CoSession {
            db: self.db,
            stream,
            epoch,
            configs: self.configs,
            union: CandidateUnion::default(),
            compiled: Arc::new(CompiledCandidates::default()),
            vertical: OnceLock::new(),
            shard_bounds,
            workers,
            pool,
            priority: Priority::Normal,
            cancel: None,
            compiles: 0,
        }
    }
}

/// Plan equality for [`CoSession::member_permutation`]: exact `alpha` bit
/// pattern (a cached plan must only answer requests with the *identical*
/// threshold, not an approximately equal one), plus level bound and
/// generation rule.
fn same_plan(a: &MinerConfig, b: &MinerConfig) -> bool {
    a.alpha.to_bits() == b.alpha.to_bits()
        && a.max_level == b.max_level
        && a.distinct_items_only == b.distinct_items_only
}

/// Per-member progress inside [`CoSession::co_mine`].
struct CoMember {
    /// This level's candidates. Members whose frequent seeds agree share one
    /// joined set; a level whose active members all share one set compiles
    /// it directly, with no union to build.
    candidates: Rc<[Episode]>,
    result: MiningResult,
    active: bool,
}

/// One generation step of a [`CoSession::co_mine`] level, kept so members
/// whose seeds are identical reuse its join: `source` is the candidate set
/// the seed was drawn from, `kept` the surviving indices into it.
struct JoinMemo {
    source: Rc<[Episode]>,
    distinct_items_only: bool,
    kept: Vec<u32>,
    joined: Rc<[Episode]>,
}

/// A **co-mining** session: the group-planning side of cross-request
/// co-mining (Mayura-style). One database, one stream snapshot, one worker
/// pool — and *K* mining configurations whose level loops advance in
/// lockstep. At each level the members' candidate sets are merged into one
/// deduplicated [`CandidateUnion`], compiled once into the session's reusable
/// buffers, and counted with a **single** executor scan; the union counts are
/// then demultiplexed back into each member's own candidate ordering for its
/// elimination step. K concurrent requests over one database cost ~1 scan per
/// level instead of K.
///
/// Results are **bit-identical** to mining each configuration serially with
/// its own [`MiningSession`] (or [`crate::miner::Miner`]): the engine's count
/// of an episode never depends on what else is compiled alongside it, so
/// demuxed union counts equal solo counts — the workspace differential suite
/// (`tests/comining.rs`) proves this under adversarial overlap.
///
/// ```
/// use std::sync::Arc;
/// use tdm_core::miner::{Miner, MinerConfig, SequentialBackend};
/// use tdm_core::session::CoSession;
/// use tdm_core::{Alphabet, EventDb};
///
/// let db = Arc::new(EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCD".repeat(60)).unwrap());
/// let fast = MinerConfig { alpha: 0.01, max_level: Some(2), ..Default::default() };
/// let deep = MinerConfig { alpha: 0.001, max_level: Some(3), ..Default::default() };
///
/// // Two configurations, one shared scan per level.
/// let mut group = CoSession::builder(Arc::clone(&db)).config(fast).config(deep).build();
/// let results = group.co_mine(&mut SequentialBackend::default()).unwrap();
///
/// // Bit-identical to mining each request on its own.
/// for (cfg, got) in [fast, deep].into_iter().zip(&results) {
///     let solo = Miner::new(cfg).mine(&db, &mut SequentialBackend::default()).unwrap();
///     assert_eq!(*got, solo);
/// }
/// // Three levels deep at most, and exactly one union compile+scan per level.
/// assert_eq!(group.compiles(), results.iter().map(|r| r.levels.len()).max().unwrap());
/// ```
pub struct CoSession {
    db: Arc<EventDb>,
    stream: Arc<[u8]>,
    /// Append epoch of `db` when `stream` was snapshotted — the epoch the
    /// cached occurrence index is valid for (see [`MiningSession::epoch`]).
    epoch: u64,
    configs: Vec<MinerConfig>,
    union: CandidateUnion,
    compiled: Arc<CompiledCandidates>,
    /// Per-symbol occurrence index over the batch's one stream snapshot —
    /// built at most once for the whole co-mined batch, however many members
    /// and levels ride it.
    vertical: OnceLock<Arc<OccurrenceIndex>>,
    shard_bounds: Vec<usize>,
    workers: usize,
    pool: PoolSlot,
    priority: Priority,
    /// Cooperative cancellation for the lockstep loop; checked before each
    /// union compile+scan. `None` (the default) never cancels.
    cancel: Option<CancelToken>,
    compiles: usize,
}

impl std::fmt::Debug for CoSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoSession")
            .field("db_len", &self.db.len())
            .field("members", &self.configs.len())
            .field("workers", &self.workers)
            .field("compiles", &self.compiles)
            .finish()
    }
}

impl CoSession {
    /// Starts building a co-mining session over a shared database handle.
    /// Like [`MiningSession::builder_shared`], the built session owns no
    /// borrow, so a serving layer can assemble one per batch and run it
    /// anywhere.
    pub fn builder(db: Arc<EventDb>) -> CoSessionBuilder {
        CoSessionBuilder {
            db,
            configs: Vec::new(),
            workers: 0,
            pool: None,
        }
    }

    /// The database this group mines.
    pub fn db(&self) -> &EventDb {
        &self.db
    }

    /// The member configurations, in result order.
    pub fn configs(&self) -> &[MinerConfig] {
        &self.configs
    }

    /// Number of member requests in the group.
    pub fn members(&self) -> usize {
        self.configs.len()
    }

    /// The session's planned worker count (decomposition width).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The session's worker pool (owned-lazy or shared; see
    /// [`MiningSession::pool`]).
    pub fn pool(&self) -> &Pool {
        self.pool.get()
    }

    /// Sets the scheduling class the union scans run at (see
    /// [`MiningSession::set_job_priority`]). A batch typically runs at the
    /// *highest* class among its members, so fusing never deprioritizes
    /// anyone's work.
    pub fn set_job_priority(&mut self, priority: Priority) {
        self.priority = priority;
    }

    /// The scheduling class union scans run at.
    pub fn job_priority(&self) -> Priority {
        self.priority
    }

    /// Installs (or clears) the cooperative cancellation token the lockstep
    /// loop checks before each union compile+scan (see
    /// [`MiningSession::set_cancel_token`]). Cancelling fails the whole
    /// batch — every member shares the union scan, so every member shares the
    /// cancellation.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// How many union candidate sets this session has compiled — exactly one
    /// per counted level (the number of shared scans issued), regardless of
    /// how many members rode each. Accumulates across [`co_mine`] calls when
    /// the session is reused (e.g. parked in a serving cache).
    ///
    /// [`co_mine`]: CoSession::co_mine
    pub fn compiles(&self) -> usize {
        self.compiles
    }

    /// The append epoch of the stream snapshot this group counts against
    /// (see [`EventDb::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Re-points a parked group session at a grown database — the co-mining
    /// form of [`MiningSession::rebase`]: the cached batch plan (and a cached
    /// occurrence index, extended in place) survives the append, so a serving
    /// cache keyed by config fingerprint can reuse the session across stream
    /// epochs.
    ///
    /// # Errors
    /// [`CoreError::StaleSnapshot`] when `db` is not an append-descendant of
    /// the session's snapshot — the session is left untouched.
    pub fn rebase(&mut self, db: Arc<EventDb>) -> Result<(), CoreError> {
        let new_stream = rebase_snapshot(
            &db,
            self.epoch,
            &self.stream,
            &mut self.vertical,
            &mut self.shard_bounds,
            self.workers,
        )?;
        self.stream = new_stream;
        self.epoch = db.epoch();
        self.db = db;
        Ok(())
    }

    /// Maps each requested config to a **distinct** member of this session (a
    /// multiset matching): `perm[i]` is the member index whose result answers
    /// request `i`. Returns `None` unless the requested configs are exactly
    /// this session's members (same multiset, any order).
    ///
    /// This is what lets a serving layer park a `CoSession` in a cache keyed
    /// by its *sorted* config-set fingerprint and reuse it for a batch whose
    /// members arrived in a different order: [`co_mine`] rebuilds per-member
    /// state from `configs` on every call, so a reused session re-mines
    /// correctly — callers only need this permutation to route each member's
    /// result back to the right requester.
    ///
    /// [`co_mine`]: CoSession::co_mine
    pub fn member_permutation(&self, configs: &[MinerConfig]) -> Option<Vec<usize>> {
        if configs.len() != self.configs.len() {
            return None;
        }
        let mut used = vec![false; self.configs.len()];
        let mut perm = Vec::with_capacity(configs.len());
        for want in configs {
            let j =
                (0..self.configs.len()).find(|&j| !used[j] && same_plan(&self.configs[j], want))?;
            used[j] = true;
            perm.push(j);
        }
        Some(perm)
    }

    /// Runs every member's level-wise mining loop in lockstep, issuing **one**
    /// union scan per level. Returns one [`MiningResult`] per member, in the
    /// order their configs were added — each bit-identical to a solo run of
    /// that config.
    ///
    /// # Errors
    /// [`MineError`] from the first failing union scan (the whole batch shares
    /// the scan, so the whole batch shares the failure).
    pub fn co_mine<E: Executor + ?Sized>(
        &mut self,
        executor: &mut E,
    ) -> Result<Vec<MiningResult>, MineError> {
        guard_vertical_cache(&mut self.vertical, self.stream.len());
        let n = self.db.len();
        let alphabet_len = self.db.alphabet().len();
        let first: Rc<[Episode]> = level1(self.db.alphabet()).into();
        let mut members: Vec<CoMember> = self
            .configs
            .iter()
            .map(|_| CoMember {
                candidates: Rc::clone(&first),
                result: MiningResult {
                    levels: Vec::new(),
                    db_len: n,
                },
                active: true,
            })
            .collect();
        let mut joins: Vec<JoinMemo> = Vec::new();
        let mut level = 1usize;
        loop {
            // Retire members that are out of candidates or past their level
            // bound — the same exits the solo loop takes before counting.
            for (m, cfg) in members.iter_mut().zip(&self.configs) {
                if m.active
                    && (m.candidates.is_empty() || cfg.max_level.is_some_and(|maxl| level > maxl))
                {
                    m.active = false;
                }
            }
            let sets: Vec<&[Episode]> = members
                .iter()
                .filter(|m| m.active)
                .map(|m| &m.candidates[..])
                .collect();
            if sets.is_empty() {
                break;
            }
            // Cooperative cancellation, before the union compile+scan (the
            // same seam as the solo loop's check).
            if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
                return Err(MineError {
                    level,
                    backend: executor.name().to_string(),
                    source: BackendError::Cancelled,
                });
            }

            // Plan: one in-place compile, however many members — of their one
            // shared candidate set when they all ride it (no union needed),
            // else of the deduplicated union of their sets.
            let shared = sets.iter().all(|s| std::ptr::eq(*s, sets[0]));
            let planned = if shared {
                sets[0]
            } else {
                self.union.rebuild(&sets);
                self.union.episodes()
            };
            let expected = planned.len();
            Arc::make_mut(&mut self.compiled).recompile(alphabet_len, planned);
            self.compiles += 1;
            let req = CountRequest {
                db: &self.db,
                stream: &self.stream,
                compiled: &self.compiled,
                vertical: &self.vertical,
                shard_bounds: &self.shard_bounds,
                pool: &self.pool,
                workers: self.workers,
                priority: self.priority,
                level,
            };

            // Execute: the single shared scan of this level.
            let union_counts = executor.execute(&req).map_err(|source| MineError {
                level,
                backend: executor.name().to_string(),
                source,
            })?;
            if union_counts.len() != expected {
                return Err(MineError {
                    level,
                    backend: executor.name().to_string(),
                    source: BackendError::CountLength {
                        expected,
                        got: union_counts.len(),
                    },
                });
            }

            // Demux + per-member elimination and generation. Stepped-α
            // members often keep the same survivors of a shared set; they
            // share one join (and one candidate set next level).
            joins.clear();
            let mut slot = 0usize;
            for (m, cfg) in members.iter_mut().zip(&self.configs) {
                if !m.active {
                    continue;
                }
                let counts = if shared {
                    Cow::Borrowed(&union_counts[..])
                } else {
                    Cow::Owned(self.union.demux(slot, &union_counts))
                };
                slot += 1;
                let kept: Vec<u32> = (0..counts.len() as u32)
                    .filter(|&i| support(counts[i as usize], n) > cfg.alpha)
                    .collect();
                m.result.levels.push(LevelResult {
                    level,
                    candidates: m.candidates.len(),
                    frequent: kept
                        .iter()
                        .map(|&i| (m.candidates[i as usize].clone(), counts[i as usize]))
                        .collect(),
                });
                // Out of survivors, or at the level bound: no join.
                if kept.is_empty() || cfg.max_level.is_some_and(|maxl| level >= maxl) {
                    m.active = false;
                    continue;
                }
                let memo = joins.iter().find(|j| {
                    Rc::ptr_eq(&j.source, &m.candidates)
                        && j.distinct_items_only == cfg.distinct_items_only
                        && j.kept == kept
                });
                m.candidates = match memo {
                    Some(j) => Rc::clone(&j.joined),
                    None => {
                        let seed: Vec<Episode> = kept
                            .iter()
                            .map(|&i| m.candidates[i as usize].clone())
                            .collect();
                        let joined: Rc<[Episode]> =
                            apriori_join(&seed, cfg.distinct_items_only).into();
                        joins.push(JoinMemo {
                            source: Rc::clone(&m.candidates),
                            distinct_items_only: cfg.distinct_items_only,
                            kept,
                            joined: Rc::clone(&joined),
                        });
                        joined
                    }
                };
            }
            level += 1;
        }
        Ok(members.into_iter().map(|m| m.result).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Alphabet;

    /// Counts executes so tests can prove which levels ran.
    struct SpyBackend {
        executes: usize,
    }

    impl Executor for SpyBackend {
        fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
            self.executes += 1;
            Ok(req
                .compiled()
                .count(req.stream(), &mut crate::engine::CountScratch::new()))
        }
        fn name(&self) -> &str {
            "spy"
        }
    }

    fn db() -> EventDb {
        EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCABC".repeat(30)).unwrap()
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_scan() {
        let db = db();
        let mut session = MiningSession::builder(&db).build();
        let token = CancelToken::new();
        token.cancel();
        session.set_cancel_token(Some(token));
        let mut spy = SpyBackend { executes: 0 };
        let err = session.mine(&mut spy).unwrap_err();
        assert_eq!(err.level, 1);
        assert_eq!(err.source, BackendError::Cancelled);
        assert_eq!(spy.executes, 0, "no level may scan after cancellation");
        assert_eq!(session.compiles(), 0);
    }

    #[test]
    fn cancelling_between_levels_stops_the_loop_mid_way() {
        let db = db();
        let mut session = MiningSession::builder(&db)
            .config(MinerConfig {
                alpha: 0.0001,
                ..Default::default()
            })
            .build();
        let token = CancelToken::new();
        session.set_cancel_token(Some(token.clone()));
        let mut spy = SpyBackend { executes: 0 };
        // Fire the shared flag from the per-level hook: level 1 completes,
        // level 2 must never execute.
        let err = session
            .mine_with(&mut spy, |lr| {
                if lr.level == 1 {
                    token.cancel();
                }
            })
            .unwrap_err();
        assert_eq!(err.level, 2);
        assert_eq!(err.source, BackendError::Cancelled);
        assert_eq!(spy.executes, 1, "only level 1 may have scanned");
    }

    #[test]
    fn expired_deadline_cancels_and_clearing_the_token_recovers() {
        let db = db();
        let mut session = MiningSession::builder(&db).build();
        session.set_cancel_token(Some(CancelToken::new().deadline_within(Duration::ZERO)));
        let err = session.mine(&mut SpyBackend { executes: 0 }).unwrap_err();
        assert_eq!(err.source, BackendError::Cancelled);
        // The session is not poisoned: clearing the token mines normally.
        session.set_cancel_token(None);
        let result = session.mine(&mut SpyBackend { executes: 0 }).unwrap();
        assert!(result.total_frequent() > 0);
    }

    #[test]
    fn deadline_within_tightens_but_never_loosens() {
        let tight = CancelToken::new().deadline_within(Duration::ZERO);
        let still_tight = tight.deadline_within(Duration::from_secs(3600));
        assert!(
            still_tight.is_cancelled(),
            "a later deadline must not loosen"
        );
        let loose = CancelToken::new().deadline_within(Duration::from_secs(3600));
        assert!(!loose.is_cancelled());
        assert!(loose.deadline().is_some());
    }

    #[test]
    fn co_session_cancellation_fails_the_whole_batch() {
        let shared = Arc::new(db());
        let fast = MinerConfig {
            alpha: 0.01,
            max_level: Some(2),
            ..Default::default()
        };
        let deep = MinerConfig {
            alpha: 0.001,
            max_level: Some(3),
            ..Default::default()
        };
        let mut group = CoSession::builder(Arc::clone(&shared))
            .config(fast)
            .config(deep)
            .build();
        let token = CancelToken::new();
        token.cancel();
        group.set_cancel_token(Some(token));
        let mut spy = SpyBackend { executes: 0 };
        let err = group.co_mine(&mut spy).unwrap_err();
        assert_eq!(err.source, BackendError::Cancelled);
        assert_eq!(spy.executes, 0);
        // Clearing recovers the parked batch plan.
        group.set_cancel_token(None);
        let results = group.co_mine(&mut spy).unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn level_one_sessions_leave_the_occurrence_index_unbuilt() {
        // The index costs 4 B per stream position; a level-1 request is
        // answered from one histogram pass and must never pay for it.
        let shared = Arc::new(
            EventDb::from_str_symbols(&Alphabet::latin26(), &"ABCAAB".repeat(2_000)).unwrap(),
        );
        let config = MinerConfig {
            alpha: 0.01,
            max_level: Some(1),
            ..Default::default()
        };
        let mut solo = MiningSession::builder_shared(Arc::clone(&shared))
            .config(config)
            .workers(2)
            .build();
        let result = solo.mine(&mut crate::miner::AutoBackend).unwrap();
        assert_eq!(result.levels.len(), 1);
        assert!(
            solo.vertical.get().is_none(),
            "solo session built the index"
        );

        let mut group = CoSession::builder(Arc::clone(&shared))
            .config(config)
            .config(MinerConfig {
                alpha: 0.3,
                ..config
            })
            .workers(2)
            .build();
        let results = group.co_mine(&mut crate::miner::AutoBackend).unwrap();
        assert_eq!(results.len(), 2);
        assert!(group.vertical.get().is_none(), "co-session built the index");

        // The probe is live: a level-2 run does build the index.
        let mut deeper = MiningSession::builder_shared(shared)
            .config(MinerConfig {
                max_level: Some(2),
                ..config
            })
            .build();
        deeper.mine(&mut crate::miner::AutoBackend).unwrap();
        assert!(deeper.vertical.get().is_some());
    }
}
