//! The level-wise mining loop — the paper's Algorithm 1.
//!
//! ```text
//! k <- 1; candidates <- all level-1 episodes
//! while candidates not empty:
//!     count every candidate                (counting step   — pluggable executor)
//!     keep those with count/n > alpha      (elimination step)
//!     candidates <- join(frequent_k)       (generation step)
//! ```
//!
//! The counting step is behind the [`Executor`] trait of the plan/execute API
//! ([`crate::session`]): a [`MiningSession`] compiles each level's candidate
//! set exactly once and hands executors a borrowed [`CountRequest`] — so the
//! same loop runs on the sequential CPU counter, the parallel CPU backends,
//! or any of the four simulated GPU kernels without recompiling or cloning
//! anything per backend. [`Miner`] is the thin convenience driver over a
//! fresh session.
//!
//! [`CountRequest`]: crate::session::CountRequest
//! [`MiningSession`]: crate::session::MiningSession

use crate::engine::{with_thread_scratch, BitmaskNfa, CompiledCandidates, CountStrategy};
use crate::segment::segment_ranges;
use crate::sequence::EventDb;
use crate::session::{BackendError, CountRequest, Counts, Executor, MineError, MiningSession};
use crate::stats::{LevelResult, MiningResult};
use std::sync::Arc;

/// The built-in sequential executor: one active-set pass over the request's
/// compiled layout, holding only its [`CountScratch`] across levels (the
/// compiled candidates live in the session).
///
/// [`CountScratch`]: crate::engine::CountScratch
#[derive(Debug, Default, Clone)]
pub struct SequentialBackend {
    scratch: crate::engine::CountScratch,
}

impl Executor for SequentialBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        Ok(req.compiled().count(req.stream(), &mut self.scratch))
    }

    fn name(&self) -> &str {
        "sequential-active-set"
    }
}

/// Levels whose estimated cost ([`CompiledCandidates::strategy_costs`] op
/// units) is below this are counted on the calling thread even when the
/// session planned more workers: waking the pool costs more than the
/// parallel split saves on work this small (a few hundred microseconds).
const MIN_PARALLEL_OPS: f64 = 2_000_000.0;

/// The engine's **strategy-dispatching** executor: per level, asks
/// [`CompiledCandidates::choose_strategy`] for the estimated-cheapest
/// counting strategy over the session's cached [`OccurrenceIndex`], then runs
/// it — parallelized over the session pool when the session planned more than
/// one worker and the level's estimated cost is large enough to pay for
/// waking the pool:
///
/// * **level 1** (every candidate a single symbol) is one histogram pass over
///   the stream; it never builds the occurrence index, so sessions that stop
///   at level 1 never hold one;
/// * **vertical** counts chunk the *candidate set* (occurrence-list probes
///   never walk the stream, so candidate chunking is exact with zero
///   boundary work);
/// * **bitmask** scans shard the *database* along the session's planned
///   bounds and merge through the engine's Fig. 5 reducer
///   ([`CompiledCandidates::merge_shard_counts`]), exactly like the
///   active-set sharded backend.
///
/// Counts are bit-identical to [`SequentialBackend`] for every episode set,
/// worker count, and stream — the workspace differential suite pins this.
///
/// ```
/// use tdm_core::miner::{AutoBackend, MinerConfig, SequentialBackend};
/// use tdm_core::session::MiningSession;
/// use tdm_core::{Alphabet, EventDb};
///
/// let db = EventDb::from_str_symbols(&Alphabet::latin26(), &"ABC".repeat(50)).unwrap();
/// let config = MinerConfig { alpha: 0.1, ..Default::default() };
/// let auto = MiningSession::builder(&db).config(config).build()
///     .mine(&mut AutoBackend).unwrap();
/// let seq = MiningSession::builder(&db).config(config).build()
///     .mine(&mut SequentialBackend::default()).unwrap();
/// assert_eq!(auto, seq);
/// ```
///
/// [`CompiledCandidates::choose_strategy`]: crate::engine::CompiledCandidates::choose_strategy
/// [`CompiledCandidates::merge_shard_counts`]: crate::engine::CompiledCandidates::merge_shard_counts
/// [`OccurrenceIndex`]: crate::engine::OccurrenceIndex
#[derive(Debug, Default, Clone, Copy)]
pub struct AutoBackend;

impl Executor for AutoBackend {
    fn execute(&mut self, req: &CountRequest<'_>) -> Result<Counts, BackendError> {
        let compiled = req.compiled();
        let stream = req.stream();
        if compiled.max_level() <= 1 {
            // Level 1 never needs the occurrence index: a single-symbol
            // episode's count is its symbol's bucket in one histogram pass.
            return Ok(count_singletons(compiled, stream));
        }
        let index = req.occurrence_index();
        let strategy = compiled.choose_strategy(index);
        let parallel =
            req.workers() > 1 && compiled.strategy_costs(index).cpu_best() >= MIN_PARALLEL_OPS;
        match strategy {
            CountStrategy::ActiveSet => Ok(with_thread_scratch(|s| compiled.count(stream, s))),
            CountStrategy::Vertical => {
                if !parallel {
                    return Ok(compiled.count_vertical(stream, index));
                }
                let chunks = req.chunk_ranges(req.workers());
                let shared_compiled = req.compiled_shared();
                let shared_stream = req.stream_shared();
                let shared_index = req.occurrence_index_shared();
                let parts = req.pool().map_move_prio(req.priority(), chunks, move |r| {
                    let mut counts = vec![0u64; r.len()];
                    shared_compiled.count_vertical_range(
                        &shared_stream,
                        &shared_index,
                        r,
                        &mut counts,
                    );
                    counts
                });
                Ok(parts.into_iter().flatten().collect())
            }
            CountStrategy::Bitmask => {
                let Some(nfa) = BitmaskNfa::build(compiled) else {
                    // max_level > 64 never chooses Bitmask, but stay total.
                    return Ok(compiled.count_vertical(stream, index));
                };
                let bounds = req.shard_bounds();
                if !parallel || bounds.is_empty() {
                    return Ok(nfa.count(stream));
                }
                let nfa = Arc::new(nfa);
                let shared_stream = req.stream_shared();
                let ranges = segment_ranges(stream.len(), bounds);
                let shards = req.pool().map_move_prio(req.priority(), ranges, move |r| {
                    nfa.shard_scan(&shared_stream, r)
                });
                Ok(compiled.merge_shard_counts(stream, bounds, &shards))
            }
        }
    }

    fn name(&self) -> &str {
        "engine-auto"
    }
}

/// Counts a set of single-symbol episodes with one histogram pass over the
/// stream — what every strategy computes at level 1, without building the
/// session's occurrence index (4 B per stream position) for it.
fn count_singletons(compiled: &CompiledCandidates, stream: &[u8]) -> Counts {
    let mut histogram = [0u64; 256];
    for &c in stream {
        histogram[c as usize] += 1;
    }
    (0..compiled.len())
        .map(|i| histogram[compiled.items_of(i)[0] as usize])
        .collect()
}

/// Mining-loop configuration.
#[derive(Debug, Clone, Copy)]
pub struct MinerConfig {
    /// Support threshold α: an episode is frequent when `count / n > alpha`.
    pub alpha: f64,
    /// Stop after this level even if candidates remain (the paper's "limit the
    /// length of A_j from n to q" runtime bound; `None` = unbounded).
    pub max_level: Option<usize>,
    /// Restrict candidates to distinct-item episodes (the paper's permutation
    /// universe). Default true.
    pub distinct_items_only: bool,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            alpha: 0.0,
            max_level: None,
            distinct_items_only: true,
        }
    }
}

/// The level-wise miner: a thin driver that plans a fresh [`MiningSession`]
/// per run. Hold a session directly to amortize the plan state across runs or
/// to stream per-level results.
#[derive(Debug, Clone)]
pub struct Miner {
    config: MinerConfig,
}

impl Miner {
    /// Creates a miner with the given configuration.
    pub fn new(config: MinerConfig) -> Self {
        Miner { config }
    }

    /// Runs the full level-wise loop with the supplied executor.
    ///
    /// # Errors
    /// [`MineError`] when the executor fails or returns malformed counts.
    pub fn mine<E: Executor + ?Sized>(
        &self,
        db: &EventDb,
        executor: &mut E,
    ) -> Result<MiningResult, MineError> {
        MiningSession::builder(db)
            .config(self.config)
            .build()
            .mine(executor)
    }

    /// Like [`mine`], but invokes `on_level` as each level completes (the
    /// streaming hook for serving use-cases).
    ///
    /// # Errors
    /// [`MineError`] when the executor fails or returns malformed counts.
    ///
    /// [`mine`]: Miner::mine
    pub fn mine_streaming<E: Executor + ?Sized>(
        &self,
        db: &EventDb,
        executor: &mut E,
        on_level: impl FnMut(&LevelResult),
    ) -> Result<MiningResult, MineError> {
        MiningSession::builder(db)
            .config(self.config)
            .build()
            .mine_with(executor, on_level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::episode::Episode;

    fn db_of(s: &str) -> EventDb {
        EventDb::from_str_symbols(&Alphabet::latin26(), s).unwrap()
    }

    #[test]
    fn mines_planted_chain() {
        // "ABC" repeated: every level up to 3 should surface the chain.
        let db = db_of(&"ABC".repeat(50));
        let miner = Miner::new(MinerConfig {
            alpha: 0.1,
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        let ab = Alphabet::latin26();
        assert_eq!(res.levels[0].len(), 3); // A, B, C each support 1/3
        assert!(res
            .count_of(&Episode::from_str(&ab, "AB").unwrap())
            .is_some());
        assert!(res
            .count_of(&Episode::from_str(&ab, "ABC").unwrap())
            .is_some());
        // Nothing of level 4 exists in a 3-letter alphabet of distinct items that
        // passes 10% support.
        assert!(res.levels.len() <= 4);
    }

    #[test]
    fn high_threshold_stops_immediately() {
        let db = db_of("ABCDEFG");
        let miner = Miner::new(MinerConfig {
            alpha: 0.9,
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        assert_eq!(res.levels.len(), 1);
        assert!(res.levels[0].is_empty());
        assert_eq!(res.total_frequent(), 0);
    }

    #[test]
    fn max_level_bounds_the_loop() {
        let db = db_of(&"AB".repeat(100));
        let miner = Miner::new(MinerConfig {
            alpha: 0.01,
            max_level: Some(1),
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        assert_eq!(res.levels.len(), 1);
        assert_eq!(res.levels[0].level, 1);
    }

    #[test]
    fn level_candidate_counts_match_paper_shape() {
        // With alpha = 0 every singleton present keeps the space permutation-like.
        let db = db_of(&"ABCD".repeat(30));
        let miner = Miner::new(MinerConfig {
            alpha: 0.0,
            max_level: Some(2),
            ..Default::default()
        });
        let res = miner.mine(&db, &mut SequentialBackend::default()).unwrap();
        assert_eq!(res.levels[0].candidates, 26);
        // Only A..D are frequent, so level 2 candidates = 4*3 ordered pairs.
        assert_eq!(res.levels[1].candidates, 12);
    }

    #[test]
    fn empty_database_yields_single_empty_level() {
        let ab = Alphabet::latin26();
        let db = EventDb::new(ab, vec![]).unwrap();
        let res = Miner::new(MinerConfig::default())
            .mine(&db, &mut SequentialBackend::default())
            .unwrap();
        assert_eq!(res.total_frequent(), 0);
    }

    #[test]
    fn streaming_levels_arrive_in_order() {
        let db = db_of(&"ABC".repeat(60));
        let miner = Miner::new(MinerConfig {
            alpha: 0.05,
            max_level: Some(3),
            ..Default::default()
        });
        let mut seen: Vec<usize> = Vec::new();
        let res = miner
            .mine_streaming(&db, &mut SequentialBackend::default(), |l| {
                seen.push(l.level);
            })
            .unwrap();
        assert_eq!(seen, (1..=res.levels.len()).collect::<Vec<_>>());
    }

    #[test]
    fn auto_backend_parallel_paths_match_sequential() {
        // Inputs big enough to clear MIN_PARALLEL_OPS, so each strategy
        // splits over the pool: uniform letters make level 2 bitmask-bound;
        // a rare symbol in every episode makes the vertical probe cheapest.
        use crate::engine::{CountScratch, OccurrenceIndex};
        let mut state = 0x2009u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % m) as u8
        };
        let uniform: Vec<u8> = (0..150_000).map(|_| next(26)).collect();
        let skewed: Vec<u8> = (0..200_000)
            .map(|i| if i % 25 == 0 { 25 } else { next(4) })
            .collect();
        // Distinct-item episodes over `set` at `level`, optionally only those
        // containing `must`.
        let letters = |set: &[u8], level: usize, must: Option<u8>| -> Vec<Episode> {
            let mut partial: Vec<Vec<u8>> = vec![Vec::new()];
            for _ in 0..level {
                let mut grown = Vec::new();
                for p in &partial {
                    for &c in set.iter().filter(|c| !p.contains(c)) {
                        let mut q = p.clone();
                        q.push(c);
                        grown.push(q);
                    }
                }
                partial = grown;
            }
            partial
                .into_iter()
                .filter(|p| must.is_none_or(|m| p.contains(&m)))
                .map(|p| Episode::new(p).unwrap())
                .collect()
        };
        let all: Vec<u8> = (0..26).collect();
        let rare_set = [0, 1, 2, 3, 25];
        let with_rare: Vec<Episode> = (2..=4)
            .flat_map(|level| letters(&rare_set, level, Some(25)))
            .collect();
        let cases = [
            (uniform, letters(&all, 2, None), CountStrategy::Bitmask),
            (skewed, with_rare, CountStrategy::Vertical),
        ];
        for (stream, episodes, strategy) in cases {
            let db = EventDb::new(Alphabet::latin26(), stream).unwrap();
            let compiled = CompiledCandidates::compile(26, &episodes);
            let index = OccurrenceIndex::build(26, db.symbols());
            assert_eq!(compiled.choose_strategy(&index), strategy);
            assert!(compiled.strategy_costs(&index).cpu_best() >= MIN_PARALLEL_OPS);
            let reference = compiled.count(db.symbols(), &mut CountScratch::new());
            for workers in 1..=4 {
                let counts = MiningSession::builder(&db)
                    .workers(workers)
                    .build()
                    .count_candidates(&episodes, &mut AutoBackend)
                    .unwrap();
                assert_eq!(counts, reference, "{strategy:?}, workers={workers}");
            }
        }
    }

    #[test]
    fn auto_backend_matches_sequential_across_worker_counts() {
        let db = db_of(&"ABCABZQXABC".repeat(500)); // > MIN_SHARD_STREAM
        let cfg = MinerConfig {
            alpha: 0.001,
            max_level: Some(3),
            distinct_items_only: false,
        };
        let reference = Miner::new(cfg)
            .mine(&db, &mut SequentialBackend::default())
            .unwrap();
        for workers in [1usize, 2, 4, 8] {
            let mut session = MiningSession::builder(&db)
                .config(cfg)
                .workers(workers)
                .build();
            let got = session.mine(&mut AutoBackend).unwrap();
            assert_eq!(got, reference, "workers={workers}");
        }
    }
}
