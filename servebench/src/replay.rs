//! The traced replay: the workload's own requests, sent through each
//! layer's public functions from this package, one span per call.
//!
//! The replay follows the path a served request takes — frame → JSON → db
//! decode (or, for an ingest window, seal) → content hash → plan → per-level
//! count with the served default executor → join → reply encode — on an
//! otherwise idle pool, so its timings are the uncontended cost of each
//! step.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdm_baselines::ShardedScanBackend;
use tdm_core::candidate::{apriori_join, level1};
use tdm_core::session::MiningSession;
use tdm_core::stats::support;
use tdm_core::{Alphabet, EventDb, LevelResult, MinerConfig, MiningResult};
use tdm_mapreduce::pool::Pool;
use tdm_serve::{session_key, CacheOutcome, MiningResponse, ResponseStats};
use tdm_server::{json, wire};

use crate::check;
use crate::trace::Tracer;
use crate::workloads::Key;

/// Span names of the per-level counts.
pub const COUNT_SPANS: [&str; 3] = ["core.count.l1", "core.count.l2", "core.count.l3"];

/// One request to replay.
#[derive(Debug)]
pub struct ReplayItem {
    pub key: Key,
    /// The frame the client sent for it.
    pub frame: String,
    pub config: MinerConfig,
    /// For an ingest window: the committed stream before the window and the
    /// symbols the window seals. `None` for a mine request.
    pub window: Option<(Arc<EventDb>, Vec<u8>)>,
}

/// Per-level candidate and frequent counts seen by the replay.
#[derive(Debug, Default)]
pub struct LevelTally {
    pub candidates: [Vec<f64>; 3],
    pub frequent_ratio: [Vec<f64>; 3],
}

/// Everything the replay produced.
pub struct Replay {
    pub tracer: Tracer,
    /// Request id → the key it replayed.
    pub keys: BTreeMap<u64, Key>,
    /// Key → uncontended count + join time of each replay, in µs.
    pub count_join_us: BTreeMap<Key, Vec<f64>>,
    pub levels: LevelTally,
    pub mismatches: Vec<String>,
}

/// Replays `items` round-robin until `budget` has passed (at least twice
/// each), on a pool of `workers` threads.
pub fn run(
    items: &[ReplayItem],
    expected: &BTreeMap<Key, u64>,
    workers: usize,
    budget: Duration,
) -> Replay {
    let pool = Arc::new(Pool::with_workers(workers));
    let alphabet = Alphabet::latin26();
    let started = Instant::now();
    let mut replay = Replay {
        tracer: Tracer::new(started),
        keys: BTreeMap::new(),
        count_join_us: BTreeMap::new(),
        levels: LevelTally::default(),
        mismatches: Vec::new(),
    };
    let mut request = 0u64;
    let mut pass = 0;
    while pass < 2 || started.elapsed() < budget {
        for item in items {
            let (result, count_join) = replay_one(&mut replay, &pool, &alphabet, item, request);
            replay.keys.insert(request, item.key);
            replay
                .count_join_us
                .entry(item.key)
                .or_default()
                .push(count_join);
            let got = check::digest(&wire::mining_result_value(&result, &alphabet));
            if expected.get(&item.key).is_some_and(|&want| want != got) {
                replay.mismatches.push(format!(
                    "replay of {:?} disagrees with the oracle",
                    item.key
                ));
            }
            request += 1;
        }
        pass += 1;
    }
    replay
}

fn replay_one(
    replay: &mut Replay,
    pool: &Arc<Pool>,
    alphabet: &Alphabet,
    item: &ReplayItem,
    request: u64,
) -> (MiningResult, f64) {
    let t = &mut replay.tracer;
    let root = t.open("replay.request", "bench", None, request);
    let value = t
        .span("server.json_parse", "server", root, || {
            json::parse(&item.frame)
        })
        .expect("the benchmark's own frames are JSON");
    let db = match &item.window {
        None => {
            let events = value
                .get("events")
                .and_then(json::Value::as_str)
                .expect("mine frames carry events");
            t.span("server.db_decode", "server", root, || {
                EventDb::from_str_symbols(alphabet, events)
            })
            .expect("generated events are latin26")
        }
        Some((before, sealed)) => t.span("serve.seal_extend", "serve", root, || {
            let mut grown = EventDb::clone(before);
            grown.extend(sealed).expect("generated symbols are latin26");
            grown
        }),
    };
    let db = Arc::new(db);
    let config = item.config;
    let key = t.span("serve.content_hash", "serve", root, || {
        session_key(&db, &config)
    });
    let mut session = t.span("core.plan", "core", root, || {
        MiningSession::builder_shared(Arc::clone(&db))
            .config(config)
            .with_pool(Arc::clone(pool))
            .build()
    });

    // The level loop of `MiningSession::mine_with`, one span per step.
    let mut executor = ShardedScanBackend::auto();
    let mut levels = Vec::new();
    let mut count_join_ns = 0u128;
    let mut candidates = level1(alphabet);
    let mut level = 1usize;
    while !candidates.is_empty() && config.max_level.is_none_or(|max| level <= max) {
        let span = COUNT_SPANS
            .get(level - 1)
            .copied()
            .unwrap_or("core.count.deeper");
        let counted = Instant::now();
        let counts = t
            .span(span, "core", root, || {
                session.count_candidates(&candidates, &mut executor)
            })
            .expect("the served executor counts the benchmark's inputs");
        let frequent: Vec<_> = candidates
            .iter()
            .cloned()
            .zip(counts.iter().copied())
            .filter(|(_, c)| support(*c, db.len()) > config.alpha)
            .collect();
        if let Some(slot) = level.checked_sub(1).filter(|&l| l < 3) {
            let tally = &mut replay.levels;
            tally.candidates[slot].push(candidates.len() as f64);
            tally.frequent_ratio[slot].push(frequent.len() as f64 / candidates.len() as f64);
        }
        let seed: Vec<_> = frequent.iter().map(|(e, _)| e.clone()).collect();
        levels.push(LevelResult {
            level,
            candidates: candidates.len(),
            frequent,
        });
        if seed.is_empty() {
            count_join_ns += counted.elapsed().as_nanos();
            break;
        }
        candidates = t.span("core.join", "core", root, || {
            apriori_join(&seed, config.distinct_items_only)
        });
        count_join_ns += counted.elapsed().as_nanos();
        level += 1;
    }
    let result = MiningResult {
        levels,
        db_len: db.len(),
    };
    let response = MiningResponse {
        result,
        stats: ResponseStats {
            cache: CacheOutcome::Miss,
            queue_wait: Duration::ZERO,
            mine_time: Duration::ZERO,
            key,
        },
    };
    t.span("server.reply_encode", "server", root, || {
        wire::mine_response_value(&response, alphabet).encode()
    });
    t.close(root);
    (response.result, count_join_ns as f64 / 1e3)
}
