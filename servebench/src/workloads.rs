//! The three closed-loop workloads. Each sets up a fresh deployment several
//! times (the last one serves the run), drives it over loopback TCP for the
//! run length, and checks every reply against the serial oracle outside the
//! timed window.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::check::{self, Verdict};
use crate::harness::{Conn, Deployment, Reply, Stats};
use crate::inputs::{
    self, ColdStream, Gen, HotSchedule, IngestStream, MineSpec, INGEST_FLUSH_COUNT,
};
use crate::replay::ReplayItem;
use crate::trace::Tracer;

/// Deployments set up per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Mismatch and failure descriptions kept per run.
const MAX_REPORTED: usize = 8;
/// Mine replies a run needs before it may end: three latency slices, so
/// the reported p95 is a median of three slice p95s. A run goes on past
/// its length until it has this many.
const MIN_MINE_SAMPLES: usize = 3 * crate::report::LATENCY_SLICE;
/// Sealed windows an `ingest-mixed` run needs before it may end: at 200,
/// their p95 has 10 samples beyond it.
const MIN_WINDOW_SAMPLES: usize = 200;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    pub seed: u64,
    pub content_seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl RunSpec {
    fn gen(&self) -> Gen {
        Gen::new(self.seed, self.content_seed)
    }
}

/// Which distinct request a reply answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Key {
    /// A `mine-hot` catalog entry.
    Hot(usize),
    /// The `k`-th `mine-cold` window.
    Cold(usize),
    /// The re-mine of the ingest stream after `appended` symbols.
    Window { appended: usize },
}

/// One successful mine reply (or window re-mine) with its timings.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub key: Key,
    pub rtt_us: f64,
    pub queue_wait_us: f64,
    pub mine_time_us: f64,
    pub traced: bool,
    /// When the client finished reading the reply.
    pub done: Instant,
}

/// Attempted and failed operations of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

/// Everything one client thread observed.
#[derive(Debug, Default)]
pub struct Recorder {
    pub mine: Vec<Sample>,
    /// When each failed mine call ended.
    pub mine_failed: Vec<Instant>,
    pub windows: Vec<Sample>,
    pub appends_us: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub ops: BTreeMap<&'static str, Ops>,
    pub checks: Vec<(Key, u64)>,
    pub failures: Vec<String>,
    pub ingest_symbols: u64,
    pub writer_wall: Duration,
    pub tracers: Vec<Tracer>,
}

impl Recorder {
    fn failed(&mut self, kind: &'static str, why: String) {
        self.ops.entry(kind).or_default().failed += 1;
        if self.failures.len() < MAX_REPORTED {
            self.failures.push(format!("{kind}: {why}"));
        }
    }

    /// Books one mine call: a sample and a pending check when it was
    /// served, a failure otherwise.
    fn mine(&mut self, key: Key, frame: &str, reply: Result<Reply, String>, traced: bool) {
        self.ops.entry("mine").or_default().attempted += 1;
        self.request_bytes.push(frame.len() as f64);
        match reply {
            Ok(reply) => match mine_sample(key, &reply, traced) {
                Some((sample, digest)) => {
                    self.mine.push(sample);
                    self.checks.push((key, digest));
                }
                None => {
                    self.mine_failed.push(reply.done);
                    self.failed("mine", reply.value.encode());
                }
            },
            Err(e) => {
                self.mine_failed.push(Instant::now());
                self.failed("mine", e);
            }
        }
    }

    fn merge(&mut self, other: Recorder) {
        self.mine.extend(other.mine);
        self.mine_failed.extend(other.mine_failed);
        self.windows.extend(other.windows);
        self.appends_us.extend(other.appends_us);
        self.request_bytes.extend(other.request_bytes);
        for (kind, ops) in other.ops {
            let mine = self.ops.entry(kind).or_default();
            mine.attempted += ops.attempted;
            mine.failed += ops.failed;
        }
        self.checks.extend(other.checks);
        self.failures.extend(other.failures);
        self.ingest_symbols += other.ingest_symbols;
        self.writer_wall += other.writer_wall;
        self.tracers.extend(other.tracers);
    }

    /// Keeps only what a warm-up pass must contribute: its checks and failures.
    fn warm_up_part(self) -> Recorder {
        Recorder {
            checks: self.checks,
            failures: self.failures,
            ..Recorder::default()
        }
    }
}

fn mine_sample(key: Key, reply: &Reply, traced: bool) -> Option<(Sample, u64)> {
    let digest = reply.result_digest()?;
    let sample = Sample {
        key,
        rtt_us: reply.rtt.as_secs_f64() * 1e6,
        queue_wait_us: reply.queue_wait_us()?,
        mine_time_us: reply.mine_time_us()?,
        traced,
        done: reply.done,
    };
    Some((sample, digest))
}

/// The end of a run's timed window: its length and the process's peak
/// resident set so far, read before the final stats and the references.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub measured: Duration,
    pub peak_rss_mb: f64,
}

impl Timed {
    fn end(origin: Instant) -> Timed {
        Timed {
            measured: origin.elapsed(),
            peak_rss_mb: crate::report::peak_rss_mb(),
        }
    }
}

/// A finished run, before metrics are derived.
#[derive(Debug)]
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub measured: Duration,
    pub peak_rss_mb: f64,
    pub rec: Recorder,
    pub stats: Stats,
    pub pool_workers: usize,
    pub verdict: Verdict,
    /// The oracle's digest of every distinct request the run sent.
    pub expected: BTreeMap<Key, u64>,
    /// The requests a traced run replays layer by layer.
    pub replay: Vec<ReplayItem>,
    /// Whether the run appended to a stream (`ingest-mixed`).
    pub ingest: bool,
}

/// A traced call when tracing is on and `n` is odd: alternate requests are
/// traced, so the traced and untraced halves see the same load.
fn call(
    conn: &mut Conn,
    frame: &str,
    tracer: Option<&mut Tracer>,
    n: u64,
) -> Result<Reply, String> {
    match tracer {
        Some(tracer) if n % 2 == 1 => conn.call_traced(frame, tracer, n),
        _ => conn.call(frame),
    }
}

/// Sets up `SETUP_REPEATS` deployments with `prepare` (stream registration
/// and warm-up), timing each from bind to the end of its warm-up. The last
/// one is returned to serve the run.
fn set_up(
    prepare: impl Fn(&Deployment, &mut Recorder) -> Result<(), String>,
) -> Result<(Deployment, Vec<f64>, Recorder), String> {
    let mut times = Vec::new();
    let mut warm = Recorder::default();
    for repeat in 0..SETUP_REPEATS {
        let started = Instant::now();
        let deployment = Deployment::start().map_err(|e| format!("bind: {e}"))?;
        let mut rec = Recorder::default();
        prepare(&deployment, &mut rec)?;
        times.push(started.elapsed().as_secs_f64());
        warm.merge(rec.warm_up_part());
        if repeat + 1 == SETUP_REPEATS {
            return Ok((deployment, times, warm));
        }
        deployment.finish()?;
    }
    unreachable!("the last repeat returns")
}

fn connect(deployment: &Deployment) -> Result<Conn, String> {
    deployment.connect().map_err(|e| format!("connect: {e}"))
}

/// One request per catalog entry, on one connection.
fn warm_up(
    deployment: &Deployment,
    catalog: &[MineSpec],
    rec: &mut Recorder,
) -> Result<(), String> {
    let mut conn = connect(deployment)?;
    for (i, spec) in catalog.iter().enumerate() {
        let frame = spec.frame();
        rec.mine(Key::Hot(i), &frame, conn.call(&frame), false);
    }
    Ok(())
}

/// The oracle's digest of every distinct key, computed on one thread per
/// core (the serial references are the slowest part of a run's check).
fn expected_digests(
    checks: &[(Key, u64)],
    expected: &(impl Fn(Key) -> u64 + Sync),
) -> BTreeMap<Key, u64> {
    let keys: Vec<Key> = checks
        .iter()
        .map(|&(key, _)| key)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let threads = crate::harness::parallelism();
    std::thread::scope(|s| {
        let parts: Vec<_> = (0..threads)
            .map(|t| {
                let keys = &keys;
                s.spawn(move || {
                    keys.iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|&key| (key, expected(key)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Closes the run: final stats and invariants, then the oracle comparisons.
fn finish(
    deployment: Deployment,
    before: Stats,
    setup_s: Vec<f64>,
    timed: Timed,
    mut rec: Recorder,
    expected: impl Fn(Key) -> u64 + Sync,
    replay: Vec<ReplayItem>,
) -> Outcome {
    let pool_workers = deployment.pool_workers();
    let mut verdict = Verdict::default();
    let stats = match deployment.finish() {
        Ok(after) => after.since(&before),
        Err(broken) => {
            verdict.fail(format!("stats invariant violated: {broken}"));
            Stats::default()
        }
    };
    for failure in rec.failures.drain(..) {
        verdict.fail(failure);
    }
    let want = expected_digests(&rec.checks, &expected);
    for &(key, got) in &rec.checks {
        verdict.compare(|| format!("{key:?}"), got, want[&key]);
    }
    Outcome {
        setup_s,
        measured: timed.measured,
        peak_rss_mb: timed.peak_rss_mb,
        rec,
        stats,
        pool_workers,
        verdict,
        expected: want,
        replay,
        ingest: false,
    }
}

fn tracer_for(spec: &RunSpec, origin: Instant) -> Option<Tracer> {
    spec.trace.then(|| Tracer::new(origin))
}

/// `mine-cold` windows a traced run replays (the first ones served).
const COLD_REPLAYS: usize = 8;

fn catalog_replay(catalog: &[MineSpec]) -> Vec<ReplayItem> {
    catalog
        .iter()
        .enumerate()
        .map(|(i, spec)| ReplayItem {
            key: Key::Hot(i),
            frame: spec.frame(),
            config: spec.config,
            window: None,
        })
        .collect()
}

/// A two-thread round barrier that polls instead of sleeping, so both clients
/// are running when a round starts. With a blocking barrier, the wake-up of
/// the sleeping client delayed its request past the 2 ms co-mining window in
/// about one round in eight. Polling yields the core, so a client waiting
/// for its partner does not slow the partner's request.
#[derive(Default)]
struct PollBarrier {
    arrived: AtomicUsize,
    round: AtomicUsize,
    go: AtomicBool,
}

impl PollBarrier {
    /// Waits for both threads; the last to arrive evaluates `go` for both.
    fn wait(&self, go: impl FnOnce() -> bool) -> bool {
        let round = self.round.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) == 1 {
            self.arrived.store(0, Ordering::SeqCst);
            self.go.store(go(), Ordering::SeqCst);
            self.round.fetch_add(1, Ordering::SeqCst);
        } else {
            while self.round.load(Ordering::SeqCst) == round {
                std::thread::yield_now();
            }
        }
        self.go.load(Ordering::SeqCst)
    }
}

/// `mine-hot`: two connections in synchronized rounds; in each round both
/// mine the same catalog stream under different configs.
pub fn mine_hot(spec: &RunSpec) -> Result<Outcome, String> {
    let catalog = inputs::hot_catalog(&spec.gen());
    let frames: Vec<String> = catalog.iter().map(MineSpec::frame).collect();
    let schedule = HotSchedule::new(spec.seed);
    let (deployment, setup_s, mut rec) = set_up(|d, rec| warm_up(d, &catalog, rec))?;
    let before = deployment.stats()?;

    let barrier = PollBarrier::default();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(spec.seconds);
    let recs = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|conn_id| {
                let (barrier, frames, schedule, deployment) =
                    (&barrier, &frames, &schedule, &deployment);
                s.spawn(move || -> Result<Recorder, String> {
                    let mut rec = Recorder::default();
                    let mut tracer = tracer_for(spec, origin);
                    let mut conn = connect(deployment);
                    for round in 0u64.. {
                        let go =
                            || Instant::now() < deadline || 2 * round < MIN_MINE_SAMPLES as u64;
                        if !barrier.wait(go) {
                            break;
                        }
                        let entry = schedule.entry(round, conn_id);
                        let frame = &frames[entry];
                        let reply = match conn.as_mut() {
                            Ok(conn) => call(conn, frame, tracer.as_mut(), round),
                            Err(e) => Err(e.clone()),
                        };
                        rec.mine(Key::Hot(entry), frame, reply, spec.trace && round % 2 == 1);
                    }
                    rec.tracers.extend(tracer);
                    conn.map(|_| rec)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let timed = Timed::end(origin);
    for r in recs {
        rec.merge(r?);
    }
    let expected = |key| match key {
        Key::Hot(i) => {
            check::expected_digest(&inputs::symbols(&catalog[i].events), &catalog[i].config)
        }
        other => unreachable!("mine-hot never sends {other:?}"),
    };
    let replay = if spec.trace {
        catalog_replay(&catalog)
    } else {
        Vec::new()
    };
    Ok(finish(
        deployment, before, setup_s, timed, rec, expected, replay,
    ))
}

/// `mine-cold`: two free-running connections, each request a distinct
/// window of one long stream.
pub fn mine_cold(spec: &RunSpec) -> Result<Outcome, String> {
    let cold = ColdStream::new(&spec.gen(), spec.seed);
    let config = ColdStream::config();
    // Warm-up windows come from the far end of the offset walk, which a
    // run never reaches.
    let warm_keys = [inputs::COLD_OFFSETS - 1, inputs::COLD_OFFSETS - 2];
    let (deployment, setup_s, mut rec) = set_up(|d, rec| {
        let mut conn = connect(d)?;
        for k in warm_keys {
            let frame = inputs::mine_frame(cold.window(k), &config);
            rec.mine(Key::Cold(k), &frame, conn.call(&frame), false);
        }
        Ok(())
    })?;
    let before = deployment.stats()?;

    let next = AtomicUsize::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(spec.seconds);
    let recs = std::thread::scope(|s| {
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let (next, cold, deployment) = (&next, &cold, &deployment);
                s.spawn(move || -> Result<Recorder, String> {
                    let mut rec = Recorder::default();
                    let mut tracer = tracer_for(spec, origin);
                    let mut conn = connect(deployment)?;
                    while Instant::now() < deadline
                        || next.load(Ordering::SeqCst) < MIN_MINE_SAMPLES
                    {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        let frame = inputs::mine_frame(cold.window(k), &config);
                        let reply = call(&mut conn, &frame, tracer.as_mut(), k as u64);
                        rec.mine(Key::Cold(k), &frame, reply, spec.trace && k % 2 == 1);
                    }
                    rec.tracers.extend(tracer);
                    Ok(rec)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    let timed = Timed::end(origin);
    for r in recs {
        rec.merge(r?);
    }
    let expected = |key| match key {
        Key::Cold(k) => check::expected_digest(&inputs::symbols(cold.window(k)), &config),
        other => unreachable!("mine-cold never sends {other:?}"),
    };
    let replay = (0..if spec.trace { COLD_REPLAYS } else { 0 })
        .map(|k| ReplayItem {
            key: Key::Cold(k),
            frame: inputs::mine_frame(cold.window(k), &config),
            config,
            window: None,
        })
        .collect();
    Ok(finish(
        deployment, before, setup_s, timed, rec, expected, replay,
    ))
}

fn register(conn: &mut Conn, stream: &IngestStream, cycle: u64, rec: &mut Recorder) {
    rec.ops.entry("register").or_default().attempted += 1;
    match conn.call(&stream.register_frame(cycle)) {
        Ok(reply) if reply.kind() == "registered" => {}
        Ok(reply) => rec.failed("register", reply.value.encode()),
        Err(e) => rec.failed("register", e),
    }
}

/// Appends one stream's chunks in order until its total is reached.
fn ingest_cycle(conn: &mut Conn, cycle: u64, stream: &IngestStream, rec: &mut Recorder) {
    let started = Instant::now();
    let mut appended = 0usize;
    for chunk in stream.chunks() {
        appended += chunk.len();
        let reply = conn.call(&IngestStream::ingest_frame(cycle, chunk));
        match reply {
            Ok(reply) if reply.is_buffered() => {
                rec.ops.entry("append").or_default().attempted += 1;
                rec.appends_us.push(reply.rtt.as_secs_f64() * 1e6);
            }
            Ok(reply) => {
                rec.ops.entry("window").or_default().attempted += 1;
                let key = Key::Window { appended };
                let sealed = reply.flushed().and_then(|(symbols, result)| {
                    let (sample, digest) = mine_sample(key, &result, false)?;
                    (symbols == INGEST_FLUSH_COUNT as u64).then_some((sample, digest))
                });
                match sealed {
                    Some((sample, digest)) => {
                        rec.windows.push(sample);
                        rec.checks.push((key, digest));
                    }
                    None => rec.failed("window", reply.value.encode()),
                }
            }
            Err(e) => {
                rec.ops.entry("append").or_default().attempted += 1;
                rec.failed("append", e);
            }
        }
    }
    rec.ingest_symbols += appended as u64;
    rec.writer_wall += started.elapsed();
}

/// `ingest-mixed`: one connection appends to a growing stream while a
/// second sends `mine-hot`'s catalog requests one at a time. The writer
/// replays the stream under a new name in whole cycles. A cycle starts
/// while the run length has not passed, or while the windows or the
/// reader's replies number fewer than `MIN_WINDOW_SAMPLES` and
/// `MIN_MINE_SAMPLES`; the first always runs.
pub fn ingest_mixed(spec: &RunSpec) -> Result<Outcome, String> {
    let catalog = inputs::hot_catalog(&spec.gen());
    let frames: Vec<String> = catalog.iter().map(MineSpec::frame).collect();
    let schedule = HotSchedule::new(spec.seed);
    let stream = IngestStream::new(&spec.gen(), inputs::INGEST_TOTAL);
    let (deployment, setup_s, mut rec) = set_up(|d, rec| {
        let mut conn = connect(d)?;
        register(&mut conn, &stream, 0, rec);
        warm_up(d, &catalog, rec)
    })?;
    let before = deployment.stats()?;

    let writer_done = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(spec.seconds);
    let (writer, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| -> Result<Recorder, String> {
            let mut rec = Recorder::default();
            let conn = connect(&deployment);
            if let Ok(mut conn) = conn {
                ingest_cycle(&mut conn, 0, &stream, &mut rec);
                for cycle in 1u64.. {
                    let windows = rec.ops.get("window").map_or(0, |o| o.attempted) as usize;
                    let short = windows < MIN_WINDOW_SAMPLES
                        || reads.load(Ordering::SeqCst) < MIN_MINE_SAMPLES;
                    if Instant::now() >= deadline && !short {
                        break;
                    }
                    register(&mut conn, &stream, cycle, &mut rec);
                    ingest_cycle(&mut conn, cycle, &stream, &mut rec);
                }
                writer_done.store(true, Ordering::SeqCst);
                Ok(rec)
            } else {
                writer_done.store(true, Ordering::SeqCst);
                conn.map(|_| rec)
            }
        });
        let reader = s.spawn(|| -> Result<Recorder, String> {
            let mut rec = Recorder::default();
            let mut tracer = tracer_for(spec, origin);
            let mut conn = connect(&deployment).inspect_err(|_| {
                // Nothing to wait for: let the writer stop at the deadline.
                reads.store(MIN_MINE_SAMPLES, Ordering::SeqCst);
            })?;
            let mut n = 0u64;
            while !writer_done.load(Ordering::SeqCst) {
                let entry = schedule.entry(n, 0);
                let reply = call(&mut conn, &frames[entry], tracer.as_mut(), n);
                rec.mine(
                    Key::Hot(entry),
                    &frames[entry],
                    reply,
                    spec.trace && n % 2 == 1,
                );
                n += 1;
                reads.fetch_add(1, Ordering::SeqCst);
            }
            rec.tracers.extend(tracer);
            Ok(rec)
        });
        (
            writer.join().expect("writer thread panicked"),
            reader.join().expect("reader thread panicked"),
        )
    });
    let timed = Timed::end(origin);
    rec.merge(writer?);
    rec.merge(reader?);
    let expected = |key| match key {
        Key::Hot(i) => {
            check::expected_digest(&inputs::symbols(&catalog[i].events), &catalog[i].config)
        }
        Key::Window { appended } => check::expected_digest(
            &inputs::symbols(&stream.prefix(appended)),
            &inputs::ingest_config(),
        ),
        Key::Cold(_) => unreachable!("ingest-mixed never sends cold windows"),
    };
    let mut replay = Vec::new();
    if spec.trace {
        replay = catalog_replay(&catalog);
        // The windows that end halfway through the stream and at its end.
        let windows = inputs::INGEST_TOTAL / INGEST_FLUSH_COUNT;
        for w in [windows.div_ceil(2), windows] {
            let appended = w * INGEST_FLUSH_COUNT;
            if appended == 0 {
                continue;
            }
            let committed = tdm_core::EventDb::new(
                tdm_core::Alphabet::latin26(),
                inputs::symbols(&stream.prefix(appended - INGEST_FLUSH_COUNT)),
            )
            .expect("generated symbols are latin26");
            let sealed = inputs::symbols(&stream.appended[appended - INGEST_FLUSH_COUNT..appended]);
            let last_chunk = &stream.appended[appended - inputs::INGEST_CHUNK..appended];
            replay.push(ReplayItem {
                key: Key::Window { appended },
                frame: IngestStream::ingest_frame(0, last_chunk),
                config: inputs::ingest_config(),
                window: Some((std::sync::Arc::new(committed), sealed)),
            });
        }
    }
    let out = finish(deployment, before, setup_s, timed, rec, expected, replay);
    Ok(Outcome {
        ingest: true,
        ..out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::ExitCode;
    use tdm_server::json::{self, Value};

    /// Serves three identical mine requests on a tiny stream, corrupting the
    /// second reply when `corrupt`, and closes the run as `main` does.
    fn served_run(corrupt: bool) -> (Outcome, Value, ExitCode) {
        let events = "ABCAB".repeat(400);
        let cfg = inputs::config(0.01, 3);
        let frame = inputs::mine_frame(&events, &cfg);
        let deployment = Deployment::start().expect("bind loopback");
        let before = deployment.stats().expect("stats");
        let origin = Instant::now();
        let mut rec = Recorder::default();
        let mut conn = deployment.connect().expect("connect");
        for i in 0..3 {
            let mut reply = conn.call(&frame).expect("served");
            if corrupt && i == 1 {
                // Bump one frequent count.
                let text = reply.value.encode().replacen("\"AB\",", "\"AB\",1", 1);
                reply.value = json::parse(&text).expect("still JSON");
            }
            rec.mine(Key::Hot(0), &frame, Ok(reply), false);
        }
        drop(conn);
        let want = check::expected_digest(&inputs::symbols(&events), &cfg);
        let timed = Timed::end(origin);
        let out = finish(
            deployment,
            before,
            vec![0.0],
            timed,
            rec,
            |_| want,
            Vec::new(),
        );
        let (result, code) = crate::conclude(&out, &crate::report::end_to_end(&out));
        (out, result, code)
    }

    #[test]
    fn a_corrupted_reply_fails_the_run() {
        let (out, result, code) = served_run(false);
        assert!(out.verdict.is_correct(), "{:?}", out.verdict.mismatches());
        assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(code, ExitCode::SUCCESS);

        let (out, result, code) = served_run(true);
        assert_eq!(out.verdict.checked(), 3);
        assert_eq!(
            out.verdict.mismatches().len(),
            1,
            "{:?}",
            out.verdict.mismatches()
        );
        assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(code, ExitCode::FAILURE);
    }

    #[test]
    fn poll_barrier_runs_both_threads_for_the_same_rounds() {
        let barrier = PollBarrier::default();
        let started = AtomicUsize::new(0);
        let rounds: Vec<usize> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = 0;
                        while barrier.wait(|| started.fetch_add(1, Ordering::SeqCst) < 500) {
                            mine += 1;
                        }
                        mine
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("joined"))
                .collect()
        });
        assert_eq!(rounds, vec![500, 500]);
    }
}
