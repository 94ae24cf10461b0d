//! Derives the end-to-end and per-layer metrics from a finished run.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::replay::{Replay, COUNT_SPANS};
use crate::workloads::{Key, Outcome, Sample};

/// One reported number.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Linear-interpolated percentile `p` (0..=1); 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    if lo == hi {
        return v[lo];
    }
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Replies per latency slice: a slice's p95 has 10 replies beyond it.
pub const LATENCY_SLICE: usize = 200;
/// Consecutive replies per throughput slice.
const RATE_SLICE: usize = 20;

/// Mine round trips in ms in the order the calls ended, a failed mine
/// counting as an infinite one.
fn mine_latencies_ms(out: &Outcome) -> Vec<f64> {
    let mut ended: Vec<(Instant, f64)> = out
        .rec
        .mine
        .iter()
        .map(|s| (s.done, s.rtt_us / 1e3))
        .chain(out.rec.mine_failed.iter().map(|&t| (t, f64::INFINITY)))
        .collect();
    ended.sort_by_key(|&(t, _)| t);
    ended.into_iter().map(|(_, ms)| ms).collect()
}

/// Splits `n` items into as many equal consecutive slices of at least
/// `size` as fit (one slice when fewer than `size`).
fn slices(n: usize, size: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let k = (n / size).max(1);
    (0..k).map(move |i| i * n / k..(i + 1) * n / k)
}

/// The median over consecutive `LATENCY_SLICE`-reply slices of each
/// slice's percentile `p`: a slow spell of the host moves one slice, not
/// the figure.
fn sliced_percentile(ordered: &[f64], p: f64) -> f64 {
    let per_slice: Vec<f64> = slices(ordered.len(), LATENCY_SLICE)
        .map(|r| percentile(&ordered[r], p))
        .collect();
    median(&per_slice)
}

/// Successful mine replies per second: the median over consecutive
/// `RATE_SLICE`-reply slices of each slice's rate, or the whole window's
/// rate when there are too few replies to slice.
fn mine_rate(out: &Outcome) -> f64 {
    let mut done: Vec<Instant> = out.rec.mine.iter().map(|s| s.done).collect();
    done.sort();
    if done.len() <= RATE_SLICE {
        return done.len() as f64 / out.measured.as_secs_f64();
    }
    let rates: Vec<f64> = done
        .windows(RATE_SLICE + 1)
        .step_by(RATE_SLICE)
        .map(|w| RATE_SLICE as f64 / (w[RATE_SLICE] - w[0]).as_secs_f64())
        .collect();
    median(&rates)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let lat = mine_latencies_ms(out);
    vec![
        Metric {
            name: "setup_s",
            value: median(&out.setup_s),
            unit: "s",
        },
        Metric {
            name: "mine_qps",
            value: mine_rate(out),
            unit: "req/s",
        },
        Metric {
            name: "mine_p50_ms",
            value: percentile(&lat, 0.5),
            unit: "ms",
        },
        Metric {
            name: "mine_p95_ms",
            value: sliced_percentile(&lat, 0.95),
            unit: "ms",
        },
        Metric {
            name: "peak_rss_mb",
            value: out.peak_rss_mb,
            unit: "MB",
        },
    ]
}

/// Operations attempted and failed across mine, append and window calls.
pub fn op_totals(out: &Outcome) -> (u64, u64) {
    ["mine", "append", "window"]
        .iter()
        .filter_map(|k| out.rec.ops.get(k))
        .fold((0, 0), |(a, f), o| (a + o.attempted, f + o.failed))
}

fn samples_us(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> Vec<f64> {
    samples.iter().map(f).collect()
}

/// Served `mine_time_us` minus the replay's uncontended count + join time
/// of the same request: the median over replayed requests of the
/// difference of their medians.
fn contention_us(out: &Outcome, replay: &Replay) -> f64 {
    let mut served: BTreeMap<Key, Vec<f64>> = BTreeMap::new();
    for s in out.rec.mine.iter().chain(&out.rec.windows) {
        served.entry(s.key).or_default().push(s.mine_time_us);
    }
    let diffs: Vec<f64> = replay
        .count_join_us
        .iter()
        .filter_map(|(key, uncontended)| {
            served
                .get(key)
                .map(|times| median(times) - median(uncontended))
        })
        .collect();
    median(&diffs)
}

/// The per-layer metrics. Metrics of the replay are present only when
/// `replay` is, and the ingest metrics only on `ingest-mixed`.
pub fn per_layer(out: &Outcome, replay: Option<&Replay>) -> Vec<Metric> {
    let st = &out.stats;
    let mine = &out.rec.mine;
    let windows = &out.rec.windows;
    let (attempted, failed) = op_totals(out);
    let mut m = Vec::new();
    let mut push = |name, value, unit| m.push(Metric { name, value, unit });

    // From the replay: each layer's calls on the workload's own inputs.
    if let Some(r) = replay {
        let span = |name: &str| median(&r.tracer.micros_of(name));
        push("server.json_parse_us", span("server.json_parse"), "us");
        push("server.db_decode_us", span("server.db_decode"), "us");
        push("server.reply_encode_us", span("server.reply_encode"), "us");
        push("serve.content_hash_us", span("serve.content_hash"), "us");
        push("core.plan_us", span("core.plan"), "us");
        for (i, name) in ["core.count_us.l1", "core.count_us.l2", "core.count_us.l3"]
            .into_iter()
            .enumerate()
        {
            push(name, span(COUNT_SPANS[i]), "us");
        }
        for (i, name) in [
            "core.candidates.l1",
            "core.candidates.l2",
            "core.candidates.l3",
        ]
        .into_iter()
        .enumerate()
        {
            push(name, median(&r.levels.candidates[i]), "count");
        }
        for (i, name) in [
            "core.frequent_ratio.l1",
            "core.frequent_ratio.l2",
            "core.frequent_ratio.l3",
        ]
        .into_iter()
        .enumerate()
        {
            push(name, median(&r.levels.frequent_ratio[i]), "ratio");
        }
        push("core.join_us", span("core.join"), "us");
        if out.ingest {
            // The seal is timed at the largest prefix replayed.
            let final_window = r.keys.values().filter_map(|k| match k {
                Key::Window { appended } => Some(*appended),
                _ => None,
            });
            let seals: Vec<f64> = final_window
                .max()
                .map(|last| {
                    r.tracer
                        .spans()
                        .iter()
                        .filter(|s| {
                            s.name == "serve.seal_extend"
                                && r.keys.get(&s.request) == Some(&Key::Window { appended: last })
                        })
                        .map(|s| s.micros())
                        .collect()
                })
                .unwrap_or_default();
            push("serve.seal_extend_us", median(&seals), "us");
        }
        let own = r.tracer.self_time();
        for (layer, name) in [
            ("server", "server.self_us"),
            ("serve", "serve.self_us"),
            ("core", "core.self_us"),
        ] {
            let per_request: Vec<f64> = own
                .iter()
                .filter(|((_, l), _)| *l == layer)
                .map(|(_, us)| *us)
                .collect();
            push(name, median(&per_request), "us");
        }
        push("pool.contention_us", contention_us(out, r), "us");
    }

    // From the end-to-end run: replies, client round trips and `/stats`.
    push(
        "server.request_bytes",
        median(&out.rec.request_bytes),
        "bytes",
    );
    let overhead = samples_us(mine, |s| s.rtt_us - s.queue_wait_us - s.mine_time_us);
    push("server.wire_overhead_us", median(&overhead), "us");
    push("server.protocol_errors", st.protocol_errors as f64, "count");
    push("server.refused", st.refused as f64, "count");
    let queue = samples_us(mine, |s| s.queue_wait_us);
    let mine_time = samples_us(mine, |s| s.mine_time_us);
    push("serve.queue_wait_us", median(&queue), "us");
    push("serve.queue_wait_us.p95", percentile(&queue, 0.95), "us");
    push("serve.mine_time_us", median(&mine_time), "us");
    push("serve.mine_time_us.p95", percentile(&mine_time, 0.95), "us");
    push(
        "serve.fused_share",
        ratio(st.fused_requests, st.completed),
        "ratio",
    );
    push(
        "serve.co_cache_hit_ratio",
        ratio(st.co_cache_hits, st.co_cache_hits + st.co_cache_misses),
        "ratio",
    );
    push("serve.solo_fallbacks", st.solo_fallbacks as f64, "count");
    push(
        "serve.cache_hit_ratio",
        ratio(st.cache_hits, st.cache_hits + st.cache_misses),
        "ratio",
    );
    push("serve.rejected", st.rejected as f64, "count");
    push("serve.cancelled", st.cancelled as f64, "count");
    push("serve.failed", st.failed as f64, "count");
    push("pool.workers", out.pool_workers as f64, "count");
    push("failed_frac", ratio(failed, attempted), "ratio");
    // Only `ingest-mixed` appends, seals and re-mines.
    if out.ingest {
        push("serve.ingest_append_us", median(&out.rec.appends_us), "us");
        push("serve.windows_sealed", st.windows_sealed as f64, "count");
        push(
            "serve.deferred_appends",
            st.deferred_appends as f64,
            "count",
        );
        push("serve.remines", st.remines as f64, "count");
        let wall = out.rec.writer_wall.as_secs_f64();
        let symbols_per_s = if wall > 0.0 {
            out.rec.ingest_symbols as f64 / wall
        } else {
            0.0
        };
        push("ingest_symbols_per_s", symbols_per_s, "symbols/s");
        let window_ms = samples_us(windows, |s| s.rtt_us / 1e3);
        push("window_p50_ms", percentile(&window_ms, 0.5), "ms");
        push("window_p95_ms", percentile(&window_ms, 0.95), "ms");
    }
    if let Some(r) = replay {
        let traced: Vec<f64> = mine.iter().filter(|s| s.traced).map(|s| s.rtt_us).collect();
        let untraced: Vec<f64> = mine
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.rtt_us)
            .collect();
        push(
            "trace.overhead_us",
            median(&traced) - median(&untraced),
            "us",
        );
        let spans = r.tracer.spans().len()
            + out
                .rec
                .tracers
                .iter()
                .map(|t| t.spans().len())
                .sum::<usize>();
        push("trace.spans", spans as f64, "count");
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.95) - 4.8).abs() < 1e-9);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert!(percentile(&[1.0, f64::INFINITY], 1.0).is_infinite());
    }

    #[test]
    fn slices_cover_every_item_once() {
        for n in [0, 1, 199, 200, 399, 400, 601, 1000] {
            let parts: Vec<_> = slices(n, 200).collect();
            assert_eq!(parts.len(), (n / 200).max(1));
            assert!(parts.iter().all(|r| r.len() >= 200 || parts.len() == 1));
            assert_eq!(parts.first().map(|r| r.start), Some(0));
            assert_eq!(parts.last().map(|r| r.end), Some(n));
            assert!(parts.windows(2).all(|w| w[0].end == w[1].start));
        }
    }

    #[test]
    fn a_slow_slice_does_not_move_the_sliced_p95() {
        let steady: Vec<f64> = (0..600).map(|i| 100.0 + (i % 20) as f64).collect();
        let mut spell = steady.clone();
        for v in &mut spell[400..] {
            *v *= 3.0;
        }
        assert_eq!(
            sliced_percentile(&steady, 0.95),
            sliced_percentile(&spell, 0.95)
        );
        assert!(percentile(&spell, 0.95) > 2.0 * percentile(&steady, 0.95));
    }
}
