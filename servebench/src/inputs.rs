//! Seeded inputs. Every byte the server receives is generated here from the
//! workload seed and the content seed; the same seeds always yield the same
//! requests.
//!
//! The content seed fixes the Markov streams' shape; the workload seed
//! relabels their letters and drives every schedule and offset. Relabeling
//! changes every byte sent but not the amount of mining work, so runs on
//! different workload seeds differ by measurement noise rather than by how
//! many candidates a stream happens to produce.

use tdm_core::MinerConfig;

/// Markov persistence of every generated stream.
pub const PERSISTENCE: f64 = 0.3;
/// Letters per `mine-hot` catalog stream.
pub const HOT_STREAM_LEN: usize = 40_000;
/// Support thresholds of the `mine-hot` catalog configs.
pub const HOT_ALPHAS: [f64; 2] = [0.0005, 0.001];
/// Level bound of the `mine-hot` catalog configs.
pub const HOT_MAX_LEVEL: usize = 3;
/// Letters per `mine-cold` request window.
pub const COLD_WINDOW: usize = 400_000;
/// Distinct window offsets in the `mine-cold` stream (a power of two, so an
/// odd stride visits every offset once).
pub const COLD_OFFSETS: usize = 1 << 20;
/// Support threshold of `mine-cold` requests.
pub const COLD_ALPHA: f64 = 0.001;
/// Level bound of `mine-cold` requests.
pub const COLD_MAX_LEVEL: usize = 1;
/// Seed prefix of each `ingest-mixed` stream.
pub const INGEST_SEED_LEN: usize = 4_000;
/// Symbols per `ingest-mixed` append.
pub const INGEST_CHUNK: usize = 500;
/// The `ingest-mixed` count trigger (symbols per sealed window).
pub const INGEST_FLUSH_COUNT: usize = 4_000;
/// Default symbols appended per `ingest-mixed` stream.
pub const INGEST_TOTAL: usize = 200_000;

/// SplitMix64: derives independent sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Content seed of the streams when none is given.
pub const CONTENT_SEED: u64 = 2009;

/// The generator of one run's streams.
pub struct Gen {
    content: u64,
    labels: [u8; 26],
}

impl Gen {
    pub fn new(seed: u64, content: u64) -> Self {
        // Fisher–Yates over the alphabet, driven by the workload seed.
        let mut labels: [u8; 26] = std::array::from_fn(|i| b'A' + i as u8);
        for i in (1..labels.len()).rev() {
            let j = (mix(seed, 0x30 + i as u64) % (i as u64 + 1)) as usize;
            labels.swap(i, j);
        }
        Gen { content, labels }
    }

    /// A Markov letter stream of `n` letters, as relabeled `A`–`Z` text.
    pub fn letters(&self, n: usize, salt: u64) -> String {
        let db = tdm_workloads::markov_letters(n, mix(self.content, salt), PERSISTENCE);
        db.symbols()
            .iter()
            .map(|&s| char::from(self.labels[usize::from(s)]))
            .collect()
    }
}

/// Letters back to latin26 symbol ids.
pub fn symbols(text: &str) -> Vec<u8> {
    text.bytes().map(|b| b - b'A').collect()
}

/// The configuration a request mines under.
pub fn config(alpha: f64, max_level: usize) -> MinerConfig {
    MinerConfig {
        alpha,
        max_level: Some(max_level),
        ..MinerConfig::default()
    }
}

/// One distinct mine request: its events and configuration.
#[derive(Debug, Clone)]
pub struct MineSpec {
    pub events: String,
    pub config: MinerConfig,
}

impl MineSpec {
    /// The request frame exactly as the client sends it.
    pub fn frame(&self) -> String {
        mine_frame(&self.events, &self.config)
    }
}

/// Tenant every request authenticates as.
pub const TENANT: &str = "bench";
/// That tenant's API key.
pub const API_KEY: &str = "bench-key";

/// A `"mine"` frame over inline events. Built by hand because the events
/// need no escaping and a 400k-letter copy through the JSON tree would cost
/// the client more than the request.
pub fn mine_frame(events: &str, config: &MinerConfig) -> String {
    format!(
        "{{\"type\":\"mine\",\"tenant\":\"{TENANT}\",\"api_key\":\"{API_KEY}\",\"events\":\"{events}\",\"alpha\":{:?},\"max_level\":{}}}",
        config.alpha,
        config.max_level.expect("benchmark configs bound the level"),
    )
}

/// The `mine-hot` catalog: 2 streams × 2 configs, indexed `stream * 2 + config`.
pub fn hot_catalog(gen: &Gen) -> Vec<MineSpec> {
    let mut catalog = Vec::new();
    for stream in 0..2u64 {
        let events = gen.letters(HOT_STREAM_LEN, 0x40 + stream);
        for alpha in HOT_ALPHAS {
            catalog.push(MineSpec {
                events: events.clone(),
                config: config(alpha, HOT_MAX_LEVEL),
            });
        }
    }
    catalog
}

/// The `mine-hot` round schedule: which catalog stream round `r` mines, and
/// whether the two connections swap configs.
pub struct HotSchedule {
    seed: u64,
}

impl HotSchedule {
    pub fn new(seed: u64) -> Self {
        HotSchedule {
            seed: mix(seed, 0x50),
        }
    }

    /// Catalog index connection `conn` (0 or 1) sends in round `round`.
    pub fn entry(&self, round: u64, conn: usize) -> usize {
        let r = mix(self.seed, round);
        let stream = (r & 1) as usize;
        let swap = ((r >> 1) & 1) as usize;
        stream * 2 + (conn ^ swap)
    }
}

/// The `mine-cold` source stream and the seeded walk over its windows.
pub struct ColdStream {
    pub text: String,
    base: usize,
    stride: usize,
}

impl ColdStream {
    pub fn new(gen: &Gen, seed: u64) -> Self {
        ColdStream {
            text: gen.letters(COLD_WINDOW + COLD_OFFSETS, 0x60),
            base: (mix(seed, 0x61) as usize) % COLD_OFFSETS,
            // Odd, so `k * stride` mod a power of two visits every offset once.
            stride: (mix(seed, 0x62) as usize % COLD_OFFSETS) | 1,
        }
    }

    /// The events of the `k`-th request; distinct for every `k < COLD_OFFSETS`.
    pub fn window(&self, k: usize) -> &str {
        let offset = (self.base + k.wrapping_mul(self.stride)) % COLD_OFFSETS;
        &self.text[offset..offset + COLD_WINDOW]
    }

    pub fn config() -> MinerConfig {
        config(COLD_ALPHA, COLD_MAX_LEVEL)
    }
}

/// The config every `ingest-mixed` stream re-mines under.
pub fn ingest_config() -> MinerConfig {
    config(HOT_ALPHAS[0], HOT_MAX_LEVEL)
}

/// The `ingest-mixed` stream content: a seed prefix plus the letters
/// appended after it. Every writer cycle replays the same content under a
/// new stream name, so cycles do identical work.
pub struct IngestStream {
    pub seed_prefix: String,
    pub appended: String,
}

impl IngestStream {
    pub fn new(gen: &Gen, total: usize) -> Self {
        let mut text = gen.letters(INGEST_SEED_LEN + total, 0x70);
        let appended = text.split_off(INGEST_SEED_LEN);
        IngestStream {
            seed_prefix: text,
            appended,
        }
    }

    /// The stream name of writer cycle `cycle`.
    pub fn name(cycle: u64) -> String {
        format!("bench-stream-{cycle}")
    }

    /// The append chunks in order.
    pub fn chunks(&self) -> impl Iterator<Item = &str> {
        let bytes = self.appended.as_bytes();
        (0..bytes.len())
            .step_by(INGEST_CHUNK)
            .map(move |i| &self.appended[i..(i + INGEST_CHUNK).min(bytes.len())])
    }

    /// The committed stream after `appended` symbols were sealed into windows.
    pub fn prefix(&self, appended: usize) -> String {
        format!("{}{}", self.seed_prefix, &self.appended[..appended])
    }

    pub fn register_frame(&self, cycle: u64) -> String {
        let config = ingest_config();
        format!(
            "{{\"type\":\"register\",\"tenant\":\"{TENANT}\",\"api_key\":\"{API_KEY}\",\"stream\":\"{}\",\"seed\":\"{}\",\"alpha\":{:?},\"max_level\":{},\"flush_count\":{INGEST_FLUSH_COUNT}}}",
            Self::name(cycle),
            self.seed_prefix,
            config.alpha,
            config.max_level.expect("bounded"),
        )
    }

    pub fn ingest_frame(cycle: u64, chunk: &str) -> String {
        format!(
            "{{\"type\":\"ingest\",\"tenant\":\"{TENANT}\",\"api_key\":\"{API_KEY}\",\"stream\":\"{}\",\"symbols\":\"{chunk}\"}}",
            Self::name(cycle)
        )
    }
}

/// A `"stats"` frame.
pub fn stats_frame() -> String {
    format!("{{\"type\":\"stats\",\"tenant\":\"{TENANT}\",\"api_key\":\"{API_KEY}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let catalog = |seed| hot_catalog(&Gen::new(seed, CONTENT_SEED));
        assert_eq!(catalog(7)[0].events, catalog(7)[0].events);
        assert_ne!(catalog(7)[0].events, catalog(8)[0].events);
        assert_ne!(
            hot_catalog(&Gen::new(7, 1))[0].events,
            hot_catalog(&Gen::new(7, 2))[0].events
        );
        let s = HotSchedule::new(3);
        let pair = (s.entry(5, 0), s.entry(5, 1));
        assert_eq!(pair.0 / 2, pair.1 / 2, "both connections mine one stream");
        assert_ne!(pair.0, pair.1, "with different configs");
    }

    #[test]
    fn relabeling_permutes_the_alphabet() {
        let mut labels = Gen::new(5, CONTENT_SEED).labels;
        labels.sort_unstable();
        assert_eq!(labels, std::array::from_fn(|i| b'A' + i as u8));
    }

    #[test]
    fn cold_windows_are_distinct() {
        let cold = ColdStream::new(&Gen::new(1, CONTENT_SEED), 1);
        let offsets: std::collections::HashSet<usize> = (0..4096)
            .map(|k| (cold.base + k * cold.stride) % COLD_OFFSETS)
            .collect();
        assert_eq!(offsets.len(), 4096);
        assert_eq!(cold.window(3).len(), COLD_WINDOW);
    }

    #[test]
    fn ingest_chunks_cover_the_appended_text() {
        let s = IngestStream::new(&Gen::new(1, CONTENT_SEED), 4_250);
        let joined: String = s.chunks().collect();
        assert_eq!(joined, s.appended);
        assert_eq!(s.prefix(0), s.seed_prefix);
    }
}
