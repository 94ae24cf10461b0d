//! The deployment under test and the client side of the socket.
//!
//! Every workload runs against the same deployment: `ServerConfig` defaults,
//! the service pool at the machine's parallelism, a 2 ms co-mining window,
//! and one tenant with no rate limit and no quota, so any refusal is a defect
//! rather than policy.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdm_serve::ServiceConfig;
use tdm_server::json::{self, Value};
use tdm_server::{wire, Server, ServerConfig, TenantConfig};

use crate::check;
use crate::inputs::{stats_frame, API_KEY, TENANT};
use crate::trace::Tracer;

/// The co-mining formation window of the deployment.
pub const COMINE_WINDOW: Duration = Duration::from_millis(2);

/// The machine's parallelism, which sizes the service pool.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn server_config() -> ServerConfig {
    ServerConfig {
        service: ServiceConfig {
            workers: parallelism(),
            comine_window: COMINE_WINDOW,
            ..ServiceConfig::default()
        },
        tenants: vec![TenantConfig::new(TENANT, API_KEY)],
        ..ServerConfig::default()
    }
}

/// One line describing the deployment, for the output header.
pub fn describe() -> String {
    let c = server_config();
    format!(
        "handler_threads={} backlog={} max_frame={} read_timeout_ms={} service.workers={} \
         service.max_in_flight={} service.max_pending={} service.cache_capacity={} \
         service.comine_window_ms={} service.comine_max_batch={} tenants=1(rate=none,quota=none)",
        c.handler_threads,
        c.backlog,
        c.max_frame,
        c.read_timeout.as_millis(),
        c.service.workers,
        c.service.max_in_flight,
        c.service.max_pending,
        c.service.cache_capacity,
        c.service.comine_window.as_millis(),
        c.service.comine_max_batch,
    )
}

/// An in-process server plus the count of mine frames sent to it.
pub struct Deployment {
    server: Server,
    mine_sent: Arc<AtomicU64>,
}

impl Deployment {
    pub fn start() -> std::io::Result<Deployment> {
        Ok(Deployment {
            server: Server::bind(server_config())?,
            mine_sent: Arc::new(AtomicU64::new(0)),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    pub fn pool_workers(&self) -> usize {
        self.server.service().pool().workers()
    }

    pub fn connect(&self) -> std::io::Result<Conn> {
        Conn::connect(self.addr(), Arc::clone(&self.mine_sent))
    }

    /// A `/stats` snapshot over a connection of its own.
    pub fn stats(&self) -> Result<Stats, String> {
        let mut conn = self.connect().map_err(|e| format!("stats connect: {e}"))?;
        let reply = conn
            .call(&stats_frame())
            .map_err(|e| format!("stats call: {e}"))?;
        Stats::from_reply(&reply.value)
    }

    /// Ends the run: takes the final `/stats`, checks the stats invariants,
    /// waits for the connection gauges to drain, and shuts the server down.
    /// Call after every client connection is closed.
    pub fn finish(self) -> Result<Stats, String> {
        let stats = self.stats()?;
        let mut broken = Vec::new();
        let mine_sent = self.mine_sent.load(Ordering::SeqCst);
        let terminal = stats.completed + stats.failed + stats.rejected + stats.cancelled;
        if terminal != mine_sent + stats.windows_sealed {
            broken.push(format!(
                "completed+failed+rejected+cancelled = {terminal}, but {mine_sent} mine \
                 requests + {} ingest re-mines were submitted",
                stats.windows_sealed
            ));
        }
        if stats.protocol_errors != 0 {
            broken.push(format!(
                "server.protocol_errors = {}",
                stats.protocol_errors
            ));
        }
        let drained = Instant::now();
        while (self.server.active_connections() != 0 || self.server.tenant_in_flight() != 0)
            && drained.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        if self.server.active_connections() != 0 {
            broken.push(format!(
                "active_connections = {} after every client closed",
                self.server.active_connections()
            ));
        }
        if self.server.tenant_in_flight() != 0 {
            broken.push(format!(
                "tenant_in_flight = {} after every client closed",
                self.server.tenant_in_flight()
            ));
        }
        self.server.shutdown();
        if broken.is_empty() {
            Ok(stats)
        } else {
            Err(broken.join("; "))
        }
    }
}

/// One reply, the client-measured round trip that produced it, and when
/// that round trip ended.
#[derive(Debug, Clone)]
pub struct Reply {
    pub value: Value,
    pub rtt: Duration,
    pub done: Instant,
}

impl Reply {
    pub fn kind(&self) -> &str {
        self.value.get("type").and_then(Value::as_str).unwrap_or("")
    }

    fn field_us(&self, key: &str) -> Option<f64> {
        self.value.get(key).and_then(Value::as_f64)
    }

    /// The serving measurements of a `mine_result` reply.
    pub fn queue_wait_us(&self) -> Option<f64> {
        self.field_us("queue_wait_us")
    }

    pub fn mine_time_us(&self) -> Option<f64> {
        self.field_us("mine_time_us")
    }

    /// Digest of the result document of a `mine_result` reply.
    pub fn result_digest(&self) -> Option<u64> {
        (self.kind() == "mine_result")
            .then(|| self.value.get("result"))
            .flatten()
            .map(check::digest)
    }

    /// For an `ingest` reply that sealed a window: the symbols it committed
    /// and the re-mine's `mine_result` reply.
    pub fn flushed(&self) -> Option<(u64, Reply)> {
        if self.kind() != "ingest" || self.value.get("outcome")?.as_str()? != "flushed" {
            return None;
        }
        let symbols = self.value.get("symbols")?.as_u64()?;
        let result = Reply {
            value: self.value.get("result")?.clone(),
            rtt: self.rtt,
            done: self.done,
        };
        Some((symbols, result))
    }

    pub fn is_buffered(&self) -> bool {
        self.kind() == "ingest"
            && self.value.get("outcome").and_then(Value::as_str) == Some("buffered")
    }
}

/// A client connection speaking the wire protocol.
pub struct Conn {
    stream: TcpStream,
    mine_sent: Arc<AtomicU64>,
}

impl Conn {
    fn connect(addr: SocketAddr, mine_sent: Arc<AtomicU64>) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream, mine_sent })
    }

    /// Sends one request frame and reads its reply; the round trip runs
    /// from the first byte written to the reply parsed.
    pub fn call(&mut self, frame: &str) -> Result<Reply, String> {
        self.call_inner(frame, None)
    }

    /// As [`Conn::call`], with client-side spans under a request root.
    pub fn call_traced(
        &mut self,
        frame: &str,
        tracer: &mut Tracer,
        request: u64,
    ) -> Result<Reply, String> {
        self.call_inner(frame, Some((tracer, request)))
    }

    fn call_inner(
        &mut self,
        frame: &str,
        mut trace: Option<(&mut Tracer, u64)>,
    ) -> Result<Reply, String> {
        if frame.starts_with("{\"type\":\"mine\"") {
            self.mine_sent.fetch_add(1, Ordering::SeqCst);
        }
        let stream = &mut self.stream;
        let started = Instant::now();
        let reply = match trace.as_mut() {
            None => {
                write_frame(stream, frame).map_err(|e| e.to_string())?;
                let payload =
                    wire::read_frame(stream, wire::MAX_FRAME).map_err(|e| e.to_string())?;
                parse(&payload)?
            }
            Some((tracer, request)) => {
                let root = tracer.open("client.call", "client", None, *request);
                tracer
                    .span("client.write_frame", "client", root, || {
                        write_frame(stream, frame)
                    })
                    .map_err(|e| e.to_string())?;
                let payload = tracer
                    .span("client.read_frame", "client", root, || {
                        wire::read_frame(stream, wire::MAX_FRAME)
                    })
                    .map_err(|e| e.to_string())?;
                let value = tracer.span("client.json_parse", "client", root, || parse(&payload))?;
                tracer.close(root);
                value
            }
        };
        let done = Instant::now();
        Ok(Reply {
            value: reply,
            rtt: done - started,
            done,
        })
    }
}

/// Writes one frame, length prefix and payload, in a single write.
/// `wire::write_frame` writes the prefix on its own; with `TCP_NODELAY` it
/// leaves as a segment of its own and the server's handler wakes twice per
/// request. In `mine-hot` that second wake-up cost 1–8% of the requests
/// their fusion, so the client added scheduling noise of its own to every
/// run.
fn write_frame(stream: &mut TcpStream, frame: &str) -> std::io::Result<()> {
    let len = u32::try_from(frame.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too large for u32")
    })?;
    let mut bytes = Vec::with_capacity(4 + frame.len());
    bytes.extend_from_slice(&len.to_be_bytes());
    bytes.extend_from_slice(frame.as_bytes());
    stream.write_all(&bytes)
}

fn parse(payload: &[u8]) -> Result<Value, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "reply is not UTF-8".to_string())?;
    json::parse(text).map_err(|e| format!("reply is not JSON: {e}"))
}

/// The `/stats` counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub completed: u64,
    pub failed: u64,
    pub rejected: u64,
    pub cancelled: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub co_cache_hits: u64,
    pub co_cache_misses: u64,
    pub fused_requests: u64,
    pub solo_fallbacks: u64,
    pub windows_sealed: u64,
    pub deferred_appends: u64,
    pub remines: u64,
    pub protocol_errors: u64,
    pub refused: u64,
}

impl Stats {
    fn from_reply(v: &Value) -> Result<Stats, String> {
        let get = |path: &[&str]| -> Result<u64, String> {
            let mut cur = v;
            for key in path {
                cur = cur
                    .get(key)
                    .ok_or_else(|| format!("/stats lacks {}", path.join(".")))?;
            }
            cur.as_u64()
                .ok_or_else(|| format!("/stats {} is not a count", path.join(".")))
        };
        Ok(Stats {
            completed: get(&["service", "completed"])?,
            failed: get(&["service", "failed"])?,
            rejected: get(&["service", "rejected"])?,
            cancelled: get(&["service", "cancelled"])?,
            cache_hits: get(&["service", "cache", "hits"])?,
            cache_misses: get(&["service", "cache", "misses"])?,
            co_cache_hits: get(&["service", "co_cache", "hits"])?,
            co_cache_misses: get(&["service", "co_cache", "misses"])?,
            fused_requests: get(&["service", "comining", "fused_requests"])?,
            solo_fallbacks: get(&["service", "comining", "solo_fallbacks"])?,
            windows_sealed: get(&["ingest", "windows_sealed"])?,
            deferred_appends: get(&["ingest", "deferred_appends"])?,
            remines: get(&["ingest", "remines"])?,
            protocol_errors: get(&["server", "protocol_errors"])?,
            refused: get(&["server", "refused"])?,
        })
    }

    /// Counters accrued since `earlier`.
    pub fn since(&self, earlier: &Stats) -> Stats {
        Stats {
            completed: self.completed - earlier.completed,
            failed: self.failed - earlier.failed,
            rejected: self.rejected - earlier.rejected,
            cancelled: self.cancelled - earlier.cancelled,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            co_cache_hits: self.co_cache_hits - earlier.co_cache_hits,
            co_cache_misses: self.co_cache_misses - earlier.co_cache_misses,
            fused_requests: self.fused_requests - earlier.fused_requests,
            solo_fallbacks: self.solo_fallbacks - earlier.solo_fallbacks,
            windows_sealed: self.windows_sealed - earlier.windows_sealed,
            deferred_appends: self.deferred_appends - earlier.deferred_appends,
            remines: self.remines - earlier.remines,
            protocol_errors: self.protocol_errors - earlier.protocol_errors,
            refused: self.refused - earlier.refused,
        }
    }
}
