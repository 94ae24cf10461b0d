//! A small blocking client for the wire protocol — used by the examples,
//! the socket benchmark, and the e2e suites.

use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{self, JsonError, Value};
use crate::wire::{self, FrameError};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The response frame could not be read.
    Frame(FrameError),
    /// The response payload was not valid JSON (never expected from this
    /// crate's server).
    Json(JsonError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Frame(e) => write!(f, "framing error: {e}"),
            ClientError::Json(e) => write!(f, "bad response payload: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// One connection speaking the protocol. Requests on a connection are
/// served strictly in order, so a client is also the unit of serialization.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connects; no read timeout (mining replies can take a while).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client { stream })
    }

    /// Connects with a response deadline enforced client-side.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Client> {
        let client = Client::connect(addr)?;
        client.stream.set_read_timeout(Some(timeout))?;
        Ok(client)
    }

    /// Sends one request value and reads its response value.
    pub fn call(&mut self, request: &Value) -> Result<Value, ClientError> {
        wire::write_frame(&mut self.stream, request.encode().as_bytes())?;
        self.read_reply()
    }

    /// Sends one pre-encoded payload in a well-formed frame and reads the
    /// response — for protocol-robustness tests feeding hostile payloads.
    pub fn call_bytes(&mut self, payload: &[u8]) -> Result<Value, ClientError> {
        wire::write_frame(&mut self.stream, payload)?;
        self.read_reply()
    }

    /// Writes raw bytes with **no framing** — for tests that corrupt the
    /// framing layer itself (truncated frames, absurd length prefixes).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)?;
        self.stream.flush()
    }

    /// Reads one response frame.
    pub fn read_reply(&mut self) -> Result<Value, ClientError> {
        let payload =
            wire::read_frame(&mut self.stream, wire::MAX_FRAME).map_err(ClientError::Frame)?;
        let text = std::str::from_utf8(&payload).map_err(|_| {
            ClientError::Json(JsonError {
                at: 0,
                what: "response is not UTF-8",
            })
        })?;
        json::parse(text).map_err(ClientError::Json)
    }

    /// Half-closes the write side so the server sees a clean EOF.
    pub fn finish(self) -> io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Write)
    }
}

/// Builds a `"mine"` request value over inline events. `backend` is
/// `"auto"` (the server's default when `None`) or `"gpu"`.
#[allow(clippy::too_many_arguments)]
pub fn mine_request(
    tenant: &str,
    api_key: &str,
    events: &str,
    alpha: f64,
    max_level: Option<usize>,
    backend: Option<&str>,
    priority: Option<&str>,
    deadline_ms: Option<u64>,
) -> Value {
    let mut pairs = vec![
        ("type".into(), Value::str("mine")),
        ("tenant".into(), Value::str(tenant)),
        ("api_key".into(), Value::str(api_key)),
        ("events".into(), Value::str(events)),
        ("alpha".into(), Value::Number(alpha)),
    ];
    if let Some(level) = max_level {
        pairs.push(("max_level".into(), Value::u64(level as u64)));
    }
    if let Some(backend) = backend {
        pairs.push(("backend".into(), Value::str(backend)));
    }
    if let Some(priority) = priority {
        pairs.push(("priority".into(), Value::str(priority)));
    }
    if let Some(ms) = deadline_ms {
        pairs.push(("deadline_ms".into(), Value::u64(ms)));
    }
    Value::Object(pairs)
}

/// Builds a `"stats"` request value.
pub fn stats_request(tenant: &str, api_key: &str) -> Value {
    Value::Object(vec![
        ("type".into(), Value::str("stats")),
        ("tenant".into(), Value::str(tenant)),
        ("api_key".into(), Value::str(api_key)),
    ])
}
